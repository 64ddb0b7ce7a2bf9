"""A matrix held as float32 gives the bytes of the same values held as float64.

``EmbeddingMatrix`` keeps float32 rows as float32 and every stage gathers
them as float64, so k-means, the selections and ``nn_to_train`` must see the
same float64 values, in the same product blocks, whichever way the rows are
held. A stage that multiplied float32 rows in float32, or started k-means
from float32 centroids, would move a bit here.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from d4kit import D4Config, EmbeddingMatrix, KmeansConfig, d4, kmeans_spherical, nn_to_train, semdedup
from d4kit.select import ssl_prototypes


def _held_both_ways(rows32: np.ndarray, prefix: str) -> tuple[EmbeddingMatrix, EmbeddingMatrix]:
    ids = tuple(f"{prefix}{i:05d}" for i in range(len(rows32)))
    as32 = EmbeddingMatrix(ids, rows32, True)
    as64 = EmbeddingMatrix(ids, rows32.astype(np.float64), True)
    assert as32.vectors.dtype == np.float32 and as64.vectors.dtype == np.float64
    return as32, as64


def _unit_rows32(rng, n: int, d: int) -> np.ndarray:
    # A third of the rows are copies of others, so SemDeDup has exact
    # duplicates to merge and k-means draws tied centroids.
    rows = rng.normal(size=(n, d))
    rows[: n // 3] = rows[rng.integers(n // 3, n, n // 3)]
    return (rows / np.linalg.norm(rows, axis=1, keepdims=True)).astype(np.float32)


@st.composite
def _inputs(draw):
    # Up to 60 rows, or 520 to 1,100, where a matrix's product blocks are
    # capped by the float64 gather (``cluster._GATHER_ROWS``); k at most d
    # (one product block unless capped) or above it (several).
    n = draw(st.one_of(st.integers(2, 60), st.integers(520, 1100)))
    d = draw(st.sampled_from([2, 3, 5, 8, 16, 64]))
    k = draw(st.one_of(st.integers(1, min(d, n)), st.integers(min(d + 1, n), min(4 * d + 2, n))))
    return draw(st.integers(0, 2**32 - 1)), n, d, k


def _fit_bytes(c) -> tuple:
    return (c.centroids.tobytes(), c.assignment.tobytes(), c.distance.tobytes(), c.objective_history, c.iters_run)


def _result_bytes(r) -> tuple:
    eps = None if r.epsilon_used is None else r.epsilon_used.hex()
    return r.kept_ids, [x.hex() for x in r.scores], eps, r.warnings, [_result_bytes(s) for s in r.stages]


@settings(max_examples=40, deadline=None)
@given(_inputs(), st.sampled_from([0.5, 0.75, 0.9]))
# A gemm's bits depend on its block's shape: had only float32-held rows
# been split by the gather cap, these fits' distances would differ.
@example((541, 571, 64, 2), 0.75)
@example((124, 754, 8, 1), 0.5)
def test_float32_held_matrix_gives_float64_held_bytes(inputs, r):
    seed, n, d, k = inputs
    rng = np.random.default_rng(seed)
    as32, as64 = _held_both_ways(_unit_rows32(rng, n, d), "p")
    cfg = KmeansConfig(k=k, iters=4, seed=seed)
    fit32, fit64 = kmeans_spherical(as32, cfg), kmeans_spherical(as64, cfg)
    assert _fit_bytes(fit32) == _fit_bytes(fit64)
    for method in (lambda e, c: semdedup(e, c, r), lambda e, c: ssl_prototypes(e, c, r)):
        assert _result_bytes(method(as32, fit32)) == _result_bytes(method(as64, fit64))
    d4cfg = D4Config(r_dedup=r, r_proto=0.8, kmeans=KmeansConfig(iters=3, seed=seed))
    assert _result_bytes(d4(as32, d4cfg)) == _result_bytes(d4(as64, d4cfg))
    valid32, valid64 = _held_both_ways(_unit_rows32(rng, max(n // 4, 1), d), "v")
    got, want = nn_to_train(valid32, as32), nn_to_train(valid64, as64)
    assert [(e.valid_id, e.train_id, e.distance.hex()) for e in got.entries] == [
        (e.valid_id, e.train_id, e.distance.hex()) for e in want.entries
    ]
