"""``draws.choice`` reproduces numpy's ``default_rng(seed).choice`` draws.

k-means seeds from ``draws.choice``, so these tests are what keep every
clustering equal to the one a ``numpy.random`` seeding gave. The tests
themselves may import ``numpy.random``; the library does not.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from d4kit import EmbeddingMatrix, KmeansConfig, draws, kmeans_spherical, read_embeddings, write_embeddings
from d4kit.errors import ValidationError

EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1)
SEEDS = st.sampled_from(EDGE_SEEDS) | st.integers(0, 2**64 - 1)


def _numpy_choice(seed: int, n: int, k: int) -> np.ndarray:
    return np.random.default_rng(seed).choice(n, size=k, replace=False)


def _assert_matches_numpy(seed: int, n: int, k: int) -> None:
    got, want = draws.choice(seed, n, k), _numpy_choice(seed, n, k)
    assert got.dtype == np.int64 and want.dtype == np.int64
    np.testing.assert_array_equal(got, want)


@st.composite
def _cases(draw):
    """(n, k) on either of numpy's paths: Floyd's (n <= 10,000 or
    k <= n // 50) and the tail shuffle (n > 10,000 and k > n // 50)."""
    if draw(st.booleans()):
        n = draw(st.integers(10_001, 14_000))
        return n, draw(st.integers(n // 50 + 1, n))
    n = draw(st.integers(1, 10_000) | st.integers(10_001, 14_000))
    return n, draw(st.integers(0, n if n <= 10_000 else n // 50))


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, case=_cases())
def test_choice_matches_numpy(seed, case):
    _assert_matches_numpy(seed, *case)


@pytest.mark.parametrize("seed", EDGE_SEEDS)
@pytest.mark.parametrize(
    "n,k",
    [
        (10_000, 9_999),  # Floyd's path at its largest n
        (10_001, 200),  # Floyd's path: k = n // 50
        (10_001, 201),  # tail shuffle: k = n // 50 + 1
        (12_000, 12_000),  # tail shuffle of every row
        (50, 50),  # k = n on Floyd's path
        (12_000, 0),
        (5, 0),
        (1, 1),
        (1, 0),
        (0, 0),
    ],
)
def test_choice_matches_numpy_at_edges(seed, n, k):
    _assert_matches_numpy(seed, n, k)


@pytest.mark.parametrize("high", [2**32, 2**40 + 3, 2**63, 2**64 - 2, 2**64 - 1])
def test_64_bit_bounded_draws_match_numpy(high):
    # Rows past 2**32 take Lemire's 64-bit draw; no test can afford such an n.
    for seed in EDGE_SEEDS:
        rng, ref = draws._Pcg64(seed), np.random.default_rng(seed)
        got = [rng.bounded(high) for _ in range(6)]
        want = [int(ref.integers(0, high, endpoint=True, dtype=np.uint64)) for _ in range(6)]
        assert got == want


def test_draws_are_pinned():
    # Literal draws, so d4kit's seeding stays fixed whatever a later numpy does.
    assert draws.choice(0, 10, 4).tolist() == [2, 4, 5, 7]
    assert draws.choice(2**64 - 1, 12_000, 8).tolist() == [11396, 1201, 10734, 10140, 88, 8156, 6571, 4300]
    tail = draws.choice(12345, 20_000, 500)
    assert tail[:5].tolist() == [13386, 14752, 6512, 7364, 16833]
    assert tail[-5:].tolist() == [4082, 6334, 15771, 4546, 13984]


@pytest.mark.parametrize("seed,n,k", [(-1, 5, 2), (2**64, 5, 2), (0, 5, 6), (0, 5, -1)])
def test_choice_rejects_out_of_range_arguments(seed, n, k):
    with pytest.raises(ValidationError):
        draws.choice(seed, n, k)


def _assert_kmeans_seeding_equals_numpy_seeding(emb: EmbeddingMatrix, cfg: KmeansConfig) -> None:
    got = kmeans_spherical(emb, cfg)
    want = kmeans_spherical(
        emb, cfg, init_centroids=emb.vectors[_numpy_choice(cfg.seed & draws.M64, emb.n, cfg.k)]
    )
    np.testing.assert_array_equal(got.centroids, want.centroids)
    np.testing.assert_array_equal(got.assignment, want.assignment)
    np.testing.assert_array_equal(got.distance, want.distance)
    assert got.objective_history == want.objective_history
    assert got.iters_run == want.iters_run


@pytest.mark.parametrize("k", [40, 300], ids=["floyd", "tail-shuffle"])
def test_kmeans_seeding_equals_numpy_seeding(k):
    # 12,000 rows: k = 40 takes Floyd's path, k = 300 (> 12,000 // 50) the tail shuffle.
    rng = np.random.default_rng(k)
    rows = rng.normal(size=(12_000, 16))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    emb = EmbeddingMatrix(tuple(f"p{i:05d}" for i in range(len(rows))), rows, True)
    _assert_kmeans_seeding_equals_numpy_seeding(emb, KmeansConfig(k=k, iters=5, seed=-7))


def test_kmeans_seeding_equals_numpy_seeding_on_float32_rows(tmp_path):
    # Rows stored as float32 read back with float64 norms off 1.0 by rounding;
    # ``init_centroids`` starts from them as they are, as the seeded draw does.
    rng = np.random.default_rng(12)
    rows = rng.normal(size=(12_000, 16))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    path = str(tmp_path / "rows.d4em")
    write_embeddings(EmbeddingMatrix(tuple(f"p{i:05d}" for i in range(len(rows))), rows.astype(np.float32), True), path)
    emb = read_embeddings(path)
    assert (np.linalg.norm(emb.vectors.astype(np.float64), axis=1) != 1.0).all()
    _assert_kmeans_seeding_equals_numpy_seeding(emb, KmeansConfig(k=40, iters=5, seed=3))
