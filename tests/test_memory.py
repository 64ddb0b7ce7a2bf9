"""Every stage's memory is O(n * d), and MinHash's O(n) plus one block, under
3x its n x num_hashes x 8-byte signatures.

The text commands stream their corpus, so 16x longer texts barely move
their peak.

Each stage runs at n and 4n points (and a validation set 4x larger too),
under ``tracemalloc``. Its peak may grow at most 4.5x, where a stage
quadratic in n (or in n * k at the default k = sqrt(n)) would grow 8-16x,
and must stay under a fixed multiple of the n * d * 8 bytes of the float64
matrix. The ``_half_k`` stages run at k = n / 2, so a term in k * k or
n * k shows too. Inputs are built before tracing starts, so they are not
counted.
"""

import contextlib
import gc
import io
import tracemalloc

import numpy as np
import pytest

from d4kit import (
    D4Config,
    Document,
    DocumentSet,
    EmbedderSpec,
    EmbeddingMatrix,
    KmeansConfig,
    LshConfig,
    SynthSpec,
    analyze_clustering,
    d4,
    embed_corpus,
    kmeans_spherical,
    lsh_dedup,
    nn_to_train,
    read_embeddings,
    semdedup,
    synthesize_corpus,
    write_clustering,
    write_corpus,
    write_embeddings,
)
from d4kit.cli import run
from d4kit.cluster import _sample_rows
from d4kit.select import ssl_prototypes

D = 32  # below the default k at 4n, so k-means's n x k product must block
SIZES = (1000, 4000)
MULTIPLE = 2.5


def _unit_rows(rng, n: int) -> np.ndarray:
    # Clumps of 5 near-copies, so SemDeDup and D4 have duplicates to remove.
    centers = rng.normal(size=(n // 5, D))
    rows = np.repeat(centers, 5, axis=0) + rng.normal(scale=0.05, size=(n, D))
    return (rows / np.linalg.norm(rows, axis=1, keepdims=True)).astype(np.float32)


def _stage_call(stage: str, n: int, tmp_path):
    """A zero-argument call of ``stage`` on n points."""
    rng = np.random.default_rng(n)
    emb = EmbeddingMatrix(tuple(f"d{i:05d}" for i in range(n)), _unit_rows(rng, n), True)
    valid = EmbeddingMatrix(tuple(f"v{i:05d}" for i in range(n // 4)), _unit_rows(rng, n // 4), True)
    path = str(tmp_path / f"m{n}.d4em")
    write_embeddings(emb, path)
    docs = DocumentSet.from_documents([Document(id=i, text="", token_count=0) for i in emb.ids])
    clustering = kmeans_spherical(emb, KmeansConfig(k=16, seed=0))
    if stage == "analyze_clustering_half_k":
        half_k = kmeans_spherical(emb, KmeansConfig(k=n // 2, iters=3, seed=0))
        return lambda: analyze_clustering(emb, half_k)
    return {
        "read_embeddings": lambda: read_embeddings(path),
        "embed_corpus_external": lambda: embed_corpus(docs, EmbedderSpec(kind="external", dim=D, path=path)),
        "nn_to_train": lambda: nn_to_train(valid, emb),
        "kmeans_spherical": lambda: kmeans_spherical(emb, KmeansConfig(iters=3, seed=0)),
        # k > D / 2, so every assign runs in several product blocks.
        "kmeans_spherical_half_k": lambda: kmeans_spherical(emb, KmeansConfig(k=n // 2, iters=3, seed=0)),
        "semdedup": lambda: semdedup(emb, clustering, 0.75),
        "ssl_prototypes": lambda: ssl_prototypes(emb, clustering, 0.5),
        "d4": lambda: d4(emb, D4Config(r_dedup=0.75, r_proto=0.5, kmeans=KmeansConfig(iters=3)), clustering),
        "analyze_clustering": lambda: analyze_clustering(emb, clustering),
        "write_embeddings": lambda: write_embeddings(emb, str(tmp_path / f"w{n}.d4em")),
    }[stage]


def _peak(call) -> int:
    call()  # once untraced, so lazy imports on a first call are not counted
    # Collect the warm-up's cyclic garbage, so the traced call starts at the
    # same collector phase whatever ran before it.
    gc.collect()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "stage",
    (
        "read_embeddings",
        "embed_corpus_external",
        "nn_to_train",
        "kmeans_spherical",
        "kmeans_spherical_half_k",
        "semdedup",
        "ssl_prototypes",
        "d4",
        "analyze_clustering",
        "analyze_clustering_half_k",
        "write_embeddings",
    ),
)
def test_stage_peak_linear_in_n(stage, tmp_path):
    peaks = {n: _peak(_stage_call(stage, n, tmp_path)) for n in SIZES}
    for n, peak in peaks.items():
        assert peak < MULTIPLE * n * D * 8, (n, peak / (n * D * 8))
    assert peaks[SIZES[1]] <= 4.5 * peaks[SIZES[0]], peaks


def _lsh_call(n_docs: int, words: int):
    """A zero-argument ``lsh_dedup`` of n_docs documents of ``words`` random words each."""
    rng = np.random.default_rng(n_docs * words)
    vocab = np.array([f"w{i}" for i in range(5000)])
    texts = [" ".join(row) for row in vocab[rng.integers(0, len(vocab), size=(n_docs, words))]]
    docs = DocumentSet.from_documents(
        [Document(id=f"d{i:05d}", text=t, token_count=words) for i, t in enumerate(texts)]
    )
    return lambda: lsh_dedup(docs, LshConfig(seed=0))


def test_lsh_dedup_peak_bounded_by_sign_block():
    # 500 documents of 50 words already fill several signing blocks. Longer
    # documents add shingles but not blocks in flight, so only the per-document
    # arrays (one signature row, band heads, labels) grow with the corpus.
    base = _peak(_lsh_call(500, 50))
    longer = _peak(_lsh_call(500, 200))
    more = _peak(_lsh_call(2000, 50))
    assert longer <= 1.5 * base, (base, longer)
    assert more <= 4.5 * base, (base, more)


@pytest.mark.parametrize("command", ["minhash", "embed", "schedule"])
def test_text_command_peak_independent_of_text_length(command, tmp_path):
    # The same 128 documents at 100 and at 1,600 words. Each corpus fills
    # several blocks, and the longer one is 16x the bytes; a command that
    # held every text would grow its peak ~2x here, and more with n.
    # ``schedule`` gets a budget of two epochs at either length.
    peaks = {}
    for words in (100, 1600):
        corpus = tmp_path / f"c{words}.jsonl"
        spec = SynthSpec(n_topics=4, docs_per_topic=32, doc_length_range=(words, words), seed=1)
        write_corpus(synthesize_corpus(spec), str(corpus))
        argv = [command, "--corpus", str(corpus), "--out", str(tmp_path / f"out{words}")]
        if command == "schedule":
            argv += ["--budget-tokens", str(2 * 128 * words)]

        def call():
            with contextlib.redirect_stdout(io.StringIO()):
                assert run(argv) == 0

        peaks[words] = _peak(call)
    assert peaks[1600] <= 1.5 * peaks[100], peaks


@pytest.mark.parametrize("method", ["random", "prototypes"])
def test_streamed_select_peak_independent_of_dimension(method, tmp_path):
    # The same 4,000 ids at d = 8 and d = 128. ``select --method random``
    # keeps only the ids, and prototypes on a given clustering the ids and the
    # clustering (k = 4), each checking the file a block at a time. Holding
    # the float64 matrix would add n * d * 8 bytes, 4 MB at d = 128, which
    # is over 3x the peak at d = 8.
    n = 4000
    peaks = {}
    for d in (8, 128):
        rows = np.random.default_rng(d).normal(size=(n, d))
        emb = EmbeddingMatrix(
            tuple(f"d{i:05d}" for i in range(n)),
            (rows / np.linalg.norm(rows, axis=1, keepdims=True)).astype(np.float32),
            True,
        )
        path = tmp_path / f"e{d}.d4em"
        write_embeddings(emb, str(path))
        argv = ["select", "--embeddings", str(path), "--method", method, "--r", "0.5", "--out", str(tmp_path / f"o{d}")]
        if method == "prototypes":
            km = tmp_path / f"c{d}.d4km"
            write_clustering(kmeans_spherical(emb, KmeansConfig(k=4, iters=2, seed=0)), str(km))
            argv += ["--clustering", str(km)]
        del emb, rows

        def call():
            with contextlib.redirect_stdout(io.StringIO()):
                assert run(argv) == 0

        peaks[d] = _peak(call)
    assert peaks[128] <= 1.5 * peaks[8], peaks


def _unit_file(path, n: int, d: int, prefix: str = "d") -> EmbeddingMatrix:
    rows = np.random.default_rng(n * d).normal(size=(n, d))
    emb = EmbeddingMatrix(
        tuple(f"{prefix}{i:05d}" for i in range(n)),
        (rows / np.linalg.norm(rows, axis=1, keepdims=True)).astype(np.float32),
        True,
    )
    write_embeddings(emb, str(path))
    return emb


def _cli_peak(argv) -> int:
    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(argv) == 0

    return _peak(call)


def test_streamed_nn_peak_independent_of_train_rows(tmp_path):
    # 1,000 validation rows against 4,000 and 16,000 train rows at d = 128.
    # The train file is read a block at a time, so only its ids grow; the
    # float64 train matrix alone would be 4 MB and 16 MB.
    valid = tmp_path / "valid.d4em"
    _unit_file(valid, 1000, 128, "v")
    peaks = {}
    for n in (4000, 16000):
        train = tmp_path / f"t{n}.d4em"
        _unit_file(train, n, 128)
        peaks[n] = _cli_peak(["nn", str(valid), "--embeddings", str(train), "--out", str(tmp_path / f"o{n}")])
    assert peaks[16000] <= 1.5 * peaks[4000], peaks


def test_streamed_diagnose_peak_independent_of_dimension(tmp_path):
    # As the streamed selects: 4,000 ids at d = 8 and d = 128, k = 4.
    n = 4000
    peaks = {}
    for d in (8, 128):
        path, km = tmp_path / f"e{d}.d4em", tmp_path / f"c{d}.d4km"
        write_clustering(kmeans_spherical(_unit_file(path, n, d), KmeansConfig(k=4, iters=2, seed=0)), str(km))
        argv = ["diagnose", "--embeddings", str(path), "--clustering", str(km), "--out", str(tmp_path / f"o{d}")]
        peaks[d] = _cli_peak(argv)
    assert peaks[128] <= 1.5 * peaks[8], peaks


def test_external_embed_holds_one_float32_copy(tmp_path):
    # 4,000 documents at d = 8 and d = 128. The ids cost the same at either
    # width, so the rise in peak is what the rows take: one float32 copy is
    # n * 120 * 4 bytes, and a float64 matrix beside it would triple that.
    n = 4000
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(DocumentSet.from_documents([Document(f"d{i:05d}", "x", 1) for i in range(n)]), str(corpus))
    peaks = {}
    for d in (8, 128):
        path = tmp_path / f"e{d}.d4em"
        _unit_file(path, n, d)
        argv = ["embed", "--corpus", str(corpus), "--embedder", "external", "--embeddings", str(path),
                "--out", str(tmp_path / f"o{d}")]
        peaks[d] = _cli_peak(argv)
    assert peaks[128] - peaks[8] <= 1.25 * n * 120 * 4, peaks


def test_seed_sample_peak_is_o_of_k():
    # Floyd's algorithm holds the k picks and their k digests, never a buffer
    # of all n rows: at n = 10**6 and k = 1,000 its peak stays far below the
    # 8 MB an n-row int64 array would take, and near its peak at n = 10**4.
    n, k = 10**6, 1000
    peak, small = _peak(lambda: _sample_rows(3, n, k)), _peak(lambda: _sample_rows(3, 10**4, k))
    assert peak <= n * 8 / 20 and peak <= 1.5 * small, (peak, small)


@pytest.mark.parametrize("command, bound", [("semdedup", 1.25), ("cluster", 2.5)])
def test_matrix_commands_hold_float32_rows(command, bound, tmp_path):
    # 4,000 rows at d = 8 and d = 128, as for ``embed``: the rise in peak is
    # what the rows take, n * 120 * 4 bytes for one float32 copy. SemDeDup
    # adds one cluster's float64 rows (k = 63); k-means adds one float64
    # product block of at most n / 8 rows and one cluster's rows. A float64
    # matrix alone would be twice the float32 copy.
    n = 4000
    peaks = {}
    for d in (8, 128):
        path = tmp_path / f"e{d}.d4em"
        emb = _unit_file(path, n, d)
        argv = ["--embeddings", str(path), "--out", str(tmp_path / f"o{d}")]
        if command == "semdedup":
            km = tmp_path / f"c{d}.d4km"
            write_clustering(kmeans_spherical(emb, KmeansConfig(iters=2, seed=0)), str(km))
            argv = ["select", *argv, "--clustering", str(km), "--method", "semdedup", "--r", "0.9"]
        else:
            argv = ["cluster", *argv]
        del emb
        peaks[d] = _cli_peak(argv)
    assert peaks[128] - peaks[8] <= bound * n * 120 * 4, (peaks, (peaks[128] - peaks[8]) / (n * 120 * 4))


LSH_MULTIPLE = 3.0


def test_lsh_dedup_peak_within_multiple_of_signatures():
    # The signing blocks' rows are the one n x num_hashes array held: bands
    # are read from them a band at a time, and only the links between
    # distinct documents become graph edges. A concatenated copy of the
    # signatures, or bands x n edge arrays, would each add a whole multiple.
    # Ten-word documents keep the run short; a block's fixed cost is then
    # well under one multiple at these sizes.
    cfg = LshConfig(seed=0)
    for n in (8000, 16000):
        peak = _peak(_lsh_call(n, 10))
        assert peak < LSH_MULTIPLE * n * cfg.num_hashes * 8, (n, peak / (n * cfg.num_hashes * 8))
