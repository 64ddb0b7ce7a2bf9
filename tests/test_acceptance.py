"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one PASS line per
criterion (a failed assert marks the criterion failed).
"""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import d4kit
from d4kit import (
    CostModel,
    D4Config,
    Document,
    DocumentSet,
    EmbedderSpec,
    EmbeddingMatrix,
    KmeansConfig,
    SynthSpec,
    cluster_balance,
    d4,
    ecdf_mean_distance,
    embed_corpus,
    find_duplicate_driven_clusters,
    kmeans_spherical,
    lsh_dedup,
    naive_gain,
    nn_to_train,
    overall_gain,
    plan_epochs,
    select_random,
    selection_overlap,
    semdedup,
    ssl_prototypes,
    synthesize_corpus,
)
from d4kit.cli import run
from d4kit.diagnostics import ecdf_value
from d4kit.minhash import LshConfig, signature

from oracles import (
    best_two_partition,
    brute_force_nn,
    exact_jaccard,
    prototypes_oracle,
    semdedup_oracle,
)


def _ok(n: int, message: str) -> None:
    print(f"[ACCEPTANCE] criterion {n}: PASS — {message}")


def _random_emb(n, d, seed):
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(n, d))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return EmbeddingMatrix(
        ids=tuple(f"p{i:04d}" for i in range(n)),
        vectors=rows.astype(np.float32),
        normalized=True,
    )


@pytest.fixture(scope="module")
def corpus_10k():
    spec = SynthSpec(
        n_topics=20,
        docs_per_topic=480,
        n_template_groups=80,
        dupes_per_group=5,
        template_mutation_rate=0.01,
        vocab_size=4000,
        doc_length_range=(150, 250),
        seed=7,
    )
    docs = synthesize_corpus(spec)
    assert len(docs) == 10_000
    emb = embed_corpus(docs, EmbedderSpec(kind="hash", dim=128, seed=5))
    return docs, emb


def test_c01_cost_identities():
    model = CostModel(
        baseline_train_gpu_hours=21500,
        fraction_updates_saved=0.20,
        embed_gpu_hours=888,
    )
    assert naive_gain(model) == 4300.0
    assert overall_gain(model) == 3412.0
    _ok(1, "naive gain 21500 x 0.20 = 4300, overall 4300 - 888 = 3412, exact")


def test_c02_epoch_arithmetic():
    budget = DocumentSet.from_documents(
        [Document(id=f"d{i}", text="", token_count=5_000_000_000) for i in range(4)]
    )
    plan = plan_epochs(budget, t_total=40_000_000_000)
    assert plan.epochs == 2.0

    rng = np.random.default_rng(123)
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        tokens = [int(rng.integers(1, 25)) for _ in range(n)]
        docs = DocumentSet.from_documents(
            [Document(id=f"d{i}", text="", token_count=t) for i, t in enumerate(tokens)]
        )
        t_total = int(rng.integers(1, 3 * sum(tokens)))
        plan = plan_epochs(
            docs, t_total, seed=int(rng.integers(10_000)),
            reshuffle_each_epoch=bool(rng.integers(2)),
        )
        token_of = {d.id: d.token_count for d in docs}
        got = sum(token_of[i] for i in plan.order)
        assert got >= t_total
        assert got - token_of[plan.order[-1]] < t_total
        for e in range(len(plan.order) // n):
            assert Counter(plan.order[e * n : (e + 1) * n]) == Counter(docs.ids)
    _ok(2, "epochs 40B/20B = 2 exact; coverage + stopping hold on 1000 instances")


def test_c03_d4_composition(corpus_10k):
    _, emb = corpus_10k
    cfg = D4Config(r_dedup=0.75, r_proto=1 / 3, kmeans=KmeansConfig(seed=0))
    result = d4(emb, cfg)
    assert abs(result.r_achieved - 0.25) <= 0.01
    stage1 = result.stages[0]
    assert set(result.kept_ids) <= set(stage1.kept_ids)
    assert abs(stage1.r_achieved - 0.75) <= 0.005
    _ok(3, f"d4 on 10k docs kept fraction {result.r_achieved:.4f} (target 0.25 +/- 0.01), nesting holds")


def test_c04_semdedup_oracle(planted_docs, planted_emb, planted_clustering):
    result = semdedup(planted_emb, planted_clustering, 920 / 1000)
    assert not result.warnings
    oracle_kept = semdedup_oracle(
        planted_emb.vectors.tolist(),
        planted_emb.ids,
        planted_clustering.assignment.tolist(),
        planted_clustering.distance.tolist(),
        result.epsilon_used,
    )
    assert set(result.kept_ids) == oracle_kept

    kept = set(result.kept_ids)
    per_group: dict[str, int] = {}
    for d in planted_docs:
        g = d.meta["group"]
        if g != "none":
            per_group[g] = per_group.get(g, 0) + (d.id in kept)
        else:
            assert d.id in kept
    assert len(per_group) == 20
    assert set(per_group.values()) == {1}
    _ok(4, f"kept set equals union-find oracle at eps={result.epsilon_used:.4g}; one survivor per group")


def test_c05_reclustering_ablation(planted_emb, planted_clustering):
    artifacts: dict = {}
    d4(
        planted_emb,
        D4Config(r_dedup=0.92, r_proto=1.0, kmeans=KmeansConfig(seed=0)),
        clustering=planted_clustering,
        artifacts=artifacts,
    )
    before_flagged = find_duplicate_driven_clusters(planted_emb, planted_clustering)
    after_emb = artifacts["stage2_embeddings"]
    after_clustering = artifacts["stage2_clustering"]
    after_flagged = find_duplicate_driven_clusters(after_emb, after_clustering)
    frac_before = len(before_flagged) / planted_clustering.k
    frac_after = len(after_flagged) / after_clustering.k
    assert frac_after < frac_before

    before_ecdf = ecdf_mean_distance(planted_emb, planted_clustering)
    after_ecdf = ecdf_mean_distance(after_emb, after_clustering)
    median_before = before_ecdf[len(before_ecdf) // 2][0]
    low_grid = [v for v, _ in before_ecdf if v <= median_before]
    assert low_grid
    for x in low_grid:
        assert ecdf_value(after_ecdf, x) <= ecdf_value(before_ecdf, x) + 1e-12
    _ok(
        5,
        f"duplicate-driven fraction {frac_before:.3f} -> {frac_after:.3f}; "
        "re-clustered ECDF weakly below at the low end",
    )


def test_c06_kmeans_properties():
    for seed in range(100):
        emb = _random_emb(30, 5, seed=seed)
        c = kmeans_spherical(emb, KmeansConfig(k=4, seed=seed, iters=10))
        hist = c.objective_history
        assert all(a >= b - 1e-12 for a, b in zip(hist, hist[1:]))

    rng = np.random.default_rng(77)
    for _ in range(10):
        emb = _random_emb(8, 3, seed=int(rng.integers(100_000)))
        best_obj, mask = best_two_partition(emb.vectors.tolist())
        X = emb.vectors.astype(np.float64)
        init = []
        for part in (0, 1):
            mean = X[[i for i in range(8) if mask[i] == part]].sum(axis=0)
            init.append(mean / np.linalg.norm(mean))
        c = kmeans_spherical(emb, KmeansConfig(k=2, iters=20), init_centroids=np.array(init))
        assert abs(float(c.distance.sum()) - best_obj) <= 1e-6
    _ok(6, "objective monotone on 100 fits; oracle-initialized k=2 matches exhaustive optimum to 1e-6")


def test_c07_prototypes_oracle():
    rng = np.random.default_rng(55)
    for trial in range(100):
        n = int(rng.integers(5, 40))
        emb = _random_emb(n, 4, seed=trial)
        vecs = emb.vectors.copy()
        if trial % 3 == 0 and n >= 6:  # plant exact ties
            vecs[1] = vecs[0]
            vecs[3] = vecs[0]
            emb = EmbeddingMatrix(ids=emb.ids, vectors=vecs, normalized=True)
        c = kmeans_spherical(emb, KmeansConfig(k=min(4, n), seed=trial))
        r = float(rng.uniform(0.1, 1.0))
        got = ssl_prototypes(emb, c, r)
        expected = prototypes_oracle(emb.ids, c.distance.tolist(), r)
        assert list(got.kept_ids) == expected
    _ok(7, "global-ranking selection equals the sort oracle on 100 instances incl. ties")


def test_c08_minhash_statistics():
    for trial in range(100):
        texts = [
            f"shared document body {trial} with several words " * 3,
            f"shared document body {trial} with several words " * 3,
            f"unrelated filler number {trial} entirely different content here",
        ]
        docs = DocumentSet.from_documents(
            [Document(id=f"t{trial}-{i}", text=t, token_count=len(t.split())) for i, t in enumerate(texts)]
        )
        res = lsh_dedup(docs, LshConfig(seed=trial))
        assert len(res.kept_ids) == 2

    cfg = LshConfig(seed=0)
    for overlap, jaccard in ((30, 0.2), (60, 0.5), (80, 0.8)):
        A = {f"s{i}" for i in range(90)}
        B = {f"s{i}" for i in range(90 - overlap, 180 - overlap)}
        assert exact_jaccard(A, B) == jaccard
        sa, sb = signature(A, cfg), signature(B, cfg)
        match = sum(x == y for x, y in zip(sa.values, sb.values)) / cfg.num_hashes
        sigma = (jaccard * (1 - jaccard) / cfg.num_hashes) ** 0.5
        assert abs(match - jaccard) <= 2 * sigma
    _ok(8, "identical docs collapsed in 100/100 trials; match fraction within 2 sigma for J in {0.2, 0.5, 0.8}")


def test_c09_diagnostics_algebra(planted_emb, planted_clustering):
    r1 = semdedup(planted_emb, planted_clustering, 0.8)
    r2 = ssl_prototypes(planted_emb, planted_clustering, 0.6)
    m = selection_overlap([r1, r2])
    assert np.array_equal(m.cells, m.cells.T)
    assert np.array_equal(np.diag(m.cells), [100.0, 100.0])

    ids = tuple(f"i{j:05d}" for j in range(10_000))
    a = select_random(ids, 0.5, seed=11)
    b = select_random(ids, 0.5, seed=12)
    overlap = selection_overlap([a, b]).cells[0, 1]
    assert abs(overlap - 50.0) <= 1.5

    from test_diagnostics import _sized_clustering

    assert abs(cluster_balance(_sized_clustering([10, 20, 40])) - 0.4167) <= 5e-5

    rng = np.random.default_rng(9)
    for _ in range(25):
        n, mtr, dim = int(rng.integers(1, 12)), int(rng.integers(1, 12)), int(rng.integers(2, 6))
        train = _random_emb(mtr, dim, seed=int(rng.integers(1e6)))
        valid = _random_emb(n, dim, seed=int(rng.integers(1e6)))
        got = nn_to_train(valid, train)
        expected = brute_force_nn(
            valid.vectors.tolist(), valid.ids, train.vectors.tolist(), train.ids
        )
        assert [(e.valid_id, e.train_id) for e in got.entries] == [(x, y) for x, y, _ in expected]
        assert max(
            abs(e.distance - d0) for e, (_, _, d0) in zip(got.entries, expected)
        ) <= 1e-9
    _ok(9, "overlap algebra exact; random overlap within 3 sigma of 50%; balance and NN match oracles")


def _run_pipeline(base: Path, threads: str, seed: str = "17") -> Path:
    root = base
    root.mkdir(parents=True, exist_ok=True)
    common = ["--seed", seed, "--threads", threads]
    assert run(
        [
            "synth", "--out", str(root / "synth"), *common,
            "--n-topics", "8", "--docs-per-topic", "100",
            "--template-groups", "20", "--dupes-per-group", "10",
            "--mutation-rate", "0.01", "--vocab-size", "2000",
            "--min-len", "80", "--max-len", "160",
        ]
    ) == 0
    assert run(
        [
            "embed", "--corpus", str(root / "synth" / "corpus.jsonl"),
            "--dim", "64", "--out", str(root / "embed"), *common,
        ]
    ) == 0
    assert run(
        [
            "cluster", "--embeddings", str(root / "embed" / "embeddings.d4em"),
            "--k", "40", "--out", str(root / "cluster"), *common,
        ]
    ) == 0
    assert run(
        [
            "select", "--embeddings", str(root / "embed" / "embeddings.d4em"),
            "--clustering", str(root / "cluster" / "clustering.d4km"),
            "--method", "d4", "--r-dedup", "0.8", "--r-proto", "0.5",
            "--out", str(root / "select"), *common,
        ]
    ) == 0
    assert run(
        [
            "diagnose", "--embeddings", str(root / "embed" / "embeddings.d4em"),
            "--clustering", str(root / "cluster" / "clustering.d4km"),
            "--out", str(root / "diagnose"), *common,
        ]
    ) == 0
    return root


def test_c10_pipeline_determinism(tmp_path):
    run_a = _run_pipeline(tmp_path / "a", threads="1")
    run_b = _run_pipeline(tmp_path / "b", threads="1")
    run_c = _run_pipeline(tmp_path / "c", threads="8")

    files_a = sorted(p.relative_to(run_a) for p in run_a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(run_b) for p in run_b.rglob("*") if p.is_file())
    files_c = sorted(p.relative_to(run_c) for p in run_c.rglob("*") if p.is_file())
    assert files_a == files_b == files_c

    def config_modulo_run_identity(path: Path):
        # config.json records the argv verbatim; paths (and --threads for
        # run c) necessarily differ between run directories.
        cfg = json.loads(path.read_text())
        return {
            k: v
            for k, v in cfg.items()
            if not (isinstance(v, str) and "/" in v) and k != "threads"
        }

    for rel in files_a:
        a, b, c = run_a / rel, run_b / rel, run_c / rel
        if rel.name == "config.json":
            assert (
                config_modulo_run_identity(a)
                == config_modulo_run_identity(b)
                == config_modulo_run_identity(c)
            ), rel
        else:
            # Every computed artifact must be byte-identical across runs
            # and across thread counts.
            assert a.read_bytes() == b.read_bytes(), rel
            assert a.read_bytes() == c.read_bytes(), rel
    _ok(10, "synth -> embed -> cluster -> select d4 -> diagnose byte-identical across runs and threads 1 vs 8")


def test_pipeline_bytes_independent_of_blas_threads(tmp_path):
    # --threads starts no thread; the arithmetic that can vary with threads
    # is BLAS's. At 6,000 x 128 and k = 40, OpenBLAS splits the gemms over
    # its threads, so each run sets its BLAS thread count in its children.
    src = str(Path(d4kit.__file__).resolve().parents[1])
    runs = {}
    for threads in ("1", "2"):
        root = tmp_path / f"blas{threads}"
        emb = str(root / "embed" / "embeddings.d4em")
        km = str(root / "cluster" / "clustering.d4km")
        steps = [
            ["synth", "--out", str(root / "synth"), "--n-topics", "20", "--docs-per-topic", "300",
             "--template-groups", "40", "--dupes-per-group", "5", "--mutation-rate", "0.01"],
            ["embed", "--corpus", str(root / "synth" / "corpus.jsonl"), "--dim", "128",
             "--out", str(root / "embed")],
            ["cluster", "--embeddings", emb, "--k", "40", "--out", str(root / "cluster")],
            ["select", "--embeddings", emb, "--clustering", km, "--method", "d4",
             "--r-dedup", "0.8", "--r-proto", "0.5", "--out", str(root / "select")],
            ["nn", str(root / "select" / "stage2_embeddings.d4em"), "--embeddings", emb,
             "--out", str(root / "nn")],
            ["diagnose", "--embeddings", emb, "--clustering", km, "--out", str(root / "diagnose")],
        ]
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
            "OPENBLAS_NUM_THREADS": threads,
            "OMP_NUM_THREADS": threads,
        }
        for argv in steps:
            proc = subprocess.run(
                [sys.executable, "-m", "d4kit.cli", *argv, "--seed", "5"],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert proc.returncode == 0, (argv, proc.stderr)
        runs[threads] = {
            p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file() and p.name != "config.json"
        }
    assert sorted(runs["1"]) == sorted(runs["2"])
    for rel, data in runs["1"].items():
        assert data == runs["2"][rel], rel
