"""The three benchmark workloads: their inputs, CLI pipelines and checks.

Each workload makes its inputs from the seed alone, writes them as files
the ``d4kit`` CLI reads (a JSONL corpus, or ``.d4em`` vectors), lists the
CLI commands of one pipeline, and checks a finished pipeline's outputs.

Why these three (see also ``BENCHMARK.json``):

* ``text-dedup`` runs only MinHash LSH, which does nearly all the work; no
  embedding-space layer runs, so a MinHash change should move only it.
* ``curate-d4`` is the paper's pipeline from text: hash embedding, k-means
  at k = sqrt(n), D4 with re-clustering, and diagnostics on stage 2. The
  embedder does most of the work and MinHash none. It runs with two
  threads (capped at nproc) and is checked against one thread.
* ``select-sweep`` ingests precomputed vectors, clusters them coarsely
  (k = 16, so SemDeDup's per-cluster similarity matrices set peak memory)
  and reads that one clustering many times: SemDeDup at two ratios,
  prototypes, random, their overlap, and nearest neighbours of a held-out
  validation set.
"""

from __future__ import annotations

import json
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from d4kit.corpus import Document, DocumentSet, SynthSpec, synthesize_corpus, write_corpus
from d4kit.cluster import read_clustering
from d4kit.diagnostics import nn_to_train
from d4kit.embed import EmbeddingMatrix, read_embeddings, write_embeddings
from d4kit.select import D4_RATIO_TOL, SEMDEDUP_RATIO_TOL, semdedup


@dataclass
class Inputs:
    """Generated input files plus the ground truth the checks need."""

    paths: dict[str, Path]
    ids: tuple[str, ...]
    group_of: dict[str, str]  # id -> planted group, for grouped ids only
    n_items: int
    facts: dict = field(default_factory=dict)


@dataclass
class Checked:
    """What one pipeline's outputs showed."""

    errors: list[str]
    dup_recall: float = 0.0
    ratio_err: float = 0.0
    final_ids: tuple[str, ...] = ()
    extra: dict = field(default_factory=dict)


def _read_lines(path: Path) -> list[str]:
    return [line for line in path.read_text(encoding="utf-8").splitlines() if line]


def _read_selection(d: Path) -> tuple[list[str], dict]:
    ids = [json.loads(line)["id"] for line in _read_lines(d / "selection.jsonl")]
    summary = json.loads((d / "summary.json").read_text(encoding="utf-8"))
    return ids, summary


def _check_kept(label: str, kept: list[str], position: dict[str, int]) -> list[str]:
    """Kept ids must be unique, a subset of the source, in source order."""
    errors = []
    if len(set(kept)) != len(kept):
        errors.append(f"{label}: kept ids are not unique")
    unknown = [i for i in kept if i not in position]
    if unknown:
        errors.append(f"{label}: {len(unknown)} kept ids not in the source, e.g. {unknown[0]!r}")
        return errors
    pos = [position[i] for i in kept]
    if any(a >= b for a, b in zip(pos, pos[1:])):
        errors.append(f"{label}: kept ids are not in source order")
    return errors


def _check_selection(label: str, d: Path, position: dict[str, int], tol: float) -> tuple[list[str], list[str], float]:
    kept, summary = _read_selection(d)
    errors = _check_kept(label, kept, position)
    if summary.get("n_kept") != len(kept) or summary.get("n_source") != len(position):
        errors.append(f"{label}: summary counts disagree with selection.jsonl")
    err = abs(summary["R_achieved"] - summary["R_target"])
    if err > tol and not summary.get("warnings"):
        errors.append(f"{label}: ratio off target by {err:.4f} without a warning")
    return errors, kept, err


def peak_alloc_mb(fn, *args) -> float:
    """Peak bytes ``tracemalloc`` sees allocated during one call, in MiB.

    Run outside the timed pipelines: tracing every allocation slows
    SemDeDup by about a third.
    """
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _recall(group_of: dict[str, str], kept: list[str]) -> float:
    """Share of planted groups left with exactly one kept member."""
    kept_per_group: dict[str, int] = {g: 0 for g in group_of.values()}
    for i in kept:
        if i in group_of:
            kept_per_group[group_of[i]] += 1
    if not kept_per_group:
        return 0.0
    return sum(1 for c in kept_per_group.values() if c == 1) / len(kept_per_group)


def _synth_inputs(work: Path, spec: SynthSpec) -> Inputs:
    docs = synthesize_corpus(spec)
    path = work / "corpus.jsonl"
    write_corpus(docs, str(path))
    group_of = {d.id: d.meta["group"] for d in docs if d.meta["group"] != "none"}
    return Inputs({"corpus": path}, docs.ids, group_of, len(docs))


def _synth_spec(seed: int, n_topics: int, docs_per_topic: int, groups: int) -> SynthSpec:
    # 5 members per template group at mutation rate 0.01; groups hold ~20%
    # of the docs at the sizes used below.
    return SynthSpec(
        n_topics=n_topics,
        docs_per_topic=docs_per_topic,
        n_template_groups=groups,
        dupes_per_group=5,
        template_mutation_rate=0.01,
        seed=seed,
    )


class TextDedup:
    name = "text-dedup"
    threads = 1
    # 2,000 docs: MinHash takes about 88% of the wall, start-up the rest.
    sizes = {"full": (16, 100, 80), "smoke": (3, 40, 6)}

    def setup(self, work: Path, seed: int, smoke: bool) -> Inputs:
        return _synth_inputs(work, _synth_spec(seed, *self.sizes["smoke" if smoke else "full"]))

    def steps(self, inp: Inputs, out: Path, threads: int) -> list[list[str]]:
        return [["minhash", "--corpus", str(inp.paths["corpus"]), "--threads", str(threads),
                 "--out", str(out / "minhash")]]

    def check(self, inp: Inputs, out: Path) -> Checked:
        position = {i: n for n, i in enumerate(inp.ids)}
        kept = _read_lines(out / "minhash" / "kept_ids.txt")
        errors = _check_kept("minhash", kept, position)
        groups = [json.loads(line)["member_ids"] for line in _read_lines(out / "minhash" / "groups.jsonl")]
        planted: dict[str, set[str]] = {}
        for i, g in inp.group_of.items():
            planted.setdefault(g, set()).add(i)
        members = [i for g in groups for i in g]
        if len(set(members)) != len(members) or not set(members) <= set(position):
            errors.append("minhash: groups overlap or name unknown ids")
        pure = sum(1 for g in groups if planted.get(inp.group_of.get(g[0], "")) == set(g))
        return Checked(
            errors,
            dup_recall=_recall(inp.group_of, kept),
            final_ids=tuple(kept),
            extra={"minhash.group_purity": pure / len(groups) if groups else 0.0},
        )

    def alloc_probe(self, inp: Inputs, out: Path) -> dict:
        return {}


class CurateD4:
    name = "curate-d4"
    threads = 2
    sizes = {"full": (16, 200, 160), "smoke": (4, 80, 16)}

    def setup(self, work: Path, seed: int, smoke: bool) -> Inputs:
        return _synth_inputs(work, _synth_spec(seed, *self.sizes["smoke" if smoke else "full"]))

    def steps(self, inp: Inputs, out: Path, threads: int) -> list[list[str]]:
        t = ["--threads", str(threads)]
        emb, km, sel = out / "embed", out / "cluster", out / "select"
        return [
            ["embed", "--corpus", str(inp.paths["corpus"]), "--dim", "128", *t, "--out", str(emb)],
            ["cluster", "--embeddings", str(emb / "embeddings.d4em"), *t, "--out", str(km)],
            ["select", "--embeddings", str(emb / "embeddings.d4em"),
             "--clustering", str(km / "clustering.d4km"), "--method", "d4",
             "--r-dedup", "0.75", "--r-proto", "0.5", *t, "--out", str(sel)],
            ["diagnose", "--embeddings", str(sel / "stage2_embeddings.d4em"),
             "--clustering", str(sel / "stage2_clustering.d4km"), *t, "--out", str(out / "diagnose")],
        ]

    def check(self, inp: Inputs, out: Path) -> Checked:
        position = {i: n for n, i in enumerate(inp.ids)}
        errors, kept, err = _check_selection("d4", out / "select", position, D4_RATIO_TOL)
        stage2 = list(read_embeddings(str(out / "select" / "stage2_embeddings.d4em")).ids)
        errors += _check_kept("d4 stage 2", stage2, position)
        if not set(kept) <= set(stage2):
            errors.append("d4: kept ids are not a subset of the stage-2 survivors")
        stages = [json.loads(line) for line in _read_lines(out / "select" / "stages.jsonl")]
        if [s["stage"] for s in stages] != ["semdedup", "prototypes"]:
            errors.append("d4: stages.jsonl does not list semdedup then prototypes")
        report = json.loads((out / "diagnose" / "report.json").read_text(encoding="utf-8"))
        if "cluster_balance" not in report:
            errors.append("diagnose: report.json lacks cluster_balance")
        return Checked(errors, dup_recall=_recall(inp.group_of, stage2), ratio_err=err,
                       final_ids=tuple(kept))

    def alloc_probe(self, inp: Inputs, out: Path) -> dict:
        emb = read_embeddings(str(out / "embed" / "embeddings.d4em"))
        clustering = read_clustering(str(out / "cluster" / "clustering.d4km"))
        return {"select.semdedup_peak_alloc_mb": peak_alloc_mb(semdedup, emb, clustering, 0.75)}


class SelectSweep:
    name = "select-sweep"
    threads = 1
    # (train vectors, validation vectors, dim, k). At 16k vectors library
    # calls take about 60% of a pipeline's wall and the start-up of its eight
    # commands about a third; at 8k, start-up took most of it.
    sizes = {"full": (16000, 1000, 64, 16), "smoke": (600, 50, 64, 8)}
    spread = 0.072
    # 10% of rows sit in clumps of 5 near-copies, so 8% of rows are planted
    # duplicates: the first SemDeDup ratio removes about that many.
    clump_size = 5
    clump_spread = 0.002
    clumped_frac = 0.10
    ratios = ("0.92", "0.8")

    def setup(self, work: Path, seed: int, smoke: bool) -> Inputs:
        n, n_valid, d, k = self.sizes["smoke" if smoke else "full"]
        rng = np.random.default_rng(seed)

        def around(count: int) -> np.ndarray:
            # Directions uniform on the unit sphere of a 3-d subspace, blurred
            # by isotropic noise in all d dimensions. k-means then splits the
            # sphere into cells of nearly equal mass whatever the seed, so
            # the clusters' sum of n_j^2, which sets SemDeDup's memory, moves
            # by under 1% from seed to seed; a mixture of a few dozen
            # discrete directions moved it by 10% or more.
            rows = np.zeros((count, d))
            rows[:, :3] = rng.standard_normal((count, 3))
            rows[:, :3] /= np.linalg.norm(rows[:, :3], axis=1, keepdims=True)
            return rows + self.spread * rng.standard_normal(rows.shape)

        n_clumps = int(self.clumped_frac * n) // self.clump_size
        n_free = n - n_clumps * self.clump_size
        free = around(n_free)
        clumps = np.repeat(around(n_clumps), self.clump_size, axis=0)
        clumps = clumps + self.clump_spread * rng.standard_normal(clumps.shape)
        rows = np.vstack([free, clumps])
        clump_of = np.concatenate([np.full(n_free, -1), np.repeat(np.arange(n_clumps), self.clump_size)])
        order = rng.permutation(n)
        rows, clump_of = rows[order], clump_of[order]
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        valid = around(n_valid)
        valid /= np.linalg.norm(valid, axis=1, keepdims=True)

        ids = tuple(f"v{i:06d}" for i in range(n))
        paths = {key: work / f for key, f in
                 (("corpus", "corpus.jsonl"), ("vectors", "vectors.d4em"), ("valid", "valid.d4em"))}
        write_embeddings(EmbeddingMatrix(ids, rows.astype(np.float32), True), str(paths["vectors"]))
        write_embeddings(
            EmbeddingMatrix(tuple(f"q{i:05d}" for i in range(n_valid)), valid.astype(np.float32), True),
            str(paths["valid"]),
        )
        # embed --embedder external takes its ids from a corpus; one token each.
        docs = DocumentSet.from_documents([Document(i, i, 1) for i in ids])
        write_corpus(docs, str(paths["corpus"]))
        group_of = {i: f"c{c}" for i, c in zip(ids, clump_of) if c >= 0}
        return Inputs(paths, ids, group_of, n, {"n_valid": n_valid, "k": k})

    def steps(self, inp: Inputs, out: Path, threads: int) -> list[list[str]]:
        t = ["--threads", str(threads)]
        emb = out / "embed" / "embeddings.d4em"
        km = out / "cluster" / "clustering.d4km"
        sel = ["select", "--embeddings", str(emb), *t]
        steps = [
            ["embed", "--corpus", str(inp.paths["corpus"]), "--embedder", "external",
             "--embeddings", str(inp.paths["vectors"]), *t, "--out", str(out / "embed")],
            ["cluster", "--embeddings", str(emb), "--k", str(inp.facts["k"]), *t, "--out", str(out / "cluster")],
        ]
        steps += [[*sel, "--clustering", str(km), "--method", "semdedup", "--r", r,
                   "--out", str(out / f"semdedup{r}")] for r in self.ratios]
        steps += [
            [*sel, "--clustering", str(km), "--method", "prototypes", "--r", "0.5",
             "--out", str(out / "prototypes")],
            [*sel, "--method", "random", "--r", "0.5", "--out", str(out / "random")],
            ["overlap", *[str(out / s) for s in self._selections()], *t, "--out", str(out / "overlap")],
            ["nn", str(inp.paths["valid"]), "--embeddings", str(emb), *t, "--out", str(out / "nn")],
        ]
        return steps

    def alloc_probe(self, inp: Inputs, out: Path) -> dict:
        emb = read_embeddings(str(out / "embed" / "embeddings.d4em"))
        clustering = read_clustering(str(out / "cluster" / "clustering.d4km"))
        valid = read_embeddings(str(inp.paths["valid"]))
        return {
            "select.semdedup_peak_alloc_mb": peak_alloc_mb(semdedup, emb, clustering, float(self.ratios[0])),
            "diagnostics.nn_peak_alloc_mb": peak_alloc_mb(nn_to_train, valid, emb),
        }

    def _selections(self) -> list[str]:
        return [f"semdedup{r}" for r in self.ratios] + ["prototypes", "random"]

    def check(self, inp: Inputs, out: Path) -> Checked:
        position = {i: n for n, i in enumerate(inp.ids)}
        errors: list[str] = []
        kept_by: dict[str, list[str]] = {}
        worst = 0.0
        for s in self._selections():
            tol = SEMDEDUP_RATIO_TOL if s.startswith("semdedup") else D4_RATIO_TOL
            e, kept, err = _check_selection(s, out / s, position, tol)
            errors += e
            kept_by[s] = kept
            worst = max(worst, err)
        ov = json.loads((out / "overlap" / "overlap.json").read_text(encoding="utf-8"))
        cells = np.array(ov["cells"])
        m = len(self._selections())
        if cells.shape != (m, m) or not np.array_equal(cells, cells.T) or not np.all(np.diag(cells) == 100.0):
            errors.append("overlap: matrix is not a symmetric m x m with a 100 diagonal")
        nn = [json.loads(line) for line in _read_lines(out / "nn" / "nn.jsonl")]
        if len(nn) != inp.facts["n_valid"] or any(
            e["train_id"] not in position or not 0.0 <= e["distance"] <= 2.0 for e in nn
        ):
            errors.append("nn: wrong entry count, unknown train id or distance outside [0, 2]")
        first = self._selections()[0]
        return Checked(errors, dup_recall=_recall(inp.group_of, kept_by[first]), ratio_err=worst,
                       final_ids=tuple(kept_by[first]))


WORKLOADS = {w.name: w for w in (TextDedup(), CurateD4(), SelectSweep())}
