"""Command-line pipeline: synth, dedup, embed, cluster, select, diagnose.

Every subcommand writes its outputs plus a resolved ``config.json`` into
``--out`` so any run can be reproduced from its output directory alone.
All randomness fans out from the single ``--seed`` by stable hashing of
(seed, stage name), and outputs are byte-identical across runs and thread
counts.

Exit codes: 0 success, 1 validation or usage error or an allocation that
failed (``MemoryError``), 2 I/O or file-format error.

A ``minhash`` signature has ``--bands`` x ``--rows-per-band`` positions.
``select`` without ``--clustering`` fits k-means with ``--k``, ``--iters``
and the ``select.kmeans`` seed; ``d4`` fits its stage 1 so itself.

``diagnose``, and ``select`` with ``random`` or with ``prototypes`` and
``--clustering``, check the ``.d4em`` file a block at a time and keep only
its ids and the clustering: O(n + k * d) memory. ``nn`` reads its train file
so, beside the whole validation matrix, and ``embed --embedder external``
holds only the float32 rows it writes.

Each subcommand imports the library modules it runs, so a command loads
only those (``minhash`` never loads the embedding-space stages). Hashes
come from :mod:`d4kit.hashing`, which takes them from CPython's bundled
modules, and k-means draws its start rows from that keyed hash, so no
command loads OpenSSL except through ``numpy.random``: ``synth``,
``select`` with ``random``, and a reshuffled ``schedule`` draw from it.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable

from . import corpus as corpus_mod
from .errors import FormatError, ParseError, ValidationError

if TYPE_CHECKING:
    from . import cluster as cluster_mod
    from . import select as select_mod


def stage_seed(seed: int, stage: str) -> int:
    """Derive a per-stage seed so stages never share randomness."""
    from .hashing import blake2b

    digest = blake2b(f"{seed}:{stage}".encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit 2; this toolkit reserves 2 for I/O."""

    def error(self, message):
        # A bad option value is named in the message; only missing or unknown
        # arguments also get the usage.
        if not message.startswith("argument "):
            self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _finite_float(text: str) -> float:
    """argparse type for float options: NaN and +-inf are rejected at parse time."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _write_lines(path: Path, lines: Iterable[str]) -> None:
    """Write each string of ``lines`` and a newline; the file appears whole or not at all."""
    with corpus_mod.open_output(path) as fh:
        fh.writelines(line + "\n" for line in lines)


def _write_json(path: Path, payload: Any) -> None:
    _write_lines(path, [json.dumps(payload, sort_keys=True, indent=2)])


def _prepare_out(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "config.json", {k: v for k, v in vars(args).items() if k != "func"})
    return out


def _selection_summary(result: select_mod.SelectionResult) -> dict[str, Any]:
    summary: dict[str, Any] = {
        "method": result.method,
        "R_target": result.r_target,
        "R_achieved": result.r_achieved,
        "n_source": result.n_source,
        "n_kept": result.n_kept,
        "fingerprint": result.fingerprint,
    }
    if result.epsilon_used is not None:
        summary["epsilon_used"] = result.epsilon_used
    if result.warnings:
        summary["warnings"] = list(result.warnings)
    return summary


def _write_selection(out: Path, result: select_mod.SelectionResult) -> None:
    # The bytes of json.dumps({"id": ..., "score": ..., "kept": True}) per
    # record, built without it and streamed, never joined into one string.
    records = zip(result.kept_ids, result.scores)
    _write_lines(
        out / "selection.jsonl",
        (f'{{"id": {encode_basestring_ascii(i)}, "score": {float.__repr__(s)}, "kept": true}}' for i, s in records),
    )
    if result.stages:
        stages = zip(("semdedup", "prototypes"), result.stages)
        _write_lines(
            out / "stages.jsonl",
            (json.dumps({**_selection_summary(s), "stage": name}, sort_keys=True) for name, s in stages),
        )
    _write_json(out / "summary.json", _selection_summary(result))


def _read_scored(path: str) -> list[tuple[str, float]]:
    """(id, score) per record of a JSONL file such as ``selection.jsonl``."""
    records: list[tuple[str, float]] = []
    for lineno, rec in corpus_mod.read_jsonl(path, f" in {path}"):
        if not (isinstance(rec, dict) and isinstance(rec.get("id"), str) and "score" in rec):
            raise ParseError(f"record in {path} needs a string 'id' and a 'score'", lineno)
        score = rec["score"]
        if isinstance(score, bool):
            raise ParseError(f"score in {path} is a boolean, not a number: {score!r}", lineno)
        try:  # only a JSON number is a score, not a string such as "1.5" or "NaN"
            value = float(score) if type(score) in (int, float) else math.nan
        except OverflowError:  # an int too large for a float
            value = math.inf
        if not math.isfinite(value):
            raise ParseError(f"score in {path} is not a finite number: {score!r}", lineno)
        records.append((rec["id"], value))
    return records


# ----------------------------------------------------------------------
# subcommands


def cmd_synth(args: argparse.Namespace) -> None:
    out = _prepare_out(args)
    spec = corpus_mod.SynthSpec(
        n_topics=args.n_topics,
        docs_per_topic=args.docs_per_topic,
        n_template_groups=args.template_groups,
        dupes_per_group=args.dupes_per_group,
        template_mutation_rate=args.mutation_rate,
        vocab_size=args.vocab_size,
        doc_length_range=(args.min_len, args.max_len),
        seed=stage_seed(args.seed, "synth"),
    )
    docs = corpus_mod.synthesize_corpus(spec)
    corpus_mod.write_corpus(docs, str(out / "corpus.jsonl"))
    _write_json(
        out / "summary.json",
        {"n_docs": len(docs), "total_tokens": docs.total_tokens},
    )
    print(f"synth: wrote {len(docs)} docs, {docs.total_tokens} tokens")


def cmd_minhash(args: argparse.Namespace) -> None:
    from . import minhash as minhash_mod

    out = _prepare_out(args)
    cfg = minhash_mod.LshConfig(
        bands=args.bands,
        rows_per_band=args.rows_per_band,
        shingle_width=args.shingle_width,
        seed=stage_seed(args.seed, "minhash"),
    )
    result = minhash_mod.lsh_dedup(corpus_mod.iter_records(args.corpus), cfg)
    # Each group keeps one member, and every document outside a group is kept.
    n_source = len(result.kept_ids) + sum(len(g.member_ids) - 1 for g in result.groups)
    _write_lines(out / "kept_ids.txt", result.kept_ids)
    _write_lines(out / "groups.jsonl", (json.dumps(vars(g)) for g in result.groups))
    _write_json(
        out / "summary.json",
        {
            "n_source": n_source,
            "n_kept": len(result.kept_ids),
            "n_groups": len(result.groups),
        },
    )
    print(f"minhash: kept {len(result.kept_ids)}/{n_source}, {len(result.groups)} duplicate groups")


def cmd_embed(args: argparse.Namespace) -> None:
    from . import embed as embed_mod

    out = _prepare_out(args)
    spec = embed_mod.EmbedderSpec(
        kind=args.embedder,
        dim=args.dim,
        # External vectors are read as they are, so only the hash embedder needs a seed.
        seed=stage_seed(args.seed, "embed") if args.embedder == "hash" else 0,
        chunk_size=args.chunk_size,
        path=args.embeddings,
    )
    emb = embed_mod.embed_corpus(corpus_mod.iter_records(args.corpus), spec)
    n, dim = emb.n, emb.d
    if dim != args.dim:
        # The external embedder keeps its file's width, whatever --dim says.
        args.dim = dim
        _prepare_out(args)
    embed_mod.write_embeddings(emb, str(out / "embeddings.d4em"))
    _write_json(out / "summary.json", {"n": n, "dim": dim})
    print(f"embed: {n} rows, dim {dim}")


def cmd_cluster(args: argparse.Namespace) -> None:
    from . import cluster as cluster_mod
    from . import embed as embed_mod

    out = _prepare_out(args)
    emb = embed_mod.read_embeddings(args.embeddings)
    clustering = cluster_mod.kmeans_spherical(emb, _kmeans_config(args, "cluster"))
    cluster_mod.write_clustering(clustering, str(out / "clustering.d4km"))
    _write_json(
        out / "summary.json",
        {
            "k": clustering.k,
            "n": clustering.n,
            "iters_run": clustering.iters_run,
            "objective": float(clustering.distance.sum()),
        },
    )
    print(f"cluster: k={clustering.k}, {clustering.iters_run} iterations")


def _kmeans_config(args: argparse.Namespace, stage: str) -> cluster_mod.KmeansConfig:
    from . import cluster as cluster_mod

    return cluster_mod.KmeansConfig(k=args.k, iters=args.iters, seed=stage_seed(args.seed, stage))


def cmd_select(args: argparse.Namespace) -> None:
    from . import cluster as cluster_mod
    from . import embed as embed_mod
    from . import select as select_mod

    method = args.method
    if method == "d4":
        if args.r_dedup is None or args.r_proto is None:
            raise ValidationError("--r-dedup and --r-proto are required for d4")
    elif args.r is None:
        raise ValidationError(f"--r is required for {method}")
    out = _prepare_out(args)
    # These two use only the ids and, for the distance check, row blocks.
    streamed = method == "random" or (method == "prototypes" and args.clustering)
    emb = (embed_mod._scan_embeddings if streamed else embed_mod.read_embeddings)(args.embeddings)
    if method == "random":
        result = select_mod.select_random(
            emb.ids, args.r, seed=stage_seed(args.seed, "select.random")
        )
    elif method in ("semdedup", "prototypes"):
        if args.clustering:
            clustering = cluster_mod.read_clustering(args.clustering)
        else:
            clustering = cluster_mod.kmeans_spherical(emb, _kmeans_config(args, "select.kmeans"))
        if method == "semdedup":
            result = select_mod.semdedup(emb, clustering, args.r)
        else:
            result = select_mod.ssl_prototypes(emb, clustering, args.r)
    else:  # d4
        cfg = select_mod.D4Config(
            r_dedup=args.r_dedup,
            r_proto=args.r_proto,
            recluster=not args.no_recluster,
            kmeans=_kmeans_config(args, "select.kmeans"),
        )
        # Without --clustering, d4 fits stage 1 itself with cfg.kmeans.
        clustering = cluster_mod.read_clustering(args.clustering) if args.clustering else None
        artifacts: dict = {}
        result = select_mod.d4(emb, cfg, clustering=clustering, artifacts=artifacts)
        embed_mod.write_embeddings(
            artifacts["stage2_embeddings"], str(out / "stage2_embeddings.d4em")
        )
        cluster_mod.write_clustering(
            artifacts["stage2_clustering"], str(out / "stage2_clustering.d4km")
        )
    _write_selection(out, result)
    for w in result.warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(
        f"select: {result.method} kept {result.n_kept}/{result.n_source} "
        f"(R_achieved={result.r_achieved:.4f})"
    )


def cmd_diagnose(args: argparse.Namespace) -> None:
    from . import cluster as cluster_mod
    from . import diagnostics as diag_mod
    from . import embed as embed_mod

    if args.std_threshold is None:
        args.std_threshold = diag_mod.STD_THRESHOLD
    out = _prepare_out(args)
    emb = embed_mod._scan_embeddings(args.embeddings)
    clustering = cluster_mod.read_clustering(args.clustering)
    report = diag_mod.analyze_clustering(emb, clustering, args.std_threshold)
    _write_json(
        out / "report.json",
        {
            "cluster_balance": report.cluster_balance,
            "n_duplicate_driven": len(report.duplicate_driven),
            "notes": list(report.notes),
        },
    )
    _write_lines(
        out / "duplicate_driven.jsonl", (json.dumps(vars(f)) for f in report.duplicate_driven)
    )
    ecdf = (f"{x!r}\t{y!r}" for x, y in report.ecdf)
    _write_lines(out / "ecdf.tsv", ["mean_distance\tcumulative_fraction", *ecdf])
    balance = "n/a" if report.cluster_balance is None else f"{report.cluster_balance:.4f}"
    print(f"cluster balance: {balance}")
    print(f"duplicate-driven clusters (std < {args.std_threshold:g}): {len(report.duplicate_driven)}")
    print(f"{'cluster':>8} {'std':>10} {'mean_dist':>10} {'size':>6}")
    for f in report.duplicate_driven:
        print(f"{f.cluster_index:>8} {f.std:>10.5f} {f.mean_distance:>10.5f} {f.size:>6}")


def _read_selection_dir(path: str) -> select_mod.SelectionResult:
    from . import select as select_mod

    base = Path(path)
    summary_path = base / "summary.json"
    try:
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {summary_path}: {exc.msg}", exc.lineno) from exc
    except RecursionError:
        raise ParseError(f"invalid JSON in {summary_path}: nested too deeply", 1) from None
    except ValueError:  # an integer past the interpreter's digit limit
        raise ParseError(f"invalid JSON in {summary_path}: integer too long", 1) from None
    if not isinstance(summary, dict):
        raise ParseError(f"{summary_path} must hold a JSON object", 1)
    records = _read_scored(str(base / "selection.jsonl"))
    try:
        return select_mod.SelectionResult(
            method=summary.get("method"),
            r_target=summary.get("R_target"),
            kept_ids=tuple(doc_id for doc_id, _ in records),
            scores=tuple(score for _, score in records),
            n_source=summary.get("n_source"),
            fingerprint=summary.get("fingerprint"),
            epsilon_used=summary.get("epsilon_used"),
        )
    except ValidationError as exc:
        raise ParseError(f"selection in {base}: {exc}", 1) from None


def cmd_overlap(args: argparse.Namespace) -> None:
    from . import diagnostics as diag_mod

    out = _prepare_out(args)
    results = [_read_selection_dir(p) for p in args.selections]
    matrix = diag_mod.selection_overlap(results)
    _write_json(
        out / "overlap.json",
        {"labels": list(matrix.labels), "cells": matrix.cells.tolist()},
    )
    rows = (
        "\t".join([label, *map(repr, row.tolist())]) for label, row in zip(matrix.labels, matrix.cells)
    )
    _write_lines(out / "overlap.tsv", ["\t".join(["", *matrix.labels]), *rows])
    print("overlap (% of smaller set):")
    for label, row in zip(matrix.labels, matrix.cells):
        print(f"  {label}: " + " ".join(f"{v:6.2f}" for v in row))


def cmd_nn(args: argparse.Namespace) -> None:
    from . import diagnostics as diag_mod
    from . import embed as embed_mod

    if bool(args.scores_before) != bool(args.scores_after):
        raise ValidationError("--scores-before and --scores-after go together")
    out = _prepare_out(args)
    valid = embed_mod.read_embeddings(args.valid_embeddings)
    train = embed_mod._scan_embeddings(args.embeddings)
    report = diag_mod.nn_to_train(valid, train)
    _write_lines(out / "nn.jsonl", (json.dumps(vars(e)) for e in report.entries))
    _write_json(
        out / "summary.json",
        {"n": len(report.entries), "mean": report.mean, "median": report.median},
    )
    print(f"nn: {len(report.entries)} validation points, mean distance {report.mean:.4f}")
    if args.scores_before:
        binned = diag_mod.binned_score_analysis(
            report,
            dict(_read_scored(args.scores_before)),
            dict(_read_scored(args.scores_after)),
            n_bins=args.bins,
        )
        edges, bins = binned.edges, list(enumerate(binned.bins))
        _write_lines(
            out / "binned.jsonl",
            (json.dumps({"bin": i, "lo": edges[i], "hi": edges[i + 1], **vars(b)}) for i, b in bins),
        )
        centers = (f"{0.5 * (edges[i] + edges[i + 1])!r}\t{b.mean_delta!r}" for i, b in bins if b.count)
        _write_lines(out / "binned.tsv", ["bin_center\tmean_delta", *centers])


def cmd_schedule(args: argparse.Namespace) -> None:
    from . import schedule_cost as sched_mod

    out = _prepare_out(args)
    # Only ids and token counts are kept, so no text outlives its record.
    ids: list[str] = []
    texts = corpus_mod.iter_texts(corpus_mod.iter_records(args.corpus), ids)
    tokens = [corpus_mod.count_tokens(text) for text in texts]
    plan = sched_mod._plan(
        ids,
        tokens,
        args.budget_tokens,
        seed=stage_seed(args.seed, "schedule"),
        reshuffle_each_epoch=args.reshuffle,
    )
    _write_lines(out / "order.txt", plan.order)
    _write_json(
        out / "summary.json",
        {
            "T_total": plan.t_total,
            "T_selected": plan.t_selected,
            "epochs": plan.epochs,
            "n_docs": len(ids),
            "n_scheduled": len(plan.order),
        },
    )
    print(f"schedule: epochs={plan.epochs:g}, {len(plan.order)} scheduled documents")


def cmd_cost(args: argparse.Namespace) -> None:
    from . import schedule_cost as sched_mod

    model = sched_mod.CostModel(
        baseline_train_gpu_hours=args.baseline_gpu_hours,
        fraction_updates_saved=args.fraction_saved,
        embed_gpu_hours=args.embed_gpu_hours,
        cpu_stage_gpu_hour_equivalent=args.cpu_gpu_hours,
    )
    naive = sched_mod.naive_gain(model)
    overall = sched_mod.overall_gain(model)
    print(f"naive_gain_gpu_hours={naive:g}")
    print(f"overall_gain_gpu_hours={overall:g}")
    if args.out:
        out = _prepare_out(args)
        _write_json(
            out / "summary.json",
            {"naive_gain_gpu_hours": naive, "overall_gain_gpu_hours": overall},
        )


# ----------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="d4kit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p, out_required=True):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--out", required=out_required)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    common(p)
    p.add_argument("--n-topics", type=int, default=10)
    p.add_argument("--docs-per-topic", type=int, default=100)
    p.add_argument("--template-groups", type=int, default=0)
    p.add_argument("--dupes-per-group", type=int, default=2)
    p.add_argument("--mutation-rate", type=_finite_float, default=0.0)
    p.add_argument("--vocab-size", type=int, default=1000)
    p.add_argument("--min-len", type=int, default=40)
    p.add_argument("--max-len", type=int, default=120)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("minhash", help="MinHash LSH near-duplicate removal")
    common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--bands", type=int, default=20)
    p.add_argument("--rows-per-band", type=int, default=1)
    p.add_argument("--shingle-width", type=int, default=5)
    p.set_defaults(func=cmd_minhash)

    p = sub.add_parser("embed", help="embed a corpus")
    common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--embedder", choices=("hash", "external"), default="hash")
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--chunk-size", type=int, default=None)
    p.add_argument("--embeddings", default=None, help="precomputed file for --embedder external")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("cluster", help="fit spherical k-means")
    common(p)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--iters", type=int, default=20)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("select", help="run a data-selection method")
    common(p)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--clustering", default=None)
    p.add_argument("--method", choices=("random", "semdedup", "prototypes", "d4"), required=True)
    p.add_argument("--r", type=_finite_float, default=None)
    p.add_argument("--r-dedup", type=_finite_float, default=None)
    p.add_argument("--r-proto", type=_finite_float, default=None)
    p.add_argument("--no-recluster", action="store_true")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--iters", type=int, default=20)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("diagnose", help="clustering diagnostics")
    common(p)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--clustering", required=True)
    # None stands for diagnostics.STD_THRESHOLD, which cmd_diagnose fills in.
    p.add_argument("--std-threshold", type=_finite_float, default=None)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("overlap", help="selection overlap matrix")
    common(p)
    p.add_argument("selections", nargs="+", help="selection output directories")
    p.set_defaults(func=cmd_overlap)

    p = sub.add_parser("nn", help="nearest neighbors of validation points in train")
    common(p)
    p.add_argument("valid_embeddings", help="validation embedding file")
    p.add_argument("--embeddings", required=True, help="train embedding file")
    p.add_argument("--scores-before", default=None)
    p.add_argument("--scores-after", default=None)
    p.add_argument("--bins", type=int, default=20)
    p.set_defaults(func=cmd_nn)

    p = sub.add_parser("schedule", help="epoch plan for a token budget")
    common(p)
    p.add_argument("--corpus", required=True, help="selected corpus file")
    p.add_argument("--budget-tokens", type=int, required=True)
    p.add_argument("--reshuffle", action="store_true")
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("cost", help="selection efficiency-gain accounting")
    common(p, out_required=False)
    p.add_argument("--baseline-gpu-hours", type=_finite_float, required=True)
    p.add_argument("--fraction-saved", type=_finite_float, required=True)
    p.add_argument("--embed-gpu-hours", type=_finite_float, default=0.0)
    p.add_argument("--cpu-gpu-hours", type=_finite_float, default=0.0)
    p.set_defaults(func=cmd_cost)

    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    except (ParseError, FormatError, UnicodeDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, MemoryError) as exc:
        # numpy's MemoryError names the allocation it refused; a bare one has no message.
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
