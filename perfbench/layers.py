"""Which d4kit functions the traced run wraps, and the per-layer metrics
derived from their spans.

Every public function of each library module is wrapped, including the
names a module re-imports from another (``select.kmeans_spherical`` is the
same wrapper as ``cluster.kmeans_spherical``), because the library calls
them through its own module globals. The span name is the defining
module's layer, so a call is attributed to the layer that does the work.
Counts marked computed in ``COMPUTED`` are derived from argument shapes,
not measured.
"""

from __future__ import annotations

import importlib
import inspect
import os

import numpy as np

from tracer import Tracer, self_times

LAYERS = ("corpus", "minhash", "embed", "cluster", "select", "diagnostics", "schedule_cost")

# Names imported from outside d4kit that a layer calls per unit of work.
FOREIGN = {"select": ("connected_components",)}

COMPUTED = frozenset(
    {
        "minhash.shingle_hashes",
        "embed.features",
        "cluster.assign_flops",
        "select.sim_entries",
        "diagnostics.nn_pairs",
    }
)


def _sim_entries(clustering) -> int:
    sizes = np.bincount(clustering.assignment, minlength=clustering.k).astype(np.int64)
    return int((sizes[sizes > 1] ** 2).sum())


def _features(docs) -> int:
    # Unigrams plus bigrams of the whitespace tokens that embed hashes.
    return sum(2 * d.token_count - 1 for d in docs if d.token_count)


COUNTS = {
    "corpus.load_corpus": lambda a, k, r: {"docs": len(r), "tokens": r.total_tokens},
    "minhash.shingles": lambda a, k, r: {"shingles": len(r)},
    "minhash.signature": lambda a, k, r: {"shingle_hashes": len(a[0]) * a[1].num_hashes},
    "minhash.lsh_dedup": lambda a, k, r: {"groups": len(r.groups)},
    "embed.embed_corpus": lambda a, k, r: (
        {"external": 1}
        if a[1].kind == "external"
        else {"external": 0, "features": _features(a[0])}
    ),
    "embed.read_embeddings": lambda a, k, r: {"bytes": os.path.getsize(a[0])},
    "embed.write_embeddings": lambda a, k, r: {"bytes": os.path.getsize(a[1])},
    "cluster.kmeans_spherical": lambda a, k, r: {"iters": r.iters_run},
    "cluster.assign": lambda a, k, r: {"assign_flops": 2 * a[0].n * a[1].shape[0] * a[0].d},
    "select.semdedup": lambda a, k, r: {"sim_entries": _sim_entries(a[1])},
    "diagnostics.nn_to_train": lambda a, k, r: {"nn_pairs": a[0].n * a[1].n},
}


def install(tracer: Tracer) -> None:
    """Replace each layer's public functions with traced wrappers."""
    wrapped: dict[int, object] = {}

    def wrapper_for(layer: str, name: str, fn):
        if id(fn) not in wrapped:
            origin = getattr(fn, "__module__", "") or ""
            if origin.startswith("d4kit."):
                layer = origin.rsplit(".", 1)[1]
            span = f"{layer}.{name}"
            wrapped[id(fn)] = tracer.wrap(span, fn, COUNTS.get(span))
        return wrapped[id(fn)]

    for layer in LAYERS:
        mod = importlib.import_module(f"d4kit.{layer}")
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or not inspect.isroutine(obj):
                continue
            origin = getattr(obj, "__module__", "") or ""
            if origin.startswith("d4kit.") or name in FOREIGN.get(layer, ()):
                setattr(mod, name, wrapper_for(layer, name, obj))

    cluster = importlib.import_module("d4kit.cluster")
    cluster.Clustering.validate_for = tracer.wrap(
        "cluster.validate_for", cluster.Clustering.validate_for
    )


def _under(spans: list[dict], i: int, name: str) -> bool:
    p = spans[i]["parent"]
    while p >= 0:
        if spans[p]["name"] == name:
            return True
        p = spans[p]["parent"]
    return False


def self_by_name(processes: list[list[dict]]) -> dict[str, float]:
    """Total self time per span name over one pipeline's processes.

    Spans on worker threads run alongside their caller's span rather than
    inside it, so they are listed under their own key.
    """
    out: dict[str, float] = {}
    for spans in processes:
        for s, own in zip(spans, self_times(spans)):
            key = s["name"] if s["main_thread"] else s["name"] + " (worker threads)"
            out[key] = out.get(key, 0.0) + own
    return out


def pipeline_metrics(processes: list[list[dict]]) -> dict[str, float]:
    """Per-layer metrics for one traced pipeline, from each process's spans."""
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    out = {
        "library_s": 0.0,
        "cli_self_s": 0.0,
        "cluster.fit_s": 0.0,
        "cluster.refit_s": 0.0,
        "select.d4_self_s": 0.0,
        "embed.embed_s": 0.0,
        "embed.ingest_s": 0.0,
        "embed_cpu_s": 0.0,
    }
    sim_entries = 0
    for spans in processes:
        own = self_times(spans)
        for i, s in enumerate(spans):
            name, dur = s["name"], s["end"] - s["start"]
            total[name] = total.get(name, 0.0) + dur
            calls[name] = calls.get(name, 0) + 1
            if name == "cli.run":
                out["cli_self_s"] += own[i]
            elif s["main_thread"] and (s["parent"] < 0 or spans[s["parent"]]["name"] == "cli.run"):
                out["library_s"] += dur
            c = s.get("counts", {})
            for key, value in c.items():
                if key == "sim_entries":
                    sim_entries = max(sim_entries, value)
                else:
                    counts[key] = counts.get(key, 0) + value
            if name == "cluster.kmeans_spherical":
                key = "cluster.refit_s" if _under(spans, i, "select.d4") else "cluster.fit_s"
                out[key] += dur
            elif name == "select.d4":
                out["select.d4_self_s"] += own[i]
            elif name == "embed.embed_corpus":
                out["embed.ingest_s" if c.get("external") else "embed.embed_s"] += dur
                if not c.get("external"):
                    out["embed_cpu_s"] += s["cpu"]

    def t(name: str) -> float:
        return total.get(name, 0.0)

    def per(num: float, den: float, scale: float = 1.0) -> float:
        return num / den * scale if den else 0.0

    sign_s = t("minhash.shingles") + t("minhash.signature")
    fit_total = out["cluster.fit_s"] + out["cluster.refit_s"]
    out.update(
        {
            "corpus.load_s": t("corpus.load_corpus"),
            "corpus.docs": counts.get("docs", 0),
            "corpus.tokens": counts.get("tokens", 0),
            "minhash.lsh_dedup_s": t("minhash.lsh_dedup"),
            "minhash.sign_s": sign_s,
            "minhash.band_group_s": max(0.0, t("minhash.lsh_dedup") - sign_s),
            "minhash.shingles": counts.get("shingles", 0),
            "minhash.shingle_hashes": counts.get("shingle_hashes", 0),
            "minhash.ns_per_shingle_hash": per(
                t("minhash.signature"), counts.get("shingle_hashes", 0), 1e9
            ),
            "minhash.groups": counts.get("groups", 0),
            "embed.features": counts.get("features", 0),
            "embed.us_per_feature": per(out["embed.embed_s"], counts.get("features", 0), 1e6),
            "embed.cpu_util": per(out.pop("embed_cpu_s"), out["embed.embed_s"]),
            "embed.write_s": t("embed.write_embeddings"),
            "embed.read_s": t("embed.read_embeddings"),
            "embed.bytes": counts.get("bytes", 0),
            "cluster.iters": counts.get("iters", 0),
            "cluster.ms_per_iter": per(fit_total, counts.get("iters", 0), 1e3),
            "cluster.assign_calls": calls.get("cluster.assign", 0),
            "cluster.assign_flops": counts.get("assign_flops", 0),
            "cluster.validate_calls": calls.get("cluster.validate_for", 0),
            "cluster.validate_s": t("cluster.validate_for"),
            "select.semdedup_s": t("select.semdedup"),
            "select.cc_sweeps": calls.get("select.connected_components", 0),
            "select.prototypes_s": t("select.ssl_prototypes"),
            "select.sim_entries": sim_entries,
            "diagnostics.analyze_s": t("diagnostics.analyze_clustering"),
            "diagnostics.nn_s": t("diagnostics.nn_to_train"),
            "diagnostics.nn_pairs": counts.get("nn_pairs", 0),
            "diagnostics.overlap_s": t("diagnostics.selection_overlap"),
        }
    )
    return out
