"""d4kit benchmark: one workload, end to end through the ``d4kit`` CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload text-dedup --seed 1 --seconds 30 --trace 0

The benchmark makes the workload's inputs from ``--seed`` (timed as
``setup_s``), then runs the workload's CLI pipeline as sequential
subprocesses, one client in a closed loop, for ``--seconds``. Every
pipeline's outputs are checked; a pipeline fails on a non-zero exit, a
traceback on stderr, or a failed check. The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``.
``--trace 1`` alternates untraced pipelines with traced ones (each CLI
command runs under ``traced_cli.py``, which wraps the library's public
functions) and reports the per-layer metrics. ``--smoke`` shrinks every
input for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import load_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# A run may take this long beyond --seconds, for set-up, the pipeline that
# straddles the end and the report; a command still running then is killed.
DEADLINE_MARGIN_S = 140.0
# Set-up runs this many times before the loop and again after each
# pipeline, so that the median behind setup_s samples the same stretch of
# machine time as the pipelines do.
SETUP_REPEATS_BEFORE = 3
SETUP_REPEATS_BETWEEN = 2


def machine_facts(threads: int) -> dict:
    import numpy
    import scipy

    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": threads,
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            facts["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "unknown"
            )
    except OSError:
        facts["cpu_model"] = "unknown"
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            facts[f"l{level}_{kind.lower()}"] = size
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        facts["blas"] = "unknown"
    return facts


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


class Runner:
    """Runs CLI commands one at a time through ``launcher.py``.

    The launcher reaps each command with ``os.wait4``, whose rusage is that
    one child's, so each command's peak RSS is its own (``RUSAGE_CHILDREN``
    would keep the maximum over every child ever reaped). Create the
    Runner before importing numpy; see ``launcher.py`` for why.
    """

    def __init__(self, deadline: float):
        self.env: dict = dict(os.environ)
        self.deadline = deadline
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
        )

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=30)
        self.proc.stdout.close()

    def run(self, argv: list[str], log: Path) -> dict:
        req = {
            "argv": argv,
            "env": self.env,
            "cwd": str(ROOT),
            "stdout": str(log.with_suffix(".out")),
            "stderr": str(log.with_suffix(".err")),
            "timeout": max(0.1, self.deadline - time.monotonic()),
        }
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        stderr = log.with_suffix(".err").read_text(encoding="utf-8", errors="replace")
        problem = None
        if reply["code"] != 0:
            problem = f"exit code {reply['code']}"
        elif "Traceback (most recent call last)" in stderr:
            problem = "traceback on stderr"
        if problem:
            problem += f" from {' '.join(argv[-8:])}: {stderr.strip()[-300:]}"
        return {"wall": reply["wall"], "rss_mb": reply["maxrss_kb"] / 1024.0, "problem": problem}


def artifact_hashes(out: Path) -> dict[str, str]:
    """sha256 of every file under ``out`` except ``config.json``, which
    records the command line (thread count and paths)."""
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.name != "config.json"
    }


class Bench:
    def __init__(self, workload, args, threads: int, work: Path, runner: Runner):
        self.w = workload
        self.args = args
        self.threads = threads
        self.work = work
        self.runner = runner
        self.pipelines: list[dict] = []
        self.reference: dict[str, str] | None = None
        self.checked = None
        self.alloc: dict | None = None
        self.setup_times: list[float] = []

    def setup(self, repeats: int) -> None:
        """Make the inputs ``repeats`` times, timing each. The first set
        made is the one the pipelines read; later ones are discarded."""
        for _ in range(repeats):
            first = not self.setup_times
            target = self.work / ("inputs" if first else "inputs-again")
            shutil.rmtree(target, ignore_errors=True)
            target.mkdir(parents=True)
            start = time.perf_counter()
            inputs = self.w.setup(target, self.args.seed, self.args.smoke)
            self.setup_times.append(time.perf_counter() - start)
            if first:
                self.inputs = inputs
        shutil.rmtree(self.work / "inputs-again", ignore_errors=True)

    def pipeline(self, traced: bool, threads: int) -> None:
        index = len(self.pipelines)
        base = self.work / f"p{index}"
        out, logs = base / "out", base / "log"
        out.mkdir(parents=True)
        logs.mkdir()
        steps = self.w.steps(self.inputs, out, threads)
        rec = {
            "traced": traced,
            "threads": threads,
            "problems": [],
            "spans": [],
            "step_walls": [],
            "step_rss": [],
        }
        if traced:
            # Start-up cost around the pipeline it explains: the mean of one
            # no-op command just before and one just after.
            probe_before = noop_seconds(self.runner, logs)
        start = time.perf_counter()
        rss = 0.0
        for n, step in enumerate(steps):
            if traced:
                spans = logs / f"{n}.spans"
                argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans), f"{index}:{n}:{step[0]}", "--", *step]
            else:
                argv = [sys.executable, "-m", "d4kit.cli", *step]
            r = self.runner.run(argv, logs / f"{n}-{step[0]}")
            rec["step_walls"].append(r["wall"])
            rec["step_rss"].append(r["rss_mb"])
            rss = max(rss, r["rss_mb"])
            if r["problem"]:
                rec["problems"].append(r["problem"])
                break
            if traced:
                rec["spans"].append(load_spans(str(spans)))
        rec["wall"] = time.perf_counter() - start
        if traced:
            rec["start_probe"] = (probe_before + noop_seconds(self.runner, logs)) / 2
        rec["rss_mb"] = rss
        rec["subprocesses"] = len(steps)
        if not rec["problems"]:
            try:
                checked = self.w.check(self.inputs, out)
            except Exception as exc:  # a malformed output is a failed check
                rec["problems"].append(f"output check could not read the outputs: {exc!r}")
            else:
                rec["problems"] += checked.errors
                if self.checked is None:
                    self.checked = checked
                if traced and self.alloc is None:
                    self.alloc = self.w.alloc_probe(self.inputs, out)
            hashes = artifact_hashes(out)
            if self.reference is None:
                self.reference = hashes
            elif hashes != self.reference:
                rec["problems"].append(
                    f"outputs differ from the first pipeline's (threads {rec['threads']}, traced {traced})"
                )
        shutil.rmtree(base)
        self.pipelines.append(rec)

    def step_names(self) -> list[str]:
        return [step[0] for step in self.w.steps(self.inputs, self.work, self.threads)]

    def loop(self, seconds: float) -> None:
        """Closed loop, one client: the next pipeline starts when the last
        ends, while the next one (and the set-up repeats after it) is
        expected to finish within ``seconds``. Set-up is repeated between
        pipelines, outside their timed span."""
        # Untimed: one no-op command first, so the loop starts with the
        # interpreter and libraries in the page cache.
        probe = self.work / "warm"
        probe.mkdir()
        noop_seconds(self.runner, probe)
        trace = bool(self.args.trace)
        between = 1 if self.args.smoke else SETUP_REPEATS_BETWEEN
        start = time.perf_counter()
        self.setup(1 if self.args.smoke else SETUP_REPEATS_BEFORE)
        while True:
            traced = trace and len(self.pipelines) % 2 == 1
            same = [p["wall"] for p in self.pipelines if p["traced"] == traced]
            enough = len(self.pipelines) >= 2
            if enough:
                next_s = statistics.median(same) + between * statistics.median(self.setup_times)
                if time.perf_counter() - start + next_s > seconds:
                    break
            self.pipeline(traced, self.threads)
            self.setup(between)


def describe(values: list[float]) -> str:
    """Median, the highest percentile with >= 10 samples beyond it, count."""
    n = len(values)
    med = statistics.median(values)
    if n >= 11:
        q = int(100 * (1 - 10 / n))
        ranked = sorted(values)
        return f"median {med:.6g}  p{q} {ranked[max(0, -(-q * n // 100) - 1)]:.6g}  (n={n})"
    return f"median {med:.6g}  (n={n}; no percentile has 10 samples beyond it)"


def plan_seconds(inputs, final_ids) -> float:
    from d4kit.corpus import load_corpus
    from d4kit.schedule_cost import plan_epochs

    docs = load_corpus(str(inputs.paths["corpus"]))
    selected = docs.subset(frozenset(final_ids))
    times = []
    for _ in range(3):
        start = time.perf_counter()
        plan_epochs(selected, docs.total_tokens)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def noop_seconds(runner: Runner, logs: Path) -> float:
    """Wall time of a CLI command that does no work: the start-up cost."""
    argv = [sys.executable, "-m", "d4kit.cli", "cost", "--baseline-gpu-hours", "1", "--fraction-saved", "0.1"]
    r = runner.run(argv, logs / "noop")
    if r["problem"]:
        raise RuntimeError(f"no-op CLI command failed: {r['problem']}")
    return r["wall"]


def layer_metrics(bench: Bench) -> dict | None:
    import layers

    traced = [p for p in bench.pipelines if p["traced"] and not p["problems"]]
    # Each traced pipeline runs right after an untraced one; compare pairs.
    pairs = [
        (u, t)
        for u, t in zip(bench.pipelines, bench.pipelines[1:])
        if t["traced"] and not t["problems"] and not u["traced"] and not u["problems"]
    ]
    if not pairs:
        print("error: the traced run needs a good untraced pipeline followed by a good traced one", file=sys.stderr)
        return None
    per = [layers.pipeline_metrics(p["spans"]) for p in traced]
    m = {k: statistics.median(d[k] for d in per) for k in per[0]}
    m["cli.start_s"] = statistics.median(p["start_probe"] for p in traced)
    m["cli.subprocesses"] = traced[0]["subprocesses"]
    # Wall time outside library spans, and the part of it that neither the
    # CLI's own code (cli.run self time) nor process start-up (a no-op
    # command's wall time, taken just before the pipeline, per subprocess)
    # explains. Both come from one traced pipeline and its own probe, so
    # drifts in machine speed between pipelines cancel.
    m["cli.overhead_s"] = statistics.median(p["wall"] - d["library_s"] for p, d in zip(traced, per))
    unexplained = statistics.median(
        (p["wall"] - d["library_s"] - d["cli_self_s"] - p["subprocesses"] * p["start_probe"]) / p["wall"]
        for p, d in zip(traced, per)
    )
    m["trace.overhead_frac"] = statistics.median(t["wall"] / u["wall"] - 1.0 for u, t in pairs)
    m["schedule_cost.plan_s"] = plan_seconds(bench.inputs, bench.checked.final_ids)
    m["minhash.group_purity"] = bench.checked.extra.get("minhash.group_purity", 0.0)
    m["select.ratio_err"] = bench.checked.ratio_err
    m["select.semdedup_peak_alloc_mb"] = bench.alloc.get("select.semdedup_peak_alloc_mb", 0.0)
    m["diagnostics.nn_peak_alloc_mb"] = bench.alloc.get("diagnostics.nn_peak_alloc_mb", 0.0)
    traced_wall = statistics.median(p["wall"] for p in traced)
    print(
        f"trace: {len(traced)} traced pipelines, median wall {traced_wall:.4f} s; library spans "
        f"{m['library_s']:.4f} s + cli.overhead_s {m['cli.overhead_s']:.4f} s, of which cli.run self "
        f"{m['cli_self_s']:.4f} s and start-up {m['cli.subprocesses']} x {m['cli.start_s']:.4f} s; "
        f"{1 - unexplained:.1%} of traced wall attributed"
    )
    for n, name in enumerate(bench.step_names()):
        with_trace = statistics.median(p["step_walls"][n] for p in traced)
        print(f"  step {n} {name:10s} median wall traced {with_trace:.4f} s")
    selfs = [layers.self_by_name(p["spans"]) for p in traced]
    names = sorted({k for d in selfs for k in d})
    own = {k: statistics.median(d.get(k, 0.0) for d in selfs) for k in names}
    print("  self time by span (median over traced pipelines):")
    for k in sorted(own, key=own.get, reverse=True):
        print(f"    {k:36s} {own[k]:.4f} s")
    for name in sorted(m):
        tag = "computed" if name in layers.COMPUTED else "measured"
        print(f"  {name:34s} {m[name]:.6g}  [{tag}]")
    return m


def report(bench: Bench, setup: list[float], args) -> dict | None:
    for n, p in enumerate(bench.pipelines):
        for problem in p["problems"]:
            print(f"FAILED pipeline {n}: {problem}")
    untraced = [
        p for p in bench.pipelines if not p["traced"] and not p["problems"] and p["threads"] == bench.threads
    ]
    if not untraced or bench.checked is None:
        print("error: no pipeline completed with correct outputs", file=sys.stderr)
        return None
    n_items = bench.inputs.n_items
    rates = [n_items / p["wall"] for p in untraced]
    rss = [p["rss_mb"] for p in untraced]
    failed = sum(1 for p in bench.pipelines if p["problems"])
    m = {
        "docs_per_s": statistics.median(rates),
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(setup),
        "dup_recall": bench.checked.dup_recall,
    }
    print(f"docs_per_s   [1/s]   {describe(rates)}  ({n_items} docs or vectors per pipeline)")
    print("  pipeline walls (s): " + " ".join(f"{p['wall']:.4f}" for p in untraced))
    print(f"peak_rss_mb  [MB]    {describe(rss)}")
    print(f"setup_s      [s]     {describe(setup)}")
    print(f"dup_recall   [frac]  {m['dup_recall']:.6g}  (deterministic)")
    print(f"failed_frac  [frac]  {failed / len(bench.pipelines):.6g}  ({failed} of {len(bench.pipelines)} pipelines)")
    ratio = f"{bench.checked.ratio_err:.6g}" if args.workload != "text-dedup" else "n/a (no ratio target)"
    print(f"ratio_err    [frac]  {ratio}  (deterministic)")
    for n, name in enumerate(bench.step_names()):
        wall = statistics.median(p["step_walls"][n] for p in untraced)
        step_rss = statistics.median(p["step_rss"][n] for p in untraced)
        print(f"  step {n} {name:10s} median wall {wall:.4f} s, peak RSS {step_rss:.1f} MB")
    if args.trace:
        layer = layer_metrics(bench)
        if layer is None:
            return None
        m.update(layer)
    return m


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="reduced inputs, for the benchmark's tests")
    args = p.parse_args(argv)

    if not (SRC / "d4kit" / "cli.py").is_file():
        print(f"error: no d4kit sources at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    runner = Runner(time.monotonic() + args.seconds + DEADLINE_MARGIN_S)
    try:
        return measure(args, runner)
    finally:
        runner.close()


def measure(args, runner: Runner) -> int:
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 1
    nproc = len(os.sched_getaffinity(0))
    w = WORKLOADS[args.workload]
    threads = min(w.threads, nproc)
    assert 1 <= threads <= nproc, f"thread budget {threads} is outside 1..nproc ({nproc})"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    work = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner.env = child_env(threads)
        bench = Bench(w, args, threads, work, runner)
        facts = machine_facts(threads)
        print(f"workload {w.name}  seed {args.seed}  threads {threads}  trace {args.trace}")
        print("machine " + json.dumps(facts, sort_keys=True))
        bench.loop(args.seconds)
        if threads > 1 and args.workload == "curate-d4":
            bench.pipeline(False, 1)
        metrics = report(bench, bench.setup_times, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if metrics is None:
        return 1
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 1
    failed = sum(1 for p in bench.pipelines if p["problems"])
    result = {
        "correct": failed == 0,
        "attempted": len(bench.pipelines),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
