"""Run the benchmark on several seeds and report each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py --workloads text-dedup curate-d4 --seeds 1-10 [--out FILE]

For every workload and end-to-end metric it prints the median of the
per-seed values and the distance between their first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
a third of the metric's bound from ``BENCHMARK.json``. With ``--out`` it
also writes every run's result line and the machine facts as JSON, which
is how ``baseline.json`` was made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, str | None]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}): {proc.stderr[-500:]}")
    machine = next((json.loads(l[len("machine "):]) for l in lines if l.startswith("machine ")), {})
    coverage = next((l for l in lines if l.startswith("trace: ")), None)
    return json.loads(lines[-1]), machine, coverage


def summarize(runs: list[dict]) -> dict:
    """Median and quartile distance over median of each metric across runs."""
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        stat = {"median": statistics.median(values)}
        if len(values) >= 2 and stat["median"]:
            q1, _, q3 = statistics.quantiles(values, n=4)
            stat["iqr_frac"] = (q3 - q1) / abs(stat["median"])
        out[name] = stat
    return out


def main(argv: list[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--label", default="", help="what was measured, stored with --out")
    args = p.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    record = {"label": args.label, "seconds": args.seconds, "trace": args.trace, "machine": {}, "runs": {}}
    for w in args.workloads:
        runs = []
        for seed in args.seeds:
            result, machine, coverage = run_once(w, seed, args.seconds, args.trace)
            record["machine"][w] = machine
            runs.append({"seed": seed, **result})
            if coverage:
                runs[-1]["trace_summary"] = coverage
            print(f"{w} seed {seed}: " + json.dumps(result), flush=True)
        record["runs"][w] = runs
        record.setdefault("summary", {})[w] = summarize(runs)
        for name, stat in record["summary"][w].items():
            line = f"{w:13s} {name:32s} median {stat['median']:.6g}"
            if "iqr_frac" in stat:
                line += f"  iqr/median {stat['iqr_frac']:.4f}"
                if bounds.get(name):
                    line += f"  (bound/3 {bounds[name] / 3:.4f})"
            print(line, flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
