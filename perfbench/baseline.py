"""Run every workload over ten seeds, twice, and summarise each metric.

    python3 perfbench/baseline.py [--out FILE]

Each run is ``perfbench/run.py --trace 0`` with the ``run_seconds`` of
``BENCHMARK.json``, one run at a time.  A first set runs every workload
of ``BENCHMARK.json`` at seeds 1-10, then a repeat set runs them all
again at seeds 11-20.  For every end-to-end metric of each set the
summary gives the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median,
and flags a spread above a third of the metric's bound; it flags a
repeat median worse than the first by more than the bound.  It also
summarises ``setup.build_s``, the build step of ``setup_s``, which has
no bound.  Then two traced runs at seed 1 give the per-layer metrics and
show whether every count repeats exactly.  The exit code is 1 when
anything is flagged.  With ``--out`` the summary and the machine context
are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
RUN_TIMEOUT_S = 600
RUNS = 10
SETS = {"first": range(1, RUNS + 1), "repeat": range(RUNS + 1, 2 * RUNS + 1)}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    record = json.loads(lines[-1])
    context = next(json.loads(line[len("context "):]) for line in lines if line.startswith("context "))
    build = next((float(line.split()[2]) for line in lines if line.startswith("setup.build_s = ")), None)
    return {**record, "context": context, "setup.build_s": build}


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def run_set(workload: str, seeds: range, spec: dict) -> tuple[dict, bool]:
    """Ten untraced runs of one workload; their summary and whether every
    spread is below a third of its bound."""
    seconds = spec["run_seconds"]
    records = [run_once(workload, seed, seconds, 0) for seed in seeds]
    steady = True
    metrics = {}
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        stats = summarise([r["metrics"][name]["value"] for r in records])
        stats["unit"] = records[0]["metrics"][name]["unit"]
        metrics[name] = stats
        ok = stats["spread"] < bound / 3
        steady &= ok
        print(f"{workload:16s} {name:12s} median {stats['median']:.6g} {stats['unit']:5s} "
              f"q1 {stats['q1']:.6g} q3 {stats['q3']:.6g} spread {stats['spread']:.4f} "
              f"bound {bound}{'' if ok else '  SPREAD ABOVE BOUND/3'}", flush=True)
    build = summarise([r["setup.build_s"] for r in records])
    print(f"{workload:16s} setup.build_s median {build['median']:.6g} s spread {build['spread']:.4f} "
          f"(no bound)", flush=True)
    summary = {
        "seeds": list(seeds),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "end_to_end": metrics,
        "setup.build_s": build,
        "context": records[0]["context"],
    }
    return summary, steady


def worse_by(first: float, repeat: float, better: str) -> float:
    """Share of the first median by which the repeat median is worse."""
    return (repeat - first) / first if better == "lower" else (first - repeat) / first


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    summary = {"run_seconds": spec["run_seconds"], "runs": RUNS, "workloads": {n: {} for n in names}}
    ok = True
    for set_name, seeds in SETS.items():
        for workload in names:
            result, steady = run_set(workload, seeds, spec)
            summary["context"] = result.pop("context")
            summary["workloads"][workload][set_name] = result
            ok &= steady

    for workload in names:
        entry = summary["workloads"][workload]
        agreement = {}
        for m in spec["end_to_end"]:
            name = m["name"]
            worse = worse_by(entry["first"]["end_to_end"][name]["median"],
                             entry["repeat"]["end_to_end"][name]["median"], m["better"])
            agreement[name] = worse
            ok &= worse <= m["bound"]
            print(f"{workload:16s} {name:12s} repeat median worse by {worse:+.4f} bound {m['bound']}"
                  f"{'' if worse <= m['bound'] else '  ABOVE BOUND'}", flush=True)
        traced = [run_once(workload, 1, spec["run_seconds"], 1) for _ in range(2)]
        counts = [{k: v["value"] for k, v in t["metrics"].items() if v["unit"] != "s"
                   and not k.startswith("trace.overhead")} for t in traced]
        repeat = counts[0] == counts[1]
        print(f"{workload:16s} traced counts repeat exactly at seed 1: {repeat}", flush=True)
        entry["repeat_worse_by"] = agreement
        entry["per_layer"] = traced[0]["metrics"]
        entry["traced_counts_repeat"] = repeat
        ok &= repeat
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
