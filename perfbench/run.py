"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the run measures the end-to-end metrics: set-up time
in fresh interpreters, then passes over the workload's fixed operation
list in one closed loop until ``--seconds`` have gone by (at least one
pass).  With ``--trace 1`` it runs the same untraced set-ups and passes,
then builds the workload again and runs one more pass with harmap's
public functions wrapped by ``tracer.Tracer``, and reports per-layer
metrics from the spans, with the traced pass's overhead against the
untraced ones.  Both modes time each set-up's build step alone, after
the imports, as ``setup.build_s``: most of ``setup_s`` is interpreter
start-up and imports, so ``setup.build_s`` is the figure a change to
harmap's constructors (``catalog.make`` above all) moves in proportion.

Times are calibrated against a fixed numpy loop timed beside them, and
set-up times against a fixed reference set-up (see ``calibrate.py``);
the raw values are printed in a ``note`` line.

Each metric is printed as ``name = value unit``, then the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The run also writes that
record, with the machine context and every failure, to ``.bench_out/``
at the root of the checkout, and in traced runs the spans as ``.npz``.

The harmap sources are taken from ``src/`` beside this directory; the
run stops with exit code 2 and prints no result when they are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

sys.path.insert(0, str(ROOT))
from perfbench import calibrate  # noqa: E402  (needs ROOT on the path)

#: fresh interpreters timed per run for setup_s, each beside a reference set-up
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 120

#: the percentile reported as op_ms_tail keeps this many ops beyond it
TAIL_OPS = 10

THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def load_harmap():
    """Import harmap from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "harmap" / "__init__.py").is_file():
        print(f"perfbench: no harmap sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import harmap

    if Path(harmap.__file__).resolve().parent != (src / "harmap").resolve():
        print(f"perfbench: harmap was imported from {harmap.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return harmap


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_context() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {k: os.environ[k] for k in THREAD_VARIABLES if k in os.environ},
    }


class Setup(NamedTuple):
    """One fresh interpreter's set-up: its raw wall time, the calibration
    factor of the reference set-up run after it, and its build step alone
    (after the imports), calibrated inside the interpreter."""

    wall_s: float
    factor: float
    build_s: float


def timed_setups(workload: str, seed: int) -> list[Setup]:
    """Fresh interpreters that import harmap and build the workload's
    inputs, one after another, each followed by a reference set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed), "--seconds", "0"]
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        elapsed = perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up of {workload} failed:\n{proc.stderr}")
        build_s = json.loads(proc.stdout.splitlines()[-1])["build_s"]
        factor = calibrate.setup_factor(calibrate.setup_reference_time())
        setups.append(Setup(elapsed, factor, build_s))
    return setups


def run_passes(wl, seconds: float) -> list:
    """Closed loop over whole passes until ``seconds`` have gone by."""
    passes = []
    start = perf_counter()
    while True:
        passes.append(wl.run_pass())
        if perf_counter() - start >= seconds:
            return passes


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest rank with TAIL_OPS values beyond it."""
    n = len(values)
    if n <= TAIL_OPS:
        raise ValueError(f"a pass of {n} ops has no tail percentile")
    rank = n - TAIL_OPS
    return sorted(values)[rank - 1], 100.0 * rank / n


def timings(setups: list, passes: list, calibrated: bool) -> dict:
    """The timing metrics, from calibrated or from raw times."""

    def latencies(p) -> list[float]:
        return p.calibrated_ms() if calibrated else p.latencies_ms

    ops = len(passes[0].latencies_ms)
    wall = statistics.median(sum(latencies(p)) / 1e3 for p in passes)
    return {
        "setup_s": (statistics.median(s.wall_s * (s.factor if calibrated else 1.0) for s in setups), "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": (ops / wall, "1/s"),
        "op_ms_p50": (statistics.median(statistics.median(latencies(p)) for p in passes), "ms"),
        "op_ms_tail": (statistics.median(tail(latencies(p))[0] for p in passes), "ms"),
    }


def build_step(setups: list[Setup]) -> tuple[float, str]:
    """setup.build_s: the median calibrated build step of the set-ups."""
    return statistics.median(s.build_s for s in setups), "s"


def end_to_end(setups: list[Setup], passes: list) -> tuple[dict, list[str]]:
    metrics = timings(setups, passes, calibrated=True)
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    raw = timings(setups, passes, calibrated=False)
    ops = len(passes[0].latencies_ms)
    factors = [s.factor for s in setups] + [f for p in passes for f in p.factors]
    notes = [
        f"times are calibrated to a {calibrate.REFERENCE_S} s calibration loop and set-up "
        f"times to a {calibrate.REFERENCE_SETUP_S} s reference set-up "
        f"(factors {min(factors):.4f}..{max(factors):.4f}); raw: "
        + ", ".join(f"{k}={v:.6g}" for k, (v, _) in raw.items()),
        f"setup_s: median of {len(setups)} fresh interpreters, raw {[round(s.wall_s, 4) for s in setups]}; "
        f"their build step alone, after the imports, is setup.build_s (not bounded)",
        f"wall_s, ops_per_s: median over {len(passes)} passes of {ops} ops (sum of op times)",
        f"op_ms_tail: p{tail(passes[0].latencies_ms)[1]:.1f} of {ops} ops per pass, "
        f"median over {len(passes)} passes",
    ]
    return metrics, notes


def per_layer(layers: dict, setups: list[Setup], untraced: list, traced, suite_ids) -> dict:
    """Span metrics, the set-up's build step, suite times, and the tracing
    overhead from calibrated walls."""
    metrics = dict(layers)
    metrics["setup.build_s"] = build_step(setups)
    for sid in suite_ids:
        times = [p.suite_elapsed[sid] for p in untraced if sid in p.suite_elapsed]
        metrics[f"verify.suite.{sid}.s"] = (statistics.median(times) if times else 0.0, "s")
    base = statistics.median(sum(p.calibrated_ms()) / 1e3 for p in untraced)
    traced_wall = sum(traced.calibrated_ms()) / 1e3
    metrics["trace.overhead_s"] = (traced_wall - base, "s")
    metrics["trace.overhead_ratio"] = (traced_wall / base - 1.0, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    harmap = load_harmap()
    from perfbench import tracer as tracer_mod
    from perfbench import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(workloads.NAMES)}")
    if args.setup_only:
        # the build step alone, after the imports, for setup.build_s
        before = calibrate.loop_time()
        t0 = perf_counter()
        workloads.build(args.workload, args.seed, OUT_DIR).close()
        elapsed = perf_counter() - t0
        print(json.dumps({"build_s": elapsed * calibrate.factor(before, calibrate.loop_time())}))
        return 0

    context = machine_context()
    OUT_DIR.mkdir(exist_ok=True)
    setups = timed_setups(args.workload, args.seed)
    wl = workloads.build(args.workload, args.seed, OUT_DIR)
    try:
        passes = run_passes(wl, args.seconds)
    finally:
        wl.close()

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        # set-up is traced too: catalog.make and sample_member run there
        with tracer_mod.Tracer() as tracer:
            wl = workloads.build(args.workload, args.seed, OUT_DIR)
            try:
                traced = wl.run_pass()
            finally:
                wl.close()
        layers = tracer_mod.layer_metrics(tracer)
        metrics = per_layer(layers, setups, passes, traced, harmap.suite_ids())
        tracer.write(OUT_DIR / f"spans-{tag}.npz")
        notes = [f"per-layer metrics from one traced set-up and pass; "
                 f"overhead against the median of {len(passes)} untraced passes; "
                 f"setup.build_s from {len(setups)} untraced fresh interpreters"]
        unbounded = {}
        results = passes + [traced]
    else:
        metrics, notes = end_to_end(setups, passes)
        unbounded = {"setup.build_s": build_step(setups)}
        results = passes

    attempted = sum(len(p.latencies_ms) for p in results)
    failures = [f for p in results for f in p.failures]
    record = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("context " + json.dumps(context, sort_keys=True))
    for note in notes:
        print("note " + note)
    for k, (v, u) in metrics.items():
        print(f"{k} = {v:.6g} {u}")
    for k, (v, u) in unbounded.items():
        print(f"{k} = {v:.6g} {u} (not in the metrics record)")
    print(f"fail_ratio = {len(failures) / attempted:.6g} ratio ({len(failures)} of {attempted} ops)")
    for f in failures:
        print("FAILED " + f)
    (OUT_DIR / f"result-{tag}.json").write_text(
        json.dumps({**record, "context": context, "notes": notes, "failures": failures,
                    "unbounded": {k: {"value": v, "unit": u} for k, (v, u) in unbounded.items()}},
                   indent=1)
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
