"""Run one qeclab benchmark workload and print its metrics.

    python3 bench/run.py --workload {enumerate,q3,correct} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; qeclab is imported from ./src.
A run makes a fixed number of iterations, about --seconds of work on the
reference core, and gives its times in reference seconds (see speed.py).
With --trace 0 the last line of standard output holds the end-to-end
metrics (wall_s, setup_s, peak_rss_mb); with --trace 1 it holds the
per-layer metrics of spans recorded around calls into each qeclab module.
The line before it holds the details: every sample in reference and in wall
seconds, the speed kernel's readings, error rate, failures and the
environment.  See bench/NOTES.md for what each workload measures.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads, so every run uses one core.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402  (numpy after the thread pins)

SRC = Path(__file__).resolve().parent.parent / "src"

# Reference seconds of one iteration (set-up plus timed region) at the commit
# that added this benchmark.  A run makes max(1, round(seconds / ITERATION_S))
# iterations, so its work, and with it `attempted` and `failed`, depends only
# on --seconds and --seed, never on how fast the machine was.
ITERATION_S = {"enumerate": 13.9, "q3": 7.1, "correct": 8.5}
# Set-up samples per run, at least: extra set-ups follow the iterations.
MIN_SETUPS = {"enumerate": 15, "q3": 15, "correct": 0}
# Share of a traced run's iterations that run untraced, the overhead baseline.
UNTRACED_SHARE = 0.4


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("enumerate", "q3", "correct"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_qeclab():
    """Import qeclab from the checkout's src directory, never from elsewhere."""
    if not (SRC / "qeclab" / "__init__.py").is_file():
        raise SystemExit(f"no qeclab sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import qeclab

    if Path(qeclab.__file__).resolve().parent != SRC / "qeclab":
        raise SystemExit(f"imported qeclab from {qeclab.__file__}, not from {SRC}")


class Run:
    """Iterations of one workload, with their outcomes."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.failures: Counter[str] = Counter()

    def setup(self):
        """(inputs, (start, end)) of one set-up."""
        gc.collect()                  # every sample starts from a settled heap
        t0 = time.perf_counter()
        inputs = self.workload.setup(self.seed)
        return inputs, (t0, time.perf_counter())

    def run(self, inputs):
        """(outputs, (start, end)) of one timed region."""
        gc.collect()
        t0 = time.perf_counter()
        outputs = self.workload.run(inputs)
        return outputs, (t0, time.perf_counter())

    def check(self, outputs) -> None:
        attempted, failures, problems = self.workload.check(outputs)
        self.attempted += attempted
        self.failed += len(failures)
        self.failures.update(failures)
        self.problems += problems


def iterations(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ITERATION_S[workload]))


def measure_untraced(run: Run, n_iter: int, n_setups: int) -> dict:
    """n_iter iterations, then extra set-ups up to n_setups, under a speed probe."""
    setups: list[tuple[float, float]] = []
    walls: list[tuple[float, float]] = []
    with speed.SpeedProbe() as probe:
        for _ in range(n_iter):
            inputs, ws = run.setup()
            outputs, wr = run.run(inputs)
            setups.append(ws)
            walls.append(wr)
            run.check(outputs)
            inputs = outputs = None
        while len(setups) < n_setups:
            setups.append(run.setup()[1])
    ref = {name: [probe.reference_s(t0, t1)[0] for t0, t1 in windows]
           for name, windows in (("wall_s", walls), ("setup_s", setups))}
    raw = {name: [t1 - t0 for t0, t1 in windows]
           for name, windows in (("wall_s", walls), ("setup_s", setups))}
    return {"reference": ref, "raw": raw, "kernel": probe.kernel_summary()}


def measure_traced(run: Run, n_iter: int, tracer) -> dict:
    """Untraced iterations for the overhead baseline, then traced ones.

    A traced iteration's window covers its set-up and its timed region, so
    the per-layer metrics include model construction.  The speed probe runs
    throughout; its ticks count to no layer, and every window and per-layer
    time is in reference seconds, so a change of core speed between the two
    phases does not show as overhead.
    """
    n_plain = max(1, round(UNTRACED_SHARE * n_iter))
    n_traced = max(1, n_iter - n_plain)
    plain: list[tuple[float, float]] = []
    traced: list[tuple[float, float]] = []
    samples: list[dict] = []
    with speed.SpeedProbe(on_tick=tracer.exclude) as probe:

        def window():
            inputs, (t0, _) = run.setup()
            outputs, (_, t1) = run.run(inputs)
            run.check(outputs)
            return t0, t1

        plain = [window() for _ in range(n_plain)]
        tracer.install()
        try:
            for _ in range(n_traced):
                tracer.reset()
                t0, t1 = window()
                ref_s, tick_s = probe.reference_s(t0, t1)
                scale = speed.REF_KERNEL_S / tick_s
                sample = tracer.metrics(ref_s / scale)
                samples.append({k: v * scale if k.endswith("_s") else v for k, v in sample.items()})
                traced.append((t0, t1))
        finally:
            tracer.uninstall()
    plain_ref = [probe.reference_s(*w)[0] for w in plain]
    traced_ref = [probe.reference_s(*w)[0] for w in traced]
    metrics = {k: statistics.median(s[k] for s in samples) for k in samples[0]}
    metrics["trace.overhead"] = statistics.median(traced_ref) / statistics.median(plain_ref) - 1
    return {"metrics": metrics,
            "untraced_window_s": plain_ref,
            "traced_window_s": traced_ref,
            "raw_untraced_window_s": [t1 - t0 for t0, t1 in plain],
            "raw_traced_window_s": [t1 - t0 for t0, t1 in traced],
            "kernel": probe.kernel_summary()}


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def _summary(values: list[float]) -> dict:
    return {"median": statistics.median(values), "n": len(values), "samples": values}


UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", ".overhead")):
        return "ratio"
    if name.endswith("_max"):
        return "norm"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("--seconds must be positive")
    import_qeclab()
    import spans
    import workloads

    run = Run(workloads.WORKLOADS[args.workload](), args.seed)
    n_iter = iterations(args.workload, args.seconds)
    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "iterations": n_iter}
    if args.trace:
        traced = measure_traced(run, n_iter, spans.Tracer())
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in traced["metrics"].items()}
        for name in ("untraced_window_s", "traced_window_s"):
            details[name] = _summary(traced[name])
            details["raw_" + name] = _summary(traced["raw_" + name])
        details["speed_kernel"] = traced["kernel"]
    else:
        samples = measure_untraced(run, n_iter, max(n_iter, MIN_SETUPS[args.workload]))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        ref = samples["reference"]
        values = {"wall_s": statistics.median(ref["wall_s"]),
                  "setup_s": statistics.median(ref["setup_s"]),
                  "peak_rss_mb": rss_mb}
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
        for name in ("wall_s", "setup_s"):
            details[name] = _summary(ref[name])
            details["raw_" + name] = _summary(samples["raw"][name])
        details["speed_kernel"] = samples["kernel"]
    details.update(
        error_rate=run.failed / run.attempted,
        failures=dict(run.failures),
        problems=run.problems[:10],
        environment=environment(),
    )
    print(json.dumps(details))
    print(json.dumps({"correct": not run.problems, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
