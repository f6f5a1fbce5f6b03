"""reusecfg benchmark: end-to-end metrics, or per-layer metrics when traced.

    python3 perfbench/run.py --workload {audit_12k,scaling,pattern_corpus}
                             --seed N --seconds S --trace {0,1}

The workload's inputs are made from the seed, then passes over the workload
run back to back for about S seconds, at least one; each pass is checked
outside the timed region.  Every timed operation runs between two runs of
fixed reference work and its time is reported in reference seconds,
scaled towards a fixed speed of the machine (``calibration.py``): the
speed one process gets on a shared virtual machine drifts by up to half
within minutes, and the scaled time drifts much less.  The unscaled
seconds (``*_raw_s``) and the machine's speed against the reference are
printed too.

With --trace 0, ``wall_s`` is the median over the passes of a pass's timed
operations, each workload-specific time the median over the passes of its
operation, and ``setup_s`` the median over SETUP_BATCHES batches of
set-ups of a batch's time per set-up; a batch repeats the set-up for at
least SETUP_BATCH_S seconds, three batches run at the start and the
others after the first passes.  With --trace 1 untraced and traced
passes alternate; the per-layer metrics come from the traced passes (times
are medians, counts must repeat exactly), and ``trace.overhead`` is the
median traced over the median untraced pass time.

Prints one ``<workload> <metric> <value> <unit>`` line per metric, the
workload-specific ones included, then one JSON object as the last line.
Exit status: 0 when every output check passed, 1 when one failed, 2 when
the reusecfg sources next to the benchmark cannot be imported.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time

import bootstrap
from calibration import Stopwatch

SETUP_BATCH_S = 0.25
SETUP_BATCHES = 7
WORKLOAD_NAMES = ("audit_12k", "scaling", "pattern_corpus")

clock = time.perf_counter


class Tally:
    """Operations attempted and failed, with the first few error messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, errors_per_op) -> None:
        for errors in errors_per_op:
            self.attempted += 1
            if errors:
                self.failed += 1
                self.messages.extend(errors[: 5 - len(self.messages)])


def _more_time(began: float, passes: int, seconds: float) -> bool:
    """Whether another pass, as long as the average one so far, still ends
    within the run's time."""
    elapsed = clock() - began
    return elapsed + elapsed / passes <= seconds


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_run(workload, seed: int, seconds: float, workdir):
    began = clock()
    setups = Stopwatch()
    per_setup, per_setup_raw = [], []

    def set_up():
        count, start = 0, clock()
        while count == 0 or clock() - start < SETUP_BATCH_S:
            inputs = workload.setup(seed, workdir)
            count += 1
        return inputs, count

    def time_set_up():
        gc.collect()
        inputs, count = setups.time("setup", set_up)
        scaled, raw = setups.end_pass()
        per_setup.append(scaled / count)
        per_setup_raw.append(raw / count)
        return inputs

    for _ in range(3):
        inputs = time_set_up()
    tally = Tally()
    watch = Stopwatch()
    walls, raw_walls, rss = [], [], None
    while True:
        gc.collect()
        outputs = workload.run_pass(inputs, watch)
        wall, raw = watch.end_pass()
        walls.append(wall)
        raw_walls.append(raw)
        if rss is None:
            rss = _peak_rss_mb()  # before any check allocates
        tally.add(workload.check(inputs, outputs)[0])
        del outputs
        if len(per_setup) < SETUP_BATCHES:
            time_set_up()  # set-up samples spread over the run
        if not _more_time(began, len(walls), seconds):
            break
    while len(per_setup) < SETUP_BATCHES:
        time_set_up()
    metrics = {
        "setup_s": (statistics.median(per_setup), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    extra = workload.summary(inputs, watch)
    extra["wall_raw_s"] = (statistics.median(raw_walls), "s")
    extra["setup_raw_s"] = (statistics.median(per_setup_raw), "s")
    extra["speed"] = (watch.speed(), "1")
    extra["passes"] = (len(walls), "count")
    extra["fail_ratio"] = (tally.failed / tally.attempted, "1")
    return metrics, extra, tally


def traced_run(workload, seed: int, seconds: float, workdir):
    import tracing

    began = clock()
    setup_tracer = tracing.Tracer(tracing.SETUP_TARGETS)
    with setup_tracer:
        inputs = workload.setup(seed, workdir)
    tally = Tally()
    plain, traced = Stopwatch(), Stopwatch()
    plain_walls, traced_walls, layer_runs = [], [], []
    while True:
        gc.collect()
        outputs = workload.run_pass(inputs, plain)
        plain_walls.append(plain.end_pass()[0])
        errors, expected = workload.check(inputs, outputs)
        tally.add(errors)
        del outputs

        gc.collect()
        tracer = tracing.Tracer(tracing.PASS_TARGETS)
        with tracer:
            outputs = workload.run_pass(inputs, traced)
        traced_walls.append(traced.end_pass()[0])
        errors, got = workload.check(inputs, outputs)
        del outputs
        tally.add(errors)
        tally.add([[] if got == expected else ["traced pass output differs from untraced pass"]])
        layer_runs.append(tracer.metrics(tracing.PASS_METRICS))
        del tracer
        if not _more_time(began, len(traced_walls), seconds):
            break

    metrics = {}
    for name, unit in tracing.PASS_METRICS:
        values = [run[name] for run in layer_runs]
        if unit == "s":
            metrics[name] = (statistics.median(values), unit)
        else:
            metrics[name] = (values[0], unit)
            tally.add([[] if len(set(values)) == 1 else [f"{name} differs between traced passes: {values}"]])
    for name, value in setup_tracer.metrics(tracing.SETUP_METRICS).items():
        metrics[name] = (value, "s")
    metrics["trace.overhead"] = (statistics.median(traced_walls) / statistics.median(plain_walls), "1")
    extra = {
        "fail_ratio": (tally.failed / tally.attempted, "1"),
        "passes": (len(traced_walls), "count"),
    }
    return metrics, extra, tally


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="reusecfg benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        bootstrap.import_program()
    except bootstrap.ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    workdir = bootstrap.ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        run = traced_run if args.trace else timed_run
        metrics, extra, tally = run(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    for message in tally.messages:
        print(f"check failed: {message}", file=sys.stderr)
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
