"""spinent benchmark: one workload per run, or all four in turn.

    python3 bench/run.py --workload analyze-small --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 5 [--holdout-seed 2]

A run is single-process and closed-loop with one client: it times each call
into spinent, checks its output outside the timed region, and repeats whole
cycles of the workload until --seconds of wall time have passed.  The cycles
are passes over a fixed pool made from the seed, and the run always ends its
first pass; `attempted` and `failed` count the items of that first pass, so
the same seed reports the same counts however fast the machine.  The last
line of stdout is the result as JSON; the line before it records the
environment and the counts behind each figure.  With --trace 0 the metrics
are the end-to-end ones of BENCHMARK.json; with --trace 1 they are the
per-layer ones: each cycle runs untraced, then again traced.

spinent is imported from src/ of the checkout that holds this file, never
from an installed copy; without those sources the run fails before printing
a result.  Definitions and the reasons behind them are in bench/NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("analyze-small", "analyze-large", "cli", "oracle-check")
# Set-up is measured this many times per run, once in the run's own process
# and otherwise in fresh interpreters spread over the run; the median is
# reported.
SETUP_SAMPLES = 20
# On these workloads every call's time is scaled to the speed of the run's
# fastest cycles, the one at SPEED_QUANTILE of the cycles ordered by busy
# time.  The host's speed switches between two states ~1.6x apart, and the
# pooled median of these near-equal calls would land in either.  The other
# two workloads run too few cycles for a steady reference; their times stay
# as measured.  See bench/NOTES.md, "Host noise".
SPEED_NORMALISED = ("analyze-small", "analyze-large")
SPEED_QUANTILE = 0.02

# A closed loop with one client: BLAS must not start its own threads.  On a
# 2-CPU box the threaded path made a single N=1e4 analyze ~20x slower and
# highly variable.  SPINENT_PRECISION is read by csv_row on every row; the
# benchmark measures the default.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
_PRECISION_WAS_SET = os.environ.pop("SPINENT_PRECISION", None) is not None


def _fail(message: str):
    print(f"bench: error: {message}", file=sys.stderr)
    sys.exit(2)


def _import_spinent():
    if not (SRC / "spinent" / "__init__.py").is_file():
        _fail(f"no spinent sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import spinent
    if SRC not in Path(spinent.__file__).resolve().parents:
        _fail(f"imported spinent from {spinent.__file__}, not from {SRC}")
    return spinent


def setup(workload: str, seed: int, workdir: str) -> float:
    """Import spinent and run the workload's warm-up calls.

    Returns the seconds spent importing and warming up; generating the
    warm-up inputs is not counted.  Warm-up failures are ignored: the
    timed items report them.
    """
    start = perf_counter()
    _import_spinent()
    elapsed = perf_counter() - start
    import numpy as np
    import workloads
    items = workloads.WORKLOADS[workload].warmup(
        np.random.default_rng([seed, 1]), workdir)
    start = perf_counter()
    for item in items:
        try:
            item.run()
        except Exception:
            pass
    return elapsed + perf_counter() - start


def _setup_probe(workload: str, seed: int) -> float:
    """setup() in a fresh interpreter; waits for it to end."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         workload, "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


class Cycle:
    """Outcome of one cycle of a workload."""

    def __init__(self):
        self.times: list[float] = []       # one per call, failed calls too
        self.attempted = self.failed = self.wrong = 0
        self.outcomes: list[bool] = []     # per call: did it fail?
        self.counted = False               # in the run's first pass?
        self.sweep_rows = 0
        self.sweep_time = 0.0

    @property
    def busy(self) -> float:
        return sum(self.times)


class Loop:
    """Outcome of running whole cycles of one workload."""

    def __init__(self):
        self.cycles: list[Cycle] = []
        self.messages: list[str] = []
        # Outcomes of the first pass, one list per cycle of the pool.
        self.first_pass: list[list[bool]] = []

    def total(self, field: str, counted_only: bool = False):
        return sum(getattr(c, field) for c in self.cycles
                   if c.counted or not counted_only)

    def add(self, cycle: Cycle, index: int):
        """Keep a cycle, the `index`-th of the pool.

        The first pass sets which calls fail; a later pass over the same
        inputs that fails on other calls is a wrong output.
        """
        if index == len(self.first_pass):
            cycle.counted = True
            self.first_pass.append(cycle.outcomes)
        elif cycle.outcomes != self.first_pass[index]:
            cycle.wrong += 1
            self.note(f"cycle {index} failed on other calls than in the "
                      "first pass")
        self.cycles.append(cycle)

    def note(self, message: str):
        if len(self.messages) < 5:
            self.messages.append(message)


class _Raised(str):
    """Outcome of a timed call that raised; `known` if a known defect."""

    known = False


def run_cycle(items, loop: Loop, tracer=None, index: int = 0) -> Cycle:
    """Time every item of one cycle back to back, then check the outputs.

    A call that raises one of the program's known defects, on an input that
    may hit it, is a failed item.  A call that raises anything else, or
    whose output fails its check, is a failed item and a wrong output.
    `index` is the cycle's place in the pool.
    """
    from workloads import WrongOutput
    cycle = Cycle()
    outputs = []
    for item in items:
        call = item.run if tracer is None else (
            lambda run=item.run: tracer.root(run))
        t0 = perf_counter()
        try:
            output = call()
        except Exception as exc:
            # Keep only the message: the exception's traceback would hold
            # this frame, and with it the cycle's inputs, until a full GC.
            output = _Raised(f"{type(exc).__name__}: {str(exc)[:120]}")
            output.known = item.is_known_defect(exc)
        cycle.times.append(perf_counter() - t0)
        outputs.append(output)
    for item, output, elapsed in zip(items, outputs, cycle.times):
        cycle.attempted += item.weight
        rows = 0
        failed = isinstance(output, _Raised)
        if failed:
            if not output.known:
                cycle.wrong += item.weight
                loop.note(f"raised {output}")
        else:
            try:
                rows = item.check(output) or 0
            except WrongOutput as exc:
                failed = True
                cycle.wrong += item.weight
                loop.note(f"wrong: {exc}")
        if failed:
            cycle.failed += item.weight
        cycle.outcomes.append(failed)
        if item.sweep:
            cycle.sweep_rows += rows
            cycle.sweep_time += elapsed
    loop.add(cycle, index)
    return cycle


def pool_cycles(workload, seed: int, workdir: str):
    """(index, items) of the run's cycles, without end.

    Each pass remakes the same `workload.pool` cycles from the seed, as new
    objects; a run's first pass is thus the same whatever its length.
    """
    import numpy as np
    while True:
        rng = np.random.default_rng(seed)
        for index in range(workload.pool):
            yield index, workload.cycle(rng, workdir)


def run_loop(workload, seed: int, workdir: str, seconds: float,
             probe=None, probes: int = 0) -> tuple[Loop, list[float]]:
    """Run whole cycles for `seconds` of wall time, probing set-up on the way.

    The run goes on past `seconds` until its first pass over the pool is
    complete.  `probes` calls of `probe` are spread evenly over the run,
    between cycles; the time they take is added to the run, not taken from
    it.
    """
    loop = Loop()
    samples: list[float] = []
    start = perf_counter()
    deadline = start + seconds
    for index, items in pool_cycles(workload, seed, workdir):
        if (perf_counter() >= deadline
                and len(loop.first_pass) == workload.pool):
            break
        run_cycle(items, loop, index=index)
        # Free this cycle's inputs before the next cycle's are made, so
        # that peak_rss_mb holds one cycle of them, not two.
        del items
        measured = seconds - (deadline - perf_counter())
        if len(samples) < probes and measured >= (
                len(samples) + 0.5) * seconds / probes:
            t0 = perf_counter()
            samples.append(probe())
            deadline += perf_counter() - t0
    while len(samples) < probes:
        samples.append(probe())
    return loop, samples


def call_times(loop: Loop, normalised: bool) -> list[float]:
    """Every call's time, scaled to the fastest cycles' speed if normalised.

    Every cycle holds the same mix of calls, so its busy time tracks the
    speed of the machine while it ran.
    """
    if not normalised:
        return [t for cycle in loop.cycles for t in cycle.times]
    busy = sorted(cycle.busy for cycle in loop.cycles)
    reference = busy[int(SPEED_QUANTILE * (len(busy) - 1))]
    return [t * reference / cycle.busy for cycle in loop.cycles
            for t in cycle.times]


def _percentile(ordered: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1], len(ordered) - int(rank)


def end_to_end(loop: Loop, setup_samples: list[float], normalised: bool
               ) -> tuple[dict, dict]:
    ordered = sorted(call_times(loop, normalised))
    busy = sum(ordered)
    p90, _ = _percentile(ordered, 90)
    p99, beyond_p99 = _percentile(ordered, 99)
    metrics = {
        "items_per_s": ((loop.total("attempted") - loop.total("failed"))
                        / busy, "1/s"),
        "call_p50_ms": (statistics.median(ordered) * 1e3, "ms"),
        "call_p90_ms": (p90 * 1e3, "ms"),
        "call_p99_ms": (p99 * 1e3, "ms"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    counts = {"cycles": len(loop.cycles), "pool": len(loop.first_pass),
              "calls": len(ordered),
              "beyond_p99": beyond_p99, "busy_s": loop.total("busy"),
              "speed_normalised": normalised,
              "setup_samples_s": setup_samples}
    sweep_time = loop.total("sweep_time")
    if sweep_time:
        counts["sweep_rows_per_s"] = loop.total("sweep_rows") / sweep_time
    return metrics, counts


def per_layer(workload, seed: int, seconds: float, workdir: str
              ) -> tuple[dict, Loop, dict]:
    """Each cycle runs untraced, then again traced on the same inputs.

    Pairing the two passes cycle by cycle keeps drift in machine speed out
    of the tracing overhead.  As in run_loop, the run ends its first pass
    over the pool.
    """
    import numpy as np

    import tracing
    untraced, traced = Loop(), Loop()
    tracer = tracing.Tracer()
    deadline = perf_counter() + seconds
    for index, items in pool_cycles(workload, seed, workdir):
        if (perf_counter() >= deadline
                and len(untraced.first_pass) == workload.pool):
            break
        plain = run_cycle(items, untraced, index=index)
        tracer.install()
        try:
            cycle = run_cycle(items, traced, tracer, index)
        finally:
            tracer.restore()
        if cycle.outcomes != plain.outcomes:
            cycle.wrong += 1
            traced.note(f"cycle {index} failed on other calls when traced")
        del items
    layer = tracing.reduce_spans(tracer.spans, traced.total("attempted"))
    layer["trace.overhead_frac"] = (traced.total("busy")
                                    / untraced.total("busy") - 1)
    sweep_time = untraced.total("sweep_time")
    layer["cli.sweep_rows_per_s"] = (untraced.total("sweep_rows") / sweep_time
                                     if sweep_time else 0.0)
    layer["oracle.peak_alloc_mb"] = (
        _oracle_peak_alloc(workload.cycle(np.random.default_rng(seed),
                                          workdir)) / 2**20
        if layer["oracle.metrics_ms"] else 0.0)
    counts = {"traced_items": traced.total("attempted"),
              "cycles": len(traced.cycles), "spans": len(tracer.spans),
              "wrong_when_traced": traced.total("wrong")}
    untraced.messages += traced.messages
    return layer, untraced, counts


def _oracle_peak_alloc(items) -> float:
    """Largest tracemalloc peak inside one oracle_metrics call, in bytes.

    A pass of its own: tracemalloc slows every allocation, so it stays out
    of the timed passes.
    """
    import tracemalloc

    import spinent.cli as cli
    original = cli.oracle_metrics
    peak = 0

    def measured(*args, **kwargs):
        nonlocal peak
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            return original(*args, **kwargs)
        finally:
            peak = max(peak, tracemalloc.get_traced_memory()[1] - before)

    cli.oracle_metrics = measured
    tracemalloc.start()
    try:
        run_cycle(items, Loop())
    finally:
        tracemalloc.stop()
        cli.oracle_metrics = original
    return peak


def _environment() -> dict:
    import numpy
    return {"python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "loadavg": list(os.getloadavg()),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "spinent_precision": "removed" if _PRECISION_WAS_SET else "unset"}


def _units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    workdir = tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT)
    try:
        setup_s = setup(name, seed, workdir)
        import workloads
        workload = workloads.WORKLOADS[name]
        if traced:
            values, loop, counts = per_layer(workload, seed, seconds, workdir)
            units = _units()
            metrics = {key: (value, units[key])
                       for key, value in values.items()}
        else:
            loop, probed = run_loop(
                workload, seed, workdir, seconds,
                probe=lambda: _setup_probe(name, seed),
                probes=SETUP_SAMPLES - 1)
            metrics, counts = end_to_end(loop, [setup_s] + probed,
                                         name in SPEED_NORMALISED)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = loop.total("attempted", counted_only=True)
    failed = loop.total("failed", counted_only=True)
    wrong = loop.total("wrong") + counts.get("wrong_when_traced", 0)
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(traced), "attempted": attempted,
              "failed": failed, "wrong": wrong,
              "error_rate": failed / attempted,
              "messages": loop.messages[:5], **counts, **_environment()}
    return {
        "record": record,
        "result": {
            "correct": wrong == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {key: {"value": value, "unit": unit}
                        for key, (value, unit) in metrics.items()},
        },
    }


def run_all(seeds: list[int], seconds: float, traced: bool) -> dict:
    """Every workload in its own fresh interpreter, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for seed in seeds:
        for name in WORKLOADS:
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", name, "--seed", str(seed), "--seconds",
                 str(seconds), "--trace", str(int(traced))],
                capture_output=True, text=True, timeout=900)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                _fail(f"workload {name} exited {done.returncode}")
            lines = done.stdout.strip().splitlines()
            record, result = json.loads(lines[-2]), json.loads(lines[-1])
            print(f"\n{name} (seed {seed}): {result['attempted']} items, "
                  f"{result['failed']} failed, correct {result['correct']}")
            shown = dict(result["metrics"])
            shown["error_rate"] = {"value": record["error_rate"], "unit": "1"}
            if "sweep_rows_per_s" in record:
                shown["sweep_rows_per_s"] = {
                    "value": record["sweep_rows_per_s"], "unit": "rows/s"}
            for key, metric in shown.items():
                print(f"  {key:<32s} {metric['value']:>14.6g} "
                      f"{metric['unit']}")
                combined["metrics"][f"{name}/{seed}/{key}"] = metric
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
    return combined


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--holdout-seed", type=int,
                        help="with --workload all: repeat on this seed")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.setup_probe:
        workdir = tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT)
        try:
            print(json.dumps({"setup_s": setup(args.workload, args.seed,
                                               workdir)}))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    if args.workload == "all":
        seeds = [args.seed] + ([args.holdout_seed]
                               if args.holdout_seed is not None else [])
        out = run_all(seeds, args.seconds, bool(args.trace))
    else:
        done = run_workload(args.workload, args.seed, args.seconds,
                            bool(args.trace))
        print(json.dumps(done["record"]))
        out = done["result"]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
