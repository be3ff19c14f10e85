"""Benchmark for treepark: one command, four workloads, checked outputs.

    python3 perfbench/run.py --workload census|bijection|series|cli|all
                             [--seed N] [--trace 0|1]

Run from the root of a checkout; the package is imported from ``src``.
Each workload runs in a fresh child process, one operation at a time.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.

``--trace 0`` reports the end-to-end metrics.  A run makes one pass over
the workload's fixed operation list; only the census calls some operations
several times in a row, and their time is the median of those calls.  A
call's time is the CPU time it used, summed over its threads and its child
processes, scaled by :class:`SpeedProbe`.  ``wall_s`` sums the operations'
times over the list, ``op_p50_ms`` is their median, ``setup_s`` is the main thread's CPU time
from the child's start to the end of ``import treepark`` and input
building, scaled by the probe's readings around it, and ``peak_rss_mb`` the
workload process's peak resident memory (for ``cli``, the largest CLI
child).  Output checks run after the timed phase.

``--trace 1`` runs the workload twice in fresh children: untraced, then with
every public ``treepark`` function wrapped by :mod:`tracer`.  It reports the
per-layer metrics of the traced child, ``trace.overhead_s``, the difference
of their ``wall_s``, and ``clock.wall_s``, the untraced child's wall clock
over its operations.  Spans and each child's full report are written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import itertools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
CHILD_TIMEOUT_S = 170
WORKLOAD_NAMES = ("census", "bijection", "series", "cli")
# SpeedProbe's reading on the reference machine in its usual (slower) state.
PROBE_NOMINAL_S = 0.004

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}


# ---------------------------------------------------------------------------
# child: one workload in one fresh process
# ---------------------------------------------------------------------------


def import_package():
    """Import treepark from this checkout's ``src``, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import treepark

    if not Path(treepark.__file__).resolve().is_relative_to(src):
        raise ImportError(f"treepark came from {treepark.__file__}, not from {src}")
    return treepark


def cpu_clock() -> float:
    """CPU seconds used by this process (all its threads) and by its children
    reaped so far."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class SpeedProbe:
    """The machine's speed, read between operations and during long ones.

    On a shared host the CPU seconds that one piece of work takes change by
    up to 40 % within minutes, as the host runs other tenants beside it.  A
    reading is the CPU time, on its own thread, of a fixed loop that
    allocates nothing (only small cached ints), so nothing in the workload's
    heap, and no other thread, can change it.  The main thread takes a
    reading between calls whenever ``EVERY_S`` of timed CPU has passed, and a
    helper thread takes one every ``DURING_S`` of wall clock, so that a call
    of many seconds has readings from inside it.  Each call's time is divided
    by the mean of the readings from just before it to just after it, over
    ``PROBE_NOMINAL_S``: it reads as CPU seconds on this machine at the speed
    where the loop takes ``PROBE_NOMINAL_S``.  The helper's loops run under
    :attr:`lock`, and their CPU time, kept in :attr:`spent`, is taken out of
    the call's.
    """

    LOOPS = 50_000
    EVERY_S = 0.05  # CPU seconds of timed calls between readings on the main thread
    DURING_S = 0.5  # wall seconds between readings on the helper thread
    SAMPLE = 5  # loops whose median is one reading of the set-up's speed

    def __init__(self) -> None:
        self.readings: list[tuple[int, float]] = []  # (calls timed before it, seconds)
        self.position = 0  # calls timed so far
        self.spent = 0.0  # CPU seconds of every loop taken
        self.lock = threading.RLock()
        self._stop = threading.Event()
        self._helper = threading.Thread(target=self._sample_during, daemon=True)
        self._loop()  # the first run of the loop in a process can read slow

    def _loop(self) -> float:
        with self.lock:
            start = time.thread_time()
            x = 1
            for _ in itertools.repeat(None, self.LOOPS):
                x = (x * 5 + 3) & 255
            took = time.thread_time() - start
            self.spent += took
            return took

    def sample(self) -> float:
        """The median of a few loops, for the speed around the set-up."""
        return statistics.median(self._loop() for _ in range(self.SAMPLE))

    def read(self) -> None:
        with self.lock:  # a reading's position and place in the list agree
            self.readings.append((self.position, self._loop()))

    def _sample_during(self) -> None:
        while not self._stop.wait(self.DURING_S):
            self.read()

    def start(self) -> None:
        self._helper.start()

    def stop(self) -> None:
        self._stop.set()
        self._helper.join()

    def scale(self, log: list[tuple[str, float]]) -> dict[str, list[float]]:
        """Scaled times of the logged calls, by label."""
        positions = [position for position, _ in self.readings]
        out: dict[str, list[float]] = {}
        for j, (label, spent) in enumerate(log):
            lo, hi = bisect.bisect_left(positions, j), bisect.bisect_right(positions, j)
            # Readings taken before or during call j, and the first one after
            # it; without a reading at j, the last one before it.
            around = self.readings[lo : hi + 1] if hi > lo else self.readings[lo - 1 : lo + 1]
            speed = statistics.fmean(seconds for _, seconds in around) / PROBE_NOMINAL_S
            out.setdefault(label, []).append(spent / speed)
        return out


def run_ops(workload, ops, probe: SpeedProbe, repeat: bool, tracer=None):
    """The fixed operation list, once; with ``repeat``, each operation is
    called ``op.repeat`` times in a row.  gc, main-thread probe readings and
    argument preparation happen between timed calls, each timed on
    :func:`cpu_clock`, less the probe's loops inside it, and on the wall
    clock.  Returns the results, the operations' scaled and unscaled CPU
    times (the median of their calls) by label, the failed labels, the
    numbers of calls made and failed, the traced span marks, and the wall
    clock summed over the calls."""
    results, failed, marks, log = {}, set(), {}, []
    workload.results = results
    crashed = getattr(workload, "crashed", lambda out: False)
    probe.read()
    probe.start()
    since = clock = 0.0
    calls = bad_calls = 0
    for op in ops:
        count = op.repeat if repeat else 1
        calls += count
        try:
            args = op.prepare()
        except Exception:  # an input that depended on an op that failed
            failed.add(op.label)
            bad_calls += count
            continue
        first = tracer.span_count() if tracer else 0
        for _ in range(count):
            # A repeated call gets a reading of its own, so that its median
            # is not scaled by one pair of readings.
            if since >= probe.EVERY_S or count > 1:
                probe.read()
                since = 0.0
            gc.collect()
            gc.freeze()  # the next collection scans only what this call makes
            started = time.perf_counter()
            with probe.lock:
                start, probed = cpu_clock(), probe.spent
            try:
                out = op.call(*args)
            except Exception as exc:
                out = exc
            with probe.lock:
                spent = cpu_clock() - start - (probe.spent - probed)
                probe.position += 1
            clock += time.perf_counter() - started
            since += spent
            if isinstance(out, Exception) or crashed(out):
                failed.add(op.label)
                bad_calls += 1
            log.append((op.label, spent))
            results[op.label] = out
        if tracer:
            marks[op.label] = (first, tracer.span_count())
    probe.stop()
    probe.read()
    raw: dict[str, list[float]] = {}
    for label, spent in log:
        raw.setdefault(label, []).append(spent)

    def medians(times):
        return {label: statistics.median(spent) for label, spent in times.items()}

    return results, medians(probe.scale(log)), medians(raw), failed, (calls, bad_calls), marks, clock


def peak_rss_mb(workload_name: str) -> float:
    # The cli workload's own process only waits; its cost is the children's.
    who = resource.RUSAGE_CHILDREN if workload_name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


def layer_metrics(tracer, workload, marks) -> dict[str, float]:
    """The per-layer figures of one traced run."""
    calls, items = tracer.calls, tracer.items
    own = tracer.self_times()
    maps = calls["bijections.pair_to_prime"] + calls["bijections.prime_to_pair"]
    checks = calls["series.check_identity"]
    m = {
        "trees.self_s": own["trees"],
        "trees.enumerate_rooted_trees.items": items["trees.enumerate_rooted_trees"],
        "trees.shape_to_parents.calls": calls["trees.shape_to_parents"],
        "parking.self_s": own["parking"],
        "parking.run_parking.calls": calls["parking.run_parking"],
        "parking.drivers_simulated": tracer.drivers,
        "parking.is_prime.calls": calls["parking.is_prime"],
        "bijections.self_s": own["bijections"],
        "bijections.standardize.s": tracer.inclusive({"bijections.standardize"}),
        "bijections.encode_prime.s": tracer.inclusive({"bijections.encode_prime"}),
        "bijections.decode_prime.s": tracer.inclusive({"bijections.decode_prime"}),
        "bijections.decompose.calls": calls["bijections.decompose"],
        "bijections.check_standard_prime.calls": calls["bijections.check_standard_prime"],
        "bijections.simulations_per_map": calls["parking.run_parking"] / maps if maps else 0.0,
        "bijections.encode_path_exponent": 0.0,
        "bijections.decode_path_exponent": 0.0,
        "series.self_s": own["series"],
        "series.mul.calls": calls["series.mul"],
        "series.exp.calls": calls["series.exp"],
        "series.compose.calls": calls["series.compose"],
        "series.ode_solves": calls["series.distribution_ode_iterations"],
        "series.ode_rounds": items["series.distribution_ode_iterations"],
        "series.ode_solves_per_check": (
            calls["series.distribution_ode_iterations"] / checks if checks else 0.0
        ),
        "census.self_s": own["census"],
        "census.census_counts.s": tracer.inclusive({"census.census_counts"}),
        "census.suites.s": tracer.inclusive(
            {"census.roundtrip_suite", "census.theorem53_suite", "census.path_image_suite"}
        ),
        "cli.self_s": own["cli"],
    }
    exponents = getattr(workload, "exponent_ops", dict)()
    for metric, (span, small, large) in exponents.items():
        timed = [
            sum(tracer.inclusive({span}, *marks[label]) for label in labels)
            for labels in (small, large)
        ]
        m[metric] = math.log2(timed[1] / timed[0])
    return m


def import_costs(runs: int = 5) -> dict[str, float]:
    """``import treepark`` in fresh interpreters, and numpy's share of it
    from ``-X importtime``; medians over ``runs`` interpreters each."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    timer = "import time; t = time.perf_counter(); import treepark; print(time.perf_counter() - t)"
    totals, numpy = [], []
    for _ in range(runs):
        done = subprocess.run(
            [sys.executable, "-c", timer], env=env, capture_output=True, text=True, timeout=60, check=True
        )
        totals.append(float(done.stdout))
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import treepark"],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        for line in done.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() == "numpy":
                numpy.append(int(fields[1]) / 1e6)
                break
        else:
            numpy.append(0.0)
    return {"cli.import_s": statistics.median(totals), "cli.numpy_import_s": statistics.median(numpy)}


def child(args) -> int:
    # Set-up is the main thread's CPU time from the process's start, less
    # the probe's own loops, scaled by readings just before and after it.
    started = time.thread_time()
    probe = SpeedProbe()
    before = probe.sample()
    probe_cpu = time.thread_time() - started
    sys.path.insert(0, str(HERE))
    tp = import_package()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](tp, args.seed, ROOT, inprocess=args.mode != "measure")
    ops = workload.operations()
    setup_cpu = time.thread_time() - probe_cpu
    setup_clock_s = time.perf_counter() - args.t0
    after = probe.sample()
    setup_s = setup_cpu / ((before + after) / 2 / PROBE_NOMINAL_S)

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    results, times, raw, failed, (calls, bad_calls), marks, clock = run_ops(
        workload, ops, probe, args.mode == "measure", tracer
    )
    rss = peak_rss_mb(args.workload)
    if tracer:
        tracer.uninstall()

    problems = workload.check(results, failed)
    report = {
        "correct": not problems,
        "problems": problems[:20],
        "attempted": calls,
        "failed": bad_calls,
        "wall_s": sum(times.values()),
        "op_p50_ms": 1000 * statistics.median(times.values()),
        "setup_s": setup_s,
        "peak_rss_mb": rss,
        # For comparison only: unscaled CPU seconds, the probe's readings, and
        # wall-clock readings, which include time given to other tenants.
        "unscaled": {
            "wall_s": sum(raw.values()),
            "op_p50_ms": 1000 * statistics.median(raw.values()),
            "setup_s": setup_cpu,
        },
        "probe_ms": [1000 * seconds for _, seconds in probe.readings],
        "clock": {"setup_s": setup_clock_s, "wall_s": clock},
        "times": times,
        "cpu_times": raw,
    }
    if tracer:
        report["layers"] = layer_metrics(tracer, workload, marks)
        report["layers"].update(import_costs())
        counted = {
            "trees.enumerate_rooted_trees.items": tracer.items["trees.enumerate_rooted_trees"],
            **{f"{name}.calls": n for name, n in tracer.calls.items()},
        }
        for name, want in workload.fixed_counts().items():
            if counted.get(name, 0) != want:
                report["correct"] = False
                report["problems"].append(f"traced count {name} = {counted.get(name, 0)}, method fixes {want}")
        report["spans"] = tracer.span_count()
        tracer.dump(OUT / f"trace-{args.workload}-{args.seed}.jsonl")
    print(json.dumps(report))
    return 0


# ---------------------------------------------------------------------------
# parent: spawn, collect, report
# ---------------------------------------------------------------------------


def spawn(workload: str, seed: int, mode: str) -> dict:
    argv = [
        sys.executable, str(Path(__file__).resolve()), "--child", "--workload", workload,
        "--seed", str(seed), "--mode", mode,
    ]
    t0 = time.perf_counter()  # CLOCK_MONOTONIC: comparable across processes
    proc = subprocess.Popen(
        argv + ["--t0", repr(t0)], cwd=ROOT, stdout=subprocess.PIPE, text=True
    )
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{workload} ({mode}) ran past {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0 or not out.strip():
        raise RuntimeError(f"{workload} ({mode}) exited with {proc.returncode}")
    report = json.loads(out.strip().splitlines()[-1])
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"run-{workload}-{seed}-{mode}.json").write_text(json.dumps(report))
    return report


def measure(workload: str, seed: int, trace: bool) -> dict:
    if not trace:
        run = spawn(workload, seed, "measure")
        metrics = {name: (run[name], unit) for name, unit in END_TO_END_UNITS.items()}
        return {**run, "metrics": metrics}
    base = spawn(workload, seed, "baseline")
    run = spawn(workload, seed, "trace")
    layers = dict(run["layers"])
    layers["trace.overhead_s"] = run["wall_s"] - base["wall_s"]
    layers["clock.wall_s"] = base["clock"]["wall_s"]
    metrics = {name: (value, layer_unit(name)) for name, value in layers.items()}
    return {
        **run,
        "correct": run["correct"] and base["correct"],
        "problems": base["problems"] + run["problems"],
        "metrics": metrics,
    }


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_exponent"):
        return "exponent"
    if name.endswith("_per_map") or name.endswith("_per_check"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=1,
        help="accepted for the common benchmark interface and not used: a run "
        "is always one pass over the workload's fixed operation list, which "
        "takes longer than BENCHMARK.json's run_seconds",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--mode", choices=("measure", "baseline", "trace"), help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child(args)

    if not (ROOT / "src" / "treepark" / "__init__.py").is_file():
        print(f"error: no treepark sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            run = measure(name, args.seed, bool(args.trace))
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        for problem in run["problems"]:
            print(f"{name}: CHECK FAILED: {problem}", file=sys.stderr)
        print(
            f"{name}: correct={run['correct']} attempted={run['attempted']} "
            f"failed={run['failed']}\n  unscaled cpu: "
            + " ".join(f"{k} {v:.4f}" for k, v in run["unscaled"].items())
            + f"; probe {statistics.median(run['probe_ms']):.3f} ms (median of "
            f"{len(run['probe_ms'])}); wall clock: set-up {run['clock']['setup_s']:.3f} s, "
            f"operations {run['clock']['wall_s']:.3f} s"
        )
        for metric, (value, unit) in run["metrics"].items():
            print(f"  {metric:40s} {value:14.6f} {unit}")
        prefix = "" if len(names) == 1 else f"{name}/"
        summary["correct"] = summary["correct"] and run["correct"]
        summary["attempted"] += run["attempted"]
        summary["failed"] += run["failed"]
        for metric, (value, unit) in run["metrics"].items():
            summary["metrics"][prefix + metric] = {"value": value, "unit": unit}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
