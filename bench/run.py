"""epiplan benchmark: time to verdict and search throughput on seeded workloads.

    python3 bench/run.py --workload pcp-search --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Run from anywhere; the package is imported from ``src/`` next to this
directory.  One client runs ops in a closed loop, single-threaded, until
``--seconds`` were spent in ops: each op is taken to a verdict before the
next one starts.  Each verdict is checked against its known answer right
after the op, outside the op's timed interval.

``--trace 0`` prints the end-to-end metrics.  Their times are scaled to a
reference host speed: a fixed pure-Python kernel is timed before the first
op and after every op and set-up sample, and each of those is scaled by the
reference kernel time over the kernel times on its two sides (see
``HostClock``); the times as measured are printed above the result.

``--trace 1`` runs every op twice, untraced and traced, prints the
per-layer metrics, checks that both copies produced the same deterministic
counts, and writes the spans to ``.bench_out/spans-<workload>.csv.gz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import threading
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# Set-up is timed in fresh processes spread over the loop, and the median
# reported.  A single sample jitters by some 15 %, so short set-ups are
# sampled more often: as often as fits in about SETUP_SECONDS, at least
# SETUP_MIN_REPEATS times.
SETUP_SECONDS = 4.0
SETUP_MIN_REPEATS = 9
# The tail is the highest percentile with at least this many samples beyond it.
TAIL_BEYOND = 10
# The host's speed swings by 15-30 % over minutes, and by up to twofold
# within a second.  Before the first timed event of a run and after each
# one, the loop times a fixed reference kernel (median of CALIBRATE_REPS
# runs), and it reports each event's time as it would read on a host where
# one kernel run takes REFERENCE_KERNEL_S.
KERNEL_STEPS = 600
CALIBRATE_REPS = 3
REFERENCE_KERNEL_S = 0.0004
CHILD_TIMEOUT_S = 170


def import_workloads():
    """Import the benchmark's workloads against the epiplan in ``src/``."""
    if not (SRC / "epiplan" / "__init__.py").is_file():
        raise SystemExit(f"error: no epiplan sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import epiplan
    import workloads

    if not Path(epiplan.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: epiplan imported from {epiplan.__file__}, not {SRC}")
    return workloads


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def start_setup(cmd: list[str], stdout) -> tuple[subprocess.Popen, threading.Timer]:
    """A fresh set-up process and the timer that kills it if it hangs.

    Popen.wait(timeout=...) polls in steps of up to 50 ms, which would
    quantize a set-up sample; so the wait has no timeout and a timer kills.
    """
    proc = subprocess.Popen(cmd, stdout=stdout)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    return proc, timer


def end_setup(proc: subprocess.Popen, timer: threading.Timer) -> None:
    try:
        code = proc.wait()
    finally:
        timer.cancel()
    if code != 0:
        raise SystemExit(f"error: set-up process exited with {code}")


def setup_sample(cmd: list[str]) -> float:
    """Set-up time of one fresh process running ``cmd``.

    A sample runs from process start through the import, input generation
    and known answers to the point where the pool is handed over.
    """
    start = perf_counter()
    end_setup(*start_setup(cmd, subprocess.DEVNULL))
    return perf_counter() - start


def load_pool(cmd: list[str]) -> list:
    """The op pool, made by a fresh process running ``cmd``.

    The known answers are worked out there, so that their passing memory
    (the PCP match oracle's queue, above all) stays out of this process's
    ``peak_rss_mb``.
    """
    proc, timer = start_setup(cmd, subprocess.PIPE)
    with proc.stdout:
        try:
            ops = pickle.load(proc.stdout)
        except EOFError:
            ops = None
    end_setup(proc, timer)
    if ops is None:
        raise SystemExit("error: set-up process wrote no pool")
    return ops


@dataclass(frozen=True)
class Record:
    """One op as the loop saw it; the op's result itself is not kept."""

    index: int
    seconds: float
    ok: bool
    counts: tuple
    work: int
    work_seconds: float


def check(workload, op, result) -> bool:
    """Whether an op's result matches its known answer."""
    if isinstance(result, Exception):
        return False
    try:
        return workload.check_op(op, result)
    except Exception:  # a check that raises is a failed op
        traceback.print_exc()
        return False


def run_once(workloads, workload, ops, i: int, tracer=None) -> Record:
    """Op ``i`` of the cycling pool, timed, traced if a tracer is given.

    The op is checked right after it finishes, outside its timed interval
    and with the tracer's wrappers removed, so only its counts are kept.
    """
    op = ops[i % len(ops)]
    with tracer.installed() if tracer is not None else nullcontext():
        root = tracer.begin_op(i, op.variant) if tracer is not None else -1
        start = perf_counter()
        try:
            result = workload.run_op(op)
        except Exception as exc:  # a raising op is a failed op, not a failed run
            result = exc
        elapsed = perf_counter() - start
        if isinstance(result, Exception):
            traceback.print_exception(result)
        if tracer is not None:
            tracer.close(root)
    done = not isinstance(result, Exception)
    return Record(
        i, elapsed, check(workload, op, result), workloads.counts(result),
        result.work if done else 0, result.work_seconds if done else 0.0,
    )


def reference_kernel() -> int:
    """Fixed pure-Python work that shares no code with epiplan.

    Tuples of small integers, frozensets, dict look-ups and integer
    hashing, the operations epiplan's states are made of; nothing in it
    depends on string hashing, so every process does the same work.
    """
    table: dict = {}
    acc = 0
    for i in range(KERNEL_STEPS):
        key = (i & 63, (i * 7) & 31, i % 5)
        block = frozenset(key)
        table[block] = table.get(block, 0) + 1
        acc ^= hash(key) & (i | 1)
    return acc + len(sorted(table.values()))


def kernel_seconds() -> float:
    """Median time of CALIBRATE_REPS runs of the reference kernel."""
    times = []
    for _ in range(CALIBRATE_REPS):
        start = perf_counter()
        reference_kernel()
        times.append(perf_counter() - start)
    return statistics.median(times)


class HostClock:
    """Reference-kernel times taken before and after each timed event.

    An event's time is scaled by REFERENCE_KERNEL_S over the mean of the
    kernel times on its two sides.  The kernel's time follows the host's
    speed swings (on the 2-vCPU machine the benchmark was written on, the
    time of a lemma-check op and that of the kernels around it correlated
    about 0.8 across a minute of swings), so the scaled times keep the
    program's own speed and lose most of the host's.
    """

    def __init__(self) -> None:
        self.points = [kernel_seconds()]

    def mark(self) -> int:
        """Calibrate after an event; returns the event's index."""
        self.points.append(kernel_seconds())
        return len(self.points) - 2

    def factor(self, event: int) -> float:
        return 2 * REFERENCE_KERNEL_S / (self.points[event] + self.points[event + 1])


def drive(workloads, workload, ops, seconds: float, setup_cmd: list[str]):
    """Closed loop over ``ops`` (cycling) until ``seconds`` were spent in ops.

    Set-up is timed in between, at even steps of the time spent in ops, so
    that the samples see the machine in the same states as the ops do; no
    op runs while a set-up process does.  The first sample sets how many
    are taken.  Returns (records, set-up samples, clock); the records and
    samples are as timed, and ``at_reference`` scales them.
    """
    clock = HostClock()
    records: list[tuple[int, Record]] = []
    setup: list[tuple[int, float]] = []

    def sample_setup() -> None:
        seconds = setup_sample(setup_cmd)
        setup.append((clock.mark(), seconds))

    sample_setup()
    repeats = max(SETUP_MIN_REPEATS, math.ceil(SETUP_SECONDS / setup[0][1]))
    busy = 0.0
    while busy < seconds:
        while len(setup) < repeats and busy >= len(setup) * seconds / repeats:
            sample_setup()
        record = run_once(workloads, workload, ops, len(records))
        records.append((clock.mark(), record))
        busy += record.seconds
    while len(setup) < repeats:
        sample_setup()
    return records, setup, clock


def at_reference(records, setup, clock: HostClock) -> tuple[list[Record], list[float]]:
    """The records and set-up samples scaled to the reference host speed."""
    scaled = [
        replace(r, seconds=r.seconds * clock.factor(event), work_seconds=r.work_seconds * clock.factor(event))
        for event, r in records
    ]
    return scaled, [t * clock.factor(event) for event, t in setup]


def drive_traced(workloads, workload, ops, seconds: float, tracer):
    """Each op once untraced and once traced, back to back, in alternating order.

    Running the two copies next to each other keeps the machine's slow
    speed drift out of the overhead estimate.  Returns (untraced, traced).
    """
    plain: list[Record] = []
    traced: list[Record] = []
    busy = 0.0
    while busy < seconds:
        i = len(plain)
        for t in ((None, tracer) if i % 2 == 0 else (tracer, None)):
            record = run_once(workloads, workload, ops, i, t)
            (traced if t is not None else plain).append(record)
            busy += record.seconds
    return plain, traced


def end_to_end(records: list[Record]) -> tuple[dict, str]:
    """The timing metrics and a note on the tail percentile."""
    durations = sorted(r.seconds for r in records)
    n = len(durations)
    work = sum(r.work for r in records)
    work_s = sum(r.work_seconds for r in records)
    if n > TAIL_BEYOND:
        tail = durations[n - TAIL_BEYOND - 1]
        pct = 100.0 * (n - TAIL_BEYOND) / n
    else:
        tail, pct = durations[-1], 100.0
    metrics = {
        "ops_per_s": (n / sum(durations), "1/s"),
        "op_ms_p50": (statistics.median(durations) * 1e3, "ms"),
        "op_ms_tail": (tail * 1e3, "ms"),
        "nodes_per_s": (work / work_s if work_s else 0.0, "1/s"),
    }
    return metrics, f"p{pct:.2f} of {n} ops"


def summarize(records: list[Record]) -> dict:
    verdicts: dict[str, int] = {}
    nodes = dedup = 0
    for c in (r.counts for r in records):
        verdicts[str(c[0])] = verdicts.get(str(c[0]), 0) + 1
        nodes += c[1] if len(c) > 1 else 0
        dedup += c[2] if len(c) > 2 else 0
    return {"ops": len(records), "verdicts": verdicts, "nodes_or_cases": nodes, "dedup_hits": dedup}


def show(metrics: dict, notes: dict | None = None) -> None:
    notes = notes or {}
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<40} {value:>14.6g} {unit}{note}")


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def run_one(args, workloads) -> int:
    workload = workloads.WORKLOAD_TABLE[args.workload]
    if args.setup_only:
        pickle.dump(workload.make_ops(args.seed), sys.stdout.buffer, pickle.HIGHEST_PROTOCOL)
        return 0
    setup_cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                 "--seed", str(args.seed), "--setup-only"]
    ops = load_pool(setup_cmd)
    # The pool is the benchmark's input, alive for the whole run; keep the
    # cyclic collector from re-scanning it, so its pauses come from the
    # program's own objects.
    gc.collect()
    gc.freeze()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("machine " + json.dumps({
        "seed": args.seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
    }))
    print(f"pool: {len(ops)} ops; one op is one problem taken to a verdict; "
          f"nodes_per_s counts {workload.work_unit}s")

    if not args.trace:
        timed, timed_setup, clock = drive(workloads, workload, ops, args.seconds, setup_cmd)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        records, setup = at_reference(timed, timed_setup, clock)
        failed = sum(not r.ok for r in records)
        metrics, tail_note = end_to_end(records)
        metrics["peak_rss_mb"] = (rss_mb, "MB")
        metrics["setup_s"] = (statistics.median(setup), "s")
        as_timed, _ = end_to_end([r for _, r in timed])
        as_timed["setup_s"] = (statistics.median(t for _, t in timed_setup), "s")
        factors = [clock.factor(i) for i in range(len(clock.points) - 1)]
        print(f"host speed: {len(clock.points)} kernel calibrations; scale factor "
              f"median {statistics.median(factors):.4f}, range {min(factors):.4f}-{max(factors):.4f} "
              f"(reference kernel {REFERENCE_KERNEL_S * 1e3:g} ms)")
        print("as timed on this host, before scaling:")
        show(as_timed)
        print(f"set-up samples (s, as timed): {', '.join(f'{t:.4f}' for _, t in timed_setup)}")
        print(f"failed_ops: {failed} of {len(records)} ({100.0 * failed / len(records):.2f} %)")
        print("counts " + json.dumps(summarize(records), sort_keys=True))
        print("at the reference host speed:")
        show(metrics, {"op_ms_tail": tail_note})
        print(result_line(failed == 0, len(records), failed, metrics))
        return 0

    from tracer import Tracer, layer_metrics

    tracer = Tracer()
    plain, traced = drive_traced(workloads, workload, ops, args.seconds, tracer)
    same = [r.counts for r in plain] == [r.counts for r in traced]
    plain_s = sum(r.seconds for r in plain)
    traced_s = sum(r.seconds for r in traced)
    dedup = {r.index: r.counts[2] for r in traced if len(r.counts) == 3}
    metrics = layer_metrics(tracer, dedup)
    metrics["trace.overhead"] = (1.0 - plain_s / traced_s, "ratio")
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}.csv.gz"
    tracer.write(spans_path)
    failed = sum(not r.ok for r in plain + traced)
    attempted = len(plain) + len(traced)
    print(f"{len(plain)} ops, each run untraced and traced: "
          f"deterministic counts {'identical' if same else 'DIFFER'}")
    print("counts untraced " + json.dumps(summarize(plain), sort_keys=True))
    print("counts traced   " + json.dumps(summarize(traced), sort_keys=True))
    print(f"failed_ops: {failed} of {attempted}")
    print(f"spans: {len(tracer)} written to {spans_path.relative_to(ROOT)}")
    show(metrics)
    print(result_line(failed == 0 and same, attempted, failed, metrics))
    return 0


def run_all(args, workloads) -> int:
    """Each workload in its own process, one after the other."""
    combined: dict = {}
    correct, attempted, failed = True, 0, 0
    for name in workloads.WORKLOAD_TABLE:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S * 4)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        last = json.loads(lines[-1])
        correct &= last["correct"]
        attempted += last["attempted"]
        failed += last["failed"]
        for metric, entry in last["metrics"].items():
            combined[f"{name}.{metric}"] = (entry["value"], entry["unit"])
    print(result_line(correct, attempted, failed, combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        help="pcp-search, sat-s5, lemma-check, or all three")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="make the op pool with its known answers, write it pickled "
                             "to standard output and exit")
    args = parser.parse_args(argv)
    workloads = import_workloads()
    if args.workload == "all":
        return run_all(args, workloads)
    if args.workload not in workloads.WORKLOAD_TABLE:
        parser.error(f"unknown workload {args.workload!r}")
    return run_one(args, workloads)


if __name__ == "__main__":
    sys.exit(main())
