"""eulerstab benchmark.

    python3 perfbench/run.py --workload {weak-sweep,oracle,cli-batch}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the program is imported from src/.  The
load model is a closed loop with one client: one operation at a time, and
in cli-batch at most one child process at a time.  A pass runs the
workload's whole operation list; passes repeat while another fits in
--seconds (at least one runs).

--trace 0 prints the end-to-end metrics.  Each operation's latency is its
mean over the run's passes.  wall_s is the sum of those latencies (the mean
pass time), op_ms.p50 and op_ms.p90 are percentiles over the
operations, setup_s is the median of the set-ups (this process's own, plus
one in a fresh process after each pass) and peak_rss_mb is the peak resident
memory of this process, or in cli-batch of its largest timed child.  Times
are given at the reference host's speed: a fixed calibration kernel runs
between operations, and each time is multiplied by CAL_REF_S over the
kernel's mean time in the run (see `calibrate`).  The raw latencies and the
kernel's times go to the result file in perfbench/out/.

--trace 1 runs set-up with every layer wrapped (see tracing.py), one untraced
pass, one traced pass, then untraced passes for the rest of --seconds, and
prints the per-layer metrics.  trace.overhead_frac is the traced pass time
over the median of the untraced passes next to it (the one before and the two
after), minus 1, each pass at the reference speed by the kernel's times
within it.  The spans are written to perfbench/out/.  Each metric's unit is
the one BENCHMARK.json gives it.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the line before it records the environment.  Seed 1 is
the default and seed 2 the alternate; the operation count never depends on
the seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter
from typing import Callable, List, Optional

from tracing import Tracer, layer_metrics, write_records
from workloads import OUT_DIR, ROOT, SRC, WORKLOADS, Op, child_env

DEFAULT_SEED = 1
NOISE_NOTE = (
    "on a shared 2-vCPU Xeon VM host speed flips by up to 2x within seconds and "
    "drifts by +-20% over minutes; CPU time tracks wall time within 2%, so the "
    "noise is host speed, not scheduling, and times are scaled to the reference "
    "speed by the calibration kernel"
)


def _passes(op: Op, out) -> bool:
    if isinstance(out, Exception):  # the operation raised
        return False
    try:
        return bool(op.check(out, op.expected))
    except Exception:  # a malformed output is a failed operation, not a crash
        return False


# Host speed on this shared machine flips between fast and slow states within
# seconds and drifts by +-20% over minutes; no average within one run removes
# the drift.  So a fixed calibration kernel runs between operations, about
# every CAL_EVERY_S seconds, and every time is converted to a host on which
# the kernel takes CAL_REF_S (the reference host, a shared 2-vCPU Xeon VM),
# taking the kernel's mean time over the same stretch as this host's speed.
CAL_REF_S = 0.03
CAL_EVERY_S = 0.25
_CAL_POLY = tuple((-1) ** i * (i * i + 3 * i + 1) ** 3 for i in range(33))
_CAL_POINTS = tuple(Fraction(p, q) for q in range(1, 9) for p in range(-12, 13))


def calibrate() -> float:
    """Time the kernel: Horner evaluation of an integer polynomial at
    rationals, the arithmetic eulerstab spends its time on.  The kernel does
    not depend on the program, so its time tracks only the host's speed."""
    t0 = perf_counter()
    total = Fraction(0)
    for x in _CAL_POINTS:
        acc = 0
        for c in _CAL_POLY:
            acc = acc * x + c
        total += acc
    return perf_counter() - t0


def at_reference(seconds: float, cals: List[float]) -> float:
    return seconds * CAL_REF_S / statistics.fmean(cals)


def run_pass(ops: List[Op], tracer: Optional[Tracer] = None):
    """Run every operation once; return (latencies_s, failed labels,
    calibration times).  The kernel runs before the first operation and then
    between operations once CAL_EVERY_S has passed; outputs are checked after
    the pass.  Neither is inside an operation's latency."""
    outputs, latencies, cals = [], [], []
    next_cal = 0.0
    for i, op in enumerate(ops):
        if perf_counter() >= next_cal:
            cals.append(calibrate())
            next_cal = perf_counter() + CAL_EVERY_S
        t0 = perf_counter()
        try:
            if tracer is None:
                out = op.run()
            else:
                tracer.op = i
                out = tracer.call("op", op.run)
        except Exception as exc:
            out = exc
        latencies.append(perf_counter() - t0)
        outputs.append(out)
    failed = [op.label for op, out in zip(ops, outputs) if not _passes(op, out)]
    return latencies, failed, cals


def run_passes(ops: List[Op], seconds: float, between: Optional[Callable[[], None]] = None):
    """Repeat passes while the next one is expected to end within `seconds`
    (at least one runs); `between()` runs after each pass, inside that time.
    Return (latencies per pass, failed labels, calibration times per pass)."""
    passes, failed, cals = [], [], []
    start = perf_counter()
    while True:
        lat, bad, cal = run_pass(ops)
        passes.append(lat)
        failed.extend(bad)
        cals.append(cal)
        if between is not None:
            between()
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            return passes, failed, cals


def _setup_probe(name: str, seed: int) -> float:
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
         "--setup-probe"],
        env=child_env(), cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out.splitlines()[-1])["setup_s"]


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def measure(workload, seed: int, seconds: float, trace: bool):
    """Run one workload; return (result line, record for the result file)."""
    start = perf_counter()
    if trace:
        tracer = Tracer()
        ops = workload.setup(seed, tracer)
        workload.untrace(tracer)
        before, failed, before_cals = run_pass(ops)
        workload.trace(tracer)
        out_start = workload.output_bytes()
        traced, traced_failed, traced_cals = run_pass(ops, tracer)
        workload.untrace(tracer)
        out_bytes = workload.output_bytes() - out_start
        rest = max(seconds - (perf_counter() - start), 0)
        after, after_failed, after_cals = run_passes(ops, rest)
        passes = [before, traced] + after
        cals = [before_cals, traced_cals] + after_cals
        records = tracer.records()
        metrics = layer_metrics(records)
        metrics["cli.output_bytes"] = out_bytes
        # Neighbouring passes share the host's state; distant ones may not.
        at_ref = [at_reference(sum(lat), cal) for lat, cal in zip(passes, cals)]
        untraced_near = statistics.median([at_ref[0]] + at_ref[2:4])
        metrics["trace.overhead_frac"] = at_ref[1] / untraced_near - 1
        failed += traced_failed + after_failed
        os.makedirs(OUT_DIR, exist_ok=True)
        write_records(os.path.join(OUT_DIR, f"spans-{workload.name}-seed{seed}.tsv.gz"), records)
    else:
        ops = workload.setup(seed)
        setups = [perf_counter() - start]

        def probe() -> None:
            setups.append(_setup_probe(workload.name, seed))

        passes, failed, cals = run_passes(ops, seconds, probe)
        all_cals = [c for cal in cals for c in cal]
        # Each operation's latency is its mean over the passes: within a run
        # the host flips between fast and slow states, and a median or a
        # minimum jumps from one state to the other while the mean moves in
        # proportion to the time each state took.
        typical = [at_reference(statistics.fmean(lat), all_cals) for lat in zip(*passes)]
        metrics = {
            "wall_s": sum(typical),
            "op_ms.p50": statistics.median(typical) * 1e3,
            "op_ms.p90": statistics.quantiles(typical, n=10)[8] * 1e3,
            "setup_s": at_reference(statistics.median(setups), all_cals),
            "peak_rss_mb": workload.peak_rss_mb(),
        }
    attempted = len(ops) * len(passes)
    bench = load_benchmark()
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    line = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "environment": environment(),
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "ops_per_pass": len(ops),
        "passes": len(passes),
        "pass_latencies_s": passes,
        "calibration_s": cals,
        "fail_frac": len(failed) / attempted,
        "failed_ops": failed[:20],
        "note": NOISE_NOTE,
    }
    return line, record


# ---------------------------------------------------------------------------
# environment record


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
    }


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "eulerstab", "__init__.py")):
        print(f"perfbench: no eulerstab sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    if args.setup_probe:
        t0 = perf_counter()
        workload.setup(args.seed)
        print(json.dumps({"setup_s": perf_counter() - t0}))
        return 0
    line, record = measure(workload, args.seed, args.seconds, bool(args.trace))
    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w") as fh:
        json.dump({"result": line, **record}, fh, indent=1)
    summary = {k: v for k, v in record.items()
               if k not in ("pass_latencies_s", "calibration_s")}
    print("environment " + json.dumps(summary, sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
