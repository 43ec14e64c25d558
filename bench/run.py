"""gramcode benchmark: one command, three closed-loop workloads, exact gates.

    python3 bench/run.py --workload {fit,codebook,storage} --seed N \
        --seconds S --trace {0,1} [--quick]

Runs in a single process with no extra threads and imports gramcode
from the checkout's src/.  With --trace 0 it prints the end-to-end
metrics; with --trace 1 it runs the solution untraced, then again with
spans around every call into gramcode, and prints the per-layer metrics.
Every output is checked against reference.json (or an independent
recomputation); a mismatch exits 1 without printing metrics.  Times are
seconds at the reference CPU speed (see speed.py); the raw figures are
printed as `record` lines.  The last line of stdout is one JSON object.
See NOTES.md for the workloads, the metrics and what should move them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from speed import Speed  # noqa: E402
from tracing import Tracer, metric_names  # noqa: E402
from workloads import WORKLOADS, GateFailure, ProgramMissing, import_program  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
DEFAULT_SEED = 1
SETUP_REPS = 7
QUICK_SETUP_REPS = 2
SETUP_PROBES = 6

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def layer_unit(name):
    if name == "trace.overhead_ratio":
        return "ratio"
    if name.endswith("_s"):
        return "s"
    return "count"


def machine_record():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def timed_phase(workload, speed, seconds=None, tracer=None):
    """Run the solution, then (given seconds) keep the stream going until then.

    Returns raw clock marks and, per operation, (kind, t0, t1).  A batch
    is started only if the previous one would still fit before the
    deadline, so a run never stops in the middle of a batch.
    """
    ops = []

    def do(kind, run, check):
        t0 = speed.clock()
        try:
            outcome = tracer.operation(kind, run) if tracer else run()
        except Exception as exc:
            raise GateFailure(f"{kind} raised {exc!r}") from exc
        ops.append((kind, t0, speed.clock()))
        check(outcome)

    start = speed.clock()
    for op in workload.write_path():
        do(*op)
    batches = workload.batches()
    last = 0.0
    for _ in range(workload.solution_batches):
        t0 = speed.clock()
        for op in next(batches):
            do(*op)
        last = speed.clock() - t0
    solved = speed.clock()
    workload.finish()
    if seconds is not None:
        while speed.clock() + last <= start + seconds:
            t0 = speed.clock()
            for op in next(batches):
                do(*op)
            last = speed.clock() - t0
    return {"start": start, "solved": solved, "end": speed.clock(), "ops": ops}


def run(name, seed, seconds, trace, quick, reference):
    """One benchmark run; returns (result JSON object, record dict)."""
    speed = Speed()
    record = machine_record()
    record["load_start"] = os.getloadavg()
    speed.start()
    try:
        workload = WORKLOADS[name](reference[name], seed, quick, WORKDIR)
        setup = []
        for _ in range(QUICK_SETUP_REPS if quick else SETUP_REPS):
            # Set-up is short: give its speed window samples of its own.
            for _ in range(SETUP_PROBES):
                speed.sample()
            t0 = speed.clock()
            mods = import_program(SRC)
            WORKDIR.mkdir(exist_ok=True)
            workload.prepare(mods)
            setup.append((t0, speed.clock()))
        phase = timed_phase(workload, speed, None if trace else seconds)
        if trace:
            tracer = Tracer(speed.clock)
            mods = import_program(SRC)
            tracer.install(mods)
            try:
                tracer.operation("setup", lambda: workload.prepare(mods))
                traced = timed_phase(workload, speed, None, tracer)
            finally:
                tracer.uninstall()
            spans_path = WORKDIR / f"spans-{name}-seed{seed}.jsonl"
            tracer.write(spans_path)
            record["spans_file"] = str(spans_path)
            record["spans"] = len(tracer.spans)
            record["spans_self_s"] = tracer.self_total()
            record["traced_elapsed_s"] = tracer.elapsed
    finally:
        speed.stop()
    record["load_end"] = os.getloadavg()

    wall = speed.seconds(phase["start"], phase["solved"])
    record["raw_wall_s"] = phase["solved"] - phase["start"]
    record["speed_factor"] = speed.factor(phase["start"], phase["end"])
    if trace:
        metrics = tracer.layer_metrics()
        metrics["trace.overhead_ratio"] = speed.seconds(traced["start"], traced["solved"]) / wall
        units = {key: layer_unit(key) for key in metric_names()}
    else:
        stream = [
            speed.seconds(t0, t1) for kind, t0, t1 in phase["ops"] if kind == workload.stream_kind
        ]
        record["stream_ops"] = len(stream)
        record["raw_setup_s"] = statistics.median(t1 - t0 for t0, t1 in setup)
        metrics = {
            "setup_s": statistics.median(speed.seconds(t0, t1) for t0, t1 in setup),
            "wall_s": wall,
            "ops_per_s": len(stream) / sum(stream),
            "op_p50_ms": statistics.median(stream) * 1e3,
            "op_p90_ms": statistics.quantiles(stream, n=10)[8] * 1e3 if len(stream) > 1 else stream[0] * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
    result = {
        "correct": True,
        "attempted": len(phase["ops"]) + (len(traced["ops"]) if trace else 0),
        "failed": 0,
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units},
    }
    return result, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny inputs, for the self-tests")
    args = parser.parse_args(argv)
    with open(HERE / "reference.json") as handle:
        reference = json.load(handle)
    try:
        result, record = run(
            args.workload, args.seed, args.seconds, args.trace, args.quick, reference
        )
    except ProgramMissing as exc:
        print(f"error {exc}", file=sys.stderr)
        return 2
    except GateFailure as exc:
        print(f"gate failed: {exc}", file=sys.stderr)
        return 1
    print(f"record workload {args.workload} seed {args.seed} trace {args.trace}")
    for key, value in record.items():
        print(f"record {key} {value}")
    for key, metric in result["metrics"].items():
        print(f"metric {key} {metric['value']} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
