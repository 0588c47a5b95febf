"""Benchmark harness for confhad.

    python3 bench/run.py --workload catalog12 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

Runs one workload (see BENCHMARK.json and workloads.py) in this single
process, repeating full passes over its operations for ``--seconds``, and
prints a report followed, as the last line, by one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` times untraced passes, then traced
passes, and reports the per-layer metrics and the tracing overhead.  Times
are in reference seconds (see ``speed_scale``).  A full result, with the
environment, raw times and sample counts, is written under
``bench/out``.  ``--workload all`` runs every workload in its own process and
prints one table.

confhad is imported from ``src`` next to this directory and from nowhere else.
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
from typing import NamedTuple, Optional

from calibration import KERNEL_REF_S, kernel_seconds

# One BLAS thread: each workload is one single-threaded process, and numpy's
# thread-pool start-up would otherwise be half of the set-up time, and noisy.
# Set before numpy loads; the set-up probes inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("catalog12", "classify12", "scale")
SETUP_RUNS = 9  # fresh interpreters per run; the median is setup_s
MIN_PASSES = 3  # timed passes per untraced run, whatever --seconds says
KERNEL_EVERY_S = 0.1  # op time between kernel samples within a pass

END_TO_END = ("setup_s", "wall_s", "decided_ratio", "ok_ratio", "peak_rss_mb")


def measure_setup() -> list[tuple[float, float]]:
    """(set-up seconds, kernel seconds) of SETUP_RUNS fresh interpreters,
    after one that may compile bytecode.  Each probe times the kernel next to
    its own set-up."""
    samples = []
    for _ in range(SETUP_RUNS + 1):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py")],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        setup, kernel = map(float, done.stdout.split())
        samples.append((setup, kernel))
    return samples[1:]


class Pass(NamedTuple):
    wall: float  # seconds, the sum of ``times``
    scaled: float  # reference seconds, the sum of the scaled ``times``
    times: list  # seconds per operation
    layers: Optional[dict]  # per-layer metrics of a traced pass
    differing: list  # operations whose answer differed from the reference


def run_passes(ops, seconds: float, min_passes: int, reference: list, tracer=None) -> list[Pass]:
    """Full passes until the next one would end after ``seconds`` (at least ``min_passes``).

    The first pass of the run fills ``reference`` with its answers; a later
    answer is only compared with it, so memory does not grow with the passes.
    The kernel is sampled at the pass's start and end, and before an
    operation once KERNEL_EVERY_S of operations ran since the last sample.
    Each operation's time is scaled by the mean of the samples just before
    and just after it (see ``speed_scale``).
    """
    import workloads

    passes: list[Pass] = []
    deadline = perf_counter() + seconds
    while len(passes) < min_passes or perf_counter() + statistics.median(p.wall for p in passes) <= deadline:
        mark = tracer.start_pass() if tracer else None
        answers, times, kernel, before = [], [], [kernel_seconds()], []
        since_kernel = 0.0
        for k, op in enumerate(ops):
            if since_kernel >= KERNEL_EVERY_S:
                kernel.append(kernel_seconds())
                since_kernel = 0.0
            before.append(len(kernel) - 1)
            if tracer:
                tracer.op = len(passes) * len(ops) + k
            start = perf_counter()
            answers.append(workloads.run_op(op))
            times.append(perf_counter() - start)
            since_kernel += times[-1]
        kernel.append(kernel_seconds())
        if not reference:
            reference.extend(answers)
        differing = [k for k, (a, r) in enumerate(zip(answers, reference)) if a != r]
        metrics = tracer.layer_metrics(mark) if tracer else None
        scaled = sum(t * 2 * KERNEL_REF_S / (kernel[b] + kernel[b + 1]) for t, b in zip(times, before))
        passes.append(Pass(sum(times), scaled, times, metrics, differing))
    return passes


def environment() -> dict:
    import numpy

    return {
        "machine": platform.machine(),
        "node": platform.node(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def judge(ops, reference: list, passes) -> dict:
    """Verdicts, failures and decisions over all passes.

    An answer that differs from the reference pass is wrong: the answers may
    change neither between passes nor under tracing.
    """
    verdicts = [op.judge(answer) for op, answer in zip(ops, reference)]
    decisions = [op.decisions(answer) for op, answer in zip(ops, reference)]
    tally = {"attempted": 0, "failed": 0, "wrong": 0, "decisions": 0, "undecided": 0}
    failures: dict[str, dict] = {}
    for one_pass in passes:
        for k, op in enumerate(ops):
            verdict = "wrong" if k in one_pass.differing else verdicts[k]
            tally["attempted"] += 1
            tally["decisions"] += decisions[k][0]
            tally["undecided"] += decisions[k][1]
            if verdict != "ok":
                tally["failed"] += 1
                tally["wrong"] += verdict == "wrong"
                entry = failures.setdefault(op.name, {"verdict": verdict, "count": 0, "answer": repr(reference[k])[:300]})
                entry["count"] += 1
    tally["failures"] = failures
    return tally


def metric(value: float, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def speed_scale(one_pass: Pass) -> float:
    """Reference seconds per second in the pass: KERNEL_REF_S over its
    effective kernel time.

    Neighbours on a shared machine were seen to change its speed by up to 2x,
    from one second to the next.  Scaling each operation by the kernel timed
    just before and just after it cancels most of that.  In one process
    running scale for 3 minutes, the spread of pass times (quartile distance
    over median) was 30% raw, 13% scaled by the pass's median kernel and 6%
    scaled per operation.
    """
    return one_pass.scaled / one_pass.wall


def kernel_of(one_pass: Pass) -> float:
    """The pass's effective kernel seconds."""
    return KERNEL_REF_S / speed_scale(one_pass)


def scaled_walls(passes: list[Pass]) -> list[float]:
    return [p.scaled for p in passes]


def run_workload(args) -> int:
    import workloads

    seconds = float(args.seconds)
    setup = measure_setup() if args.trace == 0 else []
    workloads.warm_catalog()
    ops = workloads.make_ops(args.workload, args.seed)
    env = environment()
    reference: list = []
    if args.trace == 0:
        passes = run_passes(ops, seconds, MIN_PASSES, reference)
        traced = []
    else:
        import tracing

        passes = run_passes(ops, seconds / 2, 2, reference)  # the first pass runs cold
        tracer = tracing.Tracer()
        with tracer.installed():
            traced = run_passes(ops, seconds / 2, 1, reference, tracer)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    tally = judge(ops, reference, passes + traced)
    walls = [p.wall for p in passes]
    detail = {
        "undecided_ratio": metric(tally["undecided"] / max(tally["decisions"], 1), "ratio", tally["decisions"]),
        "failed_ratio": metric(tally["failed"] / tally["attempted"], "ratio", tally["attempted"]),
    }
    if args.trace == 0:
        detail.update(
            setup_s=metric(statistics.median(t * KERNEL_REF_S / k for t, k in setup), "s", len(setup)),
            setup_raw_s=metric(statistics.median(t for t, _ in setup), "s", len(setup)),
            wall_s=metric(statistics.median(scaled_walls(passes)), "s", len(passes)),
            wall_raw_s=metric(statistics.median(walls), "s", len(passes)),
            kernel_s=metric(statistics.median(map(kernel_of, passes)), "s", len(passes)),
            decided_ratio=metric(1 - detail["undecided_ratio"]["value"], "ratio", tally["decisions"]),
            ok_ratio=metric(1 - detail["failed_ratio"]["value"], "ratio", tally["attempted"]),
            peak_rss_mb=metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
        )
        reported = list(END_TO_END)
    else:
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        for name, unit in units.items():  # seconds scaled as for wall_s
            values = [p.layers[name] * speed_scale(p) if unit == "s" else p.layers[name] for p in traced]
            detail[name] = metric(statistics.median(values), unit, len(traced))
        # the first untraced pass ran cold; the traced ones reuse its caches
        overhead = statistics.median(scaled_walls(traced)) - statistics.median(scaled_walls(passes[1:]))
        detail["trace.overhead_s"] = metric(overhead, "s", len(traced))
        reported = list(units)
    result = {
        "correct": tally["wrong"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {k: {"value": detail[k]["value"], "unit": detail[k]["unit"]} for k in reported},
    }
    full = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "trace": args.trace,
        "env": env,
        "ops_per_pass": len(ops),
        "pass_walls_s": walls,
        "traced_pass_walls_s": [p.wall for p in traced],
        "pass_kernel_s": [kernel_of(p) for p in passes + traced],
        "metrics": detail,
        "failures": tally["failures"],
        "known_defects": workloads.KNOWN_DEFECTS,
        "ops": [
            {"name": op.name, "median_s": statistics.median(p.times[k] for p in passes), "min_s": min(p.times[k] for p in passes)}
            for k, op in enumerate(ops)
        ],
        "setup_samples_s": [t for t, _ in setup],
        "setup_kernel_s": [k for _, k in setup],
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(full, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}+{len(traced)} traced  ops/pass {len(ops)}")
    print("env " + json.dumps(env))
    shown = ["undecided_ratio", "failed_ratio"] + (["setup_raw_s", "wall_raw_s", "kernel_s"] if args.trace == 0 else []) + reported
    for name in shown:
        m = detail[name]
        print(f"  {name:44} {m['value']:>14.6g} {m['unit']:6} n={m['samples']}")
    for name, f in tally["failures"].items():
        print(f"  {f['verdict']}: {name} x{f['count']}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; one table of every reported metric."""
    rows, ok = {}, True
    for workload in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if done.returncode:
            sys.stderr.write(done.stderr)
            return done.returncode
        result = json.loads(done.stdout.splitlines()[-1])
        ok = ok and result["correct"]
        full = json.loads((OUT / f"{workload}-seed{args.seed}-trace{args.trace}.json").read_text())
        rows[workload] = full["metrics"]
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
    names = list(rows[WORKLOADS[0]])
    print(f"{'metric':44} {'unit':6}" + "".join(f"{w:>24}" for w in WORKLOADS))
    for name in names:
        cells = "".join(f"{rows[w][name]['value']:>14.6g} (n={rows[w][name]['samples']:>5})" for w in WORKLOADS)
        print(f"{name:44} {rows[WORKLOADS[0]][name]['unit']:6}{cells}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "confhad" / "__init__.py").is_file():
        print(f"run.py: no confhad sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
