"""haarent benchmark: one workload, one seed, end-to-end or per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload verify-sweep --seed 1 --seconds 36 --trace 0

Workloads: verify-sweep, expr-entropy, discrete (see bench/README.md).
The benchmark is a closed loop with one client: a single worker process
runs the workload's operations back to back, each an in-process call of
haarent.cli.main(argv) or of a public library function. --trace 0 reports
the end-to-end metrics named in BENCHMARK.json; --trace 1 reports the
per-layer metrics from passes with the tracer installed.

Steps: generate the seeded inputs under .bench_work/, time fresh
interpreters that import haarent and run the first operation (setup_s,
some before and some after the worker), run the worker for --seconds,
check every operation's output, and print the metrics. Times are given at
the reference speed of bench/calibrate.py: the worker runs its kernel after
every operation, and each latency is scaled by the kernel's time around
it, so that a busy host does not read as a slower program. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics. Exit status is 0 when that
line was printed, whatever the checks found; it is non-zero, with no
result line, when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calibrate  # noqa: E402  (needs HERE on sys.path)
import workloads  # noqa: E402

SETUP_BEFORE, SETUP_AFTER = 2, 3
# calibration runs either side of an operation that judge its speed
SPEED_WINDOW = 4
# Every child process must end within this many seconds of our start, so
# that a run that hangs still exits (without a result) inside 180 s.
RUN_LIMIT_S = 170
STARTED = perf_counter()


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def worker_env() -> dict:
    """The worker's environment: no HAARENT_TOL, which would silently change
    the tolerances of verify and entropy; one BLAS/OpenMP thread, so numpy
    starts no more threads than there are cores; a fixed hash seed, so set
    iteration order repeats between runs."""
    env = {k: v for k, v in os.environ.items() if k != "HAARENT_TOL"}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    return env


def _run_worker(args: list) -> None:
    left = STARTED + RUN_LIMIT_S - perf_counter()
    if left <= 0:
        raise BenchError(f"out of time after {RUN_LIMIT_S} s")
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")]
                          + args, cwd=ROOT, env=worker_env(),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          timeout=left, check=False)
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: "
                         f"{proc.stderr.decode(errors='replace')[-2000:]}")


def setup_seconds(ops_path: str, reps: int) -> list:
    """Times of fresh interpreters running import + the first op, at the
    reference speed: each probe's wall time from start to exit, less its
    calibration runs, over the speed those runs saw."""
    times = []
    probe_path = os.path.join(os.path.dirname(ops_path), "probe.json")
    for _ in range(reps):
        t0 = perf_counter()
        _run_worker(["--probe", ops_path, "--result", probe_path])
        wall = perf_counter() - t0
        with open(probe_path, encoding="utf-8") as fh:
            kernels = json.load(fh)["kernels"]
        times.append((wall - math.fsum(kernels)) / calibrate.speed(kernels))
    return times


def quantile(values: list, q: int) -> float:
    """The q-th percentile (q in 10..90 by tens), inclusive interpolation."""
    return statistics.quantiles(values, n=10, method="inclusive")[q // 10 - 1]


def local_kernel(one_pass: dict) -> list:
    """For each operation of a pass, the mean time of the calibration runs
    nearest to it: the one just before it, the one just after it and the
    next few either side."""
    kernels = one_pass["kernels"]
    return [statistics.fmean(kernels[max(0, i - SPEED_WINDOW):
                                     i + SPEED_WINDOW + 1])
            for i in range(len(kernels))]


def per_operation(passes: list) -> list:
    """Each operation's latency at the reference speed: its time summed over
    the passes, over the time of its nearest calibration runs summed over
    the same passes, in units of REFERENCE_S. A ratio of sums over a whole
    run rather than a statistic of per-pass ratios, which a few outlying
    calibration runs would bias."""
    near = [local_kernel(p) for p in passes]
    return [calibrate.REFERENCE_S
            * math.fsum(p["latencies"][i] for p in passes)
            / math.fsum(k[i] for k in near)
            for i in range(len(passes[0]["latencies"]))]


def end_to_end(ops: list, result: dict, setup: list) -> tuple:
    # The first pass fills caches and is left out.
    passes = result["untraced"][1:]
    per_op = per_operation(passes)
    wall = math.fsum(per_op)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "ops_per_s": len(ops) / wall,
        "op_p50_ms": 1e3 * quantile(per_op, 50),
        "op_p90_ms": 1e3 * quantile(per_op, 90),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    samples = {"passes": len(passes), "operations": len(ops),
               "above_p90": sum(v > metrics["op_p90_ms"] / 1e3
                                for v in per_op),
               "setup_runs": len(setup),
               "speed": calibrate.speed([k for p in passes
                                         for k in p["kernels"]])}
    return metrics, samples


def per_layer(result: dict) -> dict:
    def pass_time(passes):
        return math.fsum(per_operation(passes))
    metrics = dict(result["layers"])
    metrics["trace.overhead_frac"] = (pass_time(result["traced"])
                                      / pass_time(result["untraced"][1:]))
    return metrics


def check_all(ops: list, result: dict) -> list:
    """(op id, Outcome) for every operation of the workload."""
    outputs = {}
    for op in ops:
        try:
            with open(op["output"], "rb") as fh:
                outputs[op["id"]] = fh.read()
        except FileNotFoundError:
            outputs[op["id"]] = b""
    nondeterministic = set(result["nondeterministic"])
    outcomes = []
    for op, rc, err in zip(ops, result["rcs"], result["errors"]):
        if op["id"] in nondeterministic:
            outcome = workloads.Outcome(hard=True, reason="output bytes "
                                        "differ between passes")
        else:
            outcome = workloads.check(op, rc, outputs[op["id"]], outputs)
        if rc != 0 and err.strip():
            outcome.reason += ": " + err.strip().splitlines()[-1][:200]
        outcomes.append((op["id"], outcome))
    return outcomes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "haarent",
                                       "__init__.py")):
        raise BenchError(f"no haarent sources under {ROOT}/src")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    os.chdir(ROOT)

    work = os.path.join(".bench_work",
                        f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    ops = workloads.generate(args.workload, args.seed, work)
    ops_path = os.path.join(work, "ops.json")
    with open(ops_path, "w", encoding="utf-8") as fh:
        json.dump(ops, fh)

    # set-up runs before and after the worker, so that they sample the
    # machine at both ends of the run
    setup = setup_seconds(ops_path, SETUP_BEFORE) if not args.trace else []
    result_path = os.path.join(work, "result.json")
    _run_worker(["--ops", ops_path, "--seconds", str(args.seconds),
                 "--trace", str(args.trace), "--result", result_path])
    if not args.trace:
        setup += setup_seconds(ops_path, SETUP_AFTER)
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)

    outcomes = check_all(ops, result)
    failed = [(op_id, o) for op_id, o in outcomes if o.failed]
    correct = not any(o.hard for _, o in outcomes)
    if args.trace:
        values, samples = per_layer(result), {}
        declared_metrics = declared["per_layer"]
    else:
        values, samples = end_to_end(ops, result, setup)
        declared_metrics = declared["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared_metrics}

    env = result["environment"]
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env, "samples": samples,
              "setup_runs_s": setup,
              "fail_frac": len(failed) / len(ops),
              "failed": [{"id": i, "reason": o.reason, "hard": o.hard}
                         for i, o in failed],
              "unstable_counters": result["unstable_counters"],
              "metrics": metrics}
    with open(os.path.join(work, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"python {env['python']}, numpy {env['numpy']}, "
          f"nproc {env['nproc']}")
    for op_id, o in failed:
        print(f"  failed {op_id}: {o.reason}"
              + (" [incorrect]" if o.hard else ""))
    if result["unstable_counters"]:
        print(f"  counters that did not repeat between traced passes: "
              f"{', '.join(result['unstable_counters'])}")
    print(f"  fail_frac {len(failed) / len(ops):.6g} frac "
          f"({len(failed)} of {len(ops)} operations)")
    for name, m in metrics.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    if samples:
        print(f"  latency samples: {samples['operations']} operations "
              f"(each over {samples['passes']} passes), "
              f"{samples['above_p90']} above p90; setup runs "
              f"{samples['setup_runs']}; machine at "
              f"{1 / samples['speed']:.3g} of the reference speed")
    print(json.dumps({"correct": correct, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"bench: error: {exc}", file=sys.stderr)
        sys.exit(2)
