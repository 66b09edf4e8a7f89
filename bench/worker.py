"""Runs one workload's operations in this process, one pass after another.

Started by bench/run.py from the checkout root, with the environment that
run.py sets:

    python3 bench/worker.py --ops OPS.json --seconds S --trace 0|1 \
        --result RESULT.json
    python3 bench/worker.py --probe OPS.json

Passes repeat until --seconds are used up (at least two). The first pass
also warms module caches and records each operation's exit code and output
digest; every later pass must reproduce every digest byte for byte. With
--trace 1 the time is split: untraced passes first, then passes with the
tracer installed. After every operation the worker runs the calibration
kernel of bench/calibrate.py once and records its time, so that run.py can
tell how fast the machine was around each operation.

--probe runs the calibration kernel, imports haarent, runs the first
operation, runs the kernel again, writes the kernel times to --result and
exits; run.py times it from process start to exit.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import calibrate  # noqa: E402  (needs HERE on sys.path)

PROBE_KERNELS = 30  # calibration runs before and after a probe's work


def import_haarent():
    """Import haarent from this checkout's src/, never an installed copy."""
    sys.path.insert(0, SRC)
    import haarent
    import haarent.cli
    if not os.path.abspath(haarent.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"haarent was imported from {haarent.__file__}, "
                         f"not from {SRC}")
    return haarent


def serialize(call: str, result) -> bytes:
    """Canonical bytes of a subgroups or subgroup_chains result."""
    if call == "subgroups":
        doc = {"subgroups": [list(s.elements) for s in result]}
    else:
        distinct = sorted({s.elements for chain in result for s in chain},
                          key=lambda e: (len(e), e))
        index = {e: i for i, e in enumerate(distinct)}
        doc = {"subgroups": [list(e) for e in distinct],
               "chains": [[index[s.elements] for s in chain]
                          for chain in result]}
    return json.dumps(doc).encode("utf-8")


def run_op(haarent, op: dict) -> tuple:
    """(exit code, seconds, stderr text) of one operation.

    Library calls map HaarentError to 3 like the CLI does; an exception
    that escapes the program is exit -1.
    """
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(err):
        if op["kind"] == "cli":
            t0 = perf_counter()
            try:
                rc = haarent.cli.main(op["argv"])
            except Exception:
                rc = -1
                traceback.print_exc()
            dt = perf_counter() - t0
        else:
            # looked up on every call, so that the tracer's wrapper is used
            fn = getattr(haarent.groups, op["call"])
            t0 = perf_counter()
            try:
                result = fn(haarent.group_from_descriptor(op["group"]))
                rc = 0
            except haarent.HaarentError:
                rc = 3
                traceback.print_exc()
            except Exception:
                rc = -1
                traceback.print_exc()
            dt = perf_counter() - t0
            if rc == 0:
                with open(op["output"], "wb") as fh:
                    fh.write(serialize(op["call"], result))
    return rc, dt, err.getvalue()


def _digest(rc: int, path: str) -> str:
    h = hashlib.sha256(str(rc).encode("ascii") + b"\0")
    try:
        with open(path, "rb") as fh:
            h.update(fh.read())
    except FileNotFoundError:
        h.update(b"<no output>")
    return h.hexdigest()


def run_pass(haarent, ops: list) -> dict:
    for op in ops:
        with contextlib.suppress(FileNotFoundError):
            os.remove(op["output"])
    rcs, latencies, errors, kernels = [], [], [], []
    t0 = perf_counter()
    for op in ops:
        rc, dt, err = run_op(haarent, op)
        rcs.append(rc)
        latencies.append(dt)
        errors.append(err)
        kernels.append(calibrate.sample())
    return {"elapsed": perf_counter() - t0, "latencies": latencies,
            "kernels": kernels, "rcs": rcs, "errors": errors,
            "digests": [_digest(rc, op["output"])
                        for rc, op in zip(rcs, ops)]}


def environment(haarent) -> dict:
    import numpy
    return {"python": platform.python_version(),
            "numpy": numpy.__version__,
            "haarent": haarent.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "threads_env": {k: os.environ.get(k) for k in (
                "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "PYTHONHASHSEED", "HAARENT_TOL")}}


def measure(haarent, ops: list, seconds: float, trace: bool) -> dict:
    from tracer import Tracer
    from workloads import CLAIMS

    untraced, traced, layers = [], [], []
    start = perf_counter()

    def room(done: list, until: float, least: int) -> bool:
        # `least` passes; then start another only if it fits
        return len(done) < least or (
            perf_counter() - start + done[-1]["elapsed"] <= until)

    # The first pass also fills caches, so the metrics leave it out and
    # there must be at least one more.
    while room(untraced, seconds / 2.0 if trace else seconds, 2):
        untraced.append(run_pass(haarent, ops))
    reference = untraced[0]
    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            while room(traced, seconds, 1):
                tracer.reset()
                traced.append(run_pass(haarent, ops))
                layers.append(tracer.metrics(CLAIMS))
        finally:
            tracer.uninstall()
    changed = sorted({i for p in untraced[1:] + traced
                      for i, d in enumerate(p["digests"])
                      if d != reference["digests"][i]})
    return {
        "rcs": reference["rcs"],
        "errors": reference["errors"],
        "nondeterministic": [ops[i]["id"] for i in changed],
        "untraced": [{k: p[k] for k in ("latencies", "kernels")}
                     for p in untraced],
        "traced": [{k: p[k] for k in ("latencies", "kernels")}
                   for p in traced],
        "layers": {name: statistics.median(l[name] for l in layers)
                   for name in (layers[0] if layers else {})},
        # counts must repeat from one traced pass to the next
        "unstable_counters": sorted(
            name for name in (layers[0] if layers else {})
            if not name.endswith("_s") and len({l[name] for l in layers}) > 1),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "environment": environment(haarent),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--ops", help="operations file written by run.py")
    ap.add_argument("--probe", help="run only the first operation of this "
                                    "operations file")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", help="where to write the measurements")
    args = ap.parse_args(argv)
    with open(args.probe or args.ops, encoding="utf-8") as fh:
        ops = json.load(fh)
    if args.probe:
        before = [calibrate.sample() for _ in range(PROBE_KERNELS)]
        run_op(import_haarent(), ops[0])
        after = [calibrate.sample() for _ in range(PROBE_KERNELS)]
        with open(args.result, "w", encoding="utf-8") as fh:
            json.dump({"kernels": before + after}, fh)
        return 0
    haarent = import_haarent()
    result = measure(haarent, ops, args.seconds, bool(args.trace))
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
