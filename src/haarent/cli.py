"""Command-line front end for entropy computation and claim verification.

Measure specification files are JSON documents:

    {"space": {"kind": "interval", "bounds": [0.0, 2.0]},
     "density": {"kind": "builtin", "payload": "lebesgue"},
     "label": "nu"}

space.kind is "interval" (with "bounds": [lo, hi]) or "atoms" (with
"atoms": [...]). The space block may be omitted when another source fixes
the carrier (the --reference file or --group flag). density.kind is one of

    "expr"     payload is an expression in x (see the dsl module grammar)
    "table"    payload maps atom labels to nonnegative weights
    "builtin"  payload names a density: "lebesgue", "counting",
               "uniform" (flat density 1, any space kind), or
               "haar:R*" (density 1/x on a positive interval)

Sets on the command line are written "full", "[a,b] U [c,d]", or
"{a,b,c}". Group descriptors: "Z6", "D4", "S4", "R+add:[0,10]",
"R*mul:[0.1,100]", "circle".

Exit codes: 0 success or all checks passed, 1 verification failure,
2 usage error or unreadable input, 3 numeric failure (non-convergence,
domain violations, window overflow). Identical invocations (flags, files,
seed, environment) produce byte-identical output. Diagnostics go to
standard error; results go to standard output or the --output path.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

from . import dsl, verifier
from .entropy import entropy_finite
from .errors import (CatalogError, DomainError, ExprEvalError, ExprSyntaxError,
                     HaarentError)
from .groups import (Group, MultiplicativePositiveReals, generated_subgroup,
                     group_from_descriptor, haar)
from .maxent import maximize_entropy
from .measures import Density, Measure, Space, table_density
from .quadrature import Integrator
from .report import reports_to_csv, reports_to_json, reports_to_table
from .supnorm import sup_density, sup_normalize
from .verifier import summary_to_table

__all__ = ["main", "measure_from_spec"]

_DEFAULT_TOL = 1e-8
_FORMATS = ("table", "json", "csv")
_BUILTINS = ("lebesgue", "counting", "uniform", "haar:R*")


class _UsageError(Exception):
    """Invocation or input-file problem; reported on stderr with exit 2."""


# ---------------------------------------------------------------------------
# Measure specification files


def _space_from_spec(doc: dict) -> Space:
    kind = doc.get("kind")
    if kind == "interval":
        bounds = doc.get("bounds")
        if (not isinstance(bounds, (list, tuple)) or len(bounds) != 2):
            raise _UsageError("interval space needs \"bounds\": [lo, hi]")
        return Space.interval(float(bounds[0]), float(bounds[1]))
    if kind == "atoms":
        atoms = doc.get("atoms")
        if not isinstance(atoms, (list, tuple)) or not atoms:
            raise _UsageError("atoms space needs a nonempty \"atoms\" list")
        return Space.finite(atoms)
    raise _UsageError(f"space kind must be \"interval\" or \"atoms\", "
                      f"got {kind!r}")


def _builtin_density(name: str, space: Space) -> Density:
    if name == "lebesgue":
        if space.is_finite:
            raise _UsageError("builtin \"lebesgue\" needs an interval space")
        return Density.const(1.0)
    if name == "counting":
        if not space.is_finite:
            raise _UsageError("builtin \"counting\" needs an atoms space")
        return Density.const(1.0)
    if name == "uniform":
        return Density.const(1.0)
    if name == "haar:R*":
        if space.is_finite:
            raise _UsageError("builtin \"haar:R*\" needs an interval space")
        return MultiplicativePositiveReals(space.bounds).haar_density()
    raise _UsageError(f"unknown builtin density {name!r}; "
                      f"known: {', '.join(_BUILTINS)}")


def measure_from_spec(doc: dict, default_space: Space | None = None,
                      where: str = "measure spec") -> Measure:
    """Build a measure from a parsed specification document.

    `default_space` fills in when the document has no "space" block; an
    explicit block always wins but must then match any externally imposed
    carrier (checked by the caller).
    """
    if not isinstance(doc, dict):
        raise _UsageError(f"{where}: top level must be an object")
    unknown = set(doc) - {"space", "density", "label"}
    if unknown:
        raise _UsageError(f"{where}: unknown keys {sorted(unknown)}")
    if "space" in doc:
        space = _space_from_spec(doc["space"])
    elif default_space is not None:
        space = default_space
    else:
        raise _UsageError(f"{where}: needs a \"space\" block")
    dens_doc = doc.get("density")
    if not isinstance(dens_doc, dict) or "kind" not in dens_doc:
        raise _UsageError(f"{where}: needs a \"density\" object with "
                          f"\"kind\" and \"payload\"")
    kind = dens_doc["kind"]
    payload = dens_doc.get("payload")
    label = str(doc.get("label", ""))
    try:
        if kind == "expr":
            if not isinstance(payload, str):
                raise _UsageError(f"{where}: expr payload must be a string")
            try:
                density = dsl.density_from_expr(payload, space)
            except ExprSyntaxError as exc:
                raise _UsageError(f"{where}: {exc} (at position "
                                  f"{exc.position})") from exc
        elif kind == "table":
            if not isinstance(payload, dict):
                raise _UsageError(f"{where}: table payload must map atoms "
                                  f"to weights")
            density = table_density(space, payload)
        elif kind == "builtin":
            density = _builtin_density(str(payload), space)
        else:
            raise _UsageError(f"{where}: density kind must be \"expr\", "
                              f"\"table\", or \"builtin\", got {kind!r}")
        return Measure.from_density(space, density, label)
    except DomainError as exc:
        raise _UsageError(f"{where}: {exc}") from exc


def _read_spec(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _UsageError(f"{path}: invalid JSON: {exc}") from exc


def _load_measure(path: str, default_space: Space | None = None) -> Measure:
    return measure_from_spec(_read_spec(path), default_space, where=path)


# ---------------------------------------------------------------------------
# Small helpers


def _env_tol() -> float | None:
    raw = os.environ.get("HAARENT_TOL")
    if raw is None:
        return None
    try:
        v = float(raw)
    except ValueError:
        raise _UsageError(f"HAARENT_TOL is not a number: {raw!r}") from None
    if not (v > 0 and math.isfinite(v)):
        raise _UsageError(f"HAARENT_TOL must be positive, got {raw!r}")
    return v


def _tol(args) -> float | None:
    """The run's tolerance: --tol, else HAARENT_TOL, else the default.
    None for verify without either, where each claim keeps its own pass
    threshold, and for the commands that take no tolerance."""
    if "tol" not in args:
        return None
    tol = args.tol if args.tol is not None else _env_tol()
    if tol is None:
        return None if args.command == "verify" else _DEFAULT_TOL
    if not (tol > 0 and math.isfinite(tol)):
        raise _UsageError(f"tolerance must be positive, got {tol!r}")
    return tol


def _integrator_for(tol: float) -> Integrator:
    rel = min(tol, 1e-3)
    abs_ = max(min(tol * 1e-2, 1e-10), 1e-300)
    return Integrator(rel_tol=rel, abs_tol=abs_)


def _resolve_group(descriptor: str) -> Group:
    try:
        return group_from_descriptor(descriptor)
    except DomainError as exc:
        raise _UsageError(str(exc)) from exc


def _reference_from_args(args) -> tuple[Measure, Group | None]:
    has_ref = getattr(args, "reference", None) is not None
    has_group = getattr(args, "group", None) is not None
    if has_ref == has_group:
        raise _UsageError("give exactly one of --reference or --group")
    if has_group:
        group = _resolve_group(args.group)
        return haar(group), group
    return _load_measure(args.reference), None


def _emit(args, text: str) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (list, tuple)):
        return " ".join(repr(float(x)) for x in v)
    return str(v)


def _render_record(fmt: str, rec: dict) -> str:
    if fmt == "json":
        return json.dumps(rec, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(rec.keys())
        writer.writerow([_cell(v) for v in rec.values()])
        return buf.getvalue()
    width = max(len(k) for k in rec)
    return "".join(f"{k.ljust(width)}  {_cell(v)}\n" for k, v in rec.items())


def _render_reports(fmt: str, reports) -> str:
    if fmt == "json":
        return reports_to_json(reports) + "\n"
    if fmt == "csv":
        return reports_to_csv(reports)
    return reports_to_table(reports)


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_entropy(args, tol: float) -> int:
    reference, group = _reference_from_args(args)
    m = _load_measure(args.measure, default_space=reference.space)
    if m.space != reference.space:
        raise _UsageError("measure and reference live on different spaces")
    if args.subgroup is not None:
        if group is None or not group.is_finite:
            raise _UsageError("--subgroup needs a finite --group")
        if args.set is not None:
            raise _UsageError("--subgroup already fixes the set; "
                              "drop --set")
        labels = [t.strip() for t in args.subgroup.split(",") if t.strip()]
        if not labels:
            raise _UsageError("--subgroup needs at least one element label")
        try:
            s = generated_subgroup(group, labels).as_set()
        except DomainError as exc:
            raise _UsageError(str(exc)) from exc
    else:
        s = dsl.parse_set(args.set if args.set is not None else "full",
                          m.space)
    value = entropy_finite(m, reference, s, _integrator_for(tol))
    _emit(args, _render_record(args.format, value.to_dict()))
    return 0


def _cmd_supnorm(args, tol: float | None) -> int:
    reference, _ = _reference_from_args(args)
    paths = args.measure
    if not 1 <= len(paths) <= 2:
        raise _UsageError("supnorm takes one or two --measure files")
    measures = [_load_measure(p, default_space=reference.space)
                for p in paths]
    for m in measures:
        if m.space != reference.space:
            raise _UsageError("measure and reference live on different "
                              "spaces")
    s = dsl.parse_set(args.set if args.set is not None else "full",
                      reference.space)
    if len(measures) == 1:
        rec = {"sup": sup_density(measures[0], reference, s)}
    else:
        _, _, report = sup_normalize(measures[0], measures[1], reference, s)
        rec = report.to_dict()
    _emit(args, _render_record(args.format, rec))
    return 0


def _cmd_verify(args, tol: float | None) -> int:
    if args.trials < 0:
        raise _UsageError(f"--trials must be >= 0, got {args.trials!r}")
    if args.all:
        summary = verifier.run_all(seed=args.seed, trials=args.trials,
                                   tol=tol)
        if args.format == "json":
            doc = {"schema": "haarent-run/1", **summary.to_dict()}
            text = json.dumps(doc, indent=2) + "\n"
        elif args.format == "csv":
            text = reports_to_csv(summary.reports)
        else:
            text = summary_to_table(summary) + "\n"
        _emit(args, text)
        return 0 if summary.ok else 1
    reports = []
    for cid in args.claim:
        reports.extend(verifier.verify(cid, trials=args.trials,
                                       seed=args.seed, tol=tol))
    _emit(args, _render_reports(args.format, reports))
    return 0 if all(r.passed for r in reports) else 1


def _cmd_examples(args, tol: float | None) -> int:
    reports = verifier.run_examples()
    _emit(args, _render_reports(args.format, reports))
    return 0 if all(r.passed for r in reports) else 1


def _cmd_maxent(args, tol: float | None) -> int:
    if args.nu is not None:
        try:
            nu = [float(t) for t in args.nu.split(",") if t.strip()]
        except ValueError:
            raise _UsageError(f"--nu must be comma-separated numbers, "
                              f"got {args.nu!r}") from None
        if not nu or any(not (v > 0 and math.isfinite(v)) for v in nu):
            raise _UsageError("--nu weights must be positive numbers")
        if args.n is not None and args.n != len(nu):
            raise _UsageError(f"--n {args.n} contradicts the {len(nu)} "
                              f"weights of --nu")
    elif args.n is not None:
        if args.n < 1:
            raise _UsageError(f"--n must be >= 1, got {args.n!r}")
        nu = [1.0] * args.n
    else:
        raise _UsageError("maxent needs --n or --nu")
    if not (args.mass > 0 and math.isfinite(args.mass)):
        raise _UsageError(f"--mass must be positive and finite, "
                          f"got {args.mass!r}")
    if args.iters < 1:
        raise _UsageError(f"--iters must be >= 1, got {args.iters!r}")
    if not (args.step > 0 and math.isfinite(args.step)):
        raise _UsageError(f"--step must be positive and finite, "
                          f"got {args.step!r}")
    point, value = maximize_entropy(nu, mass=args.mass, iters=args.iters,
                                    step=args.step, seed=args.seed)
    total = math.fsum(nu)
    maximizer = [args.mass * v / total for v in nu]
    sup_distance = max(abs(w - o)
                       for w, o in zip(point.weights, maximizer))
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["index", "nu", "weight", "maximizer"])
        for i, (v, w, o) in enumerate(zip(nu, point.weights, maximizer)):
            writer.writerow([i, repr(v), repr(w), repr(o)])
        _emit(args, buf.getvalue())
        return 0
    rec = {"n": len(nu), "mass": args.mass, "entropy": value,
           "sup_distance": sup_distance, "weights": list(point.weights),
           "maximizer": maximizer}
    _emit(args, _render_record(args.format, rec))
    return 0


# each runner takes the parsed args and the tolerance _tol resolved for
# them (None for the commands that take no tolerance)
_RUNNERS = {"entropy": _cmd_entropy, "supnorm": _cmd_supnorm,
            "verify": _cmd_verify, "examples": _cmd_examples,
            "maxent": _cmd_maxent}


# ---------------------------------------------------------------------------
# Argument grammar


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="haarent",
        description="Relative entropies against Haar references: compute, "
                    "normalize, verify.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=_FORMATS, default="table",
                       help="output format (default table)")
        p.add_argument("--output", default=None, metavar="PATH",
                       help="write results to PATH instead of stdout")

    p = sub.add_parser("entropy",
                       help="entropy of a measure against a reference")
    p.add_argument("--measure", required=True, metavar="SPEC",
                   help="measure specification file (JSON)")
    p.add_argument("--reference", metavar="SPEC",
                   help="reference measure specification file")
    p.add_argument("--group", metavar="DESC",
                   help="use the Haar measure of this group as reference "
                        "(e.g. Z6, D4, R*mul:[0.1,100])")
    p.add_argument("--subgroup", metavar="ELEMS",
                   help="with --group: restrict to the subgroup generated "
                        "by these comma-separated element labels")
    p.add_argument("--set", metavar="SET",
                   help="evaluation set, e.g. \"[0,2]\" or \"{0,3}\" "
                        "(default: full space)")
    p.add_argument("--tol", type=float, default=None,
                   help="quadrature tolerance (default 1e-8; HAARENT_TOL "
                        "overrides the default)")
    common(p)

    p = sub.add_parser("supnorm",
                       help="sup of a density, or joint sup-normalization "
                            "of two measures")
    p.add_argument("--measure", action="append", required=True,
                   metavar="SPEC", help="measure file; repeat for a pair")
    p.add_argument("--reference", metavar="SPEC",
                   help="reference measure specification file")
    p.add_argument("--group", metavar="DESC",
                   help="use this group's Haar measure as reference")
    p.add_argument("--set", metavar="SET",
                   help="carrier subset (default: full space)")
    common(p)

    p = sub.add_parser("verify", help="run catalog claims")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--all", action="store_true",
                       help="every claim plus the worked examples")
    which.add_argument("--claim", action="append", metavar="ID",
                       help="one claim id; repeatable")
    p.add_argument("--trials", type=int, default=20,
                   help="random instances per claim (default 20)")
    p.add_argument("--seed", type=int, default=0,
                   help="base seed (default 0)")
    p.add_argument("--tol", type=float, default=None,
                   help="pass threshold of the reports (default per claim; "
                        "HAARENT_TOL overrides the default)")
    common(p)

    p = sub.add_parser("examples", help="reproduce the worked examples")
    common(p)

    p = sub.add_parser("maxent",
                       help="maximize entropy over the scaled simplex")
    p.add_argument("--n", type=int, default=None,
                   help="number of weights (uniform reference)")
    p.add_argument("--nu", metavar="W1,W2,...",
                   help="reference weights (overrides --n)")
    p.add_argument("--mass", type=float, default=1.0,
                   help="total mass of the weight vector (default 1)")
    p.add_argument("--iters", type=int, default=500,
                   help="cap on ascent iterations (default 500); the "
                        "ascent stops early once its state can no longer "
                        "change, which never changes the result")
    p.add_argument("--step", type=float, default=0.1,
                   help="initial step size (default 0.1)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the random start (default 0)")
    common(p)
    return parser


_built = None  # (build_parser as bound when it ran, its parser)


def _parser() -> argparse.ArgumentParser:
    # Building the parser costs over ten parses, and parse_args keeps no
    # state between calls, so one parser serves every main() call of the
    # process. If build_parser is rebound (wrapped by a profiler, say),
    # the new binding builds the next parser.
    global _built
    if _built is None or _built[0] is not build_parser:
        _built = (build_parser, build_parser())
    return _built[1]


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        tol = _tol(args)
        if getattr(args, "seed", 0) < 0:
            raise _UsageError(f"seed must be >= 0, got {args.seed!r}")
        return _RUNNERS[args.command](args, tol)
    except ExprSyntaxError as exc:
        print(f"haarent: error: {exc} (at position {exc.position})",
              file=sys.stderr)
        return 2
    except (_UsageError, CatalogError, OSError) as exc:
        print(f"haarent: error: {exc}", file=sys.stderr)
        return 2
    except ExprEvalError as exc:
        print(f"haarent: error: {exc} (in {exc.subexpression} at "
              f"x = {exc.x!r})", file=sys.stderr)
        return 3
    except HaarentError as exc:
        print(f"haarent: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
