"""Seeded operation lists for the haarent benchmark, with independent checks.

Each workload is a list of operations. An operation is a JSON-ready dict:

    {"id": str, "kind": "cli", "argv": [...], "output": path, "check": {...}}
    {"id": str, "kind": "lib", "call": "subgroups" | "subgroup_chains",
     "group": descriptor, "output": path, "check": {...}}

CLI operations are run as haarent.cli.main(argv); argv already carries
"--output <path>". Library operations build a fresh group from its
descriptor and call the named public function on it; the worker serializes
the result to the output path.

Nothing here imports haarent: the references below (closed-form entropies,
subgroup closures, lattice chain counts) are computed independently, so a
defect in the library cannot hide itself by also breaking its reference.
Only Python's random.Random(seed).random() draws inputs, whose stream is
stable across Python versions.
"""

from __future__ import annotations

import json
import math
import os
import random
from itertools import permutations

WORKLOADS = ("verify-sweep", "expr-entropy", "discrete")

# Catalog order, except that prop-nested-haar comes first: the first
# operation of a pass is the one the set-up measurement runs, and this claim
# fills the verifier's subgroup cache and FiniteGroup._tables.
CLAIMS = (
    "prop-nested-haar",
    "lem-finite-form", "lem-weight-form", "lem-nonnegativity",
    "lem-change-of-reference", "lem-discrete-counting",
    "prop-uniform-maximizer", "maxent-concavity", "prop-invariance",
    "prop-supnorm-bounds", "cor-translated-bound", "thm-entropic-gap",
    "thm-general-inequality", "prop-monotonicity", "thm-relative-symmetry",
    "ex-additive-interval", "ex-multiplicative-interval",
    "ex-mixed-reference",
)

VERIFY_SEEDS = 10
VERIFY_TRIALS = 20
EXPR_TOLS = ("1e-6", "1e-8", "1e-10")
FULL_WINDOW = (0.01, 1000.0)
LATTICE_GROUPS = ("D12", "Z16", "D6", "S4", "S5")
# Solves per size. n = 3 and n = 8 take about the same time, and these
# counts with SUBGROUP_ENTROPY_OPS put discrete's p90 (about the 17th
# slowest of 166) in the middle of their 12 solves, clear of the steps up
# to n = 64 and down to the millisecond operations.
MAXENT_SOLVES = {3: 6, 8: 6, 64: 4, 512: 4}
MAXENT_ITERS = 1500
SUBGROUP_ENTROPY_OPS = 68  # per group, for S5 and D12

# Subgroup counts from group theory: Z_n has d(n) subgroups, D_n has
# d(n) + sigma(n), and S4 / S5 have 30 / 156.
SUBGROUP_COUNTS = {"Z16": 5, "D6": 16, "D12": 34, "S4": 30, "S5": 156}

# A reference value that misses by more than this many nats is a gross
# error, not a quadrature-contract miss.
GROSS_NATS = 1e-3
EXACT_TOL = 1e-12
MAXENT_SUP_TOL = 1e-6


def _num(x: float, digits: int = 4) -> str:
    """Short decimal text; references are computed from float(text)."""
    return f"{x:.{digits}g}"


def _uniform(rng: random.Random, lo: float, hi: float) -> float:
    return lo + (hi - lo) * rng.random()


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(_uniform(rng, math.log(lo), math.log(hi)))


class _Builder:
    """Accumulates operations and writes their input files under workdir."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.ops: list = []
        os.makedirs(os.path.join(workdir, "specs"), exist_ok=True)
        os.makedirs(os.path.join(workdir, "out"), exist_ok=True)

    def _output(self) -> str:
        return os.path.join(self.workdir, "out", f"{len(self.ops)}.out")

    def spec(self, name: str, doc: dict) -> str:
        path = os.path.join(self.workdir, "specs", f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def cli(self, op_id: str, argv: list, check: dict) -> None:
        out = self._output()
        self.ops.append({"id": op_id, "kind": "cli",
                         "argv": argv + ["--output", out], "output": out,
                         "check": check})

    def lib(self, op_id: str, call: str, group: str, check: dict) -> None:
        self.ops.append({"id": op_id, "kind": "lib", "call": call,
                         "group": group, "output": self._output(),
                         "check": check})


# ---------------------------------------------------------------------------
# verify-sweep


def _verify_sweep(b: _Builder, rng: random.Random) -> None:
    seeds = []
    while len(seeds) < VERIFY_SEEDS:
        s = int(rng.random() * 2**31)
        if s not in seeds:
            seeds.append(s)
    for s in seeds:
        for cid in CLAIMS:
            b.cli(f"verify/{cid}/seed{s}",
                  ["verify", "--claim", cid, "--trials", str(VERIFY_TRIALS),
                   "--seed", str(s), "--format", "json"],
                  {"type": "reports", "claim": cid, "count": VERIFY_TRIALS})
    b.cli("examples", ["examples", "--format", "json"],
          {"type": "reports", "claim": None, "count": 14})


# ---------------------------------------------------------------------------
# expr-entropy: closed forms (mass M, xlogx integral I, sup of the quotient)


def closed_form(family: str, p: dict, a: float, b: float) -> dict:
    """Exact M = integral of the density over [a, b] (Lebesgue base),
    I = integral of xlogx(quotient) d(reference), and the true sup of the
    quotient, for the closed-form families."""
    if family == "const":
        c, length = p["c"], b - a
        return {"M": c * length, "I": c * math.log(c) * length, "sup": c}
    if family == "inv-haar":
        # reference 1/x, quotient identically 1
        return {"M": math.log(b / a), "I": 0.0, "sup": 1.0}
    if family == "inv-leb":
        m = math.log(b / a)
        return {"M": m, "I": -m * (math.log(a) + math.log(b)) / 2.0,
                "sup": 1.0 / a}
    if family == "exp-decay":
        lam = p["lam"]
        ea, eb = math.exp(-lam * a), math.exp(-lam * b)
        m = -ea * math.expm1(-lam * (b - a)) / lam
        # integral of rho log rho = -lam * integral of x e^(-lam x)
        return {"M": m, "I": -(a * ea - b * eb) - m, "sup": ea}
    if family == "gauss":
        if a >= 0.0:
            m = math.sqrt(math.pi) / 2.0 * (math.erfc(a) - math.erfc(b))
        else:
            m = math.sqrt(math.pi) / 2.0 * (math.erf(b) - math.erf(a))
        # integral of x^2 e^(-x^2) = (a e^(-a^2) - b e^(-b^2))/2 + M/2
        x2 = (a * math.exp(-a * a) - b * math.exp(-b * b)) / 2.0 + m / 2.0
        peak = 0.0 if a <= 0.0 <= b else min(a * a, b * b)
        return {"M": m, "I": -x2, "sup": math.exp(-peak)}
    if family == "piecewise":
        edges = [a, *p["cuts"], b]
        pieces = [(edges[i + 1] - edges[i], v)
                  for i, v in enumerate(p["values"])]
        return {"M": math.fsum(length * v for length, v in pieces),
                "I": math.fsum(length * v * math.log(v)
                               for length, v in pieces),
                "sup": max(v for length, v in pieces if length > 0)}
    raise ValueError(f"no closed form for family {family!r}")


def cli_integrator(tol: float) -> tuple:
    """(rel_tol, abs_tol) that `haarent entropy --tol` hands the integrator."""
    return min(tol, 1e-3), max(min(tol * 1e-2, 1e-10), 1e-300)


def finite_form(m: float, i: float) -> float:
    return math.log(m) - i / m


def allowance(m: float, i: float, tol: float) -> float:
    """Largest error in S = log M - I/M that the integrator contract permits.

    The contract bounds each integral separately: |dM| <= max(rel*M, abs)
    and |dI| <= max(rel*|I|, abs). S is monotone in I, and in M it has a
    single interior minimum at M = -I, so the extreme values over that box
    lie at its corners or at that minimum.
    """
    rel, abs_ = cli_integrator(tol)
    em = max(rel * abs(m), abs_)
    ei = max(rel * abs(i), abs_)
    exact = finite_form(m, i)
    worst = 0.0
    for di in (-ei, ei):
        candidates = [m - em, m + em]
        if m - em < -(i + di) < m + em:
            candidates.append(-(i + di))
        for mm in candidates:
            if mm > 0.0:
                worst = max(worst, abs(finite_form(mm, i + di) - exact))
    # rounding of the reference itself and of the printed value
    rounding = 8 * 2.0**-52 * (abs(math.log(m)) + abs(i / m) + 1.0)
    return worst + rounding


def _expr_spec(rng: random.Random, family: str) -> tuple:
    """(payload, group descriptor, params, window) for one random spec."""
    if family == "const":
        a = float(_num(_uniform(rng, -5.0, 5.0)))
        b = float(_num(a + _uniform(rng, 0.5, 20.0)))
        c = float(_num(_uniform(rng, 0.2, 5.0)))
        return _num(c), f"R+add:[{a!r},{b!r}]", {"c": c}, (a, b)
    if family == "inv-haar":
        a = float(_num(_log_uniform(rng, 0.01, 1.0)))
        b = float(_num(_log_uniform(rng, 2.0, 1000.0)))
        return "1/x", f"R*mul:[{a!r},{b!r}]", {}, (a, b)
    if family == "inv-leb":
        a = float(_num(_uniform(rng, 0.05, 2.0)))
        b = float(_num(a * _log_uniform(rng, 3.0, 200.0)))
        return "1/x", f"R+add:[{a!r},{b!r}]", {}, (a, b)
    if family == "exp-decay":
        lam = float(_num(_uniform(rng, 0.2, 3.0)))
        a = float(_num(_uniform(rng, 0.0, 2.0)))
        b = float(_num(a + _uniform(rng, 1.0, 10.0)))
        return (f"exp(-{_num(lam)}*x)", f"R+add:[{a!r},{b!r}]",
                {"lam": lam}, (a, b))
    if family == "gauss":
        a = float(_num(_uniform(rng, -3.0, 0.5)))
        b = float(_num(max(a + 0.5, _uniform(rng, 0.5, 4.0))))
        return "exp(-x^2)", f"R+add:[{a!r},{b!r}]", {}, (a, b)
    if family == "piecewise":
        a = float(_num(_uniform(rng, -3.0, 3.0)))
        b = float(_num(a + _uniform(rng, 2.0, 12.0)))
        c1 = float(_num(a + (b - a) * _uniform(rng, 0.1, 0.45)))
        c2 = float(_num(a + (b - a) * _uniform(rng, 0.55, 0.9)))
        values = [float(_num(_uniform(rng, 0.2, 4.0))) for _ in range(3)]
        payload = (f"piecewise {{x < {c1!r}: {values[0]!r}; "
                   f"{c1!r} <= x < {c2!r}: {values[1]!r}; "
                   f"else: {values[2]!r}}}")
        return (payload, f"R+add:[{a!r},{b!r}]",
                {"cuts": [c1, c2], "values": values}, (a, b))
    # kinked: abs, min/max, sqrt and log, checked for exit status only;
    # instance j of a pass is kind j mod 4, on R*mul or R+add in turn
    kind, on_mul = rng.index % 4, (rng.index // 4) % 2 == 0
    c = float(_num(_uniform(rng, 0.5, 3.0)))
    d = float(_num(_uniform(rng, 0.1, 1.0)))
    hi = float(_num(_uniform(rng, 3.5, 8.0)))
    if kind == 0:
        payload = f"abs(x - {c!r}) + {d!r}"
    elif kind == 1:
        payload = f"min(x, {c!r}) + max({d!r}, x / {c!r})"
    elif kind == 2:
        payload = f"sqrt(x) + {d!r}"
    else:
        # x + 1 + c >= 1 on either window, so the density stays positive
        payload = f"log(x + {1.0 + c!r}) + {d!r}"
    group = f"R*mul:[{d!r},{hi!r}]" if on_mul else f"R+add:[0.0,{hi!r}]"
    return payload, group, {}, None


class _Stratum:
    """The draws of instance `index` of `count` of one family: each falls
    in the index-th count-th of [0, 1), so every pass samples the whole
    range of each parameter evenly and costs about the same whatever the
    seed."""

    def __init__(self, rng: random.Random, index: int, count: int):
        self.rng, self.index, self.count = rng, index, count

    def random(self) -> float:
        return (self.index + self.rng.random()) / self.count


_CLOSED_FAMILIES = ("const", "inv-haar", "inv-leb", "exp-decay", "gauss",
                    "piecewise")
_SPECS_PER_FAMILY = 6
_KINKED_SPECS = 8


def _expr_entropy(b: _Builder, rng: random.Random) -> None:
    specs = [("inv-haar", "1/x", "R*mul:[0.01,1000.0]", {}, FULL_WINDOW),
             ("inv-leb", "1/x", "R+add:[0.01,1000.0]", {}, FULL_WINDOW)]
    for j in range(_SPECS_PER_FAMILY):
        for family in _CLOSED_FAMILIES:
            draws = _Stratum(rng, j, _SPECS_PER_FAMILY)
            specs.append((family, *_expr_spec(draws, family)))
    for j in range(_KINKED_SPECS):
        draws = _Stratum(rng, j, _KINKED_SPECS)
        specs.append(("kinked", *_expr_spec(draws, "kinked")))
    for k, (family, payload, group, params, window) in enumerate(specs):
        path = b.spec(f"expr{k}", {"density": {"kind": "expr",
                                               "payload": payload}})
        ref = None if window is None else closed_form(family, params, *window)
        for tol in EXPR_TOLS:
            b.cli(f"entropy/{family}/{k}/tol{tol}",
                  ["entropy", "--measure", path, "--group", group,
                   "--tol", tol, "--format", "json"],
                  {"type": "expr-entropy", "ref": ref, "tol": float(tol),
                   "what": f"{payload} on {group}"})
        b.cli(f"supnorm/{family}/{k}",
              ["supnorm", "--measure", path, "--group", group,
               "--format", "json"],
              {"type": "expr-sup", "sup": None if ref is None else ref["sup"],
               "what": f"{payload} on {group}"})


# ---------------------------------------------------------------------------
# discrete: independent finite-group arithmetic


def group_elements(desc: str) -> dict:
    """Label -> element as a permutation tuple, for S_n and D_n.

    D_n label r<k>/s<k> is rotation^k * flip^f acting on Z_n as
    x -> k + (-1)^f x, which is a homomorphic image of the library's
    (rotation, flip) pairs.
    """
    n = int(desc[1:])
    if desc[0] == "S":
        return {"".join(map(str, p)): p for p in permutations(range(n))}
    if desc[0] == "D":
        out = {}
        for f, sign in ((0, 1), (1, -1)):
            for k in range(n):
                out[f"{'rs'[f]}{k}"] = tuple((k + sign * x) % n
                                             for x in range(n))
        return out
    raise ValueError(f"no element model for {desc!r}")


def generated(desc: str, labels: list) -> list:
    """Labels of the subgroup generated by `labels`, by closure."""
    elements = group_elements(desc)
    by_perm = {p: lab for lab, p in elements.items()}
    gens = [elements[lab] for lab in labels]
    identity = tuple(range(len(gens[0])))
    seen = {identity}
    frontier = [identity]
    while frontier:
        grown = []
        for x in frontier:
            for g in gens:
                y = tuple(x[i] for i in g)
                if y not in seen:
                    seen.add(y)
                    grown.append(y)
        frontier = grown
    return sorted(by_perm[p] for p in seen)


def _pick(rng: random.Random, seq):
    return seq[int(rng.random() * len(seq))]


def _cycle(rng: random.Random, n: int, length: int) -> str:
    """One-line label of a random `length`-cycle of S_n."""
    points = list(range(n))
    moved = [points.pop(int(rng.random() * len(points)))
             for _ in range(length)]
    image = list(range(n))
    for a, b in zip(moved, moved[1:] + moved[:1]):
        image[a] = b
    return "".join(map(str, image))


def _reflection(rng: random.Random) -> str:
    return f"s{_pick(rng, range(12))}"


# Generator sets drawn at random within a type whose subgroup order is fixed,
# so a pass costs the same whatever the seed. S5: a transposition (order 2),
# a 3-cycle (3), a 5-cycle (5), a 5-cycle and a 3-cycle (A5, 60), a
# transposition and a 5-cycle (S5, 120). D12: a reflection (2), r3 or r9
# (4), a rotation generating all rotations (12), r2 or r10 with a
# reflection (12), a generating rotation with a reflection (24).
SUBGROUP_TYPES = {
    "S5": (lambda rng: [_cycle(rng, 5, 2)],
           lambda rng: [_cycle(rng, 5, 3)],
           lambda rng: [_cycle(rng, 5, 5)],
           lambda rng: [_cycle(rng, 5, 5), _cycle(rng, 5, 3)],
           lambda rng: [_cycle(rng, 5, 2), _cycle(rng, 5, 5)]),
    "D12": (lambda rng: [_reflection(rng)],
            lambda rng: [f"r{_pick(rng, (3, 9))}"],
            lambda rng: [f"r{_pick(rng, (1, 5, 7, 11))}"],
            lambda rng: [f"r{_pick(rng, (2, 10))}", _reflection(rng)],
            lambda rng: [f"r{_pick(rng, (1, 5, 7, 11))}", _reflection(rng)]),
}
SUBGROUP_TYPE_ORDERS = {"S5": (2, 3, 5, 60, 120), "D12": (2, 4, 12, 12, 24)}


def _discrete(b: _Builder, rng: random.Random) -> None:
    for desc in LATTICE_GROUPS:
        b.lib(f"subgroups/{desc}", "subgroups", desc,
              {"type": "subgroups", "count": SUBGROUP_COUNTS[desc]})
        b.lib(f"chains/{desc}", "subgroup_chains", desc,
              {"type": "chains", "subgroups_op": f"subgroups/{desc}"})
    for n, solves in MAXENT_SOLVES.items():
        for _ in range(solves):
            mass = float(_num(_uniform(rng, 0.5, 4.0)))
            seed = int(rng.random() * 2**31)
            b.cli(f"maxent/n{n}/seed{seed}",
                  ["maxent", "--n", str(n), "--mass", repr(mass),
                   "--iters", str(MAXENT_ITERS), "--seed", str(seed),
                   "--format", "json"],
                  {"type": "maxent", "n": n, "mass": mass})
    uniform = b.spec("uniform", {"density": {"kind": "builtin",
                                             "payload": "uniform"}})
    for desc in ("S5", "D12"):
        labels = sorted(group_elements(desc))
        types = SUBGROUP_TYPES[desc]
        for k in range(SUBGROUP_ENTROPY_OPS):
            gens = types[k % len(types)](rng)
            members = generated(desc, gens)
            if k % 3 == 0:
                path, weights = uniform, {lab: 1.0 for lab in members}
            else:
                table = {lab: float(_num(_uniform(rng, 0.1, 2.0)))
                         for lab in labels}
                path = b.spec(f"table-{desc}-{k}",
                              {"density": {"kind": "table",
                                           "payload": table}})
                weights = {lab: table[lab] for lab in members}
            b.cli(f"entropy/{desc}/{k}",
                  ["entropy", "--measure", path, "--group", desc,
                   "--subgroup", ",".join(gens), "--format", "json"],
                  {"type": "finite-entropy",
                   "weights": [weights[lab] for lab in members]})


def generate(workload: str, seed: int, workdir: str) -> list:
    """The operations of one pass of `workload`, drawn from `seed`."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"known: {', '.join(WORKLOADS)}")
    b = _Builder(workdir)
    rng = random.Random(seed)
    {"verify-sweep": _verify_sweep, "expr-entropy": _expr_entropy,
     "discrete": _discrete}[workload](b, rng)
    return b.ops


# ---------------------------------------------------------------------------
# Checks


class Outcome:
    """Result of checking one operation.

    failed: the operation counts as failed (non-zero exit, missed
    reference, failed report). hard: the output is wrong in a way the
    program does not document (usage error, crash, gross miss, wrong exact
    answer); any hard outcome makes the run incorrect.
    """

    __slots__ = ("failed", "hard", "reason")

    def __init__(self, failed: bool = False, hard: bool = False,
                 reason: str = ""):
        self.failed = failed or hard
        self.hard = hard
        self.reason = reason



def _load(data: bytes):
    try:
        return json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        return None


def _check_reports(chk, doc, rc) -> Outcome:
    if not isinstance(doc, dict) or doc.get("schema") != "haarent-report/1":
        return Outcome(hard=True, reason="not a haarent-report/1 document")
    reports = doc.get("reports", [])
    if len(reports) != chk["count"]:
        return Outcome(hard=True, reason=f"{len(reports)} reports, "
                                         f"expected {chk['count']}")
    if chk["claim"] and any(r["claim_id"] != chk["claim"] for r in reports):
        return Outcome(hard=True, reason="report for another claim")
    bad = [r for r in reports if not r["passed"]]
    if bad or rc != 0:
        return Outcome(failed=True, reason=f"{len(bad)} reports failed, first "
                                         f"{bad[0]['claim_id']} trial "
                                         f"{bad[0]['trial']}")
    return Outcome()


def _check_expr_entropy(chk, doc) -> Outcome:
    nats, mass = doc.get("nats"), doc.get("mass")
    if not (isinstance(nats, float) and math.isfinite(nats)
            and isinstance(mass, float) and mass > 0):
        return Outcome(hard=True, reason=f"malformed result {doc!r}")
    ref = chk["ref"]
    if ref is None:
        return Outcome()
    want = finite_form(ref["M"], ref["I"])
    err = abs(nats - want)
    if err > GROSS_NATS:
        return Outcome(hard=True, reason=f"nats {nats!r} vs closed form "
                                         f"{want!r}")
    allowed = allowance(ref["M"], ref["I"], chk["tol"])
    if err > allowed:
        return Outcome(failed=True,
                       reason=f"error {err:.3g} > allowed {allowed:.3g} "
                              f"({chk['what']}, tol {chk['tol']:g})")
    rel, abs_ = cli_integrator(chk["tol"])
    mass_allowed = max(rel * ref["M"], abs_) + 4 * 2.0**-52 * ref["M"]
    if abs(mass - ref["M"]) > mass_allowed:
        return Outcome(failed=True,
                       reason=f"mass error {abs(mass - ref['M']):.3g} > "
                              f"allowed {mass_allowed:.3g} ({chk['what']}, "
                              f"tol {chk['tol']:g})")
    return Outcome()


def _check_expr_sup(chk, doc) -> Outcome:
    sup = doc.get("sup")
    if not (isinstance(sup, float) and math.isfinite(sup) and sup > 0):
        return Outcome(hard=True, reason=f"malformed result {doc!r}")
    # sup_density promises a grid lower bound of the true sup
    if chk["sup"] is not None and sup > chk["sup"] * (1.0 + 1e-12):
        return Outcome(hard=True, reason=f"sup {sup!r} exceeds the true "
                                         f"sup {chk['sup']!r}")
    return Outcome()


def _check_finite_entropy(chk, doc) -> Outcome:
    w = chk["weights"]
    total = math.fsum(w)
    want = math.log(total) - math.fsum(x * math.log(x) for x in w) / total
    if doc.get("form") != "Finite":
        return Outcome(hard=True, reason=f"form {doc.get('form')!r}")
    if abs(doc.get("mass", math.nan) - total) > EXACT_TOL * total:
        return Outcome(hard=True, reason=f"mass {doc.get('mass')!r} vs "
                                         f"{total!r}")
    if not abs(doc.get("nats", math.nan) - want) <= EXACT_TOL * (1 + abs(want)):
        return Outcome(hard=True, reason=f"nats {doc.get('nats')!r} vs "
                                         f"{want!r}")
    return Outcome()


def _check_maxent(chk, doc) -> Outcome:
    n, mass = chk["n"], chk["mass"]
    weights = doc.get("weights") or []
    if len(weights) != n or doc.get("n") != n:
        return Outcome(hard=True, reason="wrong number of weights")
    target = mass / n
    dist = max(abs(x - target) for x in weights)
    if dist > MAXENT_SUP_TOL:
        return Outcome(hard=True, reason=f"sup distance {dist:.3g} to the "
                                         f"maximizer")
    best = -mass * math.log(mass / n)
    if abs(doc.get("entropy", math.nan) - best) > 1e-8 * (1 + abs(best)):
        return Outcome(hard=True, reason=f"entropy {doc.get('entropy')!r} "
                                         f"vs maximum {best!r}")
    return Outcome()


def _check_subgroups(chk, doc) -> Outcome:
    subs = doc.get("subgroups", [])
    if len(subs) != chk["count"]:
        return Outcome(hard=True, reason=f"{len(subs)} subgroups, expected "
                                         f"{chk['count']}")
    if len({tuple(s) for s in subs}) != len(subs):
        return Outcome(hard=True, reason="duplicate subgroups")
    return Outcome()


def maximal_chains(subs: list) -> int:
    """Number of maximal chains, trivial to full, in the inclusion order."""
    sets = sorted((frozenset(s) for s in subs), key=len)
    above = {s: [t for t in sets if len(t) > len(s) and s < t] for s in sets}
    covers = {s: [t for t in above[s]
                  if not any(u < t for u in above[s] if len(u) < len(t))]
              for s in sets}
    paths = {sets[-1]: 1}
    for s in reversed(sets[:-1]):
        paths[s] = sum(paths[t] for t in covers[s])
    return paths[sets[0]]


def _check_chains(chk, doc, outputs) -> Outcome:
    subs_doc = _load(outputs.get(chk["subgroups_op"], b""))
    if not subs_doc:
        return Outcome(hard=True, reason="no subgroup list to compare with")
    lattice = {frozenset(s) for s in subs_doc["subgroups"]}
    named = [frozenset(s) for s in doc.get("subgroups", [])]
    chains = doc.get("chains", [])
    for chain in chains:
        steps = [named[i] for i in chain]
        if (steps[0] != min(lattice, key=len)
                or steps[-1] != max(lattice, key=len)
                or any(s not in lattice for s in steps)):
            return Outcome(hard=True, reason="chain leaves the lattice")
        for lo, hi in zip(steps, steps[1:]):
            if not lo < hi or any(lo < u < hi for u in lattice):
                return Outcome(hard=True, reason="chain step is not a cover")
    want = maximal_chains(subs_doc["subgroups"])
    if len(chains) != want or len({tuple(c) for c in chains}) != want:
        return Outcome(hard=True, reason=f"{len(chains)} chains, lattice "
                                         f"has {want}")
    return Outcome()


def check(op: dict, rc: int, data: bytes, outputs: dict) -> Outcome:
    """Check one operation's exit status and output bytes.

    outputs maps operation ids to their output bytes, for checks that
    compare with another operation of the same pass.
    """
    chk = op["check"]
    # Exit 3 (a typed numeric failure such as ConvergenceError) and exit 1
    # from verify (a failed report) are failures the program reports
    # itself; any other non-zero exit is a usage error or a crash.
    if rc == 3:
        return Outcome(failed=True, reason="exit 3")
    if rc != 0 and not (rc == 1 and chk["type"] == "reports"):
        return Outcome(hard=True, reason=f"exit {rc}")
    doc = _load(data)
    if doc is None:
        return Outcome(hard=True, reason="output is not JSON")
    if chk["type"] == "reports":
        return _check_reports(chk, doc, rc)
    if chk["type"] == "expr-entropy":
        return _check_expr_entropy(chk, doc)
    if chk["type"] == "expr-sup":
        return _check_expr_sup(chk, doc)
    if chk["type"] == "finite-entropy":
        return _check_finite_entropy(chk, doc)
    if chk["type"] == "maxent":
        return _check_maxent(chk, doc)
    if chk["type"] == "subgroups":
        return _check_subgroups(chk, doc)
    if chk["type"] == "chains":
        return _check_chains(chk, doc, outputs)
    raise ValueError(f"unknown check type {chk['type']!r}")
