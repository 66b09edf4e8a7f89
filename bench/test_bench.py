"""Tests of the benchmark itself: references, checks, tracer bindings and
the per-layer counters each workload must (and must not) exercise.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

haarent = worker.import_haarent()

# Counters each workload must move, and those it must leave at zero.
NONZERO = {
    "verify-sweep": [
        "quadrature.calls", "quadrature.evals", "quadrature.self_s",
        "quadrature.integrand_s", "measures.mass.calls",
        "measures.radon_nikodym.calls", "measures.from_density.calls",
        "supnorm.sup_density.calls", "supnorm.translate_bound.calls",
        "groups.translate_set.calls", "maxent.objective_evals",
        "maxent.concavity_s", "cli.calls", "cli.parser_s", "cli.self_s",
        "report.render_s", "verifier.reports", "verifier.examples_s",
        *(f"entropy.{form}.{what}" for form in tracer.FORMS.values()
          for what in ("calls", "self_s", "integrals")),
        *(f"verifier.claim.{c}_s" for c in workloads.CLAIMS),
    ],
    "expr-entropy": [
        "dsl.parse.calls", "dsl.parse_s", "dsl.breakpoints.calls",
        "dsl.breakpoints_s", "dsl.points", "dsl.nodes", "dsl.eval_s",
        "quadrature.calls", "quadrature.evals", "entropy.finite.calls",
        "entropy.finite.integrals", "measures.mass.calls",
        "supnorm.sup_density.calls", "cli.calls", "cli.parser_s",
    ],
    "discrete": [
        "groups.subgroups.calls", "groups.subgroups_s",
        "groups.subgroups_found", "groups.chains.calls", "groups.chains_s",
        "groups.chains_found", "maxent.solves", "maxent.solve_s",
        "maxent.objective_evals", "maxent.iters_per_solve",
        "quadrature.finite_calls", "entropy.finite.calls", "cli.calls",
    ],
}
DSL = ["dsl.parse.calls", "dsl.breakpoints.calls", "dsl.points",
       "dsl.nodes", "dsl.eval_s"]
ZERO = {
    "verify-sweep": DSL + ["maxent.solves", "groups.chains.calls"],
    "expr-entropy": ["groups.subgroups.calls", "groups.chains.calls",
                     "groups.translate_set.calls", "maxent.solves",
                     "maxent.objective_evals", "quadrature.finite_calls",
                     "verifier.reports"],
    "discrete": DSL + ["supnorm.sup_density.calls", "verifier.reports"],
}
DETERMINISTIC = ["quadrature.evals", "dsl.nodes", "groups.subgroups_found",
                 "groups.chains_found", "maxent.objective_evals",
                 *(f"entropy.{form}.integrals"
                   for form in tracer.FORMS.values())]


def traced_pass(ops: list) -> tuple:
    t = tracer.Tracer()
    t.install()
    try:
        result = worker.run_pass(haarent, ops)
        return result, t.metrics(workloads.CLAIMS)
    finally:
        t.uninstall()


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    """Per workload: ops, a warm untraced pass, and two traced passes."""
    out = {}
    for name in workloads.WORKLOADS:
        ops = workloads.generate(name, 3, str(tmp_path_factory.mktemp(name)))
        warm = worker.run_pass(haarent, ops)
        traced = [traced_pass(ops) for _ in range(2)]
        out[name] = (ops, warm, traced)
    return out


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_layer_counters_follow_the_mapping(passes, name):
    layers = passes[name][2][0][1]
    assert set(layers) | {"trace.overhead_frac"} == {
        m["name"] for m in json.load(open(os.path.join(
            os.path.dirname(HERE), "BENCHMARK.json")))["per_layer"]}
    assert [k for k in NONZERO[name] if not layers[k] > 0] == []
    assert [k for k in ZERO[name] if layers[k] != 0] == []


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_deterministic_counters_repeat(passes, name):
    (_, first), (_, second) = passes[name][2]
    assert {k: first[k] for k in DETERMINISTIC} == \
        {k: second[k] for k in DETERMINISTIC}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_outputs_match_untraced(passes, name):
    _, warm, traced = passes[name]
    for result, _ in traced:
        assert result["digests"] == warm["digests"]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_outputs_are_correct(passes, name):
    ops, warm, _ = passes[name]
    outputs = {}
    for op in ops:
        if os.path.exists(op["output"]):
            with open(op["output"], "rb") as fh:
                outputs[op["id"]] = fh.read()
    hard = [(op["id"], o.reason) for op, rc in zip(ops, warm["rcs"])
            for o in [workloads.check(op, rc, outputs.get(op["id"], b""),
                                      outputs)]
            if o.hard]
    assert hard == []


def test_subgroup_counts(passes):
    ops = passes["discrete"][0]
    counts = {}
    for op in ops:
        if op["kind"] == "lib" and op["call"] == "subgroups":
            with open(op["output"], "rb") as fh:
                counts[op["group"]] = len(json.load(fh)["subgroups"])
    assert counts == {"Z16": 5, "D6": 16, "S4": 30, "S5": 156, "D12": 34}


def test_every_binding_is_wrapped():
    originals = {(mod, fn): getattr(getattr(haarent, mod), fn)
                 for mod, fn in tracer.SPANS}
    modules = [m for n, m in sys.modules.items()
               if n == "haarent" or n.startswith("haarent.")]
    t = tracer.Tracer()
    t.install()
    try:
        left = [(m.__name__, attr) for m in modules
                for attr, v in vars(m).items()
                if any(v is o for o in originals.values())]
        assert left == []
        assert haarent.verifier.entropy_finite is haarent.cli.entropy_finite
        assert haarent.entropy.mass is haarent.supnorm.mass \
            is haarent.groups.mass is haarent.measures.mass
        assert "from_density" in vars(haarent.measures.Measure)
    finally:
        t.uninstall()
    for (mod, fn), original in originals.items():
        assert getattr(getattr(haarent, mod), fn) is original
    assert haarent.verifier.entropy_finite is originals[("entropy",
                                                         "entropy_finite")]


# ---------------------------------------------------------------------------
# References and allowances


def _gauss_legendre(f, edges, nodes=64):
    x, w = np.polynomial.legendre.leggauss(nodes)
    total = 0.0
    for a, b in zip(edges, edges[1:]):
        t = 0.5 * (b - a) * x + 0.5 * (a + b)
        total += 0.5 * (b - a) * float(np.dot(w, f(t)))
    return total


def _edges(a, b, cuts=()):
    inner = [a, *cuts, b]
    out = []
    for lo, hi in zip(inner, inner[1:]):
        if lo > 0:
            out.extend(np.geomspace(lo, hi, 65)[:-1])
        else:
            out.extend(np.linspace(lo, hi, 65)[:-1])
    return [*out, b]


def _density(family, p):
    if family == "const":
        return lambda t: np.full_like(t, p["c"]), lambda t: np.ones_like(t)
    if family == "inv-haar":
        return lambda t: 1 / t, lambda t: 1 / t
    if family == "inv-leb":
        return lambda t: 1 / t, lambda t: np.ones_like(t)
    if family == "exp-decay":
        return lambda t: np.exp(-p["lam"] * t), lambda t: np.ones_like(t)
    if family == "gauss":
        return lambda t: np.exp(-t * t), lambda t: np.ones_like(t)
    cuts, values = p["cuts"], p["values"]
    return (lambda t: np.select([t < cuts[0], t < cuts[1]], values[:2],
                                values[2]),
            lambda t: np.ones_like(t))


@pytest.mark.parametrize("family", ["const", "inv-haar", "inv-leb",
                                    "exp-decay", "gauss", "piecewise"])
def test_closed_forms_match_numerical_integration(family):
    rng = random.Random(family)
    for _ in range(5):
        _, _, p, (a, b) = workloads._expr_spec(rng, family)
        ref = workloads.closed_form(family, p, a, b)
        rho, base = _density(family, p)
        edges = _edges(a, b, p.get("cuts", ()))
        m = _gauss_legendre(rho, edges)
        i = _gauss_legendre(lambda t: rho(t) * np.log(rho(t) / base(t)),
                            edges)
        assert math.isclose(ref["M"], m, rel_tol=1e-11)
        assert math.isclose(ref["I"], i, rel_tol=1e-10, abs_tol=1e-11)


def test_allowance_propagates_the_contract():
    m, i = math.log(1e5), 0.0
    # S = log M: the relative error of M, plus |dI| / M
    assert math.isclose(workloads.allowance(m, i, 1e-6),
                        1e-6 + 1e-8 / m, rel_tol=1e-3)
    chk = {"ref": {"M": m, "I": i}, "tol": 1e-6, "what": "1/x"}
    exact = workloads.finite_form(m, i)
    allowed = workloads.allowance(m, i, 1e-6)

    def outcome(nats, mass=m):
        return workloads._check_expr_entropy(chk, {"nats": nats,
                                                   "mass": mass})
    assert not outcome(exact + 0.9 * allowed).failed
    assert outcome(exact + 1.2e-5).failed
    assert not outcome(exact + 1.2e-5).hard
    assert outcome(exact + 2e-3).hard
    assert outcome(exact, mass=m * (1 + 3e-6)).failed


def test_maximal_chains():
    z4 = [["0"], ["0", "2"], ["0", "1", "2", "3"]]
    klein = [["e"], ["e", "a"], ["e", "b"], ["e", "c"], ["e", "a", "b", "c"]]
    assert workloads.maximal_chains(z4) == 1
    assert workloads.maximal_chains(klein) == 3


def test_subgroup_types_have_fixed_orders():
    rng = random.Random(0)
    for desc, types in workloads.SUBGROUP_TYPES.items():
        for _ in range(20):
            orders = tuple(len(workloads.generated(desc, t(rng)))
                           for t in types)
            assert orders == workloads.SUBGROUP_TYPE_ORDERS[desc]


def test_generated_subgroups():
    assert len(workloads.generated("D12", ["r3"])) == 4
    assert len(workloads.generated("D12", ["r1", "s0"])) == 24
    assert len(workloads.generated("S5", ["10234", "12340"])) == 120
    assert workloads.generated("S5", ["01234"]) == ["01234"]


def test_stratified_draws_cover_each_range():
    rng = random.Random(0)
    for j in range(6):
        draws = workloads._Stratum(rng, j, 6)
        assert all(j / 6 <= draws.random() < (j + 1) / 6 for _ in range(50))
    kinds = [workloads._expr_spec(workloads._Stratum(rng, j, 8), "kinked")
             for j in range(8)]
    assert sorted(payload.split("(")[0] for payload, *_ in kinds) == \
        ["abs", "abs", "log", "log", "min", "min", "sqrt", "sqrt"]
    assert sum(group.startswith("R*mul") for _, group, *_ in kinds) == 4


def test_latency_is_scaled_by_the_nearby_kernel_time():
    ref = calibrate.REFERENCE_S
    quiet = {"latencies": [0.002, 0.004, 0.001], "kernels": [ref] * 3}
    busy = {"latencies": [0.004, 0.008, 0.002], "kernels": [2 * ref] * 3}
    # a host twice as slow for the kernel reads as the same program
    for passes in ([quiet], [busy], [quiet, busy, busy]):
        assert run.per_operation(passes) == pytest.approx([0.002, 0.004,
                                                           0.001])
    # a program twice as slow on the same host reads twice as slow
    slow = {"latencies": [0.004, 0.008, 0.002], "kernels": [ref] * 3}
    assert run.per_operation([slow]) == pytest.approx([0.004, 0.008,
                                                       0.002])
    assert calibrate.speed([calibrate.sample() for _ in range(5)]) > 0


def test_same_seed_same_inputs(tmp_path):
    for name in workloads.WORKLOADS:
        a = workloads.generate(name, 5, str(tmp_path / "a"))
        b = workloads.generate(name, 5, str(tmp_path / "a"))
        c = workloads.generate(name, 6, str(tmp_path / "c"))
        assert a == b
        assert [op["argv"] for op in a if op["kind"] == "cli"] != \
            [op["argv"] for op in c if op["kind"] == "cli"]
        assert len(a) >= 100


def test_fails_without_the_program(tmp_path):
    root = os.path.dirname(HERE)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "discrete", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
