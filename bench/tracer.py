"""Per-layer tracing of haarent from outside the package.

Tracer.install() replaces each traced public function with a wrapper at
every haarent module that binds it (for example entropy_finite is bound in
haarent.entropy, haarent.verifier, haarent.cli and haarent itself), and
Measure.from_density on its class. Tracer.uninstall() puts the originals
back. The library is not modified on disk.

A wrapper records a span: it pushes a frame on the tracer's stack, runs the
function, and on return adds the elapsed time to the span name's inclusive
total and, minus the time of the spans it directly contains, to its self
total. Spans are aggregated by name in memory rather than stored one by
one, because a pass makes millions of integrand and expression evaluations.
Evaluations nested inside dsl.evaluate are counted but not timed, which
keeps the tree walk's cost close to its untraced cost.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

FORMS = {
    "entropy_finite": "finite", "entropy_prob": "prob",
    "entropy_weight": "weight", "change_reference": "change_reference",
    "entropic_gap": "entropic_gap",
    "nonneg_certificate": "nonneg_certificate",
}

SPANS = {
    # (module, function): span name
    ("quadrature", "integrate"): "quadrature.integrate",
    ("dsl", "parse"): "dsl.parse",
    ("dsl", "breakpoints"): "dsl.breakpoints",
    ("dsl", "evaluate"): "dsl.evaluate",
    **{("entropy", fn): f"entropy.{form}" for fn, form in FORMS.items()},
    ("measures", "mass"): "measures.mass",
    ("measures", "radon_nikodym"): "measures.radon_nikodym",
    ("supnorm", "sup_density"): "supnorm.sup_density",
    ("supnorm", "check_translate_bound"): "supnorm.translate_bound",
    ("groups", "subgroups"): "groups.subgroups",
    ("groups", "subgroup_chains"): "groups.chains",
    ("groups", "translate_set"): "groups.translate_set",
    ("maxent", "maximize_entropy"): "maxent.solve",
    ("maxent", "entropy_of_weights"): "maxent.objective",
    ("maxent", "concavity_probe"): "maxent.concavity",
    ("cli", "main"): "cli.main",
    ("cli", "build_parser"): "cli.parser",
    ("report", "reports_to_json"): "report.render",
    ("report", "reports_to_csv"): "report.render",
    ("report", "reports_to_table"): "report.render",
    ("verifier", "verify"): "verifier.verify",
    ("verifier", "run_examples"): "verifier.examples",
}

FORM_SPANS = frozenset(f"entropy.{form}" for form in FORMS.values())


class Tracer:
    def __init__(self):
        self._patches: list = []
        self.stack: list = []      # open spans: [name, seconds of children]
        self.calls: Counter = Counter()
        self.incl: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.claim_s: defaultdict = defaultdict(float)
        self.reset()

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        """Forget everything recorded; wrappers hold these containers, so
        they are cleared in place."""
        for table in (self.stack, self.calls, self.incl, self.self_s,
                      self.counts, self.claim_s):
            table.clear()
        self.sup_distance_max = 0.0
        self._eval_busy = False    # inside dsl.evaluate or dsl.breakpoints

    def _run(self, name: str, fn, args, kwargs):
        frame = [name, 0.0]
        stack = self.stack
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            stack.pop()
            self.calls[name] += 1
            self.incl[name] += dt
            self.self_s[name] += dt - frame[1]
            if stack:
                stack[-1][1] += dt

    def _spanned(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self._run(name, fn, args, kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    # -- layer-specific wrappers -------------------------------------------

    def _integrate(self, fn):
        from haarent.errors import ConvergenceError
        name = "quadrature.integrate"
        counts = self.counts

        @functools.wraps(fn)
        def integrate(f, s, *args, **kwargs):
            if s.is_finite:
                counts["quadrature.finite_calls"] += 1
            for form in {fr[0] for fr in self.stack} & FORM_SPANS:
                counts[f"{form}.integrals"] += 1
            evals = [0, 0.0]   # count and seconds of integrand calls

            # A light wrapper rather than a span: it runs once per node of
            # the quadrature, and integrate calls nothing else that is
            # traced, so its self time is its duration minus these seconds.
            def integrand(x):
                t0 = perf_counter()
                try:
                    return f(x)
                finally:
                    evals[0] += 1
                    evals[1] += perf_counter() - t0

            stack = self.stack
            stack.append([name, 0.0])
            t0 = perf_counter()
            try:
                return fn(integrand, s, *args, **kwargs)
            except ConvergenceError:
                counts["quadrature.convergence_errors"] += 1
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self.calls[name] += 1
                self.incl[name] += dt
                self.self_s[name] += dt - evals[1]
                counts["quadrature.evals"] += evals[0]
                self.incl["quadrature.integrand"] += evals[1]
                if stack:
                    stack[-1][1] += dt
        return integrate

    def _evaluate(self, fn):
        run, counts = self._run, self.counts

        @functools.wraps(fn)
        def evaluate(e, x):
            counts["dsl.nodes"] += 1
            if self._eval_busy:
                return fn(e, x)
            counts["dsl.points"] += 1
            self._eval_busy = True
            try:
                return run("dsl.evaluate", fn, (e, x), {})
            finally:
                self._eval_busy = False
        return evaluate

    def _breakpoints(self, fn):
        @functools.wraps(fn)
        def breakpoints(*args, **kwargs):
            busy, self._eval_busy = self._eval_busy, True
            try:
                return self._run("dsl.breakpoints", fn, args, kwargs)
            finally:
                self._eval_busy = busy
        return breakpoints

    def _objective(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def entropy_of_weights(*args, **kwargs):
            counts["maxent.objective_evals"] += 1
            if self.stack and self.stack[-1][0] == "maxent.solve":
                counts["maxent.solve_evals"] += 1
            return fn(*args, **kwargs)
        return entropy_of_weights

    def _parser(self, fn):
        @functools.wraps(fn)
        def build_parser(*args, **kwargs):
            parser = self._run("cli.parser", fn, args, kwargs)
            parse_args = parser.parse_args
            parser.parse_args = lambda *a, **k: self._run(
                "cli.parser", parse_args, a, k)
            return parser
        return build_parser

    def _after_solve(self, fn):
        signature = inspect.signature(fn)

        def after(args, kwargs, result):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            nu = [float(v) for v in bound.arguments["nu_weights"]]
            mass = bound.arguments["mass"]
            total = sum(nu)
            point = result[0]
            dist = max(abs(w - mass * v / total)
                       for w, v in zip(point.weights, nu))
            self.sup_distance_max = max(self.sup_distance_max, dist)
        return after

    def _count_reports(self, reports) -> None:
        self.counts["verifier.reports"] += len(reports)
        self.counts["verifier.failed"] += sum(not r.passed for r in reports)
        self.counts["verifier.skipped"] += sum(r.skipped for r in reports)

    def _verify(self, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def verify(*args, **kwargs):
            before = self.incl["verifier.verify"]
            reports = self._run("verifier.verify", fn, args, kwargs)
            claim = signature.bind(*args, **kwargs).arguments["claim_id"]
            self.claim_s[claim] += self.incl["verifier.verify"] - before
            self._count_reports(reports)
            return reports
        return verify

    def _found(self, counter: str):
        def after(args, kwargs, result):
            self.counts[counter] += len(result)
        return after

    def _wrap(self, name: str, fn):
        special = {"quadrature.integrate": self._integrate,
                   "dsl.evaluate": self._evaluate,
                   "dsl.breakpoints": self._breakpoints,
                   "maxent.objective": self._objective,
                   "cli.parser": self._parser,
                   "verifier.verify": self._verify}
        if name in special:
            return special[name](fn)
        after = None
        if name == "maxent.solve":
            after = self._after_solve(fn)
        elif name == "groups.subgroups":
            after = self._found("groups.subgroups_found")
        elif name == "groups.chains":
            after = self._found("groups.chains_found")
        elif name == "verifier.examples":
            def after(args, kwargs, reports):
                self._count_reports(reports)
        return self._spanned(name, fn, after)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced name at every haarent module that binds it."""
        import haarent
        import haarent.cli  # the package does not import its CLI module
        from haarent.measures import Measure
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "haarent" or n.startswith("haarent."))
                   and m is not None]
        for (mod_name, fn_name) in SPANS:
            original = getattr(getattr(haarent, mod_name), fn_name)
            wrapper = self._wrap(SPANS[(mod_name, fn_name)], original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        original = Measure.__dict__["from_density"]
        self._patches.append((Measure, "from_density", original))
        Measure.from_density = classmethod(
            self._spanned("measures.from_density", original.__func__))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- metrics -----------------------------------------------------------

    def metrics(self, claims) -> dict:
        """Per-layer metrics of everything recorded since reset()."""
        calls, incl, self_s, c = self.calls, self.incl, self.self_s, self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        q_calls = calls["quadrature.integrate"]
        solves = calls["maxent.solve"]
        out = {
            "quadrature.calls": q_calls,
            "quadrature.finite_calls": c["quadrature.finite_calls"],
            "quadrature.evals": c["quadrature.evals"],
            "quadrature.evals_per_call": ratio(c["quadrature.evals"], q_calls),
            "quadrature.self_s": self_s["quadrature.integrate"],
            "quadrature.integrand_s": incl["quadrature.integrand"],
            "quadrature.convergence_errors":
                c["quadrature.convergence_errors"],
            "dsl.parse.calls": calls["dsl.parse"],
            "dsl.parse_s": incl["dsl.parse"],
            "dsl.breakpoints.calls": calls["dsl.breakpoints"],
            "dsl.breakpoints_s": incl["dsl.breakpoints"],
            "dsl.points": c["dsl.points"],
            "dsl.nodes": c["dsl.nodes"],
            "dsl.eval_s": incl["dsl.evaluate"],
        }
        for form in FORMS.values():
            span = f"entropy.{form}"
            out[f"{span}.calls"] = calls[span]
            out[f"{span}.self_s"] = self_s[span]
            out[f"{span}.integrals"] = ratio(c[f"{span}.integrals"],
                                             calls[span])
        out.update({
            "measures.mass.calls": calls["measures.mass"],
            "measures.mass_s": incl["measures.mass"],
            "measures.radon_nikodym.calls": calls["measures.radon_nikodym"],
            "measures.from_density.calls": calls["measures.from_density"],
            "measures.from_density_s": incl["measures.from_density"],
            "supnorm.sup_density.calls": calls["supnorm.sup_density"],
            "supnorm.sup_density_s": incl["supnorm.sup_density"],
            "supnorm.translate_bound.calls": calls["supnorm.translate_bound"],
            "supnorm.translate_bound_s": incl["supnorm.translate_bound"],
            "groups.subgroups.calls": calls["groups.subgroups"],
            "groups.subgroups_s": incl["groups.subgroups"],
            "groups.subgroups_found": c["groups.subgroups_found"],
            "groups.chains.calls": calls["groups.chains"],
            "groups.chains_s": incl["groups.chains"],
            "groups.chains_found": c["groups.chains_found"],
            "groups.translate_set.calls": calls["groups.translate_set"],
            "groups.translate_s": incl["groups.translate_set"],
            "maxent.solves": solves,
            "maxent.solve_s": incl["maxent.solve"],
            "maxent.objective_evals": c["maxent.objective_evals"],
            "maxent.iters_per_solve":
                ratio(c["maxent.solve_evals"] - solves, solves),
            "maxent.sup_distance_max": self.sup_distance_max,
            "maxent.concavity_s": incl["maxent.concavity"],
            "cli.calls": calls["cli.main"],
            "cli.parser_s": incl["cli.parser"],
            "cli.self_s": self_s["cli.main"],
            "report.render_s": incl["report.render"],
            "verifier.reports": c["verifier.reports"],
            "verifier.failed": c["verifier.failed"],
            "verifier.skipped": c["verifier.skipped"],
            "verifier.examples_s": incl["verifier.examples"],
        })
        for claim in claims:
            out[f"verifier.claim.{claim}_s"] = self.claim_s[claim]
        return out
