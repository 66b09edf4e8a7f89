import math
from dataclasses import asdict

import pytest

from haarent import report
from haarent.entropy import entropy_finite
from haarent.errors import CatalogError, DomainError
from haarent.groups import (AdditiveReals, Dihedral, haar, subgroup_chains)
from haarent.measures import MeasurableSet, Measure
from haarent.verifier import (catalog, claim_ids, run_all, run_examples,
                              summary_to_table, verify)

ALL_IDS = claim_ids()


class TestCatalog:
    def test_eighteen_claims(self):
        assert len(catalog()) == 18

    def test_ids_unique(self):
        assert len(set(ALL_IDS)) == len(ALL_IDS)

    def test_ids_ordered_like_catalog(self):
        assert ALL_IDS == tuple(spec.claim_id for spec in catalog())

    def test_every_spec_documented(self):
        for spec in catalog():
            assert spec.statement
            assert callable(spec.checker)
            assert spec.default_tol > 0

    def test_known_families_present(self):
        assert "lem-finite-form" in ALL_IDS
        assert "thm-general-inequality" in ALL_IDS
        assert "prop-monotonicity" in ALL_IDS
        assert "ex-mixed-reference" in ALL_IDS


class TestVerify:
    def test_unknown_claim_lists_known_ids(self):
        with pytest.raises(CatalogError) as info:
            verify("thm-nonexistent")
        assert "lem-finite-form" in str(info.value)

    @pytest.mark.parametrize("claim_id", ALL_IDS)
    def test_default_tolerances_pass(self, claim_id):
        reports = verify(claim_id, trials=4, seed=0)
        assert len(reports) == 4
        for t, r in enumerate(reports):
            assert r.claim_id == claim_id
            assert r.trial == t
            assert r.seed == 0
            assert r.passed

    def test_reports_reproducible(self):
        a = verify("lem-finite-form", trials=5, seed=3)
        b = verify("lem-finite-form", trials=5, seed=3)
        assert a == b

    def test_different_seeds_sample_different_instances(self):
        a = verify("lem-finite-form", trials=3, seed=0)
        b = verify("lem-finite-form", trials=3, seed=1)
        assert any(x.lhs != y.lhs for x, y in zip(a, b))

    def test_passed_iff_slack_within_tolerance(self):
        for claim_id in ALL_IDS:
            for r in verify(claim_id, trials=3, seed=5):
                assert r.passed == (r.slack >= -r.tolerance)

    def test_tolerance_override_recorded(self):
        for r in verify("lem-nonnegativity", trials=2, seed=0, tol=0.5):
            assert r.tolerance == 0.5

    def test_negative_trials_rejected(self):
        with pytest.raises(DomainError, match="trials must be >= 0"):
            verify("lem-finite-form", trials=-1)
        assert verify("lem-finite-form", trials=0) == []

    def test_exact_trials_tighten_to_1e_12(self):
        # the odd trials of lem-nonnegativity are sums over Z12
        reports = verify("lem-nonnegativity", trials=4, seed=0)
        assert [r.tolerance for r in reports] == [1e-10, 1e-12] * 2

    def test_impossible_tolerance_fails_quadrature_claims(self):
        reports = verify("lem-finite-form", trials=6, seed=0, tol=1e-20)
        assert any(not r.passed for r in reports)


class TestRunExamples:
    def test_report_inventory(self):
        reports = run_examples()
        assert len(reports) == 14
        by_id = {}
        for r in reports:
            by_id.setdefault(r.claim_id, []).append(r)
        assert len(by_id["ex-additive-interval"]) == 3
        assert len(by_id["ex-multiplicative-interval"]) == 3
        assert len(by_id["ex-mixed-reference"]) == 8

    def test_all_pass(self):
        assert all(r.passed for r in run_examples())

    def test_additive_targets_are_log_lengths(self):
        reports = [r for r in run_examples()
                   if r.claim_id == "ex-additive-interval"]
        for r in reports:
            assert math.exp(r.rhs) > 0
            assert r.lhs == pytest.approx(r.rhs, abs=1e-8)

    def test_additive_value_direct(self):
        add = AdditiveReals((-10.0, 15.0))
        nu = haar(add)
        s = MeasurableSet.of_interval(add.carrier, 1.0, math.e)
        got = entropy_finite(nu, nu, s).nats
        assert got == pytest.approx(math.log(math.e - 1.0), abs=1e-8)

    def test_non_invariance_reports_strict(self):
        tail = run_examples()[-2:]
        for r in tail:
            assert r.claim_id == "ex-mixed-reference"
            assert r.tolerance == 0.0
            assert r.lhs == 1e-3
            assert r.rhs > 1e-3
            assert r.passed
            assert "non-invariance" in r.scope_notes


class TestChainMonotonicity:
    def test_dihedral_six_chains_strictly_increase(self):
        g = Dihedral(6)
        nu = haar(g)
        counting = Measure.counting(g.carrier)
        for chain in subgroup_chains(g):
            values = [entropy_finite(nu, counting, h.as_set()).nats
                      for h in chain]
            for prev, nxt in zip(values, values[1:]):
                assert nxt > prev
            assert values[0] == 0.0
            assert values[-1] == math.log(12.0)


class TestRunAll:
    def test_small_run_is_green(self):
        summary = run_all(seed=0, trials=2)
        assert summary.ok
        assert summary.total_failed == 0
        assert len(summary.reports) == 18 * 2 + 14
        assert {c.claim_id for c in summary.claims} == set(ALL_IDS)

    def test_summary_counts_match_reports(self):
        summary = run_all(seed=0, trials=2)
        assert summary.total_passed + summary.total_failed \
            + summary.total_skipped == len(summary.reports)

    def test_to_dict_shape(self):
        summary = run_all(seed=1, trials=1)
        d = summary.to_dict()
        assert d["seed"] == 1
        assert d["trials"] == 1
        assert d["failed"] == 0
        assert len(d["claims"]) == 18
        assert set(d["claims"][0]) == {"claim_id", "passed", "failed",
                                       "skipped", "worst_slack"}

    def test_zero_trials_warns_and_skips(self):
        with pytest.warns(UserWarning):
            summary = run_all(seed=0, trials=0)
        assert summary.ok
        assert summary.total_skipped == 18
        assert summary.total_passed == 0

    def test_negative_trials_rejected(self):
        with pytest.raises(DomainError, match="trials must be >= 0"):
            run_all(seed=0, trials=-3)

    def test_table_rendering(self):
        summary = run_all(seed=0, trials=1)
        table = summary_to_table(summary)
        assert table.splitlines()[-1].startswith("PASS")
        for claim_id in ALL_IDS:
            assert claim_id in table

    def test_reproducible(self):
        a = run_all(seed=4, trials=2)
        b = run_all(seed=4, trials=2)
        assert a.reports == b.reports


class TestReportRecords:
    REPORTS = [
        report.le_report("lem-x", 0.25, 1.0, 1e-9, seed=3, trial=2,
                         scope_notes="a, \"quoted\" note"),
        report.eq_report("lem-y", -0.0, math.inf, 1e-12, seed=2 ** 40),
        report.eq_report("lem-z", math.nan, 1.0, 1e-6, seed=0, trial=7),
        report.skip_report("lem-w", "no instance", 1e-9, seed=5, trial=1),
    ]

    @staticmethod
    def _asdict_row(r):
        d = asdict(r)
        return {k: d[k] for k in report.CSV_COLUMNS}

    def test_to_dict_matches_asdict(self):
        for r in self.REPORTS:
            got, want = r.to_dict(), self._asdict_row(r)
            assert list(got) == list(want) == report.CSV_COLUMNS
            for k in report.CSV_COLUMNS:
                assert type(got[k]) is type(want[k])
                assert repr(got[k]) == repr(want[k])

    def test_serializations_unchanged(self, monkeypatch):
        rendered = [render(self.REPORTS) for render in (
            report.reports_to_json, report.reports_to_csv,
            report.reports_to_table)]
        monkeypatch.setattr(report.VerificationReport, "to_dict",
                            self._asdict_row)
        assert rendered == [render(self.REPORTS) for render in (
            report.reports_to_json, report.reports_to_csv,
            report.reports_to_table)]
