import json
import math
import re
import shlex
import time
from pathlib import Path

import pytest

from haarent import cli
from haarent.cli import main, measure_from_spec
from haarent.measures import MeasurableSet, Measure, Space, mass
from haarent.supnorm import sup_density


def write_spec(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture
def interval_specs(tmp_path):
    space = {"kind": "interval", "bounds": [0.0, 2.0]}
    uniform = write_spec(tmp_path, "uniform.json", {
        "space": space,
        "density": {"kind": "builtin", "payload": "uniform"},
        "label": "flat"})
    lebesgue = write_spec(tmp_path, "lebesgue.json", {
        "space": space,
        "density": {"kind": "builtin", "payload": "lebesgue"},
        "label": "nu"})
    return uniform, lebesgue


@pytest.fixture
def spaceless_uniform(tmp_path):
    return write_spec(tmp_path, "nospace.json", {
        "density": {"kind": "builtin", "payload": "uniform"}})


class TestEntropyCommand:
    def test_flat_measure_scores_log_length(self, interval_specs, capsys):
        uniform, lebesgue = interval_specs
        code = main(["entropy", "--measure", uniform,
                     "--reference", lebesgue, "--format", "json"])
        assert code == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["form"] == "Finite"
        assert rec["mass"] == pytest.approx(2.0, abs=1e-10)
        assert rec["nats"] == pytest.approx(math.log(2.0), abs=1e-8)

    def test_table_output_contains_fields(self, interval_specs, capsys):
        uniform, lebesgue = interval_specs
        assert main(["entropy", "--measure", uniform,
                     "--reference", lebesgue]) == 0
        out = capsys.readouterr().out
        assert "nats" in out
        assert "mass" in out

    def test_group_reference(self, tmp_path, capsys):
        m = write_spec(tmp_path, "pair.json", {
            "density": {"kind": "table", "payload": {"0": 1.0, "3": 1.0}}})
        code = main(["entropy", "--measure", m, "--group", "Z6",
                     "--format", "json"])
        assert code == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["nats"] == pytest.approx(math.log(2.0), abs=1e-12)

    @pytest.mark.parametrize("tol", ["1e-6", "1e-8", "1e-10"])
    @pytest.mark.parametrize("group", ["R*mul:[0.01,1000.0]",
                                       "R+add:[0.01,1000.0]"])
    def test_reciprocal_on_full_window(self, tmp_path, capsys, group, tol):
        m = write_spec(tmp_path, "inv.json", {
            "density": {"kind": "expr", "payload": "1/x"}})
        assert main(["entropy", "--measure", m, "--group", group,
                     "--tol", tol, "--format", "json"]) == 0
        nats = json.loads(capsys.readouterr().out)["nats"]
        mass = math.log(1e5)
        # I, the integral of q log q against the reference: q = 1 against
        # Haar, q = 1/x against Lebesgue
        i = 0.0 if group.startswith("R*") else \
            -(math.log(1000.0) ** 2 - math.log(0.01) ** 2) / 2.0
        want = math.log(mass) - i / mass
        # each integral within rel tol moves log M - I/M by at most this
        assert abs(nats - want) <= float(tol) * (1.0 + 2.0 * abs(i) / mass)

    def test_set_restriction(self, tmp_path, capsys):
        space = {"kind": "interval", "bounds": [0.0, 4.0]}
        m = write_spec(tmp_path, "m.json", {
            "space": space,
            "density": {"kind": "builtin", "payload": "uniform"}})
        ref = write_spec(tmp_path, "ref.json", {
            "space": space,
            "density": {"kind": "builtin", "payload": "lebesgue"}})
        code = main(["entropy", "--measure", m, "--reference", ref,
                     "--set", "[1,3]", "--format", "json"])
        assert code == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["nats"] == pytest.approx(math.log(2.0), abs=1e-8)

    def test_expr_density(self, tmp_path, capsys):
        space = {"kind": "interval", "bounds": [0.0, 1.0]}
        m = write_spec(tmp_path, "m.json", {
            "space": space, "density": {"kind": "expr", "payload": "2*x"}})
        ref = write_spec(tmp_path, "ref.json", {
            "space": space,
            "density": {"kind": "builtin", "payload": "lebesgue"}})
        code = main(["entropy", "--measure", m, "--reference", ref,
                     "--format", "json"])
        assert code == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["nats"] == pytest.approx(0.5 - math.log(2.0), abs=1e-8)

    def test_subgroup_generated_set(self, spaceless_uniform, capsys):
        code = main(["entropy", "--measure", spaceless_uniform,
                     "--group", "D6", "--subgroup", "r2",
                     "--format", "json"])
        assert code == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["nats"] == pytest.approx(math.log(3.0), abs=1e-12)

    def test_subgroup_excludes_set(self, spaceless_uniform, capsys):
        code = main(["entropy", "--measure", spaceless_uniform,
                     "--group", "D6", "--subgroup", "r2",
                     "--set", "full"])
        assert code == 2
        assert "drop --set" in capsys.readouterr().err

    def test_subgroup_needs_finite_group(self, spaceless_uniform, capsys):
        code = main(["entropy", "--measure", spaceless_uniform,
                     "--group", "R+add:[0,10]", "--subgroup", "1"])
        assert code == 2

    def test_subgroup_unknown_label_exits_two(self, spaceless_uniform,
                                              capsys):
        code = main(["entropy", "--measure", spaceless_uniform,
                     "--group", "D6", "--subgroup", "r2,x9"])
        assert code == 2
        assert capsys.readouterr().err == \
            "haarent: error: 'x9' is not an element of D6\n"

    def test_reference_and_group_exclusive(self, interval_specs, capsys):
        uniform, lebesgue = interval_specs
        assert main(["entropy", "--measure", uniform,
                     "--reference", lebesgue, "--group", "Z6"]) == 2
        assert main(["entropy", "--measure", uniform]) == 2

    def test_space_mismatch_rejected(self, tmp_path, interval_specs, capsys):
        uniform, _ = interval_specs
        other = write_spec(tmp_path, "other.json", {
            "space": {"kind": "interval", "bounds": [0.0, 5.0]},
            "density": {"kind": "builtin", "payload": "lebesgue"}})
        assert main(["entropy", "--measure", uniform,
                     "--reference", other]) == 2


class TestSupnormCommand:
    def test_single_measure_sup(self, tmp_path, capsys):
        space = {"kind": "interval", "bounds": [0.0, 1.0]}
        m = write_spec(tmp_path, "m.json", {
            "space": space, "density": {"kind": "expr", "payload": "2*x"}})
        ref = write_spec(tmp_path, "ref.json", {
            "space": space,
            "density": {"kind": "builtin", "payload": "lebesgue"}})
        code = main(["supnorm", "--measure", m, "--reference", ref,
                     "--format", "json"])
        assert code == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec == {"sup": 2.0}

    def test_pair_normalization_report(self, tmp_path, capsys):
        space = {"kind": "interval", "bounds": [0.0, 1.0]}
        rho = write_spec(tmp_path, "rho.json", {
            "space": space, "density": {"kind": "expr", "payload": "2*x"}})
        xi = write_spec(tmp_path, "xi.json", {
            "space": space,
            "density": {"kind": "expr", "payload": "exp(-x)"}})
        ref = write_spec(tmp_path, "ref.json", {
            "space": space,
            "density": {"kind": "builtin", "payload": "lebesgue"}})
        code = main(["supnorm", "--measure", rho, "--measure", xi,
                     "--reference", ref, "--format", "json"])
        assert code == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["c"] == 1.0
        assert rec["sup_rho"] == pytest.approx(2.0, abs=1e-9)
        assert rec["scale_rho"] == pytest.approx(0.5, abs=1e-9)
        assert rec["scale_xi"] == pytest.approx(1.0, abs=1e-9)

    def test_window_as_wide_as_the_float_range(self, tmp_path, capsys):
        # the width 2e308 overflows; the load-time grid and the refined
        # sup grid step by halves of it
        m = write_spec(tmp_path, "m.json", {
            "density": {"kind": "expr", "payload": "0.5*exp(-x^2)"}})
        assert main(["supnorm", "--measure", m, "--group",
                     "R+add:[-1e308,1e308]", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"sup": 0.5}

    @pytest.mark.parametrize("density", [
        {"kind": "builtin", "payload": "uniform"},
        {"kind": "table", "payload": {"0": 0.5, "1": 1.0}}])
    def test_empty_set_exits_three(self, tmp_path, capsys, density):
        m = write_spec(tmp_path, "m.json", {"density": density})
        assert main(["supnorm", "--measure", m, "--group", "Z4",
                     "--set", "{}"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "empty" in captured.err

    def test_three_measures_rejected(self, tmp_path, capsys):
        space = {"kind": "interval", "bounds": [0.0, 1.0]}
        paths = [write_spec(tmp_path, f"m{i}.json", {
            "space": space,
            "density": {"kind": "builtin", "payload": "uniform"}})
            for i in range(3)]
        ref = write_spec(tmp_path, "ref.json", {
            "space": space,
            "density": {"kind": "builtin", "payload": "lebesgue"}})
        argv = ["supnorm"]
        for p in paths:
            argv += ["--measure", p]
        argv += ["--reference", ref]
        assert main(argv) == 2


class TestVerifyCommand:
    def test_single_claim_passes(self, capsys):
        code = main(["verify", "--claim", "lem-finite-form",
                     "--trials", "3", "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "haarent-report/1"
        assert len(doc["reports"]) == 3
        assert all(r["passed"] for r in doc["reports"])

    def test_all_claims_small_run(self, capsys):
        code = main(["verify", "--all", "--trials", "1",
                     "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "haarent-run/1"
        assert doc["failed"] == 0
        assert len(doc["claims"]) == 18

    def test_all_table_verdict_line(self, capsys):
        assert main(["verify", "--all", "--trials", "1"]) == 0
        out = capsys.readouterr().out
        assert out.rstrip().splitlines()[-1].startswith("PASS")

    def test_mixed_reference_seed_no_longer_gives_up(self, capsys):
        # this seed used to exit 3 with an error bound of 3.3e-13, far
        # inside the tolerance
        assert main(["verify", "--claim", "ex-mixed-reference", "--seed",
                     "288545017", "--trials", "20"]) == 0
        capsys.readouterr()

    def test_unknown_claim_exits_two(self, capsys):
        code = main(["verify", "--claim", "thm-bogus"])
        assert code == 2
        assert "thm-bogus" in capsys.readouterr().err

    def test_impossible_tolerance_exits_one(self, capsys):
        code = main(["verify", "--claim", "lem-finite-form",
                     "--trials", "4", "--tol", "1e-20"])
        assert code == 1

    def test_csv_format(self, capsys):
        code = main(["verify", "--claim", "lem-finite-form",
                     "--trials", "2", "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("claim_id,trial,passed")
        assert len(lines) == 3

    @pytest.mark.parametrize("which", [["--claim", "lem-finite-form"],
                                       ["--all"]], ids=["claim", "all"])
    @pytest.mark.parametrize("trials", ["-1", "-3"])
    def test_negative_trials_exit_two(self, capsys, which, trials):
        assert main(["verify", *which, "--trials", trials]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("haarent: error: --trials must be >= 0, "
                                f"got {trials}\n")

    def test_zero_trials_still_skips(self, capsys):
        with pytest.warns(UserWarning):
            assert main(["verify", "--all", "--trials", "0"]) == 0
        assert capsys.readouterr().out.rstrip().splitlines()[-1] \
            .startswith("PASS")
        assert main(["verify", "--claim", "lem-finite-form", "--trials",
                     "0", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["reports"] == []

    def test_deterministic_output(self, capsys):
        argv = ["verify", "--claim", "lem-weight-form", "--trials", "3",
                "--format", "csv"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second


class TestExamplesCommand:
    def test_exits_zero(self, capsys):
        assert main(["examples"]) == 0
        assert capsys.readouterr().out

    def test_csv_has_fourteen_rows(self, capsys):
        assert main(["examples", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 15


class TestMaxentCommand:
    def test_weighted_reference(self, capsys):
        code = main(["maxent", "--nu", "1,2,3", "--iters", "1500",
                     "--format", "json"])
        assert code == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["n"] == 3
        assert rec["entropy"] == pytest.approx(math.log(6.0), abs=1e-8)
        assert rec["sup_distance"] < 1e-4
        for w, o in zip(rec["weights"], (1.0 / 6, 2.0 / 6, 3.0 / 6)):
            assert w == pytest.approx(o, abs=1e-4)

    def test_uniform_reference_by_count(self, capsys):
        code = main(["maxent", "--n", "4", "--iters", "800",
                     "--format", "json"])
        assert code == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["entropy"] == pytest.approx(math.log(4.0), abs=1e-7)

    @pytest.mark.parametrize("nu, want", [
        ("1e-170,1e170", [0.0, 1.0]), ("1e170,1e-170", [1.0, 0.0]),
        ("1e308,1e308", [0.5, 0.5])])
    def test_references_past_the_float_range(self, capsys, nu, want):
        # the ratios of the first two span more than the floats, and the
        # sum of the last is past the largest one
        assert main(["maxent", "--nu", nu, "--format", "json"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["maximizer"] == want
        assert rec["sup_distance"] <= 2.0 ** -53
        assert rec["weights"][want.index(min(want))] <= min(want)

    @pytest.mark.parametrize("nu, mass, entropy", [
        ("1e300,1e300", "1e-300", 1.3822442029769874e-297),
        ("1e-300,1e-300", "1e300", -1.3808579086158676e+303)])
    def test_extreme_masses_print_a_finite_entropy(self, capsys, nu, mass,
                                                   entropy):
        # each weight over its nu underflows or overflows; the entropy is
        # finite, and the output is JSON (no -Infinity)
        assert main(["maxent", "--nu", nu, "--mass", mass,
                     "--format", "json"]) == 0

        def reject(name):
            raise ValueError(f"{name} is not JSON")
        rec = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert rec["entropy"] == entropy
        assert rec["sup_distance"] == 0.0

    def test_huge_mass_over_a_wide_reference(self, capsys):
        # mass * nu / sum(nu) is 1e300 for the second weight; a sum of
        # nu over a fixed power of two put inf there
        assert main(["maxent", "--nu", "1e-30,1e300", "--mass", "1e300",
                     "--step", "0.1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "sup_distance  0.0" in lines
        assert "maximizer     1e-30 1e+300" in lines

    def test_csv_rows(self, capsys):
        assert main(["maxent", "--nu", "1,1", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "index,nu,weight,maximizer"
        assert len(lines) == 3

    def test_usage_errors(self, capsys):
        assert main(["maxent"]) == 2
        assert main(["maxent", "--n", "0"]) == 2
        assert main(["maxent", "--nu", "1,banana"]) == 2
        assert main(["maxent", "--nu", "1,-2"]) == 2
        assert main(["maxent", "--n", "2", "--nu", "1,2,3"]) == 2
        assert main(["maxent", "--n", "3", "--mass", "0"]) == 2
        assert main(["maxent", "--n", "3", "--iters", "0"]) == 2
        assert main(["maxent", "--n", "3", "--step", "-1"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("step", ["inf", "nan"])
    def test_non_finite_step_is_usage_error(self, capsys, step):
        assert main(["maxent", "--n", "3", "--step", step]) == 2
        assert "--step must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("mass", ["inf", "nan"])
    def test_non_finite_mass_is_usage_error(self, capsys, mass):
        assert main(["maxent", "--n", "3", "--mass", mass]) == 2
        assert "--mass must be positive and finite" in capsys.readouterr().err

    def test_diverging_step_exits_three(self, capsys):
        code = main(["maxent", "--nu", "1,2,3", "--step", "1e8",
                     "--iters", "200"])
        assert code == 3
        assert "step" in capsys.readouterr().err

    def test_iters_is_only_a_cap(self, capsys):
        argv = ["maxent", "--n", "3", "--format", "json", "--iters"]
        t0 = time.perf_counter()
        assert main(argv + ["100000000"]) == 0
        elapsed = time.perf_counter() - t0
        uncapped = capsys.readouterr().out
        assert main(argv + ["1500"]) == 0
        assert capsys.readouterr().out == uncapped
        assert elapsed < 1.0

    def test_readme_example_output(self, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
            encoding="utf-8")
        example = re.search(r"```sh\nhaarent (maxent --nu 1,2,3 [^\n]*)\n"
                            r"```\n\n```json\n(.*?)```", readme, re.S)
        assert example is not None
        assert main(shlex.split(example.group(1))) == 0
        assert capsys.readouterr().out == example.group(2)


class TestParserReuse:
    def test_interleaved_calls_match_solo_calls(self, tmp_path, capsys,
                                                monkeypatch):
        space = {"kind": "interval", "bounds": [0.0, 1.0]}
        rho = write_spec(tmp_path, "rho.json", {
            "space": space, "density": {"kind": "expr", "payload": "2*x"}})
        xi = write_spec(tmp_path, "xi.json", {
            "space": space,
            "density": {"kind": "expr", "payload": "exp(-x)"}})
        ref = write_spec(tmp_path, "ref.json", {
            "space": space,
            "density": {"kind": "builtin", "payload": "lebesgue"}})
        calls = [
            ["entropy", "--measure", rho, "--reference", ref,
             "--format", "json"],
            ["supnorm", "--measure", rho, "--measure", xi,
             "--reference", ref, "--format", "json"],
            ["verify", "--claim", "lem-finite-form", "--claim",
             "lem-weight-form", "--trials", "2", "--format", "csv"],
            ["examples", "--format", "csv"],
            ["maxent", "--nu", "1,2", "--iters", "50", "--format", "json"],
            ["supnorm", "--measure", xi, "--reference", ref],
            ["verify", "--claim", "lem-weight-form", "--trials", "1"],
            ["maxent", "--n", "3", "--bogus"],
            ["entropy", "--measure", xi, "--group", "Z6"],
        ]

        def run(argv):
            code = main(argv)
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        solo = []
        for argv in calls:
            monkeypatch.setattr(cli, "_built", None)
            solo.append(run(argv))
        assert [code for code, _, _ in solo] == [0, 0, 0, 0, 0, 0, 0, 2, 2]
        parser = cli._parser()
        for _ in range(2):
            assert [run(argv) for argv in calls] == solo
        assert cli._parser() is parser


class TestExitCodes:
    def test_missing_file_exits_two(self, capsys):
        assert main(["entropy", "--measure", "/does/not/exist.json",
                     "--group", "Z6"]) == 2

    def test_invalid_json_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["entropy", "--measure", str(bad),
                     "--group", "Z6"]) == 2
        assert "JSON" in capsys.readouterr().err

    def test_expr_error_positioned(self, tmp_path, capsys):
        m = write_spec(tmp_path, "bad.json", {
            "space": {"kind": "interval", "bounds": [0.0, 1.0]},
            "density": {"kind": "expr", "payload": "2*"}})
        ref = write_spec(tmp_path, "ref.json", {
            "space": {"kind": "interval", "bounds": [0.0, 1.0]},
            "density": {"kind": "builtin", "payload": "lebesgue"}})
        assert main(["entropy", "--measure", m,
                     "--reference", ref]) == 2
        assert "position" in capsys.readouterr().err

    def test_expr_eval_error_exits_three(self, tmp_path, capsys):
        space = {"kind": "interval", "bounds": [0.0, 2.0]}
        m = write_spec(tmp_path, "log.json", {
            "space": space, "density": {"kind": "expr", "payload": "log(x)"}})
        ref = write_spec(tmp_path, "ref.json", {
            "space": space,
            "density": {"kind": "builtin", "payload": "lebesgue"}})
        assert main(["entropy", "--measure", m, "--reference", ref]) == 3
        assert capsys.readouterr().err == (
            "haarent: error: log of a nonpositive value "
            "(in log(x) at x = 0.0)\n")

    @pytest.mark.parametrize("command", ["entropy", "supnorm"])
    @pytest.mark.parametrize("bad", ["Infinity", "-Infinity", "NaN"])
    def test_non_finite_table_weight_exits_two(self, tmp_path, capsys,
                                               command, bad):
        # json accepts these tokens; the weight must still be a number
        path = tmp_path / "inf.json"
        path.write_text('{"space": {"kind": "atoms", "atoms": ["a", "b"]}, '
                        '"density": {"kind": "table", "payload": '
                        '{"a": %s, "b": 1.0}}}' % bad, encoding="utf-8")
        ref = write_spec(tmp_path, "counting.json", {
            "space": {"kind": "atoms", "atoms": ["a", "b"]},
            "density": {"kind": "builtin", "payload": "counting"}})
        assert main([command, "--measure", str(path), "--reference",
                     ref]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "for atom 'a'" in captured.err

    def test_overflowing_mass_exits_three(self, tmp_path, capsys):
        space = {"kind": "atoms", "atoms": ["a", "b", "c"]}
        m = write_spec(tmp_path, "big.json", {
            "space": space, "density": {"kind": "table", "payload": {
                "a": 1e308, "b": 1e308, "c": 1e308}}})
        ref = write_spec(tmp_path, "ref.json", {
            "space": space,
            "density": {"kind": "builtin", "payload": "counting"}})
        assert main(["entropy", "--measure", m, "--reference", ref]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("haarent: error: the sum over 3 atoms "
                                       "exceeds the float range")

    @pytest.mark.parametrize("space, density, reference", [
        ({"kind": "interval", "bounds": [0, 1]},
         {"kind": "expr", "payload": "exp(1000)"},
         {"kind": "builtin", "payload": "lebesgue"}),
        ({"kind": "interval", "bounds": [0, 1]},
         {"kind": "expr", "payload": "1e308*(x+1)*10"},
         {"kind": "builtin", "payload": "lebesgue"}),
        ({"kind": "atoms", "atoms": ["a", "b"]},
         {"kind": "table", "payload": {"a": 1e300, "b": 1}},
         {"kind": "table", "payload": {"a": 1e-300, "b": 1}}),
    ], ids=["exp-1000", "product", "table-quotient"])
    @pytest.mark.parametrize("command", ["entropy", "supnorm"])
    def test_infinite_value_exits_three(self, tmp_path, capsys, command,
                                        space, density, reference):
        m = write_spec(tmp_path, "m.json", {"space": space,
                                            "density": density})
        ref = write_spec(tmp_path, "ref.json", {"space": space,
                                                "density": reference})
        assert main([command, "--measure", m, "--reference", ref,
                     "--format", "json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.search("exceeds the float range|outside the float range",
                         captured.err)

    @pytest.mark.parametrize("fmt", ["table", "json"])
    @pytest.mark.parametrize("mass", ["1e308", "1.7976931348623157e308"])
    def test_infinite_maxent_entropy_exits_three(self, capsys, mass, fmt):
        # p* is finite, but its entropy overflows to -inf
        assert main(["maxent", "--n", "3", "--mass", mass,
                     "--format", fmt]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.search("exceeds the float range|outside the float range",
                         captured.err)

    def test_unknown_flag_exits_two(self, capsys):
        assert main(["entropy", "--bogus"]) == 2
        capsys.readouterr()

    def test_unknown_command_exits_two(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_degenerate_measure_exits_three(self, tmp_path, capsys):
        m = write_spec(tmp_path, "zero.json", {
            "density": {"kind": "table", "payload": {}}})
        assert main(["entropy", "--measure", m, "--group", "Z4"]) == 3

    def test_bad_group_descriptor_exits_two(self, spaceless_uniform,
                                            capsys):
        assert main(["entropy", "--measure", spaceless_uniform,
                     "--group", "Q8"]) == 2

    @pytest.mark.parametrize("group", [
        "Z\u0661\u0662",   # an Arabic-Indic twelve is not the order 12
        "R+add:[a,1]"])   # a bound float() rejects: was a traceback
    def test_descriptor_literals_exit_two(self, spaceless_uniform, capsys,
                                          group):
        assert main(["entropy", "--measure", spaceless_uniform,
                     "--group", group]) == 2
        assert "unrecognized group descriptor" in capsys.readouterr().err

    @pytest.mark.parametrize("group", [
        "Z99999999999999999999",   # was an OverflowError traceback
        "D99999999999999999999"])  # was a table built until memory ran out
    def test_order_past_the_limit_exits_two(self, spaceless_uniform, capsys,
                                            group):
        assert main(["entropy", "--measure", spaceless_uniform,
                     "--group", group]) == 2
        assert "must be between 1 and" in capsys.readouterr().err


class TestNumberOptions:
    """Numeric options and HAARENT_TOL are ASCII literals: int() and
    float() would read every Unicode digit."""

    @pytest.mark.parametrize("argv, message", [
        (["maxent", "--n", "\u0663"], "argument --n: invalid int value"),
        (["maxent", "--n", "3", "--iters", "\u0665"],
         "argument --iters: invalid int value"),
        (["maxent", "--n", "3", "--seed", "\uff17"],
         "argument --seed: invalid int value"),
        (["maxent", "--n", "3", "--mass", "\u0660.5"],
         "argument --mass: invalid float value"),
        (["maxent", "--n", "3", "--step", "\uff10.1"],
         "argument --step: invalid float value"),
        (["maxent", "--n", "3", "--iters", "1_0"],
         "argument --iters: invalid int value"),
        (["maxent", "--nu", "1,\u0662"], "--nu must be comma-separated "
                                         "numbers, got '1,\u0662'"),
        (["verify", "--claim", "lem-finite-form", "--trials", "\u0662"],
         "argument --trials: invalid int value"),
        (["verify", "--claim", "lem-finite-form", "--seed", "\u0667"],
         "argument --seed: invalid int value"),
        (["verify", "--claim", "lem-finite-form", "--tol", "\uff11e-6"],
         "argument --tol: invalid float value"),
        (["entropy", "--measure", "m.json", "--group", "Z6", "--tol",
          "1e-\u0666"], "argument --tol: invalid float value")])
    def test_non_ascii_digits_exit_two(self, capsys, argv, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err

    def test_env_tol_non_ascii_exits_two(self, monkeypatch, capsys):
        monkeypatch.setenv("HAARENT_TOL", "\uff11e-6")
        assert main(["verify", "--claim", "lem-finite-form"]) == 2
        assert capsys.readouterr().err == (
            "haarent: error: HAARENT_TOL is not a number: '\uff11e-6'\n")

    @pytest.mark.parametrize("argv", [
        ["maxent", "--n", " 3", "--iters", "+5", "--seed", "07"],
        ["maxent", "--nu", "1, 2.5e0,.5", "--mass", "2.", "--step", "1E-1",
         "--iters", "5"]])
    def test_ascii_literals_still_read(self, capsys, argv):
        assert main(argv) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("argv, message", [
        (["maxent", "--n", "3", "--step", "-1e-3"],
         "--step must be positive and finite, got -0.001"),
        (["maxent", "--n", "3", "--step", "-inf"],
         "--step must be positive and finite, got -inf"),
        (["maxent", "--n", "3", "--mass", "-inf"],
         "--mass must be positive and finite, got -inf"),
        (["maxent", "--n", "3", "--mass", "-2.5E+3"],
         "--mass must be positive and finite, got -2500.0"),
        (["maxent", "--n", "3", "--mass", "-NaN"],
         "--mass must be positive and finite, got nan"),
        (["maxent", "--nu", "-1e-3"], "--nu weights must be positive "
                                      "numbers"),
        (["maxent", "--nu", "-1,2"], "--nu weights must be positive "
                                     "numbers"),
        (["maxent", "--n", "3", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["verify", "--claim", "lem-finite-form", "--tol", "-1e-3"],
         "tolerance must be positive, got -0.001"),
        (["entropy", "--measure", "m.json", "--group", "Z6", "--tol",
          "-1e-3"], "tolerance must be positive, got -0.001")])
    def test_negative_numbers_reach_the_range_check(self, capsys, argv,
                                                    message):
        # argparse alone would take "-1e-3" and "-inf" for options and
        # exit 2 with "expected one argument"
        assert main(argv) == 2
        assert capsys.readouterr().err == f"haarent: error: {message}\n"

    @pytest.mark.parametrize("value", ["inf", "Infinity", "NaN", "0"])
    def test_non_finite_names_reach_the_range_check(self, capsys, value):
        assert main(["maxent", "--n", "3", "--mass", value]) == 2
        assert capsys.readouterr().err == (
            f"haarent: error: --mass must be positive and finite, got "
            f"{float(value)!r}\n")


class TestEnvironmentTolerance:
    def test_env_tol_applies(self, monkeypatch, capsys):
        monkeypatch.setenv("HAARENT_TOL", "1e-20")
        code = main(["verify", "--claim", "lem-finite-form",
                     "--trials", "4"])
        assert code == 1

    def test_flag_overrides_env(self, monkeypatch, capsys):
        monkeypatch.setenv("HAARENT_TOL", "1e-20")
        code = main(["verify", "--claim", "lem-finite-form",
                     "--trials", "4", "--tol", "1e-6"])
        assert code == 0

    def test_garbage_env_exits_two(self, monkeypatch, capsys):
        monkeypatch.setenv("HAARENT_TOL", "potato")
        assert main(["verify", "--claim", "lem-finite-form"]) == 2
        assert "HAARENT_TOL" in capsys.readouterr().err

    def test_nonpositive_env_exits_two(self, monkeypatch, capsys):
        monkeypatch.setenv("HAARENT_TOL", "-1e-8")
        assert main(["verify", "--claim", "lem-finite-form"]) == 2
        capsys.readouterr()

    def test_commands_without_tol_ignore_env(self, monkeypatch, capsys):
        monkeypatch.setenv("HAARENT_TOL", "potato")
        assert main(["examples"]) == 0
        assert main(["maxent", "--n", "3", "--iters", "5"]) == 0
        capsys.readouterr()

    def test_maxent_takes_no_tol(self, capsys):
        for tol in ("1e-3", "-1e-3"):
            assert main(["maxent", "--n", "3", "--tol", tol]) == 2
            assert "--tol" in capsys.readouterr().err


class TestOutputFile:
    def test_output_written_to_path(self, tmp_path, interval_specs, capsys):
        uniform, lebesgue = interval_specs
        out = tmp_path / "result.json"
        code = main(["entropy", "--measure", uniform,
                     "--reference", lebesgue, "--format", "json",
                     "--output", str(out)])
        assert code == 0
        assert capsys.readouterr().out == ""
        rec = json.loads(out.read_text(encoding="utf-8"))
        assert rec["nats"] == pytest.approx(math.log(2.0), abs=1e-8)

    def test_unwritable_output_exits_two(self, interval_specs, capsys):
        uniform, lebesgue = interval_specs
        assert main(["entropy", "--measure", uniform,
                     "--reference", lebesgue,
                     "--output", "/no/such/dir/out.txt"]) == 2
        capsys.readouterr()


class TestMeasureFromSpec:
    def test_default_space_used_when_absent(self):
        space = Space.finite(["a", "b"])
        m = measure_from_spec(
            {"density": {"kind": "builtin", "payload": "uniform"}},
            default_space=space)
        assert m.space == space
        assert mass(m, MeasurableSet.full(space)) == 2.0

    def test_explicit_space_wins(self):
        m = measure_from_spec(
            {"space": {"kind": "interval", "bounds": [0.0, 3.0]},
             "density": {"kind": "builtin", "payload": "uniform"}},
            default_space=Space.finite(["a"]))
        assert not m.space.is_finite

    def test_reciprocal_builtin(self):
        m = measure_from_spec(
            {"space": {"kind": "interval", "bounds": [1.0, 10.0]},
             "density": {"kind": "builtin", "payload": "haar:R*"}})
        assert m.density(2.0) == 0.5
        assert sup_density(m, Measure.lebesgue(m.space),
                           MeasurableSet.full(m.space)) == 1.0

    def test_reciprocal_needs_positive_interval(self):
        from haarent.cli import _UsageError
        with pytest.raises(_UsageError):
            measure_from_spec(
                {"space": {"kind": "interval", "bounds": [0.0, 1.0]},
                 "density": {"kind": "builtin", "payload": "haar:R*"}})

    def test_unknown_keys_rejected(self):
        from haarent.cli import _UsageError
        with pytest.raises(_UsageError):
            measure_from_spec(
                {"space": {"kind": "interval", "bounds": [0.0, 1.0]},
                 "density": {"kind": "builtin", "payload": "lebesgue"},
                 "extra": 1})

    def test_lebesgue_needs_interval(self):
        from haarent.cli import _UsageError
        with pytest.raises(_UsageError):
            measure_from_spec(
                {"space": {"kind": "atoms", "atoms": [1, 2]},
                 "density": {"kind": "builtin", "payload": "lebesgue"}})

    def test_counting_needs_atoms(self):
        from haarent.cli import _UsageError
        with pytest.raises(_UsageError):
            measure_from_spec(
                {"space": {"kind": "interval", "bounds": [0.0, 1.0]},
                 "density": {"kind": "builtin", "payload": "counting"}})

    def test_negative_expr_density_rejected(self):
        from haarent.cli import _UsageError
        with pytest.raises(_UsageError):
            measure_from_spec(
                {"space": {"kind": "interval", "bounds": [0.0, 1.0]},
                 "density": {"kind": "expr", "payload": "x-0.5"}})


class TestCommonOptions:
    """Checks main() makes beyond argparse's: tol, seed and input files."""

    @pytest.mark.parametrize("tol", ["0", "inf"])
    def test_bad_tol_exits_two(self, spaceless_uniform, capsys, tol):
        assert main(["entropy", "--measure", spaceless_uniform,
                     "--group", "Z6", "--tol", tol]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("haarent: error: tolerance must be "
                                f"positive, got {float(tol)!r}\n")

    def test_unknown_format_exits_two(self, capsys):
        assert main(["examples", "--format", "yaml"]) == 2
        assert "invalid choice: 'yaml'" in capsys.readouterr().err

    def test_negative_seed_exits_two(self, capsys):
        assert main(["verify", "--claim", "lem-finite-form",
                     "--seed", "-1"]) == 2
        assert capsys.readouterr().err == \
            "haarent: error: seed must be >= 0, got -1\n"

    def test_missing_file_names_the_path(self, capsys):
        assert main(["entropy", "--measure", "/does/not/exist.json",
                     "--group", "Z6"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "haarent: error: cannot read /does/not/exist.json: ")

    def test_entropy_default_tol(self, spaceless_uniform, monkeypatch,
                                 capsys):
        seen = []
        integrator_for = cli._integrator_for
        monkeypatch.setattr(cli, "_integrator_for",
                            lambda tol: seen.append(tol)
                            or integrator_for(tol))
        assert main(["entropy", "--measure", spaceless_uniform,
                     "--group", "Z6"]) == 0
        assert seen == [1e-8]
        capsys.readouterr()
