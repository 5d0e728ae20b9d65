"""Scenario loading, serialization round-trips, CLI commands, exit codes."""

import json
import math
import subprocess
import sys

import pytest

from orlicz import load_scenario, parse_scenario, serialize_scenario
from orlicz.cli import main
from orlicz.scenario import ScenarioError, _young_from_dict, parse_young_spec
from orlicz.young import AbsValue, ExpMinusOne, HardCap, PowerAbs, PowerOverP, ScaledPower, XLogX

SCEN = "scenarios/finite_basic.json"
GEO = "scenarios/geometric_collapse.json"
CONST = "scenarios/constant_collapse.json"
SQUARE = "scenarios/powerlaw_square.json"


class TestScenarioLoading:
    def test_minimal_finite(self):
        sc = parse_scenario(
            {"space": {"kind": "finite", "atoms": [["a", 1.0], ["b", 2.0]]}}
        )
        assert sc.space.total_mass() == 3.0

    def test_unknown_function_name_errors(self):
        sc = load_scenario(SCEN)
        with pytest.raises(ScenarioError):
            sc.function("nope")

    def test_bad_reference_in_values(self):
        with pytest.raises(ScenarioError):
            parse_scenario(
                {
                    "space": {"kind": "finite", "atoms": [["a", 1.0]]},
                    "functions": {"f": {"values": {"zz": 1.0}}},
                }
            )

    def test_countable_round_trip(self):
        sc = load_scenario(GEO)
        doc = serialize_scenario(sc)
        sc2 = parse_scenario(doc)
        assert sc2.space == sc.space
        assert serialize_scenario(sc2) == doc
        f1, f2 = sc.function("f"), sc2.function("f")
        assert f1.values == f2.values
        assert f1.tail == f2.tail

    def test_finite_round_trip(self):
        sc = load_scenario(SCEN)
        doc = serialize_scenario(sc)
        sc2 = parse_scenario(doc)
        assert serialize_scenario(sc2) == doc

    def test_conjugate_of_resolves(self):
        sc = load_scenario(SCEN)
        psi = sc.young("psi")
        assert psi(3.0) == pytest.approx(2.25)

    def test_inline_young_spec(self):
        phi = parse_young_spec("power_over_p:3")
        assert phi.conjugate().descriptor() == {"family": "power_over_p", "p": 1.5}
        with pytest.raises(ScenarioError):
            parse_young_spec("mystery:1")


class TestCliCommands:
    def test_norm_indicator(self, capsys):
        code = main(
            ["--format", "structured", "norm", "chiA", "--scenario", SCEN, "--young", "power_abs:2"]
        )
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["luxemburg"]["value"] == pytest.approx(2.0, rel=1e-9)

    def test_conjugate_command(self, capsys):
        code = main(["--format", "structured", "conjugate", "--young", "power_over_p:3"])
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["conjugate"] == {"family": "power_over_p", "p": 1.5}

    def test_hderiv(self, capsys):
        code = main(["--format", "structured", "hderiv", "collapse", "--scenario", SCEN])
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["h"]["values"]["1"] == 2.0

    def test_density_constant_collapse(self, capsys):
        code = main(["--format", "structured", "density", "collapse", "--scenario", CONST])
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["verdict"]["status"] == "not_densely_defined"

    def test_density_geo_collapse(self, capsys):
        code = main(["--format", "structured", "density", "collapse", "--scenario", GEO])
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["verdict"]["status"] == "densely_defined"

    def test_domain_command(self, capsys):
        code = main(
            ["--format", "structured", "domain", "chi1", "--scenario", CONST, "--map", "collapse"]
        )
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["member"] is False

    def test_approximate(self, capsys):
        code = main(
            [
                "--format", "structured", "approximate", "f",
                "--scenario", GEO, "--map", "collapse", "--max-index", "8",
            ]
        )
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        dists = [e["distance"]["value"] for e in rep["approximants"]]
        assert dists == sorted(dists, reverse=True)

    def test_bounded(self, capsys):
        code = main(["--format", "structured", "bounded", "square", "--scenario", SQUARE])
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["verdict"]["status"] == "not_everywhere_defined"

    def test_lp_check(self, capsys):
        code = main(
            [
                "--format", "structured", "lp-check", "--scenario", SCEN,
                "--map", "collapse", "--weight", "u", "--function", "f", "--p", "2", "--q", "2",
            ]
        )
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["multiplication_equivalence"]["norms_equal"] is True
        assert rep["weighted_norm_identity"]["equal"] is True

    def test_adjoint_check(self, capsys):
        code = main(
            [
                "--format", "structured", "adjoint-check", "--scenario", SCEN,
                "--map", "collapse", "--function", "f", "--dual-function", "g",
            ]
        )
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["report"]["pairing_lhs"] == 25.0
        assert rep["report"]["within_tolerance"] is True

    def test_text_format(self, capsys):
        code = main(["conjugate", "--young", "power_over_p:3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "conjugate.family: power_over_p" in out

    def test_scenario_error_exit_2(self, capsys):
        code = main(["density", "collapse", "--scenario", "scenarios/missing.json"])
        assert code == 2

    def test_unknown_name_exit_2(self, capsys):
        code = main(["norm", "nope", "--scenario", SCEN, "--young", "power_abs:2"])
        assert code == 2

    def test_verify_small(self, capsys):
        code = main(
            ["--format", "structured", "--seed", "7", "verify", "--count", "2"]
        )
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["suite"]["failed"] == 0
        assert rep["suite"]["total_checks"] > 0

    def test_determinism_modulo_timestamp(self, capsys):
        def run():
            main(["--format", "structured", "--seed", "5", "verify", "--count", "1"])
            rep = json.loads(capsys.readouterr().out)
            rep.pop("timestamp")
            rep["suite"].pop("elapsed_seconds")
            return json.dumps(rep, sort_keys=True)

        assert run() == run()

    def test_seed_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("ORLICZ_SEED", "99")
        main(["--format", "structured", "conjugate", "--young", "power_abs:2"])
        rep = json.loads(capsys.readouterr().out)
        assert rep["params"]["seed"] == 99

    def test_verify_failure_exits_1(self, capsys, monkeypatch):
        import orlicz.cli as cli_mod

        class FakeReport:
            ok = False

            def to_dict(self):
                return {"failed": 1, "passed": 0}

        monkeypatch.setattr(cli_mod, "verify_suite", lambda **kw: FakeReport())
        assert main(["--format", "structured", "verify", "--count", "1"]) == 1

    def test_depth_override(self, capsys):
        code = main(
            ["--depth", "128", "--format", "structured", "density", "collapse", "--scenario", GEO]
        )
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["scenario"]["space"]["depth"] == 128

    def test_probe_range_flag(self, capsys):
        code = main(
            [
                "--range", "1e-4:1e4", "--format", "structured", "adjoint-check",
                "--scenario", SCEN, "--map", "cycle", "--function", "f", "--dual-function", "g",
            ]
        )
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["report"]["within_tolerance"] is True
        assert rep["params"]["probe_range"] == "1e-4:1e4"

    def test_global_flags_after_subcommand(self, capsys):
        def report(argv):
            assert main(argv) == 0
            lines = capsys.readouterr().out.splitlines()
            return [ln for ln in lines if not ln.startswith(("timestamp:", "suite.elapsed_seconds:"))]

        after = report(["verify", "--count", "2", "--seed", "7"])
        assert after == report(["--seed", "7", "verify", "--count", "2"])
        assert "params.seed: 7" in after

    def test_flag_before_subcommand_survives(self, capsys):
        assert main(["--format", "structured", "--seed", "3", "conjugate", "--young", "power_abs:2",
                     "--tol", "1e-9"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["params"] == {"format": "structured", "seed": 3, "tol": 1e-9}


class TestConsoleScript:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "orlicz.cli", "conjugate", "--young", "power_abs:2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "scaled_power" in proc.stdout


class TestNanRefused:
    DOC = '{"space": {"kind": "finite", "atoms": [["a", 1.0], ["b", 1.0]]}, "functions": {"f": {"values": {"a": NaN}}}}'

    def test_parse_refuses_nan(self):
        with pytest.raises(ScenarioError, match="bad number"):
            parse_scenario(json.loads(self.DOC))

    def test_cli_exits_2_without_traceback(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text(self.DOC)
        proc = subprocess.run(
            [sys.executable, "-m", "orlicz.cli", "norm", "f", "--scenario", str(path), "--young", "power_abs:2"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert "bad number" in proc.stderr
        assert "Traceback" not in proc.stderr



class TestMalformedSections:
    """A section of the wrong JSON type is a scenario error (exit 2) that
    names the section, not a traceback."""

    @staticmethod
    def _write(tmp_path, base, path, value):
        doc = json.loads(open(base).read())
        if path:
            cur = doc
            for key in path[:-1]:
                cur = cur[key]
            cur[path[-1]] = value
        else:
            doc = value
        scenario = tmp_path / "bad.json"
        scenario.write_text(json.dumps(doc))
        return str(scenario)

    @pytest.mark.parametrize("base, path, value, extra, where", [
        (SCEN, (), [1, 2], ["--depth", "5"], "scenario"),
        (SCEN, (), [1, 2], [], "scenario"),
        (SCEN, ("space",), [1], [], "space"),
        (GEO, ("space", "weight_law"), [1], [], "space.weight_law"),
        (SCEN, ("space", "atoms"), 5, [], "space.atoms"),
        (SCEN, ("space", "atoms"), [1], [], "space.atoms"),
        (SCEN, ("functions", "f"), [1], [], "functions.f"),
        (SCEN, ("functions", "f", "values"), [1], [], "functions.f.values"),
        (GEO, ("functions", "f", "tail"), [1], [], "functions.f.tail"),
        (SCEN, ("maps", "collapse"), [1], [], "maps.collapse"),
        (SCEN, ("maps", "collapse", "map"), [1], [], "maps.collapse.map"),
        (GEO, ("maps", "collapse", "overrides"), [1], [], "maps.collapse.overrides"),
        (SCEN, ("params",), [1], [], "params"),
        (SCEN, ("young",), [1], [], "young"),
    ])
    def test_exit_2_naming_the_section(self, tmp_path, capsys, base, path, value, extra, where):
        scenario = self._write(tmp_path, base, path, value)
        assert main(["hderiv", "collapse", "--scenario", scenario, *extra]) == 2
        assert f"scenario error: {where}: " in capsys.readouterr().err

    def test_depth_override_reads_like_load_scenario(self, tmp_path, capsys):
        scenario = tmp_path / "bad.json"
        scenario.write_text("{")
        assert main(["hderiv", "collapse", "--scenario", str(scenario)]) == 2
        plain = capsys.readouterr().err
        assert main(["hderiv", "collapse", "--scenario", str(scenario), "--depth", "5"]) == 2
        assert capsys.readouterr().err == plain and "not valid JSON" in plain


CLOSED_FORM_YOUNGS = [
    PowerAbs(2.5), AbsValue(), PowerOverP(3.0), ScaledPower(0.3, 2.5),
    ExpMinusOne(), XLogX(), HardCap(2.0),
]


class TestYoungFamilies:
    """One table of closed-form families serves the dict and inline forms."""

    @pytest.mark.parametrize("phi", CLOSED_FORM_YOUNGS, ids=repr)
    def test_descriptor_round_trip(self, phi):
        assert _young_from_dict(phi.descriptor(), {}, "t") == phi

    @pytest.mark.parametrize("phi", CLOSED_FORM_YOUNGS, ids=repr)
    def test_label_round_trip(self, phi):
        assert parse_young_spec(phi.label()) == phi

    @pytest.mark.parametrize("d, key", [
        ({"family": "power_abs"}, "p"),
        ({"family": "power_over_p"}, "p"),
        ({"family": "scaled_power", "p": 2.0}, "coeff"),
        ({"family": "scaled_power", "coeff": 2.0}, "p"),
        ({"family": "hard_cap"}, "cap"),
    ])
    def test_missing_parameter_named(self, d, key):
        with pytest.raises(ScenarioError, match=f"young.phi: Young family '{d['family']}' needs '{key}'"):
            _young_from_dict(d, {}, "young.phi")

    def test_missing_inline_parameter_named(self):
        with pytest.raises(ScenarioError, match="bad Young spec 'scaled_power:2': missing 'p'"):
            parse_young_spec("scaled_power:2")

    def test_missing_parameter_exits_2(self, tmp_path, capsys):
        doc = json.loads(open(SCEN).read())
        doc["young"] = {"phi": {"family": "power_abs"}}
        path = tmp_path / "missing.json"
        path.write_text(json.dumps(doc))
        assert main(["norm", "f", "--scenario", str(path)]) == 2
        assert "scenario error: young.phi: Young family 'power_abs' needs 'p'" in capsys.readouterr().err


def _cli(*argv):
    return subprocess.run([sys.executable, "-m", "orlicz.cli", *argv], capture_output=True, text=True)


class TestPowerFamilyEdges:
    """Conjugates across the float range, and non-finite parameters, end
    with a report or exit 2, never with a traceback."""

    @pytest.mark.parametrize("argv, message", [
        (["conjugate", "--young", "scaled_power:1e-300:1.5"], "outside the float range"),
        (["norm", "f", "--scenario", SCEN, "--young", "scaled_power:inf:2"], "ScaledPower requires"),
        (["norm", "f", "--scenario", SCEN, "--young", "scaled_power:1:inf"], "ScaledPower requires"),
        (["norm", "f", "--scenario", SCEN, "--young", "power_abs:inf"], "PowerAbs requires"),
        (["norm", "f", "--scenario", SCEN, "--young", "hard_cap:inf"], "HardCap requires"),
    ])
    def test_exit_2_without_traceback(self, argv, message):
        proc = _cli(*argv)
        assert proc.returncode == 2
        assert message in proc.stderr and "Traceback" not in proc.stderr

    def test_conjugate_coefficient_outside_float_range_named(self):
        proc = _cli("conjugate", "--young", "scaled_power:1e-300:1.5")
        assert "has coefficient 10**599.1" in proc.stderr

    @pytest.mark.parametrize("spec, coeff, back", [
        ("scaled_power:1e-300:2", 2.5e299, 1e-300),
        ("scaled_power:1e-200:2", 2.5e199, 1e-200),
        ("scaled_power:1e200:2", 2.5e-201, 1e200),
    ])
    def test_conjugate_across_the_float_range(self, capsys, spec, coeff, back):
        assert main(["--format", "structured", "conjugate", "--young", spec]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["conjugate"]["coeff"] == pytest.approx(coeff, rel=1e-12)
        assert rep["biconjugate"]["coeff"] == pytest.approx(back, rel=1e-12)

    def test_norm_reports_orlicz_norm_for_tiny_coefficient(self, capsys):
        assert main(["--format", "structured", "norm", "f", "--scenario", SCEN,
                     "--young", "scaled_power:1e-200:2"]) == 0
        rep = json.loads(capsys.readouterr().out)
        lux, orl = rep["luxemburg"]["value"], rep["orlicz"]["value"]
        assert lux <= orl * (1 + 1e-9) and orl <= 2 * lux * (1 + 1e-9)


class TestEmptyScenarioPath:
    """--scenario "" is a path that cannot be read, on every command that
    takes a scenario, not a missing scenario."""

    @pytest.mark.parametrize("argv", [
        ["norm", "f"],
        ["hderiv", "m"],
        ["density", "m"],
        ["domain", "f", "--map", "m"],
        ["approximate", "f", "--map", "m"],
        ["bounded", "m"],
        ["lp-check", "--map", "m"],
        ["adjoint-check", "--map", "m", "--function", "f", "--dual-function", "g"],
    ], ids=lambda argv: argv[0])
    def test_exit_2_cannot_read(self, argv):
        proc = _cli(*argv, "--scenario", "")
        assert proc.returncode == 2
        assert "scenario error: cannot read scenario" in proc.stderr
        assert "Traceback" not in proc.stderr
