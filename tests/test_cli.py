import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hardyvx
from hardyvx.catalog import CATALOG, catalog_exponent
from hardyvx.cli import main
from hardyvx.config import ConfigError, load_schema, parse_config
from hardyvx.criteria import equivalence_audit
from hardyvx.grids import make_log_grid
from hardyvx.hardy import necessity_family, power_family
from hardyvx.lpnorm import modular
from hardyvx.report import VARYING_FIELDS, emit, report_json, run_scenario


def minimal(name="constant-2", **extra):
    cfg = {"exponent": {"catalog": name}}
    cfg.update(extra)
    return json.dumps(cfg)


class TestParseConfig:
    def test_defaults_filled(self):
        cfg = parse_config('{"exponent":{"family":"constant","p0":2}}')
        assert cfg.x_min == 1e-12 and cfg.n == 1201
        assert cfg.criteria == ("A", "B", "C1", "C2", "C3", "C4", "C5")
        assert cfg.exponent.eval(0.5) == 2.0

    def test_p0_below_one_rejected_with_path(self):
        with pytest.raises(ConfigError) as exc:
            parse_config('{"exponent":{"family":"constant","p0":0.5}}')
        assert any("p0" in e and "minimum" in e for e in exc.value.errors)

    def test_catalog_resolution(self):
        cfg = parse_config(minimal("dyadic-jump-default"))
        entry = catalog_exponent("dyadic-jump-default")
        assert cfg.exponent == entry.exponent

    def test_unknown_catalog_name(self):
        with pytest.raises(ConfigError):
            parse_config(minimal("no-such-entry"))

    def test_invalid_json(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("{not json")
        assert "JSON" in exc.value.errors[0]

    def test_all_errors_listed(self):
        with pytest.raises(ConfigError) as exc:
            parse_config('{"exponent":{"catalog":"constant-2"},'
                         '"grid":{"n":4},"a_depth":1}')
        assert len(exc.value.errors) >= 2

    def test_schema_defaults_match_keyword_defaults(self):
        props = load_schema()["properties"]
        grid = inspect.signature(make_log_grid).parameters
        audit = inspect.signature(equivalence_audit).parameters
        for key in ("x_min", "n"):
            assert props["grid"]["properties"][key]["default"] \
                == grid[key].default
        for key in ("a_depth", "delta", "eps_depth", "necessity_depth"):
            assert props[key]["default"] == audit[key].default
        # a library call builds the same C1 family as a default audit
        assert props["necessity_depth"]["default"] == inspect.signature(
            necessity_family).parameters["depth"].default
        assert props["tolerances"]["properties"]["norm_tol"]["default"] \
            == audit["norm_tol"].default
        assert tuple(props["criteria"]["default"]) \
            == audit["criteria_names"].default
        assert tuple(props["families"]["default"]) \
            == audit["family_kinds"].default

    def test_every_family_constructible(self):
        specs = [
            {"family": "constant", "p0": 2},
            {"family": "log-perturbed", "p0": 2, "c": 1, "alpha": 0.5},
            {"family": "loglog-perturbed", "p0": 2, "c": 1},
            {"family": "piecewise-constant", "breakpoints": [0.5],
             "values": [2, 3]},
            {"family": "piecewise-linear", "breakpoints": [0.2, 0.8],
             "values": [2, 3]},
            {"family": "dyadic-jump", "p0": 2, "gammas": [0.5],
             "scales": [0.25]},
            {"family": "tabulated", "xs": [1e-6, 1.0], "ps": [2, 3]},
        ]
        for spec in specs:
            cfg = parse_config(json.dumps({"exponent": spec}))
            assert cfg.exponent.eval(0.5) >= 1.0


@pytest.fixture(scope="module")
def small_report():
    cfg = parse_config(minimal(
        "constant-2", grid={"x_min": 1e-8, "n": 401},
        a_depth=20, necessity_depth=20))
    return run_scenario(cfg)


class TestRunAndEmit:
    def test_json_round_trip(self, small_report, tmp_path):
        (path,) = emit(small_report, "json", tmp_path)
        data = json.loads(path.read_text())
        assert data == small_report.to_dict()

    def test_csv_series_files(self, small_report, tmp_path):
        paths = emit(small_report, "csv", tmp_path)
        names = {p.name for p in paths}
        assert "constant-2.C2.csv" in names
        c2 = next(p for p in paths if p.name == "constant-2.C2.csv")
        lines = c2.read_text().splitlines()
        assert lines[0] == "a,value,lo,hi"
        assert len(lines) >= 10
        c1 = next(p for p in paths if p.name == "constant-2.C1.csv")
        rows = [[float(x) for x in line.split(",")]
                for line in c1.read_text().splitlines()[1:]]
        assert rows
        for _a, value, lo, hi in rows:
            assert lo <= value <= hi
            assert lo < hi

    def test_deterministic_modulo_timestamp(self):
        cfg_text = minimal("constant-2", grid={"x_min": 1e-8, "n": 401},
                           a_depth=12, necessity_depth=12)
        r1 = run_scenario(parse_config(cfg_text))
        r2 = run_scenario(parse_config(cfg_text))
        d1, d2 = r1.to_dict(), r2.to_dict()
        for d in (d1, d2):
            for key in VARYING_FIELDS:
                d.pop(key)
        assert json.dumps(d1, sort_keys=True) == json.dumps(d2,
                                                            sort_keys=True)

    def test_truncation_matches_power_family_reference(self, small_report):
        cfg = parse_config(minimal("constant-2",
                                   grid={"x_min": 1e-8, "n": 401}))
        grid = make_log_grid(cfg.x_min, cfg.n)
        worst = 0.0
        for member in power_family(cfg.exponent, grid):
            mv = modular(member.f, cfg.exponent)
            if mv.finite and mv.value > 0.0:
                worst = max(worst, mv.truncation_bias / mv.value)
        assert worst > 0.0
        assert small_report.truncation["max_relative_modular_bias"] == worst

    def test_empty_criteria_selection(self, tmp_path):
        cfg = parse_config(minimal(
            "constant-2", criteria=[], families=["dyadic"],
            grid={"x_min": 1e-8, "n": 401}))
        report = run_scenario(cfg)
        paths = emit(report, "csv", tmp_path)
        names = {p.name for p in paths}
        # only the always-computed oscillation series remains
        assert names <= {"constant-2.oscillation.csv"}


class TestMain:
    def test_run_exit_codes(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(minimal("constant-2", grid={"x_min": 1e-8, "n": 401},
                               a_depth=12, necessity_depth=12))
        assert main(["run", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "constant-2.json").exists()

    def test_missing_config_is_input_error(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 1

    def test_invalid_config_is_input_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"exponent":{"family":"constant","p0":0.5}}')
        assert main(["run", "--config", str(cfg)]) == 1
        assert "p0" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", [{}, {"x_min": 1e-8, "n": 401}])
    def test_log_perturbed_minus_at_one_is_divergent(self, tmp_path, capsys,
                                                     grid):
        # "-" floors p at 1, so p0 = 1 is the constant p = 1, which no
        # Hardy inequality holds for
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"exponent": {
            "family": "log-perturbed", "p0": 1.0, "c": 1.0, "alpha": 1.0,
            "sign": "-"}, "grid": grid}))
        assert main(["run", "--config", str(cfg)]) == 0
        report = json.loads(capsys.readouterr().out)["report"]
        assert report["monotonicity"] == "nondecreasing (constant)"
        assert report["expected_class"] == "divergent"

    def test_removed_family_is_input_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(minimal(families=["random-step"]))
        assert main(["run", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "families.0: 'random-step' is not one of" in err
        assert "Traceback" not in err

    def test_grid_n_past_the_cap_is_input_error(self, tmp_path, capsys):
        # validated by the schema alone: no audit runs at this n
        cap = load_schema()["properties"]["grid"]["properties"]["n"]["maximum"]
        cfg = tmp_path / "big.json"
        cfg.write_text(minimal(grid={"n": cap + 1}))
        assert main(["run", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "grid" in err and "maximum" in err
        assert "Traceback" not in err

    def test_subnormal_grid_floor_is_input_error(self, tmp_path, capsys):
        # below the smallest normal double 1/x_min overflows: the schema,
        # not the audit, turns it away
        cfg = tmp_path / "tiny.json"
        cfg.write_text(minimal(grid={"x_min": 5e-324, "n": 16}))
        assert main(["run", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "invalid config" in err and "grid.x_min" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("label", ["a/b", "../x"])
    def test_label_that_is_no_file_name_is_input_error(self, tmp_path,
                                                         capsys, label):
        # under --out the label names the report file; on stdout it is
        # only the report's exponent id
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"label": label,
                                   "exponent": {"catalog": "constant-2"},
                                   "grid": {"x_min": 1e-6, "n": 200}}))
        out = tmp_path / "sub" / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "single path component" in err and "Traceback" not in err
        assert [p.name for p in tmp_path.rglob("*")] == ["cfg.json"]
        assert main(["run", "--config", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["report"]["exponent"] \
            == label

    def test_unwritable_out_is_input_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(minimal(grid={"x_min": 1e-6, "n": 200}))
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["run", "--config", str(cfg), "--out", str(taken)]) == 1
        err = capsys.readouterr().err
        assert "cannot write report" in err and "Traceback" not in err

    @pytest.mark.parametrize("route", ["flag", "config"])
    def test_csv_without_out_is_input_error(self, tmp_path, capsys, route):
        # csv is written as files only: without a directory it is refused
        # before the audit runs, by the flag and by the config key alike
        cfg = tmp_path / "cfg.json"
        grid = {"x_min": 1e-6, "n": 200}
        flags = ["--format", "csv"] if route == "flag" else []
        cfg.write_text(minimal(grid=grid, **({} if flags
                                            else {"format": "csv"})))
        assert main(["run", "--config", str(cfg), *flags]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "error: csv output needs --out or config 'out'" in err
        assert "Traceback" not in err
        cfg.write_text(minimal(grid=grid))
        assert main(["run", "--config", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["report"]["agreement"]

    def test_audit_all_unwritable_out_is_input_error(self, tmp_path, capsys):
        # the first entry's report cannot be written: exit 1, no traceback
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["audit-all", "--out", str(taken)]) == 1
        out, err = capsys.readouterr()
        assert "cannot write report" in err and "Traceback" not in err
        assert len(out.splitlines()) == 1
        assert taken.read_text() == ""

    def test_verbose_logs_skips_to_stderr_only(self, tmp_path, capsys):
        # C1 skips the dyadic indicators that have no node inside
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"exponent": {"family": "constant",
                                                "p0": 2},
                                   "grid": {"x_min": 1e-300, "n": 16}}))
        reports = []
        for flags in ([], ["-v"]):
            assert main(["run", *flags, "--config", str(cfg)]) == 0
            out, err = capsys.readouterr()
            reports.append(json.loads(out))
            for key in VARYING_FIELDS:
                del reports[-1][key]
            skips = [line for line in err.splitlines()
                     if "skipping dyadic:k=1:" in line]
            assert len(skips) == (1 if flags else 0)
        assert reports[0] == reports[1]

    def test_catalog_lists_everything(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        for entry in CATALOG:
            assert entry.name in out

    def test_stdout_json_report(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        # on the x_min = 0.5 grid only C3 decides (bounded) and C2, C4, C5
        # are inconclusive, which is no disagreement
        for grid in ({"x_min": 1e-8, "n": 401}, {"x_min": 0.5, "n": 16}):
            cfg.write_text(minimal("constant-2", grid=grid, a_depth=12,
                                   necessity_depth=12))
            code = main(["run", "--config", str(cfg)])
            data = json.loads(capsys.readouterr().out)
            assert code == 0
            assert data["report"]["agreement"] is True


@pytest.mark.parametrize("config, criterion, cls", [
    # fewer than 8 nodes per octave: necessity levels are left out
    ({"exponent": {"family": "constant", "p0": 2}, "grid": {"n": 300}},
     "C1", "bounded"),
    # the power family is empty for p0 = 200
    ({"exponent": {"family": "constant", "p0": 200}, "families": ["power"],
      "grid": {"x_min": 1e-8, "n": 401}}, "C1", "inconclusive"),
    # no dyadic block of condition B lies on the grid
    ({"exponent": {"family": "constant", "p0": 2},
      "grid": {"x_min": 0.5, "n": 16}}, "B", "inconclusive"),
    # the monotone prefix ends above every depth stop of C3
    ({"exponent": {"family": "tabulated", "xs": [1e-9, 1e-3, 0.5, 1],
                   "ps": [2, 4, 1.5, 3]},
      "grid": {"x_min": 1e-12, "n": 401}}, "C3", "inconclusive"),
    # C4's overflow guard must ignore nodes below a
    ({"exponent": {"family": "constant", "p0": 60},
      "grid": {"x_min": 1e-8, "n": 401}}, "C4", "bounded"),
    # the modular's overflow guard must ignore nodes outside the piece,
    # and C1 skips the dyadic indicators that have no node inside
    ({"exponent": {"family": "constant", "p0": 2},
      "grid": {"x_min": 1e-300, "n": 16}}, "C5", "bounded"),
    # "-" floors p at 1, so this p is constant 1: not bounded, though
    # its parameters name a nonincreasing family
    ({"exponent": {"family": "log-perturbed", "p0": 1.0, "c": 1.0,
                   "alpha": 1.0, "sign": "-"}}, "C1", "divergent"),
    # scales with ln(1/a) > EXP_GUARD: the solver's overflow guard must
    # count the dx weight, or the norm near a = 2^-1015 is too large
    ({"exponent": {"family": "constant", "p0": 2},
      "grid": {"x_min": 1e-306, "n": 2001}, "a_depth": 1015,
      "criteria": ["C5"], "families": ["power"]}, "C5", "bounded"),
    # JSON Schema counts 401.0 and 1e2 as integers: they must reach the
    # audit as int
    ({"exponent": {"catalog": "constant-2"}, "grid": {"n": 401.0}},
     "C1", "bounded"),
    ({"exponent": {"catalog": "constant-2"}, "grid": {"n": 1e2}},
     "C1", "bounded"),
    ({"exponent": {"catalog": "constant-2"},
      "grid": {"x_min": 1e-8, "n": 401}, "a_depth": 20.0}, "C5", "bounded"),
    # the smallest grid floor the schema takes, the smallest normal double
    ({"exponent": {"catalog": "constant-2"},
      "grid": {"x_min": 2.2250738585072014e-308, "n": 16}}, "C5", "bounded"),
    # mean p times the modular passes the largest double: the solver's
    # Newton slope is inf, and the search bisects without a warning
    ({"exponent": {"family": "constant", "p0": 1e300},
      "grid": {"x_min": 1e-8, "n": 401}}, "C5", "bounded"),
])
def test_run_ends_in_a_report(tmp_path, capsys, config, criterion, cls):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["run", "--config", str(path)]) in (0, 1, 2)
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["verdicts"][criterion]["class"] == cls


def test_report_json_is_stable_text(tmp_path):
    cfg = parse_config(minimal("constant-3", grid={"x_min": 1e-8, "n": 401},
                               a_depth=10, necessity_depth=10))
    text = report_json(run_scenario(cfg))
    assert text.endswith("\n")
    assert json.loads(text)["version"]


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    """``code`` in a fresh interpreter that imports this hardyvx."""
    src = str(Path(hardyvx.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", code, *args],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)


def test_cli_import_leaves_jsonschema_out():
    out = _python("import sys, hardyvx.cli; "
                  "print('jsonschema' in sys.modules)")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_run_needs_no_jsonschema(tmp_path):
    # a None entry in sys.modules makes any import of the package fail
    cfg = tmp_path / "cfg.json"
    cfg.write_text(minimal("constant-2", grid={"x_min": 1e-8, "n": 401},
                           a_depth=12, necessity_depth=12))
    out = _python("import sys; sys.modules['jsonschema'] = None; "
                  "from hardyvx.cli import main; sys.exit(main(sys.argv[1:]))",
                  "run", "--config", str(cfg))
    assert "Traceback" not in out.stderr
    assert out.returncode == 0
    assert json.loads(out.stdout)["report"]["agreement"] is True
