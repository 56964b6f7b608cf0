import csv
import dataclasses
import io
import json
import math

import pytest

from hyperk import OperatorResult, cli, random_instance
from hyperk.inequalities import InequalityReport

CSV_HEADER = ("theorem,seed,alpha,beta,eta,mu,k,p,q,m,M,gamma,delta,x,"
              "lhs,rhs,margin,combined_error,verdict")

REPORT_HUMAN_HEADER = ("theorem   seed                 lhs                 rhs"
                       "              margin      verdict")
KERNEL_HUMAN_HEADER = "             tau              closed              series     rel_diff"

EVAL_RL = ["eval", "--alpha", "1", "--beta", "-1", "--eta", "0", "--mu", "0",
           "--k", "0", "--fn", "affine:1,1", "--x", "1",
           "--mode", "definition-only"]
# strict parameters whose operator prefactor x^(-(k+1)(alpha+beta+2mu))
# overflows at x = 1e-300
EVAL_OVERFLOW = ["eval", "--alpha", "1.5", "--beta", "0.5", "--eta", "-0.3", "--mu", "0.9",
                 "--k", "2", "--x", "1e-300"]


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_human_output(self, capsys):
        code, out, _ = run(EVAL_RL, capsys)
        assert code == 0
        fields = dict(line.split("=") for line in out.strip().splitlines())
        fields = {k.strip(): v.strip() for k, v in fields.items()}
        assert float(fields["value"]) == pytest.approx(1.5, rel=1e-12)
        assert float(fields["error_estimate"]) < 1e-12
        # human format rounds to 12 significant digits
        assert len(fields["value"].replace(".", "").replace("-", "").lstrip("0")) <= 12

    def test_json_output(self, capsys):
        code, out, _ = run(EVAL_RL + ["--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == pytest.approx(1.5, rel=1e-12)
        assert doc["error_estimate"] >= 0.0
        assert doc["order_used"] >= 64

    def test_csv_output(self, capsys):
        code, out, _ = run(EVAL_RL + ["--format", "csv"], capsys)
        assert code == 0
        header, row = out.splitlines()
        assert header == "value,error_estimate,order_used"
        value, _, order_used = row.split(",")
        assert float(value) == pytest.approx(1.5, rel=1e-12)
        assert int(order_used) >= 64

    def test_strict_mode_rejects_eta_zero(self, capsys):
        code, _, err = run(["eval", "--alpha", "1", "--eta", "0"], capsys)
        assert code == 2
        assert "eta-window" in err

    def test_unit_function_matches_closed_form(self, capsys):
        argv = ["eval", "--alpha", "0.5", "--beta", "0.2", "--eta", "-0.4",
                "--mu", "0", "--k", "0", "--fn", "one", "--x", "1",
                "--format", "json"]
        code, out, _ = run(argv, capsys)
        assert code == 0
        doc = json.loads(out)
        from hyperk import OperatorParams, operator_of_one

        want = operator_of_one(OperatorParams(0.5, 0.2, -0.4, 0.0, 0.0), 1.0)
        assert abs(doc["value"] - want) <= max(doc["error_estimate"], 1e-8 * want)

    def test_malformed_function_selector(self, capsys):
        code, _, err = run(["eval", "--fn", "sine:1,2"], capsys)
        assert code == 64
        assert "usage error" in err


class TestKernel:
    ARGS = ["kernel", "--alpha", "0.5", "--beta", "0.2", "--eta", "-0.4",
            "--mu", "0.1", "--k", "1", "--x", "2"]

    def test_table_structure(self, capsys):
        code, out, _ = run(self.ARGS + ["--points", "6", "--terms", "200"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "tau,closed,series,rel_diff"
        assert len(lines) == 7
        last = lines[-1].split(",")
        assert 0.0 < float(last[0]) < 2.0
        assert float(last[3]) < 1e-10   # series converged near the diagonal

    def test_order_flag_is_rejected(self, capsys):
        code, _, err = run(self.ARGS + ["--order", "32"], capsys)
        assert code == 64
        assert "--order" in err

    def test_series_divergence_exit_code(self, capsys):
        # tau/x near 0 puts the 2F1 argument past the series' reach
        code, _, err = run(self.ARGS + ["--points", "999"], capsys)
        assert code == 3
        assert "converge" in err


@pytest.mark.parametrize("argv", [EVAL_OVERFLOW, ["kernel", "--points", "3", "--x", "1e-300"]],
                         ids=["eval", "kernel"])
def test_overflow_is_a_numeric_error(capsys, argv):
    code, _, err = run(argv, capsys)
    assert code == 3
    assert err.startswith("numeric error: ") and "is not finite" in err


class TestCheck:
    def test_csv_row(self, capsys):
        code, out, _ = run(["check", "--theorem", "3.1", "--seed", "7",
                            "--format", "csv"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == CSV_HEADER
        row = lines[1].split(",")
        assert row[0] == "3.1" and row[1] == "7"
        assert row[-1] == "pass"
        assert float(row[16]) > 0.0   # margin

    def test_equality_flag(self, capsys):
        code, out, _ = run(["check", "--theorem", "4.3", "--equality",
                            "--format", "csv"], capsys)
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        margin, err = float(row[16]), float(row[17])
        assert abs(margin) <= max(1e-9, 10.0 * err)

    def test_unknown_theorem(self, capsys):
        code, _, err = run(["check", "--theorem", "7.7"], capsys)
        assert code == 64
        assert "usage error" in err

    def test_inconclusive_exit_code(self, capsys, monkeypatch):
        stub = InequalityReport(
            theorem_id="3.1", seed=0, lhs=1.0, rhs=1.0, margin=-1e-12,
            combined_error=1e-10, verdict="inconclusive", instance=None)
        monkeypatch.setattr(cli, "check_instance", lambda inst, order=64: stub)
        code, _, _ = run(["check", "--theorem", "3.1", "--format", "csv"], capsys)
        assert code == 4

    def test_fail_exit_code(self, capsys, monkeypatch):
        stub = InequalityReport(
            theorem_id="3.1", seed=0, lhs=2.0, rhs=1.0, margin=-1.0,
            combined_error=1e-10, verdict="fail", instance=None)
        monkeypatch.setattr(cli, "check_instance", lambda inst, order=64: stub)
        code, _, _ = run(["check", "--theorem", "3.1", "--format", "csv"], capsys)
        assert code == 1


class TestSuite:
    def test_small_campaign_csv(self, capsys, tmp_path):
        out_path = tmp_path / "rows.csv"
        code, _, _ = run(["suite", "--theorems", "all", "--trials", "2",
                          "--seed", "5", "--format", "csv",
                          "--out", str(out_path)], capsys)
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == CSV_HEADER
        data = [ln for ln in lines[1:] if not ln.startswith("#")]
        summary = [ln for ln in lines[1:] if ln.startswith("#")]
        assert len(data) == 12
        assert len(summary) == 1 and "fail=0" in summary[0]

    def test_reruns_are_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run(["suite", "--theorems", "3.1,4.4", "--trials", "3",
                              "--seed", "21", "--format", "csv",
                              "--out", str(path)], capsys)
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_parallel_output_matches_serial(self, capsys, tmp_path):
        a, b = tmp_path / "serial.csv", tmp_path / "par.csv"
        base = ["suite", "--theorems", "3.2,4.1", "--trials", "3", "--seed", "13",
                "--format", "csv"]
        assert run(base + ["--jobs", "1", "--out", str(a)], capsys)[0] == 0
        assert run(base + ["--jobs", "2", "--out", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_mirrors_csv_fields(self, capsys):
        code, out, _ = run(["suite", "--theorems", "4.2", "--trials", "2",
                            "--seed", "3", "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert len(doc["rows"]) == 2
        row = doc["rows"][0]
        assert set(row) == set(CSV_HEADER.split(","))
        assert doc["summary"]["fail"] == 0

    def test_zero_trials_is_usage_error(self, capsys):
        code, _, err = run(["suite", "--trials", "0"], capsys)
        assert code == 64
        assert "usage error" in err

    def test_unknown_theorem_is_usage_error(self, capsys):
        code, _, _ = run(["suite", "--theorems", "3.1,9.9", "--trials", "1"], capsys)
        assert code == 64

    def test_order_out_of_range_is_validation_error(self, capsys):
        code, out, err = run(["suite", "--theorems", "3.1", "--trials", "2",
                              "--order", "500"], capsys)
        assert code == 2
        assert out == ""
        assert "order must be an integer" in err

    def test_unwritable_output_path(self, capsys):
        code, _, err = run(["suite", "--theorems", "3.1", "--trials", "1",
                            "--out", "/nonexistent-dir/rows.csv"], capsys)
        assert code == 5


class TestConfig:
    def test_config_overrides_flags(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "alpha": 1.0, "beta": -1.0, "eta": 0.0, "mu": 0.0, "k": 0.0,
            "mode": "definition-only", "fn": "affine:1,1", "x": 1.0,
            "format": "json"}))
        code, out, _ = run(["eval", "--config", str(cfg)], capsys)
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(1.5, rel=1e-12)

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 1.0, "bogus": 3}))
        code, _, err = run(["eval", "--config", str(cfg)], capsys)
        assert code == 64
        assert "bogus" in err

    @pytest.mark.parametrize("argv, cfg", [
        (["suite", "--theorems", "3.1"], {"trials": "3"}),
        (["eval"], {"x": "2"}),
        (["suite", "--theorems", "3.1"], {"trials": True}),
        (["check", "--theorem", "3.1"], {"equality": 1}),
        (["sweep", "--theorem", "3.1"], {"axis": [1]}),
    ])
    def test_wrong_type_is_usage_error(self, capsys, tmp_path, argv, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, _, err = run(argv + ["--config", str(path)], capsys)
        assert code == 64
        assert repr(next(iter(cfg))) in err

    @pytest.mark.parametrize("argv, cfg", [
        (["eval"], {"format": "xml"}),
        (["suite", "--theorems", "3.1", "--trials", "1"], {"format": "xml"}),
        (["eval"], {"mode": "bogus"}),
    ])
    def test_value_outside_choices_is_usage_error(self, capsys, tmp_path, argv, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run(argv + ["--config", str(path)], capsys)
        assert code == 64
        assert out == ""
        assert repr(next(iter(cfg))) in err

    def test_int_widens_to_float(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"x": 2}))
        code, out, _ = run(EVAL_RL + ["--config", str(path), "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(4.0, rel=1e-12)

    def test_missing_file_is_io_error(self, capsys):
        code, _, _ = run(["eval", "--config", "/no/such/file.json"], capsys)
        assert code == 5


class TestSweep:
    def test_one_point_grid_matches_check(self, capsys):
        inst = random_instance(7, "3.1")
        axis = f"M={inst.M!r}:{inst.M!r}:1"
        code, sweep_out, _ = run(["sweep", "--theorem", "3.1", "--seed", "7",
                                  "--axis", axis, "--format", "csv"], capsys)
        assert code == 0
        code, check_out, _ = run(["check", "--theorem", "3.1", "--seed", "7",
                                  "--format", "csv"], capsys)
        assert code == 0
        assert sweep_out.strip().splitlines()[1] == check_out.strip().splitlines()[1]

    def test_margin_monotone_along_ratio_cap(self, capsys):
        code, out, _ = run(["sweep", "--theorem", "3.1", "--seed", "7",
                            "--axis", "M=1.6:4.0:6", "--format", "csv"], capsys)
        assert code == 0
        margins = [float(ln.split(",")[16]) for ln in out.strip().splitlines()[1:]]
        assert len(margins) == 6
        assert all(b >= a for a, b in zip(margins, margins[1:]))

    def test_rows_outside_window_are_skipped(self, capsys):
        code, out, _ = run(["sweep", "--theorem", "3.1", "--seed", "7",
                            "--axis", "eta=-0.5:0.5:4", "--format", "csv"], capsys)
        assert code == 0
        lines = out.strip().splitlines()[1:]
        verdicts = [ln.split(",")[18] for ln in lines]
        assert verdicts[:2] == ["pass", "pass"]
        assert all(v.startswith("skipped") for v in verdicts[2:])


    def test_order_out_of_range_is_validation_error(self, capsys):
        code, out, err = run(["sweep", "--theorem", "3.1", "--seed", "7",
                              "--axis", "M=1.6:4.0:3", "--order", "0"], capsys)
        assert code == 2
        assert out == ""
        assert "order must be an integer" in err


class TestRender:
    """csv, json and human are three views of the same rows."""

    COMMANDS = {
        "kernel": (TestKernel.ARGS + ["--points", "6", "--terms", "200"], KERNEL_HUMAN_HEADER),
        "check": (["check", "--theorem", "3.1", "--seed", "7"], REPORT_HUMAN_HEADER),
        "suite": (["suite", "--theorems", "all", "--trials", "2", "--seed", "5"],
                  REPORT_HUMAN_HEADER),
        "sweep": (["sweep", "--theorem", "4.2", "--seed", "3", "--axis", "p=0.5:3:5"],
                  REPORT_HUMAN_HEADER),
    }

    @pytest.fixture(params=sorted(COMMANDS))
    def views(self, request, capsys):
        argv, header = self.COMMANDS[request.param]
        outs = {}
        for fmt in ("csv", "json", "human"):
            code, outs[fmt], _ = run(argv + ["--format", fmt], capsys)
            assert code == 0
        return request.param, header, outs

    def test_json_rows_equal_csv_cells(self, views):
        _, _, outs = views
        rows = json.loads(outs["json"])["rows"]
        data = [ln for ln in outs["csv"].splitlines() if not ln.startswith("#")]
        cells = list(csv.DictReader(io.StringIO("\n".join(data))))
        assert len(cells) == len(rows) >= 1
        for row, cell in zip(rows, cells):
            assert list(row) == list(cell)
            for name, value in row.items():
                if value is None:   # empty, or a non-finite number
                    assert cell[name] == "" or not math.isfinite(float(cell[name]))
                elif isinstance(value, str):
                    assert cell[name] == value
                else:
                    assert type(value)(cell[name]) == value, name

    def test_human_table_shape(self, views):
        command, header, outs = views
        lines = outs["human"].splitlines()
        rows = json.loads(outs["json"])["rows"]
        summary = [ln for ln in outs["csv"].splitlines() if ln.startswith("#")]
        assert len(summary) == (command == "suite")
        assert lines[0] == header
        assert len(lines) == 1 + len(rows) + len(summary)
        assert lines[1 + len(rows):] == summary


def test_selftest_battery(capsys):
    code, out, _ = run(["selftest"], capsys)
    assert code == 0
    assert "7 of 7 checks passed" in out


def test_selftest_reports_every_failing_check(capsys, monkeypatch):
    names = [name for name, _ in cli._selftest_checks()]
    ran = []

    def stub(i):
        def check():
            ran.append(names[i])
            if i == 2:
                return "off by one ulp"
            if i == 4:
                raise RuntimeError("no rule")
            return None
        return check

    monkeypatch.setattr(cli, "_selftest_checks", lambda: [(name, stub(i)) for i, name in enumerate(names)])
    code, out, _ = run(["selftest"], capsys)
    assert code == 1
    assert ran == names
    lines = out.splitlines()
    assert f"FAIL  {names[2]}: off by one ulp" in lines
    assert f"FAIL  {names[4]}: RuntimeError: no rule" in lines
    assert sum(line.startswith("ok    ") for line in lines) == 5
    assert lines[-1] == "5 of 7 checks passed"


# each library name the battery binds in hyperk.cli, and the checks that call it
SELFTEST_CALLERS = {
    "log_gamma": ("log-gamma golden values", "hypergeometric golden values",
                  "unit image against its closed form"),
    "pochhammer": ("pochhammer and beta golden values",),
    "beta": ("pochhammer and beta golden values", "quadrature nodes and moments"),
    "gauss_2f1": ("hypergeometric golden values",),
    "apply_operator": ("reduction to the plain fractional integral", "unit image against its closed form"),
    "rl_k_integral": ("reduction to the plain fractional integral",),
    "kernel_closed": ("kernel series against closed form",),
    "kernel_series": ("kernel series against closed form",),
    "operator_of_one": ("unit image against its closed form",),
}


@pytest.mark.parametrize("name", SELFTEST_CALLERS)
def test_selftest_fails_on_nan(capsys, monkeypatch, name):
    """A NaN compares false with every allowance, so a library function
    that returns NaN fails each check that calls it, and only those."""
    nan = OperatorResult(math.nan, math.nan, 128) if name == "apply_operator" else math.nan
    monkeypatch.setattr(cli, name, lambda *args, **kwargs: nan)
    code, out, _ = run(["selftest"], capsys)
    assert code == 1
    failed = [line[6:].split(":")[0] for line in out.splitlines() if line.startswith("FAIL  ")]
    assert failed == [check for check, _ in cli._selftest_checks() if check in SELFTEST_CALLERS[name]]
    assert out.splitlines()[-1] == f"{7 - len(failed)} of 7 checks passed"


def test_selftest_fails_on_inf_against_inf(capsys, monkeypatch):
    """inf - inf is NaN, so a kernel whose closed form and series are both
    inf fails at its first case."""
    for name in ("kernel_closed", "kernel_series"):
        monkeypatch.setattr(cli, name, lambda *args, **kwargs: math.inf)
    code, out, _ = run(["selftest"], capsys)
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL  kernel series against closed form: kernel series at alpha=0.5, tau=0.9 = inf, want inf"]
