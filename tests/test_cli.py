"""CLI surface: parsing, exit codes, formats, determinism."""

import csv
import io
import json
import math
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from adamskit import extremal, hardy
from adamskit.cli import main, parse_args
from adamskit.constants import AdamsParams, beta0

#: Sweep outputs; the fields must agree to 1e-14 relative.  sweep_16_120.json
#: is from the heap-ordered engine; sweep_104_512.csv was re-pinned when the
#: graded first level moved its nodes, after every J was checked against a
#: 30-digit mpmath reference to 1e-12.
DATA = Path(__file__).parent / "data"
#: Invocation -> stdout, stderr and exit code of the CLI (run from ``DATA``,
#: which holds cells.csv); the ``cc`` cases were re-pinned with the graded
#: first level, after the same mpmath check of each J, and the ``--seed 2``
#: Rayleigh probe when each Hardy norm became one engine call and again when
#: the first level was graded toward r = 0 (its error went 1.9e-13 -> 1.1e-15),
#: each time after every hardy max_ratio was checked against a 30-digit
#: mpmath reference to 1e-12.
CLI_GOLDEN = json.loads((DATA / "cli_golden.json").read_text())
#: A number not glued to a word, e.g. "1e-10" and "-0.5" but not "beta0".
NUMBER = re.compile(r"(?<![\w.])-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?(?![\w.])")


def run_cli(args, capsys):
    status = main(args)
    captured = capsys.readouterr()
    return status, captured.out, captured.err


class TestParsing:
    def test_t0_defaults(self):
        args = parse_args(["t0"])
        assert args.command == "t0"
        assert args.seed == 0
        assert args.rtol == 1e-10

    def test_parse_ok_domain_fails_later(self, capsys):
        # m >= n parses fine; the domain check happens in run().
        args = parse_args(["constants", "--m", "3", "--n", "3"])
        assert args.command == "constants"
        status, _out, err = run_cli(["constants", "--m", "3", "--n", "3"], capsys)
        assert status == 2
        assert "domain error" in err

    def test_cc_family_mapping(self):
        args = parse_args(["cc", "--p", "2", "--family", "moser", "--a", "1000"])
        assert args.command == "cc"
        assert args.family == "moser"
        assert args.a == 1000.0

    def test_malformed_exits_64(self):
        result = subprocess.run(
            [sys.executable, "-m", "adamskit.cli", "constants", "--m", "x", "--n", "4"],
            capture_output=True,
        )
        assert result.returncode == 64

    def test_help_exits_zero(self):
        result = subprocess.run(
            [sys.executable, "-m", "adamskit.cli", "--help"], capture_output=True
        )
        assert result.returncode == 0
        assert b"constants" in result.stdout

    @pytest.mark.parametrize(
        "argv",
        [
            ["hardy", "--p", "2", "--q", "3", "--alpha", "0", "--theta", "-0.5",
             "--R", "inf", "--trials", "2"],
            ["hardy", "--second-order", "--n-dim", "8", "--q", "2", "--R", "inf",
             "--trials", "2"],
            ["cc", "--p", "2", "--maximize", "--A", "inf"],
            ["cc", "--family", "moser", "--p", "2", "--a", "inf"],
            ["cc", "--p", "inf", "--family", "moser", "--a", "10"],
            ["level", "--m", "1", "--n", "2", "--measure", "nan"],
        ],
    )
    def test_non_finite_float_exits_64(self, argv, capsys):
        bad = next(arg for arg in argv if arg in ("inf", "nan"))
        option = argv[argv.index(bad) - 1]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 64
        err = capsys.readouterr().err
        assert f"argument {option}: must be finite, got '{bad}'" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--seed", "-1", "hardy", "--p", "2", "--q", "2", "--alpha", "-1", "--theta", "-3",
             "--trials", "3"],
            ["--seed", "-2", "cc", "--p", "2", "--maximize"],
            ["hardy", "--p", "2", "--q", "2", "--alpha", "-1", "--theta", "-3", "--trials", "-5"],
        ],
        ids=["seed-hardy", "seed-maximize", "trials"],
    )
    def test_negative_count_exits_64(self, argv, capsys):
        option = next(arg for arg in argv if arg in ("--seed", "--trials") and
                      argv[argv.index(arg) + 1].startswith("-"))
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {option}: must be a non-negative integer" in captured.err

    def test_maximize_rejects_a_q_it_does_not_use(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cc", "--p", "2", "--q", "3", "--maximize"])
        assert exc.value.code == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--maximize works at q = p/(p-1) = 2.0 for --p 2.0, got --q 3.0" in captured.err

    def test_maximize_takes_the_conjugate_q(self, capsys):
        status, out, _ = run_cli(["cc", "--p", "2", "--q", "2", "--maximize", "--knots", "8"], capsys)
        assert status == 0
        assert json.loads(out)["q"] == 2.0

    @pytest.mark.parametrize(
        "argv",
        [["cc", "--p", "1", "--maximize"], ["cc", "--p", "1", "--family", "moser", "--a", "10"]],
        ids=["maximize", "moser"],
    )
    def test_p_one_is_a_domain_error(self, argv, capsys):
        status, out, err = run_cli(argv, capsys)
        assert status == 2
        assert out == ""
        assert "domain error" in err

    def test_zero_trials_skips_the_probe(self, capsys):
        argv = ["hardy", "--p", "2", "--q", "2", "--alpha", "-1", "--theta", "-3", "--trials", "0"]
        status, out, _ = run_cli(argv, capsys)
        assert status == 0
        assert "max_ratio" not in json.loads(out)

    def test_env_rtol_override(self, monkeypatch):
        monkeypatch.setenv("ADAMS_QUAD_RTOL", "1e-8")
        assert parse_args(["t0"]).rtol == 1e-8

    @pytest.mark.parametrize("value", ["abc", "inf"])
    def test_malformed_env_rtol_exits_64(self, value, monkeypatch, capsys):
        monkeypatch.setenv("ADAMS_QUAD_RTOL", value)
        with pytest.raises(SystemExit) as exc:
            main(["t0"])
        assert exc.value.code == 64
        assert "argument --rtol" in capsys.readouterr().err

    def test_non_number_message(self, monkeypatch, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--rtol", "abc", "t0"])
        assert exc.value.code == 64
        assert "argument --rtol: must be a finite number, got 'abc'" in capsys.readouterr().err
        monkeypatch.setenv("ADAMS_QUAD_RTOL", "abc")
        with pytest.raises(SystemExit) as exc:
            main(["t0"])
        assert exc.value.code == 64
        assert "argument --rtol: must be a finite number, got 'abc'" in capsys.readouterr().err


class TestCommands:
    def test_constants_value(self, capsys):
        status, out, _ = run_cli(["constants", "--m", "2", "--n", "4"], capsys)
        assert status == 0
        payload = json.loads(out)
        assert payload["beta0"] == pytest.approx(32 * math.pi**2, rel=1e-12)
        assert payload["beta0"] == pytest.approx(315.8273, abs=5e-4)

    def test_t0_payload(self, capsys):
        status, out, _ = run_cli(["t0"], capsys)
        assert status == 0
        payload = json.loads(out)
        assert payload["T0"] == 52
        assert payload["n_threshold"] == 104
        assert payload["raw"] == pytest.approx(51.9233, abs=5e-4)

    def test_level_classical(self, capsys):
        status, out, _ = run_cli(["level", "--m", "1", "--n", "2"], capsys)
        payload = json.loads(out)
        assert status == 0
        assert payload["level"] == pytest.approx(1 + math.e, abs=1e-12)

    def test_constants_underflow_is_domain_error(self, capsys):
        status, out, err = run_cli(["constants", "--m", "2", "--n", "100000"], capsys)
        assert status == 2
        assert out == ""
        assert "log_unit_sphere_area" in err

    def test_cc_and_level_report_the_same_level(self, capsys):
        _status, out_cc, _ = run_cli(
            ["cc", "--p", "2", "--family", "moser", "--a", "1000"], capsys
        )
        _status, out_level, _ = run_cli(["level", "--m", "1", "--n", "2"], capsys)
        level = json.loads(out_level)["level"]
        assert json.loads(out_cc)["concentration_level"] == level
        # digamma's stated absolute error is 1e-12.
        assert level == pytest.approx(1 + math.e, rel=1e-12)

    def test_hardy_probe_ok(self, capsys):
        status, out, _ = run_cli(
            ["hardy", "--p", "2", "--q", "2", "--alpha", "-1", "--theta", "-3",
             "--trials", "4"],
            capsys,
        )
        payload = json.loads(out)
        assert status == 0
        assert payload["probe_ok"] is True
        assert payload["max_ratio"] <= payload["upper"] + 1e-9

    def test_hardy_probe_check_is_relative(self, monkeypatch, capsys):
        # upper = 8.84e-76 at R = 1e-50, so twice it is a violation.
        setup = hardy.HardySetup(
            p=2.0, q=3.0, alpha=0.0, theta=2.0, R=1e-50, side=hardy.Side.LEFT_VANISHING
        )
        ratio = 2.0 * hardy.sandwich(setup).upper
        monkeypatch.setattr(
            hardy, "rayleigh_probe", lambda *args, **kwargs: hardy.ProbeResult(ratio, None)
        )
        argv = ["hardy", "--p", "2", "--q", "3", "--alpha", "0", "--theta", "2",
                "--R", "1e-50", "--trials", "20"]
        status, out, _ = run_cli(argv, capsys)
        assert status == 4
        assert json.loads(out)["probe_ok"] is False

    def test_hardy_infeasible_is_domain_error(self, capsys):
        status, _out, err = run_cli(
            ["hardy", "--p", "2", "--q", "2", "--alpha", "3", "--theta", "0"], capsys
        )
        assert status == 2
        assert "domain error" in err

    @pytest.mark.parametrize(
        "radius, message",
        [
            ("0", "interval endpoint must be positive and finite, got R=0.0"),
            ("-1", "interval endpoint must be positive and finite, got R=-1.0"),
            ("1e200", "the trial's coefficients overflow at R=1e+200"),
            ("1e-41", "the trial's integrals (0, 0) underflow the float range at R=1e-41"),
        ],
    )
    def test_second_order_bad_radius_is_domain_error(self, radius, message, capsys):
        argv = ["hardy", "--second-order", "--n-dim", "8", "--q", "2", "--trials", "5",
                "--R", radius]
        status, out, err = run_cli(argv, capsys)
        assert status == 2
        assert out == ""
        assert err == f"adamskit: domain error: {message}\n"

    @pytest.mark.parametrize("radius", ["1e-300", "1e300"])
    def test_hardy_radius_out_of_range_is_domain_error(self, radius, capsys):
        argv = ["hardy", "--p", "2", "--q", "2", "--alpha", "-1", "--theta", "-3",
                "--R", radius, "--trials", "3"]
        status, out, err = run_cli(argv, capsys)
        assert status == 2
        assert out == ""
        assert err == (
            "adamskit: domain error: interval endpoint must lie in [1e-100, 1e+100],"
            f" got R={float(radius)!r}\n"
        )

    def test_hardy_right_at_huge_theta(self, capsys):
        argv = ["hardy", "--p", "2", "--q", "2", "--alpha", "2", "--theta", "1e300",
                "--side", "right"]
        status, out, err = run_cli(argv, capsys)
        assert (status, err) == (0, "")
        # B -> e^{-1/2}/(theta+1) at R = 1.
        assert json.loads(out)["lower"] == pytest.approx(math.exp(-0.5) * 1e-300, rel=1e-12)
        status, out, err = run_cli(argv + ["--R", "3"], capsys)
        assert (status, out) == (2, "")
        assert err == (
            "adamskit: domain error: B = exp(5.49306e+299) is outside the float range"
            " at theta=1e+300, R=3.0\n"
        )

    def test_hardy_left_at_huge_theta(self, capsys):
        argv = ["hardy", "--p", "2", "--q", "2", "--alpha", "-1", "--theta", "1e300"]
        status, out, err = run_cli(argv, capsys)
        assert (status, err) == (0, "")
        # B -> (2 (theta+3))^{-1/2} at R = 1.
        assert json.loads(out)["lower"] == pytest.approx(math.sqrt(0.5e-300), rel=1e-12)
        status, out, err = run_cli(argv + ["--R", "2"], capsys)
        assert (status, out) == (2, "")
        assert err == (
            "adamskit: domain error: B = exp(3.46574e+299) is outside the float range"
            " at theta=1e+300, R=2.0\n"
        )

    def test_second_order_overflow_is_quadrature_failure(self, capsys):
        # |u|^p overflows on (0, R): the engine names the panel, and numpy
        # prints no warning.
        argv = ["hardy", "--second-order", "--n-dim", "8", "--q", "2", "--trials", "5",
                "--R", "1e50"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            status, out, err = run_cli(argv, capsys)
        assert (status, out) == (3, "")
        assert err == (
            "adamskit: quadrature failure: integrand is infinite on the panel [0.0, 1e+50]\n"
        )

    def test_cc_moser(self, capsys):
        status, out, _ = run_cli(
            ["cc", "--p", "2", "--family", "moser", "--a", "1000"], capsys
        )
        payload = json.loads(out)
        assert status == 0
        assert payload["within_level"] is True
        assert payload["J"] == pytest.approx(3.0040, abs=2e-3)

    def test_rearrange_roundtrip(self, tmp_path, capsys):
        src = tmp_path / "cells.csv"
        src.write_text("1.0,2.0\n0.5,-3.5\n2.0,1.0\n", encoding="utf-8")
        status, out, _ = run_cli(["rearrange", "--input", str(src)], capsys)
        assert status == 0
        assert out.splitlines() == [
            "measure,value",
            "0.5,3.5",
            "1.0,2.0",
            "2.0,1.0",
        ]

    @pytest.mark.parametrize(
        "text",
        ["1.0,2.0\n0.5,abc\n", "1.0,2.0\n0.5,nan\n", "1.0,2.0\ninf,1.0\n"],
        ids=["non-numeric", "nan-value", "inf-measure"],
    )
    def test_rearrange_bad_cell_exits_2(self, text, tmp_path, capsys):
        src = tmp_path / "cells.csv"
        src.write_text(text, encoding="utf-8")
        status, out, err = run_cli(["rearrange", "--input", str(src)], capsys)
        assert status == 2
        assert out == ""
        assert "row 2" in err

    def test_rearrange_unreadable_input_exits_64(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.csv")
        status, _out, err = run_cli(["rearrange", "--input", missing], capsys)
        assert status == 64
        assert missing in err

    def test_sweep_csv_header_and_gaps(self, capsys):
        status, out, _ = run_cli(
            ["extremal-sweep", "--n-from", "100", "--n-to", "140", "--step", "2"],
            capsys,
        )
        assert status == 0
        lines = out.splitlines()
        assert lines[0] == "n,norm_chain,norm_quad,J_lower,J_quad,level,gap_analytic,gap_numeric"
        for line in lines[1:]:
            fields = line.split(",")
            if int(fields[0]) >= 104:
                assert fields[6] == "true"

    def test_sweep_json_echoes_params(self, capsys):
        status, out, _ = run_cli(
            ["--format", "json", "extremal-sweep", "--n-from", "104", "--n-to", "106"],
            capsys,
        )
        payload = json.loads(out)
        assert status == 0
        assert payload[0]["params"]["lambda"] > 104 / 2


class TestOutputContracts:
    def test_seventeen_digit_json_round_trips(self, capsys):
        _status, out, _ = run_cli(["constants", "--m", "1", "--n", "2"], capsys)
        payload = json.loads(out)
        # 17 significant digits means the parsed value is bit-identical to
        # the library value.
        assert payload["beta0"] == beta0(AdamsParams(1, 2))
        emitted = out.split('"beta0": ')[1].split(",")[0]
        assert len(emitted.replace(".", "").replace("-", "").lstrip("0")) >= 16

    def test_byte_identical_given_seed(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        base = ["--seed", "7", "hardy", "--p", "2", "--q", "2", "--alpha", "-1",
                "--theta", "-3", "--trials", "6"]
        assert main(["--output", str(first)] + base) == 0
        assert main(["--output", str(second)] + base) == 0
        assert first.read_bytes() == second.read_bytes()
        assert b"\r" not in first.read_bytes()

    def test_csv_format_flag(self, capsys):
        status, out, _ = run_cli(
            ["--format", "csv", "t0"], capsys
        )
        assert status == 0
        lines = out.splitlines()
        assert lines[0] == "raw,T0,n_threshold"
        assert lines[1].split(",")[1] == "52"

    def test_quadrature_stall_exits_3(self, capsys):
        # An unreachable tolerance forces the nonconvergence path.
        status, _out, err = run_cli(
            ["--rtol", "1e-300", "cc", "--p", "2", "--family", "moser", "--a", "4"],
            capsys,
        )
        assert status == 3
        assert "quadrature" in err

    def test_missed_mass_exits_3(self, capsys):
        # At a = 1e300 no quadrature can resolve the ramp's end strip (it
        # used to print J = 0): the rounding guard refuses it.
        status, out, err = run_cli(["cc", "--p", "2", "--family", "moser", "--a", "1e300"], capsys)
        assert status == 3
        assert out == ""
        assert "carries a relative rounding of" in err
        assert "more than the tolerance rel_tol = 1.000e-10 can absorb" in err

    def test_unwritable_output_exits_64(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.json"
        with pytest.raises(SystemExit) as exc:
            main(["--output", str(target), "t0"])
        assert exc.value.code == 64
        assert f"cannot write --output {str(target)!r}" in capsys.readouterr().err

    def test_quadrature_below_the_lower_bound_exits_3(self, monkeypatch, capsys):
        lower = extremal.functional_lower_bound(extremal.make_params(104))
        monkeypatch.setattr(extremal, "cc_functional", lambda *_args: 1.0)
        status, out, err = run_cli(["extremal-sweep", "--n-from", "104", "--n-to", "110"], capsys)
        assert status == 3
        assert out == ""
        assert err == (
            f"adamskit: quadrature failure: at n = 104 the quadrature J = 1.0 is below"
            f" the proven lower bound {lower!r}: the quadrature missed the integrand's mass\n"
        )

    @pytest.mark.parametrize("n", ["5000", "10000"])
    def test_tolerance_below_rounding_exits_3(self, n, capsys):
        status, out, err = run_cli(
            ["--rtol", "1e-13", "extremal-sweep", "--n-from", n, "--n-to", n], capsys
        )
        assert status == 3
        assert out == ""
        assert "rounding error of the integrand" in err


def assert_close(got, want, where=""):
    """Numbers to 1e-14 relative, booleans and everything else exactly."""
    if isinstance(want, dict):
        assert list(got) == list(want), where
        for key in want:
            assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, f"{where}[{i}]")
    elif isinstance(want, bool) or not isinstance(want, (int, float)):
        assert got == want, where
    else:
        assert got == pytest.approx(want, rel=1e-14, abs=0.0), where


class TestGoldenSweep:
    def test_csv_104_512(self, capsys):
        status, out, _ = run_cli(["extremal-sweep", "--n-from", "104", "--n-to", "512"], capsys)
        assert status == 0
        got = list(csv.DictReader(io.StringIO(out)))
        want = list(csv.DictReader((DATA / "sweep_104_512.csv").open(newline="")))
        assert [list(row) for row in got] == [list(row) for row in want]
        for g, w in zip(got, want, strict=True):
            for key in w:
                if key.startswith("gap_"):
                    assert g[key] == w[key], (w["n"], key)
                else:
                    assert_close(float(g[key]), float(w[key]), f"n={w['n']} {key}")

    def test_json_16_120(self, capsys):
        argv = ["--format", "json", "extremal-sweep", "--n-from", "16", "--n-to", "120"]
        status, out, _ = run_cli(argv, capsys)
        assert status == 0
        assert_close(json.loads(out), json.loads((DATA / "sweep_16_120.json").read_text()))


@pytest.mark.parametrize("invocation", list(CLI_GOLDEN))
def test_golden_cli_output(invocation, monkeypatch, capsys):
    """Text with the numbers cut out and stderr byte-identical; numbers to 1e-14."""
    monkeypatch.delenv("ADAMS_QUAD_RTOL", raising=False)
    monkeypatch.chdir(DATA)
    want = CLI_GOLDEN[invocation]
    status, out, err = run_cli(shlex.split(invocation), capsys)
    assert (status, err) == (want["exit"], want["stderr"])
    assert NUMBER.split(out) == NUMBER.split(want["stdout"])
    numbers = [[float(x) for x in NUMBER.findall(text)] for text in (out, want["stdout"])]
    assert_close(*numbers)
