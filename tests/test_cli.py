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

import mpmath
import pytest

from adamskit import extremal, hardy, moser1d
from adamskit.cli import _COMMANDS, _FORMATS, main, parse_args
from adamskit.constants import AdamsParams, beta0

#: Sweep outputs, printed byte for byte.  sweep_16_120.json is from the
#: heap-ordered engine; sweep_104_512.csv was re-pinned when the graded
#: first level moved its nodes, after every J was checked against a 30-digit
#: mpmath reference to 1e-12.
DATA = Path(__file__).parent / "data"
#: Invocation -> stdout, stderr and exit code of the CLI (run from ``DATA``,
#: which holds cells.csv); the ``cc`` cases were re-pinned with the graded
#: first level, after the same mpmath check of each J, and the ``--seed 2``
#: Rayleigh probe when each Hardy norm became one engine call and again when
#: the first level was graded toward r = 0 (its error went 1.9e-13 -> 1.1e-15),
#: each time after every hardy max_ratio was checked against a 30-digit
#: mpmath reference to 1e-12.  ``hardy --second-order --n-dim 8 --q 2
#: --trials 50`` was re-pinned when even-p norms became closed form, after
#: its max_ratio was checked against the 60-digit closed form to 7.7e-17.
CLI_GOLDEN = json.loads((DATA / "cli_golden.json").read_text())
#: The entries whose numbers moved in their last digits since they were
#: pinned: compared to 1e-14 relative until they are re-pinned.  Every other
#: entry prints its pinned bytes.
DRIFTED = {
    "--rtol 1e-12 cc --p 2.5 --family moser --a 500",
    "--seed 2 hardy --p 2 --q 2 --alpha 2 --theta 0.5 --side right --R 3 --trials 30",
    "--seed 3 hardy --second-order --n-dim 12 --q 2.5 --p 3 --R 2 --trials 20",
}
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

    def test_maximize_rejects_csv(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--format", "csv", "cc", "--p", "2", "--maximize"])
        assert exc.value.code == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--maximize writes its profile as JSON only, got --format csv" in captured.err

    def test_every_command_has_its_formats(self):
        assert set(_FORMATS) == {*_COMMANDS, "cc --maximize"}

    def test_format_defaults(self):
        assert parse_args(["t0"]).format == "json"
        assert parse_args(["rearrange", "--input", "cells.csv"]).format == "csv"
        assert parse_args(["extremal-sweep", "--n-from", "104", "--n-to", "106"]).format == "csv"
        assert parse_args(["cc", "--p", "2", "--maximize"]).format == "json"

    @pytest.mark.parametrize("mode", ["rearrange", "symmetrize", "talenti"])
    def test_rearrange_rejects_json(self, mode, capsys):
        argv = ["--format", "json", "rearrange", "--input", str(DATA / "cells.csv"), "--mode", mode,
                "--radius", "1"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "rearrange writes its profile as CSV only, got --format json" in captured.err

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

    HUGE_N = str(10**400)
    FLOAT_RANGE = {
        # beta0(19, 20) = e^752.
        "beta0": (["constants", "--m", "19", "--n", "20"], "beta0 overflows double precision at m=19, n=20"),
        "constants-n": (["constants", "--m", "2", "--n", HUGE_N], "dimension n must be at most 1.797"),
        "level-n": (["level", "--m", "2", "--n", HUGE_N], "dimension n must be at most 1.797"),
        # The ramp's slope (1e300)^(1/2.1), to the conjugate power 11 of q = 1.1.
        "energy": (
            ["cc", "--family", "moser", "--p", "2.1", "--a", "1e-300", "--q", "1.1"],
            "|g'|^p on [0.0, 1e-300] leaves the float range at p=10.99",
        ),
    }

    @pytest.mark.parametrize("argv, message", list(FLOAT_RANGE.values()), ids=list(FLOAT_RANGE))
    def test_float_range_refusal_names_its_parameter(self, argv, message, capsys):
        # Each used to exit 2 with Python's own OverflowError message.
        status, out, err = run_cli(argv, capsys)
        assert (status, out) == (2, "")
        assert err.startswith(f"adamskit: domain error: {message}")

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["--seed", "15742", "hardy", "--alpha", "2", "--side", "right"],
            ["--seed", "5294", "hardy", "--alpha", "0.5", "--side", "left"],
        ],
        ids=["right", "left"],
    )
    def test_hardy_trial_with_knots_1e9_apart(self, argv, capsys):
        # Two of these trials' random knots fall about 1e-9 apart; building
        # the polyline once exited 2 with "profile discontinuous at knot".
        argv = argv + ["--p", "2", "--q", "3", "--theta", "0.5", "--R", "1.3", "--trials", "10"]
        status, out, err = run_cli(argv, capsys)
        assert (status, err) == (0, "")
        payload = json.loads(out)
        assert math.isfinite(payload["max_ratio"]) and payload["probe_ok"] is True

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
        # The engine's route (p = 3); an even p keeps its digits there.
        argv = ["hardy", "--second-order", "--n-dim", "8", "--q", "2", "--trials", "5",
                "--R", radius, "--p", "3"]
        status, out, err = run_cli(argv, capsys)
        assert status == 2
        assert out == ""
        assert err == f"adamskit: domain error: {message}\n"

    @pytest.mark.parametrize("radius", ["1e200", "1e50", "1e-41"])
    def test_second_order_even_p_at_extreme_radius(self, radius, capsys):
        # Where p = 3 refuses, p = 2's closed form returns the max of its
        # trials' 60-digit ratios.
        from test_hardy import closed_form_p2_ratio, draws

        argv = ["hardy", "--second-order", "--n-dim", "8", "--q", "2", "--trials", "5",
                "--R", radius]
        status, out, err = run_cli(argv, capsys)
        assert (status, err) == (0, "")
        want = max(closed_form_p2_ratio(8, 2.0, float(radius), c) for c in draws(5, 0))
        assert json.loads(out)["max_ratio"] == pytest.approx(float(want), rel=1e-13)

    def test_second_order_weight_beyond_the_float_range(self, capsys):
        # r^{np/q* - 1} ~ r^391 leaves the float range at r = 7.4, where the
        # engine's route exited 3 "integrand is infinite"; the closed form
        # on [0, 1] meets the exact expansion.
        from test_hardy import closed_form_ratio, draws

        n, q, R = 100, 1.0000000001, 7.437213197232482
        argv = ["hardy", "--second-order", "--n-dim", str(n), "--q", repr(q), "--p", "4",
                "--R", repr(R), "--trials", "1"]
        status, out, err = run_cli(argv, capsys)
        assert (status, err) == (0, "")
        want = closed_form_ratio(n, 4, q, R, draws(1, 0)[0])
        assert json.loads(out)["max_ratio"] == pytest.approx(float(want), rel=1e-13)

    @pytest.mark.parametrize("p", ["-1", "0", "1e-300"])
    def test_second_order_p_below_one_is_domain_error(self, p, capsys):
        # p = -1 used to print a numpy warning and exit 3; p = 0 and 1e-300
        # spent the engine's split budget and exited 3.
        argv = ["hardy", "--second-order", "--n-dim", "8", "--q", "2", "--R", "1",
                "--trials", "3", "--p", p]
        status, out, err = run_cli(argv, capsys)
        assert (status, out) == (2, "")
        assert err == f"adamskit: domain error: need p >= 1, got p={float(p)!r}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("cc --p 1e10 --maximize", "maximizer requires 2 <= p <= 1e+06, got 10000000000.0"),
            ("cc --p 1e15 --maximize", "maximizer requires 2 <= p <= 1e+06, got 1000000000000000.0"),
            ("cc --p 1e16 --maximize", "maximizer requires 2 <= p <= 1e+06, got 1e+16"),
            ("cc --p 1e17 --family moser --a 5", "p must lie in (1, 1e+06], got 1e+17"),
            ("cc --p 1.5e6 --family moser --a 5 --q 2", "p must lie in (1, 1e+06], got 1500000.0"),
        ],
    )
    def test_huge_p_is_domain_error(self, argv, message, monkeypatch, capsys):
        # --maximize used to end in a ZeroDivisionError traceback (exit 1), and
        # the Moser family exited 2 naming q = p/(p-1), which rounds to 1.0.
        calls = []
        monkeypatch.setattr(moser1d, "adaptive_gauss", lambda *args, **kwargs: calls.append(args))
        status, out, err = run_cli(argv.split(), capsys)
        assert (status, out, err) == (2, "", f"adamskit: domain error: {message}\n")
        assert calls == []  # refused before any quadrature

    def test_largest_p_accepted(self, capsys):
        status, out, _ = run_cli(["cc", "--p", "1e6", "--family", "moser", "--a", "5"], capsys)
        assert status == 0
        assert abs(json.loads(out)["energy"] - 1.0) < 1e-9

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
        # |u|^p overflows on (0, R) on the engine's route (p = 3): the engine
        # names the panel, and numpy prints no warning.
        argv = ["hardy", "--second-order", "--n-dim", "8", "--q", "2", "--trials", "5",
                "--R", "1e50", "--p", "3"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            status, out, err = run_cli(argv, capsys)
        assert (status, out) == (3, "")
        assert err == (
            "adamskit: quadrature failure: integrand is infinite on the panel [0.0, 1e+50]\n"
        )

    def test_second_order_zero_times_inf_is_domain_error(self, capsys):
        # At p = 1e300 |u|^p overflows where the weight r^{np/q - 1 - p}
        # underflows: refused naming p before the engine sees their product.
        argv = ["hardy", "--second-order", "--n-dim", "4", "--q", "1.7797377807599197",
                "--p", "1e+300", "--trials", "1"]
        status, out, err = run_cli(argv, capsys)
        assert (status, out) == (2, "")
        assert err.startswith(
            "adamskit: domain error: at p=1e+300 a trial's |polynomial|^p and the weight r^"
        )
        assert err.endswith("where their product is 0 * inf\n")

    @pytest.mark.parametrize(
        "q, p", [("1.5", "1e308"), ("1.7797377807599197", "1.7e308")]
    )
    def test_second_order_overflowing_weight_is_domain_error(self, q, p, capsys):
        # n p / q* - 1 overflows to inf: this used to exit 2 with "cannot
        # convert float infinity to integer", an OverflowError of the grading.
        argv = ["hardy", "--second-order", "--n-dim", "4", "--q", q, "--p", p, "--trials", "1"]
        status, out, err = run_cli(argv, capsys)
        assert (status, out) == (2, "")
        assert err == f"adamskit: domain error: the weight exponents overflow at p={float(p)!r}\n"

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

    @pytest.mark.parametrize(
        "text, row",
        [
            ("0.5,2\n,3\n0.25,1\n", 2),
            ("measure,value\n0.5,2\nMeasure,3\n", 3),
            ("0.5,2,7\n", 1),
        ],
        ids=["blank-measure", "second-header", "third-cell"],
    )
    def test_rearrange_row_that_is_not_a_pair_exits_2(self, text, row, tmp_path, capsys):
        # Only blank rows and a leading header are skipped; no row is
        # dropped or cut short without a word.
        src = tmp_path / "cells.csv"
        src.write_text(text, encoding="utf-8")
        status, out, err = run_cli(["rearrange", "--input", str(src)], capsys)
        assert status == 2
        assert out == ""
        assert f"row {row}" in err

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

    def test_high_weight_probe_inside_the_sandwich(self, capsys):
        # At alpha = 60 the derivative norm's closed forms are
        # (b^61 - a^61)/61 with a^61 and b^61 far below 1, which cancelled to
        # 0 and made max_ratio 1.16e+52: a false failure of the sandwich.
        argv = ["hardy", "--p", "2", "--q", "2", "--alpha", "60", "--theta", "60",
                "--side", "right", "--R", "0.5", "--trials", "3"]
        status, out, err = run_cli(argv, capsys)
        assert (status, err) == (0, "")
        record = json.loads(out)
        assert record["lower"] <= record["max_ratio"] <= record["upper"]
        # 40 digits: 0.011310416300963452375.
        assert record["max_ratio"] == pytest.approx(0.011310416300963452375, rel=1e-13)

    def test_underflowing_value_norm_exits_2(self, capsys):
        # At theta = 1e300 the value norm underflows to 0: the probe printed
        # max_ratio 0 beside lower 7.07e-151 and exited 0.
        argv = ["hardy", "--p", "2", "--q", "2", "--alpha", "-1", "--theta", "1e300", "--trials", "3"]
        status, out, err = run_cli(argv, capsys)
        assert (status, out) == (2, "")
        assert err == (
            "adamskit: domain error: the trial's value norm 0 underflows the float range"
            " at theta=1e+300, R=1.0\n"
        )

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

    def test_norm_above_the_chain_bound_exits_3(self, monkeypatch, capsys):
        chain = extremal.norm_chain_bound(extremal.make_params(104))
        monkeypatch.setattr(extremal, "norm_quadrature", lambda _params: 1.5)
        status, out, err = run_cli(["extremal-sweep", "--n-from", "104", "--n-to", "110"], capsys)
        assert status == 3
        assert out == ""
        assert err == (
            f"adamskit: quadrature failure: at n = 104 the integrated norm 1.5 is above the"
            f" proven chain bound {chain!r} by more than rounding: the norm integration is wrong\n"
        )

    @pytest.mark.parametrize("n", ["5000", "10000"])
    def test_tolerance_below_rounding_exits_3(self, n, capsys):
        status, out, err = run_cli(
            ["--rtol", "1e-13", "extremal-sweep", "--n-from", n, "--n-to", n], capsys
        )
        assert status == 3
        assert out == ""
        assert "rounding error of the integrand" in err


class TestGoldenSweep:
    def test_csv_104_512(self, capsys):
        status, out, _ = run_cli(["extremal-sweep", "--n-from", "104", "--n-to", "512"], capsys)
        assert status == 0
        assert out == (DATA / "sweep_104_512.csv").read_text()

    def test_json_16_120(self, capsys):
        argv = ["--format", "json", "extremal-sweep", "--n-from", "16", "--n-to", "120"]
        status, out, _ = run_cli(argv, capsys)
        assert status == 0
        assert out == (DATA / "sweep_16_120.json").read_text()


@pytest.mark.parametrize("invocation", list(CLI_GOLDEN))
def test_golden_cli_output(invocation, monkeypatch, capsys):
    """Exit code, stderr and stdout byte-identical; a ``DRIFTED`` entry's
    stdout with the numbers cut out, and its numbers to 1e-14 relative."""
    monkeypatch.delenv("ADAMS_QUAD_RTOL", raising=False)
    monkeypatch.chdir(DATA)
    want = CLI_GOLDEN[invocation]
    status, out, err = run_cli(shlex.split(invocation), capsys)
    assert (status, err) == (want["exit"], want["stderr"])
    if invocation not in DRIFTED:
        assert out == want["stdout"]
        return
    assert NUMBER.split(out) == NUMBER.split(want["stdout"])
    numbers = [[float(x) for x in NUMBER.findall(text)] for text in (out, want["stdout"])]
    assert numbers[0] == pytest.approx(numbers[1], rel=1e-14, abs=0.0)


def test_pinned_constants_against_mpmath():
    """Every pinned beta0, sphere and ball constant, level and psi + gamma of
    the ``constants``, ``level`` and ``cc`` entries, the radii of
    ``rearrange --mode symmetrize`` and the sweep's levels, within 1e-15
    relative of 30 digits, so that no re-pin keeps a wrong constant."""
    mp = mpmath

    def level(p):
        return 1 + mp.exp(mp.digamma(mp.mpf(p)) + mp.euler)

    def sphere(n):
        return 2 * mp.pi ** (mp.mpf(n) / 2) / mp.gamma(mp.mpf(n) / 2)

    def beta0_30(m, n):
        m, n = mp.mpf(m), mp.mpf(n)
        if m % 2:
            ratio = mp.gamma((m + 1) / 2) / mp.gamma((n - m + 1) / 2)
        else:
            ratio = mp.gamma(m / 2) / mp.gamma((n - m) / 2)
        return n / sphere(n) * (mp.pi ** (n / 2) * 2**m * ratio) ** (n / (n - m))

    checked = []  # (where, field, pinned, 30-digit value)
    with mp.workdps(30):
        for invocation, pinned in CLI_GOLDEN.items():
            args = parse_args(shlex.split(invocation))
            stdout = pinned["stdout"]
            if args.command == "rearrange" and args.mode == "symmetrize":
                with (DATA / args.input).open(newline="") as handle:
                    cells = [(float(m), abs(float(v))) for m, v in list(csv.reader(handle))[1:]]
                measures = [m for m, _v in sorted(cells, key=lambda cell: -cell[1])]
                radii = [(mp.fsum(measures[:i]) * args.n / sphere(args.n)) ** (mp.mpf(1) / args.n)
                         for i in range(1, len(measures) + 1)]
                got = [float(row[0]) for row in list(csv.reader(io.StringIO(stdout)))[1:]]
                checked += [(invocation, i, *pair) for i, pair in enumerate(zip(got, radii, strict=True))]
                continue
            if pinned["exit"] != 0 or args.command not in ("constants", "level", "cc"):
                continue
            if args.command == "constants":
                b = beta0_30(args.m, args.n)
                want = {"beta0": b, "beta0_product_form": b, "omega_sphere": sphere(args.n),
                        "omega_ball": sphere(args.n) / args.n}
            elif args.command == "level":
                p = args.n / args.m
                want = {"level": args.measure * level(p), "psi_plus_gamma": mp.digamma(p) + mp.euler}
            else:
                want = {"concentration_level": level(args.p)}
            got = json.loads(stdout) if stdout.startswith("{") else dict(zip(*csv.reader(io.StringIO(stdout))))
            checked += [(invocation, key, float(got[key]), value) for key, value in want.items()]
        for row in json.loads((DATA / "sweep_16_120.json").read_text()):
            checked.append(("sweep_16_120.json", row["n"], row["level"], level(row["n"] / 2)))
        off = [(where, key, got) for where, key, got, want in checked if abs(got - want) > 1e-15 * abs(want)]
    assert len(checked) == 2 * 4 + 2 * 2 + 5 + 5 + 53
    assert not off, off
