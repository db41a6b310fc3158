"""Command-line front end.

Subcommands: constants, level, t0, hardy, rearrange, cc, extremal-sweep.
Output is JSON (17 significant digits per numeric field) or RFC-4180 CSV
(shortest round-trip floats), written with LF endings to stdout or
--output.  Exit codes: 0 success, 2 domain error, 3 quadrature
nonconvergence, 4 probe/assertion violation, 64 malformed arguments.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import sys
from typing import TYPE_CHECKING, Sequence

from .errors import DegenerateTrialError, DomainError, QuadratureError

if TYPE_CHECKING:  # each command imports the library modules it runs
    from .quadrature import QuadratureSpec
    from .rearrange import SampledFunction

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_QUADRATURE = 3
EXIT_ASSERTION = 4
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # malformed arguments -> exit 64
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _json_scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if not math.isfinite(value):
            raise DomainError(f"cannot serialize non-finite value {value}")
        return format(value, ".17g")
    if isinstance(value, int):
        return str(value)
    if value is None:
        return "null"
    escaped = str(value).replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def to_json(obj, indent: int = 0) -> str:
    """JSON with every float at 17 significant digits, insertion-ordered."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (f'{inner}"{k}": {to_json(v, indent + 1)}' for k, v in obj.items())
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = (f"{inner}{to_json(v, indent + 1)}" for v in obj)
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    return _json_scalar(obj)


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def to_csv(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n", quoting=csv.QUOTE_MINIMAL)
    writer.writerow(list(header))
    for row in rows:
        writer.writerow([_csv_cell(cell) for cell in row])
    return buffer.getvalue()


def _emit(text: str, output_path: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if output_path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(output_path, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"adamskit: cannot write --output {output_path!r}: {exc}", file=sys.stderr)
            raise SystemExit(EXIT_USAGE) from None


def _record_output(record: dict, fmt: str, output_path: str | None) -> None:
    if fmt == "json":
        _emit(to_json(record), output_path)
    else:
        _emit(to_csv(list(record.keys()), [list(record.values())]), output_path)


# ---------------------------------------------------------------------------
# argument schema
# ---------------------------------------------------------------------------

def finite_float(text: str) -> float:
    """argparse type of every float option: inf and nan are malformed."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def nonnegative_int(text: str) -> int:
    """argparse type of --seed and --trials: a negative count is malformed."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return value


def build_parser() -> _Parser:
    parser = _Parser(
        prog="adamskit",
        description="Sharp constants, concentration levels, Hardy sandwiches,"
        " rearrangements, and the extremal-gap pipeline, at desk scale.",
    )
    parser.add_argument(
        "--seed", type=nonnegative_int, default=0, help="seed for randomized probes"
    )
    parser.add_argument(
        "--rtol",
        type=finite_float,
        default=os.environ.get("ADAMS_QUAD_RTOL", "1e-10"),
        help="quadrature relative tolerance (env ADAMS_QUAD_RTOL overrides the default)",
    )
    parser.add_argument(
        "--truncation-eps", type=finite_float, default=1e-12, help="improper-tail truncation epsilon"
    )
    parser.add_argument("--output", default=None, help="write to this path instead of stdout")
    parser.add_argument(
        "--format", choices=("json", "csv"), default=None,
        help="output format (default json; csv for rearrange and extremal-sweep)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p_constants = commands.add_parser("constants", help="critical exponent and sphere constants")
    p_constants.add_argument("--m", type=int, required=True)
    p_constants.add_argument("--n", type=int, required=True)

    p_level = commands.add_parser("level", help="concentration-level bound")
    p_level.add_argument("--m", type=int, required=True)
    p_level.add_argument("--n", type=int, required=True)
    p_level.add_argument("--measure", type=finite_float, default=1.0)

    commands.add_parser("t0", help="dimension threshold of the extremal construction")

    p_hardy = commands.add_parser("hardy", help="power-weight sandwich and probes")
    p_hardy.add_argument("--p", type=finite_float)
    p_hardy.add_argument("--q", type=finite_float)
    p_hardy.add_argument("--alpha", type=finite_float)
    p_hardy.add_argument("--theta", type=finite_float)
    p_hardy.add_argument("--R", type=finite_float, default=1.0)
    p_hardy.add_argument("--side", choices=("left", "right"), default="left")
    p_hardy.add_argument("--trials", type=nonnegative_int, default=0, help="rayleigh probe trials")
    p_hardy.add_argument(
        "--second-order", action="store_true", help="probe the iterated radial inequality"
    )
    p_hardy.add_argument("--n-dim", type=int, help="dimension for --second-order")

    p_rearrange = commands.add_parser("rearrange", help="step-function rearrangement tools")
    p_rearrange.add_argument("--input", required=True, help="CSV of measure,value rows")
    p_rearrange.add_argument(
        "--mode", choices=("rearrange", "symmetrize", "talenti"), default="rearrange"
    )
    p_rearrange.add_argument("--n", type=int, default=2, help="dimension for radial modes")
    p_rearrange.add_argument("--radius", type=finite_float, default=None, help="ball radius for talenti")

    p_cc = commands.add_parser("cc", help="exponential functional on 1-D profiles")
    p_cc.add_argument("--p", type=finite_float, required=True)
    p_cc.add_argument(
        "--q", type=finite_float, default=None, help="defaults to p/(p-1), the only q --maximize takes"
    )
    p_cc.add_argument("--family", choices=("moser",), default=None)
    p_cc.add_argument("--a", type=finite_float, default=None, help="family scale")
    p_cc.add_argument("--maximize", action="store_true")
    p_cc.add_argument("--A", type=finite_float, default=5.0, help="concentration window endpoint")
    p_cc.add_argument("--epsilon", type=finite_float, default=0.01)
    p_cc.add_argument("--knots", type=int, default=48)

    p_sweep = commands.add_parser("extremal-sweep", help="gap verdicts over a dimension range")
    p_sweep.add_argument("--n-from", type=int, required=True)
    p_sweep.add_argument("--n-to", type=int, required=True)
    p_sweep.add_argument("--step", type=int, default=2)

    return parser


#: Formats each subcommand writes, its default first.
_FORMATS = {
    "constants": ("json", "csv"),
    "level": ("json", "csv"),
    "t0": ("json", "csv"),
    "hardy": ("json", "csv"),
    "rearrange": ("csv",),
    "cc": ("json", "csv"),
    "cc --maximize": ("json",),
    "extremal-sweep": ("csv", "json"),
}


def parse_args(argv: Sequence[str] | None = None) -> argparse.Namespace:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = "cc --maximize" if args.command == "cc" and args.maximize else args.command
    formats = _FORMATS[command]
    args.format = args.format or formats[0]
    if args.format not in formats:
        parser.error(
            f"{command} writes its profile as {' or '.join(formats).upper()} only,"
            f" got --format {args.format}"
        )
    if args.command == "cc" and args.maximize and args.q is not None and args.p > 1.0:
        # The maximizer's class is the unit p-energy one, so q is p's conjugate.
        conjugate = args.p / (args.p - 1.0)
        if not math.isclose(args.q, conjugate, rel_tol=1e-12):
            parser.error(
                f"--maximize works at q = p/(p-1) = {conjugate!r} for --p {args.p!r},"
                f" got --q {args.q!r}"
            )
    return args


# ---------------------------------------------------------------------------
# command bodies
# ---------------------------------------------------------------------------

def _quad_spec(args: argparse.Namespace) -> QuadratureSpec:
    from .quadrature import QuadratureSpec

    return QuadratureSpec(rel_tol=args.rtol, truncation_epsilon=args.truncation_eps)


def _cmd_constants(args) -> int:
    from .constants import AdamsParams, beta0, beta0_product_form, unit_ball_volume, unit_sphere_area

    params = AdamsParams(args.m, args.n)
    record = {
        "m": args.m,
        "n": args.n,
        "beta0": beta0(params),
        "beta0_product_form": beta0_product_form(params),
        "omega_sphere": unit_sphere_area(args.n),
        "omega_ball": unit_ball_volume(args.n),
    }
    _record_output(record, args.format, args.output)
    return EXIT_OK


def _cmd_level(args) -> int:
    from .constants import AdamsParams, concentration_level
    from .specfun import EULER_GAMMA, digamma

    params = AdamsParams(args.m, args.n)
    record = {
        "m": args.m,
        "n": args.n,
        "measure": args.measure,
        "level": concentration_level(params, args.measure),
        "psi_plus_gamma": digamma(args.n / args.m) + EULER_GAMMA,
    }
    _record_output(record, args.format, args.output)
    return EXIT_OK


def _cmd_t0(args) -> int:
    from .constants import t_zero

    result = t_zero()
    record = {"raw": result.raw, "T0": result.integer, "n_threshold": 2 * result.integer}
    _record_output(record, args.format, args.output)
    return EXIT_OK


def _cmd_hardy(args) -> int:
    from .hardy import (
        HardySetup,
        Side,
        rayleigh_probe,
        sandwich,
        second_order_constant,
        second_order_probe,
    )

    spec = _quad_spec(args)
    if args.second_order:
        if args.n_dim is None or args.q is None:
            raise DomainError("--second-order requires --n-dim and --q")
        p = args.p if args.p is not None else 2.0
        constant = second_order_constant(args.n_dim, args.q)
        record = {
            "n": args.n_dim,
            "p": p,
            "q": args.q,
            "R": args.R,
            "constant": constant,
        }
        if args.trials > 0:
            record["max_ratio"] = second_order_probe(
                args.n_dim, p, args.q, args.R, args.trials, args.seed, spec
            )
            # second_order_probe raises AssertionError (exit 4) past the constant.
            record["probe_ok"] = True
        _record_output(record, args.format, args.output)
        return EXIT_OK
    if args.p is None or args.q is None or args.alpha is None or args.theta is None:
        raise DomainError("hardy requires --p, --q, --alpha, --theta")
    side = Side.LEFT_VANISHING if args.side == "left" else Side.RIGHT_VANISHING
    setup = HardySetup(
        p=args.p, q=args.q, alpha=args.alpha, theta=args.theta, R=args.R, side=side
    )
    sw = sandwich(setup)
    record = {
        "p": args.p,
        "q": args.q,
        "alpha": args.alpha,
        "theta": args.theta,
        "R": args.R,
        "side": args.side,
        "lower": sw.lower,
        "upper": sw.upper,
        "k_factor": sw.k_factor,
    }
    status = EXIT_OK
    if args.trials > 0:
        result = rayleigh_probe(setup, args.trials, args.seed, spec=spec)
        record["max_ratio"] = result.max_ratio
        record["probe_ok"] = bool(result.max_ratio <= sw.upper * (1.0 + 1e-9))
        if not record["probe_ok"]:
            status = EXIT_ASSERTION
    _record_output(record, args.format, args.output)
    return status


def _read_cells(rows: Sequence[Sequence[str]]) -> SampledFunction:
    from .rearrange import SampledFunction

    # Blank rows are skipped, and a "measure,..." header as the first non-blank row.
    numbered = [(number, row) for number, row in enumerate(rows, start=1) if any(c.strip() for c in row)]
    if numbered and numbered[0][1][0].strip().lower() == "measure":
        del numbered[0]
    cells = []
    for number, row in numbered:
        if len(row) < 2 or any(c.strip() for c in row[2:]):
            raise DomainError(f"row {number} {row!r}: expected measure,value")
        try:
            cell = (float(row[0]), float(row[1]))
        except ValueError:
            cell = (math.nan, math.nan)
        if not (math.isfinite(cell[0]) and math.isfinite(cell[1])):
            raise DomainError(f"row {number} {row!r}: measure and value must be finite numbers")
        cells.append(cell)
    return SampledFunction(cells=tuple(cells))


def _cmd_rearrange(args) -> int:
    from .rearrange import decreasing_rearrangement, symmetrize, talenti_radial_solution

    try:
        with open(args.input, "r", encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
    except (OSError, UnicodeDecodeError) as exc:
        print(f"adamskit: cannot read --input {args.input!r}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    f = _read_cells(rows)
    if args.mode == "rearrange":
        sharp = decreasing_rearrangement(f)
        _emit(to_csv(("measure", "value"), [list(c) for c in sharp.cells]), args.output)
        return EXIT_OK
    if args.mode == "symmetrize":
        radial = symmetrize(f, args.n)
        knots = radial.profile.knots
        rows = [
            [knots[i + 1], float(piece.value(knots[i + 1]))]
            for i, piece in enumerate(radial.profile.pieces)
        ]
        _emit(to_csv(("outer_radius", "value"), rows), args.output)
        return EXIT_OK
    sharp = decreasing_rearrangement(f)
    radius = args.radius
    if radius is None:
        raise DomainError("--mode talenti requires --radius")
    v = talenti_radial_solution(sharp, args.n, radius)
    rows = [[r, float(v.value(r))] for r in v.profile.knots]
    _emit(to_csv(("radius", "value"), rows), args.output)
    return EXIT_OK


def _cmd_cc(args) -> int:
    from .constants import unit_concentration_level
    from .moser1d import cc_functional, concentration_maximizer, energy, moser_family

    spec = _quad_spec(args)
    bound = unit_concentration_level(args.p)
    if args.maximize:
        result = concentration_maximizer(  # checks p >= 2 before q is formed
            args.p, args.A, args.epsilon, args.knots, args.seed, spec=spec
        )
        record = {
            "p": args.p,
            "q": args.p / (args.p - 1.0),
            "A": args.A,
            "epsilon": args.epsilon,
            "knots": args.knots,
            "seed": args.seed,
            "J": result.functional_value,
            "concentration_level": bound,
            "energy": energy(result.profile, args.p),
            "window_energy": energy(result.profile, args.p, (0.0, args.A)),
            "profile": result.profile.to_json_obj(),
        }
        _record_output(record, args.format, args.output)
        return EXIT_OK
    if args.family != "moser" or args.a is None:
        raise DomainError("cc requires --family moser with --a (or --maximize)")
    g = moser_family(args.a, args.p)  # checks p > 1 before q is formed
    q = args.q if args.q is not None else args.p / (args.p - 1.0)
    j = cc_functional(g, q, spec)
    record = {
        "p": args.p,
        "q": q,
        "a": args.a,
        "J": j,
        "energy": energy(g, args.p),
        "concentration_level": bound,
        "within_level": j <= bound,
    }
    _record_output(record, args.format, args.output)
    return EXIT_OK


#: Sweep output field -> ``VerdictRow`` attribute, after ``n``.
_SWEEP_FIELDS = {
    "norm_chain": "norm_chain_bound",
    "norm_quad": "norm_quadrature",
    "J_lower": "functional_lower",
    "J_quad": "functional_quadrature",
    "level": "level",
    "gap_analytic": "gap_analytic",
    "gap_numeric": "gap_numeric",
}


def _cmd_extremal_sweep(args) -> int:
    from .extremal import make_params, sweep

    spec = _quad_spec(args)
    rows = sweep(args.n_from, args.n_to, args.step, spec)
    if args.format == "csv":
        table = [[row.n] + [getattr(row, attr) for attr in _SWEEP_FIELDS.values()] for row in rows]
        _emit(to_csv(("n", *_SWEEP_FIELDS), table), args.output)
        return EXIT_OK
    payload = []
    for row in rows:
        params = make_params(row.n)
        record = {"n": row.n, "params": {"b": params.b, "s": params.s, "lambda": params.lam}}
        record.update((key, getattr(row, attr)) for key, attr in _SWEEP_FIELDS.items())
        payload.append(record)
    _emit(to_json(payload), args.output)
    return EXIT_OK


_COMMANDS = {
    "constants": _cmd_constants,
    "level": _cmd_level,
    "t0": _cmd_t0,
    "hardy": _cmd_hardy,
    "rearrange": _cmd_rearrange,
    "cc": _cmd_cc,
    "extremal-sweep": _cmd_extremal_sweep,
}


def run(args: argparse.Namespace) -> int:
    """Execute a parsed configuration; returns the process exit status."""
    try:
        return _COMMANDS[args.command](args)
    except DomainError as exc:
        print(f"adamskit: domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except QuadratureError as exc:
        print(f"adamskit: quadrature failure: {exc}", file=sys.stderr)
        return EXIT_QUADRATURE
    except (DegenerateTrialError, AssertionError) as exc:
        print(f"adamskit: probe failure: {exc}", file=sys.stderr)
        return EXIT_ASSERTION
    except OverflowError as exc:
        print(f"adamskit: domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def main(argv: Sequence[str] | None = None) -> int:
    return run(parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
