"""``cc_functional``'s nonnegativity guard on a polyline reads its knot
values ``ys``: every route returns ys[i] at knot i, so the guard checks the
values the per-piece evaluation checked, without evaluating a piece."""

import numpy as np
import pytest

import adamskit.moser1d as moser1d_module
from adamskit.errors import DomainError
from adamskit.profiles import LinearPiece, piecewise_linear


@pytest.fixture
def pieces_unevaluated(monkeypatch):
    def refuse(self, t):
        raise AssertionError("a piece was evaluated")

    monkeypatch.setattr(LinearPiece, "value", refuse)


@pytest.mark.parametrize("constant_tail", [True, False])
def test_reads_the_knot_values(constant_tail, pieces_unevaluated):
    ts = [0.0, 1.0, 1.000000001, 3.0]
    g = piecewise_linear(ts, [0.0, 0.4, -5e-13, 0.2], constant_tail=constant_tail)
    moser1d_module._check_nonnegative(g)  # within the -1e-12 allowance
    for i in range(4):  # a negative value at any knot, the last one included
        ys = [0.0, 0.4, 0.1, 0.2]
        ys[i] = -2e-12
        with pytest.raises(DomainError, match="profile must be nonnegative"):
            moser1d_module._check_nonnegative(piecewise_linear(ts, ys, constant_tail=constant_tail))


def test_agrees_with_the_pieces_at_their_knots():
    rng = np.random.default_rng(28)
    for _ in range(200):
        ts = np.cumsum(rng.uniform(1e-9, 2.0, int(rng.integers(2, 30))))
        g = piecewise_linear(ts - ts[0], rng.normal(size=ts.size) * 1e-12 + 3e-12)
        at_knots = [float(piece.value(lo)) for lo, _hi, piece in g.segments()]
        assert min(at_knots) == float(g.ys.min())
