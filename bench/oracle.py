"""Independent mpmath references (working precision: 30 digits).

Every reference here is built from the workload inputs and the formulas
of the underlying mathematics; nothing calls into adamskit.  The integrals
use composite Gauss-Legendre rules at 30 digits: adaptive bisection where
the mass can sit anywhere, fixed panels where its location is known in
closed form (the Moser family).  They target 1e-14 relative accuracy,
far below the 1e-9 tolerance the benchmark checks against.  All the
functionals here are at least 1 (g >= 0 gives e^{g^q - t} >= e^{-t}), so
an absolute tolerance of 1e-14 is also a relative one.
"""

from __future__ import annotations

import numpy as np
from mpmath import mp, mpf

mp.dps = 30

_NODES: dict[int, list[tuple[mpf, mpf]]] = {}


class OracleError(RuntimeError):
    """A reference integral failed to converge; the benchmark is at fault."""


def _gauss_legendre(order: int) -> list[tuple[mpf, mpf]]:
    """Nodes and weights on [-1, 1], Newton-refined at working precision."""
    if order not in _NODES:
        pairs = []
        for x0 in np.polynomial.legendre.leggauss(order)[0]:
            x = mpf(float(x0))
            for _ in range(6):
                p_prev, p_cur = mpf(1), x
                for k in range(2, order + 1):
                    p_prev, p_cur = p_cur, ((2 * k - 1) * x * p_cur - (k - 1) * p_prev) / k
                dp = order * (x * p_cur - p_prev) / (x * x - 1)
                x -= p_cur / dp
            pairs.append((x, 2 / ((1 - x * x) * dp * dp)))
        _NODES[order] = pairs
    return _NODES[order]


def _panel(f, lo, hi, order: int = 15):
    half = (hi - lo) / 2
    mid = (hi + lo) / 2
    return half * mp.fsum(w * f(mid + half * x) for x, w in _gauss_legendre(order))


def integrate(f, edges, abs_tol=mpf("1e-14"), max_depth: int = 60) -> mpf:
    """Adaptive composite Gauss-Legendre over consecutive ``edges``.

    A panel is accepted when its 15-node value and the sum over its two
    halves agree to its width share of ``abs_tol``.
    """
    edges = [mpf(e) for e in edges]
    width = edges[-1] - edges[0]
    total = []
    stack = [(a, b, _panel(f, a, b), 0) for a, b in zip(edges[:-1], edges[1:]) if b > a]
    while stack:
        a, b, whole, depth = stack.pop()
        mid = (a + b) / 2
        left, right = _panel(f, a, mid), _panel(f, mid, b)
        if abs(left + right - whole) <= abs_tol * (b - a) / width:
            total.append(left + right)
            continue
        if depth >= max_depth:
            raise OracleError(f"reference integral did not converge on [{a}, {b}]")
        stack.append((a, mid, left, depth + 1))
        stack.append((mid, b, right, depth + 1))
    return mp.fsum(total)


#: Panels in s for t = b e^{-s} on [0, b]: the integrand decays like e^{-s}
#: with rate up to q + 1 <= 3 near s = 0; t < e^{-36} b is dropped.
_GRADED = [mpf(s) for s in (0, 3, 6, 10, 16, 24, 36)]


def _steps(lo, hi, width):
    """Edges from lo to hi in steps of at most ``width``."""
    count = max(1, int(mp.ceil((hi - lo) / width)))
    return [lo + (hi - lo) * k / count for k in range(count + 1)]


# ---------------------------------------------------------------------------
# the exponential functional J(g) = int_0^inf exp(g^q - t) dt
# ---------------------------------------------------------------------------

def moser_functional(slope: float, knot: float, plateau: float, q: float) -> tuple[mpf, mpf]:
    """J of the ramp slope*t on [0, knot] continued by the constant plateau.

    The arguments are the double-precision parameters of the profile, taken
    as exact, so the reference is the functional of exactly the profile the
    library integrates.  Returns (J, K), K the mass-weighted mean of g^q:
    the size of the terms a double-precision evaluation of g^q - t cancels.

    The exponent phi(t) = (slope t)^q - t is convex, near 0 at both ends of
    the ramp, with slope -1 at t = 0 and about q - 1 at the knot, so the
    mass sits in O(1)-wide strips at the two ends of a long ramp.
    """
    s, a, c, q = mpf(slope), mpf(knot), mpf(plateau), mpf(q)

    def g_q(t):
        return mp.exp(q * mp.log(s * t)) if t > 0 else mpf(0)

    def phi(t):
        return g_q(t) - t

    # Step in from both ends until phi < -40; rates |phi'| <= 1 on the ramp.
    floor = -40
    b = min(a, mpf(1))
    left = [b]
    while left[-1] < a and phi(left[-1]) > floor:
        left.append(min(a, left[-1] + 8))
    right = [a]
    while right[-1] > left[-1] and phi(right[-1]) > floor:
        right.append(max(left[-1], right[-1] - 8))
    lo, hi = left[-1], right[-1]
    if hi > lo:
        # phi is convex: below its chords to the minimizer m on either side.
        m = min(max((q * s**q) ** (-1 / (q - 1)), lo), hi)
        bound = mpf(0)
        for x0, x1 in ((lo, m), (m, hi)):
            f0, f1 = phi(x0), phi(x1)
            if x1 > x0:
                bound += (x1 - x0) * (mp.exp(f0) if f0 == f1 else (mp.exp(f0) - mp.exp(f1)) / (f0 - f1))
        if bound > mpf("1e-14"):
            raise OracleError(f"Moser middle strip not negligible for knot {knot}: {bound}")

    mass = []
    moment = []

    def accumulate(f, edges):
        # Fixed 16-node panels, accumulating J and the g^q moment together.
        for x0, x1 in zip(edges[:-1], edges[1:]):
            half, mid = (x1 - x0) / 2, (x1 + x0) / 2
            for x, w in _gauss_legendre(16):
                weight, e = f(mid + half * x)
                mass.append(half * w * weight)
                moment.append(half * w * weight * e)

    def plain(t):
        e = g_q(t)
        return mp.exp(e - t), e

    def graded(u):
        # [0, b] through t = b e^{-u}: removes the t^q endpoint singularity.
        t = b * mp.exp(-u)
        weight, e = plain(t)
        return weight * t, e

    accumulate(graded, _GRADED)
    accumulate(plain, left)
    if hi > lo:
        accumulate(plain, right[::-1])
    tail_exponent = c**q
    mass.append(mp.exp(tail_exponent - a))  # plateau: int_a^inf e^{c^q - t} dt
    moment.append(tail_exponent * mass[-1])
    j = mp.fsum(mass)
    return j, mp.fsum(moment) / j


def moser_parameters(a: float, p: float) -> dict:
    """Ramp slope a^{-1/p} and plateau a^{1/q} of the ideal Moser family."""
    a, p = mpf(a), mpf(p)
    return {"slope": a ** (-1 / p), "plateau": a ** ((p - 1) / p)}


def exp_integral(phi, edges, abs_tol=mpf("1e-14")) -> mpf:
    """int e^{phi(t)} dt over ``edges``.  When the range starts at 0, its
    first unit goes through t = b e^{-s}, which turns the g^q endpoint
    singularity of a profile with g(0) = 0 into an analytic integrand."""
    edges = [mpf(e) for e in edges]
    parts = []
    if edges[0] == 0:
        b = min(edges[1], mpf(1))
        parts.append(
            integrate(lambda s: mp.exp(phi(b * mp.exp(-s)) - s) * b, _GRADED, abs_tol)
        )
        edges = [b] + [e for e in edges if e > b]
    if len(edges) > 1:
        parts.append(integrate(lambda t: mp.exp(phi(t)), edges, abs_tol))
    return mp.fsum(parts)


def extremal_params(n: int) -> dict:
    """b, s, lambda and the ramp slope of the n-dimensional test function."""
    n = mpf(n)
    ratio = n / (n - 2)
    b = ratio ** (n / 2) - ratio
    slack = mpf(4) / 3 * ((n + 1) / n) ** (n / 2) / (n - 2)
    shrink = (1 - 4 / (n * (n - 2))) ** (n / 2)
    s = ratio ** (n / 2) * (1 + slack - shrink)
    lam = 1 + (n - 2) / 2 * mp.exp(b - s)
    slope = (n - 2) / n * ((n - 2) / 2) ** (-2 / n)
    return {"b": b, "s": s, "lam": lam, "slope": slope}


def extremal_functional(n: int) -> tuple[mpf, mpf]:
    """J of the three-piece test function w for dimension n, q = n/(n-2),
    and a bound on the w^q the integrated range sees.

    Ramp slope*t on [0, n/2]; arc (t-1)^{(n-2)/n} on [n/2, lambda], where
    w^q - t = -1 identically; saturating tail beyond lambda.
    """
    par = extremal_params(n)
    n = mpf(n)
    q = n / (n - 2)
    lam, slope = par["lam"], par["slope"]
    amp = (n - 2) / 3 * (lam - 1) ** (-2 / n)
    offset = (lam - 1) ** ((n - 2) / n)
    rate = 3 / n

    def ramp(t):
        return (slope * t) ** q - t if t > 0 else mpf(0)

    def tail(t):
        return (amp * -mp.expm1(-rate * (t - lam)) + offset) ** q - t

    limit = (amp + offset) ** q
    t_end = limit + 36  # beyond: at most e^{limit - t}, below e^{-36}
    half = n / 2
    ramp_edges = [mpf(0), mpf(1)] + _steps(mpf(1), half, max(half / 8, 1))[1:]
    ramp_part = exp_integral(ramp, ramp_edges)
    arc_part = (lam - half) / mp.e
    tail_part = exp_integral(tail, _steps(lam, t_end, max((t_end - lam) / 8, 1)))
    return ramp_part + arc_part + tail_part, t_end


def linear_profile_functional(knots, values, q: float) -> mpf:
    """J of the polyline through (knots, values) with a constant tail."""
    q = mpf(q)
    ts = [mpf(k) for k in knots]
    ys = [mpf(v) for v in values]
    parts = [mp.exp(ys[-1] ** q - ts[-1])]
    for t0, t1, y0, y1 in zip(ts[:-1], ts[1:], ys[:-1], ys[1:]):
        slope = (y1 - y0) / (t1 - t0)

        def phi(t, t0=t0, y0=y0, slope=slope):
            g = y0 + slope * (t - t0)
            return (g ** q if g > 0 else mpf(0)) - t

        # phi is convex on a segment, so its endpoint values bound it.
        if t1 - t0 > 0 and max(phi(t0), phi(t1)) + mp.log(t1 - t0) < -36:
            continue
        parts.append(exp_integral(phi, _steps(t0, t1, 4)))
    return mp.fsum(parts)


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

def sphere_area(n: int) -> mpf:
    return 2 * mp.pi ** (mpf(n) / 2) / mp.gamma(mpf(n) / 2)


def ball_volume(n: int) -> mpf:
    return sphere_area(n) / n


def beta0(m: int, n: int) -> tuple[mpf, mpf]:
    """Critical exponent beta0(m, n) and the size of its log-space terms.

    beta0 = (n / |S^{n-1}|) [pi^{n/2} 2^m Gamma(c) / Gamma(c + n/2 - m)]^{n/(n-m)}
    with c = m/2 for even m and c = (m+1)/2 for odd m (Adams 1988).
    """
    nn, mm = mpf(n), mpf(m)
    c = mm / 2 if m % 2 == 0 else (mm + 1) / 2
    terms = [
        nn / 2 * mp.log(mp.pi),
        mm * mp.log(2),
        mp.loggamma(c),
        -mp.loggamma(c + nn / 2 - mm),
    ]
    log_area = mp.log(sphere_area(n))
    value = mp.exp(mp.log(nn) - log_area + nn / (nn - mm) * mp.fsum(terms))
    size = abs(log_area) + nn / (nn - mm) * mp.fsum(abs(x) for x in terms)
    return value, size


def concentration_level(m: int, n: int, measure: float) -> mpf:
    """|Omega| (1 + e^{psi(n/m) + gamma})."""
    return mpf(measure) * (1 + mp.exp(mp.digamma(mpf(n) / m) + mp.euler))


def t_zero_raw() -> mpf:
    """1 + A + sqrt(1 + A^2 + B), A = (1 + 36 sigma)/(17 - 24 gamma),
    B = 72 sigma/(17 - 24 gamma), sigma = 1 + 2/sqrt(3)."""
    sigma = 1 + 2 / mp.sqrt(3)
    denom = 17 - 24 * mp.euler
    a = (1 + 36 * sigma) / denom
    b = 72 * sigma / denom
    return 1 + a + mp.sqrt(1 + a * a + b)


def second_order_constant(n: int, q: float) -> mpf:
    """q^2 / ((q - 1) n (n - 2q))."""
    q = mpf(q)
    return q * q / ((q - 1) * n * (n - 2 * q))


def hardy_b(p: float, q: float, alpha: float, theta: float, big_r: float, left: bool) -> mpf:
    """sup over 0 < x < R of W(x)^{1/q} V(x)^{(p-1)/p} for power weights.

    Left-vanishing: W = int_x^R r^theta, V = int_0^x r^{-alpha/(p-1)}.
    Right-vanishing: W = int_0^x r^theta, V = int_x^R r^{-alpha/(p-1)}.
    The supremum is found by golden-section search on log x.
    """
    p, q, alpha, theta, big_r = (mpf(v) for v in (p, q, alpha, theta, big_r))
    e = -alpha / (p - 1)

    def power_int(k, lo, hi):
        if k == -1:
            return mp.log(hi / lo)
        if lo == 0:
            return hi ** (k + 1) / (k + 1)
        return (hi ** (k + 1) - lo ** (k + 1)) / (k + 1)

    def log_f(u):
        x = big_r * mp.exp(u)
        if left:
            w, v = power_int(theta, x, big_r), power_int(e, mpf(0), x)
        else:
            w, v = power_int(theta, mpf(0), x), power_int(e, x, big_r)
        return mp.log(w) / q + (p - 1) / p * mp.log(v)

    lo, hi = mpf(-80), -mpf(10) ** -25
    ratio = (mp.sqrt(5) - 1) / 2
    x1, x2 = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
    f1, f2 = log_f(x1), log_f(x2)
    for _ in range(140):
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + ratio * (hi - lo)
            f2 = log_f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - ratio * (hi - lo)
            f1 = log_f(x1)
    return mp.exp(max(f1, f2))


def hardy_k(q: float, p: float) -> mpf:
    """(1 + q(p-1)/p)^{1/q} (1 + p/(q(p-1)))^{(p-1)/p}."""
    p, q = mpf(p), mpf(q)
    return (1 + q * (p - 1) / p) ** (1 / q) * (1 + p / (q * (p - 1))) ** ((p - 1) / p)


# ---------------------------------------------------------------------------
# radial comparison solution and its log-radial functional
# ---------------------------------------------------------------------------

def talenti_values(cells, n: int, big_r: float):
    """Closed-form radial solution of -laplacian v = f^#, v(R) = 0.

    ``cells`` are (measure, value) pairs.  Returns (radii, v, dv) where
    v(r) evaluates the solution and dv(r) = -v'(r) = F(omega r^n) /
    (n omega r^{n-1}), F(s) the integral of the decreasing rearrangement of
    |f| over [0, s].
    """
    omega = ball_volume(n)
    big_r = mpf(big_r)
    ordered = sorted(((mpf(m), abs(mpf(v))) for m, v in cells), key=lambda c: -c[1])
    radii = [mpf(0)]
    slabs = []  # (rho_lo, rho_hi, f, F at rho_lo, s at rho_lo)
    s_acc = mpf(0)
    for m, v in ordered:
        rho_lo = radii[-1]
        s_next = s_acc + m
        rho_hi = (s_next / omega) ** (mpf(1) / n)
        slabs.append((rho_lo, rho_hi, v, s_acc))
        radii.append(rho_hi)
        s_acc = s_next
    if radii[-1] < big_r:
        slabs.append((radii[-1], big_r, mpf(0), s_acc))
        radii.append(big_r)

    f_start = [mpf(0)]
    for rho_lo, rho_hi, v, s_lo in slabs:
        f_start.append(f_start[-1] + v * omega * (rho_hi**n - rho_lo**n))

    def inner(i, r_lo, r_hi):
        # int_{r_lo}^{r_hi} F(omega rho^n) / (n omega rho^{n-1}) drho on slab i,
        # with F(s) = F_i + f_i (s - s_i) = A + f_i omega rho^n.
        _lo, _hi, v, s_lo = slabs[i]
        big_a = f_start[i] - v * s_lo
        if big_a == 0:
            sing = mpf(0)
        elif n == 2:
            sing = big_a / (n * omega) * mp.log(r_hi / r_lo)
        else:
            sing = big_a / (n * omega) * (r_lo ** (2 - n) - r_hi ** (2 - n)) / (n - 2)
        return sing + v / (2 * n) * (r_hi**2 - r_lo**2)

    # v at each slab's outer radius, accumulated from the boundary inward.
    v_outer = [mpf(0)] * len(slabs)
    for i in range(len(slabs) - 2, -1, -1):
        v_outer[i] = v_outer[i + 1] + inner(i + 1, slabs[i + 1][0], slabs[i + 1][1])

    def slab_of(r) -> int:
        return next(i for i, slab in enumerate(slabs) if r <= slab[1])

    def v_at(r):
        i = slab_of(r)
        rho_hi = slabs[i][1]
        return v_outer[i] + inner(i, r, rho_hi) if r < rho_hi else v_outer[i]

    def dv_at(r):
        i = slab_of(r)
        _lo, _hi, v, s_lo = slabs[i]
        return (f_start[i] + v * (omega * r**n - s_lo)) / (n * omega * r ** (n - 1))

    return radii, v_at, dv_at


def log_radial_functional(cells, n: int, m: int, big_r: float) -> tuple[mpf, mpf]:
    """J of g(t) = beta0(m, n)^{(n-m)/n} v(R e^{-t/n}), q = n/(n-m), and
    the largest g^q."""
    radii, v_at, _dv_at = talenti_values(cells, n, big_r)
    scale = beta0(m, n)[0] ** (mpf(n - m) / n)
    q = mpf(n) / (n - m)
    big_r = mpf(big_r)

    def phi(t):
        g = scale * v_at(big_r * mp.exp(-t / n))
        return (g**q if g > 0 else mpf(0)) - t

    g_max = scale * v_at(mpf(0))
    t_end = g_max**q + 36  # beyond: at most e^{g_max^q - t}, below e^{-36}
    knots = sorted({n * mp.log(big_r / r) for r in radii[1:-1] if 0 < r < big_r})
    edges = [mpf(0)]
    for k in knots + [t_end]:
        if k > edges[-1]:
            edges.extend(_steps(edges[-1], k, 4)[1:])
    return exp_integral(phi, edges), g_max**q


def log_radial_energy(cells, n: int, m: int, big_r: float) -> mpf:
    """int_0^inf |g'(t)|^p dt, p = n/m, pulled back to radii:
    n int_0^R (scale |v'(r)| r / n)^p dr / r."""
    radii, _v_at, dv_at = talenti_values(cells, n, big_r)
    scale = beta0(m, n)[0] ** (mpf(n - m) / n)
    p = mpf(n) / m

    def integrand(r):
        return n * (scale * dv_at(r) * r / n) ** p / r if r > 0 else mpf(0)

    return integrate(integrand, radii, abs_tol=mpf("1e-10"))
