"""High-precision evaluation of eta, Weber functions, lambda*, j, and the
accessory-parameter function ap(t), with rigorous error bounds.

All fractional powers of q = e^{2 pi i tau} are fixed by exponential
formulas and never by complex powers of q itself:

    q2 = e^{pi i tau},  q^{1/24} = e^{pi i tau / 12},  q^{1/48} = e^{pi i tau / 24}.

Truncation control for an infinite product prod (1 +- z_n) with |z_n| <=
x^{e_n}, x = |q| < 1, e_n increasing in steps of 1: the discarded log-tail
is at most T = x^{e_{N+1}} / (1-x)^2, so the truncated value val_N is off
by at most |val_N| (e^T - 1).  That relative bound depends on tau only
through x, so each eta product's length N comes from it in closed form.
A value takes at most two passes (_two_passes), each at the precision its
relative target needs; every bound adds a rounding allowance (_rounding).

lambda*(tau) = 1/(1 - lambda(tau)) is evaluated two independent ways,
the Weber quotient f^8/f1^8 and the discriminant combination
-(Delta((tau+1)/2) + 16 Delta(tau)) / (Delta(tau/2) + 16 Delta(tau)),
and their agreement is enforced; the accessory parameter of the square
pillowcase tiling with parameter t is ap(t) = lambda*(it).
"""

import math

import mpmath
from mpmath import mp

from .errors import DessinryError

_I = mpmath.mpc(0, 1)
_PRODUCT_BUDGET = 400000
# Largest order lambda_star_qseries accepts.  Its work grows about as the
# cube of the order; 2000 takes a few seconds.
QSERIES_ORDER_LIMIT = 2000


def _dps_for(rel):
    """Digits for relative target rel (an mpf: it can fall below 1e-308) plus 12 guard digits."""
    return max(20, int(-mpmath.log10(rel)) + 12)


def _extra_bits(amp):
    """Extra bits that shrink amp units of rounding below an eighth of a unit."""
    return int(mpmath.log(amp, 2)) + 4


def _rounding(value):
    """Rounding allowance of a value assembled at the working precision.

    Each loop (eta product, E4 sum, q-series sum) runs with _extra_bits for
    its own rounding and comes back within an eighth of a unit.  Assembling
    a value from at most three of them takes an exp or sqrt prefactor, a few
    products and quotients and one power of at most 24; counting a unit per
    rounding and k times the base's units for a k-th power, the worst case,
    lambda*'s eighth power of a quotient of quotients, stays below 2^8 units.
    2^12 leaves a factor 16 for the looser rounding of complex arithmetic.
    """
    return abs(value) * mpmath.ldexp(1, 12 - mp.prec)


class UpperHalfPoint:
    """A point tau with Im tau > 0, plus q2 = exp(pi i tau).

    q2 is computed at the ambient working precision each time it is read,
    so the same point can serve computations at different tolerances.
    tau itself keeps the precision it was constructed with;
    construct it inside a high-precision context when that matters.
    """

    __slots__ = ("tau",)

    def __init__(self, tau):
        tau = mpmath.mpmathify(tau)
        if not mpmath.isfinite(tau):
            raise DessinryError("invalid-parameter", "tau must be finite, got %s" % tau)
        if mpmath.im(tau) <= 0:
            raise DessinryError("invalid-parameter", "tau must have positive imaginary part, got %s" % tau)
        self.tau = mpmath.mpc(tau)

    @property
    def q2(self):
        return mpmath.exp(mpmath.pi * _I * self.tau)

    def __repr__(self):
        return "UpperHalfPoint(%s)" % self.tau


def as_upper_half(p):
    if isinstance(p, UpperHalfPoint):
        return p
    return UpperHalfPoint(p)


class ModularValue:
    """A computed value with a rigorous error bound, truncation and rounding."""

    __slots__ = ("value", "trunc_bound")

    def __init__(self, value, trunc_bound):
        self.value = value
        self.trunc_bound = trunc_bound

    def __repr__(self):
        return "ModularValue(%s, trunc_bound=%s)" % (self.value, self.trunc_bound)


def _rel_err(*factors):
    """Relative error bound of prod x_i^k_i from pairs (d_i, k_i), each x_i
    known to relative error d_i (below 1 where k_i < 0): the product of
    (1 + d_i)^k_i over k_i > 0 and (1 - d_i)^k_i over k_i < 0, minus 1."""
    return mpmath.expm1(mpmath.fsum(k * mpmath.log1p(d if k > 0 else -d) for d, k in factors))


def _ipow(z, k):
    """z^k for an integer k >= 2, within k units of rounding.

    mpmath's ** rounds the exact complex power once while k times the
    operand's size in bits, the gap between its parts' exponents included,
    stays below 10^4.  Beyond that it takes exp(k log z), whose error grows
    with |log z| past what _rounding counts; there the power is taken by
    k - 1 products instead, a unit each.
    """
    a, b = mpmath.re(z), mpmath.im(z)
    if not (a and b) or k * (abs(a.exp - b.exp) + max(a.bc, b.bc)) < 10000:
        return z ** k
    out = z
    for _ in range(k - 1):
        out *= z
    return out


def _affine(tau, shift, scale):
    """(tau + shift) * scale without rounding, so derived points are exact."""
    return mpmath.fmul(mpmath.fadd(tau, shift, exact=True), scale, exact=True)


def _eta(tau, rel):
    """eta(tau) = q^{1/24} prod_{n<=N} (1 - q^n) and its truncation bound,
    at most rel * |value|, at the working precision.

    N is the least length, at least 8, with expm1(x^{N+1} / (1-x)^2) <= rel
    for x = |q|.  The product runs with extra bits for its own rounding: a
    unit per factor and per product, and the phase error of q and q^{1/24}
    from exp (3 |2 pi tau| units), which the powers q^n carry into the
    product at most x / (1-x)^3 times.
    """
    x = mpmath.exp(-2 * mpmath.pi * mpmath.im(tau))
    if x >= 1:
        raise DessinryError("tolerance-unreachable", "|q| rounds to 1, eta cannot converge")
    N = max(8, int(mpmath.ceil(mpmath.log(mpmath.log1p(rel) * (1 - x) ** 2) / mpmath.log(x))))
    if N > _PRODUCT_BUDGET:
        raise DessinryError("tolerance-unreachable", "eta product needs more than %d terms" % _PRODUCT_BUDGET)
    with mp.workprec(mp.prec + _extra_bits(3 * N + 8 + (20 * abs(tau) + 4) * (1 + x / (1 - x) ** 3))):
        q = mpmath.exp(2 * mpmath.pi * _I * tau)
        prod = mpmath.mpf(1)
        qn = q
        for _ in range(N):
            prod *= 1 - qn
            qn *= q
        val = mpmath.exp(mpmath.pi * _I * tau / 12) * prod
    return val, abs(val) * mpmath.expm1(x ** (N + 1) / (1 - x) ** 2)


def _pass(compute, rel, at):
    """compute(rel) -> (value, bound, ...) with bound <= rel * |value|, run at
    the precision rel needs; the bound gains the rounding allowance.  A
    tolerance-unreachable from compute names at, the caller's argument, not
    the point of the eta that failed."""
    rel = mpmath.mpf(rel)
    if not 0 < rel < mpmath.inf:
        raise DessinryError("invalid-parameter", "tolerance must be a positive finite number, got %s" % rel)
    with mp.workdps(_dps_for(rel)):
        try:
            value, bound, *rest = compute(rel)
        except DessinryError as exc:
            if exc.code != "tolerance-unreachable":
                raise
            raise DessinryError(exc.code, "%s at %s" % (exc.message, at)) from None
        return (value, bound + _rounding(value), *rest)


def _two_passes(compute, tol, at):
    """_pass at rel = tol, and once more at rel = tol / (2 |value|) when a
    value above 1 leaves the bound above tol."""
    tol = mpmath.mpf(tol)
    out = _pass(compute, tol, at)
    if out[1] > tol and abs(out[0]) > 1:
        out = _pass(compute, tol / (2 * abs(out[0])), at)
    return out


def eta(p, tol=1e-12):
    """Dedekind eta as the truncated product q^{1/24} prod (1 - q^n)."""
    tau = as_upper_half(p).tau
    return ModularValue(*_two_passes(lambda rel: _eta(tau, rel), tol, "tau=%s" % tau))


def _weber(p, tol, pref, tau_num):
    """pref() * eta(tau_num(tau)) / eta(tau) with its propagated bound."""
    tau = as_upper_half(p).tau
    num = tau_num(tau)

    def compute(rel):
        nv, nb = _eta(num, rel / 4)
        dv, db = _eta(tau, rel / 4)
        val = pref() * nv / dv
        return val, abs(val) * _rel_err((nb / abs(nv), 1), (db / abs(dv), -1))

    return ModularValue(*_two_passes(compute, tol, "tau=%s" % tau))


def weber_f(p, tol=1e-12):
    """f(tau) = e^{-pi i / 24} eta((tau+1)/2) / eta(tau)."""
    return _weber(p, tol, lambda: mpmath.exp(-mpmath.pi * _I / 24), lambda tau: _affine(tau, 1, 0.5))


def weber_f1(p, tol=1e-12):
    """f1(tau) = eta(tau/2) / eta(tau)."""
    return _weber(p, tol, lambda: 1, lambda tau: _affine(tau, 0, 0.5))


def weber_f2(p, tol=1e-12):
    """f2(tau) = sqrt(2) eta(2 tau) / eta(tau)."""
    return _weber(p, tol, lambda: mpmath.sqrt(2), lambda tau: _affine(tau, 0, 2))


def lambda_star(p, tol=1e-12):
    """lambda*(tau) via two expressions with enforced agreement.

    Returns the Weber-quotient value f(tau)^8 / f1(tau)^8; the discriminant
    expression, which also uses eta(tau), must agree with it within 10*tol,
    else expression-mismatch is raised.
    """
    tau = as_upper_half(p).tau
    return _lambda_star(tau, tol, "tau=%s" % tau)


def _lambda_star(tau, tol, at):
    """lambda_star at the mpc tau; at names the caller's argument in diagnostics."""
    t_shift, t_half = _affine(tau, 1, 0.5), _affine(tau, 0, 0.5)

    def compute(rel):
        # Each eta to rel / 32: expr1 is the eighth power of a quotient of two
        # (eta(tau) cancels from f / f1), so its relative error is about rel / 2.
        (vs, bs), (vh, bh), (vt, _) = (_eta(z, rel / 32) for z in (t_shift, t_half, tau))
        f = mpmath.exp(-mpmath.pi * _I / 24) * vs / vt
        f1 = vh / vt
        expr1 = _ipow(f / f1, 8)
        bound1 = abs(expr1) * _rel_err((bs / abs(vs), 8), (bh / abs(vh), -8))
        d_shift, d_half, d_tau = ((2 * mpmath.pi) ** 12 * _ipow(v, 24) for v in (vs, vh, vt))
        expr3 = -(d_shift + 16 * d_tau) / (d_half + 16 * d_tau)
        return expr1, bound1, expr3

    expr1, bound1, expr3 = _two_passes(compute, tol, at)
    worst = abs(expr1 - expr3)
    if worst > 10 * tol:
        raise DessinryError(
            "expression-mismatch", "lambda* expressions disagree by %s at %s (allowed %s)" % (worst, at, 10 * tol)
        )
    return ModularValue(expr1, bound1)


def ap(t, tol=1e-12):
    """Accessory parameter ap(t) = lambda*(it) of the t-stretched tiling."""
    tv = mpmath.mpmathify(t)
    if mpmath.im(tv) != 0 or not mpmath.isfinite(tv) or mpmath.re(tv) <= 0:
        raise DessinryError("invalid-parameter", "t must be a positive real number, got %r" % (t,))
    t_re = mpmath.re(tv)
    with mp.workprec(max(mp.prec, t_re.bc)):  # the point holds t exactly
        tau = UpperHalfPoint(mpmath.mpc(0, t_re)).tau
    return _lambda_star(tau, tol, "t=%s" % (t,))


def j_from_lambda_star(x):
    """j = 256 (x^2 - x + 1)^3 / (x^2 (x - 1)^2), poles at x = 0, 1."""
    if abs(x) < 1e-12 or abs(x - 1) < 1e-12:
        raise DessinryError("pole-at-0-or-1", "j expression has a pole at x=%r" % (x,))
    return 256 * (x * x - x + 1) ** 3 / (x * x * (x - 1) ** 2)


def j_oracle(p, tol=1e-9):
    """Independent j via the Eisenstein series E4 and the eta product:

        j = E4(q)^3 / (q prod (1-q^n)^24),   E4 = 1 + 240 sum sigma3(n) q^n.

    One pass at relative target tol.  The E4 tail uses sigma3(n) <= 1.21 n^3
    and the ratio test x (1 + 1/(N+1))^3 <= sqrt(x) < 1, which the length N
    meets outright; the bound is at most tol * |j| where |E4| >= 1/2, as
    for Im tau >= 1.
    """
    tau = as_upper_half(p).tau

    def compute(rel):
        ev, eb = _eta(tau, rel / 48)
        x = mpmath.exp(-2 * mpmath.pi * mpmath.im(tau))
        a, sx = -mpmath.log(x), mpmath.sqrt(x)
        # m = N + 1 meets (1 + 1/m)^3 <= x^{-1/2} and x^{m/2} <= cap; as m^3 x^{m/2}
        # is at most (6 / (e a))^3, the tail stays below rel / 16.
        cap = rel * (1 - sx) / (16 * 290.4 * (6 / (mpmath.e * a)) ** 3)
        m = int(mpmath.ceil(max(13, 1 / mpmath.expm1(a / 6), 2 * mpmath.log(cap) / -a)))
        sig = [0] * m
        for d in range(1, m):
            for n in range(d, m, d):
                sig[n] += d ** 3
        # s bounds the terms' moduli; the sum's rounding stays below a unit.
        s = 1 + 290.4 * x * (1 + 4 * x + x * x) / (1 - x) ** 4
        with mp.workprec(mp.prec + _extra_bits(s * m * (20 * abs(tau) + 4))):
            q = mpmath.exp(2 * mpmath.pi * _I * tau)
            e4 = 1 + 240 * mpmath.fsum(sig[n] * q ** n for n in range(1, m))
        tail = 290.4 * m ** 3 * x ** m / (1 - x * (1 + mpmath.mpf(1) / m) ** 3)
        err4 = (tail + mpmath.ldexp(1, -mp.prec)) / abs(e4)
        val = _ipow(e4, 3) / _ipow(ev, 24)
        return val, abs(val) * _rel_err((err4, 3), (eb / abs(ev), -24))

    return ModularValue(*_pass(compute, tol, "tau=%s" % tau))


class QSeries:
    """Exact integer q2-expansion coefficients, constant term first."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients):
        self.coefficients = tuple(int(c) for c in coefficients)

    @property
    def order(self):
        return len(self.coefficients) - 1

    def __repr__(self):
        return "QSeries(order=%d, head=%r)" % (self.order, self.coefficients[:5])


def lambda_star_qseries(N):
    """Exact coefficients of lambda* = (prod (1+q2^{2m+1})/(1-q2^{2m+1}))^8.

    Integer arithmetic throughout; the constant term is 1 and the linear
    coefficient 16.  Coefficients are nonnegative (each factor's expansion
    is), which downstream evaluation uses for its tail bound.
    """
    if not isinstance(N, int) or N < 0:
        raise DessinryError("invalid-parameter", "order must be a nonnegative integer, got %r" % (N,))
    if N > QSERIES_ORDER_LIMIT:
        raise DessinryError("bound-exceeded", "order %d exceeds the limit %d" % (N, QSERIES_ORDER_LIMIT))
    # Multiply factor by factor: (1 + x^k) as an in-place shift-add, then
    # 1/(1 - x^k) as a running geometric accumulation; the 8th power then
    # takes seven successive long multiplications.
    f = [0] * (N + 1)
    f[0] = 1
    for k in range(1, N + 1, 2):
        for i in range(N, k - 1, -1):
            f[i] += f[i - k]
        for i in range(k, N + 1):
            f[i] += f[i - k]
    out = f[:]
    for _ in range(7):
        acc = [0] * (N + 1)
        for i in range(N + 1):
            if out[i] == 0:
                continue
            for j in range(N + 1 - i):
                acc[i + j] += out[i] * f[j]
        out = acc
    return QSeries(out)


def qseries_eval(series, p):
    """Evaluate a truncated lambda* expansion with a rigorous error bound.

    Valid for Im tau > 1: the coefficients c_k are nonnegative and sum to
    lambda*(i) = 2 against e^{-pi k}, so c_k <= 2 e^{pi k} and the tail
    beyond order N is at most 2 (|q2| e^pi)^{N+1} / (1 - |q2| e^pi).
    """
    point = as_upper_half(p)
    with mp.workdps(40):
        # y = |q2| e^pi; the exponent's sign is exact, so y >= 1 wherever Im tau <= 1.
        y = mpmath.exp(mpmath.pi * (1 - mpmath.im(point.tau)))
        if not y < 1:
            raise DessinryError("tolerance-unreachable", "tail bound needs Im tau > 1, got %s" % point.tau)
        tail = 2 * y ** (series.order + 1) / (1 - y)
        dps = max(40, int(-mpmath.log10(tail)) + 15)
    with mp.workdps(dps):
        # The terms' moduli sum to at most lambda*(i) = 2 and |lambda*| >= 1/2
        # for Im tau > 1: the sum rounds by at most 4 (N+1) (20 |tau| + 4) units.
        with mp.workprec(mp.prec + _extra_bits(4 * (series.order + 1) * (20 * abs(point.tau) + 4))):
            q2 = point.q2
            val = mpmath.mpf(0)
            power = mpmath.mpc(1)
            for c in series.coefficients:
                val += c * power
                power *= q2
        tail = mpmath.mpf(tail) + _rounding(val)
    return ModularValue(val, tail)


def integrality_check(n, tol=1e-6):
    """Witness that 16 ap(sqrt(n)) satisfies the monic j-relation:

        (y^2 - 16y + 256)^3 = j(i sqrt(n)) y^2 (y - 16)^2,  y = 16 ap(sqrt(n)).

    True when the relation residual is below tol * scale.
    """
    if not isinstance(n, int) or n < 1:
        raise DessinryError("invalid-parameter", "n must be a positive integer, got %r" % (n,))
    if not 0 < tol < math.inf:
        raise DessinryError("invalid-parameter", "tolerance must be a positive finite number, got %r" % (tol,))
    dps = max(35, int(2 * math.pi * math.sqrt(n) / math.log(10)) + 25)
    with mp.workdps(dps):
        t = mpmath.sqrt(n)
        inner = min(1e-10, float(tol) * 1e-4)
        y = 16 * ap(t, inner).value
        j = j_oracle(UpperHalfPoint(_I * t), inner).value
        lhs = (y ** 2 - 16 * y + 256) ** 3
        rhs = j * y ** 2 * (y - 16) ** 2
        scale = max(mpmath.mpf(1), abs(lhs), abs(rhs))
        return bool(abs(lhs - rhs) <= tol * scale)
