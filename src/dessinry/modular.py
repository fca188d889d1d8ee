"""High-precision evaluation of eta, Weber functions, lambda*, j, and the
accessory-parameter function ap(t), with rigorous truncation bounds.

All fractional powers of q = e^{2 pi i tau} are fixed by exponential
formulas and never by complex powers of q itself:

    q2 = e^{pi i tau},  q^{1/24} = e^{pi i tau / 12},  q^{1/48} = e^{pi i tau / 24}.

Truncation control for an infinite product prod (1 +- z_n) with |z_n| <=
x^{e_n}, x = |q| < 1, e_n increasing in steps of 1: the discarded log-tail
is at most T = x^{e_{N+1}} / (1-x)^2, so the truncated value val_N is off
by at most |val_N| (e^T - 1).  Every ModularValue carries that bound; the
working mantissa adds ten guard digits beyond the requested tolerance so
rounding stays far below the reported truncation bound.

lambda*(tau) = 1/(1 - lambda(tau)) is evaluated three independent ways
(Weber quotient f^8/f1^8, the eta quotient with prefactor e^{-pi i/3},
and the discriminant combination -(Delta((tau+1)/2) + 16 Delta(tau)) /
(Delta(tau/2) + 16 Delta(tau))) and the mutual agreement is enforced; the
accessory parameter of the square pillowcase tiling with parameter t is
ap(t) = lambda*(it).
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


def _dps_for(tol):
    return max(20, int(round(-math.log10(float(tol)))) + 12)


class UpperHalfPoint:
    """A point tau with Im tau > 0, plus its branch-fixed q-powers.

    The q-powers are computed at the ambient working precision each time
    they are read, so the same point can serve computations at different
    tolerances.  tau itself keeps the precision it was constructed with;
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
    def q(self):
        return mpmath.exp(2 * mpmath.pi * _I * self.tau)

    @property
    def q2(self):
        return mpmath.exp(mpmath.pi * _I * self.tau)

    @property
    def q24(self):
        return mpmath.exp(mpmath.pi * _I * self.tau / 12)

    @property
    def q48(self):
        return mpmath.exp(mpmath.pi * _I * self.tau / 24)

    def __repr__(self):
        return "UpperHalfPoint(%s)" % self.tau


def as_upper_half(p):
    if isinstance(p, UpperHalfPoint):
        return p
    return UpperHalfPoint(p)


class ModularValue:
    """A computed value together with a rigorous truncation bound."""

    __slots__ = ("value", "trunc_bound")

    def __init__(self, value, trunc_bound):
        self.value = value
        self.trunc_bound = trunc_bound

    def __repr__(self):
        return "ModularValue(%s, trunc_bound=%s)" % (self.value, self.trunc_bound)


def _tail_T(x, first_exp):
    """Bound x^first_exp / (1-x)^2 on the log-tail of a truncated product."""
    return x ** first_exp / (1 - x) ** 2


def _eta_worker(tau, abs_tol):
    """eta(tau) with truncation bound <= abs_tol, at ambient precision."""
    q = mpmath.exp(2 * mpmath.pi * _I * tau)
    q24 = mpmath.exp(mpmath.pi * _I * tau / 12)
    x = abs(q)
    if x >= 1:
        raise DessinryError("tolerance-unreachable", "|q| rounds to 1 at tau=%s, eta cannot converge" % tau)
    proxy = abs(q24) * mpmath.mpf("0.25")
    target = abs_tol / proxy
    if target >= 1:
        N = 8
    else:
        N = max(8, int(mpmath.log(target * (1 - x) ** 2) / mpmath.log(x)) + 2)
    while True:
        if N > _PRODUCT_BUDGET:
            raise DessinryError(
                "tolerance-unreachable",
                "eta product needs more than %d terms at tau=%s" % (_PRODUCT_BUDGET, tau),
            )
        prod = mpmath.mpf(1)
        qn = q
        for _ in range(N):
            prod *= 1 - qn
            qn *= q
        val = q24 * prod
        bound = abs(val) * mpmath.expm1(_tail_T(x, N + 1))
        if bound <= abs_tol:
            return val, bound
        N *= 2


def _eta_rel(tau, rel):
    """eta(tau) with trunc_bound <= rel * |value|."""
    guess = abs(mpmath.exp(mpmath.pi * _I * tau / 12)) * mpmath.mpf("0.25")
    val, bound = _eta_worker(tau, rel * guess)
    while bound > rel * abs(val):
        val, bound = _eta_worker(tau, rel * abs(val) / 2)
    return val, bound


def eta(p, tol=1e-12):
    """Dedekind eta as the truncated product q^{1/24} prod (1 - q^n)."""
    point = as_upper_half(p)
    with mp.workdps(_dps_for(tol)):
        val, bound = _eta_worker(mpmath.mpc(point.tau), mpmath.mpf(tol))
    return ModularValue(val, bound)


def delta_by_eta(p, tol=1e-12):
    """Discriminant (2 pi i)^12 eta(tau)^24 = (2 pi)^12 eta(tau)^24."""
    point = as_upper_half(p)
    with mp.workdps(_dps_for(tol) + 8):
        tau = mpmath.mpc(point.tau)
        ev, eb = _eta_rel(tau, mpmath.mpf(tol))
        val = (2 * mpmath.pi) ** 12 * ev ** 24
        bound = abs(val) * 24 * (eb / abs(ev)) * mpmath.mpf("1.1")
    return ModularValue(val, bound)


def _quotient_value(pref, tau_num, tau_den, tol):
    """pref * eta(tau_num) / eta(tau_den) with propagated relative bound."""
    rel = mpmath.mpf(tol) / 8
    while True:
        nv, nb = _eta_rel(tau_num, rel)
        dv, db = _eta_rel(tau_den, rel)
        val = pref * nv / dv
        relsum = nb / abs(nv) + db / abs(dv)
        bound = abs(val) * relsum * mpmath.mpf("1.1")
        if bound <= tol:
            return val, bound
        rel /= 8


def weber_f(p, tol=1e-12):
    """f(tau) = e^{-pi i / 24} eta((tau+1)/2) / eta(tau)."""
    point = as_upper_half(p)
    with mp.workdps(_dps_for(tol) + 8):
        tau = mpmath.mpc(point.tau)
        pref = mpmath.exp(-mpmath.pi * _I / 24)
        val, bound = _quotient_value(pref, (tau + 1) / 2, tau, mpmath.mpf(tol))
    return ModularValue(val, bound)


def weber_f1(p, tol=1e-12):
    """f1(tau) = eta(tau/2) / eta(tau)."""
    point = as_upper_half(p)
    with mp.workdps(_dps_for(tol) + 8):
        tau = mpmath.mpc(point.tau)
        val, bound = _quotient_value(mpmath.mpf(1), tau / 2, tau, mpmath.mpf(tol))
    return ModularValue(val, bound)


def weber_f2(p, tol=1e-12):
    """f2(tau) = sqrt(2) eta(2 tau) / eta(tau)."""
    point = as_upper_half(p)
    with mp.workdps(_dps_for(tol) + 8):
        tau = mpmath.mpc(point.tau)
        val, bound = _quotient_value(mpmath.sqrt(2), 2 * tau, tau, mpmath.mpf(tol))
    return ModularValue(val, bound)


def lambda_star(p, tol=1e-12):
    """lambda*(tau) via three expressions with enforced mutual agreement.

    Returns the Weber-quotient value f(tau)^8 / f1(tau)^8; the eta-quotient
    and discriminant expressions must agree with it within 10*tol, else
    expression-mismatch is raised.
    """
    point = as_upper_half(p)
    tol = float(tol)
    with mp.workdps(_dps_for(tol) + 10):
        tau = mpmath.mpc(point.tau)
        t_shift = (tau + 1) / 2
        t_half = tau / 2

        def assemble(rel):
            e_shift = _eta_rel(t_shift, rel)
            e_half = _eta_rel(t_half, rel)
            e_tau = _eta_rel(tau, rel)
            f = mpmath.exp(-mpmath.pi * _I / 24) * e_shift[0] / e_tau[0]
            f1 = e_half[0] / e_tau[0]
            expr1 = (f / f1) ** 8
            rels = [b / abs(v) for v, b in (e_shift, e_half, e_tau)]
            bound1 = abs(expr1) * 8 * (rels[0] + rels[1]) * mpmath.mpf("1.1")
            expr2 = mpmath.exp(-mpmath.pi * _I / 3) * (e_shift[0] / e_half[0]) ** 8
            bound2 = bound1
            c = (2 * mpmath.pi) ** 12
            d_shift = c * e_shift[0] ** 24
            d_half = c * e_half[0] ** 24
            d_tau = c * e_tau[0] ** 24
            err = [abs(v) * 24 * r * mpmath.mpf("1.1") for v, r in zip((d_shift, d_half, d_tau), rels)]
            num = -(d_shift + 16 * d_tau)
            den = d_half + 16 * d_tau
            expr3 = num / den
            bound3 = (err[0] + 16 * err[2] + abs(expr3) * (err[1] + 16 * err[2])) / abs(den) * mpmath.mpf("1.1")
            return expr1, bound1, expr2, expr3, bound3

        expr1, bound1, expr2, expr3, bound3 = assemble(mpmath.mpf(tol) / 256)
        if bound1 > tol or bound3 > 10 * tol:
            expr1, bound1, expr2, expr3, bound3 = assemble(
                mpmath.mpf(tol) / (256 * 64 * (1 + abs(expr1)))
            )
        worst = max(abs(expr1 - expr2), abs(expr1 - expr3), abs(expr2 - expr3))
        if worst > 10 * tol:
            raise DessinryError(
                "expression-mismatch",
                "lambda* expressions disagree by %s at tau=%s (allowed %s)" % (worst, tau, 10 * tol),
            )
    return ModularValue(expr1, bound1)


def ap(t, tol=1e-12):
    """Accessory parameter ap(t) = lambda*(it) of the t-stretched tiling."""
    tv = mpmath.mpmathify(t)
    if mpmath.im(tv) != 0 or not mpmath.isfinite(tv) or mpmath.re(tv) <= 0:
        raise DessinryError("invalid-parameter", "t must be a positive real number, got %r" % (t,))
    with mp.workdps(_dps_for(tol) + 10):
        point = UpperHalfPoint(_I * mpmath.re(tv))
        out = lambda_star(point, tol)
    return out


def j_from_lambda_star(x):
    """j = 256 (x^2 - x + 1)^3 / (x^2 (x - 1)^2), poles at x = 0, 1."""
    if abs(x) < 1e-12 or abs(x - 1) < 1e-12:
        raise DessinryError("pole-at-0-or-1", "j expression has a pole at x=%r" % (x,))
    return 256 * (x * x - x + 1) ** 3 / (x * x * (x - 1) ** 2)


def _sigma3_table(N):
    out = [0] * (N + 1)
    for d in range(1, N + 1):
        cube = d * d * d
        for n in range(d, N + 1, d):
            out[n] += cube
    return out


def j_oracle(p, tol=1e-9):
    """Independent j via the Eisenstein series E4 and the eta product:

        j = E4(q)^3 / (q prod (1-q^n)^24),   E4 = 1 + 240 sum sigma3(n) q^n.

    The E4 tail uses sigma3(n) <= 1.21 n^3 and a ratio comparison, so the
    reported bound is rigorous.
    """
    point = as_upper_half(p)
    tol = float(tol)
    with mp.workdps(_dps_for(tol) + 10):
        tau = mpmath.mpc(point.tau)
        q = mpmath.exp(2 * mpmath.pi * _I * tau)
        x = abs(q)
        rel = mpmath.mpf(tol) / 256
        while True:
            ev, eb = _eta_rel(tau, rel)
            eta24 = ev ** 24
            N = max(12, int(mpmath.log(rel) / mpmath.log(x)) + 4)
            sig = _sigma3_table(N)
            e4 = mpmath.mpf(1)
            qn = q
            for n in range(1, N + 1):
                e4 += 240 * sig[n] * qn
                qn *= q
            ratio = x * (1 + mpmath.mpf(1) / (N + 1)) ** 3
            if ratio >= 1:
                rel /= 16
                continue
            e4_tail = 240 * mpmath.mpf("1.21") * (N + 1) ** 3 * x ** (N + 1) / (1 - ratio)
            val = e4 ** 3 / eta24
            rel_total = 3 * e4_tail / abs(e4) + 24 * eb / abs(ev)
            bound = abs(val) * rel_total * mpmath.mpf("1.1")
            if bound <= tol * max(1, abs(val)):
                return ModularValue(val, bound)
            rel /= 16


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
    """Evaluate a truncated lambda* expansion with a rigorous tail bound.

    Valid for Im tau > 1: the coefficients c_k are nonnegative and sum to
    lambda*(i) = 2 against e^{-pi k}, so c_k <= 2 e^{pi k} and the tail
    beyond order N is at most 2 (|q2| e^pi)^{N+1} / (1 - |q2| e^pi).
    """
    point = as_upper_half(p)
    if mpmath.im(point.tau) <= 1:
        raise DessinryError("tolerance-unreachable", "tail bound needs Im tau > 1, got %s" % point.tau)
    with mp.workdps(40):
        y = abs(point.q2) * mpmath.exp(mpmath.pi)
        assert y < 1
        tail = 2 * y ** (series.order + 1) / (1 - y)
        dps = max(40, int(-mpmath.log10(tail)) + 15)
    with mp.workdps(dps):
        q2 = point.q2
        val = mpmath.mpf(0)
        power = mpmath.mpc(1)
        for c in series.coefficients:
            val += c * power
            power *= q2
        tail = mpmath.mpf(tail)
    return ModularValue(val, tail)


def cm_from_weber(f8, tol=1e-10, tau=None):
    """Split f^8 into (f1^8, f2^8) and recover ap = f^8 / f1^8.

    The two candidates are the roots of x^2 - f8 x + 16/f8.  With tau
    given, the assignment is settled by direct evaluation of f1 there;
    without it the larger root is taken, which is correct on the
    imaginary-axis CM grid where f1^8 >= f2^8.  Nearly equal roots are
    fine either way (the split at tau = i); a direct evaluation that
    matches neither root raises ambiguous-assignment.
    """
    f8v = mpmath.mpmathify(f8)
    if abs(mpmath.im(f8v)) > 1e-9 * (1 + abs(f8v)):
        raise DessinryError("invalid-parameter", "f8 must be real, got %r" % (f8,))
    f8r = mpmath.re(f8v)
    if f8r <= 0:
        raise DessinryError("invalid-parameter", "f8 must be positive, got %s" % f8r)
    with mp.workdps(_dps_for(tol) + 8):
        scale = max(mpmath.mpf(1), f8r ** 2)
        disc = f8r ** 2 - 64 / f8r
        if disc < -tol * scale:
            raise DessinryError(
                "negative-discriminant",
                "x^2 - %s x + %s has no real roots" % (f8r, 16 / f8r),
            )
        root = mpmath.sqrt(max(disc, mpmath.mpf(0)))
        u = (f8r + root) / 2
        v = (f8r - root) / 2
        if tau is not None:
            direct = weber_f1(tau, tol).value ** 8
            direct = mpmath.re(direct)
            du, dv = abs(direct - u), abs(direct - v)
            if min(du, dv) > 10 * tol * scale and abs(u - v) > 10 * tol * scale:
                raise DessinryError(
                    "ambiguous-assignment",
                    "direct f1^8=%s matches neither root %s nor %s" % (direct, u, v),
                )
            if dv < du:
                u, v = v, u
        apv = f8r / u
    return u, v, apv


def integrality_check(n, tol=1e-6):
    """Witness that 16 ap(sqrt(n)) satisfies the monic j-relation:

        (y^2 - 16y + 256)^3 = j(i sqrt(n)) y^2 (y - 16)^2,  y = 16 ap(sqrt(n)).

    True when the relation residual is below tol * scale.
    """
    if not isinstance(n, int) or n < 1:
        raise DessinryError("invalid-parameter", "n must be a positive integer, got %r" % (n,))
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
