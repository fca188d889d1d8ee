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
The eta product runs on Python integers and rounds each sum as mpmath's
complex arithmetic does (_add), so its value is mpmath's, bit for bit.

lambda*(tau) = 1/(1 - lambda(tau)) is evaluated two independent ways,
the Weber quotient f^8/f1^8 and the discriminant combination
-(Delta((tau+1)/2) + 16 Delta(tau)) / (Delta(tau/2) + 16 Delta(tau)),
and their agreement is enforced; the accessory parameter of the square
pillowcase tiling with parameter t is ap(t) = lambda*(it).

lambda* is a modular function for Gamma(2).  Below Im tau = sqrt(3)/2
both expressions are read at tau' = gamma tau in the standard fundamental
domain (gamma in SL2(Z), found in exact integers), where every eta runs at
|q| <= e^{-pi sqrt(3)/2}.  T sends lambda* to 1/lambda* and S to
lambda*/(lambda* - 1), so gamma mod 2, one of the six elements of SL2(Z/2),
picks one of f^8/f1^8, f1^8/f^8, f^8/f2^8, f2^8/f^8, -f2^8/f1^8 and
-f1^8/f2^8 at tau' (by f^8 = f1^8 + f2^8), and the discriminant side is
mapped by the matching Moebius map.  ap(t) below t = sqrt(3)/2 is thus
f(i/t)^8 / f2(i/t)^8.  One rule refuses work (tolerance-unreachable): an
eta whose predicted CPU time passes _BUDGET (_afford).  For ap(t) it falls
at t = 2.14e-4, 2.15e-4 and 2.19e-4 for tol 1e-12, 1e-100 and 1e-300.
"""

import math

import mpmath
from mpmath import mp
from mpmath.libmp import (
    bin_to_radix,
    bitcount,
    from_int,
    from_man_exp,
    ften,
    mpf_div,
    mpf_ln2,
    mpf_ln10,
    mpf_mul,
    mpf_pow_int,
    to_fixed,
    to_int,
    to_rational,
    to_str,
)

from .errors import DessinryError

# Unused here; imported so that bench/tracing.py finds it in this module to
# wrap, as it did before the series moved to qseries.
from .qseries import lambda_star_qseries  # noqa: F401

_I = mpmath.mpc(0, 1)
_BUDGET = 1.0  # predicted CPU seconds past which an eta is refused (_afford)


def _dps_for(rel):
    """Digits for relative target rel (an mpf: it can fall below 1e-308) plus 12 guard digits."""
    return max(20, int(-mpmath.log10(rel)) + 12)


def _extra_bits(amp):
    """Extra bits that shrink amp units of rounding below an eighth of a unit."""
    return int(mpmath.log(amp, 2)) + 4


def _afford(n, dps):
    """Refuse (tolerance-unreachable) an eta of n factors at D = dps digits
    whose predicted CPU time, (n + 12 D^0.3) (3000 + D^1.6) 1.3 ns (fitted
    within 25 % to _eta under mpmath 1.3.0 on x86-64), passes _BUDGET s."""
    seconds = (n + 12 * dps ** 0.3) * (3000 + dps ** 1.6) * 1.3e-9
    if not seconds <= _BUDGET:
        raise DessinryError("tolerance-unreachable", "eta would take %.2g s, past the %g s budget" % (seconds, _BUDGET))


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
        return "ModularValue(%s, trunc_bound=%s)" % (_nstr(self.value, mp.dps), _nstr(self.trunc_bound, mp.dps))


def _to_str(s, n):
    """mpmath's to_str(s, n), the text of nstr and str, for a raw mpf s of
    any magnitude.

    Beyond 2^3500 either way, to_str divides |s| by 10^b with b taken from
    s's exponent, not its magnitude, so at high precision the quotient is an
    integer of about s's precision in digits, and str() refuses that past
    4300 digits.  Here the same quotient and digits are made, and their
    leading n + 1 digits read off by integer division.  For n below 1000
    the exponent, 1000 or more, prints in the same form.
    """
    man, exp, bc = s[1:]
    if not man or abs(exp + bc) <= 3500 or n >= 1000:
        return to_str(s, n)
    prec = int((n + 3) * math.log(10, 2)) + 10
    eprec = bitcount(abs(exp)) + 5
    b = to_int(mpf_div(mpf_mul(from_int(exp), mpf_ln2(eprec)), mpf_ln10(eprec), eprec))
    _, man, exp, bc = mpf_div((0, man, exp, bc), mpf_pow_int(ften, b, prec), prec)
    fixprec = max(prec - exp - bc, 0)
    fixdps = int(fixprec / math.log(10, 2) + 0.5)
    digits = bin_to_radix(to_fixed((0, man, exp, bc), fixprec), fixprec, 10, fixdps)
    length = digits.bit_length() * 30103 // 100000  # at most its digit count
    while 10**length <= digits:
        length += 1
    head, tail = to_str(from_int(digits // 10 ** (length - n - 1)), n).split("e")
    return "-" * s[0] + head + "e%+d" % (b + length - fixdps - 1 + int(tail) - n)


def _nstr(x, n):
    """mpmath.nstr(x, n) for an mpf or mpc x of any magnitude, else str(x)."""
    if hasattr(x, "_mpc_"):
        re, im = x._mpc_
        return "(%s %s %sj)" % (_to_str(re, n), "-+"[not im[0]], _to_str((0,) + im[1:], n))
    return _to_str(x._mpf_, n) if hasattr(x, "_mpf_") else str(x)


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


def _add(m, e, n, f, prec):
    """m 2^e + n 2^f rounded as mpmath's mpf_add rounds it: to prec bits,
    to nearest with ties to even, as an odd mantissa (or 0) and exponent.

    The mantissas are odd or 0, as mpmath keeps them, so exponent gaps
    match its own.  An addend more than 100 exponents and prec + 4 bits
    below the other counts as a sticky bit of its sign, as there: no shift
    spans an astronomical gap, and where that addend reaches into the
    other's low bits the sum is mpmath's rather than the exact one rounded.
    """
    if m and n:
        if e < f:
            m, e, n, f = n, f, m, e
        if e - f > 100 and m.bit_length() + e - n.bit_length() - f > prec + 4:
            m, e = (m << prec + 4) + (1 if n > 0 else -1), e - prec - 4
        else:
            m, e = (m << e - f) + n, f
        if not m:
            return 0, 0
    elif n:
        m, e = n, f
    elif not m:
        return 0, 0
    a = -m if m < 0 else m
    k = a.bit_length() - prec
    if k > 0:
        h = a >> k - 1
        a = (h >> 1) + 1 if h & 1 and (h & 2 or a & (1 << k - 1) - 1) else h >> 1
        e += k
    z = (a & -a).bit_length() - 1
    return (a >> z if m > 0 else -(a >> z)), e + z


def _eta_product(q, N):
    """prod_{n<=N} (1 - q^n) at the working precision, bit for bit what the
    mpc loop prod *= 1 - qn; qn *= q gives, on Python integers.

    Each part is a (mantissa, exponent) pair; each product of parts is
    exact and each sum of two is rounded once by _add, as mpc_mul and
    mpc_sub round them, so the product's rounding analysis is mpmath's.
    """
    prec = mp.prec
    (qr, qe), (qi, qf) = ((-m if s else m, e) for s, m, e, _ in q._mpc_)
    a, ae, b, be = 1, 0, 0, 0
    nr, ne, ni, nf = qr, qe, qi, qf
    for _ in range(N):
        # prod *= 1 - q^n = c - i ni, whose imaginary part is exact already.
        c, ce = _add(1, 0, -nr, ne, prec)
        (a, ae), (b, be) = _add(a * c, ae + ce, b * ni, be + nf, prec), _add(b * c, be + ce, -a * ni, ae + nf, prec)
        (nr, ne), (ni, nf) = _add(nr * qr, ne + qe, -ni * qi, nf + qf, prec), _add(nr * qi, ne + qf, ni * qr, nf + qe, prec)
    return mp.make_mpc((from_man_exp(a, ae), from_man_exp(b, be)))


def _eta(tau, rel):
    """eta(tau) = q^{1/24} prod_{n<=N} (1 - q^n) and its truncation bound,
    at most rel * |value|, at the working precision.

    N is the least length, at least 8, with expm1(x^{N+1} / (1-x)^2) <= rel
    for x = |q|, first estimated in floats (infinite where -log x underflows)
    for the cost rule (_afford), which at tol 1e-12 refuses Im tau below 3e-5.
    The product runs with extra bits for its own rounding: a unit per factor
    and per product, and the phase error of q and q^{1/24} from exp
    (3 |2 pi tau| units), which the powers q^n carry into the product at
    most x / (1-x)^3 times.  A reduced point tau' is itself rounded, with
    extra bits of its own (_lambda_star).
    """
    a = 2 * math.pi * float(mpmath.im(tau))  # -log x, 0 where it underflows
    _afford((-float(mpmath.ln(rel, prec=53)) - 2 * math.log(-math.expm1(-a))) / a if a else math.inf, mp.dps)
    x = mpmath.exp(-2 * mpmath.pi * mpmath.im(tau))
    N = max(8, int(mpmath.ceil(mpmath.log(mpmath.log1p(rel) * (1 - x) ** 2) / mpmath.log(x))))
    with mp.workprec(mp.prec + _extra_bits(3 * N + 8 + (20 * abs(tau) + 4) * (1 + x / (1 - x) ** 3))):
        prod = _eta_product(mpmath.exp(2 * mpmath.pi * _I * tau), N)
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

    Returns the Weber-quotient value f(tau)^8 / f1(tau)^8, read at the
    reduced point (_lambda_star); the discriminant expression, which also
    uses eta there, must agree with it within 10*tol, else
    expression-mismatch is raised.
    """
    tau = as_upper_half(p).tau
    return _lambda_star(tau, tol, "tau=%s" % tau)


# gamma mod 2 -> (num, den, sign, m): lambda*(tau) = sign * (w_num / w_den)^8
# at tau' = gamma tau, with w = (f, f1, f2), and lambda*(tau) = m(lambda*(tau'))
# for m = (p, q, r, s), x -> (p x + q) / (r x + s).  T sends lambda* to
# 1 / lambda* and S to lambda* / (lambda* - 1); f^8 = f1^8 + f2^8 turns each
# m(f^8 / f1^8) into one quotient, from which eta(tau') cancels.
_CLASSES = {
    (1, 0, 0, 1): (0, 1, 1, None),  # x = f^8 / f1^8
    (1, 1, 0, 1): (1, 0, 1, (0, 1, 1, 0)),  # 1 / x = f1^8 / f^8
    (0, 1, 1, 0): (0, 2, 1, (1, 0, 1, -1)),  # x / (x - 1) = f^8 / f2^8
    (0, 1, 1, 1): (2, 0, 1, (1, -1, 1, 0)),  # (x - 1) / x = f2^8 / f^8
    (1, 0, 1, 1): (2, 1, -1, (-1, 1, 0, 1)),  # 1 - x = -f2^8 / f1^8
    (1, 1, 1, 0): (1, 2, -1, (0, 1, -1, 1)),  # 1 / (1 - x) = -f1^8 / f2^8
}


def _reduce(tau):
    """(gamma mod 2, tau') for the gamma in SL2(Z) that moves tau into the
    standard fundamental domain, found in integers; tau' is None, gamma the
    identity, where Im tau >= sqrt(3)/2 already.  With tau = (u + iv) / D,
    gamma tau = (P + iav) / (Q + icv) for P = au + bD and Q = cu + dD, so
    tau' is the exact (x, y, n) with tau' = (x + iy) / n."""
    (u, e), (v, g) = to_rational(tau.real._mpf_), to_rational(tau.imag._mpf_)
    D = max(e, g)  # powers of 2
    u, v = u * (D // e), v * (D // g)
    if 4 * v * v >= 3 * D * D:
        return (1, 0, 0, 1), None
    a, b, c, d = 1, 0, 0, 1
    while True:
        P, Q = a * u + b * D, c * u + d * D
        n2 = Q * Q + c * c * v * v
        k = (2 * (P * Q + a * c * v * v) + n2) // (2 * n2)  # nearest integer to Re gamma tau
        a, b, P = a - k * c, b - k * d, P - k * Q
        if P * P + a * a * v * v >= n2:
            return (a & 1, b & 1, c & 1, d & 1), (P * Q + a * c * v * v, v * D, n2)
        a, b, c, d = -c, -d, a, b


def _lambda_star(tau, tol, at):
    """lambda_star at the mpc tau; at names the caller's argument in diagnostics.

    Below Im tau = sqrt(3)/2 both expressions are read at tau' = gamma tau
    (_reduce), Im tau' >= sqrt(3)/2: the Weber side as the quotient that
    gamma mod 2 picks, the discriminant side mapped by m.  tau' is rounded
    once, from its exact numerator and denominator, to the pass's precision
    plus _extra_bits(16 |tau'|).  As |d log(w_num / w_den)^8 / d tau'| =
    (2 pi / 3) |a E2(.) - b E2(.)| < 8 there, that moves the value by at
    most an eighth of a unit, which the rounding allowance counts, as it
    counts exp's phase error in _eta.  Where m has its pole at x = 1 (f2 in
    the denominator), m multiplies x's relative error by |x| / |x - 1| <
    e^{pi Im tau'}, since |x - 1| = |f2 / f1|^8 >= 9 e^{-pi Im tau'}; the
    discriminant side then runs that many digits higher, its etas that much
    tighter.  Before any eta runs, _afford is asked about one of the final
    pass (|value| < 10^lift / 9 + 3): ap(t) is refused past about 12780 digits,
    below t = 2.14e-4, 2.15e-4, 2.19e-4 at tol 1e-12, 1e-100, 1e-300.
    """
    key, image = _reduce(tau)
    num, den, sign, mobius = _CLASSES[key]
    im = mpmath.im(tau) if image is None else mpmath.fdiv(image[1], image[2])  # Im tau'
    lift = 0 if den < 2 else int(mpmath.pi * im / mpmath.ln(10)) + 1

    def compute(rel):
        with mp.workdps(15):
            dps = mpmath.mpf(_dps_for(mpmath.mpf(tol)) + 2 * lift)  # the final pass's etas, to 10^-dps
            _afford(dps * mpmath.ln10 / (mpmath.pi * im), dps)  # at Im tau' / 2, the least
            extra = image and _extra_bits(16 * mpmath.fdiv(abs(image[0]) + image[1], image[2]))
        z = tau if image is None else mpmath.mpc(*(mpmath.fdiv(v, image[2], prec=mp.prec + extra) for v in image[:2]))
        # Each eta to rel / 32 (10^lift tighter for the discriminant side):
        # expr1 is the eighth power of a quotient of two (eta(tau') cancels
        # from it), so its relative error is about rel / 2.
        with mp.workdps(mp.dps + lift):  # the pass's own precision where lift is 0
            points = (_affine(z, 1, 0.5), _affine(z, 0, 0.5), z)
            (vs, bs), (vh, bh), (vt, _) = (_eta(p, rel / (32 * 10 ** lift)) for p in points)
            d_shift, d_half, d_tau = ((2 * mpmath.pi) ** 12 * _ipow(v, 24) for v in (vs, vh, vt))
            expr3 = -(d_shift + 16 * d_tau) / (d_half + 16 * d_tau)
            if mobius:
                p, q, r, s = mobius
                expr3 = (p * expr3 + q) / (r * expr3 + s)
        etas = [(vs, bs), (vh, bh)]
        w = [mpmath.exp(-mpmath.pi * _I / 24) * vs / vt, vh / vt]
        if 2 in (num, den):
            etas.append(_eta(_affine(z, 0, 2), rel / 32))
            w.append(mpmath.sqrt(2) * etas[2][0] / vt)
        (vn, bn), (vd, bd) = etas[num], etas[den]
        expr1 = _ipow(w[num] / w[den], 8)
        expr1 = -expr1 if sign < 0 else expr1
        bound1 = abs(expr1) * _rel_err((bn / abs(vn), 8), (bd / abs(vd), -8))
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
    if type(n) is not int or n < 1:
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
