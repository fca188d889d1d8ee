"""Numerical monodromy of explicit polynomial covers by root path-tracking.

A cover is a polynomial P of degree d, whose fiber over a base value y is
the d roots of P(x) - y.  Transporting the d roots along a lasso around a
branch point permutes them; doing this for every finite branch point, in
order, yields a monodromy tuple whose color 0 is the point at infinity
(never encircled: its permutation comes from the product constraint and is
cross-checked against an explicit large circle).  Each lasso is tracked
once, out along its tail and around its loop: the way back would retrace
the way out, so the permutation is read off where the loop closes, against
the roots it started from.

The concrete family of interest is the pencil of quartics

    f_s(x) = (12/(2s-1)) (x^4/4 - (s+1) x^3/3 + s x^2/2),

normalized so f_s(0) = 0 and f_s(1) = 1, with critical points 0, 1, s and
infinity; the third finite critical value is p(s) = f_s(s) =
(2-s) s^3 / (2s-1).  For a real target a > 1 the fiber p^-1(a) consists of
four points in distinct regions of the s-plane (upper half plane, lower
half plane, the real intervals left of -1 and between 1/2 and 1), labeled
L1..L4 by classify_lift.
"""

import cmath
import math

from .core import MonodromyTuple, canonical_form, validate
from .errors import DessinryError
from .perms import compose_all, inverse

BASE_POINT = 2j

# Unit roundoff of IEEE double precision.
_UNIT_ROUNDOFF = 2.0 ** -53
# _newton accepts z when |p(z)| <= _ACCEPT_ROUNDING * mu.  A complex Horner
# step q <- z q + c rounds by at most 2 sqrt(2) u |z q| + u |z q + c|, so at a
# root the computed p(z) can be as large as (1 + 2 sqrt(2)) u mu < 4 u mu.
_ACCEPT_ROUNDING = 4.0 * _UNIT_ROUNDOFF
# classify_lift's margin for "real" and "real above 1".
_LIFT_TOL = 1e-8
# Sweeps of the root finder; a root still moving after them is left to the
# polish and acceptance test of poly_roots.
_ABERTH_SWEEPS = 500
# A lasso's circle has this fraction of the distance from its branch point
# to the nearest other one as its radius.
_RADIUS_FACTOR = 0.25
# First step of the tracker, as a fraction of the path; later steps grow
# to at most 2.5 times it.
_STEP_INIT = 0.1


def _polyval(coeffs, x):
    """p(x) and p'(x) in one pass of Horner's rule."""
    f = df = 0j
    for c in coeffs:
        df = df * x + f
        f = f * x + c
    return f, df


def _horner(coeffs, z):
    """p(z) by Horner's rule and its running error estimate mu, the sum of
    |z|^(d-k) |q_k| over the computed partial values q_k (Higham, Accuracy
    and Stability of Numerical Algorithms, section 5.1)."""
    f, mu, size = 0j, 0.0, abs(z)
    for c in coeffs:
        f = f * z + c
        mu = mu * size + abs(f)
    return f, mu


def _min_gap(points):
    """Smallest distance between two of the points; inf for fewer than two."""
    return min(
        (abs(a - b) for i, a in enumerate(points) for b in points[i + 1 :]),
        default=math.inf,
    )


def _newton(coeffs, x, steps):
    """x after at most steps Newton steps, or None unless |p(x)| <= 4 u mu
    with mu Horner's running error estimate at x.

    Newton stops by its own convergence (Sommese and Wampler, The Numerical
    Solution of Systems of Polynomials, 2005, ch. 2): when a step fails to
    shrink the last one, and is then not taken, or when quadratic convergence
    predicts a next step |s_k|^3 / |s_(k-1)|^2 below u (1 + |x|)."""
    last = math.inf
    for _ in range(steps):
        f, fp = _polyval(coeffs, x)
        step = f / fp if fp else math.inf
        size = abs(step)
        # Phrased so that a NaN or infinite step is not taken.
        if not size < last:
            break
        x -= step
        # The first step has no predecessor to predict from.
        if last < math.inf and (size / last) ** 2 * size < _UNIT_ROUNDOFF * (1.0 + abs(x)):
            break
        last = size
    f, mu = _horner(coeffs, x)
    # Phrased so that a NaN fails the test.
    return x if abs(f) <= _ACCEPT_ROUNDING * mu else None


def _aberth(coeffs):
    """Approximations to all roots of a polynomial of degree >= 1 at once.

    Aberth-Ehrlich iteration (O. Aberth, Math. Comp. 27, 1973), sweeping the
    iterates in order and using each update at once: z <- z - p / (p' - p S)
    with S the sum of 1 / (z - w) over the other iterates w.  The iterates
    start evenly spaced on a circle about the centroid c = -a_1 / (d a_0) of
    the roots.  Its radius max(|b_k / b_0|^(1/k), |b_d / 2 b_0|^(1/d)), with
    p(x + c) = sum b_k x^(d-k), is half of Fujiwara's bound on the roots of
    the recentred polynomial.  As in Bini (Numer. Algorithms 13, 1996), an
    iterate is frozen once its residual is down to the rounding error of
    Horner's rule, here its running estimate |p(z)| <= 2 u mu from _horner.
    Iteration stops when all are frozen or after _ABERTH_SWEEPS sweeps.
    """
    deg = len(coeffs) - 1
    lead = coeffs[0]
    centre = -coeffs[1] / (deg * lead)
    # Taylor shift: the coefficients of p(x + centre), highest first.
    shifted = list(coeffs)
    for top in range(deg, 0, -1):
        for k in range(1, top + 1):
            shifted[k] += shifted[k - 1] * centre
    radius = max(
        [abs(shifted[k] / lead) ** (1.0 / k) for k in range(1, deg)]
        + [abs(shifted[deg] / (2.0 * lead)) ** (1.0 / deg)]
    )
    if radius == 0.0:
        # p is a_0 (x - c)^d.
        return [centre] * deg
    # The angular offset keeps the start off the symmetry axes of the input.
    roots = [centre + radius * cmath.exp(1j * (2.0 * math.pi * k / deg + 0.4)) for k in range(deg)]
    active = range(deg)
    for _ in range(_ABERTH_SWEEPS):
        moving = []
        for i in active:
            z = roots[i]
            f, mu = _horner(coeffs, z)
            if abs(f) <= 2.0 * _UNIT_ROUNDOFF * mu:
                continue
            moving.append(i)
            denom = _polyval(coeffs, z)[1] - f * sum(1.0 / (z - w) for w in roots if w != z)
            if denom != 0.0:
                step = f / denom
                if cmath.isfinite(step):
                    roots[i] = z - step
        if not moving:
            break
        active = moving
    return roots


def poly_roots(coeffs):
    """All complex roots, coefficients highest degree first.

    Aberth-Ehrlich approximations are polished by _newton, at most 46 steps
    stopped by Newton's own convergence, and accepted only when |p(r)| <=
    4 u mu, with mu Horner's running error estimate at r; else
    path-tracking-failure.  A leading coefficient at relative size below
    1e-14 is rejected as degenerate rather than silently deflated.
    """
    coeffs = [complex(c) for c in coeffs]
    if not coeffs:
        raise DessinryError("degenerate-leading-coefficient", "empty coefficient sequence")
    if not all(cmath.isfinite(c) for c in coeffs):
        raise DessinryError("invalid-parameter", "coefficients must be finite, got %r" % (coeffs,))
    top = max(abs(c) for c in coeffs)
    if top == 0.0 or abs(coeffs[0]) <= 1e-14 * top:
        raise DessinryError(
            "degenerate-leading-coefficient",
            "leading coefficient %r is negligible against %r" % (coeffs[0], top),
        )
    if len(coeffs) == 1:
        return []
    approx = _aberth(coeffs)
    polished = [_newton(coeffs, r, 46) for r in approx]
    if None in polished:
        r = approx[polished.index(None)]
        raise DessinryError("path-tracking-failure", "root %r refuses to polish to its rounding bound" % (r,))
    return polished


class CoverSpec:
    """The cover x -> P(x), with fiber P - y over each base value y.

    coeffs: P's coefficients, highest degree first; branch_points: the
    finite branch values in color order 1..n-1; color 0 is infinity
    (color_order records the full assignment)."""

    __slots__ = ("coeffs", "branch_points", "degree", "color_order")

    def __init__(self, coeffs, branch_points):
        coeffs = tuple(complex(c) for c in coeffs)
        if len(coeffs) < 2 or not all(cmath.isfinite(c) for c in coeffs):
            raise DessinryError("invalid-parameter", "need finite coefficients of degree >= 1, got %r" % (coeffs,))
        branch_points = tuple(complex(b) for b in branch_points)
        if not all(cmath.isfinite(b) for b in branch_points):
            raise DessinryError("invalid-parameter", "branch points must be finite, got %r" % (branch_points,))
        if len(branch_points) < 2:
            raise DessinryError("invalid-tuple", "need at least two finite branch points (n >= 3)")
        for i in range(len(branch_points)):
            for j in range(i + 1, len(branch_points)):
                if abs(branch_points[i] - branch_points[j]) < 1e-12:
                    raise DessinryError(
                        "invalid-tuple",
                        "branch points %d and %d coincide" % (i, j),
                    )
        self.coeffs = coeffs
        self.branch_points = branch_points
        self.degree = len(coeffs) - 1
        self.color_order = ("inf",) + branch_points

    @property
    def n(self):
        return len(self.branch_points) + 1

    def fiber(self, y):
        """Coefficients of P - y, highest degree first."""
        return self.coeffs[:-1] + (self.coeffs[-1] - y,)


def _advance(cover, roots, gap, y, order):
    """Correct all roots onto the fiber of the cover over y, each by at
    most 10 steps of _newton, stopped by Newton's own convergence.

    A root must pass _newton's acceptance test and move by at most 0.45
    gap, the smallest distance between two of the roots.  Returns the
    corrected roots, in the order of roots, with their smallest gap; or None
    on failure.  The roots are corrected in the given order, a permutation
    of their indices: the result does not depend on it, but a failing step
    is refused sooner when the roots that moved most come first.
    """
    coeffs = cover.fiber(y)
    moved = list(roots)
    for i in order:
        moved[i] = _newton(coeffs, roots[i], 10)
        if moved[i] is None or not abs(moved[i] - roots[i]) <= 0.45 * gap:
            return None
    gap = _min_gap(moved)
    if not gap >= 1e-13 * (1.0 + max(abs(r) for r in moved)):
        return None
    return moved, gap


def _track(cover, roots, path):
    """Adaptive continuation of a fiber of the cover along path: t in
    [0, 1] -> base value; returns the transported roots."""
    t = 0.0
    h = _STEP_INIT
    roots = list(roots)
    gap = _min_gap(roots)
    order = range(len(roots))
    while t < 1.0:
        step_to = min(1.0, t + h)
        nxt = _advance(cover, roots, gap, path(step_to), order)
        if nxt is None:
            h *= 0.5
            if h < 1e-9:
                raise DessinryError("path-tracking-failure", "step size underflow at path parameter %.6f" % t)
            continue
        moved, gap = nxt
        # Roots that moved most in this step lead the next one.
        order = sorted(order, key=lambda i: abs(moved[i] - roots[i]), reverse=True)
        roots = moved
        t = step_to
        h = min(h * 1.5, 2.5 * _STEP_INIT)
    return roots


def _segment(z0, z1):
    return lambda t: z0 + t * (z1 - z0)


def _circle(center, radius, theta0):
    return lambda t: center + radius * cmath.exp(1j * (theta0 + 2 * math.pi * t))


def _match_to_fiber(ends, fiber):
    """Permutation sending index i to the index of the fiber point nearest
    ends[i]; ends and fiber lie over the same base value."""
    min_gap = _min_gap(fiber)
    out = []
    for e in ends:
        dists = [abs(e - f) for f in fiber]
        j = min(range(len(fiber)), key=dists.__getitem__)
        # Phrased so that a NaN end fails the test.
        if len(fiber) > 1 and not dists[j] <= 0.45 * min_gap:
            raise DessinryError(
                "path-tracking-failure",
                "transported root %r does not land on the fiber" % (e,),
            )
        out.append(j)
    if sorted(out) != list(range(len(fiber))):
        raise DessinryError("path-tracking-failure", "transported fiber does not match the fiber bijectively")
    return tuple(out)


def _base_fiber(cover, base):
    """The fiber over base, refused unless simple, in an order that rounding
    cannot change: by real part, which conjugate roots share, on a grid far
    above rounding and below the gap of a simple fiber; then by imaginary."""
    roots = poly_roots(cover.fiber(base))
    size = 1.0 + max(abs(r) for r in roots)
    fiber0 = sorted(roots, key=lambda z: (round(z.real / (1e-9 * size)), z.imag))
    if cover.degree > 1 and _min_gap(fiber0) < 1e-8 * size:
        raise DessinryError("path-tracking-failure", "fiber over base is not simple")
    return fiber0


def numerical_monodromy(cover, base=BASE_POINT):
    """Monodromy tuple of the cover, colors (inf, branch points in order).

    One lasso per finite branch point: straight segment from the base to a
    circle of radius _RADIUS_FACTOR times the distance to the nearest other
    branch point, then one positive circuit.  The segment back is not
    tracked: it transports the roots on the circle's start to the base in
    the reverse of the way out, so the fiber there keeps the base labels
    and the circuit's permutation is read off against it.  The permutation
    at infinity is inverse(product of the finite ones) and is independently
    cross-checked by tracking one large positive circle around everything,
    read off the same way; disagreement raises
    product-constraint-violation.  The canonical class of the result does
    not depend on base, _RADIUS_FACTOR in (0, 1/4] or _STEP_INIT in
    (0, 0.2].
    """
    base = complex(base)
    if not cmath.isfinite(base):
        raise DessinryError("invalid-parameter", "base point must be finite, got %r" % (base,))
    for b in cover.branch_points:
        if abs(base - b) < 1e-9:
            raise DessinryError("path-tracking-failure", "base point sits on branch point %r" % (b,))
    fiber0 = _base_fiber(cover, base)

    def run_lasso(tail, loop):
        # Transport along the tail and its reverse are inverse bijections,
        # so the roots where the loop starts keep the labels of fiber0 and
        # the loop's permutation is read off there.
        start = _track(cover, fiber0, tail)
        return _match_to_fiber(_track(cover, start, loop), start)

    finite_perms = []
    for b in cover.branch_points:
        r = _RADIUS_FACTOR * min(abs(b - other) for other in cover.branch_points if other != b)
        direction = (base - b) / abs(base - b)
        entry = b + r * direction
        theta0 = cmath.phase(base - b)
        finite_perms.append(run_lasso(_segment(base, entry), _circle(b, r, theta0)))

    prod = compose_all(finite_perms, cover.degree)
    g_inf = inverse(prod)

    rho = 2.0 * max(max(abs(b) for b in cover.branch_points), abs(base), 1.0)
    direction = base / abs(base) if abs(base) > 1e-12 else 1j
    far = rho * direction
    big = run_lasso(_segment(base, far), _circle(0.0, rho, cmath.phase(far)))
    if big != prod:
        raise DessinryError(
            "product-constraint-violation",
            "large-circle monodromy %r disagrees with the ordered product %r: "
            "either the branch points are not in planar order, or a critical "
            "value is missing from them" % (big, prod),
        )

    t = MonodromyTuple([g_inf] + finite_perms)
    diag = validate(t)
    if diag != "ok":
        raise DessinryError("invalid-tuple", "computed monodromy is defective: %s" % diag)
    return t


def hurwitz_fs(s):
    """Coefficients (degree 4, highest first) of the normalized quartic f_s."""
    s = complex(s)
    if abs(2 * s - 1) < 1e-12 * (1.0 + abs(s)):
        raise DessinryError("pole-at-half", "f_s degenerates at s = 1/2")
    c = 12.0 / (2 * s - 1)
    return (c / 4.0, -c * (s + 1) / 3.0, c * s / 2.0, 0j, 0j)


def hurwitz_projection(s):
    """Third finite critical value p(s) = f_s(s) = (2-s) s^3 / (2s-1)."""
    s = complex(s)
    if abs(2 * s - 1) < 1e-12 * (1.0 + abs(s)):
        raise DessinryError("pole-at-half", "p has a pole at s = 1/2")
    return (2 - s) * s ** 3 / (2 * s - 1)


def hurwitz_fiber(a):
    """The four solutions of p(s) = a, as roots of s^4 - 2s^3 + 2as - a."""
    a = complex(a)
    if not cmath.isfinite(2 * a):
        raise DessinryError(
            "invalid-parameter", "the fiber polynomial s^4 - 2s^3 + 2as - a is not finite at a=%r" % (a,)
        )
    return poly_roots((1, -2, 0, 2 * a, -a))


def classify_lift(s):
    """Which of the four standard regions over (1, inf) contains s.

    None when p(s) is not real above 1 (within _LIFT_TOL, relative to
    |p(s)| once that exceeds 1, where rounding grows with it).  Over (1, inf):
    L3 for real s < -1, L4 for real s in (1/2, 1), L1 and L2 for the upper
    and lower half plane.  A real s clear of both intervals while p(s)
    looks real above 1 cannot be classified and raises 'ambiguous'.
    """
    s = complex(s)
    if not cmath.isfinite(s):
        raise DessinryError("invalid-parameter", "s must be finite, got %r" % (s,))
    try:
        p = hurwitz_projection(s)
    except DessinryError:
        return None
    if abs(p.imag) > _LIFT_TOL * max(1.0, abs(p)) or p.real <= 1.0 + _LIFT_TOL:
        return None
    if abs(s.imag) <= _LIFT_TOL:
        x = s.real
        if x < -1.0 - _LIFT_TOL:
            return "L3"
        # With p(s) real above 1, a real s near the pole lies above 1/2
        # exactly when 2s - 1 > 0, so that side needs no margin.
        if 0.5 < x < 1.0 - _LIFT_TOL:
            return "L4"
        raise DessinryError(
            "ambiguous",
            "s=%r looks real with p(s)=%r above 1, but lies in neither real interval" % (s, p),
        )
    return "L1" if s.imag > 0 else "L2"


def hurwitz_cover(s):
    """The quartic cover f_s with finite branch values (0, 1, p(s))."""
    return CoverSpec(hurwitz_fs(s), (0.0, 1.0, hurwitz_projection(s)))


def belyi_cubic_cover():
    """The degree-3 cover t -> 27/4 (t^2 - t^3), branched over 0, 1, inf."""
    return CoverSpec((-6.75, 6.75, 0.0, 0.0), (0.0, 1.0))


def hurwitz_dessin(a, lift):
    """Canonical monodromy tuple of the lift of p over a with the given label."""
    a = complex(a)
    if not cmath.isfinite(a):
        raise DessinryError("invalid-parameter", "a must be finite, got %r" % (a,))
    if abs(a.imag) > 1e-8 or a.real <= 1.0:
        raise DessinryError("no-such-lift", "lifts are labeled only over real a > 1, got %r" % (a,))
    # A fiber point that cannot be classified is reported only when no other
    # point carries the label, whatever order the roots come in.
    unclassified = None
    for s in hurwitz_fiber(a):
        try:
            if classify_lift(s) == lift:
                break
        except DessinryError as exc:
            unclassified = exc
    else:
        raise unclassified or DessinryError("no-such-lift", "no fiber point of p over %r carries label %r" % (a, lift))
    t = numerical_monodromy(hurwitz_cover(s))
    return canonical_form(t)
