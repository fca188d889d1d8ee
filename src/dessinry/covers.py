"""Numerical monodromy of explicit polynomial covers by root path-tracking.

A cover is presented as a family of fiber polynomials: for each base value
y, F_y(x) is a degree-d polynomial whose roots are the fiber.  Transporting
the d roots along a lasso around a branch point permutes them; doing this
for every finite branch point, in order, yields a monodromy tuple whose
color 0 is the point at infinity (never encircled: its permutation comes
from the product constraint and is cross-checked against an explicit large
circle).

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
from .perms import identity, inverse

BASE_POINT = 2j

# Unit roundoff of IEEE double precision.
_UNIT_ROUNDOFF = 2.0 ** -53
# Sweeps of the root finder; a root still moving after them is left to the
# caller's residual check.
_ABERTH_SWEEPS = 500


def _polyval(coeffs, x):
    out = 0j
    for c in coeffs:
        out = out * x + c
    return out


def _polyder(coeffs):
    n = len(coeffs) - 1
    return tuple(c * (n - k) for k, c in enumerate(coeffs[:-1]))


def _min_gap(points):
    """Smallest distance between two of the points; inf for fewer than two."""
    return min(
        (abs(a - b) for i, a in enumerate(points) for b in points[i + 1 :]),
        default=math.inf,
    )


def _newton_polish(coeffs, dcoeffs, x, steps=6):
    for _ in range(steps):
        f = _polyval(coeffs, x)
        fp = _polyval(dcoeffs, x)
        if abs(fp) == 0.0:
            return x
        step = f / fp
        x = x - step
        if abs(step) < 1e-16 * (1.0 + abs(x)):
            break
    return x


def _aberth(coeffs, dcoeffs):
    """Approximations to all roots of a polynomial of degree >= 1 at once.

    Aberth-Ehrlich iteration (O. Aberth, Math. Comp. 27, 1973), sweeping the
    iterates in order and using each update at once: z <- z - p / (p' - p S)
    with S the sum of 1 / (z - w) over the other iterates w.  The iterates
    start evenly spaced on a circle about the centroid c = -a_1 / (d a_0) of
    the roots.  Its radius max(|b_k / b_0|^(1/k), |b_d / 2 b_0|^(1/d)), with
    p(x + c) = sum b_k x^(d-k), is half of Fujiwara's bound on the roots of
    the recentred polynomial.  As in Bini (Numer. Algorithms 13, 1996), an
    iterate is frozen once its residual is down to the rounding error of
    Horner's rule, here its running estimate |p(z)| <= 2 u mu with
    mu = sum |z|^(d-k) |q_k| over the computed Horner partial values q_k
    (Higham, Accuracy and Stability of Numerical Algorithms, section 5.1).
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
            f, mu, size = 0j, 0.0, abs(z)
            for c in coeffs:
                f = f * z + c
                mu = mu * size + abs(f)
            if abs(f) <= 2.0 * _UNIT_ROUNDOFF * mu:
                continue
            moving.append(i)
            denom = _polyval(dcoeffs, z) - f * sum(1.0 / (z - w) for w in roots if w != z)
            if denom != 0.0:
                step = f / denom
                if cmath.isfinite(step):
                    roots[i] = z - step
        if not moving:
            break
        active = moving
    return roots


def poly_roots(coeffs, tol=1e-10):
    """All complex roots, polished so that |F(root)| <= tol * scale.

    Coefficients are highest degree first.  A leading coefficient at
    relative size below 1e-14 is rejected as degenerate rather than
    silently deflated.
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
    dcoeffs = _polyder(coeffs)
    roots = _aberth(coeffs, dcoeffs)
    deg = len(coeffs) - 1
    polished = []
    for r in roots:
        r = _newton_polish(coeffs, dcoeffs, r)
        scale = top * max(1.0, abs(r)) ** deg
        if abs(_polyval(coeffs, r)) > tol * scale:
            r = _newton_polish(coeffs, dcoeffs, r, steps=40)
            if abs(_polyval(coeffs, r)) > tol * scale:
                raise DessinryError(
                    "path-tracking-failure",
                    "root %r refuses to polish below residual %g" % (r, tol * scale),
                )
        polished.append(r)
    return polished


class CoverSpec:
    """fiber_poly: y -> coefficient sequence (degree d, highest first);
    branch_points: the finite branch values in color order 1..n-1;
    color 0 is infinity (color_order records the full assignment)."""

    __slots__ = ("fiber_poly", "branch_points", "degree", "color_order")

    def __init__(self, fiber_poly, branch_points, degree):
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
        self.fiber_poly = fiber_poly
        self.branch_points = branch_points
        self.degree = degree
        self.color_order = ("inf",) + branch_points

    @property
    def n(self):
        return len(self.branch_points) + 1


def polynomial_cover(poly_coeffs, branch_points):
    """Cover x -> P(x) with the given finite branch values; F_y = P - y."""
    poly_coeffs = tuple(complex(c) for c in poly_coeffs)
    degree = len(poly_coeffs) - 1
    if degree < 1 or not all(cmath.isfinite(c) for c in poly_coeffs):
        raise DessinryError("invalid-parameter", "need finite coefficients of degree >= 1, got %r" % (poly_coeffs,))

    def fiber(y):
        return poly_coeffs[:-1] + (poly_coeffs[-1] - y,)

    return CoverSpec(fiber, branch_points, degree)


class _Tracker:
    """Adaptive continuation of one fiber along a parametrized path."""

    def __init__(self, cover, tol, step_init=0.1):
        self.cover = cover
        self.tol = tol
        self.step_init = step_init

    def _fiber_at(self, y):
        coeffs = [complex(c) for c in self.cover.fiber_poly(y)]
        return coeffs, _polyder(coeffs)

    def _advance(self, roots, y):
        """Newton-correct all roots onto the fiber over y; None on failure."""
        coeffs, dcoeffs = self._fiber_at(y)
        top = max(abs(c) for c in coeffs)
        moved = []
        threshold = 0.45 * _min_gap(roots)
        for r in roots:
            nr = _newton_polish(coeffs, dcoeffs, r, steps=10)
            scale = top * max(1.0, abs(nr)) ** (len(coeffs) - 1)
            if abs(_polyval(coeffs, nr)) > self.tol * scale:
                return None
            if abs(nr - r) > threshold:
                return None
            moved.append(nr)
        if _min_gap(moved) < 1e-13 * (1.0 + max(abs(r) for r in moved)):
            return None
        return moved

    def track(self, roots, path):
        """path: t in [0, 1] -> base value; returns transported roots."""
        t = 0.0
        h = self.step_init
        roots = list(roots)
        while t < 1.0:
            step_to = min(1.0, t + h)
            nxt = self._advance(roots, path(step_to))
            if nxt is None:
                h *= 0.5
                if h < 1e-9:
                    raise DessinryError(
                        "path-tracking-failure",
                        "step size underflow at path parameter %.6f" % t,
                    )
                continue
            roots = nxt
            t = step_to
            h = min(h * 1.5, 2.5 * self.step_init)
        return roots


def _segment(z0, z1):
    return lambda t: z0 + t * (z1 - z0)


def _circle(center, radius, theta0):
    return lambda t: center + radius * cmath.exp(1j * (theta0 + 2 * math.pi * t))


def _match_to_fiber(ends, fiber0):
    """Permutation sending start index i to the fiber0 index nearest ends[i]."""
    min_gap = _min_gap(fiber0)
    out = []
    for e in ends:
        dists = [abs(e - f) for f in fiber0]
        j = min(range(len(fiber0)), key=dists.__getitem__)
        if len(fiber0) > 1 and dists[j] > 0.45 * min_gap:
            raise DessinryError(
                "path-tracking-failure",
                "transported root %r does not land on the base fiber" % (e,),
            )
        out.append(j)
    if sorted(out) != list(range(len(fiber0))):
        raise DessinryError("path-tracking-failure", "transported fiber does not match the base fiber bijectively")
    return tuple(out)


def numerical_monodromy(cover, base=BASE_POINT, tol=1e-10, radius_factor=0.25, step_init=0.1):
    """Monodromy tuple of the cover, colors (inf, branch points in order).

    One lasso per finite branch point: straight segment from the base to a
    circle of radius radius_factor times the distance to the nearest other
    branch point, one positive circuit, segment back.  The permutation at
    infinity is inverse(product of the finite ones) and is independently
    cross-checked by tracking one large positive circle around everything;
    disagreement raises product-constraint-violation.  The canonical class
    of the result does not depend on base, radius_factor, or step_init
    within their allowed ranges.
    """
    base = complex(base)
    if not cmath.isfinite(base):
        raise DessinryError("invalid-parameter", "base point must be finite, got %r" % (base,))
    if not 0 < radius_factor <= 0.25:
        raise DessinryError("invalid-parameter", "radius_factor must lie in (0, 1/4], got %r" % (radius_factor,))
    if not 0 < step_init <= 0.2:
        raise DessinryError("invalid-parameter", "step_init must lie in (0, 0.2], got %r" % (step_init,))
    for b in cover.branch_points:
        if abs(base - b) < 1e-9:
            raise DessinryError("path-tracking-failure", "base point sits on branch point %r" % (b,))
    tracker = _Tracker(cover, tol, step_init)
    fiber0 = sorted(poly_roots(cover.fiber_poly(base), tol), key=lambda z: (z.real, z.imag))
    if len(fiber0) != cover.degree:
        raise DessinryError(
            "path-tracking-failure",
            "fiber over base has %d roots, expected %d" % (len(fiber0), cover.degree),
        )
    if cover.degree > 1 and _min_gap(fiber0) < 1e-8 * (1.0 + max(abs(r) for r in fiber0)):
        raise DessinryError("path-tracking-failure", "fiber over base is not simple")

    def run_loop(pieces):
        roots = list(fiber0)
        for piece in pieces:
            roots = tracker.track(roots, piece)
        return _match_to_fiber(roots, fiber0)

    finite_perms = []
    for b in cover.branch_points:
        r = radius_factor * min(abs(b - other) for other in cover.branch_points if other != b)
        direction = (base - b) / abs(base - b)
        entry = b + r * direction
        theta0 = cmath.phase(base - b)
        finite_perms.append(
            run_loop([_segment(base, entry), _circle(b, r, theta0), _segment(entry, base)])
        )

    prod = identity(cover.degree)
    for p in finite_perms:
        prod = tuple(p[i] for i in prod)
    g_inf = inverse(prod)

    rho = 2.0 * max(max(abs(b) for b in cover.branch_points), abs(base), 1.0)
    direction = base / abs(base) if abs(base) > 1e-12 else 1j
    far = rho * direction
    big = run_loop([_segment(base, far), _circle(0.0, rho, cmath.phase(far)), _segment(far, base)])
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


def hurwitz_fiber(a, tol=1e-10):
    """The four solutions of p(s) = a, as roots of s^4 - 2s^3 + 2as - a."""
    a = complex(a)
    return poly_roots((1, -2, 0, 2 * a, -a), tol)


def classify_lift(s, tol=1e-8):
    """Which of the four standard regions over (1, inf) contains s.

    None when p(s) is not real above 1 (within tol, taken relative to
    |p(s)| once that exceeds 1, where rounding grows with it).  Over (1, inf):
    L3 for real s < -1, L4 for real s in (1/2, 1), L1 and L2 for the upper
    and lower half plane.  A real s clear of both intervals while p(s)
    looks real above 1 cannot be classified and raises 'ambiguous'.
    """
    s = complex(s)
    try:
        p = hurwitz_projection(s)
    except DessinryError:
        return None
    if abs(p.imag) > tol * max(1.0, abs(p)) or p.real <= 1.0 + tol:
        return None
    if abs(s.imag) <= tol:
        x = s.real
        if x < -1.0 - tol:
            return "L3"
        if 0.5 + tol < x < 1.0 - tol:
            return "L4"
        raise DessinryError(
            "ambiguous",
            "s=%r looks real with p(s)=%r above 1, but lies in neither real interval" % (s, p),
        )
    return "L1" if s.imag > 0 else "L2"


def hurwitz_cover(s):
    """The quartic cover f_s with finite branch values (0, 1, p(s))."""
    return polynomial_cover(hurwitz_fs(s), (0.0, 1.0, hurwitz_projection(s)))


def belyi_cubic_cover():
    """The degree-3 cover t -> 27/4 (t^2 - t^3), branched over 0, 1, inf."""
    return polynomial_cover((-6.75, 6.75, 0.0, 0.0), (0.0, 1.0))


def hurwitz_dessin(a, lift, tol=1e-10):
    """Canonical monodromy tuple of the lift of p over a with the given label."""
    a = complex(a)
    if not cmath.isfinite(a):
        raise DessinryError("invalid-parameter", "a must be finite, got %r" % (a,))
    if abs(a.imag) > 1e-8 or a.real <= 1.0:
        raise DessinryError("no-such-lift", "lifts are labeled only over real a > 1, got %r" % (a,))
    # A fiber point that cannot be classified is reported only when no other
    # point carries the label, whatever order the roots come in.
    unclassified = None
    for s in hurwitz_fiber(a, tol):
        try:
            if classify_lift(s) == lift:
                break
        except DessinryError as exc:
            unclassified = exc
    else:
        raise unclassified or DessinryError("no-such-lift", "no fiber point of p over %r carries label %r" % (a, lift))
    t = numerical_monodromy(hurwitz_cover(s), BASE_POINT, tol)
    return canonical_form(t)
