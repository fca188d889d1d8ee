"""Root finding, path tracking, and the quartic family over the line."""

import cmath
import inspect
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from dessinry import core, covers, perms
from dessinry.covers import (
    BASE_POINT,
    CoverSpec,
    belyi_cubic_cover,
    classify_lift,
    hurwitz_cover,
    hurwitz_dessin,
    hurwitz_fiber,
    hurwitz_fs,
    hurwitz_projection,
    numerical_monodromy,
    poly_roots,
)
from dessinry.errors import DessinryError


class HurwitzPoint:
    """A point s of the s-line with its image a = p(s) and its lift label."""

    def __init__(self, s):
        self.s = complex(s)
        self.a = hurwitz_projection(self.s)
        self.lift_label = classify_lift(self.s)


def assert_lift_matches_exact_sign(x):
    """classify_lift on a real x against p(x) - 1 in exact arithmetic: a label
    only where it is positive, and where it exceeds 2e-8, L3 exactly left
    of -1 and L4 exactly on (1/2, 1)."""
    label = classify_lift(x)
    s = Fraction(x)
    excess = None if 2 * s == 1 else (2 - s) * s**3 / (2 * s - 1) - 1
    if label is not None:
        assert excess is not None and excess > 0, (x, label)
    if excess is not None and excess > Fraction(2, 10**8):
        assert label in ("L3", "L4"), (x, label)
        assert (label == "L3") == (x < -1.0), (x, label)
        assert (label == "L4") == (0.5 < x < 1.0), (x, label)


SQ3 = math.sqrt(3.0)
ROOT4_3 = 3.0 ** 0.25


UNIT_ROUNDOFF = 2.0 ** -53


def chebyshev_coeffs(d):
    """Exact integer coefficients of T_d, highest degree first."""
    prev, cur = [1], [1, 0]
    for _ in range(d - 1):
        prev, cur = cur, [2 * c - p for c, p in zip(cur + [0], [0, 0] + prev)]
    return cur if d else prev


def multiset_distance(roots, reference):
    """Largest distance under a greedy nearest-point pairing of two
    multisets of equal size; within a bound far below the smallest gap of
    reference, it is the distance of the best pairing."""
    assert len(roots) == len(reference)
    left = list(reference)
    worst = 0.0
    for z in roots:
        k = min(range(len(left)), key=lambda j: abs(z - left[j]))
        worst = max(worst, abs(z - left.pop(k)))
    return worst


class TestPolyRoots:
    @pytest.mark.parametrize("d", [3, 8, 17, 30, 42])
    def test_chebyshev_fiber_closed_form(self, d):
        # T_d(x) = y at x_k = cos((acos(y) + 2 pi k) / d).  In the monomial
        # basis the roots are ill conditioned: an evaluation error of one
        # unit roundoff, relative to sum |a_j| |x|^j, moves x_k by that
        # amount over |T_d'(x_k)| = d |sqrt(1 - y^2) / sqrt(1 - x_k^2)|.
        # The roots must lie within 8 times the worst such move.
        y = 2j
        coeffs = chebyshev_coeffs(d)
        coeffs[-1] -= y
        exact = [cmath.cos((cmath.acos(y) + 2 * math.pi * k) / d) for k in range(d)]
        bound = 8 * UNIT_ROUNDOFF * max(
            sum(abs(a) * abs(x) ** (d - j) for j, a in enumerate(coeffs))
            / abs(d * cmath.sqrt(1 - y * y) / cmath.sqrt(1 - x * x))
            for x in exact
        )
        assert multiset_distance(poly_roots(coeffs), exact) <= bound

    @pytest.mark.parametrize("d", [1, 2, 5, 12, 31])
    def test_scaled_roots_of_unity(self, d):
        c, r = 3 - 2j, 5 + 1j
        coeffs = [c] + [0] * (d - 1) + [-c * r]
        rho = r ** (1.0 / d)
        exact = [rho * cmath.exp(2j * math.pi * k / d) for k in range(d)]
        assert multiset_distance(poly_roots(coeffs), exact) <= 1e-13 * abs(rho)

    def test_double_root(self):
        # (x - 1)^2 (x + 2): a double root is only determined to about
        # sqrt(unit roundoff), 1e-8.
        roots = poly_roots((1, 0, -3, 2))
        assert multiset_distance(roots, (1, 1, -2)) <= 1e-7
        assert abs(min(roots, key=lambda z: z.real) + 2) <= 1e-13

    def test_quadratic(self):
        roots = sorted(poly_roots((1, 0, -2)), key=lambda z: z.real)
        assert abs(roots[0] + math.sqrt(2)) < 1e-12
        assert abs(roots[1] - math.sqrt(2)) < 1e-12

    def test_residual_bound_holds(self):
        # Every returned root passes the acceptance rule, |p(r)| <= 4 u mu
        # with Horner's running error estimate mu at r.
        coeffs = (2.0, -3.0, 0.5, 1.0, -7.0)
        for r in poly_roots(coeffs):
            value, mu = covers._horner(coeffs, r)
            assert abs(value) <= 4 * UNIT_ROUNDOFF * mu

    def test_degenerate_leading_coefficient(self):
        with pytest.raises(DessinryError) as exc:
            poly_roots((1e-20, 1.0, 1.0))
        assert exc.value.code == "degenerate-leading-coefficient"

    def test_empty_sequence(self):
        with pytest.raises(DessinryError):
            poly_roots(())

    def test_point_off_a_root_is_refused(self):
        # With no step to take, _newton only runs its acceptance test and
        # has no derivative to return.
        coeffs = (1, 0, -2)
        root = math.sqrt(2)
        assert covers._newton(coeffs, root, 0) == (root, 0j)
        value, mu = covers._horner(coeffs, root + 1e-6)
        assert abs(value - (2e-6 * root + 1e-12)) <= 1e-15
        assert covers._newton(coeffs, root + 1e-6, 0) is None

    def test_constant_poly_has_no_roots(self):
        assert poly_roots((3.0,)) == []

    def test_non_finite_coefficient(self):
        with pytest.raises(DessinryError) as exc:
            poly_roots((1.0, math.nan))
        assert exc.value.code == "invalid-parameter"

    def test_nan_roots_are_refused(self):
        # The start circle's Taylor shift overflows and every iterate ends
        # as NaN, which the residual test must not let through.
        with pytest.raises(DessinryError) as exc:
            poly_roots([1, 1e13] + [0] * 40 + [1])
        assert exc.value.code == "path-tracking-failure"


def exact_derivative(coeffs, z):
    """p'(z) for integer coefficients at a point with dyadic parts, exactly:
    a (real, imaginary) pair of Fractions."""
    re, im = Fraction(z.real), Fraction(z.imag)
    d = len(coeffs) - 1
    out_re = out_im = Fraction(0)
    for k, c in enumerate(coeffs[:-1]):
        # Horner on the table (d - k) c_k, in Gaussian rationals.
        out_re, out_im = out_re * re - out_im * im + (d - k) * c, out_re * im + out_im * re
    return out_re, out_im


class TestDerivativeAgainstExactArithmetic:
    """_polyval's p' lies within 4 d u sum (d-k) |c_k| |x|^(d-k-1) of the
    exact derivative: along each of the d - k - 1 products and d - k sums
    that carry c_k, complex rounding adds at most (2 sqrt(2) + 1) u < 4 u.
    Its p is _horner's to the last bit, the same arithmetic."""

    @staticmethod
    def check(coeffs, x):
        d = len(coeffs) - 1
        value, deriv = covers._polyval(coeffs, x)
        assert value == covers._horner(coeffs, x)[0]
        want_re, want_im = exact_derivative(coeffs, x)
        err = math.hypot(float(Fraction(deriv.real) - want_re), float(Fraction(deriv.imag) - want_im))
        bound = 4 * d * UNIT_ROUNDOFF * sum((d - k) * abs(c) * abs(x) ** (d - k - 1) for k, c in enumerate(coeffs[:-1]))
        assert err <= bound, (coeffs, x, err, bound)

    @staticmethod
    def dyadic_points(rng, count):
        return [complex(rng.randint(-96, 96), rng.randint(-96, 96)) / 64 for _ in range(count)] + [0.75, -1.0, 0.5j]

    @pytest.mark.parametrize("d", range(1, 21))
    def test_chebyshev(self, d):
        coeffs = chebyshev_coeffs(d)
        for x in self.dyadic_points(random.Random(d), 30):
            self.check(coeffs, x)

    def test_random_integer_polynomials(self):
        rng = random.Random(5)
        for _ in range(200):
            coeffs = [rng.randint(-1000, 1000) for _ in range(rng.randint(2, 21))]
            coeffs[0] = coeffs[0] or 1
            for x in self.dyadic_points(rng, 5):
                self.check(coeffs, x)


def exact_residual(coeffs, z):
    """|p(z)| and Horner's mu = sum |z|^(d-k) |q_k|, both at 50 digits."""
    with mpmath.workdps(50):
        z = mpmath.mpc(z)
        value, mu = mpmath.mpc(0), mpmath.mpf(0)
        for c in coeffs:
            value = value * z + mpmath.mpc(c)
            mu = mu * abs(z) + abs(value)
        return abs(value), mu


class TestAcceptedRootsAgainstExactResiduals:
    """The residual of each returned root, evaluated at 50 digits, lies
    within the bound poly_roots accepts it by, 4 u mu."""

    @pytest.mark.parametrize("d", [3, 17, 42])
    def test_chebyshev_fibers(self, d):
        for y in (2j, 1.5 + 1j, -0.3 + 3j, 0.3j, 0.9):
            coeffs = chebyshev_coeffs(d)
            coeffs[-1] -= y
            for r in poly_roots(coeffs):
                value, mu = exact_residual(coeffs, r)
                assert value <= 4 * UNIT_ROUNDOFF * mu, (d, y, r)

    def test_random_cover_fibers(self):
        rng = random.Random(11)
        for _ in range(40):
            cover = random_planar_cover(rng, rng.randint(3, 20))
            for y in (0j, 2j, 0.5 * cover.branch_points[0]):
                coeffs = cover.fiber(y)
                for r in poly_roots(coeffs):
                    value, mu = exact_residual(coeffs, r)
                    assert value <= 4 * UNIT_ROUNDOFF * mu, (cover.coeffs, y, r)


def test_no_function_takes_a_tolerance():
    # Roots are accepted by the rounding bound of their own evaluation.
    for name, f in vars(covers).items():
        if inspect.isfunction(f) and f.__module__ == covers.__name__:
            assert "tol" not in inspect.signature(f).parameters, name


class TestCoverSpec:
    def test_needs_two_branch_points(self):
        with pytest.raises(DessinryError):
            CoverSpec((1, 0), (0.0,))

    def test_rejects_coincident_branch_points(self):
        with pytest.raises(DessinryError):
            CoverSpec((1, 0, 0), (0.0, 1e-15))

    def test_rejects_non_finite_or_constant_input(self):
        for coeffs, branch in (
            ((), (0.0, 1.0)),
            ((2.0,), (0.0, 1.0)),
            ((1.0, math.nan), (0.0, 1.0)),
            ((1.0, 0.0, 0.0), (math.nan, 1.0)),
            ((1.0, 0.0, 0.0), (0.0, math.inf)),
        ):
            with pytest.raises(DessinryError) as exc:
                CoverSpec(coeffs, branch)
            assert exc.value.code == "invalid-parameter"

    def test_color_order(self):
        cov = CoverSpec((1, 0, 0), (0.0, 1.0))
        assert cov.n == 3
        assert cov.color_order == ("inf", 0.0, 1.0)


class TestMonodromy:
    def test_belyi_cubic(self):
        t = numerical_monodromy(belyi_cubic_cover())
        assert core.cycle_profile(t) == ((3,), (2, 1), (2, 1))
        assert core.genus(t) == 0

    def test_parameter_validation(self):
        cov = belyi_cubic_cover()
        with pytest.raises(DessinryError) as exc:
            numerical_monodromy(cov, base=complex(math.nan, 1.0))
        assert exc.value.code == "invalid-parameter"

    def test_missing_critical_value_is_named(self):
        # x^3 - 3x has critical values -2 and 2; the list 2, 5 leaves -2 out.
        with pytest.raises(DessinryError) as exc:
            numerical_monodromy(CoverSpec((1, 0, -3, 0), (2, 5)))
        assert exc.value.code == "product-constraint-violation"
        assert "critical value is missing" in exc.value.message

    def test_class_independent_of_tracking_knobs(self, monkeypatch):
        cov = belyi_cubic_cover()
        ref = core.canonical_form(numerical_monodromy(cov))
        for base in (3j, 0.3 + 1.5j):
            assert core.canonical_form(numerical_monodromy(cov, base)) == ref
        for name, value in (("_RADIUS_FACTOR", 0.125), ("_STEP_INIT", 0.05)):
            with monkeypatch.context() as m:
                m.setattr(covers, name, value)
                assert core.canonical_form(numerical_monodromy(cov)) == ref

    def test_fiber_labels_do_not_depend_on_rounding(self, monkeypatch):
        # x^5 + 5x is real, so its fiber over 0 holds two conjugate pairs
        # whose real parts agree up to rounding.  Its critical values 4c,
        # c^4 = -1, are listed in planar order about 0.
        cover = CoverSpec((1, 0, 0, 0, 5, 0), [4 * cmath.exp(1j * math.pi * k / 4) for k in (3, 5, 7, 1)])
        want = numerical_monodromy(cover, 0j).perms
        roots = poly_roots(cover.fiber(0j))
        rng = random.Random(5)

        def nudged(coeffs):
            out = [
                complex(r.real + rng.randint(-3, 3) * math.ulp(r.real), r.imag + rng.randint(-3, 3) * math.ulp(r.imag))
                for r in roots
            ]
            rng.shuffle(out)
            return out

        monkeypatch.setattr(covers, "poly_roots", nudged)
        for _ in range(8):
            assert numerical_monodromy(cover, 0j).perms == want


def three_leg_monodromy(cover, base=BASE_POINT):
    """numerical_monodromy with the way back tracked: each lasso runs out
    along its tail, around its loop and back along the tail, and is read
    off against the fiber over the base.  The oracle for reading a lasso
    off where its loop closes."""
    fiber0 = covers._base_fiber(cover, base)

    def run_loop(pieces):
        roots = fiber0
        for piece in pieces:
            roots = covers._track(cover, roots, piece, "a three-leg lasso")
        return covers._match_to_fiber(roots, fiber0)

    finite = []
    for b in cover.branch_points:
        r = 0.25 * min(abs(b - other) for other in cover.branch_points if other != b)
        entry = b + r * (base - b) / abs(base - b)
        loop = covers._circle(b, r, cmath.phase(base - b))
        finite.append(run_loop([covers._segment(base, entry), loop, covers._segment(entry, base)]))
    prod = perms.identity(cover.degree)
    for p in finite:
        prod = tuple(p[i] for i in prod)
    rho = 2.0 * max(max(abs(b) for b in cover.branch_points), abs(base), 1.0)
    far = rho * (base / abs(base) if abs(base) > 1e-12 else 1j)
    loop = covers._circle(0.0, rho, cmath.phase(far))
    assert run_loop([covers._segment(base, far), loop, covers._segment(far, base)]) == prod
    return (perms.inverse(prod),) + tuple(finite)


def random_planar_cover(rng, d):
    """A polynomial of degree d whose critical points are the (d-1)-th roots
    of unity, each moved by up to 15 %, with its critical values listed
    counter-clockwise from the upward ray, the planar order about the base
    0; redrawn until those values are well apart and no straight lasso
    from 0 passes near another of them."""

    def seg_distance(p, b):
        s = max(0.0, min(1.0, (p * b.conjugate()).real / abs(b) ** 2))
        return abs(p - s * b)

    m = d - 1
    while True:
        crit = [
            cmath.exp(2j * math.pi * k / m) * (1 + complex(rng.uniform(-0.15, 0.15), rng.uniform(-0.15, 0.15)))
            for k in range(m)
        ]
        deriv = [1 + 0j]
        for c in crit:
            deriv = [a - c * b for a, b in zip(deriv + [0j], [0j] + deriv)]
        coeffs = [d * a / (d - k) for k, a in enumerate(deriv)] + [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))]
        values = [covers._polyval(coeffs, c)[0] for c in crit]
        values.sort(key=lambda v: (cmath.phase(v) - math.pi / 2) % (2 * math.pi))
        gap = covers._min_gap(values)
        if min(abs(v) for v in values) > 0.3 * max(abs(v) for v in values) and all(
            seg_distance(o, b) > 0.2 * gap for b in values for o in values if o is not b
        ):
            return CoverSpec(coeffs, values)


class TestLassoReadOffWhereTheLoopCloses:
    @pytest.mark.parametrize("base", [2j, 1.5 + 1j, -0.3 + 3j])
    def test_chebyshev_matches_three_legs(self, base):
        for d in range(2, 43):
            cover = CoverSpec(chebyshev_coeffs(d), (-1, 1))
            assert numerical_monodromy(cover, base).perms == three_leg_monodromy(cover, base), d

    def test_random_covers_match_three_legs(self):
        rng = random.Random(7)
        for _ in range(60):
            cover = random_planar_cover(rng, rng.randint(3, 20))
            assert numerical_monodromy(cover, 0j).perms == three_leg_monodromy(cover, 0j)

    @pytest.mark.parametrize("lift", ["L1", "L2", "L3", "L4"])
    def test_hurwitz_dessin_matches_three_legs(self, lift):
        for a in (1.5, 3.0, 30.0):
            s = next(s for s in hurwitz_fiber(a) if classify_lift(s) == lift)
            want = core.canonical_form(core.MonodromyTuple(three_leg_monodromy(hurwitz_cover(s))))
            assert hurwitz_dessin(a, lift) == want


class TestTracker:
    def test_advance_does_not_depend_on_the_order_of_correction(self):
        cover = CoverSpec(chebyshev_coeffs(20), (-1, 1))
        roots = poly_roots(cover.fiber(2j))
        slopes = [covers._polyval(cover.coeffs, x)[1] for x in roots]
        near = covers._nearest(roots)
        rng = random.Random(3)
        for y in (2j + 0.01, 2j + 0.1, 2j + 0.5, 1.5j, 0.5j):
            want = covers._advance(cover, roots, slopes, near, y, y - 2j, range(len(roots)))
            for _ in range(5):
                order = rng.sample(range(len(roots)), len(roots))
                assert covers._advance(cover, roots, slopes, near, y, y - 2j, order) == want
        # Small steps are accepted and a long one, across the segment between
        # the branch points, is refused.
        assert covers._advance(cover, roots, slopes, near, 2j + 0.01, 0.01, range(len(roots))) is not None
        assert covers._advance(cover, roots, slopes, near, -0.5j, -2.5j, range(len(roots))) is None

    def test_correcting_an_accepted_fiber_takes_few_steps(self, monkeypatch):
        # Roots already on the fiber need no more than a step or two before
        # Newton's own convergence stops it, well short of the cap of 10;
        # each iteration makes one _polyval pass.
        cover = CoverSpec(chebyshev_coeffs(42), (-1, 1))
        roots = poly_roots(cover.fiber(2j))
        calls = []
        polyval = covers._polyval
        monkeypatch.setattr(covers, "_polyval", lambda coeffs, x: calls.append(x) or polyval(coeffs, x))
        no_slopes = [0j] * len(roots)
        assert covers._advance(cover, roots, no_slopes, covers._nearest(roots), 2j, 0j, range(len(roots))) is not None
        assert len(calls) <= 4 * len(roots)

    def test_each_root_is_held_to_its_own_neighbour(self):
        # The fiber of (x - 1) (x - 1.01) (x - 11) over 0: a tight pair and a
        # far root.  Each start is that fiber with one root moved off;
        # correcting it moves that root back and leaves the others.
        cover = CoverSpec((1, -13.01, 23.12, -11.11), (-1, 1))
        fiber = sorted(poly_roots(cover.fiber(0j)), key=lambda z: z.real)
        no_slopes = [0j] * 3

        def advance(k, offset):
            start = list(fiber)
            start[k] += offset
            out = covers._advance(cover, start, no_slopes, covers._nearest(start), 0j, 0j, range(3))
            assert out is None or max(abs(a - b) for a, b in zip(out[0], fiber)) < 1e-12
            return out

        # The far root moves by 0.1: beyond 0.45 times the smallest gap,
        # 0.01, but within 0.45 times its own neighbour's distance, 10.
        _, _, near = advance(2, 0.1)
        assert near == pytest.approx([0.01, 0.01, 9.99])
        # A root of the pair moves by 0.012, beyond 0.45 times its own
        # neighbour's distance, 0.022; by 0.008, within 0.45 times 0.018.
        assert advance(0, -0.012) is None
        assert advance(0, -0.008) is not None

    def test_tracking_t42_takes_few_passes_and_steps(self, monkeypatch):
        # Held to the global smallest gap and started from the previous root,
        # the tracker made 36374 _polyval passes and refused 113 steps here.
        cover = CoverSpec(chebyshev_coeffs(42), (-1, 1))
        passes, refused = [], []
        polyval, advance = covers._polyval, covers._advance
        monkeypatch.setattr(covers, "_polyval", lambda coeffs, x: passes.append(x) or polyval(coeffs, x))

        def counted(*args):
            out = advance(*args)
            refused.append(out is None)
            return out

        monkeypatch.setattr(covers, "_advance", counted)
        numerical_monodromy(cover, 2j)
        assert len(passes) <= 15000 and sum(refused) <= 30

    def test_match_to_fiber_refuses_a_nan_end(self):
        fiber = [1 + 0j, -1 + 0j, 2j]
        assert covers._match_to_fiber([-1 + 1e-9j, 2j, 1.0], fiber) == (1, 2, 0)
        with pytest.raises(DessinryError) as exc:
            covers._match_to_fiber([complex(math.nan, 0.0), 2j, 1.0], fiber)
        assert exc.value.code == "path-tracking-failure"


class TestQuarticFamily:
    def test_pole_at_half(self):
        with pytest.raises(DessinryError) as exc:
            hurwitz_fs(0.5)
        assert exc.value.code == "pole-at-half"
        with pytest.raises(DessinryError):
            hurwitz_projection(0.5 + 1e-16)

    def test_projection_value(self):
        assert abs(hurwitz_projection(2.0)) < 1e-12
        assert abs(hurwitz_projection(-1.0) - 1.0) < 1e-12

    def test_fiber_closed_forms_at_two(self):
        want = sorted(
            [
                complex((1 + SQ3) / 2, math.sqrt(2) * ROOT4_3 / 2),
                complex((1 + SQ3) / 2, -math.sqrt(2) * ROOT4_3 / 2),
                complex((1 - SQ3 - math.sqrt(2) * ROOT4_3) / 2, 0.0),
                complex((1 - SQ3 + math.sqrt(2) * ROOT4_3) / 2, 0.0),
            ],
            key=lambda z: (z.real, z.imag),
        )
        got = sorted(hurwitz_fiber(2.0), key=lambda z: (z.real, z.imag))
        for g, w in zip(got, want):
            assert abs(g - w) < 1e-12

    def test_fiber_points_project_back(self):
        for a in (2.0, 3.0, 7.5):
            for s in hurwitz_fiber(a):
                assert abs(hurwitz_projection(s) - a) < 1e-8

    def test_labels_cover_all_four(self):
        for a in (5.0, 10.0):
            labels = {classify_lift(s) for s in hurwitz_fiber(a)}
            assert labels == {"L1", "L2", "L3", "L4"}

    def test_classify_branches(self):
        assert classify_lift(-1.5) == "L3"
        assert classify_lift(0.75) == "L4"
        # p(s) > 1 puts a real s next to the pole on the side 2s - 1 > 0.
        assert classify_lift(0.5 + 1e-9) == "L4"
        assert classify_lift(0.2) is None
        assert classify_lift(2.0 + 0.0j) is None
        assert classify_lift(0.5) is None

    def test_classify_ambiguous(self):
        # Just left of -1, p(s) is real and just above 1 + tol: s lies left
        # of -1, however close to it.
        assert classify_lift(-1.0 - 5e-9) == "L3"

    @given(st.floats(min_value=-10.0, max_value=10.0))
    def test_classify_real_points_by_the_exact_sign(self, x):
        assert_lift_matches_exact_sign(x)

    @pytest.mark.parametrize("end", [-1.0, 0.5, 1.0])
    def test_classify_real_points_by_the_exact_sign_near_the_ends(self, end):
        for k in range(1, 51):
            for x in (end - k * 1e-9, end + k * 1e-9):
                assert_lift_matches_exact_sign(x)

    @pytest.mark.parametrize("s", [complex(math.nan, math.nan), math.inf, complex(1, math.inf), -math.inf])
    def test_classify_rejects_non_finite(self, s):
        with pytest.raises(DessinryError) as exc:
            classify_lift(s)
        assert exc.value.code == "invalid-parameter"

    def test_point_wrapper(self):
        pts = [HurwitzPoint(s) for s in hurwitz_fiber(3.0)]
        assert {p.lift_label for p in pts} == {"L1", "L2", "L3", "L4"}
        for p in pts:
            assert abs(p.a - 3.0) < 1e-8


# Real a > 1 with a - 1 log-uniform in (2e-8, 4e13), where the fiber is two
# real roots and a conjugate pair far enough apart for double precision.
REAL_A = st.floats(min_value=math.log10(2e-8), max_value=math.log10(4e13)).map(lambda e: 1.0 + 10.0**e)


def floats_above(x, count):
    """The count floats that follow x."""
    out = []
    for _ in range(count):
        x = math.nextafter(x, math.inf)
        out.append(x)
    return out


def assert_order_matches_regions(a):
    """The fiber over a labeled by its order gives L1..L4 to its four roots,
    once each, and the label classify_lift gives to every root it labels."""
    lifts = covers._lifts(a)
    assert sorted(lifts) == ["L1", "L2", "L3", "L4"]
    assert sorted(lifts.values(), key=lambda z: (z.real, z.imag)) == sorted(
        hurwitz_fiber(a), key=lambda z: (z.real, z.imag)
    )
    for label, s in lifts.items():
        assert classify_lift(s) in (None, label), (a, label, s)


class TestLiftOrder:
    @settings(max_examples=300, deadline=None)
    @given(REAL_A)
    def test_order_agrees_with_regions_on_real_a(self, a):
        assert_order_matches_regions(a)

    def test_order_agrees_with_regions_just_above_the_margin(self):
        # 1 + 1e-8 itself is refused; at the float after it classify_lift
        # labels only three roots, since the rounded p of the L4 root is not
        # above the margin.
        for a in floats_above(1.0 + 1e-8, 400):
            assert_order_matches_regions(a)

    @settings(max_examples=300, deadline=None)
    @given(REAL_A, st.floats(min_value=-1e-8, max_value=1e-8))
    def test_complex_a_within_the_margin_follows_its_real_part(self, x, eps):
        a = complex(x, x * eps)
        assert covers._real_above_one(a)
        over_x = covers._lifts(x)
        for label, s in covers._lifts(a).items():
            nearest = min(over_x, key=lambda other: abs(over_x[other] - s))
            assert nearest == label, (a, label, s)

    @pytest.mark.parametrize("a", [50 + 4e-7j, 1e6 + 1e-3j])
    def test_complex_a_within_the_margin_gives_the_lifts_of_its_real_part(self, a):
        # The L3 root's imaginary part is above 1e-8 here, and a test of each
        # root by region once called it L2: L2 took the class of L3, and L3
        # was refused.
        for lift in ("L1", "L2", "L3", "L4"):
            assert hurwitz_dessin(a, lift) == hurwitz_dessin(a.real, lift)

    def test_l4_at_the_pole_is_refused_as_a_pole(self):
        # Above about 1.25e11 the L4 root lies within hurwitz_fs's margin of 1/2.
        with pytest.raises(DessinryError) as exc:
            hurwitz_dessin(2e11, "L4")
        assert exc.value.code == "pole-at-half"


class TestHurwitzDessin:
    def test_profile_and_genus(self):
        t = hurwitz_dessin(2.0, "L1")
        assert core.cycle_profile(t) == ((4,), (2, 1, 1), (2, 1, 1), (2, 1, 1))
        assert core.genus(t) == 0

    def test_l3_and_l4_differ(self):
        assert hurwitz_dessin(2.0, "L3") != hurwitz_dessin(2.0, "L4")

    def test_l1_is_mirror_of_l2(self):
        l1 = hurwitz_dessin(2.0, "L1")
        l2 = hurwitz_dessin(2.0, "L2")
        assert core.canonical_form(core.orientation_reverse(l2)) == l1

    def test_l3_stable_in_a(self):
        assert hurwitz_dessin(2.0, "L3") == hurwitz_dessin(3.0, "L3")

    def test_large_a_does_not_depend_on_root_order(self):
        # For large a the L4 point lies within 1e-8 of 1/2; all four lifts
        # are still found, in whatever order the fiber comes, and with
        # p(s) = a real only up to rounding relative to a.
        for a in (1e7, 2.2e7, 5.3e7, 1e8, 1e9):
            for lift in ("L1", "L2", "L3", "L4"):
                assert hurwitz_dessin(a, lift) == hurwitz_dessin(3.0, lift)

    def test_rejects_bad_base_values(self):
        with pytest.raises(DessinryError) as exc:
            hurwitz_dessin(0.5, "L1")
        assert exc.value.code == "no-such-lift"
        with pytest.raises(DessinryError):
            hurwitz_dessin(2.0 + 1.0j, "L1")
        for a in (math.nan, math.inf):
            with pytest.raises(DessinryError) as exc:
                hurwitz_dessin(a, "L1")
            assert exc.value.code == "invalid-parameter"

    def test_tracking_failure_names_its_path(self, monkeypatch):
        # At a = 1e10 the lift L1 cannot be tracked out towards its third
        # branch point, p(s) near 1e10.
        s = next(s for s in hurwitz_fiber(1e10) if classify_lift(s) == "L1")
        with pytest.raises(DessinryError) as exc:
            hurwitz_dessin(1e10, "L1")
        assert exc.value.code == "path-tracking-failure"
        assert exc.value.message == (
            "step size underflow at path parameter 0.000000 on the tail of the lasso around branch point %r"
            % (hurwitz_projection(s),)
        )
        # The Belyi cubic, branched over 0 and 1 and tracked from 2j, with
        # every step refused on a part of its loop about 1, or of its large
        # circle, of radius 4.
        advance = covers._advance
        for refused, where in (
            (lambda y: abs(y - 1) < 0.3 and y.imag < 0, "the loop of the lasso around branch point (1+0j)"),
            (lambda y: abs(y) > 3 and y.imag > 0, "the tail of the large circle"),
            (lambda y: abs(y) > 3 and y.imag < 0, "the loop of the large circle"),
        ):
            monkeypatch.setattr(covers, "_advance", lambda *args: None if refused(args[4]) else advance(*args))
            with pytest.raises(DessinryError) as exc:
                numerical_monodromy(belyi_cubic_cover())
            assert exc.value.code == "path-tracking-failure"
            assert exc.value.message.endswith(" on " + where)

    def test_rejects_unknown_label(self):
        with pytest.raises(DessinryError) as exc:
            hurwitz_dessin(2.0, "L9")
        assert exc.value.code == "no-such-lift"
        assert exc.value.message == "no fiber point of p over (2+0j) carries label 'L9'"

    def test_rejects_unknown_label_before_solving_the_fiber(self):
        # At a = 1e14 the fiber polynomial's leading coefficient is
        # negligible, so solving the fiber first would refuse the fiber.
        with pytest.raises(DessinryError) as exc:
            hurwitz_dessin(1e14, "L9")
        assert exc.value.code == "no-such-lift"
        assert exc.value.message == "no fiber point of p over (100000000000000+0j) carries label 'L9'"
        with pytest.raises(DessinryError) as exc:
            hurwitz_dessin(1e14, "L1")
        assert exc.value.code == "degenerate-leading-coefficient"

    def test_base_point_constant(self):
        assert BASE_POINT == 2j
        cov = hurwitz_cover(-1.5)
        assert cov.n == 4
