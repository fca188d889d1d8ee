"""Root finding, path tracking, and the quartic family over the line."""

import cmath
import math
import random

import pytest

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
    polynomial_cover,
)
from dessinry.errors import DessinryError


class HurwitzPoint:
    """A point s of the s-line with its image a = p(s) and its lift label."""

    def __init__(self, s, tol=1e-8):
        self.s = complex(s)
        self.a = hurwitz_projection(self.s)
        self.lift_label = classify_lift(self.s, tol)


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
        coeffs = (2.0, -3.0, 0.5, 1.0, -7.0)
        for r in poly_roots(coeffs, tol=1e-10):
            val = sum(c * r ** (len(coeffs) - 1 - k) for k, c in enumerate(coeffs))
            scale = max(abs(c) for c in coeffs) * max(1.0, abs(r)) ** 4
            assert abs(val) <= 1e-10 * scale

    def test_degenerate_leading_coefficient(self):
        with pytest.raises(DessinryError) as exc:
            poly_roots((1e-20, 1.0, 1.0))
        assert exc.value.code == "degenerate-leading-coefficient"

    def test_empty_sequence(self):
        with pytest.raises(DessinryError):
            poly_roots(())

    def test_unreachable_tolerance(self):
        with pytest.raises(DessinryError) as exc:
            poly_roots((1, 0, -2), tol=1e-30)
        assert exc.value.code == "path-tracking-failure"

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


class TestCoverSpec:
    def test_needs_two_branch_points(self):
        with pytest.raises(DessinryError):
            CoverSpec(lambda y: (1, -y), (0.0,), 1)

    def test_rejects_coincident_branch_points(self):
        with pytest.raises(DessinryError):
            polynomial_cover((1, 0, 0), (0.0, 1e-15))

    def test_rejects_non_finite_or_constant_input(self):
        for coeffs, branch in (
            ((), (0.0, 1.0)),
            ((2.0,), (0.0, 1.0)),
            ((1.0, math.nan), (0.0, 1.0)),
            ((1.0, 0.0, 0.0), (math.nan, 1.0)),
            ((1.0, 0.0, 0.0), (0.0, math.inf)),
        ):
            with pytest.raises(DessinryError) as exc:
                polynomial_cover(coeffs, branch)
            assert exc.value.code == "invalid-parameter"

    def test_color_order(self):
        cov = polynomial_cover((1, 0, 0), (0.0, 1.0))
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
            numerical_monodromy(cov, radius_factor=0.3)
        assert exc.value.code == "invalid-parameter"
        with pytest.raises(DessinryError):
            numerical_monodromy(cov, step_init=0.0)
        with pytest.raises(DessinryError) as exc:
            numerical_monodromy(cov, base=complex(math.nan, 1.0))
        assert exc.value.code == "invalid-parameter"

    def test_missing_critical_value_is_named(self):
        # x^3 - 3x has critical values -2 and 2; the list 2, 5 leaves -2 out.
        with pytest.raises(DessinryError) as exc:
            numerical_monodromy(polynomial_cover((1, 0, -3, 0), (2, 5)))
        assert exc.value.code == "product-constraint-violation"
        assert "critical value is missing" in exc.value.message

    def test_class_independent_of_tracking_knobs(self):
        cov = belyi_cubic_cover()
        ref = core.canonical_form(numerical_monodromy(cov))
        for kwargs in (
            {"base": 3j},
            {"base": 0.3 + 1.5j},
            {"radius_factor": 0.125},
            {"step_init": 0.05},
        ):
            t = numerical_monodromy(cov, **kwargs)
            assert core.canonical_form(t) == ref


def three_leg_monodromy(cover, base=BASE_POINT, tol=1e-10):
    """numerical_monodromy with the way back tracked: each lasso runs out
    along its tail, around its loop and back along the tail, and is read
    off against the fiber over the base.  The oracle for reading a lasso
    off where its loop closes."""
    tracker = covers._Tracker(cover, tol)
    fiber0 = sorted(poly_roots(cover.fiber_poly(base), tol), key=lambda z: (z.real, z.imag))

    def run_loop(pieces):
        roots = fiber0
        for piece in pieces:
            roots = tracker.track(roots, piece)
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
        values = [covers._polyval(coeffs, c) for c in crit]
        values.sort(key=lambda v: (cmath.phase(v) - math.pi / 2) % (2 * math.pi))
        gap = covers._min_gap(values)
        if min(abs(v) for v in values) > 0.3 * max(abs(v) for v in values) and all(
            seg_distance(o, b) > 0.2 * gap for b in values for o in values if o is not b
        ):
            return polynomial_cover(coeffs, values)


class TestLassoReadOffWhereTheLoopCloses:
    @pytest.mark.parametrize("base", [2j, 1.5 + 1j, -0.3 + 3j])
    def test_chebyshev_matches_three_legs(self, base):
        for d in range(2, 43):
            cover = polynomial_cover(chebyshev_coeffs(d), (-1, 1))
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
        cover = polynomial_cover(chebyshev_coeffs(20), (-1, 1))
        tracker = covers._Tracker(cover, 1e-10)
        roots = poly_roots(cover.fiber_poly(2j))
        gap = covers._min_gap(roots)
        rng = random.Random(3)
        for y in (2j + 0.01, 2j + 0.1, 2j + 0.5, 1.5j, 0.5j):
            want = tracker._advance(roots, gap, y, range(len(roots)))
            for _ in range(5):
                order = rng.sample(range(len(roots)), len(roots))
                assert tracker._advance(roots, gap, y, order) == want
        # Small steps are accepted and a long one is refused.
        assert tracker._advance(roots, gap, 2j + 0.01, range(len(roots))) is not None
        assert tracker._advance(roots, gap, 0.5j, range(len(roots))) is None

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
        # Just left of -1, p(s) is real and just above 1 + tol, but s is
        # within tol of the end of the L3 interval.
        with pytest.raises(DessinryError) as exc:
            classify_lift(-1.0 - 5e-9)
        assert exc.value.code == "ambiguous"

    def test_point_wrapper(self):
        pts = [HurwitzPoint(s) for s in hurwitz_fiber(3.0)]
        assert {p.lift_label for p in pts} == {"L1", "L2", "L3", "L4"}
        for p in pts:
            assert abs(p.a - 3.0) < 1e-8


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

    def test_rejects_unknown_label(self):
        with pytest.raises(DessinryError) as exc:
            hurwitz_dessin(2.0, "L9")
        assert exc.value.code == "no-such-lift"

    def test_base_point_constant(self):
        assert BASE_POINT == 2j
        cov = hurwitz_cover(-1.5)
        assert cov.n == 4
