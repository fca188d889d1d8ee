"""Root finding, path tracking, and the quartic family over the line."""

import cmath
import math

import pytest

from dessinry import core
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
        assert classify_lift(0.2) is None
        assert classify_lift(2.0 + 0.0j) is None
        assert classify_lift(0.5) is None

    def test_classify_ambiguous(self):
        with pytest.raises(DessinryError) as exc:
            classify_lift(0.5 + 1e-9)
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
        # For large a the L4 point lies within 1e-8 of 1/2 and cannot be
        # classified; the other three lifts are still found, in whatever
        # order the fiber comes, and with p(s) = a real only up to rounding
        # relative to a.
        for a in (1e7, 1e8, 1e9):
            for lift in ("L1", "L2", "L3"):
                assert hurwitz_dessin(a, lift) == hurwitz_dessin(3.0, lift)
            with pytest.raises(DessinryError) as exc:
                hurwitz_dessin(a, "L4")
            assert exc.value.code == "ambiguous"

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
