"""Acceptance gates: one test per shipped guarantee, tolerances pinned.

Each test is self-contained and prints as a single pass/fail line under
pytest -v.  Time caps use wall-clock time around the measured computation
only, so unrelated fixture work cannot eat the budget.
"""

import json
import math
import os
import random
import time

import mpmath
import pytest
from mpmath import mp

from dessinry import core
from dessinry.braid import braid_orbit, preset_gamma2
from dessinry.cm_values import CM_ROWS, eval_radical
from dessinry.covers import (
    belyi_cubic_cover,
    classify_lift,
    hurwitz_dessin,
    hurwitz_fiber,
    numerical_monodromy,
)
from dessinry.enumeration import count_transitive_tuples, enumerate_classes, hall_count
from dessinry.modular import (
    UpperHalfPoint,
    ap,
    integrality_check,
    j_from_lambda_star,
    j_oracle,
    lambda_star,
    qseries_eval,
    weber_f,
    weber_f1,
    weber_f2,
)
from dessinry.origami import (
    BipartiteOrigami,
    delta_hor,
    dessin_to_origami,
    isomorphic_origami,
    origami_orbit,
    origami_to_dessin,
)
from dessinry.qseries import lambda_star_qseries

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

# Pinned tolerances.
FIBER_CLOSED_FORM_ABS = 1e-9
FIBER_RESIDUAL_ABS = 1e-10
FIBER_PRINTED_DIGITS_ABS = 1e-10
WEBER_RELATION_ABS = 1e-12
LAMBDA_AGREEMENT_TOL = 1e-12  # Weber quotient and discriminant combination agree to 10x this
J_CROSS_REL = 1e-8
TABLE_MATCH_ABS = 1e-9
TABLE_REALNESS_ABS = 1e-11
INTEGRALITY_REL = 1e-6

QUARTIC_PROFILE = ((4,), (2, 1, 1), (2, 1, 1), (2, 1, 1))


def test_criterion_01_enumeration_counts_match_subgroup_oracle():
    start = time.monotonic()
    for n, dmax in ((3, 5), (4, 4)):
        for d in range(1, dmax + 1):
            direct = count_transitive_tuples(n, d)
            assert direct == hall_count(n - 1, d) * math.factorial(d - 1)
    assert len(enumerate_classes(3, 2).classes) == 3
    assert len(enumerate_classes(4, 2).classes) == 7
    assert time.monotonic() - start <= 60.0


def test_criterion_02_shear_gate_pair():
    start = time.monotonic()
    with open(os.path.join(DATA_DIR, "shear_gate_pair.json"), "r", encoding="utf-8") as fh:
        pair = json.load(fh)
    first = BipartiteOrigami(pair["first"]["R"], pair["first"]["L"], pair["first"]["U"], pair["first"]["D"])
    second = BipartiteOrigami(pair["second"]["R"], pair["second"]["L"], pair["second"]["U"], pair["second"]["D"])
    assert isomorphic_origami(delta_hor(first), second)
    assert not isomorphic_origami(first, second)
    assert time.monotonic() - start < 1.0


def test_criterion_03_origami_and_word_orbits_agree():
    start = time.monotonic()
    gens = preset_gamma2()
    for d in (1, 2, 3):
        for cls in enumerate_classes(4, d).classes:
            via_words = {t.perms for t in braid_orbit([cls], gens).elements}
            via_squares = {origami_to_dessin(o).perms for o in origami_orbit(dessin_to_origami(cls)).elements}
            assert via_squares == via_words
    assert time.monotonic() - start <= 120.0


def test_criterion_04_roundtrip_and_orientation_involution():
    for d in (1, 2, 3):
        for t in enumerate_classes(4, d).classes:
            assert origami_to_dessin(dessin_to_origami(t)) == t
    for n in (3, 4):
        for d in (1, 2, 3):
            for t in enumerate_classes(n, d).classes:
                rev = core.orientation_reverse(t)
                assert core.genus(rev) == core.genus(t)
                assert core.cycle_profile(rev) == core.cycle_profile(t)
                assert core.canonical_form(core.orientation_reverse(rev)) == t


def test_criterion_05_quartic_fibers_and_labels():
    sq3 = math.sqrt(3.0)
    w = math.sqrt(2.0) * 3.0 ** 0.25
    closed = sorted(
        [
            complex((1 + sq3) / 2, w / 2),
            complex((1 + sq3) / 2, -w / 2),
            complex((1 - sq3 - w) / 2, 0.0),
            complex((1 - sq3 + w) / 2, 0.0),
        ],
        key=lambda z: (z.real, z.imag),
    )
    got = sorted(hurwitz_fiber(2.0), key=lambda z: (z.real, z.imag))
    for g, want in zip(got, closed):
        assert abs(g - want) <= FIBER_CLOSED_FORM_ABS

    roots3 = hurwitz_fiber(3.0)
    for s in roots3:
        residual = s ** 4 - 2 * s ** 3 + 6 * s - 3
        assert abs(residual) <= FIBER_RESIDUAL_ABS
    reals = sorted(s.real for s in roots3 if abs(s.imag) < 1e-8)
    assert len(reals) == 2
    assert abs(reals[0] - (-1.5088444949)) <= FIBER_PRINTED_DIGITS_ABS
    assert abs(reals[1] - 0.5379312192) <= FIBER_PRINTED_DIGITS_ABS

    for a in (2.0, 3.0):
        labels = sorted(classify_lift(s) for s in hurwitz_fiber(a))
        assert labels == ["L1", "L2", "L3", "L4"]


def test_criterion_06_quartic_monodromy_family():
    start = time.monotonic()
    lifts = {label: hurwitz_dessin(2.0, label) for label in ("L1", "L2", "L3", "L4")}
    for t in lifts.values():
        assert core.validate(t) == "ok"
        assert t.d == 4
        assert core.cycle_profile(t) == QUARTIC_PROFILE
        assert core.genus(t) == 0
    assert lifts["L3"] != lifts["L4"]
    assert core.canonical_form(core.orientation_reverse(lifts["L2"])) == lifts["L1"]
    assert hurwitz_dessin(3.0, "L3") == lifts["L3"]
    orbit = braid_orbit([lifts["L1"]], preset_gamma2())
    members = {t.perms for t in orbit.elements}
    assert {t.perms for t in lifts.values()} <= members
    assert len(orbit.elements) == 4
    assert time.monotonic() - start <= 60.0


def test_criterion_07_cubic_cover_monodromy():
    t = numerical_monodromy(belyi_cubic_cover())
    assert core.cycle_profile(t) == ((3,), (2, 1), (2, 1))
    assert core.genus(t) == 0


def test_criterion_08_weber_relations_and_j_crosscheck():
    rng = random.Random(20)
    taus = [complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 3.0)) for _ in range(20)]
    with mp.workdps(40):
        root2 = mpmath.sqrt(2)
        for tau in taus:
            f = weber_f(tau, 1e-16).value
            f1 = weber_f1(tau, 1e-16).value
            f2 = weber_f2(tau, 1e-16).value
            assert abs(f * f1 * f2 - root2) <= WEBER_RELATION_ABS
            assert abs(f ** 8 - f1 ** 8 - f2 ** 8) <= WEBER_RELATION_ABS
            # Raises expression-mismatch beyond 10x the tolerance, so
            # success here is two-way agreement within 1e-11.
            lambda_star(tau, LAMBDA_AGREEMENT_TOL)
        for n in (1, 2, 3, 5):
            t = mpmath.sqrt(n)
            via = j_from_lambda_star(ap(t, 1e-14).value)
            direct = j_oracle(UpperHalfPoint(mpmath.mpc(0, 1) * t), 1e-14).value
            assert abs(via - direct) <= J_CROSS_REL * abs(direct)


def test_criterion_09_cm_table_rows():
    start = time.monotonic()
    assert len(CM_ROWS) == 20
    with mp.workdps(40):
        for n, expr in CM_ROWS:
            stored = eval_radical(expr)
            computed = ap(mpmath.sqrt(n), 1e-12).value
            assert abs(computed - stored) <= TABLE_MATCH_ABS
            assert abs(mpmath.im(computed)) <= TABLE_REALNESS_ABS
            assert mpmath.re(computed) > 1
    assert time.monotonic() - start <= 30.0


def test_criterion_10_qseries_head_and_tail_bound():
    series = lambda_star_qseries(50)
    assert all(isinstance(c, int) for c in series.coefficients)
    assert series.coefficients[0] == 1
    assert series.coefficients[1] == 16
    approx = qseries_eval(series, 3j)
    with mp.workdps(170):
        direct = lambda_star(3j, 1e-150)
        diff = abs(approx.value - direct.value)
        assert diff <= approx.trunc_bound + direct.trunc_bound


def test_criterion_11_integrality_witness():
    for n in (1, 2, 3, 4):
        assert integrality_check(n, tol=INTEGRALITY_REL) is True
