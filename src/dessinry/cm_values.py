"""Closed radical forms of ap(sqrt(n)) on the imaginary-axis CM grid.

Twenty values of the accessory parameter at quadratic points, one row per
n, each stored as a small expression tree over exact integers so tests
can evaluate them at any precision.  Tree grammar: an ``int`` leaf, or a
tuple headed by ``add``, ``neg``, ``mul``, ``div``, ``sqrt`` or ``pow``
(the last with a small positive integer exponent).  Fourth roots appear
as nested ``sqrt`` nodes.

Every value is real and lies in the open interval (1, infinity), strictly
decreasing as n grows; the rows cancel catastrophically (for n=58 two
four-digit terms cancel down to 1 + 6.5e-10), which is exactly what makes
them good oracles for the transcendental evaluation path.
"""

import mpmath

from .errors import DessinryError


def _add(*xs):
    return ("add",) + xs


def _neg(x):
    return ("neg", x)


def _mul(*xs):
    return ("mul",) + xs


def _div(a, b):
    return ("div", a, b)


def _sqrt(x):
    return ("sqrt", x)


def _pow(x, k):
    return ("pow", x, k)


_HALF = _div(1, 2)
_ROOT4_12 = _sqrt(_sqrt(12))
_ROOT4_2 = _sqrt(_sqrt(2))
_ROOT4_5 = _sqrt(_sqrt(5))

# The 5111560 printed in the classical source for n=37 is a misprint (it
# puts the value near 2.8e7 instead of just above 1); the digit string
# below was re-derived numerically against ap(sqrt(37)) at 50 digits.
_N37_LINEAR = 511560

CM_ROWS = (
    (1, 2),
    (2, _div(_add(1, _sqrt(2)), 2)),
    (3, _add(8, _neg(_mul(4, _sqrt(3))))),
    (4, _add(_HALF, _mul(_div(3, 8), _sqrt(2)))),
    (5, _add(
        18,
        _mul(8, _sqrt(5)),
        _neg(_mul(_add(14, _mul(6, _sqrt(5))), _sqrt(_div(_add(1, _sqrt(5)), 2)))),
    )),
    (6, _add(_HALF, _sqrt(3), _neg(_div(_sqrt(6), 2)))),
    (7, _add(128, _neg(_mul(48, _sqrt(7))))),
    (8, _add(
        _HALF,
        _mul(_add(_div(1, 4), _mul(_div(3, 8), _sqrt(2))), _sqrt(_add(_sqrt(2), _neg(1)))),
    )),
    (9, _add(
        194,
        _neg(_mul(104, _ROOT4_12)),
        _mul(56, _sqrt(12)),
        _neg(_mul(30, _pow(_ROOT4_12, 3))),
    )),
    (10, _add(_HALF, _mul(_div(3, 2), _sqrt(10)), _neg(_mul(3, _sqrt(2))))),
    (12, _add(_HALF, _neg(_mul(_div(3, 16), _sqrt(2))), _mul(_div(5, 16), _sqrt(6)))),
    (13, _add(
        1298,
        _mul(360, _sqrt(13)),
        _neg(_mul(_add(714, _mul(198, _sqrt(13))), _sqrt(_div(_add(3, _sqrt(13)), 2)))),
    )),
    (15, _add(
        3008,
        _neg(_mul(1736, _sqrt(3))),
        _mul(1344, _sqrt(5)),
        _neg(_mul(776, _sqrt(15))),
    )),
    (16, _add(_HALF, _neg(_mul(_div(3, 8), _ROOT4_2)), _mul(_div(9, 16), _pow(_ROOT4_2, 3)))),
    (18, _add(_HALF, _mul(_div(35, 2), _sqrt(2)), _neg(_mul(14, _sqrt(3))))),
    (22, _add(_HALF, _mul(15, _sqrt(11)), _neg(_mul(_div(21, 2), _sqrt(22))))),
    (25, _add(
        103682,
        _neg(_mul(69336, _ROOT4_5)),
        _mul(46368, _sqrt(5)),
        _neg(_mul(31008, _pow(_ROOT4_5, 3))),
    )),
    (28, _add(
        _HALF,
        _mul(_add(_div(129, 16), _neg(_mul(3, _sqrt(7)))), _sqrt(_add(8, _mul(3, _sqrt(7))))),
    )),
    (37, _add(
        3111698,
        _mul(_N37_LINEAR, _sqrt(37)),
        _neg(_mul(_add(895188, _mul(147168, _sqrt(37))), _sqrt(_add(6, _sqrt(37))))),
    )),
    (58, _add(_HALF, _mul(_div(1287, 2), _sqrt(58)), _neg(_mul(3465, _sqrt(2))))),
)


def cm_value(n):
    """The stored expression tree for ap(sqrt(n)), or invalid-parameter.

    Only an exact int names a row: True and 1.0 equal 1 but are refused."""
    if type(n) is int:
        for row_n, expr in CM_ROWS:
            if row_n == n:
                return expr
    raise DessinryError("invalid-parameter", "no stored value for n=%r" % (n,))


def eval_radical(expr):
    """Evaluate an expression tree to an mpf at the ambient precision."""
    if isinstance(expr, int):
        return mpmath.mpf(expr)
    head = expr[0]
    if head == "add":
        return mpmath.fsum(eval_radical(x) for x in expr[1:])
    if head == "neg":
        return -eval_radical(expr[1])
    if head == "mul":
        out = mpmath.mpf(1)
        for x in expr[1:]:
            out *= eval_radical(x)
        return out
    if head == "div":
        return eval_radical(expr[1]) / eval_radical(expr[2])
    if head == "sqrt":
        return mpmath.sqrt(eval_radical(expr[1]))
    if head == "pow":
        return eval_radical(expr[1]) ** int(expr[2])
    raise DessinryError("invalid-parameter", "unknown expression head %r" % (head,))
