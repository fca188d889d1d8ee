"""Exact integer q-expansion of lambda*, on Python integers alone.

lambda* = (prod (1 + q2^{2m+1}) / (1 - q2^{2m+1}))^8 with q2 = e^{pi i tau}
has integer coefficients; this module builds them without mpmath, so the
``qseries`` subcommand starts without loading it.  modular.qseries_eval
evaluates a series built here with a rigorous tail bound.
"""

import operator

from .errors import DessinryError

# Largest order lambda_star_qseries accepts.  Its recurrence takes about
# N^2 / 4 integer products; order 2000 builds in about 0.09 s of CPU, 400
# in 3.5 ms (Python 3.11, one core of an Intel Xeon).
QSERIES_ORDER_LIMIT = 2000


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
    if type(N) is not int or N < 0:
        raise DessinryError("invalid-parameter", "order must be a nonnegative integer, got %r" % (N,))
    if N > QSERIES_ORDER_LIMIT:
        raise DessinryError("bound-exceeded", "order %d exceeds the limit %d" % (N, QSERIES_ORDER_LIMIT))
    # With g = lambda*, x g'/g = 16 sum_{m odd} sigma(m) x^m, so
    # n g_n = 16 sum_{m odd <= n} sigma(m) g_{n-m}, and n divides the sum.
    sigma = [0] * (N + 1)
    for d in range(1, N + 1, 2):
        for m in range(d, N + 1, 2 * d):
            sigma[m] += d
    g = [1]
    for n in range(1, N + 1):
        g.append(16 * sum(map(operator.mul, sigma[1 : n + 1 : 2], g[n - 1 :: -2])) // n)
    return QSeries(g)
