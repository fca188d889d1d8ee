"""Exhaustive enumeration of monodromy tuples of given shape (n, d).

Covers of the sphere with n ordered branch points and degree d fall into
finitely many isomorphism classes; this module lists them all.  The search
fixes g_0 to one representative per cycle type (every class contains such
a tuple, since conjugating the whole tuple moves g_0 through its conjugacy
class), lets g_1 run over one representative per orbit of the centralizer
C(g_0) acting by conjugation (conjugating by C(g_0) keeps g_0 and moves g_1
through its orbit), runs over all choices of g_2..g_{n-2}, and forces
g_{n-1} through the product constraint.  One call of the relabeling
kernel of core rejects an intransitive candidate, or canonicalizes it and
gives its labeled count d!/|centralizer|.

Two independent counting oracles accompany the enumeration: a direct count
of valid labeled tuples, and Hall's recursion for the number of finite
index subgroups of a free group, linked by

    count_transitive_tuples(n, d) = hall_count(n-1, d) * (d-1)!
"""

from itertools import permutations, product
from math import factorial

from .core import MonodromyTuple, _canonical_key

# Unused here; imported so that bench/tracing.py finds them in this module
# to wrap, as in every module that imports them from core.
from .core import canonical_form, centralizer_order  # noqa: F401
from .errors import DessinryError
from .perms import acts_transitively, compose, compose_all, from_cycles, inverse, relabel

# Hard ceiling on the number of candidate tuples a search may visit.  Keeps
# n=3 d<=6 and n=4 d<=4 comfortably inside (the documented support) while
# refusing runaway requests.
WORK_LIMIT = 2_000_000


class EnumerationResult:
    """Canonical tuples of the classes, sorted by encoding, the order of each
    one's centralizer (normal exactly when it is d), and the labeled count."""

    __slots__ = ("n", "d", "classes", "centralizer_orders", "marked_count")

    def __init__(self, n, d, classes, centralizer_orders, marked_count):
        self.n = n
        self.d = d
        self.classes = classes
        self.centralizer_orders = centralizer_orders
        self.marked_count = marked_count


def _check_shape(n, d):
    if not isinstance(n, int) or not isinstance(d, int) or n < 3 or d < 1:
        raise DessinryError("bound-exceeded", "need integers n >= 3 and d >= 1, got n=%r d=%r" % (n, d))


def hall_count(r, d):
    """Number of index-d subgroups of a free group of rank r.

    Hall's recursion, exact integer arithmetic:
        N_1 = 1,
        N_d = d*(d!)^(r-1) - sum_{i=1}^{d-1} ((d-i)!)^(r-1) * N_i.
    """
    if not isinstance(r, int) or not isinstance(d, int) or r < 1 or d < 1:
        raise DessinryError("bound-exceeded", "need integers r >= 1 and d >= 1, got r=%r d=%r" % (r, d))
    counts = [0, 1]
    for k in range(2, d + 1):
        total = k * factorial(k) ** (r - 1)
        for i in range(1, k):
            total -= factorial(k - i) ** (r - 1) * counts[i]
        counts.append(total)
    return counts[d]


def count_transitive_tuples(n, d):
    """Number of valid labeled tuples of shape (n, d), by direct scan.

    Runs over all (g_0, ..., g_{n-2}) and forces the last entry, so the
    product constraint holds by construction; only transitivity is tested.
    """
    _check_shape(n, d)
    if not _within_work_limit(n, d, factorial):
        raise DessinryError("bound-exceeded", "direct count would visit more than %d tuples" % WORK_LIMIT)
    count = 0
    for head in product(permutations(range(d)), repeat=n - 1):
        if acts_transitively(head + (inverse(compose_all(head, d)),), d):
            count += 1
    return count


def _partitions_desc(d):
    """All partitions of d, parts descending, in lexicographic order."""
    out = []

    def rec(remaining, cap, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(cap, remaining), 0, -1):
            prefix.append(part)
            rec(remaining - part, part, prefix)
            prefix.pop()

    rec(d, d, [])
    return out


def _type_representative(d, partition):
    """A permutation with the given cycle type, on consecutive blocks."""
    cycs = []
    start = 0
    for size in partition:
        cycs.append(tuple(range(start, start + size)))
        start += size
    return from_cycles(d, cycs)


def _centralizer(p):
    """All permutations commuting with p, by a scan of Sym(d)."""
    return [pi for pi in permutations(range(len(p))) if relabel(p, pi) == p]


def _orbit_representatives(group, perms_all):
    """The first permutation, in the order of perms_all, of each orbit of
    group (a list of permutations, closed under products) acting on
    perms_all by conjugation."""
    seen = set()
    reps = []
    for p in perms_all:
        if p not in seen:
            reps.append(p)
            seen.update(relabel(p, pi) for pi in group)
    return reps


def _within_work_limit(n, d, heads):
    """Whether a search visiting heads(d) choices of g_0 and d! of each of
    g_1..g_{n-2} stays within WORK_LIMIT.  Forms no factorial past the
    limit, and calls heads last, so only once (d!)^(n-2) is within it,
    which needs d <= 9."""
    fact = 1
    for k in range(2, d + 1):
        fact *= k
        if fact > WORK_LIMIT:
            return False
    work = 1
    for _ in range(n - 2 if fact > 1 else 0):
        work *= fact
        if work > WORK_LIMIT:
            return False
    return work * heads(d) <= WORK_LIMIT


def enumerate_classes(n, d):
    """All isomorphism classes of shape (n, d), sorted by canonical encoding."""
    _check_shape(n, d)
    if not _within_work_limit(n, d, lambda k: len(_partitions_desc(k))):
        raise DessinryError("bound-exceeded", "enumeration would visit more than %d tuples" % WORK_LIMIT)

    perms_all = list(permutations(range(d)))
    seen = {}
    for part in _partitions_desc(d):
        g0 = _type_representative(d, part)
        for g1 in _orbit_representatives(_centralizer(g0), perms_all):
            head = compose(g0, g1)
            for rest in product(perms_all, repeat=n - 3):
                running = head
                for p in rest:
                    running = compose(running, p)
                # One kernel pass rejects an intransitive candidate, or
                # gives its class and centralizer order.
                found = _canonical_key((g0, g1) + rest + (inverse(running),))
                if found is not None:
                    seen.setdefault(*found)

    keys = sorted(seen)
    orders = tuple(seen[key] for key in keys)
    marked = sum(factorial(d) // order for order in orders)
    return EnumerationResult(n, d, tuple(map(MonodromyTuple._trusted, keys)), orders, marked)
