"""Exhaustive enumeration of monodromy tuples of given shape (n, d).

Covers of the sphere with n ordered branch points and degree d fall into
finitely many isomorphism classes; this module lists them all.  The search
fixes g_0 to one representative per cycle type (every class contains such
a tuple, since conjugating the whole tuple moves g_0 through its conjugacy
class), lets g_1 run over one representative per orbit of the centralizer
C(g_0) acting by conjugation (conjugating by C(g_0) keeps g_0 and moves g_1
through its orbit), runs over all choices of g_2..g_{n-2}, and forces
g_{n-1} through the product constraint.  Each candidate is canonicalized,
and its labeled count d!/|centralizer| taken, by one call of the
relabeling kernel of core.

Two independent counting oracles accompany the enumeration: a direct count
of valid labeled tuples, and Hall's recursion for the number of finite
index subgroups of a free group, linked by

    count_transitive_tuples(n, d) = hall_count(n-1, d) * (d-1)!
"""

from itertools import permutations, product
from math import factorial

from .core import (
    MonodromyTuple,
    _canonical_key,
    _genus_profile,
    _is_normal,
    _require_valid,
)

# Unused here; imported so that bench/tracing.py finds them in this module
# to wrap, as in every module that imports them from core.
from .core import canonical_form, centralizer_order  # noqa: F401
from .errors import DessinryError
from .perms import acts_transitively, compose, from_cycles, identity, inverse, relabel

# Hard ceiling on the number of candidate tuples a search may visit.  Keeps
# n=3 d<=6 and n=4 d<=4 comfortably inside (the documented support) while
# refusing runaway requests.
WORK_LIMIT = 2_000_000


class DessinClass:
    """One isomorphism class: canonical tuple plus its basic invariants."""

    __slots__ = ("canonical", "genus", "profile", "normal")

    def __init__(self, canonical_tuple):
        _require_valid(canonical_tuple)
        self.canonical = canonical_tuple
        self.genus, self.profile = _genus_profile(canonical_tuple.perms)
        self.normal = _is_normal(canonical_tuple.perms)

    def __eq__(self, other):
        return isinstance(other, DessinClass) and self.canonical == other.canonical

    def __hash__(self):
        return hash(self.canonical)

    def __repr__(self):
        return "DessinClass(%r, genus=%d)" % (self.canonical.perms, self.genus)


class EnumerationResult:
    __slots__ = ("n", "d", "classes", "marked_count")

    def __init__(self, n, d, classes, marked_count):
        self.n = n
        self.d = d
        self.classes = classes
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
    work = factorial(d) ** (n - 1)
    if work > WORK_LIMIT:
        raise DessinryError(
            "bound-exceeded",
            "direct count would visit %d tuples (limit %d)" % (work, WORK_LIMIT),
        )
    perms_all = list(permutations(range(d)))
    ident = identity(d)
    count = 0
    for head in product(perms_all, repeat=n - 1):
        running = ident
        for p in head:
            running = compose(running, p)
        tail = inverse(running)
        if acts_transitively(head + (tail,), d):
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


def enumerate_classes(n, d):
    """All isomorphism classes of shape (n, d), sorted by canonical encoding."""
    _check_shape(n, d)
    partitions = _partitions_desc(d)
    work = len(partitions) * factorial(d) ** (n - 2)
    if work > WORK_LIMIT:
        raise DessinryError(
            "bound-exceeded",
            "enumeration would visit %d tuples (limit %d)" % (work, WORK_LIMIT),
        )

    perms_all = list(permutations(range(d)))
    seen = {}
    for part in partitions:
        g0 = _type_representative(d, part)
        for g1 in _orbit_representatives(_centralizer(g0), perms_all):
            head = compose(g0, g1)
            for rest in product(perms_all, repeat=n - 3):
                running = head
                for p in rest:
                    running = compose(running, p)
                all_perms = (g0, g1) + rest + (inverse(running),)
                if not acts_transitively(all_perms, d):
                    continue
                # One kernel pass gives the class and its centralizer order.
                key, count = _canonical_key(all_perms)
                seen.setdefault(key, count)

    classes = []
    marked = 0
    # Genus is maximal when every color acts as a single d-cycle.
    bound = (n * (d - 1)) // 2 - d + 1
    for key in sorted(seen):
        cls = DessinClass(MonodromyTuple._trusted(key))
        assert cls.genus <= bound, "genus exceeds the single-cycle bound"
        classes.append(cls)
        marked += factorial(d) // seen[key]
    return EnumerationResult(n, d, tuple(classes), marked)
