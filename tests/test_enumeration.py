"""Counting and listing isomorphism classes of small monodromy tuples."""

import time
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from math import comb, factorial, prod

import pytest

from dessinry import core, enumeration, perms
from dessinry.enumeration import count_transitive_tuples, enumerate_classes, hall_count
from dessinry.errors import DessinryError

from test_core import entry_objects, traced_peak
from test_perms import cycle_type

# Frozen from this package's own Hall recursion, cross-checked below against
# the independent brute-force scan at every cell both can reach.
HALL_RANK2 = [1, 3, 13, 71, 461, 3447]
HALL_RANK3 = [1, 7, 97, 2143, 68641]
# The cells where the enumeration's marked count is checked against Hall.
HALL_CELLS = [(3, 4), (4, 3), (3, 5), (5, 3), (4, 4), (3, 6), (6, 3), (4, 5)]


def jordan_totient(k, l):
    """J_k(l) = l^k times the product of (1 - p^-k) over the primes p | l."""
    out, rest, p = l**k, l, 2
    while rest > 1:
        if rest % p == 0:
            out = out // p**k * (p**k - 1)
            while rest % p == 0:
                rest //= p
        p += 1
    return out


def mednykh_class_count(r, d):
    """Conjugacy classes of index-d subgroups of the free group of rank r,
    that is classes of shape (r + 1, d) (A. D. Mednykh, Siberian Math. J.
    23, 1982): (1/d) times the sum over l m = d of hall_count(r, m) times
    J_{m(r-1)+1}(l)."""
    total = sum(
        hall_count(r, d // l) * jordan_totient((d // l) * (r - 1) + 1, l) for l in range(1, d + 1) if d % l == 0
    )
    assert total % d == 0
    return total // d


@lru_cache(maxsize=None)
def sn_character(rho, mu):
    """The irreducible character of Sym(d) indexed by the partition rho, at
    the cycle type mu, by the Murnaghan-Nakayama rule on beta-sets: taking
    a rim hook of length r off rho moves one bead of the beta-set from b to
    a free place b - r, with sign (-1)^(beads strictly between)."""
    if not mu:
        return 1
    r, k = mu[0], len(rho)
    beta = {part + k - 1 - i for i, part in enumerate(rho)}
    total = 0
    for b in beta:
        if b >= r and b - r not in beta:
            moved = sorted(beta - {b} | {b - r}, reverse=True)
            shape = tuple(x - (k - 1 - i) for i, x in enumerate(moved))
            sign = (-1) ** sum(b - r < c < b for c in beta)
            total += sign * sn_character(tuple(x for x in shape if x), mu[1:])
    return total


def class_size(lam):
    """Number of permutations of cycle type lam: d! / prod k^(m_k) m_k!."""
    z = prod(k**m * factorial(m) for k, m in Counter(lam).items())
    return factorial(sum(lam)) // z


@lru_cache(maxsize=None)
def tuples_with_passport(passport):
    """Tuples (g_0, ..., g_{n-1}) with product 1 and g_i of cycle type
    passport[i], by Frobenius' formula:
    (prod |C_i| / d!) * sum over rho of prod chi_rho(C_i) / chi_rho(1)^(n-2)."""
    d, n = sum(passport[0]), len(passport)
    if d == 0:
        return 1
    total = Fraction(0)
    for rho in enumeration._partitions_desc(d):
        dim = sn_character(rho, (1,) * d)
        total += Fraction(prod(sn_character(rho, lam) for lam in passport), dim ** (n - 2))
    total *= Fraction(prod(map(class_size, passport)), factorial(d))
    assert total.denominator == 1
    return int(total)


def part_splits(lam, k):
    """Each way to take parts of lam summing to k: (taken, left), both
    partitions with parts descending."""
    out = []
    for taken in {tuple(sorted(c, reverse=True)) for r in range(len(lam) + 1) for c in combinations(lam, r)}:
        if sum(taken) == k:
            left = Counter(lam) - Counter(taken)
            out.append((taken, tuple(sorted(left.elements(), reverse=True))))
    return out


@lru_cache(maxsize=None)
def transitive_with_passport(passport):
    """The transitive ones among tuples_with_passport, by inclusion-exclusion
    on the orbit of sheet 0: an orbit of size k < d holds 0 and k - 1 of the
    other d - 1 sheets, and every g_i splits into its cycles on the orbit
    (a transitive tuple) and off it (any tuple)."""
    d = sum(passport[0])
    total = tuples_with_passport(passport)
    for k in range(1, d):
        for split in product(*(part_splits(lam, k) for lam in passport)):
            inner = tuple(taken for taken, _ in split)
            outer = tuple(left for _, left in split)
            total -= comb(d - 1, k - 1) * transitive_with_passport(inner) * tuples_with_passport(outer)
    return total


def naive_classes(n, d):
    """Canonical forms of every valid tuple, scanning all n-1 free slots
    (g_0 included), sorted by encoding: the oracle for the enumeration's
    one-representative-per-cycle-type shortcut."""
    seen = set()
    for head in product(list(permutations(range(d))), repeat=n - 1):
        t = head + (perms.inverse(perms.compose_all(head, d)),)
        if perms.acts_transitively(t, d):
            seen.add(core.canonical_form(core.MonodromyTuple(t)))
    return sorted(seen, key=lambda c: c.perms)


def generates_group_of_order_d(raw):
    """Breadth-first closure of the group generated by a transitive raw
    tuple, cut off once it passes d elements: whether the cover is normal,
    decided without the centralizer count."""
    d = len(raw[0])
    seen = {perms.identity(d)}
    frontier = list(seen)
    while frontier:
        g = frontier.pop()
        for p in raw:
            h = perms.compose(g, p)
            if h not in seen:
                if len(seen) == d:
                    return False
                seen.add(h)
                frontier.append(h)
    return True


def conjugacy_orbit(p, group):
    """{c^-1 p c : c in group}, with products taken by perms.compose."""
    return {perms.compose(perms.compose(perms.inverse(c), p), c) for c in group}


class TestSecondEntryRepresentatives:
    """g_1 runs over one representative per orbit of the centralizer of g_0
    acting by conjugation; checked here against a centralizer found by
    testing g c = c g, not through the enumeration's own relabel scan."""

    @pytest.mark.parametrize("d", range(1, 6))
    def test_orbits_partition_sym_d(self, d):
        sym = list(permutations(range(d)))
        for part in enumeration._partitions_desc(d):
            g0 = enumeration._type_representative(d, part)
            assert cycle_type(g0) == part
            cent = [c for c in sym if perms.compose(g0, c) == perms.compose(c, g0)]
            reps = enumeration._orbit_representatives(enumeration._centralizer(g0), sym)
            orbits = [conjugacy_orbit(r, cent) for r in reps]
            assert sum(len(o) for o in orbits) == len(sym)
            assert set().union(*orbits) == set(sym)


class TestHallCount:
    def test_rank2_values(self):
        assert [hall_count(2, d) for d in range(1, 7)] == HALL_RANK2

    def test_rank3_values(self):
        assert [hall_count(3, d) for d in range(1, 6)] == HALL_RANK3

    def test_rank1_is_one(self):
        # A free group of rank 1 has exactly one subgroup of each index.
        assert [hall_count(1, d) for d in range(1, 8)] == [1] * 7

    def test_rejects_bad_shape(self):
        # A bool is an int to isinstance; hall_count(True, 2) would be hall_count(1, 2).
        for r, d in [(0, 3), (True, 2), (2, True), (2.0, 3), (2, False)]:
            with pytest.raises(DessinryError) as exc:
                hall_count(r, d)
            assert exc.value.code == "bound-exceeded"


class TestCountRelation:
    @pytest.mark.parametrize("n,d", [(3, d) for d in range(1, 5)] + [(4, d) for d in range(1, 4)])
    def test_count_equals_hall_times_factorial(self, n, d):
        assert count_transitive_tuples(n, d) == hall_count(n - 1, d) * factorial(d - 1)

    def test_work_limit(self):
        with pytest.raises(DessinryError) as exc:
            count_transitive_tuples(3, 60)
        assert exc.value.code == "bound-exceeded"

    @pytest.mark.parametrize("fn", [count_transitive_tuples, enumerate_classes])
    @pytest.mark.parametrize("n,d", [(3, True), (True, 3), (3.0, 2), (2, 3), (3, 0)])
    def test_rejects_bad_shape(self, fn, n, d):
        # A bool is an int to isinstance; n = 3, d = True would be the cell (3, 1).
        with pytest.raises(DessinryError) as exc:
            fn(n, d)
        assert exc.value.code == "bound-exceeded"


class TestEnumerate:
    def test_small_class_counts(self):
        assert len(enumerate_classes(3, 2).classes) == 3
        assert len(enumerate_classes(4, 2).classes) == 7
        assert len(enumerate_classes(3, 3).classes) == 7
        assert len(enumerate_classes(4, 3).classes) == 41

    def test_marked_counts_match_direct_scan(self):
        for n, d in [(3, 2), (3, 3), (4, 2), (4, 3)]:
            res = enumerate_classes(n, d)
            assert res.marked_count == count_transitive_tuples(n, d)

    def test_reps_agrees_with_naive(self):
        for n, d in [(3, 2), (3, 3), (4, 2)]:
            fast = enumerate_classes(n, d)
            assert list(fast.classes) == naive_classes(n, d)

    @pytest.mark.parametrize("n,d", [(3, 4), (4, 3), (3, 5), (5, 3)])
    def test_agrees_with_naive_class_for_class(self, n, d):
        assert list(enumerate_classes(n, d).classes) == naive_classes(n, d)

    @pytest.mark.parametrize("n,d", [(4, 5), (5, 4), (3, 6)])
    def test_classes_hold_one_object_per_distinct_entry(self, n, d):
        objects, values = entry_objects(t.perms for t in enumerate_classes(n, d).classes)
        assert objects == values <= factorial(d)

    @pytest.mark.parametrize("n,d", [(4, 5), (5, 4)])
    def test_traced_peak_budget(self, n, d):
        # 13753 and 14120 classes: about 2.9 and 3.2 MB in a fresh
        # interpreter; classes each holding their own entries need 7.0 and 8.0.
        assert traced_peak(enumerate_classes, n, d) < 4_000_000

    @pytest.mark.parametrize("n,d", HALL_CELLS)
    def test_marked_count_equals_hall_times_factorial(self, n, d):
        res = enumerate_classes(n, d)
        assert res.marked_count == hall_count(n - 1, d) * factorial(d - 1)
        # The Hall count weighs each class by d!/|C|; Mednykh's counts them.
        assert len(res.classes) == mednykh_class_count(n - 1, d)

    @pytest.mark.parametrize("n,d", HALL_CELLS)
    def test_marked_count_per_passport_is_frobenius(self, n, d):
        # Finer than the Hall gate, which two classes of different passports
        # with their centralizer orders swapped pass.  The orders are the
        # kernel's counts as the enumeration returns them; the test below
        # ties them to core.centralizer_order.
        res = enumerate_classes(n, d)
        marked = Counter()
        for c, order in zip(res.classes, res.centralizer_orders):
            marked[tuple(map(cycle_type, c.perms))] += factorial(d) // order
        expected = {}
        for passport in product(enumeration._partitions_desc(d), repeat=n):
            count = transitive_with_passport(passport)
            assert count >= 0
            if count:
                expected[passport] = count
        assert dict(marked) == expected

    @pytest.mark.parametrize("n,d", HALL_CELLS)
    def test_classes_validate_and_orders_match_core(self, n, d):
        # The enumeration checks no class after the kernel: the product holds
        # by construction and the kernel refuses an intransitive candidate.
        res = enumerate_classes(n, d)
        assert len(res.centralizer_orders) == len(res.classes)
        for t, order in zip(res.classes, res.centralizer_orders):
            assert core.validate(t) == "ok"
            assert core.centralizer_order(t) == order

    def test_classes_are_canonical_and_sorted(self):
        res = enumerate_classes(4, 2)
        encodings = [c.perms for c in res.classes]
        assert encodings == sorted(encodings)
        for c in res.classes:
            assert core.canonical_form(c) == c

    def test_degree_one_single_class(self):
        res = enumerate_classes(3, 1)
        assert len(res.classes) == 1
        assert res.marked_count == 1
        assert core.genus(res.classes[0]) == 0

    def test_class_invariants_populated(self):
        res = enumerate_classes(3, 3)
        genera = sorted(core.genus(c) for c in res.classes)
        assert genera[0] == 0 and genera[-1] == 1
        assert res.d in res.centralizer_orders
        for c in res.classes:
            assert sum(sum(part) for part in core.cycle_profile(c)) == 3 * res.d

    def test_normal_flags_match_group_closure(self):
        cells = [(3, d) for d in range(1, 7)] + [(4, d) for d in range(1, 5)] + [(5, 3), (6, 3)]
        classes = normal = 0
        for n, d in cells:
            res = enumerate_classes(n, d)
            for c, order in zip(res.classes, res.centralizer_orders):
                expected = generates_group_of_order_d(c.perms)
                assert (order == d) == core.is_normal(c) == expected
                # Genus is maximal when every color acts as a single d-cycle.
                assert core.genus(c) <= n * (d - 1) / 2 - d + 1
                classes += 1
                normal += expected
        assert (classes, normal) == (3007, 253)

    def test_work_limit(self):
        with pytest.raises(DessinryError) as exc:
            enumerate_classes(3, 40)
        assert exc.value.code == "bound-exceeded"


class StopSearch(Exception):
    pass


def stop(*args):
    raise StopSearch


class TestWorkLimit:
    """Cells are refused by (d!)^(n-2) * p(d) > WORK_LIMIT, decided before
    the search begins: the factor (d!)^(n-2) comes first, and the
    partitions of d are listed for p(d) only once it is within the limit,
    which needs d <= 9.  The direct count is refused by (d!)^(n-1) >
    WORK_LIMIT.  Neither forms a factorial past the limit."""

    @pytest.mark.parametrize("n,d", [(3, 100), (3, 10**6), (10**6, 3), (10**6, 10**6), (4, 8), (5, 7)])
    def test_refuses_huge_cells_without_listing_partitions(self, monkeypatch, n, d):
        monkeypatch.setattr(enumeration, "_partitions_desc", stop)
        with pytest.raises(DessinryError) as exc:
            enumerate_classes(n, d)
        assert exc.value.code == "bound-exceeded"

    def test_decision_matches_candidate_count(self, monkeypatch):
        monkeypatch.setattr(enumeration, "permutations", stop)
        for n in range(3, 9):
            for d in range(1, 13):
                work = len(enumeration._partitions_desc(d)) * factorial(d) ** (n - 2)
                with pytest.raises((DessinryError, StopSearch)) as exc:
                    enumerate_classes(n, d)
                assert exc.type is (StopSearch if work <= enumeration.WORK_LIMIT else DessinryError), (n, d)

    @pytest.mark.parametrize("n,d", [(3, 899), (3, 10**4), (10**6, 3), (10**6, 10**6)])
    def test_direct_count_refuses_huge_cells(self, n, d):
        start = time.perf_counter()
        with pytest.raises(DessinryError) as exc:
            count_transitive_tuples(n, d)
        assert exc.value.code == "bound-exceeded"
        assert time.perf_counter() - start < 1.0

    def test_direct_count_decision_matches_its_tuple_count(self, monkeypatch):
        monkeypatch.setattr(enumeration, "permutations", stop)
        for n in range(3, 9):
            for d in range(1, 13):
                with pytest.raises((DessinryError, StopSearch)) as exc:
                    count_transitive_tuples(n, d)
                want = StopSearch if factorial(d) ** (n - 1) <= enumeration.WORK_LIMIT else DessinryError
                assert exc.type is want, (n, d)
