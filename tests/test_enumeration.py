"""Counting and listing isomorphism classes of small monodromy tuples."""

import time
from itertools import permutations, product
from math import factorial

import pytest

from dessinry import core, enumeration, perms
from dessinry.enumeration import count_transitive_tuples, enumerate_classes, hall_count
from dessinry.errors import DessinryError

from test_perms import cycle_type

# Frozen from this package's own Hall recursion, cross-checked below against
# the independent brute-force scan at every cell both can reach.
HALL_RANK2 = [1, 3, 13, 71, 461, 3447]
HALL_RANK3 = [1, 7, 97, 2143, 68641]
# The cells where the enumeration's marked count is checked against Hall.
HALL_CELLS = [(3, 4), (4, 3), (3, 5), (5, 3), (4, 4), (3, 6), (6, 3), (4, 5)]


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
        with pytest.raises(DessinryError) as exc:
            hall_count(0, 3)
        assert exc.value.code == "bound-exceeded"


class TestCountRelation:
    @pytest.mark.parametrize("n,d", [(3, d) for d in range(1, 5)] + [(4, d) for d in range(1, 4)])
    def test_count_equals_hall_times_factorial(self, n, d):
        assert count_transitive_tuples(n, d) == hall_count(n - 1, d) * factorial(d - 1)

    def test_work_limit(self):
        with pytest.raises(DessinryError) as exc:
            count_transitive_tuples(3, 60)
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

    @pytest.mark.parametrize("n,d", HALL_CELLS)
    def test_marked_count_equals_hall_times_factorial(self, n, d):
        assert enumerate_classes(n, d).marked_count == hall_count(n - 1, d) * factorial(d - 1)

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
