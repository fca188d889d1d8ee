"""Counting and listing isomorphism classes of small monodromy tuples."""

from itertools import permutations, product
from math import factorial

import pytest

from dessinry import core, enumeration, perms
from dessinry.enumeration import count_transitive_tuples, enumerate_classes, hall_count
from dessinry.errors import DessinryError

# Frozen from this package's own Hall recursion, cross-checked below against
# the independent brute-force scan at every cell both can reach.
HALL_RANK2 = [1, 3, 13, 71, 461, 3447]
HALL_RANK3 = [1, 7, 97, 2143, 68641]


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
            assert perms.cycle_type(g0) == part
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
            assert [c.canonical for c in fast.classes] == naive_classes(n, d)

    @pytest.mark.parametrize("n,d", [(3, 4), (4, 3), (3, 5), (5, 3)])
    def test_agrees_with_naive_class_for_class(self, n, d):
        assert [c.canonical for c in enumerate_classes(n, d).classes] == naive_classes(n, d)

    @pytest.mark.parametrize("n,d", [(3, 4), (4, 3), (3, 5), (5, 3), (4, 4), (3, 6), (6, 3), (4, 5)])
    def test_marked_count_equals_hall_times_factorial(self, n, d):
        assert enumerate_classes(n, d).marked_count == hall_count(n - 1, d) * factorial(d - 1)

    def test_classes_are_canonical_and_sorted(self):
        res = enumerate_classes(4, 2)
        encodings = [c.canonical.perms for c in res.classes]
        assert encodings == sorted(encodings)
        for c in res.classes:
            assert core.canonical_form(c.canonical) == c.canonical

    def test_degree_one_single_class(self):
        res = enumerate_classes(3, 1)
        assert len(res.classes) == 1
        assert res.marked_count == 1
        assert res.classes[0].genus == 0

    def test_class_invariants_populated(self):
        res = enumerate_classes(3, 3)
        genera = sorted(c.genus for c in res.classes)
        assert genera[0] == 0 and genera[-1] == 1
        assert any(c.normal for c in res.classes)
        for c in res.classes:
            assert sum(sum(part) for part in c.profile) == 3 * res.d

    def test_class_invariants_match_core_and_need_a_valid_tuple(self):
        for c in enumerate_classes(4, 3).classes:
            t = c.canonical
            assert (c.genus, c.profile, c.normal) == (core.genus(t), core.cycle_profile(t), core.is_normal(t))
        with pytest.raises(DessinryError) as exc:
            enumeration.DessinClass(core.MonodromyTuple(((1, 0), (1, 0), (1, 0))))
        assert exc.value.code == "invalid-tuple"

    def test_work_limit(self):
        with pytest.raises(DessinryError) as exc:
            enumerate_classes(3, 40)
        assert exc.value.code == "bound-exceeded"
