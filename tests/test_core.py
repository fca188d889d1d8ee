"""Monodromy tuples: construction, validation, canonical forms, invariants."""

import json
import random
from itertools import permutations, product

import pytest
from hypothesis import given, strategies as st

from dessinry import core, covers, perms
from dessinry.cli import main
from dessinry.core import MonodromyTuple
from dessinry.enumeration import enumerate_classes
from dessinry.errors import DessinryError


def tuple_from(*one_line):
    return MonodromyTuple(tuple(one_line))


TORUS = tuple_from((1, 0), (1, 0), (1, 0), (1, 0))
SPHERE_3 = tuple_from((1, 0), (1, 0), (0, 1))
TREFOIL = tuple_from((1, 2, 0), (1, 2, 0), (1, 2, 0))


def brute_centralizer_order(t):
    """Order of the simultaneous centralizer by a scan over all of Sym(d)."""
    return sum(
        all(perms.relabel(p, pi) == p for p in t.perms) for pi in permutations(range(t.d))
    )


def random_valid_tuple(n, d):
    """Tuples built as (free choices, forced last), filtered to transitive."""

    def build(choice):
        running = perms.identity(d)
        ps = []
        for p in choice:
            ps.append(tuple(p))
            running = perms.compose(running, tuple(p))
        ps.append(perms.inverse(running))
        return ps

    return (
        st.tuples(*[st.permutations(range(d)) for _ in range(n - 1)])
        .map(build)
        .filter(lambda ps: perms.acts_transitively(ps, d))
        .map(MonodromyTuple)
    )


small_tuples = st.one_of(random_valid_tuple(3, 3), random_valid_tuple(4, 3), random_valid_tuple(3, 4))


class TestConstruction:
    def test_rejects_fewer_than_three_colors(self):
        with pytest.raises(DessinryError) as exc:
            MonodromyTuple([(1, 0), (1, 0)])
        assert exc.value.code == "invalid-tuple"

    def test_rejects_non_permutation_entry(self):
        with pytest.raises(DessinryError) as exc:
            MonodromyTuple([(1, 0), (0, 0), (1, 0)])
        assert exc.value.code == "invalid-tuple"

    def test_rejects_degree_zero(self):
        with pytest.raises(DessinryError) as exc:
            MonodromyTuple([(), (), ()])
        assert (exc.value.code, exc.value.message) == ("invalid-tuple", "degree must be at least 1")

    def test_rejects_mixed_degrees(self):
        with pytest.raises(DessinryError):
            MonodromyTuple([(1, 0), (1, 0, 2), (1, 0)])

    def test_broken_semantics_still_constructs(self):
        t = MonodromyTuple([(1, 0), (1, 0), (1, 0)])
        assert core.validate(t).startswith("violated: product")

    def test_immutable(self):
        with pytest.raises(AttributeError):
            TORUS.perms = ()

    def test_inverse_perms_built_once(self):
        t = MonodromyTuple([(1, 2, 0), (2, 0, 1), (0, 1, 2)])
        inverses = t._inverse_perms()
        assert inverses == tuple(perms.inverse(p) for p in t.perms)
        assert t._inverse_perms() is inverses
        # The kept inverses do not change what the tuple is.
        assert t == MonodromyTuple(t.perms) and hash(t) == hash(t.perms)


class TestValidate:
    def test_ok(self):
        assert core.validate(TORUS) == "ok"
        assert core.is_valid(SPHERE_3)

    def test_reports_intransitivity(self):
        t = MonodromyTuple([(0, 1), (0, 1), (0, 1)])
        assert "not transitive" in core.validate(t)
        assert "sheet 1" in core.validate(t)

    @given(small_tuples)
    def test_generated_tuples_are_valid(self, t):
        assert core.validate(t) == "ok"


class TestCanonicalForm:
    def test_idempotent(self):
        c = core.canonical_form(TREFOIL)
        assert core.canonical_form(c) == c

    @given(small_tuples, st.permutations(range(3)))
    def test_conjugation_invariant(self, t, pi):
        if t.d != len(pi):
            pi = tuple(range(t.d))
        conj = MonodromyTuple([perms.relabel(p, tuple(pi)) for p in t.perms])
        assert core.canonical_form(conj) == core.canonical_form(t)

    def test_different_shapes_are_not_isomorphic(self):
        chessboard = MonodromyTuple([(1, 0)] * 4)
        assert not core.isomorphic(chessboard, MonodromyTuple([(1, 0), (1, 0), (0, 1)]))
        assert not core.isomorphic(chessboard, MonodromyTuple([(1, 2, 0), (1, 2, 0), (1, 2, 0), (0, 1, 2)]))

    def test_distinguishes_nonconjugate(self):
        a = tuple_from((1, 0, 2), (0, 2, 1), (0, 2, 1), (1, 0, 2))
        b = tuple_from((0, 2, 1), (2, 1, 0), (0, 2, 1), (1, 0, 2))
        assert not core.isomorphic(a, b)

    def test_requires_validity(self):
        broken = MonodromyTuple([(1, 0), (1, 0), (1, 0)])
        with pytest.raises(DessinryError) as exc:
            core.canonical_form(broken)
        assert exc.value.code == "invalid-tuple"


def unpruned_canonical_key(raw):
    """core._canonical_key trying every base sheet: the kernel's oracle for
    its choice of the bases that can win."""
    d = len(raw[0])
    gens = raw + tuple(perms.inverse(p) for p in raw)
    best = None
    count = 0
    for base in range(d):
        lab = [-1] * d
        lab[base] = 0
        order = [base]
        nxt = 1
        for v in order:
            for g in gens:
                w = g[v]
                if lab[w] < 0:
                    lab[w] = nxt
                    nxt += 1
                    order.append(w)
        key = tuple(tuple(lab[p[v]] for v in order) for p in raw)
        if best is None or key < best:
            best, count = key, 1
        elif key == best:
            count += 1
    return best, count


def g0_kind(g0):
    if any(g0[b] == b for b in range(len(g0))):
        return "fixed points"
    if any(g0[g0[b]] == b for b in range(len(g0))):
        return "2-cycles"
    return "neither"


def random_raw_tuple(rng, n, d, kind):
    """A random valid raw tuple of shape (n, d) whose g_0 is of the kind."""
    while True:
        head = [tuple(rng.sample(range(d), d)) for _ in range(n - 1)]
        if g0_kind(head[0]) != kind:
            continue
        running = perms.identity(d)
        for p in head:
            running = perms.compose(running, p)
        raw = tuple(head) + (perms.inverse(running),)
        if perms.acts_transitively(raw, d):
            return raw


class TestCanonicalKernel:
    @pytest.mark.parametrize("kind", ["fixed points", "2-cycles", "neither"])
    def test_pruned_bases_match_all_bases_on_random_tuples(self, kind):
        rng = random.Random(kind)
        for _ in range(300):
            # Every kind occurs for d >= 4 (a g_0 of degree 3 without fixed
            # points is a 3-cycle).
            n, d = rng.randint(3, 5), rng.randint(4, 8)
            raw = random_raw_tuple(rng, n, d, kind)
            assert core._canonical_key(raw, tuple(map(perms.inverse, raw))) == unpruned_canonical_key(raw)

    @pytest.mark.parametrize("n,d", [(3, 1), (3, 2), (3, 3), (3, 4), (4, 3)])
    def test_none_exactly_on_intransitive_tuples(self, n, d):
        sym = list(permutations(range(d)))
        intransitive = 0
        for head in product(sym, repeat=n - 1):
            raw = head + (perms.inverse(perms.compose_all(head, d)),)
            found = core._canonical_key(raw, tuple(map(perms.inverse, raw)))
            if perms.acts_transitively(raw, d):
                assert found == unpruned_canonical_key(raw)
            else:
                assert found is None
                intransitive += 1
        assert intransitive > 0 or d == 1

    def test_none_on_random_intransitive_tuples(self):
        # Two blocks that no entry mixes, each block permuted at random.
        rng = random.Random(5)
        for _ in range(300):
            n, d = rng.randint(3, 5), rng.randint(2, 9)
            cut = rng.randint(1, d - 1)
            pi = rng.sample(range(d), d)
            raw = []
            for _ in range(n):
                block = rng.sample(range(cut), cut) + [cut + x for x in rng.sample(range(d - cut), d - cut)]
                raw.append(perms.relabel(tuple(block), pi))
            assert core._canonical_key(tuple(raw), tuple(map(perms.inverse, raw))) is None

    @pytest.mark.parametrize("n,d", [(3, 4), (4, 3), (3, 5), (4, 4), (3, 6)])
    def test_pruned_bases_match_all_bases_on_relabeled_classes(self, n, d):
        # Classes with large centralizers: the count must survive pruning.
        rng = random.Random(n * 10 + d)
        for c in enumerate_classes(n, d).classes:
            pi = tuple(rng.sample(range(d), d))
            raw = tuple(perms.relabel(p, pi) for p in c.perms)
            assert core._canonical_key(raw, tuple(map(perms.inverse, raw))) == unpruned_canonical_key(raw)


class TestInvariants:
    def test_genus_torus(self):
        assert core.genus(TORUS) == 1

    def test_genus_sphere(self):
        assert core.genus(SPHERE_3) == 0
        assert core.genus(TREFOIL) == 1

    def test_profile(self):
        assert core.cycle_profile(SPHERE_3) == ((2,), (2,), (1, 1))

    def test_is_normal(self):
        assert core.is_normal(TORUS)
        assert core.is_normal(TREFOIL)
        # degree 3 with a transposition: group is all of Sym(3), order 6 != 3
        t = tuple_from((1, 0, 2), (1, 2, 0), (2, 1, 0))
        assert core.validate(t) == "ok"
        assert not core.is_normal(t)

    def test_centralizer_order(self):
        assert core.centralizer_order(TORUS) == 2
        assert core.centralizer_order(TREFOIL) == 3

    @pytest.mark.parametrize("n,d", [(3, 4), (4, 3), (3, 5), (5, 3), (4, 4)])
    def test_centralizer_order_matches_brute_force(self, n, d):
        for c in enumerate_classes(n, d).classes:
            assert core.centralizer_order(c) == brute_centralizer_order(c)

    @given(small_tuples)
    def test_genus_is_nonnegative_int(self, t):
        g = core.genus(t)
        assert isinstance(g, int) and g >= 0
        # genus() floors (2 - chi) / 2, which would hide an odd chi.
        chi = 2 * t.d - sum(t.d - len(perms.cycles(p)) for p in t.perms)
        assert chi % 2 == 0 and g == (2 - chi) // 2


class TestOrientationReverse:
    def test_known_image(self):
        t = tuple_from((1, 0, 2), (0, 2, 1), (0, 2, 1), (1, 0, 2))
        rev = core.orientation_reverse(t)
        assert rev.perms == ((1, 0, 2), (2, 1, 0), (2, 1, 0), (1, 0, 2))

    def test_fixes_all_transpositions_tuple_exactly(self):
        assert core.orientation_reverse(TORUS) == TORUS

    @given(small_tuples)
    def test_involution_on_classes(self, t):
        twice = core.orientation_reverse(core.orientation_reverse(t))
        assert core.isomorphic(twice, t)

    @given(small_tuples)
    def test_preserves_genus_and_profile(self, t):
        rev = core.orientation_reverse(t)
        assert core.genus(rev) == core.genus(t)
        assert core.cycle_profile(rev) == core.cycle_profile(t)


class TestJson:
    def test_roundtrip(self, capsys):
        # The reader takes what the CLI's one tuple writer prints.
        assert main(["hurwitz", "--a", "2", "--lift", "L3", "--format", "json"]) == 0
        assert core.from_json(json.loads(capsys.readouterr().out)) == covers.hurwitz_dessin(2, "L3")

    def test_rejects_inconsistent_d(self):
        with pytest.raises(DessinryError) as exc:
            core.from_json({"n": 3, "d": 4, "perms": [[1, 0], [1, 0], [0, 1]]})
        assert exc.value.code == "invalid-tuple"

    def test_rejects_perms_length_other_than_n(self):
        with pytest.raises(DessinryError) as exc:
            core.from_json({"n": 4, "d": 2, "perms": [[1, 0], [1, 0], [0, 1]]})
        assert (exc.value.code, exc.value.message) == ("invalid-tuple", "perms length does not match n=4")

    def test_rejects_missing_fields(self):
        with pytest.raises(DessinryError):
            core.from_json({"n": 3})
