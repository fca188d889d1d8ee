"""Bipartite square tilings, corner tracing, and the shear rewrites."""

import random
from collections import deque
from itertools import permutations, product

import pytest

from dessinry import core, origami
from dessinry.core import MonodromyTuple
from dessinry.enumeration import enumerate_classes
from dessinry.errors import DessinryError
from dessinry.origami import (
    BipartiteOrigami,
    canonical_origami,
    delta_hor,
    delta_hor_inv,
    delta_ver,
    delta_ver_inv,
    dessin_to_origami,
    isomorphic_origami,
    origami_from_json,
    origami_orbit,
    origami_to_dessin,
    validate_origami,
)
from dessinry.perms import inverse

# Six-square example: three whites, three greys, a nontrivial shear image.
SIX_A = BipartiteOrigami((1, 2, 0), (0, 1, 2), (1, 0, 2), (1, 0, 2))
SIX_B = BipartiteOrigami((1, 2, 0), (0, 1, 2), (1, 0, 2), (0, 2, 1))
# The four tilings of the census pool: 5, 6, 6 and 7 squares.
CENSUS_TILINGS = (
    BipartiteOrigami((4, 1, 2, 0, 3), (2, 0, 4, 3, 1), (2, 4, 3, 0, 1), (2, 4, 1, 0, 3)),
    BipartiteOrigami((5, 3, 2, 1, 0, 4), (5, 2, 0, 3, 4, 1), (3, 5, 4, 2, 0, 1), (4, 1, 5, 3, 0, 2)),
    BipartiteOrigami((0, 5, 3, 2, 4, 1), (3, 0, 1, 4, 2, 5), (5, 3, 0, 2, 4, 1), (4, 0, 5, 3, 1, 2)),
    BipartiteOrigami((2, 4, 0, 1, 5, 3, 6), (2, 4, 5, 3, 1, 0, 6), (2, 6, 0, 1, 4, 3, 5), (6, 4, 3, 0, 2, 5, 1)),
)
DELTAS = {"hor": delta_hor, "ver": delta_ver, "hor-inv": delta_hor_inv, "ver-inv": delta_ver_inv}


def chessboard_origami():
    """Two whites and two greys in a checker pattern, opposite sides glued.

    The unique connected double cover of the one-square origami branched at
    all four corners; every corner permutation is the transposition."""
    return BipartiteOrigami((0, 1), (0, 1), (1, 0), (1, 0))


def pillowcase_origami():
    """One white and one grey square, the degree-one base object."""
    return BipartiteOrigami((0,), (0,), (0,), (0,))


# The three shears the package derives from the horizontal one, written out
# one by one as an oracle.
def explicit_hor_inv(o):
    Rinv, Linv = inverse(o.R), inverse(o.L)
    return BipartiteOrigami(
        Linv,
        Rinv,
        tuple(Linv[o.U[Rinv[g]]] for g in range(o.m)),
        tuple(Rinv[o.D[Linv[g]]] for g in range(o.m)),
    )


def explicit_ver(o):
    Uinv, Dinv = inverse(o.U), inverse(o.D)
    return BipartiteOrigami(
        tuple(Uinv[o.R[Dinv[g]]] for g in range(o.m)),
        tuple(Dinv[o.L[Uinv[g]]] for g in range(o.m)),
        Dinv,
        Uinv,
    )


def explicit_ver_inv(o):
    Uinv, Dinv = inverse(o.U), inverse(o.D)
    return BipartiteOrigami(
        tuple(Dinv[o.R[Uinv[g]]] for g in range(o.m)),
        tuple(Uinv[o.L[Dinv[g]]] for g in range(o.m)),
        Dinv,
        Uinv,
    )


def random_valid_origamis(seed, count, max_m=7):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        m = rng.randint(1, max_m)
        maps = [rng.sample(range(m), m) for _ in range(4)]
        o = BipartiteOrigami(*maps)
        if validate_origami(o) == "ok":
            out.append(o)
    return out


def gluing_graph_connected(o):
    """Breadth-first search of the gluing graph on all 2m squares (white w
    is node w, grey g is node m + g): the oracle for validate_origami's
    reading of connectivity off the corner tuple."""
    m = o.m
    Rinv, Linv, Uinv, Dinv = inverse(o.R), inverse(o.L), inverse(o.U), inverse(o.D)
    seen = {0}
    queue = deque([0])
    while queue:
        v = queue.popleft()
        if v < m:
            nbrs = (m + o.R[v], m + o.L[v], m + o.U[v], m + o.D[v])
        else:
            nbrs = (Rinv[v - m], Linv[v - m], Uinv[v - m], Dinv[v - m])
        for w in nbrs:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == 2 * m


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(DessinryError) as exc:
            BipartiteOrigami((), (), (), ())
        assert exc.value.code == "invalid-origami"

    def test_rejects_ragged_lengths(self):
        with pytest.raises(DessinryError):
            BipartiteOrigami((0, 1), (0,), (0, 1), (0, 1))

    def test_rejects_out_of_range(self):
        with pytest.raises(DessinryError):
            BipartiteOrigami((0, 2), (0, 1), (0, 1), (0, 1))

    def test_rejects_bool_entries(self):
        with pytest.raises(DessinryError):
            BipartiteOrigami((0, True), (0, 1), (0, 1), (0, 1))

    def test_non_bijection_constructs_but_fails_validate(self):
        o = BipartiteOrigami((0, 0), (0, 1), (0, 1), (0, 1))
        assert "R is not a bijection" in validate_origami(o)

    def test_disconnected_gluing(self):
        o = BipartiteOrigami((0, 1), (0, 1), (0, 1), (0, 1))
        assert validate_origami(o) == "violated: gluing graph is not connected"

    def test_valid_examples(self):
        for o in (chessboard_origami(), pillowcase_origami(), SIX_A, SIX_B):
            assert validate_origami(o) == "ok"

    def test_connectivity_matches_gluing_graph_on_every_small_gluing(self):
        cases = 0
        for m in range(1, 4):
            for maps in product(list(permutations(range(m))), repeat=4):
                o = BipartiteOrigami(*maps)
                expected = "ok" if gluing_graph_connected(o) else "violated: gluing graph is not connected"
                assert validate_origami(o) == expected
                cases += 1
        assert cases == 1313

    def test_connectivity_matches_gluing_graph_on_random_gluings(self):
        rng = random.Random(12)
        verdicts = set()
        for _ in range(2000):
            m = rng.randint(1, 7)
            # Few distinct grey targets make disconnected gluings common.
            pool = [tuple(rng.sample(range(m), m)) for _ in range(rng.randint(1, 3))]
            o = BipartiteOrigami(*(rng.choice(pool) for _ in range(4)))
            verdict = gluing_graph_connected(o)
            verdicts.add(verdict)
            assert (validate_origami(o) == "ok") == verdict
        assert verdicts == {True, False}


class TestCornerTracing:
    def test_chessboard_corners_are_transpositions(self):
        t = origami_to_dessin(chessboard_origami())
        assert t.perms == ((1, 0), (1, 0), (1, 0), (1, 0))

    def test_pillowcase_is_degree_one(self):
        t = origami_to_dessin(pillowcase_origami())
        assert t.d == 1 and core.genus(t) == 0

    def test_six_square_corners(self):
        assert origami_to_dessin(SIX_A).perms == ((1, 0, 2), (0, 2, 1), (0, 2, 1), (1, 0, 2))
        assert origami_to_dessin(SIX_B).perms == ((0, 2, 1), (2, 1, 0), (0, 2, 1), (1, 0, 2))

    def test_invalid_origami_refused(self):
        with pytest.raises(DessinryError):
            origami_to_dessin(BipartiteOrigami((0, 0), (0, 1), (0, 1), (0, 1)))

    def test_corners_are_built_once(self, monkeypatch):
        # The corners that pass the connectivity test are the ones returned.
        calls = []
        monkeypatch.setattr(origami, "_dessin_perms", lambda o, f=origami._dessin_perms: calls.append(o) or f(o))
        assert origami_to_dessin(SIX_A).perms == ((1, 0, 2), (0, 2, 1), (0, 2, 1), (1, 0, 2))
        assert calls == [SIX_A]


class TestRoundtrip:
    def test_tuple_roundtrip_is_exact(self):
        for res in (enumerate_classes(4, 2), enumerate_classes(4, 3)):
            for t in res.classes:
                assert origami_to_dessin(dessin_to_origami(t)) == t

    def test_origami_roundtrip_preserves_class(self):
        for o in (chessboard_origami(), SIX_A, SIX_B):
            back = dessin_to_origami(origami_to_dessin(o))
            assert isomorphic_origami(back, o)

    def test_different_sizes_are_not_isomorphic(self):
        assert not isomorphic_origami(chessboard_origami(), SIX_A)

    def test_dessin_to_origami_needs_four_colors(self):
        t = MonodromyTuple([(1, 0), (1, 0), (0, 1)])
        with pytest.raises(DessinryError):
            dessin_to_origami(t)

    def test_canonical_origami_raises_the_validate_diagnostic(self):
        # Every gluing of up to two squares, bijective or not, and every
        # bijective gluing of three.
        maps = [g for m in (1, 2) for g in product(range(m), repeat=m)]
        cases = [BipartiteOrigami(*g) for g in product(maps, repeat=4) if len({len(x) for x in g}) == 1]
        cases += [BipartiteOrigami(*g) for g in product(list(permutations(range(3))), repeat=4)]
        diags = set()
        for o in cases:
            diag = validate_origami(o)
            diags.add(diag)
            if diag == "ok":
                assert canonical_origami(o) == canonical_origami(dessin_to_origami(origami_to_dessin(o)))
                continue
            with pytest.raises(DessinryError) as exc:
                canonical_origami(o)
            assert (exc.value.code, exc.value.message) == ("invalid-origami", diag)
        # "ok", a failed bijection of each of R, L, U, D, and a disconnected gluing.
        assert len(diags) == 6

    def test_canonical_origami_idempotent(self):
        for o in (SIX_A, SIX_B, chessboard_origami()):
            c = canonical_origami(o)
            assert canonical_origami(c) == c
            assert isomorphic_origami(c, o)


class TestShears:
    def test_explicit_horizontal_image(self):
        img = delta_hor(SIX_A)
        assert (img.R, img.L, img.U, img.D) == ((0, 1, 2), (2, 0, 1), (0, 2, 1), (2, 1, 0))

    def test_inverses_undo_exactly(self):
        # What lets the orbit read hor-inv and ver-inv off as inverses.
        drawn = random_valid_origamis(3, 200)
        assert {o.m for o in drawn} == set(range(1, 8))
        for o in (chessboard_origami(), SIX_A, SIX_B) + CENSUS_TILINGS + tuple(drawn):
            assert delta_hor_inv(delta_hor(o)) == o
            assert delta_hor(delta_hor_inv(o)) == o
            assert delta_ver_inv(delta_ver(o)) == o
            assert delta_ver(delta_ver_inv(o)) == o

    def test_shears_fix_chessboard(self):
        o = chessboard_origami()
        assert delta_hor(o) == o
        assert delta_ver(o) == o

    def test_images_stay_valid_and_preserve_invariants(self):
        # Validity is what lets the orbit hand shear images to the kernel unchecked.
        for o in [SIX_A, SIX_B] + random_valid_origamis(11, 300):
            t = origami_to_dessin(o)
            for op in DELTAS.values():
                img = op(o)
                assert validate_origami(img) == "ok"
                assert img.m == o.m
                ti = origami_to_dessin(img)
                assert core.genus(ti) == core.genus(t)
                # Shears conjugate each corner permutation, color by color.
                assert core.cycle_profile(ti) == core.cycle_profile(t)

    def test_derived_shears_match_explicit_bodies(self):
        pairs = ((delta_hor_inv, explicit_hor_inv), (delta_ver, explicit_ver), (delta_ver_inv, explicit_ver_inv))
        for o in random_valid_origamis(7, 400) + [chessboard_origami(), SIX_A, SIX_B]:
            for op, oracle in pairs:
                assert op(o) == oracle(o), (op.__name__, o)

    def test_gate_pair(self, gate_pair):
        first, second = gate_pair
        a = BipartiteOrigami(first["R"], first["L"], first["U"], first["D"])
        b = BipartiteOrigami(second["R"], second["L"], second["U"], second["D"])
        assert isomorphic_origami(delta_hor(a), b)
        assert not isomorphic_origami(a, b)


class TestOrbit:
    def test_six_square_orbit(self):
        res = origami_orbit(SIX_A)
        assert len(res.elements) == 4
        assert len(res.generator_log) == 16
        names = {name for _, name, _ in res.generator_log}
        assert names == {"hor", "ver", "hor-inv", "ver-inv"}
        for src, _, dst in res.generator_log:
            assert 0 <= src < 4 and 0 <= dst < 4

    def test_orbit_contains_both_gate_members(self):
        res = origami_orbit(SIX_A)
        assert canonical_origami(SIX_B) in res.elements

    def test_orbit_elements_canonical(self):
        res = origami_orbit(SIX_B)
        for o in res.elements:
            assert canonical_origami(o) == o

    def test_chessboard_orbit_is_a_point(self):
        res = origami_orbit(chessboard_origami())
        assert len(res.elements) == 1

    def test_shear_images_skip_the_bijection_check(self, monkeypatch):
        calls = []
        monkeypatch.setattr(origami, "_valid_corners", lambda o, f=origami._valid_corners: calls.append(o) or f(o))
        res = origami_orbit(SIX_B)
        assert len(res.elements) == 4
        assert calls == [SIX_B]


class TestShearImages:
    """The orbit's hor and ver images of one source, composed from its
    gluings inverted once, are the classes of the public shears' images;
    the hor-inv and ver-inv edges it reads off are those of the inverse shears."""

    def test_against_the_public_shears(self):
        drawn = random_valid_origamis(5, 200)
        assert {o.m for o in drawn} == set(range(1, 8))
        assert list(origami._SHEARS) == ["hor", "ver", "hor-inv", "ver-inv"]
        for o in CENSUS_TILINGS + tuple(drawn):
            got = origami._shear_images((o.R, o.L, o.U, o.D))
            want = [canonical_origami(f(o)) for f in (delta_hor, delta_ver)]
            assert [BipartiteOrigami(*g) for g in got] == want, o

    def test_log_matches_the_public_shears(self):
        for o in CENSUS_TILINGS + tuple(random_valid_origamis(9, 12)):
            res = origami_orbit(o)
            assert len(res.generator_log) == 4 * len(res.elements)
            for src, name, dst in res.generator_log:
                assert res.elements[dst] == canonical_origami(DELTAS[name](res.elements[src])), (o, name)

    def test_kernel_calls_per_element(self, monkeypatch):
        # One per element under each of hor and ver, and the seed's in canonical_origami.
        calls = []
        original = origami._canonical_key
        monkeypatch.setattr(origami, "_canonical_key", lambda *a: calls.append(a) or original(*a))
        res = origami_orbit(CENSUS_TILINGS[3])
        assert len(res.elements) == 465
        assert len(calls) == 2 * len(res.elements) + 1

    def test_inversions_per_element(self, inverse_calls):
        # The source's four gluings, once per element, and the seed's in canonical_origami.
        res = origami_orbit(CENSUS_TILINGS[3])
        assert len(res.elements) == 465
        assert len(inverse_calls) <= 4 * (len(res.elements) + 1)


class TestJson:
    def test_roundtrip(self):
        obj = {"m": 3, "R": list(SIX_A.R), "L": list(SIX_A.L), "U": list(SIX_A.U), "D": list(SIX_A.D)}
        assert obj["m"] == 3
        assert origami_from_json(obj) == SIX_A

    def test_missing_field(self):
        with pytest.raises(DessinryError):
            origami_from_json({"m": 2, "R": [0, 1], "L": [0, 1], "U": [1, 0]})

    def test_declared_size_mismatch(self):
        with pytest.raises(DessinryError):
            origami_from_json({"m": 5, "R": [0, 1], "L": [0, 1], "U": [1, 0], "D": [1, 0]})
