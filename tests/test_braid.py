"""Word rewriting, half-twists, pure twists, and orbit closure."""

import random
from math import factorial

import pytest
from hypothesis import example, given, strategies as st

from dessinry import braid, core, origami, perms
from dessinry.braid import (
    EndomorphismTable,
    apply_endomorphism,
    braid_orbit,
    chain_tables,
    compose_tables,
    evaluate_word,
    orbit_closure,
    preset_gamma2,
    preset_pure_generators,
    pure_twist_table,
    sigma_inv_table,
    sigma_table,
    word,
    word_inverse,
    word_reduce,
    word_str,
    word_substitute,
)
from dessinry.core import MonodromyTuple
from dessinry.enumeration import enumerate_classes
from dessinry.errors import DessinryError

CHESSBOARD = MonodromyTuple([(1, 0), (1, 0), (1, 0), (1, 0)])
TREFOIL = MonodromyTuple([(1, 2, 0), (1, 2, 0), (1, 2, 0)])
TREFOIL_N4 = MonodromyTuple([(1, 2, 0), (1, 2, 0), (1, 2, 0), (0, 1, 2)])
# Four transpositions on three sheets: its pure braid orbit has four classes.
TRANSPOSITIONS = MonodromyTuple([(0, 2, 1), (0, 2, 1), (1, 0, 2), (1, 0, 2)])



def identity_table(n, name="id"):
    return EndomorphismTable(n, [((v, 1),) for v in range(n)], name=name)


def is_conjugate_of_generator(w, v):
    """True if the reduced word w equals u x_v u^-1 for some word u."""
    if len(w) % 2 == 0:
        return False
    mid = len(w) // 2
    if w[mid] != (v, 1):
        return False
    for k in range(mid):
        a, b = w[k], w[len(w) - 1 - k]
        if a[0] != b[0] or a[1] != -b[1]:
            return False
    return True


# Not an (index, sign) pair of exact ints with 0 <= index and sign +1 or -1:
# 0.0, True and 1.5 pass a range test, and a float or bool once escaped as a
# TypeError or read an entry.
BAD_LETTERS = [(0.0, 1), (1, 1.0), (True, 1), (1, True), (1, 2), (1, 0), (-1, 1), (1.5, 1), (0, 1, 1), 5]

letters = st.tuples(st.integers(min_value=0, max_value=3), st.sampled_from((1, -1)))
words = st.lists(letters, max_size=12).map(tuple)


class TestWords:
    def test_word_builder_rejects_bad_sign(self):
        with pytest.raises(DessinryError) as exc:
            word((0, 2))
        assert exc.value.code == "index-out-of-range"

    def test_word_builder_keeps_valid_letters(self):
        assert word((0, 1), (2, -1), (0, 1)) == ((0, 1), (2, -1), (0, 1))

    @pytest.mark.parametrize("letter", BAD_LETTERS)
    def test_word_builder_refuses_a_letter_that_is_not_an_int_pair(self, letter):
        with pytest.raises(DessinryError) as exc:
            word((0, 1), letter)
        assert exc.value.code == "index-out-of-range"

    def test_reduce_cancels_adjacent_pair(self):
        assert word_reduce(((0, 1), (1, 1), (1, -1), (0, -1))) == ()

    @given(words)
    def test_word_times_inverse_reduces_to_empty(self, w):
        assert word_reduce(w + word_inverse(w)) == ()

    @given(words)
    def test_reduce_idempotent(self, w):
        once = word_reduce(w)
        assert word_reduce(once) == once

    def test_substitute(self):
        images = [((1, 1),), ((0, 1), (1, 1))]
        # x0 x1^-1 becomes x1 (x0 x1)^-1 = x1 x1^-1 x0^-1, which reduces.
        assert word_substitute(((0, 1), (1, -1)), images) == ((0, -1),)

    def test_substitute_reads_images_once(self):
        # An iterator of images is read once, as EndomorphismTable reads it.
        images = iter([((1, 1),), ((0, 1), (1, 1))])
        assert word_substitute(((0, 1), (1, -1)), images) == ((0, -1),)

    def test_str(self):
        assert word_str(()) == "1"
        assert word_str(((0, 1), (2, -1))) == "x0 x2^-1"


class TestEvaluate:
    def test_left_to_right(self):
        got = evaluate_word(((0, 1), (1, 1)), TREFOIL)
        assert got == perms.compose(TREFOIL.perms[0], TREFOIL.perms[1])

    def test_negative_letter_inverts(self):
        got = evaluate_word(((0, -1),), TREFOIL)
        assert got == perms.inverse(TREFOIL.perms[0])

    def test_empty_word_is_identity(self):
        assert evaluate_word((), TREFOIL) == perms.identity(3)

    def test_letter_out_of_alphabet(self):
        with pytest.raises(DessinryError) as exc:
            evaluate_word(((5, 1),), TREFOIL)
        assert exc.value.code == "index-out-of-range"

    @pytest.mark.parametrize("letter", BAD_LETTERS + [(3, 1)])
    def test_letter_that_is_not_an_int_pair_in_range_is_refused(self, letter):
        # (True, 1) once read entry 1 and (0, 2) evaluated as x0^-1.
        with pytest.raises(DessinryError) as exc:
            evaluate_word(((0, 1), letter), TREFOIL)
        assert exc.value.code == "index-out-of-range"


class TestTables:
    def test_identity_table_acts_trivially(self):
        assert apply_endomorphism(identity_table(4), CHESSBOARD) == CHESSBOARD

    @pytest.mark.parametrize("letter", BAD_LETTERS)
    def test_letter_that_is_not_an_int_pair_is_refused(self, letter):
        # 0.0 and True pass the range test and once escaped apply_endomorphism
        # as a TypeError; a sign other than +1 or -1 has no meaning.
        with pytest.raises(DessinryError) as exc:
            EndomorphismTable(3, [(letter,), ((1, 1),), ((2, 1),)])
        assert exc.value.code == "index-out-of-range"

    @pytest.mark.parametrize(
        "build",
        [
            lambda: EndomorphismTable(3.0, [((0, 1),), ((1, 1),), ((2, 1),)]),
            lambda: EndomorphismTable(3, [((0, 1),), 5, ((2, 1),)]),
            lambda: EndomorphismTable(3, 5),
            lambda: word_substitute(((5, 1),), sigma_table(3, 0).images),
            lambda: word_substitute(((0, 1.0),), sigma_table(3, 0).images),
            lambda: word_substitute(((0, 2),), sigma_table(3, 0).images),
            lambda: word_substitute(((1, 1),), iter([((0, 1),)])),
            lambda: word_substitute(((0, 1),), [((0, 1.0),)]),
            lambda: word_substitute(((0, 1),), [((True, 1),)]),
            lambda: word_substitute(((0, 1),), [5]),
            lambda: word_substitute(((0, 1),), 5),
            lambda: sigma_table(4, 1.0),
            lambda: sigma_table(4.0, 1),
            lambda: sigma_inv_table(4, 1.0),
            lambda: pure_twist_table(4, 0, 1.0),
            lambda: pure_twist_table(4, True, 2),
            lambda: pure_twist_table(4, 0, 1, power=1.0),
            lambda: preset_pure_generators(4.0),
            lambda: preset_pure_generators(2),
            lambda: compose_tables(sigma_table(3, 0), sigma_table(4, 0)),
            lambda: chain_tables([]),
        ],
        ids=[
            "table-n-float",
            "image-not-a-word",
            "images-not-iterable",
            "substitute-letter-out-of-range",
            "substitute-sign-float",
            "substitute-sign-2",
            "substitute-images-iterator",
            "substitute-image-sign-float",
            "substitute-image-index-bool",
            "substitute-image-not-a-word",
            "substitute-images-not-iterable",
            "sigma-i-float",
            "sigma-n-float",
            "sigma-inv-i-float",
            "pure-j-float",
            "pure-i-bool",
            "pure-power-float",
            "preset-n-float",
            "preset-n-2",
            "compose-mixed-n",
            "chain-empty",
        ],
    )
    def test_table_of_bad_shape_is_refused(self, build):
        with pytest.raises(DessinryError) as exc:
            build()
        assert exc.value.code == "index-out-of-range"

    def test_wrong_image_count(self):
        with pytest.raises(DessinryError):
            EndomorphismTable(3, [((0, 1),), ((1, 1),)])

    def test_letter_outside_alphabet(self):
        with pytest.raises(DessinryError):
            EndomorphismTable(3, [((0, 1),), ((1, 1),), ((7, 1),)])

    def test_shape_mismatch_on_apply(self):
        with pytest.raises(DessinryError):
            apply_endomorphism(identity_table(4), TREFOIL)

    def test_non_preserving_table_raises(self):
        drop_first = EndomorphismTable(3, [(), ((1, 1),), ((2, 1),)])
        with pytest.raises(DessinryError) as exc:
            apply_endomorphism(drop_first, TREFOIL)
        assert exc.value.code == "invalid-result"

    def test_compose_action_order(self):
        s0, s1 = sigma_table(3, 0), sigma_table(3, 1)
        both = compose_tables(s0, s1)
        assert apply_endomorphism(both, TREFOIL) == apply_endomorphism(s1, apply_endomorphism(s0, TREFOIL))


class TestSigma:
    def test_half_twist_images(self):
        s0 = sigma_table(4, 0)
        assert s0.images[0] == ((0, 1), (1, 1), (0, -1))
        assert s0.images[1] == ((0, 1),)
        assert s0.images[2] == ((2, 1),)
        # The docstring formulas, for every n in 3..6 and every strand i.
        for n in range(3, 7):
            for i in range(n - 1):
                fixed = {v: ((v, 1),) for v in range(n) if v not in (i, i + 1)}
                want = {i: ((i, 1), (i + 1, 1), (i, -1)), i + 1: ((i, 1),), **fixed}
                want_inv = {i: ((i + 1, 1),), i + 1: ((i + 1, -1), (i, 1), (i + 1, 1)), **fixed}
                assert sigma_table(n, i).images == tuple(want[v] for v in range(n)), (n, i)
                assert sigma_inv_table(n, i).images == tuple(want_inv[v] for v in range(n)), (n, i)
                assert (sigma_table(n, i).name, sigma_inv_table(n, i).name) == ("s%d" % i, "s%d'" % i)

    def test_inverse_composes_to_identity(self):
        for i in range(3):
            left = compose_tables(sigma_table(4, i), sigma_inv_table(4, i))
            right = compose_tables(sigma_inv_table(4, i), sigma_table(4, i))
            assert left == identity_table(4)
            assert right == identity_table(4)

    def test_braid_relation(self):
        s0, s1 = sigma_table(4, 0), sigma_table(4, 1)
        assert chain_tables([s0, s1, s0]) == chain_tables([s1, s0, s1])

    def test_distant_twists_commute(self):
        s0, s2 = sigma_table(4, 0), sigma_table(4, 2)
        assert compose_tables(s0, s2) == compose_tables(s2, s0)

    def test_index_range(self):
        with pytest.raises(DessinryError):
            sigma_table(4, 3)
        with pytest.raises(DessinryError):
            sigma_inv_table(4, -1)


class TestPureTwists:
    def test_adjacent_twist_images(self):
        a01 = pure_twist_table(4, 0, 1)
        assert a01.images[0] == ((0, 1), (1, 1), (0, 1), (1, -1), (0, -1))
        assert a01.images[1] == ((0, 1), (1, 1), (0, -1))
        assert a01.images[2] == ((2, 1),)
        assert a01.images[3] == ((3, 1),)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_pure_twist_tables_are_pure(self, n):
        for i in range(n):
            for j in range(i + 1, n):
                for power in (1, -1):
                    table = pure_twist_table(n, i, j, power)
                    for v in range(n):
                        assert is_conjugate_of_generator(table.images[v], v), (i, j, power, v)

    def test_twist_times_inverse_twist(self):
        for i, j in [(0, 1), (0, 2), (1, 3)]:
            fw = pure_twist_table(4, i, j, power=1)
            bw = pure_twist_table(4, i, j, power=-1)
            assert compose_tables(fw, bw) == identity_table(4)

    def test_preserves_every_cycle_type(self):
        img = apply_endomorphism(pure_twist_table(4, 1, 3), CHESSBOARD)
        assert core.cycle_profile(img) == core.cycle_profile(CHESSBOARD)
        for res in [apply_endomorphism(g, TREFOIL) for g in preset_pure_generators(3)]:
            assert core.cycle_profile(res) == core.cycle_profile(TREFOIL)

    def test_bad_indices(self):
        with pytest.raises(DessinryError):
            pure_twist_table(4, 2, 2)
        with pytest.raises(DessinryError):
            pure_twist_table(4, 0, 1, power=3)

    def test_preset_pure_names(self):
        gens = preset_pure_generators(4)
        assert [g.name for g in gens] == ["A01", "A02", "A03", "A12", "A13", "A23"]

    def test_preset_gamma2_shape(self):
        hor, ver = preset_gamma2()
        assert (hor.name, ver.name) == ("hor", "ver")
        assert hor.images == pure_twist_table(4, 0, 1, power=1).images
        assert ver.images == pure_twist_table(4, 1, 2, power=-1).images


class TestBoundaryWord:
    """Every preset table maps x_0 x_1 ... x_{n-1} to itself, so the product
    of each orbit image is the identity by substitution."""

    @pytest.mark.parametrize("n", range(3, 9))
    def test_preset_tables_fix_the_boundary_word(self, n):
        boundary = tuple((v, 1) for v in range(n))
        tables = [sigma_table(n, i) for i in range(n - 1)] + [sigma_inv_table(n, i) for i in range(n - 1)]
        tables += preset_pure_generators(n) + (preset_gamma2() if n == 4 else [])
        for table in tables:
            assert word_substitute(boundary, table.images) == boundary, table


def images_in_g(table):
    """The images of x_0..x_{n-2} under a table that fixes the boundary word,
    in G = <x_0..x_{n-1} | x_0 ... x_{n-1}>: x_{n-1} is (x_0 ... x_{n-2})^-1,
    and G is free on the rest."""
    n = table.n
    head = tuple((v, 1) for v in range(n - 1))
    free = [(letter,) for letter in head] + [word_inverse(head)]
    return [word_substitute(w, free) for w in table.images[: n - 1]]


def conjugator(first, second):
    """A word c with c first(x_i) c^-1 = second(x_i) in G for every i, or
    None when there is none: then the tables act alike on classes exactly
    when c exists.

    Both tables send x_0 to conjugates of it, p x_0 p^-1 and q x_0 q^-1.
    The centralizer of x_0 in a free group is <x_0>, so c = q x_0^k p^-1
    for some k.  Conjugating x_1's image by x_0^k adds at least 2|k| letters
    less the letters of both images and of p and q, so the search over
    |k| <= that total decides it."""
    f, s = images_in_g(first), images_in_g(second)
    assert is_conjugate_of_generator(f[0], 0) and is_conjugate_of_generator(s[0], 0)
    p, q = f[0][: len(f[0]) // 2], s[0][: len(s[0]) // 2]
    bound = 2 * (len(p) + len(q)) + len(f[1]) + len(s[1])
    # x_1's image is not a power of x_0, so the length argument applies.
    assert any(idx != 0 for idx, _ in word_reduce(word_inverse(p) + f[1] + p))
    for k in range(-bound, bound + 1):
        c = word_reduce(q + ((0, 1 if k > 0 else -1),) * abs(k) + word_inverse(p))
        if all(word_reduce(c + a + word_inverse(c)) == b for a, b in zip(f, s)):
            return c
    return None


class TestRelations:
    """The relations the orbit closure reads twists off by, proved by an
    oracle of its own: a search for the conjugator in G that carries one
    table's images to the other's.  The pure twists act on classes through
    PMod(S_{0,4}), free on two twists, with the other four given by
    complementary curves and the lantern relation (Farb and Margalit, A
    Primer on Mapping Class Groups, 2012); at n = 3 through the trivial group."""

    def table(self, *names):
        by_name = {g.name: g for g in preset_pure_generators(4) + preset_gamma2()}
        return chain_tables([by_name[name] for name in names]) if names else identity_table(4)

    @pytest.mark.parametrize(
        "left,right",
        [
            (("A23",), ("A01",)),
            (("A03",), ("A12",)),
            (("A02", "A12", "A01"), ()),
            (("A13", "A01", "A12"), ()),
            (("hor",), ("A23",)),
            (("ver", "A03"), ()),
        ],
    )
    def test_relation_at_n4(self, left, right):
        assert conjugator(self.table(*left), self.table(*right)) is not None

    def test_gamma2_tables_are_the_shears(self):
        # Of the twelve twists, the ones that agree with a shear on every
        # class of degree at most 3 are the preset's and their complements.
        classes = [t for d in (1, 2, 3) for t in enumerate_classes(4, d).classes]
        assert len(classes) == 49
        shears = {"hor": origami.delta_hor, "ver": origami.delta_ver}
        twists = [(i, j, power) for i in range(4) for j in range(i + 1, 4) for power in (1, -1)]
        agree = {
            name: [
                (i, j, power)
                for i, j, power in twists
                if all(
                    core.canonical_form(origami.origami_to_dessin(shear(origami.dessin_to_origami(t))))
                    == core.canonical_form(apply_endomorphism(pure_twist_table(4, i, j, power), t))
                    for t in classes
                )
            ]
            for name, shear in shears.items()
        }
        assert agree == {"hor": [(0, 1, 1), (2, 3, 1)], "ver": [(0, 3, -1), (1, 2, -1)]}
        hor, ver = preset_gamma2()
        assert hor.images == pure_twist_table(4, 0, 1, 1).images
        assert ver.images == pure_twist_table(4, 1, 2, -1).images

    def test_a02_and_a13_act_apart(self):
        assert conjugator(self.table("A02"), self.table("A13")) is None

    def test_every_twist_is_inner_at_n3(self):
        for table in preset_pure_generators(3):
            assert conjugator(table, identity_table(3)) is not None, table.name

    def test_read_off_words_follow_the_relations(self):
        assert braid._read_off_words(preset_pure_generators(3), 3) == [(), (), ()]
        # A01 and A02 closed; A03 and A12 are (A01 A02)^-1, A13 is A01 A02 A01^-1, A23 is A01.
        inverse_product = ((1, -1), (0, -1))
        assert braid._read_off_words(preset_pure_generators(4), 4) == [
            None,
            None,
            inverse_product,
            inverse_product,
            ((0, 1), (1, 1), (0, -1)),
            ((0, 1),),
        ]
        assert braid._read_off_words(preset_gamma2(), 4) == [None, None]
        for n in range(5, 9):
            assert braid._read_off_words(preset_pure_generators(n), n) == [None] * (n * (n - 1) // 2)


def check_split_images(table, t):
    """Each image of t under table, evaluated from its split (c^-1, core),
    is _evaluate of the whole word, and the inverse that comes with it
    inverts it; _substituted hands both on."""
    entries, inverses, d = t.perms, t._inverse_perms(), t.d
    image = braid._substituted(table, t)
    for k, (w, (tail, core)) in enumerate(zip(table.images, table.splits)):
        assert word_inverse(tail) + core + tail == w
        # c is as long as the reduced word allows.
        assert len(core) < 3 or core[0] != (core[-1][0], -core[-1][1])
        entry, back = braid._evaluate_split((tail, core), entries, inverses, d)
        assert entry == braid._evaluate(w, entries, inverses, d) == image.perms[k]
        assert perms.compose(entry, back) == perms.identity(d)
        assert back == image._inverse_perms()[k]


conjugates = st.tuples(words, words).map(lambda cw: word_reduce(cw[0] + cw[1] + word_inverse(cw[0])))


class TestSplitEvaluation:
    """Tables split each image word once into c core c^-1; an image is the
    core relabeled by c^-1, its inverse from the same pass."""

    @pytest.mark.parametrize("n", range(3, 7))
    def test_preset_tables(self, n):
        rng = random.Random(n)
        t = MonodromyTuple([tuple(rng.sample(range(6), 6)) for _ in range(n)])
        tables = [sigma_table(n, i) for i in range(n - 1)] + [sigma_inv_table(n, i) for i in range(n - 1)]
        tables += preset_pure_generators(n) + (preset_gamma2() if n == 4 else [])
        for table in tables:
            check_split_images(table, t)

    @given(
        st.lists(st.one_of(words, conjugates), min_size=4, max_size=4),
        st.lists(st.permutations(range(5)).map(tuple), min_size=4, max_size=4),
    )
    @example([(), ((0, 1), (1, 1)), ((0, 1), (1, 1), (0, -1)), ((2, -1),)], [(1, 2, 3, 4, 0)] * 4)
    @example([((0, 1), (1, 1), (2, 1), (0, -1)), ((3, -1), (1, 1), (2, -1), (3, 1)), (), ()], [(1, 0, 2, 4, 3)] * 4)
    def test_drawn_tables(self, images, entries):
        # Empty words, words that are not conjugates, and conjugates of
        # words of any length.
        check_split_images(EndomorphismTable(4, images), MonodromyTuple(entries))


# The d = 7 class whose Gamma(2) orbit has 2376 elements.
GAMMA2_D7 = MonodromyTuple(
    [(3, 4, 6, 5, 0, 1, 2), (5, 1, 6, 2, 0, 4, 3), (5, 3, 2, 1, 0, 4, 6), (3, 2, 0, 5, 4, 1, 6)]
)


# The census pool's braid seeds of degree 5, 6 and 7: three orbits under the
# pure twists, three under gamma2 (the last is GAMMA2_D7).
CENSUS_CLASSES = tuple(
    MonodromyTuple(t)
    for t in (
        [(1, 4, 3, 2, 0), (0, 4, 2, 3, 1), (1, 2, 0, 3, 4), (3, 4, 1, 2, 0)],
        [(1, 0, 4, 3, 5, 2), (3, 1, 4, 0, 2, 5), (0, 4, 5, 1, 3, 2), (3, 1, 4, 5, 0, 2)],
        [(6, 1, 2, 0, 5, 3, 4), (3, 2, 5, 4, 1, 0, 6), (1, 0, 4, 6, 2, 5, 3), (6, 4, 5, 0, 1, 2, 3)],
        [(3, 2, 1, 0, 4), (1, 3, 2, 4, 0), (1, 4, 2, 3, 0), (0, 4, 1, 2, 3)],
        [(5, 0, 4, 1, 3, 2), (5, 1, 0, 3, 2, 4), (2, 0, 3, 5, 4, 1), (3, 1, 5, 2, 0, 4)],
        [(3, 4, 6, 5, 0, 1, 2), (5, 1, 6, 2, 0, 4, 3), (5, 3, 2, 1, 0, 4, 6), (3, 2, 0, 5, 4, 1, 6)],
    )
)


def random_valid_tuple(rng, n, d):
    """A valid tuple of shape (n, d), g_{n-1} forced by the product constraint."""
    while True:
        head = [tuple(rng.sample(range(d), d)) for _ in range(n - 1)]
        t = MonodromyTuple(head + [perms.inverse(perms.compose_all(head, d))])
        if core.is_valid(t):
            return t


class TestSourceImages:
    """The images of one source under every table, evaluated from its
    inverses taken once, are the canonical forms of the per-table images;
    tables that do not fix the boundary word are checked as
    apply_endomorphism checks them."""

    @pytest.mark.parametrize("n", range(3, 7))
    def test_against_apply_endomorphism(self, n):
        rng = random.Random(n)
        table_sets = [preset_pure_generators(n)] + [[sigma_table(n, i)] for i in range(n - 1)]
        table_sets += [preset_gamma2()] if n == 4 else []
        for d in range(1, 8):
            for _ in range(3):
                t = random_valid_tuple(rng, n, d)
                for tables in table_sets:
                    want = [core.canonical_form(apply_endomorphism(g, t)).perms for g in tables]
                    assert braid._source_images(tables, n, d)(t.perms) == want

    @pytest.mark.parametrize(
        "name,gens",
        [("swap", []), ("swap", preset_gamma2()), (None, [])],
        ids=["alone", "after-gamma2", "unnamed"],
    )
    def test_table_that_breaks_the_boundary_word(self, name, gens):
        # x0 and x1 swapped without a conjugation: x0 x1 x2 x3 goes to x1 x0 x2 x3.
        swap = EndomorphismTable(4, [((1, 1),), ((0, 1),), ((2, 1),), ((3, 1),)], name=name or "")
        with pytest.raises(DessinryError) as exc:
            braid_orbit([GAMMA2_D7], gens + [swap])
        label = "'swap'" if name else "EndomorphismTable(n=4: x1; x0; x2; x3)"
        assert exc.value.code == "invalid-result"
        assert exc.value.message == (
            "endomorphism %s does not preserve tuple space: "
            "violated: product of the permutations is (2, 6, 5, 1, 3, 4, 0), not the identity" % label
        )

    def test_table_that_breaks_the_boundary_word_but_not_tuple_space(self):
        # Every letter conjugated by x0: the image is a relabeling, so each
        # element is its own image, though the boundary word is not fixed.
        conj = EndomorphismTable(4, [((0, 1), (v, 1), (0, -1)) for v in range(4)], name="conj")
        res = braid_orbit([GAMMA2_D7], preset_gamma2() + [conj])
        assert res.elements == braid_orbit([GAMMA2_D7], preset_gamma2()).elements
        assert all(src == dst for src, name, dst in res.generator_log if name == "conj")

    @pytest.mark.parametrize("n", [3, 5])
    def test_table_of_the_wrong_n(self, n):
        with pytest.raises(DessinryError) as exc:
            braid_orbit([GAMMA2_D7], preset_gamma2() + preset_pure_generators(n)[:1])
        assert (exc.value.code, exc.value.message) == ("index-out-of-range", "table has n=%d, tuple has n=4" % n)

    def test_inversions_are_n_per_element(self, inverse_calls):
        # One per entry of each element as a source, and the seed's own in canonical_form.
        res = braid_orbit([MonodromyTuple(GAMMA2_D7.perms)], preset_gamma2())
        assert len(res.elements) == 2376
        assert len(inverse_calls) == 4 * (len(res.elements) + 1)


def star_seed(d):
    """((0 1), (0 2), ..., (0 d-1), (0 d-1), ..., (0 1)): n = 2d - 2 simple
    branch points, genus 0, transitive."""
    half = [perms.from_cycles(d, [(0, k)]) for k in range(1, d)]
    return MonodromyTuple(half + half[::-1])


class TestHurwitzOrbit:
    """Hurwitz (Math. Ann. 39, 1891): the genus-0 covers of degree d with
    2d - 2 simple branch points number d^(d-3) (2d-2)! labelled transitive
    tuples, and by Clebsch they form one braid orbit.  So the orbit of the
    star seed weighs each class by d!/|C| to exactly that count, which ties
    braid_orbit, the kernel and centralizer_order to a closed form."""

    @pytest.mark.parametrize("d,classes", [(3, 4), (4, 120)])
    @pytest.mark.parametrize("preset", ["sigma", "pure"])
    def test_star_orbit_is_every_simply_branched_class(self, d, classes, preset):
        n = 2 * d - 2
        gens = [sigma_table(n, i) for i in range(n - 1)] if preset == "sigma" else preset_pure_generators(n)
        res = braid_orbit([star_seed(d)], gens)
        assert len(res.elements) == classes
        weight = sum(factorial(d) // core.centralizer_order(t) for t in res.elements)
        assert weight == d ** (d - 3) * factorial(2 * d - 2)


def log_components(res):
    """The connected components of the generator log, found by a search
    over its edges taken both ways."""
    adjacent = [set() for _ in res.elements]
    for src, _name, dst in res.generator_log:
        adjacent[src].add(dst)
        adjacent[dst].add(src)
    comps, unseen = [], set(range(len(res.elements)))
    while unseen:
        comp, frontier = set(), [min(unseen)]
        while frontier:
            k = frontier.pop()
            if k in unseen:
                unseen.discard(k)
                comp.add(k)
                frontier.extend(adjacent[k])
        comps.append(comp)
    return comps


class TestOrbit:
    @pytest.mark.parametrize(
        "seeds,gens",
        [
            (lambda: enumerate_classes(4, 4).classes, lambda: preset_pure_generators(4)),
            (lambda: enumerate_classes(4, 4).classes, preset_gamma2),
            (lambda: enumerate_classes(4, 3).classes, preset_gamma2),
            (lambda: enumerate_classes(5, 3).classes, lambda: preset_pure_generators(5)),
            (lambda: [star_seed(4)], lambda: preset_pure_generators(6)),
        ],
        ids=["n4d4-pure", "n4d4-gamma2", "n4d3-gamma2", "n5d3-pure", "star4-pure"],
    )
    def test_orbits_are_the_components_of_the_log(self, seeds, gens):
        res = braid_orbit(seeds(), gens())
        assert sorted(k for orbit in res.orbits for k in orbit) == list(range(len(res.elements)))
        where = {k: pos for pos, orbit in enumerate(res.orbits) for k in orbit}
        for src, _name, dst in res.generator_log:
            assert where[src] == where[dst]
        assert all(list(orbit) == sorted(orbit) for orbit in res.orbits)
        assert [orbit[0] for orbit in res.orbits] == sorted(orbit[0] for orbit in res.orbits)
        assert sorted(map(set, res.orbits), key=min) == sorted(log_components(res), key=min)
        assert all(type(orbit) is tuple for orbit in res.orbits)

    def test_seed_always_in_orbit(self):
        res = braid_orbit([CHESSBOARD], preset_gamma2())
        canon = core.canonical_form(CHESSBOARD)
        assert canon in res.elements

    def test_log_covers_every_pair(self):
        gens = preset_pure_generators(4)
        res = braid_orbit([CHESSBOARD], gens)
        assert len(res.generator_log) == len(res.elements) * len(gens)
        for src, name, dst in res.generator_log:
            assert 0 <= src < len(res.elements)
            assert 0 <= dst < len(res.elements)
            assert name.startswith("A")

    def test_orbit_is_seed_independent(self):
        gens = preset_gamma2()
        first = braid_orbit([TREFOIL_N4], gens)
        for element in first.elements:
            again = braid_orbit([element], gens)
            assert again.elements == first.elements

    def test_elements_sorted_and_canonical(self):
        res = braid_orbit([CHESSBOARD], preset_gamma2())
        keys = [t.perms for t in res.elements]
        assert keys == sorted(keys)
        for t in res.elements:
            assert core.canonical_form(t) == t

    def test_rejects_empty_and_mixed_seeds(self):
        with pytest.raises(DessinryError):
            braid_orbit([], preset_gamma2())
        with pytest.raises(DessinryError):
            braid_orbit([CHESSBOARD, TREFOIL_N4], preset_pure_generators(4))

    def test_log_matches_direct_images(self):
        # Edges read off the closed orbit as words are the direct images too.
        cases = [
            ([TRANSPOSITIONS], preset_pure_generators(4)),
            (CENSUS_CLASSES, preset_pure_generators(4)),
            (CENSUS_CLASSES, preset_gamma2()),
            ([t for d in range(1, 5) for t in enumerate_classes(4, d).classes], preset_pure_generators(4)),
            ([t for d in range(1, 6) for t in enumerate_classes(3, d).classes], preset_pure_generators(3)),
            (enumerate_classes(5, 3).classes[::25], preset_pure_generators(5)),
        ]
        for seeds, gens in cases:
            by_name = {g.name: g for g in gens}
            for shape in sorted({(t.n, t.d) for t in seeds}):
                res = braid_orbit([t for t in seeds if (t.n, t.d) == shape], gens)
                assert len(res.generator_log) == len(res.elements) * len(gens)
                for src, name, dst in res.generator_log:
                    image = core.canonical_form(apply_endomorphism(by_name[name], res.elements[src]))
                    assert image == res.elements[dst]

    def test_kernel_calls_per_element(self, monkeypatch):
        # The seeds are made canonical through core, so the kernel calls that
        # go through braid are the images under the closed tables: A01 and
        # A02 of pure(4), none of pure(3), and both gamma2 tables.
        calls = []
        original = braid._canonical_key

        def counting(perms, inverses):
            calls.append(perms)
            return original(perms, inverses)

        monkeypatch.setattr(braid, "_canonical_key", counting)
        cases = [
            ([TRANSPOSITIONS], preset_pure_generators(4), 2),
            ([CENSUS_CLASSES[2]], preset_pure_generators(4), 2),
            ([TREFOIL], preset_pure_generators(3), 0),
            (enumerate_classes(3, 5).classes, preset_pure_generators(3), 0),
            ([CENSUS_CLASSES[5]], preset_gamma2(), 2),
        ]
        for seeds, gens, per_element in cases:
            calls.clear()
            res = braid_orbit(seeds, gens)
            assert len(calls) == per_element * len(res.elements)

    def test_orbit_names_a_table_that_breaks_transitivity(self):
        # Every letter to the empty word: the product is still the
        # identity, but the image acts trivially on three sheets.
        kill = EndomorphismTable(4, [(), (), (), ()], name="kill")
        with pytest.raises(DessinryError) as exc:
            braid_orbit([TREFOIL_N4], preset_gamma2() + [kill])
        assert exc.value.code == "invalid-result"
        assert exc.value.message.startswith("endomorphism 'kill' does not preserve tuple space: violated: not transitive")

    def test_not_onto_table_that_fixes_the_boundary_word(self):
        # x0 -> 1, x1 -> x0 x1, x2 -> x2 fixes x0 x1 x2 but is not onto, so
        # its image can be intransitive: the kernel's None reports it.
        g0, g2 = perms.from_cycles(3, [(0, 1, 2)]), perms.from_cycles(3, [(0, 1)])
        seed = MonodromyTuple([g0, perms.inverse(perms.compose(g2, g0)), g2])
        table = EndomorphismTable(3, [(), ((0, 1), (1, 1)), ((2, 1),)], name="x")
        assert word_substitute(((0, 1), (1, 1), (2, 1)), table.images) == ((0, 1), (1, 1), (2, 1))
        # It is no braid automorphism, so it is closed under, never read off,
        # even where every pure twist is.
        assert braid._read_off_words(preset_pure_generators(3) + [table], 3) == [(), (), (), None]
        for gens in ([table], preset_pure_generators(3) + [table]):
            with pytest.raises(DessinryError) as exc:
                braid_orbit([seed], gens)
            assert exc.value.code == "invalid-result"
            assert exc.value.message == (
                "endomorphism 'x' does not preserve tuple space: "
                "violated: not transitive, sheet 1 is not reachable from sheet 0"
            )

    def test_boundary_fixing_images_are_checked_only_by_the_kernel(self, monkeypatch):
        # validate, compose_all and sheets_reached run once, on the seed.
        calls = []
        for name in ("compose_all", "sheets_reached"):
            original = getattr(core, name)
            monkeypatch.setattr(core, name, lambda *a, f=original, name=name: calls.append(name) or f(*a))
        monkeypatch.setattr(braid, "validate", lambda t: pytest.fail("an image was validated"))
        res = braid_orbit([TRANSPOSITIONS], preset_pure_generators(4) + [sigma_table(4, 0), sigma_inv_table(4, 2)])
        assert len(res.elements) > 1
        assert sorted(calls) == ["compose_all", "sheets_reached"]

    def test_closure_rejects_non_injective_operation(self):
        with pytest.raises(DessinryError) as exc:
            orbit_closure([0, 1, 2, 3], ["half"], lambda x: [x // 2], int)
        assert exc.value.code == "invalid-result"
        assert "half" in exc.value.message
