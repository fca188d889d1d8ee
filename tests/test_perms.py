import pytest
from hypothesis import given, strategies as st

from dessinry import perms


def cycle_type(p):
    """Partition of d given by the cycle lengths, sorted descending."""
    return tuple(sorted((len(c) for c in perms.cycles(p)), reverse=True))


def random_perm(d):
    return st.permutations(range(d)).map(tuple)


perm_strategy = st.integers(min_value=1, max_value=6).flatmap(random_perm)


def test_compose_applies_left_factor_first():
    # p sends 0 -> 1, q sends 1 -> 2, so the composite sends 0 -> 2.
    p = (1, 0, 2)
    q = (0, 2, 1)
    assert perms.compose(p, q)[0] == 2


def test_compose_all_empty_is_identity():
    assert perms.compose_all([], 3) == (0, 1, 2)


@given(perm_strategy)
def test_inverse_undoes(p):
    d = len(p)
    assert perms.compose(p, perms.inverse(p)) == perms.identity(d)
    assert perms.compose(perms.inverse(p), p) == perms.identity(d)


@given(st.integers(min_value=1, max_value=5).flatmap(
    lambda d: st.tuples(random_perm(d), random_perm(d), random_perm(d))))
def test_compose_associative(triple):
    p, q, r = triple
    assert perms.compose(perms.compose(p, q), r) == perms.compose(p, perms.compose(q, r))


def test_is_perm_rejects_bools_and_bad_shapes():
    assert perms.is_perm((0, 1), 2)
    assert not perms.is_perm((True, False), 2)
    assert not perms.is_perm((0, 0), 2)
    assert not perms.is_perm((0, 1, 2), 2)


def test_cycles_orders_by_minimum():
    p = perms.from_cycles(5, [(1, 3), (2, 4)])
    assert perms.cycles(p) == [(0,), (1, 3), (2, 4)]
    assert cycle_type(p) == (2, 2, 1)


def test_from_cycles_roundtrip():
    p = (1, 2, 0, 4, 3)
    rebuilt = perms.from_cycles(5, [c for c in perms.cycles(p) if len(c) > 1])
    assert rebuilt == p


@given(st.integers(min_value=1, max_value=5).flatmap(
    lambda d: st.tuples(random_perm(d), random_perm(d))))
def test_relabel_is_conjugation(pair):
    p, pi = pair
    q = perms.relabel(p, pi)
    # q = pi^-1 p pi in apply-left-first ordering
    assert q == perms.compose(perms.compose(perms.inverse(pi), p), pi)
    assert cycle_type(q) == cycle_type(p)


def test_acts_transitively():
    assert perms.acts_transitively([(1, 0, 2), (0, 2, 1)], 3)
    assert not perms.acts_transitively([(0, 1, 2)], 3)
    assert perms.acts_transitively([(0,)], 1)


def test_cycles_str():
    assert perms.cycles_str((0, 1, 2)) == "id"
    assert perms.cycles_str((1, 0, 2)) == "(0 1)"
    assert perms.cycles_str((1, 2, 0, 4, 3)) == "(0 1 2)(3 4)"


def test_from_cycles_rejects_overlap():
    with pytest.raises(ValueError):
        perms.from_cycles(4, [(0, 1), (1, 2)])


def test_from_cycles_rejects_entry_out_of_range():
    with pytest.raises(ValueError, match="cycle entry 4 out of range for degree 4"):
        perms.from_cycles(4, [(0, 4)])
