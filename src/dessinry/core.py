"""Monodromy tuples for branched covers of the sphere with n ordered branch
points.

A degree-d cover of the sphere branched over n ordered points, with the
fiber over a base point labeled 0..d-1, is recorded by the tuple
(g_0, ..., g_{n-1}) of permutations obtained by lifting one positively
oriented lasso per branch point.  The two semantic invariants are

  * product constraint: g_0 g_1 ... g_{n-1} = id (left-to-right product),
  * transitivity: the g_v generate a group with one orbit, so the cover is
    connected.

Relabeling the fiber conjugates all g_v simultaneously; covers are
isomorphic exactly when their tuples are simultaneously conjugate.  This
module provides the tuple type, a canonical representative per conjugacy
class, and the basic invariants (genus, ramification profile, normality)
plus the orientation-reversal involution.

Only n >= 3 is accepted: with fewer branch points the interesting examples
degenerate and several downstream conventions (suffix conjugation in
orientation_reverse, braid index ranges) would need special cases.
"""

from .errors import DessinryError
from .perms import (
    compose,
    compose_all,
    cycles,
    cycles_text,
    identity,
    inverse,
    is_perm,
    sheets_reached,
)


class MonodromyTuple:
    """An ordered tuple of n >= 3 permutations of {0, ..., d-1}.

    Structural soundness (shape, genuine permutations, d >= 1) is enforced
    here; the semantic invariants are checked by validate(), so that broken
    tuples can still be constructed, inspected and diagnosed.
    """

    __slots__ = ("perms", "_inverses")

    def __init__(self, perms):
        try:
            perms = tuple(tuple(p) for p in perms)
        except TypeError:
            raise DessinryError("invalid-tuple", "need a sequence of permutations, got %r" % (perms,)) from None
        if len(perms) < 3:
            raise DessinryError("invalid-tuple", "need at least 3 permutations, got %d" % len(perms))
        d = len(perms[0])
        if d < 1:
            raise DessinryError("invalid-tuple", "degree must be at least 1")
        for v, p in enumerate(perms):
            if not is_perm(p, d):
                raise DessinryError(
                    "invalid-tuple",
                    "entry %d is not a permutation of 0..%d: %r" % (v, d - 1, p),
                )
        object.__setattr__(self, "perms", perms)

    @classmethod
    def _trusted(cls, perms):
        """Wrap a tuple of permutation tuples of one degree, n >= 3, without
        the structural checks: for results built from permutations already
        checked, such as relabelings, products and inverses of them."""
        t = object.__new__(cls)
        object.__setattr__(t, "perms", perms)
        return t

    def _inverse_perms(self):
        """The inverses of the entries, built on the first call and kept."""
        try:
            return self._inverses
        except AttributeError:
            object.__setattr__(self, "_inverses", tuple(inverse(p) for p in self.perms))
            return self._inverses

    @property
    def n(self):
        return len(self.perms)

    @property
    def d(self):
        return len(self.perms[0])

    def __eq__(self, other):
        return isinstance(other, MonodromyTuple) and self.perms == other.perms

    def __hash__(self):
        return hash(self.perms)

    def __repr__(self):
        return "MonodromyTuple(%r)" % (self.perms,)

    def __setattr__(self, name, value):
        raise AttributeError("MonodromyTuple is immutable")


def validate(t):
    """Return 'ok', or a diagnostic naming the first violated invariant.

    Total on all structurally sound tuples; never raises.
    """
    prod = compose_all(t.perms, t.d)
    if prod != identity(t.d):
        return "violated: product of the permutations is %r, not the identity" % (prod,)
    reached = sheets_reached(t.perms, t.d)
    if not all(reached):
        return "violated: not transitive, sheet %d is not reachable from sheet 0" % reached.index(False)
    return "ok"


def is_valid(t):
    return validate(t) == "ok"


def _require_valid(t):
    diag = validate(t)
    if diag != "ok":
        raise DessinryError("invalid-tuple", diag)


def _canonical_key(perms):
    """The least breadth-first relabeling of a raw tuple, and how many base
    sheets reach it; None when the tuple is not transitive.

    perms is a tuple of permutation tuples of one degree; the product
    constraint is not checked here.  For each base sheet b the fiber is
    relabeled in breadth-first discovery order, probing the generators
    g_0..g_{n-1} and then their inverses in that fixed order.  The first
    pass walks the orbit of its base; when it labels fewer than d sheets
    the tuple is not transitive and None is returned, and otherwise every
    relabeling is total.  The relabeled entries are built g_0 first, and a
    base is dropped at the first entry that exceeds the least relabeling
    found so far.  Two bases reach the same relabeling exactly when a
    centralizing permutation carries one to the other, and the centralizer
    of a transitive group acts semiregularly, so the count is the order of
    the simultaneous centralizer.

    Only bases that can win are tried.  The relabeled g_0 begins (0, ...)
    exactly at a fixed point of g_0, and (1, 0, ...) exactly on a 2-cycle
    of it (g_0 is probed first, so g_0(base) gets label 1), so the fixed
    points are tried when there are any, else the points on 2-cycles, else
    all.  Every base that reaches the least relabeling is among those
    tried, so the count is unchanged.
    """
    d = len(perms[0])
    g0 = perms[0]
    gens = perms + tuple(inverse(p) for p in perms)
    best = None
    count = 0
    bases = [b for b in range(d) if g0[b] == b] or [b for b in range(d) if g0[g0[b]] == b] or range(d)
    for base in bases:
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
            if nxt == d:
                break
        if best is None:
            if nxt < d:
                return None
            best = tuple(tuple([lab[p[v]] for v in order]) for p in perms)
            count = 1
            continue
        for k, p in enumerate(perms):
            entry = tuple([lab[p[v]] for v in order])
            if entry != best[k]:
                break
        else:
            count += 1
            continue
        if entry < best[k]:
            best = best[:k] + (entry,) + tuple(tuple([lab[p[v]] for v in order]) for p in perms[k + 1 :])
            count = 1
    return best, count


def canonical_form(t):
    """Lexicographically least relabeling over all breadth-first orders.

    Every conjugating permutation is realized by some (base sheet, BFS)
    choice up to the final lexicographic minimum, so two tuples get the
    same canonical form exactly when they are simultaneously conjugate.
    """
    _require_valid(t)
    return MonodromyTuple._trusted(_canonical_key(t.perms)[0])


def isomorphic(a, b):
    if a.n != b.n or a.d != b.d:
        return False
    return canonical_form(a).perms == canonical_form(b).perms


def _cycle_data(perms):
    """Cycle strings, genus and ramification profile of a raw tuple, from
    one cycles() pass per entry; nothing is checked about the tuple."""
    d = len(perms[0])
    decomposed = [cycles(p) for p in perms]
    profile = tuple(tuple(sorted(map(len, cycs), reverse=True)) for cycs in decomposed)
    chi = 2 * d - sum(d - len(part) for part in profile)
    return [cycles_text(cycs) for cycs in decomposed], (2 - chi) // 2, profile


def cycle_profile(t):
    """Ramification profile: one partition of d per color, in color order.

    Each partition is sorted descending, e.g. (2, 1, 1) for a simple branch
    point of a degree-4 cover.
    """
    _require_valid(t)
    return _cycle_data(t.perms)[2]


def genus(t):
    """Genus of the covering surface, from the Euler characteristic.

    chi = 2d - sum over colors of (d - #cycles); genus = (2 - chi) / 2.
    """
    _require_valid(t)
    return _cycle_data(t.perms)[1]


def is_normal(t):
    """True when the cover is normal (Galois, regular).

    The centralizer of a transitive group acts semiregularly, so its order
    is at most d, with equality exactly when it is transitive, that is when
    the group itself is regular (of order d).
    """
    return centralizer_order(t) == t.d


def orientation_reverse(t):
    """Monodromy of the same cover with the base orientation reversed.

    Reversing orientation inverts every local rotation; re-routing the
    lassos into a positively ordered family again conjugates each inverted
    generator by the suffix product of the later ones:

        g'_0 = g_0^-1,   g'_v = S_v^-1 g_v^-1 S_v   with
        S_v = g_{v+1} ... g_{n-1}  (left-to-right, S_{n-1} = id).

    The total product telescopes back to the identity, so the result is
    again a valid tuple, and applying the map twice lands in the same
    conjugacy class (an involution on isomorphism classes).
    """
    _require_valid(t)
    n, d = t.n, t.d
    suffix = [identity(d)] * n
    for v in range(n - 2, 0, -1):
        suffix[v] = compose(t.perms[v + 1], suffix[v + 1])
    out = [inverse(t.perms[0])]
    for v in range(1, n):
        s = suffix[v]
        out.append(compose(compose(inverse(s), inverse(t.perms[v])), s))
    return MonodromyTuple._trusted(tuple(out))


def centralizer_order(t):
    """Order of the simultaneous centralizer of the tuple in Sym(d).

    Counted by the same pass as the canonical form: the number of base
    sheets whose breadth-first relabeling is the least one.
    """
    _require_valid(t)
    return _canonical_key(t.perms)[1]


def from_json(obj):
    """The tuple of the CLI's JSON {n, d, perms, ...}; raises invalid-tuple on malformed input."""
    try:
        n = obj["n"]
        d = obj["d"]
        perms = obj["perms"]
    except (TypeError, KeyError) as exc:
        raise DessinryError("invalid-tuple", "missing field %s" % exc) from None
    if not isinstance(perms, (list, tuple)) or len(perms) != n:
        raise DessinryError("invalid-tuple", "perms length does not match n=%r" % (n,))
    t = MonodromyTuple(perms)
    if t.d != d:
        raise DessinryError("invalid-tuple", "declared d=%r but permutations act on %d points" % (d, t.d))
    return t
