"""Square tilings by alternating white and grey unit squares (n = 4 case).

A bipartite origami is a surface glued from m white and m grey unit
squares, where each white edge is glued to a grey edge of the matching
kind: white-right to grey-left (R), white-left to grey-right (L),
white-upper to grey-upper (U), white-lower to grey-lower (D).  The four
gluing bijections White -> Grey determine the surface; its corners carry
four vertex colors (0 lower-left of a white square, 1 lower-right, 2
upper-right, 3 upper-left), and walking the squares around a vertex of
color v induces a permutation g_v of the white squares.  This identifies
bipartite origamis with monodromy tuples of shape (4, m).

Corner tracing gives the closed forms (apply the inner map first):

    g_0 = D^-1 L,   g_1 = R^-1 D,   g_2 = U^-1 R,   g_3 = L^-1 U,

whose product telescopes to the identity.  The inverse construction
relabels grey squares so that D = id.

The two shear rewrites delta_hor and delta_ver cut every square along a
diagonal line of slope 1/2 (resp. 2), reassemble the pieces, and restretch
to unit squares; combinatorially they act directly on (R, L, U, D), with
the new white squares indexed by the old grey ones.  The absolute shear
direction is pinned by a gate test on a six-square pair whose two members
are related by delta_hor but are not isomorphic (see tests/data/
shear_gate_pair.json); the inverse rewrites undo the forward ones exactly,
not merely up to isomorphism.
"""

from .core import MonodromyTuple, _canonical_key, _json_fields, _require_valid, canonical_form
from .errors import DessinryError
from .perms import acts_transitively, compose, identity, inverse, is_perm


class BipartiteOrigami:
    """Gluing data (R, L, U, D) on m white and m grey squares.

    Structural demands (equal lengths, entries in range) are enforced at
    construction; bijectivity and connectivity are semantic and live in
    validate_origami, so defective gluings can be built and diagnosed.
    """

    __slots__ = ("R", "L", "U", "D")

    def __init__(self, R, L, U, D):
        maps = []
        for label, seq in zip("RLUD", (R, L, U, D)):
            try:
                maps.append(tuple(seq))
            except TypeError:
                raise DessinryError("invalid-origami", "%s is not a sequence of grey indices: %r" % (label, seq)) from None
        m = len(maps[0])
        if m < 1:
            raise DessinryError("invalid-origami", "need at least one square")
        for label, seq in zip("RLUD", maps):
            if len(seq) != m:
                raise DessinryError("invalid-origami", "%s has length %d, expected %d" % (label, len(seq), m))
            for x in seq:
                if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < m:
                    raise DessinryError("invalid-origami", "%s contains %r, not a grey index below %d" % (label, x, m))
        self.R, self.L, self.U, self.D = maps

    @classmethod
    def _trusted(cls, R, L, U, D):
        """Gluing data built from maps already known to be in range, such
        as products and inverses of checked bijections, without the checks."""
        o = object.__new__(cls)
        o.R, o.L, o.U, o.D = R, L, U, D
        return o

    @property
    def m(self):
        return len(self.R)

    def __eq__(self, other):
        return isinstance(other, BipartiteOrigami) and (self.R, self.L, self.U, self.D) == (
            other.R,
            other.L,
            other.U,
            other.D,
        )

    def __hash__(self):
        return hash((self.R, self.L, self.U, self.D))

    def __repr__(self):
        return "BipartiteOrigami(R=%r, L=%r, U=%r, D=%r)" % (self.R, self.L, self.U, self.D)


def _valid_corners(o):
    """The corner permutations of o and their inverses (_dessin_perms), or
    invalid-origami naming the first violated gluing condition."""
    for label, seq in zip("RLUD", (o.R, o.L, o.U, o.D)):
        if not is_perm(seq, o.m):
            raise DessinryError("invalid-origami", "violated: %s is not a bijection onto the grey squares" % label)
    corners = _dessin_perms(o)
    # Every grey square is glued to a white one, so the gluing graph is
    # connected when its white squares are.  A step white -> grey -> white
    # leaves by one gluing X and returns by another Y, and the corner
    # permutations, the steps for (L, D), (D, R), (R, U), (U, L) in turn,
    # generate every such step.
    if not acts_transitively(corners[0], o.m):
        raise DessinryError("invalid-origami", "violated: gluing graph is not connected")
    return corners


def validate_origami(o):
    """'ok', or a diagnostic naming the violated gluing condition."""
    try:
        _valid_corners(o)
    except DessinryError as exc:
        return exc.message
    return "ok"


def _corners(g, gi):
    """Corner permutations g_0..g_3 of the gluings g = (R, L, U, D), and their
    inverses, composed from the gluings and their inverses gi."""
    R, L, U, D = g
    Rinv, Linv, Uinv, Dinv = gi
    return (
        (compose(L, Dinv), compose(D, Rinv), compose(R, Uinv), compose(U, Linv)),
        (compose(D, Linv), compose(R, Dinv), compose(U, Rinv), compose(L, Uinv)),
    )


def _dessin_perms(o):
    """Corner permutations g_0..g_3 of bijective gluing data, and their
    inverses, composed from the same four inverted gluings."""
    g = (o.R, o.L, o.U, o.D)
    return _corners(g, tuple(map(inverse, g)))


def _gluings_of(perms):
    """Gluings (R, L, U, D), with D = id, of a valid 4-colored tuple of
    permutations.  With D = id the corner formulas give L = g_0, R = g_1^-1
    and U = L g_3, and by the product constraint g_1^-1 is g_2, then g_3,
    then g_0, so nothing is inverted."""
    g0, _, g2, g3 = perms
    return tuple([g0[g3[x]] for x in g2]), g0, compose(g3, g0), identity(len(g0))


def origami_to_dessin(o):
    """Monodromy tuple on the white squares, one permutation per corner color."""
    return MonodromyTuple._trusted(_valid_corners(o)[0])


def dessin_to_origami(t):
    """Origami carrying the given 4-colored tuple; grey labels fixed by D = id."""
    _require_valid(t)
    if t.n != 4:
        raise DessinryError("invalid-tuple", "need exactly 4 colors, got n=%d" % t.n)
    return BipartiteOrigami._trusted(*_gluings_of(t.perms))


def isomorphic_origami(a, b):
    if a.m != b.m:
        return False
    return canonical_form(origami_to_dessin(a)) == canonical_form(origami_to_dessin(b))


def canonical_origami(o):
    """Canonical representative of the relabeling class; idempotent."""
    return BipartiteOrigami._trusted(*_gluings_of(_canonical_key(*_valid_corners(o))[0]))


# The shear rewrites on the gluings g = (R, L, U, D) of valid gluing data
# and their inverses gi, unchecked: the orbit closure feeds them canonical
# origamis, which are valid by construction.  Each returns the image's
# gluings and their inverses, composed from g and gi, so no image is
# inverted; each image is valid when the input is.  Only the horizontal
# shear is written out: its inverse is its mirror image (R and L swapped),
# and the vertical pair is the horizontal pair turned a quarter (R with U,
# L with D).  Mirror and turn act on gluings and inverses alike.


def _chain(a, b, c):
    """a, then b, then c."""
    return tuple([c[b[x]] for x in a])


def _hor(g, gi):
    R, L, U, D = g
    Rinv, Linv, Uinv, Dinv = gi
    return (
        (Linv, Rinv, _chain(Linv, U, Rinv), _chain(Rinv, D, Linv)),
        (L, R, _chain(R, Uinv, L), _chain(L, Dinv, R)),
    )


def _mirror(g):
    R, L, U, D = g
    return L, R, U, D


def _turn(g):
    R, L, U, D = g
    return U, D, R, L


def _derived(outer, inner):
    """The shear outer . _hor . inner."""

    def shear(g, gi):
        h, hinv = _hor(inner(g), inner(gi))
        return outer(h), outer(hinv)

    return shear


# The shears by their --op names, in the order the orbit log lists them.
_SHEARS = {
    "hor": _hor,
    "ver": _derived(_turn, _turn),
    "hor-inv": _derived(_mirror, _mirror),
    "ver-inv": _derived(lambda g: _turn(_mirror(g)), lambda g: _mirror(_turn(g))),
}


def _delta(o, name):
    """The shear named name, after validating o."""
    _valid_corners(o)
    g = (o.R, o.L, o.U, o.D)
    return BipartiteOrigami._trusted(*_SHEARS[name](g, tuple(map(inverse, g)))[0])


def delta_hor(o):
    """Horizontal shear rewrite; new white squares are the old grey ones."""
    return _delta(o, "hor")


def delta_hor_inv(o):
    return _delta(o, "hor-inv")


def delta_ver(o):
    """Vertical shear rewrite; new white squares are the old grey ones."""
    return _delta(o, "ver")


def delta_ver_inv(o):
    return _delta(o, "ver-inv")


def _shear_images(g):
    """The canonical gluings of the hor and ver images of the gluings g of a
    valid origami, in that order.  g is inverted once; each image's
    gluings, corners and their inverses are composed from g and its inverses."""
    gi = tuple(map(inverse, g))
    return [_gluings_of(_canonical_key(*_corners(*_SHEARS[name](g, gi)))[0]) for name in ("hor", "ver")]


def origami_orbit(o):
    """Closure of the class of o under both shears and their inverses.

    Elements are canonical origamis sorted by their gluing data; the log
    lists (source index, op name, target index) for every element and op.
    The closure keys elements on their gluings (R, L, U, D) and is closed
    under hor and ver.  hor-inv and ver-inv undo them exactly, so on classes
    they act as their inverses, and their edges are read off the closed
    orbit.  Shear images of valid origamis are valid, so they go to the
    kernel unchecked.
    """
    # Only the orbit needs braid's closure; the conversions and shears
    # do not load braid.
    from .braid import orbit_closure

    c = canonical_origami(o)
    # _SHEARS lists hor, ver, hor-inv and ver-inv, so the last two are the
    # inverses of positions 0 and 1.
    words = [None, None, ((0, -1),), ((1, -1),)]
    return orbit_closure(
        [(c.R, c.L, c.U, c.D)], list(_SHEARS), _shear_images, lambda g: BipartiteOrigami._trusted(*g), words
    )


def origami_from_json(obj):
    """The origami of the CLI's JSON {m, R, L, U, D}; raises invalid-origami on malformed input."""
    m, *maps = _json_fields(obj, "invalid-origami", ("m", "R", "L", "U", "D"), 1)
    o = BipartiteOrigami(*maps)
    if o.m != m:
        raise DessinryError("invalid-origami", "declared m=%r but maps have length %d" % (m, o.m))
    return o
