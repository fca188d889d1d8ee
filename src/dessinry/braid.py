"""Word-level endomorphisms of the free group acting on monodromy tuples.

The sphere minus the n branch points has free fundamental group on the
lasso classes x_0, ..., x_{n-1} (with one relation folded away by dropping
a generator; here all n letters are kept and the product constraint does
the bookkeeping).  A mapping class acts by rewriting each x_v to a word in
the others; on a monodromy tuple the rewrite is evaluated by substituting
g_v for x_v.  Pure mapping classes send every letter to a conjugate of
itself, so they preserve each color's cycle type.

Words are tuples of (index, sign) letters.  Tables compose in action
order: compose_tables(a, b) acts as a first, then b.
"""

from .core import MonodromyTuple, _canonical_key, _entry_pool, canonical_form, validate
from .errors import DessinryError
from .perms import identity, inverse


def _letters(w, n=None):
    """w as a tuple of (index, sign) letters of exact ints, 0 <= index (< n
    when n is given) and sign +1 or -1; anything else is index-out-of-range."""
    try:
        out = tuple((idx, sign) for idx, sign in w)
    except (TypeError, ValueError):
        raise DessinryError("index-out-of-range", "word %r is not a sequence of (index, sign) letters" % (w,)) from None
    for idx, sign in out:
        # Exact types: a float or bool letter would pass the range test.
        exact = type(idx) is int and type(sign) is int
        if not exact or sign not in (1, -1) or idx < 0 or (n is not None and idx >= n):
            bound = "" if n is None else " < %d" % n
            message = "letter %r needs ints 0 <= index%s and sign +1 or -1" % ((idx, sign), bound)
            raise DessinryError("index-out-of-range", message)
    return out


def _words(images, n=None):
    """images as a tuple of words read by _letters(w, n); an images that is
    not iterable is index-out-of-range."""
    try:
        words = iter(images)
    except TypeError:
        raise DessinryError("index-out-of-range", "images %r is not a sequence of words" % (images,)) from None
    return tuple(_letters(w, n) for w in words)


def word(*letters):
    """Build a FreeWord from (index, sign) pairs of ints, index >= 0 and sign +1 or -1."""
    return _letters(letters)


def word_inverse(w):
    return tuple((idx, -sign) for idx, sign in reversed(w))


def word_reduce(w):
    """Free reduction: cancel adjacent x x^-1 pairs."""
    stack = []
    for letter in w:
        if stack and stack[-1][0] == letter[0] and stack[-1][1] == -letter[1]:
            stack.pop()
        else:
            stack.append(letter)
    return tuple(stack)


def _substitute(w, images):
    """word_substitute of letters and images known to be valid, each index
    of w below len(images), as a table's are."""
    out = []
    for idx, sign in w:
        out.extend(images[idx] if sign == 1 else word_inverse(images[idx]))
    return word_reduce(tuple(out))


def word_substitute(w, images):
    """Replace letter x_i by images[i] (inverted for negative letters)."""
    images = _words(images)
    return _substitute(_letters(w, len(images)), images)


def word_str(w):
    if not w:
        return "1"
    return " ".join("x%d" % i if s == 1 else "x%d^-1" % i for i, s in w)


class EndomorphismTable:
    """Images of x_0..x_{n-1} under one endomorphism, as reduced words.

    splits holds each image w once more as (c^-1, core), with w = c core c^-1
    and c as long as the reduced word allows; c is empty when w is not a
    conjugate."""

    __slots__ = ("n", "images", "name", "splits")

    def __init__(self, n, images, name=""):
        # Exact type: a float or bool n would pass the length test.
        if type(n) is not int:
            raise DessinryError("index-out-of-range", "n must be an int, got %r" % (n,))
        images = tuple(map(word_reduce, _words(images, n)))
        if len(images) != n:
            raise DessinryError("index-out-of-range", "need %d images, got %d" % (n, len(images)))
        self.n = n
        self.images = images
        self.name = name
        self.splits = tuple(map(_split, images))

    def __eq__(self, other):
        return isinstance(other, EndomorphismTable) and self.n == other.n and self.images == other.images

    def __hash__(self):
        return hash((self.n, self.images))

    def __repr__(self):
        label = " %s" % self.name if self.name else ""
        return "EndomorphismTable(n=%d%s: %s)" % (
            self.n,
            label,
            "; ".join(word_str(w) for w in self.images),
        )


def _split(w):
    """(c^-1, core) with w = c core c^-1, c as long as the reduced word w allows."""
    k = 0
    while 2 * k + 2 < len(w) and w[k] == (w[-1 - k][0], -w[-1 - k][1]):
        k += 1
    return w[len(w) - k :], w[k : len(w) - k]


def _evaluate(w, perms, inverses, d):
    """Substitute perms[v] for x_v (inverses[v] for x_v^-1) and compose left
    to right, from the first letter; the letters are known to be in range."""
    if not w:
        return identity(d)
    (idx, sign), *rest = w
    out = perms[idx] if sign == 1 else inverses[idx]
    for idx, sign in rest:
        p = perms[idx] if sign == 1 else inverses[idx]
        out = [p[i] for i in out]  # perms.compose(out, p), a tuple only at the end
    return tuple(out)


def evaluate_word(w, t):
    """Substitute g_v for x_v and compose left to right."""
    return _evaluate(_letters(w, t.n), t.perms, tuple(map(inverse, t.perms)), t.d)


def _evaluate_split(split, perms, inverses, d):
    """The value of a split word (c^-1, core) and its inverse: the core
    relabeled by the value of c^-1, both in one loop.  A one-letter core
    is an entry of the source, whose inverse is already known."""
    tail, core = split
    if len(core) == 1:
        ((idx, sign),) = core
        p, q = (perms[idx], inverses[idx]) if sign == 1 else (inverses[idx], perms[idx])
    else:
        p, q = _evaluate(core, perms, inverses, d), None
    if not tail:
        return p, q or inverse(p)
    pi = _evaluate(tail, perms, inverses, d)
    out, back = [0] * d, [0] * d
    for a, x in zip(pi, p):
        b = pi[x]
        out[a] = b
        back[b] = a
    return tuple(out), tuple(back)


def _image(e, perms, inverses, d):
    """The entries of the image of the raw tuple perms under a table of its
    n, unchecked, and their inverses, evaluated from the table's split words
    and the inverses of perms."""
    return zip(*[_evaluate_split(s, perms, inverses, d) for s in e.splits])


def _require_table(e, n):
    """index-out-of-range unless e is a table of n letters."""
    if e.n != n:
        raise DessinryError("index-out-of-range", "table has n=%d, tuple has n=%d" % (e.n, n))


def _require_image(e, out):
    """out, the image under e; invalid-result naming e when it is not a valid tuple."""
    diag = validate(out)
    if diag != "ok":
        raise DessinryError(
            "invalid-result",
            "endomorphism %r does not preserve tuple space: %s" % (e.name or e, diag),
        )
    return out


def apply_endomorphism(e, t):
    """The image of t under e, checked.  The table's letters are in range and
    products of permutations are permutations, so only validate can fail."""
    _require_table(e, t.n)
    perms, _ = _image(e, t.perms, tuple(map(inverse, t.perms)), t.d)
    return _require_image(e, MonodromyTuple._trusted(perms))


def compose_tables(first, second):
    """Table acting as `first`, then `second`."""
    if first.n != second.n:
        raise DessinryError("index-out-of-range", "cannot compose tables with n=%d and n=%d" % (first.n, second.n))
    images = [_substitute(w, first.images) for w in second.images]
    return EndomorphismTable(first.n, images)


def chain_tables(tables, name=""):
    """Compose several tables in action order (leftmost acts first)."""
    tables = list(tables)
    if not tables:
        raise DessinryError("index-out-of-range", "empty chain")
    out = tables[0]
    for t in tables[1:]:
        out = compose_tables(out, t)
    return EndomorphismTable(out.n, out.images, name=name)


def _half_twist(n, i, sign, name):
    """x_m -> x_m^sign x_o x_m^-sign and x_o -> x_m, other letters fixed; the
    moving strand m is i for sign +1 and i+1 for sign -1, o is the other."""
    if type(n) is not int or type(i) is not int or not 0 <= i < n - 1:
        raise DessinryError("index-out-of-range", "sigma index %r needs an int 0 <= i < %r" % (i, n - 1))
    m, o = (i, i + 1) if sign == 1 else (i + 1, i)
    images = [((v, 1),) for v in range(n)]
    images[m] = ((m, sign), (o, 1), (m, -sign))
    images[o] = ((m, 1),)
    return EndomorphismTable(n, images, name=name)


def sigma_table(n, i):
    """Half-twist swapping strands i and i+1:
    x_i -> x_i x_{i+1} x_i^-1,  x_{i+1} -> x_i."""
    return _half_twist(n, i, 1, "s%d" % i)


def sigma_inv_table(n, i):
    """Inverse half-twist: x_i -> x_{i+1},  x_{i+1} -> x_{i+1}^-1 x_i x_{i+1}."""
    return _half_twist(n, i, -1, "s%d'" % i)


def pure_twist_table(n, i, j, power=1):
    """Full twist about a curve enclosing branch points i and j (i < j).

    Built as the half-twist chain s_{j-1} ... s_{i+1} s_i^p s_i^p
    s_{i+1}^-1 ... s_{j-1}^-1 (action order), with p = power.
    The result is pure: every letter maps to a conjugate of itself.
    """
    if not (all(type(v) is int for v in (n, i, j)) and 0 <= i < j < n):
        raise DessinryError("index-out-of-range", "need ints 0 <= i < j < n, got i=%r j=%r n=%r" % (i, j, n))
    if type(power) is not int or power not in (1, -1):
        raise DessinryError("index-out-of-range", "power must be +1 or -1")
    prefix = [sigma_table(n, k) for k in range(j - 1, i, -1)]
    suffix = [sigma_inv_table(n, k) for k in range(i + 1, j)]
    core = [_half_twist(n, i, power, "")] * 2
    name = "A%d%d" % (i, j) if power == 1 else "A%d%d'" % (i, j)
    return chain_tables(prefix + core + suffix, name=name)


def preset_pure_generators(n):
    """The full twists A_ij for all 0 <= i < j < n.

    Together with inverses these generate the pure mapping class action.
    Orbit closure never needs explicit inverse tables: a generator that
    preserves the finite orbit set acts on it as a bijection, which
    braid_orbit verifies after the closure.
    """
    if type(n) is not int or n < 3:
        raise DessinryError("index-out-of-range", "need an int n >= 3, got %r" % (n,))
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            out.append(pure_twist_table(n, i, j))
    return out


# Over all 49 canonical classes with n = 4 and d <= 3, the horizontal
# rewrite agrees pointwise with the (0,1)-twist at power +1 and the
# vertical rewrite with the (1,2)-twist at power -1, and, of the twelve
# candidate twists, only with these and the complementary twists about
# {2,3} and {0,3}.  Those act identically on classes: hor and A23 differ
# by an inner automorphism of G, and so do ver and A03^-1.  TestRelations
# in tests/test_braid.py checks all of it.
_GAMMA2_HOR_POWER = 1
_GAMMA2_VER_POWER = -1


def preset_gamma2():
    """Word-level forms of the two square-tiling shear rewrites (n = 4).

    The horizontal shear acts as the full twist about a curve enclosing
    branch points 0 and 1, the vertical shear as the twist about points 1
    and 2.  The direction (twist vs. inverse twist) is not claimed on
    abstract grounds: both choices pass all profile-preservation checks,
    and the pair below is the one that matches the origami-level rewrites
    delta_hor and delta_ver pointwise on every canonical class with d <= 3
    (see the origami module's gate example).  Orbit computations are
    insensitive to the residual direction ambiguity, since an orbit is
    closed under a generator exactly when it is closed under its inverse.
    """
    hor = pure_twist_table(4, 0, 1, power=_GAMMA2_HOR_POWER)
    ver = pure_twist_table(4, 1, 2, power=_GAMMA2_VER_POWER)
    return [
        EndomorphismTable(4, hor.images, name="hor"),
        EndomorphismTable(4, ver.images, name="ver"),
    ]


class OrbitResult:
    """Closure of a seed set under named operations.

    elements are canonical forms in sorted encoding order; generator_log
    has one entry (source index, operation name, target index) for every
    element and operation, in that sorted order; orbits holds the indices
    of each orbit in ascending order, the orbits ordered by least index.
    """

    __slots__ = ("elements", "generator_log", "orbits")

    def __init__(self, elements, generator_log, orbits):
        self.elements = elements
        self.generator_log = generator_log
        self.orbits = orbits


def orbit_closure(seeds, names, images, element, words=None):
    """Breadth-first closure of seeds under named operations.

    Seeds and images are canonical keys: hashable encodings that identify
    and sort elements.  A key that is a tuple, as a tuple's permutations or
    a tiling's gluings are, is stored sharing one object per distinct entry
    value (see core._entry_pool).  words[pos] is None for an operation the
    closure is closed under, its basis, or a word of (position, sign)
    letters over the basis, read in action order as in chain_tables, that
    acts on elements as names[pos] does; words None closes under every
    operation.  images(x) lists the keys of the images of x under the
    basis, in the order of names; it is called once per element, and the
    edges found on the way become the log.  The edges of a word are read
    off the closed set, a letter of sign -1 by inverting its operation
    there.  element(x) is what the result lists for the key x.  The closure
    is automatically closed under inverses: each basis operation is checked
    to act injectively on the final element set, and an injection of a
    finite set onto itself is a bijection; one that fails the check raises
    invalid-result.
    """
    words = words or [None] * len(names)
    m = words.count(None)  # the basis operations
    found = {}
    order = []
    share = _entry_pool()
    for x in seeds:
        if x not in found:
            x = share(x)
            found[x] = len(order)
            order.append(x)
    # targets[k * m + j]: index of the image of order[k] under basis
    # operation j.  order grows while it is walked, so the walk is breadth
    # first and ends when every element has its images.
    targets = []
    for x in order:
        for img in images(x):
            k = found.get(img)
            if k is None:
                img = share(img)
                k = found[img] = len(order)
                order.append(img)
            targets.append(k)
    del found, share  # only the closure looks keys up

    size = len(order)
    columns = [None] * len(names)  # each operation on indices
    for j, pos in enumerate(pos for pos, w in enumerate(words) if w is None):
        columns[pos] = column = targets[j::m]
        if len(set(column)) < size:
            raise DessinryError(
                "invalid-result",
                "generator %s does not act invertibly on the closed orbit" % names[pos],
            )
    for pos, w in enumerate(words):
        if w is not None:
            column = range(size)
            for b, sign in w:
                # A bijection's inverse: the indices sorted by their images.
                step = columns[b] if sign == 1 else sorted(range(size), key=columns[b].__getitem__)
                column = [step[k] for k in column]
            columns[pos] = column
    ranked = sorted(range(size), key=order.__getitem__)
    rank = [None] * size
    for new, old in enumerate(ranked):
        rank[old] = new
    log = tuple((rank[old], name, rank[column[old]]) for old in ranked for name, column in zip(names, columns))
    # Each operation permutes the closed set, and every word is one in the
    # basis, so an element's orbit is what the basis reaches going forwards;
    # in sorted order each orbit is met at its least.
    orbits, seen = [], [False] * size
    for old in ranked:
        members, stack = [], [old]
        while stack:
            k = stack.pop()
            if not seen[k]:
                seen[k] = True
                members.append(rank[k])
                stack += targets[k * m : k * m + m]
        if members:
            orbits.append(tuple(sorted(members)))
    return OrbitResult(tuple(element(order[k]) for k in ranked), log, tuple(orbits))


def _source_images(gens, n, d):
    """images(x) for orbit_closure: the kernel's raw tuples of the images of
    the raw tuple x, of shape (n, d), under the tables gens, in order.

    x inverts its n entries once, as a source, and every table's image is
    evaluated from its split words and those inverses, and handed to the
    kernel with the inverses that come with it.  Images under a table that
    fixes the boundary word x_0 ... x_{n-1}, as every sigma, pure and gamma2
    table does, have product identity, so only the kernel checks them.
    Other tables are checked as apply_endomorphism checks them, and one that
    breaks tuple space raises invalid-result.
    """
    boundary = tuple((v, 1) for v in range(n))
    tables = [(g, g.n != n or _substitute(boundary, g.images) != boundary) for g in gens]

    def images(x):
        inverses = tuple(map(inverse, x))
        out = []
        for g, checked in tables:
            if checked:
                _require_table(g, n)
            perms, invs = _image(g, x, inverses, d)
            key = _canonical_key(perms, invs)
            # The kernel's None is an intransitive image; validate names it.
            if checked or key is None:
                _require_image(g, MonodromyTuple._trusted(perms))
            out.append(key[0])
        return out

    return images


def _is_braid_automorphism(e, n):
    """True when the table e of n letters sends each letter to a conjugate
    of a letter, the letters a permutation of x_0..x_{n-1}, and fixes the
    boundary word x_0 ... x_{n-1}.  By Artin's theorem (Birman, Braids,
    Links, and Mapping Class Groups, 1974, ch. 1) e is then a braid
    automorphism, so it permutes the classes of every degree."""
    boundary = tuple((v, 1) for v in range(n))
    return (
        e.n == n
        and sorted(core for _, core in e.splits) == [(letter,) for letter in boundary]
        and _substitute(boundary, e.images) == boundary
    )


def _outer_form(images):
    """The images of x_0, x_1, ... in a free group conjugated by the inner
    automorphism they pick: the one that strips x_0's image to its core,
    then, where that core is a letter, the power of it that keeps x_1's
    image from starting with that letter.  Endomorphisms with equal forms
    differ by an inner automorphism."""
    if not images:
        return ()
    tail, core = _split(images[0])
    out = [core] + [word_reduce(tail + w + word_inverse(tail)) for w in images[1:]]
    if len(core) == 1 and len(out) > 1:
        ((j, _),) = core
        lead = 0
        while lead < len(out[1]) and out[1][lead][0] == j:
            lead += 1
        power = out[1][:lead]
        out = [word_reduce(word_inverse(power) + w + power) for w in out]
    return tuple(out)


def _read_off_words(gens, n):
    """words for orbit_closure over the tables gens of n letters: None for
    a table to close under, or a word over closed tables that acts on
    classes as the table does.

    Only braid automorphisms enter a word.  One, T, is read off as u v^-1
    when T v and u have equal outer forms in G = <x_0..x_{n-1} |
    x_0 ... x_{n-1}>, free on x_0..x_{n-2}: then T v and u fix the boundary
    word and differ by an inner automorphism of G, so they act alike on
    classes.  u and v run over products of at most two closed braid
    automorphisms in action order, and the search runs while at most two
    are closed.  Forms are compared on x_0 and x_1 first, which pick the
    inner automorphism, and in full only where those agree.  Every other
    table is closed under."""
    # images[w]: the images of x_0..x_{n-1} in G under the tables at the
    # positions w, in action order; x_{n-1} is (x_0 ... x_{n-2})^-1 in G.
    free = tuple(((v, 1),) for v in range(n - 1))
    images = {(): free + (word_inverse(tuple(letter for (letter,) in free)),)}

    def full(w):
        if w not in images:
            images[w] = tuple(_substitute(x, full(w[:-1])) for x in gens[w[-1]].images)
        return images[w]

    forms = {}

    def form(w, count=n - 1):
        if (w, count) not in forms:
            first = gens[w[-1]].images[:count] if w else free[:count]
            forms[w, count] = _outer_form([_substitute(x, full(w[:-1])) for x in first])
        return forms[w, count]

    words, closed = [], []  # closed: positions of closed braid automorphisms
    for pos, g in enumerate(gens):
        found = None
        if len(closed) <= 2 and _is_braid_automorphism(g, n):
            products = [()] + [(a,) for a in closed] + [(a, b) for a in closed for b in closed]
            heads = {}
            for u in products:
                heads.setdefault(form(u, 2), []).append(u)
            for v in products:
                for u in heads.get(form((pos,) + v, 2), ()):
                    if form((pos,) + v) == form(u):
                        found = tuple((a, 1) for a in u) + tuple((b, -1) for b in v[::-1])
                        break
                if found is not None:
                    break
            if found is None:
                closed.append(pos)
        words.append(found)
    return words


def braid_orbit(seeds, gens):
    """Closure of the seeds' classes under the given tables (see orbit_closure),
    keyed on the kernel's raw tuples.  The closure is closed under the tables
    _read_off_words finds no word for, imaged by _source_images, and reads
    the others' edges off the closed orbit."""
    seeds = [canonical_form(t) for t in seeds]
    if not seeds:
        raise DessinryError("invalid-tuple", "need at least one seed")
    n, d = seeds[0].n, seeds[0].d
    for t in seeds:
        if (t.n, t.d) != (n, d):
            raise DessinryError("invalid-tuple", "seeds mix shapes %r and %r" % ((n, d), (t.n, t.d)))
    gens = list(gens)
    names = [g.name or "g%d" % pos for pos, g in enumerate(gens)]
    words = _read_off_words(gens, n)
    basis = [g for g, w in zip(gens, words) if w is None]
    return orbit_closure([t.perms for t in seeds], names, _source_images(basis, n, d), MonodromyTuple._trusted, words)
