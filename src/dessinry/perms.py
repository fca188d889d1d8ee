"""Permutations of {0, ..., d-1} as tuples, composed left to right.

A permutation g is stored as a tuple p with p[i] the image of i.  Products
are read left to right, (g*h)(i) = h(g(i)), so the leftmost factor acts
first.  This is the natural convention for monodromy: transporting along a
concatenation of loops applies the first loop's permutation first.
"""

from collections import deque


def identity(d):
    return tuple(range(d))


def is_perm(p, d):
    """True if p is a tuple/list of ints that permutes range(d)."""
    if len(p) != d:
        return False
    seen = [False] * d
    for x in p:
        if not isinstance(x, int) or isinstance(x, bool):
            return False
        if not 0 <= x < d or seen[x]:
            return False
        seen[x] = True
    return True


def compose(p, q):
    """Apply p first, then q."""
    return tuple([q[i] for i in p])


def compose_all(perms, d):
    out = identity(d)
    for p in perms:
        out = compose(out, p)
    return out


def inverse(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def cycles(p):
    """Cycle decomposition including fixed points.

    Each cycle starts at its smallest element; cycles are ordered by that
    element.  The result is deterministic, which downstream code relies on
    when naming graph nodes.
    """
    d = len(p)
    done = [False] * d
    out = []
    for start in range(d):
        if done[start]:
            continue
        cyc = [start]
        done[start] = True
        j = p[start]
        while j != start:
            cyc.append(j)
            done[j] = True
            j = p[j]
        out.append(tuple(cyc))
    return out


def relabel(p, pi):
    """Conjugate p by the relabeling pi: the result sends pi[i] to pi[p[i]]."""
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[pi[i]] = pi[x]
    return tuple(out)


def from_cycles(d, cycs):
    out = list(range(d))
    used = set()
    for cyc in cycs:
        for x in cyc:
            if not 0 <= x < d:
                raise ValueError("cycle entry %r out of range for degree %d" % (x, d))
            if x in used:
                raise ValueError("cycles are not disjoint at %r" % (x,))
            used.add(x)
        for a, b in zip(cyc, cyc[1:]):
            out[a] = b
        if cyc:
            out[cyc[-1]] = cyc[0]
    return tuple(out)


def sheets_reached(perms, d):
    """Flags of the points reachable from 0 under the group generated by perms."""
    seen = [False] * d
    if d == 0:
        return seen
    seen[0] = True
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for p in perms:
            w = p[v]
            if not seen[w]:
                seen[w] = True
                queue.append(w)
    return seen


def acts_transitively(perms, d):
    """True if the group generated by perms has a single orbit on range(d)."""
    return d > 0 and all(sheets_reached(perms, d))


def cycle_str(cyc):
    """One cycle as '(a b c)'."""
    return "(" + " ".join(str(x) for x in cyc) + ")"


def cycles_str(p):
    """Compact cycle notation, fixed points omitted; 'id' for the identity."""
    return cycles_text(cycles(p))


def cycles_text(cycs):
    """cycles_str of the permutation whose cycles() are cycs."""
    return "".join([cycle_str(c) for c in cycs if len(c) > 1]) or "id"
