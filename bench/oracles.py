"""Independent correctness oracles for dessinry's command-line output.

Nothing here imports dessinry: the checks use the standard library and
mpmath only, so a defect in the program cannot hide behind the same code
in its checker.  Every ``check_*`` function takes the request parameters
and the program's stdout and returns None when the output is right, or a
one-line reason when it is not.

Conventions shared with the program's documented output formats:
permutations compose left to right (``compose(p, q)`` applies p first), a
monodromy tuple's product is the identity, and high-precision numbers are
printed with 17 significant digits.
"""

import json
import math
import re
from functools import lru_cache

import mpmath

# A domain error's "code: message", or argparse's "dessinry[ sub]: error: message".
CODE_LINE = re.compile(r"^([a-z][a-z0-9_.-]*|dessinry( [a-z0-9-]+)?: error): \S")


# --- permutations and monodromy tuples -------------------------------------


def compose(p, q):
    """Apply p first, then q."""
    return tuple(q[i] for i in p)


def invert(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def is_perm(p, d):
    return len(p) == d and sorted(p) == list(range(d)) and all(type(x) is int for x in p)


def cycle_type(p):
    seen = [False] * len(p)
    lengths = []
    for start in range(len(p)):
        if seen[start]:
            continue
        n, j = 0, start
        while not seen[j]:
            seen[j] = True
            j = p[j]
            n += 1
        lengths.append(n)
    return tuple(sorted(lengths, reverse=True))


def parse_cycles(text, d):
    """'id' or '(0 1)(2 3)' -> image tuple on range(d)."""
    out = list(range(d))
    if text == "id":
        return tuple(out)
    for body in re.findall(r"\(([^)]*)\)", text):
        cyc = [int(x) for x in body.split()]
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            out[a] = b
    return tuple(out)


def tuple_problem(perms):
    """None for a valid monodromy tuple, else what is wrong with it."""
    if len(perms) < 3:
        return "fewer than 3 permutations"
    d = len(perms[0])
    if d < 1 or not all(is_perm(tuple(p), d) for p in perms):
        return "entries are not permutations of one degree"
    prod = tuple(range(d))
    for p in perms:
        prod = compose(prod, p)
    if prod != tuple(range(d)):
        return "product is not the identity"
    if len(_orbit_of_zero(perms, d)) != d:
        return "not transitive"
    return None


def _orbit_of_zero(perms, d):
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for p in perms:
            w = p[v]
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def class_key(perms):
    """(key, centralizer order) of a valid tuple's simultaneous-conjugacy class.

    For each base sheet the fiber is relabelled in depth-first preorder,
    following g_0..g_{n-1} forwards only (enough, since a finite group's
    orbits are its monoid orbits).  The least relabelled tuple is a
    complete invariant, and the centralizer acts semiregularly, so the
    number of base sheets reaching that least tuple is its order.
    """
    d = len(perms[0])
    cands = []
    for base in range(d):
        lab = [-1] * d
        lab[base] = 0
        nxt = 1
        stack = [base]
        while stack:
            v = stack.pop()
            for p in reversed(perms):
                w = p[v]
                if lab[w] < 0:
                    lab[w] = nxt
                    nxt += 1
                    stack.append(w)
        cand = []
        for p in perms:
            q = [0] * d
            for i, x in enumerate(p):
                q[lab[i]] = lab[x]
            cand.append(tuple(q))
        cands.append(tuple(cand))
    key = min(cands)
    return key, cands.count(key)


def genus(perms):
    d = len(perms[0])
    chi = 2 * d - sum(d - len(cycle_type(p)) for p in perms)
    return (2 - chi) // 2


def hall(r, d):
    """Index-d subgroups of the free group of rank r (Hall's recursion)."""
    n = [0, 1]
    for k in range(2, d + 1):
        n.append(k * math.factorial(k) ** (r - 1) - sum(math.factorial(k - i) ** (r - 1) * n[i] for i in range(1, k)))
    return n[d]


def labelled_total(n, d):
    """Number of labelled transitive tuples of shape (n, d)."""
    return hall(n - 1, d) * math.factorial(d - 1)


def _classes_problem(elements, n, d):
    """Validity, shape and pairwise non-isomorphism of a list of tuples.

    Returns (reason or None, list of (key, centralizer order)).
    """
    keys = []
    for k, perms in enumerate(elements):
        perms = tuple(tuple(p) for p in perms)
        if len(perms) != n or len(perms[0]) != d:
            return "element %d has the wrong shape" % k, keys
        why = tuple_problem(perms)
        if why:
            return "element %d: %s" % (k, why), keys
        keys.append(class_key(perms))
    if len({key for key, _ in keys}) != len(keys):
        return "two elements are isomorphic", keys
    return None, keys


# --- origamis ----------------------------------------------------------------


def origami_problem(o):
    m = o["m"]
    maps = [tuple(o[k]) for k in "RLUD"]
    if not all(is_perm(x, m) for x in maps):
        return "gluing maps are not bijections"
    parent = list(range(2 * m))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for x in maps:
        for w in range(m):
            parent[find(w)] = find(m + x[w])
    if len({find(v) for v in range(2 * m)}) != 1:
        return "gluing graph is not connected"
    return None


def corners(o):
    """Corner permutations of the white squares: g0 = D^-1 L, g1 = R^-1 D,
    g2 = U^-1 R, g3 = L^-1 U (inner map first)."""
    R, L, U, D = (tuple(o[k]) for k in "RLUD")
    Ri, Li, Ui, Di = invert(R), invert(L), invert(U), invert(D)
    return (compose(L, Di), compose(D, Ri), compose(R, Ui), compose(U, Li))


# --- result checks -----------------------------------------------------------


def _json(out):
    try:
        return json.loads(out), None
    except ValueError as exc:
        return None, "stdout is not JSON: %s" % exc


def _table_classes(out, d):
    head, *lines = out.strip().splitlines()
    m = re.match(r"n=(\d+) d=(\d+): (\d+) classes, (\d+) marked$", head)
    if not m:
        raise ValueError("bad header %r" % head)
    classes = []
    for line in lines:
        cm = re.match(r"class \d+: (.*?)  genus (\d+)  profile (.*?)  normal (yes|no)$", line)
        if not cm:
            raise ValueError("bad class line %r" % line)
        perms = [parse_cycles(part.strip(), d) for part in cm.group(1).split("|")]
        profile = [[int(x) for x in part.split("+")] for part in cm.group(3).split()]
        classes.append({"perms": perms, "genus": int(cm.group(2)), "profile": profile})
    return {"class_count": int(m.group(3)), "marked_count": int(m.group(4)), "classes": classes}


def check_enumerate(p, out):
    n, d = p["n"], p["d"]
    if p.get("format") == "json":
        doc, err = _json(out)
        if err:
            return err
    else:
        try:
            doc = _table_classes(out, d)
        except ValueError as exc:
            return str(exc)
    classes = doc["classes"]
    why, keys = _classes_problem([c["perms"] for c in classes], n, d)
    if why:
        return why
    for c in classes:
        perms = [tuple(x) for x in c["perms"]]
        if c["genus"] != genus(perms) or [list(cycle_type(x)) for x in perms] != [list(x) for x in c["profile"]]:
            return "reported genus or profile is wrong for %r" % (c["perms"],)
    marked = sum(math.factorial(d) // order for _, order in keys)
    if marked != labelled_total(n, d):
        return "classes cover %d labelled tuples, Hall's count gives %d" % (marked, labelled_total(n, d))
    if doc["marked_count"] != marked or doc["class_count"] != len(classes):
        return "reported counts disagree with the listed classes"
    return None


def _edges_problem(edges, size, names):
    columns = {name: [None] * size for name in names}
    for src, name, dst in edges:
        if name not in columns or not (0 <= src < size and 0 <= dst < size) or columns[name][src] is not None:
            return "bad or repeated edge %r" % ([src, name, dst],)
        columns[name][src] = dst
    for name, col in columns.items():
        if sorted(c for c in col if c is not None) != list(range(size)):
            return "generator %s does not act as a bijection on the orbit" % name
    return None


def check_braid_orbit(p, out):
    doc, err = _json(out)
    if err:
        return err
    n, d = p["n"], p["d"]
    elements = doc["elements"]
    if doc["element_count"] != len(elements) or not elements:
        return "element_count disagrees with the element list"
    why, keys = _classes_problem(elements, n, d)
    if why:
        return why
    if p["gens"] == "preset:gamma2":
        names = {"hor", "ver"}
    else:  # the full twists A_ij, i < j
        names = {"A%d%d" % (i, j) for i in range(n) for j in range(i + 1, n)}
    why = _edges_problem(doc["edges"], len(elements), names)
    if why:
        return why
    profiles = [[cycle_type(tuple(x)) for x in e] for e in elements]
    for src, name, dst in doc["edges"]:
        if profiles[src] != profiles[dst]:
            return "edge %d -%s-> %d changes a cycle profile" % (src, name, dst)
    if sorted(x for comp in doc["orbits"] for x in comp) != list(range(len(elements))):
        return "orbits do not partition the elements"
    found = {key for key, _ in keys}
    if p.get("seed") is not None:
        if class_key(tuple(tuple(x) for x in p["seed"]))[0] not in found:
            return "the seed's class is not in its orbit"
    elif sum(math.factorial(d) // order for _, order in keys) != labelled_total(n, d):
        return "orbit of all classes misses some class"
    return None


def check_origami_orbit(p, out):
    doc, err = _json(out)
    if err:
        return err
    elements = doc["elements"]
    if doc["element_count"] != len(elements) or not elements:
        return "element_count disagrees with the element list"
    for k, o in enumerate(elements):
        if o["m"] != p["origami"]["m"]:
            return "element %d has the wrong size" % k
        why = origami_problem(o)
        if why:
            return "element %d: %s" % (k, why)
    tuples = [corners(o) for o in elements]
    why, keys = _classes_problem(tuples, 4, p["origami"]["m"])
    if why:
        return why
    why = _edges_problem(doc["edges"], len(elements), {"hor", "ver", "hor-inv", "ver-inv"})
    if why:
        return why
    col = {}
    for src, name, dst in doc["edges"]:
        col[name, src] = dst
    for k in range(len(elements)):
        if col["hor-inv", col["hor", k]] != k or col["ver-inv", col["ver", k]] != k:
            return "inverse shears do not undo the shears at element %d" % k
    profiles = [[cycle_type(g) for g in t] for t in tuples]
    for src, name, dst in doc["edges"]:
        if profiles[src] != profiles[dst]:
            return "shear %s changes the corner profile at element %d" % (name, src)
    if class_key(corners(p["origami"]))[0] not in {key for key, _ in keys}:
        return "the input tiling's class is not in its orbit"
    return None


def check_to_dessin(p, out):
    doc, err = _json(out)
    if err:
        return err
    if [tuple(x) for x in doc["perms"]] != list(corners(p["origami"])):
        return "corner permutations differ from the tiling's corners"
    return None


def check_from_dessin(p, out):
    doc, err = _json(out)
    if err:
        return err
    why = origami_problem(doc)
    if why:
        return why
    if list(corners(doc)) != [tuple(x) for x in p["tuple"]] or tuple(doc["D"]) != tuple(range(doc["m"])):
        return "tiling does not carry the input tuple with D = id"
    return None


def check_delta(p, out):
    doc, err = _json(out)
    if err:
        return err
    why = origami_problem(doc)
    if why:
        return why
    before = [cycle_type(g) for g in corners(p["origami"])]
    if doc["m"] != p["origami"]["m"] or [cycle_type(g) for g in corners(doc)] != before:
        return "shear changed the size or the corner profile"
    return None


HURWITZ_PROFILE = [(4,), (2, 1, 1), (2, 1, 1), (2, 1, 1)]


def _tuple_doc(out, table, d):
    if table:
        return [parse_cycles(x.strip(), d) for x in out.strip().split("|")]
    doc = json.loads(out)
    return [tuple(x) for x in doc["perms"]]


def check_hurwitz(p, out):
    try:
        perms = _tuple_doc(out, p.get("format") == "table", 4)
    except ValueError as exc:
        return "unreadable output: %s" % exc
    why = tuple_problem(perms)
    if why:
        return why
    if [cycle_type(x) for x in perms] != HURWITZ_PROFILE or genus(perms) != 0:
        return "profile or genus differs from the documented (4),(2,1,1)^3, genus 0"
    return None


def chebyshev(d):
    """Integer coefficients of T_d, highest degree first."""
    a, b = [1], [1, 0]
    for _ in range(d - 1):
        a, b = b, [x - y for x, y in zip([2 * c for c in b] + [0], [0, 0] + a)]
    return b if d >= 1 else a


def chebyshev_profile(d):
    """Cycle types over -1 and over 1: T_d(cos(k pi/d)) = (-1)^k."""
    over_minus, over_plus = d // 2, (d - 1) // 2
    return [(2,) * over_minus + (1,) * (d - 2 * over_minus), (2,) * over_plus + (1,) * (d - 2 * over_plus)]


def check_monodromy(p, out):
    try:
        perms = _tuple_doc(out, p.get("format") == "table", p["d"])
    except ValueError as exc:
        return "unreadable output: %s" % exc
    d = p["d"]
    if len(perms[0]) != d:
        return "degree %d, expected %d" % (len(perms[0]), d)
    why = tuple_problem(perms)
    if why:
        return why
    if genus(perms) != 0 or cycle_type(perms[0]) != (d,):
        return "not genus 0 with a %d-cycle at infinity" % d
    if p["family"] == "chebyshev":
        want = chebyshev_profile(d)
    else:
        want = [(2,) + (1,) * (d - 2)] * (len(perms) - 1)
    if [cycle_type(x) for x in perms[1:]] != want:
        return "finite branch profiles %r, expected %r" % ([cycle_type(x) for x in perms[1:]], want)
    return None


@lru_cache(maxsize=None)
def theta_reference(re_tau, im_tau, digits):
    """theta3(q)^4 / theta4(q)^4 with q = e^{i pi tau}, i.e. lambda*(tau)."""
    with mpmath.workdps(digits):
        tau = mpmath.mpc(re_tau, im_tau)
        q = mpmath.exp(1j * mpmath.pi * tau)
        return mpmath.jtheta(3, 0, q) ** 4 / mpmath.jtheta(4, 0, q) ** 4


def reference_digits(tol, im_tau):
    """Working digits for the theta reference: tol's digits, plus the
    magnitude of lambda* near the cusp (about e^{pi/Im tau}), plus guard."""
    return int(-math.log10(tol)) + int(1.5 / max(im_tau, 1e-3)) + 30


def _unit17(x):
    """One unit in the 17th significant digit of x, the print resolution."""
    return mpmath.mpf(10) ** (mpmath.floor(mpmath.log10(abs(x))) - 16) if x else mpmath.mpf(0)


def value_problem(value_re, value_im, tau, tol):
    """None iff |printed - lambda*(tau)| <= tol, allowing for the 17-digit print."""
    re_tau, im_tau = tau
    digits = reference_digits(tol, im_tau)
    ref = theta_reference(re_tau, im_tau, digits)
    with mpmath.workdps(digits):
        vr = mpmath.mpf(value_re)
        dr = abs(vr - ref.real)
        ok = dr <= tol + _unit17(vr)
        if value_im is not None:
            vi = mpmath.mpf(value_im)
            ok = ok and abs(vi - ref.imag) <= tol + _unit17(vi)
        elif abs(ref.imag) > tol:
            return "reference has imaginary part %s, output prints none" % mpmath.nstr(ref.imag, 5)
    if not ok:
        return "value %s%s differs from theta3^4/theta4^4 = %s by more than tol %g" % (
            value_re, "" if value_im is None else " + %si" % value_im, mpmath.nstr(ref, 20), tol)
    return None


_MPC_TEXT = re.compile(r"^\(([-+0-9.e]+) ([+-]) ([0-9.e+-]+)j\)$")


def check_modular(p, out):
    tau, tol = tuple(p["tau"]), p["tol"]
    if p.get("json"):
        doc, err = _json(out)
        if err:
            return err
        return value_problem(doc["value"]["re"], doc["value"]["im"], tau, tol)
    m = re.match(r"^\S+ = (\S+(?: [+-] \S+j\))?)  \(error <= \S+\)$", out.strip())
    if not m:
        return "unreadable output %r" % out[:80]
    text = m.group(1)
    cm = _MPC_TEXT.match(text)
    if cm:
        im = cm.group(3) if cm.group(2) == "+" else "-" + cm.group(3)
        return value_problem(cm.group(1), im, tau, tol)
    return value_problem(text, None, tau, tol)


@lru_cache(maxsize=4)
def lambda_star_series(order):
    """Integer q2-expansion of theta3^4 / theta4^4 to the given order.

    theta3 = sum q2^{k^2} and theta4 = sum (-1)^k q2^{k^2}; the quotient is
    exact because theta4^4 starts with 1.
    """
    n = order + 1
    t3 = [0] * n
    t4 = [0] * n
    k = 0
    while k * k < n:
        for s in ((k,) if k == 0 else (k, -k)):
            t3[s * s] += 1
            t4[s * s] += -1 if k % 2 else 1
        k += 1

    def mul(a, b):
        out = [0] * n
        for i, x in enumerate(a):
            if x:
                for j in range(n - i):
                    out[i + j] += x * b[j]
        return out

    num = mul(mul(t3, t3), mul(t3, t3))
    den = mul(mul(t4, t4), mul(t4, t4))
    quo = [0] * n
    for i in range(n):
        quo[i] = num[i] - sum(den[j] * quo[i - j] for j in range(1, i + 1))
    return quo


def check_qseries(p, out):
    if p.get("json"):
        doc, err = _json(out)
        if err:
            return err
        coeffs = doc["coefficients"]
    else:
        coeffs = [int(x) for x in out.split()]
    if coeffs != lambda_star_series(p["order"]):
        return "coefficients differ from the integer expansion of theta3^4/theta4^4"
    return None


def check_table1(p, out):
    lines = out.strip().splitlines()
    want = p["rows"]
    if len(lines) != len(want):
        return "%d rows printed, expected %d" % (len(lines), len(want))
    for line, n in zip(lines, want):
        parts = line.split()
        if parts[0] != "n=%d" % n or (p["check"] and parts[-1] != "PASS"):
            return "row %r is not n=%d%s" % (line, n, " PASS" if p["check"] else "")
        why = value_problem(parts[1], None, (0.0, math.sqrt(n)), 1e-9)
        if why:
            return "row n=%d: %s" % (n, why)
    return None


def check_error(p, out, err, code):
    """A rejected request: the documented exit code and a code: message line."""
    lines = [x for x in err.splitlines() if x.strip()]
    if code not in p["exit"]:
        return "exit %d, expected one of %s" % (code, sorted(p["exit"]))
    if not lines or not CODE_LINE.match(lines[-1]):
        return "no 'code: message' line on stderr"
    if out.strip():
        return "rejected request printed to stdout"
    return None


CHECKS = {
    "enumerate": check_enumerate,
    "braid_orbit": check_braid_orbit,
    "origami_orbit": check_origami_orbit,
    "to_dessin": check_to_dessin,
    "from_dessin": check_from_dessin,
    "delta": check_delta,
    "hurwitz": check_hurwitz,
    "monodromy": check_monodromy,
    "modular": check_modular,
    "qseries": check_qseries,
    "table1": check_table1,
}


def judge(request, code, out, err):
    """None when the request was answered correctly, else the reason."""
    if "Traceback" in err:
        return "traceback on stderr"
    if request["check"] == "error":
        return check_error(request["params"], out, err, code)
    if code != 0:
        tail = err.strip().splitlines()[-1:] or [""]
        return "exit %d: %s" % (code, tail[0][:160])
    try:
        return CHECKS[request["check"]](request["params"], out)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return "malformed output: %s: %s" % (type(exc).__name__, exc)
