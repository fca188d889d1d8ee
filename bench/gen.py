"""Seeded inputs for the three benchmark workloads.

A workload is a sequence of rounds.  Every round of a workload has the
same composition (the same request kinds, sizes drawn from the same
strata), so two seeds do the same kind and amount of work and differ only
in the drawn parameters, labellings and order.  A request is a plain dict:

    argv     dessinry arguments
    stdin    text fed on standard input, or None
    env      extra environment variables for this request
    files    {relative name: text} written to the run directory first
    check    oracle name (see oracles.CHECKS), or "error" for a request
             that must be rejected with exit 1 or 2 and a code: message line
    params   what the oracle needs
    label    short human-readable description
    known    for probes of the seed's known failures: which one

Probes are requests on which the seed program is known to fail.  They run
after the timed span, so they are reported (fail_ratio, per-layer failure
counts) without turning into latencies.
"""

import cmath
import json
import math
import random

from oracles import chebyshev, compose, invert, origami_problem, tuple_problem

CELLS = ((3, 6), (4, 5), (5, 4), (6, 3))
TIMED_CELLS = ((3, 6), (4, 5), (6, 3))

# Classes whose orbits take a few tenths of a second to a second or two.
# Random tuples of degree 7 have orbits of 60 to 15000 elements, so the
# classes are fixed and each seed draws a fresh labelling of each: every
# round then closes the same orbits, from differently labelled inputs.
BRAID_POOL = (
    ("preset:pure", ((1, 4, 3, 2, 0), (0, 4, 2, 3, 1), (1, 2, 0, 3, 4), (3, 4, 1, 2, 0))),
    ("preset:pure", ((1, 0, 4, 3, 5, 2), (3, 1, 4, 0, 2, 5), (0, 4, 5, 1, 3, 2), (3, 1, 4, 5, 0, 2))),
    ("preset:pure", ((6, 1, 2, 0, 5, 3, 4), (3, 2, 5, 4, 1, 0, 6), (1, 0, 4, 6, 2, 5, 3), (6, 4, 5, 0, 1, 2, 3))),
    ("preset:gamma2", ((3, 2, 1, 0, 4), (1, 3, 2, 4, 0), (1, 4, 2, 3, 0), (0, 4, 1, 2, 3))),
    ("preset:gamma2", ((5, 0, 4, 1, 3, 2), (5, 1, 0, 3, 2, 4), (2, 0, 3, 5, 4, 1), (3, 1, 5, 2, 0, 4))),
    ("preset:gamma2", ((3, 4, 6, 5, 0, 1, 2), (5, 1, 6, 2, 0, 4, 3), (5, 3, 2, 1, 0, 4, 6), (3, 2, 0, 5, 4, 1, 6))),
)
ORIGAMI_POOL = (
    {"m": 5, "R": [4, 1, 2, 0, 3], "L": [2, 0, 4, 3, 1], "U": [2, 4, 3, 0, 1], "D": [2, 4, 1, 0, 3]},
    {"m": 6, "R": [5, 3, 2, 1, 0, 4], "L": [5, 2, 0, 3, 4, 1], "U": [3, 5, 4, 2, 0, 1], "D": [4, 1, 5, 3, 0, 2]},
    {"m": 6, "R": [0, 5, 3, 2, 4, 1], "L": [3, 0, 1, 4, 2, 5], "U": [5, 3, 0, 2, 4, 1], "D": [4, 0, 5, 3, 1, 2]},
    {"m": 7, "R": [2, 4, 0, 1, 5, 3, 6], "L": [2, 4, 5, 3, 1, 0, 6], "U": [2, 6, 0, 1, 4, 3, 5], "D": [6, 4, 3, 0, 2, 5, 1]},
)

AP_TOLS = (1e-30, 1e-100, 1e-200)
AP_T = (0.07, 50.0)  # below 0.07 lies the known small-t failure
LAMBDA_IM = (0.05, 2.0)
CHEB_STRATA = ((8, 19), (20, 31), (32, 42))  # T_43..T_48 are known failures
RANDOM_STRATA = ((6, 10), (11, 15), (16, 20))
HURWITZ_A = (1.5, 30.0)
QSERIES_ORDER = (200, 400)
INTERACTIVE_CELLS = ((3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (5, 2), (6, 2))


def _rng(workload, seed, part):
    return random.Random("%s:%d:%s" % (workload, seed, part))


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _stratum(rng, lo, hi, k, parts):
    """A log-uniform draw from the k-th of `parts` equal log-slices of [lo, hi]."""
    a, b = math.log(lo), math.log(hi)
    w = (b - a) / parts
    return math.exp(rng.uniform(a + k * w, a + (k + 1) * w))


def _perm(rng, d):
    p = list(range(d))
    rng.shuffle(p)
    return tuple(p)


def relabel_tuple(perms, pi):
    """Conjugate every entry by pi: the result sends pi[i] to pi[p[i]]."""
    out = []
    for p in perms:
        q = [0] * len(p)
        for i, x in enumerate(p):
            q[pi[i]] = pi[x]
        out.append(tuple(q))
    return tuple(out)


def relabel_origami(o, white, grey):
    """Rename white square w to white[w] and grey square g to grey[g]."""
    out = {"m": o["m"]}
    for k in "RLUD":
        x = [0] * o["m"]
        for w, g in enumerate(o[k]):
            x[white[w]] = grey[g]
        out[k] = x
    return out


def random_tuple(rng, n, d):
    """A uniformly random transitive tuple of shape (n, d)."""
    while True:
        head = [_perm(rng, d) for _ in range(n - 1)]
        prod = tuple(range(d))
        for p in head:
            prod = compose(prod, p)
        perms = tuple(head) + (invert(prod),)
        if tuple_problem(perms) is None:
            return perms


def random_origami(rng, m):
    """A random connected bipartite tiling with m white squares."""
    while True:
        o = {"m": m, "R": list(_perm(rng, m)), "L": list(_perm(rng, m)), "U": list(_perm(rng, m)), "D": list(_perm(rng, m))}
        if origami_problem(o) is None:
            return o


def _polyval(coeffs, x):
    out = 0j
    for c in coeffs:
        out = out * x + c
    return out


def _segment_distance(p, a, b):
    ab = b - a
    s = max(0.0, min(1.0, ((p - a) * ab.conjugate()).real / abs(ab) ** 2))
    return abs(p - (a + s * ab))


def random_cover(rng, d):
    """A random real polynomial of degree d whose branch points are in
    general position around the base point 0.

    The d-1 critical points are the (d-1)-th roots of unity, each moved by
    up to 15 % (conjugate pairs kept paired, so the coefficients are
    real), and the constant term is random.  Its critical values then lie
    near a circle about 0, well apart in angle, so straight lassos from the
    base cannot pass another branch point.  They are returned in planar
    order: counter-clockwise from the upward ray, the direction the
    program's large-circle check leaves the base in.
    """
    m = d - 1
    while True:
        crit = [None] * m
        for k in range(m):
            if crit[k] is not None:
                continue
            w = cmath.exp(2j * math.pi * k / m)
            z = w * (1 + complex(rng.uniform(-0.15, 0.15), rng.uniform(-0.15, 0.15)))
            mirror = (m - k) % m
            if mirror == k:
                z = complex(z.real, 0.0)
            crit[k], crit[mirror] = z, z.conjugate()
        deriv = [1 + 0j]
        for c in crit:
            deriv = [a - c * b for a, b in zip(deriv + [0j], [0j] + deriv)]
        coeffs = [d * a.real / (d - k) for k, a in enumerate(deriv)] + [rng.uniform(-0.3, 0.3) * m]
        values = [_polyval(coeffs, c) for c in crit]
        scale = max(abs(v) for v in values)
        coeffs = [c / scale for c in coeffs]
        values = [v / scale for v in values]
        if min(abs(v) for v in values) < 0.3:
            continue
        values.sort(key=lambda v: (cmath.phase(v) - math.pi / 2) % (2 * math.pi))
        gaps = [abs(a - b) for i, a in enumerate(values) for b in values[i + 1:]]
        clear = all(
            _segment_distance(o, 0j, b) > 0.2 * min(gaps) for b in values for o in values if o is not b
        )
        if min(gaps) > 1.0 / m and clear:
            return coeffs, values


def _points_json(values):
    return json.dumps([v.real if abs(v.imag) < 1e-15 else [v.real, v.imag] for v in values])


def _request(argv, check, params, label, stdin=None, files=None, env=None, known=None):
    return {
        "argv": [str(a) for a in argv],
        "stdin": stdin,
        "files": files or {},
        "env": env or {},
        "check": check,
        "params": params,
        "label": label,
        "known": known,
    }


# --- requests shared between workloads ---------------------------------------


def enumerate_request(n, d, fmt="json"):
    argv = ["enumerate", "--n", n, "--d", d] + (["--format", "json"] if fmt == "json" else [])
    return _request(argv, "enumerate", {"n": n, "d": d, "format": fmt}, "enumerate n%d d%d" % (n, d))


def braid_seed_request(rng, name, gens, perms):
    pi = _perm(rng, len(perms[0]))
    seed = relabel_tuple(perms, pi)
    doc = {"n": len(seed), "d": len(seed[0]), "perms": [list(p) for p in seed]}
    return _request(
        ["orbit", "--seed", name, "--gens", gens, "--format", "json"],
        "braid_orbit",
        {"n": len(seed), "d": len(seed[0]), "gens": gens, "seed": doc["perms"]},
        "orbit --seed d%d %s" % (len(seed[0]), gens),
        files={name: json.dumps(doc)},
    )


def origami_orbit_request(rng, name, o, stdin=False):
    o = relabel_origami(o, _perm(rng, o["m"]), _perm(rng, o["m"]))
    text = json.dumps(o)
    argv = ["origami", "orbit", "--format", "json"] + ([] if stdin else ["--in", name])
    return _request(
        argv, "origami_orbit", {"origami": o}, "origami orbit m%d" % o["m"],
        stdin=text if stdin else None, files=None if stdin else {name: text},
    )


def chebyshev_request(d):
    argv = ["monodromy", "--poly", json.dumps(chebyshev(d)), "--branch-points", "[-1, 1]", "--format", "json"]
    return _request(argv, "monodromy", {"family": "chebyshev", "d": d}, "monodromy T_%d" % d)


def random_cover_request(rng, d, fmt="json", reverse=False):
    coeffs, values = random_cover(rng, d)
    if reverse:
        values = values[::-1]
    argv = ["monodromy", "--poly", json.dumps(coeffs), "--branch-points", _points_json(values),
            "--base", "0,0", "--format", fmt]
    return _request(
        argv, "monodromy", {"family": "random", "d": d, "format": fmt},
        "monodromy random d%d%s" % (d, " reversed" if reverse else ""),
    )


def ap_request(t, tol, as_json=True):
    argv = ["ap", "--t", repr(t), "--tol", repr(tol)] + (["--json"] if as_json else [])
    return _request(argv, "modular", {"tau": [0.0, t], "tol": tol, "json": as_json}, "ap t=%.3g tol=%g" % (t, tol))


def lambda_request(x, y, tol, as_json=True):
    argv = ["lambda-star", "--tau=%r,%r" % (x, y), "--tol", repr(tol)] + (["--json"] if as_json else [])
    return _request(argv, "modular", {"tau": [x, y], "tol": tol, "json": as_json}, "lambda-star Im=%.3g tol=%g" % (y, tol))


def hurwitz_request(a, lift, fmt="json"):
    return _request(
        ["hurwitz", "--a", repr(a), "--lift", lift, "--format", fmt],
        "hurwitz", {"format": fmt}, "hurwitz %s" % lift,
    )


def qseries_request(order, as_json=False):
    argv = ["qseries", "--order", order] + (["--json"] if as_json else [])
    return _request(argv, "qseries", {"order": order, "json": as_json}, "qseries %d" % order)


def table1_request(rows=None, check=False):
    argv = ["table1"] + (["--rows", ",".join(str(n) for n in rows)] if rows else []) + (["--check"] if check else [])
    want = list(rows) if rows else list(TABLE1_ROWS)
    return _request(argv, "table1", {"rows": want, "check": check}, "table1%s" % (" --check" if check else ""))


# The n of the twenty stored rows, as documented for `table1`.
TABLE1_ROWS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 15, 16, 18, 22, 25, 28, 37, 58)


# --- workloads -----------------------------------------------------------------


def census_round(seed, r):
    """The timed cells, the all-class orbits of (4,4), and three relabelled
    copies of every pooled class and tiling.  (5,4) runs in the traced
    sweep only: the time of one process varies by about 15 % from run to
    run, and a second eight-second request next to (4,5) would double the
    share of ops_per_s that rides on two single processes."""
    rng = _rng("census", seed, r)
    reqs = [enumerate_request(n, d) for n, d in TIMED_CELLS]
    for gens in ("preset:pure", "preset:gamma2"):
        reqs.append(_request(
            ["orbit", "--n", 4, "--d", 4, "--gens", gens, "--format", "json"],
            "braid_orbit", {"n": 4, "d": 4, "gens": gens, "seed": None}, "orbit n4 d4 %s" % gens,
        ))
    for copy in range(3):
        for k, (gens, perms) in enumerate(BRAID_POOL):
            reqs.append(braid_seed_request(rng, "r%d_braid%d_%d.json" % (r, k, copy), gens, perms))
        for k, o in enumerate(ORIGAMI_POOL):
            reqs.append(origami_orbit_request(rng, "r%d_origami%d_%d.json" % (r, k, copy), o))
    rng.shuffle(reqs)
    return reqs


def _golden(seed, r):
    """Low-discrepancy position in [0, 1) of round r, offset by the seed."""
    return (_rng("numeric", seed, "offset").random() + r * 0.6180339887498949) % 1.0


def numeric_round(seed, r):
    rng = _rng("numeric", seed, r)
    reqs = [chebyshev_request(rng.randint(lo, hi)) for lo, hi in CHEB_STRATA]
    reqs += [random_cover_request(rng, rng.randint(lo, hi)) for lo, hi in RANDOM_STRATA]
    reqs += [hurwitz_request(_log_uniform(rng, *HURWITZ_A), lift) for lift in ("L1", "L2", "L3", "L4")]
    for k in range(3):
        reqs.append(ap_request(_stratum(rng, *AP_T, k, 3), AP_TOLS[(k + r) % 3]))
        y = _stratum(rng, *LAMBDA_IM, k, 3)
        x = rng.choice((-1, 1)) * rng.uniform(0.1, 0.9)
        reqs.append(lambda_request(x, y, AP_TOLS[(k + r + 1) % 3]))
    lo, hi = QSERIES_ORDER
    reqs.append(qseries_request(lo + int((hi - lo) * _golden(seed, r)), as_json=True))
    reqs.append(table1_request(check=True))
    rng.shuffle(reqs)
    return reqs


MALFORMED = (
    (["enumerate", "--n", "2", "--d", "3"], None, {1}),
    (["enumerate", "--n", "3"], None, {2}),
    (["table1", "--rows", "11"], None, {1}),
    (["hurwitz", "--a", "0.5", "--lift", "L1"], None, {1}),
    (["lambda-star", "--tau", "0.5,-1"], None, {1}),
    (["lambda-star", "--tau", "abc"], None, {1}),
    (["ap", "--t", "-2"], None, {1}),
    (["orbit", "--n", "3", "--d", "3", "--gens", "preset:gamma2"], None, {1}),
    (["qseries", "--order", "-1"], None, {1}),
    (["origami", "delta"], '{"m": 1, "R": [0], "L": [0], "U": [0], "D": [0]}', {1}),
    (["origami", "to-dessin"], '{"m": 2, "R": [0, 0], "L": [0, 1], "U": [0, 1], "D": [0, 1]}', {1}),
    (["monodromy", "--poly", "[1, 0, 0]", "--branch-points", "[0]"], None, {1}),
    (["ap", "--t", "1", "--format", "json"], None, {2}),
)


def interactive_round(seed, r):
    rng = _rng("interactive", seed, r)
    reqs = []
    n, d = rng.choice(INTERACTIVE_CELLS)
    reqs.append(enumerate_request(n, d, fmt="table"))
    n, d = rng.choice(INTERACTIVE_CELLS)
    reqs.append(enumerate_request(n, d, fmt="json"))
    o = random_origami(rng, rng.randint(2, 4))
    reqs.append(_request(["origami", "to-dessin"], "to_dessin", {"origami": o}, "origami to-dessin", stdin=json.dumps(o)))
    t = random_tuple(rng, 4, rng.randint(2, 4))
    doc = {"n": 4, "d": len(t[0]), "perms": [list(p) for p in t]}
    reqs.append(_request(["origami", "from-dessin"], "from_dessin", {"tuple": doc["perms"]}, "origami from-dessin", stdin=json.dumps(doc)))
    o = random_origami(rng, rng.randint(2, 4))
    op = rng.choice(("hor", "ver", "hor-inv", "ver-inv"))
    reqs.append(_request(["origami", "delta", "--op", op], "delta", {"origami": o}, "origami delta %s" % op, stdin=json.dumps(o)))
    reqs.append(origami_orbit_request(rng, None, random_origami(rng, rng.randint(2, 4)), stdin=True))
    gens = rng.choice(("preset:pure", "preset:gamma2"))
    reqs.append(braid_seed_request(rng, "r%d_seed.json" % r, gens, random_tuple(rng, 4, rng.randint(3, 4))))
    reqs.append(_request(
        ["orbit", "--n", 3, "--d", 3, "--format", "json"],
        "braid_orbit", {"n": 3, "d": 3, "gens": "preset:pure", "seed": None}, "orbit n3 d3",
    ))
    reqs.append(hurwitz_request(_log_uniform(rng, *HURWITZ_A), rng.choice(("L1", "L2", "L3", "L4")), fmt="table"))
    reqs.append(random_cover_request(rng, rng.randint(3, 5), fmt="table"))
    reqs.append(chebyshev_request(rng.randint(3, 7)))
    for as_json in (False, True):
        reqs.append(ap_request(_log_uniform(rng, *AP_T), 1e-12, as_json))
        reqs.append(lambda_request(rng.choice((-1, 1)) * rng.uniform(0.1, 0.9), _log_uniform(rng, *LAMBDA_IM), 1e-12, as_json))
    reqs.append(table1_request(rows=sorted(rng.sample(TABLE1_ROWS, 3))))
    reqs.append(table1_request(rows=sorted(rng.sample(TABLE1_ROWS, 2)), check=True))
    reqs.append(qseries_request(rng.randint(1, 50)))
    reqs.append(qseries_request(rng.randint(1, 50), as_json=True))
    argv, stdin, codes = MALFORMED[(r + _rng("interactive", seed, "malformed").randrange(len(MALFORMED))) % len(MALFORMED)]
    reqs.append(_request(argv, "error", {"exit": sorted(codes)}, "malformed: %s" % " ".join(argv[:2]), stdin=stdin))
    rng.shuffle(reqs)
    return reqs


ROUNDS = {"census": census_round, "numeric": numeric_round, "interactive": interactive_round}


# --- the seed's known failures ---------------------------------------------------

# ROADMAP item 5: inputs that escape as tracebacks instead of code: message.
CLI_CONTRACT_PROBES = (
    (["ap", "--t", "2"], None, {"DESSINRY_TOL": "abc"}),
    (["ap", "--t", "2", "--tol", "0"], None, None),
    (["ap", "--t", "2", "--tol", "-1"], None, None),
    (["ap", "--t", "nan"], None, None),
    (["hurwitz", "--a", "nan", "--lift", "L1"], None, None),
    (["origami", "to-dessin"], '{"m": 1, "R": [0]', None),
    (["origami", "to-dessin", "--in", "missing.json"], None, None),
    (["orbit", "--seed", "missing.json"], None, None),
    (["monodromy", "--poly", "[[1, 0], [0, 0], [-3, 0], [0, 0]]", "--branch-points", "[-2, 2]"], None, None),
)


def probes(workload, seed):
    """Requests on which the seed program is known to fail.

    numeric: ap at t = 0.05 (raises) and t = 0.06 (misses tol), one
    Chebyshev T_43..T_48 and one random cover with its branch points in
    reverse order.
    interactive: two of ROADMAP item 5's inputs, taken in turn by seed, to
    match their share among the malformed requests of a user session.
    """
    rng = _rng(workload, seed, "probes")
    if workload == "numeric":
        out = [ap_request(0.05, 1e-12), ap_request(0.06, 1e-12), chebyshev_request(rng.randint(43, 48)),
               random_cover_request(rng, rng.randint(6, 20), reverse=True)]
        for req, known in zip(out, ("ap at t <= 0.06", "ap at t <= 0.06", "Chebyshev T_43..T_48",
                                    "branch points in non-planar order")):
            req["known"] = known
        return out
    if workload == "interactive":
        picks = [CLI_CONTRACT_PROBES[(2 * seed + k) % len(CLI_CONTRACT_PROBES)] for k in range(2)]
        return [
            _request(argv, "error", {"exit": [1, 2]}, "contract: %s" % " ".join(argv[:3]),
                     stdin=stdin, env=env, known="ROADMAP item 5 input")
            for argv, stdin, env in picks
        ]
    return []


WARMUP = {
    "census": lambda: enumerate_request(4, 3),
    "numeric": lambda: ap_request(1.0, 1e-30),
    "interactive": lambda: qseries_request(10),
}


def sweep(workload, seed):
    """Requests the traced run adds so that every layer is measured on
    every workload: the enumeration cells the round lacks, one orbit of
    each kind (unless the workload is census), one request per numeric
    kind (unless it is numeric), and the numeric known-failure probes."""
    rng = _rng(workload, seed, "sweep")
    out = [enumerate_request(n, d) for n, d in CELLS if workload != "census" or (n, d) not in TIMED_CELLS]
    if workload != "census":
        out.append(braid_seed_request(rng, "sweep_braid.json", *BRAID_POOL[1]))
        out.append(origami_orbit_request(rng, "sweep_origami.json", ORIGAMI_POOL[1]))
    if workload != "numeric":
        out += [
            chebyshev_request(rng.randint(*CHEB_STRATA[1])),
            random_cover_request(rng, rng.randint(*RANDOM_STRATA[1])),
            hurwitz_request(_log_uniform(rng, *HURWITZ_A), "L1"),
            ap_request(_log_uniform(rng, *AP_T), AP_TOLS[1]),
            lambda_request(0.5, _log_uniform(rng, *LAMBDA_IM), AP_TOLS[1]),
            qseries_request(QSERIES_ORDER[0]),
        ]
    return out + probes("numeric", seed)
