"""Spans at dessinry's module boundaries, for the traced run only.

The tracer replaces a public function in the namespace of the module that
calls it (for example the `canonical_form` that enumeration, braid and
origami import from core) with a wrapper that records a span, and puts
the original back afterwards.  No file under src/ changes.  Spans are kept
in memory as [name, start, end, parent, request, failed, info] and turned
into per-layer figures when the run ends.  A layer's self time is its
spans' duration minus the time their child spans cover.
"""

import math
import random
import time

import mpmath

import oracles

SPAN, START, END, PARENT, REQUEST, FAILED, INFO = range(7)

COVERS = ("covers.numerical_monodromy", "covers.poly_roots")
MODULAR = ("modular.ap", "modular.lambda_star", "modular.lambda_star_qseries")


class Tracer:
    def __init__(self, sample_seed=0, sample_size=256):
        self.spans = []
        self.stack = []
        self.counts = {}
        self.request = None
        self.active = False
        self._restore = []
        self.samples = []  # tuples handed to canonical_form, for the perms timings
        self._seen = 0
        self._sample_size = sample_size
        self._rng = random.Random(sample_seed)
        self.sampling = False

    def span(self, owner, attr, name, info=None):
        """Replace owner.attr by a wrapper recording a span named name."""
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            rec = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else None, tracer.request, False, None]
            index = len(tracer.spans)
            tracer.spans.append(rec)
            tracer.stack.append(index)
            rec[START] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                rec[FAILED] = True
                raise
            finally:
                rec[END] = time.perf_counter()
                tracer.stack.pop()
            if info is not None:
                rec[INFO] = info(args, kwargs, result)
            return result

        self._install(owner, attr, wrapper, original)

    def count(self, owner, attr, name):
        """Replace owner.attr by a wrapper that only counts calls."""
        original = getattr(owner, attr)
        tracer = self
        self.counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.counts[name] += 1
            return original(*args, **kwargs)

        self._install(owner, attr, wrapper, original)

    def _install(self, owner, attr, wrapper, original):
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def sample(self, t):
        """Reservoir-sample the tuples seen, to time perms primitives on them."""
        if not self.sampling:
            return
        self._seen += 1
        if len(self.samples) < self._sample_size:
            self.samples.append(t.perms)
        else:
            k = self._rng.randrange(self._seen)
            if k < self._sample_size:
                self.samples[k] = t.perms

    def restore(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []


def instrument(tracer, pkg):
    """Wrap the cross-module calls of the dessinry package `pkg`."""
    cli, core, enumeration, braid, origami, covers, modular = (
        pkg.cli, pkg.core, pkg.enumeration, pkg.braid, pkg.origami, pkg.covers, pkg.modular
    )

    def canon_info(args, kwargs, result):
        tracer.sample(args[0])
        return None

    for owner in (core, enumeration, braid, origami, covers):
        tracer.span(owner, "canonical_form", "core.canonical_form", canon_info)
    tracer.span(enumeration, "centralizer_order", "core.centralizer_order")
    tracer.span(cli, "enumerate_classes", "enumeration.enumerate_classes",
                lambda a, k, r: (a[0], a[1], len(r.classes)))
    tracer.span(braid, "braid_orbit", "braid.braid_orbit", lambda a, k, r: len(r.elements))
    tracer.count(braid, "apply_endomorphism", "braid.images_applied")
    tracer.span(origami, "origami_orbit", "origami.origami_orbit", lambda a, k, r: len(r.elements))
    tracer.count(origami, "canonical_origami", "origami.canonical_origami_calls")
    tracer.span(covers, "numerical_monodromy", "covers.numerical_monodromy",
                lambda a, k, r: (a[0].degree, len(a[0].branch_points) + 1))
    tracer.span(covers, "poly_roots", "covers.poly_roots")

    def modular_info(args, kwargs, result):
        tol = args[1] if len(args) > 1 else kwargs.get("tol", 1e-12)
        return (args[0], float(tol), result.value, result.trunc_bound)

    tracer.span(modular, "ap", "modular.ap", modular_info)
    tracer.span(modular, "lambda_star", "modular.lambda_star", modular_info)
    tracer.span(modular, "lambda_star_qseries", "modular.lambda_star_qseries", lambda a, k, r: r.order + 1)


# --- per-layer figures ------------------------------------------------------------


def _self_times(spans):
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] is not None:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def _entry_self_times(spans, self_s, family):
    """Self time of the spans named in `family`, each credited to its
    outermost ancestor in the family: the entry point its caller used.
    `modular.ap` does all its work in a nested `lambda_star`, so this
    credits that work to ap and leaves lambda_star only its direct calls."""
    out = {}
    for i, t in enumerate(self_s):
        if spans[i][SPAN] not in family:
            continue
        entry, p = i, spans[i][PARENT]
        while p is not None:
            if spans[p][SPAN] in family:
                entry = p
            p = spans[p][PARENT]
        name = spans[entry][SPAN]
        out[name] = out.get(name, 0.0) + t
    return out


def _outermost(spans, i, family):
    p = spans[i][PARENT]
    while p is not None:
        if spans[p][SPAN] in family:
            return False
        p = spans[p][PARENT]
    return True


def _tau_of(arg):
    """(Re tau, Im tau) of a lambda_star argument: a point or a number."""
    tau = getattr(arg, "tau", arg)
    z = complex(tau)
    return (z.real, z.imag)


def bound_violations(spans):
    """Outermost ap / lambda_star results farther from the theta reference
    than their own trunc_bound."""
    bad = 0
    for i, s in enumerate(spans):
        if s[SPAN] not in ("modular.ap", "modular.lambda_star") or s[FAILED] or not _outermost(spans, i, MODULAR):
            continue
        arg, tol, value, bound = s[INFO]
        re_tau, im_tau = (0.0, float(arg)) if s[SPAN] == "modular.ap" else _tau_of(arg)
        digits = oracles.reference_digits(tol, im_tau)
        ref = oracles.theta_reference(re_tau, im_tau, digits)
        with mpmath.workdps(digits):
            if abs(mpmath.mpc(value) - ref) > bound:
                bad += 1
    return bad


def layer_metrics(spans, counts):
    """Per-layer figures from one traced pass."""
    self_s = _self_times(spans)
    total = {}
    own = {}
    calls = {}
    for s, t in zip(spans, self_s):
        total[s[SPAN]] = total.get(s[SPAN], 0.0) + s[END] - s[START]
        own[s[SPAN]] = own.get(s[SPAN], 0.0) + t
        calls[s[SPAN]] = calls.get(s[SPAN], 0) + 1
    m = {}
    m["core.canonical_form_calls"] = calls.get("core.canonical_form", 0)
    m["core.canonical_form_self_s"] = own.get("core.canonical_form", 0.0)
    m["core.centralizer_order_self_s"] = own.get("core.centralizer_order", 0.0)

    cells = {}
    candidates = classes = enum_canon = 0
    enum_ids = set()
    for i, s in enumerate(spans):
        if s[SPAN] == "enumeration.enumerate_classes" and not s[FAILED]:
            n, d, k = s[INFO]
            cells.setdefault((n, d), []).append(s[END] - s[START])
            heads = _partition_count(d)
            candidates += heads * math.factorial(d) ** (n - 2)
            classes += k
            enum_ids.add(i)
    for s in spans:
        if s[SPAN] == "core.canonical_form" and s[PARENT] in enum_ids:
            enum_canon += 1
    for n, d in ((3, 6), (4, 5), (5, 4), (6, 3)):
        times = sorted(cells.get((n, d), [float("nan")]))
        m["enumeration.cell_s.n%dd%d" % (n, d)] = times[len(times) // 2]
    m["enumeration.candidates"] = candidates
    m["enumeration.class_yield"] = classes / enum_canon if enum_canon else 0.0

    braid_elems = sum(s[INFO] for s in spans if s[SPAN] == "braid.braid_orbit" and not s[FAILED])
    images = counts.get("braid.images_applied", 0)
    m["braid.orbit_self_s"] = own.get("braid.braid_orbit", 0.0)
    m["braid.images_applied"] = images
    m["braid.image_yield"] = braid_elems / images if images else 0.0
    ori_elems = sum(s[INFO] for s in spans if s[SPAN] == "origami.origami_orbit" and not s[FAILED])
    canon_ori = counts.get("origami.canonical_origami_calls", 0)
    m["origami.orbit_self_s"] = own.get("origami.origami_orbit", 0.0)
    m["origami.canonical_origami_calls"] = canon_ori
    m["origami.image_yield"] = ori_elems / canon_ori if canon_ori else 0.0

    sheet_lassos = sum(s[INFO][0] * s[INFO][1] for s in spans if s[SPAN] == "covers.numerical_monodromy" and not s[FAILED])
    mono_time = sum(s[END] - s[START] for s in spans if s[SPAN] == "covers.numerical_monodromy" and not s[FAILED])
    m["covers.monodromy_self_s"] = own.get("covers.numerical_monodromy", 0.0)
    m["covers.poly_roots_calls"] = calls.get("covers.poly_roots", 0)
    m["covers.poly_roots_self_s"] = own.get("covers.poly_roots", 0.0)
    m["covers.ms_per_sheet_lasso"] = 1000.0 * mono_time / sheet_lassos if sheet_lassos else 0.0
    m["covers.failures"] = sum(
        1 for i, s in enumerate(spans) if s[SPAN] in COVERS and s[FAILED] and _outermost(spans, i, COVERS)
    )

    coeffs = sum(s[INFO] for s in spans if s[SPAN] == "modular.lambda_star_qseries" and not s[FAILED])
    entry = _entry_self_times(spans, self_s, MODULAR)
    m["modular.ap_self_s"] = entry.get("modular.ap", 0.0)
    m["modular.lambda_star_self_s"] = entry.get("modular.lambda_star", 0.0)
    m["modular.qseries_self_s"] = entry.get("modular.lambda_star_qseries", 0.0)
    qs_time = total.get("modular.lambda_star_qseries", 0.0)
    m["modular.qseries_coeffs_per_s"] = coeffs / qs_time if qs_time else 0.0
    m["modular.failures"] = sum(
        1 for i, s in enumerate(spans) if s[SPAN] in MODULAR and s[FAILED] and _outermost(spans, i, MODULAR)
    )
    m["modular.bound_violations"] = bound_violations(spans)
    return m


def _partition_count(d):
    """Number of partitions of d: the enumeration's heads, one per cycle type."""
    ways = [1] + [0] * d
    for part in range(1, d + 1):
        for total in range(part, d + 1):
            ways[total] += ways[total - part]
    return ways[d]


def perms_timings(perms_mod, samples, repeats=7, inner=20):
    """Median per-call ns of compose, relabel and acts_transitively on the
    sampled tuples (each entry composed with and relabelled by the next)."""
    if not samples:
        return {name: math.nan for name in ("perms.compose_ns", "perms.relabel_ns", "perms.acts_transitively_ns")}
    pairs = [(t[0], t[1]) for t in samples]
    tuples = [(t, len(t[0])) for t in samples]
    compose, relabel, transitive = perms_mod.compose, perms_mod.relabel, perms_mod.acts_transitively

    def time_compose():
        for a, b in pairs:
            compose(a, b)

    def time_relabel():
        for a, b in pairs:
            relabel(a, b)

    def time_transitive():
        for t, d in tuples:
            transitive(t, d)

    out = {}
    for name, body in (
        ("perms.compose_ns", time_compose),
        ("perms.relabel_ns", time_relabel),
        ("perms.acts_transitively_ns", time_transitive),
    ):
        per_call = []
        for _ in range(repeats):
            start = time.perf_counter_ns()
            for _ in range(inner):
                body()
            per_call.append((time.perf_counter_ns() - start) / (inner * len(samples)))
        per_call.sort()
        out[name] = per_call[len(per_call) // 2]
    return out
