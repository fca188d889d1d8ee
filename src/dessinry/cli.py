"""Command-line entry point.

Subcommands: enumerate, orbit, origami, hurwitz, monodromy, lambda-star,
ap, table1, qseries.  Exit codes: 0 success, 1 domain error or closed
stdout (diagnostic ``code: message`` on stderr), 2 usage error.
Identical argv gives byte-identical stdout.  Each subcommand prints text
or JSON (--format json, or --json where that is the flag), and every JSON
output carries ``"schema": "dessinry/1"``; high-precision numbers are
emitted as decimal strings of 17 significant digits.  DOT is printed only
for graphs.  For lambda-star, ap and table1 only, the environment variable
DESSINRY_TOL overrides the default tolerance; an explicit --tol flag wins
over both.
"""

import argparse
import json
import math
import os
import re
import sys
import types
from json.encoder import encode_basestring_ascii

# enumeration, braid, covers, origami, qseries and the mpmath users modular
# and cm_values are imported by the handlers that need them, so that every
# other subcommand starts without loading or compiling them: only ap,
# lambda-star and table1 load mpmath.
from . import core
from .errors import DessinryError
from .perms import cycle_str, cycles_text
from .perms import cycles as perm_cycles

SCHEMA = "dessinry/1"


def __getattr__(name):
    # enumeration loads on first use: enumerate and orbit --n/--d call
    # cli.enumerate_classes, where bench/tracing.py wraps it.
    if name != "enumerate_classes":
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    from .enumeration import enumerate_classes

    return enumerate_classes


def _fmt(x):
    from .modular import _nstr

    return _nstr(x, 17)


def _tol(args, fallback):
    tol = args.tol
    if tol is None:
        env = os.environ.get("DESSINRY_TOL")
        if env is None:
            return fallback
        try:
            tol = float(env)
        except ValueError:
            raise DessinryError("invalid-parameter", "DESSINRY_TOL must be a number, got %r" % env) from None
    if not (math.isfinite(tol) and tol > 0):
        raise DessinryError("invalid-parameter", "tolerance must be a positive finite number, got %r" % tol)
    return tol


class _Encoded(str):
    """JSON text that _json writes as it is."""


class _Printed(dict):
    """A command's memo of the permutations it prints, keyed by the tuple:
    each maps to its cycle string, its cycle type, and the JSON texts of its
    array, its quoted cycle string and its cycle type at indent, the newline
    and indentation of the line that holds them, all from one cycles() pass
    per distinct permutation."""

    def __init__(self, indent):
        super().__init__()
        self.indent = indent

    def __missing__(self, p):
        cycs = perm_cycles(p)
        text, ctype = cycles_text(cycs), core._cycle_type(cycs)
        texts = _json(p, self.indent), encode_basestring_ascii(text), _json(ctype, self.indent)
        entry = self[p] = (text, ctype, *map(_Encoded, texts))
        return entry


def _json(value, indent="\n"):
    """What json.dumps(value, indent=2, sort_keys=True) prints, built with
    str.join; indent is the newline and indentation of the line that holds
    the value.  Keys must be strings, as every key the CLI prints is."""
    if isinstance(value, str):
        return value if type(value) is _Encoded else encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}.get(text, text)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        # Exact type: a bool is an int, but prints as true or false.
        if all(type(x) is int for x in value):
            items = map(int.__repr__, value)
        else:
            items = [_json(x, inner) for x in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [encode_basestring_ascii(k) + ": " + _json(v, inner) for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    raise TypeError("Object of type %s is not JSON serializable" % type(value).__name__)


def _emit(args, payload, lines):
    """Print payload() as JSON with the schema tag under --format json (or
    --json), else the text lines(); only the one printed is built.

    The JSON is what json.dumps(..., indent=2, sort_keys=True) prints, but
    written one top-level value at a time, and a top-level value that is a
    generator one item at a time, so that a long list is never held whole.
    payload() runs before the first byte is written, so its errors leave
    stdout empty."""
    if args.format != "json":
        for line in lines():
            print(line)
        return
    doc = {"schema": SCHEMA, **payload()}
    write = sys.stdout.write
    for k, key in enumerate(sorted(doc)):
        write(("{\n  " if k == 0 else ",\n  ") + encode_basestring_ascii(key) + ": ")
        value = doc[key]
        if not isinstance(value, types.GeneratorType):
            write(_json(value, "\n  "))
            continue
        opened = False
        for item in value:
            write((",\n    " if opened else "[\n    ") + _json(item, "\n    "))
            opened = True
        write("\n  ]" if opened else "[]")
    write("\n}\n")


def _tuple_json(printed):
    """The JSON keys that every printed tuple carries, from the _Printed
    entries of its permutations."""
    _, profile, arrays, strs, shapes = zip(*printed)
    return {"perms": arrays, "cycles": strs, "genus": core._genus(profile), "profile": shapes}


def _emit_tuple(args, t, **extra):
    memo = _Printed("\n    ")
    printed = [memo[p] for p in t.perms]
    _emit(args, lambda: {**extra, "n": t.n, "d": t.d, **_tuple_json(printed)}, lambda: [_tuple_label(printed)])


def _origami_json(o, memo):
    return {"m": o.m, "R": memo[o.R][2], "L": memo[o.L][2], "U": memo[o.U][2], "D": memo[o.D][2]}


def _emit_origami(args, o, **extra):
    memo = _Printed("\n  ")
    _emit(args, lambda: {**extra, **_origami_json(o, memo)}, lambda: [_origami_label(o, memo)])


def _emit_orbit(args, result, labels, element_json, lines, **extra):
    """An orbit as DOT, JSON or text; its DOT text is built only for
    --format dot."""
    if args.format == "dot":
        print(_orbit_dot(labels, result.generator_log))
        return

    def payload():
        # Elements and edges are streamed; an edge [src, name, dst] is one
        # text from its generator's template.
        log = result.generator_log
        edge = {name: _json([_Encoded("%d"), name, _Encoded("%d")], "\n    ") for name in {e[1] for e in log}}
        return {
            **extra,
            "element_count": len(result.elements),
            "elements": (element_json(x) for x in result.elements),
            "labels": labels,
            "edges": (_Encoded(edge[name] % (src, dst)) for src, name, dst in log),
        }

    _emit(args, payload, lines)


def _emit_value(args, head, shown, out, tol, **where):
    """A ModularValue as 'head = shown  (error <= bound)' or as JSON."""
    _emit(
        args,
        lambda: {
            **where,
            "value": {"re": _fmt(out.value.real), "im": _fmt(out.value.imag)},
            "trunc_bound": _fmt(out.trunc_bound),
            "tol": tol,
        },
        lambda: ["%s = %s  (error <= %s)" % (head, _fmt(shown), _fmt(out.trunc_bound))],
    )


def _origami_label(o, memo):
    return "R=%s L=%s U=%s D=%s" % (memo[o.R][0], memo[o.L][0], memo[o.U][0], memo[o.D][0])


def _load_json(read, what):
    """json.loads(read()); text that does not decode, or does not parse, or
    nests too deeply for the parser, is an invalid-parameter naming what."""
    try:
        return json.loads(read())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DessinryError("invalid-parameter", "bad JSON %s: %s" % (what, exc)) from None
    except RecursionError:
        raise DessinryError("invalid-parameter", "bad JSON %s: nested too deeply" % what) from None


def _read_json_arg(path):
    try:
        if path is None or path == "-":
            return _load_json(sys.stdin.read, "input")
        with open(path, "r", encoding="utf-8") as fh:
            return _load_json(fh.read, "input")
    except OSError as exc:
        raise DessinryError("invalid-parameter", "cannot read %s: %s" % (path, exc.strerror)) from None


def _dessin_dot(t):
    lines = ["graph dessin {"]
    node_of = {}
    for nu, p in enumerate(t.perms):
        for k, cyc in enumerate(perm_cycles(p)):
            name = "v%d_%d" % (nu, k)
            lines.append('  %s [label="%d %s"];' % (name, nu, cycle_str(cyc)))
            for i in cyc:
                node_of[(nu, i)] = name
    for i in range(t.d):
        for nu in range(t.n):
            a = node_of[(nu, i)]
            b = node_of[((nu + 1) % t.n, i)]
            lines.append('  %s -- %s [label="%d"];' % (a, b, i))
    lines.append("}")
    return "\n".join(lines)


def _orbit_dot(labels, log):
    lines = ["digraph orbit {"]
    for k, lab in enumerate(labels):
        lines.append('  e%d [label="%s"];' % (k, lab))
    for src, name, dst in log:
        lines.append('  e%d -> e%d [label="%s"];' % (src, dst, name))
    lines.append("}")
    return "\n".join(lines)


def _tuple_label(printed):
    return " | ".join([entry[0] for entry in printed])


def _cmd_enumerate(args):
    result = sys.modules[__name__].enumerate_classes(args.n, args.d)
    memo = _Printed("\n        ")

    def lines():
        yield "n=%d d=%d: %d classes, %d marked" % (result.n, result.d, len(result.classes), result.marked_count)
        for k, (t, order) in enumerate(zip(result.classes, result.centralizer_orders)):
            strs, profile, *_ = zip(*[memo[p] for p in t.perms])
            shape = " ".join("+".join(map(str, part)) for part in profile)
            normal = "yes" if order == result.d else "no"
            genus = core._genus(profile)
            yield "class %d: %s  genus %d  profile %s  normal %s" % (k, " | ".join(strs), genus, shape, normal)

    def classes():
        # Each class is one text: a template over its five sorted keys, the
        # lists filled with the memo's texts.
        slot = _Encoded("%s")
        template = _json({"cycles": [slot], "genus": slot, "normal": slot, "perms": [slot], "profile": [slot]}, "\n    ")
        sep = ",\n        "
        for t, order in zip(result.classes, result.centralizer_orders):
            _, profile, arrays, strs, shapes = zip(*[memo[p] for p in t.perms])
            normal = "true" if order == result.d else "false"
            yield _Encoded(template % (sep.join(strs), core._genus(profile), normal, sep.join(arrays), sep.join(shapes)))

    _emit(
        args,
        lambda: {
            "n": result.n,
            "d": result.d,
            "class_count": len(result.classes),
            "marked_count": result.marked_count,
            "classes": classes(),
        },
        lines,
    )


def _gens_for(spec_name, n):
    """The tables of a --gens choice: preset:pure or preset:gamma2."""
    from . import braid

    if spec_name == "preset:pure":
        return braid.preset_pure_generators(n)
    if n != 4:
        raise DessinryError("invalid-parameter", "preset:gamma2 is defined for n=4, got n=%d" % n)
    return braid.preset_gamma2()


def _cmd_orbit(args):
    if args.seed is not None:
        seed = core.from_json(_read_json_arg(args.seed))
        if args.n is not None and args.n != seed.n:
            raise DessinryError("invalid-parameter", "--n %d contradicts seed n=%d" % (args.n, seed.n))
        if args.d is not None and args.d != seed.d:
            raise DessinryError("invalid-parameter", "--d %d contradicts seed d=%d" % (args.d, seed.d))
        seeds = [seed]
        n = seed.n
    else:
        if args.n is None or args.d is None:
            raise DessinryError("invalid-parameter", "orbit needs --seed FILE or both --n and --d")
        seeds = sys.modules[__name__].enumerate_classes(args.n, args.d).classes
        n = args.n
    from . import braid

    gens = _gens_for(args.gens, n)
    result = braid.braid_orbit(seeds, gens)
    memo = _Printed("\n      ")
    labels = [_tuple_label([memo[p] for p in t.perms]) for t in result.elements]

    def lines():
        yield "%d elements, %d orbits under %s" % (len(result.elements), len(result.orbits), args.gens)
        for k, comp in enumerate(result.orbits):
            yield "orbit %d (size %d):" % (k, len(comp))
            for idx in comp:
                yield "  element %d: %s" % (idx, labels[idx])

    _emit_orbit(
        args, result, labels, lambda t: [memo[p][2] for p in t.perms], lines, gens=args.gens, orbits=result.orbits
    )


def _cmd_origami(args):
    from . import origami

    if args.action != "orbit" and args.format == "dot":
        raise DessinryError("invalid-parameter", "--format dot is only for origami orbit, not %s" % args.action)
    if args.action != "delta" and args.op is not None:
        raise DessinryError("invalid-parameter", "--op is only for origami delta, not %s" % args.action)
    if args.action == "from-dessin":
        _emit_origami(args, origami.dessin_to_origami(core.from_json(_read_json_arg(args.infile))))
        return
    if args.action == "delta" and args.op is None:
        raise DessinryError("invalid-parameter", "origami delta needs --op hor|ver|hor-inv|ver-inv")
    o = origami.origami_from_json(_read_json_arg(args.infile))
    if args.action == "to-dessin":
        _emit_tuple(args, origami.origami_to_dessin(o))
    elif args.action == "delta":
        _emit_origami(args, origami._delta(o, args.op))
    else:
        result = origami.origami_orbit(o)
        memo = _Printed("\n      ")
        labels = [_origami_label(x, memo) for x in result.elements]

        def lines():
            yield "%d origamis in the shear orbit" % len(result.elements)
            for k, lab in enumerate(labels):
                yield "  element %d: %s" % (k, lab)

        _emit_orbit(args, result, labels, lambda x: _origami_json(x, memo), lines)


def _cmd_hurwitz(args):
    from . import covers

    if args.emit == "dot" and args.format is not None:
        raise DessinryError("invalid-parameter", "--format is not for --emit dot, which prints DOT")
    args.format = args.format or "json"
    t = covers.hurwitz_dessin(args.a, args.lift)
    if args.emit == "dot":
        print(_dessin_dot(t))
    elif args.emit == "origami":
        from . import origami

        _emit_origami(args, origami.dessin_to_origami(t), a=args.a, lift=args.lift)
    else:
        _emit_tuple(args, t, a=args.a, lift=args.lift)


def _parse_complex_pair(text):
    try:
        re_part, im_part = map(float, text.split(","))
    except ValueError:
        raise DessinryError("invalid-parameter", "expected RE,IM, got %r" % text) from None
    return complex(re_part, im_part)


def _parse_complex_list(text, what):
    """A JSON list whose entries are numbers or [re, im] pairs."""
    items = _load_json(lambda: text, what)
    if not isinstance(items, list):
        raise DessinryError("invalid-parameter", "%s must be a JSON list, got %r" % (what, items))
    out = []
    for v in items:
        parts = v if isinstance(v, list) and len(v) == 2 else [v]
        try:
            # Only JSON numbers; true and false load as bools, which complex() takes.
            if any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in parts):
                raise TypeError
            out.append(complex(*parts))
        except (TypeError, OverflowError):
            raise DessinryError("invalid-parameter", "%s entry %r is not a number or [re, im]" % (what, v)) from None
    return tuple(out)


def _cmd_monodromy(args):
    from . import covers

    coeffs = _parse_complex_list(args.poly, "--poly")
    branch = _parse_complex_list(args.branch_points, "--branch-points")
    cover = covers.CoverSpec(coeffs, branch)
    base = covers.BASE_POINT if args.base is None else _parse_complex_pair(args.base)
    _emit_tuple(args, core.canonical_form(covers.numerical_monodromy(cover, base)))


def _cmd_lambda_star(args):
    from . import modular

    tol = _tol(args, 1e-12)
    tau = _parse_complex_pair(args.tau)
    out = modular.lambda_star(tau, tol)
    _emit_value(args, "lambda_star(%s)" % args.tau, out.value, out, tol, tau=[tau.real, tau.imag])


def _cmd_ap(args):
    from . import modular

    tol = _tol(args, 1e-12)
    out = modular.ap(args.t, tol)
    _emit_value(args, "ap(%s)" % _fmt(args.t), out.value.real, out, tol, t=args.t)


def _cmd_table1(args):
    # modular first: uncached, it compiles before mpmath fills the heap.  With
    # cm_values first, table1 --check peaked at 19.12 MB, not 18.40 (ru_maxrss,
    # medians of 12 alternating runs, PYTHONDONTWRITEBYTECODE=1, Python 3.11,
    # 2-core VM), above the numeric benchmark's peak of about 18.6 MB.
    from .modular import mpmath

    from . import cm_values, modular

    tol = _tol(args, 1e-9)
    rows = cm_values.CM_ROWS
    if args.rows is not None:
        try:
            wanted = [int(x) for x in args.rows.split(",")]
        except ValueError:
            raise DessinryError("invalid-parameter", "--rows wants a comma list of integers, got %r" % args.rows)
        # CM_ROWS is sorted by n, so this keeps its order.
        rows = sorted({n: cm_values.cm_value(n) for n in wanted}.items())
    out_rows = []
    with mpmath.mp.workdps(40):
        for n, expr in rows:
            stored = cm_values.eval_radical(expr)
            entry = {"n": n, "stored": _fmt(stored)}
            if args.check:
                computed = modular.ap(mpmath.sqrt(n), mpmath.mpf(tol) / 1000).value
                err = abs(computed - stored)
                entry["computed"] = _fmt(mpmath.re(computed))
                entry["error"] = _fmt(err)
                entry["pass"] = bool(err <= tol)
            out_rows.append(entry)

    def lines():
        for entry in out_rows:
            verdict = ("  PASS" if entry["pass"] else "  FAIL") if args.check else ""
            yield "n=%d  %s%s" % (entry["n"], entry["stored"], verdict)

    _emit(args, lambda: {"tol": tol, "checked": bool(args.check), "rows": out_rows}, lines)
    missed = [e["n"] for e in out_rows if args.check and not e["pass"]]
    if missed:
        raise DessinryError(
            "expression-mismatch",
            "%d of %d rows miss tol %r (n=%s)" % (len(missed), len(out_rows), tol, ",".join(str(n) for n in missed)),
        )


def _cmd_qseries(args):
    from .qseries import lambda_star_qseries

    series = lambda_star_qseries(args.order)
    _emit(
        args,
        lambda: {"order": series.order, "coefficients": list(series.coefficients)},
        lambda: [" ".join(str(c) for c in series.coefficients)],
    )


def build_parser(command=None):
    """The parser of every subcommand, or, where command names one, of that
    one alone: it prints and fails as the full parser does on that
    subcommand's argv, and costs one subparser to build."""
    names = ("enumerate", "orbit", "origami", "hurwitz", "monodromy", "lambda-star", "ap", "table1", "qseries")
    command = command if command in names else None
    parser = argparse.ArgumentParser(prog="dessinry", description="computations with n-color dessins and square tilings")
    # The metavar is the full parser's choice list, so that a top-level error
    # (an unrecognized argument) prints the same usage line.
    sub = parser.add_subparsers(dest="command", required=True, metavar="{%s}" % ",".join(names))

    if command in (None, "enumerate"):
        p = sub.add_parser("enumerate", help="list canonical classes for (n, d)")
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--format", choices=("table", "json"), default="table")
        p.set_defaults(func=_cmd_enumerate)

    if command in (None, "orbit"):
        p = sub.add_parser("orbit", help="closure of classes under word-level generators")
        p.add_argument("--n", type=int)
        p.add_argument("--d", type=int)
        p.add_argument("--seed", help="JSON file with one monodromy tuple")
        p.add_argument("--gens", choices=("preset:pure", "preset:gamma2"), default="preset:pure")
        p.add_argument("--format", choices=("table", "json", "dot"), default="table")
        p.set_defaults(func=_cmd_orbit)

    if command in (None, "origami"):
        p = sub.add_parser("origami", help="square-tiling conversions, shears, orbits")
        p.add_argument("action", choices=("to-dessin", "from-dessin", "delta", "orbit"))
        # The sorted names of origami._SHEARS, spelled out so that building the
        # parser does not import origami.
        p.add_argument("--op", choices=("hor", "hor-inv", "ver", "ver-inv"), default=None)
        p.add_argument("--in", dest="infile", default=None, help="input JSON file (default: stdin)")
        p.add_argument("--format", choices=("table", "json", "dot"), default="json")
        p.set_defaults(func=_cmd_origami)

    if command in (None, "hurwitz"):
        p = sub.add_parser("hurwitz", help="monodromy of the quartic family lift")
        p.add_argument("--a", type=float, required=True)
        p.add_argument("--lift", choices=("L1", "L2", "L3", "L4"), required=True)
        p.add_argument("--emit", choices=("dessin", "origami", "dot"), default="dessin")
        # None reads as json; it tells an explicit --format, which --emit dot refuses.
        p.add_argument("--format", choices=("table", "json"), default=None)
        p.set_defaults(func=_cmd_hurwitz)

    if command in (None, "monodromy"):
        p = sub.add_parser("monodromy", help="numerical monodromy of a polynomial cover")
        p.add_argument("--poly", required=True, help="JSON coefficient list, highest degree first")
        p.add_argument("--branch-points", required=True, dest="branch_points", help="JSON list of finite branch values")
        p.add_argument("--base", default=None, help="base point RE,IM (default 0,2)")
        # argparse reads a token that starts with a minus sign as an option
        # unless it matches this pattern, by default a bare negative number;
        # here any minus sign followed by a digit or point, as in --base -1,1.
        p._negative_number_matcher = re.compile(r"-[\d.]")
        p.add_argument("--format", choices=("table", "json"), default="json")
        p.set_defaults(func=_cmd_monodromy)

    if command in (None, "lambda-star"):
        p = sub.add_parser("lambda-star", help="evaluate lambda* on the upper half plane")
        p.add_argument("--tau", required=True, help="RE,IM")
        p._negative_number_matcher = re.compile(r"-[\d.]")  # as for --base
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--json", dest="format", action="store_const", const="json", default="table")
        p.set_defaults(func=_cmd_lambda_star)

    if command in (None, "ap"):
        p = sub.add_parser("ap", help="accessory parameter ap(t) = lambda*(it)")
        p.add_argument("--t", type=float, required=True)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--json", dest="format", action="store_const", const="json", default="table")
        p.set_defaults(func=_cmd_ap)

    if command in (None, "table1"):
        p = sub.add_parser("table1", help="stored CM values of ap, optionally re-derived")
        p.add_argument("--rows", default=None, help="comma list of n values (default: all)")
        p.add_argument("--check", action="store_true")
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--json", dest="format", action="store_const", const="json", default="table")
        p.set_defaults(func=_cmd_table1)

    if command in (None, "qseries"):
        p = sub.add_parser("qseries", help="exact expansion coefficients of lambda*")
        p.add_argument("--order", type=int, required=True)
        p.add_argument("--json", dest="format", action="store_const", const="json", default="table")
        p.set_defaults(func=_cmd_qseries)

    return parser


def run(argv):
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    args.func(args)
    return 0


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    try:
        code = run(argv)
        sys.stdout.flush()
        return code
    except DessinryError as exc:
        print("%s: %s" % (exc.code, exc.message), file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader of stdout has gone; point stdout at devnull so that the
        # flush at exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("broken-pipe: stdout was closed before all output was written", file=sys.stderr)
        return 1
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2


if __name__ == "__main__":
    sys.exit(main())
