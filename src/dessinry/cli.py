"""Command-line entry point.

Subcommands: enumerate, orbit, origami, hurwitz, monodromy, lambda-star,
ap, table1, qseries.  Exit codes: 0 success, 1 domain error (diagnostic
``code: message`` on stderr), 2 usage error.  Identical argv gives
byte-identical stdout.  JSON outputs carry ``"schema": "dessinry/1"``;
 high-precision numbers are emitted as decimal strings of 17 significant
digits.  The environment variable DESSINRY_TOL overrides each command's
default tolerance; an explicit --tol flag wins over both.
"""

import argparse
import json
import math
import os
import sys

# braid, covers, origami and the mpmath users modular and cm_values are
# imported by the handlers that need them, so that every other subcommand
# starts without loading or compiling them.
from . import core
from .enumeration import enumerate_classes
from .errors import DessinryError
from .perms import cycle_str, cycles_str
from .perms import cycles as perm_cycles

SCHEMA = "dessinry/1"


def _fmt(x):
    import mpmath

    return mpmath.nstr(x, 17)


def _tol(args, fallback):
    tol = getattr(args, "tol", None)
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


def _print_json(payload):
    print(json.dumps(payload, indent=2, sort_keys=True))


def _tuple_payload(t):
    core._require_valid(t)
    g, profile = core._genus_profile(t.perms)
    return {
        "n": t.n,
        "d": t.d,
        "perms": [list(p) for p in t.perms],
        "cycles": [cycles_str(p) for p in t.perms],
        "genus": g,
        "profile": [list(part) for part in profile],
    }


def _origami_label(o):
    return "R=%s L=%s U=%s D=%s" % (cycles_str(o.R), cycles_str(o.L), cycles_str(o.U), cycles_str(o.D))


def _read_json_arg(path):
    try:
        if path is None or path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise DessinryError("invalid-parameter", "bad JSON input: %s" % exc) from None
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


def _orbit_components(result):
    parent = list(range(len(result.elements)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for src, _name, dst in result.generator_log:
        ra, rb = find(src), find(dst)
        if ra != rb:
            parent[rb] = ra
    comps = {}
    for k in range(len(result.elements)):
        comps.setdefault(find(k), []).append(k)
    return [comps[r] for r in sorted(comps)]


def _write_dot(path, dot):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dot + "\n")
    except OSError as exc:
        raise DessinryError("invalid-parameter", "cannot write %s: %s" % (path, exc.strerror)) from None


def _orbit_dot(labels, log):
    lines = ["digraph orbit {"]
    for k, lab in enumerate(labels):
        lines.append('  e%d [label="%s"];' % (k, lab))
    for src, name, dst in log:
        lines.append('  e%d -> e%d [label="%s"];' % (src, dst, name))
    lines.append("}")
    return "\n".join(lines)


def _tuple_label(t):
    return " | ".join(cycles_str(p) for p in t.perms)


def _cmd_enumerate(args):
    result = enumerate_classes(args.n, args.d)
    if args.format == "json":
        payload = {
            "schema": SCHEMA,
            "n": result.n,
            "d": result.d,
            "class_count": len(result.classes),
            "marked_count": result.marked_count,
            "classes": [
                {
                    "perms": [list(p) for p in c.canonical.perms],
                    "cycles": [cycles_str(p) for p in c.canonical.perms],
                    "genus": c.genus,
                    "profile": [list(part) for part in c.profile],
                    "normal": c.normal,
                }
                for c in result.classes
            ],
        }
        _print_json(payload)
    else:
        print("n=%d d=%d: %d classes, %d marked" % (result.n, result.d, len(result.classes), result.marked_count))
        for k, c in enumerate(result.classes):
            print(
                "class %d: %s  genus %d  profile %s  normal %s"
                % (
                    k,
                    _tuple_label(c.canonical),
                    c.genus,
                    " ".join("+".join(str(x) for x in part) for part in c.profile),
                    "yes" if c.normal else "no",
                )
            )
    return 0


def _gens_for(spec_name, n):
    from . import braid

    if spec_name == "preset:pure":
        return braid.preset_pure_generators(n)
    if spec_name == "preset:gamma2":
        if n != 4:
            raise DessinryError("invalid-parameter", "preset:gamma2 is defined for n=4, got n=%d" % n)
        return braid.preset_gamma2()
    raise DessinryError("invalid-parameter", "unknown generator preset %r" % spec_name)


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
        seeds = [c.canonical for c in enumerate_classes(args.n, args.d).classes]
        n = args.n
    from . import braid

    gens = _gens_for(args.gens, n)
    result = braid.braid_orbit(seeds, gens)
    comps = _orbit_components(result)
    labels = [_tuple_label(t) for t in result.elements]
    if args.dot is not None or args.format == "dot":
        dot = _orbit_dot(labels, result.generator_log)
    if args.dot is not None:
        _write_dot(args.dot, dot)
    if args.format == "json":
        payload = {
            "schema": SCHEMA,
            "gens": args.gens,
            "element_count": len(result.elements),
            "elements": [[list(p) for p in t.perms] for t in result.elements],
            "labels": labels,
            "orbits": comps,
            "edges": [[src, name, dst] for src, name, dst in result.generator_log],
        }
        _print_json(payload)
    elif args.format == "dot":
        print(dot)
    else:
        print("%d elements, %d orbits under %s" % (len(result.elements), len(comps), args.gens))
        for k, comp in enumerate(comps):
            print("orbit %d (size %d):" % (k, len(comp)))
            for idx in comp:
                print("  element %d: %s" % (idx, labels[idx]))
    return 0


def _cmd_origami(args):
    from . import origami

    if args.action == "to-dessin":
        o = origami.origami_from_json(_read_json_arg(args.infile))
        t = origami.origami_to_dessin(o)
        if args.format == "table":
            print(_tuple_label(t))
        else:
            _print_json({"schema": SCHEMA, **_tuple_payload(t)})
        return 0
    if args.action == "from-dessin":
        t = core.from_json(_read_json_arg(args.infile))
        o = origami.dessin_to_origami(t)
        if args.format == "table":
            print(_origami_label(o))
        else:
            _print_json({"schema": SCHEMA, **origami.origami_to_json(o)})
        return 0
    if args.action == "delta":
        if args.op is None:
            raise DessinryError("invalid-parameter", "origami delta needs --op hor|ver|hor-inv|ver-inv")
        o = origami.origami_from_json(_read_json_arg(args.infile))
        out = origami._delta(o, args.op)
        if args.format == "table":
            print(_origami_label(out))
        else:
            _print_json({"schema": SCHEMA, **origami.origami_to_json(out)})
        return 0
    # orbit
    o = origami.origami_from_json(_read_json_arg(args.infile))
    result = origami.origami_orbit(o)
    labels = [_origami_label(x) for x in result.elements]
    if args.dot is not None or args.format == "dot":
        dot = _orbit_dot(labels, result.generator_log)
    if args.dot is not None:
        _write_dot(args.dot, dot)
    if args.format == "json":
        payload = {
            "schema": SCHEMA,
            "element_count": len(result.elements),
            "elements": [origami.origami_to_json(x) for x in result.elements],
            "labels": labels,
            "edges": [[src, name, dst] for src, name, dst in result.generator_log],
        }
        _print_json(payload)
    elif args.format == "dot":
        print(dot)
    else:
        print("%d origamis in the shear orbit" % len(result.elements))
        for k, lab in enumerate(labels):
            print("  element %d: %s" % (k, lab))
    return 0


def _cmd_hurwitz(args):
    from . import covers

    tol = _tol(args, 1e-10)
    t = covers.hurwitz_dessin(args.a, args.lift, tol)
    if args.emit == "dessin":
        if args.format == "table":
            print(_tuple_label(t))
        else:
            _print_json({"schema": SCHEMA, "a": args.a, "lift": args.lift, **_tuple_payload(t)})
        return 0
    if args.emit == "origami":
        from . import origami

        o = origami.dessin_to_origami(t)
        if args.format == "table":
            print(_origami_label(o))
        else:
            _print_json({"schema": SCHEMA, "a": args.a, "lift": args.lift, **origami.origami_to_json(o)})
        return 0
    print(_dessin_dot(t))
    return 0


def _parse_complex_pair(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise DessinryError("invalid-parameter", "expected RE,IM, got %r" % text)
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        raise DessinryError("invalid-parameter", "expected RE,IM, got %r" % text)


def _parse_complex_list(text, what):
    """A JSON list whose entries are numbers or [re, im] pairs."""
    try:
        items = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DessinryError("invalid-parameter", "bad JSON argument: %s" % exc) from None
    if not isinstance(items, list):
        raise DessinryError("invalid-parameter", "%s must be a JSON list, got %r" % (what, items))
    out = []
    for v in items:
        try:
            out.append(complex(v[0], v[1]) if isinstance(v, list) and len(v) == 2 else complex(v))
        except (TypeError, ValueError, OverflowError):
            raise DessinryError("invalid-parameter", "%s entry %r is not a number or [re, im]" % (what, v)) from None
    return tuple(out)


def _cmd_monodromy(args):
    from . import covers

    tol = _tol(args, 1e-10)
    coeffs = _parse_complex_list(args.poly, "--poly")
    branch = _parse_complex_list(args.branch_points, "--branch-points")
    cover = covers.polynomial_cover(coeffs, branch)
    base = covers.BASE_POINT if args.base is None else _parse_complex_pair(args.base)
    t = core.canonical_form(covers.numerical_monodromy(cover, base, tol))
    if args.format == "table":
        print(_tuple_label(t))
    else:
        _print_json({"schema": SCHEMA, **_tuple_payload(t)})
    return 0


def _cmd_lambda_star(args):
    import mpmath

    from . import modular

    tol = _tol(args, 1e-12)
    tau = _parse_complex_pair(args.tau)
    out = modular.lambda_star(tau, tol)
    if args.json:
        _print_json(
            {
                "schema": SCHEMA,
                "tau": [tau.real, tau.imag],
                "value": {"re": _fmt(mpmath.re(out.value)), "im": _fmt(mpmath.im(out.value))},
                "trunc_bound": _fmt(out.trunc_bound),
                "tol": tol,
            }
        )
    else:
        print("lambda_star(%s) = %s  (error <= %s)" % (args.tau, _fmt(out.value), _fmt(out.trunc_bound)))
    return 0


def _cmd_ap(args):
    import mpmath

    from . import modular

    tol = _tol(args, 1e-12)
    out = modular.ap(args.t, tol)
    re, im = mpmath.re(out.value), mpmath.im(out.value)
    if args.json:
        _print_json(
            {
                "schema": SCHEMA,
                "t": args.t,
                "value": {"re": _fmt(re), "im": _fmt(im)},
                "trunc_bound": _fmt(out.trunc_bound),
                "tol": tol,
            }
        )
    else:
        print("ap(%s) = %s  (error <= %s)" % (_fmt(args.t), _fmt(re), _fmt(out.trunc_bound)))
    return 0


def _cmd_table1(args):
    import mpmath

    from . import cm_values, modular

    tol = _tol(args, 1e-9)
    wanted = None
    if args.rows:
        try:
            wanted = [int(x) for x in args.rows.split(",")]
        except ValueError:
            raise DessinryError("invalid-parameter", "--rows wants a comma list of integers, got %r" % args.rows)
        known = {n for n, _ in cm_values.CM_ROWS}
        for n in wanted:
            if n not in known:
                raise DessinryError("invalid-parameter", "no stored row for n=%d" % n)
    rows = [(n, e) for n, e in cm_values.CM_ROWS if wanted is None or n in wanted]
    out_rows = []
    with mpmath.mp.workdps(40):
        for n, expr in rows:
            stored = cm_values.eval_radical(expr)
            entry = {"n": n, "stored": _fmt(stored)}
            if args.check:
                computed = modular.ap(mpmath.sqrt(n), tol * 1e-3).value
                err = abs(computed - stored)
                entry["computed"] = _fmt(mpmath.re(computed))
                entry["error"] = _fmt(err)
                entry["pass"] = bool(err <= tol)
            out_rows.append(entry)
    if args.json:
        _print_json({"schema": SCHEMA, "tol": tol, "checked": bool(args.check), "rows": out_rows})
    else:
        for entry in out_rows:
            if args.check:
                print("n=%d  %s  %s" % (entry["n"], entry["stored"], "PASS" if entry["pass"] else "FAIL"))
            else:
                print("n=%d  %s" % (entry["n"], entry["stored"]))
    missed = [e["n"] for e in out_rows if args.check and not e["pass"]]
    if missed:
        raise DessinryError(
            "expression-mismatch",
            "%d of %d rows miss tol %r (n=%s)" % (len(missed), len(out_rows), tol, ",".join(str(n) for n in missed)),
        )
    return 0


def _cmd_qseries(args):
    from . import modular

    series = modular.lambda_star_qseries(args.order)
    if args.json:
        _print_json({"schema": SCHEMA, "order": series.order, "coefficients": list(series.coefficients)})
    else:
        print(" ".join(str(c) for c in series.coefficients))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="dessinry", description="computations with n-color dessins and square tilings")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list canonical classes for (n, d)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("orbit", help="closure of classes under word-level generators")
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--seed", help="JSON file with one monodromy tuple")
    p.add_argument("--gens", choices=("preset:pure", "preset:gamma2"), default="preset:pure")
    p.add_argument("--dot", help="also write the orbit graph to this DOT file")
    p.add_argument("--format", choices=("table", "json", "dot"), default="table")
    p.set_defaults(func=_cmd_orbit)

    p = sub.add_parser("origami", help="square-tiling conversions, shears, orbits")
    p.add_argument("action", choices=("to-dessin", "from-dessin", "delta", "orbit"))
    # The sorted names of origami._SHEARS, spelled out so that building the
    # parser does not import origami.
    p.add_argument("--op", choices=("hor", "hor-inv", "ver", "ver-inv"), default=None)
    p.add_argument("--in", dest="infile", default=None, help="input JSON file (default: stdin)")
    p.add_argument("--dot", help="for orbit: also write the orbit graph to this DOT file")
    p.add_argument("--format", choices=("table", "json", "dot"), default="json")
    p.set_defaults(func=_cmd_origami)

    p = sub.add_parser("hurwitz", help="monodromy of the quartic family lift")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--lift", choices=("L1", "L2", "L3", "L4"), required=True)
    p.add_argument("--emit", choices=("dessin", "origami", "dot"), default="dessin")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--format", choices=("table", "json"), default="json")
    p.set_defaults(func=_cmd_hurwitz)

    p = sub.add_parser("monodromy", help="numerical monodromy of a polynomial cover")
    p.add_argument("--poly", required=True, help="JSON coefficient list, highest degree first")
    p.add_argument("--branch-points", required=True, dest="branch_points", help="JSON list of finite branch values")
    p.add_argument("--base", default=None, help="base point RE,IM (default 0,2)")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--format", choices=("table", "json"), default="json")
    p.set_defaults(func=_cmd_monodromy)

    p = sub.add_parser("lambda-star", help="evaluate lambda* on the upper half plane")
    p.add_argument("--tau", required=True, help="RE,IM")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_lambda_star)

    p = sub.add_parser("ap", help="accessory parameter ap(t) = lambda*(it)")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_ap)

    p = sub.add_parser("table1", help="stored CM values of ap, optionally re-derived")
    p.add_argument("--rows", default=None, help="comma list of n values (default: all)")
    p.add_argument("--check", action="store_true")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("qseries", help="exact expansion coefficients of lambda*")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_qseries)

    return parser


def run(argv):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    try:
        return run(argv)
    except DessinryError as exc:
        print("%s: %s" % (exc.code, exc.message), file=sys.stderr)
        return 1
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2


if __name__ == "__main__":
    sys.exit(main())
