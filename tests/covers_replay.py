"""Replay a fixed corpus of numerical monodromy cases and record each result.

Not a pytest module: run it against a source tree, then compare two runs.

    PYTHONPATH=src python tests/covers_replay.py --out replay.json
    python tests/covers_replay.py --compare before.json after.json

The 557 cases, in three families:

- chebyshev: T_2..T_48 with branch points (-1, 1) at the bases 2j,
  1.5+1j and -0.3+3j;
- random: 160 real covers of degree 3..20 from bench/gen.random_cover
  (seed 0) at base 0, every tenth with its branch points reversed, out of
  planar order;
- hurwitz: hurwitz_dessin at 64 log-uniform a in [1.0001, 1e9], both ends
  included, for each of the lifts L1..L4.

Each case records the raw tuple and canonical class, or the error code.
34 cases are known to fail: T_43..T_48 at each base, and the 16 reversed
random covers.  --out exits 1 when any other case fails.
Each family records its CPU time, the tracker steps it accepted and
rejected, and its Horner passes over a coefficient table: the calls of
covers._polyval and of covers._horner.  They are counted by wrapping
covers._advance, _polyval and _horner, which adds a small cost to each
call, so CPU times compare best between runs with similar counts.
--compare lists the cases whose raw tuples differ and, apart, those whose
classes or error codes differ.
"""

import argparse
import json
import math
import os
import random
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "bench"))

BASES = (2j, 1.5 + 1j, -0.3 + 3j)
LIFTS = ("L1", "L2", "L3", "L4")


def cases():
    """(family, case id, thunk returning a MonodromyTuple, whether the case
    is known to fail) for every case."""
    from dessinry import covers
    from gen import random_cover
    from test_covers import chebyshev_coeffs

    for base in BASES:
        for d in range(2, 49):
            cover = covers.CoverSpec(chebyshev_coeffs(d), (-1, 1))
            yield "chebyshev", "T_%d at %r" % (d, base), (
                lambda c=cover, b=base: covers.numerical_monodromy(c, b)
            ), d >= 43
    rng = random.Random(0)
    for k in range(160):
        d = rng.randint(3, 20)
        coeffs, values = random_cover(rng, d)
        reversed_ = k % 10 == 9
        if reversed_:
            values = values[::-1]
        yield "random", "random %d (d=%d%s)" % (k, d, ", reversed" if reversed_ else ""), (
            lambda c=coeffs, v=values: covers.numerical_monodromy(covers.CoverSpec(c, v), 0j)
        ), reversed_
    for k in range(64):
        a = 1.0001 * math.exp(k / 63 * math.log(1e9 / 1.0001))
        for lift in LIFTS:
            yield "hurwitz", "hurwitz a=%r %s" % (a, lift), lambda a=a, lift=lift: covers.hurwitz_dessin(a, lift), False


def replay():
    from dessinry import core, covers
    from dessinry.errors import DessinryError

    counts = {"accepted": 0, "rejected": 0, "polyval": 0, "horner": 0}
    wrapped = {name: getattr(covers, name) for name in ("_advance", "_polyval", "_horner")}
    advance, polyval, horner = wrapped.values()

    def counted_advance(*args):
        out = advance(*args)
        counts["rejected" if out is None else "accepted"] += 1
        return out

    def counted_polyval(*args):
        counts["polyval"] += 1
        return polyval(*args)

    def counted_horner(*args):
        counts["horner"] += 1
        return horner(*args)

    covers._advance, covers._polyval, covers._horner = counted_advance, counted_polyval, counted_horner
    results, families, unexpected = {}, {}, []
    try:
        for family, case, run, known in cases():
            fam = families.setdefault(family, dict.fromkeys(("cpu_s", "failed") + tuple(counts), 0))
            before = dict(counts)
            start = time.process_time()
            try:
                t = run()
            except DessinryError as exc:
                results[case] = {"error": exc.code}
                fam["failed"] += 1
                if not known:
                    unexpected.append("%s: %s" % (case, exc))
            else:
                raw = [list(p) for p in t.perms]
                results[case] = {"raw": raw, "class": [list(p) for p in core.canonical_form(t).perms]}
            fam["cpu_s"] += time.process_time() - start
            for key, value in counts.items():
                fam[key] += value - before[key]
    finally:
        for name, fn in wrapped.items():
            setattr(covers, name, fn)
    return {"cases": results, "families": families, "unexpected_failures": unexpected}


def compare(a, b):
    """Lines naming every case whose raw tuple, class or error differs."""
    left, right = a["cases"], b["cases"]
    out = []
    for case in sorted(set(left) | set(right)):
        x, y = left.get(case), right.get(case)
        if x is None or y is None:
            out.append("only in one run: %s" % case)
        elif x.get("error") != y.get("error") or x.get("class") != y.get("class"):
            out.append("class or error differs: %s: %s -> %s" % (case, x.get("error", "ok"), y.get("error", "ok")))
        elif x.get("raw") != y.get("raw"):
            out.append("raw tuple differs: %s" % case)
    return out


def summary(run):
    rows = []
    for family, f in run["families"].items():
        rows.append(
            "%-9s cpu %7.2f s  steps accepted %7d rejected %7d  passes polyval %8d horner %8d  failed %3d"
            % (family, f["cpu_s"], f["accepted"], f["rejected"], f.get("polyval", 0), f.get("horner", 0), f["failed"])
        )
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--out", help="replay the corpus and write the results here as JSON")
    group.add_argument("--compare", nargs=2, metavar=("A", "B"), help="list the cases that differ between two runs")
    args = parser.parse_args(argv)
    if args.out:
        run = replay()
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(run, fh, indent=1, sort_keys=True)
        print("\n".join(summary(run)))
        for line in run["unexpected_failures"]:
            print("unexpected failure: " + line)
        return 1 if run["unexpected_failures"] else 0
    runs = []
    for path in args.compare:
        with open(path, "r", encoding="utf-8") as fh:
            runs.append(json.load(fh))
    for path, run in zip(args.compare, runs):
        print(path)
        print("\n".join("  " + row for row in summary(run)))
    diffs = compare(*runs)
    print("\n".join(diffs) if diffs else "no case differs (%d cases)" % len(runs[0]["cases"]))
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
