"""dessinry benchmark: closed-loop CLI workloads and a traced per-module run.

    python3 bench/run.py --workload census|numeric|interactive|all \
        --seed N --seconds S --trace 0|1 [--out FILE]

Run from anywhere; the program is taken from src/ next to this directory.
With --trace 0 one client runs real `dessinry` processes, one at a time,
in whole rounds until S seconds of requests have been timed, with a bare
interpreter start timed before each request to gauge the host's speed
(the gated throughput and latency count time in bare starts), then checks
every output against the independent oracles and runs the workload's
known-failure probes.  With --trace 1 the same inputs run in-process, once
plainly and once with spans at the module boundaries, and the per-layer
figures are reported.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics; a summary goes to
stderr and the full record (environment, every request with the SHA-256
of its stdout) to .bench_build/results/ or --out.
"""

import argparse
import importlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time

import mpmath

import client
import gen
import oracles
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build")

SETUP_REPEATS = 9  # set-ups per run, spread over the timed span
DEADLINE_S = 120.0  # start no round after this, whatever --seconds says
HARD_STOP_S = 160.0  # start no request after this: a run must end within 180 s
STARTUP_REPEATS = 5

# Metrics reported in the summary and the record but not in the last line.
# The wall-clock throughput and latencies swing with the host's speed (see
# client.spawn_bare), so the gated ones count time in bare interpreter
# starts; latency_p90_ms needs ten samples beyond p90, and fail_ratio is
# zero on a workload without known failures.
UNGATED_UNITS = {"ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
                 "fail_ratio": "ratio", "bare_start_ms": "ms"}


def declared_metrics():
    """Gated end-to-end and per-layer metric units, as BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def environment():
    def version(name):
        try:
            return importlib.metadata.version(name)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "numpy": version("numpy"),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "PYTHONPYCACHEPREFIX": os.environ.get("PYTHONPYCACHEPREFIX"),
        "platform": platform.platform(),
    }


def percentile(values, q):
    """Linear-interpolated q-quantile; an infinite sample stays infinite."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo, hi = math.floor(pos), math.ceil(pos)
    if math.isinf(xs[hi]):
        return math.inf
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _record(req, outcome, reason, round_index=None):
    return {
        "label": req["label"],
        "argv": req["argv"],
        "round": round_index,
        "known": req["known"],
        "seconds": outcome.seconds,
        "code": outcome.code,
        "rss_kb": outcome.rss_kb,
        "stdout_sha256": outcome.sha256,
        "ok": reason is None,
        "reason": reason,
        "stderr_tail": outcome.err.strip().splitlines()[-1:] if reason else [],
    }


def judge(req, outcome):
    return oracles.judge(req, outcome.code, outcome.out, outcome.err)


def set_up(workload, seed, setup_dir):
    """One set-up: generating the first round plus one warm-up invocation.
    Returns the round and the seconds taken."""
    start = time.perf_counter()
    first = gen.ROUNDS[workload](seed, 0)
    for req in first:
        client.write_files(setup_dir, req)
    warm = gen.WARMUP[workload]()
    outcome = client.spawn(SRC, setup_dir, warm)
    seconds = time.perf_counter() - start
    reason = judge(warm, outcome)
    if reason:
        raise RuntimeError("warm-up request failed: %s" % reason)
    return first, seconds


def closed_loop(workload, seed, seconds, run_dir, setup_dir, started):
    """Whole rounds, one request at a time, until `seconds` have been timed.

    Set-ups are spread over the span, one after any request that ends
    seconds / (SETUP_REPEATS - 1) or more after the last, so that their
    median sees the same machine as the requests; the ones still missing
    run after the last round.  A bare interpreter start runs before every
    request and once after the last, so bare[i] and bare[i + 1] bracket
    request i.  Neither set-ups, bare starts nor generating a later round
    count as timed.  Returns (timed wall seconds,
    [(round, request, outcome)], bare start seconds, set-up seconds).
    """
    first, took = set_up(workload, seed, setup_dir)
    setups = [took]
    bare = []
    interval = seconds / (SETUP_REPEATS - 1)
    last_setup = time.perf_counter()
    timed = 0.0
    done = []
    r = 0
    while timed < seconds and time.perf_counter() - started < DEADLINE_S:
        reqs = first if r == 0 else gen.ROUNDS[workload](seed, r)
        for req in reqs:
            client.write_files(run_dir, req)
        start = time.perf_counter()
        untimed = 0.0
        for req in reqs:
            if time.perf_counter() - started > HARD_STOP_S:
                break
            paused = time.perf_counter()
            bare.append(client.spawn_bare(SRC, run_dir))
            untimed += time.perf_counter() - paused
            done.append((r, req, client.spawn(SRC, run_dir, req)))
            if len(setups) < SETUP_REPEATS and time.perf_counter() - last_setup >= interval:
                paused = time.perf_counter()
                setups.append(set_up(workload, seed, setup_dir)[1])
                last_setup = time.perf_counter()
                untimed += last_setup - paused
        timed += time.perf_counter() - start - untimed
        r += 1
    bare.append(client.spawn_bare(SRC, run_dir))
    while len(setups) < SETUP_REPEATS:
        setups.append(set_up(workload, seed, setup_dir)[1])
    return timed, done, bare, setups


def run_untraced(workload, seed, seconds, run_dir, gated):
    # One CPU for the client and every child it starts, so that a bare start
    # and the request next to it share a core and the contention on it.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    started = time.perf_counter()
    setup_dir = os.path.join(run_dir, "setup")
    os.mkdir(setup_dir)
    timed, done, bare, setup_times = closed_loop(workload, seed, seconds, run_dir, setup_dir, started)
    probe_runs = []
    for req in gen.probes(workload, seed):
        client.write_files(run_dir, req)
        probe_runs.append((req, client.spawn(SRC, run_dir, req)))

    records = [_record(req, o, judge(req, o), r) for r, req, o in done]
    probe_records = [_record(req, o, judge(req, o)) for req, o in probe_runs]
    ok = [rec for rec in records if rec["ok"]]
    latencies = [rec["seconds"] * 1000.0 if rec["ok"] else math.inf for rec in records]
    # Each request's time in bare interpreter starts: over the median of the
    # six starts nearest to it, three before and three after.
    starts = [rec["seconds"] / statistics.median(bare[max(0, i - 2): i + 4]) for i, rec in enumerate(records)]
    relative = [x if rec["ok"] else math.inf for x, rec in zip(starts, records)]
    everything = records + probe_records
    n = len(latencies)
    metrics = {
        "ops_per_start": len(ok) / sum(starts),
        "latency_p50_starts": percentile(relative, 0.5),
        "ops_per_s": len(ok) / timed,
        "latency_p50_ms": percentile(latencies, 0.5),
        "latency_p90_ms": percentile(latencies, 0.9) if n - math.ceil(0.9 * n) >= 10 else None,
        "fail_ratio": sum(1 for rec in everything if not rec["ok"]) / len(everything),
        "peak_rss_mb": max(rec["rss_kb"] for rec in records) / 1024.0,
        "setup_s": statistics.median(setup_times),
        "bare_start_ms": 1000.0 * statistics.median(bare),
    }
    result = {
        "correct": len(ok) == len(records),
        "attempted": len(records),
        "failed": len(records) - len(ok),
        "metrics": {k: metrics[k] for k in gated},
    }
    detail = {
        "timed_seconds": timed,
        "rounds": 1 + max(r for r, _, _ in done),
        "samples": n,
        "setup_s_samples": setup_times,
        "bare_start_s_samples": bare,
        "all_metrics": metrics,
        "requests": records,
        "probes": probe_records,
        "known_failures": sorted({rec["known"] for rec in probe_records if not rec["ok"]}),
    }
    return result, detail


def _import_program():
    """The dessinry package from src/, with its cli module loaded."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    importlib.import_module("dessinry.cli")
    return sys.modules["dessinry"]


def _importtime_ms(stderr):
    """Cumulative import times (ms) of numpy, mpmath and dessinry's own code."""
    cumulative = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        try:
            cum = int(parts[1])
        except ValueError:
            continue
        name = parts[2].strip()
        cumulative[name] = max(cumulative.get(name, 0), cum)
    numpy = cumulative.get("numpy", 0) / 1000.0
    mp = cumulative.get("mpmath", 0) / 1000.0
    top = max((v for k, v in cumulative.items() if k.split(".")[0] == "dessinry"), default=0) / 1000.0
    return numpy, mp, top - numpy - mp


def startup_metrics():
    env = client.child_env(SRC)
    bare = statistics.median(client.spawn_python(["-c", "pass"], env)[0] for _ in range(STARTUP_REPEATS))
    imported = statistics.median(
        client.spawn_python(["-c", "import dessinry.cli"], env)[0] for _ in range(STARTUP_REPEATS)
    )
    parts = [_importtime_ms(client.spawn_python(["-X", "importtime", "-c", "import dessinry.cli"], env)[1])
             for _ in range(3)]
    return {
        "cli.bare_interpreter_ms": 1000.0 * bare,
        "cli.import_ms": 1000.0 * (imported - bare),
        "import.numpy_ms": statistics.median(p[0] for p in parts),
        "import.mpmath_ms": statistics.median(p[1] for p in parts),
        "import.dessinry_ms": statistics.median(p[2] for p in parts),
    }


def run_traced(workload, seed, run_dir, layers):
    first, _ = set_up(workload, seed, run_dir)
    extra = gen.sweep(workload, seed)
    for req in extra:
        client.write_files(run_dir, req)
    pkg = _import_program()

    tracer = tracing.Tracer(sample_seed=seed)
    tracing.instrument(tracer, pkg)
    plain, traced = [], []
    try:
        # Each request of the round runs once plainly and once traced, the
        # order alternating so that neither side always finds caches warm.
        tracer.sampling = True
        for i, req in enumerate(first):
            tracer.request = i
            for active in ((False, True) if i % 2 == 0 else (True, False)):
                tracer.active = active
                (traced if active else plain).append(client.call_inprocess(pkg.cli, run_dir, req))
        tracer.sampling = False
        tracer.active = True
        for i, req in enumerate(extra, start=len(first)):
            tracer.request = i
            traced.append(client.call_inprocess(pkg.cli, run_dir, req))
    finally:
        tracer.active = False
        tracer.restore()

    reqs = first + extra
    records = [_record(req, o, judge(req, o)) for req, o in zip(reqs, traced)]
    records += [_record(req, o, judge(req, o)) for req, o in zip(first, plain)]
    expected = [rec for rec, req in zip(records, reqs + first) if req["known"] is None]
    failed = sum(1 for rec in expected if not rec["ok"])

    metrics = tracing.layer_metrics(tracer.spans, tracer.counts)
    metrics.update(tracing.perms_timings(pkg.perms, tracer.samples))
    metrics.update(startup_metrics())
    dispatch = 1000.0 * statistics.median(o.seconds for o in plain)
    metrics["cli.dispatch_ms"] = dispatch
    startup = metrics["cli.bare_interpreter_ms"] + metrics["cli.import_ms"]
    metrics["cli.startup_share"] = startup / (startup + dispatch)
    metrics["trace.overhead_ratio"] = sum(o.seconds for o in traced[: len(first)]) / sum(o.seconds for o in plain)

    result = {
        "correct": failed == 0,
        "attempted": len(expected),
        "failed": failed,
        "metrics": {k: metrics[k] for k in layers},
    }
    detail = {
        "all_metrics": metrics,
        "spans": len(tracer.spans),
        "perms_samples": len(tracer.samples),
        "requests": records,
        "known_failures": sorted({rec["known"] for rec in records if rec["known"] and not rec["ok"]}),
    }
    return result, detail


def _finite(x):
    return x if isinstance(x, (int, float)) and math.isfinite(x) else None


def summary(workload, result, detail, units, stream):
    print("== %s: correct=%s attempted=%d failed=%d" % (
        workload, result["correct"], result["attempted"], result["failed"]), file=stream)
    for name, value in detail["all_metrics"].items():
        if value is None:
            text = "n/a (%d samples; needs 100 for ten beyond p90)" % detail["samples"]
        else:
            text = "%.6g" % value
        print("  %-34s %-28s %s" % (name, text, units[name]), file=stream)
    for rec in detail.get("requests", []) + detail.get("probes", []):
        if not rec["ok"]:
            print("  %s: %s%s" % ("known failure" if rec["known"] else "FAILED", rec["label"],
                                  " -- %s" % rec["reason"]), file=stream)


def run_one(workload, seed, seconds, trace, out_path):
    os.makedirs(WORK, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="run-%s-" % workload, dir=WORK)
    try:
        end_to_end, per_layer = declared_metrics()
        if trace:
            units = per_layer
            result, detail = run_traced(workload, seed, run_dir, per_layer)
        else:
            units = {**end_to_end, **UNGATED_UNITS}
            result, detail = run_untraced(workload, seed, seconds, run_dir, end_to_end)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    result["metrics"] = {k: {"value": _finite(v), "unit": units[k]} for k, v in result["metrics"].items()}
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment(), "result": result, **detail}
    if out_path is None:
        os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
        out_path = os.path.join(WORK, "results", "%s-seed%d-trace%d.json" % (workload, seed, trace))
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    return result, detail, units


def main(argv=None):
    parser = argparse.ArgumentParser(description="dessinry end-to-end and per-layer benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(gen.ROUNDS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="where to write the full record (default .bench_build/results/)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "dessinry", "cli.py")):
        print("bench: no dessinry sources at %s" % SRC, file=sys.stderr)
        return 2
    names = sorted(gen.ROUNDS) if args.workload == "all" else [args.workload]
    last = None
    for name in names:
        out = args.out if args.workload != "all" else None
        result, detail, units = run_one(name, args.seed, args.seconds, args.trace, out)
        summary(name, result, detail, units, sys.stdout if args.workload == "all" else sys.stderr)
        last = result
    if args.workload != "all":
        print(json.dumps(last))
    return 0


if __name__ == "__main__":
    sys.exit(main())
