"""Tests of the benchmark harness itself (not collected by the repo's suite).

    python3 -m pytest -q bench/tests

The generator must be deterministic per seed, every oracle must reject a
deliberately perturbed answer, and one round of every workload must pass
its oracles against the program (the two multi-second enumeration cells
excepted, to keep this quick).
"""

import copy
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, BENCH)

import client  # noqa: E402
import gen  # noqa: E402
import oracles  # noqa: E402

SLOW_CELLS = {"enumerate n4 d5", "enumerate n5 d4"}


@pytest.fixture(scope="module")
def cli():
    sys.path.insert(0, SRC)
    import dessinry.cli

    return dessinry.cli


@pytest.fixture
def run_dir(tmp_path):
    return str(tmp_path)


def answer(cli, run_dir, req):
    client.write_files(run_dir, req)
    out = client.call_inprocess(cli, run_dir, req)
    return out.code, out.out, out.err


# --- the generator ---------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(gen.ROUNDS))
def test_rounds_are_deterministic_per_seed(workload):
    for r in (0, 1):
        assert json.dumps(gen.ROUNDS[workload](7, r)) == json.dumps(gen.ROUNDS[workload](7, r))
    assert json.dumps(gen.ROUNDS[workload](7, 0)) != json.dumps(gen.ROUNDS[workload](8, 0))
    assert json.dumps(gen.probes(workload, 7)) == json.dumps(gen.probes(workload, 7))
    assert json.dumps(gen.sweep(workload, 7)) == json.dumps(gen.sweep(workload, 7))


@pytest.mark.parametrize("workload", sorted(gen.ROUNDS))
def test_rounds_keep_their_composition(workload):
    kinds = [sorted(re.sub(r"[0-9.e=+-]+", "#", q["label"]) for q in gen.ROUNDS[workload](s, r))
             for s, r in ((1, 0), (2, 3), (9, 1))]
    if workload != "interactive":  # interactive draws its shear and generator preset per round
        assert kinds[0] == kinds[1] == kinds[2]
    assert len({len(k) for k in kinds}) == 1


def test_random_covers_are_planar_and_separated():
    rng = gen.random.Random(3)
    for d in range(6, 21):
        coeffs, values = gen.random_cover(rng, d)
        assert len(coeffs) == d + 1 and len(values) == d - 1
        assert min(abs(a - b) for i, a in enumerate(values) for b in values[i + 1:]) > 1.0 / (d - 1)


# --- the oracles ---------------------------------------------------------------------


def _perturb_perms(doc):
    p = doc["perms"][1]
    p[0], p[1] = p[1], p[0]
    return doc


CASES = [
    (gen.enumerate_request(3, 3), lambda doc: dict(doc, classes=doc["classes"][1:], class_count=doc["class_count"] - 1)),
    (gen.enumerate_request(4, 2, fmt="table"), None),
    (gen.ap_request(0.5, 1e-30), lambda doc: dict(doc, value=dict(doc["value"], re=doc["value"]["re"][:-3] + "999"))),
    (gen.lambda_request(0.3, 0.2, 1e-100), lambda doc: dict(doc, value=dict(doc["value"], im="0.5"))),
    (gen.qseries_request(30, as_json=True), lambda doc: dict(doc, coefficients=doc["coefficients"][:-1] + [doc["coefficients"][-1] + 1])),
    (gen.hurwitz_request(2.0, "L3"), _perturb_perms),
    (gen.chebyshev_request(9), _perturb_perms),
]


@pytest.mark.parametrize("req,perturb", CASES, ids=[c[0]["label"] for c in CASES])
def test_oracle_accepts_then_rejects(cli, run_dir, req, perturb):
    code, out, err = answer(cli, run_dir, req)
    assert oracles.judge(req, code, out, err) is None
    if perturb is None:  # table output: drop the last class line
        bad = "\n".join(out.strip().splitlines()[:-1]) + "\n"
    else:
        bad = json.dumps(perturb(json.loads(out)))
    assert oracles.judge(req, code, bad, err) is not None


def test_orbit_oracles_reject_a_broken_edge_and_a_foreign_element(cli, run_dir):
    rng = gen.random.Random(1)
    braid = gen.braid_seed_request(rng, "seed.json", *gen.BRAID_POOL[3])
    origami = gen.origami_orbit_request(rng, "tiling.json", gen.ORIGAMI_POOL[0])
    for req in (braid, origami):
        code, out, err = answer(cli, run_dir, req)
        assert oracles.judge(req, code, out, err) is None
        doc = json.loads(out)
        broken = copy.deepcopy(doc)
        broken["edges"][0][2] = (broken["edges"][0][2] + 1) % len(doc["elements"])
        assert oracles.judge(req, code, json.dumps(broken), err) is not None
        doubled = copy.deepcopy(doc)
        doubled["elements"][1] = doubled["elements"][0]
        assert oracles.judge(req, code, json.dumps(doubled), err) is not None


def test_small_oracles_reject_perturbed_answers(cli, run_dir):
    rng = gen.random.Random(2)
    reqs = [q for q in gen.interactive_round(5, 0) if q["check"] in ("to_dessin", "from_dessin", "delta", "table1")]
    reqs.append(gen.random_cover_request(rng, 7))
    assert {q["check"] for q in reqs} == {"to_dessin", "from_dessin", "delta", "table1", "monodromy"}
    for req in reqs:
        code, out, err = answer(cli, run_dir, req)
        assert oracles.judge(req, code, out, err) is None, req["label"]
        if req["check"] == "table1":
            bad = out.replace("PASS", "FAIL") if "PASS" in out else re.sub(r"(\d)(\s|$)", r"7\2", out, count=1)
            if bad == out:
                bad = out.replace("n=", "n=9", 1)
        else:
            doc = json.loads(out)
            key = "perms" if "perms" in doc else "R"
            target = doc[key][0] if key == "perms" else doc[key]
            if len(target) < 2:
                target += [len(target)]
            else:
                target[0], target[1] = target[1], target[0]
            bad = json.dumps(doc)
        assert oracles.judge(req, code, bad, err) is not None, req["label"]


def test_every_malformed_request_is_rejected_as_documented(run_dir):
    for argv, stdin, codes in gen.MALFORMED:
        req = gen._request(argv, "error", {"exit": sorted(codes)}, "malformed", stdin=stdin)
        out = client.spawn(SRC, run_dir, req)
        assert oracles.judge(req, out.code, out.out, out.err) is None, argv


def test_error_oracle_wants_the_documented_exit_and_a_code_line():
    req = {"check": "error", "params": {"exit": [1]}}
    assert oracles.judge(req, 1, "", "bound-exceeded: need n >= 3\n") is None
    assert oracles.judge(req, 2, "", "bound-exceeded: need n >= 3\n") is not None
    assert oracles.judge(req, 1, "", "Traceback (most recent call last):\nValueError: x\n") is not None
    assert oracles.judge(req, 1, "", "something went wrong\n") is not None
    usage = {"check": "error", "params": {"exit": [2]}}
    assert oracles.judge(usage, 2, "", "usage: dessinry enumerate ...\ndessinry enumerate: error: the following arguments are required: --d\n") is None


def test_theta_reference_matches_known_values():
    # lambda*(i) = 2 and lambda*(i sqrt 2) = (1 + sqrt 2) / 2.
    assert oracles.value_problem("2.0", "0", (0.0, 1.0), 1e-30) is None
    assert oracles.value_problem("2.0000000000001", "0", (0.0, 1.0), 1e-15) is not None
    assert oracles.value_problem("1.2071067811865475", None, (0.0, 2 ** 0.5), 1e-12) is None
    assert oracles.lambda_star_series(6) == [1, 16, 128, 704, 3072, 11488, 38400]


# --- smoke passes against the program -------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(gen.ROUNDS))
def test_one_round_passes_its_oracles(workload, run_dir):
    for req in gen.ROUNDS[workload](3, 0):
        if req["label"] in SLOW_CELLS:
            continue
        client.write_files(run_dir, req)
        out = client.spawn(SRC, run_dir, req)
        assert oracles.judge(req, out.code, out.out, out.err) is None, req["label"]
        assert out.rss_kb > 0


def test_run_prints_the_result_line(tmp_path):
    out = tmp_path / "record.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "interactive", "--seed", "4",
         "--seconds", "1", "--trace", "0", "--out", str(out)],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["attempted"] >= 1 and last["failed"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["end_to_end"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == declared
    record = json.loads(out.read_text())
    assert len(record["bare_start_s_samples"]) == last["attempted"] + 1
    assert all(len(r["stdout_sha256"]) == 64 for r in record["requests"])
    assert record["environment"]["mpmath_backend"]
    assert record["known_failures"] == ["ROADMAP item 5 input"]


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "census", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tracer_records_layers_and_restores_the_program(cli, run_dir):
    import dessinry
    import tracing

    originals = (dessinry.enumeration.canonical_form, dessinry.modular.ap, dessinry.cli.enumerate_classes)
    tracer = tracing.Tracer()
    tracing.instrument(tracer, dessinry)
    rng = gen.random.Random(5)
    reqs = [gen.enumerate_request(3, 3), gen.braid_seed_request(rng, "s.json", *gen.BRAID_POOL[0]),
            gen.origami_orbit_request(rng, "o.json", gen.ORIGAMI_POOL[0]), gen.chebyshev_request(6),
            gen.ap_request(0.06, 1e-12), gen.qseries_request(20)]
    try:
        tracer.active = tracer.sampling = True
        for i, req in enumerate(reqs):
            tracer.request = i
            client.write_files(run_dir, req)
            client.call_inprocess(cli, run_dir, req)
    finally:
        tracer.active = False
        tracer.restore()
    assert (dessinry.enumeration.canonical_form, dessinry.modular.ap, dessinry.cli.enumerate_classes) == originals
    m = tracing.layer_metrics(tracer.spans, tracer.counts)
    assert m["core.canonical_form_calls"] > 0 and m["enumeration.candidates"] == 3 * 6
    assert 0 < m["enumeration.class_yield"] <= 1 and 0 < m["braid.image_yield"] <= 1
    assert m["origami.canonical_origami_calls"] > 0 and m["covers.ms_per_sheet_lasso"] > 0
    assert m["modular.qseries_coeffs_per_s"] > 0 and m["modular.bound_violations"] >= 1  # ap(0.06) misses
    # ap works through a nested lambda_star; that time is credited to ap.
    ap_total = sum(s[tracing.END] - s[tracing.START] for s in tracer.spans if s[tracing.SPAN] == "modular.ap")
    assert any(s[tracing.SPAN] == "modular.lambda_star" for s in tracer.spans)
    assert m["modular.ap_self_s"] == pytest.approx(ap_total) and m["modular.lambda_star_self_s"] == 0
    cells = [k for k in m if k.startswith("enumeration.cell_s.")]
    assert len(cells) == 4 and all(m[k] != m[k] for k in cells)  # NaN: no cell ran
    assert all(v >= 0 for k, v in m.items() if k not in cells)
    timings = tracing.perms_timings(dessinry.perms, tracer.samples, repeats=3, inner=2)
    assert all(v > 0 for v in timings.values())
