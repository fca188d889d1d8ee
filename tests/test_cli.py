"""End-to-end command line behavior through the in-process entry point."""

import argparse
import contextlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
import tracemalloc

import mpmath
import pytest
from hypothesis import HealthCheck, given, seed, settings, strategies as st

import dessinry
from dessinry import cli, core, enumerate_classes, perms
from dessinry.cli import main
from dessinry.errors import DessinryError

CHESSBOARD_JSON = json.dumps({"m": 2, "R": [0, 1], "L": [0, 1], "U": [1, 0], "D": [1, 0]})

# argv, stdin and the exact stdout of a fixed set of commands; the output
# of these must not drift by a single byte.
with open(os.path.join(os.path.dirname(__file__), "data", "cli_golden.json"), "r", encoding="utf-8") as _fh:
    GOLDEN = json.load(_fh)


def run_cli(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestEnumerate:
    def test_json_shape(self, capsys):
        code, out, err = run_cli(capsys, ["enumerate", "--n", "3", "--d", "2", "--format", "json"])
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["schema"] == "dessinry/1"
        assert payload["class_count"] == 3
        assert payload["marked_count"] == 3
        assert len(payload["classes"]) == 3
        for cls in payload["classes"]:
            assert set(cls) == {"perms", "cycles", "genus", "profile", "normal"}

    def test_table_header(self, capsys):
        code, out, _ = run_cli(capsys, ["enumerate", "--n", "4", "--d", "2"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n=4 d=2: 7 classes, 7 marked"
        assert len(lines) == 8

    def test_byte_identical_reruns(self, capsys):
        argv = ["enumerate", "--n", "3", "--d", "3", "--format", "json"]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second


class TestOrbit:
    def test_gamma2_on_degree_two(self, capsys):
        code, out, _ = run_cli(capsys, ["orbit", "--n", "4", "--d", "2", "--gens", "preset:gamma2", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["element_count"] == 7
        assert len(payload["orbits"]) == 7
        assert all(len(comp) == 1 for comp in payload["orbits"])

    def test_seed_file(self, capsys, tmp_path):
        seed = tmp_path / "seed.json"
        seed.write_text(json.dumps({"n": 4, "d": 2, "perms": [[1, 0], [1, 0], [1, 0], [1, 0]]}))
        code, out, _ = run_cli(capsys, ["orbit", "--seed", str(seed), "--gens", "preset:gamma2", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["element_count"] == 1
        assert payload["labels"] == ["(0 1) | (0 1) | (0 1) | (0 1)"]

    def test_seed_shape_contradiction(self, capsys, tmp_path):
        seed = tmp_path / "seed.json"
        seed.write_text(json.dumps({"n": 4, "d": 2, "perms": [[1, 0], [1, 0], [1, 0], [1, 0]]}))
        code, _, err = run_cli(capsys, ["orbit", "--seed", str(seed), "--n", "3", "--gens", "preset:pure"])
        assert code == 1
        assert err.startswith("invalid-parameter:")

    def test_needs_seed_or_shape(self, capsys):
        code, _, err = run_cli(capsys, ["orbit", "--gens", "preset:pure"])
        assert code == 1 and "invalid-parameter" in err

    def test_gamma2_needs_four_colors(self, capsys):
        code, _, err = run_cli(capsys, ["orbit", "--n", "3", "--d", "2", "--gens", "preset:gamma2"])
        assert code == 1 and "invalid-parameter" in err

    def test_dot_is_a_format_not_a_file(self, capsys, monkeypatch, tmp_path):
        # DOT is printed by --format dot; there is no option that writes it to a file.
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, ["orbit", "--n", "4", "--d", "2", "--gens", "preset:gamma2", "--dot", "x.dot"])
        assert (code, out) == (2, "")
        assert err.startswith("usage: dessinry ")
        assert err.endswith("dessinry: error: unrecognized arguments: --dot x.dot\n")
        assert not (tmp_path / "x.dot").exists()


class TestOrigami:
    def test_to_dessin_from_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(CHESSBOARD_JSON))
        code, out, _ = run_cli(capsys, ["origami", "to-dessin"])
        assert code == 0
        payload = json.loads(out)
        assert payload["perms"] == [[1, 0], [1, 0], [1, 0], [1, 0]]
        assert payload["genus"] == 1

    def test_roundtrip_through_files(self, capsys, tmp_path):
        ori = tmp_path / "o.json"
        ori.write_text(CHESSBOARD_JSON)
        code, out, _ = run_cli(capsys, ["origami", "to-dessin", "--in", str(ori)])
        assert code == 0
        dessin = tmp_path / "t.json"
        dessin.write_text(out)
        code, out, _ = run_cli(capsys, ["origami", "from-dessin", "--in", str(dessin)])
        assert code == 0
        back = json.loads(out)
        assert back["m"] == 2
        assert back["D"] == [0, 1]

    def test_delta_needs_op(self, capsys, tmp_path):
        ori = tmp_path / "o.json"
        ori.write_text(CHESSBOARD_JSON)
        code, _, err = run_cli(capsys, ["origami", "delta", "--in", str(ori)])
        assert code == 1 and "invalid-parameter" in err

    def test_delta_fixes_chessboard(self, capsys, tmp_path):
        ori = tmp_path / "o.json"
        ori.write_text(CHESSBOARD_JSON)
        code, out, _ = run_cli(capsys, ["origami", "delta", "--op", "hor", "--in", str(ori)])
        assert code == 0
        assert json.loads(out) == {**json.loads(CHESSBOARD_JSON), "schema": "dessinry/1"}

    def test_orbit_with_dot(self, capsys, tmp_path):
        ori = tmp_path / "o.json"
        ori.write_text(json.dumps({"m": 3, "R": [1, 2, 0], "L": [0, 1, 2], "U": [1, 0, 2], "D": [1, 0, 2]}))
        code, out, _ = run_cli(capsys, ["origami", "orbit", "--in", str(ori)])
        assert code == 0
        payload = json.loads(out)
        assert payload["element_count"] == 4
        assert len(payload["edges"]) == 16


class TestHurwitz:
    def test_frozen_example(self, capsys):
        code, out, _ = run_cli(capsys, ["hurwitz", "--a", "2", "--lift", "L3", "--emit", "dessin"])
        assert code == 0
        payload = json.loads(out)
        assert payload["perms"] == [[1, 2, 3, 0], [2, 1, 0, 3], [0, 1, 3, 2], [1, 0, 2, 3]]
        assert payload["profile"] == [[4], [2, 1, 1], [2, 1, 1], [2, 1, 1]]
        assert payload["genus"] == 0

    def test_emit_origami(self, capsys):
        code, out, _ = run_cli(capsys, ["hurwitz", "--a", "2", "--lift", "L1", "--emit", "origami"])
        assert code == 0
        payload = json.loads(out)
        assert payload["m"] == 4
        assert payload["D"] == [0, 1, 2, 3]

    def test_emit_dot(self, capsys):
        code, out, _ = run_cli(capsys, ["hurwitz", "--a", "3", "--lift", "L4", "--emit", "dot"])
        assert code == 0
        assert out.startswith("graph dessin {")

    def test_domain_error_exit(self, capsys):
        code, _, err = run_cli(capsys, ["hurwitz", "--a", "0.5", "--lift", "L1"])
        assert code == 1
        assert err.startswith("no-such-lift:")

    def test_lift_just_above_one(self, capsys):
        # At a = 1 + 2e-8 the L3 point lies 7.5e-9 left of -1.
        argv = ["hurwitz", "--lift", "L3", "--format", "table", "--a"]
        near, far = run_cli(capsys, argv + ["1.00000002"]), run_cli(capsys, argv + ["2"])
        assert near == far and far[0] == 0
        code, out, err = run_cli(capsys, ["hurwitz", "--a", "1.000000005", "--lift", "L1"])
        assert (code, out) == (1, "")
        assert err.startswith("no-such-lift:") and "1e-08" in err

    def test_every_lift_at_the_first_a_above_the_margin(self, capsys):
        # 1.0000000100000002 is the float after 1 + 1e-8.  The rounded p of
        # its L4 root is not above the margin, and L4 was once refused there.
        argv = ["hurwitz", "--format", "table", "--lift"]
        for lift in ("L1", "L2", "L3", "L4"):
            near = run_cli(capsys, argv + [lift, "--a", "1.0000000100000002"])
            assert near == run_cli(capsys, argv + [lift, "--a", "1.0000000100000004"]) and near[0] == 0
        assert near[1] == "(0 1 3 2) | (2 3) | (0 1) | (1 2)\n"


class TestMonodromy:
    BELYI = ["--poly", "[-6.75, 6.75, 0, 0]", "--branch-points", "[0, 1]"]

    def test_belyi_table(self, capsys):
        code, out, _ = run_cli(capsys, ["monodromy"] + self.BELYI + ["--format", "table"])
        assert code == 0
        assert out.strip() == "(0 1 2) | (1 2) | (0 2)"

    def test_base_override_same_class(self, capsys):
        _, ref, _ = run_cli(capsys, ["monodromy"] + self.BELYI)
        code, out, _ = run_cli(capsys, ["monodromy"] + self.BELYI + ["--base", "0.3,1.5"])
        assert code == 0
        assert out == ref

    def test_bad_json_argument(self, capsys):
        code, _, err = run_cli(capsys, ["monodromy", "--poly", "[1, 2", "--branch-points", "[0, 1]"])
        assert code == 1 and "invalid-parameter" in err


class TestModularCommands:
    def test_lambda_star_json(self, capsys):
        code, out, _ = run_cli(capsys, ["lambda-star", "--tau", "0,1", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert abs(float(payload["value"]["re"]) - 2.0) < 1e-10
        assert float(payload["trunc_bound"]) <= 1e-12

    def test_ap_text(self, capsys):
        code, out, _ = run_cli(capsys, ["ap", "--t", "1"])
        assert code == 0
        assert out.startswith("ap(1.0) = ")
        printed = float(out.split("=")[1].split("(")[0])
        assert abs(printed - 2.0) < 1e-12

    def test_env_tolerance_applies(self, capsys, monkeypatch):
        monkeypatch.setenv("DESSINRY_TOL", "1e-6")
        code, out, _ = run_cli(capsys, ["lambda-star", "--tau", "0,1", "--json"])
        assert code == 0
        assert json.loads(out)["tol"] == 1e-6

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("DESSINRY_TOL", "1e-6")
        code, out, _ = run_cli(capsys, ["lambda-star", "--tau", "0,1", "--tol", "1e-9", "--json"])
        assert code == 0
        assert json.loads(out)["tol"] == 1e-9

    def test_table1_check_rows(self, capsys):
        code, out, _ = run_cli(capsys, ["table1", "--rows", "1,2,3", "--check"])
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3
        assert all(line.endswith("PASS") for line in lines)

    def test_table1_check_takes_a_subnormal_tol(self, capsys):
        # The inner target tol / 1000 is taken in mpmath, where it does not
        # underflow to 0 as the float tol * 1e-3 did.
        code, out, err = run_cli(capsys, ["table1", "--rows", "1", "--check", "--tol", "1e-323"])
        assert (code, err) == (0, "")
        assert out.endswith("  PASS\n")

    def test_table1_unknown_row(self, capsys):
        code, _, err = run_cli(capsys, ["table1", "--rows", "11"])
        assert code == 1 and "invalid-parameter" in err

    def test_qseries_text(self, capsys):
        code, out, _ = run_cli(capsys, ["qseries", "--order", "8"])
        assert code == 0
        assert out.strip() == "1 16 128 704 3072 11488 38400 117632 335872"

    def test_qseries_rejects_negative_order(self, capsys):
        code, _, err = run_cli(capsys, ["qseries", "--order", "-1"])
        assert code == 1 and "invalid-parameter" in err

    def test_qseries_refuses_orders_beyond_the_limit(self, capsys):
        from dessinry.qseries import QSERIES_ORDER_LIMIT

        code, out, err = run_cli(capsys, ["qseries", "--order", str(QSERIES_ORDER_LIMIT + 1)])
        assert code == 1 and out == ""
        assert err.startswith("bound-exceeded: ")
        code, _, err = run_cli(capsys, ["qseries", "--order", "100000000"])
        assert code == 1 and err.startswith("bound-exceeded: ")

    def test_table1_check_miss_has_a_diagnostic(self, capsys):
        code, out, err = run_cli(capsys, ["table1", "--rows", "1,2,3", "--check", "--tol", "1e-300"])
        assert code == 1
        # The rows stay on stdout as they are; an all-PASS run has none of this.
        assert out.splitlines()[0].startswith("n=1  2.0  ")
        assert len(out.splitlines()) == 3
        failed = [line.split()[0][2:] for line in out.splitlines() if line.endswith("FAIL")]
        assert failed
        assert err == "expression-mismatch: %d of 3 rows miss tol 1e-300 (n=%s)\n" % (len(failed), ",".join(failed))


# Inputs that must end in a "code: message" diagnostic, never a traceback:
# argv, stdin, environment.
DEEP_JSON = "[" * 30000 + "]" * 30000
CONTRACT_INPUTS = [
    (["ap", "--t", "2"], None, {"DESSINRY_TOL": "abc"}),
    (["ap", "--t", "2", "--tol", "0"], None, {}),
    (["ap", "--t", "2", "--tol", "-1"], None, {}),
    (["ap", "--t", "2", "--tol", "nan"], None, {}),
    (["ap", "--t", "nan"], None, {}),
    (["hurwitz", "--a", "nan", "--lift", "L1"], None, {}),
    (["origami", "to-dessin"], '{"m": 1, "R": [0]', {}),
    (["origami", "to-dessin", "--in", "missing.json"], None, {}),
    (["orbit", "--seed", "missing.json"], None, {}),
    (["monodromy", "--poly", "[[1, 0], [0, 0, 0], [-3, 0], [0, 0]]", "--branch-points", "[-2, 2]"], None, {}),
    (["monodromy", "--poly", "[]", "--branch-points", "[0,1]"], None, {}),
    (["monodromy", "--poly", "[1]", "--branch-points", "[0,1]"], None, {}),
    (["lambda-star", "--tau", "nan,1"], None, {}),
    (["lambda-star", "--tau", "0,inf"], None, {}),
    # --dot is not an option (DOT is printed by --format dot), so argparse refuses these.
    (["orbit", "--n", "4", "--d", "2", "--gens", "preset:gamma2", "--dot", "missing-dir/x.dot"], None, {}),
    (["origami", "orbit", "--dot", "missing-dir/x.dot"], CHESSBOARD_JSON, {}),
    (["monodromy", "--poly", "[1, NaN]", "--branch-points", "[0, 1]"], None, {}),
    (["monodromy", "--poly", "[1, 0, -3, 0]", "--branch-points", "[-2, 2]", "--base", "nan,1"], None, {}),
    # Finite, but too large to draw lassos around or to solve the fiber at.
    (["monodromy", "--poly", "[1, 0, -3, 0]", "--branch-points", "[1e308, -1e308]"], None, {}),
    (["monodromy", "--poly", "[1, 0, -3, 0]", "--branch-points", "[-2, 2]", "--base", "1e308,0"], None, {}),
    (["ap", "--t", "1e-300"], None, {}),
    # DOT is a graph format; only orbits have a graph.
    (["origami", "to-dessin", "--format", "dot"], CHESSBOARD_JSON, {}),
    (["origami", "from-dessin", "--format", "dot"], '{"n": 4, "d": 2, "perms": [[1, 0], [1, 0], [1, 0], [1, 0]]}', {}),
    (["origami", "delta", "--op", "hor", "--format", "dot"], CHESSBOARD_JSON, {}),
    # An invalid tuple under --format json: no part of a document is written.
    (["origami", "from-dessin", "--format", "json"], '{"n": 4, "d": 2, "perms": [[1, 0], [1, 0], [1, 0], [0, 1]]}', {}),
    # hurwitz --emit dot prints DOT whatever the format, so it takes none.
    (["hurwitz", "--a", "2", "--lift", "L3", "--emit", "dot", "--format", "json"], None, {}),
    (["hurwitz", "--a", "2", "--lift", "L3", "--emit", "dot", "--format", "table"], None, {}),
    (["origami", "to-dessin", "--dot", "out.dot"], CHESSBOARD_JSON, {}),
    (["origami", "from-dessin", "--dot", "out.dot"], '{"n": 4, "d": 2, "perms": [[1, 0], [1, 0], [1, 0], [1, 0]]}', {}),
    (["origami", "delta", "--op", "hor", "--dot", "out.dot"], CHESSBOARD_JSON, {}),
    # --op names a shear, which only origami delta applies.
    (["origami", "to-dessin", "--op", "hor"], CHESSBOARD_JSON, {}),
    (["origami", "from-dessin", "--op", "hor"], '{"n": 4, "d": 2, "perms": [[1, 0], [1, 0], [1, 0], [1, 0]]}', {}),
    (["origami", "orbit", "--op", "ver"], CHESSBOARD_JSON, {}),
    # complex() takes JSON true as 1; an entry must be a number.
    (["monodromy", "--poly", "[true,0,0]", "--branch-points", "[0,1]"], None, {}),
    # An empty --rows names no row; it does not mean every row.
    (["table1", "--rows", ""], None, {}),
    # JSON that is not UTF-8, or that nests deeper than the parser goes, in a
    # file (the test writes both) or in an argument.
    (["orbit", "--seed", "undecodable.json"], None, {}),
    (["origami", "to-dessin", "--in", "undecodable.json"], None, {}),
    (["orbit", "--seed", "deep.json"], None, {}),
    (["monodromy", "--poly", DEEP_JSON, "--branch-points", "[0, 1]"], None, {}),
    (["monodromy", "--poly", "[1, 0, 0]", "--branch-points", DEEP_JSON], None, {}),
    # A seed whose d contradicts --d, a --tau of three parts, a --poly that is
    # JSON but not a list.
    (["orbit", "--seed", "-", "--d", "3"], '{"n": 4, "d": 2, "perms": [[1, 0], [1, 0], [1, 0], [1, 0]]}', {}),
    (["lambda-star", "--tau", "1,2,3"], None, {}),
    (["monodromy", "--poly", "5", "--branch-points", "[0, 1]"], None, {}),
]
# JSON of the wrong shape; the same argv recurs, so each is named by its stdin.
SHAPE_INPUTS = [
    (["orbit", "--seed", "-"], '{"n": 3, "d": 1, "perms": [1, 2, 3]}', {}),
    (["orbit", "--seed", "-"], '{"n": 3, "d": 1, "perms": [[0], [0], null]}', {}),
    (["origami", "from-dessin"], '{"n": 4, "d": 1, "perms": [[0], [0], [0], 7]}', {}),
    (["origami", "to-dessin"], '{"m": 1, "R": 5, "L": [0], "U": [0], "D": [0]}', {}),
    (["origami", "to-dessin"], '{"m": 1, "R": [0], "L": [0], "U": [0], "D": null}', {}),
    # Header fields are exact integers: JSON true and 1.0 both equal 1.
    (["orbit", "--seed", "-"], '{"n": 3, "d": true, "perms": [[0], [0], [0]]}', {}),
    (["orbit", "--seed", "-"], '{"n": 3.0, "d": 1, "perms": [[0], [0], [0]]}', {}),
    (["origami", "orbit"], '{"m": true, "R": [0], "L": [0], "U": [0], "D": [0]}', {}),
    (["origami", "orbit"], '{"m": 1.0, "R": [0], "L": [0], "U": [0], "D": [0]}', {}),
    # Valid JSON that is not an object.
    (["orbit", "--seed", "-"], "[1, 2]", {}),
    (["origami", "to-dessin"], '"x"', {}),
]


def argv_id(argv):
    """The argv joined by spaces, each argument past 80 characters cut short."""
    return " ".join(a if len(a) <= 80 else "%s...(%d chars)" % (a[:3], len(a)) for a in argv)


@pytest.mark.parametrize(
    "argv,stdin,env",
    CONTRACT_INPUTS + SHAPE_INPUTS,
    ids=[argv_id(c[0]) for c in CONTRACT_INPUTS] + [argv_id(c[0]) + " < " + c[1] for c in SHAPE_INPUTS],
)
def test_bad_input_gets_a_diagnostic(capsys, monkeypatch, tmp_path, argv, stdin, env):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "undecodable.json").write_bytes(b"\xff")
    (tmp_path / "deep.json").write_text(DEEP_JSON)
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin or ""))
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code, out, err = run_cli(capsys, argv)
    assert code in (1, 2)
    assert out == ""
    assert "Traceback" not in err
    assert re.match(r"^[a-z][a-z-]*: \S", err.splitlines()[-1])


@pytest.mark.parametrize(
    "argv",
    [
        ["hurwitz", "--a", "2", "--lift", "L1", "--tol", "1e-9"],
        ["monodromy", "--poly", "[1, 0, -3, 0]", "--branch-points", "[-2, 2]", "--tol", "1e-9"],
    ],
    ids=["hurwitz", "monodromy"],
)
def test_covers_commands_take_no_tolerance(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --tol 1e-9" in err


def test_poly_accepts_re_im_pairs(capsys):
    pairs = ["monodromy", "--poly", "[[1, 0], [0, 0], [-3, 0], [0, 0]]", "--branch-points", "[-2, 2]"]
    plain = ["monodromy", "--poly", "[1, 0, -3, 0]", "--branch-points", "[[-2, 0], [2, 0]]"]
    code, out, err = run_cli(capsys, pairs)
    assert (code, err) == (0, "")
    assert run_cli(capsys, plain) == (0, out, "")
    assert json.loads(out)["profile"] == [[3], [2, 1], [2, 1]]


@pytest.mark.parametrize("poly", ["[true, 0, 0]", "[[1, false], 0, 0]", '["1", 0, 0]'])
def test_poly_entries_are_json_numbers(capsys, poly):
    code, out, err = run_cli(capsys, ["monodromy", "--poly", poly, "--branch-points", "[0, 1]"])
    assert (code, out) == (1, "")
    assert err.startswith("invalid-parameter: --poly entry ")


@pytest.mark.parametrize(
    "argv,diagnostic",
    [
        (["ap", "--t", "1e-6"], "tolerance-unreachable: eta would take 2.6e+04 s, past the 1 s budget at t=1e-06"),
        (
            ["lambda-star", "--tau", "0.4,1e-7"],
            "tolerance-unreachable: eta would take 4.6e+03 s, past the 1 s budget at tau=(0.4 + 1.0e-7j)",
        ),
        (
            ["hurwitz", "--a", "1e308", "--lift", "L1"],
            "invalid-parameter: the fiber polynomial s^4 - 2s^3 + 2as - a is not finite at a=(1e+308+0j)",
        ),
        (
            ["hurwitz", "--a", "1e14", "--lift", "L1"],
            "degenerate-leading-coefficient: the fiber polynomial s^4 - 2s^3 + 2as - a"
            " has a negligible leading coefficient at a=(100000000000000+0j)",
        ),
        (
            ["monodromy", "--poly", "[1, 0, -3, 0]", "--branch-points", "[1e308, -1e308]"],
            "invalid-parameter: branch points ((1e+308+0j), (-1e+308+0j)) with base 2j are too large"
            " to draw lassos around: the large circle's radius overflows",
        ),
        (
            ["monodromy", "--poly", "[1, 0, -3, 0]", "--branch-points", "[-2, 2]", "--base", "1e308,0"],
            "degenerate-leading-coefficient: leading coefficient (1+0j) is negligible against 1e+308"
            " in the fiber over base=(1e+308+0j)",
        ),
    ],
    ids=["ap", "lambda-star", "hurwitz", "hurwitz-degenerate", "monodromy-branch-points", "monodromy-base"],
)
def test_diagnostic_names_the_value_given(capsys, argv, diagnostic):
    # Not the derived point (tau + 1) / 2, nor the coefficient 2a, overflowed
    # or dwarfing the leading one.
    assert run_cli(capsys, argv) == (1, "", diagnostic + "\n")


@pytest.mark.parametrize(
    "argv,named,seconds",
    [
        (["ap", "--t", "1e-300"], "t=1e-300", "inf"),
        (["lambda-star", "--tau", "0,1e-300"], "tau=(0.0 + 1.0e-300j)", "inf"),
        (["ap", "--t", "1e-4"], "t=0.0001", "4.2"),
        (["ap", "--t", "1e-5", "--tol", "1e-300"], "t=1e-05", "3.3e+02"),
        (["lambda-star", "--tau=0,1e-5"], "tau=(0.0 + 1.0e-5j)", "3.3e+02"),
    ],
)
def test_far_past_the_cost_budget_exits_1_at_once(capsys, argv, named, seconds):
    # The reduced point is i / Im tau: the digits of the final pass, and so
    # the cost of its etas, are known before any eta runs.
    start = time.process_time()
    diagnostic = "tolerance-unreachable: eta would take %s s, past the 1 s budget at %s\n" % (seconds, named)
    assert run_cli(capsys, argv) == (1, "", diagnostic)
    assert time.process_time() - start < 1


@pytest.mark.parametrize(
    "argv,stdin,diagnostic",
    [
        (["orbit", "--seed", "-"], "[1, 2]", "invalid-tuple: expected a JSON object with n, d and perms, got list"),
        (["origami", "orbit"], '"x"', "invalid-origami: expected a JSON object with m, R, L, U and D, got str"),
        (
            ["orbit", "--seed", "-"],
            '{"n": 3, "d": true, "perms": [[0], [0], [0]]}',
            "invalid-tuple: d must be an integer, got True",
        ),
        (
            ["origami", "orbit"],
            '{"m": 1.0, "R": [0], "L": [0], "U": [0], "D": [0]}',
            "invalid-origami: m must be an integer, got 1.0",
        ),
    ],
    ids=["tuple-list", "origami-str", "tuple-bool-d", "origami-float-m"],
)
def test_json_input_diagnostic_names_the_problem(capsys, monkeypatch, argv, stdin, diagnostic):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    assert run_cli(capsys, argv) == (1, "", diagnostic + "\n")


class TestUsageErrors:
    def test_missing_required_flag(self, capsys):
        assert main(["enumerate"]) == 2
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_bad_tau_format(self, capsys):
        code, _, err = run_cli(capsys, ["lambda-star", "--tau", "1+2j"])
        assert code == 1 and "invalid-parameter" in err


# argv, stdin, and whether the orbit's DOT text is needed.
DOT_CASES = [
    (["orbit", "--n", "4", "--d", "2", "--gens", "preset:gamma2", "--format", "json"], "", False),
    (["orbit", "--n", "4", "--d", "2", "--gens", "preset:gamma2"], "", False),
    (["orbit", "--n", "4", "--d", "2", "--gens", "preset:gamma2", "--format", "dot"], "", True),
    (["origami", "orbit"], CHESSBOARD_JSON, False),
    (["origami", "orbit", "--format", "table"], CHESSBOARD_JSON, False),
    (["origami", "orbit", "--format", "dot"], CHESSBOARD_JSON, True),
]


@pytest.mark.parametrize("argv,stdin,built", DOT_CASES, ids=[" ".join(c[0]) for c in DOT_CASES])
def test_orbit_dot_built_only_when_asked(capsys, monkeypatch, tmp_path, argv, stdin, built):
    from dessinry import cli

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    calls = []
    original = cli._orbit_dot
    monkeypatch.setattr(cli, "_orbit_dot", lambda *a: calls.append(a) or original(*a))
    code, _, _ = run_cli(capsys, argv)
    assert code == 0
    assert len(calls) == int(built)


@pytest.mark.parametrize("case", GOLDEN, ids=[" ".join(c["argv"]) for c in GOLDEN])
def test_golden_stdout(capsys, monkeypatch, case):
    monkeypatch.setattr(sys, "stdin", io.StringIO(case["stdin"] or ""))
    code, out, err = run_cli(capsys, case["argv"])
    assert (code, err) == (0, "")
    assert out == case["stdout"]


def readme_examples():
    """(argv, stdin, pattern of stdout) of every `$ dessinry` example in
    README.md; a `...` line of the shown output stands for any lines."""
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"), "r", encoding="utf-8") as fh:
        blocks = re.findall(r"^```\n(.*?)^```", fh.read(), re.M | re.S)
    examples = []
    for chunk in (c for b in blocks for c in re.split(r"\n\s*\n", b)):
        if not chunk.startswith("$ "):
            continue
        lines = chunk.splitlines()
        command = lines.pop(0)[2:]
        while command.endswith("\\"):
            command = command[:-1] + " " + lines.pop(0)
        words = shlex.split(command)
        stdin = None
        if "|" in words:
            # echo 'DOC' | dessinry ...
            assert words[0] == "echo" and words[2] == "|", command
            stdin, words = words[1] + "\n", words[3:]
        assert words[0] == "dessinry", command
        pattern = "".join(r"(?:.*\n)*" if line == "..." else re.escape(line + "\n") for line in lines)
        examples.append((words[1:], stdin, pattern))
    return examples


README_EXAMPLES = readme_examples()


def test_readme_examples_are_found():
    assert len(README_EXAMPLES) == 8


@pytest.mark.parametrize("argv,stdin,pattern", README_EXAMPLES, ids=[" ".join(e[0]) for e in README_EXAMPLES])
def test_readme_example_prints_what_readme_shows(capsys, monkeypatch, argv, stdin, pattern):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin or ""))
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    assert re.fullmatch(pattern, out), out


# --- the JSON writer: json.dumps's bytes, without json.dumps's string --------------

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from([-0.0, math.nan, math.inf, -math.inf])
    | st.text()
    # The writer's fast path is a list of exact ints; bools are ints that
    # print as true and false, so a list that mixes them must not take it.
    | st.lists(st.integers())
    | st.lists(st.text())
    | st.lists(st.integers() | st.booleans())
    | st.lists(st.lists(st.integers(), max_size=6), max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


def emit_json(doc):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        cli._emit(argparse.Namespace(format="json"), lambda: doc, None)
    return out.getvalue()


@settings(max_examples=200, deadline=None)
@given(doc=st.dictionaries(st.text(), JSON_VALUES, max_size=5))
def test_json_writer_matches_json_dumps(doc):
    expected = json.dumps({"schema": cli.SCHEMA, **doc}, indent=2, sort_keys=True) + "\n"
    assert emit_json(doc) == expected
    # A top-level generator is written item by item, to the same bytes.
    assert emit_json({k: (x for x in v) if isinstance(v, list) else v for k, v in doc.items()}) == expected


@settings(max_examples=200, deadline=None)
@given(items=st.lists(JSON_VALUES, max_size=5), depth=st.integers(0, 3))
def test_encoded_items_write_as_their_values(items, depth):
    # A list of items each already written by _json at the depth it is
    # printed, alone or among plain strings, writes what the list of the
    # items writes; so does such a list streamed at the top level.
    indent = "\n" + "  " * depth
    encoded = [cli._Encoded(cli._json(x, indent + "  ")) for x in items]
    mixed = [x if isinstance(x, str) else cli._Encoded(cli._json(x, indent + "  ")) for x in items]
    assert cli._json(encoded, indent) == cli._json(mixed, indent) == cli._json(items, indent)
    expected = json.dumps({"schema": cli.SCHEMA, "items": items}, indent=2, sort_keys=True) + "\n"
    top = [cli._Encoded(cli._json(x, "\n    ")) for x in items]
    assert emit_json({"items": top}) == emit_json({"items": (x for x in top)}) == expected


def test_enumerate_json_matches_json_dumps(capsys):
    # Each class's keys come from perms and core's public invariants, not
    # from the CLI's one-pass helper.
    result = enumerate_classes(3, 5)
    doc = {
        "schema": cli.SCHEMA,
        "n": 3,
        "d": 5,
        "class_count": len(result.classes),
        "marked_count": result.marked_count,
        "classes": [
            {
                "perms": [list(p) for p in t.perms],
                "cycles": [perms.cycles_str(p) for p in t.perms],
                "genus": core.genus(t),
                "profile": [list(part) for part in core.cycle_profile(t)],
                "normal": core.is_normal(t),
            }
            for t in result.classes
        ],
    }
    code, out, err = run_cli(capsys, ["enumerate", "--n", "3", "--d", "5", "--format", "json"])
    assert (code, err) == (0, "")
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def orbit_document(result, label, element, **extra):
    """The JSON document of an orbit, from the closure's public result."""
    return {
        "schema": cli.SCHEMA,
        **extra,
        "element_count": len(result.elements),
        "elements": [element(x) for x in result.elements],
        "labels": [label(x) for x in result.elements],
        "edges": [list(e) for e in result.generator_log],
    }


SHEAR_ORBIT_JSON = json.dumps({"m": 3, "R": [1, 2, 0], "L": [0, 1, 2], "U": [1, 0, 2], "D": [1, 0, 2]})


def test_orbit_json_matches_json_dumps(capsys):
    # Labels from perms.cycles_str and arrays from list(), not from the
    # CLI's memo or its templates.
    from dessinry import braid

    result = braid.braid_orbit(enumerate_classes(4, 3).classes, braid.preset_gamma2())
    doc = orbit_document(
        result,
        lambda t: " | ".join(perms.cycles_str(p) for p in t.perms),
        lambda t: [list(p) for p in t.perms],
        gens="preset:gamma2",
        orbits=[list(c) for c in result.orbits],
    )
    assert len(doc["edges"]) > len(doc["elements"]) > 1
    code, out, err = run_cli(capsys, ["orbit", "--n", "4", "--d", "3", "--gens", "preset:gamma2", "--format", "json"])
    assert (code, err) == (0, "")
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_origami_orbit_json_matches_json_dumps(capsys, monkeypatch):
    from dessinry import origami

    result = origami.origami_orbit(origami.origami_from_json(json.loads(SHEAR_ORBIT_JSON)))
    doc = orbit_document(
        result,
        lambda o: "R=%s L=%s U=%s D=%s" % tuple(perms.cycles_str(p) for p in (o.R, o.L, o.U, o.D)),
        lambda o: {"m": o.m, "R": list(o.R), "L": list(o.L), "U": list(o.U), "D": list(o.D)},
    )
    assert len(doc["edges"]) > len(doc["elements"]) > 1
    monkeypatch.setattr(sys, "stdin", io.StringIO(SHEAR_ORBIT_JSON))
    code, out, err = run_cli(capsys, ["origami", "orbit", "--format", "json"])
    assert (code, err) == (0, "")
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def printed_permutations(doc):
    """Every permutation that an enumerate, orbit or origami orbit JSON
    document prints, with repeats."""
    if "classes" in doc:
        return [tuple(p) for c in doc["classes"] for p in c["perms"]]
    if "gens" in doc:
        return [tuple(p) for e in doc["elements"] for p in e]
    return [tuple(e[k]) for e in doc["elements"] for k in "RLUD"]


def assert_decomposed_once(capsys, monkeypatch, argv, stdin=""):
    """Each distinct permutation that argv prints, in JSON and in the given
    format, goes through one cycles() pass; the CLI binds perms.cycles at
    import, so the calls are counted where its memo makes them."""
    calls = []
    monkeypatch.setattr(cli, "perm_cycles", lambda p: calls.append(p) or perms.cycles(p))
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code, out, err = run_cli(capsys, argv[:-1] + ["json"])
    assert (code, err) == (0, "")
    printed = printed_permutations(json.loads(out))
    assert len(set(printed)) < len(printed)
    assert sorted(calls) == sorted(set(printed))
    calls.clear()
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    assert sorted(calls) == sorted(set(printed))


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_enumerate_decomposes_each_printed_permutation_once(capsys, monkeypatch, fmt):
    # Cycle strings, profile and genus come from one cycles() pass per
    # distinct permutation per command.
    assert_decomposed_once(capsys, monkeypatch, ["enumerate", "--n", "3", "--d", "4", "--format", fmt])


@pytest.mark.parametrize("fmt", ["table", "json", "dot"])
@pytest.mark.parametrize(
    "argv,stdin",
    [(["orbit", "--n", "4", "--d", "3"], ""), (["origami", "orbit"], SHEAR_ORBIT_JSON)],
    ids=["orbit", "origami orbit"],
)
def test_orbit_decomposes_each_printed_permutation_once(capsys, monkeypatch, argv, stdin, fmt):
    assert_decomposed_once(capsys, monkeypatch, argv + ["--format", fmt], stdin)


class CountingSink:
    """A stdout that keeps only the number of characters written to it."""

    size = 0

    def write(self, text):
        self.size += len(text)
        return len(text)

    def flush(self):
        pass


def test_enumerate_json_does_not_hold_its_output(monkeypatch):
    # Only the writing is measured: the classes are found beforehand.
    result = enumerate_classes(4, 4)
    monkeypatch.setattr(dessinry.enumeration, "enumerate_classes", lambda n, d: result)
    sink = CountingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = main(ENUMERATE_44_JSON)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < sink.size, "peak %d bytes for %d characters of output" % (peak, sink.size)


def test_orbit_json_does_not_hold_its_output(monkeypatch):
    # Only the writing is measured: the seeds and the orbit (604 elements,
    # 3624 edges) are found beforehand, and the elements and edges are
    # written one at a time.
    from dessinry import braid

    seeds = enumerate_classes(4, 4)
    result = braid.braid_orbit(seeds.classes, braid.preset_pure_generators(4))
    assert (len(result.elements), len(result.generator_log)) == (604, 3624)
    monkeypatch.setattr(dessinry.enumeration, "enumerate_classes", lambda n, d: seeds)
    monkeypatch.setattr(braid, "braid_orbit", lambda seeds, gens: result)
    sink = CountingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = main(["orbit", "--n", "4", "--d", "4", "--gens", "preset:pure", "--format", "json"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < sink.size, "peak %d bytes for %d characters of output" % (peak, sink.size)


def test_failing_json_payload_writes_nothing(capsys, monkeypatch):
    # A payload that raises does so before the first byte of the document is
    # written.
    def failing(raw):
        raise DessinryError("invalid-tuple", "cannot print %r" % (raw,))

    monkeypatch.setattr(cli, "_tuple_json", failing)
    code, out, err = run_cli(capsys, ["hurwitz", "--a", "2", "--lift", "L1"])
    assert (code, out) == (1, "")
    assert err.startswith("invalid-tuple: ")


# --- start-up cost: each subcommand imports only what it uses ----------------------

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(dessinry.__file__)))

# argv (None: a bare `import dessinry`) and the heavy modules it must not load.
# Modules of the package that only some subcommands use; the CLI does not
# even compile them for the others.  Only enumerate and orbit --n/--d
# enumerate classes, and only ap, lambda-star and table1 load mpmath.
BRAID_COVERS_ORIGAMI = {"dessinry.braid", "dessinry.covers", "dessinry.origami"}
ENUMERATION = "dessinry.enumeration"

IMPORT_BUDGET = [
    (None, {"numpy", "mpmath", ENUMERATION}),
    (["enumerate", "--n", "3", "--d", "2"], {"numpy", "mpmath"} | BRAID_COVERS_ORIGAMI),
    (["orbit", "--n", "4", "--d", "2", "--gens", "preset:gamma2"], {"numpy", "mpmath"}),
    (["orbit", "--seed", "chessboard-dessin.json", "--gens", "preset:gamma2"], {"numpy", "mpmath", ENUMERATION}),
    (["origami", "orbit", "--in", "chessboard.json"], {"numpy", "mpmath", ENUMERATION}),
    # Only the orbit needs braid's closure.
    (
        ["origami", "to-dessin", "--in", "chessboard.json"],
        {"numpy", "mpmath", ENUMERATION, "dessinry.braid", "dessinry.covers"},
    ),
    (
        ["origami", "from-dessin", "--in", "chessboard-dessin.json"],
        {"numpy", "mpmath", ENUMERATION, "dessinry.braid", "dessinry.covers"},
    ),
    (
        ["origami", "delta", "--op", "hor", "--in", "chessboard.json"],
        {"numpy", "mpmath", ENUMERATION, "dessinry.braid", "dessinry.covers"},
    ),
    (
        ["monodromy", "--poly", "[1, 0, -3, 0]", "--branch-points", "[-2, 2]"],
        {"numpy", "mpmath", ENUMERATION, "dessinry.braid", "dessinry.origami"},
    ),
    (["hurwitz", "--a", "2", "--lift", "L3"], {"numpy", "mpmath", ENUMERATION}),
    (["hurwitz", "--a", "2", "--lift", "L3", "--emit", "origami"], {"numpy", "mpmath", ENUMERATION, "dessinry.braid"}),
    (["ap", "--t", "2"], {"numpy", ENUMERATION} | BRAID_COVERS_ORIGAMI),
    (["lambda-star", "--tau", "0,1"], {"numpy", ENUMERATION}),
    (["table1", "--rows", "1", "--check"], {"numpy", ENUMERATION}),
    (["qseries", "--order", "4"], {"numpy", "mpmath", "dessinry.modular", ENUMERATION} | BRAID_COVERS_ORIGAMI),
]

EXPORTS = """
DessinryError MonodromyTuple validate is_valid canonical_form isomorphic genus
cycle_profile is_normal orientation_reverse centralizer_order
EnumerationResult enumerate_classes count_transitive_tuples hall_count
WORK_LIMIT EndomorphismTable OrbitResult word evaluate_word apply_endomorphism
compose_tables chain_tables sigma_table sigma_inv_table pure_twist_table
preset_pure_generators preset_gamma2 braid_orbit BipartiteOrigami
validate_origami origami_to_dessin dessin_to_origami isomorphic_origami
canonical_origami delta_hor delta_hor_inv delta_ver delta_ver_inv
origami_orbit CoverSpec
poly_roots numerical_monodromy hurwitz_fs hurwitz_projection hurwitz_fiber
hurwitz_cover belyi_cubic_cover classify_lift hurwitz_dessin BASE_POINT
UpperHalfPoint ModularValue eta weber_f weber_f1 weber_f2
lambda_star ap j_from_lambda_star j_oracle qseries_eval integrality_check
QSeries lambda_star_qseries CM_ROWS cm_value eval_radical
""".split()


def fresh_env():
    """The environment of a new interpreter that finds this dessinry first."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (SRC_DIR, os.environ.get("PYTHONPATH")) if p))


def run_fresh(script, cwd):
    """Run script in a new interpreter that finds this dessinry first; its stdout."""
    proc = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=fresh_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def budget_id(i):
    """The subcommand of case i, or its whole argv where an earlier case has the same subcommand."""
    argv = IMPORT_BUDGET[i][0]
    if argv is None:
        return "import dessinry"
    return " ".join(argv) if any(a and a[0] == argv[0] for a, _ in IMPORT_BUDGET[:i]) else argv[0]


@pytest.mark.parametrize("argv,banned", IMPORT_BUDGET, ids=[budget_id(i) for i in range(len(IMPORT_BUDGET))])
def test_import_budget(tmp_path, argv, banned):
    (tmp_path / "chessboard.json").write_text(CHESSBOARD_JSON)
    (tmp_path / "chessboard-dessin.json").write_text('{"n": 4, "d": 2, "perms": [[1, 0], [1, 0], [1, 0], [1, 0]]}')
    if argv is None:
        script = "import dessinry\n"
    else:
        script = (
            "import contextlib, io, dessinry.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert dessinry.cli.main(%r) == 0\n" % (argv,)
        )
    script += "import sys\nprint(' '.join(sorted(sys.modules)))\n"
    loaded = set(run_fresh(script, tmp_path).split())
    assert "dessinry" in loaded
    assert not banned & loaded


def test_table1_imports_modular_before_mpmath(tmp_path):
    # Requested first, dessinry.modular is compiled before mpmath fills the
    # heap, which holds the peak of table1 --check (see _cmd_table1).
    # sys.modules cannot show the order: a module goes to its end when its
    # import completes, so mpmath lands there before modular does.
    script = (
        "import contextlib, io, sys\n"
        "asked = []\n"
        "class Recorder:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        asked.append(name)\n"
        "sys.meta_path.insert(0, Recorder())\n"
        "import dessinry.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert dessinry.cli.main(['table1', '--rows', '1', '--check']) == 0\n"
        "print(' '.join(asked))\n"
    )
    asked = run_fresh(script, tmp_path).split()
    assert asked.index("dessinry.modular") < asked.index("mpmath"), asked


ENUMERATE_44_JSON = ["enumerate", "--n", "4", "--d", "4", "--format", "json"]


@pytest.mark.parametrize(
    "argv",
    [["enumerate", "--n", "3", "--d", "3"], ENUMERATE_44_JSON, ["hurwitz", "--a", "2", "--lift", "L1", "--emit", "dot"]],
    ids=["enumerate", "enumerate-json", "hurwitz"],
)
def test_closed_stdout_gets_a_diagnostic(argv):
    # The reader of the pipe is gone before the command writes anything.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "dessinry.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=fresh_env(),
            text=True,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert re.match(r"^[a-z][a-z-]*: \S", proc.stderr.splitlines()[-1])


def test_stdout_closed_mid_stream_gets_a_diagnostic():
    # The 412 kB of output outgrow the pipe, so writing goes on after the
    # reader has taken one line and gone.
    proc = subprocess.Popen(
        [sys.executable, "-m", "dessinry.cli", *ENUMERATE_44_JSON],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=fresh_env(),
        text=True,
    )
    try:
        assert proc.stdout.readline() == "{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    finally:
        proc.kill()
        proc.stderr.close()
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith("broken-pipe: ")


def test_shear_choices_name_every_shear():
    from dessinry import origami
    from dessinry.cli import build_parser

    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    (op,) = [a for a in sub.choices["origami"]._actions if "--op" in a.option_strings]
    assert op.choices == tuple(sorted(origami._SHEARS))


def test_package_namespace():
    assert dessinry.__all__ == EXPORTS
    for name in EXPORTS:
        assert getattr(dessinry, name) is not None
        assert name in dir(dessinry)
    star = {}
    exec("from dessinry import *", star)
    assert set(EXPORTS) <= set(star)
    with pytest.raises(AttributeError):
        dessinry.no_such_name


def test_submodules_resolve_as_package_attributes(tmp_path):
    script = "import dessinry.cli\nprint(dessinry.covers.__name__, dessinry.modular.__name__)\n"
    assert run_fresh(script, tmp_path).split() == ["dessinry.covers", "dessinry.modular"]


# --- the CLI contract on hostile input ---------------------------------------------

NUMBERS = ("nan", "inf", "-1", "0", "1", "2", "3", "1e-300", "1e300", "")
JSON_LISTS = ("[]", "[1]", "[[1]]", "[1, NaN]", "[0, 1]", "[-2, 2]", "[1, 0, -3, 0]", "[[1, 0], [0]]", "{", "")
PAIRS = ("0,1", "0.3,1.5", "nan,1", "0,inf", "0,1e-300", "1e300,1", "1", "")
PATHS = ("missing.json", "-", "", "missing-dir/out.dot", "out.dot")
# Every flag of every subcommand, with hostile values for it: out of range,
# non-finite, empty, malformed, missing; plus a few valid ones, so that
# parsing succeeds and the deeper code runs too.
FLAGS = {
    "enumerate": {"--n": NUMBERS, "--d": NUMBERS, "--format": ("table", "json", "dot")},
    "orbit": {
        "--n": NUMBERS,
        "--d": NUMBERS,
        "--seed": PATHS,
        "--gens": ("preset:pure", "preset:gamma2", ""),
        "--format": ("table", "json", "dot"),
    },
    "origami": {"--op": ("hor", "ver-inv", ""), "--in": PATHS, "--format": ("table", "json", "dot")},
    "hurwitz": {
        "--a": NUMBERS,
        "--lift": ("L1", "L3", "L5"),
        "--emit": ("dessin", "origami", "dot"),
        "--format": ("table", "json"),
    },
    "monodromy": {
        "--poly": JSON_LISTS,
        "--branch-points": JSON_LISTS,
        "--base": PAIRS,
        "--format": ("table", "json"),
    },
    "lambda-star": {"--tau": PAIRS, "--tol": NUMBERS, "--json": None},
    "ap": {"--t": NUMBERS, "--tol": NUMBERS, "--json": None},
    "table1": {"--rows": ("1", "1,2", "11", "x", "", "-1"), "--check": None, "--tol": NUMBERS, "--json": None},
    "qseries": {"--order": NUMBERS, "--json": None},
}
STDIN = (
    "",
    "{",
    "[]",
    "null",
    '{"m": 1}',
    CHESSBOARD_JSON,
    '{"n": 3, "d": 1, "perms": [[0], [0], [0]]}',
    '{"n": 3, "d": 1, "perms": [[0], [0], null]}',
    '{"m": 1, "R": 5, "L": [0], "U": [0], "D": [0]}',
)


@st.composite
def hostile_argv(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    argv = [command]
    if command == "origami":
        argv.append(draw(st.sampled_from(("to-dessin", "from-dessin", "delta", "orbit", "nan"))))
    flags = FLAGS[command]
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), unique=True)):
        argv.append(flag)
        if flags[flag] is not None:
            argv.append(draw(st.sampled_from(flags[flag])))
    return argv


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=hostile_argv(), stdin=st.sampled_from(STDIN), env_tol=st.sampled_from((None, "abc", "0", "1e-6")))
def test_contract_holds_on_hostile_input(monkeypatch, tmp_path, argv, stdin, env_tol):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    if env_tol is None:
        monkeypatch.delenv("DESSINRY_TOL", raising=False)
    else:
        monkeypatch.setenv("DESSINRY_TOL", env_tol)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 1:
        assert err.getvalue(), "exit 1 without a diagnostic"
        assert re.match(r"^[a-z][a-z-]*: \S", err.getvalue().splitlines()[-1])


# --- one subparser per start: the same output as the full parser ----------------------

# Per subcommand, argv that parses, then argv that argparse refuses: a
# required option or an option's value missing, a bad choice and a bad type
# (where the subcommand has a choice or a typed option).  The parsing argv
# plus an unknown option is refused by the top-level parser.
PARSER_FAILURES = {
    "enumerate": (["--n", "3", "--d", "3"], ["--n", "3"], ["--n", "3", "--d", "3", "--format", "dot"], ["--n", "x"]),
    "orbit": ([], ["--seed"], ["--gens", "preset:none"], ["--n", "3.5"]),
    "origami": (["orbit"], [], ["spin"], None),
    "hurwitz": (["--a", "2", "--lift", "L1"], ["--a", "2"], ["--a", "2", "--lift", "L5"], ["--a", "two"]),
    "monodromy": (["--poly", "[1]", "--branch-points", "[]"], ["--poly", "[1]"], ["--format", "dot"], None),
    "lambda-star": (["--tau", "0,1"], [], None, ["--tau", "0,1", "--tol", "small"]),
    "ap": (["--t", "1"], [], None, ["--t", "x"]),
    "table1": ([], ["--tol"], None, ["--tol", "x"]),
    "qseries": (["--order", "4"], [], None, ["--order", "4.5"]),
}
PARSER_CASES = [[], ["--help"], ["-h"], ["census"], ["enumerate-classes", "--n", "3"], ["--n", "3", "enumerate"]]
for _name, (_valid, *_refused) in PARSER_FAILURES.items():
    PARSER_CASES += [[_name, "--help"], [_name, *_valid, "--bogus"]]
    PARSER_CASES += [[_name, *argv] for argv in _refused if argv is not None]


@pytest.mark.parametrize("argv", PARSER_CASES, ids=[" ".join(a) or "(none)" for a in PARSER_CASES])
def test_one_subparser_prints_and_fails_as_the_full_parser(capsys, argv):
    try:
        cli.build_parser().parse_args(argv)
        full = None
    except SystemExit as exc:
        full = exc.code
    want = (full, *capsys.readouterr())
    assert want[0] in (0, 2) and (want[1] or want[2])
    assert run_cli(capsys, argv) == want
    (sub,) = [a for a in cli.build_parser(argv[0] if argv else None)._actions if a.dest == "command"]
    assert len(sub.choices) == (1 if argv and argv[0] in PARSER_FAILURES else len(PARSER_FAILURES))


MONODROMY_X3 = ["monodromy", "--poly", "[1, 0, -3, 0]", "--branch-points", "[-2, 2]"]


@pytest.mark.parametrize(
    "spaced,joined",
    [
        (["lambda-star", "--tau", "-0.45,0.5", "--tol", "1e-20"], ["lambda-star", "--tau=-0.45,0.5", "--tol", "1e-20"]),
        (["lambda-star", "--tau", "-.5,1", "--json"], ["lambda-star", "--tau=-.5,1", "--json"]),
        (MONODROMY_X3 + ["--base", "-1,1"], MONODROMY_X3 + ["--base=-1,1"]),
        (MONODROMY_X3 + ["--base", "-.5,1.5"], MONODROMY_X3 + ["--base=-.5,1.5"]),
    ],
    ids=["tau", "tau-point", "base", "base-point"],
)
def test_negative_values_in_both_spellings(capsys, spaced, joined):
    code, out, err = run_cli(capsys, spaced)
    assert (code, err) == (0, "")
    assert run_cli(capsys, joined) == (0, out, "")


@pytest.mark.parametrize(
    "argv",
    [
        ["ap", "--t", "3e-4"],
        ["ap", "--t", "3e-4", "--json"],
        ["lambda-star", "--tau=0,3e-4"],
        ["lambda-star", "--tau=0,3e-4", "--json"],
    ],
    ids=["ap", "ap-json", "lambda-star", "lambda-star-json"],
)
def test_large_ap_prints_without_traceback(capsys, argv):
    # ap(3e-4) is about e^{pi/t} / 16, near 5e4546: more digits than Python
    # turns an integer into text by default.  The oracle shares no code with
    # eta: ap(t) = 1/lambda(i/t) = e^{pi/t}/16 + 1/2 + O(e^{-pi/t}), which is
    # e^{pi/t}/16 + 1/2 to far below one unit in the 17th printed digit.
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    if "--json" in argv:
        printed = json.loads(out)["value"]["re"]
    else:
        printed = re.fullmatch(r"\S+ = \(?(\S+).*  \(error <= \S+\)\n", out).group(1)
    with mpmath.workdps(30):
        value = mpmath.mpf(printed)
        want = mpmath.exp(mpmath.pi / mpmath.mpf(3e-4)) / 16 + 0.5  # t is the float 3e-4
        unit = mpmath.mpf(10) ** (mpmath.floor(mpmath.log10(value)) - 16)
        assert abs(value - want) <= 1e-12 + unit


@seed(34)
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    command=st.sampled_from(["ap", "lambda-star"]),
    t=st.floats(-6, math.log10(2)).map(lambda e: 10 ** e),
    tol=st.floats(-30, -8).map(lambda e: 10 ** e),
)
def test_ap_and_lambda_star_print_or_refuse(capsys, command, t, tol):
    # Every t from deep in the refused range to past the reduction's edge
    # either prints one value line or is refused, at once, in one diagnostic
    # that names the caller's argument; the cost rule keeps each case short.
    if command == "ap":
        argv, named = ["ap", "--t", repr(t)], "t=%s" % t
    else:
        argv, named = ["lambda-star", "--tau=0,%r" % t], "tau=%s" % mpmath.mpc(0, t)
    code, out, err = run_cli(capsys, argv + ["--tol", repr(tol)])
    if code == 0:
        assert err == "" and re.fullmatch(r"\S+ = .*  \(error <= \S+\)\n", out)
    else:
        assert (code, out) == (1, "")
        assert re.fullmatch(r"tolerance-unreachable: .* at %s\n" % re.escape(named), err)
