"""The error codes that errors.py documents are the ones the package raises."""

import ast
import os
import re

import dessinry
from dessinry import errors

SRC_DIR = os.path.dirname(os.path.abspath(dessinry.__file__))


def raised_codes():
    """Every string literal given as the code of a DessinryError(...) call in
    the package, however the call is laid out over lines."""
    codes = set()
    for name in sorted(os.listdir(SRC_DIR)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SRC_DIR, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "DessinryError"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                codes.add(node.args[0].value)
    return codes


def documented_codes():
    """The codes listed after 'Codes in use include' in errors.py's
    docstring, without their parenthesised remarks."""
    listed = errors.__doc__.split("Codes in use include", 1)[1]
    listed = re.sub(r"\([^)]*\)", "", listed).replace(" and ", ",").rstrip(". \n")
    return {code.strip() for code in listed.split(",")}


def test_raised_codes_are_the_documented_ones():
    # broken-pipe is the CLI's own: it is printed when stdout closes, not raised.
    assert raised_codes() | {"broken-pipe"} == documented_codes()
