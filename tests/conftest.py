import json
import os
import sys

import pytest

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


@pytest.fixture
def gate_pair():
    """The checked-in three-square pair related by the horizontal shear."""
    with open(os.path.join(DATA_DIR, "shear_gate_pair.json"), "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    return raw["first"], raw["second"]


@pytest.fixture
def inverse_calls(monkeypatch):
    """The arguments of every perms.inverse call from here on, counted by
    wrapping it in each loaded dessinry module that imports it."""
    from dessinry import perms

    calls = []
    original = perms.inverse

    def counting(p):
        calls.append(p)
        return original(p)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "dessinry" and getattr(module, "inverse", None) is original:
            monkeypatch.setattr(module, "inverse", counting)
    return calls
