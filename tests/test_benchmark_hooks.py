"""The benchmark traces psslab functions by module and name; a function it
names must not disappear, or its per-layer figures read as missing."""

import importlib
import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_function_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    assert layers.HOOKS
    for hook in layers.HOOKS:
        module = importlib.import_module(hook.module)
        assert callable(getattr(module, hook.name, None)), f"{hook.module}.{hook.name}"
