"""The public names and the attributes the benchmark's tracer patches by name."""

import importlib
from pathlib import Path

import fastpolar

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_public_name_resolves_once():
    assert len(fastpolar.__all__) == len(set(fastpolar.__all__))
    for name in fastpolar.__all__:
        assert getattr(fastpolar, name) is not None, name


def test_every_traced_attribute_exists(monkeypatch):
    # bench/tracing.py skips a missing attribute and reports it "not traced";
    # renaming or removing one of these silently drops its metrics.
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    for module_name, attr, _, _ in tracing.PATCHES:
        module = importlib.import_module(f"fastpolar.{module_name}")
        assert callable(getattr(module, attr, None)), f"fastpolar.{module_name}.{attr}"
