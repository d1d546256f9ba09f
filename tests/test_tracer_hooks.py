"""The benchmark's tracer patches the package by name; a renamed function
or method must fail here, in the fast suite, and not only in a traced
benchmark run."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hooked_name_resolves(tracer):
    for layer, attr, _ in tracer.PRIVATE:
        fn = getattr(importlib.import_module(f"bosonlr.{layer}"), attr, None)
        assert inspect.isfunction(fn), f"bosonlr.{layer}.{attr}"
    for layer, cls_name, attr, _ in tracer.METHODS:
        cls = getattr(importlib.import_module(f"bosonlr.{layer}"), cls_name, None)
        assert cls is not None and attr in vars(cls), f"bosonlr.{layer}.{cls_name}.{attr}"
    for key in tracer.SPAN_NAMES:
        layer, attr = key.split(".")
        fn = getattr(importlib.import_module(f"bosonlr.{layer}"), attr, None)
        assert inspect.isfunction(fn), f"bosonlr.{key}"


def test_tracer_installs_and_restores(tracer):
    from bosonlr import dynamics, thermal

    kernel, call = dynamics._krylov_evolve, thermal.GreenFunction.__call__
    t = tracer.Tracer()
    t.install()
    try:
        assert dynamics._krylov_evolve is not kernel
    finally:
        t.uninstall()
    assert dynamics._krylov_evolve is kernel
    assert thermal.GreenFunction.__call__ is call
