"""The traced benchmark (bench/tracing.py) wraps package methods by class
and name and hooks three package functions; a rename in the package alone
would break every traced run.  The tracer's source is read and executed
here without importing the bench package or writing bytecode."""

import importlib
import inspect
import types
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
HOOKED = ("pauli.pauli_expand", "protocols.run_protocol", "protocols.transcript_rounds_csv")


@pytest.fixture(scope="module")
def tracing():
    module = types.ModuleType("tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_wrapped_method_is_defined_on_its_class(tracing):
    assert tracing.METHODS
    for modname, clsname, meth in tracing.METHODS:
        cls = getattr(importlib.import_module(f"noisygames.{modname}"), clsname)
        assert meth in cls.__dict__, f"{modname}.{clsname}.{meth}"


def test_every_hooked_function_exists(tracing):
    assert set(HOOKED) <= {name for name in tracing._GROUP_OF}
    for name in HOOKED:
        modname, attr = name.split(".")
        assert modname in tracing.MODULES
        assert inspect.isfunction(getattr(importlib.import_module(f"noisygames.{modname}"), attr))
