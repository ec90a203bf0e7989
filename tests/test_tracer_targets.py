"""The traced benchmark (bench/tracing.py) wraps package methods by class
and name and hooks three package functions; a rename in the package alone
would break every traced run, and a runner that bypassed a wrapped method
would leave its layer reading 0, as would a deleted or renamed function that
a `sweep` layer names.  The tracer's source is read and executed
here without importing the bench package or writing bytecode."""

import importlib
import inspect
import types
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
HOOKED = ("pauli.pauli_expand", "protocols.run_protocol", "protocols.transcript_rounds_csv")
# the layers of the sweep workload: a name in these groups that the package
# no longer defines would leave its layer reading 0 without an error
SWEEP_GROUPS = ("games.value", "games.trace_error", "certificates.sos", "pauli.expand")


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


def test_every_sweep_layer_name_is_a_module_level_function(tracing):
    names = [name for name, group in tracing._GROUP_OF.items() if group in SWEEP_GROUPS]
    assert {tracing._GROUP_OF[name] for name in names} == set(SWEEP_GROUPS)
    for name in names:
        modname, attr = name.split(".")
        module = importlib.import_module(f"noisygames.{modname}")
        # what Tracer.install wraps: public functions defined in a module it imports
        assert modname in tracing.MODULES and not attr.startswith("_"), name
        fn = getattr(module, attr, None)
        assert inspect.isfunction(fn) and fn.__module__ == module.__name__, name


@pytest.mark.parametrize("game, n, t", [
    ("chsh", 1, 20_000), ("magic_square", 1, 4000), ("two_out_of_n", 3, 1500)])
def test_traced_sampler_draws_see_every_drawn_round(tracing, game, n, t):
    # the tracer counts rounds drawn at each sampler's draw: a run draws
    # whole blocks up to the one that holds its stopping round, every one of
    # them through game.sampler.draw, so a runner that bypassed it would
    # read 0 rounds drawn here and in every traced benchmark run
    from noisygames import games, protocols

    strategy = getattr(games, f"canonical_{game}_strategy")(n)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.active = True
        tr = protocols.run_protocol(protocols.ProtocolParams(game, t, 0.05, seed=1, rho=0.8),
                                    strategy)
    finally:
        tracer.active = False
        tracer.uninstall()
    assert tr.t_prime > protocols._BLOCK
    blocks = (tr.t_prime - 1) // protocols._BLOCK + 1
    assert tracer.counters["rounds_drawn"] == blocks * protocols._BLOCK
    assert tracer.counters["rounds_kept"] == tr.t_prime


@pytest.mark.parametrize("module, entry, span", [
    ("games", "game_value", "games.chsh_violation"),
    ("extraction", "selftest", "extraction.chsh_selftest"),
    ("certificates", "certify", "certificates.chsh_sos_certificate")])
def test_traced_dispatch_reaches_the_wrapped_game_function(tracing, module, entry, span):
    # the tracer rebinds module attributes: a dispatcher that held its
    # per-game functions in a table built at import would call the unwrapped
    # originals, and the games.value, extraction.selftest or certificates.sos
    # layer would read 0
    from noisygames import games

    strategy = games.canonical_chsh_strategy(1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.active = True
        getattr(importlib.import_module(f"noisygames.{module}"), entry)(strategy, 0.8)
    finally:
        tracer.active = False
        tracer.uninstall()
    assert span in {s[1] for s in tracer.spans}
