"""In-memory span recorder for the traced benchmark runs.

`Tracer.install` wraps every public function of the package modules listed
in MODULES (plus the sampler and strategy-validation methods in METHODS) and
rebinds each wrapper in every loaded `noisygames.*` namespace that holds the
original, so calls made inside the package are recorded too.  A span is
`[id, name, start, end, parent, item]`; times come from `time.perf_counter`,
which is system-wide monotonic on Linux, so spans written by child processes
nest inside the parent's item spans.

`layer_metrics` turns spans and counters into the per-layer metrics named in
BENCHMARK.json.  `*_s` metrics are self time: a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
import time

MODULES = ("pauli", "games", "certificates", "states", "extraction", "protocols",
           "serialize", "cli")

# (module, class, method) wrapped on the class itself
METHODS = (
    ("games", "ChshStrategy", "__post_init__"),
    ("games", "MagicSquareStrategy", "__post_init__"),
    ("games", "TwoOutOfNStrategy", "__post_init__"),
    ("protocols", "ChshSampler", "__init__"),
    ("protocols", "MagicSquareSampler", "__init__"),
    ("protocols", "TwoOutOfNSampler", "__init__"),
    ("protocols", "ChshSampler", "draw"),
    ("protocols", "MagicSquareSampler", "draw"),
    ("protocols", "TwoOutOfNSampler", "draw"),
)

_SAMPLERS = ("ChshSampler", "MagicSquareSampler", "TwoOutOfNSampler")
_GROUP_OF = {
    "pauli.pauli_expand": "pauli.expand",
    "pauli.noisy_epr_expectation": "pauli.pair",
    "pauli.require_hermitian": "games.validate",
    "games.require_observable": "games.validate",
    "games.require_povm": "games.validate",
    "games.ChshStrategy.__post_init__": "games.build",
    "games.MagicSquareStrategy.__post_init__": "games.build",
    "games.TwoOutOfNStrategy.__post_init__": "games.build",
    "games.chsh_violation": "games.value",
    "games.chsh_violation_dense": "games.value",
    "games.magic_square_value": "games.value",
    "games.two_out_of_n_value": "games.value",
    "games.derived_observable": "games.derived",
    "games.parity_mass_operator": "games.derived",
    "games.parity_restricted_observable": "games.derived",
    "games.marginal_pair_observable": "games.derived",
    "games.trace_error": "games.trace_error",
    "certificates.chsh_sos_certificate": "certificates.sos",
    "certificates.ms_consistency_certificate": "certificates.sos",
    "extraction.chsh_selftest": "extraction.selftest",
    "extraction.ms_selftest": "extraction.selftest",
    "extraction.two_out_of_n_selftest": "extraction.selftest",
    "extraction.general_noise_selftest": "extraction.selftest",
    "extraction.register_concentration": "extraction.concentration",
    "protocols.run_protocol": "protocols.run",
    "protocols.transcript_rounds_csv": "protocols.csv",
    "cli.import": "cli.import",
    **{f"protocols.{c}.__init__": "protocols.sampler_build" for c in _SAMPLERS},
    **{f"protocols.{c}.draw": "protocols.draw" for c in _SAMPLERS},
}


def group_of(name: str) -> str | None:
    """Layer metric group a span name feeds, or None for spans that only
    carve self time out of their parents."""
    if name in _GROUP_OF:
        return _GROUP_OF[name]
    module, _, func = name.partition(".")
    if module == "games" and func.endswith("_strategy") and "." not in func:
        return "games.build"
    if module == "states":
        return "states"
    if module == "cli":
        return "cli.main"
    if func.endswith("_to_json"):
        return "serialize.to_json"
    if func.endswith("_from_json"):
        return "serialize.from_json"
    return None


class Tracer:
    """Records spans and work counters while `active` is true."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters = {"expand_coeffs": 0, "rounds_drawn": 0, "rounds_kept": 0,
                         "csv_bytes": 0}
        self.distinct: set[bytes] = set()
        self.child_distinct = 0
        self.item = None
        self.active = False
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- spans ------------------------------------------------------------

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, name, time.perf_counter(), None, parent, self.item])
        self._stack.append(sid)
        return sid

    def close(self, sid: int):
        self.spans[sid][3] = time.perf_counter()
        self._stack.pop()

    def current(self) -> int | None:
        """Id of the innermost open span."""
        return self._stack[-1] if self._stack else None

    def add(self, name: str, start: float, end: float):
        """Record a finished span under the currently open one."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append([len(self.spans), name, start, end, parent, self.item])

    def merge(self, dump: dict, parent: int):
        """Adopt a child process's spans: their roots hang under `parent`."""
        offset = len(self.spans)
        for sid, name, start, end, par, _ in dump["spans"]:
            self.spans.append([sid + offset, name, start, end,
                               parent if par is None else par + offset, self.item])
        for key, value in dump["counters"].items():
            self.counters[key] += value
        self.child_distinct += dump["distinct"]

    def dump(self) -> dict:
        """Spans and counters; `distinct` counts operators expanded, by
        content, once per process (a per-process cache could reuse no more)."""
        return {"spans": self.spans, "counters": self.counters,
                "distinct": len(self.distinct) + self.child_distinct}

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name: str, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
                if hook is not None:
                    # a child span of its own, so the counting cost lands in
                    # no layer's self time
                    hid = tracer.open("trace.hook")
                    hook(args, kwargs, out)
                    tracer.close(hid)
            finally:
                tracer.close(sid)
            return out

        return wrapper

    def _on_expand(self, args, kwargs, out):
        import numpy as np

        mat = args[0] if args else kwargs["mat"]
        basis = args[1] if len(args) > 1 else kwargs["basis"]
        digest = hashlib.blake2b(digest_size=16)
        arr = np.ascontiguousarray(mat, dtype=complex)
        digest.update(repr(arr.shape).encode())
        digest.update(arr.tobytes())
        digest.update(np.ascontiguousarray(basis.elements).tobytes())
        self.distinct.add(digest.digest())
        self.counters["expand_coeffs"] += int(out.coeffs.size)

    def _on_draw(self, args, kwargs, out):
        self.counters["rounds_drawn"] += int(len(out))

    def _on_run(self, args, kwargs, out):
        self.counters["rounds_kept"] += int(out.t_prime)

    def _on_csv(self, args, kwargs, out):
        self.counters["csv_bytes"] += len(out)

    def install(self):
        """Wrap the package's public functions and rebind them everywhere.

        Imports every module in MODULES first: the CLI imports `serialize`
        lazily, and a module imported later would hold unwrapped names."""
        hooks = {"pauli.pauli_expand": self._on_expand,
                 "protocols.run_protocol": self._on_run,
                 "protocols.transcript_rounds_csv": self._on_csv}
        wrappers = {}
        for modname in MODULES:
            mod = importlib.import_module(f"noisygames.{modname}")
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    name = f"{modname}.{attr}"
                    wrappers[id(obj)] = self._wrap(name, obj, hooks.get(name))
        for key, ns in list(sys.modules.items()):
            if key != "noisygames" and not key.startswith("noisygames."):
                continue
            for attr, value in list(vars(ns).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._undo.append((ns, attr, value))
                    setattr(ns, attr, wrapper)
        for modname, clsname, meth in METHODS:
            cls = getattr(sys.modules[f"noisygames.{modname}"], clsname)
            orig = cls.__dict__[meth]
            hook = self._on_draw if meth == "draw" else None
            self._undo.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(f"{modname}.{clsname}.{meth}", orig, hook))

    def uninstall(self):
        for target, key, orig in reversed(self._undo):
            setattr(target, key, orig)
        self._undo.clear()


def self_times(spans: list) -> tuple[dict, dict]:
    """(self time, duration) per span id."""
    duration = {s[0]: s[3] - s[2] for s in spans}
    child = dict.fromkeys(duration, 0.0)
    for s in spans:
        if s[4] is not None:
            child[s[4]] += duration[s[0]]
    return {sid: duration[sid] - child[sid] for sid in duration}, duration


def layer_metrics(dump: dict, extra: dict) -> dict:
    """Per-layer metrics from one traced run.

    `extra` supplies what spans cannot: `interpreter_s`, `import_modules`
    and `overhead_s`.
    """
    spans, counters = dump["spans"], dump["counters"]
    own, duration = self_times(spans)
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    for s in spans:
        group = group_of(s[1])
        if group is None:
            continue
        calls[group] = calls.get(group, 0) + 1
        busy[group] = busy.get(group, 0.0) + own[s[0]]

    names = {s[0]: s[1] for s in spans}
    run_total = sum(duration[s[0]] for s in spans if s[1] == "protocols.run_protocol")
    build_in_run = sum(duration[s[0]] for s in spans
                       if group_of(s[1]) == "protocols.sampler_build"
                       and s[4] is not None and names[s[4]] == "protocols.run_protocol")
    csv_total = sum(duration[s[0]] for s in spans if s[1] == "protocols.transcript_rounds_csv")
    expand_calls = calls.get("pauli.expand", 0)
    drawn, kept = counters["rounds_drawn"], counters["rounds_kept"]

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "pauli.expand_calls": expand_calls,
        "pauli.expand_coeffs": counters["expand_coeffs"],
        "pauli.expand_unique_frac": ratio(dump["distinct"], expand_calls),
        "pauli.expand_s": busy.get("pauli.expand", 0.0),
        "pauli.pair_calls": calls.get("pauli.pair", 0),
        "pauli.pair_s": busy.get("pauli.pair", 0.0),
        "games.validate_calls": calls.get("games.validate", 0),
        "games.validate_s": busy.get("games.validate", 0.0),
        "games.build_s": busy.get("games.build", 0.0),
        "games.value_calls": calls.get("games.value", 0),
        "games.value_s": busy.get("games.value", 0.0),
        "games.derived_s": busy.get("games.derived", 0.0),
        "games.trace_error_s": busy.get("games.trace_error", 0.0),
        "certificates.sos_calls": calls.get("certificates.sos", 0),
        "certificates.sos_s": busy.get("certificates.sos", 0.0),
        "states.calls": calls.get("states", 0),
        "states.s": busy.get("states", 0.0),
        "extraction.selftest_calls": calls.get("extraction.selftest", 0),
        "extraction.selftest_s": busy.get("extraction.selftest", 0.0),
        "extraction.concentration_calls": calls.get("extraction.concentration", 0),
        "protocols.sampler_build_s": busy.get("protocols.sampler_build", 0.0),
        "protocols.run_s": busy.get("protocols.run", 0.0),
        "protocols.draw_s": busy.get("protocols.draw", 0.0),
        "protocols.rounds_drawn": drawn,
        "protocols.rounds_kept": kept,
        "protocols.kept_frac": ratio(kept, drawn),
        "protocols.rounds_per_s": ratio(kept, run_total - build_in_run),
        "protocols.csv_s": busy.get("protocols.csv", 0.0),
        "protocols.csv_mb_per_s": ratio(counters["csv_bytes"] / 1e6, csv_total),
        "serialize.to_json_s": busy.get("serialize.to_json", 0.0),
        "serialize.from_json_s": busy.get("serialize.from_json", 0.0),
        "cli.interpreter_s": extra["interpreter_s"],
        "cli.import_s": busy.get("cli.import", 0.0),
        "cli.import_modules": extra["import_modules"],
        "cli.main_s": busy.get("cli.main", 0.0),
        "trace.overhead_s": extra["overhead_s"],
    }
