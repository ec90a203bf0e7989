"""The package's surface, read from its source with `ast` alone.

Every public module-level function and class and every private module-level
function in src/noisygames has a caller elsewhere in the package (the root
`__init__.py` does not count), or an entry in KEPT that says why it stays;
an entry whose name is gone, or has since gained a caller, fails too, so the
list only ever names what it must.  So does every public method (or
property) of a public class, named module.Class.method: as the class behind
an attribute read is not known from the source, any package read of an
attribute of the method's name, outside the method itself, counts as a call.
No module imports a name it never uses; an `__all__` entry counts as a use.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "noisygames"

# module.name -> why it stays without a caller in the package
KEPT = {
    # oracles of the acceptance suite
    "certificates.classical_chsh_max_enumerated": "acceptance criterion 9",
    "certificates.classical_ms_max_enumerated": "acceptance criterion 9",
    "certificates.SoSCertificate.square_terms": "acceptance criterion 9's nonnegative squares",
    "extraction.loglog_slope": "acceptance criterion 5's distance slopes",
    "states.maximal_correlation": "acceptance criterion 8",
    # references that tests compare the package's fast paths against
    "games.derived_observable": "dense derived observables behind the row diagnostics",
    "games.require_observable": "the one-operator form of the strategies' stack checks",
    "games.require_povm": "the one-POVM form of the strategies' stack checks",
    "protocols.sample_round": "one round at a time, against the runner's column tables",
    "protocols.ChshSampler.exact_table": "the sampler's table, against dense POVM traces",
    "games.TwoOutOfNStrategy.pair_marginal": "dense pair marginals behind the relation distances",
    "pauli.normalized_trace": "dense traces behind the coefficient-row masses",
    "pauli.degree_vector": "the Pauli degree the gap-resolution oracle and degree tests read",
    "extraction.register_concentration": "operator entry to the self-tests' concentration",
    # helpers that tests build operators with
    "games.haar_unitary": "random local unitaries",
    "pauli.pauli_basis": "the qubit Pauli basis by name",
    "pauli.two_qubit_pauli_basis": "the 4-dimensional product basis by name",
    # read by the benchmark
    "serialize.strategy_to_json": "the cli workload writes its strategy files with it",
    "protocols.transcript_rounds_csv": "the benchmark tracer hooks it",
    # callers planned in ROADMAP.md
    "protocols.trace_soundness_bound": "the device-independent noise bound (item 9)",
    "serialize.state_to_json": "general noise for all three games (item 4)",
    "serialize.state_from_json": "general noise for all three games (item 4)",
    "optimizer.grid_bruteforce_chsh_qubit": "an adversarial-search CLI command (item 12)",
    "optimizer.random_search_ms": "an adversarial-search CLI command (item 12)",
    "optimizer.seesaw_sweep_csv": "an adversarial-search CLI command (item 12)",
}


def _trees() -> dict:
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _guarded_defs(tree) -> dict:
    """Public module-level functions and classes, and private module-level
    functions: a private function only a test calls is as dead as a public one."""
    return {node.name: node for node in tree.body
            if isinstance(node, ast.FunctionDef)
            or (isinstance(node, ast.ClassDef) and not node.name.startswith("_"))}


def _methods(tree) -> dict:
    """Public methods and properties of public classes, by Class.method."""
    return {f"{cls.name}.{node.name}": node for cls in tree.body
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
            for node in cls.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}


def _attribute_reads(node) -> list:
    return [n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)]


def _names_in(node) -> set:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _references(trees: dict) -> set:
    """(module, name) pairs that some package module other than the root
    refers to: imported from the defining module by another module, read
    through `module.name` after `from . import module`, or used in its own
    module outside its definition."""
    refs = set()
    for modname, tree in trees.items():
        if modname == "__init__":
            continue
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        aliases[alias.asname or alias.name] = alias.name
                    else:
                        refs.add((node.module, alias.name))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                refs.add((aliases[node.value.id], node.attr))
        defs = _guarded_defs(tree)
        for stmt in tree.body:
            own = getattr(stmt, "name", None)
            refs.update((modname, name) for name in _names_in(stmt) & defs.keys() if name != own)
    return refs


def _uncalled_methods(trees: dict) -> set:
    reads = [attr for modname, tree in trees.items() if modname != "__init__"
             for attr in _attribute_reads(tree)]
    return {f"{modname}.{name}" for modname, tree in trees.items() if modname != "__init__"
            for name, node in _methods(tree).items()
            if reads.count(node.name) == _attribute_reads(node).count(node.name)}


def _uncalled(trees: dict) -> set:
    refs = _references(trees)
    functions = {f"{modname}.{name}" for modname, tree in trees.items() if modname != "__init__"
                 for name in _guarded_defs(tree) if (modname, name) not in refs}
    return functions | _uncalled_methods(trees)


def test_every_public_name_has_a_caller_or_a_reason():
    uncalled = _uncalled(_trees())
    assert uncalled - KEPT.keys() == set(), "no caller in the package and not in KEPT"


def test_every_kept_name_exists_and_still_lacks_a_caller():
    trees = _trees()
    defined = {f"{modname}.{name}" for modname, tree in trees.items()
               for name in [*_guarded_defs(tree), *_methods(tree)]}
    assert KEPT.keys() - defined == set(), "KEPT names what the package no longer defines"
    assert KEPT.keys() - _uncalled(trees) == set(), "KEPT names what now has a caller"


def _unused_imports(tree) -> list:
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    used = _names_in(tree)
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {elt.value for elt in node.value.elts}
    return sorted(set(bound) - used)


@pytest.mark.parametrize("module", sorted(path.stem for path in SRC.glob("*.py")))
def test_no_unused_import(module):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    assert _unused_imports(tree) == []
