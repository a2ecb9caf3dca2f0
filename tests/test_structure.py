"""The package runs every circuit as a plan, through one gate loop. The
Circuit, Statevector and whole-register runners in qsim serve only the
tests and the benchmark."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "qforecast"
MODULES = sorted(p.name for p in SRC.glob("*.py"))
ORACLE = {"Circuit", "Statevector", "run_circuit", "circuit_unitary", "expectation"}
# the second circuit form and its gate loop, deleted from every module
GONE = {"Gate", "run_batch", "_run", "plan_of"}
KERNELS = {"apply_single_qubit", "apply_cnot"}
GATE_LOOPS = {("qsim.py", "run_plan"), ("qsim.py", "apply_pauli")}


def parse(path):
    return ast.parse((SRC / path).read_text(), filename=path)


def names(tree):
    """Every identifier a module names: variables, attributes and imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]


@pytest.mark.parametrize("path", [p for p in MODULES if p != "qsim.py"])
def test_only_qsim_names_the_oracle(path):
    assert sorted(ORACLE.intersection(names(parse(path)))) == []


def test_no_module_defines_or_names_the_second_circuit_form():
    found = set()
    for path in MODULES:
        tree = parse(path)
        defined = {node.name for node in ast.walk(tree)
                   if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
        found.update((path, name) for name in GONE & (defined | set(names(tree))))
    assert sorted(found) == []


def test_only_run_plan_and_apply_pauli_call_the_kernels():
    # each kernel call is traced to the top-level function or class that
    # holds it; a call at module level is traced to None
    callers = set()
    for path in MODULES:
        for top in parse(path).body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in KERNELS:
                    callers.add((path, getattr(top, "name", None)))
    assert callers == GATE_LOOPS
