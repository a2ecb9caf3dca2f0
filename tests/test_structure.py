"""The package runs every circuit as a plan; the gate-by-gate simulator in
qsim is kept only as the oracle that tests and the benchmark compare with."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "qforecast"
ORACLE = {"Gate", "Circuit", "Statevector", "run_circuit", "run_batch",
          "circuit_unitary", "plan_of"}


def names(tree):
    """Every identifier a module names: variables, attributes and imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")
                                         if p.name != "qsim.py"))
def test_only_qsim_names_the_oracle(path):
    tree = ast.parse((SRC / path).read_text(), filename=path)
    assert sorted(ORACLE.intersection(names(tree))) == []
