"""The benchmark's tracer wraps functions by name; each must exist.

perfbench/tracer.py is loaded read-only from its file, so a function it names
that the package no longer has fails here rather than in a benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    targets = load_tracer().TARGETS
    assert targets
    for module_name, attr, _ in targets:
        owner = importlib.import_module("qforecast." + module_name)
        for part in attr.split("."):
            assert hasattr(owner, part), "qforecast.%s has no %s" % (module_name, attr)
            owner = getattr(owner, part)
        assert callable(owner)
