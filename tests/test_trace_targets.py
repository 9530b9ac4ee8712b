"""The benchmark tracer's targets: every function that perfbench/tracer.py
wraps for a traced run still exists in the package, so a change to `src`
that renames or removes one fails here rather than in a `--trace 1` run."""

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load_tracer().TARGETS


@pytest.mark.parametrize(
    "module_name, path", [t[:2] for t in TARGETS], ids=[t[2] for t in TARGETS]
)
def test_target_resolves_as_the_tracer_installs_it(module_name, path):
    module = importlib.import_module(f"thompsonf.{module_name}")
    owner_name, _, attr = path.rpartition(".")
    if owner_name:  # Class.attr: the tracer patches the class's own attribute
        assert callable(vars(getattr(module, owner_name))[attr])
    else:
        assert callable(getattr(module, attr))
