"""The benchmark's tracer against the package: every name it covers must
resolve, and uninstalling it must restore every binding it replaced.  A
refactor that renames or drops a traced function fails here, not only in
a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(tracing, target):
    """The object a covered ``module.qualname`` names, looked up as the
    tracer looks it up."""
    mod, *path = target.split(".")
    owner = importlib.import_module(f"{tracing.PACKAGE}.{mod}")
    for part in path[:-1]:
        owner = getattr(owner, part)
    return owner.__dict__[path[-1]] if isinstance(owner, type) else getattr(owner, path[-1])


def _bindings(tracer):
    """Every module-level binding the tracer may patch, by identity."""
    return {(m.__name__, k): id(v) for m in tracer.modules for k, v in vars(m).items()}


def test_install_resolves_every_covered_name_and_uninstall_restores_it(tracing):
    targets = [t for targets in tracing.LAYERS.values() for t in targets]
    originals = {t: _resolve(tracing, t) for t in targets}  # a dropped name raises here
    tracer = tracing.Tracer()
    before = _bindings(tracer)
    tracer.install()
    try:
        for target, original in originals.items():
            wrapped = _resolve(tracing, target)
            assert wrapped is not original, target
            assert wrapped.__wrapped__ is original, target
    finally:
        tracer.uninstall()
    for target, original in originals.items():
        assert _resolve(tracing, target) is original, target
    assert _bindings(tracer) == before
