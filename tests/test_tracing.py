"""The benchmark's tracer against the package: every name it covers must
resolve, uninstalling it must restore every binding it replaced, and its
hooks must count what the package does.  A refactor that renames or drops
a traced function, or changes the arguments or return values a hook reads,
fails here, not only in a traced benchmark run."""

import importlib
import importlib.util
import warnings
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


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


def test_hooks_count_a_simulate_run_and_a_search(tracing, tmp_path):
    """A small exact-enumeration ``simulate`` through the command line, then
    one ``embed_in_bin`` call that finds a stegotext word: ``decode`` runs
    once a trial, ``embed_encode`` once a state and once a trial, and the
    search scans the bin's M_2 rows, then the found row's M_3 stegotext
    words."""
    from secembed import cli, sim
    from secembed.config import load_aux, load_system, load_yaml_file

    n, trials = 6, 5
    argv = [
        "simulate", "--spec", str(ROOT / "configs" / "demo_system.yaml"),
        "--aux", str(ROOT / "configs" / "demo_aux.yaml"), "--n", str(n), "--trials", str(trials),
        "--delta", "0.6", "--dprime", "0.0", "--m2-bits", "2", "--m3-bits", "1", "--j-bits", "1",
        "--seed", "3", "--exact-equivocation", "--out", str(tmp_path / "run"),
    ]
    system = load_system(load_yaml_file(ROOT / "configs" / "demo_system.yaml"))
    aux, _ = load_aux(load_yaml_file(ROOT / "configs" / "demo_aux.yaml"), system.spec)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        books = sim.build_codebooks(sim.CodeDesign(system.spec, aux, n, 0.6, 0.0, m2_bits=2, m3_bits=1, j_bits=1), 3)
    # every (u, x, k) state of the demo system has positive probability
    states = 2 ** books.n_message * (books.x_size * books.k_size) ** n
    k = books.key_types[0].representative
    x = np.zeros(n, dtype=np.int64)
    search = sim.WordSearch(books, x, k)
    m = next(m for m in range(1, books.sizes.bins + 1) if search.entry(m)[0] is not None)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert cli.main(argv) == cli.EXIT_OK
        run = tracer.job_metrics()
        _, event, _ = sim.embed_in_bin(books, m, x, k)
        searched = tracer.job_metrics()
    finally:
        tracer.uninstall()
    assert run["sim.build.calls"] == 1 and run["sim.trials.count"] == trials
    assert run["sim.decode.calls"] == trials
    assert run["sim.encode.calls"] == states + trials
    assert event is None  # the search found a row and its stegotext word
    assert searched["sim.search.calls"] == run["sim.search.calls"] + 1
    assert searched["sim.search.rows_scanned"] == run["sim.search.rows_scanned"] + books.sizes.m2 + books.sizes.m3
