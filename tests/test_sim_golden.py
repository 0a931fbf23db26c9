"""Byte-level regression of `simulate` and `audit` artifacts.

The files under ``tests/data/`` were last written when the codebooks moved
to random stream 3, which draws each word of a tabulated letter set as one
uniform rank into its table, each stegotext book as one
``ConditionalTypicalSampler.sample_rows`` batch, and a run's trials from one
generator.  Rewrites for speed keep the random
stream and every decision exactly as they were, so every artifact must stay
identical to the byte.

Regenerate (only after an intended change of results, such as a declared
change of the random stream) with ``PYTHONPATH=src python tests/test_sim_golden.py``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest
import yaml

from secembed import cli, sim

DATA = Path(__file__).parent / "data"
CONFIGS = Path(__file__).parent.parent / "configs"

# the demo system with a shorter message (lambda = 1/5), as the audit workload
# of criteria 08 and 09 uses it
AUDIT_SYSTEM = {**yaml.safe_load((CONFIGS / "demo_system.yaml").read_text()), "lambda": 0.2}

# a binary covertext that equals the key, a two-letter message word at n=8,
# and a Z-channel attack (y0 passes, y1 turns into z0 or z1 with even odds),
# so the exact enumeration sums over many forged words per stegotext word
NOISY_SYSTEM = {
    **yaml.safe_load((CONFIGS / "demo_system.yaml").read_text()),
    "alphabets": {"U": ["u0", "u1"], "X": ["x0", "x1"], "K": ["k0", "k1"],
                  "Y": ["y0", "y1"], "Z": ["z0", "z1"], "Uhat": ["u0", "u1"]},
    "lambda": 0.25,
    "covertext_key": [[0.5, 0.0], [0.0, 0.5]],
    "attack": [[1.0, 0.0], [0.5, 0.5]],
    "embedding_distortion": [[0.0, 1.0], [1.0, 0.0]],
}
# V uniform and independent of (K, X), and Y a copy of V; indexed [k][x][v][y]
NOISY_AUX = {"v": ["v0", "v1"], "table": [[[[0.5, 0.0], [0.0, 0.5]]] * 2] * 2}
# V uniform and independent of (K, X), and Y equal to V with probability
# 3/5: no stegotext letter is fixed, so every stegotext book is drawn
DRAWN_AUX = {"v": ["v0", "v1"], "table": [[[[0.3, 0.2], [0.2, 0.3]]]] * 2}

_DEMO = ["--spec", "{demo}", "--aux", "{aux}", "--delta", "0.6", "--m3-bits", "0"]

CASES = {
    # n=16 Monte-Carlo run; its 60 trials include atypical inputs (e1),
    # failed bin searches (e2) and ambiguous decodes (e5)
    "sim_n16": (
        "simulate",
        [*_DEMO, "--n", "16", "--trials", "60", "--dprime", "0.0",
         "--m2-bits", "3", "--j-bits", "4", "--seed", "3"],
        ("_trials.csv", "_summary.csv"),
    ),
    # n=8 exact equivocation with a radius-1 RD cover of the 4-symbol message
    "exact_n8": (
        "simulate",
        [*_DEMO, "--n", "8", "--trials", "10", "--dprime", "0.25",
         "--m2-bits", "3", "--j-bits", "2", "--seed", "4", "--exact-equivocation"],
        ("_summary.csv",),
    ),
    # n=10 exact equivocation of the demo code the benchmark enumerates at
    # n=8: its 912 typical keys fall into 5 type classes, so most keys'
    # searches and decodes are permutations of another key's
    "exact_n10": (
        "simulate",
        [*_DEMO, "--n", "10", "--trials", "10", "--dprime", "0.0",
         "--m2-bits", "5", "--j-bits", "4", "--seed", "10000", "--exact-equivocation"],
        ("_summary.csv",),
    ),
    # the same run averaged over a two-build codebook ensemble
    "ensemble_n8": (
        "simulate",
        [*_DEMO, "--n", "8", "--trials", "10", "--dprime", "0.25",
         "--m2-bits", "3", "--j-bits", "2", "--seed", "4", "--exact-equivocation",
         "--ensemble-average", "--rebuilds", "2"],
        ("_summary.csv",),
    ),
    # n=8 exact equivocation under the noisy attack, with a binary covertext
    # and two stegotext words per auxiliary word; its trials include e1, e4,
    # e5 and encode_fallback
    "exact_noisy_n8": (
        "simulate",
        ["--spec", "{noisy}", "--aux", "{noisy_aux}", "--n", "8", "--trials", "40",
         "--delta", "0.6", "--dprime", "0.0", "--m2-bits", "3", "--m3-bits", "1",
         "--j-bits", "1", "--seed", "5", "--exact-equivocation"],
        ("_summary.csv",),
    ),
    # bin-multiplicity audit of two rebuilds and the compression audit of the
    # first, with two stegotext words per auxiliary word
    "audit_n10": (
        "audit",
        ["--spec", "{audit}", "--aux", "{aux}", "--n", "10", "--delta", "0.2",
         "--gamma", "0.5", "--dprime", "0.0", "--m2-bits", "7", "--m3-bits", "1",
         "--j-bits", "1", "--rebuilds", "2", "--seed", "6"],
        ("_bins.csv", "_compression.csv"),
    ),
    # the same audits over drawn stegotext books, at a delta where every
    # auxiliary row's books admit a word
    "audit_drawn_n10": (
        "audit",
        ["--spec", "{audit}", "--aux", "{drawn_aux}", "--n", "10", "--delta", "0.3",
         "--gamma", "0.5", "--dprime", "0.0", "--m2-bits", "5", "--m3-bits", "1",
         "--j-bits", "1", "--rebuilds", "2", "--seed", "6"],
        ("_bins.csv", "_compression.csv"),
    ),
    # n=8 exact equivocation over drawn stegotext books, some of which admit
    # no word; its trials include e3, encode_fallback and a clean decode
    "exact_drawn_n8": (
        "simulate",
        ["--spec", "{demo}", "--aux", "{drawn_aux}", "--n", "8", "--trials", "20",
         "--delta", "0.6", "--dprime", "0.25", "--m2-bits", "3", "--m3-bits", "1",
         "--j-bits", "2", "--seed", "8", "--exact-equivocation"],
        ("_summary.csv",),
    ),
}


def _run_case(name: str, workdir: Path, *extra: str) -> Path:
    """Run a case, with ``extra`` arguments after its own (a repeated flag's
    last value holds)."""
    verb, args, _ = CASES[name]
    paths = {"demo": str(CONFIGS / "demo_system.yaml"), "aux": str(CONFIGS / "demo_aux.yaml")}
    tables = (("audit", AUDIT_SYSTEM), ("noisy", NOISY_SYSTEM), ("noisy_aux", NOISY_AUX), ("drawn_aux", DRAWN_AUX))
    for key, table in tables:
        paths[key] = str(workdir / f"{key}.yaml")
        Path(paths[key]).write_text(yaml.safe_dump(table))
    out = workdir / name
    argv = [verb, *(a.format(**paths) for a in args), *extra, "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_sim_artifacts_match_golden(name, tmp_path):
    out = _run_case(name, tmp_path)
    for suffix in CASES[name][2]:
        got = Path(str(out) + suffix).read_bytes()
        assert got == (DATA / f"{name}{suffix}").read_bytes(), suffix


def test_exact_equivocation_builds_codebooks_once(tmp_path, monkeypatch):
    """The trials and the exact enumeration share one codebook build, and
    the summary stays the one two builds of the same seed wrote."""
    calls = []
    build = sim.build_codebooks

    def counting_build(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(sim, "build_codebooks", counting_build)
    out = _run_case("exact_n8", tmp_path)
    assert len(calls) == 1
    got = Path(str(out) + "_summary.csv").read_bytes()
    assert got == (DATA / "exact_n8_summary.csv").read_bytes()


def test_ensemble_reuses_the_runs_build(tmp_path, monkeypatch):
    """The run's own codebook is the ensemble's first member, so two
    rebuilds build seeds 4 and 5 once each, and the summary stays the one
    three builds wrote."""
    seeds = []
    build = sim.build_codebooks

    def counting_build(*args, **kwargs):
        seeds.append(args[1])
        return build(*args, **kwargs)

    monkeypatch.setattr(sim, "build_codebooks", counting_build)
    out = _run_case("ensemble_n8", tmp_path)
    assert seeds == [4, 5]
    got = Path(str(out) + "_summary.csv").read_bytes()
    assert got == (DATA / "ensemble_n8_summary.csv").read_bytes()


@pytest.mark.parametrize("name, rebuilds", [("audit_n10", 4), ("ensemble_n8", 3)])
def test_one_design_per_run_and_one_draw_per_rebuild(name, rebuilds, tmp_path, monkeypatch):
    """An audit over rebuilds, and an exact enumeration averaged over an
    ensemble, design their code once and draw it once per rebuild, at the
    seeds seed, seed + 1, ..., every draw from the one design."""
    designs, seeds = [], []
    make_design, build = sim.CodeDesign, sim.build_codebooks

    def counting_design(*args, **kwargs):
        designs.append(make_design(*args, **kwargs))
        return designs[-1]

    def counting_build(design, seed):
        assert design is designs[-1]
        seeds.append(seed)
        return build(design, seed)

    monkeypatch.setattr(sim, "CodeDesign", counting_design)
    monkeypatch.setattr(sim, "build_codebooks", counting_build)
    _run_case(name, tmp_path, "--rebuilds", str(rebuilds))
    first = int(CASES[name][1][CASES[name][1].index("--seed") + 1])
    assert len(designs) == 1
    assert seeds == list(range(first, first + rebuilds))


@pytest.mark.parametrize("name", sorted(CASES))
def test_two_entry_word_caches_write_the_same_bytes(name, tmp_path, monkeypatch):
    """A key record, message index, stegotext book or embedding search is a
    pure function of (build, word), so word caches bounded at two entries
    resolve again what they drop and every artifact stays the golden one;
    no cache ever holds more than two entries.  The audits of ``audit_n10``
    look up no key or message, and its stegotext letters are all fixed, so
    its books pass through no cache.  Every simulation's search cache drops
    entries, and an exact enumeration, whose chunks of words reach the same
    searches again, searches some of them again."""
    lookup = sim._LruCache.lookup
    seen: dict[int, set] = {}
    drops: dict[int, int] = {}
    redraws: dict[int, int] = {}
    builds = []
    build = sim.build_codebooks

    def bounded_lookup(cache, key, make):
        keys = seen.setdefault(id(cache), set())
        if key not in cache:
            drops[id(cache)] = drops.get(id(cache), 0) + (len(cache) == cache.capacity)
            redraws[id(cache)] = redraws.get(id(cache), 0) + (key in keys)
        keys.add(key)
        value = lookup(cache, key, make)
        assert len(cache) <= cache.capacity == 2
        return value

    def kept_build(*args, **kwargs):
        builds.append(build(*args, **kwargs))
        return builds[-1]

    monkeypatch.setattr(sim, "_WORD_CACHE_ENTRIES", 2)
    monkeypatch.setattr(sim._LruCache, "lookup", bounded_lookup)
    monkeypatch.setattr(sim, "build_codebooks", kept_build)
    out = _run_case(name, tmp_path)
    for suffix in CASES[name][2]:
        got = Path(str(out) + suffix).read_bytes()
        assert got == (DATA / f"{name}{suffix}").read_bytes(), suffix
    if name == "audit_n10":
        assert not seen
    else:
        assert sum(drops.values()) > 0 and sum(redraws.values()) > 0
    if CASES[name][0] == "simulate":
        assert builds and all(drops[id(books._searches)] > 0 for books in builds)
    if "--exact-equivocation" in CASES[name][1]:
        assert all(redraws[id(books._searches)] > 0 for books in builds)


@pytest.mark.parametrize("name", sorted(CASES))
def test_one_trial_and_one_word_chunks_write_the_same_bytes(name, tmp_path, monkeypatch):
    """Trials and enumerated (x, k) words searched, and words decoded, one
    at a time write the golden bytes too, so batching them changes no
    result; no search call then holds more than one word."""
    search_words = sim.search_words
    words_per_call = []

    def counted(codebooks, requests):
        requests = list(requests)
        words_per_call.append(len(requests))
        return search_words(codebooks, requests)

    monkeypatch.setattr(sim, "_TRIAL_CHUNK", 1)
    monkeypatch.setattr(sim, "_WORD_CHUNK", 1)
    monkeypatch.setattr(sim, "search_words", counted)
    out = _run_case(name, tmp_path)
    for suffix in CASES[name][2]:
        got = Path(str(out) + suffix).read_bytes()
        assert got == (DATA / f"{name}{suffix}").read_bytes(), suffix
    assert max(words_per_call, default=0) <= 1
    assert bool(words_per_call) == (CASES[name][0] == "simulate")


if __name__ == "__main__":
    import tempfile

    DATA.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, (_, _, suffixes) in CASES.items():
            out = _run_case(name, Path(tmp))
            for suffix in suffixes:
                (DATA / f"{name}{suffix}").write_bytes(Path(str(out) + suffix).read_bytes())
    sys.exit(0)
