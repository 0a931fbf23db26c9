import contextlib
import dataclasses
import functools
import inspect
import math
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats

from secembed import sim
from secembed.config import load_aux, load_system
from secembed.errors import (
    EmptyTypicalSetError,
    InfeasibleError,
    ResourceCapError,
    ValidationError,
)
from secembed.region import AuxChannel, SystemSpec
from secembed.tables import Axis, DistortionMeasure, DistTable
from secembed.typical import CountBox, _multinomial, letter_dtype

from conftest import (
    binary_spec,
    bits_to_int,
    build_books,
    copy_embedder_aux,
    decrypt,
    encrypt,
    int_to_bits,
    multiset_perms,
    noise_aux,
    reference_key,
    sw_bits,
    sw_encode,
)
from test_sim_golden import CONFIGS, DRAWN_AUX, NOISY_AUX, NOISY_SYSTEM


def build_trend(spec, aux, n, seed=11, **kw):
    kw.setdefault("m2_bits", 5)
    kw.setdefault("m3_bits", 0)
    kw.setdefault("j_bits", 4 if n >= 8 else 0)
    return build_books(spec, aux, n, 0.6, seed, 0.0, **kw)


class TestBuild:
    def test_sizes_and_schedule_logged(self, trend_spec, trend_aux):
        books = build_trend(trend_spec, trend_aux, 8)
        s = books.sizes
        assert (s.l_bits, s.m2_bits, s.m3_bits, s.j_bits) == (4, 5, 0, 4)
        sched = s.schedule
        assert sched["m2_overridden"] == 1.0
        assert sched["r2_target"] == pytest.approx(0.6 * (1 + 1 + 1) + 0.6)
        assert sched["embedding_slack"] == pytest.approx(0.5)

    def test_formula_sizes_without_overrides(self):
        # degenerate covertext and key: every schedule width is small enough
        # to materialize directly
        spec = binary_spec(x_size=1, k_probs=(1.0,), lam=1.0, d_cost=[[0.0, 1.0]])
        aux = copy_embedder_aux(spec, [0.5, 0.5])
        books = build_books(spec, aux, 8, 0.1, seed=2, d_prime_value=0.0)
        s = books.sizes
        assert s.j_bits == 1  # ceil(n delta) with a constant key
        assert s.m2_bits == math.ceil(8 * (0.1 * 3 + 0.1))
        assert s.m3_bits == math.ceil(8 * (0.1 * 1 + 0.1))
        assert s.l_bits == 7  # log2 of the 70 exactly-balanced words
        assert s.j_bits <= s.l_bits

    def test_demo_books_take_one_byte_a_letter(self):
        # the n=16 demo build of the benchmark: nine 8,192-row books over
        # |V| = 2, stored as uint8 (int64 rows took eight times as much)
        configs = Path(__file__).parent.parent / "configs"
        spec = load_system(yaml.safe_load((configs / "demo_system.yaml").read_text())).spec
        aux, _ = load_aux(yaml.safe_load((configs / "demo_aux.yaml").read_text()), spec)
        books = build_books(spec, aux, 16, 0.6, 1, 0.0, m2_bits=5, m3_bits=0, j_bits=4)
        aux_books = [books.aux_book(t) for t in range(len(books.key_types))]
        assert len(aux_books) == 9
        assert all(b.dtype == np.uint8 and b.shape == (8192, 16) for b in aux_books)
        assert sum(b.nbytes for b in aux_books) == 1_179_648

    def test_lambda_n_must_be_integer(self, trend_spec, trend_aux):
        with pytest.raises(ValidationError):
            build_books(trend_spec, trend_aux, 7, 0.6, 0, 0.0)

    def test_counting_constraint_enforced(self):
        # deterministic composite word given (K, X) leaves no room for the
        # message rate
        spec = binary_spec(x_size=1, lam=0.5, d_cost=[[0.0, 1.0]])
        V = Axis("V", 2)
        vals = np.zeros((2, 1, 2, 2))
        for k in range(2):
            vals[k, :, k, k] = 1.0  # V = Y = K
        aux = AuxChannel(DistTable([spec.k_axis, spec.x_axis, V, spec.y_axis], vals, given=("K", "X")))
        with pytest.raises(InfeasibleError):
            build_books(spec, aux, 8, 0.6, 0, 0.0, m2_bits=2, m3_bits=0, j_bits=0)

    def test_pad_wider_than_message_rejected(self, trend_spec, trend_aux):
        with pytest.raises(ValidationError):
            build_books(
                trend_spec, trend_aux, 8, 0.6, 0, 0.0, m2_bits=5, m3_bits=0, j_bits=9
            )

    def test_aux_rows_cap(self, trend_spec, trend_aux):
        with pytest.raises(ResourceCapError):
            build_books(
                trend_spec, trend_aux, 8, 0.6, 0, 0.0, m2_bits=30, m3_bits=0, j_bits=0
            )

    def test_empty_conditional_sets_rejected(self):
        # V ~ Bern(0.25) cannot be drawn around single-occurrence key letters
        spec = binary_spec(x_size=1, lam=0.5, d_cost=[[0.0, 1.0]])
        aux = copy_embedder_aux(spec, [0.75, 0.25])
        with pytest.raises(EmptyTypicalSetError):
            build_books(spec, aux, 8, 0.6, 0, 0.0, m2_bits=3, m3_bits=0, j_bits=0)

    def test_codewords_pass_membership_reverification(self, trend_spec, trend_aux):
        from secembed.typical import is_jointly_delta_typical, SymbolSequence

        books = build_trend(trend_spec, trend_aux, 12, m2_bits=4)
        p_k = trend_spec.p_xk.marginal("K")
        kv = books.joint.marginal("K", "V")
        cond = DistTable(
            kv.axes, kv.values / kv.values.sum(axis=1, keepdims=True), given=("K",)
        )
        for t_idx, ktype in enumerate(books.key_types):
            rep = SymbolSequence(tuple(ktype.representative), trend_spec.k_axis)
            book = books.aux_book(t_idx)
            for row in book[::37]:
                word = SymbolSequence(tuple(row), Axis("V", 2))
                assert is_jointly_delta_typical(rep, word, p_k, cond, 0.6)


def _drawn_n8_design() -> sim.CodeDesign:
    """The ``exact_drawn_n8`` golden's design: the demo system with drawn
    stegotext books of two words each, and a two-bit pad."""
    spec = load_system(yaml.safe_load((CONFIGS / "demo_system.yaml").read_text())).spec
    aux, _ = load_aux(DRAWN_AUX, spec)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return sim.CodeDesign(spec, aux, 8, 0.6, 0.25, m2_bits=3, m3_bits=1, j_bits=2)


def _empty_caches(books) -> bool:
    return not (books._keys or books._messages or books._stego_books or books._searches)


def _draw_facts(books) -> dict:
    """What one draw holds or resolves: its auxiliary books and masks, the
    pad of every typical key, the stegotext books of every distinct
    auxiliary row (zeroed where none can be drawn), the rate schedule, and
    the records of a few trials."""
    stego = []
    for t in range(len(books.key_types)):
        got, built = books.stego_books(t, sim._unique_rows(books.aux_book(t))[0])
        stego.append((np.where(built[:, None, None], got, 0), built))
    agg = sim.run_trials(books, 20, 7)
    return {
        "aux_books": books._aux_books.copy(),
        "aux_masks": books._aux_masks.copy(),
        "pads": [books.key(k).pad for k in _typical_keys(books)],
        "stego": stego,
        "schedule": dict(books.sizes.schedule),
        "trials": [(r.error_event, r.y.tolist(), r.z.tolist(), r.decoded_bin) for r in agg.results],
    }


def _assert_same_facts(got: dict, want: dict) -> None:
    assert np.array_equal(got["aux_books"], want["aux_books"])
    assert np.array_equal(got["aux_masks"], want["aux_masks"])
    assert got["pads"] == want["pads"]
    for (books, built), (want_books, want_built) in zip(got["stego"], want["stego"], strict=True):
        assert np.array_equal(books, want_books) and np.array_equal(built, want_built)
    assert got["schedule"] == want["schedule"]
    assert got["trials"] == want["trials"]


class TestDesignAndDraw:
    """A run designs its code once and draws it once per seed.  A draw
    shares its design's seed-free work, stegotext samplers included, so a
    draw made after other draws of the design have used it equals the draw
    of a fresh design at the same seed."""

    def test_not_strict_warning_names_the_callers_line(self):
        spec = load_system(yaml.safe_load((CONFIGS / "demo_system.yaml").read_text())).spec
        aux, _ = load_aux(DRAWN_AUX, spec)
        with pytest.warns(RuntimeWarning, match="embedding condition is not strict") as record:
            line = inspect.currentframe().f_lineno + 1
            sim.CodeDesign(spec, aux, 8, 0.6, 0.25, m2_bits=3, m3_bits=1, j_bits=2)
        assert [(w.filename, w.lineno) for w in record] == [(__file__, line)]

    def test_draws_of_one_design_equal_draws_of_fresh_designs(self):
        design = _drawn_n8_design()
        assert design.sizes.m3_bits > 0 and design.sizes.j_bits > 0
        seeds = (1, 2, 3)
        shared = []
        for seed in seeds:
            books = sim.build_codebooks(design, seed)
            assert books.design is design and books.seed == seed and _empty_caches(books)
            shared.append(_draw_facts(books))
        assert design._stego_samplers  # the draws above filled them
        for seed, facts in zip(seeds, shared):
            fresh = sim.build_codebooks(_drawn_n8_design(), seed)
            assert _empty_caches(fresh)
            _assert_same_facts(_draw_facts(fresh), facts)
        # and the seeds draw different codes
        assert not np.array_equal(shared[0]["aux_books"], shared[1]["aux_books"])
        assert shared[0]["pads"] != shared[1]["pads"]

    def test_a_draw_reads_the_designs_facts(self):
        design = _drawn_n8_design()
        books = sim.build_codebooks(design, 4)
        for name in ("sizes", "key_types", "rd_codebook", "kxv_cells", "n", "spec"):
            assert getattr(books, name) is getattr(design, name)
        with pytest.raises(AttributeError):
            books.no_such_fact


class TestLetterMasks:
    @pytest.mark.parametrize(
        "shape, n_val", [((5, 1), 2), ((7, 8), 3), ((6, 13), 2), ((3, 4, 16), 4), ((2, 3, 17), 1), ((0, 9), 2)]
    )
    def test_bit_of_each_position_and_letter(self, shape, n_val):
        """Bit 7 - t % 8 of byte t // 8 says whether position t holds the
        letter; the bits past n are zero."""
        book = np.random.default_rng(shape[-1]).integers(0, n_val, size=shape).astype(np.uint8)
        masks = sim._letter_masks(book, n_val)
        n, n_bytes = shape[-1], -(-shape[-1] // 8)
        assert masks.shape == (*shape[:-2], n_bytes, n_val, shape[-2]) and masks.dtype == np.uint8
        for t in range(8 * n_bytes):
            bits = (masks[..., t // 8, :, :] >> (7 - t % 8)) & 1
            held = book[..., None, :, t] == np.arange(n_val)[:, None] if t < n else False
            assert np.array_equal(bits, np.broadcast_to(held, bits.shape))


class TestKeyMachinery:
    def test_type_lookup_and_order(self, trend_spec, trend_aux):
        books = build_trend(trend_spec, trend_aux, 8)
        k = np.array([1, 0, 0, 1, 0, 0, 0, 1])
        key = books.key(k)
        t_idx, order = key.type_idx, key.order
        rep = books.key_types[t_idx].representative
        assert np.array_equal(np.sort(k), rep)
        assert np.array_equal(rep[np.argsort(order)], k)

    def test_atypical_key_has_no_type(self, trend_spec, trend_aux):
        books = build_trend(trend_spec, trend_aux, 8)
        assert books.key(np.zeros(8, dtype=np.int64)) is None

    @given(
        key_case=st.sampled_from([((0.5, 0.5), 8), ((1 / 3, 1 / 3, 1 / 3), 12)]),
        seed=st.integers(0, 2**40),
        two_entries=st.booleans(),
        draw_seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_key_records_match_the_reference(self, key_case, seed, two_entries, draw_seed):
        """Typical keys (permuted representatives) and random, often
        atypical, ones of a binary and a ternary key, looked up in order
        and again in reverse, against ``reference_key``; with two-entry
        caches a dropped record is resolved again the same."""
        k_probs, n = key_case
        spec = binary_spec(x_size=1, k_probs=k_probs, lam=0.5, d_cost=[[0.0, 1.0]])
        entries = 2 if two_entries else sim._WORD_CACHE_ENTRIES
        with mock.patch.object(sim, "_WORD_CACHE_ENTRIES", entries):
            books = build_books(
                spec, copy_embedder_aux(spec, [0.5, 0.5]), n, 0.6, seed, 0.0, m2_bits=1, m3_bits=0, j_bits=2
            )
        rng = np.random.default_rng(draw_seed)
        keys = [rng.permutation(books.key_types[rng.integers(len(books.key_types))].representative) for _ in range(4)]
        keys += [rng.integers(0, len(k_probs), size=n) for _ in range(4)] + [np.zeros(n, dtype=np.int64)]
        for k in [*keys, *keys[::-1]]:
            got, want = books.key(k), reference_key(books, k)
            if want is None:
                assert got is None
                continue
            assert (got.type_idx, got.pad) == (want[0], want[2]) and type(got.pad) is int
            assert np.array_equal(got.order, want[1])
        assert len(books._keys) <= min(entries, len(keys))

    def test_sw_is_deterministic_and_requires_typical_key(self, trend_spec, trend_aux):
        books = build_trend(trend_spec, trend_aux, 8)
        k = books.key_types[0].representative
        assert np.array_equal(sw_encode(k, books), sw_encode(k, books))
        assert sw_encode(k, books).shape == (4,)
        with pytest.raises(ValidationError):
            sw_encode(np.zeros(8, dtype=np.int64), books)

    def test_sw_uniform_across_keys(self, trend_spec, trend_aux):
        # random binning: bit frequencies across typical keys near half
        books = build_trend(trend_spec, trend_aux, 12, m2_bits=4)
        bits = []
        for ktype in books.key_types:
            for word in multiset_perms(ktype.counts):
                bits.append(sw_bits(books, word))
        arr = np.array(bits)
        freq = arr.mean(axis=0)
        assert np.all(np.abs(freq - 0.5) < 0.05)


@st.composite
def _stack_cases(draw):
    """A build with a binary or ternary key and a unary or binary
    covertext, with default or two-entry word caches, and stacks of key,
    covertext and message words: typical keys (permuted representatives),
    random, often atypical, ones and the constant key, random covertexts
    and message words, then some rows again."""
    k_probs, n = draw(st.sampled_from([((0.5, 0.5), 8), ((1 / 3, 1 / 3, 1 / 3), 12)]))
    x_probs = draw(st.sampled_from([(1.0,), (0.5, 0.5)]))
    spec = binary_spec(x_size=len(x_probs), x_probs=x_probs, k_probs=k_probs, lam=0.5)
    entries = 2 if draw(st.booleans()) else sim._WORD_CACHE_ENTRIES
    try:
        with warnings.catch_warnings(), mock.patch.object(sim, "_WORD_CACHE_ENTRIES", entries):
            warnings.simplefilter("ignore", RuntimeWarning)
            aux = copy_embedder_aux(spec, [0.5, 0.5])
            design = sim.CodeDesign(spec, aux, n, 0.6, 0.0, m2_bits=1, m3_bits=0, j_bits=2)
            seed = draw(st.integers(0, 2**40))
            books, fresh = sim.build_codebooks(design, seed), sim.build_codebooks(design, seed)
    except (EmptyTypicalSetError, InfeasibleError, ValidationError):
        assume(False)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ks = [rng.permutation(books.key_types[rng.integers(len(books.key_types))].representative) for _ in range(5)]
    ks += [*rng.integers(0, len(k_probs), size=(4, n)), np.zeros(n, dtype=np.int64)]
    ks = np.array([*ks, *(ks[i] for i in rng.integers(0, len(ks), size=4))])
    xs = rng.integers(0, len(x_probs), size=ks.shape)
    us = rng.integers(0, 2, size=(len(ks), books.n_message))
    us[-3:] = us[rng.integers(0, len(us) - 3, size=3)]
    return books, fresh, entries, xs, ks, us


class TestStackedResolvers:
    """``CodebookSet.keys``, ``CodebookSet.messages`` and
    ``WordSearch.stack`` resolve a stack of words as one pass each; every
    row equals the one-word reference, and the one-word calls on a second
    draw of the same codes, field by field."""

    @given(_stack_cases())
    @settings(max_examples=40, deadline=None)
    def test_rows_match_the_one_word_references(self, case):
        books, fresh, entries, xs, ks, us = case
        for k, got in zip(ks, books.keys(ks)):
            want, alone = reference_key(books, k), fresh.key(k)
            if want is None:
                assert got is None and alone is None
                continue
            for key in (got, alone):
                assert (key.type_idx, key.pad) == (want[0], want[2]) and type(key.pad) is int
                assert np.array_equal(key.order, want[1]) and not key.order.flags.writeable
        for u, got in zip(us, books.messages(us)):
            typical = books.u_box.contains(np.bincount(u, minlength=books.spec.u_axis.size))
            want = sim.rd_encode(u, books.rd_codebook) if typical else None
            assert got == want == fresh.message(u) and type(got) is type(want)
        for x, k, word in zip(xs, ks, sim.WordSearch.stack(books, xs, ks)):
            alone = sim.WordSearch(fresh, x, k)
            key = reference_key(books, k)
            pair_ok = books.kx_box.contains(np.bincount(k * books.x_size + x, minlength=books.k_size * books.x_size))
            frame = None if key is None else (key[0], x[key[1]].astype(books._x_dtype).tobytes())
            for search in (word, alone):
                assert np.array_equal(search.x, x) and np.array_equal(search.k, k)
                assert search.pair_ok is pair_ok and search.frame == frame
                assert search.embeds is (key is not None and pair_ok)
                assert (search.key is None) == (key is None) and search._found == {}
                if key is not None:
                    assert (search.key.type_idx, search.key.pad) == (key[0], key[2])
                    assert np.array_equal(search.key.order, key[1])
        for cache in (books._keys, books._messages, fresh._keys, fresh._messages):
            assert len(cache) <= entries


class TestLruCache:
    def test_lookup_many_keeps_lru_order_and_capacity(self):
        """Hits become the most recently used in their first-seen order,
        then the missing keys are made by one call, each once, in first-seen
        order, and kept, the least recently used dropped past capacity."""
        cache = sim._LruCache(3)
        made = []

        def make(missing):
            made.append(list(missing))
            return [key.upper() for key in missing]

        assert cache.lookup_many(["a", "b", "c"], make) == ["A", "B", "C"]
        assert cache.lookup_many(["d", "b", "a", "d", "e", "b"], make) == ["D", "B", "A", "D", "E", "B"]
        assert made == [["a", "b", "c"], ["d", "e"]]
        # b and a read, then d and e kept: c and b dropped, least recently used first
        assert list(cache.items()) == [("a", "A"), ("d", "D"), ("e", "E")]
        assert cache.read("a") == "A" and list(cache) == ["d", "e", "a"]
        with pytest.raises(KeyError):
            cache.read("b")
        assert cache.lookup_many([], make) == [] and len(made) == 2


def _reference_stego_book(books, type_idx, v_rep):
    """``CodebookSet.stego_book`` as first written, kept as the reference for
    the composition-shared samplers and the array entropy: one sampler per
    word over the word's own positions, seeded from a tuple of ints."""
    from secembed.typical import ConditionalTypicalSampler

    rep = books.key_types[type_idx].representative
    combined = rep * books.v_size + v_rep
    sampler = ConditionalTypicalSampler(
        combined, books.k_size * books.v_size, books._p_y_given_kv, books.delta
    )
    stego_tag = 2
    rng = np.random.default_rng(
        np.random.SeedSequence((books.seed, stego_tag, type_idx, *map(int, v_rep)))
    )
    book = np.empty((books.sizes.m3, books.n), dtype=np.int64)
    for r in range(books.sizes.m3):
        book[r] = sampler.sample(rng)
    return book


@st.composite
def _stego_cases(draw):
    """A small random system with a degenerate covertext (so the counting
    constraint always holds), its codebooks, and auxiliary words to query."""
    k_size, v_size, y_size = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(2, 3))
    X, K, V = Axis("X", 1), Axis("K", k_size), Axis("V", v_size)
    Y, Z = Axis("Y", y_size), Axis("Z", y_size)
    U, UHAT = Axis("U", 2), Axis("Uhat", 2)
    k_weights = np.array(draw(st.lists(st.integers(1, 4), min_size=k_size, max_size=k_size)), float)
    spec = SystemSpec(
        p_u=DistTable([U], [0.5, 0.5]),
        p_xk=DistTable([X, K], (k_weights / k_weights.sum())[None, :]),
        p_z_given_y=DistTable([Y, Z], np.eye(y_size), given=("Y",)),
        lam=1.0,
        d=DistortionMeasure(X, Y, np.zeros((1, y_size))),
        d_prime=DistortionMeasure.hamming(U, UHAT),
    )
    cells = k_size * v_size * y_size
    weights = np.array(draw(st.lists(st.integers(0, 4), min_size=cells, max_size=cells)), float)
    weights = weights.reshape(k_size, 1, v_size, y_size) + np.eye(v_size, y_size)  # no empty row
    aux = AuxChannel(
        DistTable([K, X, V, Y], weights / weights.sum(axis=(2, 3), keepdims=True), given=("K", "X"))
    )
    n = draw(st.integers(2, 8))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            books = build_books(
                spec, aux, n, draw(st.sampled_from([0.3, 0.6, 0.9])), draw(st.integers(0, 2**40)),
                0.5, m2_bits=draw(st.integers(0, 2)), m3_bits=draw(st.integers(0, 2)), j_bits=0,
            )
    except EmptyTypicalSetError:
        assume(False)
    words = draw(st.lists(st.lists(st.integers(0, v_size - 1), min_size=n, max_size=n), max_size=4))
    return books, [np.array(w, dtype=np.int64) for w in words]


def _all_letters_fixed(books, type_idx, v_rep):
    """Whether every (k, v) letter of the word has a point-mass p(y|k,v)
    row: exactly one positive entry."""
    rows = books._p_y_given_kv[books.key_types[type_idx].representative * books.v_size + v_rep]
    return bool((np.count_nonzero(rows > 0, axis=1) == 1).all())


def _fetch_one(books, type_idx, v_rep):
    """``stego_books`` of one word: its book, whether it could be built,
    and whether the fetch drew it through ``stego_book``."""
    with mock.patch.object(books, "stego_book", wraps=books.stego_book) as draw:
        got, built = books.stego_books(type_idx, np.asarray(v_rep)[None])
    return got[0], bool(built[0]), draw.called


@contextlib.contextmanager
def _counting_seed_sequences():
    """Count the ``SeedSequence``s built inside the block, which every
    word-keyed generator starts from."""
    made = []
    seed_sequence = np.random.SeedSequence

    def counting(*args, **kwargs):
        made.append(args)
        return seed_sequence(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.random, "SeedSequence", counting)
        yield made


class TestStegoStream:
    """Stegotext books drawn through one sampler per joint (k, v)
    composition, with array-seeded generators, must equal the per-word
    books row for row; so must the books of words whose letters are all
    fixed, which are built with no draw."""

    @given(_stego_cases())
    @settings(max_examples=60, deadline=None)
    def test_composition_sampler_matches_per_word_books(self, case):
        books, words = case
        for t in range(len(books.key_types)):
            aux_rows = books.aux_book(t)[:4]
            for v in [*aux_rows, *words]:
                try:
                    ref = _reference_stego_book(books, t, v)
                except EmptyTypicalSetError:
                    with pytest.raises(EmptyTypicalSetError):
                        books.stego_book(t, v)
                    assert _fetch_one(books, t, v)[1:] == (False, True)
                    continue
                entries = (len(books._stego_books), len(books._stego_samplers))
                with _counting_seed_sequences() as made:
                    got, built, drawn = _fetch_one(books, t, v)
                assert got.shape == (books.sizes.m3, books.n) and got.dtype == letter_dtype(books.y_size)
                assert np.array_equal(got, ref) and built
                if _all_letters_fixed(books, t, v):
                    # no generator, no sampler and no cache entry
                    assert not made and not drawn
                    assert (len(books._stego_books), len(books._stego_samplers)) == entries
                else:
                    # an int64 word and a stored book row share one entry
                    assert drawn and books.stego_book(t, v.astype(np.int64)) is books.stego_book(t, v)
                    assert np.array_equal(books.stego_book(t, v), ref)
        # the cached books are the drawn ones, with one sampler per composition
        comps = set()
        for t, v in books._stego_books:
            kv = books.key_types[t].representative * books.v_size + np.frombuffer(v, dtype=letter_dtype(books.v_size))
            comps.add(np.sort(kv).tobytes())
        assert len(books._stego_samplers) == len(comps)

    def test_multi_row_books_of_one_composition_share_a_sampler(self, trend_spec):
        # Y is uniform noise beside V, so every book row is a fresh draw
        K, X, V, Y = trend_spec.k_axis, trend_spec.x_axis, Axis("V", 2), trend_spec.y_axis
        aux = AuxChannel(DistTable([K, X, V, Y], np.full((2, 1, 2, 2), 0.25), given=("K", "X")))
        books = build_trend(trend_spec, aux, 8, m3_bits=2)
        t = books.key(np.repeat([0, 1], 4)).type_idx
        v1 = np.array([0, 1, 0, 1, 1, 0, 1, 0])
        v2 = np.array([1, 1, 0, 0, 0, 0, 1, 1])  # the same (k, v) counts
        for v in (v1, v2):
            assert np.array_equal(books.stego_book(t, v), _reference_stego_book(books, t, v))
        assert books.sizes.m3 == 4 and len(books._stego_samplers) == 1

    def test_near_point_mass_row_is_drawn(self, trend_spec):
        # p(y|k,v0) puts 1e-13 on y1: two positive entries, so v0 letters
        # are drawn, and no count of them admits the 1e-13 letter; v1
        # letters are fixed at y1
        K, X, V, Y = trend_spec.k_axis, trend_spec.x_axis, Axis("V", 2), trend_spec.y_axis
        table = np.array([[0.5 * (1 - 1e-13), 0.5 * 1e-13], [0.0, 0.5]])
        aux = AuxChannel(DistTable([K, X, V, Y], np.broadcast_to(table, (2, 1, 2, 2)), given=("K", "X")))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            books = build_trend(trend_spec, aux, 8, m3_bits=1)
        assert books._y_of_kv.tolist() == [-1, 1, -1, 1]
        t = books.key(np.repeat([0, 1], 4)).type_idx
        for v in (np.ones(8, dtype=np.int64), np.array([0, 1, 1, 1, 1, 1, 1, 0]), np.zeros(8, dtype=np.int64)):
            got, built, drawn = _fetch_one(books, t, v)
            assert drawn == bool((v == 0).any())
            try:
                ref = _reference_stego_book(books, t, v)
            except EmptyTypicalSetError:
                with pytest.raises(EmptyTypicalSetError):
                    books.stego_book(t, v)
                assert not built
                continue
            assert built and np.array_equal(got, ref)
        with pytest.raises(EmptyTypicalSetError):
            _reference_stego_book(books, t, np.zeros(8, dtype=np.int64))

    def test_word_of_fixed_and_drawn_letters_is_drawn(self, trend_spec):
        # v0 letters copy into y0, v1 letters draw Y uniformly; the fixed
        # letters take their place in the draw of the v1 letters
        K, X, V, Y = trend_spec.k_axis, trend_spec.x_axis, Axis("V", 2), trend_spec.y_axis
        table = np.array([[0.5, 0.0], [0.25, 0.25]])
        aux = AuxChannel(DistTable([K, X, V, Y], np.broadcast_to(table, (2, 1, 2, 2)), given=("K", "X")))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            books = build_trend(trend_spec, aux, 8, m3_bits=2)
        t = books.key(np.repeat([0, 1], 4)).type_idx
        v = np.array([0, 1, 1, 0, 1, 1, 0, 0])
        with _counting_seed_sequences() as made:
            got = books.stego_book(t, v)
        assert len(made) == 1 and len(books._stego_books) == 1
        assert np.array_equal(got, _reference_stego_book(books, t, v))
        assert (got[:, v == 0] == 0).all() and len({row.tobytes() for row in got}) > 1
        drawn = 0
        for v_row in books.aux_book(t):
            got, built, drew = _fetch_one(books, t, v_row)
            assert drew
            try:
                ref = _reference_stego_book(books, t, v_row)
            except EmptyTypicalSetError:  # a lone v1 letter admits no word
                with pytest.raises(EmptyTypicalSetError):
                    books.stego_book(t, v_row)
                assert not built
                continue
            assert built and np.array_equal(got, ref)
            drawn += 1
        assert drawn > 0

    def test_fixed_layer_repeats_its_one_word(self, trend_spec, trend_aux):
        # Y copies V, so with M_3 = 4 each book is its auxiliary word 4 times
        books = build_trend(trend_spec, trend_aux, 8, m3_bits=2)
        for t in range(len(books.key_types)):
            with _counting_seed_sequences() as made:
                books_of_type, book_of_row = sim._distinct_stego_books(books, t)
                got, built = books.stego_books(t, books.aux_book(t)[:8])
            assert built.all() and not made and not books._stego_books and not books._stego_samplers
            assert np.array_equal(books_of_type[book_of_row], np.repeat(books.aux_book(t)[:, None], 4, axis=1))
            for book, v in zip(got, books.aux_book(t)):
                assert np.array_equal(book, np.repeat(v[None], 4, axis=0))
                assert np.array_equal(book, _reference_stego_book(books, t, v))

    def test_one_letter_stegotext_alphabet(self):
        # |Y| = 1: every letter is fixed at y0, so each book is all zeros
        X, K, V, Y, Z = Axis("X", 1), Axis("K", 2), Axis("V", 2), Axis("Y", 1), Axis("Z", 1)
        spec = SystemSpec(
            p_u=DistTable([Axis("U", 2)], [0.5, 0.5]),
            p_xk=DistTable([X, K], [[0.5, 0.5]]),
            p_z_given_y=DistTable([Y, Z], [[1.0]], given=("Y",)),
            lam=0.5,
            d=DistortionMeasure(X, Y, [[0.0]]),
            d_prime=DistortionMeasure.hamming(Axis("U", 2), Axis("Uhat", 2)),
        )
        aux = AuxChannel(DistTable([K, X, V, Y], np.full((2, 1, 2, 1), 0.5), given=("K", "X")))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            books = build_books(spec, aux, 8, 0.6, 3, 0.5, m2_bits=2, m3_bits=1, j_bits=1)
        assert books._y_of_kv.tolist() == [0, 0, 0, 0]
        for t in range(len(books.key_types)):
            got, built = books.stego_books(t, books.aux_book(t)[:4])
            assert got.shape == (4, 2, 8) and built.all() and not got.any()
            for book, v in zip(got, books.aux_book(t)):
                assert np.array_equal(book, _reference_stego_book(books, t, v))
        assert not books._stego_books and not books._stego_samplers
        audit = sim.bin_multiplicity_audit(books, 0.5)
        assert audit.max_bins_per_y == books.sizes.bins
        agg = sim.run_trials(books, 8, seed=1)
        assert agg.trials == 8 and not books._stego_books

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 3])
    def test_array_entropy_equals_int_tuple(self, seed):
        # a uint32 word enters numpy's entropy pool as the same 32-bit words
        # as one int per letter, so stegotext and pad generators keep their
        # streams; a change to numpy's entropy coercion fails here
        word = np.concatenate([np.arange(0, 70_001, 997), [0, 65_535, 65_536, 69_999, 70_000]])
        for head in ((seed, 2, 5), (seed, 3)):
            as_ints = np.random.SeedSequence((*head, *map(int, word)))
            as_array = np.random.SeedSequence((*head, word.astype(np.uint32)))
            assert np.array_equal(as_ints.pool, as_array.pool)
            assert np.array_equal(as_ints.generate_state(8), as_array.generate_state(8))
            assert np.array_equal(
                as_ints.generate_state(4, np.uint64), as_array.generate_state(4, np.uint64)
            )


class TestEntropyWords:
    """``sim._entropy``, the one uint32 array each word-seeded stream is
    seeded with, against the tuple each stream was first seeded with."""

    @given(
        seed=st.integers(0, 2**80 - 1),
        word=st.lists(st.integers(0, 2**16), max_size=20),
        t=st.integers(0, 2**40),
        type_idx=st.integers(0, 2**33),
    )
    @settings(max_examples=200, deadline=None)
    def test_arrays_seed_the_tuples_streams(self, seed, word, t, type_idx):
        word = np.array(word, dtype=np.int64)
        streams = [  # (tuple, array) of the pad, the trial and the stegotext book
            ((seed, sim._SW_TAG, word.astype(np.uint32)), sim._entropy(seed, sim._SW_TAG, word=word)),
            ((seed, sim._TRIAL_TAG, t), sim._entropy(seed, sim._TRIAL_TAG, t)),
            (
                (seed, sim._STEGO_TAG, type_idx, word.astype(np.uint32)),
                sim._entropy(seed, sim._STEGO_TAG, type_idx, word=word),
            ),
        ]
        for as_tuple, as_array in streams:
            assert as_array.dtype == np.uint32
            assert np.array_equal(
                np.random.SeedSequence(as_tuple).generate_state(8), np.random.SeedSequence(as_array).generate_state(8)
            )


class TestArrayStreams:
    """The array streams, every row's stream at once, against numpy's own
    stream objects row for row: ``_pools`` against ``SeedSequence.pool``,
    ``_raw_words`` against ``PCG64.random_raw`` and ``_uniforms`` and
    ``_trial_uniforms`` against ``Generator.random``."""

    @given(
        seed=st.integers(0, 2**80 - 1),
        t=st.one_of(st.integers(0, 2**20), st.integers(2**32 - 8, 2**40)),
        rows=st.integers(1, 5),
        letters=st.integers(0, 20),
        count=st.integers(1, 64),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    @example(seed=2**64 + 5, t=2**32 - 2, rows=5, letters=0, count=64, data=None)
    def test_streams_are_numpys(self, seed, t, rows, letters, count, data):
        """Seeds of one to three words, trial indices past 2^32, key words
        of 0 to 20 letters, so entropy shorter and longer than the pool of
        four, and 1 to 64 words a stream."""
        if data is None:
            words = np.arange(rows * letters).reshape(rows, letters)
        else:
            letter = st.integers(0, 2**32 - 1)
            words = np.array(
                data.draw(st.lists(st.lists(letter, min_size=letters, max_size=letters), min_size=rows, max_size=rows)),
                dtype=np.int64,
            ).reshape(rows, letters)
        entropy = sim._headed_rows(sim._entropy(seed, sim._SW_TAG), words)
        pools, raw, uniforms = sim._pools(entropy), sim._raw_words(entropy, count), sim._uniforms(entropy, count)
        assert raw.dtype == np.uint64 and raw.shape == uniforms.shape == (rows, count)
        for i, word in enumerate(words):
            stream = np.random.SeedSequence((seed, sim._SW_TAG, word.astype(np.uint32)))
            assert np.array_equal(pools[i], stream.pool)
            assert np.array_equal(raw[i], np.random.PCG64(stream).random_raw(count))
            assert np.array_equal(uniforms[i], np.random.default_rng(stream).random(count))
        trials = sim._trial_uniforms(seed, range(t, t + rows), count)
        for i, trial in enumerate(range(t, t + rows)):
            stream = np.random.SeedSequence((seed, sim._TRIAL_TAG, trial))
            assert np.array_equal(trials[i], np.random.default_rng(stream).random(count))

    def test_a_trial_range_builds_no_stream_object(self, trend_spec, trend_aux):
        """A chunk's draws build no ``SeedSequence``, so neither a
        ``Generator`` nor a ``PCG64``, and neither do the trials' pads."""
        books = build_trend(trend_spec, trend_aux, 8, j_bits=2)
        with _counting_seed_sequences() as made:
            sim._trial_draws(books.spec, books.n_message, books.n, 3)(range(0, 64))
            sim.run_trials(books, 70, seed=3)
        assert not made


class TestEncryption:
    def test_zero_pad_is_identity(self):
        w = int_to_bits(0b10110, 5)
        out = encrypt(w, np.zeros(5, dtype=np.uint8))
        assert np.array_equal(out, w)

    def test_known_xor(self):
        # w = 10110, s = 01100 (left to right) -> 11010
        w = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
        s = np.array([0, 1, 1, 0, 0], dtype=np.uint8)
        assert np.array_equal(encrypt(w, s), np.array([1, 1, 0, 1, 0], dtype=np.uint8))

    def test_partial_pad_passthrough(self):
        w = np.array([1, 0, 1, 1], dtype=np.uint8)
        s = np.array([1, 1], dtype=np.uint8)
        out = encrypt(w, s)
        assert np.array_equal(out, [0, 1, 1, 1])

    @pytest.mark.parametrize("width", range(1, 13))
    def test_involution_exhaustive(self, width):
        rng = np.random.default_rng(width)
        pads = [np.zeros(width, np.uint8), np.ones(width, np.uint8), rng.integers(0, 2, width).astype(np.uint8)]
        for value in range(2**width):
            w = int_to_bits(value, width)
            for s in pads:
                assert np.array_equal(decrypt(encrypt(w, s), s), w)

    def test_uniform_pad_gives_uniform_ciphertext(self):
        rng = np.random.default_rng(0)
        w = int_to_bits(0b1010, 4)
        draws = rng.integers(0, 2, size=(100_000, 4)).astype(np.uint8)
        vals = [bits_to_int(encrypt(w, s)) for s in draws]
        counts = np.bincount(vals, minlength=16)
        assert stats.chisquare(counts).pvalue > 1e-3

    def test_oversized_pad_rejected(self):
        with pytest.raises(ValidationError):
            encrypt(np.zeros(3, np.uint8), np.zeros(4, np.uint8))

    def test_bit_order_little_endian(self):
        assert bits_to_int(np.array([1, 0, 1])) == 5
        assert np.array_equal(int_to_bits(5, 3), [1, 0, 1])


class TestEncode:
    def test_atypical_message_falls_back_to_zero_word(self, trend_spec, trend_aux):
        books = build_trend(trend_spec, trend_aux, 8)
        u = np.zeros(4, dtype=np.int64)  # atypical at delta = 0.6
        k = books.key_types[2].representative
        x = np.zeros(8, dtype=np.int64)
        enc = sim.embed_encode(u, sim.WordSearch(books, x, k))
        assert not enc.input_ok
        assert enc.m == 1 and books.message(u) is None  # the all-zero index, in the clear
        assert not int_to_bits(enc.m - 1, books.sizes.l_bits).any()

    def test_deterministic_channels_find_first_entry(self):
        # V and Y deterministic given (K, X): every bin entry works
        spec = binary_spec(x_size=1, k_probs=(1.0,), lam=0.5, d_cost=[[0.0, 1.0]])
        V = Axis("V", 1)
        vals = np.zeros((1, 1, 1, 2))
        vals[0, 0, 0, 0] = 1.0  # Y constant
        aux = AuxChannel(DistTable([spec.k_axis, spec.x_axis, V, spec.y_axis], vals, given=("K", "X")))
        # H(Y|K) = 0 so the counting constraint needs a zero message rate
        books = build_books(spec, aux, 8, 0.6, 0, 0.5, m2_bits=2, m3_bits=1, j_bits=0)
        search = sim.WordSearch(books, np.zeros(8, np.int64), np.zeros(8, np.int64))
        enc = sim.embed_encode(np.array([0, 1, 0, 1]), search)
        assert enc.search_ok and enc.j == 0 and search.entry(enc.m)[2] == 0  # j' = 0

    def test_search_success_rate_with_ample_bin(self, trend_spec, trend_aux):
        # bin width far above the conditional-information cost: the first-j
        # search should almost always land, among trials where it runs
        # (delta = 0.7 keeps every key type's count boxes feasible)
        books = build_books(
            trend_spec, trend_aux, 12, 0.7, 55, 0.0, m2_bits=5, m3_bits=0, j_bits=4
        )
        agg = sim.run_trials(books, 300, 55)
        ran = succeeded = 0
        for r in agg.results:
            pair = r.k * books.x_size + r.x
            pair_ok = books.kx_box.contains(
                np.bincount(pair, minlength=books.k_size * books.x_size)
            )
            if pair_ok and books.key(r.k) is not None:
                ran += 1
                succeeded += int(r.encode_search_ok)
        assert ran > 150
        assert succeeded / ran >= 0.9

    def test_distortion_certificate_each_trial(self, trend_spec, trend_aux):
        books = build_trend(trend_spec, trend_aux, 8)
        agg = sim.run_trials(books, 400, 91)
        for r in agg.results:
            if r.encode_search_ok:
                assert r.distortion_xy <= agg.distortion_bound + 1e-12


class TestAttack:
    def test_identity(self, trend_spec):
        rng = np.random.default_rng(0)
        y = rng.integers(0, 2, 50)
        z = sim.attack(y, trend_spec, rng.random(y.shape))
        assert np.array_equal(y, z)

    def test_independent_output_matches_marginal(self):
        spec = binary_spec(attack=[[0.3, 0.7], [0.3, 0.7]])
        rng = np.random.default_rng(1)
        y = rng.integers(0, 2, 100_000)
        z = sim.attack(y, spec, rng.random(y.shape))
        counts = np.bincount(z, minlength=2)
        assert stats.chisquare(counts, [30_000, 70_000]).pvalue > 1e-3

    def test_flip_frequency(self):
        spec = binary_spec(attack=[[0.9, 0.1], [0.1, 0.9]])
        rng = np.random.default_rng(2)
        y = rng.integers(0, 2, 100_000)
        z = sim.attack(y, spec, rng.random(y.shape))
        flips = float(np.mean(y != z))
        assert abs(flips - 0.1) < 0.01

    def test_draw_in_normalization_gap_stays_in_range(self):
        # a row may sum to 1 - 5e-13 (within the tables' tolerance); a draw
        # above its cumulative total still picks the last forgery symbol
        top_draws = np.full(3, 1.0 - 1e-13)
        spec = binary_spec(attack=[[1.0, 0.0], [0.5, 0.5 - 5e-13]])
        z = sim.attack(np.array([0, 1, 1]), spec, top_draws)
        assert z.tolist() == [0, 1, 1]

    def test_draw_in_normalization_gap_takes_no_zero_probability_letter(self):
        """A row summing to 1 - 5e-13 is divided by its total, as
        ``Generator.choice`` divides its table, so a uniform of 1 - 1e-13
        above that total draws the row's last letter of positive
        probability, z = 1, not the zero-probability letter 2."""
        top_draws = np.full(3, 1.0 - 1e-13)
        y_axis, z_axis = Axis("Y", 2), Axis("Z", 3)
        spec = dataclasses.replace(
            binary_spec(),
            p_z_given_y=DistTable([y_axis, z_axis], [[1.0, 0.0, 0.0], [0.5, 0.5 - 5e-13, 0.0]], given=("Y",)),
        )
        assert spec.attack_matrix[1].sum() < 1.0 - 1e-13
        z = sim.attack(np.array([0, 1, 1]), spec, top_draws)
        assert z.tolist() == [0, 1, 1]
        cdf = spec.attack_matrix[1].cumsum()
        cdf /= cdf[-1]
        assert z[1] == cdf.searchsorted(1.0 - 1e-13, side="right")

    @pytest.mark.parametrize("attack", [[[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.5, 0.5]]])
    @pytest.mark.parametrize("draw", [0.0, 0.5])
    def test_draw_on_a_cumulative_entry_skips_its_letter(self, attack, draw):
        """A uniform exactly on a cumulative entry takes the next letter, as
        ``Generator.choice`` does (``searchsorted(side="right")``), so no
        letter of zero probability is drawn: the swap attack and the
        ``exact_noisy_n8`` golden's attack under draws of 0.0 and 0.5."""
        spec = binary_spec(attack=attack)
        y = np.array([0, 1, 0, 1])
        z = sim.attack(y, spec, np.full(y.shape, draw))
        cum = spec.attack_matrix.cumsum(axis=1)
        assert z.tolist() == [int(np.searchsorted(cum[letter], draw, side="right")) for letter in y]
        assert (spec.attack_matrix[y, z] > 0).all()


class TestDecode:
    def test_single_bin_always_decodes_that_bin(self):
        # delta = 0.2 keeps only balanced words, where the rate-zero
        # reproduction covers every typical message within n D'
        spec = binary_spec(x_size=1, lam=0.5, d_cost=[[0.0, 1.0]])
        aux = copy_embedder_aux(spec, [0.5, 0.5])
        books = build_books(spec, aux, 8, 0.2, 13, 0.5, m2_bits=3, m3_bits=0, j_bits=0)
        assert books.sizes.bins == 1
        k = books.key_types[0].representative
        enc = sim.embed_encode(np.array([0, 1, 0, 1]), sim.WordSearch(books, np.zeros(8, np.int64), k))
        assert enc.search_ok
        dec = sim.decode(enc.y, k, books)
        assert dec.event == "ok" and dec.bin_index == 1

    def test_scrambled_forgery_declares_no_match(self, trend_spec, trend_aux):
        books = build_trend(trend_spec, trend_aux, 8)
        k = books.key_types[2].representative
        z = np.zeros(8, dtype=np.int64)  # constant word is atypical for V
        dec = sim.decode(z, k, books)
        assert dec.event == "e4"

    def test_roundtrip_exact_when_clean(self, trend_spec, trend_aux):
        books = build_trend(trend_spec, trend_aux, 8)
        agg = sim.run_trials(books, 300, 17)
        clean = [r for r in agg.results if r.error_event == "none"]
        assert clean
        for r in clean:
            assert r.message_correct
            assert r.decoded_bin == r.true_bin
            expect = books.rd_codebook.codewords[r.true_bin - 1 if books.sizes.j_bits == 0 else bits_to_int(
                decrypt(int_to_bits(r.true_bin - 1, books.sizes.l_bits), sw_bits(books, r.k)[: books.sizes.j_bits])
            )]
            assert np.array_equal(r.uhat, expect)


class TestTrials:
    def test_zero_trials_empty_aggregate(self, trend_spec, trend_aux):
        books = build_trend(trend_spec, trend_aux, 8)
        agg = sim.run_trials(books, 0, 1)
        assert agg.trials == 0
        assert agg.message_error_rate == 0.0

    def test_event_partition(self, trend_spec, trend_aux):
        books = build_trend(trend_spec, trend_aux, 8)
        agg = sim.run_trials(books, 250, 23)
        assert sum(agg.event_frequencies.values()) == pytest.approx(1.0, abs=1e-12)

    def test_seed_reproducibility(self, trend_spec, trend_aux):
        books = build_trend(trend_spec, trend_aux, 8)
        a = sim.run_trials(books, 100, 42)
        b = sim.run_trials(books, 100, 42)
        assert a.event_frequencies == b.event_frequencies
        for ra, rb in zip(a.results, b.results):
            assert np.array_equal(ra.y, rb.y) and np.array_equal(ra.z, rb.z)
            assert ra.error_event == rb.error_event

    def test_rebuild_reproducibility(self, trend_spec, trend_aux):
        b1 = build_trend(trend_spec, trend_aux, 8, seed=33)
        b2 = build_trend(trend_spec, trend_aux, 8, seed=33)
        for i in range(len(b1.key_types)):
            assert np.array_equal(b1.aux_book(i), b2.aux_book(i))

    def test_permutation_covariance(self, trend_spec, trend_aux):
        books = build_trend(trend_spec, trend_aux, 12, m2_bits=4)
        rep = books.key_types[1].representative
        rng = np.random.default_rng(7)
        x = np.zeros(12, dtype=np.int64)
        found = 0
        for _ in range(5):
            k_perm = rng.permutation(rep)
            order = np.argsort(k_perm, kind="stable")
            for m in range(1, books.sizes.bins + 1):
                y_rep, ev1, _ = sim.embed_in_bin(books, m, x, rep)
                y_prm, ev2, _ = sim.embed_in_bin(books, m, x, k_perm)
                assert ev1 == ev2
                if ev1 is None:
                    found += 1
                    expected = np.empty(12, dtype=np.int64)
                    expected[order] = y_rep
                    assert np.array_equal(y_prm, expected)
        assert found > 0

    @given(
        seed=st.integers(0, 7),
        m3_bits=st.integers(0, 2),
        draw_seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_permutation_covariance_property(self, seed, m3_bits, draw_seed):
        # a key of the representative's type class sees the representative's
        # codebook through its own positions: with the covertext moved along,
        # the search ends the same way and its word lands on those positions
        books = _covariance_books(seed, m3_bits)
        rng = np.random.default_rng(draw_seed)
        n = books.n
        rep = books.key_types[rng.integers(len(books.key_types))].representative
        x_rep = rng.integers(0, books.x_size, size=n)
        m = int(rng.integers(1, books.sizes.bins + 1))
        k_perm = rng.permutation(rep)
        order = np.argsort(k_perm, kind="stable")
        x_perm = np.empty(n, dtype=np.int64)
        x_perm[order] = x_rep
        y_rep, ev1, _ = sim.embed_in_bin(books, m, x_rep, rep)
        y_prm, ev2, _ = sim.embed_in_bin(books, m, x_perm, k_perm)
        assert ev1 == ev2
        if ev1 is None:
            assert np.array_equal(y_prm[order], y_rep)


@functools.lru_cache(maxsize=None)
def _covariance_books(seed: int, m3_bits: int) -> sim.CodebookSet:
    """An n=12 build with a binary covertext and two or more stegotext words
    per auxiliary word when m3_bits > 0."""
    spec = binary_spec(x_size=2, lam=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return build_books(
            spec, copy_embedder_aux(spec, [0.5, 0.5]), 12, 0.6, seed, 0.0,
            m2_bits=3, m3_bits=m3_bits, j_bits=2,
        )


class TestEquivocation:
    def _exact_spec(self, d_prime, k_probs=(0.5, 0.5), v_probs=(0.5, 0.5), j_bits=0):
        spec = binary_spec(x_size=1, k_probs=k_probs, lam=0.5, d_cost=[[0.0, 1.0]])
        aux = copy_embedder_aux(spec, list(v_probs))
        books = build_books(
            spec, aux, 4, 0.3, 5, d_prime, m2_bits=0, m3_bits=0, j_bits=j_bits
        )
        return spec, aux, books

    def test_single_bin_leaks_nothing(self):
        _, _, books = self._exact_spec(0.5)
        assert books.sizes.bins == 1
        est = sim.estimate_equivocation(books)
        assert est.h_u_given_yz == 1.0  # exactly H(U)

    def test_no_pad_deterministic_embedding_leaks_everything(self):
        _, _, books = self._exact_spec(0.0, k_probs=(1.0,))
        est = sim.estimate_equivocation(books)
        assert est.h_uhat_given_yz == 0.0

    def test_one_time_pad_bin_equivocation(self):
        spec = binary_spec(x_size=1, lam=0.5, d_cost=[[0.0, 1.0]])
        aux = noise_aux(spec, [0.5, 0.5])
        books = build_books(spec, aux, 4, 0.3, 5, 0.125, m2_bits=0, m3_bits=0, j_bits=1)
        assert books.sizes.bins == 2 and books.sizes.j_bits == 1
        est = sim.estimate_equivocation(books)
        assert est.extras["h_bin_given_y_encrypted_path"] == pytest.approx(1.0, abs=1e-9)

    def test_exact_mode_cap(self, trend_spec, trend_aux, monkeypatch):
        books = build_trend(trend_spec, trend_aux, 8)
        monkeypatch.setattr(sim, "DEFAULT_ENUM_CAP", 10)
        with pytest.raises(ResourceCapError):
            sim.estimate_equivocation(books)

    def test_entropy_of_rows_adds_masses_left_to_right(self):
        # 1.0 left to right, but 1.0000000000000002 compensated, as the
        # built-in sum adds from Python 3.12 on; the terms too are added
        # left to right, each row's after the previous row's
        masses = [1.0, 1e-16, 1e-16]
        assert math.fsum(masses) != 1.0
        p_key = 0.0
        for p in masses:
            p_key += p
        want = 0.0
        for p in masses:
            want -= p_key * (p / p_key) * math.log2(p / p_key)
        assert sim._entropy_of_rows(np.array(masses), np.zeros(3, dtype=np.intp)) == want
        rows = [[0.3, 0.0, 0.1], [1e-16], [0.25, 0.5, 1e-16, 0.7]]
        want = 0.0
        for row in rows:
            p_key = 0.0
            for p in row:
                p_key += p
            for p in row:
                if p > 0:
                    want -= p_key * (p / p_key) * math.log2(p / p_key)
        cells = np.repeat(np.arange(len(rows)), [len(row) for row in rows])
        assert sim._entropy_of_rows(np.concatenate(rows), cells) == want
        assert sim._entropy_of_rows(np.zeros(0), np.zeros(0, dtype=np.intp)) == 0.0

    def test_ensemble_average(self):
        spec = binary_spec(x_size=1, lam=0.5, d_cost=[[0.0, 1.0]])
        aux = copy_embedder_aux(spec, [0.5, 0.5])
        builds = [
            build_books(spec, aux, 4, 0.3, s, 0.5, m2_bits=0, m3_bits=0, j_bits=0) for s in (1, 2, 3)
        ]
        ests = [sim.estimate_equivocation(books) for books in builds]
        h_u, _ = sim.ensemble_mean(ests)
        assert h_u == pytest.approx(1.0, abs=1e-12)
        assert len(ests) == 3


class TestAudits:
    def _audit_books(self, seed=21):
        spec = binary_spec(x_size=1, lam=0.2, d_cost=[[0.0, 1.0]])
        aux = copy_embedder_aux(spec, [0.5, 0.5])
        return build_books(spec, aux, 10, 0.2, seed, 0.0, m2_bits=7, m3_bits=0, j_bits=1)

    def test_single_bin_audit_trivial(self):
        spec = binary_spec(x_size=1, lam=0.2, d_cost=[[0.0, 1.0]])
        aux = copy_embedder_aux(spec, [0.5, 0.5])
        books = build_books(spec, aux, 10, 0.2, 3, 0.5, m2_bits=4, m3_bits=0, j_bits=0)
        assert books.sizes.bins == 1
        audit = sim.bin_multiplicity_audit(books, 0.5)
        assert audit.max_bins_per_y == 1 and audit.passed

    def test_multiplicity_within_bound(self):
        audit = sim.bin_multiplicity_audit(self._audit_books(), 0.5)
        assert audit.passed
        assert audit.max_bins_per_y <= audit.bound
        assert audit.max_bins_across_types <= audit.poly_bound_across

    @pytest.mark.parametrize("noisy", [False, True], ids=["two-keys", "noisy-multi-row"])
    def test_bin_counts_match_row_by_row_sets(self, noisy):
        # the audit as first written: a set of bins per stegotext word, filled
        # row by row, within each type and across types
        if noisy:  # one key letter; Y is uniform noise beside V, four rows a book
            spec = binary_spec(x_size=1, k_probs=(1.0,), lam=0.4, d_cost=[[0.0, 1.0]])
            K, X, V, Y = spec.k_axis, spec.x_axis, Axis("V", 2), spec.y_axis
            aux = AuxChannel(DistTable([K, X, V, Y], np.full((1, 1, 2, 2), 0.25), given=("K", "X")))
            books = build_books(spec, aux, 10, 0.6, 1, 0.0, m2_bits=3, m3_bits=2, j_bits=0)
        else:
            books = self._audit_books()
        s = books.sizes
        max_within, across = 0, {}
        for t in range(len(books.key_types)):
            per_y = {}
            stego, built = books.stego_books(t, books.aux_book(t))
            assert built.all()
            for row in range(s.bins * s.m2):
                for y in stego[row]:
                    per_y.setdefault(y.tobytes(), set()).add(row // s.m2 + 1)
                    across.setdefault(y.tobytes(), set()).add((t, row // s.m2 + 1))
            max_within = max(max_within, max(len(b) for b in per_y.values()))
        audit = sim.bin_multiplicity_audit(books, 0.5)
        assert (audit.max_bins_per_y, audit.max_bins_across_types) == (
            max_within,
            max(len(b) for b in across.values()),
        )
        assert type(audit.max_bins_per_y) is int and type(audit.max_bins_across_types) is int

    def test_key_enumeration_cap(self, monkeypatch):
        # a cap one below the build's typical-key count stops the compression audit
        books = self._audit_books()
        n_keys = sum(_multinomial(books.n, t.counts) for t in books.key_types)
        monkeypatch.setattr(sim, "DEFAULT_KEY_ENUM_CAP", n_keys - 1)
        with pytest.raises(ResourceCapError, match=f"{n_keys} typical keys exceed the enumeration cap {n_keys - 1}"):
            sim.compression_audits(books)

    def test_stegotext_audit_cap(self, monkeypatch):
        # a cap one below the build's stegotext word count stops the bin audit
        books = self._audit_books()
        s = books.sizes
        words = len(books.key_types) * s.bins * s.m2 * s.m3
        monkeypatch.setattr(sim, "DEFAULT_STEGO_AUDIT_CAP", words - 1)
        with pytest.raises(ResourceCapError, match=f"audit would scan {words} stegotext words"):
            sim.bin_multiplicity_audit(books, 0.5)

    def test_compression_rate_identity(self):
        comp = sim.compression_audits(self._audit_books())
        assert comp.rate_identity_lhs == pytest.approx(comp.rate_identity_rhs, abs=1e-12)
        assert comp.n_c_bits == self._audit_books().sizes.l_bits + 7 + 0

    def test_compression_bounds_hold(self):
        comp = sim.compression_audits(self._audit_books())
        assert comp.n_c_rate <= comp.private_bound + comp.private_slack_budget + 1e-9
        assert comp.public_distinct_rate <= comp.public_bound + 1e-9
        assert comp.public_distinct_count > 0

    def test_single_key_distinct_rate_below_composite(self):
        spec = binary_spec(x_size=1, k_probs=(1.0,), lam=0.2, d_cost=[[0.0, 1.0]])
        aux = copy_embedder_aux(spec, [0.5, 0.5])
        books = build_books(spec, aux, 10, 0.2, 9, 0.0, m2_bits=5, m3_bits=0, j_bits=0)
        comp = sim.compression_audits(books)
        assert comp.public_distinct_rate <= comp.n_c_rate + 1e-9


class TestDivergenceBound:
    def test_specific_value(self):
        # (n(b-a) - log2 e) 2^{-na} at a=0.2, b=0.5, n=20
        bound = sim.divergence_lower_bound(0.2, 0.5, 20)
        assert bound == pytest.approx((6 - math.log2(math.e)) / 16, abs=1e-7)
        assert bound == pytest.approx(0.2848316, abs=1e-7)

    def test_exact_exceeds_bound_on_grid(self):
        for n in (5, 10, 20, 50):
            for a in np.linspace(0.05, 0.8, 6):
                for b in np.linspace(a + 0.05, 1.0, 5):
                    exact = sim.binary_divergence_exact(2.0 ** (-n * a), 2.0 ** (-n * b))
                    assert exact >= sim.divergence_lower_bound(float(a), float(b), n) - 1e-15

    def test_invalid_order_rejected(self):
        with pytest.raises(ValidationError):
            sim.divergence_lower_bound(0.5, 0.2, 10)
        with pytest.raises(ValidationError):
            sim.divergence_lower_bound(0.5, 0.5, 10)

    def test_exact_divergence_nonnegative_and_zero_at_equality(self):
        assert sim.binary_divergence_exact(0.3, 0.3) == pytest.approx(0.0, abs=1e-15)
        assert sim.binary_divergence_exact(1e-9, 0.5) > 0


class TestInputAtypicality:
    def test_exact_matches_monte_carlo(self, trend_spec):
        p = sim.input_atypicality_probability(trend_spec, 200, 0.2)
        f = sim.input_atypicality_frequency(trend_spec, 200, 0.2, trials=2000, seed=3)
        assert abs(p - f) < 0.03

    def test_oracle_against_binomial_tail(self, trend_spec):
        # degenerate covertext: the pair test reduces to the key marginal
        n, delta = 2000, 0.05
        p = sim.input_atypicality_probability(trend_spec, n, delta)
        binom_n = stats.binom(n, 0.5)
        lo = math.ceil((1 - delta) * 0.5 * n)
        hi = math.floor((1 + delta) * 0.5 * n)
        pk = float(binom_n.cdf(hi) - binom_n.cdf(lo - 1))
        m = n // 2
        binom_m = stats.binom(m, 0.5)
        lo_u = math.ceil((1 - delta) * 0.5 * m)
        hi_u = math.floor((1 + delta) * 0.5 * m)
        pu = float(binom_m.cdf(hi_u) - binom_m.cdf(lo_u - 1))
        assert p == pytest.approx(1 - pk * pu, rel=1e-9)

    def test_frequency_is_the_trials_share_of_atypical_inputs(self):
        # a skewed covertext beside a uniform key, so a draw in (K, X) cell
        # order would give other words than the trials' (X, K) order
        spec = binary_spec(x_size=2, x_probs=(0.25, 0.75), lam=0.5)
        books = build_books(
            spec, copy_embedder_aux(spec, [0.5, 0.5]), 12, 0.6, 4, 0.0, m2_bits=2, m3_bits=0, j_bits=1
        )
        agg = sim.run_trials(books, 200, 5)
        share = sum(r.error_event in ("e1", "encode_fallback") for r in agg.results) / 200
        assert 0 < share < 1
        assert sim.input_atypicality_frequency(spec, 12, 0.6, trials=200, seed=5) == share

    @pytest.mark.parametrize("n", [3, 1])  # lambda n = 1.5 and 0.5
    def test_frequency_validates_message_length_like_the_oracle(self, trend_spec, n):
        with pytest.raises(ValidationError, match="lambda"):
            sim.input_atypicality_probability(trend_spec, n, 0.5)
        with pytest.raises(ValidationError, match="lambda"):
            sim.input_atypicality_frequency(trend_spec, n, 0.5, trials=10, seed=0)


@st.composite
def _box_cases(draw, value_letters=None):
    """A book over one axis of a cell grid, each position's context on the
    other axes, and a count box around one row's counts; the value axis
    has ``value_letters`` letters when given."""
    shape = list(draw(st.lists(st.integers(1, 3), min_size=2, max_size=4)))
    value_axis = draw(st.integers(0, len(shape) - 1))
    if value_letters is not None:
        shape[value_axis] = value_letters
    shape = tuple(shape)
    n = draw(st.integers(1, 12))
    rows = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    book = rng.integers(0, shape[value_axis], size=(rows, n))
    others = [s for i, s in enumerate(shape) if i != value_axis]
    ctx_idx = [rng.integers(0, s, size=n) for s in others]
    ref_cells = _reference_cells(book, ctx_idx, shape, value_axis)
    counts = np.bincount(ref_cells[0], minlength=math.prod(shape))
    lo = counts - rng.integers(0, 3, size=counts.size)
    hi = counts + rng.integers(-1, 3, size=counts.size)
    return book, ctx_idx, shape, value_axis, CountBox(lo, hi, n)


def _reference_cells(book, ctx_idx, shape, value_axis):
    """The row-major cell of every (row, position) of the book."""
    idx = [c[None, :] for c in ctx_idx]
    idx.insert(value_axis, book)
    return np.ravel_multi_index(tuple(np.broadcast_arrays(*idx)), shape)


class TestBoxCountKernel:
    @given(_box_cases())
    @settings(max_examples=200, deadline=None)
    def test_matches_add_at_reference(self, case):
        self._check(case)

    @pytest.mark.parametrize("value_letters", [1, 2, 3])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_value_alphabets_of_one_to_three_letters(self, value_letters, data):
        """The last value letter's count is derived from the context's
        position count, so a one-letter value alphabet reads no letter
        masks at all."""
        self._check(data.draw(_box_cases(value_letters)))

    @staticmethod
    def _check(case):
        book, ctx_idx, shape, value_axis, box = case
        cells = _reference_cells(book, ctx_idx, shape, value_axis)
        counts = np.zeros((book.shape[0], math.prod(shape)), dtype=np.int64)
        np.add.at(counts, (np.arange(book.shape[0])[:, None], cells), 1)
        expected = (counts >= box.lo).all(axis=1) & (counts <= box.hi).all(axis=1)
        others = [s for i, s in enumerate(shape) if i != value_axis]
        context = np.ravel_multi_index(tuple(ctx_idx), others)
        got = sim._rows_in_boxes(
            sim._letter_masks(book, shape[value_axis]), context[None], sim._cell_bounds(box, shape, value_axis)
        )[0]
        assert got.dtype == bool
        assert np.array_equal(got, expected)


@st.composite
def _batched_box_cases(draw, value_letters=None):
    """A book of near-copies of one word over one axis of a cell grid, a few
    near-copies of one context word over the other axes, and a count box
    around the first row's counts against the first context; n runs up to
    200, so the masks run to 25 bytes.  The value axis has
    ``value_letters`` letters when given."""
    shape = list(draw(st.lists(st.integers(1, 3), min_size=2, max_size=4)))
    value_axis = draw(st.integers(0, len(shape) - 1))
    if value_letters is not None:
        shape[value_axis] = value_letters
    shape = tuple(shape)
    n = draw(st.integers(1, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    others = [s for i, s in enumerate(shape) if i != value_axis]

    def near_copies(word, sizes, copies):
        out = np.repeat(word[None], copies, axis=0)
        for row in out[1:]:
            pos = rng.integers(0, n, size=rng.integers(0, 3))
            row[pos] = rng.integers(0, sizes, size=pos.size)
        return out

    book = near_copies(rng.integers(0, shape[value_axis], size=n), shape[value_axis], draw(st.integers(1, 30)))
    ctx_words = near_copies(
        np.ravel_multi_index(tuple(rng.integers(0, s, size=n) for s in others), others),
        math.prod(others),
        draw(st.integers(1, 5)),
    )
    ctx_idx = np.unravel_index(ctx_words[0], others)
    counts = np.bincount(_reference_cells(book, ctx_idx, shape, value_axis)[0], minlength=math.prod(shape))
    lo = counts - rng.integers(0, 3, size=counts.size)
    hi = counts + rng.integers(0, 3, size=counts.size)
    if draw(st.booleans()):  # an upper bound below the first row's count
        hi[rng.integers(counts.size)] -= 3
    return book, ctx_words, shape, value_axis, CountBox(lo, hi, n)


def _in_box_reference(book, ctx_idx, shape, value_axis, box):
    """Which book rows have their cell counts in the box, by np.add.at."""
    cells = _reference_cells(book, ctx_idx, shape, value_axis)
    counts = np.zeros((book.shape[0], math.prod(shape)), dtype=np.int64)
    np.add.at(counts, (np.arange(book.shape[0])[:, None], cells), 1)
    return (counts >= box.lo).all(axis=1) & (counts <= box.hi).all(axis=1)


class TestBatchedBoxKernel:
    @given(_batched_box_cases())
    @settings(max_examples=200, deadline=None)
    def test_matches_single_calls_and_add_at_reference(self, case):
        self._check(case)

    @pytest.mark.parametrize("value_letters", [1, 2, 3])
    @given(data=st.data(), one_context_chunks=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_value_alphabets_of_one_to_three_letters(self, value_letters, data, one_context_chunks):
        """With kernel chunks of one context each or the default ones."""
        case = data.draw(_batched_box_cases(value_letters))
        with mock.patch.object(sim, "_BOX_CHUNK_BYTES", 1 if one_context_chunks else sim._BOX_CHUNK_BYTES):
            self._check(case)

    @staticmethod
    def _check(case):
        book, ctx_words, shape, value_axis, box = case
        others = [s for i, s in enumerate(shape) if i != value_axis]
        bounds = sim._cell_bounds(box, shape, value_axis)
        masks = sim._letter_masks(book, shape[value_axis])
        got = sim._rows_in_boxes(masks, ctx_words, bounds)
        assert got.dtype == bool and got.shape == (len(ctx_words), len(book))
        # the paired form: context i against its own book, here the book rolled by i rows
        rolled = np.stack([np.roll(book, i, axis=0) for i in range(len(ctx_words))])
        paired = sim._rows_in_boxes(sim._letter_masks(rolled, shape[value_axis]), ctx_words, bounds)
        assert paired.dtype == bool and paired.shape == got.shape
        for i, (context, row) in enumerate(zip(ctx_words, got)):
            assert np.array_equal(row, sim._rows_in_boxes(masks, context[None], bounds)[0])
            expected = _in_box_reference(book, np.unravel_index(context, others), shape, value_axis, box)
            assert np.array_equal(row, expected)
            assert np.array_equal(paired[i], np.roll(expected, i))

    def test_masks_are_built_with_the_book(self, trend_spec, trend_aux):
        books = build_trend(trend_spec, trend_aux, 8)
        for t in range(len(books.key_types)):
            book = books.aux_book(t)
            assert np.array_equal(books.aux_masks(t), sim._letter_masks(book, books.v_size))
            assert books.aux_masks(t).dtype == np.uint8
            assert books.aux_masks(t).shape == (1, books.v_size, len(book))  # n=8 fits one byte


@functools.lru_cache(maxsize=None)
def _decode_books(seed: int, n: int, m2_bits: int) -> sim.CodebookSet:
    spec = binary_spec(x_size=1, lam=0.5, d_cost=[[0.0, 1.0]])
    return build_books(
        spec, copy_embedder_aux(spec, [0.5, 0.5]), n, 0.6, seed, 0.0,
        m2_bits=m2_bits, m3_bits=0, j_bits=2,
    )


def _reference_decode(z, k, books):
    """(event, bin, typical rows, uhat) of one forged word, from the whole
    auxiliary book's (k, v, z) counts by np.add.at: the rows are the flat
    indices (m - 1) * M_2 + j of the book's rows in the box, ascending."""
    ktp = reference_key(books, k)
    if ktp is None:
        return "e4", None, (), None
    t, order, pad = ktp
    rep = books.key_types[t].representative
    book = books.aux_book(t)
    cells = (rep * books.v_size + book) * books.z_size + z[order]
    counts = np.zeros((len(book), books.k_size * books.v_size * books.z_size), dtype=np.int64)
    np.add.at(counts, (np.arange(len(book))[:, None], cells), 1)
    hits = np.flatnonzero((counts >= books.kvz_box.lo).all(axis=1) & (counts <= books.kvz_box.hi).all(axis=1))
    rows = tuple(hits.tolist())
    bins = tuple(sorted({h // books.sizes.m2 + 1 for h in rows}))
    if not bins:
        return "e4", None, rows, None
    if len(bins) > 1:
        return "e5", None, rows, None
    w = decrypt(int_to_bits(bins[0] - 1, books.sizes.l_bits), int_to_bits(pad, books.sizes.j_bits))
    return "ok", bins[0], rows, books.rd_codebook.codewords[bits_to_int(w)]


def _decode_fields(d):
    return d.event, d.bin_index, d.rows, None if d.uhat is None else d.uhat.tolist()


def _assert_rows(dec, books):
    """A decode's typical rows are ascending distinct flat indices of the
    auxiliary book, as ints, and the bins they lie in are the ones its
    event and bin read: none is e4, more than one e5."""
    rows, m2 = dec.rows, books.sizes.m2
    assert type(rows) is tuple and all(type(r) is int for r in rows)
    assert list(rows) == sorted(set(rows)) and all(0 <= r < books.sizes.bins * m2 for r in rows)
    bins = sorted({r // m2 + 1 for r in rows})
    assert dec.event == ("e4" if not bins else "ok" if len(bins) == 1 else "e5")
    assert dec.bin_index == (bins[0] if len(bins) == 1 else None)


def _decode_rows(z_rows, k_rows, books):
    """``_decode_fields`` of one ``decode`` per row, each checked to keep
    its typical rows, whose bins are the ones found (``_assert_rows``)."""
    out = []
    for z, k in zip(z_rows, k_rows):
        dec = sim.decode(z, k, books)
        _assert_rows(dec, books)
        assert dec.uhat is None or (dec.uhat.dtype == np.int64 and dec.uhat.shape == (books.n_message,))
        out.append(_decode_fields(dec))
    return out


class TestDecodeMany:
    """One-word ``decode`` over many forged words, against the whole-book
    ``np.add.at`` recount."""

    @given(
        seed=st.integers(0, 3),
        n=st.sampled_from([8, 12]),
        m2_bits=st.integers(0, 4),
        key_kind=st.sampled_from(["typical", "atypical", "per_row"]),
        one_word_chunks=st.booleans(),
        draw_seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_per_word_decode_and_reference(
        self, seed, n, m2_bits, key_kind, one_word_chunks, draw_seed
    ):
        """One key for every row, or a key per row of several types, some
        atypical; with one-word kernel chunks or the default ones."""
        books = _decode_books(seed, n, m2_bits)
        rng = np.random.default_rng(draw_seed)
        rows = int(rng.integers(1, 12))

        def typical_key():
            return rng.permutation(books.key_types[rng.integers(len(books.key_types))].representative)

        if key_kind == "typical":
            k_rows = np.repeat(typical_key()[None], rows, axis=0)
        elif key_kind == "atypical":
            k_rows = np.zeros((rows, n), dtype=np.int64)
        else:
            k_rows = np.stack([typical_key() if rng.random() < 0.8 else np.zeros(n, dtype=np.int64)
                               for _ in range(rows)])
        # encoded words (which decode, or fall in several bins) and random ones
        z_rows = rng.integers(0, 2, size=(rows, n))
        for row, k in zip(z_rows[::2], k_rows[::2]):
            u = rng.integers(0, 2, size=books.n_message)
            row[:] = sim.embed_encode(u, sim.WordSearch(books, np.zeros(n, dtype=np.int64), k)).y
        with mock.patch.object(sim, "_BOX_CHUNK_BYTES", 1 if one_word_chunks else sim._BOX_CHUNK_BYTES):
            decoded = _decode_rows(z_rows, k_rows, books)
        assert len(decoded) == len(z_rows)
        for z, k, got in zip(z_rows, k_rows, decoded):
            event, bin_index, rows, uhat = _reference_decode(z, k, books)
            assert got == (event, bin_index, rows, None if uhat is None else uhat.tolist())

    def test_batch_covers_every_event(self):
        books = _decode_books(0, 8, 2)
        rng = np.random.default_rng(3)
        k = books.key_types[1].representative
        z_rows = rng.integers(0, 2, size=(200, 8))
        decoded = _decode_rows(z_rows, np.repeat(k[None], 200, axis=0), books)
        assert {event for event, *_ in decoded} == {"ok", "e4", "e5"}
        expected = [_reference_decode(z, k, books) for z in z_rows]
        assert decoded == [(e, b, rows, None if uhat is None else uhat.tolist()) for e, b, rows, uhat in expected]


class TestOneBin:
    """``_one_bin``, the decoded bin of ``decode`` and of the exact
    enumeration, against the two rules it replaced."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_decoders_and_the_enumerations_rules(self, data):
        m2 = data.draw(st.integers(1, 64))
        bins = data.draw(st.integers(1, 16))
        rows = tuple(sorted(data.draw(st.sets(st.integers(0, bins * m2 - 1), max_size=3 * m2))))
        # decode's: each bin with a typical row, the one bin when exactly one is found
        found = tuple(dict.fromkeys(r // m2 + 1 for r in rows))
        by_decode = found[0] if len(found) == 1 else None
        # the enumeration's: the first row's bin when the last row lies in it, else 0
        by_enumeration = rows[0] // m2 + 1 if rows and rows[0] // m2 == rows[-1] // m2 else 0
        assert sim._one_bin(rows, m2) == by_decode == (by_enumeration or None)


@functools.lru_cache(maxsize=None)
def _pad_books(width: str) -> sim.CodebookSet:
    """A small build with no pad, or with a pad as wide as the message index."""
    spec = binary_spec(x_size=1, lam=0.5, d_cost=[[0.0, 1.0]])
    aux = copy_embedder_aux(spec, [0.5, 0.5])
    books = build_books(spec, aux, 8, 0.6, 2, 0.0, m2_bits=2, m3_bits=0, j_bits=0)
    if width == "full":
        books = build_books(
            spec, aux, 8, 0.6, 2, 0.0, m2_bits=2, m3_bits=0, j_bits=books.sizes.l_bits
        )
    return books


def _typical_keys(books):
    return [np.array(w, dtype=np.int64) for t in books.key_types for w in multiset_perms(t.counts)]


class TestPad:
    """The key's pad as one integer, against its bits and the bit-level
    ``decrypt``."""

    @pytest.mark.parametrize("width", ["zero", "full"])
    def test_pad_is_the_integer_of_its_drawn_bits(self, width):
        books = _pad_books(width)
        j_bits = books.sizes.j_bits
        assert j_bits == (0 if width == "zero" else books.sizes.l_bits) and books.sizes.l_bits > 0
        keys = _typical_keys(books)
        for k in keys:
            drawn = np.random.default_rng(
                np.random.SeedSequence((books.seed, sim._SW_TAG, *k.tolist()))
            ).integers(0, 2, size=j_bits, dtype=np.uint8)
            assert np.array_equal(sw_bits(books, k), drawn) and sw_bits(books, k).dtype == np.uint8
            assert books.key(k).pad == bits_to_int(sw_bits(books, k))
            assert 0 <= books.key(k).pad < 1 << j_bits
        if width == "full":  # the pads differ across keys
            assert len({books.key(k).pad for k in keys}) > 1

    def test_pad_reads_the_generators_bits(self):
        """``_key_pads`` builds no stream object, yet each pad's bits are
        exactly those ``Generator.integers(0, 2, size=J, dtype=np.uint8)``
        draws on the key's stream, the derivation the pads were first
        written with, for J = 0 ... 64 on random keys and seeds, several
        keys of one length at once."""
        rng = np.random.default_rng(64)
        for j_bits in range(65):
            for _ in range(10):
                ks = rng.integers(0, 3, size=(4, int(rng.integers(1, 17))))
                seed = int(rng.integers(0, 2**40))
                want = []
                for k in ks:
                    stream = np.random.SeedSequence((seed, sim._SW_TAG, k.astype(np.uint32)))
                    bits = np.random.default_rng(stream).integers(0, 2, size=j_bits, dtype=np.uint8)
                    want.append(sum(int(b) << i for i, b in enumerate(bits)))
                with _counting_seed_sequences() as made:
                    assert sim._key_pads(seed, ks, j_bits) == want
                assert not made

    @pytest.mark.parametrize("width", ["zero", "full"])
    def test_keys_derive_their_pads_in_one_pass(self, width, monkeypatch):
        """``CodebookSet.keys`` derives the pads of a stack's new typical
        keys by one stream pass, builds no ``SeedSequence``, and a J = 0
        build derives no stream at all."""
        books = sim.build_codebooks(_pad_books(width).design, 2)  # its key cache empty
        passes, raw_words = [], sim._raw_words

        def counting(entropy, count):
            passes.append(len(entropy))
            return raw_words(entropy, count)

        monkeypatch.setattr(sim, "_raw_words", counting)
        keys = np.array(_typical_keys(books))
        with _counting_seed_sequences() as made:
            records = books.keys(np.concatenate([keys, np.zeros((1, books.n), dtype=np.int64)]))
        assert not made and records[-1] is None and all(records[:-1])
        assert passes == ([] if width == "zero" else [len(keys)])

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_integer_pad_xor_is_an_involution(self, data):
        """The encoder's bin (index XOR pad) + 1 and the decoder's map back
        to (bin - 1) XOR pad at message widths L up to 40 and pad widths
        J <= L, against the bit-level ``encrypt`` and ``decrypt``."""
        l_bits = data.draw(st.integers(0, 40))
        j_bits = data.draw(st.integers(0, l_bits))
        w = data.draw(st.integers(0, (1 << l_bits) - 1))
        pad = data.draw(st.integers(0, (1 << j_bits) - 1))
        # the search of a typical key with this pad; bin_of reads no codebook
        search = sim.WordSearch.__new__(sim.WordSearch)
        search.key = sim.Key(0, None, pad)
        m = search.bin_of(w)
        assert 1 <= m <= 1 << l_bits
        assert sim._sent_index(m, pad) == w
        w_bits, s_bits = int_to_bits(w, l_bits), int_to_bits(pad, j_bits)
        assert bits_to_int(encrypt(w_bits, s_bits)) == w ^ pad == m - 1
        assert np.array_equal(decrypt(encrypt(w_bits, s_bits), s_bits), w_bits)

    @pytest.mark.parametrize("width", ["zero", "full"])
    def test_decode_many_matches_bit_level_decrypt(self, width):
        books = _pad_books(width)
        rng = np.random.default_rng(5)
        keys = _typical_keys(books)
        for k in [keys[i] for i in rng.choice(len(keys), size=8, replace=False)]:
            z_rows = rng.integers(0, 2, size=(24, books.n))
            for row in z_rows[::2]:  # encoded words, which mostly decode
                u = rng.integers(0, 2, size=books.n_message)
                row[:] = sim.embed_encode(u, sim.WordSearch(books, np.zeros(books.n, dtype=np.int64), k)).y
            decoded = _decode_rows(z_rows, np.repeat(k[None], len(z_rows), axis=0), books)
            expected = [_reference_decode(z, k, books) for z in z_rows]
            assert decoded == [
                (e, b, rows, None if uhat is None else uhat.tolist()) for e, b, rows, uhat in expected
            ]
            assert any(event == "ok" for event, *_ in decoded)


def _entropy_of_table(table: dict) -> float:
    """``sim._entropy_of_rows`` of nested dicts of masses by row, then by
    outcome, rows and outcomes in insertion order."""
    masses = [p for outcomes in table.values() for p in outcomes.values()]
    rows = [i for i, outcomes in enumerate(table.values()) for _ in outcomes]
    return sim._entropy_of_rows(np.array(masses, dtype=float), np.array(rows, dtype=np.intp))


def _per_state_enumeration(codebooks):
    """The extras of ``estimate_equivocation``'s exact enumeration as the
    per-state loop computed them before the decode was batched per key word:
    one encode and, behind a (key, forged word) cache, one decode per state."""
    spec = codebooks.spec
    n, n_msg = codebooks.n, codebooks.n_message
    u_size = spec.u_axis.size
    xk_size = spec.x_axis.size * spec.k_axis.size
    identity_attack = spec.has_identity_attack()
    pu = spec.p_u.values
    pxk = spec.p_xk.values
    att = spec.p_z_given_y.conditional_matrix((spec.y_axis.name,), (spec.z_axis.name,))

    def words(size, length):
        idx = np.zeros(length, dtype=np.int64)
        while True:
            yield idx.copy()
            for pos in range(length - 1, -1, -1):
                idx[pos] += 1
                if idx[pos] < size:
                    break
                idx[pos] = 0
            else:
                return

    u_words = [(u, float(np.prod(pu[u]))) for u in words(u_size, n_msg)]
    u_rows, uhat_rows, bin_rows, bin_rows_enc = {}, {}, {}, {}
    enc_path_prob = 0.0
    decode_cache = {}
    for xk in words(xk_size, n):
        x = xk // spec.k_axis.size
        k = xk % spec.k_axis.size
        p_xk_word = float(np.prod(pxk[x, k]))
        if p_xk_word == 0.0:
            continue
        k_typical = reference_key(codebooks, k) is not None
        for u, p_u_word in u_words:
            p_word = p_u_word * p_xk_word
            if p_word == 0.0:
                continue
            enc = sim.embed_encode(u, sim.WordSearch(codebooks, x, k))
            if identity_attack:
                z_iter = [(enc.y, 1.0)]
            else:
                z_iter = []
                for z in words(spec.z_axis.size, n):
                    pz = float(np.prod(att[enc.y, z]))
                    if pz > 0:
                        z_iter.append((z.copy(), pz))
            u_on_path = k_typical and codebooks.u_box.contains(np.bincount(u, minlength=u_size))
            if u_on_path:
                enc_path_prob += p_word
            for z, pz in z_iter:
                p = p_word * pz
                key = enc.y.tobytes() + z.tobytes()
                u_rows.setdefault(key, {}).setdefault(u.tobytes(), 0.0)
                u_rows[key][u.tobytes()] += p
                dkey = k.tobytes() + z.tobytes()
                if dkey not in decode_cache:
                    dec = sim.decode(z, k, codebooks)
                    decode_cache[dkey] = dec.uhat.tobytes() if dec.uhat is not None else b"err"
                uh = decode_cache[dkey]
                uhat_rows.setdefault(key, {}).setdefault(uh, 0.0)
                uhat_rows[key][uh] += p
                ykey = enc.y.tobytes()
                bin_rows.setdefault(ykey, {}).setdefault(enc.m, 0.0)
                bin_rows[ykey][enc.m] += p
                if u_on_path:
                    bin_rows_enc.setdefault(ykey, {}).setdefault(enc.m, 0.0)
                    bin_rows_enc[ykey][enc.m] += p

    h_bin_enc = _entropy_of_table(bin_rows_enc)
    return {
        "h_u_given_yz_bits": _entropy_of_table(u_rows),
        "h_uhat_given_yz_bits": _entropy_of_table(uhat_rows),
        "h_bin_given_y": _entropy_of_table(bin_rows),
        "h_bin_given_y_encrypted_path": (h_bin_enc / enc_path_prob) if enc_path_prob > 0 else 0.0,
        "encrypted_path_probability": enc_path_prob,
    }


@st.composite
def _enumeration_cases(draw):
    """A small binary system at n=4 with a random binary attack channel
    (often noisy) and message source, and one codebook draw for it.  Uneven
    probabilities make the float sums depend on their order."""
    flip = st.sampled_from([0.0, 0.1, 0.3, 0.5])
    a, b = draw(flip), draw(flip)
    x_probs = draw(st.sampled_from([(1.0,), (0.5, 0.5), (0.4, 0.6)]))
    spec = dataclasses.replace(
        binary_spec(
            x_size=len(x_probs),
            x_probs=x_probs,
            k_probs=draw(st.sampled_from([(0.5, 0.5), (1.0,)])),
            lam=0.5,
            attack=[[1.0 - a, a], [b, 1.0 - b]],
        ),
        p_u=DistTable([Axis("U", 2)], draw(st.sampled_from([[0.5, 0.5], [0.4, 0.6]]))),
    )
    aux = draw(st.sampled_from([
        copy_embedder_aux(spec, [0.5, 0.5]),
        copy_embedder_aux(spec, [0.25, 0.75]),
        noise_aux(spec, [0.5, 0.5]),
    ]))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return build_books(
                spec, aux, 4, draw(st.sampled_from([0.3, 0.6])), draw(st.integers(0, 2**16)),
                draw(st.sampled_from([0.0, 0.25])),
                m2_bits=draw(st.integers(0, 2)), m3_bits=draw(st.integers(0, 1)),
                j_bits=draw(st.integers(0, 1)),
            )
    except (EmptyTypicalSetError, InfeasibleError, ValidationError):
        assume(False)


def _demo_books(n):
    """The benchmark's demo build at n: ``m2_bits=5, m3_bits=0, j_bits=4``,
    build seed 10000."""
    spec = load_system(yaml.safe_load((CONFIGS / "demo_system.yaml").read_text())).spec
    aux, _ = load_aux(yaml.safe_load((CONFIGS / "demo_aux.yaml").read_text()), spec)
    return build_books(spec, aux, n, 0.6, 10000, 0.0, m2_bits=5, m3_bits=0, j_bits=4)


class TestBatchedEnumeration:
    @given(_enumeration_cases())
    @settings(max_examples=25, deadline=None)
    def test_matches_per_state_loop_bit_for_bit(self, books):
        expected = _per_state_enumeration(books)
        est = sim.estimate_equivocation(books)
        assert est.extras == expected
        assert est.h_u_given_yz == est.extras["h_u_given_yz_bits"] / books.n_message

    @given(_enumeration_cases())
    @settings(max_examples=15, deadline=None)
    def test_message_cache_smaller_than_the_message_words(self, books):
        """With a two-entry message cache, the enumeration over four message
        words recomputes the indices the cache dropped, ``rd_encode``
        encoding at most two words a state (its bin request and its encode),
        and sums the same."""
        expected = _per_state_enumeration(books)
        books._messages = sim._LruCache(2)
        with (
            mock.patch.object(sim, "rd_encode", wraps=sim.rd_encode) as rd_encode,
            mock.patch.object(sim, "embed_encode", wraps=sim.embed_encode) as encode,
        ):
            est = sim.estimate_equivocation(books)
        assert est.extras == expected
        assert books.spec.u_axis.size ** books.n_message == 4 and len(books._messages) <= 2
        assert _rd_encoded_words(rd_encode) <= 2 * encode.call_count

    def test_rd_encode_once_a_state_and_once_a_message_word(self, monkeypatch):
        """The benchmark's n=8 enumeration of the demo system, with
        two-entry caches: the 16 message words are resolved once, as one
        stack, for the bin requests and the on-path flags, and each state's
        encode looks its word up once more, so ``rd_encode`` encodes at most
        one word a state plus each message word once (6,916 words over 4,096
        states when the requests and the flags looked the words up again)."""
        monkeypatch.setattr(sim, "_WORD_CACHE_ENTRIES", 2)
        books = _demo_books(8)
        with (
            mock.patch.object(sim, "rd_encode", wraps=sim.rd_encode) as rd_encode,
            mock.patch.object(sim, "embed_encode", wraps=sim.embed_encode) as encode,
        ):
            sim.estimate_equivocation(books)
        message_words = books.spec.u_axis.size**books.n_message
        assert (message_words, encode.call_count) == (16, 4096)
        assert _rd_encoded_words(rd_encode) <= encode.call_count + message_words


def _rd_encoded_words(rd_encode) -> int:
    """The message words a wrapped ``rd_encode`` encoded over its calls, a
    stack counting its rows."""
    return sum(1 if np.ndim(call.args[0]) == 1 else len(call.args[0]) for call in rd_encode.call_args_list)


def _recorded_box_tests(books, monkeypatch):
    """Run the enumeration of ``books`` recording its encodes and decode
    box tests; returns the (x, k) word encoded last before each box test,
    with the key type tested, each box-tested (key type, frame word) pair,
    and every forged word of positive probability under a typical key, in
    its type's frame."""
    encoded, tested, callers = [], [], []
    encode, typical_in_frame = sim.embed_encode, sim._typical_in_frame

    def recorded_encode(u, search):
        enc = encode(u, search)
        encoded.append((search, enc.y))
        return enc

    def recorded_test(codebooks, type_idx, z_reps):
        assert len(z_reps) > 0
        search = encoded[-1][0]  # the word whose states were encoded last
        callers.append((search.x.tobytes(), search.k.tobytes(), type_idx))
        tested.extend((type_idx, z.tobytes()) for z in z_reps)
        return typical_in_frame(codebooks, type_idx, z_reps)

    with monkeypatch.context() as patch:
        patch.setattr(sim, "embed_encode", recorded_encode)
        patch.setattr(sim, "_typical_in_frame", recorded_test)
        sim.estimate_equivocation(books)
    att = books.spec.attack_matrix
    z_all = np.indices((books.z_size,) * books.n).reshape(books.n, -1).T
    wanted = set()
    for search, y in encoded:
        if search.key is not None:
            forged = z_all[np.prod(att[y, z_all], axis=1) > 0][:, search.key.order]
            wanted.update((search.key.type_idx, z.tobytes()) for z in forged.astype(books._z_dtype))
    return callers, tested, wanted


class TestOnePassEnumeration:
    """The enumeration finishes each chunk of (x, k) words in turn, with at
    most one decode box test per key type, of the forged words the build's
    decode memo lacks: no box test is of zero words, and each (key type,
    forged word in the type's frame) is box-tested exactly once per build,
    by the trials or by the enumeration."""

    @pytest.mark.parametrize("system, word_chunk", [("demo", None), ("demo", 1), ("noisy", None)])
    def test_each_frame_word_reaches_the_box_test_once(self, system, word_chunk, monkeypatch):
        books = _demo_books(8) if system == "demo" else _noisy_n8_books(5)
        if word_chunk is not None:
            monkeypatch.setattr(sim, "_WORD_CHUNK", word_chunk)
        callers, tested, wanted = _recorded_box_tests(books, monkeypatch)
        assert 0 < len(callers) == len(set(callers))
        assert len(tested) == len(set(tested)) and set(tested) == wanted

    @pytest.mark.parametrize("system", ["demo", "noisy"])
    def test_trials_first_share_the_box_tests(self, system, monkeypatch):
        """Trials run first on the same build leave the enumeration only
        the frame words they did not decode."""
        books = _demo_books(8) if system == "demo" else _noisy_n8_books(5)
        by_trials = []
        typical_in_frame = sim._typical_in_frame

        def recorded_test(codebooks, type_idx, z_reps):
            by_trials.extend((type_idx, z.tobytes()) for z in z_reps)
            return typical_in_frame(codebooks, type_idx, z_reps)

        with monkeypatch.context() as patch:
            patch.setattr(sim, "_typical_in_frame", recorded_test)
            sim.run_trials(books, 100, 3)
        callers, tested, wanted = _recorded_box_tests(books, monkeypatch)
        assert len(by_trials) == len(set(by_trials)) and set(by_trials) & wanted
        assert 0 < len(callers) == len(set(callers))
        assert len(tested) == len(set(tested)) and set(tested) == wanted - set(by_trials)


def _noisy_n8_books(seed):
    """The ``exact_noisy_n8`` golden's build, at build seed ``seed``."""
    spec = load_system(NOISY_SYSTEM).spec
    aux, _ = load_aux(NOISY_AUX, spec)
    return build_books(spec, aux, 8, 0.6, seed, 0.0, m2_bits=3, m3_bits=1, j_bits=1)


def _recounted_trial_event(books, r):
    """Trial record r's event as ``run_trials`` classified it before the
    decoder's typical rows decided e4: e2 and e3 from the one-bin search,
    the sent auxiliary word's (k, v, z) cells recounted against the box,
    and e5 from the reference decoder."""
    enc = sim.embed_encode(r.u, sim.WordSearch(books, r.x, r.k))
    assert np.array_equal(enc.y, r.y) and enc.m == r.true_bin
    if not enc.input_ok:
        return "e1" if enc.search_ok else "encode_fallback"
    _, event, details = sim.embed_in_bin(books, enc.m, r.x, r.k)
    assert details.get("j") == enc.j and (event is None) == enc.search_ok
    if event is not None:
        return event
    rep = books.key_types[details["type_idx"]].representative
    cells = (rep * books.v_size + details["v_rep"]) * books.z_size + r.z[details["order"]]
    if not books.kvz_box.contains(np.bincount(cells, minlength=books.k_size * books.v_size * books.z_size)):
        return "e4"
    _, _, rows, _ = _reference_decode(r.z, r.k, books)
    return "e5" if len({row // books.sizes.m2 for row in rows}) > 1 else "none"


def _trial_fields(agg):
    """Each trial record's (event, y, z, decoded bin, uhat), words as lists."""
    return [
        (r.error_event, r.y.tolist(), r.z.tolist(), r.decoded_bin, None if r.uhat is None else r.uhat.tolist())
        for r in agg.results
    ]


def _decode_fields_of(dec):
    return dec.event, dec.bin_index, dec.rows, None if dec.uhat is None else dec.uhat.tolist()


class TestTrialChunks:
    """A chunk's attacks, distortions and decode box tests run as batches,
    and each trial's ``decode`` reads the build's decode memo; neither the
    chunk size nor the word caches' size changes a trial."""

    CASES = {"demo": (lambda: _demo_books(16), 150, 1), "noisy": (lambda: _noisy_n8_books(7), 200, 7)}

    @pytest.mark.parametrize("system", sorted(CASES))
    def test_chunking_and_cache_size_leave_trials_unchanged(self, system, monkeypatch):
        make, trials, seed = self.CASES[system]
        runs = {}
        for chunk in (1, 5, 64):
            for entries in (2, sim._WORD_CACHE_ENTRIES):
                monkeypatch.setattr(sim, "_TRIAL_CHUNK", chunk)
                monkeypatch.setattr(sim, "_WORD_CACHE_ENTRIES", entries)
                books = make()
                agg = sim.run_trials(books, trials, seed)
                assert len(books._decodes) <= entries
                runs[chunk, entries] = (_trial_fields(agg), [(r.distortion_xy, r.distortion_uuhat) for r in agg.results])
        first = runs[1, 2]
        assert all(run == first for run in runs.values())
        events = {event for event, *_ in first[0]}
        assert events >= ({"none", "e5"} if system == "demo" else {"none", "e4", "e5"})
        assert all(isinstance(d, float) for pair in first[1] for d in pair)

    @pytest.mark.parametrize("system", sorted(CASES))
    def test_trials_decode_from_their_chunks_fill(self, system, monkeypatch):
        """Each chunk's forgeries under typical keys are box-tested before
        its decodes, one box test per key type, so no ``decode`` of a trial
        box-tests, and no pair is box-tested twice."""
        make, trials, seed = self.CASES[system]
        books = make()
        decode, typical_in_frame = sim.decode, sim._typical_in_frame
        calls, tested, decoding = [], [], []

        def recorded_decode(z, k, codebooks):
            decoding.append(True)
            try:
                return decode(z, k, codebooks)
            finally:
                decoding.pop()

        def recorded_test(codebooks, type_idx, z_reps):
            assert not decoding
            calls.append(type_idx)
            tested.extend((type_idx, z.tobytes()) for z in z_reps)
            return typical_in_frame(codebooks, type_idx, z_reps)

        monkeypatch.setattr(sim, "decode", recorded_decode)
        monkeypatch.setattr(sim, "_typical_in_frame", recorded_test)
        sim.run_trials(books, trials, seed)
        chunks = -(-trials // sim._TRIAL_CHUNK)
        assert len(tested) == len(set(tested)) == len(books._decodes)
        assert chunks <= len(calls) <= chunks * len(books.key_types)

    @pytest.mark.parametrize("system", sorted(CASES))
    def test_cold_decode_equals_decode_after_a_batch_fill(self, system, monkeypatch):
        """Trial forgeries, and random ones under typical and atypical keys:
        ``decode`` on a fresh build box-tests each forgery itself, and after
        one batch fill of every pair by ``_typical_rows`` it reads the memo
        alone."""
        make, _, seed = self.CASES[system]
        cold, filled = make(), make()
        rng = np.random.default_rng(11)
        keys = [rng.permutation(cold.key_types[rng.integers(len(cold.key_types))].representative) for _ in range(20)]
        keys += [np.zeros(cold.n, dtype=np.int64)] * 2  # atypical
        forgeries = list(rng.integers(0, cold.z_size, size=(len(keys), cold.n)))
        for r in sim.run_trials(make(), 60, seed).results:
            keys.append(r.k)
            forgeries.append(r.z)
        want = [_decode_fields_of(sim.decode(z, k, cold)) for z, k in zip(forgeries, keys)]
        typed = [(filled.key(k), z) for z, k in zip(forgeries, keys) if filled.key(k) is not None]
        z_reps = np.array([z[key.order] for key, z in typed]).astype(filled._z_dtype)
        sim._typical_rows(filled, [key.type_idx for key, _ in typed], z_reps)
        assert len(filled._decodes) == len({(key.type_idx, z.tobytes()) for (key, _), z in zip(typed, z_reps)})
        monkeypatch.setattr(sim, "_typical_in_frame", None)  # the memo answers every decode
        assert [_decode_fields_of(sim.decode(z, k, filled)) for z, k in zip(forgeries, keys)] == want
        assert {e for e, *_ in want} >= {"e4", "e5", "ok"}


class TestTrialRecord:
    """Each trial event read from the encoder's and decoder's own tests,
    against the recount it replaced, and the calls a trial makes."""

    @staticmethod
    def _assert_records(books, agg):
        for r in agg.results:
            assert r.error_event == _recounted_trial_event(books, r)
            dec = sim.decode(r.z, r.k, books)
            # the message is correct exactly on a clean trial, which decodes the sent bin
            assert r.message_correct == (r.error_event == "none")
            assert r.message_correct == (dec.event == "ok" and dec.bin_index == r.true_bin and r.error_event == "none")
            assert math.isnan(r.distortion_uuhat) == (not r.message_correct)
            # the decoder's typical rows, against its own bins
            _assert_rows(dec, books)

    @given(_enumeration_cases(), st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_events_match_the_sent_word_recount(self, books, seed):
        self._assert_records(books, sim.run_trials(books, 40, seed))

    @pytest.mark.parametrize(
        "attack, x_probs, p_u, delta, seed, d_prime, m2_bits, j_bits",
        [
            ([[0.5, 0.5], [0.5, 0.5]], (0.5, 0.5), [0.4, 0.6], 0.3, 16202, 0.25, 2, 1),
            ([[1.0, 0.0], [0.0, 1.0]], (0.4, 0.6), [0.5, 0.5], 0.6, 23958, 0.0, 1, 0),
        ],
    )
    def test_sent_row_after_the_bins_first(self, attack, x_probs, p_u, delta, seed, d_prime, m2_bits, j_bits):
        """Two n=4 builds with a constant key whose trials send a row other
        than their bin's first, where the decoder judges the sent row apart
        from the first, so the first row alone would classify them otherwise."""
        spec = dataclasses.replace(
            binary_spec(x_size=2, x_probs=x_probs, k_probs=(1.0,), lam=0.5, attack=attack),
            p_u=DistTable([Axis("U", 2)], p_u),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            books = build_books(
                spec, copy_embedder_aux(spec, [0.5, 0.5]), 4, delta, seed, d_prime,
                m2_bits=m2_bits, m3_bits=0, j_bits=j_bits,
            )
        agg = sim.run_trials(books, 40, 1)
        self._assert_records(books, agg)
        later = []
        for r in agg.results:
            enc = sim.embed_encode(r.u, sim.WordSearch(books, r.x, r.k))
            rows, first = sim.decode(r.z, r.k, books).rows, (enc.m - 1) * books.sizes.m2
            if enc.input_ok and enc.search_ok and (first + enc.j in rows) != (first in rows):
                later.append(r)
        assert later

    def test_noisy_n8_events_match_the_sent_word_recount(self):
        """The ``exact_noisy_n8`` golden's system at three build seeds, whose
        trials reach every event but e3 (the n=4 cases reach e3), and e4
        trials that decode one bin."""
        events, e4_decoded = set(), 0
        for seed in (5, 6, 7):
            books = _noisy_n8_books(seed)
            agg = sim.run_trials(books, 200, seed)
            self._assert_records(books, agg)
            events |= {r.error_event for r in agg.results}
            e4_decoded += sum(r.error_event == "e4" and r.decoded_bin is not None for r in agg.results)
        assert events == set(sim.EVENTS) - {"e3"} and e4_decoded > 0

    def test_exact_noisy_n8_trials_decoded_yet_e4(self):
        """Of the ``exact_noisy_n8`` golden's 40 trials, 16 are e4.  In trials
        5 and 30 the decoder finds exactly one bin (bin 2, the sent one in
        trial 30) through a row other than the sent one, which is not
        jointly typical with the forgery: the trial is e4 and its message
        incorrect."""
        books = _noisy_n8_books(5)
        agg = sim.run_trials(books, 40, 5)
        assert sum(r.error_event == "e4" for r in agg.results) == 16
        decoded = [(i, r.true_bin, r.decoded_bin) for i, r in enumerate(agg.results)
                   if r.error_event == "e4" and r.decoded_bin is not None]
        assert decoded == [(5, 1, 2), (30, 2, 2)]
        for i, *_ in decoded:
            r = agg.results[i]
            enc = sim.embed_encode(r.u, sim.WordSearch(books, r.x, r.k))
            dec = sim.decode(r.z, r.k, books)
            sent = (enc.m - 1) * books.sizes.m2 + enc.j
            assert dec.event == "ok" and sent not in dec.rows and not r.message_correct

    @given(_enumeration_cases())
    @settings(max_examples=10, deadline=None)
    def test_one_encode_and_decode_per_trial(self, books):
        """Counted through the module-level names, as the benchmark's tracer
        counts them, over more trials than one chunk holds."""
        trials = sim._TRIAL_CHUNK + 6
        with (
            mock.patch.object(sim, "embed_encode", wraps=sim.embed_encode) as encode,
            mock.patch.object(sim, "decode", wraps=sim.decode) as decode,
        ):
            sim.run_trials(books, trials, 3)
        assert encode.call_count == decode.call_count == trials

    @given(_enumeration_cases())
    @settings(max_examples=10, deadline=None)
    def test_one_encode_per_positive_probability_state(self, books):
        spec = books.spec
        u_words = np.count_nonzero(spec.p_u.values) ** books.n_message
        xk_words = np.count_nonzero(spec.p_xk.values) ** books.n
        with mock.patch.object(sim, "embed_encode", wraps=sim.embed_encode) as encode:
            sim.estimate_equivocation(books)
        assert encode.call_count == u_words * xk_words


def _frozen_embed_in_bin(codebooks, m, x_arr, k_arr, key_type=None):
    """``embed_in_bin`` as it was before bins were searched in batches:
    one box test over the bin's rows, then one over its row's stegotext
    book, which raises when the book has no word to draw."""
    ktp = reference_key(codebooks, k_arr) if key_type is None else key_type
    if ktp is None:
        return None, "e2", {}
    type_idx, order, _ = ktp
    rep = codebooks.key_types[type_idx].representative
    x_rep = np.asarray(x_arr, dtype=np.int64)[order]
    lo_row = (m - 1) * codebooks.sizes.m2
    rows = slice(lo_row, lo_row + codebooks.sizes.m2)
    ctx3 = rep * codebooks.x_size + x_rep
    mask = sim._rows_in_boxes(codebooks.aux_masks(type_idx)[:, :, rows], ctx3[None], codebooks.kxv_cells)[0]
    hits = np.flatnonzero(mask)
    if hits.size == 0:
        return None, "e2", {"type_idx": type_idx, "order": order}
    j = int(hits[0])
    v_rep = codebooks.aux_book(type_idx)[lo_row + j]
    stego = codebooks.stego_book(type_idx, v_rep)
    mask_y = sim._rows_in_boxes(
        sim._letter_masks(stego, codebooks.y_size), (ctx3 * codebooks.v_size + v_rep)[None], codebooks.kxvy_cells
    )[0]
    hits_y = np.flatnonzero(mask_y)
    details = {"type_idx": type_idx, "order": order, "v_rep": v_rep, "j": j}
    if hits_y.size == 0:
        return None, "e3", details
    j_prime = int(hits_y[0])
    y = np.empty(codebooks.n, dtype=np.int64)
    y[order] = stego[j_prime]
    details["j_prime"] = j_prime
    return y, None, details


def _frozen_embed_encode(u_arr, x_arr, k_arr, codebooks):
    """``embed_encode`` as it was before its work was split by the words it
    depends on, with ``_frozen_embed_in_bin`` as its search."""
    sizes = codebooks.sizes
    typical_u = codebooks.u_box.contains(np.bincount(u_arr, minlength=codebooks.spec.u_axis.size))
    ktp = reference_key(codebooks, k_arr)
    pair_ok = codebooks.kx_box.contains(
        np.bincount(k_arr * codebooks.x_size + x_arr, minlength=codebooks.k_size * codebooks.x_size)
    )
    if typical_u and ktp is not None:
        w = int_to_bits(sim.rd_encode(u_arr, codebooks.rd_codebook), sizes.l_bits)
        wt = encrypt(w, int_to_bits(ktp[2], sizes.j_bits))
    else:
        w = np.zeros(sizes.l_bits, dtype=np.uint8)
        wt = w.copy()
    m = int(sum(int(b) << i for i, b in enumerate(wt))) + 1
    input_ok = bool(typical_u and pair_ok)
    y, details = None, {}
    if ktp is not None and pair_ok:
        y, _, details = _frozen_embed_in_bin(codebooks, m, x_arr, k_arr, ktp)
    search_ok = y is not None
    if y is None:
        y = np.zeros(codebooks.n, dtype=np.int64)
    return sim.EmbedResult(y=y, m=m, input_ok=input_ok, search_ok=search_ok, j=details.get("j"))


def _same(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return a is not None and b is not None and np.array_equal(a, b) and a.dtype == b.dtype
    return a == b and type(a) is type(b)


@st.composite
def _search_cases(draw):
    """A small system at n=4 (two message letters) with one codebook draw,
    and covertext and key words drawn uniformly, so most (k, x) pairs and
    half the message words are atypical.  A binary covertext equal to the
    key is the binary covertext whose searches can succeed at n=4."""
    x_probs = draw(st.sampled_from([(0.5, 0.5), (0.4, 0.6), (1.0,), "key"]))
    if x_probs == "key":
        spec = binary_spec(lam=0.5, xk_joint=[[0.5, 0.0], [0.0, 0.5]])
    else:
        spec = binary_spec(
            x_size=len(x_probs), x_probs=x_probs, k_probs=draw(st.sampled_from([(0.5, 0.5), (0.25, 0.75)])),
            lam=0.5,
        )
    aux = draw(st.sampled_from([
        copy_embedder_aux(spec, [0.5, 0.5]),
        copy_embedder_aux(spec, [0.25, 0.75]),
        noise_aux(spec, [0.5, 0.5]),
    ]))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            books = build_books(
                spec, aux, 4, draw(st.sampled_from([0.3, 0.6])), draw(st.integers(0, 2**16)),
                draw(st.sampled_from([0.0, 0.25])),
                m2_bits=draw(st.integers(0, 2)), m3_bits=draw(st.integers(0, 2)),
                j_bits=draw(st.integers(0, 1)),
            )
    except (EmptyTypicalSetError, InfeasibleError, ValidationError):
        assume(False)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xs = rng.integers(0, spec.x_axis.size, size=(12, 4))
    ks = rng.integers(0, spec.k_axis.size, size=(12, 4))
    # and every key type's representative, with a covertext word drawn for
    # it and, for a binary covertext, with the covertext equal to the key
    reps = [t.representative for t in books.key_types]
    copies = reps if spec.x_axis.size == 2 else []
    return books, [*xs, *xs[: len(reps)], *copies], [*ks, *reps, *copies]


class TestBatchedSearch:
    """The batched search against frozen copies of the one-bin search and
    the encoder it replaced, field by field.  Where the frozen search raises
    because a stegotext book has no word to draw, the batched one fails the
    search (e3)."""

    @given(_search_cases())
    @settings(max_examples=60, deadline=None)
    def test_matches_frozen_one_bin_search(self, case):
        books, xs, ks = case
        u_words = [np.array(u, dtype=np.int64) for u in np.ndindex(2, 2)]
        for x, k in zip(xs, ks):
            search = sim.WordSearch(books, x, k)
            if search.embeds:
                sim.search_words(books, [(search, range(1, books.sizes.bins + 1))])
            for u in u_words:
                got = sim.embed_encode(u, search)
                alone = sim.embed_encode(u, sim.WordSearch(books, x, k))
                try:
                    want = _frozen_embed_encode(u, x, k, books)
                except EmptyTypicalSetError:
                    for enc in (got, alone):
                        assert not enc.search_ok and not enc.y.any()
                        _, event, details = sim.embed_in_bin(books, enc.m, x, k)
                        assert event == "e3" and "j_prime" not in details and enc.j is not None
                    continue
                for f in dataclasses.fields(sim.EmbedResult):
                    assert _same(getattr(got, f.name), getattr(want, f.name)), f.name
                    assert _same(getattr(alone, f.name), getattr(want, f.name)), f.name
            if search.key is None:
                continue
            for m in range(1, books.sizes.bins + 1):
                _assert_frozen_bin(books, m, x, k, got := sim.embed_in_bin(books, m, x, k))
                assert m in search._found or not search.embeds  # the all-bins call filled it
                _assert_entry(search, m, got)

    @given(_search_cases(), st.sampled_from([1, 2, None]))
    @settings(max_examples=60, deadline=None)
    def test_words_of_many_key_types_in_one_call(self, case, contexts_per_kernel_call):
        _check_one_search_call(*case, contexts_per_kernel_call)

    @pytest.mark.parametrize("contexts_per_kernel_call", [1, 2, None])
    def test_one_call_fails_undrawable_books_with_e3(self, contexts_per_kernel_call):
        books = TestUndrawableStegoBook._books()
        keys = [np.array(k) for k in np.ndindex(2, 2, 2, 2)]
        _check_one_search_call(books, [np.zeros(4, dtype=np.int64)] * len(keys), keys, contexts_per_kernel_call)


def _assert_frozen_bin(books, m, x, k, got):
    """A search result for bin m against ``_frozen_embed_in_bin``, field by
    field; where that raises for a book with no word to draw, e3."""
    y, event, details = got
    try:
        want = _frozen_embed_in_bin(books, m, x, k)
    except EmptyTypicalSetError:
        assert y is None and event == "e3" and "j_prime" not in details
        return
    assert _same(y, want[0]) and event == want[1]
    assert details.keys() == want[2].keys()
    assert all(_same(details[key], want[2][key]) for key in details)


def _assert_entry(word, m, got):
    """Bin m's (y, j, j') kept in the ``WordSearch`` ``word`` against
    ``embed_in_bin``'s result for that bin, field by field."""
    y, _, details = got
    entry = word.entry(m)
    assert _same(entry[0], y) and _same(entry[1], details.get("j")) and _same(entry[2], details.get("j_prime"))


def _check_one_search_call(books, xs, ks, contexts_per_kernel_call):
    """Every bin of every (x, k) word with a typical key, of all key types,
    searched by one ``search_words`` call, with box-test kernel calls of
    one or two auxiliary contexts each or of the default size.  The call
    box-tests each distinct (key type, covertext in the type's frame, bin)
    triple once."""
    words = [(x, k, sim.WordSearch(books, x, k)) for x, k in zip(xs, ks)]
    words = [(x, k, w) for x, k, w in words if w.key is not None]
    bins = range(1, books.sizes.bins + 1)
    chunk = sim._BOX_CHUNK_BYTES
    if contexts_per_kernel_call is not None:  # the bytes of that many contexts' bin masks
        masks = books.aux_masks(0)  # the kernel reads every value letter's masks but the last
        letters_read = max(1, books.v_size - 1)
        chunk = contexts_per_kernel_call * len(books.kxv_cells[0]) * masks.shape[0] * letters_read * books.sizes.m2
    triples = {(w.key.type_idx, tuple(x[w.key.order].tolist()), m) for x, _, w in words for m in bins}
    calls = []
    search_bins = sim._search_bins

    def counted(codebooks, types, x_reps, bins):
        calls.append(len(types))
        return search_bins(codebooks, types, x_reps, bins)

    with mock.patch.object(sim, "_BOX_CHUNK_BYTES", chunk), mock.patch.object(sim, "_search_bins", counted):
        sim.search_words(books, [(w, bins) for _, _, w in words])
        assert calls == [len(triples)]
        for x, k, w in words:
            for m in bins:
                _assert_frozen_bin(books, m, x, k, got := sim.embed_in_bin(books, m, x, k))
                assert m in w._found  # placed by the one call
                _assert_entry(w, m, got)
        assert len(calls) == 1  # every result came from the one call


def _words_of_one_frame(books, type_idx, x_rep, copies, rng):
    """``copies`` (x, k) words whose keys are distinct words of one type
    class, each covertext moved to its key's positions so that every word
    reads ``x_rep`` in the type's representative frame."""
    out = []
    for _ in range(copies):
        k = rng.permutation(books.key_types[type_idx].representative)
        x = np.empty(books.n, dtype=np.int64)
        x[books.key(k).order] = x_rep
        out.append((x, k))
    return out


class TestTypeClassSharing:
    """Every typical key's codebook is its type representative's, permuted,
    so a search depends only on (key type, covertext in the type's frame,
    bin): keys of one type class read one search at their own positions,
    and each such triple is box-tested once per build."""

    @pytest.mark.parametrize("seed, m3_bits", [(3, 0), (4, 2)])
    def test_permuted_words_get_permuted_results(self, seed, m3_bits):
        books = _covariance_books(seed, m3_bits)
        rng = np.random.default_rng(seed)
        bins = range(1, books.sizes.bins + 1)
        found = 0
        for t in range(len(books.key_types)):
            for x_rep in [books.key_types[t].representative, *rng.integers(0, 2, size=(2, books.n))]:
                words = [sim.WordSearch(books, x, k) for x, k in _words_of_one_frame(books, t, x_rep, 3, rng)]
                assert len({w.k.tobytes() for w in words}) > 1
                for m in bins:
                    results = [sim.embed_in_bin(books, m, w.x, w.k) for w in words]
                    y0, event0, details0 = results[0]
                    for w, (y, event, details) in zip(words, results):
                        _assert_frozen_bin(books, m, w.x, w.k, (y, event, details))
                        _assert_entry(w, m, (y, event, details))
                        assert event == event0 and (y is None) == (y0 is None)
                        if y is not None:
                            assert np.array_equal(y[w.key.order], y0[words[0].key.order])
                        for field in ("type_idx", "j", "j_prime", "v_rep"):
                            assert _same(details.get(field), details0.get(field)), field
                    found += y0 is not None
        assert found > 0

    def test_each_triple_reaches_the_box_test_once(self):
        books = _covariance_books.__wrapped__(5, 2)  # a build of its own, with an empty search cache
        rng = np.random.default_rng(5)
        tested = []
        search_bins = sim._search_bins

        def recorded(codebooks, types, x_reps, bins):
            tested.extend(zip(types.tolist(), map(tuple, x_reps.tolist()), bins.tolist()))
            return search_bins(codebooks, types, x_reps, bins)

        wanted = set()
        with mock.patch.object(sim, "_search_bins", recorded):
            for t in range(len(books.key_types)):
                x_reps = rng.integers(0, 2, size=(2, books.n))
                for x_rep in [*x_reps, *x_reps]:  # each frame word in two calls
                    pairs = _words_of_one_frame(books, t, x_rep, 4, rng)
                    bins = rng.choice(np.arange(1, books.sizes.bins + 1), size=3).tolist()
                    sim.search_words(books, [(sim.WordSearch(books, x, k), bins) for x, k in pairs])
                    wanted.update((t, tuple(x_rep.tolist()), m) for m in bins)
        assert len(tested) == len(set(tested)) == len(wanted)
        assert set(tested) == wanted


class TestUndrawableStegoBook:
    """n=4 with a uniform key, one covertext letter, V constant and Y
    uniform, at delta 0.6: a key with a single k0 (or k1) is typical, but no
    stegotext word has one y0 and one y1 against that one key letter, so the
    book of its type cannot be drawn."""

    @staticmethod
    def _books():
        spec = binary_spec(x_size=1, lam=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return build_books(
                spec, noise_aux(spec, [0.5, 0.5]), 4, 0.6, 3, 0.0, m2_bits=1, m3_bits=1, j_bits=1
            )

    def _lopsided(self, books):
        return next(t for t, kt in enumerate(books.key_types) if min(kt.counts) == 1)

    def test_book_draw_still_raises(self):
        books = self._books()
        t = self._lopsided(books)
        with pytest.raises(EmptyTypicalSetError):
            books.stego_book(t, books.aux_book(t)[0])

    def test_batch_fetch_flags_the_book(self):
        books = self._books()
        t = self._lopsided(books)
        got, drawn = books.stego_books(t, books.aux_book(t)[:1])
        assert got.shape == (1, books.sizes.m3, books.n) and not drawn.any()

    def test_audits_still_raise(self):
        books = self._books()
        with pytest.raises(EmptyTypicalSetError):
            sim.bin_multiplicity_audit(books, 0.5)
        with pytest.raises(EmptyTypicalSetError):
            sim.compression_audits(books)

    def test_search_fails_with_e3(self):
        books = self._books()
        k = books.key_types[self._lopsided(books)].representative
        x = np.zeros(4, dtype=np.int64)
        enc = sim.embed_encode(np.array([0, 1]), sim.WordSearch(books, x, k))
        assert enc.input_ok and not enc.search_ok
        _, event, details = sim.embed_in_bin(books, enc.m, x, k)
        assert event == "e3" and not enc.y.any()
        assert enc.j == 0 and "j_prime" not in details

    def test_enumeration_completes(self):
        books = self._books()
        est = sim.estimate_equivocation(books)
        assert est.extras == _per_state_enumeration(books)
        x = np.zeros(4, dtype=np.int64)
        events = set()
        for u in np.ndindex(2, 2):
            for k in map(np.array, np.ndindex(2, 2, 2, 2)):
                enc = sim.embed_encode(np.array(u), sim.WordSearch(books, x, k))
                if enc.input_ok and not enc.search_ok:
                    events.add(sim.embed_in_bin(books, enc.m, x, k)[1])
        assert "e3" in events


class TestDistinctRowCount:
    def test_long_binary_words_do_not_collide(self):
        # 2^64 wraps to 0 in int64, so base-2 codes of these two words agree
        words = np.zeros((2, 65), dtype=np.int64)
        words[1, -1] = 1
        powers = 2 ** np.arange(65, dtype=np.int64)
        assert len(set((words @ powers).tolist())) == 1
        assert sim._distinct_row_count([words]) == 2

    @given(
        st.integers(1, 70),
        st.sampled_from([2, 3, 255, 256, 300]),
        st.lists(st.integers(0, 30), min_size=1, max_size=4),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_set_of_tuples(self, n, alphabet, block_rows, seed):
        rng = np.random.default_rng(seed)
        dtype = np.min_scalar_type(alphabet - 1)
        # rows drawn from a few words, two of which differ in the last symbol
        # only, so rows repeat within and across blocks and nearly collide
        words = rng.integers(0, alphabet, size=(4, n))
        words[1] = words[0]
        words[1, -1] = (words[0, -1] + 1) % alphabet
        blocks = [words[rng.integers(0, 4, size=r)].astype(dtype) for r in block_rows]
        expected = {tuple(row) for b in blocks for row in b.tolist()}
        assert sim._distinct_row_count(blocks) == len(expected)
        assert sim._distinct_row_count(b.astype(np.int64) for b in blocks) == len(expected)


class TestUniqueRows:
    @given(
        st.sampled_from([np.uint8, np.uint16]),
        st.integers(1, 12),
        st.integers(1, 40),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_unique_along_rows(self, dtype, n, rows, seed):
        """Rows, order, first indices and inverse of ``np.unique`` along the
        rows.  Rows repeat, and two words differ in one letter's high byte
        only (a 16-bit letter's bytes compared low byte first would sort
        them out of order), two in its low byte only."""
        rng = np.random.default_rng(seed)
        words = rng.integers(0, np.iinfo(dtype).max + 1, size=(5, n)).astype(dtype)
        j = rng.integers(n)
        words[1], words[3] = words[0], words[2]
        words[1, j] ^= 0x100 if dtype is np.uint16 else 0x80
        words[3, j] ^= 1
        block = words[rng.integers(0, 5, size=rows)]
        want_rows, want_index, want_inverse = np.unique(block, axis=0, return_index=True, return_inverse=True)
        got_rows, got_index, got_inverse = sim._unique_rows(block)
        assert got_rows.dtype == block.dtype and np.array_equal(got_rows, want_rows)
        assert np.array_equal(got_index, want_index)
        # numpy 2.0.0 shapes the inverse of a row-wise unique (rows, 1)
        assert got_inverse.shape == (rows,) and np.array_equal(got_inverse, want_inverse.ravel())


def _choice_trial(spec, n_message, n, seed, t):
    """Trial t's generator and words drawn with ``Generator.choice(p=)``,
    the reference of ``sim._trial_draws``."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, sim._TRIAL_TAG, t)))
    pxk = spec.p_xk.values.ravel()
    u = rng.choice(spec.p_u.values.size, size=n_message, p=spec.p_u.values)
    cells = rng.choice(pxk.size, size=n, p=pxk)
    return rng, u, cells // spec.k_axis.size, cells % spec.k_axis.size


class TestTrialDraws:
    @pytest.mark.parametrize(
        "p",
        [
            [0.1, 0.2, 0.3, 0.4],
            [0.0, 0.2, 0.3, 0.5],  # a zero-probability first letter
            [0.2, 0.0, 0.3, 0.5],  # ... middle letter
            [0.2, 0.3, 0.5, 0.0],  # ... last letter
        ],
    )
    @given(seed=st.integers(0, 2**64 - 1), t=st.integers(0, 2**20))
    @settings(max_examples=40, deadline=None)
    @example(seed=7, t=2**32 - 2)  # a range whose indices pass 2^32
    def test_cdf_draws_are_choice_draws(self, p, seed, t):
        """The message words from p and the (x, k) cells from p as a 2 x 2
        table, three trials stacked, equal ``choice``'s draw for draw, each
        trial's row, and each trial's attack uniforms are the next n its
        generator draws after ``choice``'s draws."""
        u_axis, x_axis = Axis("U", 4), Axis("X", 2)
        spec = SystemSpec(
            p_u=DistTable([u_axis], p),
            p_xk=DistTable([x_axis, Axis("K", 2)], np.reshape(p, (2, 2))),
            p_z_given_y=DistTable([Axis("Y", 2), Axis("Z", 2)], np.eye(2), given=("Y",)),
            lam=0.5,
            d=DistortionMeasure(x_axis, Axis("Y", 2), 1.0 - np.eye(2)),
            d_prime=DistortionMeasure.hamming(u_axis, Axis("Uhat", 4)),
        )
        r_attack, *drawn = sim._trial_draws(spec, 8, 16, seed)(range(t, t + 3))
        assert r_attack.shape == (3, 16) and all(len(rows) == 3 for rows in drawn)
        for i in range(3):
            want_rng, *want = _choice_trial(spec, 8, 16, seed, t + i)
            for rows, expected in zip(drawn, want):
                assert rows[i].dtype == expected.dtype and np.array_equal(rows[i], expected)
            assert np.array_equal(r_attack[i], want_rng.random(16))
