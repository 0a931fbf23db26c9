import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from secembed import sim
from secembed.errors import (
    EmptyTypicalSetError,
    InfeasibleError,
    ResourceCapError,
    ValidationError,
)
from secembed.region import AuxChannel
from secembed.tables import Axis, DistTable
from secembed.typical import CountBox

from conftest import binary_spec, copy_embedder_aux, noise_aux


def build_trend(spec, aux, n, seed=11, **kw):
    kw.setdefault("m2_bits", 5)
    kw.setdefault("m3_bits", 0)
    kw.setdefault("j_bits", 4 if n >= 8 else 0)
    return sim.build_codebooks(spec, aux, n, 0.6, seed, 0.0, **kw)


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
        books = sim.build_codebooks(spec, aux, 8, 0.1, seed=2, d_prime_value=0.0)
        s = books.sizes
        assert s.j_bits == 1  # ceil(n delta) with a constant key
        assert s.m2_bits == math.ceil(8 * (0.1 * 3 + 0.1))
        assert s.m3_bits == math.ceil(8 * (0.1 * 1 + 0.1))
        assert s.l_bits == 7  # log2 of the 70 exactly-balanced words
        assert s.j_bits <= s.l_bits

    def test_lambda_n_must_be_integer(self, trend_spec, trend_aux):
        with pytest.raises(ValidationError):
            sim.build_codebooks(trend_spec, trend_aux, 7, 0.6, 0, 0.0)

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
            sim.build_codebooks(spec, aux, 8, 0.6, 0, 0.0, m2_bits=2, m3_bits=0, j_bits=0)

    def test_pad_wider_than_message_rejected(self, trend_spec, trend_aux):
        with pytest.raises(ValidationError):
            sim.build_codebooks(
                trend_spec, trend_aux, 8, 0.6, 0, 0.0, m2_bits=5, m3_bits=0, j_bits=9
            )

    def test_aux_rows_cap(self, trend_spec, trend_aux):
        with pytest.raises(ResourceCapError):
            sim.build_codebooks(
                trend_spec, trend_aux, 8, 0.6, 0, 0.0, m2_bits=30, m3_bits=0, j_bits=0
            )

    def test_empty_conditional_sets_rejected(self):
        # V ~ Bern(0.25) cannot be drawn around single-occurrence key letters
        spec = binary_spec(x_size=1, lam=0.5, d_cost=[[0.0, 1.0]])
        aux = copy_embedder_aux(spec, [0.75, 0.25])
        with pytest.raises(EmptyTypicalSetError):
            sim.build_codebooks(spec, aux, 8, 0.6, 0, 0.0, m2_bits=3, m3_bits=0, j_bits=0)

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


class TestKeyMachinery:
    def test_type_lookup_and_order(self, trend_spec, trend_aux):
        books = build_trend(trend_spec, trend_aux, 8)
        k = np.array([1, 0, 0, 1, 0, 0, 0, 1])
        t_idx, order = books.key_type_and_order(k)
        rep = books.key_types[t_idx].representative
        assert np.array_equal(np.sort(k), rep)
        assert np.array_equal(rep[np.argsort(order)], k)

    def test_atypical_key_has_no_type(self, trend_spec, trend_aux):
        books = build_trend(trend_spec, trend_aux, 8)
        assert books.key_type_and_order(np.zeros(8, dtype=np.int64)) is None

    def test_sw_is_deterministic_and_requires_typical_key(self, trend_spec, trend_aux):
        books = build_trend(trend_spec, trend_aux, 8)
        k = books.key_types[0].representative
        assert np.array_equal(sim.sw_encode(k, books), sim.sw_encode(k, books))
        assert sim.sw_encode(k, books).shape == (4,)
        with pytest.raises(ValidationError):
            sim.sw_encode(np.zeros(8, dtype=np.int64), books)

    def test_sw_uniform_across_keys(self, trend_spec, trend_aux):
        # random binning: bit frequencies across typical keys near half
        books = build_trend(trend_spec, trend_aux, 12, m2_bits=4)
        from secembed.typical import _multiset_perms

        bits = []
        for ktype in books.key_types:
            for word in _multiset_perms(ktype.counts):
                bits.append(books.sw_bits(word))
        arr = np.array(bits)
        freq = arr.mean(axis=0)
        assert np.all(np.abs(freq - 0.5) < 0.05)


class TestEncryption:
    def test_zero_pad_is_identity(self):
        w = sim.int_to_bits(0b10110, 5)
        out = sim.encrypt(w, np.zeros(5, dtype=np.uint8))
        assert np.array_equal(out, w)

    def test_known_xor(self):
        # w = 10110, s = 01100 (left to right) -> 11010
        w = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
        s = np.array([0, 1, 1, 0, 0], dtype=np.uint8)
        assert np.array_equal(sim.encrypt(w, s), np.array([1, 1, 0, 1, 0], dtype=np.uint8))

    def test_partial_pad_passthrough(self):
        w = np.array([1, 0, 1, 1], dtype=np.uint8)
        s = np.array([1, 1], dtype=np.uint8)
        out = sim.encrypt(w, s)
        assert np.array_equal(out, [0, 1, 1, 1])

    @pytest.mark.parametrize("width", range(1, 13))
    def test_involution_exhaustive(self, width):
        rng = np.random.default_rng(width)
        pads = [np.zeros(width, np.uint8), np.ones(width, np.uint8), rng.integers(0, 2, width).astype(np.uint8)]
        for value in range(2**width):
            w = sim.int_to_bits(value, width)
            for s in pads:
                assert np.array_equal(sim.decrypt(sim.encrypt(w, s), s), w)

    def test_uniform_pad_gives_uniform_ciphertext(self):
        rng = np.random.default_rng(0)
        w = sim.int_to_bits(0b1010, 4)
        draws = rng.integers(0, 2, size=(100_000, 4)).astype(np.uint8)
        vals = [sim.bits_to_int(sim.encrypt(w, s)) for s in draws]
        counts = np.bincount(vals, minlength=16)
        assert stats.chisquare(counts).pvalue > 1e-3

    def test_oversized_pad_rejected(self):
        with pytest.raises(ValidationError):
            sim.encrypt(np.zeros(3, np.uint8), np.zeros(4, np.uint8))

    def test_bit_order_little_endian(self):
        assert sim.bits_to_int(np.array([1, 0, 1])) == 5
        assert np.array_equal(sim.int_to_bits(5, 3), [1, 0, 1])


class TestEncode:
    def test_atypical_message_falls_back_to_zero_word(self, trend_spec, trend_aux):
        books = build_trend(trend_spec, trend_aux, 8)
        u = np.zeros(4, dtype=np.int64)  # atypical at delta = 0.6
        k = books.key_types[2].representative
        x = np.zeros(8, dtype=np.int64)
        enc = sim.embed_encode(u, x, k, books)
        assert not enc.input_ok
        assert enc.m == 1
        assert np.all(enc.wt_bits == 0)

    def test_deterministic_channels_find_first_entry(self):
        # V and Y deterministic given (K, X): every bin entry works
        spec = binary_spec(x_size=1, k_probs=(1.0,), lam=0.5, d_cost=[[0.0, 1.0]])
        V = Axis("V", 1)
        vals = np.zeros((1, 1, 1, 2))
        vals[0, 0, 0, 0] = 1.0  # Y constant
        aux = AuxChannel(DistTable([spec.k_axis, spec.x_axis, V, spec.y_axis], vals, given=("K", "X")))
        # H(Y|K) = 0 so the counting constraint needs a zero message rate
        books = sim.build_codebooks(spec, aux, 8, 0.6, 0, 0.5, m2_bits=2, m3_bits=1, j_bits=0)
        enc = sim.embed_encode(
            np.array([0, 1, 0, 1]), np.zeros(8, np.int64), np.zeros(8, np.int64), books
        )
        assert enc.search_ok and enc.j == 0 and enc.j_prime == 0

    def test_search_success_rate_with_ample_bin(self, trend_spec, trend_aux):
        # bin width far above the conditional-information cost: the first-j
        # search should almost always land, among trials where it runs
        # (delta = 0.7 keeps every key type's count boxes feasible)
        books = sim.build_codebooks(
            trend_spec, trend_aux, 12, 0.7, 55, 0.0, m2_bits=5, m3_bits=0, j_bits=4
        )
        agg = sim.run_trials(
            trend_spec, trend_aux, 12, 300, 0.7, 55, 0.0, codebooks=books, collect_transcripts=True
        )
        ran = succeeded = 0
        for r in agg.results:
            pair = r.k * books.x_size + r.x
            pair_ok = books.kx_box.contains(
                np.bincount(pair, minlength=books.k_size * books.x_size)
            )
            if pair_ok and books.key_type_and_order(r.k) is not None:
                ran += 1
                succeeded += int(r.encode_search_ok)
        assert ran > 150
        assert succeeded / ran >= 0.9

    def test_distortion_certificate_each_trial(self, trend_spec, trend_aux):
        books = build_trend(trend_spec, trend_aux, 8)
        agg = sim.run_trials(
            trend_spec, trend_aux, 8, 400, 0.6, 91, 0.0, codebooks=books, collect_transcripts=True
        )
        for r in agg.results:
            if r.encode_search_ok:
                assert r.distortion_xy <= agg.distortion_bound + 1e-12


class TestAttack:
    def test_identity(self, trend_spec):
        rng = np.random.default_rng(0)
        y = rng.integers(0, 2, 50)
        z = sim.attack(y, trend_spec, rng)
        assert np.array_equal(y, z)

    def test_independent_output_matches_marginal(self):
        spec = binary_spec(attack=[[0.3, 0.7], [0.3, 0.7]])
        rng = np.random.default_rng(1)
        y = rng.integers(0, 2, 100_000)
        z = sim.attack(y, spec, rng)
        counts = np.bincount(z, minlength=2)
        assert stats.chisquare(counts, [30_000, 70_000]).pvalue > 1e-3

    def test_flip_frequency(self):
        spec = binary_spec(attack=[[0.9, 0.1], [0.1, 0.9]])
        rng = np.random.default_rng(2)
        y = rng.integers(0, 2, 100_000)
        z = sim.attack(y, spec, rng)
        flips = float(np.mean(y != z))
        assert abs(flips - 0.1) < 0.01

    def test_draw_in_normalization_gap_stays_in_range(self):
        # a row may sum to 1 - 5e-13 (within the tables' tolerance); a draw
        # above its cumulative total still picks the last forgery symbol
        class TopDraw:
            def random(self, size):
                return np.full(size, 1.0 - 1e-13)

        spec = binary_spec(attack=[[1.0, 0.0], [0.5, 0.5 - 5e-13]])
        z = sim.attack(np.array([0, 1, 1]), spec, TopDraw())
        assert z.tolist() == [0, 1, 1]


class TestDecode:
    def test_single_bin_always_decodes_that_bin(self):
        # delta = 0.2 keeps only balanced words, where the rate-zero
        # reproduction covers every typical message within n D'
        spec = binary_spec(x_size=1, lam=0.5, d_cost=[[0.0, 1.0]])
        aux = copy_embedder_aux(spec, [0.5, 0.5])
        books = sim.build_codebooks(spec, aux, 8, 0.2, 13, 0.5, m2_bits=3, m3_bits=0, j_bits=0)
        assert books.sizes.bins == 1
        k = books.key_types[0].representative
        enc = sim.embed_encode(np.array([0, 1, 0, 1]), np.zeros(8, np.int64), k, books)
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
        from secembed.rd import rd_decode

        books = build_trend(trend_spec, trend_aux, 8)
        agg = sim.run_trials(
            trend_spec, trend_aux, 8, 300, 0.6, 17, 0.0, codebooks=books, collect_transcripts=True
        )
        clean = [r for r in agg.results if r.error_event == "none"]
        assert clean
        for r in clean:
            assert r.message_correct
            assert r.decoded_bin == r.true_bin
            expect = rd_decode(r.true_bin - 1 if books.sizes.j_bits == 0 else sim.bits_to_int(
                sim.decrypt(sim.int_to_bits(r.true_bin - 1, books.sizes.l_bits), books.sw_bits(r.k)[: books.sizes.j_bits])
            ), books.rd_codebook)
            assert np.array_equal(r.uhat, expect.as_array())


class TestTrials:
    def test_zero_trials_empty_aggregate(self, trend_spec, trend_aux):
        books = build_trend(trend_spec, trend_aux, 8)
        agg = sim.run_trials(trend_spec, trend_aux, 8, 0, 0.6, 1, 0.0, codebooks=books)
        assert agg.trials == 0
        assert agg.message_error_rate == 0.0

    def test_event_partition(self, trend_spec, trend_aux):
        books = build_trend(trend_spec, trend_aux, 8)
        agg = sim.run_trials(trend_spec, trend_aux, 8, 250, 0.6, 23, 0.0, codebooks=books)
        assert sum(agg.event_frequencies.values()) == pytest.approx(1.0, abs=1e-12)

    def test_codebook_consistency_guard(self, trend_spec, trend_aux):
        books = build_trend(trend_spec, trend_aux, 8)
        with pytest.raises(ValidationError):
            sim.run_trials(trend_spec, trend_aux, 12, 5, 0.6, 1, 0.0, codebooks=books)
        with pytest.raises(ValidationError):
            sim.run_trials(trend_spec, trend_aux, 8, 5, 0.3, 1, 0.0, codebooks=books)

    def test_seed_reproducibility(self, trend_spec, trend_aux):
        books = build_trend(trend_spec, trend_aux, 8)
        a = sim.run_trials(trend_spec, trend_aux, 8, 100, 0.6, 42, 0.0, codebooks=books, collect_transcripts=True)
        b = sim.run_trials(trend_spec, trend_aux, 8, 100, 0.6, 42, 0.0, codebooks=books, collect_transcripts=True)
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
        for _ in range(5):
            k_perm = rng.permutation(rep)
            order = np.argsort(k_perm, kind="stable")
            y_rep, ev1, _ = sim.embed_in_bin(books, 2, x, rep)
            y_prm, ev2, _ = sim.embed_in_bin(books, 2, x, k_perm)
            assert ev1 is None and ev2 is None
            expected = np.empty(12, dtype=np.int64)
            expected[order] = y_rep
            assert np.array_equal(y_prm, expected)


class TestEquivocation:
    def _exact_spec(self, d_prime, k_probs=(0.5, 0.5), v_probs=(0.5, 0.5), j_bits=0):
        spec = binary_spec(x_size=1, k_probs=k_probs, lam=0.5, d_cost=[[0.0, 1.0]])
        aux = copy_embedder_aux(spec, list(v_probs))
        books = sim.build_codebooks(
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
        books = sim.build_codebooks(spec, aux, 4, 0.3, 5, 0.125, m2_bits=0, m3_bits=0, j_bits=1)
        assert books.sizes.bins == 2 and books.sizes.j_bits == 1
        est = sim.estimate_equivocation(books)
        assert est.extras["h_bin_given_y_encrypted_path"] == pytest.approx(1.0, abs=1e-9)

    def test_plug_in_estimate_runs(self, trend_spec, trend_aux):
        books = build_trend(trend_spec, trend_aux, 8)
        with pytest.warns(RuntimeWarning, match="biased"):
            est = sim.estimate_equivocation(
                books, mode="plug_in", trials=10_000, seed=4
            )
        assert est.method == "plug_in"
        assert 0.0 <= est.h_u_given_yz <= 1.0 + 1e-9
        assert 0.0 <= est.h_uhat_given_yz <= 1.0 + 1e-9

    def test_plug_in_needs_many_trials(self, trend_spec, trend_aux):
        books = build_trend(trend_spec, trend_aux, 8)
        with pytest.raises(ValidationError):
            sim.estimate_equivocation(books, mode="plug_in", trials=100)

    def test_exact_mode_cap(self, trend_spec, trend_aux):
        books = build_trend(trend_spec, trend_aux, 8)
        with pytest.raises(ResourceCapError):
            sim.estimate_equivocation(books, enum_cap=10)

    def test_ensemble_average(self):
        spec = binary_spec(x_size=1, lam=0.5, d_cost=[[0.0, 1.0]])
        aux = copy_embedder_aux(spec, [0.5, 0.5])
        h_u, h_uhat, ests = sim.estimate_equivocation_ensemble(
            spec, aux, 4, 0.3, seeds=[1, 2, 3], d_prime_value=0.5,
            m2_bits=0, m3_bits=0, j_bits=0,
        )
        assert h_u == pytest.approx(1.0, abs=1e-12)
        assert len(ests) == 3


class TestAudits:
    def _audit_books(self, seed=21):
        spec = binary_spec(x_size=1, lam=0.2, d_cost=[[0.0, 1.0]])
        aux = copy_embedder_aux(spec, [0.5, 0.5])
        return sim.build_codebooks(spec, aux, 10, 0.2, seed, 0.0, m2_bits=7, m3_bits=0, j_bits=1)

    def test_single_bin_audit_trivial(self):
        spec = binary_spec(x_size=1, lam=0.2, d_cost=[[0.0, 1.0]])
        aux = copy_embedder_aux(spec, [0.5, 0.5])
        books = sim.build_codebooks(spec, aux, 10, 0.2, 3, 0.5, m2_bits=4, m3_bits=0, j_bits=0)
        assert books.sizes.bins == 1
        audit = sim.bin_multiplicity_audit(books, 0.5)
        assert audit.max_bins_per_y == 1 and audit.passed

    def test_multiplicity_within_bound(self):
        audit = sim.bin_multiplicity_audit(self._audit_books(), 0.5)
        assert audit.passed
        assert audit.max_bins_per_y <= audit.bound
        assert audit.max_bins_across_types <= audit.poly_bound_across

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
        books = sim.build_codebooks(spec, aux, 10, 0.2, 9, 0.0, m2_bits=5, m3_bits=0, j_bits=0)
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

    @pytest.mark.parametrize("n", [3, 1])  # lambda n = 1.5 and 0.5
    def test_frequency_validates_message_length_like_the_oracle(self, trend_spec, n):
        with pytest.raises(ValidationError, match="lambda"):
            sim.input_atypicality_probability(trend_spec, n, 0.5)
        with pytest.raises(ValidationError, match="lambda"):
            sim.input_atypicality_frequency(trend_spec, n, 0.5, trials=10, seed=0)


@st.composite
def _box_cases(draw):
    """A book over one axis of a cell grid, each position's context on the
    other axes, and a count box around one row's counts."""
    shape = tuple(draw(st.lists(st.integers(1, 3), min_size=2, max_size=4)))
    value_axis = draw(st.integers(0, len(shape) - 1))
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
        book, ctx_idx, shape, value_axis, box = case
        cells = _reference_cells(book, ctx_idx, shape, value_axis)
        counts = np.zeros((book.shape[0], math.prod(shape)), dtype=np.int64)
        np.add.at(counts, (np.arange(book.shape[0])[:, None], cells), 1)
        expected = (counts >= box.lo).all(axis=1) & (counts <= box.hi).all(axis=1)
        others = [s for i, s in enumerate(shape) if i != value_axis]
        context = np.ravel_multi_index(tuple(ctx_idx), others)
        got = sim._rows_in_box(book, context, sim._cell_bounds(box, shape, value_axis))
        assert got.dtype == bool
        assert np.array_equal(got, expected)


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
