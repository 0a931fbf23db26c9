import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import multiset_perms
from secembed import typical
from secembed.errors import EmptyTypicalSetError, ResourceCapError, ValidationError
from secembed.tables import Axis, DistTable, DistortionMeasure, expected_distortion
from secembed.typical import (
    ConditionalTypicalSampler,
    SymbolSequence,
    count_box,
    count_typical,
    enumerate_typical,
    epsilon_from_delta,
    epsilon_schedule,
    is_delta_typical,
    is_jointly_delta_typical,
    letter_dtype,
    typical_distortion_bound,
    typical_set_probability,
    typicality_size_bounds,
)

A = Axis("A", 2)
T = Axis("T", 3)


def seq(symbols, axis=A):
    return SymbolSequence(tuple(symbols), axis)


class TestMembership:
    def test_exact_match_uniform(self):
        p = DistTable([A], [0.5, 0.5])
        assert is_delta_typical(seq([0, 1, 0, 1]), p, 0.1)

    def test_boundary_violation(self):
        p = DistTable([A], [0.5, 0.5])
        assert not is_delta_typical(seq([0, 0, 0, 0]), p, 0.1)

    def test_skewed_accepts_tight_delta(self):
        p = DistTable([A], [0.75, 0.25])
        assert is_delta_typical(seq([0, 0, 0, 1]), p, 0.01)

    def test_zero_probability_letter_requires_zero_count(self):
        p = DistTable([T], [0.5, 0.5, 0.0])
        assert is_delta_typical(seq([0, 1, 0, 1], T), p, 0.2)
        assert not is_delta_typical(seq([0, 1, 2, 1], T), p, 0.2)

    def test_ties_count_as_typical(self):
        # bounds (1 +- 0.5) * 0.5 * 4 = [1, 3] hit exactly
        p = DistTable([A], [0.5, 0.5])
        assert is_delta_typical(seq([0, 0, 0, 1]), p, 0.5)
        assert is_delta_typical(seq([0, 1, 1, 1]), p, 0.5)


class TestJointMembership:
    def test_identity_channel_identical_sequences(self):
        p = DistTable([A], [0.5, 0.5])
        k = DistTable([A, ("B", 2)], np.eye(2), given=("A",))
        s = seq([0, 1, 0, 1])
        assert is_jointly_delta_typical(s, seq([0, 1, 0, 1], Axis("B", 2)), p, k, 0.3)

    def test_constant_output_under_uniform_channel(self):
        p = DistTable([A], [0.5, 0.5])
        k = DistTable([A, ("B", 2)], np.full((2, 2), 0.5), given=("A",))
        s = seq([0, 1, 0, 1])
        assert not is_jointly_delta_typical(s, seq([0, 0, 0, 0], Axis("B", 2)), p, k, 0.1)

    def test_length_mismatch(self):
        p = DistTable([A], [0.5, 0.5])
        k = DistTable([A, ("B", 2)], np.eye(2), given=("A",))
        with pytest.raises(ValidationError):
            is_jointly_delta_typical(seq([0, 1]), seq([0, 1, 0], Axis("B", 2)), p, k, 0.1)

    def test_product_sampling_hits_with_high_frequency(self):
        # law of large numbers at n = 2000
        delta, n, trials = 0.2, 2000, 200
        p = DistTable([A], [0.4, 0.6])
        kmat = np.array([[0.7, 0.3], [0.2, 0.8]])
        k = DistTable([A, ("B", 2)], kmat, given=("A",))
        rng = np.random.default_rng(7)
        hits = 0
        for _ in range(trials):
            a = rng.choice(2, size=n, p=[0.4, 0.6])
            b = (rng.random(n) < kmat[a, 1]).astype(np.int64)  # B = 1 with probability K(1 | a)
            hits += is_jointly_delta_typical(
                SymbolSequence(tuple(a), A), SymbolSequence(tuple(b), Axis("B", 2)), p, k, delta
            )
        assert hits / trials >= 1 - delta - 0.02

    def test_single_sequence_coverage_at_large_n(self):
        delta, n, trials = 0.1, 2000, 300
        p = DistTable([A], [0.3, 0.7])
        box = count_box(p.values, n, delta)
        rng = np.random.default_rng(17)
        hits = 0
        for _ in range(trials):
            a = rng.choice(2, size=n, p=[0.3, 0.7])
            hits += box.contains(np.bincount(a, minlength=2))
        assert hits / trials >= 1 - delta - 0.02

    def test_distortion_bound_on_accepted_pairs(self):
        delta = 0.4
        p = DistTable([A], [0.5, 0.5])
        kmat = np.array([[0.8, 0.2], [0.3, 0.7]])
        k = DistTable([A, ("B", 2)], kmat, given=("A",))
        d = DistortionMeasure.hamming(A, Axis("B", 2))
        joint = DistTable([A, ("B", 2)], 0.5 * kmat)
        bound = typical_distortion_bound(delta, expected_distortion(joint, d))
        rng = np.random.default_rng(13)
        checked = 0
        for _ in range(400):
            a = rng.choice(2, size=20, p=[0.5, 0.5])
            b = np.array([rng.choice(2, p=kmat[ai]) for ai in a])
            sa, sb = SymbolSequence(tuple(a), A), SymbolSequence(tuple(b), Axis("B", 2))
            if is_jointly_delta_typical(sa, sb, p, k, delta):
                checked += 1
                assert d.per_sequence(a, b) / 20 <= bound + 1e-12
        assert checked > 50


class TestEnumeration:
    def test_balanced_pairs_only(self):
        p = DistTable([A], [0.5, 0.5])
        out = enumerate_typical(p, 2, 0.1)
        assert out.tolist() == [[0, 1], [1, 0]]

    def test_vacuous_delta_admits_all(self):
        p = DistTable([A], [0.5, 0.5])
        out = enumerate_typical(p, 3, 0.99)
        # only all-zeros and all-ones violate the closed bounds
        assert len(out) == 6

    def test_point_mass(self):
        p = DistTable([A], [1.0, 0.0])
        out = enumerate_typical(p, 5, 0.1)
        assert out.tolist() == [[0, 0, 0, 0, 0]]

    def test_matches_brute_force_filter(self):
        cases = [(DistTable([A], [0.3, 0.7]), 10, delta) for delta in (0.2, 0.5, 0.8)]
        # a zero-probability letter, and a box that admits no word (letter 0
        # needs a count in [ceil(0.25), floor(0.75)])
        cases += [(DistTable([T], [0.4, 0.0, 0.6]), 6, 0.5), (DistTable([A], [0.25, 0.75]), 2, 0.5)]
        for p, n, delta in cases:
            axis = p.axes[0]
            mine = enumerate_typical(p, n, delta)
            brute = [
                s
                for s in itertools.product(range(axis.size), repeat=n)
                if is_delta_typical(SymbolSequence(s, axis), p, delta)
            ]
            assert mine.dtype == np.int64 and mine.shape == (len(brute), n)
            assert [tuple(w) for w in mine.tolist()] == brute

    @given(
        weights=st.lists(st.integers(0, 6), min_size=1, max_size=4).filter(any),
        n=st.integers(1, 8),
        delta=st.floats(0.01, 0.99),
    )
    @settings(max_examples=150, deadline=None)
    @example(weights=[2, 0, 3], n=6, delta=0.5)  # a zero-probability letter
    @example(weights=[1, 3], n=2, delta=0.5)  # a box that admits no word
    def test_array_build_matches_the_recursion(self, weights, n, delta):
        """The position-by-position array build gives the rows, order and
        dtype the recursive arrangements did, before and after the sort."""
        p = DistTable([Axis("L", len(weights))], np.array(weights) / sum(weights))
        box = count_box(p.values, n, delta)
        comps = list(typical._compositions(n, box.lo.tolist(), box.hi.tolist()))
        by_comp = np.array([w for c in comps for w in multiset_perms(c)], dtype=np.int64).reshape(-1, n)
        got = typical._arrangements(comps, n)
        assert got.dtype == np.int64 and np.array_equal(got, by_comp)
        assert np.array_equal(typical._arrangements(comps, n, np.uint8), by_comp)
        want = by_comp[np.lexsort(by_comp.T[::-1])]
        mine = enumerate_typical(p, n, delta)
        assert mine.dtype == want.dtype and mine.shape == want.shape and np.array_equal(mine, want)

    def test_cap_enforced(self, monkeypatch):
        p = DistTable([A], [0.5, 0.5])
        monkeypatch.setattr(typical, "DEFAULT_ENUMERATION_CAP", 2**20)
        with pytest.raises(ResourceCapError):
            enumerate_typical(p, 21, 0.2)


class TestCountingOracles:
    @pytest.mark.parametrize("delta", [0.2, 0.4, 0.7])
    def test_count_matches_enumeration(self, delta):
        p = DistTable([T], [0.5, 0.3, 0.2])
        assert count_typical(p, 7, delta) == len(enumerate_typical(p, 7, delta))

    @pytest.mark.parametrize("delta", [0.25, 0.6])
    def test_probability_matches_brute_force(self, delta):
        p = DistTable([A], [0.35, 0.65])
        n = 9
        brute = 0.0
        for s in itertools.product(range(2), repeat=n):
            if is_delta_typical(SymbolSequence(s, A), p, delta):
                c1 = sum(s)
                brute += 0.65**c1 * 0.35 ** (n - c1)
        assert typical_set_probability(p, n, delta) == pytest.approx(brute, rel=1e-10)

    def test_probability_large_n(self):
        p = DistTable([A], [0.5, 0.5])
        # binomial tail oracle at n = 2000
        n, delta = 2000, 0.05
        lo = math.ceil((1 - delta) * 0.5 * n)
        hi = math.floor((1 + delta) * 0.5 * n)
        binom = stats.binom(n, 0.5)
        oracle = float(binom.cdf(hi) - binom.cdf(lo - 1))
        assert typical_set_probability(p, n, delta) == pytest.approx(oracle, rel=1e-9)


class TestSizeAndDistortionBounds:
    def test_delta_zero_collapse(self):
        assert typicality_size_bounds(1.0, 10, 0.0) == (1024.0, 1024.0)

    def test_zero_entropy(self):
        lo, hi = typicality_size_bounds(0.0, 8, 0.1)
        assert lo == pytest.approx(2.0 ** (-0.8))
        assert hi == 1.0

    def test_formula(self):
        assert typicality_size_bounds(0.5, 20, 0.1) == (128.0, 2048.0)

    def test_enumerated_size_within_bounds_when_n_moderate(self):
        # the closed forms hold for large n; report-style check at n = 40
        p = DistTable([A], [0.5, 0.5])
        n, delta = 40, 0.25
        size = count_typical(p, n, delta)
        lo, hi = typicality_size_bounds(1.0, n, delta)
        assert size <= hi
        assert size >= lo

    def test_distortion_bound_cases(self):
        assert typical_distortion_bound(0.0, 0.3) == 0.3
        assert typical_distortion_bound(0.5, 0.0) == 0.0
        assert typical_distortion_bound(0.1, 0.2) == pytest.approx(0.242)


class TestConditionalSampling:
    def test_identity_channel_returns_input(self):
        rng = np.random.default_rng(0)
        s = np.array([0, 1, 1, 0])
        out = ConditionalTypicalSampler(s, 2, np.eye(2), 0.2).sample(rng)
        assert np.array_equal(out, s)

    def test_uniform_channel_vacuous_delta_uniform_over_words(self):
        # chi-square sanity against the exact uniform law at n = 4
        k = DistTable([A, ("B", 2)], np.full((2, 2), 0.5), given=("A",))
        s = seq([0, 1, 0, 1])
        kmat = k.conditional_matrix(("A",), ("B",))
        sampler = ConditionalTypicalSampler(s.as_array(), 2, kmat, 0.99)
        members = sampler.enumerate()
        rng = np.random.default_rng(5)
        draws = 20000
        c = Counter(tuple(sampler.sample(rng)) for _ in range(draws))
        assert set(c) <= {tuple(m) for m in members}
        observed = [c.get(tuple(m), 0) for m in members]
        chi = stats.chisquare(observed)
        assert chi.pvalue > 1e-3

    def test_near_deterministic_member_of_enumeration(self):
        # deterministic on one letter, balanced on the other; delta = 0.01
        # pins the balanced letter's counts exactly
        kmat = np.array([[1.0, 0.0], [0.5, 0.5]])
        s = seq([0, 0, 1, 1])
        sampler = ConditionalTypicalSampler(s.as_array(), 2, kmat, 0.01)
        members = {tuple(m) for m in sampler.enumerate()}
        assert members == {(0, 0, 0, 1), (0, 0, 1, 0)}
        rng = np.random.default_rng(11)
        for _ in range(20):
            assert tuple(sampler.sample(rng).tolist()) in members

    def test_empty_set_raises(self):
        # p = 0.25 cells with single occurrences admit no integer count
        kmat = np.array([[0.75, 0.25], [0.25, 0.75]])
        with pytest.raises(EmptyTypicalSetError):
            ConditionalTypicalSampler(np.array([0, 1]), 2, kmat, 0.5)

    def test_multi_axis_conditioning(self):
        # channel conditioned on a (K, V) pair via the row-major product
        # word; every pair occurs twice so the balanced cells admit a count
        k = DistTable(
            [("K", 2), ("V", 2), ("B", 2)],
            np.full((2, 2, 2), 0.5),
            given=("K", "V"),
        )
        sk = np.array([0, 0, 1, 1, 0, 0, 1, 1])
        sv = np.array([0, 1, 0, 1, 0, 1, 0, 1])
        combined = sk * 2 + sv
        kmat = k.conditional_matrix(("K", "V"), ("B",))
        rng = np.random.default_rng(3)
        out = ConditionalTypicalSampler(combined, 4, kmat, 0.99).sample(rng)
        assert len(out) == 8
        # each pair's two positions carry exactly one of each output letter
        for pair in range(4):
            pos = np.flatnonzero(combined == pair)
            assert sorted(out[pos]) == [0, 1]


class TestEpsilonSchedule:
    def test_values_on_composed_joint(self):
        from secembed.tables import compose_joint, conditional_entropy

        rng = np.random.default_rng(8)
        xk = rng.dirichlet(np.ones(4)).reshape(2, 2)
        kern = rng.dirichlet(np.ones(4), size=(2, 2)).reshape(2, 2, 2, 2)
        j = compose_joint(
            DistTable([("X", 2), ("K", 2)], xk),
            DistTable([("K", 2), ("X", 2), ("V", 2), ("Y", 2)], kern, given=("K", "X")),
            DistTable([("Y", 2), ("Z", 2)], np.eye(2), given=("Y",)),
        )
        delta = 0.3
        e1, e2, e3 = epsilon_schedule(j, delta)
        k, x, v, y, z = j.names
        assert e1 == pytest.approx(
            delta
            * (
                1
                + conditional_entropy(j, (v,), (k,))
                + conditional_entropy(j, (v,), (k, x))
            )
        )
        assert e3 == pytest.approx(
            delta
            * (
                1
                + conditional_entropy(j, (v,), (k,))
                + conditional_entropy(j, (v,), (z, k))
            )
        )
        assert e2 > 0

    def test_epsilon_from_delta_regimes(self):
        # small n: the exponential-tail term dominates; large n: delta^2
        assert epsilon_from_delta(0.25, 8) == pytest.approx(
            0.5 + 2 * math.exp(-(2.0**2)) + 2.0**-2
        )
        assert epsilon_from_delta(0.25, 4000) == pytest.approx(0.5 + 0.0625)


def _unrank(counts, r):
    """The rank-r word, in lexicographic order, of the words spelling the
    composition ``counts``: each position takes the least letter whose
    words, counted by the multinomial, pass rank r."""
    from secembed.typical import _multinomial

    left, word = list(counts), []
    for _ in range(sum(counts)):
        for s, c in enumerate(left):
            if c:
                left[s] -= 1
                block = _multinomial(sum(left), left)
                if r < block:
                    word.append(s)
                    break
                r -= block
                left[s] += 1
    return word


def _reference_sample(seq_a, a_size, k_matrix, delta, rng):
    """The sampler as first written, kept as the reference for the cached
    tables: every table rebuilt from the count box and each letter drawn in
    letter order.  A letter whose words fit ``_LETTER_WORDS_BYTES`` draws a
    rank r below its set's size, none when the set is one word, and takes
    the rank-r word of the compositions in box order, each one's words in
    lexicographic order (``_unrank``), which is ``_arrangements``' order;
    a larger one draws as random stream 2 did, a rank picking the
    composition by a hand-written bisection and then a shuffle of its
    letter word."""
    from secembed.typical import _LETTER_WORDS_BYTES, _compositions, _multinomial, _randrange, conditional_count_box

    counts_a = np.bincount(seq_a, minlength=a_size)
    box = conditional_count_box(counts_a, k_matrix, delta)
    b_size = k_matrix.shape[1]
    lo = box.lo.reshape(a_size, b_size)
    hi = box.hi.reshape(a_size, b_size)
    out = np.zeros(len(seq_a), dtype=np.int64)
    for a in range(a_size):
        pos = np.flatnonzero(seq_a == a)
        if pos.size == 0:
            continue
        na = int(counts_a[a])
        comps = list(_compositions(na, [int(v) for v in lo[a]], [int(v) for v in hi[a]]))
        if not comps:
            raise EmptyTypicalSetError(f"letter {a} admits no count vector")
        cum = list(itertools.accumulate(_multinomial(na, c) for c in comps))
        if cum[-1] * na * letter_dtype(b_size).itemsize <= _LETTER_WORDS_BYTES:
            r = int(rng.integers(0, cum[-1])) if cum[-1] > 1 else 0
            first = next(i for i, c in enumerate(cum) if r < c)
            out[pos] = _unrank(comps[first], r - (cum[first - 1] if first else 0))
            continue
        r = _randrange(rng, cum[-1])
        first, last = 0, len(cum) - 1
        while first < last:
            mid = (first + last) // 2
            if r < cum[mid]:
                last = mid
            else:
                first = mid + 1
        out[pos] = rng.permutation(np.repeat(np.arange(b_size), comps[first]))
    return out


@st.composite
def _sampler_cases(draw):
    a_size = draw(st.integers(1, 3))
    b_size = draw(st.integers(1, 3))
    n = draw(st.integers(1, 16))
    seq_a = np.array(draw(st.lists(st.integers(0, a_size - 1), min_size=n, max_size=n)))
    weights = np.array(
        draw(st.lists(st.integers(1, 4), min_size=a_size * b_size, max_size=a_size * b_size)),
        dtype=np.float64,
    ).reshape(a_size, b_size)
    k_matrix = weights / weights.sum(axis=1, keepdims=True)
    delta = draw(st.sampled_from([0.3, 0.8, 0.99]))
    return seq_a, a_size, k_matrix, delta, draw(st.integers(0, 2**32 - 1))


class TestSamplerMatchesReference:
    @given(_sampler_cases())
    @settings(max_examples=150, deadline=None)
    def test_draw_for_draw(self, case):
        seq_a, a_size, k_matrix, delta, seed = case
        try:
            sampler = ConditionalTypicalSampler(seq_a, a_size, k_matrix, delta)
        except EmptyTypicalSetError:
            with pytest.raises(EmptyTypicalSetError):
                _reference_sample(seq_a, a_size, k_matrix, delta, np.random.default_rng(0))
            return
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(4):
            got = sampler.sample(rng)
            assert got.dtype == np.int64
            assert np.array_equal(got, _reference_sample(seq_a, a_size, k_matrix, delta, ref_rng))
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_big_integer_totals(self):
        # one admissible composition with 40! / 5!^8 > 2^62 arrangements: the
        # composition draw goes through the arbitrary-precision path
        k_matrix = np.full((1, 8), 0.125)
        seq_a = np.zeros(40, dtype=np.int64)
        sampler = ConditionalTypicalSampler(seq_a, 1, k_matrix, 0.05)
        assert sampler.set_size > 1 << 62
        rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
        for _ in range(3):
            assert np.array_equal(
                sampler.sample(rng), _reference_sample(seq_a, 1, k_matrix, 0.05, ref_rng)
            )
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_letter_tables_are_shared_and_read_only(self):
        from secembed.typical import _letter_table

        kmat = np.array([[0.5, 0.5], [0.25, 0.75]])
        s1 = ConditionalTypicalSampler(np.array([0, 0, 1, 1, 0, 1, 1, 1]), 2, kmat, 0.5)
        s2 = ConditionalTypicalSampler(np.array([1, 1, 0, 1, 1, 0, 0, 1]), 2, kmat, 0.5)
        assert s1._tables[0] is s2._tables[0] and s1._tables[1] is s2._tables[1]
        assert not s1._tables[1].words.flags.writeable
        assert _letter_table.cache_info().maxsize is not None
        # a letter past the table cap shares its read-only composition words
        past = ConditionalTypicalSampler(np.zeros(36, dtype=np.int64), 1, np.full((1, 2), 0.5), 0.05)._tables[0]
        assert past.words is None and not past.spelled.flags.writeable and not past.cum_int64.flags.writeable


class TestSampleRows:
    """``sample_rows`` draws uniform members of the set in the books' letter
    dtype, a tabulated letter's words at one draw of ranks, and a one-row
    batch, which ``sample`` is, draws exactly what the reference sampler
    draws."""

    @given(_sampler_cases())
    @example(  # letter 0's set is one word: it makes no draw
        case=(np.array([0, 1, 0, 0, 1, 1]), 2, np.array([[1.0, 0.0], [0.5, 0.5]]), 0.8, 5)
    )
    @example(  # letter 0 has a single position
        case=(np.array([1, 0, 1, 1, 1, 1]), 2, np.array([[0.5, 0.5], [0.25, 0.75]]), 0.8, 9)
    )
    @settings(max_examples=150, deadline=None)
    def test_rows_match_scalar_draws(self, case):
        seq_a, a_size, k_matrix, delta, seed = case
        try:
            sampler = ConditionalTypicalSampler(seq_a, a_size, k_matrix, delta)
        except EmptyTypicalSetError:
            return  # the scalar path's own property covers empty sets
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            got = sampler.sample_rows(rng, 1)[0]
            assert np.array_equal(got, _reference_sample(seq_a, a_size, k_matrix, delta, ref_rng))
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize(
        "seq_a, k_matrix, delta",
        [
            # past the table cap, one composition with 40! / 5!^8 > 2^62
            # arrangements: big integers
            (np.zeros(40, dtype=np.int64), np.full((1, 8), 0.125), 0.05),
            # past the cap, one composition with C(36, 18) arrangements, in (2^32, 2^62]
            (np.zeros(36, dtype=np.int64), np.full((1, 2), 0.5), 0.05),
            # past the cap, 2^32 - 2 arrangements in all, in 32 draws a row
            (np.zeros(32, dtype=np.int64), np.full((1, 2), 0.5), 0.99),
            # 33 words of 33 letters, tabulated: one rank draw a row
            (np.zeros(33, dtype=np.int64), np.array([[0.97, 0.03]]), 0.5),
            # one word of 12 letters: no draw
            (np.zeros(12, dtype=np.int64), np.array([[1.0, 0.0]]), 0.5),
            # one word in one position: no draw
            (np.zeros(1, dtype=np.int64), np.array([[1.0, 0.0]]), 0.5),
        ],
        ids=["big-integer", "64-bit", "32-bit", "tabulated", "one-word", "no-draws"],
    )
    def test_replay_or_scalar_loop(self, seq_a, k_matrix, delta):
        # each case takes one draw path of a letter set: a batch holds
        # members in the letter dtype, and one-row batches keep in step with
        # successive reference draws, generator state included
        sampler = ConditionalTypicalSampler(seq_a, 1, k_matrix, delta)
        got = sampler.sample_rows(np.random.default_rng(4), 5)
        assert got.shape == (5, len(seq_a)) and got.dtype == letter_dtype(k_matrix.shape[1])
        assert all(sampler.contains(row) for row in got)
        rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
        for _ in range(5):
            got = sampler.sample_rows(rng, 1)[0]
            assert np.array_equal(got, _reference_sample(seq_a, 1, k_matrix, delta, ref_rng))
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    @given(_sampler_cases(), st.integers(0, 9))
    @example(  # big-integer compositions, drawn row by row
        case=(np.zeros(40, dtype=np.int64), 1, np.full((1, 8), 0.125), 0.05, 4), rows=3
    )
    @settings(max_examples=100, deadline=None)
    def test_rows_are_members(self, case, rows):
        seq_a, a_size, k_matrix, delta, seed = case
        try:
            sampler = ConditionalTypicalSampler(seq_a, a_size, k_matrix, delta)
        except EmptyTypicalSetError:
            return
        got = sampler.sample_rows(np.random.default_rng(seed), rows)
        assert got.shape == (rows, len(seq_a)) and got.dtype == letter_dtype(k_matrix.shape[1])
        assert all(sampler.contains(row) for row in got)

    def test_rows_uniform_over_the_set(self):
        # chi-square against the exact uniform law over 90 words, whose
        # letters each admit two compositions of unequal arrangement counts
        kmat = np.array([[0.5, 0.5], [0.25, 0.75]])
        sampler = ConditionalTypicalSampler(np.array([0, 0, 1, 1, 1, 1, 0, 1]), 2, kmat, 0.9)
        members = [tuple(m.tolist()) for m in sampler.enumerate()]
        assert len(members) == 90
        c = Counter(map(tuple, sampler.sample_rows(np.random.default_rng(5), 20000).tolist()))
        assert set(c) <= set(members)
        chi = stats.chisquare([c.get(m, 0) for m in members])
        assert chi.pvalue > 1e-3

    def test_rows_uniform_past_the_table_cap(self, monkeypatch, letter_table_cache):
        # the same set and bound with no letter tabulated: each row draws a
        # composition and shuffles its letter word, as random stream 2 did
        monkeypatch.setattr(typical, "_LETTER_WORDS_BYTES", 0)
        kmat = np.array([[0.5, 0.5], [0.25, 0.75]])
        sampler = ConditionalTypicalSampler(np.array([0, 0, 1, 1, 1, 1, 0, 1]), 2, kmat, 0.9)
        assert all(table.words is None for table in sampler._tables)
        members = [tuple(m.tolist()) for m in sampler.enumerate()]
        c = Counter(map(tuple, sampler.sample_rows(np.random.default_rng(5), 20000).tolist()))
        assert set(c) <= set(members)
        chi = stats.chisquare([c.get(m, 0) for m in members])
        assert chi.pvalue > 1e-3

    @given(_sampler_cases(), st.integers(1, 9))
    @settings(max_examples=100, deadline=None)
    def test_rows_are_ranks_into_the_letter_tables(self, case, rows):
        """A tabulated letter holds every word of its set once, and a batch
        is, letter by letter, its words at one ``integers(0, total,
        size=rows)`` draw (none for a one-word set), generator state
        included."""
        seq_a, a_size, k_matrix, delta, seed = case
        try:
            sampler = ConditionalTypicalSampler(seq_a, a_size, k_matrix, delta)
        except EmptyTypicalSetError:
            return
        tables = [(pos, table) for pos, table in zip(sampler.positions, sampler._tables) if table is not None]
        assume(all(table.words is not None for _, table in tables))
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sampler.sample_rows(rng, rows)
        for pos, table in tables:
            words = table.words.astype(np.int64)
            counts = (words[:, :, None] == np.arange(sampler.b_size)).sum(axis=1)
            assert len(np.unique(words, axis=0)) == len(words) == table.total
            assert set(map(tuple, counts.tolist())) == set(table.comps)
            ranks = ref_rng.integers(0, table.total, size=rows) if table.total > 1 else np.zeros(rows, dtype=np.intp)
            assert np.array_equal(got[:, pos], table.words[ranks])
        assert rng.bit_generator.state == ref_rng.bit_generator.state
