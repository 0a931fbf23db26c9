import dataclasses
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secembed import rd
from secembed.errors import EmptyTypicalSetError, InfeasibleError, ResourceCapError, ValidationError
from secembed.rd import blahut_arimoto, build_rd_codebook, rd_curve, rd_encode
from secembed.tables import Axis, DistTable, DistortionMeasure
from secembed.typical import enumerate_typical

U = Axis("U", 2)
UHAT = Axis("Uhat", 2)
BSS = DistTable([U], [0.5, 0.5])
HAMMING = DistortionMeasure.hamming(U, UHAT)


def h2(x):
    return -(x * math.log2(x) + (1 - x) * math.log2(1 - x))


class TestBlahutArimoto:
    def test_lossless_boundary(self):
        sol = blahut_arimoto(BSS, HAMMING, 0.0)
        assert sol.rate_bits == pytest.approx(1.0, abs=1e-12)
        assert sol.distortion == 0.0

    def test_saturation(self):
        for d in (0.5, 0.7, 1.0):
            sol = blahut_arimoto(BSS, HAMMING, d)
            assert sol.rate_bits == 0.0
            assert sol.distortion <= d + 1e-6

    def test_closed_form_binary_symmetric(self):
        # R(D) = 1 - h2(D) for the symmetric binary source under Hamming
        for d in np.arange(0.05, 0.46, 0.05):
            sol = blahut_arimoto(BSS, HAMMING, float(d))
            assert sol.rate_bits == pytest.approx(1 - h2(float(d)), abs=1e-5)
            assert sol.distortion <= d + 1e-6

    def test_specific_point(self):
        sol = blahut_arimoto(BSS, HAMMING, 0.1)
        assert sol.rate_bits == pytest.approx(0.5310044064107188, abs=1e-5)

    def test_grid_brute_force_oracle(self):
        # independent check: scan binary test channels on a fine grid
        target = 0.1
        best = 1.0
        for a in np.linspace(0, 0.4, 401):
            for b in np.linspace(0, 0.4, 401):
                w = np.array([[1 - a, a], [b, 1 - b]])
                dist = 0.5 * (a + b)
                if dist > target:
                    continue
                q = 0.5 * w[0] + 0.5 * w[1]
                i = 0.0
                for u in range(2):
                    for v in range(2):
                        if w[u, v] > 0:
                            i += 0.5 * w[u, v] * math.log2(w[u, v] / q[v])
                best = min(best, i)
        sol = blahut_arimoto(BSS, HAMMING, target)
        assert sol.rate_bits == pytest.approx(best, abs=1e-3)

    def test_asymmetric_source(self):
        p = DistTable([U], [0.2, 0.8])
        sol = blahut_arimoto(p, HAMMING, 0.05)
        # R(D) = h2(p) - h2(D) for D <= min(p, 1-p)
        assert sol.rate_bits == pytest.approx(h2(0.2) - h2(0.05), abs=1e-5)

    def test_channel_meets_distortion(self):
        sol = blahut_arimoto(BSS, HAMMING, 0.17)
        mat = sol.test_channel.conditional_matrix(("U",), ("Uhat",))
        dist = float((0.5 * mat * HAMMING.cost).sum())
        assert dist <= 0.17 + 1e-6

    def test_negative_target_rejected(self):
        with pytest.raises(ValidationError):
            blahut_arimoto(BSS, HAMMING, -0.1)


class TestRdCurve:
    def test_endpoints(self):
        pts = rd_curve(BSS, HAMMING, [0.0, 0.5])
        assert pts[0][1].rate_bits == pytest.approx(1.0, abs=1e-12)
        assert pts[1][1].rate_bits == 0.0

    def test_constant_source(self):
        p = DistTable([U], [1.0, 0.0])
        pts = rd_curve(p, HAMMING, [0.0, 0.1, 0.3])
        assert all(sol.rate_bits == pytest.approx(0.0, abs=1e-9) for _, sol in pts)

    def test_grid_values(self):
        pts = rd_curve(BSS, HAMMING, [0.05, 0.1, 0.2])
        expected = [0.7136030428840439, 0.5310044064107188, 0.2780719051126377]
        for (_, sol), e in zip(pts, expected):
            assert sol.rate_bits == pytest.approx(e, abs=1e-5)

    def test_monotone_and_convex(self):
        grid = list(np.arange(0.05, 0.46, 0.05))
        pts = rd_curve(BSS, HAMMING, grid)
        rates = [sol.rate_bits for _, sol in pts]
        assert all(b <= a + 1e-7 for a, b in zip(rates, rates[1:]))
        for r0, r1, r2 in zip(rates, rates[1:], rates[2:]):
            assert r1 <= 0.5 * (r0 + r2) + 1e-7

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ValidationError):
            rd_curve(BSS, HAMMING, [0.2, 0.1])


class TestCodebook:
    def test_zero_distortion_cover_is_typical_set(self):
        cb = build_rd_codebook(BSS, HAMMING, 0.0, 6, 0.25)
        typ = enumerate_typical(BSS, 6, 0.25)
        assert cb.distinct_count == len(typ)
        assert sorted(tuple(r) for r in cb.codewords[: cb.distinct_count]) == sorted(
            tuple(t) for t in typ
        )
        assert cb.index_bits == math.ceil(math.log2(len(typ)))

    def test_max_distortion_single_codeword(self):
        cb = build_rd_codebook(BSS, HAMMING, 1.0, 6, 0.25)
        assert cb.distinct_count == 1
        assert cb.index_bits == 0

    def test_full_coverage_exhaustive(self):
        # every typical word within the certified radius of some codeword
        cb = build_rd_codebook(BSS, HAMMING, 0.125, 8, 0.25)
        for t in enumerate_typical(BSS, 8, 0.25):
            dmin = min(
                HAMMING.per_sequence(t, cw) for cw in cb.codewords
            )
            assert dmin <= cb.coverage_radius + 1e-12

    def test_coverage_with_slack(self):
        cb = build_rd_codebook(BSS, HAMMING, 0.125, 8, 0.25, eps_cov=0.125)
        assert cb.coverage_radius == pytest.approx(2.0)
        for t in enumerate_typical(BSS, 8, 0.25):
            dmin = min(HAMMING.per_sequence(t, cw) for cw in cb.codewords)
            assert dmin <= 2.0 + 1e-12

    def test_padding_reported(self):
        cb = build_rd_codebook(BSS, HAMMING, 0.125, 8, 0.25)
        assert cb.codewords.shape[0] == 2**cb.index_bits
        assert cb.distinct_count <= cb.codewords.shape[0]
        assert cb.achieved_rate == pytest.approx(math.log2(cb.distinct_count) / 8)

    def test_budget_reported_alongside_width(self):
        cb = build_rd_codebook(BSS, HAMMING, 0.0, 4, 0.4)
        assert cb.budget_bits == 4
        assert cb.index_bits == math.ceil(math.log2(cb.distinct_count))


class TestEncodeDecode:
    def setup_method(self):
        self.cb = build_rd_codebook(BSS, HAMMING, 0.125, 8, 0.25)

    def test_codeword_maps_to_itself(self):
        for i in range(min(4, self.cb.distinct_count)):
            w = self.cb.codewords[i]
            j = rd_encode(w, self.cb)
            assert np.array_equal(self.cb.codewords[j], self.cb.codewords[i])
            assert HAMMING.per_sequence(w, self.cb.codewords[j]) == 0

    def test_tie_breaks_to_lowest_index(self):
        cw = np.array([[0, 0], [1, 1]])
        cb = self.cb.__class__(
            codewords=cw,
            n_symbols=2,
            index_bits=1,
            coverage_delta=0.5,
            target_d=0.5,
            eps_cov=0.0,
            coverage_radius=1.0,
            distinct_count=2,
            rate_bits=0.5,
            distortion=HAMMING,
        )
        # (0, 1) is Hamming-1 from both
        assert rd_encode(np.array([0, 1]), cb) == 0

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(4)
        typ = enumerate_typical(BSS, 8, 0.25)
        for t in rng.choice(len(typ), size=20, replace=False):
            w = typ[int(t)]
            i = rd_encode(w, self.cb)
            dists = [HAMMING.per_sequence(w, cw) for cw in self.cb.codewords]
            assert dists[i] == min(dists)
            assert i == int(np.argmin(dists))

    @given(
        n=st.sampled_from([2, 7, 8, 9, 17]),
        letters=st.integers(1, 3),
        rows=st.integers(1, 6),
        words=st.integers(0, 12),
        integer_costs=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_stack_equals_row_by_row_calls(self, n, letters, rows, words, integer_costs, seed):
        """A (words, n) stack encodes to the row-by-row indices, as an int64
        array, ties (repeated codewords, and 0/1 costs that sum alike)
        included, with lengths on both sides of numpy's eight-term pairwise
        blocks; the one-word call returns an int."""
        rng = np.random.default_rng(seed)
        axis_u, axis_uhat = Axis("U", letters), Axis("Uhat", letters)
        cost = rng.integers(0, 2, size=(letters, letters)) if integer_costs else rng.random((letters, letters))
        codewords = rng.integers(0, letters, size=(rows, n))
        codewords = codewords[rng.integers(0, rows, size=rows + 2)]  # repeated rows tie
        cb = dataclasses.replace(
            self.cb, codewords=codewords, n_symbols=n, distortion=DistortionMeasure(axis_u, axis_uhat, cost)
        )
        stack = rng.integers(0, letters, size=(words, n))
        got = rd_encode(stack, cb)
        singles = [rd_encode(u, cb) for u in stack]
        assert got.dtype == np.int64 and got.shape == (words,) and got.tolist() == singles
        assert all(type(i) is int for i in singles)
        for u, i in zip(stack, singles):
            dists = [cb.distortion.cost[u, c].sum() for c in codewords]
            assert i == dists.index(min(dists))

    def test_stack_shape_checked(self):
        with pytest.raises(ValidationError):
            rd_encode(np.zeros((2, 3, self.cb.n_symbols), dtype=np.int64), self.cb)
        with pytest.raises(ValidationError):
            rd_encode(np.zeros((2, self.cb.n_symbols + 1), dtype=np.int64), self.cb)

    def test_roundtrip_within_certificate(self):
        for t in enumerate_typical(BSS, 8, 0.25):
            i = rd_encode(t, self.cb)
            back = self.cb.codewords[i]
            assert HAMMING.per_sequence(t, back) <= self.cb.coverage_radius + 1e-12


def _reference_cover(p_u, d_prime, target_d, n_symbols, delta, eps_cov=0.0, cap=1 << 24, solution=None):
    """The greedy cover as first written, kept as the reference for the
    incremental gains: the full candidate x source cover matrix recomputed
    for every pick.  Returns the picked codewords and whether the pool was
    extended to the whole reproduction space."""
    sol = solution or blahut_arimoto(p_u, d_prime, target_d)
    src = enumerate_typical(p_u, n_symbols, delta)
    if len(src) == 0:
        raise EmptyTypicalSetError("no typical source words")
    q_out = p_u.values @ sol.test_channel.conditional_matrix((d_prime.rows.name,), (d_prime.cols.name,))
    q_table = DistTable((d_prime.cols,), q_out / q_out.sum())
    candidates = enumerate_typical(q_table, n_symbols, delta)
    radius = n_symbols * (target_d + eps_cov)

    def cover_matrix(cands):
        dists = d_prime.cost[src[None, :, :], cands[:, None, :]].sum(axis=2)
        return dists <= radius + 1e-12

    pool = candidates
    chosen = []
    uncovered = np.ones(len(src), dtype=bool)
    extended = False
    while uncovered.any():
        if pool.size == 0:
            gains = np.zeros(0)
        else:
            covers = cover_matrix(pool)
            gains = covers[:, uncovered].sum(axis=1)
        if gains.size == 0 or gains.max() == 0:
            if extended or d_prime.cols.size**n_symbols > cap:
                raise InfeasibleError("greedy cover stalled")
            pool = np.array(
                list(itertools.product(range(d_prime.cols.size), repeat=n_symbols)), dtype=np.int64
            )
            extended = True
            continue
        best = int(np.argmax(gains))
        chosen.append(pool[best])
        uncovered &= ~covers[best]
    return np.array(chosen, dtype=np.int64), extended


@st.composite
def _cover_cases(draw):
    u_size = draw(st.integers(2, 3))
    uhat_size = draw(st.integers(2, 3))
    weights = np.array(draw(st.lists(st.integers(1, 3), min_size=u_size, max_size=u_size)), float)
    cost = np.array(
        draw(st.lists(st.integers(0, 3), min_size=u_size * uhat_size, max_size=u_size * uhat_size)),
        float,
    ).reshape(u_size, uhat_size)
    p_u = DistTable([Axis("U", u_size)], weights / weights.sum())
    d_prime = DistortionMeasure(Axis("U", u_size), Axis("Uhat", uhat_size), cost)
    # targets from the cheapest deterministic map to past the rate-zero
    # distortion, where the fall-back to the whole space is likely
    p = p_u.values
    d_min = float((p * cost.min(axis=1)).sum())
    d_zero = float((p @ cost).min())
    target = d_min + draw(st.sampled_from([0.0, 0.5, 1.0, 1.25])) * (d_zero - d_min)
    n_symbols = draw(st.integers(2, 6))
    delta = draw(st.sampled_from([0.6, 0.9]))
    eps_cov = draw(st.sampled_from([0.0, 0.25]))
    return p_u, d_prime, target, n_symbols, delta, eps_cov


def _check_cover_matches_reference(case):
    p_u, d_prime, target, n_symbols, delta, eps_cov = case
    # one Blahut-Arimoto solve, the slowest step of a case, serves both covers
    sol = blahut_arimoto(p_u, d_prime, target)
    try:
        ref, _ = _reference_cover(p_u, d_prime, target, n_symbols, delta, eps_cov, solution=sol)
    except (InfeasibleError, EmptyTypicalSetError) as e:
        with pytest.raises(type(e)):
            build_rd_codebook(p_u, d_prime, target, n_symbols, delta, eps_cov=eps_cov, solution=sol)
        return
    cb = build_rd_codebook(p_u, d_prime, target, n_symbols, delta, eps_cov=eps_cov, solution=sol)
    assert np.array_equal(cb.codewords[: cb.distinct_count], ref)


class TestCoverMatchesReference:
    @given(_cover_cases())
    @settings(max_examples=80, deadline=None)
    def test_same_codewords(self, case):
        _check_cover_matches_reference(case)

    @given(_cover_cases())
    @settings(max_examples=40, deadline=None)
    def test_one_candidate_chunks(self, case):
        # the distances of one candidate at a time give the same cover
        with mock.patch.object(rd, "_COVER_CHUNK_BYTES", 1):
            _check_cover_matches_reference(case)

    def test_fallback_to_full_reproduction_space(self):
        # at the rate-zero distortion the only candidate is the all-zero
        # word, which leaves the typical words with three ones uncovered
        ref, extended = _reference_cover(BSS, HAMMING, 0.5, 4, 0.6)
        assert extended
        cb = build_rd_codebook(BSS, HAMMING, 0.5, 4, 0.6)
        assert np.array_equal(cb.codewords[: cb.distinct_count], ref)
        assert cb.distinct_count > 1

    # the typical pool's one candidate fits the cap and the whole space's 16
    # do not, or the pool is over the cap already
    @pytest.mark.parametrize("fallback", [False, True])
    def test_cover_cell_cap(self, monkeypatch, fallback):
        sources = len(enumerate_typical(BSS, 4, 0.6))
        monkeypatch.setattr(rd, "COVER_CELL_CAP", sources if fallback else sources - 1)
        with pytest.raises(ResourceCapError, match=f"RD cover of {16 if fallback else 1} candidates"):
            build_rd_codebook(BSS, HAMMING, 0.5, 4, 0.6)
