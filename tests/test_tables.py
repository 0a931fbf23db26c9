import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secembed.errors import ValidationError
from secembed.tables import (
    Axis,
    DistTable,
    DistortionMeasure,
    compose_joint,
    conditional_entropy,
    conditional_mutual_information,
    entropy,
    expected_distortion,
    mutual_information,
    row_entropies,
)

A = Axis("A", 2)
B = Axis("B", 2)


def bsc_joint(eps):
    p = np.array([[0.5 * (1 - eps), 0.5 * eps], [0.5 * eps, 0.5 * (1 - eps)]])
    return DistTable([A, B], p)


weights = st.lists(st.floats(0.01, 1.0), min_size=8, max_size=8)


def table_from_weights(w, shape=(2, 2, 2)):
    arr = np.asarray(w, dtype=float).reshape(shape)
    return DistTable([("A", 2), ("B", 2), ("C", 2)], arr / arr.sum())


class TestDistTable:
    def test_joint_must_normalize(self):
        with pytest.raises(ValidationError):
            DistTable([A], [0.5, 0.6])

    def test_conditional_slices_must_normalize(self):
        with pytest.raises(ValidationError):
            DistTable([A, B], [[0.5, 0.5], [0.9, 0.2]], given=("A",))

    def test_negative_entries_rejected(self):
        with pytest.raises(ValidationError):
            DistTable([A], [1.1, -0.1])

    def test_duplicate_axis_names_rejected(self):
        with pytest.raises(ValidationError):
            DistTable([("A", 2), ("A", 2)], np.full((2, 2), 0.25))

    def test_marginal_preserves_order(self):
        t = DistTable([("A", 2), ("B", 3), ("C", 2)], np.full((2, 3, 2), 1 / 12))
        m = t.marginal("C", "A")
        assert m.names == ("A", "C")
        assert m.values.shape == (2, 2)


class TestEntropy:
    def test_uniform_binary(self):
        assert entropy(DistTable([A], [0.5, 0.5])) == 1.0

    def test_point_mass(self):
        assert entropy(DistTable([A], [1.0, 0.0])) == 0.0

    def test_quarter_three_quarter(self):
        # -sum p log2 p at 50-digit precision
        assert entropy(DistTable([A], [0.25, 0.75])) == pytest.approx(
            0.8112781244591328, abs=1e-12
        )

    def test_rejects_conditional(self):
        t = DistTable([A, B], np.full((2, 2), 0.5), given=("A",))
        with pytest.raises(ValidationError):
            entropy(t)

    @given(weights)
    @settings(max_examples=40, deadline=None)
    def test_bounds(self, w):
        t = table_from_weights(w)
        h = entropy(t, ("A", "B"))
        assert -1e-12 <= h <= 2.0 + 1e-12

    @given(weights)
    @settings(max_examples=40, deadline=None)
    def test_chain_rule(self, w):
        t = table_from_weights(w)
        lhs = entropy(t, ("A", "B"))
        rhs = entropy(t, ("A",)) + conditional_entropy(t, ("B",), ("A",))
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_row_entropies_split_at_each_stack(self):
        two, four = np.full((2, 2), 0.5), np.eye(4)
        got = row_entropies(two, four)
        assert [g.tolist() for g in got] == [[1.0, 1.0], [0.0] * 4]
        assert [len(g) for g in row_entropies(two, np.full((3, 4), 0.25))] == [2, 3]

    def test_row_entropies_at_the_pairwise_boundaries(self):
        # 0 terms give +0.0 and a lone 1.0 gives -0.0; 8 and 128 terms are
        # where numpy's pairwise sum changes its grouping
        rng = np.random.default_rng(0)
        sizes = [0, 1, 7, 8, 9, 128, 129, 8193]
        rows = np.zeros((len(sizes), 8200))
        for row, n in zip(rows, sizes):
            row[rng.choice(row.size, n, replace=False)] = rng.random(n) if n > 1 else 1.0
        want = [0.0] + [-(t * np.log2(t)).sum() for t in (row[row > 0] for row in rows[1:])]
        (got,) = row_entropies(rows)
        alone = [row_entropies(row[None])[0][0] for row in rows]
        for h in (got, alone):
            assert np.array_equal(np.asarray(h).view(np.int64), np.array(want).view(np.int64))
        assert np.signbit(got[:2]).tolist() == [False, True]

    @given(
        shapes=st.lists(st.tuples(st.integers(1, 6), st.integers(1, 12)), min_size=1, max_size=5),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_row_entropies_of_unequal_stacks_match_single_calls(self, shapes, seed):
        rng = np.random.default_rng(seed)
        stacks = [rng.random(shape) * (rng.random(shape) < 0.7) for shape in shapes]
        got = row_entropies(*stacks)
        assert len(got) == len(stacks)
        for h, stack in zip(got, stacks):
            (alone,) = row_entropies(stack)
            assert np.array_equal(h.view(np.int64), alone.view(np.int64))

    def test_row_entropies_of_mixed_layouts_match_single_calls(self):
        # transposed and batch-last views beside C-contiguous stacks, with
        # rows on both sides of numpy's 8- and 128-term pairwise boundaries
        rng = np.random.default_rng(5)

        def logical(shape, counts):
            rows = np.zeros((len(counts), math.prod(shape)))
            for row, n in zip(rows, counts):
                row[rng.choice(row.size, n, replace=False)] = rng.random(n) if n > 1 else 1.0
            return rows.reshape(len(counts), *shape)

        c_rows = logical((130,), [0, 8, 129])
        t_rows = logical((130,), [1, 128])
        b_rows = logical((10, 13), [7, 9, 129])
        small = logical((3, 3), [9, 0])
        stacks = [
            c_rows,
            np.ascontiguousarray(t_rows.T).T,  # Fortran order
            np.ascontiguousarray(b_rows.transpose(1, 2, 0)).transpose(2, 0, 1),  # batch axis innermost
            small,
        ]
        assert [s.flags.c_contiguous for s in stacks] == [True, False, False, True]
        got = row_entropies(*stacks)
        for h, stack, rows in zip(got, stacks, (c_rows, t_rows, b_rows, small)):
            assert np.array_equal(stack, rows)
            alone = np.array([row_entropies(stack[b : b + 1])[0][0] for b in range(len(stack))])
            nz = [row[row > 0] for row in rows.reshape(len(rows), -1)]
            want = np.array([-(t * np.log2(t)).sum() if t.size else 0.0 for t in nz])
            assert np.array_equal(h.view(np.int64), alone.view(np.int64))
            assert np.array_equal(h.view(np.int64), want.view(np.int64))


class TestConditionalEntropy:
    def test_independent_fair_bits(self):
        t = DistTable([A, B], np.full((2, 2), 0.25))
        assert conditional_entropy(t, ("A",), ("B",)) == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_copy(self):
        t = DistTable([A, B], [[0.5, 0.0], [0.0, 0.5]])
        assert conditional_entropy(t, ("A",), ("B",)) == pytest.approx(0.0, abs=1e-12)

    def test_bsc_011(self):
        # h2(0.11) by high-precision oracle
        t = bsc_joint(0.11)
        assert conditional_entropy(t, ("B",), ("A",)) == pytest.approx(
            0.499915958164528, abs=1e-12
        )

    def test_overlap_rejected(self):
        t = DistTable([A, B], np.full((2, 2), 0.25))
        with pytest.raises(ValidationError):
            conditional_entropy(t, ("A",), ("A",))


class TestMutualInformation:
    def test_independent(self):
        t = DistTable([A, B], np.full((2, 2), 0.25))
        assert abs(mutual_information(t, ("A",), ("B",))) < 1e-12

    def test_copy_channel(self):
        t = DistTable([A, B], [[0.5, 0.0], [0.0, 0.5]])
        assert mutual_information(t, ("A",), ("B",)) == pytest.approx(1.0, abs=1e-12)

    def test_bsc_011(self):
        # 1 - h2(0.11)
        t = bsc_joint(0.11)
        assert mutual_information(t, ("A",), ("B",)) == pytest.approx(
            0.500084041835472, abs=1e-12
        )

    @given(weights)
    @settings(max_examples=40, deadline=None)
    def test_symmetry_and_entropy_identity(self, w):
        t = table_from_weights(w)
        iab = mutual_information(t, ("A",), ("B",))
        iba = mutual_information(t, ("B",), ("A",))
        via_h = entropy(t, ("A",)) + entropy(t, ("B",)) - entropy(t, ("A", "B"))
        assert iab == pytest.approx(iba, abs=1e-9)
        assert iab == pytest.approx(via_h, abs=1e-9)

    def test_near_zero_clamps_to_exact_zero(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            pa = rng.dirichlet(np.ones(3))
            pb = rng.dirichlet(np.ones(3))
            t = DistTable([("A", 3), ("B", 3)], np.outer(pa, pb) / np.outer(pa, pb).sum())
            assert mutual_information(t, ("A",), ("B",)) >= 0.0


class TestConditionalMutualInformation:
    def test_conditioning_on_irrelevant(self):
        vals = np.zeros((2, 2, 2))
        vals[0, 0, :] = 0.25
        vals[1, 1, :] = 0.25
        t = DistTable([A, B, ("C", 2)], vals)
        assert conditional_mutual_information(t, ("A",), ("B",), ("C",)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_a_determined_by_conditioning(self):
        vals = np.zeros((2, 2, 2))
        for a in range(2):
            for b in range(2):
                vals[a, b, a] = 0.25
        t = DistTable([A, B, ("C", 2)], vals)
        assert conditional_mutual_information(t, ("A",), ("B",), ("C",)) == 0.0

    def test_markov_chain_vanishes(self):
        # A -> B -> C with two BSC(0.1) links, uniform A
        eps = 0.1
        link = np.array([[1 - eps, eps], [eps, 1 - eps]])
        vals = np.zeros((2, 2, 2))
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    vals[a, b, c] = 0.5 * link[a, b] * link[b, c]
        t = DistTable([A, B, ("C", 2)], vals)
        assert conditional_mutual_information(t, ("A",), ("C",), ("B",)) <= 1e-12

    def test_disjointness_enforced(self):
        t = DistTable([A, B, ("C", 2)], np.full((2, 2, 2), 0.125))
        with pytest.raises(ValidationError):
            conditional_mutual_information(t, ("A",), ("B",), ("A",))


class TestComposeJoint:
    def setup_method(self):
        self.X = Axis("X", 2)
        self.K = Axis("K", 2)
        self.V = Axis("V", 2)
        self.Y = Axis("Y", 2)
        self.Z = Axis("Z", 2)

    def _compose(self, xk, kern, att):
        return compose_joint(
            DistTable([self.X, self.K], xk),
            DistTable([self.K, self.X, self.V, self.Y], kern, given=("K", "X")),
            DistTable([self.Y, self.Z], att, given=("Y",)),
        )

    def test_deterministic_factors_give_point_mass(self):
        xk = np.zeros((2, 2))
        xk[1, 0] = 1.0
        kern = np.zeros((2, 2, 2, 2))
        kern[:, :, 1, 0] = 1.0
        att = np.array([[0.0, 1.0], [0.0, 1.0]])
        j = self._compose(xk, kern, att)
        assert j.values.max() == 1.0
        assert j.values.sum() == 1.0

    def test_identity_attack_copies_marginal(self):
        rng = np.random.default_rng(0)
        xk = rng.dirichlet(np.ones(4)).reshape(2, 2)
        kern = rng.dirichlet(np.ones(4), size=(2, 2)).reshape(2, 2, 2, 2)
        j = self._compose(xk, kern, np.eye(2))
        py = j.marginal("Y").values
        pz = j.marginal("Z").values
        np.testing.assert_allclose(py, pz, atol=1e-15)

    def test_uniform_factors(self):
        j = self._compose(np.full((2, 2), 0.25), np.full((2, 2, 2, 2), 0.25), np.full((2, 2), 0.5))
        np.testing.assert_allclose(j.values, 1 / 32)

    def test_marginal_recovery_entry_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            xk = rng.dirichlet(np.ones(4)).reshape(2, 2)
            kern = rng.dirichlet(np.ones(4), size=(2, 2)).reshape(2, 2, 2, 2)
            att = rng.dirichlet(np.ones(2), size=2)
            j = self._compose(xk, kern, att)
            back = j.marginal("K", "X").reorder(("X", "K")).values
            assert np.max(np.abs(back - xk)) <= 1e-12

    def test_data_processing_through_attack(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            xk = rng.dirichlet(np.ones(4)).reshape(2, 2)
            kern = rng.dirichlet(np.ones(4), size=(2, 2)).reshape(2, 2, 2, 2)
            att = rng.dirichlet(np.ones(2), size=2)
            j = self._compose(xk, kern, att)
            assert mutual_information(j, ("V",), ("Z",)) <= mutual_information(
                j, ("V",), ("Y",)
            ) + 1e-9
            assert mutual_information(j, ("X",), ("Z",)) <= mutual_information(
                j, ("X",), ("Y",)
            ) + 1e-9

    def test_alphabet_mismatch_rejected(self):
        kern = np.full((2, 2, 2, 2), 0.25)
        with pytest.raises(ValidationError):
            compose_joint(
                DistTable([self.X, self.K], np.full((2, 2), 0.25)),
                DistTable(
                    [Axis("K", 2), Axis("W", 2), self.V, self.Y], kern, given=("K", "W")
                ),
                DistTable([self.Y, self.Z], np.eye(2), given=("Y",)),
            )


class TestExpectedDistortion:
    def test_zero_cost(self):
        t = DistTable([("X", 2), ("Y", 2)], np.full((2, 2), 0.25))
        d = DistortionMeasure(Axis("X", 2), Axis("Y", 2), np.zeros((2, 2)))
        assert expected_distortion(t, d) == 0.0

    def test_perfect_fidelity(self):
        t = DistTable([("X", 2), ("Y", 2)], [[0.5, 0.0], [0.0, 0.5]])
        d = DistortionMeasure.hamming(Axis("X", 2), Axis("Y", 2))
        assert expected_distortion(t, d) == 0.0

    def test_independent_uniform_hamming(self):
        t = DistTable([("X", 2), ("Y", 2)], np.full((2, 2), 0.25))
        d = DistortionMeasure.hamming(Axis("X", 2), Axis("Y", 2))
        assert expected_distortion(t, d) == pytest.approx(0.5, abs=1e-15)

    def test_negative_cost_rejected(self):
        with pytest.raises(ValidationError):
            DistortionMeasure(Axis("X", 2), Axis("Y", 2), [[0.0, -1.0], [1.0, 0.0]])
