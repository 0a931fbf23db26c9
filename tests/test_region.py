import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from secembed import region, tables
from secembed.errors import InfeasibleError, ValidationError
from secembed.rd import blahut_arimoto
from secembed.region import (
    AuxChannel,
    RegionPoint,
    SystemSpec,
    attack_free_witness,
    chain_row,
    compose_system,
    eval_attack_free_region,
    eval_extended,
    eval_keyed_region,
    eval_lossless_region,
    inherent_constraint_check,
    optimize_region,
    random_aux_channel,
    system_quantities,
)
from secembed.tables import LOG_ZERO_CUTOFF, Axis, DistTable, DistortionMeasure

from conftest import UHAT, U, binary_spec, copy_embedder_aux, miss_one_condition


def h2(x):
    return -(x * math.log2(x) + (1 - x) * math.log2(1 - x))


def bsc_channel(spec, eps):
    m = np.array([[1 - eps, eps], [eps, 1 - eps]])
    return DistTable([spec.x_axis, spec.y_axis], m, given=(spec.x_axis.name,))


POINT = RegionPoint(d=0.5, d_prime=0.25, r_c=2.0, r_c_prime=2.0, h=0.1, h_prime=0.1)


class TestSpecValidation:
    def test_lambda_positive(self):
        with pytest.raises(ValidationError):
            binary_spec(lam=0.0)

    def test_v_cardinality_bound(self):
        spec = binary_spec()
        assert spec.v_cardinality_bound() == 2 * 2 * 2 + 1
        big = Axis("V", 10)
        vals = np.full((2, 2, 10, 2), 1.0 / 20)
        aux = AuxChannel(DistTable([spec.k_axis, spec.x_axis, big, spec.y_axis], vals, given=("K", "X")))
        with pytest.raises(ValidationError):
            aux.validate_for(spec)

    def test_negative_point_rejected(self):
        with pytest.raises(ValidationError):
            RegionPoint(d=-0.1, d_prime=0, r_c=0, r_c_prime=0, h=0, h_prime=0)

    def test_attack_matrix_is_built_once_and_read_only(self):
        spec = binary_spec(attack=[[0.9, 0.1], [0.2, 0.8]])
        att = spec.attack_matrix
        assert att is spec.attack_matrix and not att.flags.writeable
        assert np.array_equal(att, spec.p_z_given_y.conditional_matrix(("Y",), ("Z",)))


class TestKeyedRegion:
    def test_private_watermarking_degeneracy(self):
        # key equals covertext: the two covertext-side informations vanish
        spec = binary_spec(xk_joint=[[0.5, 0.0], [0.0, 0.5]])
        rng = np.random.default_rng(0)
        for _ in range(50):
            aux = random_aux_channel(spec, 2, rng)
            q = system_quantities(spec, aux)
            assert q["I(V;X|K)"] == 0.0
            assert q["I(X;Y,V|K)"] == 0.0

    def test_zero_capacity_attack(self):
        # forgery independent of the composite word: condition (c) bound <= 0
        spec = binary_spec(attack=[[0.5, 0.5], [0.5, 0.5]])
        aux = copy_embedder_aux(spec, [0.5, 0.5])
        rep = eval_keyed_region(spec, aux, POINT)
        assert rep["c"].bound <= 1e-12
        assert not rep["c"].satisfied  # lambda R_U(0.25) > 0

    def test_deterministic_embedder_zero_headroom(self):
        # V = Y = copy of X, identity attack, independent uniform key
        spec = binary_spec()
        V = Axis("V", 2)
        vals = np.zeros((2, 2, 2, 2))
        for x in range(2):
            vals[:, x, x, x] = 1.0
        aux = AuxChannel(DistTable([spec.k_axis, spec.x_axis, V, spec.y_axis], vals, given=("K", "X")))
        q = system_quantities(spec, aux)
        assert q["I(V;Z|K)"] - q["I(V;X|K)"] == pytest.approx(0.0, abs=1e-12)
        assert q["H(Y|X)"] == pytest.approx(0.0, abs=1e-12)

    def test_quantities_use_composed_joint(self):
        # key-composite dependence must show up in H(K|Y)
        spec = binary_spec()
        V = Axis("V", 2)
        vals = np.zeros((2, 2, 2, 2))
        for k in range(2):
            vals[k, :, :, k] = 0.5  # Y copies K
        aux = AuxChannel(DistTable([spec.k_axis, spec.x_axis, V, spec.y_axis], vals, given=("K", "X")))
        q = system_quantities(spec, aux)
        assert q["H(K|Y)"] == pytest.approx(0.0, abs=1e-12)
        assert q["I(K;Y)"] == pytest.approx(1.0, abs=1e-12)


class TestAttackFreeReduction:
    def setup_method(self):
        self.spec = binary_spec()
        self.pyx = bsc_channel(self.spec, 0.3)
        self.aux = attack_free_witness(self.spec, self.pyx)

    def test_condition_bounds_coincide(self):
        pt = RegionPoint(d=0.3, d_prime=0.25, r_c=1.0, r_c_prime=1.0, h=0.5, h_prime=0.5)
        r4 = eval_keyed_region(self.spec, self.aux, pt)
        r2 = eval_attack_free_region(self.spec, self.pyx, pt)
        for k4, k2 in (("a", "a"), ("b", "b"), ("c", "c_i"), ("d", "c_ii"), ("f", "c_iii")):
            assert r4[k4].bound == pytest.approx(r2[k2].bound, abs=1e-9)
            assert r4[k4].attained == pytest.approx(r2[k2].attained, abs=1e-9)

    def test_lossy_collapses_to_lossless_at_zero(self):
        pt = RegionPoint(d=0.3, d_prime=0.0, r_c=2.0, r_c_prime=2.0, h=0.4, h_prime=0.4)
        r2 = eval_attack_free_region(self.spec, self.pyx, pt)
        r1 = eval_lossless_region(self.spec, self.pyx, pt)
        for k2, k1 in (("a", "a"), ("c_i", "b_i"), ("c_ii", "b_ii"), ("c_iii", "b_iii")):
            assert r2[k2].bound == pytest.approx(r1[k1].bound, abs=1e-9)

    def test_lossless_conditions(self):
        # embedding passes iff lambda H(U) fits under H(Y|X) = h2(0.2)
        spec = binary_spec()
        pyx = bsc_channel(spec, 0.2)
        pt = RegionPoint(d=0.5, d_prime=0.0, r_c=2.0, r_c_prime=2.0, h=0.2, h_prime=0.2)
        rep = eval_lossless_region(spec, pyx, pt)
        assert rep["b_i"].bound == pytest.approx(h2(0.2), abs=1e-9)
        assert not rep["b_i"].satisfied  # lambda H(U) = 1 > 0.7219

    def test_deterministic_channel_blocks_embedding(self):
        spec = binary_spec()
        pyx = DistTable([spec.x_axis, spec.y_axis], np.eye(2), given=("X",))
        pt = RegionPoint(d=0.5, d_prime=0.0, r_c=2.0, r_c_prime=2.0, h=0.0, h_prime=0.0)
        rep = eval_lossless_region(spec, pyx, pt)
        assert rep["b_i"].bound == 0.0
        assert not rep["b_i"].satisfied

    def test_requires_independent_key(self):
        spec = binary_spec(xk_joint=[[0.5, 0.0], [0.0, 0.5]])
        with pytest.raises(ValidationError):
            eval_lossless_region(spec, bsc_channel(spec, 0.1), POINT)

    def test_chain_holds_on_random_channels(self):
        rng = np.random.default_rng(42)
        spec = binary_spec()
        for _ in range(100):
            aux = random_aux_channel(spec, 2, rng)
            row = chain_row(spec, aux)
            assert row.ok, row

    def test_constant_aux_word(self):
        spec = binary_spec()
        V = Axis("V", 1)
        vals = np.zeros((2, 2, 1, 2))
        vals[:, :, 0, :] = 0.5
        aux = AuxChannel(DistTable([spec.k_axis, spec.x_axis, V, spec.y_axis], vals, given=("K", "X")))
        row = chain_row(spec, aux)
        assert row.values[0] == pytest.approx(0.0, abs=1e-12)
        assert row.values[3] >= row.values[0]

    def test_reduction_report(self):
        # the chain holds on random channels and is tight on the V = Y witness
        rng = np.random.default_rng(1)
        for _ in range(20):
            assert chain_row(self.spec, random_aux_channel(self.spec, 3, rng)).ok
        witness = chain_row(self.spec, self.aux)
        assert witness.ok and witness.tight


class TestExtended:
    def test_coincides_when_key_is_small(self):
        # small-entropy key: the reconstruction-entropy cap is inactive and
        # the minimizing test channel reproduces the base conditions
        spec = binary_spec(k_probs=(0.89, 0.11))
        pyx = bsc_channel(spec, 0.3)
        aux = attack_free_witness(spec, pyx)
        pt = RegionPoint(d=0.3, d_prime=0.0, r_c=2.0, r_c_prime=2.0, h=0.3, h_prime=0.3)
        sol = blahut_arimoto(spec.p_u, spec.d_prime, 0.0)
        rext = eval_extended(spec, aux, sol.test_channel, pt)
        r4 = eval_keyed_region(spec, aux, pt, rd_solution=sol)
        for key in ("a", "b", "c", "d", "e", "f"):
            assert rext[key].bound == pytest.approx(r4[key].bound, abs=1e-9)
        assert rext["g"].satisfied

    def test_identity_test_channel(self):
        spec = binary_spec()
        aux = attack_free_witness(spec, bsc_channel(spec, 0.3))
        ident = DistTable([spec.u_axis, spec.uhat_axis], np.eye(2), given=("U",))
        pt = RegionPoint(d=0.3, d_prime=0.0, r_c=2.0, r_c_prime=2.0, h=0.2, h_prime=0.2)
        rep = eval_extended(spec, aux, ident, pt)
        assert rep.quantities["I(U;Uhat)"] == pytest.approx(1.0, abs=1e-12)
        assert rep.quantities["H(Uhat)"] == pytest.approx(1.0, abs=1e-12)
        assert rep["g"].attained == 0.0

    def test_useless_test_channel(self):
        spec = binary_spec()
        aux = attack_free_witness(spec, bsc_channel(spec, 0.3))
        indep = DistTable([spec.u_axis, spec.uhat_axis], np.full((2, 2), 0.5), given=("U",))
        pt = RegionPoint(d=0.3, d_prime=0.5, r_c=2.0, r_c_prime=2.0, h=1.0, h_prime=0.5)
        rep = eval_extended(spec, aux, indep, pt)
        assert rep.quantities["I(U;Uhat)"] == pytest.approx(0.0, abs=1e-12)
        assert rep["c"].attained == 0.0
        # E d'(U, Uhat) under independence = 0.5 for Hamming
        assert rep["g"].attained == pytest.approx(0.5, abs=1e-12)

    def test_saturation_cap_applies(self):
        # large-entropy key: the reconstruction entropy caps h'
        spec = binary_spec()
        pyx = bsc_channel(spec, 0.3)
        aux = attack_free_witness(spec, pyx)
        ch = DistTable([spec.u_axis, spec.uhat_axis], [[0.9, 0.1], [0.1, 0.9]], given=("U",))
        pt = RegionPoint(d=0.3, d_prime=0.1, r_c=2.0, r_c_prime=2.0, h=0.2, h_prime=0.2)
        rep = eval_extended(spec, aux, ch, pt)
        assert rep["b"].bound == pytest.approx(min(1.0, 1.0), abs=1e-9)
        a_manual = 1.0 - max(0.0, rep.quantities["I(U;Uhat)"] - 1.0)
        assert rep["a"].bound == pytest.approx(a_manual, abs=1e-12)


class TestInherentConstraint:
    def test_vanishing_message_rate_always_holds(self):
        spec = binary_spec()
        rng = np.random.default_rng(5)
        for _ in range(10):
            aux = random_aux_channel(spec, 2, rng)
            ok, slack = inherent_constraint_check(spec, aux, 0.5)  # R_U(0.5) = 0
            assert ok and slack >= -1e-9

    def test_deterministic_composite_fails_positive_rate(self):
        spec = binary_spec()
        V = Axis("V", 2)
        vals = np.zeros((2, 2, 2, 2))
        for x in range(2):
            vals[:, x, x, x] = 1.0  # V = Y = X
        aux = AuxChannel(DistTable([spec.k_axis, spec.x_axis, V, spec.y_axis], vals, given=("K", "X")))
        ok, slack = inherent_constraint_check(spec, aux, 0.1)
        assert not ok
        # reduces to lambda R_U(D') <= 0
        assert slack == pytest.approx(-(1 - h2(0.1)), abs=1e-6)


class TestOptimizer:
    def setup_method(self):
        self.spec = binary_spec()

    def test_reaches_attack_free_optimum(self):
        res = optimize_region(
            self.spec,
            {"d_prime": 0.25, "d": 1.0},
            "embedding_rate",
            v_cardinality=3,
            restarts=6,
            seed=7,
        )
        assert res.value >= 1.0 - 1e-3
        assert res.report.all_satisfied
        assert res.penalty <= 1e-6

    def test_log_monotone(self):
        res = optimize_region(
            self.spec, {"d_prime": 0.25, "d": 1.0}, "h", v_cardinality=2, restarts=5, seed=1
        )
        assert res.best_so_far == sorted(res.best_so_far) or all(
            b >= a - 1e-12 for a, b in zip(res.best_so_far, res.best_so_far[1:])
        )

    def test_output_satisfies_inherent_constraint(self):
        res = optimize_region(
            self.spec, {"d_prime": 0.25, "d": 1.0}, "h_prime", v_cardinality=2, restarts=4, seed=2
        )
        ok, slack = inherent_constraint_check(self.spec, res.aux, 0.25)
        assert ok and slack >= -1e-9

    def test_degenerate_covertext_reaches_side_info_capacity(self):
        # |X| = 1: the embedding bound is the attack channel's capacity with
        # the key as side information, met by V = Y
        spec = binary_spec(
            x_size=1, attack=[[0.9, 0.1], [0.1, 0.9]], d_cost=[[0.0, 1.0]]
        )
        res = optimize_region(
            spec, {"d_prime": 0.25, "d": 1.0}, "embedding_rate",
            v_cardinality=3, restarts=6, seed=3,
        )
        assert res.value == pytest.approx(1 - h2(0.1), abs=1e-3)

    def test_zero_distortion_corner(self):
        # D = 0 with Hamming forces Y = X, killing the embedding headroom
        spec = binary_spec()
        res = optimize_region(
            spec, {"d_prime": 0.5, "d": 0.0}, "embedding_rate",
            v_cardinality=2, restarts=4, seed=6,
        )
        assert res.value <= 1e-3
        assert res.report.quantities["Ed(X,Y)"] <= 1e-6

    def test_identity_attack_dominates_degraded(self):
        # shared restarts: the noisier channel cannot beat the clean one
        clean = binary_spec()
        noisy = binary_spec(attack=[[0.85, 0.15], [0.15, 0.85]])
        kw = dict(v_cardinality=2, restarts=4, seed=11)
        r_clean = optimize_region(clean, {"d_prime": 0.25, "d": 1.0}, "embedding_rate", **kw)
        r_noisy = optimize_region(noisy, {"d_prime": 0.25, "d": 1.0}, "embedding_rate", **kw)
        assert r_clean.value >= r_noisy.value - 1e-6

    def test_infeasible_distortion_budget(self):
        with pytest.raises(InfeasibleError):
            optimize_region(
                self.spec,
                {"d_prime": 0.45, "d": 0.0},
                "h",
                v_cardinality=2,
                restarts=2,
                seed=0,
            )

    def test_uncertified_point_is_infeasible(self, monkeypatch):
        # a point the penalty accepts (violation under 1e-6) whose own report
        # misses SLACK_TOL on one condition must not be reported
        missed = miss_one_condition(monkeypatch)
        with pytest.raises(InfeasibleError) as info:
            optimize_region(self.spec, {"d_prime": 0.25, "d": 1.0}, "h", v_cardinality=2, restarts=2, seed=1)
        assert f"{missed[0]} (slack -2.000e-08)" in str(info.value)

    # the best-scoring restart misses f by a few 1e-9 bits, so a later one
    # in score order is the one certified
    @pytest.mark.parametrize(
        "attack, fixed, seed, value",
        [
            (None, {"d_prime": 0.25, "d": 0.25, "h": 1.2, "r_c": 0.45}, 1, 0.7188),
            (None, {"d_prime": 0.25, "d": 0.25, "h": 1.2, "r_c": 0.45}, 2, 0.6907),
            ([[0.9, 0.1], [0.1, 0.9]], {"d_prime": 0.3, "d": 0.25}, 0, 0.3223),
            ([[0.9, 0.1], [0.1, 0.9]], {"d_prime": 0.3, "d": 0.25}, 5, 0.2801),
        ],
    )
    def test_certifies_a_later_restart(self, attack, fixed, seed, value):
        res = optimize_region(binary_spec(attack=attack), fixed, "embedding_rate", seed=seed)
        assert res.report.all_satisfied
        assert res.penalty <= 1e-6
        assert res.value == pytest.approx(value, abs=1e-4)

    def test_requires_d_prime(self):
        with pytest.raises(ValidationError):
            optimize_region(self.spec, {"d": 0.5}, "h", restarts=1, seed=0)

    def test_unknown_objective(self):
        with pytest.raises(ValidationError):
            optimize_region(self.spec, {"d_prime": 0.2}, "speed", restarts=1, seed=0)

    # a misspelt coordinate, and the embedding rate, which is no coordinate of
    # an operating point
    @pytest.mark.parametrize("name", ["rc", "embedding_rate"])
    def test_unknown_fixed_coordinate(self, name):
        with pytest.raises(ValidationError, match=f"'{name}'"):
            optimize_region(self.spec, {"d_prime": 0.2, name: 0.01}, "h", restarts=1, seed=0)

    @pytest.mark.parametrize("restarts", [0, -1])
    def test_restarts_must_be_positive(self, restarts):
        with pytest.raises(ValidationError, match="restarts"):
            optimize_region(self.spec, {"d_prime": 0.2}, "h", restarts=restarts, seed=0)

    # one case per fixed coordinate, so every branch of the penalty runs
    @pytest.mark.parametrize(
        "fixed, objective",
        [
            ({"d_prime": 0.25, "d": 1.0, "r_c": 1.5}, "embedding_rate"),
            ({"d_prime": 0.25, "r_c_prime": 1.0}, "h"),
            ({"d_prime": 0.25, "h": 0.5}, "r_c"),
            ({"d_prime": 0.25, "h_prime": 0.5}, "r_c_prime"),
        ],
    )
    def test_fixed_coordinate_certified(self, fixed, objective):
        res = optimize_region(self.spec, fixed, objective, v_cardinality=2, restarts=3, seed=5)
        assert res.report.all_satisfied
        assert res.penalty <= 1e-6
        for name, value in fixed.items():
            assert getattr(res.point, name) == value

    @pytest.mark.parametrize(
        "fixed, objective",
        [
            ({"d_prime": 0.25, "r_c": 0.05}, "h"),  # below lambda R_U(D') = 0.189
            ({"d_prime": 0.25, "r_c_prime": 0.05}, "h_prime"),
            ({"d_prime": 0.25, "h": 3.0}, "embedding_rate"),  # above H(K|Y) + H(U) - R
            ({"d_prime": 0.25, "h_prime": 1.5}, "embedding_rate"),  # above H(K) = 1
        ],
    )
    def test_fixed_coordinate_out_of_reach(self, fixed, objective):
        with pytest.raises(InfeasibleError):
            optimize_region(self.spec, fixed, objective, v_cardinality=2, restarts=3, seed=5)


def _rows_with_zeros(rng, shape, zero_frac):
    """Dirichlet rows over the last axis with exact zeros injected; every
    row keeps at least one nonzero entry."""
    p = rng.dirichlet(np.ones(shape[-1]), size=shape[:-1])
    p[rng.random(p.shape) < zero_frac] = 0.0
    p[p.sum(axis=-1) == 0.0, 0] = 1.0
    return p / p.sum(axis=-1, keepdims=True)


def _random_system(rng, sizes, zero_frac, attack=None):
    ks, xs, ys, zs = sizes
    K, X, Y, Z = Axis("K", ks), Axis("X", xs), Axis("Y", ys), Axis("Z", zs)
    cost = rng.random((xs, ys))
    cost[rng.random(cost.shape) < zero_frac] = 0.0
    p_xk = _rows_with_zeros(rng, (xs * ks,), zero_frac).reshape(xs, ks)
    if attack is None:
        attack = _rows_with_zeros(rng, (ys, zs), zero_frac)
    return SystemSpec(
        p_u=DistTable([U], [0.5, 0.5]),
        p_xk=DistTable([X, K], p_xk),
        p_z_given_y=DistTable([Y, Z], attack, given=("Y",)),
        lam=float(rng.uniform(0.2, 2.0)),
        d=DistortionMeasure(X, Y, cost),
        d_prime=DistortionMeasure.hamming(U, UHAT),
    )


def _random_kernels(rng, spec, v_size, batch, zero_frac):
    ks, xs, ys = spec.k_axis.size, spec.x_axis.size, spec.y_axis.size
    q = _rows_with_zeros(rng, (batch, ks, xs, v_size * ys), zero_frac)
    return q.reshape(batch, ks, xs, v_size, ys)


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


ALL_FIXED = {"d": 0.4, "d_prime": 0.1, "r_c": 1.0, "r_c_prime": 0.8, "h": 0.6, "h_prime": 0.3}

system_draws = dict(
    sizes=st.tuples(*[st.integers(1, 3)] * 4),
    v_size=st.integers(1, 4),
    zero_frac=st.sampled_from([0.0, 0.3, 0.6]),
    batch=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)


class TestFastEvaluator:
    """The optimizer's batched evaluator against the table-level quantities,
    and a stack of kernels against the same kernels one at a time."""

    @given(**system_draws)
    @settings(max_examples=60, deadline=None)
    def test_matches_system_quantities(self, sizes, v_size, zero_frac, batch, seed):
        rng = np.random.default_rng(seed)
        spec = _random_system(rng, sizes, zero_frac)
        v_size = min(v_size, spec.v_cardinality_bound())
        q = _random_kernels(rng, spec, v_size, batch, zero_frac)
        fast = region._FastEvaluator(spec, ALL_FIXED, "h").quantities(q)
        axes = (spec.k_axis, spec.x_axis, Axis("V", v_size), spec.y_axis)
        for b in range(batch):
            aux = AuxChannel(DistTable(axes, q[b], given=("K", "X")))
            slow = system_quantities(spec, aux)
            for name, values in fast.items():
                assert values[b] == pytest.approx(slow[name], abs=1e-12), name

    @given(**system_draws)
    # layouts where the batch-innermost copy of the joint could change
    # numpy's order; each single is a batch of one, whose unit axis numpy
    # drops: Ed(X,Y)'s (x,y) stack with one K and one V letter, a one-letter
    # Z under a general attack, and |Y| on both sides of numpy's 8-element
    # pairwise block
    @example(sizes=(2, 2, 2, 2), v_size=4, zero_frac=0.3, batch=3, seed=0)
    @example(sizes=(1, 3, 3, 1), v_size=1, zero_frac=0.0, batch=2, seed=0)
    @example(sizes=(2, 3, 2, 1), v_size=3, zero_frac=0.3, batch=5, seed=1)
    @example(sizes=(2, 2, 8, 3), v_size=3, zero_frac=0.3, batch=4, seed=2)
    @example(sizes=(2, 2, 9, 3), v_size=3, zero_frac=0.0, batch=4, seed=3)
    @settings(max_examples=60, deadline=None)
    def test_batch_is_bit_identical_to_singles(self, sizes, v_size, zero_frac, batch, seed):
        rng = np.random.default_rng(seed)
        spec = _random_system(rng, sizes, zero_frac)
        q = _random_kernels(rng, spec, min(v_size, spec.v_cardinality_bound()), batch, zero_frac)
        ev = region._FastEvaluator(spec, ALL_FIXED, "h")
        stacked = ev.quantities(q)
        singles = [ev.quantities(q[b : b + 1]) for b in range(batch)]
        for name, values in stacked.items():
            assert np.array_equal(_bits(values), _bits([s[name][0] for s in singles])), name
        for objective in ("h", "r_c"):
            ev = region._FastEvaluator(spec, ALL_FIXED, objective)
            score = ev.score(q)
            alone = [ev.score(q[b : b + 1])[0] for b in range(batch)]
            assert np.array_equal(_bits(score), _bits(alone))

    @given(
        width=st.integers(1, 300),
        batch=st.integers(1, 12),
        zero_frac=st.sampled_from([0.0, 0.2, 0.7, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_entropy_sums_each_row_alone(self, width, batch, zero_frac, seed):
        # the same floating-point sum as the row's own nonzero terms
        rng = np.random.default_rng(seed)
        arr = rng.random((batch, width))
        arr[rng.random(arr.shape) < zero_frac] = 0.0
        (got,) = tables.row_entropies(arr)
        for b, row in enumerate(arr):
            nz = row[row > LOG_ZERO_CUTOFF]
            want = -(nz * np.log2(nz)).sum() if nz.size else 0.0
            assert _bits(got[b]) == _bits(want)


    @staticmethod
    def _chunk_kernels(spec):
        """The optimizer's chunk: stacks of this many full-|V| kernels hold
        ``_EVAL_CHUNK`` (B, K, X, V, Y) entries."""
        v_size = spec.v_cardinality_bound()
        return v_size, region._EVAL_CHUNK // (spec.k_axis.size * spec.x_axis.size * v_size * spec.y_axis.size)

    # the identity attack shares the Y marginals; the BSC takes the general (K,X,V,Y,Z) path
    @pytest.mark.parametrize("attack", [None, [[0.9, 0.1], [0.2, 0.8]]])
    def test_a_reused_workspace_gives_a_fresh_evaluators_bits(self, attack):
        spec = binary_spec(attack=attack)
        v_size, chunk = self._chunk_kernels(spec)
        rng = np.random.default_rng(11)
        ev = region._FastEvaluator(spec, ALL_FIXED, "h")
        # each stack takes views of other sizes of the same buffers, or the same views again
        for batch in (1, chunk, 7, chunk):
            q = _random_kernels(rng, spec, v_size, batch, 0.3)
            fresh = region._FastEvaluator(spec, ALL_FIXED, "h")
            got, want = ev.quantities(q), fresh.quantities(q)
            for name in want:
                assert np.array_equal(_bits(got[name]), _bits(want[name])), (batch, name)
            assert np.array_equal(_bits(ev.score(q)), _bits(fresh.score(q))), batch

    def test_results_do_not_alias_the_workspace(self):
        spec = binary_spec(attack=[[0.9, 0.1], [0.2, 0.8]])
        v_size, chunk = self._chunk_kernels(spec)
        rng = np.random.default_rng(12)
        ev = region._FastEvaluator(spec, ALL_FIXED, "h")
        first = ev.quantities(_random_kernels(rng, spec, v_size, chunk, 0.3))
        kept = {name: values.copy() for name, values in first.items()}
        ev.quantities(_random_kernels(rng, spec, v_size, chunk, 0.3))
        for name, values in kept.items():
            assert np.array_equal(_bits(first[name]), _bits(values)), name

    # the benchmark's binary system, and one past numpy's 8-element pairwise
    # block in |Y|; both have an identity attack, so numpy's own iteration
    # buffers for a broadcast (K,X,V,Y,Z) product do not enter the peak
    @pytest.mark.parametrize("y_size", [2, 9])
    def test_a_warm_evaluation_allocates_less_than_one_stack(self, y_size):
        rng = np.random.default_rng(y_size)
        if y_size == 2:
            spec = binary_spec()
        else:
            spec = _random_system(rng, (2, 2, y_size, y_size), 0.3, attack=np.eye(y_size))
        v_size, chunk = self._chunk_kernels(spec)
        q = _random_kernels(rng, spec, v_size, chunk, 0.3)
        ev = region._FastEvaluator(spec, ALL_FIXED, "h")
        ev.score(q)  # the warm-up sizes the workspace
        tracemalloc.start()
        try:
            ev.score(q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < q.nbytes


def _frozen_quantities(ev, q_kxvy):
    """``_FastEvaluator.quantities`` as it stood with the whole
    (B,K,X,V,Y,Z) joint built and every marginal taken by ``.sum``."""
    j4 = ev.xk[:, :, None, None] * q_kxvy
    j5 = j4[..., None] * ev.att
    p_ky = j4.sum(axis=(2, 3))
    h_k, h_ky, h_y, h_kv, h_kx, h_kz, h_kvz, h_kxv, h_kyv, h_j = tables.row_entropies(
        j4.sum(axis=(2, 3, 4)),
        p_ky,
        p_ky.sum(axis=1),
        j4.sum(axis=(2, 4)),
        j4.sum(axis=(3, 4)),
        j5.sum(axis=(2, 3, 4)),
        j5.sum(axis=(2, 4)),
        j4.sum(axis=4),
        j4.sum(axis=2),
        j4,
    )
    return {
        "H(U)": np.full(len(q_kxvy), ev.h_u),
        "H(K|Y)": h_ky - h_y,
        "I(K;Y)": region._max0(h_k + h_y - h_ky),
        "I(V;Z|K)": region._max0(h_kv + h_kz - h_k - h_kvz),
        "I(V;X|K)": region._max0(h_kv + h_kx - h_k - h_kxv),
        "I(X;Y,V|K)": region._max0(h_kx + h_kyv - h_k - h_j),
        "H(Y|K)": h_ky - h_k,
        "Ed(X,Y)": (j4.sum(axis=(1, 3)) * ev.cost).sum(axis=(1, 2)),
    }


def _frozen_score(ev, q_kxvy, objective, sign, penalty_weight):
    q = _frozen_quantities(ev, q_kxvy)
    value = region.KEYED_CONDITIONS[objective].bound(q, ev.lam, ev.r)
    return sign * value - penalty_weight * ev.penalty(q)


class TestFrozenEvaluator:
    """The evaluator's marginals follow numpy's reduction order, so every
    quantity and score keeps the bits of the frozen ``.sum`` evaluator: on
    both sides of numpy's 8-element pairwise block (|Y| up to 9), with a
    one-letter axis anywhere, with exact zeros, and with an attack that is
    exactly the identity or within 1e-13 of it."""

    @given(
        sizes=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 9), st.integers(1, 3)),
        v_frac=st.floats(0.0, 1.0),
        zero_frac=st.sampled_from([0.0, 0.3, 0.6]),
        batch=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    # a one-letter Y under 21 summed (x, v) letters: numpy sums those pairwise
    @example(sizes=(2, 3, 1, 2), v_frac=1.0, zero_frac=0.0, batch=4, seed=1)
    # layouts where the batch-innermost copy of the joint could change
    # numpy's order: a batch of one, whose unit axis numpy drops; Ed(X,Y)'s
    # (x,y) stack with one K and one V letter; a one-letter Z under a
    # general attack; |Y| on both sides of numpy's 8-element pairwise block
    @example(sizes=(2, 2, 2, 2), v_frac=1.0, zero_frac=0.3, batch=1, seed=0)
    @example(sizes=(1, 3, 3, 1), v_frac=0.0, zero_frac=0.0, batch=2, seed=0)
    @example(sizes=(2, 3, 2, 1), v_frac=0.5, zero_frac=0.3, batch=5, seed=1)
    @example(sizes=(2, 2, 8, 3), v_frac=0.1, zero_frac=0.3, batch=40, seed=2)
    @example(sizes=(2, 2, 9, 3), v_frac=0.1, zero_frac=0.0, batch=40, seed=3)
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_to_frozen_sums(self, sizes, v_frac, zero_frac, batch, seed):
        rng = np.random.default_rng(seed)
        spec = _random_system(rng, sizes, zero_frac)
        v_size = 1 + round(v_frac * (spec.v_cardinality_bound() - 1))
        # at most 2^17 joint entries, four evaluation chunks: memory stays small
        batch = min(batch, max(1, 2**17 // (np.prod(sizes) * v_size)))
        q = _random_kernels(rng, spec, v_size, batch, zero_frac)
        self._assert_frozen_bits(spec, q)

    # |Y| = 1 takes the one-letter Z branch; 9 lies past numpy's 8-element block
    @pytest.mark.parametrize("ys", [1, 2, 9])
    @pytest.mark.parametrize("zero_frac", [0.0, 0.6])
    def test_identity_attack_shares_the_y_marginals(self, ys, zero_frac):
        rng = np.random.default_rng(ys)
        spec = _random_system(rng, (2, 3, ys, ys), zero_frac, attack=np.eye(ys))
        assert region._FastEvaluator(spec, ALL_FIXED, "h").z_is_y
        for v_size in (1, 3):
            self._assert_frozen_bits(spec, _random_kernels(rng, spec, v_size, 40, zero_frac))

    @pytest.mark.parametrize("ys", [2, 9])
    def test_near_identity_attack_takes_the_general_path(self, ys):
        # within has_identity_attack()'s tolerance, but Z is not exactly Y
        attack = np.eye(ys)
        attack[0, :2] = [1.0 - 1e-13, 1e-13]
        rng = np.random.default_rng(ys)
        spec = _random_system(rng, (2, 3, ys, ys), 0.3, attack=attack)
        assert spec.has_identity_attack()
        assert not region._FastEvaluator(spec, ALL_FIXED, "h").z_is_y
        for v_size in (1, 3):
            self._assert_frozen_bits(spec, _random_kernels(rng, spec, v_size, 40, 0.3))

    @staticmethod
    def _assert_frozen_bits(spec, q):
        ev = region._FastEvaluator(spec, ALL_FIXED, "h")
        got, want = ev.quantities(q), _frozen_quantities(ev, q)
        assert got.keys() == want.keys()
        for name in want:
            assert np.array_equal(_bits(got[name]), _bits(want[name])), name
        for objective, sign in (("h", 1.0), ("r_c", -1.0)):
            ev = region._FastEvaluator(spec, ALL_FIXED, objective)
            want = _frozen_score(ev, q, objective, sign, 100.0)
            assert np.array_equal(_bits(ev.score(q)), _bits(want))


def _sequential_optimize(spec, fixed, objective, v_size, restarts, seed):
    """Reference schedule for the optimizer: restarts one after another, one
    evaluation per finite-difference coordinate and per step size."""
    ev = region._FastEvaluator(spec, fixed, objective)
    ks, xs, ys = spec.k_axis.size, spec.x_axis.size, spec.y_axis.size
    dim = v_size * ys

    def score(q):
        return ev.score(q[None])[0]

    values, kernels = [], []
    for child in np.random.SeedSequence(seed).spawn(restarts):
        rng = np.random.default_rng(child)
        q = rng.dirichlet(np.ones(dim), size=(ks, xs)).reshape(ks, xs, v_size, ys)
        s = score(q)
        for _ in range(60):
            improved = 0.0
            for k in range(ks):
                for x in range(xs):
                    block = q[k, x].reshape(dim)
                    grad = np.empty(dim)
                    for i in range(dim):
                        trial = q.copy()
                        trial[k, x].reshape(dim)[i] += 1e-6
                        grad[i] = (score(trial) - s) / 1e-6
                    step = 0.5
                    while step > 1e-6:
                        cand = q.copy()
                        moved = (block + step * grad)[None]
                        cand[k, x] = region._project_simplex(moved, tables.Workspace()).reshape(v_size, ys)
                        cand_score = score(cand)
                        if cand_score > s + 1e-12:
                            improved += cand_score - s
                            q, s = cand, cand_score
                            break
                        step *= 0.5
            if improved < 1e-7:
                break
        values.append(s)
        kernels.append(q)
    return values, kernels


class TestLockstepSchedule:
    """Batching the restarts, coordinates and step sizes changes no value."""

    @pytest.mark.parametrize(
        "spec_kw, fixed, objective",
        [
            ({}, {"d_prime": 0.25, "d": 1.0}, "embedding_rate"),
            ({"attack": [[0.85, 0.15], [0.2, 0.8]]}, {"d_prime": 0.2, "h": 0.5}, "r_c"),
            ({"x_size": 1, "lam": 0.5, "d_cost": [[0.0, 1.0]]}, {"d_prime": 0.1, "d": 0.5}, "h_prime"),
        ],
    )
    def test_matches_sequential_restarts(self, spec_kw, fixed, objective):
        spec = binary_spec(**spec_kw)
        values, kernels = _sequential_optimize(spec, fixed, objective, 2, 4, 3)
        res = optimize_region(spec, fixed, objective, v_cardinality=2, restarts=4, seed=3)
        assert np.array_equal(_bits(res.restart_values), _bits(values))
        best = kernels[int(np.argmax(values))]
        assert np.array_equal(_bits(res.aux.table.values), _bits(best / best.sum(axis=(2, 3), keepdims=True)))

    def test_chunk_size_changes_nothing(self, monkeypatch):
        spec = binary_spec(attack=[[0.9, 0.1], [0.2, 0.8]])
        kw = dict(v_cardinality=3, restarts=3, seed=8)
        whole = optimize_region(spec, {"d_prime": 0.2, "d": 0.6}, "embedding_rate", **kw)
        monkeypatch.setattr(region, "_EVAL_CHUNK", 1)  # one kernel per evaluation
        chunked = optimize_region(spec, {"d_prime": 0.2, "d": 0.6}, "embedding_rate", **kw)
        assert np.array_equal(_bits(whole.restart_values), _bits(chunked.restart_values))
        assert np.array_equal(_bits(whole.aux.table.values), _bits(chunked.aux.table.values))


class TestComposeSystem:
    def test_marginal_recovery(self):
        spec = binary_spec()
        rng = np.random.default_rng(3)
        aux = random_aux_channel(spec, 2, rng)
        j = compose_system(spec, aux)
        assert j.names == ("K", "X", "V", "Y", "Z")
        back = j.marginal("K", "X").reorder(("X", "K")).values
        assert np.max(np.abs(back - spec.p_xk.values)) <= 1e-12
