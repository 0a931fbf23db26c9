"""Single-letter achievable-region evaluation and search.

Evaluates three nested condition sets for the achievable region (attack-free
lossless, attack-free lossy, and the general keyed/attacked form with an
auxiliary variable), the extended variant with an explicit test channel, the
structural reduction identities between them, and a multi-start projected
coordinate-ascent search over the auxiliary kernel.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import InfeasibleError, ValidationError
from .rd import RdSolution, blahut_arimoto
from .tables import (
    Axis,
    DistTable,
    DistortionMeasure,
    LOG_ZERO_CUTOFF,
    compose_joint,
    conditional_entropy,
    conditional_mutual_information,
    entropy,
    expected_distortion,
    mutual_information,
)

SLACK_TOL = 1e-9


# ---------------------------------------------------------------------------
# problem instance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SystemSpec:
    """One full problem instance.

    ``p_xk`` is the joint over (covertext, key) and covers both the
    independent-key and key-depends-on-covertext cases; ``lam`` is the number
    of message symbols produced per covertext symbol.
    """

    p_u: DistTable
    p_xk: DistTable
    p_z_given_y: DistTable
    lam: float
    d: DistortionMeasure
    d_prime: DistortionMeasure

    def __post_init__(self) -> None:
        if self.lam <= 0:
            raise ValidationError("lambda must be > 0")
        if self.p_u.is_conditional or len(self.p_u.axes) != 1:
            raise ValidationError("message source must be a joint PMF over one axis")
        if self.p_xk.is_conditional or len(self.p_xk.axes) != 2:
            raise ValidationError("covertext/key table must be a joint over (X, K)")
        if not self.p_z_given_y.is_conditional or len(self.p_z_given_y.target_names) != 1:
            raise ValidationError("attack must be a conditional kernel with one target axis")
        if self.d.rows.name != self.x_axis.name or self.d.rows.size != self.x_axis.size:
            raise ValidationError("embedding distortion rows must be the covertext axis")
        (y_name,) = self.p_z_given_y.given
        if self.d.cols.name != y_name or self.d.cols.size != self.p_z_given_y.axis(y_name).size:
            raise ValidationError("embedding distortion cols must match the attack input axis")
        if self.d_prime.rows.name != self.u_axis.name or self.d_prime.rows.size != self.u_axis.size:
            raise ValidationError("message distortion rows must be the message axis")

    @property
    def u_axis(self) -> Axis:
        return self.p_u.axes[0]

    @property
    def x_axis(self) -> Axis:
        return self.p_xk.axes[0]

    @property
    def k_axis(self) -> Axis:
        return self.p_xk.axes[1]

    @property
    def y_axis(self) -> Axis:
        (y_name,) = self.p_z_given_y.given
        return self.p_z_given_y.axis(y_name)

    @property
    def z_axis(self) -> Axis:
        (z_name,) = self.p_z_given_y.target_names
        return self.p_z_given_y.axis(z_name)

    @property
    def uhat_axis(self) -> Axis:
        return self.d_prime.cols

    def v_cardinality_bound(self) -> int:
        return self.k_axis.size * self.x_axis.size * self.y_axis.size + 1

    def key_independent(self, tol: float = 1e-9) -> bool:
        px = self.p_xk.values.sum(axis=1)
        pk = self.p_xk.values.sum(axis=0)
        return bool(np.max(np.abs(self.p_xk.values - np.outer(px, pk))) <= tol)

    def has_identity_attack(self, tol: float = 1e-12) -> bool:
        if self.y_axis.size != self.z_axis.size:
            return False
        m = self.p_z_given_y.conditional_matrix((self.y_axis.name,), (self.z_axis.name,))
        return bool(np.max(np.abs(m - np.eye(self.y_axis.size))) <= tol)


@dataclass(frozen=True)
class AuxChannel:
    """Candidate kernel P(V, Y | K, X); the optimizer's decision variable."""

    table: DistTable

    def __post_init__(self) -> None:
        t = self.table
        if not t.is_conditional or len(t.given) != 2 or len(t.target_names) != 2:
            raise ValidationError("aux channel must be (V, Y) conditional on (K, X)")

    @property
    def v_axis(self) -> Axis:
        return self.table.axis(self.table.target_names[0])

    @property
    def y_axis(self) -> Axis:
        return self.table.axis(self.table.target_names[1])

    @property
    def v_cardinality(self) -> int:
        return self.v_axis.size

    def validate_for(self, spec: SystemSpec) -> None:
        bound = spec.v_cardinality_bound()
        if self.v_cardinality > bound:
            raise ValidationError(
                f"|V| = {self.v_cardinality} exceeds the support bound {bound}"
            )
        if self.y_axis.size != spec.y_axis.size:
            raise ValidationError("aux channel composite axis does not match the attack input")
        for name in (spec.x_axis.name, spec.k_axis.name):
            if name not in self.table.given:
                raise ValidationError(f"aux channel must condition on {name!r}")


@dataclass(frozen=True)
class RegionPoint:
    d: float
    d_prime: float
    r_c: float
    r_c_prime: float
    h: float
    h_prime: float

    def __post_init__(self) -> None:
        for name, v in self.__dict__.items():
            if v < 0:
                raise ValidationError(f"coordinate {name} must be >= 0, got {v}")


@dataclass(frozen=True)
class ConditionEntry:
    """One inequality: ``upper`` means attained <= bound, ``lower`` means
    attained >= bound.  slack >= -SLACK_TOL <=> satisfied."""

    name: str
    kind: str
    attained: float
    bound: float
    slack: float
    satisfied: bool

    @classmethod
    def upper(cls, name: str, attained: float, bound: float) -> "ConditionEntry":
        slack = bound - attained
        return cls(name, "upper", attained, bound, slack, slack >= -SLACK_TOL)

    @classmethod
    def lower(cls, name: str, attained: float, bound: float) -> "ConditionEntry":
        slack = attained - bound
        return cls(name, "lower", attained, bound, slack, slack >= -SLACK_TOL)


@dataclass
class ConditionReport:
    conditions: dict[str, ConditionEntry]
    quantities: dict[str, float] = field(default_factory=dict)

    @property
    def all_satisfied(self) -> bool:
        return all(c.satisfied for c in self.conditions.values())

    def __getitem__(self, name: str) -> ConditionEntry:
        return self.conditions[name]


# ---------------------------------------------------------------------------
# composition and shared quantities
# ---------------------------------------------------------------------------


def compose_system(spec: SystemSpec, aux: AuxChannel) -> DistTable:
    """The five-axis joint (K, X, V, Y, Z) induced by spec and aux channel."""
    aux.validate_for(spec)
    return compose_joint(spec.p_xk, aux.table, spec.p_z_given_y)


def _rd_rate(spec: SystemSpec, d_prime_value: float, rd: RdSolution | None) -> tuple[float, RdSolution]:
    sol = rd or blahut_arimoto(spec.p_u, spec.d_prime, d_prime_value)
    return sol.rate_bits, sol


def _warn_key_assumption(h_k: float, lam: float, r: float) -> None:
    if h_k > lam * r + SLACK_TOL:
        warnings.warn(
            f"H(K) = {h_k:.6f} exceeds lambda * R_U(D') = {lam * r:.6f}; the "
            "closed-form bin counting assumes the opposite, use the extended "
            "evaluation mode for the surplus-key regime",
            RuntimeWarning,
            stacklevel=3,
        )


def system_quantities(spec: SystemSpec, aux: AuxChannel, joint: DistTable | None = None) -> dict[str, float]:
    """All single-letter informations the region conditions consume,
    computed from the composed joint (never from the marginal key table)."""
    j = joint if joint is not None else compose_system(spec, aux)
    k, x, v, y, z = j.names
    return {
        "H(U)": entropy(spec.p_u),
        "H(K)": entropy(j, (k,)),
        "H(K|Y)": conditional_entropy(j, (k,), (y,)),
        "I(K;Y)": mutual_information(j, (k,), (y,)),
        "I(V;Z|K)": conditional_mutual_information(j, (v,), (z,), (k,)),
        "I(V;X|K)": conditional_mutual_information(j, (v,), (x,), (k,)),
        "I(X;Y,V|K)": conditional_mutual_information(j, (x,), (y, v), (k,)),
        "H(Y|K)": conditional_entropy(j, (y,), (k,)),
        "H(Y|X)": conditional_entropy(j, (y,), (x,)),
        "Ed(X,Y)": expected_distortion(j, spec.d),
    }


# ---------------------------------------------------------------------------
# region condition sets
# ---------------------------------------------------------------------------


def eval_keyed_region(
    spec: SystemSpec,
    aux: AuxChannel,
    point: RegionPoint,
    rd_solution: RdSolution | None = None,
) -> ConditionReport:
    """The six-condition report for the general (keyed, attacked) region."""
    joint = compose_system(spec, aux)
    q = system_quantities(spec, aux, joint)
    r, _ = _rd_rate(spec, point.d_prime, rd_solution)
    lam = spec.lam
    _warn_key_assumption(q["H(K)"], lam, r)
    q["R_U(D')"] = r
    c = {
        "a": ConditionEntry.upper("a", point.h, q["H(K|Y)"] / lam + q["H(U)"] - r),
        "b": ConditionEntry.upper("b", point.h_prime, q["H(K|Y)"] / lam),
        "c": ConditionEntry.upper("c", lam * r, q["I(V;Z|K)"] - q["I(V;X|K)"]),
        "d": ConditionEntry.lower("d", point.r_c, lam * r + q["I(X;Y,V|K)"] + q["I(K;Y)"]),
        "e": ConditionEntry.lower("e", point.r_c_prime, lam * r + q["I(X;Y,V|K)"]),
        "f": ConditionEntry.lower("f", point.d, q["Ed(X,Y)"]),
    }
    return ConditionReport(c, q)


def _attack_free_xy(spec: SystemSpec, p_y_given_x: DistTable) -> DistTable:
    """Joint over (X, Y) from the covertext marginal and an embedding channel."""
    x_name = spec.x_axis.name
    if set(p_y_given_x.given) != {x_name}:
        raise ValidationError(f"embedding channel must condition on {x_name!r}")
    (y_name,) = p_y_given_x.target_names
    px = spec.p_xk.values.sum(axis=1)
    mat = p_y_given_x.conditional_matrix((x_name,), (y_name,))
    return DistTable((spec.x_axis, p_y_given_x.axis(y_name)), px[:, None] * mat)


def _require_independent_key(spec: SystemSpec) -> None:
    if not spec.key_independent():
        raise ValidationError("this reduced form assumes a key independent of the covertext")


def eval_lossless_region(spec: SystemSpec, p_y_given_x: DistTable, point: RegionPoint) -> ConditionReport:
    """Attack-free, lossless-reconstruction region: secrecy condition (a) and
    the embedding/compression conditions (b)(i)-(iii)."""
    _require_independent_key(spec)
    xy = _attack_free_xy(spec, p_y_given_x)
    x_name, y_name = xy.names
    lam = spec.lam
    q = {
        "H(U)": entropy(spec.p_u),
        "H(K)": entropy(spec.p_xk, (spec.k_axis.name,)),
        "H(Y|X)": conditional_entropy(xy, (y_name,), (x_name,)),
        "I(X;Y)": mutual_information(xy, (x_name,), (y_name,)),
        "Ed(X,Y)": expected_distortion(xy, spec.d),
    }
    c = {
        "a": ConditionEntry.upper("a", point.h, q["H(K)"] / lam),
        "b_i": ConditionEntry.upper("b_i", lam * q["H(U)"], q["H(Y|X)"]),
        "b_ii": ConditionEntry.lower("b_ii", point.r_c, lam * q["H(U)"] + q["I(X;Y)"]),
        "b_iii": ConditionEntry.lower("b_iii", point.d, q["Ed(X,Y)"]),
    }
    return ConditionReport(c, q)


def eval_attack_free_region(
    spec: SystemSpec,
    p_y_given_x: DistTable,
    point: RegionPoint,
    rd_solution: RdSolution | None = None,
) -> ConditionReport:
    """Attack-free region with lossy message reconstruction."""
    _require_independent_key(spec)
    xy = _attack_free_xy(spec, p_y_given_x)
    x_name, y_name = xy.names
    lam = spec.lam
    r, _ = _rd_rate(spec, point.d_prime, rd_solution)
    q = {
        "H(U)": entropy(spec.p_u),
        "H(K)": entropy(spec.p_xk, (spec.k_axis.name,)),
        "R_U(D')": r,
        "H(Y|X)": conditional_entropy(xy, (y_name,), (x_name,)),
        "I(X;Y)": mutual_information(xy, (x_name,), (y_name,)),
        "Ed(X,Y)": expected_distortion(xy, spec.d),
    }
    _warn_key_assumption(q["H(K)"], lam, r)
    c = {
        "a": ConditionEntry.upper("a", point.h, q["H(K)"] / lam + q["H(U)"] - r),
        "b": ConditionEntry.upper("b", point.h_prime, q["H(K)"] / lam),
        "c_i": ConditionEntry.upper("c_i", lam * r, q["H(Y|X)"]),
        "c_ii": ConditionEntry.lower("c_ii", point.r_c, lam * r + q["I(X;Y)"]),
        "c_iii": ConditionEntry.lower("c_iii", point.d, q["Ed(X,Y)"]),
    }
    return ConditionReport(c, q)


def eval_extended(
    spec: SystemSpec,
    aux: AuxChannel,
    p_uhat_given_u: DistTable,
    point: RegionPoint,
) -> ConditionReport:
    """Seven-condition variant for the surplus-key regime: the test channel
    is explicit (not forced to the rate-distortion minimizer), I(U;Uhat)
    replaces R_U(D'), the equivocation caps saturate at the reconstruction
    entropy, and the distortion of the supplied channel becomes condition g.
    """
    u_name = spec.u_axis.name
    if set(p_uhat_given_u.given) != {u_name}:
        raise ValidationError(f"test channel must condition on {u_name!r}")
    (uhat_name,) = p_uhat_given_u.target_names
    joint = compose_system(spec, aux)
    q = system_quantities(spec, aux, joint)
    lam = spec.lam

    mat = p_uhat_given_u.conditional_matrix((u_name,), (uhat_name,))
    uu = DistTable(
        (spec.u_axis, p_uhat_given_u.axis(uhat_name)),
        spec.p_u.values[:, None] * mat,
    )
    i_uu = mutual_information(uu, (u_name,), (uhat_name,))
    h_uhat = entropy(uu, (uhat_name,))
    ed_prime = expected_distortion(uu, spec.d_prime)
    q.update({"I(U;Uhat)": i_uu, "H(Uhat)": h_uhat, "Ed'(U,Uhat)": ed_prime})

    a_bound = q["H(U)"] - max(0.0, i_uu - q["H(K|Y)"] / lam)
    c = {
        "a": ConditionEntry.upper("a", point.h, a_bound),
        "b": ConditionEntry.upper("b", point.h_prime, min(h_uhat, q["H(K|Y)"] / lam)),
        "c": ConditionEntry.upper("c", lam * i_uu, q["I(V;Z|K)"] - q["I(V;X|K)"]),
        "d": ConditionEntry.lower("d", point.r_c, lam * i_uu + q["I(X;Y,V|K)"] + q["I(K;Y)"]),
        "e": ConditionEntry.lower("e", point.r_c_prime, lam * i_uu + q["I(X;Y,V|K)"]),
        "f": ConditionEntry.lower("f", point.d, q["Ed(X,Y)"]),
        "g": ConditionEntry.upper("g", ed_prime, point.d_prime),
    }
    return ConditionReport(c, q)


def inherent_constraint_check(
    spec: SystemSpec,
    aux: AuxChannel,
    d_prime_value: float,
    rd_solution: RdSolution | None = None,
) -> tuple[bool, float]:
    """The counting constraint lambda R_U(D') + I(X;Y,V|K) <= H(Y|K) that any
    realizable operating point must satisfy; returns (ok, slack)."""
    q = system_quantities(spec, aux)
    r, _ = _rd_rate(spec, d_prime_value, rd_solution)
    slack = q["H(Y|K)"] - spec.lam * r - q["I(X;Y,V|K)"]
    return slack >= -SLACK_TOL, slack


# ---------------------------------------------------------------------------
# attack-free reduction identities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainRow:
    """One aux channel's evaluation of the four-link inequality chain
    I(V;Y|K) - I(V;X|K) <= I(V;Y|X,K) <= H(Y|X,K) <= H(Y|X)."""

    values: tuple[float, float, float, float]
    slacks: tuple[float, float, float]

    @property
    def ok(self) -> bool:
        return all(s >= -SLACK_TOL for s in self.slacks)

    @property
    def tight(self) -> bool:
        return all(abs(s) <= SLACK_TOL for s in self.slacks)


def chain_row(spec: SystemSpec, aux: AuxChannel) -> ChainRow:
    joint = compose_system(spec, aux)
    k, x, v, y, z = joint.names
    v1 = conditional_mutual_information(joint, (v,), (y,), (k,)) - conditional_mutual_information(
        joint, (v,), (x,), (k,)
    )
    v2 = conditional_mutual_information(joint, (v,), (y,), (x, k))
    v3 = conditional_entropy(joint, (y,), (x, k))
    v4 = conditional_entropy(joint, (y,), (x,))
    return ChainRow((v1, v2, v3, v4), (v2 - v1, v3 - v2, v4 - v3))


def attack_free_witness(spec: SystemSpec, p_y_given_x: DistTable) -> AuxChannel:
    """The aux channel with V = Y, both independent of K, realizing a given
    embedding channel; the choice that collapses the general region onto the
    attack-free one."""
    x_name = spec.x_axis.name
    (y_name,) = p_y_given_x.target_names
    y_ax = p_y_given_x.axis(y_name)
    mat = p_y_given_x.conditional_matrix((x_name,), (y_name,))
    vals = np.zeros((spec.k_axis.size, spec.x_axis.size, y_ax.size, y_ax.size))
    for yy in range(y_ax.size):
        vals[:, :, yy, yy] = mat[None, :, yy]
    table = DistTable(
        (spec.k_axis, spec.x_axis, Axis("V", y_ax.size), y_ax),
        vals,
        given=(spec.k_axis.name, x_name),
    )
    return AuxChannel(table)


def random_aux_channel(spec: SystemSpec, v_size: int, rng: np.random.Generator) -> AuxChannel:
    """Dirichlet(1) kernel per (k, x) cell; handy for grids and restarts."""
    ky, xs, ys = spec.k_axis.size, spec.x_axis.size, spec.y_axis.size
    vals = rng.dirichlet(np.ones(v_size * ys), size=(ky, xs)).reshape(ky, xs, v_size, ys)
    table = DistTable(
        (spec.k_axis, spec.x_axis, Axis("V", v_size), spec.y_axis),
        vals,
        given=(spec.k_axis.name, spec.x_axis.name),
    )
    return AuxChannel(table)


@dataclass
class ReductionReport:
    rows: list[ChainRow]
    witness_row: ChainRow | None

    @property
    def all_ok(self) -> bool:
        ok = all(r.ok for r in self.rows)
        if self.witness_row is not None:
            ok = ok and self.witness_row.ok and self.witness_row.tight
        return ok


def check_attack_free_reduction(
    spec: SystemSpec,
    aux_channels: Sequence[AuxChannel] = (),
    *,
    n_random: int = 50,
    v_size: int | None = None,
    rng: np.random.Generator | None = None,
    p_y_given_x: DistTable | None = None,
) -> ReductionReport:
    """On an identity-attack spec, evaluate the chain inequality on a grid of
    aux channels, and the all-links-tight identity on the V = Y witness."""
    if not spec.has_identity_attack():
        raise ValidationError("reduction check requires an identity attack (Z = Y)")
    rng = rng or np.random.default_rng(0)
    v_size = v_size or min(spec.v_cardinality_bound(), spec.y_axis.size + 1)
    channels = list(aux_channels) + [
        random_aux_channel(spec, v_size, rng) for _ in range(n_random)
    ]
    rows = [chain_row(spec, a) for a in channels]
    witness = None
    if p_y_given_x is not None:
        if not spec.key_independent():
            raise ValidationError("the tight witness additionally needs an independent key")
        witness = chain_row(spec, attack_free_witness(spec, p_y_given_x))
    return ReductionReport(rows, witness)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

_MAXIMIZED = {"h", "h_prime", "embedding_rate"}
_MINIMIZED = {"r_c", "r_c_prime", "d"}
_EVAL_CHUNK = 1 << 13  # (B, K, X, V, Y, Z) joint entries per evaluation, to bound memory


def _max0(x: np.ndarray) -> np.ndarray:
    """Elementwise ``max(x, 0.0)``, signed zeros and NaN included."""
    return np.where(0.0 > x, 0.0, x)


def _pos(x: np.ndarray) -> np.ndarray:
    """Elementwise ``max(0.0, x)``, signed zeros and NaN included."""
    return np.where(x > 0.0, x, 0.0)


class _FastEvaluator:
    """Raw-array evaluation of the penalized objective on a stack of kernels
    of shape (B, K, X, V, Y); skips DistTable validation inside the inner
    loop.  Every kernel's values are bit-identical to a stack of one."""

    def __init__(self, spec: SystemSpec, d_prime_value: float, rd_solution: RdSolution | None):
        self.lam = spec.lam
        self.xk = spec.p_xk.reorder((spec.k_axis.name, spec.x_axis.name)).values
        self.att = spec.p_z_given_y.conditional_matrix(
            (spec.y_axis.name,), (spec.z_axis.name,)
        )
        self.cost = spec.d.cost
        self.h_u = entropy(spec.p_u)
        self.r, self.rd = _rd_rate(spec, d_prime_value, rd_solution)

    @staticmethod
    def _h(*stacks: np.ndarray) -> list[np.ndarray]:
        """Entropy of each row of each (B, ...) stack.  A row's nonzero terms
        are summed as one contiguous block of their own length, so numpy's
        pairwise summation groups them the same way whatever the batch."""
        rows = [s.reshape(len(s), -1) for s in stacks]
        masks = [v > LOG_ZERO_CUTOFF for v in rows]
        nz = np.concatenate([v[m] for v, m in zip(rows, masks)])
        terms = nz * np.log2(nz)
        counts = np.concatenate([m.sum(axis=1) for m in masks])
        starts = np.cumsum(counts) - counts
        out = np.zeros(len(counts))
        for n in np.unique(counts[counts > 0]):
            idx = np.nonzero(counts == n)[0]
            out[idx] = -terms[starts[idx, None] + np.arange(n)].sum(axis=1)
        return np.split(out, len(stacks))

    def quantities(self, q_kxvy: np.ndarray) -> dict[str, np.ndarray]:
        j4 = self.xk[:, :, None, None] * q_kxvy  # (B,K,X,V,Y)
        j5 = j4[..., None] * self.att  # (B,K,X,V,Y,Z)
        p_ky = j4.sum(axis=(2, 3))
        h_k, h_ky, h_y, h_kv, h_kx, h_kz, h_kvz, h_kxv, h_kyv, h_j = self._h(
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
            "H(K|Y)": h_ky - h_y,
            "I(K;Y)": _max0(h_k + h_y - h_ky),
            "I(V;Z|K)": _max0(h_kv + h_kz - h_k - h_kvz),
            "I(V;X|K)": _max0(h_kv + h_kx - h_k - h_kxv),
            "I(X;Y,V|K)": _max0(h_kx + h_kyv - h_k - h_j),
            "H(Y|K)": h_ky - h_k,
            "Ed(X,Y)": (j4.sum(axis=(1, 3)) * self.cost).sum(axis=(1, 2)),
        }

    def objective_value(self, objective: str, q: dict[str, np.ndarray]) -> np.ndarray:
        lam, r = self.lam, self.r
        if objective == "h":
            return q["H(K|Y)"] / lam + self.h_u - r
        if objective == "h_prime":
            return q["H(K|Y)"] / lam
        if objective == "embedding_rate":
            return q["I(V;Z|K)"] - q["I(V;X|K)"]
        if objective == "r_c":
            return lam * r + q["I(X;Y,V|K)"] + q["I(K;Y)"]
        if objective == "r_c_prime":
            return lam * r + q["I(X;Y,V|K)"]
        if objective == "d":
            return q["Ed(X,Y)"]
        raise ValidationError(f"unknown objective {objective!r}")

    def penalty(self, fixed: Mapping[str, float], objective: str, q: dict[str, np.ndarray]) -> np.ndarray:
        lam, r = self.lam, self.r
        pen = _pos(lam * r + q["I(X;Y,V|K)"] - q["H(Y|K)"])  # counting constraint
        pen += _pos(lam * r - (q["I(V;Z|K)"] - q["I(V;X|K)"]))  # embedding condition
        if "d" in fixed and objective != "d":
            pen += _pos(q["Ed(X,Y)"] - fixed["d"])
        if "r_c" in fixed and objective != "r_c":
            pen += _pos(lam * r + q["I(X;Y,V|K)"] + q["I(K;Y)"] - fixed["r_c"])
        if "r_c_prime" in fixed and objective != "r_c_prime":
            pen += _pos(lam * r + q["I(X;Y,V|K)"] - fixed["r_c_prime"])
        if "h" in fixed and objective != "h":
            pen += _pos(fixed["h"] - (q["H(K|Y)"] / lam + self.h_u - r))
        if "h_prime" in fixed and objective != "h_prime":
            pen += _pos(fixed["h_prime"] - q["H(K|Y)"] / lam)
        return pen

    def score(self, q_kxvy: np.ndarray, fixed, objective, sign: float, penalty_weight: float) -> np.ndarray:
        q = self.quantities(q_kxvy)
        return sign * self.objective_value(objective, q) - penalty_weight * self.penalty(
            fixed, objective, q
        )


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row onto the probability simplex."""
    a = -np.sort(-v, axis=1)
    cssv = (np.cumsum(a, axis=1) - 1.0) / np.arange(1, v.shape[1] + 1)
    rho = v.shape[1] - 1 - np.argmax((a > cssv)[:, ::-1], axis=1)
    return np.maximum(v - cssv[np.arange(len(v)), rho, None], 0.0)


@dataclass
class OptimizationResult:
    aux: AuxChannel
    point: RegionPoint
    report: ConditionReport
    objective: str
    value: float
    restart_values: list[float]
    best_so_far: list[float]
    penalty: float


def optimize_region(
    spec: SystemSpec,
    fixed: Mapping[str, float],
    objective: str,
    *,
    v_cardinality: int | None = None,
    restarts: int = 32,
    seed: int | None = 0,
    max_sweeps: int = 60,
    obj_tol: float = 1e-7,
    penalty_weight: float = 100.0,
    rd_solution: RdSolution | None = None,
) -> OptimizationResult:
    """Extremize one region coordinate over the aux kernel, holding the given
    coordinates fixed, by multi-start projected coordinate ascent on the
    per-(k, x) simplexes.

    All restarts sweep the (k, x) blocks in lockstep: per block, one batched
    call scores every forward-difference copy, and at most two more find each
    restart's first projected step in 0.5, 0.25, ... (above 1e-6) that gains
    over 1e-12.  A restart stops after its first sweep gaining under ``obj_tol``.

    Every reported point is certified by re-evaluating the full condition set
    (inner-bound semantics: local optima are acceptable, infeasibility is
    not).  ``d_prime`` must be fixed since the message rate enters almost all
    conditions.
    """
    if objective not in _MAXIMIZED | _MINIMIZED:
        raise ValidationError(f"unknown objective {objective!r}")
    if "d_prime" not in fixed:
        raise ValidationError("fixed coordinates must include d_prime")
    if restarts < 1:
        raise ValidationError(f"restarts must be at least 1, got {restarts}")
    sign = 1.0 if objective in _MAXIMIZED else -1.0
    v_size = v_cardinality or spec.v_cardinality_bound()
    if v_size > spec.v_cardinality_bound():
        raise ValidationError("v_cardinality exceeds the support bound")
    ev = _FastEvaluator(spec, float(fixed["d_prime"]), rd_solution)

    ks, xs, ys = spec.k_axis.size, spec.x_axis.size, spec.y_axis.size
    dim = v_size * ys
    steps = np.ldexp(1.0, -np.arange(1, 20))  # 0.5, 0.25, ...: the halvings above 1e-6
    ss = np.random.SeedSequence(seed)
    draws = [np.random.default_rng(c).dirichlet(np.ones(dim), size=(ks, xs)) for c in ss.spawn(restarts)]
    q = np.stack(draws).reshape(restarts, ks, xs, v_size, ys)
    score = ev.score(q, fixed, objective, sign, penalty_weight)
    chunk = max(1, _EVAL_CHUNK // (q[0].size * spec.z_axis.size))

    def scores(rows: np.ndarray, k: int, x: int, blocks: np.ndarray) -> np.ndarray:
        """Scores of the kernels q[rows] with their (k, x) block replaced by
        the rows of ``blocks``, built and evaluated a chunk at a time."""
        out = []
        for i in range(0, len(rows), chunk):
            stack = q[rows[i : i + chunk]]
            stack[:, k, x] = blocks[i : i + chunk].reshape(-1, v_size, ys)
            out.append(ev.score(stack, fixed, objective, sign, penalty_weight))
        return np.concatenate(out)

    active = np.arange(restarts)
    for _ in range(max_sweeps):
        improved = np.zeros(len(active))
        for k in range(ks):
            for x in range(xs):
                block, base = q[active, k, x].reshape(-1, dim), score[active]
                # forward differences: one perturbed copy per (restart, coordinate)
                trial = np.repeat(block, dim, axis=0)
                trial[np.arange(len(trial)), np.tile(np.arange(dim), len(active))] += 1e-6
                grad = (scores(np.repeat(active, dim), k, x, trial).reshape(-1, dim) - base[:, None]) / 1e-6
                # line search: the first step size that improves by more than
                # 1e-12; the full step usually does, so the shorter ones are
                # scored only for the restarts it fails
                rows = np.arange(len(active))
                for part in (steps[:1], steps[1:]):
                    if not rows.size:
                        break
                    moved = block[rows, None] + part[:, None] * grad[rows, None]
                    cand = _project_simplex(moved.reshape(-1, dim))
                    cand_score = scores(np.repeat(active[rows], part.size), k, x, cand).reshape(-1, part.size)
                    ok = cand_score > base[rows, None] + 1e-12
                    hit = ok.any(axis=1)
                    first, r = ok[hit].argmax(axis=1), rows[hit]
                    improved[r] += cand_score[hit, first] - base[r]
                    q[active[r], k, x] = cand.reshape(-1, part.size, v_size, ys)[hit, first]
                    score[active[r]] = cand_score[hit, first]
                    rows = rows[~hit]
        # a restart stops after its first sweep that gains less than obj_tol
        active = active[~(improved < obj_tol)]
        if not active.size:
            break

    restart_values = score.tolist()
    best = int(np.argmax(score))  # the first restart with the highest score
    best_so_far = list(np.maximum.accumulate(restart_values))
    q = q[best] / q[best].sum(axis=(2, 3), keepdims=True)
    batch = ev.quantities(q[None])
    quantities = {name: float(v[0]) for name, v in batch.items()}
    pen = float(ev.penalty(fixed, objective, batch)[0])
    if pen > 1e-6:
        raise InfeasibleError(
            f"no feasible aux channel found for fixed={dict(fixed)} "
            f"(best residual violation {pen:.3e})"
        )

    table = DistTable(
        (spec.k_axis, spec.x_axis, Axis("V", v_size), spec.y_axis),
        q,
        given=(spec.k_axis.name, spec.x_axis.name),
    )
    aux = AuxChannel(table)
    lam, r = spec.lam, ev.r
    a_bound = quantities["H(K|Y)"] / lam + ev.h_u - r
    b_bound = quantities["H(K|Y)"] / lam
    d_bound = lam * r + quantities["I(X;Y,V|K)"] + quantities["I(K;Y)"]
    e_bound = lam * r + quantities["I(X;Y,V|K)"]
    point = RegionPoint(
        d=float(fixed.get("d", quantities["Ed(X,Y)"])),
        d_prime=float(fixed["d_prime"]),
        r_c=float(fixed.get("r_c", d_bound)),
        r_c_prime=float(fixed.get("r_c_prime", e_bound)),
        h=float(fixed.get("h", max(a_bound, 0.0))),
        h_prime=float(fixed.get("h_prime", max(b_bound, 0.0))),
    )
    report = eval_keyed_region(spec, aux, point, rd_solution=ev.rd)
    value = ev.objective_value(objective, quantities)
    return OptimizationResult(
        aux=aux,
        point=point,
        report=report,
        objective=objective,
        value=value,
        restart_values=restart_values,
        best_so_far=best_so_far,
        penalty=pen,
    )
