"""Single-letter achievable-region evaluation and search.

Evaluates three nested condition sets for the achievable region (attack-free
lossless, attack-free lossy, and the general keyed/attacked form with an
auxiliary variable), the extended variant with an explicit test channel, the
structural reduction identities between them, and a multi-start projected
coordinate-ascent search over the auxiliary kernel.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Any, Callable, Mapping

import numpy as np

from .errors import InfeasibleError, ValidationError
from .rd import RdSolution, blahut_arimoto
from .tables import (
    Axis,
    DistTable,
    DistortionMeasure,
    RowEntropies,
    Workspace,
    compose_joint,
    conditional_entropy,
    conditional_mutual_information,
    entropy,
    expected_distortion,
    mutual_information,
)

SLACK_TOL = 1e-9
# entrywise tolerances of the structural tests: p(x, k) against p(x) p(k),
# and the attack channel against the identity
_KEY_INDEPENDENCE_TOL = 1e-9
_IDENTITY_ATTACK_TOL = 1e-12


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

    def key_independent(self) -> bool:
        px = self.p_xk.values.sum(axis=1)
        pk = self.p_xk.values.sum(axis=0)
        return bool(np.max(np.abs(self.p_xk.values - np.outer(px, pk))) <= _KEY_INDEPENDENCE_TOL)

    @cached_property
    def attack_matrix(self) -> np.ndarray:
        """The attack channel as a read-only (Y, Z) matrix of p(z|y), built
        on first use and kept, as the spec is frozen."""
        m = self.p_z_given_y.conditional_matrix((self.y_axis.name,), (self.z_axis.name,))
        m.flags.writeable = False
        return m

    def has_identity_attack(self) -> bool:
        if self.y_axis.size != self.z_axis.size:
            return False
        return bool(np.max(np.abs(self.attack_matrix - np.eye(self.y_axis.size))) <= _IDENTITY_ATTACK_TOL)


@dataclass(frozen=True)
class AuxChannel:
    """Candidate kernel P(V, Y | K, X); the optimizer's decision variable."""

    table: DistTable

    def __post_init__(self) -> None:
        t = self.table
        if not t.is_conditional or len(t.given) != 2 or len(t.target_names) != 2:
            raise ValidationError("aux channel must be (V, Y) conditional on (K, X)")

    @classmethod
    def of(cls, spec: SystemSpec, kernel: np.ndarray) -> "AuxChannel":
        """The kernel p(v, y | k, x), indexed [k][x][v][y], on the spec's K, X
        and Y axes and a V axis as long as the kernel's third dimension."""
        axes = (spec.k_axis, spec.x_axis, Axis("V", kernel.shape[2]), spec.y_axis)
        return cls(DistTable(axes, kernel, given=(spec.k_axis.name, spec.x_axis.name)))

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


# the operating point's coordinates, and the names the optimizer can hold fixed
COORDINATES = tuple(f.name for f in fields(RegionPoint))


def _slack(kind: str, attained, bound):
    """``upper`` means attained <= bound, ``lower`` attained >= bound."""
    return bound - attained if kind == "upper" else attained - bound


@dataclass(frozen=True)
class ConditionEntry:
    """One inequality; slack >= -SLACK_TOL <=> satisfied."""

    name: str
    kind: str
    attained: float
    bound: float
    slack: float
    satisfied: bool

    @classmethod
    def of(cls, name: str, kind: str, attained: float, bound: float) -> "ConditionEntry":
        slack = _slack(kind, attained, bound)
        return cls(name, kind, attained, bound, slack, slack >= -SLACK_TOL)


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
# the keyed region's conditions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KeyedCondition:
    """One of the keyed region's conditions a-f.  ``bound`` maps the
    quantities (floats, or length-B arrays in the optimizer), lambda and the
    message rate R to the bound.  The optimizer maximizes an ``upper`` bound
    and minimizes a ``lower`` one."""

    name: str
    kind: str
    bound: Callable[[Mapping[str, Any], float, float], Any]

    @property
    def sign(self) -> float:
        return 1.0 if self.kind == "upper" else -1.0


# keyed by the coordinate each condition bounds, which is also the bound's
# name as an optimizer objective; c bounds lambda R by the embedding rate
KEYED_CONDITIONS = {
    "h": KeyedCondition("a", "upper", lambda q, lam, r: q["H(K|Y)"] / lam + q["H(U)"] - r),
    "h_prime": KeyedCondition("b", "upper", lambda q, lam, r: q["H(K|Y)"] / lam),
    "embedding_rate": KeyedCondition("c", "upper", lambda q, lam, r: q["I(V;Z|K)"] - q["I(V;X|K)"]),
    "r_c": KeyedCondition("d", "lower", lambda q, lam, r: lam * r + q["I(X;Y,V|K)"] + q["I(K;Y)"]),
    "r_c_prime": KeyedCondition("e", "lower", lambda q, lam, r: lam * r + q["I(X;Y,V|K)"]),
    "d": KeyedCondition("f", "lower", lambda q, lam, r: q["Ed(X,Y)"]),
}


def counting_excess(q: Mapping[str, Any], lam: float, r: float):
    """lambda R + I(X;Y,V|K) - H(Y|K): the counting constraint that every
    realizable operating point meets holds where this is <= 0."""
    return lam * r + q["I(X;Y,V|K)"] - q["H(Y|K)"]


def _keyed_entries(
    point: RegionPoint, q: Mapping[str, float], lam: float, r: float
) -> dict[str, ConditionEntry]:
    """Conditions a-f at ``point`` with message rate ``r``, in table order."""
    attained = {**vars(point), "embedding_rate": lam * r}
    return {
        c.name: ConditionEntry.of(c.name, c.kind, attained[coord], c.bound(q, lam, r))
        for coord, c in KEYED_CONDITIONS.items()
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
    r = (rd_solution or blahut_arimoto(spec.p_u, spec.d_prime, point.d_prime)).rate_bits
    _warn_key_assumption(q["H(K)"], spec.lam, r)
    q["R_U(D')"] = r
    return ConditionReport(_keyed_entries(point, q, spec.lam, r), q)


def _attack_free_xy(spec: SystemSpec, p_y_given_x: DistTable) -> DistTable:
    """Joint over (X, Y) from the covertext marginal and an embedding channel."""
    x_name = spec.x_axis.name
    if set(p_y_given_x.given) != {x_name}:
        raise ValidationError(f"embedding channel must condition on {x_name!r}")
    (y_name,) = p_y_given_x.target_names
    px = spec.p_xk.values.sum(axis=1)
    mat = p_y_given_x.conditional_matrix((x_name,), (y_name,))
    return DistTable((spec.x_axis, p_y_given_x.axis(y_name)), px[:, None] * mat)


def _attack_free_quantities(spec: SystemSpec, p_y_given_x: DistTable) -> dict[str, float]:
    """The quantities both attack-free regions read, for a key independent
    of the covertext and an embedding channel."""
    if not spec.key_independent():
        raise ValidationError("this reduced form assumes a key independent of the covertext")
    xy = _attack_free_xy(spec, p_y_given_x)
    x_name, y_name = xy.names
    return {
        "H(U)": entropy(spec.p_u),
        "H(K)": entropy(spec.p_xk, (spec.k_axis.name,)),
        "H(Y|X)": conditional_entropy(xy, (y_name,), (x_name,)),
        "I(X;Y)": mutual_information(xy, (x_name,), (y_name,)),
        "Ed(X,Y)": expected_distortion(xy, spec.d),
    }


def eval_lossless_region(spec: SystemSpec, p_y_given_x: DistTable, point: RegionPoint) -> ConditionReport:
    """Attack-free, lossless-reconstruction region: secrecy condition (a) and
    the embedding/compression conditions (b)(i)-(iii)."""
    q = _attack_free_quantities(spec, p_y_given_x)
    lam = spec.lam
    c = {
        "a": ConditionEntry.of("a", "upper", point.h, q["H(K)"] / lam),
        "b_i": ConditionEntry.of("b_i", "upper", lam * q["H(U)"], q["H(Y|X)"]),
        "b_ii": ConditionEntry.of("b_ii", "lower", point.r_c, lam * q["H(U)"] + q["I(X;Y)"]),
        "b_iii": ConditionEntry.of("b_iii", "lower", point.d, q["Ed(X,Y)"]),
    }
    return ConditionReport(c, q)


def eval_attack_free_region(
    spec: SystemSpec,
    p_y_given_x: DistTable,
    point: RegionPoint,
) -> ConditionReport:
    """Attack-free region with lossy message reconstruction."""
    q = _attack_free_quantities(spec, p_y_given_x)
    lam = spec.lam
    r = q["R_U(D')"] = blahut_arimoto(spec.p_u, spec.d_prime, point.d_prime).rate_bits
    _warn_key_assumption(q["H(K)"], lam, r)
    c = {
        "a": ConditionEntry.of("a", "upper", point.h, q["H(K)"] / lam + q["H(U)"] - r),
        "b": ConditionEntry.of("b", "upper", point.h_prime, q["H(K)"] / lam),
        "c_i": ConditionEntry.of("c_i", "upper", lam * r, q["H(Y|X)"]),
        "c_ii": ConditionEntry.of("c_ii", "lower", point.r_c, lam * r + q["I(X;Y)"]),
        "c_iii": ConditionEntry.of("c_iii", "lower", point.d, q["Ed(X,Y)"]),
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
        **_keyed_entries(point, q, lam, i_uu),  # a and b are replaced in place
        "a": ConditionEntry.of("a", "upper", point.h, a_bound),
        "b": ConditionEntry.of("b", "upper", point.h_prime, min(h_uhat, q["H(K|Y)"] / lam)),
        "g": ConditionEntry.of("g", "upper", ed_prime, point.d_prime),
    }
    return ConditionReport(c, q)


def inherent_constraint_check(
    spec: SystemSpec,
    aux: AuxChannel,
    d_prime_value: float,
) -> tuple[bool, float]:
    """The counting constraint lambda R_U(D') + I(X;Y,V|K) <= H(Y|K) that any
    realizable operating point must satisfy; returns (ok, slack)."""
    q = system_quantities(spec, aux)
    r = blahut_arimoto(spec.p_u, spec.d_prime, d_prime_value).rate_bits
    slack = -counting_excess(q, spec.lam, r)
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
    (y_name,) = p_y_given_x.target_names
    mat = p_y_given_x.conditional_matrix((spec.x_axis.name,), (y_name,))
    ys = np.arange(mat.shape[1])
    vals = np.zeros((spec.k_axis.size, *mat.shape, len(ys)))
    vals[:, :, ys, ys] = mat
    return AuxChannel.of(spec, vals)


def random_aux_channel(spec: SystemSpec, v_size: int, rng: np.random.Generator) -> AuxChannel:
    """Dirichlet(1) kernel per (k, x) cell: the optimizer's restarts, and
    handy for grids."""
    ks, xs, ys = spec.k_axis.size, spec.x_axis.size, spec.y_axis.size
    vals = rng.dirichlet(np.ones(v_size * ys), size=(ks, xs)).reshape(ks, xs, v_size, ys)
    return AuxChannel.of(spec, vals)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

_EVAL_CHUNK = 1 << 14  # kernels per evaluation, counted in the (B, K, X, V, Y) entries the evaluator holds, to bound memory
_MAX_SWEEPS, _OBJ_TOL = 60, 1e-7  # a restart's sweep limit, and the least gain of a sweep that keeps it going
_PENALTY_WEIGHT = 100.0  # the penalty's weight in a restart's score


def _max0(x: np.ndarray) -> np.ndarray:
    """Elementwise ``max(x, 0.0)``, signed zeros and NaN included."""
    return np.where(0.0 > x, 0.0, x)


def _pos(x: np.ndarray) -> np.ndarray:
    """Elementwise ``max(0.0, x)``, signed zeros and NaN included."""
    return np.where(x > 0.0, x, 0.0)


def _batch_first(m: np.ndarray) -> np.ndarray:
    return m.transpose(m.ndim - 1, *range(m.ndim - 1))  # (..., B) as a (B, ...) view


class _FastEvaluator:
    """Raw-array evaluation of one problem's penalized objective on a stack
    of kernels of shape (B, K, X, V, Y); skips DistTable validation inside the
    inner loop.  Every kernel's values are bit-identical to a stack of one."""

    def __init__(self, spec: SystemSpec, fixed: Mapping[str, float], objective: str):
        self.lam = spec.lam
        self.xk = spec.p_xk.reorder((spec.k_axis.name, spec.x_axis.name)).values
        self.att = spec.attack_matrix
        # exactly Z = Y: not has_identity_attack(), whose tolerance admits
        # rows whose products are no longer exact
        self.z_is_y = np.array_equal(self.att, np.eye(len(self.att)))
        self.cost = spec.d.cost
        # every array that grows with the stack is written into these buffers,
        # which the optimizer's own per-block arrays share
        self.ws, self.entropies = Workspace(), RowEntropies()
        self.h_u = entropy(spec.p_u)
        self.rd = blahut_arimoto(spec.p_u, spec.d_prime, float(fixed["d_prime"]))
        self.r = self.rd.rate_bits
        self.objective = KEYED_CONDITIONS[objective]
        # the penalty's held conditions: c, then each fixed coordinate but the
        # objective, in RegionPoint's field order
        self.held = [(KEYED_CONDITIONS["embedding_rate"], self.lam * self.r)] + [
            (KEYED_CONDITIONS[name], fixed[name])
            for name in COORDINATES
            if name in fixed and name != objective and name in KEYED_CONDITIONS
        ]

    def quantities(self, q_kxvy: np.ndarray) -> dict[str, np.ndarray]:
        """The keyed region's quantities of each kernel in the stack.

        The marginals are those of the (B,K,X,V,Y,Z) joint summed the way
        numpy's reduce sums them.  Where the innermost kept axis has more
        than one letter, numpy adds whole slices in C order of the summed
        indices, so a marginal of ``jb``, the joint with the batch axis
        innermost, or of its (K,X,V,Y,Z,B) product with a general attack,
        is one ``.sum`` with the same bits.  A summed last axis is added
        pairwise, which is that order only below numpy's 8-element block;
        those marginals keep ``.sum`` over C-contiguous (B, ...) stacks.
        When the attack is exactly the identity, the Z marginals and their
        entropies are the Y ones: each term is a Y slice times 1.0 or 0.0,
        and adding +0.0 to a sum of nonnegative terms leaves its bits."""
        ws = self.ws
        j4 = np.multiply(self.xk[:, :, None, None], q_kxvy, out=ws.take("j4", q_kxvy.shape))  # (B,K,X,V,Y)
        vs, ys, att = j4.shape[3], j4.shape[4], self.att
        jb = ws.take("jb", (*j4.shape[1:], len(j4)))  # (K,X,V,Y,B), C-contiguous
        np.copyto(jb, j4.transpose(1, 2, 3, 4, 0))
        if ys > 1:
            p_ky, p_kvy = _batch_first(ws.sum("ky", jb, (1, 2))), _batch_first(ws.sum("kvy", jb, 1))
            p_xy = np.ascontiguousarray(_batch_first(jb.sum(axis=(0, 2))))  # Ed(X,Y) sums it pairwise
        else:
            p_ky, p_kvy, p_xy = ws.sum("ky", j4, (2, 3)), ws.sum("kvy", j4, 2), j4.sum(axis=(1, 3))
        if ys < 8:
            kxvb = ws.sum("kxv", jb, 3)  # (K,X,V,B)
            p_kxv = _batch_first(kxvb)
            p_kv = _batch_first(ws.sum("kv", kxvb, 1)) if vs > 1 else ws.sum("kv", j4, (2, 4))
        else:
            p_kxv, p_kv = ws.sum("kxv", j4, 4), ws.sum("kv", j4, (2, 4))
        if self.z_is_y:
            z_stacks = ()
        elif att.shape[1] > 1:
            j5_shape = (*jb.shape[:4], att.shape[1], len(j4))  # (K,X,V,Y,Z,B)
            j5 = np.multiply(jb[:, :, :, :, None], att[:, :, None], out=ws.take("j5", j5_shape))
            z_stacks = (_batch_first(ws.sum("kz", j5, (1, 2, 3))), _batch_first(ws.sum("kvz", j5, (1, 3))))
        else:
            j5 = np.multiply(j4[..., None], att, out=ws.take("j5", (*j4.shape, 1)))  # (B,K,X,V,Y,1)
            z_stacks = (ws.sum("kz", j5, (2, 3, 4)), ws.sum("kvz", j5, (2, 4)))
        h_k, h_ky, h_y, h_kv, h_kx, h_kxv, h_kyv, h_j, *h_z = self.entropies(
            j4.sum(axis=(2, 3, 4)), p_ky, p_ky.sum(axis=1), p_kv, j4.sum(axis=(3, 4)), p_kxv, p_kvy, j4, *z_stacks
        )
        h_kz, h_kvz = h_z or (h_ky, h_kyv)
        return {
            "H(U)": np.full(len(q_kxvy), self.h_u),
            "H(K|Y)": h_ky - h_y,
            "I(K;Y)": _max0(h_k + h_y - h_ky),
            "I(V;Z|K)": _max0(h_kv + h_kz - h_k - h_kvz),
            "I(V;X|K)": _max0(h_kv + h_kx - h_k - h_kxv),
            "I(X;Y,V|K)": _max0(h_kx + h_kyv - h_k - h_j),
            "H(Y|K)": h_ky - h_k,
            "Ed(X,Y)": (p_xy * self.cost).sum(axis=(1, 2)),
        }

    def penalty(self, q: dict[str, np.ndarray]) -> np.ndarray:
        """The counting constraint's excess, then the held conditions' shortfalls."""
        pen = _pos(counting_excess(q, self.lam, self.r))
        for c, attained in self.held:
            pen += _pos(-_slack(c.kind, attained, c.bound(q, self.lam, self.r)))
        return pen

    def score(self, q_kxvy: np.ndarray) -> np.ndarray:
        q = self.quantities(q_kxvy)
        value = self.objective.bound(q, self.lam, self.r)
        return self.objective.sign * value - _PENALTY_WEIGHT * self.penalty(q)


def _project_simplex(v: np.ndarray, ws: Workspace) -> np.ndarray:
    """Euclidean projection of each row onto the probability simplex, written
    into ``ws``."""
    a = np.negative(v, out=ws.take("sorted", v.shape))
    a.sort(axis=1)
    np.negative(a, out=a)  # each row in descending order
    cssv = np.cumsum(a, axis=1, out=ws.take("cssv", v.shape))
    cssv -= 1.0
    cssv /= np.arange(1, v.shape[1] + 1)
    rho = v.shape[1] - 1 - np.argmax((a > cssv)[:, ::-1], axis=1)
    out = np.subtract(v, cssv[np.arange(len(v)), rho, None], out=ws.take("projected", v.shape))
    return np.maximum(out, 0.0, out=out)


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
) -> OptimizationResult:
    """Extremize one region coordinate over the aux kernel, holding the given
    coordinates fixed, by multi-start projected coordinate ascent on the
    per-(k, x) simplexes.

    All restarts sweep the (k, x) blocks in lockstep: per block, one batched
    call scores every forward-difference copy, and at most two more find each
    restart's first projected step in 0.5, 0.25, ... (above 1e-6) that gains
    over 1e-12.  A restart stops after its first sweep gaining under ``_OBJ_TOL``.

    Every reported point is certified by re-evaluating the full condition set
    (inner-bound semantics: local optima are acceptable, infeasibility is
    not).  The restarts are tried in score order, the first of equal scores
    first, and the first whose penalty is at most 1e-6 and whose report is
    ``all_satisfied`` is reported; when none is, ``InfeasibleError`` names
    the best restart's failure.  ``d_prime`` must be fixed since the message
    rate enters almost all conditions.
    """
    if objective not in KEYED_CONDITIONS:
        raise ValidationError(f"unknown objective {objective!r}")
    unknown = sorted(set(fixed) - set(COORDINATES))
    if unknown:
        raise ValidationError(f"unknown fixed coordinates {unknown}; choose from {list(COORDINATES)}")
    if "d_prime" not in fixed:
        raise ValidationError("fixed coordinates must include d_prime")
    if restarts < 1:
        raise ValidationError(f"restarts must be at least 1, got {restarts}")
    bound = spec.v_cardinality_bound()
    v_size = bound if v_cardinality is None else v_cardinality
    if not 1 <= v_size <= bound:
        raise ValidationError(f"v_cardinality must lie in 1..{bound} (the support bound), got {v_size}")
    ev = _FastEvaluator(spec, fixed, objective)
    ws = ev.ws  # the per-block arrays below share the evaluator's buffers

    ks, xs, ys = spec.k_axis.size, spec.x_axis.size, spec.y_axis.size
    dim = v_size * ys
    steps = np.ldexp(1.0, -np.arange(1, 20))  # 0.5, 0.25, ...: the halvings above 1e-6
    children = np.random.SeedSequence(seed).spawn(restarts)
    q = np.stack([random_aux_channel(spec, v_size, np.random.default_rng(c)).table.values for c in children])
    score = ev.score(q)
    chunk = max(1, _EVAL_CHUNK // q[0].size)

    def scores(rows: np.ndarray, k: int, x: int, blocks: np.ndarray) -> np.ndarray:
        """Scores of the kernels q[rows] with their (k, x) block replaced by
        the rows of ``blocks``, built and evaluated a chunk at a time."""
        out = []
        for i in range(0, len(rows), chunk):
            part = rows[i : i + chunk]
            stack = np.take(q, part, axis=0, out=ws.take("stack", (len(part), *q.shape[1:])))
            stack[:, k, x] = blocks[i : i + chunk].reshape(-1, v_size, ys)
            out.append(ev.score(stack))
        return np.concatenate(out)

    active = np.arange(restarts)
    for _ in range(_MAX_SWEEPS):
        improved = np.zeros(len(active))
        for k in range(ks):
            for x in range(xs):
                block, base = q[active, k, x].reshape(-1, dim), score[active]
                # forward differences: one perturbed copy per (restart, coordinate)
                trial = ws.take("trial", (len(active), dim, dim))
                trial[...] = block[:, None]
                trial.reshape(len(active), -1)[:, :: dim + 1] += 1e-6  # copy i moves coordinate i
                trial_score = scores(np.repeat(active, dim), k, x, trial.reshape(-1, dim))
                grad = (trial_score.reshape(-1, dim) - base[:, None]) / 1e-6
                # line search: the first step size that improves by more than
                # 1e-12; the full step usually does, so the shorter ones are
                # scored only for the restarts it fails
                rows = np.arange(len(active))
                for part in (steps[:1], steps[1:]):
                    if not rows.size:
                        break
                    moved = ws.take("moved", (len(rows), part.size, dim))
                    np.multiply(part[:, None], grad[rows, None], out=moved)
                    moved += block[rows, None]  # step plus block: the bits of block plus step
                    cand = _project_simplex(moved.reshape(-1, dim), ws)
                    cand_score = scores(np.repeat(active[rows], part.size), k, x, cand).reshape(-1, part.size)
                    ok = cand_score > base[rows, None] + 1e-12
                    hit = ok.any(axis=1)
                    first, r = ok[hit].argmax(axis=1), rows[hit]
                    improved[r] += cand_score[hit, first] - base[r]
                    q[active[r], k, x] = cand.reshape(-1, part.size, v_size, ys)[hit, first]
                    score[active[r]] = cand_score[hit, first]
                    rows = rows[~hit]
        # a restart stops after its first sweep that gains less than _OBJ_TOL
        active = active[~(improved < _OBJ_TOL)]
        if not active.size:
            break

    def certify(kernel: np.ndarray) -> OptimizationResult:
        """One restart's normalized kernel as a certified result, or the
        InfeasibleError that names its failure."""
        batch = ev.quantities(kernel[None])
        quantities = {name: float(v[0]) for name, v in batch.items()}
        pen = float(ev.penalty(batch)[0])
        if pen > 1e-6:
            raise InfeasibleError(
                f"no feasible aux channel found for fixed={dict(fixed)} "
                f"(best residual violation {pen:.3e})"
            )
        aux = AuxChannel.of(spec, kernel)
        # a free coordinate sits on its bound, floored at 0 (only a's and b's can be negative)
        free = {name: max(c.bound(quantities, ev.lam, ev.r), 0.0) for name, c in KEYED_CONDITIONS.items()}
        point = RegionPoint(
            **{name: float(fixed[name] if name in fixed else free[name]) for name in COORDINATES}
        )
        report = eval_keyed_region(spec, aux, point, rd_solution=ev.rd)
        # the penalty tolerates 1e-6 bits; the certificate holds every slack to SLACK_TOL
        violated = {name: c.slack for name, c in report.conditions.items() if not c.satisfied}
        if violated:
            slacks = ", ".join(f"{name} (slack {slack:.3e})" for name, slack in violated.items())
            raise InfeasibleError(f"the best aux channel for fixed={dict(fixed)} violates {slacks}")
        return OptimizationResult(
            aux=aux,
            point=point,
            report=report,
            objective=objective,
            value=ev.objective.bound(quantities, ev.lam, ev.r),
            restart_values=score.tolist(),
            best_so_far=list(np.maximum.accumulate(score)),
            penalty=pen,
        )

    failure = None
    for i in np.argsort(-score, kind="stable"):
        try:
            return certify(q[i] / q[i].sum(axis=(2, 3), keepdims=True))
        except InfeasibleError as e:
            failure = failure or e
    raise failure
