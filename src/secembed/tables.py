"""Dense probability tables over named finite alphabets, plus the exact
information measures computed from them.

Everything downstream (typicality, rate-distortion, region conditions, the
simulator) works on these tables.  Conventions:

- all logarithms are base 2; entropies and informations are in bits,
- 0 * log 0 := 0, and entries below ``LOG_ZERO_CUTOFF`` are treated as exact
  zeros inside log computations,
- tables are immutable after construction and safe to share across workers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import NumericalConsistencyError, ValidationError

NORMALIZATION_ATOL = 1e-12
LOG_ZERO_CUTOFF = 1e-15
MI_NEGATIVE_TOL = 1e-12
_PACK_PIECE = 1 << 13  # entries of RowEntropies' buffer gathered at once: 64 KB of float64


@dataclass(frozen=True)
class Axis:
    """A named finite alphabet: symbols are the indices ``0 .. size-1``."""

    name: str
    size: int

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("axis name must be nonempty")
        if self.size < 1:
            raise ValidationError(f"axis {self.name!r} must have size >= 1")


def _as_axis(a) -> Axis:
    if isinstance(a, Axis):
        return a
    name, size = a
    return Axis(str(name), int(size))


class DistTable:
    """A joint PMF or a conditional kernel over a product of named alphabets.

    ``given`` names the conditioning axes.  With ``given=()`` the table is a
    joint PMF (sums to 1); otherwise every slice obtained by fixing the
    conditioning axes sums to 1.  Both are checked to ``NORMALIZATION_ATOL``.
    """

    __slots__ = ("axes", "values", "given")

    def __init__(self, axes: Iterable, values, given: Sequence[str] = ()):
        axes = tuple(_as_axis(a) for a in axes)
        names = [a.name for a in axes]
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate axis names in {names}")
        vals = np.array(values, dtype=np.float64)
        shape = tuple(a.size for a in axes)
        if vals.shape != shape:
            raise ValidationError(
                f"values shape {vals.shape} does not match axes shape {shape}"
            )
        if np.any(vals < 0.0) or not np.all(np.isfinite(vals)):
            raise ValidationError("table entries must be finite and >= 0")
        given = tuple(str(g) for g in given)
        for g in given:
            if g not in names:
                raise ValidationError(f"conditioning axis {g!r} not among {names}")
        if given:
            target_idx = tuple(i for i, a in enumerate(axes) if a.name not in given)
            if not target_idx:
                raise ValidationError("conditional table needs at least one target axis")
            sums = vals.sum(axis=target_idx)
            if np.any(np.abs(sums - 1.0) > NORMALIZATION_ATOL):
                worst = float(np.max(np.abs(sums - 1.0)))
                raise ValidationError(
                    f"conditional slices must each sum to 1 (worst deviation {worst:.3e})"
                )
        else:
            total = float(vals.sum())
            if abs(total - 1.0) > NORMALIZATION_ATOL:
                raise ValidationError(f"joint PMF must sum to 1, got {total!r}")
        vals.setflags(write=False)
        self.axes = axes
        self.values = vals
        self.given = given

    # -- introspection -----------------------------------------------------

    @property
    def is_conditional(self) -> bool:
        return bool(self.given)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.axes)

    @property
    def target_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.axes if a.name not in self.given)

    def axis(self, name: str) -> Axis:
        for a in self.axes:
            if a.name == name:
                return a
        raise ValidationError(f"no axis named {name!r} in {self.names}")

    def axis_index(self, name: str) -> int:
        for i, a in enumerate(self.axes):
            if a.name == name:
                return i
        raise ValidationError(f"no axis named {name!r} in {self.names}")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = f"conditional on {self.given}" if self.given else "joint"
        dims = ", ".join(f"{a.name}:{a.size}" for a in self.axes)
        return f"DistTable({dims}; {kind})"

    # -- manipulation ------------------------------------------------------

    def marginal(self, *names: str) -> "DistTable":
        """Sum out every axis not listed.  Joint tables only; the retained
        axes keep their original relative order."""
        if self.is_conditional:
            raise ValidationError("marginal() is only defined for joint tables")
        keep = set(names)
        unknown = keep - set(self.names)
        if unknown:
            raise ValidationError(f"unknown axes {sorted(unknown)}")
        drop = tuple(i for i, a in enumerate(self.axes) if a.name not in keep)
        vals = self.values.sum(axis=drop) if drop else self.values
        axes = tuple(a for a in self.axes if a.name in keep)
        return DistTable(axes, vals)

    def reorder(self, names: Sequence[str]) -> "DistTable":
        if set(names) != set(self.names) or len(names) != len(self.names):
            raise ValidationError(f"reorder needs a permutation of {self.names}")
        perm = [self.axis_index(n) for n in names]
        return DistTable(
            tuple(self.axes[i] for i in perm),
            np.transpose(self.values, perm),
            given=self.given,
        )

    def conditional_matrix(self, given_order: Sequence[str], target_order: Sequence[str]) -> np.ndarray:
        """Flatten a conditional table to shape (prod given, prod target)."""
        if set(given_order) != set(self.given):
            raise ValidationError(f"given axes are {self.given}, not {tuple(given_order)}")
        if set(target_order) != set(self.target_names):
            raise ValidationError(f"target axes are {self.target_names}, not {tuple(target_order)}")
        t = self.reorder(tuple(given_order) + tuple(target_order))
        g = int(np.prod([self.axis(n).size for n in given_order]))
        return t.values.reshape(g, -1)


# ---------------------------------------------------------------------------
# information measures
# ---------------------------------------------------------------------------


class Workspace:
    """Flat buffers by name, each grown to the largest array taken from it and
    then reused, so a loop of evaluations of one size writes into pages it
    has already touched instead of freshly allocated ones.  An array taken
    from a name holds undefined values and is valid until that name's next
    use; each (name, shape) view is made once."""

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}
        self._views: dict[tuple, np.ndarray] = {}  # (name, ...) -> a view of the name's buffer

    def _view(self, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size or buf.dtype != dtype:
            buf = self._buffers[name] = np.empty(size, dtype)
            self._views = {key: v for key, v in self._views.items() if key[0] != name}
        return buf[:size].reshape(shape)

    def take(self, name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """A C-contiguous array of ``shape`` in buffer ``name``."""
        view = self._views.get((name, shape, dtype))
        if view is None:
            view = self._views[name, shape, dtype] = self._view(name, shape, dtype)
        return view

    def sum(self, name: str, a: np.ndarray, axis: int | tuple[int, ...]) -> np.ndarray:
        """``a.sum(axis=axis)`` written into buffer ``name``.  For a
        C-contiguous ``a`` that is the layout numpy gives the sum itself, so
        the sum adds in the same order and keeps its bits."""
        out = self._views.get((name, a.shape, axis))
        if out is None:
            axes = (axis,) if isinstance(axis, int) else axis
            shape = tuple(n for i, n in enumerate(a.shape) if i not in axes)
            out = self._views[name, a.shape, axis] = self._view(name, shape, np.float64)
        return a.sum(axis=axis, out=out)


class RowEntropies:
    """Entropy of each row of each (B, ...) stack; stacks may differ in row
    count and width, and need not be contiguous.  Every row goes into one
    buffer after a lead 1.0, so its nonzero terms follow a lead term
    1 * log2(1) = +0.0, and ``reduceat`` adds the rest of a segment to its
    first element with numpy's pairwise sum: a row gets 0.0 + pairwise(its
    terms) whatever the batch, the bits of ``.sum()`` over them alone.

    The buffers, and the layout of each set of stack shapes seen, are kept
    between calls, so a caller that evaluates stacks of one size again and
    again allocates nothing large after the first call; each call's results
    are views of them, valid until the next call."""

    def __init__(self) -> None:
        self._ws = Workspace()
        self._layouts: dict[tuple, tuple] = {}  # stack shapes -> (starts, buffers, stack slots, result rows)

    def _layout(self, shapes: tuple[tuple[int, ...], ...]) -> tuple:
        rows, widths = [s[0] for s in shapes], [math.prod(s[1:]) + 1 for s in shapes]
        lengths = np.repeat(widths, rows)
        starts = np.cumsum(lengths) - lengths
        buf = self._ws.take("buf", (int(starts[-1] + lengths[-1]),))
        mask = self._ws.take("mask", buf.shape, np.bool_)
        flags = self._ws.take("flags", buf.shape, np.int32)
        counts = self._ws.take("counts", starts.shape, np.int32)
        out = self._ws.take("out", starts.shape)
        offsets = itertools.accumulate((n * w for n, w in zip(rows, widths)), initial=0)
        # splitting the row axis of a view never copies, so each slot is a view of buf
        slots = [
            buf[at : at + n * w].reshape(n, w)[:, 1:].reshape(shape)
            for shape, n, w, at in zip(shapes, rows, widths, offsets)
        ]
        results = [out[end - n : end] for n, end in zip(rows, itertools.accumulate(rows))]
        return starts, buf, mask, flags, counts, out, slots, results

    def __call__(self, *stacks: np.ndarray) -> list[np.ndarray]:
        shapes = tuple(s.shape for s in stacks)
        layout = self._layouts.get(shapes)
        if layout is None:
            layout = self._layouts[shapes] = self._layout(shapes)
        starts, buf, mask, flags, counts, out, slots, results = layout
        buf[starts] = 1.0
        for s, slot in zip(stacks, slots):
            slot[...] = s
        np.greater(buf, LOG_ZERO_CUTOFF, out=mask)
        np.copyto(flags, mask)  # reduceat would add a cast copy of its own
        np.add.reduceat(flags, starts, out=counts)
        # the nonzero terms p log2 p, packed from the front of buf a piece at a
        # time: the packed run never passes the piece being read, and no
        # gather outgrows a piece
        packed = 0
        for at in range(0, buf.size, _PACK_PIECE):
            nz = buf[at : at + _PACK_PIECE][mask[at : at + _PACK_PIECE]]
            terms = np.log2(nz, out=buf[packed : packed + nz.size])
            terms *= nz
            packed += nz.size
            del nz  # freed before the next piece is gathered
        np.add.reduceat(buf[:packed], np.cumsum(counts) - counts, out=out)
        np.negative(out, out=out, where=counts > 1)  # a row of no terms keeps +0.0
        return list(results)


def row_entropies(*stacks: np.ndarray) -> list[np.ndarray]:
    """``RowEntropies`` called once: each row's entropy, in arrays of its own."""
    return RowEntropies()(*stacks)


def entropy(p: DistTable, axes: Sequence[str] | None = None) -> float:
    """Joint entropy H of the marginal on ``axes`` (all axes by default)."""
    if p.is_conditional:
        raise ValidationError("entropy expects a joint PMF")
    t = p if axes is None else p.marginal(*axes)
    ((h,),) = row_entropies(t.values[None])
    return float(h)


def conditional_entropy(joint: DistTable, target_axes: Sequence[str], given_axes: Sequence[str]) -> float:
    """H(target | given) = H(target, given) - H(given)."""
    t, g = tuple(target_axes), tuple(given_axes)
    if set(t) & set(g):
        raise ValidationError(f"target {t} and given {g} axes overlap")
    if not g:
        return entropy(joint, t)
    return entropy(joint, t + g) - entropy(joint, g)


def _grouped(joint: DistTable, axes_a, axes_b, axes_c) -> np.ndarray:
    """Marginal over a+b+c reshaped to (|A|, |B|, |C|) flat groups."""
    order = tuple(axes_a) + tuple(axes_b) + tuple(axes_c)
    m = joint.marginal(*order).reorder(order)
    sa = int(np.prod([m.axis(n).size for n in axes_a]))
    sb = int(np.prod([m.axis(n).size for n in axes_b]))
    sc = int(np.prod([m.axis(n).size for n in axes_c])) if axes_c else 1
    return m.values.reshape(sa, sb, sc)


def _information_from_grouped(p_abc: np.ndarray, what: str) -> float:
    # All marginals reduce from the same array so that structurally
    # degenerate cases (e.g. one group a deterministic copy of another)
    # produce ratios that are exactly 1.0 and therefore an exact 0.0.
    p_ac = p_abc.sum(axis=1)  # (A, C)
    p_bc = p_abc.sum(axis=0)  # (B, C)
    p_c = p_ac.sum(axis=0)  # (C,)
    mask = p_abc > LOG_ZERO_CUTOFF
    num = p_abc * p_c[None, None, :]
    den = p_ac[:, None, :] * p_bc[None, :, :]
    ratio = np.ones_like(p_abc)
    np.divide(num, den, out=ratio, where=mask & (den > 0))
    logs = np.zeros_like(p_abc)
    np.log2(ratio, out=logs, where=mask)
    val = float((p_abc * logs)[mask].sum()) if np.any(mask) else 0.0
    if val < -MI_NEGATIVE_TOL:
        raise NumericalConsistencyError(f"{what} = {val} is negative beyond tolerance")
    return 0.0 if val < 0.0 else val


def mutual_information(joint: DistTable, axes_a: Sequence[str], axes_b: Sequence[str]) -> float:
    """I(A;B) in bits; equals H(A) + H(B) - H(A,B).  Values within
    -MI_NEGATIVE_TOL of zero clamp to 0, larger negatives raise."""
    a, b = tuple(axes_a), tuple(axes_b)
    if set(a) & set(b):
        raise ValidationError(f"axis sets {a} and {b} overlap")
    return _information_from_grouped(_grouped(joint, a, b, ()), "I(A;B)")


def conditional_mutual_information(
    joint: DistTable,
    axes_a: Sequence[str],
    axes_b: Sequence[str],
    axes_c: Sequence[str],
) -> float:
    """I(A;B|C) = H(A|C) - H(A|B,C), in bits."""
    a, b, c = tuple(axes_a), tuple(axes_b), tuple(axes_c)
    if (set(a) & set(b)) or (set(a) & set(c)) or (set(b) & set(c)):
        raise ValidationError("axis sets must be pairwise disjoint")
    if not c:
        return mutual_information(joint, a, b)
    return _information_from_grouped(_grouped(joint, a, b, c), "I(A;B|C)")


# ---------------------------------------------------------------------------
# composition and distortion
# ---------------------------------------------------------------------------


def compose_joint(
    p_xk: DistTable,
    p_vy_given_kx: DistTable,
    p_z_given_y: DistTable | None = None,
) -> DistTable:
    """Compose the full system joint over (K, X, V, Y[, Z]).

    Factors: a joint source/key table over (X, K), a conditional kernel for
    (V, Y) given (K, X), and optionally a memoryless attack kernel Z given Y.
    By construction the (K, X) marginal of the result recovers the source/key
    table and Z is conditionally independent of (K, X, V) given Y.
    """
    if p_xk.is_conditional:
        raise ValidationError("source/key table must be a joint PMF")
    if len(p_xk.axes) != 2:
        raise ValidationError("source/key table must have exactly two axes (X, K)")
    if set(p_vy_given_kx.given) != set(p_xk.names):
        raise ValidationError(
            f"kernel must condition on {p_xk.names}, conditions on {p_vy_given_kx.given}"
        )
    targets = p_vy_given_kx.target_names
    if len(targets) != 2:
        raise ValidationError("kernel must have two target axes (V, Y)")
    for n in p_xk.names:
        if p_vy_given_kx.axis(n).size != p_xk.axis(n).size:
            raise ValidationError(f"axis {n!r} size mismatch between source and kernel")
    v_ax, y_ax = (p_vy_given_kx.axis(t) for t in targets)

    x_name, k_name = p_xk.names
    k_ax, x_ax = p_xk.axis(k_name), p_xk.axis(x_name)

    xk = p_xk.reorder((k_name, x_name)).values  # (K, X)
    kern = p_vy_given_kx.reorder((k_name, x_name) + tuple(targets)).values  # (K, X, V, Y)
    out = xk[:, :, None, None] * kern
    axes = (k_ax, x_ax, v_ax, y_ax)

    if p_z_given_y is not None:
        if set(p_z_given_y.given) != {y_ax.name}:
            raise ValidationError(
                f"attack kernel must condition on {y_ax.name!r}, conditions on {p_z_given_y.given}"
            )
        if p_z_given_y.axis(y_ax.name).size != y_ax.size:
            raise ValidationError("attack kernel alphabet does not match the composite axis")
        (z_name,) = p_z_given_y.target_names
        z_ax = p_z_given_y.axis(z_name)
        att = p_z_given_y.reorder((y_ax.name, z_name)).values  # (Y, Z)
        out = out[:, :, :, :, None] * att[None, None, None, :, :]
        axes = axes + (z_ax,)

    return DistTable(axes, out)


@dataclass(frozen=True)
class DistortionMeasure:
    """Per-symbol distortion between two named alphabets (rows -> cols)."""

    rows: Axis
    cols: Axis
    cost: np.ndarray

    def __post_init__(self) -> None:
        cost = np.array(self.cost, dtype=np.float64)
        if cost.shape != (self.rows.size, self.cols.size):
            raise ValidationError(
                f"cost shape {cost.shape} does not match ({self.rows.size}, {self.cols.size})"
            )
        if np.any(cost < 0) or not np.all(np.isfinite(cost)):
            raise ValidationError("distortion entries must be finite and >= 0")
        cost.setflags(write=False)
        object.__setattr__(self, "cost", cost)

    @classmethod
    def hamming(cls, rows: Axis, cols: Axis | None = None) -> "DistortionMeasure":
        cols = cols or rows
        c = 1.0 - np.eye(rows.size, cols.size)
        return cls(rows, cols, c)

    def per_sequence(self, row_seq, col_seq) -> float | np.ndarray:
        """Additive distortion between two index sequences, or between the
        rows of two (words, n) stacks, one float a row in an array."""
        total = self.cost[np.asarray(row_seq), np.asarray(col_seq)].sum(axis=-1)
        return total if total.ndim else float(total)


def expected_distortion(joint: DistTable, d: DistortionMeasure) -> float:
    """E d(X, Y) under a joint that contains d's row and column axes."""
    if joint.is_conditional:
        raise ValidationError("expected_distortion expects a joint PMF")
    pxy = joint.marginal(d.rows.name, d.cols.name).reorder((d.rows.name, d.cols.name))
    if pxy.axis(d.rows.name).size != d.rows.size or pxy.axis(d.cols.name).size != d.cols.size:
        raise ValidationError("distortion alphabets do not match the joint")
    return float((pxy.values * d.cost).sum())
