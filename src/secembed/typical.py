"""Letter-wise (1 +/- delta) typicality: membership tests, enumeration,
exact counting, uniform sampling from conditional typical sets, and the
closed-form size/distortion bounds used by the simulator's audits.

Boundary handling: all membership comparisons reduce integer letter counts
against exact rational bounds ceil((1-d)*p*n) <= c <= floor((1+d)*p*n); ties
count as typical (the defining inequalities are closed).  This avoids any
float-boundary flakiness.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .errors import EmptyTypicalSetError, ResourceCapError, ValidationError
from .tables import Axis, DistTable, conditional_entropy

DEFAULT_ENUMERATION_CAP = 2**24


@dataclass(frozen=True)
class SymbolSequence:
    """A fixed-length word over a named finite alphabet."""

    symbols: tuple[int, ...]
    alphabet: Axis

    def __post_init__(self) -> None:
        for s in self.symbols:
            if not 0 <= s < self.alphabet.size:
                raise ValidationError(
                    f"symbol {s} out of range for alphabet {self.alphabet.name!r}"
                )

    def __len__(self) -> int:
        return len(self.symbols)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.symbols, dtype=np.int64)


# ---------------------------------------------------------------------------
# count boxes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CountBox:
    """Integer per-cell count bounds defining a typical set at blocklength n."""

    lo: np.ndarray
    hi: np.ndarray
    n: int

    def contains(self, counts: np.ndarray) -> bool | np.ndarray:
        """Whether the cell counts lie in the box; of each row of a (rows,
        cells) stack, as a boolean array."""
        c = np.asarray(counts)
        inside = ((c >= self.lo) & (c <= self.hi)).all(axis=-1)
        return bool(inside) if inside.ndim == 0 else inside


def count_box(probs: np.ndarray, n: int, delta: float) -> CountBox:
    """Exact integer bounds ceil((1-d) p n) .. floor((1+d) p n) per cell."""
    if not 0.0 < delta < 1.0:
        raise ValidationError("delta must lie in (0, 1)")
    one_minus = Fraction(1) - Fraction(delta)
    one_plus = Fraction(1) + Fraction(delta)
    p = np.asarray(probs, dtype=np.float64).ravel()
    lo = np.empty(p.size, dtype=np.int64)
    hi = np.empty(p.size, dtype=np.int64)
    for i, pi in enumerate(p):
        q = Fraction(float(pi)) * n
        lo[i] = math.ceil(one_minus * q)
        hi[i] = math.floor(one_plus * q)
    return CountBox(lo, hi, n)


def _counts(seq: np.ndarray, size: int) -> np.ndarray:
    return np.bincount(np.asarray(seq, dtype=np.int64), minlength=size)


def is_delta_typical(seq: SymbolSequence, p: DistTable, delta: float) -> bool:
    """Membership in the delta-typical set of p (letters with p=0 require
    count 0, since their bounds collapse to [0, 0])."""
    if p.is_conditional or len(p.axes) != 1:
        raise ValidationError("p must be a joint PMF over a single axis")
    if p.axes[0].size != seq.alphabet.size:
        raise ValidationError("alphabet mismatch between sequence and PMF")
    box = count_box(p.values, len(seq), delta)
    return box.contains(_counts(seq.as_array(), seq.alphabet.size))


def conditional_count_box(counts_a: np.ndarray, k_matrix: np.ndarray, delta: float) -> CountBox:
    """Pair-count bounds ceil((1-d) N(a) K(b|a)) .. floor((1+d) N(a) K(b|a)):
    row a is ``count_box`` of channel row a at blocklength N(a)."""
    rows = [count_box(k_matrix[a], int(counts_a[a]), delta) for a in range(k_matrix.shape[0])]
    lo = np.concatenate([r.lo for r in rows])
    hi = np.concatenate([r.hi for r in rows])
    return CountBox(lo, hi, int(np.sum(counts_a)))


def _flatten_conditional(k_ba: DistTable) -> tuple[np.ndarray, int, int]:
    given_order = tuple(n for n in k_ba.names if n in k_ba.given)
    target_order = k_ba.target_names
    m = k_ba.conditional_matrix(given_order, target_order)
    return m, m.shape[0], m.shape[1]


def is_jointly_delta_typical(
    seq_a: SymbolSequence,
    seq_b: SymbolSequence,
    p_a: DistTable,
    k_ba: DistTable,
    delta: float,
) -> bool:
    """Joint conditional typicality of seq_b with seq_a under channel K(b|a):
    per pair, (1-d) Pemp(a) K(b|a) <= Pemp(a,b) <= (1+d) Pemp(a) K(b|a), with
    the membership context seq_a in the delta-typical set of p_a.

    For multi-axis conditioning, pass seq_a as the product word over the
    channel's conditioning axes, in their order, row-major.
    """
    if len(seq_a) != len(seq_b):
        raise ValidationError("sequences must have equal length")
    k_mat, a_size, b_size = _flatten_conditional(k_ba)
    if seq_a.alphabet.size != a_size or seq_b.alphabet.size != b_size:
        raise ValidationError("alphabet mismatch with the channel table")
    if not is_delta_typical(seq_a, p_a, delta):
        return False
    ca = _counts(seq_a.as_array(), a_size)
    box = conditional_count_box(ca, k_mat, delta)
    pair = seq_a.as_array() * b_size + seq_b.as_array()
    return box.contains(_counts(pair, a_size * b_size))


# ---------------------------------------------------------------------------
# enumeration and exact counting
# ---------------------------------------------------------------------------


def _compositions(total: int, lo: Sequence[int], hi: Sequence[int]) -> Iterator[tuple[int, ...]]:
    m = len(lo)

    def rec(i: int, rem: int, acc: list[int]) -> Iterator[tuple[int, ...]]:
        if i == m - 1:
            if lo[i] <= rem <= hi[i]:
                yield tuple(acc + [rem])
            return
        tail_lo = sum(lo[i + 1 :])
        tail_hi = sum(hi[i + 1 :])
        for c in range(max(lo[i], rem - tail_hi), min(hi[i], rem - tail_lo) + 1):
            yield from rec(i + 1, rem - c, acc + [c])

    yield from rec(0, total, [])


def _multinomial(n: int, counts: Sequence[int]) -> int:
    out = 1
    rem = n
    for c in counts:
        out *= math.comb(rem, c)
        rem -= c
    return out


def _arrangements(comps: Sequence[Sequence[int]], n: int, dtype=np.int64) -> np.ndarray:
    """Every word of n letters spelling each composition of ``comps`` (count
    vectors of total n), as a (words, n) array of ``dtype``: the
    compositions in order, each one's words in lexicographic order.  Built
    one position at a time as arrays: every prefix goes on with each
    letter it has left, in letter order (the (row, letter) pairs of
    ``np.nonzero``), and that letter's count drops."""
    if not len(comps):
        return np.empty((0, n), dtype=dtype)
    left = np.array(comps, dtype=np.int64)
    words = np.empty((len(left), n), dtype=dtype)
    for pos in range(n):
        rows, letters = np.nonzero(left)
        words, left = words[rows], left[rows]
        words[:, pos] = letters
        left[np.arange(len(rows)), letters] -= 1
    return words


def enumerate_typical(p: DistTable, n: int, delta: float) -> np.ndarray:
    """All members of the delta-typical set, as a (words, n) int64 array in
    lexicographic order: the arrangements of each composition in the count
    box.

    Guarded by |alphabet|^n <= DEFAULT_ENUMERATION_CAP; the work scales with
    the typical set, not the full space.
    """
    if p.is_conditional or len(p.axes) != 1:
        raise ValidationError("p must be a joint PMF over a single axis")
    m = p.axes[0].size
    if m**n > DEFAULT_ENUMERATION_CAP:
        raise ResourceCapError(f"|A|^n = {m}**{n} exceeds enumeration cap {DEFAULT_ENUMERATION_CAP}")
    box = count_box(p.values, n, delta)
    comps = _compositions(n, box.lo.tolist(), box.hi.tolist())
    words = _arrangements(list(comps), n)
    return words[np.lexsort(words.T[::-1])]


def count_typical(p: DistTable | np.ndarray, n: int, delta: float) -> int:
    """Exact size of the typical set: the arrangements of each composition
    in the count box."""
    probs = p.values if isinstance(p, DistTable) else np.asarray(p)
    box = count_box(probs.ravel(), n, delta)
    return sum(_multinomial(n, c) for c in _compositions(n, box.lo.tolist(), box.hi.tolist()))


def typical_set_log2_probability(p: DistTable | np.ndarray, n: int, delta: float) -> float:
    """log2 Pr{ A^n typical } for A^n i.i.d. from p, computed exactly (up to
    float rounding) by a box-constrained DP over the letters in the log
    domain."""
    probs = (p.values if isinstance(p, DistTable) else np.asarray(p)).ravel()
    box = count_box(probs, n, delta)
    m = probs.size
    neg_inf = -np.inf
    f = np.full(n + 1, neg_inf)
    f[0] = 0.0
    for i in range(m):
        lo_i, hi_i = int(box.lo[i]), int(box.hi[i])
        nxt = np.full(n + 1, neg_inf)
        logp = math.log(probs[i]) if probs[i] > 0 else neg_inf
        for c in range(lo_i, hi_i + 1):
            if c > n:
                break
            if probs[i] == 0.0 and c > 0:
                continue
            w = c * logp - math.lgamma(c + 1) if c > 0 else 0.0
            shifted = np.full(n + 1, neg_inf)
            shifted[c:] = f[: n + 1 - c] + w
            nxt = np.logaddexp(nxt, shifted)
        f = nxt
    total = f[n] + math.lgamma(n + 1)
    return float(total / math.log(2))


def typical_set_probability(p: DistTable | np.ndarray, n: int, delta: float) -> float:
    return float(2.0 ** typical_set_log2_probability(p, n, delta))


# ---------------------------------------------------------------------------
# uniform sampling from conditional typical sets
# ---------------------------------------------------------------------------


def letter_dtype(size: int) -> np.dtype:
    """The narrowest unsigned dtype that holds the letters 0 .. size-1
    (uint8 up to 256 letters).  The simulator's auxiliary and stegotext
    books keep their letters in it; a word handed back to a caller stays
    int64."""
    return np.min_scalar_type(size - 1)


def _randrange(rng: np.random.Generator, n: int) -> int:
    """Uniform integer in [0, n) including arbitrary-precision n."""
    if n <= 1:
        return 0
    if n <= 1 << 62:
        return int(rng.integers(0, n))
    bits = n.bit_length()
    nbytes = (bits + 7) // 8
    while True:
        r = int.from_bytes(rng.bytes(nbytes), "big") & ((1 << bits) - 1)
        if r < n:
            return r


@dataclass(frozen=True)
class _LetterTable:
    """The admissible b-count vectors of one conditioning letter: each
    composition and the running sum of their arrangement counts.  Up to
    ``_LETTER_WORDS_BYTES``, ``words`` holds every word of the letter's
    conditional set once, in rank order (the compositions in box order,
    each one's words in lexicographic order, as ``enumerate`` lists them),
    in ``letter_dtype``, and a draw is one uniform rank.  Past it, ``words``
    is None and ``spelled`` holds the letter word each composition spells
    before it is permuted, one row per composition, with the running sums
    also as an int64 array up to a total of 2^62 (else None), which
    ``sample_rows`` searches with no conversion."""

    comps: tuple[tuple[int, ...], ...]
    cum: tuple[int, ...]
    words: np.ndarray | None
    spelled: np.ndarray | None
    cum_int64: np.ndarray | None

    @property
    def total(self) -> int:
        return self.cum[-1]


# one entry per (letter count, channel row, delta): a codebook build touches
# a few dozen, and every word it samples reuses them
_LETTER_TABLES_MAXSIZE = 256
# bytes of the largest letter set kept as its words: the benchmark's largest
# set, 3,938 words of 12 letters, takes 47 KB, while at n=30 a letter of the
# demo system's key types admits up to 136,136 words of 18 letters, 2.4 MB
_LETTER_WORDS_BYTES = 1 << 18


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False  # shared by every sampler with this letter
    return a


@functools.lru_cache(maxsize=_LETTER_TABLES_MAXSIZE)
def _letter_table(count: int, row: tuple[float, ...], delta: float) -> _LetterTable:
    box = conditional_count_box(np.array([count]), np.array([row]), delta)
    comps = tuple(_compositions(count, box.lo.tolist(), box.hi.tolist()))
    cum = tuple(itertools.accumulate(_multinomial(count, c) for c in comps))
    dtype = letter_dtype(len(row))
    if cum and cum[-1] * count * dtype.itemsize <= _LETTER_WORDS_BYTES:
        return _LetterTable(comps, cum, _read_only(_arrangements(comps, count, dtype)), None, None)
    letters = np.arange(len(row))
    spelled = np.array([np.repeat(letters, c) for c in comps], dtype=dtype).reshape(len(comps), count)
    cum_int64 = _read_only(np.array(cum, dtype=np.int64)) if cum and cum[-1] <= 1 << 62 else None
    return _LetterTable(comps, cum, None, _read_only(spelled), cum_int64)


class ConditionalTypicalSampler:
    """Uniform sampler over T^delta(b | a-word) for a fixed conditioning word.

    The set factorizes over the conditioning letters: for each letter a with
    N(a) occurrences, the admissible b-count vectors form a box-constrained
    composition family, and arrangements within the a-positions are free.
    A letter whose set is small enough is tabulated, every word once in rank
    order, and draws a uniform rank into it; a larger one draws a
    composition (weighted by its multinomial arrangement count) and then a
    uniformly random arrangement.  Either way each letter's word, and so the
    whole word, is exactly uniform over its set.  A letter's table depends
    only on its count, its channel row and delta, so samplers share it
    through a bounded cache.
    """

    def __init__(self, seq_a: np.ndarray, a_size: int, k_matrix: np.ndarray, delta: float):
        self.seq_a = np.asarray(seq_a, dtype=np.int64)
        self.a_size = a_size
        self.b_size = k_matrix.shape[1]
        self.delta = delta
        counts_a = _counts(self.seq_a, a_size)
        self.positions = [np.flatnonzero(self.seq_a == a) for a in range(a_size)]
        self._tables: list[_LetterTable | None] = []
        for a in range(a_size):
            na = int(counts_a[a])
            if na == 0:
                self._tables.append(None)
                continue
            table = _letter_table(na, tuple(float(p) for p in k_matrix[a]), float(delta))
            if not table.comps:
                raise EmptyTypicalSetError(
                    f"conditional typical set empty: letter {a} admits no count vector"
                )
            self._tables.append(table)

    @property
    def set_size(self) -> int:
        size = 1
        for table in self._tables:
            if table is not None:
                size *= table.total
        return size

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """One uniform word of the set, as int64: a one-row batch."""
        return self.sample_rows(rng, 1)[0].astype(np.int64)

    def sample_rows(self, rng: np.random.Generator, rows: int) -> np.ndarray:
        """``rows`` uniform words of the set, as a (rows, n) array of
        ``letter_dtype(b_size)``.

        Per conditioning letter, in letter order: a tabulated letter makes
        one ``integers(0, total, size=rows)`` draw of ranks and gathers
        their words, and a one-word set makes no draw.  A letter past the
        table cap makes one ``integers`` draw that picks every row's
        composition (from arbitrary-precision bytes, row by row, when its
        total passes 2^62: ``_randrange``) and one ``permuted`` call that
        arranges every row's letter word.  ``sample`` is the one-row batch.
        A letter draws all rows at once, so more rows are not the words of
        successive ``sample`` calls."""
        out = np.empty((rows, len(self.seq_a)), dtype=letter_dtype(self.b_size))
        for pos, table in zip(self.positions, self._tables):
            if table is None:
                continue
            if table.words is not None:
                out[:, pos] = table.words[rng.integers(0, table.total, size=rows) if table.total > 1 else 0]
                continue
            if table.total > 1 << 62:  # the arbitrary-precision path, row by row
                idx = [bisect.bisect_right(table.cum, _randrange(rng, table.total)) for _ in range(rows)]
            else:
                idx = table.cum_int64.searchsorted(rng.integers(0, table.total, size=rows), side="right")
            out[:, pos] = rng.permuted(table.spelled[idx], axis=1)
        return out

    def contains(self, seq_b: np.ndarray) -> bool:
        seq_b = np.asarray(seq_b, dtype=np.int64)
        for pos, table in zip(self.positions, self._tables):
            if table is None:
                continue
            c = tuple(_counts(seq_b[pos], self.b_size))
            if c not in table.comps:
                return False
        return True

    def enumerate(self) -> list[np.ndarray]:
        if self.set_size > DEFAULT_ENUMERATION_CAP:
            raise ResourceCapError(
                f"conditional typical set size {self.set_size} exceeds {DEFAULT_ENUMERATION_CAP}"
            )
        partial = [np.zeros(len(self.seq_a), dtype=np.int64)]
        for pos, table in zip(self.positions, self._tables):
            if table is None:
                continue
            arrangements = _arrangements(table.comps, len(pos))
            nxt = []
            for base in partial:
                for arr in arrangements:
                    w = base.copy()
                    w[pos] = arr
                    nxt.append(w)
            partial = nxt
        return partial


# ---------------------------------------------------------------------------
# closed-form bounds and the delta/epsilon bookkeeping
# ---------------------------------------------------------------------------


def typicality_size_bounds(h_bits: float, n: int, delta: float) -> tuple[float, float]:
    """Closed-form typical-set size bounds
    2^{n[(1-d)H - d]} <= |T| <= 2^{n(1+d)H} (valid for n large enough; at
    tiny n callers should report rather than assert)."""
    if h_bits < 0:
        raise ValidationError("entropy must be >= 0")
    lower = 2.0 ** (n * ((1.0 - delta) * h_bits - delta))
    upper = 2.0 ** (n * (1.0 + delta) * h_bits)
    return lower, upper


def typical_distortion_bound(delta: float, expected_d: float) -> float:
    """Per-symbol distortion certificate (1+d)^2 E d(A,B) for jointly typical
    pairs."""
    if expected_d < 0:
        raise ValidationError("expected distortion must be >= 0")
    return (1.0 + delta) ** 2 * expected_d


def epsilon_schedule(joint: DistTable, delta: float) -> tuple[float, float, float]:
    """The three slack terms tied to delta on a composed (K,X,V,Y,Z) joint:

    eps1 = d [1 + H(V|K) + H(V|K,X)]
    eps2 = d [1 + H(Y|K,V) + H(Y|K,X,V)]
    eps3 = d [1 + H(V|K) + H(V|Z,K)]
    """
    k, x, v, y, z = joint.names
    h_v_k = conditional_entropy(joint, (v,), (k,))
    eps1 = delta * (1.0 + h_v_k + conditional_entropy(joint, (v,), (k, x)))
    eps2 = delta * (
        1.0
        + conditional_entropy(joint, (y,), (k, v))
        + conditional_entropy(joint, (y,), (k, x, v))
    )
    eps3 = delta * (1.0 + h_v_k + conditional_entropy(joint, (v,), (z, k)))
    return eps1, eps2, eps3


def epsilon_from_delta(delta: float, n: int) -> float:
    """Smallest epsilon consistent with delta at blocklength n under the
    schedule 2d + max{2 exp(-2^{nd}) + 2^{-nd}, d^2} <= eps."""
    tail = 2.0 * math.exp(-(2.0 ** (n * delta))) + 2.0 ** (-n * delta)
    return 2.0 * delta + max(tail, delta * delta)
