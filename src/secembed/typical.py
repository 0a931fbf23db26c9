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


@dataclass(frozen=True)
class TypicalityParams:
    delta: float
    n: int

    def __post_init__(self) -> None:
        if not 0.0 < self.delta < 1.0:
            raise ValidationError("delta must lie in (0, 1)")
        if self.n < 1:
            raise ValidationError("blocklength must be >= 1")


def combine_sequences(seqs: Sequence[SymbolSequence], name: str | None = None) -> SymbolSequence:
    """Zip sequences into one word over the row-major product alphabet."""
    if not seqs:
        raise ValidationError("need at least one sequence")
    n = len(seqs[0])
    if any(len(s) != n for s in seqs):
        raise ValidationError("sequences must have equal length")
    idx = np.zeros(n, dtype=np.int64)
    size = 1
    for s in seqs:
        idx = idx * s.alphabet.size + s.as_array()
        size *= s.alphabet.size
    name = name or "*".join(s.alphabet.name for s in seqs)
    return SymbolSequence(tuple(int(i) for i in idx), Axis(name, size))


# ---------------------------------------------------------------------------
# count boxes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CountBox:
    """Integer per-cell count bounds defining a typical set at blocklength n."""

    lo: np.ndarray
    hi: np.ndarray
    n: int

    def contains(self, counts: np.ndarray) -> bool:
        c = np.asarray(counts)
        return bool(np.all(c >= self.lo) and np.all(c <= self.hi))


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


def empirical_pmf(seq: SymbolSequence) -> DistTable:
    """Relative letter frequencies (exact rationals, emitted as floats)."""
    if len(seq) == 0:
        raise ValidationError("empty sequence has no empirical PMF")
    c = _counts(seq.as_array(), seq.alphabet.size)
    n = len(seq)
    vals = np.array([float(Fraction(int(ci), n)) for ci in c])
    return DistTable((seq.alphabet,), vals)


def is_delta_typical(seq: SymbolSequence, p: DistTable, delta: float) -> bool:
    """Membership in the delta-typical set of p (letters with p=0 require
    count 0, since their bounds collapse to [0, 0])."""
    if p.is_conditional or len(p.axes) != 1:
        raise ValidationError("p must be a joint PMF over a single axis")
    if p.axes[0].size != seq.alphabet.size:
        raise ValidationError("alphabet mismatch between sequence and PMF")
    box = count_box(p.values, len(seq), delta)
    return box.contains(_counts(seq.as_array(), seq.alphabet.size))


def is_tuple_typical(seqs: Sequence[SymbolSequence], joint: DistTable, delta: float) -> bool:
    """Vector-valued typicality: the tuple word (a_t, b_t, ...) is tested
    letter-wise against the joint PMF over the product alphabet.  The order
    of ``seqs`` must match the axis order of ``joint``."""
    if joint.is_conditional:
        raise ValidationError("joint must be an unconditional PMF")
    if len(seqs) != len(joint.axes):
        raise ValidationError("one sequence per joint axis required")
    for s, a in zip(seqs, joint.axes):
        if s.alphabet.size != a.size:
            raise ValidationError(f"alphabet mismatch on axis {a.name!r}")
    combined = combine_sequences(seqs)
    box = count_box(joint.values.ravel(), len(combined), delta)
    return box.contains(_counts(combined.as_array(), combined.alphabet.size))


def conditional_count_box(counts_a: np.ndarray, k_matrix: np.ndarray, delta: float) -> CountBox:
    """Pair-count bounds ceil((1-d) N(a) K(b|a)) .. floor((1+d) N(a) K(b|a))."""
    if not 0.0 < delta < 1.0:
        raise ValidationError("delta must lie in (0, 1)")
    one_minus = Fraction(1) - Fraction(delta)
    one_plus = Fraction(1) + Fraction(delta)
    a_size, b_size = k_matrix.shape
    lo = np.empty((a_size, b_size), dtype=np.int64)
    hi = np.empty((a_size, b_size), dtype=np.int64)
    for a in range(a_size):
        na = int(counts_a[a])
        for b in range(b_size):
            q = Fraction(float(k_matrix[a, b])) * na
            lo[a, b] = math.ceil(one_minus * q)
            hi[a, b] = math.floor(one_plus * q)
    return CountBox(lo.ravel(), hi.ravel(), int(np.sum(counts_a)))


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

    For multi-axis conditioning, pass seq_a as a combined product word (see
    combine_sequences) ordered like the channel's conditioning axes.
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


def enumerate_typical(
    p: DistTable,
    n: int,
    delta: float,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> list[SymbolSequence]:
    """All members of the delta-typical set, in lexicographic order.

    Guarded by |alphabet|^n <= cap; generation prunes by count feasibility so
    the actual work scales with the typical set, not the full space.
    """
    if p.is_conditional or len(p.axes) != 1:
        raise ValidationError("p must be a joint PMF over a single axis")
    m = p.axes[0].size
    if m**n > cap:
        raise ResourceCapError(f"|A|^n = {m}**{n} exceeds enumeration cap {cap}")
    box = count_box(p.values, n, delta)
    lo, hi = box.lo, box.hi
    out: list[SymbolSequence] = []
    word = [0] * n
    counts = [0] * m

    def rec(t: int) -> None:
        if t == n:
            out.append(SymbolSequence(tuple(word), p.axes[0]))
            return
        rem = n - t
        for s in range(m):
            if counts[s] >= hi[s]:
                continue
            counts[s] += 1
            deficit = sum(max(int(lo[j]) - counts[j], 0) for j in range(m))
            headroom = sum(int(hi[j]) - counts[j] for j in range(m))
            if deficit <= rem - 1 <= headroom:
                word[t] = s
                rec(t + 1)
            counts[s] -= 1

    if hi.sum() >= n and lo.sum() <= n:
        rec(0)
    return out


def count_typical(p: DistTable | np.ndarray, n: int, delta: float) -> int:
    """Exact size of the typical set via a box-constrained multinomial DP."""
    probs = p.values if isinstance(p, DistTable) else np.asarray(p)
    box = count_box(probs.ravel(), n, delta)
    m = probs.size
    # ways[s] = number of length-s words over the first k letters respecting
    # each letter's count box
    ways = [0] * (n + 1)
    ways[0] = 1
    for i in range(m):
        lo_i, hi_i = int(box.lo[i]), int(box.hi[i])
        nxt = [0] * (n + 1)
        for s in range(n + 1):
            w = ways[s]
            if w == 0:
                continue
            for c in range(lo_i, min(hi_i, n - s) + 1):
                nxt[s + c] += w * math.comb(s + c, c)
        ways = nxt
    return ways[n]


def typical_set_log2_probability(p: DistTable | np.ndarray, n: int, delta: float) -> float:
    """log2 Pr{ A^n typical } for A^n i.i.d. from p, computed exactly (up to
    float rounding) by the same box-constrained DP in the log domain."""
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


@dataclass(frozen=True)
class _LetterTable:
    """The admissible b-count vectors of one conditioning letter: each
    composition, the running sum of their arrangement counts, and the letter
    word each composition spells before it is permuted."""

    comps: tuple[tuple[int, ...], ...]
    cum: tuple[int, ...]
    words: tuple[np.ndarray, ...]

    @property
    def total(self) -> int:
        return self.cum[-1]


# one entry per (letter count, channel row, delta): a codebook build touches
# a few dozen, and every word it samples reuses them
_LETTER_TABLES_MAXSIZE = 256


@functools.lru_cache(maxsize=_LETTER_TABLES_MAXSIZE)
def _letter_table(count: int, row: tuple[float, ...], delta: float) -> _LetterTable:
    box = conditional_count_box(np.array([count]), np.array([row]), delta)
    comps = tuple(_compositions(count, box.lo.tolist(), box.hi.tolist()))
    cum = tuple(itertools.accumulate(_multinomial(count, c) for c in comps))
    letters = np.arange(len(row))
    words = tuple(np.repeat(letters, c) for c in comps)
    for w in words:
        w.flags.writeable = False  # shared by every sampler with this letter
    return _LetterTable(comps, cum, words)


class ConditionalTypicalSampler:
    """Uniform sampler over T^delta(b | a-word) for a fixed conditioning word.

    The set factorizes over the conditioning letters: for each letter a with
    N(a) occurrences, the admissible b-count vectors form a box-constrained
    composition family, and arrangements within the a-positions are free.
    Sampling therefore draws one composition per letter (weighted by its
    multinomial arrangement count) and then a uniformly random arrangement,
    which is exactly uniform over the whole set.  A letter's compositions
    depend only on its count, its channel row and delta, so samplers share
    them through a bounded cache.
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
        out = np.zeros(len(self.seq_a), dtype=np.int64)
        for pos, table in zip(self.positions, self._tables):
            if table is None:
                continue
            r = _randrange(rng, table.total)
            out[pos] = rng.permutation(table.words[bisect.bisect_right(table.cum, r)])
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

    def enumerate(self, cap: int = DEFAULT_ENUMERATION_CAP) -> list[np.ndarray]:
        if self.set_size > cap:
            raise ResourceCapError(f"conditional typical set size {self.set_size} exceeds {cap}")
        partial = [np.zeros(len(self.seq_a), dtype=np.int64)]
        for pos, table in zip(self.positions, self._tables):
            if table is None:
                continue
            arrangements: list[np.ndarray] = []
            for comp in table.comps:
                arrangements.extend(_multiset_perms(comp))
            nxt = []
            for base in partial:
                for arr in arrangements:
                    w = base.copy()
                    w[pos] = arr
                    nxt.append(w)
            partial = nxt
        return partial


def _multinomial(n: int, counts: Sequence[int]) -> int:
    out = 1
    rem = n
    for c in counts:
        out *= math.comb(rem, c)
        rem -= c
    return out


def _multiset_perms(counts: Sequence[int]) -> Iterator[np.ndarray]:
    m = len(counts)
    n = sum(counts)
    word = np.zeros(n, dtype=np.int64)
    c = list(counts)

    def rec(t: int) -> Iterator[np.ndarray]:
        if t == n:
            yield word.copy()
            return
        for s in range(m):
            if c[s] > 0:
                c[s] -= 1
                word[t] = s
                yield from rec(t + 1)
                c[s] += 1

    yield from rec(0)


def sample_uniform_conditional_typical(
    seq_a: SymbolSequence,
    k_ba: DistTable,
    delta: float,
    rng: np.random.Generator,
) -> SymbolSequence:
    """One uniform draw from T^delta(b | seq_a) under channel k_ba.

    Raises EmptyTypicalSetError when the set is empty (callers treat this as
    an encoding failure at the current blocklength)."""
    k_mat, a_size, b_size = _flatten_conditional(k_ba)
    if seq_a.alphabet.size != a_size:
        raise ValidationError("conditioning alphabet mismatch")
    sampler = ConditionalTypicalSampler(seq_a.as_array(), a_size, k_mat, delta)
    target_names = k_ba.target_names
    axis = k_ba.axis(target_names[0]) if len(target_names) == 1 else Axis("*".join(target_names), b_size)
    return SymbolSequence(tuple(int(s) for s in sampler.sample(rng)), axis)


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
