"""Small-blocklength simulation of the layered random-coding construction:
rate-distortion coding of the message, random binning of the key into a
one-time pad, per-key auxiliary bins, stegotext sub-codebooks, a memoryless
attack, and the joint-typicality unique-bin decoder, together with the
counting audits the achievability analysis makes checkable.

Codebooks are stored for one representative key per type class; every other
typical key's codebook is the permutation image of its representative, so
encode/decode permute the query into the representative frame instead of
materializing permuted books.  All randomness derives from one integer seed
through tagged SeedSequence children, which makes every run bit-exactly
reproducible.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    EmptyTypicalSetError,
    InfeasibleError,
    ResourceCapError,
    ValidationError,
)
from .rd import RdCodebook, RdSolution, blahut_arimoto, build_rd_codebook, rd_decode, rd_encode
from .region import AuxChannel, SystemSpec, compose_system, system_quantities
from .tables import DistTable
from .typical import (
    ConditionalTypicalSampler,
    CountBox,
    _multiset_perms,
    count_box,
    epsilon_schedule,
    typical_distortion_bound,
    typical_set_probability,
)

_AUX_TAG, _STEGO_TAG, _SW_TAG, _TRIAL_TAG, _BUILD_TAG = 1, 2, 3, 4, 5

DEFAULT_AUX_ROWS_CAP = 1 << 18
DEFAULT_ENUM_CAP = 1 << 26
DEFAULT_STEGO_AUDIT_CAP = 1 << 22
DEFAULT_KEY_ENUM_CAP = 1 << 20
# stegotext words the compression audit moves to key positions at once
_AUDIT_CHUNK_ROWS = 1 << 16


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimSizes:
    """Realized codebook dimensions plus the asymptotic rate schedule they
    were derived from.  Overridden sizes keep the schedule targets visible in
    ``schedule`` so rate accounting downstream stays honest."""

    l_bits: int
    m2_bits: int
    m3_bits: int
    j_bits: int
    schedule: dict[str, float]

    @property
    def bins(self) -> int:
        return 1 << self.l_bits

    @property
    def m2(self) -> int:
        return 1 << self.m2_bits

    @property
    def m3(self) -> int:
        return 1 << self.m3_bits


@dataclass(frozen=True)
class KeyType:
    counts: tuple[int, ...]
    representative: np.ndarray


class CodebookSet:
    """Materialized random codes for one (spec, aux, n, delta, seed) tuple."""

    def __init__(
        self,
        spec: SystemSpec,
        aux: AuxChannel,
        n: int,
        delta: float,
        seed: int,
        sizes: SimSizes,
        rd_codebook: RdCodebook,
        rd_solution: RdSolution,
        joint: DistTable,
        quantities: dict[str, float],
        key_types: list[KeyType],
    ):
        self.spec = spec
        self.aux = aux
        self.n = n
        self.n_message = rd_codebook.n_symbols
        self.delta = delta
        self.seed = seed
        self.sizes = sizes
        self.rd_codebook = rd_codebook
        self.rd_solution = rd_solution
        self.joint = joint
        self.quantities = quantities
        self.key_types = key_types
        self._type_index = {t.counts: i for i, t in enumerate(key_types)}

        k, x, v, y, z = joint.names
        self.k_size = spec.k_axis.size
        self.x_size = spec.x_axis.size
        self.v_size = aux.v_axis.size
        self.y_size = spec.y_axis.size
        self.z_size = spec.z_axis.size

        self.u_box = count_box(spec.p_u.values, self.n_message, delta)
        self.k_box = count_box(joint.marginal(k).values, n, delta)
        self.kx_box = count_box(joint.marginal(k, x).values.ravel(), n, delta)
        self.kxv_box = count_box(joint.marginal(k, x, v).values.ravel(), n, delta)
        self.kxvy_box = count_box(joint.marginal(k, x, v, y).values.ravel(), n, delta)
        self.kvz_box = count_box(joint.marginal(k, v, z).values.ravel(), n, delta)

        # the search and decode tests as (context, value) boxes, the value
        # being the letter of the book row under test
        ks, xs, vs, ys, zs = self.k_size, self.x_size, self.v_size, self.y_size, self.z_size
        self.kxv_cells = _cell_bounds(self.kxv_box, (ks, xs, vs), 2)
        self.kxvy_cells = _cell_bounds(self.kxvy_box, (ks, xs, vs, ys), 3)
        self.kzv_cells = _cell_bounds(self.kvz_box, (ks, vs, zs), 1)

        kv = joint.marginal(k, v).values
        pk = kv.sum(axis=1)
        self._p_v_given_k = np.where(pk[:, None] > 0, kv / np.where(pk[:, None] > 0, pk[:, None], 1.0), 1.0 / self.v_size)
        kvy = joint.marginal(k, v, y).values
        pkv = kvy.sum(axis=2)
        self._p_y_given_kv = np.where(
            pkv[:, :, None] > 0, kvy / np.where(pkv[:, :, None] > 0, pkv[:, :, None], 1.0), 1.0 / self.y_size
        ).reshape(self.k_size * self.v_size, self.y_size)

        self._aux_books: dict[int, np.ndarray] = {}
        self._stego_books: dict[tuple[int, bytes], np.ndarray] = {}
        self._sw_bits: dict[bytes, np.ndarray] = {}

    # -- key machinery -----------------------------------------------------

    def key_type_and_order(self, k_arr: np.ndarray) -> tuple[int, np.ndarray] | None:
        """Type index plus the position map onto the representative frame, or
        None when the key is atypical.

        ``order`` is the lexicographically minimal position permutation from
        the representative to this key: slot i of the representative
        corresponds to position order[i] of the key (stable per-letter
        matching)."""
        counts = tuple(int(c) for c in np.bincount(k_arr, minlength=self.k_size))
        idx = self._type_index.get(counts)
        if idx is None:
            return None
        order = np.argsort(k_arr, kind="stable")
        return idx, order

    def aux_book(self, type_idx: int) -> np.ndarray:
        """All M_U * M_2 auxiliary codewords of one representative, grouped by
        bin: row (m-1) * M_2 + (j-1) is codeword j of bin m."""
        book = self._aux_books.get(type_idx)
        if book is None:
            rep = self.key_types[type_idx].representative
            sampler = ConditionalTypicalSampler(rep, self.k_size, self._p_v_given_k, self.delta)
            rng = np.random.default_rng(
                np.random.SeedSequence((self.seed, _AUX_TAG, type_idx))
            )
            rows = self.sizes.bins * self.sizes.m2
            book = np.empty((rows, self.n), dtype=np.int64)
            for r in range(rows):
                book[r] = sampler.sample(rng)
            self._aux_books[type_idx] = book
        return book

    def stego_book(self, type_idx: int, v_rep: np.ndarray) -> np.ndarray:
        """The M_3 stegotext words attached to one auxiliary word value (the
        books are keyed by the word itself, so bins sharing a word share its
        stegotext book)."""
        key = (type_idx, v_rep.tobytes())
        book = self._stego_books.get(key)
        if book is None:
            rep = self.key_types[type_idx].representative
            combined = rep * self.v_size + v_rep
            sampler = ConditionalTypicalSampler(
                combined, self.k_size * self.v_size, self._p_y_given_kv, self.delta
            )
            rng = np.random.default_rng(
                np.random.SeedSequence((self.seed, _STEGO_TAG, type_idx, *map(int, v_rep)))
            )
            book = np.empty((self.sizes.m3, self.n), dtype=np.int64)
            for r in range(self.sizes.m3):
                book[r] = sampler.sample(rng)
            self._stego_books[key] = book
        return book

    def sw_bits(self, k_arr: np.ndarray) -> np.ndarray:
        """The pre-assigned random bin index of a typical key, as J bits.
        Uniform over bitstrings across the codebook ensemble, deterministic
        per key within one build."""
        key = np.asarray(k_arr, dtype=np.int64).tobytes()
        bits = self._sw_bits.get(key)
        if bits is None:
            rng = np.random.default_rng(
                np.random.SeedSequence((self.seed, _SW_TAG, *map(int, k_arr)))
            )
            bits = rng.integers(0, 2, size=self.sizes.j_bits, dtype=np.uint8)
            self._sw_bits[key] = bits
        return bits

    def describe(self) -> dict:
        """Reproducibility manifest fragment: sizes, schedule, seed."""
        return {
            "n": self.n,
            "n_message": self.n_message,
            "delta": self.delta,
            "seed": self.seed,
            "l_bits": self.sizes.l_bits,
            "m2_bits": self.sizes.m2_bits,
            "m3_bits": self.sizes.m3_bits,
            "j_bits": self.sizes.j_bits,
            "rd_distinct": self.rd_codebook.distinct_count,
            "key_types": len(self.key_types),
            "schedule": dict(self.sizes.schedule),
        }


def _message_length(spec: SystemSpec, n: int) -> int:
    """The message blocklength lambda * n at covertext blocklength n; it must
    be a positive integer."""
    n_message = spec.lam * n
    if abs(n_message - round(n_message)) > 1e-9 or n_message < 1:
        raise ValidationError(f"lambda * n = {n_message} must be a positive integer")
    return int(round(n_message))


def _enumerate_key_types(box: CountBox, n: int, k_size: int) -> list[KeyType]:
    lo = [int(v) for v in box.lo]
    hi = [int(v) for v in box.hi]
    out: list[KeyType] = []

    def rec(i: int, rem: int, acc: list[int]) -> None:
        if i == k_size - 1:
            if lo[i] <= rem <= hi[i]:
                counts = tuple(acc + [rem])
                rep = np.repeat(np.arange(k_size), counts)
                out.append(KeyType(counts, rep))
            return
        tail_lo = sum(lo[i + 1 :])
        tail_hi = sum(hi[i + 1 :])
        for c in range(max(lo[i], rem - tail_hi), min(hi[i], rem - tail_lo) + 1):
            rec(i + 1, rem - c, acc + [c])

    rec(0, n, [])
    return out


def build_codebooks(
    spec: SystemSpec,
    aux: AuxChannel,
    n: int,
    delta: float,
    seed: int,
    d_prime_value: float,
    *,
    m2_bits: int | None = None,
    m3_bits: int | None = None,
    j_bits: int | None = None,
    rd_extra_bits: int = 0,
    eps_cov: float = 0.0,
    aux_rows_cap: int = DEFAULT_AUX_ROWS_CAP,
    rd_solution: RdSolution | None = None,
) -> CodebookSet:
    """Generate all codebooks for one run.

    The asymptotic rate schedule (auxiliary total, per-bin, stegotext, and
    pad widths as functions of delta) is always computed and recorded; the
    realized bit widths default to the schedule's ceilings but accept
    explicit overrides, since the schedule's slack terms demand blocklengths
    far beyond desk scale.  Overrides are logged in the schedule record.
    """
    joint = compose_system(spec, aux)
    q = system_quantities(spec, aux, joint)
    lam = spec.lam
    n_message = _message_length(spec, n)

    sol = rd_solution or blahut_arimoto(spec.p_u, spec.d_prime, d_prime_value)
    r = sol.rate_bits

    slack = q["H(Y|K)"] - lam * r - q["I(X;Y,V|K)"]
    if slack < -1e-9:
        raise InfeasibleError(
            f"counting constraint violated: lambda R + I(X;Y,V|K) exceeds H(Y|K) by {-slack:.4f} bits"
        )

    eps1, eps2, eps3 = epsilon_schedule(joint, delta)
    i_xv_k = q["I(V;X|K)"]
    i_xy_vk = q["I(X;Y,V|K)"] - q["I(V;X|K)"]
    r1_target = q["I(V;Z|K)"] - eps3 - delta
    r2_target = i_xv_k + eps1 + delta
    r3_target = i_xy_vk + eps2 + delta
    j_target = q["H(K|Y)"] + delta
    c_slack = (q["I(V;Z|K)"] - q["I(V;X|K)"]) - lam * r
    if c_slack <= 0:
        warnings.warn(
            f"embedding condition is not strict (slack {c_slack:.4f} bits); the "
            "bin arithmetic has no asymptotic headroom at this point",
            RuntimeWarning,
            stacklevel=2,
        )

    rng_rd = np.random.default_rng(np.random.SeedSequence((seed, _BUILD_TAG)))
    rd_book = build_rd_codebook(
        spec.p_u,
        spec.d_prime,
        d_prime_value,
        n_message,
        delta,
        rng_rd,
        eps_cov=eps_cov,
        extra_index_bits=rd_extra_bits,
        solution=sol,
    )
    l_bits = rd_book.index_bits

    m2_real = m2_bits if m2_bits is not None else max(0, math.ceil(n * r2_target - 1e-12))
    m3_real = m3_bits if m3_bits is not None else max(0, math.ceil(n * r3_target - 1e-12))
    j_real = j_bits if j_bits is not None else max(0, math.ceil(n * j_target - 1e-12))

    if l_bits + m2_real > int(math.log2(aux_rows_cap)):
        raise ResourceCapError(
            f"auxiliary codebook would need 2^{l_bits + m2_real} rows; override "
            "m2_bits (the schedule width is asymptotic) or raise aux_rows_cap"
        )
    if j_real > l_bits:
        raise ValidationError(
            f"pad width J = {j_real} exceeds the message width L = {l_bits}; this "
            "run sits in the surplus-key regime, which the one-pad construction "
            "does not cover (evaluate it with the extended region conditions, or "
            "override j_bits)"
        )

    sizes = SimSizes(
        l_bits=l_bits,
        m2_bits=m2_real,
        m3_bits=m3_real,
        j_bits=j_real,
        schedule={
            "r1_target": r1_target,
            "r2_target": r2_target,
            "r3_target": r3_target,
            "j_target_bits": n * j_target,
            "eps1": eps1,
            "eps2": eps2,
            "eps3": eps3,
            "delta": delta,
            "rate_message": r,
            "embedding_slack": c_slack,
            "r1_realized": (l_bits + m2_real) / n,
            "m2_overridden": float(m2_bits is not None),
            "m3_overridden": float(m3_bits is not None),
            "j_overridden": float(j_bits is not None),
        },
    )

    k_name = joint.names[0]
    key_box = count_box(joint.marginal(k_name).values, n, delta)
    key_types = _enumerate_key_types(key_box, n, spec.k_axis.size)
    if not key_types:
        raise EmptyTypicalSetError(f"no typical key words at n={n}, delta={delta}")

    books = CodebookSet(
        spec, aux, n, delta, seed, sizes, rd_book, sol, joint, q, key_types
    )
    # materialize aux books now so empty conditional sets fail the build
    try:
        for i in range(len(key_types)):
            books.aux_book(i)
    except EmptyTypicalSetError as e:
        raise EmptyTypicalSetError(
            f"auxiliary codeword set empty at n={n}, delta={delta}: {e}; "
            "increase n or delta"
        ) from e
    return books


# ---------------------------------------------------------------------------
# bit plumbing
# ---------------------------------------------------------------------------


def int_to_bits(value: int, width: int) -> np.ndarray:
    """Little-endian bits: bit i carries 2**i."""
    return np.array([(value >> i) & 1 for i in range(width)], dtype=np.uint8)


def bits_to_int(bits: np.ndarray) -> int:
    return int(sum(int(b) << i for i, b in enumerate(bits)))


def encrypt(w_bits: np.ndarray, s_bits: np.ndarray) -> np.ndarray:
    """XOR the first J message bits with the pad; bits J+1..L pass through.
    An involution together with decrypt."""
    w = np.asarray(w_bits, dtype=np.uint8)
    s = np.asarray(s_bits, dtype=np.uint8)
    if s.size > w.size:
        raise ValidationError(
            f"pad of {s.size} bits cannot encrypt a {w.size}-bit message; this is "
            "the surplus-key regime, evaluate it with the extended region conditions"
        )
    out = w.copy()
    out[: s.size] ^= s
    return out


decrypt = encrypt  # modulo-2 addition is its own inverse


def sw_encode(k_seq: np.ndarray, codebooks: CodebookSet) -> np.ndarray:
    """The key's pre-assigned random bin index as a J-bit string."""
    k_arr = np.asarray(k_seq, dtype=np.int64)
    if codebooks.key_type_and_order(k_arr) is None:
        raise ValidationError("key word is atypical; no bin index is assigned")
    return codebooks.sw_bits(k_arr)


# ---------------------------------------------------------------------------
# encode / attack / decode
# ---------------------------------------------------------------------------


def _cell_bounds(box: CountBox, shape: tuple[int, ...], value_axis: int) -> tuple[np.ndarray, np.ndarray]:
    """A count box over the row-major cells of ``shape`` as (context, value)
    tables: the value axis moved last, the other axes flattened row-major
    into the context.  Float32, which holds every count up to 2^24 exactly."""
    lo, hi = (
        np.moveaxis(b.reshape(shape), value_axis, -1).reshape(-1, shape[value_axis]).astype(np.float32)
        for b in (box.lo, box.hi)
    )
    return lo, hi


def _rows_in_box(
    book: np.ndarray, context: np.ndarray, bounds: tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """Boolean mask of the book rows whose (context, value) cell counts lie
    in the box: row r counts cell (c, v) once per position t with
    context[t] == c and book[r, t] == v, and every cell, including those of
    contexts no position has, must lie in lo[c, v] .. hi[c, v].

    The counts of all rows are one GEMM of the positions' context indicator
    with the rows' one-hot value indicators."""
    lo, hi = bounds
    n_ctx, n_val = lo.shape
    rows, n = book.shape
    onehot = (book == np.arange(n_val)[:, None, None]).astype(np.float32).reshape(-1, n)
    place = (np.arange(n_ctx)[:, None] == context).astype(np.float32)
    counts = (place @ onehot.T).reshape(n_ctx, n_val, rows)
    ok = counts >= lo[:, :, None]
    ok &= counts <= hi[:, :, None]
    return np.logical_and.reduce(ok.reshape(-1, rows), axis=0)


@dataclass
class EmbedResult:
    y: np.ndarray
    m: int
    w_bits: np.ndarray
    wt_bits: np.ndarray
    input_ok: bool
    search_ok: bool
    search_event: str | None  # "e2" | "e3" | None
    type_idx: int | None
    order: np.ndarray | None
    v_rep: np.ndarray | None
    j: int | None
    j_prime: int | None


def embed_in_bin(
    codebooks: CodebookSet, m: int, x_arr: np.ndarray, k_arr: np.ndarray
) -> tuple[np.ndarray | None, str | None, dict]:
    """The embedding unit: scan bin m for the first jointly typical auxiliary
    word, then that word's stegotext book for the first jointly typical
    output.  Returns (y or None, failure event, details).  Works entirely in
    the representative frame, so permuting (x, k) permutes y covariantly."""
    ktp = codebooks.key_type_and_order(k_arr)
    if ktp is None:
        return None, "e2", {}
    type_idx, order = ktp
    rep = codebooks.key_types[type_idx].representative
    x_rep = np.asarray(x_arr, dtype=np.int64)[order]

    sizes = codebooks.sizes
    book = codebooks.aux_book(type_idx)
    lo_row = (m - 1) * sizes.m2
    rows = book[lo_row : lo_row + sizes.m2]
    ctx3 = rep * codebooks.x_size + x_rep
    mask = _rows_in_box(rows, ctx3, codebooks.kxv_cells)
    hits = np.flatnonzero(mask)
    if hits.size == 0:
        return None, "e2", {"type_idx": type_idx, "order": order}
    j = int(hits[0])
    v_rep = rows[j]

    stego = codebooks.stego_book(type_idx, v_rep)
    mask_y = _rows_in_box(stego, ctx3 * codebooks.v_size + v_rep, codebooks.kxvy_cells)
    hits_y = np.flatnonzero(mask_y)
    details = {"type_idx": type_idx, "order": order, "v_rep": v_rep, "j": j}
    if hits_y.size == 0:
        return None, "e3", details
    j_prime = int(hits_y[0])
    y_rep = stego[j_prime]
    y = np.empty(codebooks.n, dtype=np.int64)
    y[order] = y_rep
    details["j_prime"] = j_prime
    return y, None, details


def embed_encode(
    u_seq: np.ndarray, x_seq: np.ndarray, k_seq: np.ndarray, codebooks: CodebookSet
) -> EmbedResult:
    """Full encoder: message path (rate-distortion index, pad, bin choice)
    then the embedding search.  Atypical inputs fall back to the all-zero
    message; a failed search transmits the all-zero stegotext word.  Both
    fallbacks are in-protocol and tagged, never exceptions."""
    u_arr = np.asarray(u_seq, dtype=np.int64)
    x_arr = np.asarray(x_seq, dtype=np.int64)
    k_arr = np.asarray(k_seq, dtype=np.int64)
    sizes = codebooks.sizes

    typical_u = codebooks.u_box.contains(np.bincount(u_arr, minlength=codebooks.spec.u_axis.size))
    ktp = codebooks.key_type_and_order(k_arr)
    pair_cells = k_arr * codebooks.x_size + x_arr
    pair_ok = codebooks.kx_box.contains(
        np.bincount(pair_cells, minlength=codebooks.k_size * codebooks.x_size)
    )

    if typical_u and ktp is not None:
        w_int = rd_encode(u_arr, codebooks.rd_codebook)
        w = int_to_bits(w_int, sizes.l_bits)
        s = codebooks.sw_bits(k_arr)[: sizes.j_bits]
        wt = encrypt(w, s)
    else:
        w = np.zeros(sizes.l_bits, dtype=np.uint8)
        wt = w.copy()
    m = bits_to_int(wt) + 1
    input_ok = bool(typical_u and pair_ok)  # pair typicality implies key typicality

    y = None
    search_event: str | None = None
    details: dict = {}
    if ktp is not None and pair_ok:
        y, search_event, details = embed_in_bin(codebooks, m, x_arr, k_arr)
    search_ok = y is not None
    if y is None:
        y = np.zeros(codebooks.n, dtype=np.int64)

    return EmbedResult(
        y=y,
        m=m,
        w_bits=w,
        wt_bits=wt,
        input_ok=input_ok,
        search_ok=search_ok,
        search_event=search_event if (input_ok and not search_ok) else None,
        type_idx=details.get("type_idx"),
        order=details.get("order"),
        v_rep=details.get("v_rep"),
        j=details.get("j"),
        j_prime=details.get("j_prime"),
    )


def attack(y_seq: np.ndarray, spec: SystemSpec, rng: np.random.Generator) -> np.ndarray:
    """Memoryless per-symbol attack sampling."""
    y = np.asarray(y_seq, dtype=np.int64)
    att = spec.p_z_given_y.conditional_matrix((spec.y_axis.name,), (spec.z_axis.name,))
    cum = att.cumsum(axis=1)
    r = rng.random(y.size)
    # a row may sum to just under 1; a draw above its total takes the last symbol
    z = np.minimum((r[:, None] > cum[y]).sum(axis=1), cum.shape[1] - 1)
    return z.astype(np.int64)


@dataclass
class DecodeResult:
    uhat: np.ndarray | None
    event: str  # "ok" | "e4" | "e5"
    bin_index: int | None
    bins_found: tuple[int, ...]


def decode(z_seq: np.ndarray, k_seq: np.ndarray, codebooks: CodebookSet) -> DecodeResult:
    """Joint-typicality unique-bin decoding, then decrypt and map through the
    rate-distortion codebook.  No typical auxiliary word -> e4; words in two
    or more bins -> e5."""
    z_arr = np.asarray(z_seq, dtype=np.int64)
    k_arr = np.asarray(k_seq, dtype=np.int64)
    ktp = codebooks.key_type_and_order(k_arr)
    if ktp is None:
        return DecodeResult(None, "e4", None, ())
    type_idx, order = ktp
    rep = codebooks.key_types[type_idx].representative
    z_rep = z_arr[order]

    book = codebooks.aux_book(type_idx)
    mask = _rows_in_box(book, rep * codebooks.z_size + z_rep, codebooks.kzv_cells)
    hits = np.flatnonzero(mask)
    if hits.size == 0:
        return DecodeResult(None, "e4", None, ())
    bins = tuple(sorted(set(int(h) // codebooks.sizes.m2 + 1 for h in hits)))
    if len(bins) > 1:
        return DecodeResult(None, "e5", None, bins)
    m_hat = bins[0]
    wt = int_to_bits(m_hat - 1, codebooks.sizes.l_bits)
    s = codebooks.sw_bits(k_arr)[: codebooks.sizes.j_bits]
    w = decrypt(wt, s)
    uhat = rd_decode(bits_to_int(w), codebooks.rd_codebook).as_array()
    return DecodeResult(uhat, "ok", m_hat, bins)


# ---------------------------------------------------------------------------
# trials
# ---------------------------------------------------------------------------

EVENTS = ("none", "e1", "e2", "e3", "e4", "e5", "encode_fallback")


@dataclass
class TrialResult:
    error_event: str
    message_correct: bool
    distortion_xy: float
    distortion_uuhat: float
    encode_search_ok: bool
    true_bin: int
    decoded_bin: int | None
    u: np.ndarray
    x: np.ndarray
    k: np.ndarray
    y: np.ndarray
    z: np.ndarray
    uhat: np.ndarray | None


@dataclass
class TrialAggregate:
    trials: int
    event_frequencies: dict[str, float]
    message_error_rate: float
    mean_distortion_xy: float
    mean_distortion_uuhat: float
    distortion_bound: float
    results: list[TrialResult] = field(repr=False, default_factory=list)

    @property
    def e1_total(self) -> float:
        """Atypical-input frequency regardless of fallback outcome."""
        return self.event_frequencies.get("e1", 0.0) + self.event_frequencies.get(
            "encode_fallback", 0.0
        )


def run_trials(
    spec: SystemSpec,
    aux: AuxChannel,
    n: int,
    trials: int,
    delta: float,
    seed: int,
    d_prime_value: float,
    *,
    codebooks: CodebookSet | None = None,
    collect_transcripts: bool = False,
    **build_kwargs,
) -> TrialAggregate:
    """Monte-Carlo end-to-end runs with per-trial derived seeds.

    Every trial gets exactly one label: e1 for atypical inputs whose
    fallback embedding still produced a codebook word, encode_fallback when
    the all-zero word had to be transmitted, e2/e3 for failed searches on
    typical inputs, e4/e5 for decode-side failures, and none otherwise.
    """
    if codebooks is not None and (codebooks.n != n or codebooks.delta != delta):
        raise ValidationError(
            f"codebooks were built for (n={codebooks.n}, delta={codebooks.delta}), "
            f"not (n={n}, delta={delta})"
        )
    books = codebooks or build_codebooks(
        spec, aux, n, delta, seed, d_prime_value, **build_kwargs
    )
    pu = spec.p_u.values
    pxk = spec.p_xk.values.ravel()
    k_size = spec.k_axis.size
    d = spec.d
    dp = spec.d_prime

    counts = {e: 0 for e in EVENTS}
    n_correct = 0
    sum_dxy = 0.0
    n_dxy = 0
    sum_dup = 0.0
    n_dup = 0
    results: list[TrialResult] = []

    for t in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence((seed, _TRIAL_TAG, t)))
        u = rng.choice(pu.size, size=books.n_message, p=pu)
        cells = rng.choice(pxk.size, size=n, p=pxk)
        x, k = cells // k_size, cells % k_size

        enc = embed_encode(u, x, k, books)
        z = attack(enc.y, spec, rng)
        dec = decode(z, k, books)

        if not enc.input_ok:
            event = "e1" if enc.search_ok else "encode_fallback"
        elif enc.search_event is not None:
            event = enc.search_event
        else:
            # decode-side classification against the transmitted word
            order = enc.order
            z_rep = z[order]
            rep = books.key_types[enc.type_idx].representative
            cells_true = (rep * books.v_size + enc.v_rep) * books.z_size + z_rep
            true_ok = books.kvz_box.contains(
                np.bincount(cells_true, minlength=books.k_size * books.v_size * books.z_size)
            )
            if not true_ok:
                event = "e4"
            elif len(dec.bins_found) > 1:
                event = "e5"
            else:
                event = "none"
        counts[event] += 1

        correct = dec.event == "ok" and dec.bin_index == enc.m and event == "none"
        n_correct += int(correct)
        dxy = d.per_sequence(x, enc.y) / n
        if enc.search_ok:
            sum_dxy += dxy
            n_dxy += 1
        dup = math.nan
        if event == "none" and dec.uhat is not None:
            dup = dp.per_sequence(u, dec.uhat) / books.n_message
            sum_dup += dup
            n_dup += 1
        if collect_transcripts:
            results.append(
                TrialResult(
                    error_event=event,
                    message_correct=correct,
                    distortion_xy=dxy,
                    distortion_uuhat=dup,
                    encode_search_ok=enc.search_ok,
                    true_bin=enc.m,
                    decoded_bin=dec.bin_index,
                    u=u,
                    x=x,
                    k=k,
                    y=enc.y,
                    z=z,
                    uhat=dec.uhat,
                )
            )

    freq = {e: (counts[e] / trials if trials else 0.0) for e in EVENTS}
    bound = typical_distortion_bound(delta, books.quantities["Ed(X,Y)"])
    return TrialAggregate(
        trials=trials,
        event_frequencies=freq,
        message_error_rate=(1.0 - n_correct / trials) if trials else 0.0,
        mean_distortion_xy=(sum_dxy / n_dxy) if n_dxy else math.nan,
        mean_distortion_uuhat=(sum_dup / n_dup) if n_dup else math.nan,
        distortion_bound=bound,
        results=results,
    )


# ---------------------------------------------------------------------------
# input-typicality oracle (the e1 probability)
# ---------------------------------------------------------------------------


def input_atypicality_probability(spec: SystemSpec, n: int, delta: float) -> float:
    """Exact Pr{message word or (covertext, key) pair word atypical} under
    the product sources, via box-constrained multinomial tail sums."""
    p_u_typ = typical_set_probability(spec.p_u, _message_length(spec, n), delta)
    kx = spec.p_xk.reorder((spec.k_axis.name, spec.x_axis.name)).values.ravel()
    p_kx_typ = typical_set_probability(kx, n, delta)
    return 1.0 - p_u_typ * p_kx_typ


def input_atypicality_frequency(
    spec: SystemSpec, n: int, delta: float, trials: int, seed: int
) -> float:
    """Monte-Carlo counterpart of input_atypicality_probability; samples the
    sources and applies the same typicality tests the encoder uses, without
    building codebooks."""
    n_message = _message_length(spec, n)
    u_box = count_box(spec.p_u.values, n_message, delta)
    kx = spec.p_xk.reorder((spec.k_axis.name, spec.x_axis.name)).values.ravel()
    kx_box = count_box(kx, n, delta)
    pu = spec.p_u.values
    bad = 0
    for t in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence((seed, _TRIAL_TAG, t)))
        u = rng.choice(pu.size, size=n_message, p=pu)
        cells = rng.choice(kx.size, size=n, p=kx)
        ok_u = u_box.contains(np.bincount(u, minlength=pu.size))
        ok_kx = kx_box.contains(np.bincount(cells, minlength=kx.size))
        bad += int(not (ok_u and ok_kx))
    return bad / trials if trials else 0.0


# ---------------------------------------------------------------------------
# equivocation
# ---------------------------------------------------------------------------


@dataclass
class EquivocationEstimate:
    h_u_given_yz: float  # bits per message symbol
    h_uhat_given_yz: float
    method: str
    n: int
    n_message: int
    trials: int | None
    extras: dict[str, float] = field(default_factory=dict)


def _entropy_of_rows(table: dict) -> float:
    """Sum over keys of P(key) H(outcome | key), from unnormalized masses."""
    h = 0.0
    for outcomes in table.values():
        p_key = sum(outcomes.values())
        if p_key <= 0:
            continue
        for p in outcomes.values():
            if p > 0:
                q = p / p_key
                h -= p_key * q * math.log2(q)
    return h


def estimate_equivocation(
    codebooks: CodebookSet,
    mode: str = "exact_enumeration",
    *,
    trials: int | None = None,
    seed: int | None = None,
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> EquivocationEstimate:
    """Equivocation of the message word and of the decoded reproduction given
    the composite and forged words, for THIS fixed codebook draw.

    exact_enumeration walks every (message, covertext, key, forgery)
    realization; plug_in reports the empirical conditional-entropy estimate
    from Monte-Carlo trials (biased downward; a warning records the support
    size).  The analysis this mirrors averages over the codebook ensemble,
    so treat single-build numbers as conditional on the draw; see
    estimate_equivocation_ensemble.
    """
    spec = codebooks.spec
    n, n_msg = codebooks.n, codebooks.n_message
    if mode == "plug_in":
        if not trials or trials < 10_000:
            raise ValidationError("plug_in mode needs trials >= 10000")
        agg = run_trials(
            spec,
            codebooks.aux,
            n,
            trials,
            codebooks.delta,
            seed if seed is not None else codebooks.seed,
            codebooks.rd_codebook.target_d,
            codebooks=codebooks,
            collect_transcripts=True,
        )
        u_rows: dict[bytes, dict] = {}
        uhat_rows: dict[bytes, dict] = {}
        w = 1.0 / trials
        for r in agg.results:
            key = r.y.tobytes() + r.z.tobytes()
            u_rows.setdefault(key, {}).setdefault(r.u.tobytes(), 0.0)
            u_rows[key][r.u.tobytes()] += w
            uh = r.uhat.tobytes() if r.uhat is not None else b"err"
            uhat_rows.setdefault(key, {}).setdefault(uh, 0.0)
            uhat_rows[key][uh] += w
        warnings.warn(
            f"plug-in conditional entropy over {len(u_rows)} observed (y,z) "
            f"cells and {trials} trials is biased downward",
            RuntimeWarning,
            stacklevel=2,
        )
        return EquivocationEstimate(
            h_u_given_yz=_entropy_of_rows(u_rows) / n_msg,
            h_uhat_given_yz=_entropy_of_rows(uhat_rows) / n_msg,
            method="plug_in",
            n=n,
            n_message=n_msg,
            trials=trials,
        )
    if mode != "exact_enumeration":
        raise ValidationError(f"unknown mode {mode!r}")

    u_size = spec.u_axis.size
    xk_size = spec.x_axis.size * spec.k_axis.size
    identity_attack = spec.has_identity_attack()
    z_states = 1 if identity_attack else spec.z_axis.size**n
    cost = u_size**n_msg * xk_size**n * z_states
    if cost > enum_cap:
        raise ResourceCapError(f"exact enumeration needs {cost} states (> cap {enum_cap})")

    pu = spec.p_u.values
    pxk = spec.p_xk.values  # (X, K)
    att = spec.p_z_given_y.conditional_matrix((spec.y_axis.name,), (spec.z_axis.name,))

    def words(size: int, length: int):
        idx = np.zeros(length, dtype=np.int64)
        while True:
            yield idx.copy()
            for pos in range(length - 1, -1, -1):
                idx[pos] += 1
                if idx[pos] < size:
                    break
                idx[pos] = 0
            else:
                return

    u_words = [(u, float(np.prod(pu[u]))) for u in words(u_size, n_msg)]

    u_rows: dict[bytes, dict] = {}
    uhat_rows: dict[bytes, dict] = {}
    bin_rows: dict[bytes, dict] = {}
    bin_rows_enc: dict[bytes, dict] = {}
    enc_path_prob = 0.0
    decode_cache: dict[bytes, tuple] = {}

    for xk in words(xk_size, n):
        x = xk // spec.k_axis.size
        k = xk % spec.k_axis.size
        p_xk_word = float(np.prod(pxk[x, k]))
        if p_xk_word == 0.0:
            continue
        k_typical = codebooks.key_type_and_order(k) is not None
        for u, p_u_word in u_words:
            p_word = p_u_word * p_xk_word
            if p_word == 0.0:
                continue
            enc = embed_encode(u, x, k, codebooks)
            if identity_attack:
                z_iter = [(enc.y, 1.0)]
            else:
                z_iter = []
                for z in words(spec.z_axis.size, n):
                    pz = float(np.prod(att[enc.y, z]))
                    if pz > 0:
                        z_iter.append((z.copy(), pz))
            u_on_path = k_typical and codebooks.u_box.contains(
                np.bincount(u, minlength=u_size)
            )
            if u_on_path:
                enc_path_prob += p_word
            for z, pz in z_iter:
                p = p_word * pz
                key = enc.y.tobytes() + z.tobytes()
                u_rows.setdefault(key, {}).setdefault(u.tobytes(), 0.0)
                u_rows[key][u.tobytes()] += p
                dkey = k.tobytes() + z.tobytes()
                if dkey not in decode_cache:
                    dec = decode(z, k, codebooks)
                    decode_cache[dkey] = (
                        dec.uhat.tobytes() if dec.uhat is not None else b"err",
                    )
                (uh,) = decode_cache[dkey]
                uhat_rows.setdefault(key, {}).setdefault(uh, 0.0)
                uhat_rows[key][uh] += p
                ykey = enc.y.tobytes()
                bin_rows.setdefault(ykey, {}).setdefault(enc.m, 0.0)
                bin_rows[ykey][enc.m] += p
                if u_on_path:
                    bin_rows_enc.setdefault(ykey, {}).setdefault(enc.m, 0.0)
                    bin_rows_enc[ykey][enc.m] += p

    h_u = _entropy_of_rows(u_rows)
    h_uhat = _entropy_of_rows(uhat_rows)
    h_bin = _entropy_of_rows(bin_rows)
    h_bin_enc = _entropy_of_rows(bin_rows_enc)
    extras = {
        "h_u_given_yz_bits": h_u,
        "h_uhat_given_yz_bits": h_uhat,
        "h_bin_given_y": h_bin,
        "h_bin_given_y_encrypted_path": (h_bin_enc / enc_path_prob) if enc_path_prob > 0 else 0.0,
        "encrypted_path_probability": enc_path_prob,
    }
    return EquivocationEstimate(
        h_u_given_yz=h_u / n_msg,
        h_uhat_given_yz=h_uhat / n_msg,
        method="exact_enumeration",
        n=n,
        n_message=n_msg,
        trials=None,
        extras=extras,
    )


def estimate_equivocation_ensemble(
    spec: SystemSpec,
    aux: AuxChannel,
    n: int,
    delta: float,
    seeds: Sequence[int],
    d_prime_value: float,
    **build_kwargs,
) -> tuple[float, float, list[EquivocationEstimate]]:
    """Average the exact fixed-codebook equivocations over seeded rebuilds
    (the analysis's ensemble average, at desk scale)."""
    estimates = []
    for s in seeds:
        books = build_codebooks(spec, aux, n, delta, s, d_prime_value, **build_kwargs)
        estimates.append(estimate_equivocation(books))
    h_u = float(np.mean([e.h_u_given_yz for e in estimates]))
    h_uhat = float(np.mean([e.h_uhat_given_yz for e in estimates]))
    return h_u, h_uhat, estimates


# ---------------------------------------------------------------------------
# audits
# ---------------------------------------------------------------------------


@dataclass
class BinAuditResult:
    max_bins_per_y: int
    bound: float
    passed: bool
    max_bins_across_types: int
    poly_bound_across: float
    h_bin_given_y_bound: float


def bin_multiplicity_audit(
    codebooks: CodebookSet, gamma: float, cap: int = DEFAULT_STEGO_AUDIT_CAP
) -> BinAuditResult:
    """Count, per distinct stegotext word, how many bins contain it.

    Within one representative's code the count is compared against 2^{n
    gamma} (the double-exponential failure event); across type classes the
    polynomial type-counting factor (n+1)^{|K||Y|} enters the bound, and the
    corresponding cap on the encrypted-bin equivocation is reported."""
    sizes = codebooks.sizes
    total = len(codebooks.key_types) * sizes.bins * sizes.m2 * sizes.m3
    if total > cap:
        raise ResourceCapError(f"audit would scan {total} stegotext words (> cap {cap})")
    n = codebooks.n
    max_within = 0
    across: dict[bytes, set] = {}
    for t in range(len(codebooks.key_types)):
        book = codebooks.aux_book(t)
        per_y: dict[bytes, set] = {}
        for m in range(1, sizes.bins + 1):
            for j in range(sizes.m2):
                v = book[(m - 1) * sizes.m2 + j]
                stego = codebooks.stego_book(t, v)
                for row in stego:
                    key = row.tobytes()
                    per_y.setdefault(key, set()).add(m)
                    across.setdefault(key, set()).add((t, m))
        if per_y:
            max_within = max(max_within, max(len(s) for s in per_y.values()))
    bound = 2.0 ** (n * gamma)
    k_y = codebooks.k_size * codebooks.y_size
    return BinAuditResult(
        max_bins_per_y=max_within,
        bound=bound,
        passed=max_within <= bound + 1e-9,
        max_bins_across_types=max((len(s) for s in across.values()), default=0),
        poly_bound_across=(n + 1) ** k_y * bound,
        h_bin_given_y_bound=n * gamma + k_y * math.log2(n + 1),
    )


@dataclass
class CompressionAudit:
    n_c_bits: float
    n_c_rate: float
    private_bound: float  # lambda R + I(X;Y,V|K): the keyed-compression bound
    private_slack_budget: float
    public_distinct_count: int
    public_distinct_rate: float
    public_bound: float  # Eq-66 form with its delta' slack
    delta_prime: float
    rate_identity_lhs: float
    rate_identity_rhs: float


def compression_audits(
    codebooks: CodebookSet, key_cap: int = DEFAULT_KEY_ENUM_CAP
) -> CompressionAudit:
    """Composite-count and distinct-stegotext audits.

    N_c = M_U M_2 M_3 bounds the keyed compressibility; the number of
    distinct stegotext words across all typical keys' (permutation-expanded)
    codebooks bounds the public compressibility, with the closed-form slack
    term carrying the schedule epsilons, the type-counting polynomial, and
    any realized-size adjustment from rounding or overrides."""
    sizes = codebooks.sizes
    q = codebooks.quantities
    n = codebooks.n
    lam = codebooks.spec.lam
    r = codebooks.rd_solution.rate_bits
    delta = codebooks.delta
    sched = sizes.schedule
    eps1, eps2 = sched["eps1"], sched["eps2"]

    n_c_bits = sizes.l_bits + sizes.m2_bits + sizes.m3_bits
    n_c_rate = n_c_bits / n
    private_bound = lam * r + q["I(X;Y,V|K)"]
    rate_adjust = n_c_rate - (lam * r + sched["r2_target"] + sched["r3_target"])
    private_budget = eps1 + eps2 + 2 * delta + max(0.0, rate_adjust)

    n_keys = sum(
        _multinomial_count(t.counts) for t in codebooks.key_types
    )
    if n_keys > key_cap:
        raise ResourceCapError(f"{n_keys} typical keys exceed the enumeration cap {key_cap}")

    # symbols in the narrowest dtype that holds the alphabet: fewer bytes to hash
    symbols = np.min_scalar_type(codebooks.y_size - 1)
    count = _distinct_row_count(_typical_key_stego_words(codebooks, symbols))
    public_rate = math.log2(count) / n if count else 0.0
    k_y = codebooks.k_size * codebooks.y_size
    delta_prime = (
        eps1
        + eps2
        + delta * (q["H(K)"] + q["H(K|Y)"] + 4.0)
        + k_y * math.log2(n + 1) / n
    )
    public_bound = (
        lam * r + q["I(X;Y,V|K)"] + q["I(K;Y)"] + delta_prime + max(0.0, rate_adjust)
    )
    return CompressionAudit(
        n_c_bits=float(n_c_bits),
        n_c_rate=n_c_rate,
        private_bound=private_bound,
        private_slack_budget=private_budget,
        public_distinct_count=count,
        public_distinct_rate=public_rate,
        public_bound=public_bound,
        delta_prime=delta_prime,
        rate_identity_lhs=n_c_rate,
        rate_identity_rhs=(sizes.l_bits / n) + (sizes.m2_bits / n) + (sizes.m3_bits / n),
    )


def _typical_key_stego_words(codebooks: CodebookSet, dtype: np.dtype) -> Iterator[np.ndarray]:
    """The stegotext books of all typical keys, a few keys of one type at a
    time as a (rows, keys, n) array: the type's distinct stegotext rows,
    moved from the representative frame to each key's positions."""
    sizes = codebooks.sizes
    for t_idx, ktype in enumerate(codebooks.key_types):
        book = codebooks.aux_book(t_idx)
        rep_rows = []
        seen = set()
        for m in range(1, sizes.bins + 1):
            for j in range(sizes.m2):
                v = book[(m - 1) * sizes.m2 + j]
                vb = v.tobytes()
                if vb in seen:
                    continue
                seen.add(vb)
                rep_rows.append(codebooks.stego_book(t_idx, v))
        rep_mat = np.unique(np.vstack(rep_rows), axis=0).astype(dtype)
        keys = _multiset_perms(ktype.counts)
        while chunk := list(itertools.islice(keys, max(1, _AUDIT_CHUNK_ROWS // len(rep_mat)))):
            # slot i of the representative lands on position order[i] of a key
            order = np.argsort(np.array(chunk), axis=1, kind="stable")
            yield rep_mat[:, np.argsort(order, axis=1)]


def _distinct_row_count(blocks: Iterable[np.ndarray]) -> int:
    """Number of distinct length-n rows (the last axis) across arrays of one
    dtype.  Rows are keyed by their raw bytes, so no word length or alphabet
    size can make two different rows collide."""
    seen: set[bytes] = set()
    for block in blocks:
        rows = np.ascontiguousarray(block).reshape(-1, block.shape[-1])
        seen.update(rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel().tolist())
    return len(seen)


def _multinomial_count(counts: Sequence[int]) -> int:
    out, rem = 1, sum(counts)
    for c in counts:
        out *= math.comb(rem, c)
        rem -= c
    return out


# ---------------------------------------------------------------------------
# binary-divergence bound
# ---------------------------------------------------------------------------


def binary_divergence_exact(alpha: float, beta: float) -> float:
    """D(alpha || beta) in bits, stable for arguments near 0."""
    if not (0.0 < alpha < 1.0 and 0.0 < beta < 1.0):
        raise ValidationError("divergence arguments must lie in (0, 1)")
    ln2 = math.log(2.0)
    return alpha * math.log2(alpha / beta) + (1.0 - alpha) * (
        (math.log1p(-alpha) - math.log1p(-beta)) / ln2
    )


def divergence_lower_bound(a_bits: float, b_bits: float, n: int) -> float:
    """Closed-form lower bound [n(b - a) - log2 e] 2^{-n a} for
    D(2^{-na} || 2^{-nb}), valid for 0 < a < b."""
    if not 0.0 < a_bits < b_bits:
        raise ValidationError("need 0 < a < b")
    return (n * (b_bits - a_bits) - math.log2(math.e)) * 2.0 ** (-n * a_bits)
