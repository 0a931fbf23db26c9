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
from collections import OrderedDict, defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    EmptyTypicalSetError,
    InfeasibleError,
    ResourceCapError,
    ValidationError,
)
from .rd import RdCodebook, RdSolution, blahut_arimoto, build_rd_codebook, rd_encode
from .region import (
    KEYED_CONDITIONS,
    AuxChannel,
    SystemSpec,
    compose_system,
    counting_excess,
    system_quantities,
)
from .tables import DistTable
from .typical import (
    ConditionalTypicalSampler,
    CountBox,
    _compositions,
    _multinomial,
    _multiset_perms,
    count_box,
    epsilon_schedule,
    letter_dtype,
    typical_distortion_bound,
    typical_set_probability,
)

_AUX_TAG, _STEGO_TAG, _SW_TAG, _TRIAL_TAG = 1, 2, 3, 4

DEFAULT_AUX_ROWS_CAP = 1 << 18
DEFAULT_ENUM_CAP = 1 << 26
DEFAULT_STEGO_AUDIT_CAP = 1 << 22
DEFAULT_KEY_ENUM_CAP = 1 << 20
# stegotext words the compression audit moves to key positions at once
_AUDIT_CHUNK_ROWS = 1 << 16
# mask bytes one box-test kernel call ANDs at once; past about 512 KB its
# working set leaves the cache and each context word costs 3-4x as much
_BOX_CHUNK_BYTES = 1 << 18
# trials, and enumerated (x, k) words, whose searches (and, for words,
# decodes) run as one batch
_TRIAL_CHUNK = 64
_WORD_CHUNK = 8
# entries each word-keyed cache of a CodebookSet (keys, message indices,
# stegotext books) keeps; it drops the least recently used beyond that.  An
# entry is a pure function of (build, word), so a dropped one is resolved
# again the same.  A benchmark job keeps at most about 500 keys
_WORD_CACHE_ENTRIES = 1 << 14


class _LruCache(OrderedDict):
    """A mapping that keeps at most ``capacity`` entries, dropping the least
    recently used one when a new one would pass it."""

    def __init__(self, capacity: int):
        super().__init__()
        self.capacity = capacity

    def lookup(self, key, make):
        """The entry of ``key``; when there is none, ``make()``, kept."""
        try:
            self.move_to_end(key)
        except KeyError:
            self[key] = make()
            if len(self) > self.capacity:
                self.popitem(last=False)
        return self[key]


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


@dataclass(frozen=True, slots=True)
class Key:
    """A typical key word's type class, the position map onto the type's
    representative frame, and its pad.  Slot i of the representative is
    position order[i] of the key: the stable per-letter matching, the least
    such permutation.  The pad, the key's pre-assigned random bin index, is
    the integer its J drawn bits spell (``bits_to_int``); it XORs the low J
    bits of a message index."""

    type_idx: int
    order: np.ndarray
    pad: int


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
        # a typical key's letters, sorted, spell its type's representative
        self._type_index = {t.representative.tobytes(): i for i, t in enumerate(key_types)}

        k, x, v, y, z = joint.names
        self.k_size = spec.k_axis.size
        self.x_size = spec.x_axis.size
        self.v_size = aux.v_axis.size
        self.y_size = spec.y_axis.size
        self.z_size = spec.z_axis.size

        self.u_box = count_box(spec.p_u.values, self.n_message, delta)
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

        def given_the_rest(table: np.ndarray) -> np.ndarray:
            """The table conditioned on all but its last axis, uniform where
            the condition has no mass."""
            mass = table.sum(axis=-1, keepdims=True)
            return np.where(mass > 0, table / np.where(mass > 0, mass, 1.0), 1.0 / table.shape[-1])

        self._p_v_given_k = given_the_rest(joint.marginal(k, v).values)
        self._p_y_given_kv = given_the_rest(joint.marginal(k, v, y).values).reshape(-1, self.y_size)
        # the stegotext letter of each (k, v) whose row of p(y|k,v) has
        # exactly one positive entry, and -1 where a letter is drawn
        point = np.count_nonzero(self._p_y_given_kv > 0, axis=1) == 1
        self._y_of_kv = np.where(point, self._p_y_given_kv.argmax(axis=1), -1)

        # books store letters in letter_dtype; words handed out are int64
        self._v_dtype = letter_dtype(self.v_size)
        self._y_dtype = letter_dtype(self.y_size)
        self._reps = np.array([t.representative for t in key_types], dtype=np.int64).reshape(-1, n)

        # every auxiliary book, drawn in type order, and its packed letter
        # masks, stacked by type so a search can gather rows of many types
        rows = sizes.bins * sizes.m2
        self._aux_books = np.empty((len(key_types), rows, n), dtype=self._v_dtype)
        self._aux_masks = np.empty((len(key_types), -(-n // 8), self.v_size, rows), dtype=np.uint8)
        for type_idx, ktype in enumerate(key_types):
            sampler = ConditionalTypicalSampler(ktype.representative, self.k_size, self._p_v_given_k, delta)
            rng = np.random.default_rng(np.random.SeedSequence((seed, _AUX_TAG, type_idx)))
            self._aux_books[type_idx] = sampler.sample_rows(rng, rows)
            self._aux_masks[type_idx] = _letter_masks(self._aux_books[type_idx], self.v_size)
        # every per-word fact, resolved on first use: one cache per word kind
        self._keys = _LruCache(_WORD_CACHE_ENTRIES)
        self._messages = _LruCache(_WORD_CACHE_ENTRIES)
        self._stego_books = _LruCache(_WORD_CACHE_ENTRIES)
        self._stego_samplers: dict[bytes, ConditionalTypicalSampler] = {}

    # -- per-word facts ------------------------------------------------------

    def key(self, k_arr: np.ndarray) -> Key | None:
        """The ``Key`` record of a key word, or None when it is atypical."""
        k_arr = np.asarray(k_arr, dtype=np.int64)

        def resolve() -> Key | None:
            order = np.argsort(k_arr, kind="stable")
            type_idx = self._type_index.get(k_arr[order].tobytes())
            if type_idx is None:
                return None
            order.flags.writeable = False  # every caller shares the record
            rng = np.random.default_rng(np.random.SeedSequence((self.seed, _SW_TAG, k_arr.astype(np.uint32))))
            return Key(type_idx, order, bits_to_int(rng.integers(0, 2, size=self.sizes.j_bits, dtype=np.uint8)))

        return self._keys.lookup(k_arr.tobytes(), resolve)

    def message(self, u_arr: np.ndarray) -> int | None:
        """The rate-distortion index of a message word, or None when the
        word is atypical."""
        u_arr = np.asarray(u_arr, dtype=np.int64)

        def resolve() -> int | None:
            if not self.u_box.contains(np.bincount(u_arr, minlength=self.spec.u_axis.size)):
                return None
            return rd_encode(u_arr, self.rd_codebook)

        return self._messages.lookup(u_arr.tobytes(), resolve)

    def aux_book(self, type_idx: int) -> np.ndarray:
        """All M_U * M_2 auxiliary codewords of one representative, grouped by
        bin: row (m-1) * M_2 + (j-1) is codeword j of bin m.  Its letters are
        of ``letter_dtype(|V|)``."""
        return self._aux_books[type_idx]

    def aux_masks(self, type_idx: int) -> np.ndarray:
        """The auxiliary book of one representative as packed letter masks
        (``_letter_masks``), built once with the book."""
        return self._aux_masks[type_idx]

    def stego_book(self, type_idx: int, v_rep: np.ndarray) -> np.ndarray:
        """The M_3 stegotext words drawn for one auxiliary word value, with
        letters of ``letter_dtype(|Y|)`` (the books are keyed by the word
        itself in the auxiliary books' dtype, so bins sharing a word share
        its stegotext book, and so do callers holding it as int64).

        A draw reads the generator through each (k, v) letter's count only;
        its positions just place the letters.  So the words are drawn by the
        sampler of the letter-sorted (k, v) word, shared by every word of
        that joint composition, and moved to this word's positions through
        its stable argsort: slot i of the sorted word is position order[i].
        A fixed letter takes its place in that draw, as it consumes the
        generator like any other."""
        v_rep = np.asarray(v_rep, dtype=self._v_dtype)

        def draw() -> np.ndarray:
            combined = self.key_types[type_idx].representative * self.v_size + v_rep
            order = np.argsort(combined, kind="stable")
            sampler = self._stego_sampler(combined[order])
            rng = np.random.default_rng(
                np.random.SeedSequence((self.seed, _STEGO_TAG, type_idx, v_rep.astype(np.uint32)))
            )
            book = np.empty((self.sizes.m3, self.n), dtype=self._y_dtype)
            for r in range(self.sizes.m3):
                book[r, order] = sampler.sample(rng)
            return book

        return self._stego_books.lookup((type_idx, v_rep.tobytes()), draw)

    def stego_books(self, types, v_words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The stegotext books of (type index, auxiliary word) pairs, given as
        broadcastable type indices and a (pairs, n) stack of words, as a
        (pairs, M_3, n) array, and whether each book could be drawn.

        A word whose (k, v) letters are all fixed has one stegotext word,
        and its book repeats it M_3 times: a draw would only permute
        constant letter words.  Those books are one gather, with no
        generator, no sampler and no cache entry; ``stego_book`` draws the
        others one at a time.  A book with no word to draw is flagged, and
        its rows are meaningless."""
        ys = self._y_of_kv[self._reps[types] * self.v_size + v_words]
        built = (ys >= 0).all(axis=-1)
        books = np.empty((len(v_words), self.sizes.m3, self.n), dtype=self._y_dtype)
        books[built] = ys[built, None]
        types = np.broadcast_to(types, built.shape)
        for i in np.flatnonzero(~built).tolist():
            try:
                books[i] = self.stego_book(int(types[i]), v_words[i])
                built[i] = True
            except EmptyTypicalSetError:
                pass
        return books, built

    def _stego_sampler(self, sorted_kv: np.ndarray) -> ConditionalTypicalSampler:
        """The stegotext sampler of one joint (k, v) composition, given as
        its letter-sorted word; one per composition, so the cache is bounded
        by their number."""
        key = sorted_kv.tobytes()
        sampler = self._stego_samplers.get(key)
        if sampler is None:
            sampler = ConditionalTypicalSampler(
                sorted_kv, self.k_size * self.v_size, self._p_y_given_kv, self.delta
            )
            self._stego_samplers[key] = sampler
        return sampler


def _message_length(spec: SystemSpec, n: int) -> int:
    """The message blocklength lambda * n at covertext blocklength n; it must
    be a positive integer."""
    n_message = spec.lam * n
    if abs(n_message - round(n_message)) > 1e-9 or n_message < 1:
        raise ValidationError(f"lambda * n = {n_message} must be a positive integer")
    return int(round(n_message))


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
    eps_cov: float = 0.0,
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

    sol = blahut_arimoto(spec.p_u, spec.d_prime, d_prime_value)
    r = sol.rate_bits

    excess = counting_excess(q, lam, r)
    if excess > 1e-9:
        raise InfeasibleError(
            f"counting constraint violated: lambda R + I(X;Y,V|K) exceeds H(Y|K) by {excess:.4f} bits"
        )

    eps1, eps2, eps3 = epsilon_schedule(joint, delta)
    i_xv_k = q["I(V;X|K)"]
    i_xy_vk = q["I(X;Y,V|K)"] - q["I(V;X|K)"]
    r1_target = q["I(V;Z|K)"] - eps3 - delta
    r2_target = i_xv_k + eps1 + delta
    r3_target = i_xy_vk + eps2 + delta
    j_target = q["H(K|Y)"] + delta
    c_slack = KEYED_CONDITIONS["embedding_rate"].bound(q, lam, r) - lam * r
    if c_slack <= 0:
        warnings.warn(
            f"embedding condition is not strict (slack {c_slack:.4f} bits); the "
            "bin arithmetic has no asymptotic headroom at this point",
            RuntimeWarning,
            stacklevel=2,
        )

    rd_book = build_rd_codebook(
        spec.p_u, spec.d_prime, d_prime_value, n_message, delta, eps_cov=eps_cov, solution=sol
    )
    l_bits = rd_book.index_bits

    m2_real = m2_bits if m2_bits is not None else max(0, math.ceil(n * r2_target - 1e-12))
    m3_real = m3_bits if m3_bits is not None else max(0, math.ceil(n * r3_target - 1e-12))
    j_real = j_bits if j_bits is not None else max(0, math.ceil(n * j_target - 1e-12))

    if l_bits + m2_real > int(math.log2(DEFAULT_AUX_ROWS_CAP)):
        raise ResourceCapError(
            f"auxiliary codebook would need 2^{l_bits + m2_real} rows (> cap {DEFAULT_AUX_ROWS_CAP}); "
            "override m2_bits (the schedule width is asymptotic)"
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
    letters = np.arange(spec.k_axis.size)
    comps = _compositions(n, key_box.lo.tolist(), key_box.hi.tolist())
    key_types = [KeyType(c, np.repeat(letters, c)) for c in comps]
    if not key_types:
        raise EmptyTypicalSetError(f"no typical key words at n={n}, delta={delta}")

    # the set draws its auxiliary books, so an empty conditional set fails the build
    try:
        return CodebookSet(spec, aux, n, delta, seed, sizes, rd_book, sol, joint, q, key_types)
    except EmptyTypicalSetError as e:
        raise EmptyTypicalSetError(
            f"auxiliary codeword set empty at n={n}, delta={delta}: {e}; "
            "increase n or delta"
        ) from e


# ---------------------------------------------------------------------------
# bit plumbing
# ---------------------------------------------------------------------------


def bits_to_int(bits: np.ndarray) -> int:
    """The value of little-endian 0/1 bits."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


# ---------------------------------------------------------------------------
# encode / attack / decode
# ---------------------------------------------------------------------------


def _cell_bounds(box: CountBox, shape: tuple[int, ...], value_axis: int) -> tuple[np.ndarray, np.ndarray]:
    """A count box over the row-major cells of ``shape`` as (context, value)
    tables: the value axis moved last, the other axes flattened row-major
    into the context.  A count lies in 0..n, so the bounds are clipped to
    0..n+1, a cell whose upper bound is negative gets the unreachable lower
    bound n+1, and the tables take the smallest unsigned type holding n+1."""
    n = box.n
    lo = np.where(box.hi < 0, n + 1, np.clip(box.lo, 0, n + 1))
    hi = np.clip(box.hi, 0, n)
    dtype = np.min_scalar_type(n + 1)
    return tuple(
        np.moveaxis(b.reshape(shape), value_axis, -1).reshape(-1, shape[value_axis]).astype(dtype)
        for b in (lo, hi)
    )


def _letter_masks(book: np.ndarray, n_val: int) -> np.ndarray:
    """(ceil(n/8), n_val, rows) uint8 bit masks: byte b of the positions
    where each book row holds each letter.  A stack of books (..., rows, n)
    gives a stack of masks (..., ceil(n/8), n_val, rows)."""
    letters = np.swapaxes(book, -1, -2)[..., None, :] == np.arange(n_val, dtype=book.dtype)[:, None]
    return np.packbits(letters, axis=-3)


def _rows_in_boxes(
    masks: np.ndarray, contexts: np.ndarray, bounds: tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """(contexts, rows) boolean table: whether each book row, given as its
    letter masks, has its (context, value) cell counts in the box against
    each context word.  Row r counts cell (c, v) once per position t with
    context[t] == c and book[r, t] == v, and every cell, including those of
    contexts no position has, must lie in lo[c, v] .. hi[c, v].

    ``masks`` is one book's masks, tested against every context, or a stack
    of books' masks, one per context, each tested against its own context.
    A count is the popcount of the context's position mask ANDed with the
    row's letter mask, summed over the masks' bytes.  A kernel call ANDs at
    most ``_BOX_CHUNK_BYTES`` of masks, so longer stacks go in chunks."""
    lo, hi = bounds
    stacked = masks.ndim == 4
    chunk = max(1, _BOX_CHUNK_BYTES // (lo.shape[0] * math.prod(masks.shape[-3:])))
    if len(contexts) > chunk:
        starts = range(0, len(contexts), chunk)
        parts = [(masks[s : s + chunk] if stacked else masks, contexts[s : s + chunk]) for s in starts]
        return np.concatenate([_rows_in_boxes(m, c, bounds) for m, c in parts])
    place = np.packbits(contexts[:, None, :] == np.arange(lo.shape[0])[:, None], axis=-1)
    if stacked:
        masks = masks[:, None]
    both = place[:, :, :, None, None] & masks
    counts = np.add.reduce(np.bitwise_count(both, out=both), axis=2, dtype=lo.dtype)
    ok = counts >= lo[:, :, None]
    ok &= counts <= hi[:, :, None]
    return np.logical_and.reduce(ok, axis=(1, 2))


@dataclass
class EmbedResult:
    y: np.ndarray
    m: int  # the bin, 1-based: the sent index encrypted by the pad, plus 1
    w: int  # the sent index: the message's rate-distortion index, or 0
    input_ok: bool
    search_ok: bool
    search_event: str | None  # "e2" | "e3" | None
    j: int | None  # the bin's first typical auxiliary row, 0-based
    j_prime: int | None


def _search_bins(
    codebooks: CodebookSet, triples: Sequence[tuple[Key, np.ndarray, int]]
) -> list[tuple[np.ndarray | None, str | None, dict]]:
    """The embedding search of each (typical key, covertext, bin) triple,
    as ``embed_in_bin`` returns it: the first auxiliary row of the bin
    jointly typical with the (key, covertext) context word, in the frame of
    the key's type, then the first word of that row's stegotext book
    jointly typical with the context.  No typical row is e2; no typical
    word, or a book with no word to draw, is e3.  Triples of any keys and
    key types go together: one box test covers every triple's bin rows,
    and one the rows' books, each against its triple's context."""
    if not triples:
        return []
    m2 = codebooks.sizes.m2
    keys, xs, bins = zip(*triples)
    types = np.array([key.type_idx for key in keys])
    orders = np.stack([key.order for key in keys])
    # each context word in its key type's representative frame, as cells
    contexts = codebooks._reps[types] * codebooks.x_size + np.take_along_axis(np.stack(xs), orders, axis=1)
    rows = (np.array(bins) - 1)[:, None] * m2 + np.arange(m2)
    # each triple's bin rows as (triples, bytes, letters, rows) masks
    masks = np.moveaxis(codebooks._aux_masks[types[:, None], :, :, rows], 1, -1)
    typical = _rows_in_boxes(masks, contexts, codebooks.kxv_cells)
    j = np.where(typical.any(axis=1), typical.argmax(axis=1), -1)
    v_reps = codebooks._aux_books[types, rows[np.arange(len(rows)), j]]
    found = np.flatnonzero(j >= 0)
    books, has_book = codebooks.stego_books(types[found], v_reps[found])
    drawn, books = found[has_book], books[has_book]
    j_prime = np.full(len(triples), -1)
    ys = np.empty((len(triples), codebooks.n), dtype=np.int64)
    if drawn.size:
        hits = _rows_in_boxes(
            _letter_masks(books, codebooks.y_size),
            contexts[drawn] * codebooks.v_size + v_reps[drawn],
            codebooks.kxvy_cells,
        )
        j_prime[drawn] = np.where(hits.any(axis=1), hits.argmax(axis=1), -1)
        # each triple's first typical word, moved from the representative
        # frame to its key's positions: slot t lands on position order[t]
        ys[drawn[:, None], orders[drawn]] = books[np.arange(len(drawn)), j_prime[drawn]]
    out = []
    for key, row, row_prime, v_rep, y in zip(keys, j.tolist(), j_prime.tolist(), v_reps, ys):
        details = {"type_idx": key.type_idx, "order": key.order}
        if row >= 0:
            details.update(v_rep=v_rep, j=row)
        if row_prime >= 0:
            details["j_prime"] = row_prime
        out.append((y, None, details) if row_prime >= 0 else (None, "e3" if row >= 0 else "e2", details))
    return out


def embed_in_bin(
    codebooks: CodebookSet, m: int, x_arr: np.ndarray, k_arr: np.ndarray
) -> tuple[np.ndarray | None, str | None, dict]:
    """The embedding unit: scan bin m for the first jointly typical
    auxiliary word, then that word's stegotext book for the first jointly
    typical output.  Returns (y or None, failure event, details).  Works
    entirely in the representative frame, so permuting (x, k) permutes y
    covariantly.  This is the one-bin call of ``_search_bins``."""
    search = WordSearch(codebooks, x_arr, k_arr)
    return (None, "e2", {}) if search.key is None else search.result(m)


class WordSearch:
    """The encoder's work on one (covertext, key) word, done once for every
    message word encoded with it: the key's record (``CodebookSet.key``),
    the (k, x) pair test, and the embedding search of each bin, kept once
    run; ``search_words`` searches many words at once."""

    def __init__(self, codebooks: CodebookSet, x_seq: np.ndarray, k_seq: np.ndarray):
        self.codebooks = codebooks
        self.x = np.asarray(x_seq, dtype=np.int64)
        self.k = np.asarray(k_seq, dtype=np.int64)
        self.key = codebooks.key(self.k)
        pair_cells = self.k * codebooks.x_size + self.x
        self.pair_ok = codebooks.kx_box.contains(
            np.bincount(pair_cells, minlength=codebooks.k_size * codebooks.x_size)
        )
        self.embeds = self.key is not None and self.pair_ok
        self._found: dict[int, tuple[np.ndarray | None, str | None, dict]] = {}

    def bin_of(self, w: int | None) -> tuple[int, int]:
        """The index the encoder sends for message index ``w``
        (``CodebookSet.message``) and the bin (1-based) it embeds in, the
        sent index encrypted by the key's pad: an atypical message or key
        sends the all-zero index in the clear."""
        if w is None or self.key is None:
            return 0, 1
        return w, (w ^ self.key.pad) + 1

    def result(self, m: int) -> tuple[np.ndarray | None, str | None, dict]:
        """``embed_in_bin``'s result for bin m, searched once.  The key must
        be typical."""
        if m not in self._found:
            search_words(self.codebooks, [(self, [m])])
        return self._found[m]


def search_words(codebooks: CodebookSet, requests: Iterable[tuple[WordSearch, Iterable[int]]]) -> None:
    """Run the embedding search of each (word, bins) request in the bins
    its word has not searched yet, with typical keys only; every word's
    bins go in one ``_search_bins`` call, and each word keeps its results."""
    todo = [(word, m) for word, bins in requests for m in sorted(set(bins) - word._found.keys())]
    found = _search_bins(codebooks, [(word.key, word.x, m) for word, m in todo])
    for (word, m), result in zip(todo, found):
        word._found[m] = result


def embed_encode(u_seq: np.ndarray, search: WordSearch) -> EmbedResult:
    """Full encoder: message path (rate-distortion index, pad, bin choice)
    then the embedding search.  Atypical inputs fall back to the all-zero
    message; a failed search transmits the all-zero stegotext word.  Both
    fallbacks are in-protocol and tagged, never exceptions.

    The work is split by what it depends on:
    - per message word u: its typicality and rate-distortion index
      (``CodebookSet.message``);
    - per (x, k) word: the key's record, the (k, x) pair test and each
      bin's search;
    - per call: the encryption, the bin choice and the result's fields.
    ``search``, the ``WordSearch`` of the (x, k) word, carries the codebooks
    that resolve the first, and the second."""
    w_typical = search.codebooks.message(u_seq)
    w, m = search.bin_of(w_typical)
    input_ok = w_typical is not None and search.pair_ok  # pair typicality implies key typicality

    y = None
    search_event: str | None = None
    details: dict = {}
    if search.embeds:
        y, search_event, details = search.result(m)
    search_ok = y is not None
    if y is None:
        y = np.zeros(search.codebooks.n, dtype=np.int64)

    return EmbedResult(
        y=y,
        m=m,
        w=w,
        input_ok=input_ok,
        search_ok=search_ok,
        search_event=search_event if (input_ok and not search_ok) else None,
        j=details.get("j"),
        j_prime=details.get("j_prime"),
    )


def attack(y_seq: np.ndarray, spec: SystemSpec, rng: np.random.Generator) -> np.ndarray:
    """Memoryless per-symbol attack sampling through ``spec.attack_matrix``."""
    y = np.asarray(y_seq, dtype=np.int64)
    cum = spec.attack_matrix.cumsum(axis=1)
    r = rng.random(y.size)
    # a row may sum to just under 1; a draw above its total takes the last symbol
    z = np.minimum((r[:, None] > cum[y]).sum(axis=1), cum.shape[1] - 1)
    return z.astype(np.int64)


@dataclass
class DecodeResult:
    uhat: np.ndarray | None
    event: str  # "ok" | "e4" | "e5": one bin found, none, or more
    bin_index: int | None
    bins_found: tuple[int, ...]
    typical: np.ndarray  # (bins, M_2): whether each auxiliary row is jointly typical with the forgery


def _sent_index(m: int | np.ndarray, pad: int | np.ndarray) -> int | np.ndarray:
    """The index bin m (1-based) carries under a key's pad: the inverse of
    ``WordSearch.bin_of``'s (index XOR pad) + 1; ints, or arrays of them."""
    return (m - 1) ^ pad


def decode_many(
    z_rows: np.ndarray, k_rows: np.ndarray, codebooks: CodebookSet
) -> tuple[np.ndarray, np.ndarray]:
    """Joint-typicality unique-bin decoding of every forged word (row) of
    ``z_rows`` under the key on its row of ``k_rows``, as ``(typical, uhat)``:
    ``typical[i, m - 1, j]`` says row j of bin m is an auxiliary word jointly
    typical with forgery i (none is under an atypical key).  No bin with a
    typical row is e4, two or more e5; one bin m decodes to ``uhat[i]``, the
    rate-distortion codeword of index (m - 1) XOR the key's pad.  One box
    test per key type covers its keys' forgeries against its whole
    auxiliary book."""
    z_rows = np.asarray(z_rows, dtype=np.int64)
    sizes = codebooks.sizes
    keys = [codebooks.key(k) for k in np.asarray(k_rows, dtype=np.int64)]
    pads = np.array([0 if key is None else key.pad for key in keys], dtype=np.int64)
    of_type = defaultdict(list)
    for i, key in enumerate(keys):
        if key is not None:
            of_type[key.type_idx].append(i)
    typical = np.zeros((len(z_rows), sizes.bins, sizes.m2), dtype=bool)
    for type_idx, rows in of_type.items():
        # each forged word in its key's representative frame
        z_rep = z_rows[np.array(rows)[:, None], np.stack([keys[i].order for i in rows])]
        contexts = codebooks.key_types[type_idx].representative * codebooks.z_size + z_rep
        in_box = _rows_in_boxes(codebooks.aux_masks(type_idx), contexts, codebooks.kzv_cells)
        typical[rows] = in_box.reshape(len(rows), sizes.bins, sizes.m2)
    bins = typical.any(axis=2).argmax(axis=1) + 1
    return typical, codebooks.rd_codebook.codewords[_sent_index(bins, pads)]


def decode(z_seq: np.ndarray, k_seq: np.ndarray, codebooks: CodebookSet) -> DecodeResult:
    """``decode_many`` of one forged word, with its event."""
    typical, uhat = decode_many(np.asarray(z_seq)[None], np.asarray(k_seq)[None], codebooks)
    bins = tuple((np.flatnonzero(typical[0].any(axis=1)) + 1).tolist())
    if len(bins) != 1:
        return DecodeResult(None, "e5" if bins else "e4", None, bins, typical[0])
    return DecodeResult(uhat[0], "ok", bins[0], bins, typical[0])


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
    """``run_trials``' summary.  ``message_error_rate`` is the share of
    trials whose event is not none: the rate of the union of the error
    events, an upper bound on the decoder's rate of missing the sent bin."""

    trials: int
    event_frequencies: dict[str, float]
    message_error_rate: float
    mean_distortion_xy: float
    mean_distortion_uuhat: float
    distortion_bound: float
    results: list[TrialResult] = field(repr=False)


def _mean(values: list[float]) -> float:
    """The mean of ``values`` added left to right, or nan when there are
    none (the built-in ``sum`` rounds otherwise from Python 3.12 on)."""
    total = 0.0
    for v in values:
        total += v
    return total / len(values) if values else math.nan


def _draw_trial(spec: SystemSpec, n_message: int, n: int, seed: int, t: int):
    """Trial t's generator, then the message word and the covertext and key
    words it draws, u from p(u) and the (x, k) cells from p(x, k) in its
    (X, K) order; the generator goes on to draw the trial's attack."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, _TRIAL_TAG, t)))
    pu = spec.p_u.values
    pxk = spec.p_xk.values.ravel()
    u = rng.choice(pu.size, size=n_message, p=pu)
    cells = rng.choice(pxk.size, size=n, p=pxk)
    return rng, u, cells // spec.k_axis.size, cells % spec.k_axis.size


def run_trials(codebooks: CodebookSet, trials: int, seed: int) -> TrialAggregate:
    """Monte-Carlo end-to-end runs of one codebook draw, with per-trial
    derived seeds, every trial's record kept.

    Every trial gets exactly one label: e1 for atypical inputs whose
    fallback embedding still produced a codebook word, encode_fallback when
    the all-zero word had to be transmitted, e2/e3 for failed searches on
    typical inputs, e4 when the decoder finds the sent auxiliary word not
    jointly typical with the forgery, e5 when it is but another bin holds a
    typical word too, and none otherwise: then the decoder finds bin m
    alone, and the message is correct.  So ``message_error_rate``, the
    share of trials whose event is not none, is the rate of the union of
    E1-E5 and encode_fallback: an upper bound on how often the decoder
    misses the sent bin, not that rate (trial 30 of the ``exact_noisy_n8``
    golden run is e4, yet decodes the sent bin).

    Trials go ``_TRIAL_CHUNK`` at a time: each draws u and (x, k) from its
    own generator, the chunk's searches run as one ``search_words`` call,
    then each trial encodes, draws its attack and decodes in turn.
    """
    spec, n, n_msg = codebooks.spec, codebooks.n, codebooks.n_message
    results: list[TrialResult] = []

    def chunk(start: int) -> list[tuple[np.random.Generator, np.ndarray, WordSearch]]:
        """The chunk's trials from ``start`` on as (generator, u, searched word)."""
        drawn = []
        for t in range(start, min(trials, start + _TRIAL_CHUNK)):
            rng, u, x, k = _draw_trial(spec, n_msg, n, seed, t)
            drawn.append((rng, u, WordSearch(codebooks, x, k)))
        search_words(codebooks, [(w, [w.bin_of(codebooks.message(u))[1]]) for _, u, w in drawn if w.embeds])
        return drawn

    for rng, u, word in itertools.chain.from_iterable(map(chunk, range(0, trials, _TRIAL_CHUNK))):
        x, k = word.x, word.k
        enc = embed_encode(u, word)
        z = attack(enc.y, spec, rng)
        dec = decode(z, k, codebooks)

        if not enc.input_ok:
            event = "e1" if enc.search_ok else "encode_fallback"
        elif enc.search_event is not None:
            event = enc.search_event
        elif not dec.typical[enc.m - 1, enc.j]:  # the sent auxiliary word
            event = "e4"
        elif len(dec.bins_found) > 1:
            event = "e5"
        else:  # the decoder found bin m alone
            event = "none"

        results.append(
            TrialResult(
                error_event=event,
                message_correct=event == "none",
                distortion_xy=spec.d.per_sequence(x, enc.y) / n,
                # measured on clean trials only
                distortion_uuhat=spec.d_prime.per_sequence(u, dec.uhat) / n_msg if event == "none" else math.nan,
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

    events = [r.error_event for r in results]
    return TrialAggregate(
        trials=trials,
        event_frequencies={e: (events.count(e) / trials if trials else 0.0) for e in EVENTS},
        message_error_rate=(1.0 - sum(r.message_correct for r in results) / trials) if trials else 0.0,
        mean_distortion_xy=_mean([r.distortion_xy for r in results if r.encode_search_ok]),
        mean_distortion_uuhat=_mean([r.distortion_uuhat for r in results if not math.isnan(r.distortion_uuhat)]),
        distortion_bound=typical_distortion_bound(codebooks.delta, codebooks.quantities["Ed(X,Y)"]),
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
    """Monte-Carlo counterpart of input_atypicality_probability; draws each
    trial's words as ``run_trials`` does and applies the same typicality
    tests the encoder uses, without building codebooks."""
    n_message = _message_length(spec, n)
    u_box = count_box(spec.p_u.values, n_message, delta)
    kx = spec.p_xk.reorder((spec.k_axis.name, spec.x_axis.name)).values.ravel()
    kx_box = count_box(kx, n, delta)
    bad = 0
    for t in range(trials):
        _, u, x, k = _draw_trial(spec, n_message, n, seed, t)
        ok_u = u_box.contains(np.bincount(u, minlength=spec.u_axis.size))
        ok_kx = kx_box.contains(np.bincount(k * spec.x_axis.size + x, minlength=kx.size))
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
    extras: dict[str, float] = field(default_factory=dict)


def _mass_table() -> defaultdict:
    """Unnormalized masses by key, then by outcome, each in first-seen order
    (``_entropy_of_rows`` sums them in that order)."""
    return defaultdict(lambda: defaultdict(float))


def _entropy_of_rows(table: dict) -> float:
    """Sum over keys of P(key) H(outcome | key), from unnormalized masses,
    each key's masses added left to right as ``_mean`` adds."""
    h = 0.0
    for outcomes in table.values():
        p_key = 0.0
        for p in outcomes.values():
            p_key += p
        if p_key <= 0:
            continue
        for p in outcomes.values():
            if p > 0:
                q = p / p_key
                h -= p_key * q * math.log2(q)
    return h


def estimate_equivocation(codebooks: CodebookSet) -> EquivocationEstimate:
    """Equivocation of the message word and of the decoded reproduction given
    the composite and forged words, for THIS fixed codebook draw.

    It walks every (message, covertext, key, forgery) realization.  The
    analysis this mirrors averages over the codebook ensemble, so treat
    single-build numbers as conditional on the draw, and average the
    estimates of seeded rebuilds with ``ensemble_mean``.

    The enumeration does each piece of work once per word it depends on:
    - once per message word u: its typicality and rate-distortion index
      (``CodebookSet.message``, recomputed only for a word its cache has
      dropped);
    - once per (x, k) word: a ``WordSearch`` (key record, pair test), and
      the forged words of each distinct stegotext word;
    - once per ``_WORD_CHUNK`` (x, k) words: one ``search_words`` of the
      distinct bins each word's states reach, and one ``decode_many`` of
      the (key, forged word) pairs not decoded yet;
    - once per (u, x, k) state: one ``embed_encode`` call and the sums,
      word by word in enumeration order.
    """
    spec = codebooks.spec
    n, n_msg = codebooks.n, codebooks.n_message
    u_size = spec.u_axis.size
    xk_size = spec.x_axis.size * spec.k_axis.size
    identity_attack = spec.has_identity_attack()
    z_states = 1 if identity_attack else spec.z_axis.size**n
    cost = u_size**n_msg * xk_size**n * z_states
    if cost > DEFAULT_ENUM_CAP:
        raise ResourceCapError(f"exact enumeration needs {cost} states (> cap {DEFAULT_ENUM_CAP})")

    pu = spec.p_u.values
    pxk = spec.p_xk.values  # (X, K)
    att = spec.attack_matrix

    def words(size: int, length: int) -> Iterator[np.ndarray]:
        """Every word over ``size`` letters, the last position fastest."""
        return (np.array(w, dtype=np.int64) for w in itertools.product(range(size), repeat=length))

    u_words = [(u, float(np.prod(pu[u]))) for u in words(u_size, n_msg)]
    if identity_attack:

        def forged(y: np.ndarray) -> list[tuple[np.ndarray, float]]:
            return [(y, 1.0)]

    else:
        # every forged word, in words() order
        z_all = np.ascontiguousarray(np.indices((spec.z_axis.size,) * n).reshape(n, -1).T)

        def forged(y: np.ndarray) -> list[tuple[np.ndarray, float]]:
            """The forged words of y that have positive probability, each with it."""
            pz = np.prod(att[y, z_all], axis=1)
            keep = np.flatnonzero(pz > 0)
            return list(zip(z_all[keep], pz[keep].tolist()))

    u_rows, uhat_rows, bin_rows, bin_rows_enc = (_mass_table() for _ in range(4))
    enc_path_prob = 0.0
    decode_cache: dict[bytes, bytes] = {}

    xk_words = words(xk_size, n)
    while chunk := list(itertools.islice(xk_words, _WORD_CHUNK)):
        batch = []  # the chunk's (x, k) words of positive probability, with their states
        for xk in chunk:
            x, k = xk // spec.k_axis.size, xk % spec.k_axis.size
            p_xk_word = float(np.prod(pxk[x, k]))
            if p_xk_word != 0.0:
                live = [(u, p_u * p_xk_word) for u, p_u in u_words if p_u * p_xk_word != 0.0]
                batch.append((WordSearch(codebooks, x, k), live))
        search_words(
            codebooks,
            [(w, [w.bin_of(codebooks.message(u))[1] for u, _ in live]) for w, live in batch if w.embeds],
        )
        for i, (word, live) in enumerate(batch):
            states = []
            for u, p_word in live:
                enc = embed_encode(u, word)
                # whether the message is on the encrypted path, read right
                # after the encode that looked its index up
                states.append((u, p_word, enc, word.key is not None and codebooks.message(u) is not None))
            # the forged words of each distinct stegotext word
            ys = {enc.y.tobytes(): enc.y for _, _, enc, _ in states}
            batch[i] = (word, states, {ykey: forged(y) for ykey, y in ys.items()})
        # the chunk's (key, forged word) pairs not decoded yet, decoded at once
        pairs = {w.k.tobytes() + z.tobytes(): (w.k, z) for w, _, fs in batch for zs in fs.values() for z, _ in zs}
        fresh = {dkey: pair for dkey, pair in pairs.items() if dkey not in decode_cache}
        if fresh:
            keys, zs = zip(*fresh.values())
            typical, uhat = decode_many(np.array(zs), np.array(keys), codebooks)
            for dkey, ok, row in zip(fresh, (typical.any(axis=2).sum(axis=1) == 1).tolist(), uhat):
                decode_cache[dkey] = row.tobytes() if ok else b"err"
        for word, states, forgeries in batch:
            kb = word.k.tobytes()
            for u, p_word, enc, u_on_path in states:
                if u_on_path:
                    enc_path_prob += p_word
                ykey = enc.y.tobytes()
                for z, pz in forgeries[ykey]:
                    p = p_word * pz
                    key = ykey + z.tobytes()
                    u_rows[key][u.tobytes()] += p
                    uhat_rows[key][decode_cache[kb + z.tobytes()]] += p
                    bin_rows[ykey][enc.m] += p
                    if u_on_path:
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
        extras=extras,
    )


def ensemble_mean(estimates: Sequence[EquivocationEstimate]) -> tuple[float, float]:
    """The mean per-symbol equivocations of the message word and of its
    reproduction over fixed-codebook estimates."""
    return (
        float(np.mean([e.h_u_given_yz for e in estimates])),
        float(np.mean([e.h_uhat_given_yz for e in estimates])),
    )


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


def bin_multiplicity_audit(codebooks: CodebookSet, gamma: float) -> BinAuditResult:
    """Count, per distinct stegotext word, how many bins contain it.

    Within one representative's code the count is compared against 2^{n
    gamma} (the double-exponential failure event); across type classes the
    polynomial type-counting factor (n+1)^{|K||Y|} enters the bound, and the
    corresponding cap on the encrypted-bin equivocation is reported."""
    sizes = codebooks.sizes
    total = len(codebooks.key_types) * sizes.bins * sizes.m2 * sizes.m3
    if total > DEFAULT_STEGO_AUDIT_CAP:
        raise ResourceCapError(f"audit would scan {total} stegotext words (> cap {DEFAULT_STEGO_AUDIT_CAP})")
    n, bins = codebooks.n, sizes.bins
    max_within = 0
    type_words, type_counts = [], []
    for t in range(len(codebooks.key_types)):
        books, book_of_row = _distinct_stego_books(codebooks, t)
        # each distinct auxiliary row with each bin it lies in
        held = np.unique(book_of_row * bins + np.arange(book_of_row.size) // sizes.m2)
        book_idx, bin_idx = np.divmod(held, bins)
        # each distinct stegotext word with each bin one of its books lies in
        words, word_of = np.unique(books.reshape(-1, n), axis=0, return_inverse=True)
        word_of = word_of.reshape(books.shape[:2])
        word_bins = np.unique(word_of[book_idx] * bins + bin_idx[:, None])
        per_word = np.bincount(word_bins // bins, minlength=len(words))
        max_within = max(max_within, int(per_word.max()))
        type_words.append(words)
        type_counts.append(per_word)
    # across types a word's (type, bin) pairs number its bins summed over types
    _, word_at = np.unique(np.concatenate(type_words), axis=0, return_inverse=True)
    across = np.bincount(word_at.ravel(), weights=np.concatenate(type_counts))
    bound = 2.0 ** (n * gamma)
    k_y = codebooks.k_size * codebooks.y_size
    return BinAuditResult(
        max_bins_per_y=max_within,
        bound=bound,
        passed=max_within <= bound + 1e-9,
        max_bins_across_types=int(across.max()),
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


def compression_audits(codebooks: CodebookSet) -> CompressionAudit:
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
    private_bound = KEYED_CONDITIONS["r_c_prime"].bound(q, lam, r)
    rate_adjust = n_c_rate - (lam * r + sched["r2_target"] + sched["r3_target"])
    private_budget = eps1 + eps2 + 2 * delta + max(0.0, rate_adjust)

    n_keys = sum(_multinomial(n, t.counts) for t in codebooks.key_types)
    if n_keys > DEFAULT_KEY_ENUM_CAP:
        raise ResourceCapError(f"{n_keys} typical keys exceed the enumeration cap {DEFAULT_KEY_ENUM_CAP}")

    count = _distinct_row_count(_typical_key_stego_words(codebooks))
    public_rate = math.log2(count) / n if count else 0.0
    k_y = codebooks.k_size * codebooks.y_size
    delta_prime = (
        eps1
        + eps2
        + delta * (q["H(K)"] + q["H(K|Y)"] + 4.0)
        + k_y * math.log2(n + 1) / n
    )
    public_bound = KEYED_CONDITIONS["r_c"].bound(q, lam, r) + delta_prime + max(0.0, rate_adjust)
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


def _distinct_stego_books(codebooks: CodebookSet, type_idx: int) -> tuple[np.ndarray, np.ndarray]:
    """One type's stegotext books, one per distinct auxiliary row, as a
    (distinct rows, M_3, n) array, and for each row of its auxiliary book
    the index of that row's book.  A book with no word to draw raises
    ``EmptyTypicalSetError``: the audits count every book."""
    rows, book_of_row = np.unique(codebooks.aux_book(type_idx), axis=0, return_inverse=True)
    books, drawn = codebooks.stego_books(type_idx, rows)
    if not drawn.all():
        raise EmptyTypicalSetError(f"a stegotext book of key type {type_idx} has no word to draw")
    return books, book_of_row.ravel()


def _typical_key_stego_words(codebooks: CodebookSet) -> Iterator[np.ndarray]:
    """The stegotext books of all typical keys, a few keys of one type at a
    time as a (rows, keys, n) array: the type's distinct stegotext rows,
    moved from the representative frame to each key's positions."""
    for t_idx, ktype in enumerate(codebooks.key_types):
        books, _ = _distinct_stego_books(codebooks, t_idx)
        rep_mat = np.unique(books.reshape(-1, codebooks.n), axis=0)
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
