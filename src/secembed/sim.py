"""Small-blocklength simulation of the layered random-coding construction:
rate-distortion coding of the message, random binning of the key into a
one-time pad, per-key auxiliary bins, stegotext sub-codebooks, a memoryless
attack, and the joint-typicality unique-bin decoder, together with the
counting audits the achievability analysis makes checkable.

Codebooks are stored for one representative key per type class; every other
typical key's codebook is the permutation image of its representative, so
encode/decode permute the query into the representative frame instead of
materializing permuted books.  A search or decode there depends only on the
key's type and the query in that frame, so each embedding search runs once
per (key type, covertext in the frame, bin) and each decode box test once
per (key type, forged word in the frame), shared by every key of the type
and by the trials and the exact enumeration of one build.  All randomness
derives from one integer seed through tagged SeedSequence children, which
makes every run bit-exactly reproducible; the streams of a trial chunk and
of a stack of keys are computed as arrays, bit for bit numpy's.  A run designs its code once (``CodeDesign``): the rate
schedule, the rate-distortion cover, the key types, the typicality boxes
and the samplers depend on no seed.  Each seeded draw of the codebooks
(``build_codebooks``), the run's own and every ensemble rebuild, pays only
for its random books.
"""

from __future__ import annotations

import functools
import math
import warnings
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    EmptyTypicalSetError,
    InfeasibleError,
    ResourceCapError,
    ValidationError,
)
from .rd import blahut_arimoto, build_rd_codebook, rd_encode
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
    _arrangements,
    _compositions,
    _multinomial,
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
# trials whose draws, word set-ups, searches, attacks and decode box tests
# run as one batch, and enumerated (x, k) words whose set-ups, searches,
# forged-word decodes and mass-table entries do
_TRIAL_CHUNK = 64
_WORD_CHUNK = 32
# entries each word-keyed cache of a CodebookSet (keys, message indices,
# stegotext books, embedding searches, decodes) keeps; it drops the least
# recently used beyond that.  An entry is a pure function of (build, word), so a
# dropped one is resolved again the same.  A benchmark job keeps at most
# about 500 keys
_WORD_CACHE_ENTRIES = 1 << 14


class _LruCache(OrderedDict):
    """A mapping that keeps at most ``capacity`` entries, dropping the least
    recently used one when a new one would pass it."""

    def __init__(self, capacity: int):
        super().__init__()
        self.capacity = capacity

    def read(self, key):
        """The entry of ``key``, now the most recently used; KeyError when
        there is none."""
        self.move_to_end(key)
        return self[key]

    def lookup(self, key, make):
        """The entry of ``key``; when there is none, ``make()``, kept."""
        try:
            self.move_to_end(key)
        except KeyError:
            self[key] = make()
            if len(self) > self.capacity:
                self.popitem(last=False)
        return self[key]

    def lookup_many(self, keys: list, make_many) -> list:
        """The entry of each of ``keys``, in order: hits read as ``read``
        reads, the missing keys made by one ``make_many(missing)`` call,
        each key once, and kept by ``lookup``."""
        found = dict.fromkeys(keys)
        missing = []
        for key in found:
            try:
                self.move_to_end(key)
            except KeyError:
                missing.append(key)
            else:
                found[key] = self[key]
        for key, entry in zip(missing, make_many(missing) if missing else ()):
            found[key] = self.lookup(key, lambda: entry)
        return [found[key] for key in keys]


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
    the integer its J drawn bits spell (``_key_pads``); it XORs the low J
    bits of a message index."""

    type_idx: int
    order: np.ndarray
    pad: int


class CodeDesign:
    """The code of one run, everything of it that no seed reads: what the
    single-letter point, n, delta, D' and the widths fix before any codebook
    is drawn.  It holds the composed joint and its quantities, the
    rate-distortion book, the rate schedule and widths (``sizes``), the key
    type classes, the typicality boxes and their (context, value) cell
    bounds, the conditional tables, each key type's auxiliary sampler, and
    one stegotext sampler per joint (k, v) composition, made when a draw
    first needs it.  Every seeded draw of a run (``build_codebooks``) shares
    it.

    The asymptotic rate schedule (auxiliary total, per-bin, stegotext, and
    pad widths as functions of delta) is always computed and recorded; the
    realized bit widths default to the schedule's ceilings but accept
    explicit overrides, since the schedule's slack terms demand blocklengths
    far beyond desk scale.  Overrides are logged in the schedule record.
    Every check of the widths, the key types and the auxiliary sets fails
    here, before any codebook is drawn."""

    def __init__(
        self,
        spec: SystemSpec,
        aux: AuxChannel,
        n: int,
        delta: float,
        d_prime_value: float,
        *,
        m2_bits: int | None = None,
        m3_bits: int | None = None,
        j_bits: int | None = None,
        eps_cov: float = 0.0,
    ):
        self.spec, self.aux, self.n, self.delta = spec, aux, n, delta
        self.joint = joint = compose_system(spec, aux)
        self.quantities = q = system_quantities(spec, aux, joint)
        lam = spec.lam
        self.n_message = _message_length(spec, n)

        self.rd_solution = sol = blahut_arimoto(spec.p_u, spec.d_prime, d_prime_value)
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

        self.rd_codebook = build_rd_codebook(
            spec.p_u, spec.d_prime, d_prime_value, self.n_message, delta, eps_cov=eps_cov, solution=sol
        )
        l_bits = self.rd_codebook.index_bits

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

        self.sizes = SimSizes(
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

        k, x, v, y, z = joint.names
        key_box = count_box(joint.marginal(k).values, n, delta)
        letters = np.arange(spec.k_axis.size)
        comps = _compositions(n, key_box.lo.tolist(), key_box.hi.tolist())
        self.key_types = key_types = [KeyType(c, np.repeat(letters, c)) for c in comps]
        if not key_types:
            raise EmptyTypicalSetError(f"no typical key words at n={n}, delta={delta}")
        # a typical key's letters, sorted, spell its type's representative
        self._type_index = {t.representative.tobytes(): i for i, t in enumerate(key_types)}

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

        # books, and words moved to a representative frame, store letters in
        # letter_dtype; words handed out are int64
        self._x_dtype = letter_dtype(self.x_size)
        self._v_dtype = letter_dtype(self.v_size)
        self._y_dtype = letter_dtype(self.y_size)
        self._z_dtype = letter_dtype(self.z_size)
        self._reps = np.array([t.representative for t in key_types], dtype=np.int64).reshape(-1, n)

        # each key type's auxiliary sampler; an empty conditional set fails the design
        try:
            self.aux_samplers = [
                ConditionalTypicalSampler(t.representative, self.k_size, self._p_v_given_k, delta) for t in key_types
            ]
        except EmptyTypicalSetError as e:
            raise EmptyTypicalSetError(
                f"auxiliary codeword set empty at n={n}, delta={delta}: {e}; increase n or delta"
            ) from e
        self._stego_samplers: dict[bytes, ConditionalTypicalSampler] = {}

    def stego_sampler(self, sorted_kv: np.ndarray) -> ConditionalTypicalSampler:
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


class CodebookSet:
    """One seeded draw of a design's random codes: every key type's
    auxiliary book with its letter masks, drawn at construction, and each
    word's key record, message index, stegotext book, embedding search and
    decode, resolved on first use.  Every fact of the design reads through
    the set: ``books.sizes`` is ``books.design.sizes``."""

    def __init__(self, design: CodeDesign, seed: int):
        self.design = design
        self.seed = seed
        sizes, n = design.sizes, design.n
        # every auxiliary book, drawn in type order, and its packed letter
        # masks, stacked by type so a search can gather rows of many types
        rows = sizes.bins * sizes.m2
        types = len(design.key_types)
        self._aux_books = np.empty((types, rows, n), dtype=design._v_dtype)
        self._aux_masks = np.empty((types, -(-n // 8), design.v_size, rows), dtype=np.uint8)
        for type_idx, sampler in enumerate(design.aux_samplers):
            rng = np.random.default_rng(np.random.SeedSequence((seed, _AUX_TAG, type_idx)))
            self._aux_books[type_idx] = sampler.sample_rows(rng, rows)
            self._aux_masks[type_idx] = _letter_masks(self._aux_books[type_idx], design.v_size)
        # searches hand out views of book rows, so the books are read-only
        self._aux_books.flags.writeable = False
        # the masks with the rows axis split into (bins, M_2): a gather of
        # one bin per search comes out C-contiguous, bin rows last
        self._bin_masks = self._aux_masks.reshape(*self._aux_masks.shape[:-1], sizes.bins, sizes.m2)
        # every per-word fact, resolved on first use: one cache per word kind
        self._keys = _LruCache(_WORD_CACHE_ENTRIES)
        self._messages = _LruCache(_WORD_CACHE_ENTRIES)
        self._stego_books = _LruCache(_WORD_CACHE_ENTRIES)
        self._searches = _LruCache(_WORD_CACHE_ENTRIES)
        self._decodes = _LruCache(_WORD_CACHE_ENTRIES)

    def __getattr__(self, name: str):
        """A fact of the design (called only for names the set lacks)."""
        if name == "design":  # a set made without __init__, as a copy is, has none yet
            raise AttributeError(name)
        return getattr(self.design, name)

    # -- per-word facts ------------------------------------------------------

    def keys(self, k_words: np.ndarray) -> list[Key | None]:
        """The ``Key`` record of each row of a (words, n) stack of key words,
        None where atypical.  The words the cache lacks are resolved by one
        stable argsort, the type of each sorted row and one ``_key_pads``
        call for the typical ones."""
        k_words = np.asarray(k_words, dtype=np.int64)

        def resolve(missing: list[bytes]) -> list[Key | None]:
            words = np.frombuffer(b"".join(missing), dtype=np.int64).reshape(len(missing), self.n)
            orders = np.argsort(words, axis=1, kind="stable")
            orders.flags.writeable = False  # every caller shares the records
            sorted_words = np.take_along_axis(words, orders, axis=1)
            types = [self._type_index.get(letters.tobytes()) for letters in sorted_words]
            typed = [i for i, type_idx in enumerate(types) if type_idx is not None]
            out: list[Key | None] = [None] * len(missing)
            for i, pad in zip(typed, _key_pads(self.seed, words[typed], self.sizes.j_bits)):
                out[i] = Key(types[i], orders[i], pad)
            return out

        return self._keys.lookup_many([k.tobytes() for k in k_words], resolve)

    def key(self, k_arr: np.ndarray) -> Key | None:
        """``keys`` of one word: a cache read, or the one-row case."""
        k_arr = np.asarray(k_arr, dtype=np.int64)
        try:
            return self._keys.read(k_arr.tobytes())
        except KeyError:
            return self.keys(k_arr[None])[0]

    def messages(self, u_words: np.ndarray) -> list[int | None]:
        """The rate-distortion index of each row of a stack of message
        words, None where atypical.  The words the cache lacks are resolved
        by one box test (``_row_counts``) and one ``rd_encode`` stack."""
        u_words = np.asarray(u_words, dtype=np.int64)

        def resolve(missing: list[bytes]) -> list[int | None]:
            words = np.frombuffer(b"".join(missing), dtype=np.int64).reshape(len(missing), self.n_message)
            typical = self.u_box.contains(_row_counts(words, self.spec.u_axis.size))
            out: list[int | None] = [None] * len(missing)
            if typical.any():
                for i, w in zip(np.flatnonzero(typical).tolist(), rd_encode(words[typical], self.rd_codebook).tolist()):
                    out[i] = w
            return out

        return self._messages.lookup_many([u.tobytes() for u in u_words], resolve)

    def message(self, u_arr: np.ndarray) -> int | None:
        """``messages`` of one word: a cache read, or the one-row case."""
        u_arr = np.asarray(u_arr, dtype=np.int64)
        try:
            return self._messages.read(u_arr.tobytes())
        except KeyError:
            return self.messages(u_arr[None])[0]

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
            sampler = self.design.stego_sampler(combined[order])
            entropy = _entropy(self.seed, _STEGO_TAG, type_idx, word=v_rep)
            rng = np.random.default_rng(np.random.SeedSequence(entropy))
            book = np.empty((self.sizes.m3, self.n), dtype=self._y_dtype)
            for r in range(self.sizes.m3):
                book[r, order] = sampler.sample(rng)
            return book

        return self._stego_books.lookup_many([(type_idx, v_rep.tobytes())], lambda _: [draw()])[0]

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


def _message_length(spec: SystemSpec, n: int) -> int:
    """The message blocklength lambda * n at covertext blocklength n; it must
    be a positive integer."""
    n_message = spec.lam * n
    if abs(n_message - round(n_message)) > 1e-9 or n_message < 1:
        raise ValidationError(f"lambda * n = {n_message} must be a positive integer")
    return int(round(n_message))


def build_codebooks(design: CodeDesign, seed: int) -> CodebookSet:
    """Draw one seeded set of a design's codebooks: its auxiliary books and
    their masks, with every word cache empty.  Draws of one design share all
    of its seed-free work, so an ensemble of rebuilds pays only for its
    random draws."""
    return CodebookSet(design, seed)


# ---------------------------------------------------------------------------
# bit plumbing
# ---------------------------------------------------------------------------

# numpy's SeedSequence: its pool of four uint32 words, the hash constants of
# its pool mixing (A) and of its state words (B), and its mixing multipliers
_POOL_SIZE = 4
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
# numpy's PCG64, the 128-bit LCG of XSL-RR 128/64, and its multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


def _entropy(*ints: int, word: np.ndarray | None = None) -> np.ndarray:
    """The tuple (*ints, word as uint32) as ``SeedSequence`` coerces it, in
    one fresh uint32 array (each stream keeps its own as its ``entropy``):
    each int's 32-bit words, least significant first, then one word per
    letter.  It seeds the tuple's stream at about half the tuple's cost."""
    words = []
    for v in ints:
        words.append(v & _M32)
        while v := v >> 32:
            words.append(v & _M32)
    if word is None:
        return np.array(words, dtype=np.uint32)
    return np.concatenate((words, word), dtype=np.uint32, casting="unsafe")


def _headed_rows(head: np.ndarray, tails: np.ndarray) -> np.ndarray:
    """(rows, len(head) + width): the uint32 entropy ``head`` followed by
    each row of a (rows, width) stack of words, one row a stream."""
    heads = np.broadcast_to(head, (len(tails), len(head)))
    return np.concatenate((heads, tails), axis=1, dtype=np.uint32, casting="unsafe")


def _row_counts(cells: np.ndarray, size: int) -> np.ndarray:
    """(rows, size) counts of each row's cells 0 .. size - 1: one bincount,
    row r's cells offset by r * size."""
    offsets = size * np.arange(len(cells))[:, None]
    return np.bincount((cells + offsets).ravel(), minlength=len(cells) * size).reshape(len(cells), size)


@functools.lru_cache(maxsize=None)
def _hash_constants(init: int, mult: int, calls: int) -> tuple[np.ndarray, np.ndarray]:
    """The xor and multiply constants of ``calls`` successive hashmix calls
    from hash constant ``init``: call i xors h_i and multiplies by h_i+1,
    where h_0 = init and h_i+1 = h_i * mult mod 2^32."""
    h = [init]
    for _ in range(calls):
        h.append(h[-1] * mult & _M32)
    return np.array(h[:-1], dtype=np.uint32), np.array(h[1:], dtype=np.uint32)


def _hashmix(values: np.ndarray, xors: np.ndarray, mults: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of uint32 values under broadcast constants."""
    values = (values ^ xors) * mults
    return values ^ values >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of two uint32 pool words, elementwise."""
    out = _MIX_L * x - _MIX_R * y
    return out ^ out >> 16


def _pools(entropy: np.ndarray) -> np.ndarray:
    """The (rows, 4) uint32 pools of ``SeedSequence(row)`` for each row of a
    (rows, L) uint32 entropy array, all rows mixed at once: the hash
    constants of ``mix_entropy`` do not depend on the data, only on L.  Four
    initial hashes (zeros past L), then each pool word hashed into the other
    three, then each entropy word past the fourth into all four: those
    words' hashes read no pool word, so they are one array op."""
    rows, length = entropy.shape
    xors, mults = _hash_constants(_INIT_A, _MULT_A, 16 + _POOL_SIZE * max(0, length - _POOL_SIZE))
    pool = np.zeros((rows, _POOL_SIZE), dtype=np.uint32)
    pool[:, : min(length, _POOL_SIZE)] = entropy[:, :_POOL_SIZE]
    pool = _hashmix(pool, xors[:4], mults[:4])
    step = 4
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        pool[:, dst] = _mix(pool[:, dst], _hashmix(pool[:, src, None], xors[step : step + 3], mults[step : step + 3]))
        step += 3
    hashed = _hashmix(entropy[:, _POOL_SIZE:, None], xors[step:].reshape(-1, 4), mults[step:].reshape(-1, 4))
    for word_hashes in hashed.transpose(1, 0, 2):
        pool = _mix(pool, word_hashes)
    return pool


def _halves(values: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """128-bit ints as their (high, low) uint64 halves."""
    return np.array([v >> 64 for v in values], dtype=np.uint64), np.array([v & _M64 for v in values], dtype=np.uint64)


def _mul_high(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The high 64 bits of the 128-bit products of uint64 arrays, from their
    32-bit limbs."""
    a0, a1, b0, b1 = a & _M32, a >> 32, b & _M32, b >> 32
    p01 = a0 * b1
    mid = (a0 * b0 >> 32) + (p01 & _M32) + a1 * b0
    return a1 * b1 + (p01 >> 32) + (mid >> 32)


def _mul128(a_hi, a_lo, b_hi, b_lo) -> tuple[np.ndarray, np.ndarray]:
    """Products mod 2^128 of 128-bit values held as uint64 halves."""
    return _mul_high(a_lo, b_lo) + a_hi * b_lo + a_lo * b_hi, a_lo * b_lo


@functools.lru_cache(maxsize=None)
def _pcg_jumps(count: int) -> tuple[np.ndarray, ...]:
    """The halves of A_j = M^j and C_j = M^(j-1) + ... + M + 1 mod 2^128
    for j = 2 .. count + 1, M the PCG64 multiplier: j LCG steps take x to
    A_j x + C_j inc."""
    a, c, a_js, c_js = _PCG_MULT, 1, [], []
    for _ in range(count):
        a, c = a * _PCG_MULT & _M128, (c * _PCG_MULT + 1) & _M128
        a_js.append(a)
        c_js.append(c)
    return (*_halves(a_js), *_halves(c_js))


def _raw_words(entropy: np.ndarray, count: int) -> np.ndarray:
    """(rows, count) uint64: ``PCG64(SeedSequence(row)).random_raw(count)``
    of each row of a (rows, L) uint32 entropy array, computed for all rows
    at once with no stream object.

    ``generate_state(4, uint64)`` hashes the pool into the seed s (words 0
    and 1, high first) and the sequence (words 2 and 3); numpy's
    ``pcg64_set_seed`` makes inc = (sequence << 1) | 1 and the state one LCG
    step from s + inc.  Draw k steps the state first, so it reads the state
    k + 1 steps from s + inc, A_k+1 (s + inc) + C_k+1 inc (``_pcg_jumps``),
    through XSL-RR: the two halves xored, rotated right by the top 6 bits."""
    xors, mults = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
    state = _hashmix(np.tile(_pools(entropy), 2), xors, mults).astype(np.uint64)
    words = state[:, 0::2] | state[:, 1::2] << 32
    s_hi, s_lo, q_hi, q_lo = (words[:, i, None] for i in range(4))
    inc_hi, inc_lo = q_hi << 1 | q_lo >> 63, q_lo << 1 | 1
    x_lo = s_lo + inc_lo
    x_hi = s_hi + inc_hi + (x_lo < s_lo)
    a_hi, a_lo, c_hi, c_lo = _pcg_jumps(count)
    (ax_hi, ax_lo), (ci_hi, ci_lo) = _mul128(x_hi, x_lo, a_hi, a_lo), _mul128(inc_hi, inc_lo, c_hi, c_lo)
    lo = ax_lo + ci_lo
    hi = ax_hi + ci_hi + (lo < ax_lo)
    folded, rot = hi ^ lo, hi >> 58
    return folded >> rot | folded << (-rot & 63)


def _uniforms(entropy: np.ndarray, count: int) -> np.ndarray:
    """(rows, count) float64: ``default_rng(SeedSequence(row)).random(count)``
    of each row of a (rows, L) uint32 entropy array: the top 53 bits of each
    raw word, times 2^-53."""
    return (_raw_words(entropy, count) >> 11) * 2.0**-53


def _key_pads(seed: int, k_words: np.ndarray, j_bits: int) -> list[int]:
    """Each typical key word's pad, a row of a (words, n) stack: the integer
    its J bits spell, drawn from the PCG64 stream of ``SeedSequence((seed,
    _SW_TAG, key word as uint32))``, every word's stream at once
    (``_raw_words``); J = 0 derives no stream.  Bit j is the top bit of
    byte j of the stream's raw 64-bit words read little-endian, bit
    8 (j mod 8) + 7 of raw word j // 8, which is exactly bit j of
    ``Generator.integers(0, 2, size=J, dtype=np.uint8)`` on that stream:
    numpy draws those bytes from the buffered uint32 halves of the raw
    words, low half first, by Lemire's method, which for a range of two
    keeps a byte's top bit and rejects none.  So the pad reads the bit
    generator's stream, which numpy keeps stable across versions."""
    if not j_bits or not len(k_words):
        return [0] * len(k_words)
    raw = _raw_words(_headed_rows(_entropy(seed, _SW_TAG), k_words), -(-j_bits // 8))
    bits = raw.astype("<u8").view(np.uint8)[:, :j_bits] >> 7
    return [int.from_bytes(row.tobytes(), "little") for row in np.packbits(bits, axis=1, bitorder="little")]


# ---------------------------------------------------------------------------
# encode / attack / decode
# ---------------------------------------------------------------------------


def _cell_bounds(box: CountBox, shape: tuple[int, ...], value_axis: int) -> tuple[np.ndarray, np.ndarray]:
    """A count box over the row-major cells of ``shape`` as (context, value)
    tables of each cell's lower bound and width: the value axis moved last,
    the other axes flattened row-major into the context.  The tables take
    the smallest unsigned type holding n+1, so a count c in 0..n lies in
    the box when c - lo, wrapping below lo past every width, is at most the
    width; a cell no count can meet gets lo = n+1 and width 0."""
    n = box.n
    lo, hi = np.clip(box.lo, 0, None), np.clip(box.hi, None, n)
    empty = lo > hi
    lo, width = np.where(empty, n + 1, lo), np.where(empty, 0, hi - lo)
    dtype = np.min_scalar_type(n + 1)
    return tuple(
        np.moveaxis(b.reshape(shape), value_axis, -1).reshape(-1, shape[value_axis]).astype(dtype)
        for b in (lo, width)
    )


def _letter_masks(book: np.ndarray, n_val: int) -> np.ndarray:
    """(ceil(n/8), n_val, rows) uint8 bit masks: byte b of the positions
    where each book row holds each letter.  A stack of books (..., rows, n)
    gives a stack of masks (..., ceil(n/8), n_val, rows), as a view.  Each
    row's letter flags are padded with zeros to whole bytes, so the flags of
    every row pack as one flat run of bits (``packbits`` along an axis pays
    per row), and then the byte axis moves."""
    n, width = book.shape[-1], -(-book.shape[-1] // 8) * 8
    letters = np.zeros((*book.shape[:-2], n_val, book.shape[-2], width), dtype=bool)
    np.equal(book[..., None, :, :], np.arange(n_val, dtype=book.dtype)[:, None, None], out=letters[..., :n])
    return np.moveaxis(np.packbits(letters).reshape(*letters.shape[:-1], width // 8), -1, -3)


def _rows_in_boxes(
    masks: np.ndarray, contexts: np.ndarray, bounds: tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """(contexts, rows) boolean table: whether each book row, given as its
    letter masks, has its (context, value) cell counts in the box against
    each context word.  Row r counts cell (c, v) once per position t with
    context[t] == c and book[r, t] == v, and every cell, including those of
    contexts no position has, must lie in its bounds (``_cell_bounds``).

    ``masks`` is one book's masks, tested against every context, or a stack
    of books' masks, one per context, each tested against its own context.
    A count is the popcount of the context's position mask ANDed with the
    row's letter mask, summed over the masks' bytes; the last value
    letter's is the context's position count less the others'.  A kernel
    call ANDs at most ``_BOX_CHUNK_BYTES`` of masks, so longer stacks go in
    chunks."""
    lo, width = bounds
    stacked = masks.ndim == 4
    n_bytes, letters, rows = masks.shape[-3:]
    chunk = max(1, _BOX_CHUNK_BYTES // (lo.shape[0] * n_bytes * max(1, letters - 1) * rows))
    if len(contexts) > chunk:
        starts = range(0, len(contexts), chunk)
        parts = [(masks[s : s + chunk] if stacked else masks, contexts[s : s + chunk]) for s in starts]
        return np.concatenate([_rows_in_boxes(m, c, bounds) for m, c in parts])
    place = np.packbits(contexts[:, None, :] == np.arange(lo.shape[0])[:, None], axis=-1)
    if stacked:
        masks = masks[:, None]
    counts = np.empty((*place.shape[:2], *masks.shape[-2:]), dtype=lo.dtype)
    both = place[:, :, :, None, None] & masks[..., :-1, :]
    np.add.reduce(np.bitwise_count(both, out=both), axis=2, dtype=lo.dtype, out=counts[:, :, :-1])
    positions = np.add.reduce(np.bitwise_count(place), axis=2, dtype=lo.dtype)
    others = np.add.reduce(counts[:, :, :-1], axis=2, dtype=lo.dtype)
    np.subtract(positions[:, :, None], others, out=counts[:, :, -1])
    counts -= lo[:, :, None]
    return np.logical_and.reduce(counts <= width[:, :, None], axis=(1, 2))


@dataclass
class EmbedResult:
    y: np.ndarray
    m: int  # the bin, 1-based: the sent index encrypted by the pad, plus 1
    input_ok: bool
    search_ok: bool
    j: int | None  # the bin's first typical auxiliary row, 0-based: None for e2


def _search_bins(
    codebooks: CodebookSet, types: np.ndarray, x_reps: np.ndarray, bins: np.ndarray
) -> list[tuple[int | None, int | None, bytes | None]]:
    """The embedding search of each (key type, covertext in the type's
    representative frame, bin) triple, given as arrays: the first auxiliary
    row of the bin jointly typical with the (representative, covertext)
    context word, then the first word of that row's stegotext book jointly
    typical with the context.  Each triple's result is (j, j', y): the row
    in the bin, the word in the book and the stegotext word in the
    representative frame, as the bytes of its letters in the books' letter
    dtype, each None from the first failure on.  No typical row is e2; no
    typical word, or a book with no word to draw, is e3.  Triples of any key
    types go together: one box test covers every triple's bin rows, and one
    the rows' books, each against its triple's context."""
    m2 = codebooks.sizes.m2
    contexts = codebooks._reps[types] * codebooks.x_size + x_reps
    # each triple's bin rows as C-contiguous (triples, bytes, letters, rows) masks
    typical = _rows_in_boxes(codebooks._bin_masks[types, :, :, bins - 1], contexts, codebooks.kxv_cells)
    found = np.flatnonzero(typical.any(axis=1))
    j = typical[found].argmax(axis=1)
    v_reps = codebooks._aux_books[types[found], (bins[found] - 1) * m2 + j]
    books, has_book = codebooks.stego_books(types[found], v_reps)
    drawn, books = found[has_book], books[has_book]
    j_prime = np.full(len(types), -1)
    y_reps = np.empty((len(types), codebooks.n), dtype=codebooks._y_dtype)
    if drawn.size:
        hits = _rows_in_boxes(
            _letter_masks(books, codebooks.y_size),
            contexts[drawn] * codebooks.v_size + v_reps[has_book],
            codebooks.kxvy_cells,
        )
        j_prime[drawn] = np.where(hits.any(axis=1), hits.argmax(axis=1), -1)
        y_reps[drawn] = books[np.arange(len(drawn)), j_prime[drawn]]
    out: list = [(None, None, None)] * len(types)
    for i, row in zip(found.tolist(), j.tolist()):
        row_prime = int(j_prime[i])
        out[i] = (row, None, None) if row_prime < 0 else (row, row_prime, y_reps[i].tobytes())
    return out


def embed_in_bin(
    codebooks: CodebookSet, m: int, x_arr: np.ndarray, k_arr: np.ndarray
) -> tuple[np.ndarray | None, str | None, dict]:
    """The embedding unit: scan bin m for the first jointly typical
    auxiliary word, then that word's stegotext book for the first jointly
    typical output.  Returns (y or None, failure event, details), the
    details being the key's type index and order, then the auxiliary word
    in the type's frame and j, then j'.  Works entirely in the
    representative frame, so permuting (x, k) permutes y covariantly.  This
    is the one-bin call of ``search_words``."""
    search = WordSearch(codebooks, x_arr, k_arr)
    if search.key is None:
        return None, "e2", {}
    y, row, row_prime = search.entry(m)
    type_idx = search.key.type_idx
    details = {"type_idx": type_idx, "order": search.key.order}
    if row is not None:
        details.update(v_rep=codebooks._aux_books[type_idx, (m - 1) * codebooks.sizes.m2 + row], j=row)
    if y is None:
        return None, "e2" if row is None else "e3", details
    details["j_prime"] = row_prime
    return y, None, details


class WordSearch:
    """The encoder's work on one (covertext, key) word, done once for every
    message word encoded with it: the key's record (``CodebookSet.key``),
    the (k, x) pair test, the search key ``frame`` (key type, covertext in
    the type's frame as bytes) and each bin's embedding search, kept once
    found as (stegotext word or None, row j, row j'); ``stack`` sets up
    many words, ``search_words`` searches many."""

    def __init__(self, codebooks: CodebookSet, x_seq: np.ndarray, k_seq: np.ndarray):
        """One word's set-up: the one-row case of ``stack``."""
        x, k = (np.asarray(a, dtype=np.int64)[None] for a in (x_seq, k_seq))
        vars(self).update(vars(WordSearch.stack(codebooks, x, k)[0]))

    @classmethod
    def stack(cls, codebooks: CodebookSet, x_words: np.ndarray, k_words: np.ndarray) -> list[WordSearch]:
        """The ``WordSearch`` of each row of (words, n) stacks of covertext
        and key words, in one pass: the keys' records, one pair count and
        the frames gathered by the keys' orders."""
        xs = np.asarray(x_words, dtype=np.int64)
        ks = np.asarray(k_words, dtype=np.int64)
        keys = codebooks.keys(ks)
        pair_cells = ks * codebooks.x_size + xs
        pair_ok = codebooks.kx_box.contains(_row_counts(pair_cells, codebooks.k_size * codebooks.x_size)).tolist()
        frames = [None] * len(keys)
        if typed := [i for i, key in enumerate(keys) if key is not None]:
            orders = np.array([keys[i].order for i in typed])
            x_reps = np.take_along_axis(xs[typed], orders, axis=1).astype(codebooks._x_dtype)
            for i, x_rep in zip(typed, x_reps):
                frames[i] = (keys[i].type_idx, x_rep.tobytes())
        words = []
        for x, k, key, ok, frame in zip(xs, ks, keys, pair_ok, frames):
            word = cls.__new__(cls)
            word.codebooks, word.x, word.k, word.key, word.pair_ok, word.frame = codebooks, x, k, key, ok, frame
            word.embeds = key is not None and ok
            word._found = {}
            words.append(word)
        return words

    def bin_of(self, w: int | None) -> int:
        """The bin (1-based) the encoder embeds message index ``w``
        (``CodebookSet.message``) in, the sent index encrypted by the key's
        pad: an atypical message or key sends the all-zero index in the
        clear."""
        return 1 if w is None or self.key is None else (w ^ self.key.pad) + 1

    def entry(self, m: int) -> tuple[np.ndarray | None, int | None, int | None]:
        """Bin m's search, found once, as the stegotext word (None when the
        search fails), the bin's first typical auxiliary row j (None for
        e2) and the first typical word j' of that row's stegotext book
        (None for e2 and e3).  The key must be typical."""
        if m not in self._found:
            search_words(self.codebooks, [(self, [m])])
        return self._found[m]


def search_words(codebooks: CodebookSet, requests: Iterable[tuple[WordSearch, Iterable[int]]]) -> None:
    """Find the embedding search result of each (word, bins) request in the
    bins its word has none of yet, with typical keys only.  Every typical
    key's book is its type representative's, permuted, so a word's search
    is its representative's: each request becomes a (key type, covertext
    in the type's frame, bin) triple (``WordSearch.frame`` and the bin),
    searched once per build through the codebooks' search cache, a call's
    new triples by one ``_search_bins`` call.  Each word keeps (y, j, j')
    per bin (``WordSearch.entry``), the stegotext word y moved to the key's
    positions: slot t of the frame lands on position order[t]."""
    todo = [(word, m) for word, bins in requests for m in sorted(set(bins) - word._found.keys())]

    def search(missing: list) -> list:
        types, frames, bins = zip(*missing)
        x_reps = np.frombuffer(b"".join(frames), dtype=codebooks._x_dtype).reshape(len(missing), codebooks.n)
        return _search_bins(codebooks, np.array(types), x_reps, np.array(bins))

    results = codebooks._searches.lookup_many([(*word.frame, m) for word, m in todo], search)
    ys = np.empty((len(todo), codebooks.n), dtype=np.int64)
    placed = [i for i, (*_, y_rep) in enumerate(results) if y_rep is not None]
    if placed:
        y_reps = np.frombuffer(b"".join(results[i][2] for i in placed), dtype=codebooks._y_dtype)
        orders = np.array([todo[i][0].key.order for i in placed])
        ys[np.array(placed)[:, None], orders] = y_reps.reshape(len(placed), codebooks.n)
    for (word, m), (row, row_prime, y_rep), y in zip(todo, results, ys):
        word._found[m] = (None if y_rep is None else y, row, row_prime)


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
    m = search.bin_of(w_typical)
    input_ok = w_typical is not None and search.pair_ok  # pair typicality implies key typicality

    y = j = None
    if search.embeds:
        y, j, _ = search.entry(m)
    search_ok = y is not None
    if y is None:
        y = np.zeros(search.codebooks.n, dtype=np.int64)

    return EmbedResult(
        y=y,
        m=m,
        input_ok=input_ok,
        search_ok=search_ok,
        j=j,
    )


def attack(y_seq: np.ndarray, spec: SystemSpec, uniforms: np.ndarray) -> np.ndarray:
    """Memoryless per-symbol attack sampling through ``spec.attack_matrix``
    of one word, or of a (words, n) stack, each letter from its own uniform
    in [0, 1) of ``uniforms``, shaped as the letters."""
    y = np.asarray(y_seq, dtype=np.int64)
    # Generator.choice's table, each row over its total, so no draw passes it
    cum = spec.attack_matrix.cumsum(axis=1)
    cum /= cum[:, -1:]
    # as choice does, a draw on a cumulative entry skips its letter
    return (np.asarray(uniforms)[..., None] >= cum[y]).sum(axis=-1).astype(np.int64)


@dataclass
class DecodeResult:
    uhat: np.ndarray | None
    event: str  # "ok" | "e4" | "e5": one bin found, none, or more
    bin_index: int | None
    rows: tuple[int, ...]  # the auxiliary rows jointly typical with the forgery (``_typical_rows``)


def _one_bin(rows: tuple[int, ...], m2: int) -> int | None:
    """The decoded bin: the one that ascending flat rows (m - 1) * M_2 + j all lie in, or None."""
    return rows[0] // m2 + 1 if rows and rows[0] // m2 == rows[-1] // m2 else None


def _sent_index(m: int | np.ndarray, pad: int | np.ndarray) -> int | np.ndarray:
    """The index bin m (1-based) carries under a key's pad: the inverse of
    ``WordSearch.bin_of``'s (index XOR pad) + 1; ints, or arrays of them."""
    return (m - 1) ^ pad


def _typical_in_frame(codebooks: CodebookSet, type_idx: int, z_reps: np.ndarray) -> np.ndarray:
    """(forgeries, rows): whether each row of a key type's auxiliary book is
    jointly typical with each forged word, given in the type's
    representative frame; one box test."""
    contexts = codebooks.key_types[type_idx].representative * codebooks.z_size + z_reps
    return _rows_in_boxes(codebooks.aux_masks(type_idx), contexts, codebooks.kzv_cells)


def _typical_rows(codebooks: CodebookSet, types: Iterable[int], z_reps: np.ndarray) -> list[tuple[int, ...]]:
    """The decode of each (key type, forged word in the type's
    representative frame) pair, given as type indices and a stack of words
    in the forgeries' letter dtype: the ascending flat indices, (m - 1) *
    M_2 + j, of the type's auxiliary rows jointly typical with the word,
    kept in the codebooks' decode memo; a call's new pairs are box-tested
    by one ``_typical_in_frame`` call per key type."""
    pairs = [(t, z.tobytes()) for t, z in zip(types, z_reps)]

    def test(missing: list) -> list:
        rows = {pair: [] for pair in missing}
        for type_idx in dict.fromkeys(t for t, _ in missing):
            group = [pair for pair in missing if pair[0] == type_idx]
            words = np.frombuffer(b"".join(z for _, z in group), dtype=z_reps.dtype).reshape(len(group), -1)
            typical = _typical_in_frame(codebooks, type_idx, words)
            word, row = np.divmod(np.flatnonzero(typical), typical.shape[1])
            for i, r in zip(word.tolist(), row.tolist()):
                rows[group[i]].append(r)
        return [tuple(rows[pair]) for pair in missing]

    return codebooks._decodes.lookup_many(pairs, test)


def decode(z_seq: np.ndarray, k_seq: np.ndarray, codebooks: CodebookSet) -> DecodeResult:
    """Joint-typicality unique-bin decoding of one forged word under a key:
    the forgery, moved into the key type's representative frame, against
    the type's whole auxiliary book, read from the build's decode memo
    (``_typical_rows``), which box-tests it when the memo lacks it (no row
    is typical under an atypical key).  No bin with a typical row is e4,
    two or more e5; one bin m (``_one_bin``) decodes to the rate-distortion
    codeword of index (m - 1) ^ pad."""
    key = codebooks.key(k_seq)
    if key is None:
        return DecodeResult(None, "e4", None, ())
    z_rep = np.asarray(z_seq)[key.order].astype(codebooks._z_dtype)
    rows = _typical_rows(codebooks, [key.type_idx], z_rep[None])[0]
    m = _one_bin(rows, codebooks.sizes.m2)
    if m is None:
        return DecodeResult(None, "e5" if rows else "e4", None, rows)
    return DecodeResult(codebooks.rd_codebook.codewords[_sent_index(m, key.pad)].copy(), "ok", m, rows)


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


def _trial_uniforms(seed: int, trials: range, count: int) -> np.ndarray:
    """(trials, count): the first ``count`` uniforms of each trial t's
    stream, ``default_rng(SeedSequence((seed, _TRIAL_TAG, t))).random``,
    every stream of a range at once (``_uniforms``).  Trial indices below
    2^32 take one entropy word and the others two, so a range crossing
    2^32 is two batches; indices stay below 2^64."""
    head = _entropy(seed, _TRIAL_TAG)
    out = np.empty((len(trials), count))
    for lo, hi, width in ((trials.start, min(trials.stop, 1 << 32), 1), (max(trials.start, 1 << 32), trials.stop, 2)):
        if lo < hi:
            t = np.arange(lo, hi, dtype=np.uint64)[:, None]
            words = t >> np.arange(0, 32 * width, 32, dtype=np.uint64) & _M32
            out[lo - trials.start : hi - trials.start] = _uniforms(_headed_rows(head, words), count)
    return out


def _trial_draws(spec: SystemSpec, n_message: int, n: int, seed: int):
    """The function of a range of trials giving each trial's attack
    uniforms, then its message, covertext and key words, a trial a row: u
    from p(u) and the (x, k) cells from p(x, k) in its (X, K) order.  A
    trial's stream draws lambda n + 2 n uniforms (``_trial_uniforms``): u,
    the cells, then the attack's n.  Each word draw is
    ``Generator.choice(p=)``'s, uniforms searched in its table ``cdf =
    p.cumsum(); cdf /= cdf[-1]``, built here once and without ``choice``'s
    per-call checks of p (the ``DistTable``s were checked at load), and
    each table is searched once a range."""
    cdf_u, cdf_xk = (c / c[-1] for c in (np.cumsum(spec.p_u.values), np.cumsum(spec.p_xk.values)))
    k_size = spec.k_axis.size

    def draw(trials: range):
        uniforms = _trial_uniforms(seed, trials, n_message + 2 * n)
        u = cdf_u.searchsorted(uniforms[:, :n_message], side="right")
        cells = cdf_xk.searchsorted(uniforms[:, n_message : n_message + n], side="right")
        return uniforms[:, n_message + n :], u, cells // k_size, cells % k_size

    return draw


def _trial_event(enc: EmbedResult, dec: DecodeResult, m2: int) -> str:
    """A trial's one event label (``run_trials``), from its encode and its
    decode: e4 and e5 are read against the sent auxiliary row."""
    if not enc.input_ok:
        return "e1" if enc.search_ok else "encode_fallback"
    if not enc.search_ok:
        return "e2" if enc.j is None else "e3"
    if (enc.m - 1) * m2 + enc.j not in dec.rows:  # the sent auxiliary row
        return "e4"
    if dec.bin_index is None:
        return "e5"
    return "none"  # the decoder found bin m alone


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

    Trials go ``_TRIAL_CHUNK`` at a time: the chunk's streams are one
    array pass (``_trial_draws``), each trial drawing u, (x, k) and its
    attack's uniforms from its own stream; the chunk's words are resolved
    as stacks and searched by one ``search_words`` call, and each trial
    encodes; the chunk's attacks and x-y distortions run as array passes,
    and one ``_typical_rows`` call box-tests its forgeries under typical
    keys into the decode memo; then each trial decodes, reading the memo,
    and the clean trials' message distortions are one stacked sum.
    """
    spec, n, n_msg = codebooks.spec, codebooks.n, codebooks.n_message
    draw = _trial_draws(spec, n_msg, n, seed)
    results: list[TrialResult] = []

    for start in range(0, trials, _TRIAL_CHUNK):
        r_attack, us, xs, ks = draw(range(start, min(trials, start + _TRIAL_CHUNK)))
        words = WordSearch.stack(codebooks, xs, ks)
        indices = codebooks.messages(us)
        search_words(codebooks, [(w, [w.bin_of(i)]) for i, w in zip(indices, words) if w.embeds])
        encs = [embed_encode(u, word) for u, word in zip(us, words)]
        ys = np.array([enc.y for enc in encs])
        zs = attack(ys, spec, r_attack)
        d_xy = (spec.d.per_sequence(xs, ys) / n).tolist()
        if typed := [i for i, word in enumerate(words) if word.key is not None]:
            orders = np.array([words[i].key.order for i in typed])
            z_reps = np.take_along_axis(zs[typed], orders, axis=1).astype(codebooks._z_dtype)
            _typical_rows(codebooks, [words[i].key.type_idx for i in typed], z_reps)
        decs = [decode(z, k, codebooks) for z, k in zip(zs, ks)]
        events = [_trial_event(enc, dec, codebooks.sizes.m2) for enc, dec in zip(encs, decs)]
        # the message distortion is measured on clean trials only
        d_uu = [math.nan] * len(events)
        if clean := [i for i, event in enumerate(events) if event == "none"]:
            uhats = np.array([decs[i].uhat for i in clean])
            for i, duu in zip(clean, (spec.d_prime.per_sequence(us[clean], uhats) / n_msg).tolist()):
                d_uu[i] = duu
        for u, x, k, enc, dec, event, z, dxy, duu in zip(us, xs, ks, encs, decs, events, zs, d_xy, d_uu):
            results.append(
                TrialResult(
                    event, event == "none", dxy, duu, enc.search_ok, enc.m, dec.bin_index, u, x, k, enc.y, z, dec.uhat
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
    draw = _trial_draws(spec, n_message, n, seed)
    bad = 0
    for start in range(0, trials, _TRIAL_CHUNK):
        _, u, x, k = draw(range(start, min(trials, start + _TRIAL_CHUNK)))
        ok_u = u_box.contains(_row_counts(u, spec.u_axis.size))
        ok_kx = kx_box.contains(_row_counts(k * spec.x_axis.size + x, kx.size))
        bad += int(np.count_nonzero(~(ok_u & ok_kx)))
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


def _entropy_of_rows(masses: np.ndarray, rows: np.ndarray) -> float:
    """Sum over rows of P(row) H(outcome | row), from the masses of cells
    listed row by row, ``rows`` giving each cell's row as an integer: each
    row's masses added left to right, as ``_mean`` adds, then each term
    -P(row) q log2(q) of a positive mass, with ``math.log2``, in order."""
    p_row = np.zeros(rows.max() + 1 if len(rows) else 0)
    np.add.at(p_row, rows, masses)
    positive = masses > 0
    p_key = p_row[rows[positive]]
    q = masses[positive] / p_key
    terms = p_key * q * np.array([math.log2(v) for v in q.tolist()])
    h = np.zeros(1)
    np.add.at(h, np.zeros(len(terms), dtype=np.intp), -terms)
    return float(h[0])


class _MassTable:
    """Masses by (row, outcome) cell, as integer codes, the outcomes in
    ``low`` .. ``low + span - 1``.  A cell's mass adds its inputs in input
    order, as ``+=`` adds (an ordered ``np.bincount``), and rows and each
    row's cells go in the order first seen."""

    def __init__(self, low: int, span: int):
        self._low, self._span = low, span
        self._cells: list[np.ndarray] = []
        self._masses: list[np.ndarray] = []

    def add(self, rows: np.ndarray, outcomes: np.ndarray, masses: np.ndarray) -> None:
        self._cells.append(rows * self._span + (outcomes - self._low))
        self._masses.append(masses)

    def entropy(self) -> float:
        """``_entropy_of_rows`` of the table."""
        cells, first, cell_of = np.unique(
            np.concatenate([np.zeros(0, dtype=np.int64), *self._cells]), return_index=True, return_inverse=True
        )
        mass = np.bincount(cell_of, weights=np.concatenate([np.zeros(0), *self._masses]), minlength=len(cells))
        seen = np.argsort(first)  # the cells as first seen
        _, row_first, row_of = np.unique(cells[seen] // self._span, return_index=True, return_inverse=True)
        by_row = np.argsort(row_first[row_of], kind="stable")
        return _entropy_of_rows(mass[seen][by_row], row_first[row_of][by_row])


def _words(size: int, length: int, start: int, stop: int) -> np.ndarray:
    """Words start .. stop - 1 of ``length`` letters over ``size``, in
    ``itertools.product`` order, a word a row."""
    index = np.arange(start, stop, dtype=np.int64)
    return index[:, None] // size ** np.arange(length - 1, -1, -1, dtype=np.int64) % size


def estimate_equivocation(codebooks: CodebookSet) -> EquivocationEstimate:
    """Equivocation of the message word and of the decoded reproduction given
    the composite and forged words, for THIS fixed codebook draw.

    It walks every (message, covertext, key, forgery) realization.  The
    analysis this mirrors averages over the codebook ensemble, so treat
    single-build numbers as conditional on the draw, and average the
    estimates of seeded rebuilds with ``ensemble_mean``.

    The (x, k) words of positive probability go ``_WORD_CHUNK`` at a time,
    as arrays, each word's (u, x, k) states in message-word order.  Every
    message word's index is one ``CodebookSet.messages`` stack.  A chunk's
    words are set up by one ``WordSearch.stack`` call and their bins
    searched by one ``search_words`` call, each state encodes
    (``embed_encode``), and one ``_typical_rows`` fill decodes the chunk's
    forged words under typical keys in their key types' frames, through
    the decode memo shared with the build's trials: a word decodes to the
    one bin with a typical row, or none, read through the key's pad.  The
    four mass tables (``_MassTable``) and the encrypted path's probability
    add each (state, forged word) pair's mass in state order, as the
    per-state loop did.
    """
    spec = codebooks.spec
    n, n_msg, m2 = codebooks.n, codebooks.n_message, codebooks.sizes.m2
    u_size, k_size = spec.u_axis.size, spec.k_axis.size
    xk_size = spec.x_axis.size * k_size
    identity_attack = spec.has_identity_attack()
    z_states = 1 if identity_attack else spec.z_axis.size**n
    cost = u_size**n_msg * xk_size**n * z_states
    if cost > DEFAULT_ENUM_CAP:
        raise ResourceCapError(f"exact enumeration needs {cost} states (> cap {DEFAULT_ENUM_CAP})")

    pxk = spec.p_xk.values  # (X, K)
    att = spec.attack_matrix
    # every message word with its probability and rate-distortion index, -1 when atypical
    u_all = _words(u_size, n_msg, 0, u_size**n_msg)
    p_u = np.prod(spec.p_u.values[u_all], axis=1)
    w_u = np.array([-1 if w is None else w for w in codebooks.messages(u_all)], dtype=np.int64)
    z_all = None if identity_attack else _words(spec.z_axis.size, n, 0, z_states)
    # each message index's reproduction as an outcome, one per distinct
    # codeword; a failed decode's outcome is -1
    uhat_of = _unique_rows(codebooks.rd_codebook.codewords)[2]
    bins = codebooks.sizes.bins

    def xk_chunks() -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The (x, k) words of positive probability in ``_words`` order,
        ``_WORD_CHUNK`` at a time, as covertext words, key words and their
        probabilities."""
        total, block = xk_size**n, 64 * _WORD_CHUNK
        for start in range(0, total, block):
            xk = _words(xk_size, n, start, min(total, start + block))
            x, k = xk // k_size, xk % k_size
            p = np.prod(pxk[x, k], axis=1)
            live = np.flatnonzero(p != 0)
            for s in range(0, len(live), _WORD_CHUNK):
                chunk = live[s : s + _WORD_CHUNK]
                yield x[chunk], k[chunk], p[chunk]

    u_rows, uhat_rows = _MassTable(0, len(u_all)), _MassTable(-1, int(uhat_of.max()) + 2)
    bin_rows, bin_rows_enc = _MassTable(1, bins), _MassTable(1, bins)
    enc_path_prob = np.zeros(1)
    y_codes: dict[bytes, int] = {}  # each stegotext word met, numbered

    for x, k, p_xk in xk_chunks():
        words = WordSearch.stack(codebooks, x, k)
        # the chunk's states of positive probability, word by word, each
        # word's message words in order
        word_of, u_of = np.nonzero(p_xk[:, None] * p_u != 0)
        if not len(word_of):
            continue
        p_state = p_xk[word_of] * p_u[u_of]
        types = np.array([-1 if w.key is None else w.key.type_idx for w in words])
        pads = np.array([0 if w.key is None else w.key.pad for w in words])
        orders = np.array([np.arange(n) if w.key is None else w.key.order for w in words])
        # whether each state's message is on the encrypted path, and the
        # bins each word's states reach
        on_path = (types[word_of] >= 0) & (w_u[u_of] >= 0)
        reached = np.where(on_path, (w_u[u_of] ^ pads[word_of]) + 1, 1)
        starts = np.flatnonzero(np.diff(word_of, prepend=-1))
        requests = zip(word_of[starts].tolist(), np.split(reached, starts[1:]))
        search_words(codebooks, [(words[i], ms.tolist()) for i, ms in requests if words[i].embeds])
        encs = [embed_encode(u_all[u], words[i]) for i, u in zip(word_of.tolist(), u_of.tolist())]
        ys = np.array([enc.y for enc in encs])
        ms = np.array([enc.m for enc in encs])
        np.add.at(enc_path_prob, np.zeros(np.count_nonzero(on_path), dtype=np.intp), p_state[on_path])

        # each state's stegotext word, numbered over the whole enumeration,
        # and its forged words of positive probability as (state, forged
        # word) pairs, in state order, each state's in z_all order
        y_keys = _row_keys(ys.astype(codebooks._y_dtype))
        distinct, first, y_of = np.unique(y_keys, return_index=True, return_inverse=True)
        y_code = np.array([y_codes.setdefault(key, len(y_codes)) for key in distinct.tolist()])[y_of]
        if identity_attack:  # a state's one forged word is its stegotext word
            pair_state, z_words, z_of, p_pair = np.arange(len(ys)), ys[first], y_of, p_state
            pair_row = y_code
        else:
            forged = [np.prod(att[y, z_all], axis=1) for y in ys[first]]
            keep = [np.flatnonzero(pz > 0) for pz in forged]
            pair_state = np.repeat(np.arange(len(ys)), [len(keep[d]) for d in y_of.tolist()])
            z_words, z_of = z_all, np.concatenate([keep[d] for d in y_of.tolist()])
            p_pair = p_state[pair_state] * np.concatenate([forged[d][keep[d]] for d in y_of.tolist()])
            pair_row = y_code[pair_state] * z_states + z_of

        # each pair's reproduction: under a typical key, its forged word moved
        # into the key type's frame and decoded through the decode memo, the
        # one bin with a typical row read through the key's pad, else -1
        combos, combo_of = np.unique(word_of[pair_state] * len(z_words) + z_of, return_inverse=True)
        c_word, c_z = np.divmod(combos, len(z_words))
        uhat = np.full(len(combos), -1)
        if (c_typed := np.flatnonzero(types[c_word] >= 0)).size:
            c_word, c_z = c_word[c_typed], c_z[c_typed]
            z_frames = np.take_along_axis(z_words[c_z], orders[c_word], axis=1).astype(codebooks._z_dtype)
            decoded = _typical_rows(codebooks, types[c_word].tolist(), z_frames)
            found = np.array([_one_bin(rows, m2) or 0 for rows in decoded])
            uhat[c_typed] = np.where(found > 0, uhat_of[_sent_index(found, pads[c_word])], -1)

        u_rows.add(pair_row, u_of[pair_state], p_pair)
        uhat_rows.add(pair_row, uhat[combo_of], p_pair)
        pair_y, pair_m, enc_pairs = y_code[pair_state], ms[pair_state], on_path[pair_state]
        bin_rows.add(pair_y, pair_m, p_pair)
        bin_rows_enc.add(pair_y[enc_pairs], pair_m[enc_pairs], p_pair[enc_pairs])

    h_u, h_uhat, h_bin, h_bin_enc = (t.entropy() for t in (u_rows, uhat_rows, bin_rows, bin_rows_enc))
    path_prob = float(enc_path_prob[0])
    extras = {
        "h_u_given_yz_bits": h_u,
        "h_uhat_given_yz_bits": h_uhat,
        "h_bin_given_y": h_bin,
        "h_bin_given_y_encrypted_path": (h_bin_enc / path_prob) if path_prob > 0 else 0.0,
        "encrypted_path_probability": path_prob,
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
        # each distinct auxiliary row with each bin it lies in; a bare np.unique
        # imports numpy.ma (16 ms), the sorting path with return_index does not
        held = np.unique(book_of_row * bins + np.arange(book_of_row.size) // sizes.m2, return_index=True)[0]
        book_idx, bin_idx = np.divmod(held, bins)
        # each distinct stegotext word with each bin one of its books lies in
        words, _, word_of = _unique_rows(books.reshape(-1, n))
        word_of = word_of.reshape(books.shape[:2])
        word_bins = np.unique(word_of[book_idx] * bins + bin_idx[:, None], return_index=True)[0]
        per_word = np.bincount(word_bins // bins, minlength=len(words))
        max_within = max(max_within, int(per_word.max()))
        type_words.append(words)
        type_counts.append(per_word)
    # across types a word's (type, bin) pairs number its bins summed over types
    _, _, word_at = _unique_rows(np.concatenate(type_words))
    across = np.bincount(word_at, weights=np.concatenate(type_counts))
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
    rows, _, book_of_row = _unique_rows(codebooks.aux_book(type_idx))
    books, drawn = codebooks.stego_books(type_idx, rows)
    if not drawn.all():
        raise EmptyTypicalSetError(f"a stegotext book of key type {type_idx} has no word to draw")
    return books, book_of_row


def _typical_key_stego_words(codebooks: CodebookSet) -> Iterator[np.ndarray]:
    """The stegotext books of all typical keys, a few keys of one type at a
    time as a (rows, keys, n) array: the type's distinct stegotext rows,
    moved from the representative frame to each key's positions."""
    for t_idx, ktype in enumerate(codebooks.key_types):
        books, _ = _distinct_stego_books(codebooks, t_idx)
        rep_mat, _, _ = _unique_rows(books.reshape(-1, codebooks.n))
        keys = _arrangements([ktype.counts], codebooks.n, letter_dtype(codebooks.k_size))
        step = max(1, _AUDIT_CHUNK_ROWS // len(rep_mat))
        for start in range(0, len(keys), step):
            # slot i of the representative lands on position order[i] of a key
            order = np.argsort(keys[start : start + step], axis=1, kind="stable")
            yield rep_mat[:, np.argsort(order, axis=1)]


def _row_keys(block: np.ndarray) -> np.ndarray:
    """Each row (the last axis) of an integer array as one byte string, a
    1-D ``np.void`` array, with letters big-endian: rows of unsigned letters
    sort as their byte strings do, and no two rows collide."""
    rows = np.ascontiguousarray(block, dtype=block.dtype.newbyteorder(">")).reshape(-1, block.shape[-1])
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()


def _unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``np.unique(rows, axis=0, return_index=True, return_inverse=True)``
    of a 2-D array of unsigned letters, with a 1-D inverse, sorting each
    row as one byte string (``_row_keys``) instead of field by field."""
    _, index, inverse = np.unique(_row_keys(rows), return_index=True, return_inverse=True)
    return rows[index], index, inverse


def _distinct_row_count(blocks: Iterable[np.ndarray]) -> int:
    """Number of distinct length-n rows (the last axis) across arrays of one
    dtype, keyed by their bytes (``_row_keys``)."""
    seen: set[bytes] = set()
    for block in blocks:
        seen.update(_row_keys(block).tolist())
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
