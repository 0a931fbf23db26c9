"""Rate-distortion machinery for the message source: the function R_U(D')
via Blahut-Arimoto with a Lagrange-multiplier bisection, and a small
type-covering codebook used by the simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, EmptyTypicalSetError, InfeasibleError, ResourceCapError, ValidationError
from .tables import DistTable, DistortionMeasure, LOG_ZERO_CUTOFF

RATE_TOL = 1e-9
MAX_ITERATIONS = 100_000
# bytes of candidate-to-source distances the cover builds at once; the n=16
# demo build's 3.6 MB of distances are taken in four chunks
_COVER_CHUNK_BYTES = 1 << 20
# candidate x source cells of a cover matrix, one byte each: 3,938 x 3,938
# at 12 binary message symbols fits, 8,008 x 8,008 at 13 does not
COVER_CELL_CAP = 2**24


@dataclass(frozen=True)
class RdSolution:
    rate_bits: float
    test_channel: DistTable  # P(reproduction | source), conditional on the source axis
    distortion: float
    iterations: int


def _channel_rate(p: np.ndarray, w: np.ndarray) -> float:
    """I(U; Uhat) for source p and channel rows w."""
    q = p @ w
    val = 0.0
    for u in range(p.size):
        if p[u] <= LOG_ZERO_CUTOFF:
            continue
        row = w[u]
        m = row > LOG_ZERO_CUTOFF
        if np.any(m):
            val += float(p[u]) * float((row[m] * np.log2(row[m] / q[m])).sum())
    return max(val, 0.0)


def _ba_fixed_slope(p: np.ndarray, cost: np.ndarray, s: float):
    """Inner Blahut-Arimoto loop at slope parameter s (bits per unit
    distortion).  Returns (rate, distortion, channel, iterations)."""
    m_out = cost.shape[1]
    q = np.full(m_out, 1.0 / m_out)
    a = np.exp2(-s * cost)
    prev_rate = np.inf
    for it in range(1, MAX_ITERATIONS + 1):
        denom = a @ q
        w = (q[None, :] * a) / denom[:, None]
        q = p @ w
        rate = _channel_rate(p, w)
        if abs(prev_rate - rate) < RATE_TOL:
            dist = float((p[:, None] * w * cost).sum())
            return rate, dist, w, it
        prev_rate = rate
    raise ConvergenceError(f"Blahut-Arimoto did not converge within {MAX_ITERATIONS} iterations")


def blahut_arimoto(p_u: DistTable, d_prime: DistortionMeasure, target_d: float) -> RdSolution:
    """R_U(D') = min { I(U;Uhat) : E d'(U,Uhat) <= D' } on finite alphabets.

    Below the minimum distortion of any deterministic map the solver returns
    the zero-distortion boundary solution (rate H of the deterministic image)
    rather than failing; at or above the rate-zero distortion it returns the
    best constant reproduction with rate exactly 0.
    """
    if p_u.is_conditional or len(p_u.axes) != 1:
        raise ValidationError("p_u must be a joint PMF over a single axis")
    if p_u.axes[0].size != d_prime.rows.size:
        raise ValidationError("distortion rows must match the source alphabet")
    if target_d < 0:
        raise ValidationError("target distortion must be >= 0")
    p = p_u.values
    cost = d_prime.cost
    axes = (d_prime.rows, d_prime.cols)

    # distortion of the best deterministic map, and of the best constant
    best_col = np.argmin(cost, axis=1)
    d_min = float((p * cost[np.arange(p.size), best_col]).sum())
    const_col = int(np.argmin(p @ cost))
    d_zero = float((p @ cost)[const_col])

    if target_d <= d_min + 1e-12:
        w = np.zeros_like(cost)
        w[np.arange(p.size), best_col] = 1.0
        rate = _channel_rate(p, w)
        ch = DistTable(axes, w, given=(d_prime.rows.name,))
        return RdSolution(rate, ch, d_min, 0)

    if target_d >= d_zero - 1e-12:
        w = np.zeros_like(cost)
        w[:, const_col] = 1.0
        ch = DistTable(axes, w, given=(d_prime.rows.name,))
        return RdSolution(0.0, ch, d_zero, 0)

    total_iters = 0
    s_lo, s_hi = 0.0, 1.0
    rate_hi, dist_hi, w_hi, it = _ba_fixed_slope(p, cost, s_hi)
    total_iters += it
    while dist_hi > target_d:
        s_hi *= 2.0
        if s_hi > 2.0**40:
            raise ConvergenceError("slope bisection failed to bracket the target distortion")
        rate_hi, dist_hi, w_hi, it = _ba_fixed_slope(p, cost, s_hi)
        total_iters += it

    for _ in range(200):
        if target_d - dist_hi < 1e-11:
            break
        mid = 0.5 * (s_lo + s_hi)
        rate_m, dist_m, w_m, it = _ba_fixed_slope(p, cost, mid)
        total_iters += it
        if dist_m > target_d:
            s_lo = mid
        else:
            s_hi, rate_hi, dist_hi, w_hi = mid, rate_m, dist_m, w_m
        if s_hi - s_lo < 1e-13 * (1.0 + s_hi):
            break

    ch = DistTable(axes, w_hi, given=(d_prime.rows.name,))
    return RdSolution(rate_hi, ch, dist_hi, total_iters)


def rd_curve(p_u: DistTable, d_prime: DistortionMeasure, grid) -> list[tuple[float, RdSolution]]:
    """Solve along an ascending grid of distortion targets."""
    grid = [float(g) for g in grid]
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValidationError("distortion grid must be sorted ascending")
    return [(g, blahut_arimoto(p_u, d_prime, g)) for g in grid]


# ---------------------------------------------------------------------------
# covering codebook
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RdCodebook:
    """A fixed-rate cover of the typical source words.

    ``codewords`` has exactly 2**index_bits rows (padded cyclically when the
    greedy cover needs fewer); ``distinct_count`` and ``achieved_rate`` keep
    the pre-padding size visible so downstream rate accounting stays honest.
    """

    codewords: np.ndarray  # (2**index_bits, n_symbols) int64
    n_symbols: int
    index_bits: int
    coverage_delta: float
    target_d: float
    eps_cov: float
    coverage_radius: float
    distinct_count: int
    rate_bits: float  # solver rate R_U(D') used for the budget
    distortion: DistortionMeasure = field(repr=False)

    @property
    def size(self) -> int:
        return self.codewords.shape[0]

    @property
    def budget_bits(self) -> int:
        """Index width the asymptotic rate alone would call for."""
        return max(0, math.ceil(self.n_symbols * self.rate_bits - 1e-9))

    @property
    def achieved_rate(self) -> float:
        return math.log2(self.distinct_count) / self.n_symbols if self.distinct_count else 0.0


def build_rd_codebook(
    p_u: DistTable,
    d_prime: DistortionMeasure,
    target_d: float,
    n_symbols: int,
    delta: float,
    *,
    eps_cov: float = 0.0,
    solution: RdSolution | None = None,
) -> RdCodebook:
    """Greedy set cover of the typical source words at radius
    n (target_d + eps_cov), with candidates restricted to words typical under
    the test-channel output marginal.

    The index width is ceil(log2 of the achieved cover); small-n covers
    routinely overshoot or undershoot the asymptotic budget ceil(n R_U(D')),
    so both are recorded (index_bits vs budget_bits) and the achieved rate
    keeps downstream accounting honest.  Ties always break toward the lowest
    index.
    """
    from .typical import DEFAULT_ENUMERATION_CAP, enumerate_typical  # here, so region math never loads typical

    sol = solution or blahut_arimoto(p_u, d_prime, target_d)
    src = enumerate_typical(p_u, n_symbols, delta)
    if len(src) == 0:
        raise EmptyTypicalSetError(
            f"no typical source words at n={n_symbols}, delta={delta}"
        )
    q_out = p_u.values @ sol.test_channel.conditional_matrix((d_prime.rows.name,), (d_prime.cols.name,))
    q_table = DistTable((d_prime.cols,), q_out / q_out.sum())
    pool = enumerate_typical(q_table, n_symbols, delta)
    radius = n_symbols * (target_d + eps_cov)

    def check_cover_size(n_cands: int) -> None:
        if n_cands * len(src) > COVER_CELL_CAP:
            raise ResourceCapError(
                f"RD cover of {n_cands} candidates x {len(src)} source words exceeds "
                f"the cap of {COVER_CELL_CAP} cells"
            )

    def cover_matrix(cands: np.ndarray) -> np.ndarray:
        # pairwise additive distortion candidates x sources, a chunk of
        # candidates at a time; each distance sums the same axis as at once
        covers = np.empty((len(cands), len(src)), dtype=bool)
        chunk = max(1, _COVER_CHUNK_BYTES // (src.size * 8))
        for start in range(0, len(cands), chunk):
            part = cands[start : start + chunk]
            dists = d_prime.cost[src[None, :, :], part[:, None, :]].sum(axis=2)
            covers[start : start + len(part)] = dists <= radius + 1e-12
        return covers

    check_cover_size(len(pool))
    covers = cover_matrix(pool)
    # gains[i] counts the uncovered sources candidate i covers; a pick
    # subtracts the sources it newly covers from every candidate's gain
    gains = covers.sum(axis=1)
    chosen: list[np.ndarray] = []
    uncovered = np.ones(len(src), dtype=bool)
    extended = False
    while uncovered.any():
        if gains.size == 0 or gains.max() == 0:
            if extended or d_prime.cols.size**n_symbols > DEFAULT_ENUMERATION_CAP:
                raise InfeasibleError(
                    "greedy cover stalled: some typical source words are not "
                    "coverable at this radius; increase eps_cov or delta"
                )
            # fall back to the full reproduction space once
            from itertools import product

            check_cover_size(d_prime.cols.size**n_symbols)
            pool = np.array(
                list(product(range(d_prime.cols.size), repeat=n_symbols)), dtype=np.int64
            )
            covers = cover_matrix(pool)
            gains = covers[:, uncovered].sum(axis=1)
            extended = True
            continue
        best = int(np.argmax(gains))
        chosen.append(pool[best])
        newly = covers[best] & uncovered
        uncovered &= ~newly
        gains -= covers[:, newly].sum(axis=1)

    distinct = len(chosen)
    index_bits = math.ceil(math.log2(distinct)) if distinct > 1 else 0
    size = 1 << index_bits
    rows = np.array(chosen, dtype=np.int64)
    if size > distinct:
        pad = rows[np.arange(size - distinct) % distinct]
        rows = np.vstack([rows, pad])
    return RdCodebook(
        codewords=rows,
        n_symbols=n_symbols,
        index_bits=index_bits,
        coverage_delta=delta,
        target_d=target_d,
        eps_cov=eps_cov,
        coverage_radius=radius,
        distinct_count=distinct,
        rate_bits=sol.rate_bits,
        distortion=d_prime,
    )


def rd_encode(u_seq: np.ndarray, codebook: RdCodebook) -> int | np.ndarray:
    """Index of the minimum-distortion codeword (first index on ties); of
    each row of a (words, n) stack, as an int64 array.  Each row's
    distortions sum the same axis as a single word's."""
    u = np.asarray(u_seq)
    if u.ndim not in (1, 2) or u.shape[-1] != codebook.n_symbols:
        raise ValidationError(f"expected a length-{codebook.n_symbols} word or a stack of them")
    dists = codebook.distortion.cost[u[..., None, :], codebook.codewords].sum(axis=-1)
    best = np.argmin(dists, axis=-1)
    return int(best) if u.ndim == 1 else best

