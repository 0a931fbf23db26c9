import dataclasses

import numpy as np
import pytest

from secembed import region
from secembed.errors import ValidationError
from secembed.region import AuxChannel, SystemSpec
from secembed.tables import Axis, DistTable, DistortionMeasure

U = Axis("U", 2)
UHAT = Axis("Uhat", 2)
Y2 = Axis("Y", 2)
Z2 = Axis("Z", 2)


def binary_spec(
    x_size=2,
    k_probs=(0.5, 0.5),
    lam=1.0,
    attack=None,
    d_cost=None,
    x_probs=None,
    xk_joint=None,
):
    """Small binary-ish system; defaults to uniform independent everything
    with Hamming distortions and an identity attack."""
    X = Axis("X", x_size)
    K = Axis("K", len(k_probs))
    if xk_joint is None:
        xp = np.asarray(x_probs) if x_probs is not None else np.full(x_size, 1.0 / x_size)
        xk_joint = np.outer(xp, k_probs)
    att = np.eye(2) if attack is None else np.asarray(attack)
    d = (
        DistortionMeasure(X, Y2, d_cost)
        if d_cost is not None
        else DistortionMeasure(X, Y2, 1.0 - np.eye(x_size, 2))
    )
    return SystemSpec(
        p_u=DistTable([U], [0.5, 0.5]),
        p_xk=DistTable([X, K], xk_joint),
        p_z_given_y=DistTable([Y2, Z2], att, given=("Y",)),
        lam=lam,
        d=d,
        d_prime=DistortionMeasure.hamming(U, UHAT),
    )


def copy_embedder_aux(spec, v_probs):
    """V ~ v_probs independent of (K, X), and Y a copy of V."""
    V = Axis("V", len(v_probs))
    vals = np.zeros((spec.k_axis.size, spec.x_axis.size, len(v_probs), spec.y_axis.size))
    for v, p in enumerate(v_probs):
        vals[:, :, v, v] = p
    return AuxChannel(
        DistTable([spec.k_axis, spec.x_axis, V, spec.y_axis], vals, given=("K", "X"))
    )


def noise_aux(spec, y_probs):
    """|V| = 1 and Y drawn from y_probs independently of everything."""
    V = Axis("V", 1)
    vals = np.zeros((spec.k_axis.size, spec.x_axis.size, 1, spec.y_axis.size))
    vals[:, :, 0, :] = np.asarray(y_probs)
    return AuxChannel(
        DistTable([spec.k_axis, spec.x_axis, V, spec.y_axis], vals, given=("K", "X"))
    )


def miss_one_condition(monkeypatch) -> list[str]:
    """Make every keyed-region report miss its last condition by 2e-8 bits,
    inside the optimizer's 1e-6 penalty tolerance; returns the names missed."""
    certify = region.eval_keyed_region
    missed = []

    def short_of_one_bound(*args, **kwargs):
        report = certify(*args, **kwargs)
        name, entry = list(report.conditions.items())[-1]
        report.conditions[name] = dataclasses.replace(entry, slack=-2e-8, satisfied=False)
        missed.append(name)
        return report

    monkeypatch.setattr(region, "eval_keyed_region", short_of_one_bound)
    return missed


def int_to_bits(value, width):
    """Little-endian bits: bit i carries 2**i."""
    return np.array([(value >> i) & 1 for i in range(width)], dtype=np.uint8)


def encrypt(w_bits, s_bits):
    """The bit-level one-time pad, the reference for the simulator's integer
    pad: XOR the first J message bits with the pad; bits J+1..L pass
    through.  An involution together with decrypt."""
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


def sw_bits(books, k_arr):
    """A typical key's pad (``CodebookSet.key(k).pad``) as its J bits."""
    return int_to_bits(books.key(k_arr).pad, books.sizes.j_bits)


def sw_encode(k_seq, books):
    """The key's pre-assigned random bin index as a J-bit string."""
    k_arr = np.asarray(k_seq, dtype=np.int64)
    if books.key(k_arr) is None:
        raise ValidationError("key word is atypical; no bin index is assigned")
    return sw_bits(books, k_arr)


def reference_key(books, k_seq):
    """``CodebookSet.key`` as first written, the reference for the cached
    key records: (type index, order, pad), or None for an atypical key.
    The order is the key's stable argsort, the type is the one whose
    representative the sorted key spells, and the pad is the integer of J
    bits drawn from ``SeedSequence((seed, 3, k.astype(uint32)))``."""
    k_arr = np.asarray(k_seq, dtype=np.int64)
    order = np.argsort(k_arr, kind="stable")
    types = [i for i, t in enumerate(books.key_types) if np.array_equal(t.representative, k_arr[order])]
    if not types:
        return None
    pad_tag = 3
    bits = np.random.default_rng(np.random.SeedSequence((books.seed, pad_tag, k_arr.astype(np.uint32)))).integers(
        0, 2, size=books.sizes.j_bits, dtype=np.uint8
    )
    return types[0], order, sum(int(b) << i for i, b in enumerate(bits))


@pytest.fixture
def trend_spec():
    """Degenerate covertext, uniform binary key and message, message rate
    half the covertext rate; used for the error-decay runs."""
    return binary_spec(x_size=1, lam=0.5, d_cost=[[0.0, 1.0]])


@pytest.fixture
def trend_aux(trend_spec):
    return copy_embedder_aux(trend_spec, [0.5, 0.5])
