"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import math
import subprocess
import sys
import time

import numpy as np
import yaml
from scipy import stats

from secembed import sim
from secembed.rd import blahut_arimoto
from secembed.region import (
    RegionPoint,
    attack_free_witness,
    chain_row,
    eval_attack_free_region,
    eval_keyed_region,
    inherent_constraint_check,
    optimize_region,
    random_aux_channel,
    system_quantities,
)
from secembed.tables import Axis, DistTable, DistortionMeasure

from conftest import binary_spec, build_books, copy_embedder_aux, decrypt, encrypt, int_to_bits, noise_aux


def report(num: int, label: str, checks: dict) -> None:
    ok = all(checks.values())
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {num:02d}] {status}  {label}")
    if not ok:
        for name, value in checks.items():
            if not value:
                print(f"    failed: {name}")
    assert ok, f"criterion {num} failed: {[k for k, v in checks.items() if not v]}"


def h2(x):
    return -(x * math.log2(x) + (1 - x) * math.log2(1 - x))


def test_criterion_01_rate_distortion_oracle():
    spec = binary_spec()
    checks = {}
    for d in np.arange(0.05, 0.46, 0.05):
        d = round(float(d), 2)
        t0 = time.perf_counter()
        sol = blahut_arimoto(spec.p_u, spec.d_prime, d)
        elapsed = time.perf_counter() - t0
        checks[f"rate@{d}"] = abs(sol.rate_bits - (1 - h2(d))) < 1e-4
        checks[f"time@{d}"] = elapsed < 1.0
    report(1, "solver matches 1 - h2(D') within 1e-4, under 1 s per point", checks)


def test_criterion_02_region_reduction_identity():
    spec = binary_spec()
    pyx = DistTable([spec.x_axis, spec.y_axis], [[0.7, 0.3], [0.3, 0.7]], given=("X",))
    aux = attack_free_witness(spec, pyx)
    pt = RegionPoint(d=0.3, d_prime=0.25, r_c=1.0, r_c_prime=1.0, h=0.5, h_prime=0.5)
    r4 = eval_keyed_region(spec, aux, pt)
    r2 = eval_attack_free_region(spec, pyx, pt)
    checks = {}
    for k4, k2 in (("a", "a"), ("b", "b"), ("c", "c_i"), ("d", "c_ii"), ("f", "c_iii")):
        checks[f"bound {k4}={k2}"] = abs(r4[k4].bound - r2[k2].bound) <= 1e-9
        checks[f"attained {k4}={k2}"] = abs(r4[k4].attained - r2[k2].attained) <= 1e-9
    res = optimize_region(
        spec,
        {"d_prime": 0.25, "d": 1.0},
        "embedding_rate",
        v_cardinality=3,
        restarts=8,
        seed=7,
    )
    checks["restart budget"] = len(res.restart_values) <= 32
    checks["optimizer within 1e-3 of the collapse value"] = res.value >= 1.0 - 1e-3
    checks["certified"] = res.report.all_satisfied
    report(2, "identity-attack region collapses onto the attack-free one", checks)


def test_criterion_03_chain_inequality():
    spec = binary_spec()
    # widen the composite alphabet to three letters, forgery = composite
    Y3, Z3 = Axis("Y", 3), Axis("Z", 3)
    spec = binary_spec().__class__(
        p_u=spec.p_u,
        p_xk=spec.p_xk,
        p_z_given_y=DistTable([Y3, Z3], np.eye(3), given=("Y",)),
        lam=1.0,
        d=DistortionMeasure(spec.x_axis, Y3, 1.0 - np.eye(2, 3)),
        d_prime=spec.d_prime,
    )
    rng = np.random.default_rng(123)
    checks = {"all 200 rows": True}
    worst = np.inf
    for i in range(200):
        row = chain_row(spec, random_aux_channel(spec, 2, rng))
        worst = min(worst, min(row.slacks))
        if not row.ok:
            checks["all 200 rows"] = False
    checks[f"worst slack {worst:.2e} >= -1e-9"] = worst >= -1e-9
    report(3, "both-links chain holds on 200 random aux channels (2x2x2x3, Z=Y)", checks)


def test_criterion_04_private_watermarking_degeneracy():
    spec = binary_spec(xk_joint=[[0.5, 0.0], [0.0, 0.5]])
    rng = np.random.default_rng(321)
    checks = {}
    worst_a = worst_b = 0.0
    for _ in range(50):
        q = system_quantities(spec, random_aux_channel(spec, 2, rng))
        worst_a = max(worst_a, abs(q["I(V;X|K)"]))
        worst_b = max(worst_b, abs(q["I(X;Y,V|K)"]))
    checks["I(V;X|K) exactly 0 on 50 channels"] = worst_a == 0.0
    checks["I(X;Y,V|K) exactly 0 on 50 channels"] = worst_b == 0.0
    report(4, "key = covertext makes both covertext informations vanish exactly", checks)


def test_criterion_05_simulator_core():
    checks = {}
    # encryption involution, exhaustive over messages for every width <= 12
    rng = np.random.default_rng(1)
    involution_ok = True
    for width in range(1, 13):
        pads = [
            np.zeros(width, np.uint8),
            np.ones(width, np.uint8),
            rng.integers(0, 2, width).astype(np.uint8),
        ]
        for value in range(2**width):
            w = int_to_bits(value, width)
            for s in pads:
                if not np.array_equal(decrypt(encrypt(w, s), s), w):
                    involution_ok = False
    checks["involution exhaustive L<=12"] = involution_ok

    # 1e4 no-attack trials: distortion certificate and clean round trips
    spec = binary_spec(x_size=1, lam=1 / 3, d_cost=[[0.0, 1.0]])
    aux = copy_embedder_aux(spec, [0.75, 0.25])
    books = build_books(
        spec, aux, 12, 0.4, 3, 0.0, m2_bits=5, m3_bits=0, j_bits=2
    )
    agg = sim.run_trials(books, 10_000, 77)
    cert_violations = sum(
        1
        for r in agg.results
        if r.encode_search_ok and r.distortion_xy > agg.distortion_bound + 1e-12
    )
    clean = [r for r in agg.results if r.error_event == "none"]
    roundtrip_ok = all(
        r.message_correct and r.decoded_bin == r.true_bin and r.uhat is not None
        for r in clean
    )
    checks["certificate never violated over 1e4 trials"] = cert_violations == 0
    checks["certificate exercised"] = sum(r.encode_search_ok for r in agg.results) > 5000
    checks["round trip exact on clean trials"] = roundtrip_ok and len(clean) > 0
    report(5, "involution, per-trial distortion certificate, clean round trips", checks)


def test_criterion_06_error_decay_and_input_oracle(trend_spec, trend_aux):
    checks = {}
    err = {}
    for n in (8, 16):
        books = build_books(
            trend_spec, trend_aux, n, 0.6, 11, 0.0, m2_bits=5, m3_bits=0, j_bits=4
        )
        agg = sim.run_trials(books, 500, 101)
        err[n] = round(agg.message_error_rate * 500)
    table = [[err[16], 500 - err[16]], [err[8], 500 - err[8]]]
    pvalue = stats.fisher_exact(table, alternative="greater").pvalue
    checks[f"error(16)={err[16]/500:.3f} not above error(8)={err[8]/500:.3f} (p={pvalue:.3f})"] = (
        pvalue >= 0.05
    )

    p_exact = sim.input_atypicality_probability(trend_spec, 2000, 0.05)
    freq = sim.input_atypicality_frequency(trend_spec, 2000, 0.05, trials=3000, seed=9)
    checks[f"|{freq:.4f} - {p_exact:.4f}| <= 0.02 at n=2000"] = abs(freq - p_exact) <= 0.02
    report(6, "error rate does not grow with blocklength; input-failure oracle", checks)


def test_criterion_07_equivocation_exact_scale():
    checks = {}
    # (i) single bin: the composite word says nothing about the message
    spec = binary_spec(x_size=1, lam=0.5, d_cost=[[0.0, 1.0]])
    aux = copy_embedder_aux(spec, [0.5, 0.5])
    books = build_books(spec, aux, 4, 0.3, 5, 0.5, m2_bits=0, m3_bits=0, j_bits=0)
    est = sim.estimate_equivocation(books)
    checks["single bin: H(U^N|Y,Z)/N == H(U) exactly"] = (
        books.sizes.bins == 1 and est.h_u_given_yz == 1.0
    )

    # (ii) no pad, copy embedder, identity attack, constant key
    spec2 = binary_spec(x_size=1, k_probs=(1.0,), lam=0.5, d_cost=[[0.0, 1.0]])
    aux2 = copy_embedder_aux(spec2, [0.5, 0.5])
    books2 = build_books(spec2, aux2, 4, 0.3, 5, 0.0, m2_bits=0, m3_bits=0, j_bits=0)
    est2 = sim.estimate_equivocation(books2)
    checks["no pad: H(Uhat^N|Y,Z) == 0 exactly"] = est2.h_uhat_given_yz == 0.0

    # (iii) one-time pad over two bins with a bin-blind composite word
    spec3 = binary_spec(x_size=1, lam=0.5, d_cost=[[0.0, 1.0]])
    aux3 = noise_aux(spec3, [0.5, 0.5])
    books3 = build_books(spec3, aux3, 4, 0.3, 5, 0.125, m2_bits=0, m3_bits=0, j_bits=1)
    est3 = sim.estimate_equivocation(books3)
    pad_bits = est3.extras["h_bin_given_y_encrypted_path"]
    checks["uniform pad: bin equivocation"] = (
        books3.sizes.bins == 2 and abs(pad_bits - 1.0) <= 1e-9
    )
    report(7, "exact-enumeration equivocation identities at n=4", checks)


def test_criterion_08_divergence_bound_and_bin_audit():
    checks = {}
    violations = 0
    points = 0
    for n in (5, 10, 20, 50):
        for a in np.linspace(0.05, 0.76, 5):
            for b in np.linspace(float(a) + 0.04, 1.0, 5):
                points += 1
                exact = sim.binary_divergence_exact(2.0 ** (-n * a), 2.0 ** (-n * b))
                if exact < sim.divergence_lower_bound(float(a), float(b), n) - 1e-15:
                    violations += 1
    checks[f"divergence bound on {points}-point grid"] = violations == 0 and points == 100

    spec = binary_spec(x_size=1, lam=0.2, d_cost=[[0.0, 1.0]])
    aux = copy_embedder_aux(spec, [0.5, 0.5])
    failures = 0
    for i in range(100):
        books = build_books(
            spec, aux, 10, 0.2, 1000 + i, 0.0, m2_bits=7, m3_bits=0, j_bits=1
        )
        audit = sim.bin_multiplicity_audit(books, 0.5)
        if not audit.passed:
            failures += 1
    checks["bin multiplicity <= 2^(n gamma) over 100 rebuilds"] = failures == 0
    report(8, "divergence lower bound and bin-multiplicity audit", checks)


def test_criterion_09_compression_audits(trend_spec, trend_aux):
    checks = {}
    runs = {
        "decay spec n=8": build_books(
            trend_spec, trend_aux, 8, 0.6, 11, 0.0, m2_bits=5, m3_bits=0, j_bits=4
        ),
        "decay spec n=12": build_books(
            trend_spec, trend_aux, 12, 0.6, 11, 0.0, m2_bits=5, m3_bits=0, j_bits=4
        ),
    }
    spec_a = binary_spec(x_size=1, lam=0.2, d_cost=[[0.0, 1.0]])
    runs["audit spec n=10"] = build_books(
        spec_a, copy_embedder_aux(spec_a, [0.5, 0.5]), 10, 0.2, 21, 0.0,
        m2_bits=7, m3_bits=0, j_bits=1,
    )
    for name, books in runs.items():
        comp = sim.compression_audits(books)
        checks[f"{name}: composite-count rate"] = (
            comp.n_c_rate <= comp.private_bound + comp.private_slack_budget + 1e-9
        )
        checks[f"{name}: distinct-stego rate"] = (
            comp.public_distinct_rate <= comp.public_bound + 1e-9
        )

    spec = binary_spec()
    for objective in ("embedding_rate", "h"):
        res = optimize_region(
            spec, {"d_prime": 0.25, "d": 1.0}, objective, v_cardinality=2, restarts=4, seed=5
        )
        ok, slack = inherent_constraint_check(spec, res.aux, 0.25)
        checks[f"optimizer output ({objective}) satisfies the counting constraint"] = (
            ok and slack >= -1e-9
        )
    report(9, "compression audits and counting constraint on optimizer outputs", checks)


SYSTEM_DOC = {
    "alphabets": {
        "U": ["u0", "u1"],
        "X": ["x0"],
        "K": ["k0", "k1"],
        "Y": ["y0", "y1"],
        "Z": ["z0", "z1"],
        "Uhat": ["u0", "u1"],
    },
    "lambda": 0.5,
    "message_source": [0.5, 0.5],
    "covertext_key": [[0.5, 0.5]],
    "attack": [[1.0, 0.0], [0.0, 1.0]],
    "embedding_distortion": [[0.0, 1.0]],
    "message_distortion": [[0.0, 1.0], [1.0, 0.0]],
}

AUX_DOC = {
    "v": ["v0", "v1"],
    "table": [[[[0.5, 0.0], [0.0, 0.5]]], [[[0.5, 0.0], [0.0, 0.5]]]],
}


def test_criterion_10_cli_determinism(tmp_path):
    (tmp_path / "sys.yaml").write_text(yaml.safe_dump(SYSTEM_DOC))
    (tmp_path / "aux.yaml").write_text(yaml.safe_dump(AUX_DOC))

    def run(args):
        return subprocess.run(
            [sys.executable, "-m", "secembed.cli", *args], capture_output=True, text=True
        )

    checks = {}
    sim_args = [
        "simulate", "--spec", str(tmp_path / "sys.yaml"), "--aux", str(tmp_path / "aux.yaml"),
        "--n", "8", "--trials", "60", "--delta", "0.6", "--dprime", "0.0", "--seed", "5",
        "--m2-bits", "5", "--m3-bits", "0", "--j-bits", "2",
    ]
    r1 = run(sim_args + ["--out", str(tmp_path / "a")])
    r2 = run(sim_args + ["--out", str(tmp_path / "b")])
    checks["simulate runs"] = r1.returncode == 0 and r2.returncode == 0
    for suffix in ("_trials.csv", "_summary.csv"):
        checks[f"simulate{suffix} byte-identical"] = (
            (tmp_path / f"a{suffix}").read_bytes() == (tmp_path / f"b{suffix}").read_bytes()
        )

    rd_args = ["rd", "--spec", str(tmp_path / "sys.yaml"), "--grid", "0.05,0.1,0.2"]
    run(rd_args + ["--out", str(tmp_path / "r1")])
    run(rd_args + ["--out", str(tmp_path / "r2")])
    checks["rd byte-identical"] = (
        (tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()
    )

    opt_args = [
        "region-opt", "--spec", str(tmp_path / "sys.yaml"), "--objective", "h_prime",
        "--fix", "d_prime=0.125,d=1.0", "--restarts", "3", "--v-cardinality", "2", "--seed", "4",
    ]
    run(opt_args + ["--out", str(tmp_path / "o1")])
    run(opt_args + ["--out", str(tmp_path / "o2")])
    checks["region-opt byte-identical"] = (
        (tmp_path / "o1_summary.csv").read_bytes() == (tmp_path / "o2_summary.csv").read_bytes()
    )
    report(10, "identical config and seed reproduce artifacts byte for byte", checks)
