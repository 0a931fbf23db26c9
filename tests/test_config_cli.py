import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from secembed import cli, sim
from secembed.config import (
    COMMANDS,
    RunConfig,
    aux_to_mapping,
    load_aux,
    load_system,
    parse_config,
    read_text,
    stable_hash,
)
from secembed.errors import ValidationError
from secembed.region import COORDINATES, AuxChannel, RegionPoint, optimize_region

from conftest import miss_one_condition

SYSTEM = {
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

AUX = {
    "v": ["v0", "v1"],
    "table": [
        [[[0.5, 0.0], [0.0, 0.5]]],
        [[[0.5, 0.0], [0.0, 0.5]]],
    ],
}

WIDE_SYSTEM = {
    "alphabets": {
        "U": ["a", "b"],
        "X": ["x0", "x1"],
        "K": ["k0", "k1"],
        "Y": ["y0", "y1", "y2"],
        "Z": ["z0", "z1", "z2"],
        "Uhat": ["a", "b"],
    },
    "lambda": 1.0,
    "message_source": [0.25, 0.75],
    "covertext_key": [[0.125, 0.25], [0.375, 0.25]],
    "attack": [[0.8, 0.1, 0.1], [0.05, 0.9, 0.05], [0.2, 0.2, 0.6]],
    "embedding_distortion": [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0]],
    "message_distortion": [[0.0, 1.0], [1.0, 0.0]],
}


class TestSystemLoading:
    def test_minimal_rd_config(self):
        cfg = parse_config(yaml.safe_dump({"command": "rd", "system": SYSTEM, "grid": [0.1, 0.2]}))
        assert cfg.command == "rd"
        assert cfg.grid == [0.1, 0.2]
        assert cfg.system.spec.lam == 0.5

    def test_missing_seed_named(self):
        doc = {"command": "simulate", "system": SYSTEM, "aux": AUX, "n": 8,
               "trials": 10, "delta": 0.6, "d_prime": 0.0}
        with pytest.raises(ValidationError, match="seed"):
            parse_config(yaml.safe_dump(doc))

    @pytest.mark.parametrize("field,value", [("restarts", 0), ("restarts", -1), ("rebuilds", 0)])
    def test_counts_below_one_rejected(self, field, value):
        doc = {"command": "region-opt", "system": SYSTEM, "objective": "h",
               "fixed": {"d_prime": 0.25}, "seed": 0, field: value}
        with pytest.raises(ValidationError, match=field):
            parse_config(yaml.safe_dump(doc))

    def test_absent_or_null_counts_keep_defaults(self):
        doc = {"command": "region-opt", "system": SYSTEM, "objective": "h",
               "fixed": {"d_prime": 0.25}, "seed": 0, "rebuilds": None}
        cfg = parse_config(yaml.safe_dump(doc))
        assert (cfg.restarts, cfg.rebuilds) == (32, 1)

    def test_bad_table_named(self):
        bad = dict(SYSTEM, message_source=[0.6, 0.6])
        with pytest.raises(ValidationError, match="message_source"):
            load_system(bad)

    def test_conditional_slice_named(self):
        bad = dict(SYSTEM, attack=[[0.9, 0.2], [0.0, 1.0]])
        with pytest.raises(ValidationError, match="attack"):
            load_system(bad)

    def test_parse_error_carries_location(self):
        with pytest.raises(ValidationError, match="line"):
            parse_config("command: [unclosed")

    @pytest.mark.parametrize(
        "table, value",
        [
            ("message_source", [0.5 + 1e-10, 0.5]),
            ("attack", [[1.0, 0.0], [1e-10, 1.0]]),
        ],
    )
    def test_tolerance_is_the_tables_one(self, table, value):
        # off by less than 1e-9 but more than 1e-12: named, not generic
        with pytest.raises(ValidationError, match=table):
            load_system(dict(SYSTEM, **{table: value}))

    def test_no_renormalization(self):
        bad = dict(SYSTEM, message_source=[0.499, 0.5])
        with pytest.raises(ValidationError):
            load_system(bad)

    def test_roundtrip_identity(self):
        sc1 = load_system(WIDE_SYSTEM)
        dumped = sc1.to_mapping()
        sc2 = load_system(dumped)
        assert sc2.to_mapping() == dumped
        assert stable_hash(dumped) == stable_hash(sc2.to_mapping())

    def test_aux_shape_checked(self):
        spec = load_system(SYSTEM).spec
        bad = {"v": ["v0"], "table": [[[[0.5, 0.5]]]]}
        with pytest.raises(ValidationError, match="aux"):
            load_aux(bad, spec)


def run_cli(args, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "secembed.cli", *args], capture_output=True, text=True, timeout=timeout
    )


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "sys.yaml").write_text(yaml.safe_dump(SYSTEM))
    (tmp_path / "aux.yaml").write_text(yaml.safe_dump(AUX))
    return tmp_path


class TestCli:
    def test_rd_matches_library(self, workdir):
        out = workdir / "rd"
        r = run_cli(["rd", "--spec", str(workdir / "sys.yaml"), "--grid", "0.1,0.2", "--out", str(out)])
        assert r.returncode == 0, r.stderr
        lines = (workdir / "rd.csv").read_text().splitlines()
        assert lines[0].startswith("# manifest=")
        assert lines[1] == "d_prime,rate_bits,distortion,iterations"
        from secembed.rd import rd_curve

        spec = load_system(SYSTEM).spec
        expected = rd_curve(spec.p_u, spec.d_prime, [0.1, 0.2])
        got = [float(l.split(",")[1]) for l in lines[2:]]
        assert got == pytest.approx([sol.rate_bits for _, sol in expected], abs=1e-12)

    def test_simulate_deterministic(self, workdir):
        args = [
            "simulate", "--spec", str(workdir / "sys.yaml"), "--aux", str(workdir / "aux.yaml"),
            "--n", "8", "--trials", "40", "--delta", "0.6", "--dprime", "0.0", "--seed", "5",
            "--m2-bits", "5", "--m3-bits", "0", "--j-bits", "2",
        ]
        r1 = run_cli(args + ["--out", str(workdir / "s1")])
        r2 = run_cli(args + ["--out", str(workdir / "s2")])
        assert r1.returncode == 0, r1.stderr
        assert r2.returncode == 0
        assert (workdir / "s1_trials.csv").read_bytes() == (workdir / "s2_trials.csv").read_bytes()
        assert (workdir / "s1_summary.csv").read_bytes() == (workdir / "s2_summary.csv").read_bytes()

    def test_manifest_written_and_embedded(self, workdir):
        out = workdir / "m"
        r = run_cli(["rd", "--spec", str(workdir / "sys.yaml"), "--grid", "0.1", "--out", str(out)])
        assert r.returncode == 0
        manifest = json.loads((workdir / "m.manifest.json").read_text())
        digest = stable_hash({k: v for k, v in manifest.items() if k != "out"})
        first = (workdir / "m.csv").read_text().splitlines()[0]
        assert first == f"# manifest={digest}"
        assert "random_stream" not in manifest  # only simulate and audit draw codebooks

    def test_rerun_from_manifest_reproduces(self, workdir):
        args = [
            "simulate", "--spec", str(workdir / "sys.yaml"), "--aux", str(workdir / "aux.yaml"),
            "--n", "8", "--trials", "30", "--delta", "0.6", "--dprime", "0.0", "--seed", "6",
            "--m2-bits", "5", "--m3-bits", "0", "--j-bits", "2", "--out", str(workdir / "orig"),
        ]
        assert run_cli(args).returncode == 0
        assert json.loads((workdir / "orig.manifest.json").read_text())["random_stream"] == 2
        original = (workdir / "orig_trials.csv").read_bytes()
        (workdir / "orig_trials.csv").unlink()
        r = run_cli(["run", str(workdir / "orig.manifest.json")])
        assert r.returncode == 0, r.stderr
        assert (workdir / "orig_trials.csv").read_bytes() == original

    def test_run_rejects_another_random_stream(self, workdir, capsys):
        doc = {"command": "simulate", "system": SYSTEM, "aux": AUX, "n": 8, "trials": 5,
               "delta": 0.6, "d_prime": 0.0, "seed": 6, "out": str(workdir / "x")}
        manifest = parse_config(yaml.safe_dump(doc)).manifest()
        assert manifest["random_stream"] == 2
        (workdir / "old.manifest.json").write_text(json.dumps({**manifest, "random_stream": 1}))
        assert cli.main(["run", str(workdir / "old.manifest.json")]) == cli.EXIT_VALIDATION
        assert "'random_stream' is 1, but this version draws codebooks from stream 2" in capsys.readouterr().err
        assert not list(workdir.glob("x*"))

    def test_missing_seed_exit_code(self, workdir):
        r = run_cli([
            "simulate", "--spec", str(workdir / "sys.yaml"), "--aux", str(workdir / "aux.yaml"),
            "--n", "8", "--trials", "10", "--delta", "0.6", "--dprime", "0.0",
            "--out", str(workdir / "x"),
        ])
        assert r.returncode == 2
        assert "validation" in r.stderr

    @pytest.mark.parametrize(
        "args",
        [
            ["region-opt", "--objective", "h", "--fix", "d_prime=0.25", "--restarts", "0"],
            ["region-opt", "--objective", "h", "--fix", "d_prime=0.25", "--restarts", "-1"],
            ["audit", "--n", "10", "--delta", "0.2", "--gamma", "0.5", "--dprime", "0.0",
             "--rebuilds", "0"],
            ["simulate", "--n", "8", "--trials", "10", "--delta", "0.6", "--dprime", "0.0", "--m2-bits", "-1",
             "--m3-bits", "0", "--j-bits", "2"],
            ["simulate", "--n", "8", "--trials", "10", "--delta", "0.6", "--dprime", "0.0", "--m3-bits", "-1"],
            ["simulate", "--n", "8", "--trials", "10", "--delta", "0.6", "--dprime", "0.0", "--j-bits", "-1"],
            ["simulate", "--n", "8", "--trials", "-5", "--delta", "0.6", "--dprime", "0.0"],
            ["simulate", "--n", "0", "--trials", "10", "--delta", "0.6", "--dprime", "0.0"],
        ],
        ids=["restarts-0", "restarts-negative", "rebuilds-0", "m2-bits-negative", "m3-bits-negative",
             "j-bits-negative", "trials-negative", "n-0"],
    )
    def test_counts_below_one_exit_code(self, workdir, args, capsys):
        code = cli.main([
            args[0], "--spec", str(workdir / "sys.yaml"), "--aux", str(workdir / "aux.yaml"),
            *args[1:], "--seed", "1", "--out", str(workdir / "x"),
        ])
        assert code == cli.EXIT_VALIDATION
        assert "validation" in capsys.readouterr().err
        assert not list(workdir.glob("x*"))

    @pytest.mark.parametrize(
        "args",
        [
            ["simulate", "--aux", "aux.yaml", "--n", "8", "--trials", "10", "--delta", "0.6",
             "--dprime", "0.0", "--m2-bits", "5", "--m3-bits", "0", "--j-bits", "2"],
            ["region-opt", "--objective", "h", "--fix", "d_prime=0.25"],
        ],
        ids=["simulate", "region-opt"],
    )
    def test_negative_seed_exit_code(self, workdir, args, capsys):
        args = [str(workdir / a) if a.endswith(".yaml") else a for a in args]
        code = cli.main([
            args[0], "--spec", str(workdir / "sys.yaml"), *args[1:],
            "--seed", "-1", "--out", str(workdir / "x"),
        ])
        assert code == cli.EXIT_VALIDATION
        assert "'seed' must be non-negative" in capsys.readouterr().err
        assert not list(workdir.glob("x*"))

    def test_run_file_negative_seed_exit_code(self, workdir, capsys):
        doc = {"command": "region-opt", "system": SYSTEM, "objective": "h",
               "fixed": {"d_prime": 0.25}, "seed": -1, "out": str(workdir / "x")}
        (workdir / "run.yaml").write_text(yaml.safe_dump(doc))
        assert cli.main(["run", str(workdir / "run.yaml")]) == cli.EXIT_VALIDATION
        assert "'seed' must be non-negative" in capsys.readouterr().err
        assert not list(workdir.glob("x*"))

    def test_run_file_counts_below_one_exit_code(self, workdir, capsys):
        doc = {"command": "region-opt", "system": SYSTEM, "objective": "h",
               "fixed": {"d_prime": 0.25}, "seed": 0, "restarts": 0, "out": str(workdir / "x")}
        (workdir / "run.yaml").write_text(yaml.safe_dump(doc))
        assert cli.main(["run", str(workdir / "run.yaml")]) == cli.EXIT_VALIDATION
        assert "restarts" in capsys.readouterr().err

    def test_unknown_fixed_coordinate_exit_code(self, workdir, capsys):
        code = cli.main([
            "region-opt", "--spec", str(workdir / "sys.yaml"), "--objective", "embedding_rate",
            "--fix", "d_prime=0.25,rc=0.01", "--seed", "0", "--out", str(workdir / "x"),
        ])
        assert code == cli.EXIT_VALIDATION
        assert "'rc'" in capsys.readouterr().err
        assert not list(workdir.glob("x*"))  # no CSVs and no manifest

    def test_run_file_unknown_fixed_coordinate_exit_code(self, workdir, capsys):
        doc = {"command": "region-opt", "system": SYSTEM, "objective": "embedding_rate",
               "fixed": {"d_prime": 0.25, "rc": 0.01}, "seed": 0, "out": str(workdir / "x")}
        (workdir / "run.yaml").write_text(yaml.safe_dump(doc))
        assert cli.main(["run", str(workdir / "run.yaml")]) == cli.EXIT_VALIDATION
        assert "'rc'" in capsys.readouterr().err
        assert not list(workdir.glob("x*"))

    def test_infeasible_exit_code(self, workdir, tmp_path):
        # |V| = 1 with Y = const makes the counting constraint fail
        aux = {"v": ["v0"], "table": [[[[1.0, 0.0]]], [[[1.0, 0.0]]]]}
        (tmp_path / "aux1.yaml").write_text(yaml.safe_dump(aux))
        r = run_cli([
            "simulate", "--spec", str(workdir / "sys.yaml"), "--aux", str(tmp_path / "aux1.yaml"),
            "--n", "8", "--trials", "10", "--delta", "0.6", "--dprime", "0.0", "--seed", "1",
            "--m2-bits", "0", "--m3-bits", "0", "--j-bits", "0", "--out", str(workdir / "x"),
        ])
        assert r.returncode == 3
        assert "infeasible" in r.stderr
        assert not list(workdir.glob("x*"))  # no CSVs and no manifest

    def test_uncertified_optimum_exit_code(self, workdir, monkeypatch, capsys):
        # the optimizer's point fails its own report: exit 3 and write nothing
        miss_one_condition(monkeypatch)
        code = cli.main([
            "region-opt", "--spec", str(workdir / "sys.yaml"), "--objective", "h",
            "--fix", "d_prime=0.25", "--restarts", "2", "--seed", "1", "--out", str(workdir / "x"),
        ])
        assert code == cli.EXIT_INFEASIBLE
        assert "infeasible" in capsys.readouterr().err
        assert not list(workdir.glob("x*"))  # no CSVs and no manifest

    def test_resource_cap_exit_code(self, workdir):
        r = run_cli([
            "simulate", "--spec", str(workdir / "sys.yaml"), "--aux", str(workdir / "aux.yaml"),
            "--n", "8", "--trials", "10", "--delta", "0.6", "--dprime", "0.0", "--seed", "1",
            "--m2-bits", "40", "--m3-bits", "0", "--j-bits", "0", "--out", str(workdir / "x"),
        ])
        assert r.returncode == 4
        assert "resource-cap" in r.stderr
        assert not list(workdir.glob("x*"))

    def test_enumeration_cap_after_trials_writes_nothing(self, workdir):
        # the trials run; the exact enumeration over 2^9 * 2^18 states then hits its cap
        r = run_cli([
            "simulate", "--spec", str(workdir / "sys.yaml"), "--aux", str(workdir / "aux.yaml"),
            "--n", "18", "--trials", "2", "--delta", "0.6", "--dprime", "0.0", "--seed", "1",
            "--m2-bits", "0", "--m3-bits", "0", "--j-bits", "0", "--exact-equivocation",
            "--out", str(workdir / "x"),
        ])
        assert r.returncode == 4
        assert "exact enumeration" in r.stderr
        assert not list(workdir.glob("x*"))  # no trials CSV and no manifest

    def test_rd_cover_cap_writes_nothing(self, tmp_path):
        # lambda n = 15 message symbols: the 31,616 x 31,616 RD cover matrix,
        # 1 GB of booleans, is refused before it is built
        configs = Path(__file__).parents[1] / "configs"
        r = run_cli([
            "simulate", "--spec", str(configs / "demo_system.yaml"), "--aux", str(configs / "demo_aux.yaml"),
            "--n", "30", "--trials", "10", "--delta", "0.6", "--dprime", "0.0", "--seed", "1",
            "--m2-bits", "5", "--m3-bits", "0", "--j-bits", "4", "--out", str(tmp_path / "x"),
        ], timeout=60)
        assert r.returncode == 4
        assert "RD cover of 31616 candidates x 31616 source words" in r.stderr
        assert not list(tmp_path.iterdir())

    def test_key_enumeration_cap_exit_code(self, workdir, tmp_path, monkeypatch, capsys):
        # the bin audit runs; the compression audit's typical keys then pass a lowered cap
        monkeypatch.setattr(sim, "DEFAULT_KEY_ENUM_CAP", 1)
        (tmp_path / "sysa.yaml").write_text(yaml.safe_dump({**SYSTEM, "lambda": 0.2}))
        code = cli.main([
            "audit", "--spec", str(tmp_path / "sysa.yaml"), "--aux", str(workdir / "aux.yaml"),
            "--n", "10", "--delta", "0.2", "--gamma", "0.5", "--dprime", "0.0", "--seed", "2",
            "--m2-bits", "6", "--m3-bits", "0", "--j-bits", "1", "--out", str(workdir / "x"),
        ])
        assert code == cli.EXIT_RESOURCE
        err = capsys.readouterr().err
        assert "resource-cap" in err and "exceed the enumeration cap 1" in err
        assert not list(workdir.glob("x*"))  # no CSVs and no manifest

    def test_region_eval_csv(self, workdir):
        pt = "d=1.0,d_prime=0.25,r_c=2.0,r_c_prime=2.0,h=0.1,h_prime=0.1"
        r = run_cli([
            "region-eval", "--spec", str(workdir / "sys.yaml"), "--aux", str(workdir / "aux.yaml"),
            "--point", pt, "--out", str(workdir / "re"),
        ])
        assert r.returncode == 0, r.stderr
        lines = (workdir / "re_conditions.csv").read_text().splitlines()
        names = [l.split(",")[0] for l in lines[2:]]
        assert names == ["a", "b", "c", "d", "e", "f"]

    def test_run_config_file(self, workdir):
        doc = {
            "command": "simulate",
            "system": SYSTEM,
            "aux": AUX,
            "n": 8,
            "trials": 20,
            "delta": 0.6,
            "d_prime": 0.0,
            "seed": 9,
            "m2_bits": 5,
            "m3_bits": 0,
            "j_bits": 2,
            "out": str(workdir / "viafile"),
        }
        (workdir / "run.yaml").write_text(yaml.safe_dump(doc))
        r = run_cli(["run", str(workdir / "run.yaml")])
        assert r.returncode == 0, r.stderr
        assert (workdir / "viafile_summary.csv").exists()

    def test_extended_region_eval(self, workdir, tmp_path):
        (tmp_path / "tc.yaml").write_text(yaml.safe_dump([[1.0, 0.0], [0.0, 1.0]]))
        pt = "d=1.0,d_prime=0.0,r_c=2.0,r_c_prime=2.0,h=0.1,h_prime=0.1"
        r = run_cli([
            "region-eval", "--spec", str(workdir / "sys.yaml"), "--aux", str(workdir / "aux.yaml"),
            "--point", pt, "--extended", "--test-channel", str(tmp_path / "tc.yaml"),
            "--out", str(workdir / "ext"),
        ])
        assert r.returncode == 0, r.stderr
        lines = (workdir / "ext_conditions.csv").read_text().splitlines()
        names = [l.split(",")[0] for l in lines[2:]]
        assert names == ["a", "b", "c", "d", "e", "f", "g"]

    def test_simulate_exact_equivocation_flag(self, workdir):
        r = run_cli([
            "simulate", "--spec", str(workdir / "sys.yaml"), "--aux", str(workdir / "aux.yaml"),
            "--n", "4", "--trials", "10", "--delta", "0.3", "--dprime", "0.5", "--seed", "2",
            "--m2-bits", "0", "--m3-bits", "0", "--j-bits", "0", "--exact-equivocation",
            "--out", str(workdir / "eq"),
        ])
        assert r.returncode == 0, r.stderr
        text = (workdir / "eq_summary.csv").read_text()
        assert "h_u_given_yz,1.0" in text

    def test_undrawable_stegotext_book_counts_e3(self, workdir):
        # V constant and Y uniform at n=4, delta 0.6: the keys with a single
        # k0 or k1 are typical, but their stegotext books have no word to
        # draw, so their searches fail (e3) instead of ending the run
        noise = {"v": ["v0"], "table": [[[[0.5, 0.5]]], [[[0.5, 0.5]]]]}
        (workdir / "noise.yaml").write_text(yaml.safe_dump(noise))
        r = run_cli([
            "simulate", "--spec", str(workdir / "sys.yaml"), "--aux", str(workdir / "noise.yaml"),
            "--n", "4", "--trials", "20", "--delta", "0.6", "--dprime", "0.0", "--seed", "2",
            "--m2-bits", "1", "--m3-bits", "1", "--j-bits", "1", "--exact-equivocation",
            "--out", str(workdir / "e3"),
        ])
        assert r.returncode == 0, r.stderr
        rows = dict(line.split(",") for line in (workdir / "e3_summary.csv").read_text().splitlines()[2:])
        assert float(rows["freq_e3"]) > 0
        assert "h_u_given_yz" in rows

    def test_sweep_rd_mode_matches_rd(self, workdir):
        a = run_cli(["rd", "--spec", str(workdir / "sys.yaml"), "--grid", "0.1,0.3", "--out", str(workdir / "g1")])
        b = run_cli(["sweep", "--spec", str(workdir / "sys.yaml"), "--grid", "0.1,0.3", "--out", str(workdir / "g2")])
        assert a.returncode == 0 and b.returncode == 0
        # identical except for the embedded manifest line (different command)
        l1 = (workdir / "g1.csv").read_text().splitlines()[1:]
        l2 = (workdir / "g2.csv").read_text().splitlines()[1:]
        assert l1 == l2

    def test_audit_command(self, workdir, tmp_path):
        sysdoc = dict(SYSTEM)
        sysdoc["lambda"] = 0.2
        (tmp_path / "sysa.yaml").write_text(yaml.safe_dump(sysdoc))
        r = run_cli([
            "audit", "--spec", str(tmp_path / "sysa.yaml"), "--aux", str(workdir / "aux.yaml"),
            "--n", "10", "--delta", "0.2", "--gamma", "0.5", "--dprime", "0.0", "--seed", "2",
            "--rebuilds", "3", "--m2-bits", "6", "--m3-bits", "0", "--j-bits", "1",
            "--out", str(workdir / "aud"),
        ])
        assert r.returncode == 0, r.stderr
        lines = (workdir / "aud_bins.csv").read_text().splitlines()
        assert len(lines) == 2 + 3
        assert all(l.split(",")[4] == "1" for l in lines[2:])
        assert (workdir / "aud_compression.csv").exists()
        assert json.loads((workdir / "aud.manifest.json").read_text())["random_stream"] == 2


# ---------------------------------------------------------------------------
# the run-config schema: both front doors, the manifest round trip
# ---------------------------------------------------------------------------

TEST_CHANNEL = [[0.75, 0.25], [0.125, 0.875]]

_floats = st.floats(allow_nan=False, allow_infinity=False)
_naturals = st.integers(0, 2**40)
_counts = st.integers(1, 2**20)
_words = st.from_regex(r"[a-z][a-z0-9_/.]{0,12}", fullmatch=True)
_coords = st.dictionaries(st.sampled_from(COORDINATES), _floats, max_size=6)

# every run-config field but the sections, with a strategy of valid values
_FIELDS = {
    "n": _counts, "trials": _naturals, "delta": _floats, "gamma": _floats, "d_prime": _floats,
    "v_cardinality": _counts, "m2_bits": _naturals, "m3_bits": _naturals, "j_bits": _naturals,
    "eps_cov": _floats, "out": _words, "objective": _words, "restarts": _counts,
    "rebuilds": _counts, "extended": st.booleans(), "exact_equivocation": st.booleans(),
    "ensemble_average": st.booleans(), "grid": st.lists(_floats, min_size=1, max_size=4),
    "fixed": _coords,
}

# what each command needs beyond a seed, which every drawn run has
_NEEDS = {
    "simulate": ("n", "trials", "delta", "d_prime", "aux"),
    "audit": ("n", "delta", "gamma", "d_prime", "aux"),
    "region-eval": ("aux", "point"),
    "region-opt": ("objective",),
}


class TestAuxReload:
    """An aux channel reloads bit for bit from what a run writes: the YAML of
    ``aux_to_mapping``, and a manifest's JSON read back by ``run``."""

    @staticmethod
    def _assert_reloads(system, aux, point, tmp_path):
        labels = [f"v{i}" for i in range(aux.v_cardinality)]
        text = yaml.safe_dump(aux_to_mapping(aux, labels))
        again, again_labels = load_aux(yaml.safe_load(text), system.spec)
        assert again_labels == labels
        assert again.table.values.tobytes() == aux.table.values.tobytes()
        cfg = RunConfig("region-eval", system, aux=aux, aux_labels=labels, point=point, out=str(tmp_path / "re"))
        assert cli.run(cfg) == cli.EXIT_OK
        rerun = parse_config(read_text(str(tmp_path / "re.manifest.json")))
        assert rerun.aux.table.values.tobytes() == aux.table.values.tobytes()

    def test_optimizer_result(self, tmp_path):
        system = load_system(WIDE_SYSTEM)
        res = optimize_region(system.spec, {"d_prime": 0.25, "d": 1.0}, "embedding_rate", restarts=4, seed=0)
        self._assert_reloads(system, res.aux, res.point, tmp_path)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_kernel_with_zeros(self, tmp_path, seed):
        system = load_system(WIDE_SYSTEM)
        rng = np.random.default_rng(seed)
        kernel = rng.dirichlet(np.ones(9), size=(2, 2))
        kernel[rng.random(kernel.shape) < 0.5] = 0.0
        kernel[kernel.sum(axis=-1) == 0.0, 0] = 1.0
        kernel /= kernel.sum(axis=-1, keepdims=True)
        assert (kernel == 0.0).any()
        aux = AuxChannel.of(system.spec, kernel.reshape(2, 2, 3, 3))
        point = RegionPoint(d=1.0, d_prime=0.25, r_c=2.0, r_c_prime=2.0, h=0.1, h_prime=0.1)
        self._assert_reloads(system, aux, point, tmp_path)


@st.composite
def run_docs(draw):
    """A valid run-config document with random field values."""
    command = draw(st.sampled_from(COMMANDS))
    doc = {"command": command, "system": SYSTEM, "seed": draw(st.integers(0, 2**40))}
    for name, values in _FIELDS.items():
        if draw(st.booleans()):
            doc[name] = draw(values)
    for name in _NEEDS.get(command, ()):
        if name == "aux":
            doc["aux"] = AUX
        elif name == "point":
            doc["point"] = {k: draw(st.floats(0, 1e6)) for k in COORDINATES}
        elif name not in doc:
            doc[name] = draw(_FIELDS[name])
    if command in ("rd", "sweep") and "grid" not in doc and "d_prime" not in doc:
        doc["d_prime"] = draw(_floats)
    if command == "region-opt":
        doc["fixed"] = {**doc.get("fixed", {}), "d_prime": draw(_floats)}
    if command == "region-eval" and doc.get("extended"):
        doc["test_channel"] = TEST_CHANNEL
    return doc


_FLAG_SPELLINGS = {"d_prime": "--dprime", "fixed": "--fix"}


def _argv(doc, files):
    """The same run as command-line flags."""
    argv = [doc["command"], "--spec", str(files / "sys.yaml")]
    if "aux" in doc:
        argv += ["--aux", str(files / "aux.yaml")]
    if "test_channel" in doc:
        argv += ["--test-channel", str(files / "tc.yaml")]
    for name, value in doc.items():
        if name in ("command", "system", "aux", "test_channel"):
            continue
        flag = _FLAG_SPELLINGS.get(name, "--" + name.replace("_", "-"))
        if isinstance(value, bool):
            argv += [flag] if value else []
        elif isinstance(value, dict):
            argv.append(f"{flag}=" + ",".join(f"{k}={v!r}" for k, v in value.items()))
        elif isinstance(value, list):
            argv.append(f"{flag}=" + ",".join(repr(v) for v in value))
        else:  # '--flag=value', since argparse reads '-1e+16' as an option
            argv.append(f"{flag}={value!r}" if isinstance(value, float) else f"{flag}={value}")
    return argv


def _config_from_argv(argv):
    parser = argparse.ArgumentParser()
    cli._add_common(parser.add_subparsers(dest="command").add_parser(argv[0]))
    return cli._config_from_args(parser.parse_args(argv))


@pytest.fixture(scope="module")
def input_files(tmp_path_factory):
    files = tmp_path_factory.mktemp("inputs")
    (files / "sys.yaml").write_text(yaml.safe_dump(SYSTEM))
    (files / "aux.yaml").write_text(yaml.safe_dump(AUX))
    (files / "tc.yaml").write_text(yaml.safe_dump(TEST_CHANNEL))
    return files


class TestSchemaProperties:
    @settings(max_examples=150, deadline=None)
    @given(run_docs())
    def test_manifest_round_trip(self, doc):
        cfg = parse_config(yaml.safe_dump(doc))
        again = parse_config(yaml.safe_dump(cfg.manifest()))
        assert again.manifest() == cfg.manifest()
        for name in _FIELDS:  # every field the document set survives the trip
            assert getattr(again, name) == getattr(cfg, name) == doc.get(name, getattr(cfg, name))

    @settings(max_examples=100, deadline=None)
    @given(run_docs())
    def test_flags_and_run_file_agree(self, input_files, doc):
        from_file = parse_config(yaml.safe_dump(doc))
        from_flags = _config_from_argv(_argv(doc, input_files))
        assert from_flags.manifest() == from_file.manifest()


class TestStrictFields:
    @pytest.mark.parametrize(
        "name, value",
        [
            ("n", 8.9),
            ("trials", 20.7),
            ("seed", True),
            ("restarts", 2.5),
            ("extended", "false"),
            ("exact_equivocation", 1),
            ("out", 5),
            ("objective", 3),
            ("d_prime", True),
        ],
    )
    def test_run_file_value_of_wrong_type_rejected(self, tmp_path, monkeypatch, capsys, name, value):
        monkeypatch.chdir(tmp_path)
        doc = {"command": "rd", "system": SYSTEM, "grid": [0.1], "out": "x", name: value}
        (tmp_path / "run.yaml").write_text(yaml.safe_dump(doc))
        assert cli.main(["run", "run.yaml"]) == cli.EXIT_VALIDATION
        assert f"'{name}'" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["run.yaml"]

    @pytest.mark.parametrize(
        "args, named",
        [
            (["region-opt", "--objective", "h", "--fix", "d_prime=abc", "--seed", "0"], "fixed.d_prime"),
            (["rd", "--grid", "0.1,abc"], "grid[1]"),
            (["region-eval", "--aux", "aux.yaml",
              "--point", "d=1,d_prime=0,r_c=2,r_c_prime=2,h=x,h_prime=0.1"], "point.h"),
        ],
        ids=["fix", "grid", "point"],
    )
    def test_malformed_flag_number_exit_code(self, workdir, capsys, args, named):
        args = [str(workdir / a) if a.endswith(".yaml") else a for a in args]
        code = cli.main([args[0], "--spec", str(workdir / "sys.yaml"), *args[1:],
                         "--out", str(workdir / "x")])
        assert code == cli.EXIT_VALIDATION
        assert f"'{named}'" in capsys.readouterr().err
        assert not list(workdir.glob("x*"))

    @pytest.mark.parametrize(
        "fields, named",
        [
            ({"command": "region-opt", "objective": "h", "fixed": {"d_prime": "abc"}, "seed": 0},
             "fixed.d_prime"),
            ({"command": "rd", "grid": ["a"]}, "grid[0]"),
            ({"command": "rd", "grid": 0.3}, "grid"),
            ({"command": "region-eval", "aux": AUX, "point": {
                "d": 1.0, "d_prime": 0.0, "r_c": "two", "r_c_prime": 2.0, "h": 0.1, "h_prime": 0.1}},
             "point.r_c"),
        ],
        ids=["fixed", "grid-item", "grid-scalar", "point"],
    )
    def test_run_file_malformed_number_exit_code(self, workdir, capsys, fields, named):
        doc = {"system": SYSTEM, "out": str(workdir / "x"), **fields}
        (workdir / "run.yaml").write_text(yaml.safe_dump(doc))
        assert cli.main(["run", str(workdir / "run.yaml")]) == cli.EXIT_VALIDATION
        assert f"'{named}'" in capsys.readouterr().err
        assert not list(workdir.glob("x*"))

    def test_missing_run_file_exit_code(self, tmp_path, capsys):
        assert cli.main(["run", str(tmp_path / "nosuch.yaml")]) == cli.EXIT_VALIDATION
        assert "nosuch.yaml" in capsys.readouterr().err

    def test_unknown_run_file_key_rejected(self):
        doc = {"command": "region-opt", "system": SYSTEM, "objective": "h",
               "fixed": {"d_prime": 0.25}, "seed": 0, "restart": 4}
        with pytest.raises(ValidationError, match="'restart'"):
            parse_config(yaml.safe_dump(doc))

    @pytest.mark.parametrize(
        "args, named",
        [
            (["rd", "--dprime", "nan"], "d_prime"),
            (["rd", "--grid", "0.1,inf"], "grid[1]"),
            (["region-opt", "--objective", "h", "--fix", "d_prime=nan", "--seed", "0"], "fixed.d_prime"),
        ],
        ids=["dprime", "grid", "fix"],
    )
    def test_non_finite_flag_number_exit_code(self, workdir, capsys, args, named):
        code = cli.main([args[0], "--spec", str(workdir / "sys.yaml"), *args[1:],
                         "--out", str(workdir / "x")])
        assert code == cli.EXIT_VALIDATION
        assert f"'{named}' must be a finite number" in capsys.readouterr().err
        assert not list(workdir.glob("x*"))

    def test_run_file_non_finite_number_exit_code(self, workdir, capsys):
        text = yaml.safe_dump({"command": "rd", "system": SYSTEM, "out": str(workdir / "x")})
        (workdir / "run.yaml").write_text(text + "d_prime: .nan\n")
        assert cli.main(["run", str(workdir / "run.yaml")]) == cli.EXIT_VALIDATION
        assert "'d_prime' must be a finite number" in capsys.readouterr().err
        assert not list(workdir.glob("x*"))

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_v_cardinality_below_one_flag_exit_code(self, workdir, capsys, value):
        code = cli.main(["region-opt", "--spec", str(workdir / "sys.yaml"), "--objective", "h",
                         "--fix", "d_prime=0.2", "--seed", "1", "--restarts", "2",
                         f"--v-cardinality={value}", "--out", str(workdir / "x")])
        assert code == cli.EXIT_VALIDATION
        assert "'v_cardinality' must be at least 1" in capsys.readouterr().err
        assert not list(workdir.glob("x*"))

    def test_run_file_v_cardinality_below_one_exit_code(self, workdir, capsys):
        doc = {"command": "region-opt", "system": SYSTEM, "objective": "h", "seed": 1,
               "fixed": {"d_prime": 0.2}, "v_cardinality": 0, "out": str(workdir / "x")}
        (workdir / "run.yaml").write_text(yaml.safe_dump(doc))
        assert cli.main(["run", str(workdir / "run.yaml")]) == cli.EXIT_VALIDATION
        assert "'v_cardinality' must be at least 1" in capsys.readouterr().err
        assert not list(workdir.glob("x*"))

    @pytest.mark.parametrize("v_cardinality", [0, -2])
    def test_library_v_cardinality_below_one_rejected(self, v_cardinality):
        spec = load_system(SYSTEM).spec
        with pytest.raises(ValidationError, match="v_cardinality"):
            optimize_region(spec, {"d_prime": 0.2}, "h", v_cardinality=v_cardinality, restarts=2, seed=1)


class TestRegionSweep:
    def test_rows_match_region_opt(self, workdir):
        common = ["--spec", str(workdir / "sys.yaml"), "--objective", "h", "--seed", "5",
                  "--restarts", "3", "--v-cardinality", "2"]
        assert cli.main(["sweep", *common, "--grid", "0.3,0.1", "--out", str(workdir / "sw")]) == 0
        rows = [l.split(",") for l in (workdir / "sw.csv").read_text().splitlines()[2:]]
        assert [r[0] for r in rows] == ["0.3", "0.1"]
        for g, objective, value, _ in rows:
            out = workdir / f"opt{g}"
            assert cli.main(["region-opt", *common, "--fix", f"d_prime={g}", "--out", str(out)]) == 0
            summary = dict(l.split(",") for l in Path(f"{out}_summary.csv").read_text().splitlines()[2:])
            assert (objective, value) == (summary["objective"], summary["value"])

    def test_seed_required(self, workdir, capsys):
        code = cli.main(["sweep", "--spec", str(workdir / "sys.yaml"), "--objective", "h",
                         "--grid", "0.1", "--out", str(workdir / "x")])
        assert code == cli.EXIT_VALIDATION
        assert "seed" in capsys.readouterr().err
        assert not list(workdir.glob("x*"))

    def test_dprime_without_grid_is_one_row(self, workdir):
        code = cli.main(["sweep", "--spec", str(workdir / "sys.yaml"), "--objective", "h",
                         "--dprime", "0.25", "--seed", "1", "--restarts", "2", "--out", str(workdir / "one")])
        assert code == 0
        rows = (workdir / "one.csv").read_text().splitlines()[2:]
        assert [r.split(",")[0] for r in rows] == ["0.25"]
