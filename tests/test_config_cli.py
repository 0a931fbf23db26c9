import json
import subprocess
import sys

import pytest
import yaml

from secembed import cli
from secembed.config import load_aux, load_system, parse_config, stable_hash
from secembed.errors import ValidationError

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


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "secembed.cli", *args], capture_output=True, text=True
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

    def test_rerun_from_manifest_reproduces(self, workdir):
        args = [
            "simulate", "--spec", str(workdir / "sys.yaml"), "--aux", str(workdir / "aux.yaml"),
            "--n", "8", "--trials", "30", "--delta", "0.6", "--dprime", "0.0", "--seed", "6",
            "--m2-bits", "5", "--m3-bits", "0", "--j-bits", "2", "--out", str(workdir / "orig"),
        ]
        assert run_cli(args).returncode == 0
        original = (workdir / "orig_trials.csv").read_bytes()
        (workdir / "orig_trials.csv").unlink()
        r = run_cli(["run", str(workdir / "orig.manifest.json")])
        assert r.returncode == 0, r.stderr
        assert (workdir / "orig_trials.csv").read_bytes() == original

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
        ],
        ids=["restarts-0", "restarts-negative", "rebuilds-0"],
    )
    def test_counts_below_one_exit_code(self, workdir, args, capsys):
        code = cli.main([
            args[0], "--spec", str(workdir / "sys.yaml"), "--aux", str(workdir / "aux.yaml"),
            *args[1:], "--seed", "1", "--out", str(workdir / "x"),
        ])
        assert code == cli.EXIT_VALIDATION
        assert "validation" in capsys.readouterr().err
        assert not list(workdir.glob("x*"))

    def test_run_file_counts_below_one_exit_code(self, workdir, capsys):
        doc = {"command": "region-opt", "system": SYSTEM, "objective": "h",
               "fixed": {"d_prime": 0.25}, "seed": 0, "restarts": 0, "out": str(workdir / "x")}
        (workdir / "run.yaml").write_text(yaml.safe_dump(doc))
        assert cli.main(["run", str(workdir / "run.yaml")]) == cli.EXIT_VALIDATION
        assert "restarts" in capsys.readouterr().err

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

    def test_resource_cap_exit_code(self, workdir):
        r = run_cli([
            "simulate", "--spec", str(workdir / "sys.yaml"), "--aux", str(workdir / "aux.yaml"),
            "--n", "8", "--trials", "10", "--delta", "0.6", "--dprime", "0.0", "--seed", "1",
            "--m2-bits", "40", "--m3-bits", "0", "--j-bits", "0", "--out", str(workdir / "x"),
        ])
        assert r.returncode == 4
        assert "resource-cap" in r.stderr

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
