import json

import numpy as np
import pytest

from kepreg import cli


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


BASE = """
[run]
dimension = 2
period = 6.283185307179586
k_list = 1
seed = 3
eps = 1e-3

[perturbation]
name = forced_kepler
cos1 = 0.3,0.0
sin1 = 0.0,0.3
"""


class TestConfig:
    def test_defaults(self, tmp_path):
        cfg = cli.RunConfig(write_config(tmp_path, "[run]\n"))
        assert cfg.dimension == 2
        assert cfg.period == pytest.approx(2.0 * np.pi)
        assert cfg.k_list == [1]

    def test_missing_file(self, tmp_path):
        with pytest.raises(cli.ConfigError):
            cli.RunConfig(str(tmp_path / "nope.ini"))

    def test_unknown_section(self, tmp_path):
        with pytest.raises(cli.ConfigError):
            cli.RunConfig(write_config(tmp_path, "[wat]\nx = 1\n"))

    def test_unknown_key(self, tmp_path):
        with pytest.raises(cli.ConfigError):
            cli.RunConfig(write_config(tmp_path, "[run]\nbogus = 1\n"))

    def test_bad_values(self, tmp_path):
        with pytest.raises(cli.ConfigError):
            cli.RunConfig(write_config(tmp_path, "[run]\ndimension = 4\n"))
        with pytest.raises(cli.ConfigError):
            cli.RunConfig(write_config(tmp_path, "[run]\nperiod = -1\n"))
        with pytest.raises(cli.ConfigError):
            cli.RunConfig(write_config(tmp_path, "[run]\nk_list = 0,1\n"))

    def test_perturbation_construction(self, tmp_path):
        cfg = cli.RunConfig(write_config(tmp_path, BASE))
        pert = cfg.perturbation()
        assert pert.name == "forced_kepler"
        assert pert.period == pytest.approx(cfg.period)

    def test_unknown_perturbation(self, tmp_path):
        text = "[run]\n[perturbation]\nname = wat\n"
        cfg = cli.RunConfig(write_config(tmp_path, text))
        with pytest.raises(cli.ConfigError):
            cfg.perturbation()

    def test_exit_code_on_bad_config(self, tmp_path, capsys):
        code = cli.main(["seed", "--config", str(tmp_path / "nope.ini")])
        assert code == cli.EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err


class TestSeedCommand:
    def test_outputs(self, tmp_path):
        cfg = write_config(tmp_path, BASE.replace("k_list = 1",
                                                  "k_list = 1,2"))
        out = tmp_path / "out"
        assert cli.main(["seed", "--config", cfg, "--out", str(out)]) == 0
        consts = (out / "constants.csv").read_text().splitlines()
        header = [ln for ln in consts if ln.startswith("#")]
        assert any("run.k_list = 1,2" in ln for ln in header)
        rows = [ln for ln in consts if not ln.startswith("#")]
        assert rows[0] == "k,tau,omega,sigma,S"
        k1 = rows[1].split(",")
        assert float(k1[1]) == pytest.approx(2.0 ** (-1.0 / 3.0))
        assert float(k1[4]) == pytest.approx(2.0 * np.pi * 2.0 ** (2.0 / 3.0))
        seeds = (out / "seeds.csv").read_text().splitlines()
        data = [ln for ln in seeds if not ln.startswith("#")][1:]
        assert len(data) == 10    # 5 seeds per manifold


class TestFlowCommand:
    def test_invariants(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        out = tmp_path / "out"
        assert cli.main(["flow", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "invariants.json").read_text())
        inv = report["invariants"]["1"]
        assert inv["k_drift"] < 1e-9
        assert (out / "trajectory_k1.csv").exists()


class TestCertifyCommand:
    def test_certificates(self, tmp_path):
        text = BASE + "\n[certify]\nn_seeds = 3\n"
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert cli.main(["certify", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "certificates.json").read_text())
        assert report["n_seeds"] == 3
        assert report["min_principal_angle"] > 1e-3


@pytest.mark.parametrize("command",
                         ["flow", "shoot", "theorem-demo", "reconstruct"])
def test_singular_perturbation_is_config_error(tmp_path, capsys, command):
    text = BASE.replace("name = forced_kepler", "name = fatou") \
        .replace("cos1 = 0.3,0.0\nsin1 = 0.0,0.3\n", "h_prime = 0.1\n")
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    code = cli.main([command, "--config", cfg, "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    assert "singular at the origin" in capsys.readouterr().err
    assert not out.exists()


class TestReconstructCommand:
    def test_collision_orbit_csv(self, tmp_path):
        text = BASE.replace("eps = 1e-3", "eps = 0")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        code = cli.main(["reconstruct", "--config", cfg, "--out", str(out)])
        assert code == 0
        lines = (out / "generalized_k1.csv").read_text().splitlines()
        assert any(ln.startswith("# collision") for ln in lines)


class TestAverageCommand:
    def test_family(self, tmp_path):
        text = """
[run]
dimension = 2

[perturbation]
name = forced_kepler
const = 1.0,0.0
cos1 = 1.0,0.0

[average]
eps_list = 1e-2,1e-3
"""
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert cli.main(["average", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "family.csv").read_text().splitlines()
        slope_line = [ln for ln in lines if "fitted_slope" in ln][0]
        slope = float(slope_line.split("=")[1])
        assert -0.55 < slope < -0.45

    def test_needs_forcing(self, tmp_path):
        cfg = write_config(tmp_path, "[run]\n")
        code = cli.main(["average", "--config", cfg,
                         "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_CONFIG

    def test_partial_exit(self, tmp_path, monkeypatch):
        def fake(spec, eps_list, n_samples=400):
            return [], [{"eps": eps_list[0], "error": "synthetic"}]

        monkeypatch.setattr(cli.averaging, "bifurcation_from_infinity", fake)
        text = ("[run]\n[perturbation]\nname = forced_kepler\n"
                "const = 1.0,0.0\n")
        cfg = write_config(tmp_path, text)
        code = cli.main(["average", "--config", cfg,
                         "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_PARTIAL


class TestRemoveCommand:
    def test_removal_table(self, tmp_path):
        text = "[run]\n[remove]\nmu_list = 0.1,0.05\nk = 1\n"
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        code = cli.main(["remove-collisions", "--config", cfg,
                         "--out", str(out)])
        assert code == 0
        rows = [ln for ln in (out / "removal.csv").read_text().splitlines()
                if not ln.startswith("#")]
        assert rows[0] == "mu,T_mu,min_u_mu,forcing_l1"
        l1s = [float(r.split(",")[3]) for r in rows[1:]]
        assert l1s[0] > l1s[1]

    def test_rejects_3d(self, tmp_path):
        text = "[run]\ndimension = 3\n[remove]\nmu_list = 0.1\n"
        cfg = write_config(tmp_path, text)
        code = cli.main(["remove-collisions", "--config", cfg,
                         "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_CONFIG


class TestShootCommand:
    def test_single_step_continuation(self, tmp_path):
        text = BASE.replace("eps = 1e-3", "eps = 2.5e-4") + \
            "\n[shoot]\neps_schedule = 2.5e-4\n"
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert cli.main(["shoot", "--config", cfg, "--out", str(out)]) == 0
        data = json.loads((out / "orbits.json").read_text())
        assert data["meta"]["diagnostics"] == []
        assert len(data["orbits"]) == 1
        rec = data["orbits"][0]
        assert rec["residual_norm"] < 1e-9
        assert rec["eta"] == 1
