import json
import os
import re
import subprocess
import sys
from pathlib import Path

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


# [remove] k below 1, mu outside (0, S_k/(8k)) (S_1/8 is about 1.2467
# for T = 2 pi), a negative [run] seed, [run] l below 1, a negative [run]
# eps, the [shoot] segments key, which is gone, a [shoot] eps_schedule or
# [average] eps_list value that is not positive (the last with a forcing
# of nonzero mean, so that eps_list alone is wrong), the [integrator]
# section, which is gone, and mu = 1.25 at k = 1, which lies in
# (0, S_1/4) but makes the removal windows of the two collisions overlap
BAD_CONFIGS = [
    "[run]\n[remove]\nk = 0\n",
    "[run]\n[remove]\nmu_list = 10\n",
    "[run]\n[remove]\nmu_list = -0.1\n",
    BASE.replace("seed = 3", "seed = -3"),
    BASE.replace("eps = 1e-3", "eps = 1e-3\nl = 0"),
    BASE.replace("eps = 1e-3", "eps = -1e-3"),
    BASE + "\n[shoot]\nsegments = 16\n",
    BASE + "\n[shoot]\neps_schedule = -1e-3\n",
    BASE + "\n[shoot]\neps_schedule = 1e-3,0\n",
    BASE.replace("sin1", "const = 1.0,0.0\nsin1")
    + "\n[average]\neps_list = 1e-2,-1e-3\n",
    BASE + "\n[integrator]\nrel_tol = 1e-6\n",
    "[run]\n[remove]\nmu_list = 1.25\nk = 1\n",
]

MEAN = "[run]\n[perturbation]\nname = forced_kepler\nconst = 1.0,0.0\n"

# (command, key, config) with one value of key that is not a finite
# number: each exits 3 naming the key, before the command runs
NON_FINITE = [
    ("average", "[perturbation] const", MEAN.replace("1.0,0.0", "inf,0.0")),
    ("average", "[perturbation] const", MEAN.replace("1.0,0.0", "nan,0.0")),
    ("flow", "[perturbation] cos1", BASE.replace("0.3,0.0", "0.3,-inf")),
    ("theorem-demo", "[run] eps", BASE.replace("eps = 1e-3", "eps = nan")),
    ("theorem-demo", "[run] period",
     BASE.replace("period = 6.283185307179586", "period = nan")),
    ("theorem-demo", "[run] period",
     BASE.replace("period = 6.283185307179586", "period = inf")),
    ("shoot", "[shoot] eps_schedule",
     BASE + "\n[shoot]\neps_schedule = 1e-3,inf\n"),
    ("average", "[average] eps_list",
     MEAN + "\n[average]\neps_list = 1e-2,1e400\n"),
    ("remove-collisions", "[remove] mu_list",
     "[run]\n[remove]\nmu_list = 0.1,nan\n"),
]

# Valid configs whose command would have no orbit to continue to, or
# none at the [run] eps it reads its orbit at: the command refuses them.
NO_TARGET = [
    ("shoot", BASE.replace("eps = 1e-3", "eps = 0")),
    ("theorem-demo", BASE.replace("eps = 1e-3", "eps = 0")),
    ("theorem-demo", BASE + "\n[shoot]\neps_schedule = 2.5e-4,5e-4\n"),
    ("reconstruct", BASE + "\n[shoot]\neps_schedule = 2.5e-4,5e-4\n"),
]


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
        with pytest.raises(cli.ConfigError):
            cli.RunConfig(write_config(tmp_path, "[run]\nk_list =\n"))
        with pytest.raises(cli.ConfigError):
            cli.RunConfig(write_config(tmp_path,
                                       "[run]\n[certify]\nn_seeds = 0\n"))
        for text in BAD_CONFIGS:
            with pytest.raises(cli.ConfigError):
                cli.RunConfig(write_config(tmp_path, text))
        for _, text in NO_TARGET:
            cli.RunConfig(write_config(tmp_path, text))

    @pytest.mark.parametrize("command,text", [
        ("remove-collisions", BAD_CONFIGS[0]),
        ("remove-collisions", BAD_CONFIGS[1]),
        ("remove-collisions", BAD_CONFIGS[2]),
        ("flow", BAD_CONFIGS[3]),
        ("theorem-demo", BAD_CONFIGS[4]),
        ("theorem-demo", BAD_CONFIGS[5]),
        ("shoot", BAD_CONFIGS[6]),
        ("shoot", BAD_CONFIGS[7]),
        ("shoot", BAD_CONFIGS[8]),
        ("average", BAD_CONFIGS[9]),
        ("flow", BAD_CONFIGS[10]),
        ("remove-collisions", BAD_CONFIGS[11]),
        *NO_TARGET,
    ])
    def test_bad_value_exits_config(self, tmp_path, capsys, command, text):
        out = tmp_path / "out"
        code = cli.main([command, "--config", write_config(tmp_path, text),
                         "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,key,text", NON_FINITE,
                             ids=[f"{c}-{k}" for c, k, _ in NON_FINITE])
    def test_non_finite_value_exits_config(self, tmp_path, capsys, command,
                                           key, text):
        out = tmp_path / "out"
        code = cli.main([command, "--config", write_config(tmp_path, text),
                         "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {key} must be a "
                              "finite number")
        assert not out.exists()

    def test_perturbation_construction(self, tmp_path):
        cfg = cli.RunConfig(write_config(tmp_path, BASE))
        pert = cfg.perturbation
        assert pert.name == "forced_kepler"
        assert pert.period == pytest.approx(cfg.period)

    def test_unknown_perturbation(self, tmp_path):
        text = "[run]\n[perturbation]\nname = wat\n"
        with pytest.raises(cli.ConfigError, match="unknown perturbation"):
            cli.RunConfig(write_config(tmp_path, text))

    def test_harmonics_keep_their_order(self, tmp_path):
        """A harmonic given by sin2 alone is the second one: the first
        gets zero rows."""
        text = ("[run]\n[perturbation]\nname = forced_kepler\n"
                "cos1 = 0.3,0.0\nsin2 = 0.0,0.2\n")
        pert = cli.RunConfig(write_config(tmp_path, text)).perturbation
        assert np.array_equal(pert.cos, [[0.3, 0.0], [0.0, 0.0]])
        assert np.array_equal(pert.sin, [[0.0, 0.0], [0.0, 0.2]])
        t = np.linspace(0.0, 2.0 * np.pi, 7)
        want = np.stack([0.3 * np.cos(t), 0.2 * np.sin(2.0 * t)], axis=-1)
        assert np.allclose(pert.jet(t)[:, 0], want, rtol=0.0, atol=1e-15)

    def test_readme_example_parses(self, tmp_path):
        """README's example config is a valid config, with every section
        that RunConfig reads."""
        readme = (Path(__file__).resolve().parents[1]
                  / "README.md").read_text()
        example = readme.split("Example config:")[1]
        example = example.split("```ini\n")[1].split("```")[0]
        cfg = cli.RunConfig(write_config(tmp_path, example))
        sections = {line.split(".")[0] for line in cfg.header_lines()}
        assert sections == set(cli.ALLOWED_KEYS)
        assert cfg.perturbation.name == "forced_kepler"

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
        assert report["min_principal_angle"] > cli.manifolds.ANGLE_MIN

    def test_at_most_1000_seeds(self, tmp_path):
        """Seed i of k draws from default_rng(seed + 1000 k + i): a
        1001st seed of k would be the first seed of k + 1."""
        cfg = write_config(tmp_path, BASE + "\n[certify]\nn_seeds = 1001\n")
        out = tmp_path / "out"
        code = cli.main(["certify", "--config", cfg, "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        assert not out.exists()
        cli.RunConfig(write_config(tmp_path,
                                   BASE + "\n[certify]\nn_seeds = 1000\n"))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_integrates_nothing(self, tmp_path, monkeypatch, dim):
        """k = 1, 2, 3 certify with every integrator raising, since the
        monodromy is closed-form, and the reports stay k-major, then
        seed, each on its own seed state."""
        def fail(*args, **kwargs):
            raise AssertionError("certify integrated")

        monkeypatch.setattr(cli.flow, "integrate_with_variational", fail)
        monkeypatch.setattr(cli.flow, "integrate", fail)
        text = (BASE.replace("k_list = 1", "k_list = 1,2,3")
                .replace("dimension = 2", f"dimension = {dim}")
                .replace("0.3,0.0", "0.3,0.0" + ",0.0" * (dim - 2))
                .replace("0.0,0.3", "0.0,0.3" + ",0.0" * (dim - 2))
                + "\n[certify]\nn_seeds = 2\n")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert cli.main(["certify", "--config", cfg, "--out",
                         str(out)]) == cli.EXIT_OK
        reports = json.loads((out / "certificates.json").read_text())[
            "certificates"]
        order = [(k, i) for k in (1, 2, 3) for i in range(2)]
        assert [r["k"] for r in reports] == [k for k, _ in order]
        for r, (k, i) in zip(reports, order):
            spec = cli.manifolds.ManifoldSpec(k=k, T=2 * np.pi, dim=dim)
            X0 = cli.manifolds.seed_state(
                spec, cli.manifolds.random_seed_params(
                    spec, np.random.default_rng(3 + 1000 * k + i)))
            assert r["X0"] == X0.tolist()


# a wrong coefficient count, a non-number and unknown names, among them
# Fatou's rotating-body potential, which is singular at u = 0
MALFORMED_PERTURBATIONS = {
    "const count": (BASE + "const = 1.0\n", r"\[perturbation\]"),
    "non-number": (BASE.replace("0.0,0.3", "0.0,abc"), r"\[perturbation\]"),
    "nosuch": (BASE.replace("forced_kepler", "nosuch"),
               "unknown perturbation 'nosuch'"),
    "fatou": (BASE.replace("forced_kepler", "fatou"),
              "unknown perturbation 'fatou'"),
    "zero with a coefficient": (
        "[run]\n[perturbation]\nname = zero\ncos1 = 7\n",
        r"\[perturbation\]: name = zero takes no coefficients, "
        r"got \['cos1'\]"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_PERTURBATIONS))
@pytest.mark.parametrize("command",
                         ["average", "flow", "shoot", "seed", "certify"])
def test_malformed_perturbation_is_config_error(tmp_path, capsys, command,
                                                case):
    """Every command, at eps = 0 too, rejects a malformed [perturbation]
    before it writes anything."""
    text, message = MALFORMED_PERTURBATIONS[case]
    cfg = write_config(tmp_path, text.replace("eps = 1e-3", "eps = 0"))
    out = tmp_path / "out"
    code = cli.main([command, "--config", cfg, "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert re.search(message, err)
    assert not out.exists()


SYNTHETIC = "integration failed: synthetic"
# every integration fails, so the first solve, at eps = 1e-3 / 4, does.
# A FlowError ends the continuation at that eps; a ShootingError halves
# the eps step down to EPS_STEP_FLOOR, ending at 2.5e-4 / 2^15.
SOLVE_FAILED = {
    cli.flow.FlowError: [{"k": 1, "diagnostics": [{"eps": 1e-3 / 4,
                                                   "error": SYNTHETIC}]}],
    cli.shooting.ShootingError: [{"k": 1, "diagnostics": [
        {"eps": 1e-3 / 4 / 2 ** 15, "error": SYNTHETIC}]}],
}


def fail_integration(monkeypatch, error):
    def fail(*args, **kwargs):
        raise error(SYNTHETIC)

    monkeypatch.setattr(cli.flow, "_solve", fail)


@pytest.mark.parametrize("error", [cli.flow.FlowError,
                                   cli.shooting.ShootingError])
@pytest.mark.parametrize("command,text", [
    ("flow", BASE),
    ("reconstruct", BASE.replace("eps = 1e-3", "eps = 0")),
    ("remove-collisions", "[run]\n[remove]\nmu_list = 0.1\nk = 1\n"),
    ("shoot", BASE),
    ("theorem-demo", BASE),
])
def test_computation_failure_exits_partial(tmp_path, capsys, monkeypatch,
                                           command, text, error):
    fail_integration(monkeypatch, error)
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    code = cli.main([command, "--config", cfg, "--out", str(out)])
    assert code == cli.EXIT_PARTIAL
    if command in ("shoot", "theorem-demo"):
        # continuation caught the failure; the orbit archive keeps it too
        expected = SOLVE_FAILED[error]
        meta = json.loads((out / "orbits.json").read_text())["meta"]
        assert SYNTHETIC in json.dumps(meta)
    else:
        # the failure reached cli.main, which reports it
        expected = [{"error": SYNTHETIC}]
        assert SYNTHETIC in capsys.readouterr().err
    diags = json.loads((out / f"{command}_diagnostics.json").read_text())
    assert diags["diagnostics"] == expected


def test_seed_needs_no_integration(tmp_path, monkeypatch):
    fail_integration(monkeypatch, cli.flow.FlowError)
    out = tmp_path / "out"
    code = cli.main(["seed", "--config", write_config(tmp_path, BASE),
                     "--out", str(out)])
    assert code == cli.EXIT_OK
    assert not list(out.glob("*_diagnostics.json"))


class TestReconstructCommand:
    def test_collision_orbit_csv(self, tmp_path):
        text = BASE.replace("eps = 1e-3", "eps = 0")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        code = cli.main(["reconstruct", "--config", cfg, "--out", str(out)])
        assert code == 0
        lines = (out / "generalized_k1.csv").read_text().splitlines()
        assert any(ln.startswith("# collision") for ln in lines)

    def test_short_continuation_is_partial(self, tmp_path, monkeypatch):
        """A continuation that stops short of the target eps reconstructs
        nothing for that k: the command exits 2 with the diagnostics."""
        real = cli.shooting.continue_in_epsilon

        def stop_short(spec, pert, X_seed, eps_targets, **kwargs):
            if spec.k == 1:
                family, _ = real(spec, pert, X_seed, eps_targets[:1],
                                 **kwargs)
                return family, [{"eps": eps_targets[1],
                                 "error": "synthetic"}]
            return real(spec, pert, X_seed, eps_targets, **kwargs)

        monkeypatch.setattr(cli.shooting, "continue_in_epsilon", stop_short)
        text = (BASE.replace("k_list = 1", "k_list = 1,2")
                .replace("eps = 1e-3", "eps = 2e-4")
                + "\n[shoot]\neps_schedule = 1e-4,2e-4\n")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        code = cli.main(["reconstruct", "--config", cfg, "--out", str(out)])
        assert code == cli.EXIT_PARTIAL
        assert not (out / "generalized_k1.csv").exists()
        assert (out / "generalized_k2.csv").exists()
        diags = json.loads(
            (out / "reconstruct_diagnostics.json").read_text())
        assert diags["diagnostics"] == [
            {"k": 1, "diagnostics": [{"eps": 2e-4, "error": "synthetic"}]}]

    def test_former_runaway_finishes(self, tmp_path):
        """2D, [run] seed 3, cos1 = 0.3,0.0 alone, k = 1 and 2 at
        eps = 1e-3 (ROADMAP item 15): once a run of tens of minutes, it
        now finishes with every solve converged and writes both CSVs."""
        text = (BASE.replace("k_list = 1", "k_list = 1,2")
                .replace("sin1 = 0.0,0.3\n", ""))
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        code = cli.main(["reconstruct", "--config", cfg, "--out", str(out)])
        assert code == cli.EXIT_OK
        for k in (1, 2):
            assert (out / f"generalized_k{k}.csv").exists()
        assert not list(out.glob("*_diagnostics.json"))


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
        # 2 |x*|^{-3N} at x* = (1, 0)
        assert "# averaged_jacobian_det = 2.0000000000000000e+00" in lines
        slope_line = [ln for ln in lines if "fitted_slope" in ln][0]
        slope = float(slope_line.split("=")[1])
        assert -0.55 < slope < -0.45

    def test_unresolved_deviation_is_diagnosed(self, tmp_path):
        """At const = 1e-100, |x*| = 1e50 and the integration holds x to
        1e-12 |x*| alone, far above the predicted deviations lam
        max|xi| (about 1e-3, 3e-5 and 1e-6): every eps gets a diagnostic
        in place of a sup_dev that rounding would swamp to 0."""
        text = MEAN.replace("1.0,0.0", "1e-100,0.0") + "cos1 = 1.0,0.0\n"
        out = tmp_path / "out"
        code = cli.main(["average", "--config", write_config(tmp_path, text),
                         "--out", str(out)])
        assert code == cli.EXIT_PARTIAL
        diags = json.loads((out / "average_diagnostics.json").read_text())
        assert [d["eps"] for d in diags["diagnostics"]] == [1e-2, 1e-3, 1e-4]
        for d in diags["diagnostics"]:
            assert "is not above the integration's resolution" in d["error"]
        rows = [ln for ln in (out / "family.csv").read_text().splitlines()
                if not ln.startswith("#")]
        assert rows == ["eps,min_u,sup_dev,defect"]

    def test_small_mean_stops_at_the_resolution(self, tmp_path):
        """At const = 1e-14, |x*| = 1e7 and the integration holds x to
        REL_TOL |x*| = 1e-5 alone, so Newton stops once the defect is
        below that.  Every entry's sup_dev then lies within 10 lam^2 of
        lam max|xi| = lam (xi = -cos t), the bound of the first-order
        oracle test, and min_u is |x*| / sqrt(eps); eps = 1e-4, whose
        predicted deviation is not resolved, gets a diagnostic."""
        text = MEAN.replace("1.0,0.0", "1e-14,0.0") + "cos1 = 1.0,0.0\n"
        out = tmp_path / "out"
        code = cli.main(["average", "--config", write_config(tmp_path, text),
                         "--out", str(out)])
        assert code == cli.EXIT_PARTIAL
        rows = [[float(x) for x in ln.split(",")] for ln in
                (out / "family.csv").read_text().splitlines()[-2:]]
        assert [eps for eps, *_ in rows] == [1e-2, 1e-3]
        for eps, min_u, sup_dev, _ in rows:
            lam = eps ** 1.5
            assert abs(sup_dev - lam) <= 10.0 * lam ** 2
            assert min_u == pytest.approx(1e7 / np.sqrt(eps), rel=1e-9)

    def test_needs_forcing(self, tmp_path, capsys):
        """No forcing, a zero perturbation and a forcing with zero mean
        are configuration errors: none has a bifurcation from infinity.
        The command finds it after main made the output directory, which
        goes again."""
        zero_mean = "[perturbation]\nname = forced_kepler\ncos1 = 1.0,0.0\n"
        for text in ("[run]\n",
                     "[run]\n\n[perturbation]\nname = zero\n",
                     "[run]\n\n" + zero_mean):
            cfg = write_config(tmp_path, text)
            code = cli.main(["average", "--config", cfg,
                             "--out", str(tmp_path / "o")])
            assert code == cli.EXIT_CONFIG
            err = capsys.readouterr().err
            assert "configuration error" in err
            assert ("needs a forced_kepler perturbation with a nonzero "
                    "mean") in err
            assert sorted(p.name for p in tmp_path.iterdir()) == ["run.ini"]

    @pytest.mark.parametrize("const", ["1e300,0.0", "1e-300,0.0",
                                       "1e-170,0.0"])
    def test_extreme_mean_is_diagnosed(self, tmp_path, capsys, const):
        """A nonzero mean whose averaged Jacobian determinant 2 |x*|^(-3N)
        overflows (1e300) or underflows (1e-300, 1e-170) a float exits 2
        with the reason in average_diagnostics.json, not with a
        traceback."""
        text = ("[run]\n[perturbation]\nname = forced_kepler\n"
                f"const = {const}\n")
        out = tmp_path / "out"
        code = cli.main(["average", "--config", write_config(tmp_path, text),
                         "--out", str(out)])
        assert code == cli.EXIT_PARTIAL
        assert "is not a normal float" in capsys.readouterr().err
        diags = json.loads((out / "average_diagnostics.json").read_text())
        assert "is not a normal float" in diags["diagnostics"][0]["error"]
        assert sorted(p.name for p in out.iterdir()) == [
            "average_diagnostics.json"]

    def test_config_error_removes_the_parents_main_made(self, tmp_path):
        cfg = write_config(tmp_path, "[run]\n")
        code = cli.main(["average", "--config", cfg,
                         "--out", str(tmp_path / "a" / "b" / "o")])
        assert code == cli.EXIT_CONFIG
        assert not (tmp_path / "a").exists()

    def test_config_error_keeps_existing_directory(self, tmp_path):
        """An output directory that was there before the run stays, with
        what it held."""
        out = tmp_path / "o"
        out.mkdir()
        (out / "kept.txt").write_text("x")
        code = cli.main(["average", "--config",
                         write_config(tmp_path, "[run]\n"),
                         "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        assert [p.name for p in out.iterdir()] == ["kept.txt"]

    def test_partial_exit(self, tmp_path, monkeypatch):
        def fake(spec, eps_list):
            return [], [{"eps": eps_list[0], "error": "synthetic"}]

        monkeypatch.setattr(cli.averaging, "bifurcation_from_infinity", fake)
        text = ("[run]\n[perturbation]\nname = forced_kepler\n"
                "const = 1.0,0.0\n")
        cfg = write_config(tmp_path, text)
        code = cli.main(["average", "--config", cfg,
                         "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_PARTIAL

    def test_failed_self_check_is_partial(self, tmp_path, capsys,
                                          monkeypatch):
        """A failing self-check of x* (forced by a negative tolerance)
        raises ``AveragingError``; the command exits 2 with the
        diagnostics, not with a traceback."""
        monkeypatch.setattr(cli.averaging, "EQUILIBRIUM_TOL", -1.0)
        text = ("[run]\n[perturbation]\nname = forced_kepler\n"
                "const = 1.0,0.0\n")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "o"
        code = cli.main(["average", "--config", cfg, "--out", str(out)])
        assert code == cli.EXIT_PARTIAL
        message = "averaged equilibrium fails its defining relation"
        assert capsys.readouterr().err == f"average failed: {message}\n"
        diags = json.loads((out / "average_diagnostics.json").read_text())
        assert diags["diagnostics"] == [{"error": message}]

    def test_failed_det_check_is_partial(self, tmp_path, capsys,
                                         monkeypatch):
        """The determinant's self-check runs on every average run; a
        failure (forced by a negative tolerance) exits 2 with the
        diagnostics and writes no family."""
        monkeypatch.setattr(cli.averaging, "DET_TOL", -1.0)
        text = ("[run]\n[perturbation]\nname = forced_kepler\n"
                "const = 1.0,0.0\n")
        out = tmp_path / "o"
        code = cli.main(["average", "--config", write_config(tmp_path, text),
                         "--out", str(out)])
        assert code == cli.EXIT_PARTIAL
        assert "disagrees with the closed form" in capsys.readouterr().err
        diags = json.loads((out / "average_diagnostics.json").read_text())
        assert "disagrees with the closed form" in \
            diags["diagnostics"][0]["error"]
        assert not (out / "family.csv").exists()

    def test_integration_failure_is_partial(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise cli.flow.FlowError("integration failed: synthetic")

        monkeypatch.setattr(cli.flow, "integrate_with_variational", fail)
        text = ("[run]\n[perturbation]\nname = forced_kepler\n"
                "const = 1.0,0.0\n")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "o"
        code = cli.main(["average", "--config", cfg, "--out", str(out)])
        assert code == cli.EXIT_PARTIAL
        diags = json.loads((out / "average_diagnostics.json").read_text())
        # every eps shares the failed integration, so each gets one
        assert diags["diagnostics"] == [
            {"eps": eps, "error": "integration failed: synthetic"}
            for eps in (1e-2, 1e-3, 1e-4)]
        rows = [ln for ln in (out / "family.csv").read_text().splitlines()
                if not ln.startswith("#")]
        assert rows == ["eps,min_u,sup_dev,defect"]


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

    def test_rejects_3d(self, tmp_path, capsys):
        text = "[run]\ndimension = 3\n[remove]\nmu_list = 0.1\n"
        cfg = write_config(tmp_path, text)
        code = cli.main(["remove-collisions", "--config", cfg,
                         "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_CONFIG
        assert "remove-collisions is planar only" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["theorem-demo", "reconstruct"])
def test_eps_must_be_a_target_exactly(tmp_path, capsys, command):
    """[run] eps = 1e-16 is not the continuation target 5e-17, though the
    two lie within 1e-15 of each other: a configuration error, before
    anything is continued."""
    text = (BASE.replace("eps = 1e-3", "eps = 1e-16")
            + "\n[shoot]\neps_schedule = 5e-17\n")
    cfg = write_config(tmp_path, text)
    code = cli.main([command, "--config", cfg, "--out",
                     str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG
    assert "is not among the continuation targets" in \
        capsys.readouterr().err


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


def test_commands_run_without_scipy(tmp_path):
    """kepreg runs on numpy alone: a fresh interpreter imports kepreg,
    runs theorem-demo and reconstruct through ``cli.main``, and has not
    loaded any scipy module (nor, so, bound its ``solve_ivp``)."""
    demo = write_config(tmp_path, BASE, "demo.ini")
    recon = write_config(tmp_path, BASE.replace("eps = 1e-3", "eps = 0"),
                         "recon.ini")
    code = f"""
import sys
import kepreg
from kepreg import cli
for command, cfg in (("theorem-demo", {demo!r}), ("reconstruct", {recon!r})):
    assert cli.main([command, "--config", cfg, "--out", {str(tmp_path)!r}
                     + "/" + command]) == cli.EXIT_OK, command
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "reconstruct" / "generalized_k1.csv").exists()
