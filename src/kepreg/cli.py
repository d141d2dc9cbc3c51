"""Command-line driver: reproducible experiment runs from INI configs.

Every subcommand reads a validated config file, writes CSV/JSON outputs
into the chosen directory with the full config echoed as a header, and
exits with 0 (success), 2 (partial results) or 3 (configuration error).
"""

import argparse
import configparser
import json
import sys
from pathlib import Path

import numpy as np

from . import averaging, flow, manifolds, model, reconstruct, shooting

EXIT_OK = 0
EXIT_PARTIAL = 2
EXIT_CONFIG = 3


class ConfigError(ValueError):
    pass


ALLOWED_KEYS = {
    "run": {"dimension", "period", "k_list", "seed", "eps", "l"},
    "perturbation": {"name", "const", "cos1", "sin1", "cos2", "sin2",
                     "k_prime", "h_prime", "n_prime", "gamma"},
    "integrator": {"rel_tol", "abs_tol", "max_step"},
    "shoot": {"segments", "eps_schedule"},
    "average": {"eps_list"},
    "remove": {"mu_list", "k"},
    "certify": {"n_seeds"},
}


def _parse_floats(text):
    return [float(x) for x in text.split(",") if x.strip() != ""]


def _parse_ints(text):
    return [int(x) for x in text.split(",") if x.strip() != ""]


class RunConfig:
    """Validated view of an INI config file."""

    def __init__(self, path):
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise ConfigError(f"config file not found: {path}")
        for section in parser.sections():
            if section not in ALLOWED_KEYS:
                raise ConfigError(f"unknown config section [{section}]")
            extra = set(parser[section]) - ALLOWED_KEYS[section]
            if extra:
                raise ConfigError(
                    f"unknown keys in [{section}]: {sorted(extra)}")
        self._parser = parser
        run = parser["run"] if parser.has_section("run") else {}
        self.dimension = int(run.get("dimension", 2))
        if self.dimension not in (2, 3):
            raise ConfigError("dimension must be 2 or 3")
        self.period = float(run.get("period", 2.0 * np.pi))
        if self.period <= 0:
            raise ConfigError("period must be positive")
        self.k_list = _parse_ints(run.get("k_list", "1"))
        if any(k < 1 for k in self.k_list):
            raise ConfigError("manifold indices must be >= 1")
        self.seed = int(run.get("seed", 0))
        self.eps = float(run.get("eps", 0.0))
        self.l = int(run.get("l", len(self.k_list)))
        integ = parser["integrator"] if parser.has_section("integrator") else {}
        self.cfg = flow.IntegratorConfig(
            rel_tol=float(integ.get("rel_tol", 1e-12)),
            abs_tol=float(integ.get("abs_tol", 1e-14)),
            max_step=float(integ.get("max_step", np.inf)))
        shoot_sec = parser["shoot"] if parser.has_section("shoot") else {}
        self.segments = int(shoot_sec.get("segments", 0))
        self.eps_schedule = _parse_floats(
            shoot_sec.get("eps_schedule", "")) or None
        avg = parser["average"] if parser.has_section("average") else {}
        self.avg_eps_list = _parse_floats(
            avg.get("eps_list", "1e-2,1e-3,1e-4"))
        rem = parser["remove"] if parser.has_section("remove") else {}
        self.mu_list = _parse_floats(
            rem.get("mu_list", "0.1,0.05,0.025,0.0125,0.00625"))
        self.remove_k = int(rem.get("k", 1))
        cert = parser["certify"] if parser.has_section("certify") else {}
        self.certify_seeds = int(cert.get("n_seeds", 100))

    def header_lines(self):
        lines = []
        for section in self._parser.sections():
            for key, val in self._parser[section].items():
                lines.append(f"{section}.{key} = {val}")
        return lines

    def perturbation(self):
        if not self._parser.has_section("perturbation"):
            return model.zero_perturbation(self.period, self.dimension)
        sec = self._parser["perturbation"]
        name = sec.get("name", "zero")
        if name == "zero":
            return model.zero_perturbation(self.period, self.dimension)
        if name == "forced_kepler":
            const = _parse_floats(sec.get("const", "")) or [0.0] * self.dimension
            cos_rows = []
            sin_rows = []
            for m in (1, 2):
                if f"cos{m}" in sec:
                    cos_rows.append(_parse_floats(sec[f"cos{m}"]))
                if f"sin{m}" in sec:
                    sin_rows.append(_parse_floats(sec[f"sin{m}"]))
            return model.forced_kepler(
                self.period, const,
                cos=np.array(cos_rows) if cos_rows else None,
                sin=np.array(sin_rows) if sin_rows else None,
                dim=self.dimension)
        if name == "fatou":
            return model.fatou(float(sec.get("k_prime", 1.0)),
                               float(sec.get("h_prime", 0.0)),
                               float(sec.get("n_prime", 1.0)),
                               float(sec.get("gamma", 0.0)))
        raise ConfigError(f"unknown perturbation '{name}'")

    def perturbed(self):
        """Whether a run leaves eps = 0, through eps or the eps schedule."""
        return any(e != 0.0 for e in [self.eps, *(self.eps_schedule or [])])

    def forcing_spec(self):
        """Forcing series for the averaging command (physical forcing p)."""
        pert = self.perturbation()
        if not hasattr(pert, "forcing"):
            raise ConfigError("the average command needs a forced_kepler "
                              "perturbation (its p(t) is the forcing)")
        return pert.forcing


def _write_json(path, payload, config):
    payload = {"config": config.header_lines(), **payload}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)


# ---------------------------------------------------------------------------
# subcommands

def cmd_seed(config, out):
    rng = np.random.default_rng(config.seed)
    with open(out / "constants.csv", "w") as fh:
        for line in config.header_lines():
            fh.write(f"# {line}\n")
        fh.write("k,tau,omega,sigma,S\n")
        for k in config.k_list:
            spec = manifolds.ManifoldSpec(k=k, T=config.period,
                                          dim=config.dimension)
            c = manifolds.constants(spec)
            fh.write(f"{k},{c.tau:.16e},{c.omega:.16e},{c.sigma:.16e},"
                     f"{c.S:.16e}\n")
    with open(out / "seeds.csv", "w") as fh:
        for line in config.header_lines():
            fh.write(f"# {line}\n")
        D = model.state_dim(config.dimension)
        cols = ",".join(f"x{i}" for i in range(D))
        fh.write(f"k,{cols},K0\n")
        for k in config.k_list:
            spec = manifolds.ManifoldSpec(k=k, T=config.period,
                                          dim=config.dimension)
            for _ in range(5):
                X = manifolds.seed_state(
                    spec, manifolds.random_seed_params(spec, rng))
                K0 = model.reg_energy(X, 0.0, None)
                if abs(K0) > 1e-12:
                    raise RuntimeError("seed failed its energy validation")
                vals = ",".join(f"{x:.16e}" for x in X)
                fh.write(f"{k},{vals},{K0:.3e}\n")
    return EXIT_OK


def cmd_flow(config, out):
    rng = np.random.default_rng(config.seed)
    pert = config.perturbation()
    reports = {}
    for k in config.k_list:
        spec = manifolds.ManifoldSpec(k=k, T=config.period,
                                      dim=config.dimension)
        c = manifolds.constants(spec)
        X0 = manifolds.seed_state(spec, manifolds.random_seed_params(spec, rng))
        fld = lambda X: model.reg_field(X, config.eps, pert)
        traj = flow.integrate(fld, X0, c.S, config.cfg)
        flow.trajectory_to_csv(traj, out / f"trajectory_k{k}.csv",
                               config.eps, pert, config.header_lines())
        reports[str(k)] = flow.invariant_report(traj, config.eps, pert)
    _write_json(out / "invariants.json", {"invariants": reports}, config)
    return EXIT_OK


def _continue_branch(config, pert, k):
    spec = manifolds.ManifoldSpec(k=k, T=config.period, dim=config.dimension)
    c = manifolds.constants(spec)
    rng = np.random.default_rng(config.seed + k)
    params = manifolds.random_seed_params(spec, rng)
    X_seed = manifolds.seed_state(spec, params)
    schedule = config.eps_schedule or [config.eps / 4.0, config.eps / 2.0,
                                       config.eps]
    schedule = [e for e in schedule if e > 0.0]
    family, diags = shooting.continue_in_epsilon(
        spec, pert, X_seed, c.S, schedule, m=config.segments, cfg=config.cfg)
    return family, diags


def cmd_shoot(config, out):
    pert = config.perturbation()
    orbits = []
    all_diags = []
    for k in config.k_list:
        family, diags = _continue_branch(config, pert, k)
        orbits.extend(family)
        all_diags.extend(diags)
    shooting.save_orbits(orbits, out / "orbits.json",
                         meta={"config": config.header_lines(),
                               "diagnostics": all_diags})
    return EXIT_PARTIAL if all_diags else EXIT_OK


def cmd_theorem_demo(config, out):
    pert = config.perturbation()
    ks = list(range(1, config.l + 1))
    final = []
    failures = []
    for k in ks:
        family, diags = _continue_branch(config, pert, k)
        target = [o for o in family if abs(o.eps - config.eps) < 1e-15]
        if not target:
            failures.append({"k": k, "diagnostics": diags})
            continue
        orbit = target[-1]
        final.append(orbit)
        gensol = reconstruct.to_generalized(orbit, pert, config.cfg,
                                            provenance=f"k={k}")
        reconstruct.generalized_to_csv(
            gensol, out / f"generalized_k{k}.csv",
            header_lines=config.header_lines())
        # to_generalized has integrated orbit.X0 over orbit.S already
        flow.trajectory_to_csv(gensol.traj, out / f"orbit_k{k}.csv",
                               orbit.eps, pert, config.header_lines())
    report = shooting.distinctness(final) if len(final) >= 2 else \
        {"pairs": [], "all_disjoint": True}
    with open(out / "summary.csv", "w") as fh:
        for line in config.header_lines():
            fh.write(f"# {line}\n")
        fh.write("k,S,eta,E_min,E_max,residual\n")
        for o in final:
            fh.write(f"{o.k},{o.S:.16e},{o.eta},{o.energy_band[0]:.16e},"
                     f"{o.energy_band[1]:.16e},{o.residual_norm:.3e}\n")
    shooting.save_orbits(final, out / "orbits.json",
                         meta={"config": config.header_lines(),
                               "distinctness": report,
                               "failures": failures})
    if failures:
        return EXIT_PARTIAL
    return EXIT_OK


def cmd_certify(config, out):
    def one(k, i):
        spec = manifolds.ManifoldSpec(k=k, T=config.period,
                                      dim=config.dimension)
        rng = np.random.default_rng(config.seed + 1000 * k + i)
        X0 = manifolds.seed_state(spec, manifolds.random_seed_params(spec, rng))
        return manifolds.nondegeneracy_certificate(spec, X0, config.cfg)

    reports = [one(k, i) for k in config.k_list
               for i in range(config.certify_seeds)]
    angles = [r["principal_angle"] for r in reports]
    _write_json(out / "certificates.json",
                {"min_principal_angle": min(angles),
                 "n_seeds": len(reports),
                 "certificates": reports}, config)
    return EXIT_OK if min(angles) > 1e-3 else EXIT_PARTIAL


def cmd_reconstruct(config, out):
    pert = config.perturbation()
    code = EXIT_OK
    for k in config.k_list:
        spec = manifolds.ManifoldSpec(k=k, T=config.period,
                                      dim=config.dimension)
        c = manifolds.constants(spec)
        if config.eps == 0.0:
            params = manifolds.rectilinear_seed_params(spec)
            X0 = manifolds.seed_state(spec, params)
            fld = lambda X: model.reg_field(X, 0.0, pert)
            traj = flow.integrate(fld, X0, c.S, config.cfg)
            orbit = shooting.PeriodicOrbit(
                X0=X0, S=c.S, eps=0.0, eta=1, residual_norm=0.0,
                energy_band=(-c.tau, -c.tau),
                monodromy=None, k=k, dim=config.dimension)
        else:
            family, diags = _continue_branch(config, pert, k)
            if not family:
                code = EXIT_PARTIAL
                continue
            orbit = family[-1]
        gensol = reconstruct.to_generalized(orbit, pert, config.cfg,
                                            provenance=f"k={k}")
        reconstruct.generalized_to_csv(
            gensol, out / f"generalized_k{k}.csv",
            header_lines=config.header_lines())
    return code


def cmd_average(config, out):
    spec = config.forcing_spec()
    entries, diags = averaging.bifurcation_from_infinity(
        spec, config.avg_eps_list)
    averaging.family_to_csv(entries, out / "family.csv",
                            config.header_lines())
    if diags:
        _write_json(out / "average_diagnostics.json",
                    {"diagnostics": diags}, config)
        return EXIT_PARTIAL
    return EXIT_OK


def cmd_remove_collisions(config, out):
    if config.dimension != 2:
        raise ConfigError("remove-collisions is planar only")
    spec = manifolds.ManifoldSpec(k=config.remove_k, T=config.period, dim=2)
    c = manifolds.constants(spec)
    X0 = manifolds.seed_state(spec, manifolds.rectilinear_seed_params(spec))
    fld = lambda X: model.reg_field(X, 0.0, None)
    traj = flow.integrate(fld, X0, c.S, config.cfg)
    T_src = config.period
    with open(out / "removal.csv", "w") as fh:
        for line in config.header_lines():
            fh.write(f"# {line}\n")
        fh.write("mu,T_mu,min_u_mu,forcing_l1\n")
        for mu in config.mu_list:
            res = reconstruct.remove_collisions(traj, c.S, mu, cfg=config.cfg)
            l1 = res.forcing_l1()
            fh.write(f"{mu:.6e},{res.T_mu:.16e},{res.min_u:.16e},"
                     f"{l1:.16e}\n")
    return EXIT_OK


COMMANDS = {
    "seed": cmd_seed,
    "flow": cmd_flow,
    "shoot": cmd_shoot,
    "theorem-demo": cmd_theorem_demo,
    "certify": cmd_certify,
    "reconstruct": cmd_reconstruct,
    "average": cmd_average,
    "remove-collisions": cmd_remove_collisions,
}

# the commands that evaluate the perturbation on the regularized field
REGULARIZED = {"flow", "shoot", "theorem-demo", "reconstruct"}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="kepreg",
        description="Regularized periodically forced Kepler problem: "
                    "compute, continue, certify and reconstruct periodic "
                    "solutions.")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="INI config file")
    parser.add_argument("--out", default=".", help="output directory")
    args = parser.parse_args(argv)
    out = Path(args.out)
    try:
        config = RunConfig(args.config)
        if args.command in REGULARIZED and config.perturbed():
            model.check_regularizable(config.perturbation())
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out.mkdir(parents=True, exist_ok=True)
    try:
        return COMMANDS[args.command](config, out)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
