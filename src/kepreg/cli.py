"""Command-line driver: reproducible experiment runs from INI configs.

Every subcommand reads a validated config file, writes CSV/JSON outputs
into the chosen directory with the full config echoed as a header, and
exits with 0 (success), 2 (partial results) or 3 (configuration error).
An integration or shooting failure that reaches ``main`` ends with exit
2 and ``<command>_diagnostics.json`` holding its message; a command that
reports failures per k (a continuation that stops short, a certificate
that fails) writes them to the same file and exits 2.
"""

import argparse
import configparser
import shutil
import sys
from pathlib import Path

import numpy as np

from . import (_output, averaging, flow, manifolds, model, reconstruct,
               shooting)
from .errors import KepregError

EXIT_OK = 0
EXIT_PARTIAL = 2
EXIT_CONFIG = 3


class ConfigError(ValueError):
    pass


ALLOWED_KEYS = {
    "run": {"dimension", "period", "k_list", "seed", "eps", "l"},
    "perturbation": {"name", "const", "cos1", "sin1", "cos2", "sin2"},
    "shoot": {"eps_schedule"},
    "average": {"eps_list"},
    "remove": {"mu_list", "k"},
    "certify": {"n_seeds"},
}


def _parse_float(key, text):
    """One finite float of the INI value ``key`` ("[section] key")."""
    try:
        x = float(text)
    except ValueError:
        x = np.nan
    if not np.isfinite(x):
        raise ConfigError(f"{key} must be a finite number, got {text!r}")
    return x


def _parse_floats(key, text):
    return [_parse_float(key, x) for x in text.split(",") if x.strip() != ""]


def _parse_ints(text):
    return [int(x) for x in text.split(",") if x.strip() != ""]


def _parse_perturbation(parser, period, dim):
    """The [perturbation] section as a perturbation: absent or ``zero``
    is U = 0 and takes no coefficients, ``forced_kepler`` the Fourier
    forcing of its coefficients.  The harmonics run up to the highest cos
    or sin row given, and a row left out below it is zero, so ``sin2``
    alone is the second one."""
    sec = parser["perturbation"] if parser.has_section("perturbation") \
        else {}
    name = sec.get("name", "zero")
    if name == "zero":
        coefficients = sorted(set(sec) - {"name"})
        if coefficients:
            raise ConfigError(f"[perturbation]: name = zero takes no "
                              f"coefficients, got {coefficients}")
        return model.zero_perturbation(period, dim)
    if name != "forced_kepler":
        raise ConfigError(f"unknown perturbation '{name}'")
    n = max((m for m in (1, 2) for kind in ("cos", "sin")
             if f"{kind}{m}" in sec), default=0)

    def rows(kind):
        return [_parse_floats(f"[perturbation] {kind}{m}",
                              sec.get(f"{kind}{m}", "")) or [0.0] * dim
                for m in range(1, n + 1)] or None

    const = (_parse_floats("[perturbation] const", sec.get("const", ""))
             or [0.0] * dim)
    cos, sin = rows("cos"), rows("sin")
    try:
        pert = model.Perturbation(period, const, cos, sin)
    except ValueError as exc:
        raise ConfigError(f"[perturbation]: {exc}") from None
    if pert.dim != dim:
        raise ConfigError("[perturbation]: forcing coefficients must have "
                          "length dim")
    return pert


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
        self.period = _parse_float("[run] period",
                                   run.get("period", 2.0 * np.pi))
        if self.period <= 0:
            raise ConfigError("period must be positive")
        self.k_list = _parse_ints(run.get("k_list", "1"))
        if not self.k_list or any(k < 1 for k in self.k_list):
            raise ConfigError("k_list must hold manifold indices >= 1")
        self.seed = int(run.get("seed", 0))
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        self.eps = _parse_float("[run] eps", run.get("eps", 0.0))
        if self.eps < 0:
            raise ConfigError("eps must be >= 0")
        self.l = int(run.get("l", len(self.k_list)))
        if self.l < 1:
            raise ConfigError("l must be >= 1")
        self.perturbation = _parse_perturbation(parser, self.period,
                                                self.dimension)
        shoot_sec = parser["shoot"] if parser.has_section("shoot") else {}
        self.eps_schedule = _parse_floats(
            "[shoot] eps_schedule", shoot_sec.get("eps_schedule", "")) or None
        if not all(e > 0.0 for e in self.eps_schedule or ()):
            raise ConfigError("[shoot] eps_schedule values must be > 0")
        avg = parser["average"] if parser.has_section("average") else {}
        self.avg_eps_list = _parse_floats(
            "[average] eps_list", avg.get("eps_list", "1e-2,1e-3,1e-4"))
        if not all(e > 0.0 for e in self.avg_eps_list):
            raise ConfigError("[average] eps_list values must be > 0")
        rem = parser["remove"] if parser.has_section("remove") else {}
        self.mu_list = _parse_floats(
            "[remove] mu_list",
            rem.get("mu_list", "0.1,0.05,0.025,0.0125,0.00625"))
        self.remove_k = int(rem.get("k", 1))
        if self.remove_k < 1:
            raise ConfigError("[remove] k must be >= 1")
        # the source orbit's 2k collisions lie S_k/(2k) apart, and windows
        # of half-width 2 mu around them must not overlap
        bound = manifolds.constants(manifolds.ManifoldSpec(
            k=self.remove_k, T=self.period)).S / (8.0 * self.remove_k)
        if not all(0.0 < mu < bound for mu in self.mu_list):
            raise ConfigError(f"mu_list must lie in (0, S_k/(8k)) = "
                              f"(0, {bound})")
        cert = parser["certify"] if parser.has_section("certify") else {}
        self.certify_seeds = int(cert.get("n_seeds", 100))
        # seed i of k draws from default_rng(seed + 1000 k + i), so a
        # 1001st seed of k would repeat the first seed of k + 1
        if not 1 <= self.certify_seeds <= 1000:
            raise ConfigError("n_seeds must lie in [1, 1000]")

    def spec(self, k):
        """The manifold M_k of the run's period and dimension."""
        return manifolds.ManifoldSpec(k=k, T=self.period, dim=self.dimension)

    def header_lines(self):
        lines = []
        for section in self._parser.sections():
            for key, val in self._parser[section].items():
                lines.append(f"{section}.{key} = {val}")
        return lines


def _write_json(path, payload, config):
    """payload under the config header, on one line."""
    _output.write_json(path, {"config": config.header_lines(), **payload})


def _diagnosed(out, command, diags, config):
    """EXIT_OK, or EXIT_PARTIAL with diags in <command>_diagnostics.json."""
    if not diags:
        return EXIT_OK
    _write_json(out / f"{command}_diagnostics.json", {"diagnostics": diags},
                config)
    return EXIT_PARTIAL


# ---------------------------------------------------------------------------
# subcommands

def cmd_seed(config, out):
    rng = np.random.default_rng(config.seed)
    constants, seeds = [], []
    for k in config.k_list:
        spec = config.spec(k)
        c = manifolds.constants(spec)
        constants.append(f"{k},{c.tau:.16e},{c.omega:.16e},{c.sigma:.16e},"
                         f"{c.S:.16e}")
        X = manifolds.seed_state(
            spec, manifolds.random_seed_params(spec, [rng] * 5))
        for row, K0 in zip(X, model.reg_energy(X, 0.0, None)):
            vals = ",".join(f"{x:.16e}" for x in row)
            seeds.append(f"{k},{vals},{K0:.3e}")
    cols = ",".join(f"x{i}" for i in range(model.state_dim(config.dimension)))
    _output.write_csv(out / "constants.csv", config.header_lines(),
                      "k,tau,omega,sigma,S", constants)
    _output.write_csv(out / "seeds.csv", config.header_lines(),
                      f"k,{cols},K0", seeds)
    return EXIT_OK


def cmd_flow(config, out):
    rng = np.random.default_rng(config.seed)
    pert = config.perturbation
    reports = {}
    for k in config.k_list:
        spec = config.spec(k)
        c = manifolds.constants(spec)
        X0 = manifolds.seed_state(spec, manifolds.random_seed_params(spec, rng))
        fld = lambda X: model.reg_field(X, config.eps, pert)
        traj = flow.integrate(fld, X0, c.S)
        flow.trajectory_to_csv(traj, out / f"trajectory_k{k}.csv",
                               config.eps, pert, config.header_lines())
        reports[str(k)] = flow.invariant_report(traj, config.eps, pert)
    _write_json(out / "invariants.json", {"invariants": reports}, config)
    return EXIT_OK


def _schedule(config, to_eps):
    """The continuation targets: [shoot] eps_schedule, which RunConfig
    checks is positive, or else eps/4, eps/2, eps, empty at eps = 0.  A
    run with no target is a configuration error, and so is one that
    reads its orbit at [run] eps (``to_eps``) where eps is no target."""
    schedule = config.eps_schedule or [
        e for e in (config.eps / 4.0, config.eps / 2.0, config.eps)
        if e > 0.0]
    if not schedule:
        raise ConfigError("no continuation target: [run] eps is 0 and "
                          "[shoot] eps_schedule is not set")
    if to_eps and config.eps not in schedule:
        raise ConfigError(f"[run] eps = {config.eps!r} is not among the "
                          f"continuation targets {schedule}")
    return schedule


def _continue_branch(config, pert, k, schedule):
    spec = config.spec(k)
    rng = np.random.default_rng(config.seed + k)
    params = manifolds.random_seed_params(spec, rng)
    X_seed = manifolds.seed_state(spec, params)
    return shooting.continue_in_epsilon(spec, pert, X_seed, schedule)


def _orbit_at_eps(config, pert, k, schedule, failures):
    """The last orbit of k's continued branch at [run] eps, or None with
    the branch's diagnostics appended to failures."""
    family, diags = _continue_branch(config, pert, k, schedule)
    # continue_in_epsilon stores each target float as orbit.eps
    target = [o for o in family if o.eps == config.eps]
    if not target:
        failures.append({"k": k, "diagnostics": diags})
        return None
    return target[-1]


def _rectilinear_orbit(config, k):
    """The eps = 0 rectilinear collision orbit on M_k, without shooting
    unknowns: ``shooting.orbit_trajectory`` takes its closed-form
    segment starts."""
    spec = config.spec(k)
    c = manifolds.constants(spec)
    X0 = manifolds.seed_state(spec, manifolds.rectilinear_seed_params(spec))
    return shooting.PeriodicOrbit(
        X0=X0, S=c.S, eps=0.0, eta=1, residual_norm=0.0,
        energy_band=(-c.tau, -c.tau), monodromy=None, k=k,
        dim=config.dimension)


def _write_generalized(config, pert, orbit, out):
    """The generalized solution of orbit, written to generalized_k<k>.csv."""
    gensol = reconstruct.to_generalized(orbit, pert)
    reconstruct.generalized_to_csv(gensol, out / f"generalized_k{orbit.k}.csv",
                                   header_lines=config.header_lines())
    return gensol


def cmd_shoot(config, out):
    schedule = _schedule(config, to_eps=False)
    pert = config.perturbation
    orbits = []
    all_diags = []
    failures = []
    for k in config.k_list:
        family, diags = _continue_branch(config, pert, k, schedule)
        orbits.extend(family)
        all_diags.extend(diags)
        if diags:
            failures.append({"k": k, "diagnostics": diags})
    shooting.save_orbits(orbits, out / "orbits.json",
                         meta={"config": config.header_lines(),
                               "diagnostics": all_diags})
    return _diagnosed(out, "shoot", failures, config)


def cmd_theorem_demo(config, out):
    schedule = _schedule(config, to_eps=True)
    pert = config.perturbation
    ks = list(range(1, config.l + 1))
    final = []
    failures = []
    for k in ks:
        orbit = _orbit_at_eps(config, pert, k, schedule, failures)
        if orbit is None:
            continue
        final.append(orbit)
        gensol = _write_generalized(config, pert, orbit, out)
        # the orbit's trajectory, one row per segment node, is the one
        # to_generalized read off its segment starts
        flow.trajectory_to_csv(gensol.traj, out / f"orbit_k{k}.csv",
                               orbit.eps, pert, config.header_lines())
    report = shooting.distinctness(final) if len(final) >= 2 else \
        {"pairs": [], "all_disjoint": True}
    _output.write_csv(
        out / "summary.csv", config.header_lines(),
        "k,S,eta,E_min,E_max,residual",
        (f"{o.k},{o.S:.16e},{o.eta},{o.energy_band[0]:.16e},"
         f"{o.energy_band[1]:.16e},{o.residual_norm:.3e}" for o in final))
    shooting.save_orbits(final, out / "orbits.json",
                         meta={"config": config.header_lines(),
                               "distinctness": report,
                               "failures": failures})
    return _diagnosed(out, "theorem-demo", failures, config)


def cmd_certify(config, out):
    n = config.certify_seeds
    specs, X0 = [], []
    for k in config.k_list:
        spec = config.spec(k)
        first = config.seed + 1000 * k
        rngs = map(np.random.default_rng, range(first, first + n))
        specs += [spec] * n
        X0.append(manifolds.seed_state(
            spec, manifolds.random_seed_params(spec, rngs)))
    reports = manifolds.nondegeneracy_certificate(specs, np.concatenate(X0))
    angles = [r["principal_angle"] for r in reports]
    _write_json(out / "certificates.json",
                {"min_principal_angle": min(angles),
                 "n_seeds": len(reports),
                 "certificates": reports}, config)
    return EXIT_OK if min(angles) > manifolds.ANGLE_MIN else EXIT_PARTIAL


def cmd_reconstruct(config, out):
    # at eps = 0 the orbit is the rectilinear one and nothing is continued
    schedule = _schedule(config, to_eps=True) if config.eps > 0.0 else None
    pert = config.perturbation
    failures = []
    for k in config.k_list:
        if config.eps == 0.0:
            orbit = _rectilinear_orbit(config, k)
        else:
            orbit = _orbit_at_eps(config, pert, k, schedule, failures)
            if orbit is None:
                continue
        _write_generalized(config, pert, orbit, out)
    return _diagnosed(out, "reconstruct", failures, config)


def cmd_average(config, out):
    pert = config.perturbation
    # a zero perturbation has zero mean
    if not np.any(pert.const):
        raise ConfigError("the average command needs a forced_kepler "
                          "perturbation with a nonzero mean (const)")
    det = averaging.averaged_jacobian_det(
        averaging.averaged_equilibrium(pert.const))
    entries, diags = averaging.bifurcation_from_infinity(
        pert, config.avg_eps_list)
    averaging.family_to_csv(
        entries, out / "family.csv",
        config.header_lines() + [f"averaged_jacobian_det = {det:.16e}"])
    return _diagnosed(out, "average", diags, config)


def cmd_remove_collisions(config, out):
    if config.dimension != 2:
        raise ConfigError("remove-collisions is planar only")
    orbit = _rectilinear_orbit(config, config.remove_k)
    traj = shooting.orbit_trajectory(orbit, config.perturbation)
    removals = (reconstruct.remove_collisions(traj, orbit.S, mu, 0.0, None)
                for mu in config.mu_list)
    _output.write_csv(
        out / "removal.csv", config.header_lines(),
        "mu,T_mu,min_u_mu,forcing_l1",
        (f"{r.mu:.6e},{r.T_mu:.16e},{r.min_u:.16e},{r.forcing_l1():.16e}"
         for r in removals))
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


def _outermost_missing(path):
    """The outermost directory on the way to path that does not exist
    yet, or None when path exists."""
    missing = None
    for parent in (path, *path.parents):
        if parent.exists():
            break
        missing = parent
    return missing


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
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    created = _outermost_missing(out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        return COMMANDS[args.command](config, out)
    except ConfigError as exc:
        # a configuration error writes nothing, so what main made goes
        if created is not None:
            shutil.rmtree(created)
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except KepregError as exc:
        print(f"{args.command} failed: {exc}", file=sys.stderr)
        return _diagnosed(out, args.command, [{"error": str(exc)}], config)


if __name__ == "__main__":
    sys.exit(main())
