"""Acceptance gate: the eleven headline properties of the library.

Each test prints a single pass/fail line; together they certify the
manifold geometry, the continuation pipeline, the conservation laws,
the collision analysis and the two asymptotic constructions.
"""

import functools

import numpy as np
import pytest

from kepreg import (algebra, averaging, flow, manifolds, model, reconstruct,
                    shooting)

T = 2.0 * np.pi
EPS = 1e-3
KS = (1, 2, 3)
SCHEDULE = [EPS / 4.0, EPS / 2.0, EPS]

# the physical plane reached by this Levi-Civita plane is the (u1, u2)
# plane, matching a forcing in the first two components
PLANE_12 = np.column_stack([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]])


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:2d} ({name}): FAIL")
                raise
            print(f"criterion {num:2d} ({name}): PASS")
        return wrapper
    return deco


def forcing_pert(dim):
    if dim == 2:
        return model.Perturbation(T, np.zeros(2), [[0.3, 0.0]],
                                  [[0.0, 0.3]])
    return model.Perturbation(T, np.zeros(3), [[0.3, 0.0, 0.0]],
                              [[0.0, 0.3, 0.0]])


def continue_family(k, dim, rng_seed):
    spec = manifolds.ManifoldSpec(k=k, T=T, dim=dim)
    rng = np.random.default_rng(rng_seed)
    if dim == 2:
        params = manifolds.random_seed_params(spec, rng)
    else:
        params = manifolds.SeedParams(psi=rng.uniform(0.0, 2 * np.pi),
                                      phi1=rng.uniform(0.0, 2 * np.pi),
                                      phi2=rng.uniform(0.0, 2 * np.pi),
                                      t0=rng.uniform(0.0, T),
                                      plane=PLANE_12)
    X_seed = manifolds.seed_state(spec, params)
    family, diags = shooting.continue_in_epsilon(
        spec, forcing_pert(dim), X_seed, SCHEDULE)
    assert diags == [], f"continuation failed: {diags}"
    return family


@pytest.fixture(scope="module")
def families2d():
    return {k: continue_family(k, 2, 40 + k) for k in KS}


@pytest.fixture(scope="module")
def families3d():
    return {k: continue_family(k, 3, 50 + k) for k in KS}


@criterion(1, "manifold closure")
def test_manifold_closure():
    rng = np.random.default_rng(101)
    for k in KS:
        spec = manifolds.ManifoldSpec(k=k, T=T, dim=2)
        c = manifolds.constants(spec)
        for _ in range(20):
            X0 = manifolds.seed_state(spec,
                                      manifolds.random_seed_params(spec, rng))
            traj = flow.integrate(lambda X: model.reg_field(X, 0.0),
                                  X0, c.S)
            XS = traj.eval(c.S)
            assert abs(XS[-2] - X0[-2] - T) < 1e-8
            diff = XS - X0
            diff[-2] = 0.0          # t advances by exactly T on closure
            assert np.linalg.norm(diff) < 1e-8
            # oracle: the closed-form flow agrees along the way
            s_mid = 0.37 * c.S
            assert np.allclose(traj.eval(s_mid),
                               manifolds.closed_form_flow(X0, s_mid),
                               atol=1e-8)


@criterion(2, "constants")
def test_constants():
    c1 = manifolds.constants(manifolds.ManifoldSpec(k=1, T=T, dim=2))
    assert abs(c1.tau - 2.0 ** (-1.0 / 3.0)) < 1e-12
    assert abs(c1.S - 2.0 * np.pi * 2.0 ** (2.0 / 3.0)) < 1e-12
    for k in range(1, 11):
        c = manifolds.constants(manifolds.ManifoldSpec(k=k, T=T, dim=2))
        assert abs(k * np.pi / (c.omega * c.tau) - T) < 1e-12


@criterion(3, "monodromy closed form")
def test_monodromy_closed_form():
    rng = np.random.default_rng(103)
    cases = [(k, dim) for dim in (2, 3) for k in KS]
    done = 0
    while done < 20:
        k, dim = cases[done % len(cases)]
        spec = manifolds.ManifoldSpec(k=k, T=T, dim=dim)
        c = manifolds.constants(spec)
        X0 = manifolds.seed_state(spec,
                                  manifolds.random_seed_params(spec, rng))
        _, M = flow.integrate_with_variational(
            lambda X: model.reg_field_jacobian(X, 0.0), X0, c.S)
        got = M @ manifolds.variation_start(spec, X0)
        z0, w0, _, tau = model.unpack_state(X0)
        om, kpi = c.omega, k * np.pi
        expected = model.pack_state(
            z0 - (kpi / (2 * om)) * w0,
            (4 * kpi * tau / om) * z0,
            (kpi / om) * (-2 * float(np.dot(z0, z0)) + 3.0 / tau),
            -2.0 * tau)
        scale = np.linalg.norm(expected)
        assert np.linalg.norm(got - expected) < 1e-6 * scale
        done += 1


@criterion(4, "non-degeneracy certificate")
def test_nondegeneracy_certificates():
    for dim in (2, 3):
        rng = np.random.default_rng(200 + dim)
        specs, X0 = [], []
        for i in range(100):
            spec = manifolds.ManifoldSpec(k=KS[i % len(KS)], T=T, dim=dim)
            specs.append(spec)
            X0.append(manifolds.seed_state(
                spec, manifolds.random_seed_params(spec, rng)))
        # every k and seed of one dimension in one stack
        reps = manifolds.nondegeneracy_certificate(specs, np.array(X0))
        for i, (spec, rep) in enumerate(zip(specs, reps)):
            k = spec.k
            assert rep["principal_angle"] > manifolds.ANGLE_MIN, \
                f"dim={dim} k={k} seed {i}: angle {rep['principal_angle']}"


@criterion(5, "theorem demo")
def test_theorem_demo(families2d, families3d):
    for dim, families in ((2, families2d), (3, families3d)):
        final = []
        for k in KS:
            family = families[k]
            c = manifolds.constants(manifolds.ManifoldSpec(k=k, T=T,
                                                           dim=dim))
            by_eps = {o.eps: o for o in family}
            orbit = by_eps[EPS]
            assert orbit.residual_norm < 1e-9
            assert orbit.eta == 1
            center = 0.5 * sum(orbit.energy_band)
            assert abs(center + c.tau) < 0.1 * c.tau
            # the halved-eps member has a proportionally smaller band
            half = by_eps[EPS / 2.0]
            assert half.residual_norm < 1e-9 and half.eta == 1
            width = orbit.energy_band[1] - orbit.energy_band[0]
            width_half = half.energy_band[1] - half.energy_band[0]
            assert width_half < width
            final.append(orbit)
            if dim == 3:
                assert abs(model.bl_value(orbit.X0)) < 1e-9
        report = shooting.distinctness(final)
        assert report["all_disjoint"], report


@criterion(6, "first integrals")
def test_first_integrals(families2d, families3d):
    for dim, families in ((2, families2d), (3, families3d)):
        pert = forcing_pert(dim)
        for k in KS:
            for orbit in families[k]:
                fld = lambda X: model.reg_field(X, orbit.eps, pert)
                traj = flow.integrate(fld, orbit.X0, orbit.S)
                rep = flow.invariant_report(traj, orbit.eps, pert)
                assert rep["k_drift"] < 1e-9, (dim, k, orbit.eps, rep)
                if dim == 3:
                    assert rep["bl_drift"] < 1e-9, (k, orbit.eps, rep)
                # one-shot closure: t advances by T, and in 3D the end is
                # the start rotated by theta
                X_end = traj.states[-1].copy()
                X_end[-2] -= T
                if dim == 3:
                    X_end = model.group_rotation_matrix(-orbit.theta) @ X_end
                defect = np.linalg.norm(X_end - orbit.X0)
                assert defect < 1e-8, (dim, k, orbit.eps, defect)


@criterion(7, "KS identities")
def test_ks_identities():
    rng = np.random.default_rng(107)

    def G(u):
        return np.sin(u[0]) + 0.4 * u[1] * u[2] - 0.2 * u[2] ** 2

    def gradG(u):
        return np.array([np.cos(u[0]), 0.4 * u[2],
                         0.4 * u[1] - 0.4 * u[2]])

    for _ in range(1000):
        z = rng.normal(size=4) * rng.choice([0.2, 1.0, 5.0])
        u = algebra.ks_map(z)
        assert abs(np.linalg.norm(u) - np.dot(z, z)) <= \
            1e-13 * max(1.0, np.dot(z, z))
        got = algebra.ks_gradient_transport(z, gradG(u))
        fd = np.empty(4)
        for i in range(4):
            h = 1e-6 * max(1.0, abs(z[i]))
            zp, zm = z.copy(), z.copy()
            zp[i] += h
            zm[i] -= h
            fd[i] = (G(algebra.ks_map(zp)) - G(algebra.ks_map(zm))) / (2 * h)
        assert np.linalg.norm(got - fd) < 1e-6 * max(1.0,
                                                     np.linalg.norm(fd))


def _collision_orbit(k):
    spec = manifolds.ManifoldSpec(k=k, T=T, dim=2)
    c = manifolds.constants(spec)
    X0 = manifolds.seed_state(spec, manifolds.rectilinear_seed_params(spec))
    return shooting.PeriodicOrbit(
        X0=X0, S=c.S, eps=0.0, eta=1, residual_norm=0.0,
        energy_band=(-c.tau, -c.tau), monodromy=None, k=k, dim=2)


def _roundtrip_distance(gensol):
    lift = reconstruct.sundman_lift(gensol)
    dmax = 0.0
    for s, X in zip(lift.s[::7], lift.states[::7]):
        Xs = gensol.traj.eval(s)
        Xf = Xs.copy()
        Xf[:4] = -Xf[:4]
        dmax = max(dmax, min(np.linalg.norm(X - Xs),
                             np.linalg.norm(X - Xf)))
    return dmax


@criterion(8, "reconstruction round-trip")
def test_reconstruction_round_trip(families2d):
    sources = [(_collision_orbit(1), model.zero_perturbation(T, 2)),
               (_collision_orbit(2), model.zero_perturbation(T, 2)),
               (families2d[1][-1], forcing_pert(2))]
    for orbit, pert in sources:
        gensol = reconstruct.to_generalized(orbit, pert)
        assert _roundtrip_distance(gensol) < 1e-6
        res = reconstruct.ode_residual(gensol)
        assert res["max_residual"] < 1e-7, res


@criterion(9, "collision physics")
def test_collision_physics():
    for k in (1, 2):
        gensol = reconstruct.to_generalized(_collision_orbit(k),
                                            model.zero_perturbation(T, 2))
        assert len(gensol.collisions) == 2 * k
        for c in gensol.collisions:
            assert abs(c.zprime_sq - 0.5) < 1e-8
            side = reconstruct.collision_side_limits(gensol, c)
            for label in ("minus", "plus"):
                assert np.linalg.norm(side[f"dir_{label}"]
                                      - c.direction) < 1e-5
                assert abs(side[f"energy_{label}"] - c.energy) < 1e-5
            assert np.linalg.norm(side["vdir_plus"]
                                  + side["vdir_minus"]) < 1e-6


@criterion(10, "averaging scaling")
def test_averaging_scaling():
    fs = model.Perturbation(period=T, const=(1.0, 0.0), cos=[(1.0, 0.0)])
    x_star = averaging.averaged_equilibrium(fs.const)
    assert np.allclose(x_star, [1.0, 0.0], atol=1e-14)
    d = averaging.averaged_jacobian_det(x_star)       # includes the
    assert abs(d - 2.0) < 1e-10                       # assembled check
    entries, diags = averaging.bifurcation_from_infinity(
        fs, [1e-2, 1e-3, 1e-4])
    assert diags == []
    slope = averaging.fit_scaling_slope(entries)
    assert -0.55 < slope < -0.45
    devs = [e.sup_dev for e in entries]
    assert devs[0] > devs[1] > devs[2]


@criterion(11, "collision removal")
def test_collision_removal():
    spec = manifolds.ManifoldSpec(k=1, T=T, dim=2)
    c = manifolds.constants(spec)
    orbit = _collision_orbit(1)
    pert = model.zero_perturbation(T, 2)
    traj = flow.integrate(lambda X: model.reg_field(X, 0.0, pert),
                          orbit.X0, c.S)
    prev_l1 = np.inf
    T_gaps = []
    for m in range(5):
        mu = 0.1 * 2.0 ** (-m)
        out = reconstruct.remove_collisions(traj, c.S, mu, 0.0, pert)
        assert out.min_u > 0.0
        assert out.residual() < 1e-7
        l1 = out.forcing_l1()
        assert l1 < prev_l1
        prev_l1 = l1
        T_gaps.append(abs(out.T_mu - T))
    assert T_gaps[-1] < T_gaps[0]
    assert T_gaps[-1] < 1e-7
