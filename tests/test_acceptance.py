"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``) and
enforcing its runtime budget."""

import json
import math
import statistics
import time

import numpy as np

from chsh_steering.cli import main
from chsh_steering.correlation_model import (
    EBasisVector,
    extremal_correlations_array,
    to_e_basis_array,
)
from chsh_steering.homodyne_experiment import (
    SinglePhotonState,
    experiment_correlations,
    gamma,
    homodyne_effects,
    monte_carlo_correlations,
)
from chsh_steering.lhs_oracle import (
    BOUNDARY_BAND,
    MEMBER,
    NotAMemberError,
    boundary_band,
    decompose,
    lp_membership_batch,
    model_correlations,
)
from chsh_steering.qubit_core import (
    ellipse_point,
    projector_from_params,
    quantum_correlator,
)
from chsh_steering.steering_witness import (
    chsh_values_array,
    f_value_array,
    pair_values_array,
    steering_lhs_array,
)
from reference import alice_projector, from_e_basis_array, maximally_entangled

PAULIS = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def report(name, budget, elapsed, ok=True):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {name}: {status} ({elapsed:.3f}s, budget {budget:g}s)")
    assert ok, name
    assert elapsed < budget, f"{name} exceeded its {budget}s budget: {elapsed:.3f}s"


# Criteria 01 and 02 time calls of a millisecond or two, where one
# descheduling pause on a busy host exceeds the budget; the median of this
# many back-to-back calls is held to it instead.
TIMED_CALLS = 5


def timed(call):
    """Wall time of one ``call()`` and its result."""
    start = time.perf_counter()
    result = call()
    return time.perf_counter() - start, result


def test_criterion_01_gamma_reproduction():
    runs = [timed(lambda: gamma(0.85)) for _ in range(TIMED_CALLS)]
    independent = math.sqrt(2.0 * 0.85 / math.pi)
    ok = all(abs(value - independent) <= 1e-6
             and format(2.0 * value, ".3g") == "1.47" for _, value in runs)
    report("01 gamma reproduction", 1e-3,
           statistics.median(elapsed for elapsed, _ in runs), ok)


def test_criterion_02_experimental_verdict(capsys):
    argv = ["experiment", "--reported-s", "1.330", "--eta-bob", "0.85"]
    main(argv)  # warm pass; parser and imports out of the timed window
    capsys.readouterr()
    runs = []
    for _ in range(TIMED_CALLS):
        elapsed, code = timed(lambda: main(argv))
        runs.append((elapsed, code, json.loads(capsys.readouterr().out)))
    ok = all(code == 0
             and payload["steering_lhs"] == 1.330
             and abs(payload["corrected_bound"]
                     - 2.0 * math.sqrt(2.0 * 0.85 / math.pi)) <= 1e-12
             and format(payload["corrected_bound"], ".3g") == "1.47"
             and payload["verdict"] == "no_steering"
             for _, code, payload in runs)
    with capsys.disabled():
        report("02 experimental verdict", 0.01,
               statistics.median(elapsed for elapsed, _, _ in runs), ok)


def test_criterion_03_quantum_maximum():
    start = time.perf_counter()
    rho = maximally_entangled()
    b_effect = projector_from_params(1.0, 0.0)
    bp_effect = projector_from_params(0.5, 0.0)

    def pipeline_lhs(alpha, alpha_prime):
        c = np.array([
            quantum_correlator(rho, alice_projector(alpha), b_effect),
            quantum_correlator(rho, alice_projector(alpha_prime), b_effect),
            quantum_correlator(rho, alice_projector(alpha), bp_effect),
            quantum_correlator(rho, alice_projector(alpha_prime), bp_effect),
        ])
        return float(steering_lhs_array(c))

    base = pipeline_lhs(0.3, 0.3 - np.pi / 2.0)
    ok = abs(base - 2.0 * np.sqrt(2.0)) <= 1e-9

    rng = np.random.Generator(np.random.Philox(101))
    values = [pipeline_lhs(0.3 + s, 0.3 - np.pi / 2.0 + s)
              for s in rng.uniform(0.0, 2.0 * np.pi, 100)]
    ok = ok and (max(values) - min(values) <= 1e-12)
    elapsed = time.perf_counter() - start
    report("03 quantum maximum", 1.0, elapsed, ok)


def test_criterion_04_chsh_dominance():
    rng = np.random.Generator(np.random.Philox(103))
    points = rng.uniform(-1.0, 1.0, (100_000, 4))
    start = time.perf_counter()
    lhs = steering_lhs_array(points)
    facets = chsh_values_array(points).max(axis=-1)
    elapsed = time.perf_counter() - start
    ok = bool((lhs >= facets - 1e-12).all())
    report("04 chsh dominance", 5.0, elapsed, ok)


def test_criterion_05_oracle_equivalence():
    rng = np.random.Generator(np.random.Philox(105))
    points = rng.uniform(-1.0, 1.0, (10_000, 4))
    start = time.perf_counter()
    results = lp_membership_batch(points, grid_n=2048)
    elapsed = time.perf_counter() - start
    band = boundary_band(2048)
    disagreements = 0
    for res in results:
        if abs(res.f_value - 1.0) <= band:
            continue
        witness_member = res.f_value <= 1.0
        if witness_member != (res.verdict == MEMBER):
            disagreements += 1
        if res.verdict == BOUNDARY_BAND:
            disagreements += 1
    report("05 oracle equivalence", 120.0, elapsed, disagreements == 0)


def test_criterion_06_constructive_decomposition():
    rng = np.random.Generator(np.random.Philox(107))
    start = time.perf_counter()

    raw = to_e_basis_array(rng.uniform(-1.0, 1.0, (10_000, 4)))
    f = f_value_array(raw)
    f = np.where(f > 0, f, 1.0)
    members = raw * (rng.uniform(0.0, 1.0, 10_000) / f)[:, None]
    ok = True
    for v in members:
        vec = EBasisVector(*v)
        back = model_correlations(decompose(vec))
        if np.abs(back.as_array() - from_e_basis_array(v)).max() > 1e-12:
            ok = False
            break

    raw = to_e_basis_array(rng.uniform(-1.0, 1.0, (1_000, 4)))
    f = f_value_array(raw)
    f = np.where(f > 0, f, 1.0)
    outside = raw * (rng.uniform(1.001, 2.0, 1_000) / f)[:, None]
    rejected = 0
    for v in outside:
        try:
            decompose(EBasisVector(*v))
        except NotAMemberError:
            rejected += 1
    elapsed = time.perf_counter() - start
    report("06 constructive decomposition", 10.0, elapsed,
           ok and rejected == 1_000)


def test_criterion_07_boundary_attainment():
    start = time.perf_counter()
    xi = 2.0 * np.pi * np.arange(1024) / 1024
    rng = np.random.Generator(np.random.Philox(109))
    lam = rng.uniform(0.0, 1.0, 1024)
    atoms1 = extremal_correlations_array(1, xi)
    atoms2 = extremal_correlations_array(2, xi[::-1].copy())
    f_atoms1 = f_value_array(to_e_basis_array(atoms1))
    f_atoms2 = f_value_array(to_e_basis_array(atoms2))
    mix = lam[:, None] * atoms1 + (1.0 - lam)[:, None] * atoms2
    f_mix = f_value_array(to_e_basis_array(mix))
    elapsed = time.perf_counter() - start
    ok = (np.abs(f_atoms1 - 1.0).max() <= 1e-12
          and np.abs(f_atoms2 - 1.0).max() <= 1e-12
          and np.abs(f_mix - 1.0).max() <= 1e-12)
    report("07 boundary attainment", 1.0, elapsed, ok)


def test_criterion_08_pair_inequalities():
    start = time.perf_counter()
    aligned = np.array([1.0, 0.0, 0.0, 1.0])  # maximally entangled, aligned settings
    first_value = pair_values_array(aligned)[0]
    ok = abs(first_value - 2.0) <= 1e-12

    rng = np.random.Generator(np.random.Philox(111))
    n = 10_000
    psi = rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    rho = np.einsum("ni,nj->nij", psi, psi.conj()).reshape(n, 2, 2, 2, 2)
    # correlator columns u (Bob z) and w (Bob x) for every state
    cols = np.stack([
        np.real(np.einsum("nabcd,kca,db->nk", rho, PAULIS, PAULIS[2])),
        np.real(np.einsum("nabcd,kca,db->nk", rho, PAULIS, PAULIS[0])),
    ], axis=-1)  # (n, 3, 2)
    n1 = rng.normal(size=(n, 3))
    n1 /= np.linalg.norm(n1, axis=1, keepdims=True)
    n2 = rng.normal(size=(n, 3))
    n2 /= np.linalg.norm(n2, axis=1, keepdims=True)
    a1 = np.einsum("nk,nkb->nb", n1, cols)
    a2 = np.einsum("nk,nkb->nb", n2, cols)
    c = np.stack([a1[:, 0], a2[:, 0], a1[:, 1], a2[:, 1]], axis=-1)
    pair_values = pair_values_array(c)
    ok = ok and bool((pair_values[:, 2:] <= 1.0 + 1e-10).all())
    elapsed = time.perf_counter() - start
    report("08 pair inequalities", 30.0, elapsed, ok)


def test_criterion_09_povm_validity():
    start = time.perf_counter()
    ok = True
    for phi in 2.0 * np.pi * np.arange(64) / 64:
        for eta in np.linspace(1.0 / 16.0, 1.0, 16):
            plus, minus = homodyne_effects(phi, eta)
            if np.abs(plus + minus - np.eye(2)).max() > 1e-12:
                ok = False
            if (np.linalg.eigvalsh(plus).min() < -1e-12
                    or np.linalg.eigvalsh(minus).min() < -1e-12):
                ok = False
    elapsed = time.perf_counter() - start
    report("09 povm validity", 1.0, elapsed, ok)


def test_criterion_10_monte_carlo_convergence():
    state = SinglePhotonState(theta=np.deg2rad(22.5), p1=1.0)
    analytic = experiment_correlations(state, 0.85, 0.85).as_array()
    monte_carlo_correlations(state, 0.85, 0.85, 100, seed=113)  # warm-up
    start = time.perf_counter()
    mc = monte_carlo_correlations(state, 0.85, 0.85, 1_000_000, seed=113)
    rerun = monte_carlo_correlations(state, 0.85, 0.85, 1_000_000, seed=113)
    elapsed = time.perf_counter() - start
    pulls = np.abs(mc.correlations.as_array() - analytic) / np.array(mc.std_errors)
    ok = bool((pulls <= 3.0).all()) and mc == rerun
    report("10 monte carlo convergence", 60.0, elapsed, ok)


def test_criterion_11_ellipse_geometry():
    start = time.perf_counter()
    xi = 2.0 * np.pi * np.arange(4096) / 4096
    ok = True
    for x in xi[:1024]:
        p, pp = ellipse_point(0.5, x)
        if abs((2 * p - 1) ** 2 + (2 * pp - 1) ** 2 - 1.0) > 1e-12:
            ok = False
            break

    # dense physical sampling must stay in the hull for every overlap
    mu_primes, phi_primes = np.meshgrid(np.linspace(0.0, 1.0, 201),
                                        2.0 * np.pi * np.arange(128) / 128,
                                        indexing="ij")
    vectors = np.stack([np.sqrt(mu_primes.ravel()),
                        np.sqrt(1.0 - mu_primes.ravel())
                        * np.exp(1j * phi_primes.ravel())], axis=-1)
    for mu in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
        bp_effect = projector_from_params(mu, 0.0)
        p = mu_primes.ravel()
        pp = np.real(np.einsum("ni,ij,nj->n", vectors.conj(), bp_effect, vectors))
        c, d = p - 0.5, pp - 0.5
        excess = (c + d) ** 2 / mu + (d - c) ** 2 / (1.0 - mu) - 1.0
        if excess.max() > 1e-10:
            ok = False
    elapsed = time.perf_counter() - start
    report("11 ellipse geometry", 5.0, elapsed, ok)
