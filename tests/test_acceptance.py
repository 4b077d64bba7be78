"""Acceptance suite: each test checks one headline criterion at full scale
and prints a single PASS/FAIL line (run with ``pytest -s`` to see them).

The Monte Carlo criteria take a few minutes combined; everything is seeded,
so reruns are bit-identical.
"""

import contextlib
import io
import math
import time

import numpy as np
import pytest

import domtest as dt
from domtest.bootstrap import _Prepared, _multinomial_rows
from domtest.cli import main

from oracles import (
    bvn_diag_ref,
    enumerate_bootstrap,
    exact_critical_value,
    quantile_gap,
    wmw_draws,
)

BRIDGE_MEAN = math.pi / (8.0 * math.sqrt(2.0 * math.pi))


def _criterion(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num:>2}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _lfc_scenario(tau, pairing, rho, n, mc_reps, seed, gamma=0.0, kind=dt.FamilyKind.POWER_NULL):
    copula = (
        dt.CopulaSpec(dt.CopulaKind.GAUSSIAN, rho)
        if pairing is dt.Pairing.MATCHED
        else dt.CopulaSpec(dt.CopulaKind.PRODUCT)
    )
    return dt.ScenarioSpec(
        family=dt.OdcFamily(kind, gamma),
        n1=n,
        n2=n,
        copula=copula,
        pairing=pairing,
        mc_reps=mc_reps,
        bootstrap=dt.BootstrapConfig(alpha=0.05, tau=tau, num_reps=500, seed=seed),
    )


@pytest.fixture(scope="module")
def bridge_run():
    """Samples behind `null-quantiles --paths 100000 --grid 1000` plus its
    quantile output and wall time; shared by criteria 1 and 12."""
    buffer = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buffer):
        code = main(
            ["null-quantiles", "--paths", "100000", "--grid", "1000", "--seed", "20240101"]
        )
    elapsed = time.perf_counter() - start
    assert code == 0
    quantiles = [float(line.split()[1]) for line in buffer.getvalue().strip().splitlines()]
    samples = dt.simulate_bridge_functional(
        dt.BridgePathConfig(num_paths=100_000, grid_size=1000, seed=20240101)
    )
    return quantiles, samples, elapsed


def test_c01_limit_quantiles(bridge_run):
    quantiles, _, elapsed = bridge_run
    targets = [0.39, 0.48, 0.68]
    errs = [abs(q - t) for q, t in zip(quantiles, targets)]
    ok = len(quantiles) == 3 and max(errs) <= 0.02 and elapsed < 30.0
    _criterion(
        1,
        ok,
        f"null-quantiles -> {['%.4f' % q for q in quantiles]} vs {targets} "
        f"(max err {max(errs):.4f} <= 0.02, {elapsed:.1f}s < 30s)",
    )


def test_c02_lfc_independent_tau1():
    spec = _lfc_scenario(1.0, dt.Pairing.INDEPENDENT, 0.0, 100, 5000, seed=9102)
    rate = dt.rejection_rate(spec).rate
    ok = abs(rate - 0.044) <= 0.012
    _criterion(2, ok, f"independent LFC n=100 tau=1: rate {rate:.4f} vs 0.044 +- 0.012")


def test_c03_lfc_independent_tau_inf():
    spec = _lfc_scenario(math.inf, dt.Pairing.INDEPENDENT, 0.0, 100, 5000, seed=9103)
    rate = dt.rejection_rate(spec).rate
    ok = abs(rate - 0.043) <= 0.012
    _criterion(3, ok, f"independent LFC n=100 tau=inf: rate {rate:.4f} vs 0.043 +- 0.012")


def test_c04_lfc_matched_rho_half():
    spec = _lfc_scenario(math.inf, dt.Pairing.MATCHED, 0.5, 100, 5000, seed=9104)
    rate = dt.rejection_rate(spec).rate
    ok = abs(rate - 0.034) <= 0.012
    _criterion(4, ok, f"matched LFC rho=.5 n=100 tau=inf: rate {rate:.4f} vs 0.034 +- 0.012")


def test_c05_power_ordering():
    rates = {}
    for gamma in (0.05, 0.15, 0.25):
        spec = _lfc_scenario(
            0.75,
            dt.Pairing.INDEPENDENT,
            0.0,
            500,
            1000,
            seed=9105,
            gamma=gamma,
            kind=dt.FamilyKind.POWER_ALT,
        )
        rates[gamma] = dt.rejection_rate(spec).rate
    ok = (rates[0.15] - rates[0.05] >= 0.10) and (rates[0.25] >= 0.90)
    _criterion(
        5,
        ok,
        f"power at gamma .05/.15/.25 = {rates[0.05]:.3f}/{rates[0.15]:.3f}/{rates[0.25]:.3f} "
        f"(step >= 0.10, top >= 0.90)",
    )


def test_c06_area_sandwich():
    rng = np.random.default_rng(9106)
    worst = 0.0
    checked = 0
    ok = True
    for _ in range(1000):
        n1 = int(rng.integers(1, 201))
        n2 = int(rng.integers(1, 201))
        data = dt.TwoSampleData(x1=rng.random(n1), x2=rng.random(n2))
        curve = dt.empirical_odc(data)
        wmw = dt.wmw_statistic(curve)
        area = dt.odc_area_functional(curve)
        upper = wmw + math.sqrt(n1 * n2 / (n1 + n2)) * (1.0 / (2.0 * n2))
        if not (wmw <= area and area <= np.nextafter(upper, np.inf)):
            ok = False
            break
        worst = max(worst, area - upper)
        checked += 1
    _criterion(
        6,
        ok and checked == 1000,
        f"wmw <= area <= wmw + sqrt(Tn)/(2 n2) on {checked} datasets "
        f"(max upper slack {worst:.3e} <= 1 ulp)",
    )


def test_c07_rank_invariance():
    rng = np.random.default_rng(9107)
    checked = 0
    ok = True
    for _ in range(200):
        matched = bool(rng.integers(2))
        if matched:
            n1 = n2 = int(rng.integers(1, 60))
            pairing = dt.Pairing.MATCHED
        else:
            n1, n2 = int(rng.integers(1, 60)), int(rng.integers(1, 60))
            pairing = dt.Pairing.INDEPENDENT
        data = dt.TwoSampleData(x1=rng.random(n1), x2=rng.random(n2), pairing=pairing)
        config = dt.BootstrapConfig(
            alpha=0.05,
            tau=float(rng.choice([0.75, math.inf])),
            num_reps=171,
            seed=int(rng.integers(1 << 32)),
        )
        base = dt.run_test(data, config)
        for g in (np.exp, lambda x: x**3 + 7.0):
            moved = dt.TwoSampleData(x1=g(data.x1), x2=g(data.x2), pairing=pairing)
            if dt.run_test(moved, config) != base:
                ok = False
                break
        if not ok:
            break
        checked += 1
    _criterion(7, ok and checked == 200, f"TestReport identical under exp and x^3+7 on {checked} datasets")


def test_c08_tau_inf_recovery_bit_identical():
    rng = np.random.default_rng(9108)
    data = dt.TwoSampleData(
        x1=rng.random(40), x2=rng.random(40), pairing=dt.Pairing.MATCHED
    )
    base = dt.empirical_odc(data)
    v = dt.variance_profile(data)
    mism_ops = 0
    draws = 10_000
    for _ in range(draws):
        star = dt.bootstrap_odc(data, dt.draw_weights(data, rng))
        std = dt.bootstrap_statistic_standard(star, base)
        mod = dt.bootstrap_statistic_modified(star, base, v, math.inf)
        if std != mod:
            mism_ops += 1
    prep = _Prepared(data)
    w = _multinomial_rows(np.random.default_rng(8), data.n1, draws)
    engine_equal = np.array_equal(
        wmw_draws(prep, w, w, None), wmw_draws(prep, w, w, np.arange(data.n2))
    )
    ok = mism_ops == 0 and engine_equal
    _criterion(
        8,
        ok,
        f"tau=inf draw equals standard draw bit-for-bit on {draws} shared-weight draws "
        f"(op mismatches {mism_ops}, engine identical {engine_equal})",
    )


def test_c09_modified_cv_at_most_standard_cv():
    rng = np.random.default_rng(9109)
    violations = 0
    cases = 0
    for _ in range(40):
        matched = bool(rng.integers(2))
        n1 = int(rng.integers(2, 80))
        n2 = n1 if matched else int(rng.integers(2, 80))
        pairing = dt.Pairing.MATCHED if matched else dt.Pairing.INDEPENDENT
        data = dt.TwoSampleData(x1=rng.random(n1), x2=rng.random(n2), pairing=pairing)
        seed = int(rng.integers(1 << 32))
        for alpha in (0.05, 0.1):
            ref = dt.run_test(
                data, dt.BootstrapConfig(alpha=alpha, tau=math.inf, num_reps=401, seed=seed)
            )
            for tau in (0.5, 0.75, 1.0, 1.5):
                mod = dt.run_test(
                    data, dt.BootstrapConfig(alpha=alpha, tau=tau, num_reps=401, seed=seed)
                )
                cases += 1
                if mod.critical_value > ref.critical_value:
                    violations += 1
    _criterion(
        9, violations == 0, f"modified cv <= standard cv on {cases} shared-stream cases"
    )


def test_c10_exhaustive_bootstrap_oracle():
    x1, x2 = [1.0, 2.0, 6.0], [3.0, 4.0, 5.0]
    data = dt.TwoSampleData(x1=x1, x2=x2)
    details = []
    ok = True
    for tau in (math.inf, 0.75):
        outcomes = enumerate_bootstrap(x1, x2, tau, matched=False)
        assert abs(float(sum(p for _, p, _v in outcomes)) - 1.0) < 1e-12
        for alpha in (0.05, 0.1):
            # atom boundaries sit far from 1 - alpha relative to sampling noise
            assert quantile_gap(outcomes, alpha) > 10 * math.sqrt(alpha / 100_000)
            exact = exact_critical_value(outcomes, alpha)
            report = dt.run_test(
                data, dt.BootstrapConfig(alpha=alpha, tau=tau, num_reps=100_000, seed=9110)
            )
            agrees = math.isclose(report.critical_value, exact, rel_tol=0, abs_tol=1e-12)
            ok = ok and agrees
            details.append(f"tau={tau:g},a={alpha:g}:{report.critical_value:.6f}")
    _criterion(10, ok, "sampled cv (N=1e5) equals enumerated exact cv [" + "; ".join(details) + "]")


def test_c11_contact_set_variance():
    worst = 0.0
    for rho in (0.0, 0.5):
        spec = dt.ScenarioSpec(
            family=dt.OdcFamily(dt.FamilyKind.POWER_NULL, 0.0),
            n1=2000,
            n2=2000,
            copula=dt.CopulaSpec(dt.CopulaKind.GAUSSIAN, rho),
            pairing=dt.Pairing.MATCHED,
            mc_reps=1,
            bootstrap=dt.BootstrapConfig(seed=9111),
        )
        data = dt.generate_dataset(spec, np.random.default_rng(9111))
        v = dt.variance_profile(data).v
        for u in (0.25, 0.5, 0.75):
            idx = math.ceil(2000 * u) - 1
            target = u - bvn_diag_ref(u, rho)
            worst = max(worst, abs(float(v[idx]) - target))
    _criterion(
        11, worst <= 0.03, f"V at u in (.25,.5,.75), rho in (0,.5): max |err| {worst:.4f} <= 0.03"
    )


def test_c12_bridge_functional_mean(bridge_run):
    _, samples, _ = bridge_run
    mean = float(samples.mean())
    err = abs(mean - BRIDGE_MEAN)
    _criterion(
        12, err <= 0.003, f"bridge functional mean {mean:.5f} vs {BRIDGE_MEAN:.5f} (err {err:.5f} <= 0.003)"
    )
