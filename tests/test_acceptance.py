"""Acceptance criteria, one test per criterion, pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import sgain
from sgain import (LinearChain, SmallGainViolatedError,
                   build_certificate, build_gain_operator,
                   derive_gains_linear_chain,
                   make_scenario, neumann_eta, spectral_bracket, truncate,
                   verify_certificate)
from sgain.certificate import CompositeLyapunov
from sgain.sim import (BoundLyapunov, GeometricProfile, Zero, fit_decay, initial_state,
                       integrate, verify_dissipation, verify_envelope)


def report(criterion: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_chain_certification():
    t0 = time.perf_counter()
    s = make_scenario("chain-a")
    g = s.family.derive_gains(s.derivation)
    op = build_gain_operator(g)
    bracket = spectral_bracket(op, k_max=8)
    cert = build_certificate(g, bracket)
    elapsed = time.perf_counter() - t0

    assert g.lam.at(1) == Fraction(8, 5)          # 1.6 exactly
    assert g.gamma.row(5)[1] == Fraction(1, 20)   # 0.05 exactly
    assert op.row(5)[1] == Fraction(1, 32)   # 0.03125 exactly
    assert bracket.upper <= Fraction(1, 16)
    assert bracket.lower == bracket.upper == Fraction(1, 16)
    assert float(cert.lambda_inf) >= 1.3
    assert verify_certificate(cert, g).ok
    assert elapsed < 5.0
    report("criterion 1 (chain certification)", True,
           f"lambda_inf = {float(cert.lambda_inf)}, upper = {float(bracket.upper)}, "
           f"lower = {bracket.lower}, {elapsed:.2f}s")


def test_criterion_2_neumann_construction():
    s = make_scenario("chain-a")
    g = s.family.derive_gains(s.derivation)
    op = build_gain_operator(g)
    shift = Fraction(5, 32)  # the certificate's contraction factor
    table = spectral_bracket(op).table
    ev = neumann_eta(table, shift)

    floor = 1 / shift
    assert all(v >= floor for v in ev.eta.values())
    assert ev.worst_residual <= 0.0
    # componentwise Theta eta <= shift * eta via direct application
    m = op.bandwidth
    worst_direct = -math.inf
    for i in range(1, ev.eta.preamble_len + 2 * ev.eta.period - m):
        theta_eta = sum(op.row(j).get(i - j, 0) * ev.eta.at(j)
                        for j in range(max(1, i - m), i + m + 1))
        worst_direct = max(worst_direct, float(theta_eta - shift * ev.eta.at(i)))
    assert worst_direct <= 0.0

    # the same partial sum from the start vector w on a dense 200-row section
    n = 200
    theta = op.section(n).T
    v = np.array([float(x) for x in table.start.head(n)])
    oracle, coef = np.zeros(n), 1.0 / float(max(table.start.values()))
    for _ in range(ev.terms_used + 1):
        coef /= float(shift)
        oracle += coef * v
        v = theta @ v
    err = max(abs(float(ev.eta.at(i)) / oracle[i - 1] - 1) for i in range(1, 101))
    assert err <= 1e-12
    report("criterion 2 (Neumann eta)", True,
           f"floor ok, worst residual {ev.worst_residual:.1e}, {ev.terms_used + 1} terms, "
           f"relative mismatch {err:.2e} with the dense partial sum")


@pytest.mark.parametrize("name", ["chain-a", "traffic"])
def test_criterion_3_dissipation_and_decay(name):
    t0 = time.perf_counter()
    s = make_scenario(name)
    g = s.family.derive_gains(s.derivation)
    cert, g_used = sgain.certify(g)
    lyap = CompositeLyapunov(cert, g_used)
    net = truncate(s.family, 100)
    x0 = initial_state(net, {"kind": "first-k", "K": 5, "value": 1.0})
    traj = integrate(net, x0, Zero(), horizon=10.0, step=1e-3, lyapunov=lyap)
    diss = verify_dissipation(traj, lyap)
    fit = fit_decay(traj, "v")
    elapsed = time.perf_counter() - t0

    assert diss.ok, f"{len(diss.violations)} dissipation violations"
    assert fit.rate >= float(cert.lambda_inf) - 0.05
    assert elapsed < 30.0
    report(f"criterion 3 ({name})", True,
           f"0 violations over {diss.n_checked} steps, fitted rate "
           f"{fit.rate:.4f} >= {float(cert.lambda_inf):.4f} - 0.05, {elapsed:.1f}s")


@pytest.mark.parametrize("name", ["traffic", "lure-platoon"])
def test_criterion_4_envelope(name):
    s = make_scenario(name)
    g = s.family.derive_gains(s.derivation)
    cert, g_used = sgain.certify(g)
    lyap = CompositeLyapunov(cert, g_used)
    net = truncate(s.family, 100)
    x0 = initial_state(net, {"kind": "first-k", "K": 5, "value": 1.0})
    traj = integrate(net, x0, GeometricProfile(1.0, 0.5), horizon=10.0,
                     step=1e-3, lyapunov=lyap)
    eps = 0.5 * float(cert.lambda_inf)
    env = verify_envelope(traj, lyap)
    assert env.ok, f"{len(env.violations)} envelope violations"
    report(f"criterion 4 (envelope, {name})", True,
           f"V stays under exp(-{eps:.3f} t) V0 + chi(||u||) at all "
           f"{env.n_checked} samples")


def test_criterion_5_negative_controls(cli, tmp_path):
    r = cli(["scenario", "counter-slow", "--out", str(tmp_path / "cs")], tmp_path)
    assert r.returncode == 2, r.stderr
    rep = json.loads((tmp_path / "cs" / "report.json").read_text())
    assert rep["outcome"] == {"kind": "reject-assumption", "which": "lambda_lo"}

    gen = make_scenario("counter-slow").family
    net = truncate(gen, 200)
    x0 = initial_state(net, {"kind": "unit", "index": 200})
    traj = integrate(net, x0, Zero(), horizon=10.0, step=1e-2)
    fit = fit_decay(traj, "norm")
    assert abs(fit.rate - 1.0 / 200.0) <= 0.2 * (1.0 / 200.0)

    r = cli(["scenario", "counter-gain", "--out", str(tmp_path / "cg")], tmp_path)
    assert r.returncode == 2, r.stderr
    rep = json.loads((tmp_path / "cg" / "report.json").read_text())
    assert rep["outcome"] == {"kind": "reject-assumption", "which": "gamma_u"}

    gen = make_scenario("counter-gain").family
    net = truncate(gen, 50)
    traj = integrate(net, np.zeros(50), sgain.ConstantOnFirstK(50, 1.0),
                     horizon=7.0, step=1e-3, keep=50)
    final = traj.states[-1]
    expected = np.arange(1, 51, dtype=float)
    worst_rel = float(np.max(np.abs(final - expected) / expected))
    assert worst_rel <= 0.01
    report("criterion 5 (negative controls)", True,
           f"counter-slow exit 2 at lambda_lo, fitted rate {fit.rate:.5f} ~ 1/200; "
           f"counter-gain exit 2 at gamma_u, steady-state error {worst_rel:.2%}")


def test_criterion_6_failing_small_gain(cli, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "network": {"scenario": "chain-a",
                    "overrides": {"coefficients": {"sub": 1, "sup": 1},
                                  "derivation": {"eps": 0.25, "delta": 0.25}}}}))
    r = cli(["certify", "--config", str(cfg), "--out", str(tmp_path / "o")], tmp_path)
    assert r.returncode == 3, r.stderr
    rep = json.loads((tmp_path / "o" / "certificate.json").read_text())
    assert rep["bracket"]["lower"] > 1
    assert "certificate" not in rep

    # 10^3 randomized valid generators: every emitted certificate verifies
    rng = np.random.default_rng(42)
    emitted = invalid = refused = 0
    for _ in range(1000):
        period = int(rng.integers(1, 4))
        diag = tuple(float(v) for v in rng.uniform(0.5, 2.5, period))
        off = tuple(float(v) for v in rng.uniform(0.0, 1.2, period))
        fam = LinearChain(diag=sgain.PeriodicSeq((), diag),
                          sub=sgain.PeriodicSeq((), off),
                          sup=sgain.PeriodicSeq((), off))
        f1, f2 = rng.uniform(0.05, 0.42, 2)
        g = derive_gains_linear_chain(fam,
                                      f1 * min(diag), f2 * min(diag))
        op = build_gain_operator(g)
        bracket = spectral_bracket(op, k_max=3)
        if not bracket.satisfied:
            refused += 1
            continue
        try:
            cert = build_certificate(g, bracket)
        except SmallGainViolatedError:
            refused += 1
            continue
        emitted += 1
        if not verify_certificate(cert, g).ok:
            invalid += 1
    assert invalid == 0
    assert emitted >= 100 and refused >= 100  # sweep exercises both branches
    report("criterion 6 (failing control + soundness sweep)", True,
           f"exit 3 with lower {rep['bracket']['lower']:.3f} > 1; "
           f"{emitted} certificates emitted, {invalid} invalid, {refused} refused")


def test_criterion_7_rate_cap():
    g = sgain.GainData(
        lam=sgain.ClosedFormSeq(fn=lambda i: 1 + i, inf=2, sup=math.inf,
                                nondecreasing=True),
        gamma=sgain.PeriodicRows(({1: Fraction(1, 20)},),
                                 ({-1: Fraction(1, 20), 1: Fraction(1, 20)},),
                                 bandwidth=1),
        gamma_u=sgain.PeriodicSeq.constant(1),
        vform=sgain.HALF_SQUARE)
    cert, g_capped = sgain.certify(g)
    assert cert.h_cap is not None
    capped_scan = verify_certificate(cert, g_capped)
    uncapped_scan = verify_certificate(cert, g)
    assert capped_scan.ok and uncapped_scan.ok
    report("criterion 7 (rate cap)", True,
           f"certified with h = {float(cert.h_cap)}; scan margins "
           f"{capped_scan.worst_margin:.2e} (capped), "
           f"{uncapped_scan.worst_margin:.2e} (original rates)")


def test_criterion_8_numerical_hygiene(cli, tmp_path):
    # RK4 order factor on the scalar exponential
    zero = sgain.PeriodicSeq.constant(0)
    net1 = truncate(LinearChain(diag=sgain.PeriodicSeq.constant(1), sub=zero, sup=zero), 1)
    errs = {}
    for h in (0.02, 0.01):
        traj = integrate(net1, np.array([1.0]), Zero(), horizon=1.0, step=h)
        errs[h] = abs(traj.norm_p[-1] - math.exp(-1.0))
    factor = errs[0.02] / errs[0.01]
    assert 12.0 <= factor <= 20.0

    # coercivity sandwich on 10^4 random states per certified scenario
    rng = np.random.default_rng(123)
    for name in ("chain-a", "traffic", "lure-platoon"):
        s = make_scenario(name)
        cert, g_used = sgain.certify(s.family.derive_gains(s.derivation))
        lyap = CompositeLyapunov(cert, g_used)
        net = truncate(s.family, 40)
        bound = BoundLyapunov(lyap, net)
        lo, hi = float(lyap.coercivity_lo), float(lyap.coercivity_hi)
        for _ in range(10_000):
            x = rng.standard_normal((1, net.dim)) * rng.choice([1e-2, 1.0, 1e2])
            v = bound.leading(x, x * x)[0]
            npow = np.dot(x[0], x[0])
            assert lo * npow - 1e-9 * (1 + v) <= v <= hi * npow + 1e-9 * (1 + v)

    # determinism: identical config and seed give byte-identical reports
    cfg = tmp_path / "fast.json"
    cfg.write_text(json.dumps({"sim": {"N": 20, "T": 1.0, "h": 0.002}}))
    blobs = []
    for tag in ("r1", "r2"):
        r = cli(["scenario", "chain-a", "--config", str(cfg),
                 "--out", str(tmp_path / tag), "--seed", "11"], tmp_path)
        assert r.returncode == 0, r.stderr
        blobs.append((tmp_path / tag / "report.json").read_bytes())
    assert blobs[0] == blobs[1]
    report("criterion 8 (numerical hygiene)", True,
           f"RK4 halving factor {factor:.1f} in [12, 20]; coercivity held on "
           f"3 x 10^4 states; reports byte-identical under fixed seed")
