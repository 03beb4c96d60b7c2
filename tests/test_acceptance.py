"""Acceptance suite: one test (or a/b pair) per criterion, one printed
pass/fail line each.  Expensive artifacts (limit cycles) are module-scoped."""

import math
import time

import pytest

from flowcurv import (
    H_polynomial,
    Polynomial,
    State,
    check_assumptions,
    classify_case,
    extract_vicinity,
    find_limit_cycle,
    jet,
    make_system,
    slow_branches,
    convergence_study,
)
from flowcurv.verify import minorsky_report, sample_margins

from conftest import sweep_states, system_from_config
from test_dynamics import fd_energy_rate

RELAX_PERIOD_LIMIT = 3.0 - 2.0 * math.log(2.0)  # 1.6137...
AIRY_A1 = 2.338107410459767  # magnitude of the first zero of Ai


def dorodnitsyn_period(eps: float) -> float:
    """Slow-time Van der Pol relaxation period from Dorodnitsyn's expansion.

    eps*x' = y - F(x), y' = -x with F = x^3/3 - x is Van der Pol with
    mu = eps^(-1/2), timed in t/mu.  Dividing the fast-time expansion
    mu*(3 - 2 ln 2) + 3*a1*mu^(-1/3) - (2/3)*ln(mu)/mu + O(1/mu)
    (Dorodnitsyn 1947; Mishchenko & Rozov 1980) by mu gives the terms
    below; the neglected remainder is O(eps).
    """
    return (RELAX_PERIOD_LIMIT + 3.0 * AIRY_A1 * eps ** (2.0 / 3.0)
            - eps * math.log(1.0 / eps) / 3.0)


def report(num: str, label: str, ok: bool, detail: str) -> bool:
    print(f"[criterion {num}] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


@pytest.fixture(scope="module")
def systems():
    return {"vdp": system_from_config("vdp"), "llibre_mereu": system_from_config("llibre_mereu")}


_cycle_cache = {}


def cycle_for(name: str, eps: float, tol: float = 1e-9):
    key = (name, eps, tol)
    if key not in _cycle_cache:
        sys_ = system_from_config(name, eps=eps)
        _cycle_cache[key] = (sys_, find_limit_cycle(sys_, 1.0, tol, integ_tol=tol))
    return _cycle_cache[key]


def test_criterion_01_lie_invariance_identity(systems):
    t0 = time.perf_counter()
    worst = 0.0
    for sys_ in systems.values():
        for s in sweep_states(1000):
            j = jet(sys_, s)
            rel = abs(j.lie_residual) / max(1.0, abs(j.phi_dot))
            worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 1.0
    assert report("01", "Lie invariance identity sweep", ok,
                  f"max rel residual {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_curvature_energy_identities(systems):
    worst50 = worst55 = 0.0
    for sys_ in systems.values():
        for s in sweep_states(1000):
            j = jet(sys_, s)
            r50 = abs(j.curvature_energy_residual)
            worst50 = max(worst50, r50 / max(1.0, abs(sys_.eps * j.phi)))
            x = s.x
            xd = (s.y - sys_.F(x)) / sys_.eps
            rhs = 2.0 * sys_.f(x) * xd * (-sys_.gp(x) * xd) + sys_.eps * sys_.gpp(x) * xd**3
            r55 = abs(j.relation_rate_residual)
            worst55 = max(worst55, r55 / max(1.0, abs(rhs)))
    ok = worst50 <= 1e-9 and worst55 <= 1e-9
    assert report("02", "curvature-energy relation and its rate", ok,
                  f"max rel residuals {worst50:.2e} / {worst55:.2e}")


def test_criterion_03_quadratic_potential_case_function(systems):
    zero_vdp = H_polynomial(systems["vdp"]).is_zero
    family_zero = True
    for c1 in (0.5, 1.0, 2.0):
        for c2 in (-1.0, 0.0, 1.0):
            g = Polynomial([c1 * c2, c1])
            G = Polynomial([c1 * c2 * c2 / 2.0, c1 * c2, c1 / 2.0])
            sys_ = make_system([0, -1, 0, 1 / 3], g, 0.05, G=G)
            family_zero = family_zero and H_polynomial(sys_).is_zero
    ok = zero_vdp and family_zero
    assert report("03", "H identically zero for quadratic potentials", ok,
                  f"vdp zero={zero_vdp}, family zero={family_zero}")


def test_criterion_04_quintic_case_function(systems):
    lm = systems["llibre_mereu"]
    H = H_polynomial(lm)
    expected = (0.0, 0.0, 0.0, 0.0, -0.5, 0.0, -1.0 / 18.0)
    coeffs_ok = len(H.coeffs) == 7 and all(
        abs(g - w) <= 1e-14 for g, w in zip(H.coeffs, expected)
    )
    cls = classify_case(lm, 10.0)
    sign_ok = cls.case_label == "CASE2_H_NONPOS"
    sys_, cyc = cycle_for("llibre_mereu", 0.05)
    seg = extract_vicinity(cyc.orbit, sys_, 1.0)
    rate_ok = all(jet(sys_, s).dHdt >= 0.0 for s in seg.samples)
    ok = coeffs_ok and sign_ok and rate_ok
    assert report("04", "quintic case function sign structure", ok,
                  f"coeffs={coeffs_ok}, certified nonpositive={sign_ok}, "
                  f"dH/dt>=0 on vicinity={rate_ok}")


def test_criterion_05a_minorsky_verification_overall():
    t0 = time.perf_counter()
    outcomes = []
    for name in ("vdp", "llibre_mereu"):
        for eps in (0.1, 0.05, 0.02):
            sys_, cyc = cycle_for(name, eps)
            rep = minorsky_report(sys_, cyc, 1.0, system_name=name)
            fails = {cid: r.fail_count for cid, r in rep.checks.items() if r.fail_count}
            outcomes.append((name, eps, rep.overall, fails))
    elapsed = time.perf_counter() - t0
    all_true = all(o[2] for o in outcomes)
    detail = "; ".join(
        f"{n} eps={e}: overall={o}" + (f" fails={f}" if f else "")
        for n, e, o, f in outcomes
    )
    report("05a", "nine sign checks pass at every vicinity sample", all_true,
           f"{detail}; {elapsed:.1f}s")
    assert elapsed < 30.0
    assert all_true, (
        "the c*eps band necessarily contains the post-jump settling layer, "
        "where the curvature rate is still negative; PHIDOT_POS therefore "
        f"records failures at every eps: {detail}"
    )


def test_criterion_05b_widened_band_energy_absorption():
    sys_, cyc = cycle_for("vdp", 0.05)
    rep = minorsky_report(sys_, cyc, 60.0, system_name="vdp", x_min=-0.5)
    fails = rep.checks["DEDT_NEG"].fail_count
    ok = fails > 0
    assert report("05b", "widened band reaches the energy-absorbing strip", ok,
                  f"DEDT_NEG failures {fails}")


def test_criterion_05c_settling_layer_localization():
    # Pins the documented cause of 05a's failures, so that a new regression
    # cannot hide behind them: PHIDOT_POS fails only on a contiguous run at
    # the start of the vicinity segment (the post-jump settling layer, which
    # ends within eps*ln(1/eps)), and the other eight checks never fail.
    outcomes = []
    for name in ("vdp", "llibre_mereu"):
        for eps in (0.1, 0.05, 0.02):
            sys_, cyc = cycle_for(name, eps)
            rep = minorsky_report(sys_, cyc, 1.0, system_name=name)
            samples = extract_vicinity(cyc.orbit, sys_, 1.0).samples
            failing = [i for i, s in enumerate(samples)
                       if sample_margins(sys_, s)["PHIDOT_POS"] <= 0.0]
            n_fail = len(failing)
            prefix = (0 < n_fail < len(samples) and failing == list(range(n_fail))
                      and rep.checks["PHIDOT_POS"].fail_count == n_fail)
            layer = eps * math.log(1.0 / eps)
            ratio = (samples[n_fail - 1].t - samples[0].t) / layer if n_fail else math.inf
            others = {cid: r.fail_count for cid, r in rep.checks.items()
                      if cid != "PHIDOT_POS" and r.fail_count}
            outcomes.append((name, eps, n_fail, len(samples), prefix, ratio, others))
    ok = all(p and r <= 1.0 and not o for _, _, _, _, p, r, o in outcomes)
    detail = "; ".join(
        f"{n} eps={e}: {k}/{m} prefix={p} end/(eps ln(1/eps))={r:.3f}"
        + (f" other fails={o}" if o else "")
        for n, e, k, m, p, r, o in outcomes
    )
    assert report("05c", "05a failures confined to the settling-layer prefix", ok, detail)


def test_criterion_06_slow_branch_value(systems):
    vdp = systems["vdp"]
    br = slow_branches(vdp, 2.0)
    val_ok = abs(br.u_slow - (-0.033521)) <= 1e-6
    resid = abs(vdp.eps**2 * jet(vdp, State(0.0, 2.0, br.y_slow)).phi)
    resid_ok = resid <= 1e-9
    ok = val_ok and resid_ok
    assert report("06", "slow-branch root and its curvature residual", ok,
                  f"u_slow={br.u_slow:.8f}, |eps^2 phi|={resid:.2e}")


def test_criterion_07_approximation_order(systems):
    study = convergence_study(systems["vdp"], [0.1, 0.05, 0.025], (1.6, 1.9))
    ok = study.fitted_order >= 1.5 and abs(study.fitted_order_critical - 1.0) <= 0.3
    assert report("07", "branch fits order >= 1.5, critical manifold order ~1", ok,
                  f"orders {study.fitted_order:.3f} / {study.fitted_order_critical:.3f}")


def test_criterion_08a_relaxation_amplitude():
    _, cyc = cycle_for("vdp", 0.01, tol=1e-8)
    ok = abs(cyc.amplitude_x - 2.0) <= 0.02
    assert report("08a", "relaxation amplitude at eps=0.01", ok,
                  f"amplitude {cyc.amplitude_x:.5f}")


def test_criterion_08b_relaxation_period():
    eps = 0.01
    _, cyc = cycle_for("vdp", eps, tol=1e-8)
    expected = dorodnitsyn_period(eps)
    gap = abs(cyc.period - expected)
    ok = gap <= 2.0 * eps
    assert report("08b", "slow-time period within 2*eps of Dorodnitsyn's expansion", ok,
                  f"period {cyc.period:.5f}, expansion {expected:.5f}, gap {gap:.4f}, "
                  f"eps->0 limit {RELAX_PERIOD_LIMIT:.5f}")


def test_criterion_09_energy_decay_oracle():
    sys_, cyc = cycle_for("vdp", 0.05)
    worst_fd = 0.0
    worst_app = 0.0
    checked = 0
    for s in cyc.orbit.samples:
        j = jet(sys_, s)
        closed = j.dEdt
        if abs(closed) > 1e-6:
            fd = fd_energy_rate(sys_, s)
            worst_fd = max(worst_fd, abs(fd - closed) / abs(closed))
            checked += 1
        lhs = s.y * (-sys_.g(s.x)) + sys_.eps * sys_.g(s.x) * (s.y - sys_.F(s.x)) / sys_.eps
        worst_app = max(
            worst_app, abs(j.appendix_residual) / max(1.0, abs(lhs))
        )
    ok = worst_fd <= 1e-3 and worst_app <= 1e-9 and checked > 100
    assert report("09", "energy decay law against finite differences", ok,
                  f"max FD rel err {worst_fd:.2e} over {checked} pts, "
                  f"appendix residual {worst_app:.2e}")


def test_criterion_10_assumption_checker(systems):
    rep_vdp = check_assumptions(systems["vdp"])
    a_vdp_ok = (rep_vdp.all_hold
                and abs(rep_vdp.positive_zero_a - math.sqrt(3.0)) <= 1e-9)
    rep_lm = check_assumptions(systems["llibre_mereu"])
    a_lm_ok = (rep_lm.all_hold
               and abs(rep_lm.positive_zero_a - 1.24618) <= 1e-5)
    counter = make_system([0, -1, 0, 1 / 3], [0, 0, 1.0], 0.05)
    rep_bad = check_assumptions(counter)
    counter_ok = (not rep_bad.assumption_I.holds) and "odd" in rep_bad.assumption_I.detail
    ok = a_vdp_ok and a_lm_ok and counter_ok
    assert report("10", "assumption checker on both systems and the parity counterexample",
                  ok,
                  f"a={rep_vdp.positive_zero_a:.9f} / {rep_lm.positive_zero_a:.7f}, "
                  f"counterexample diagnosed={counter_ok}")
