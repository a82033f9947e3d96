"""Acceptance suite: the library's exit criteria, one verdict line each.

Run under pytest (``pytest -s tests/test_acceptance.py``) or standalone
(``python3 tests/test_acceptance.py``) to get one PASS/FAIL line per
criterion.  Tolerances are pinned here and nowhere else.
"""

import math
import sys
import time

import numpy as np

from measurement_coherence import (
    GateParams,
    PERTURBED,
    UNPERTURBED,
    PrepConfig,
    QState,
    analytic_delta_v,
    analytic_variance_perturbed,
    analytic_variance_unperturbed,
    delta_v,
    estimate_delta_v,
    law_of_total_variance_decomposition,
    luders_channel,
    make_state,
    observable_x,
    observable_y,
    outcome_distribution,
    prepare_signal,
    run_setting,
    sample_counts,
    sequential_joint,
    total_probability_residual,
)

from conftest import sweep_rows

IDEAL_GATE = GateParams()
MEASURED = GateParams(t_h=0.985, t_v=0.324, visibility=1.0)


def check_1_commuting_null() -> str:
    start = time.perf_counter()
    first = observable_x()
    second = observable_y(0.0)
    worst = 0.0
    for p in np.linspace(0.0, 1.0, 50):
        for gamma in np.linspace(0.0, 1.0, 11):
            report = delta_v(make_state(p, gamma), first, second)
            worst = max(worst, abs(report.delta_v))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12, f"commuting-null violation {worst}"
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s"
    return f"max |delta_v| = {worst:.2e} on the 50x11 grid in {elapsed:.2f}s"


def check_2_maximal_violation() -> str:
    report = delta_v(make_state(0.5, 1.0), observable_x(), observable_y(np.pi / 2))
    assert abs(report.delta_v - 1.0) <= 1e-12, f"delta_v = {report.delta_v}"
    dephased = luders_channel(make_state(0.5, 1.0), observable_x())
    defect = np.max(np.abs(dephased.matrix - np.eye(2) / 2.0))
    assert defect <= 1e-12, f"dephased state off by {defect}"
    return f"delta_v = {report.delta_v} and the dephased state is I/2 (defect {defect:.1e})"


def check_3_oracle_equivalence() -> str:
    start = time.perf_counter()
    first = observable_x()
    worst = 0.0
    for theta in np.linspace(0.0, np.pi, 50):
        second = observable_y(theta)
        for p in np.linspace(0.0, 1.0, 50):
            for gamma in np.linspace(0.0, 1.0, 11):
                report = delta_v(make_state(p, gamma), first, second)
                worst = max(
                    worst,
                    abs(report.v_unperturbed - analytic_variance_unperturbed(p, gamma, theta)),
                    abs(report.v_perturbed - analytic_variance_perturbed(p, theta)),
                    abs(report.delta_v - analytic_delta_v(p, gamma, theta)),
                )
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12, f"matrix path deviates from closed forms by {worst}"
    assert elapsed < 10.0, f"runtime {elapsed:.2f}s exceeds 10s"
    return f"max closed-form deviation {worst:.2e} over 50x50x11 points in {elapsed:.1f}s"


def check_4_trace_distance_identity() -> str:
    second = observable_y(np.pi / 2)
    first = observable_x()
    worst = 0.0
    for p in np.linspace(0.0, 1.0, 50):
        for gamma in np.linspace(0.0, 1.0, 11):
            report = delta_v(make_state(p, gamma), first, second)
            expected = 4.0 * p * (1.0 - p) * gamma * gamma
            worst = max(
                worst,
                abs(report.delta_v - expected),
                abs(report.trace_norm_sq - expected),
            )
    assert worst <= 1e-12, f"identity violated by {worst}"
    return f"delta_v = ||rho - rho'||_1^2 = 4p(1-p)g^2 within {worst:.2e}"


def check_5_classical_embedding() -> str:
    from measurement_coherence import Effect, Observable

    rng = np.random.default_rng(5)
    worst_residual = 0.0
    worst_sum = 0.0
    for _ in range(50):
        weights = rng.dirichlet((1.0, 1.0))
        state = QState(np.diag(weights).astype(complex))
        observables = []
        for _ in range(2):
            diag = rng.uniform(0.05, 0.95, size=2)
            observables.append(
                Observable(
                    (
                        (-1.0, Effect(np.diag(diag).astype(complex))),
                        (+1.0, Effect(np.eye(2) - np.diag(diag))),
                    )
                )
            )
        first, second = observables
        worst_residual = max(
            worst_residual, total_probability_residual(state, first, second)
        )
        joint = sequential_joint(state, first, second)
        cond_var, mean_var = law_of_total_variance_decomposition(joint)
        worst_sum = max(
            worst_sum, abs(cond_var + mean_var - joint.y_marginal().variance())
        )
    assert worst_residual <= 1e-12, f"classical residual {worst_residual}"
    assert worst_sum <= 1e-10, f"decomposition defect {worst_sum}"
    return (
        f"all-diagonal residual <= {worst_residual:.1e}, "
        f"variance decomposition closes to {worst_sum:.1e}"
    )


def check_6_gate_equivalence() -> str:
    first = observable_x()
    worst_perturbed = 0.0
    worst_unperturbed = 0.0
    for alpha in np.linspace(0.0, 45.0, 10):
        for w_plus in np.linspace(0.0, 1.0, 5):
            cfg = PrepConfig(alpha_deg=float(alpha), w_plus=float(w_plus))
            signal = prepare_signal(cfg)
            dephased = luders_channel(signal, first)
            for theta in np.linspace(0.0, np.pi, 20):
                second = observable_y(theta)
                gate_dist = run_setting(cfg, IDEAL_GATE, theta, PERTURBED)
                reference = outcome_distribution(dephased, second)
                worst_perturbed = max(
                    worst_perturbed,
                    float(np.max(np.abs(gate_dist.probabilities - reference.probabilities))),
                )
                plain = run_setting(cfg, IDEAL_GATE, theta, UNPERTURBED)
                direct = outcome_distribution(signal, second)
                worst_unperturbed = max(
                    worst_unperturbed,
                    float(np.max(np.abs(plain.probabilities - direct.probabilities))),
                )
    assert worst_perturbed <= 1e-10, f"gate vs dephasing channel: {worst_perturbed}"
    assert worst_unperturbed <= 1e-10, f"inactive gate disturbs signal: {worst_unperturbed}"

    from measurement_coherence import gate_channel

    plus_plus = np.full((4, 4), 0.25, dtype=complex)
    _, success = gate_channel(QState(plus_plus), IDEAL_GATE)
    assert abs(success - 1.0 / 9.0) <= 1e-12, f"success probability {success}"
    return (
        f"ideal gate matches the dephasing channel to {worst_perturbed:.1e}, "
        f"|H> meter is transparent to {worst_unperturbed:.1e}, "
        f"|++> success = 1/9 within {abs(success - 1/9):.1e}"
    )


def check_7_monte_carlo_convergence() -> str:
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    worst_pull = 0.0
    for index in range(20):
        p = rng.uniform(0.05, 0.95)
        gamma = rng.uniform(0.1, 1.0)
        theta = rng.uniform(0.15, np.pi - 0.15)
        cfg = PrepConfig(
            alpha_deg=math.degrees(math.asin(math.sqrt(p)) / 2.0),
            w_plus=(1.0 + gamma) / 2.0,
        )
        unpert = sample_counts(
            run_setting(cfg, IDEAL_GATE, theta, UNPERTURBED), 1e6, seed=100 + 2 * index
        )
        pert = sample_counts(
            run_setting(cfg, IDEAL_GATE, theta, PERTURBED), 1e6, seed=101 + 2 * index
        )
        value, std_err = estimate_delta_v(unpert, pert)
        analytic = analytic_delta_v(p, gamma, theta)
        assert std_err > 0.0, "degenerate standard error at an interior setting"
        pull = abs(value - analytic) / std_err
        worst_pull = max(worst_pull, pull)
    assert worst_pull < 5.0, f"worst pull {worst_pull} exceeds 5 sigma"

    cfg = PrepConfig(alpha_deg=16.5, w_plus=0.9)
    theta = 1.1
    direct = run_setting(cfg, IDEAL_GATE, theta, UNPERTURBED)
    dephased = run_setting(cfg, IDEAL_GATE, theta, PERTURBED)
    fluxes = np.array([1e3, 1e4, 1e5, 1e6])
    mean_errors = []
    for i, flux in enumerate(fluxes):
        errors = []
        for seed in range(4):
            unpert = sample_counts(direct, flux, seed=5000 + 100 * i + 2 * seed)
            pert = sample_counts(dephased, flux, seed=5001 + 100 * i + 2 * seed)
            errors.append(estimate_delta_v(unpert, pert)[1])
        mean_errors.append(float(np.mean(errors)))
    slope = float(np.polyfit(np.log10(fluxes), np.log10(mean_errors), 1)[0])
    elapsed = time.perf_counter() - start
    assert abs(slope + 0.5) <= 0.05, f"std_err slope {slope} not -0.5 +- 0.05"
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"
    return (
        f"worst pull {worst_pull:.2f} sigma over 20 settings, "
        f"std_err ~ flux^{slope:.3f}, in {elapsed:.1f}s"
    )


def check_8_figure_level_regression(tmp_dir: str) -> str:
    import os

    records_a = sweep_rows(
        ["sweep-pure", "--a1-min=0.165", "--a1-max=0.552", "--a1-steps=2",
         "--theta-min=0.0", "--theta-max=90.0", "--theta-steps=4", "--flux=1000.0"],
        os.path.join(tmp_dir, "pure_cut.csv"),
    )
    by_point = {(round(r["axis1"], 4), round(r["theta"], 4)): r for r in records_a}
    anchor_552 = by_point[(0.552, 90.0)]["analytic_dv"]
    anchor_165 = by_point[(0.165, 90.0)]["analytic_dv"]
    assert abs(anchor_552 - 4 * 0.552 * 0.448) <= 1e-9, f"p=0.552 anchor {anchor_552}"
    assert abs(anchor_165 - 4 * 0.165 * 0.835) <= 1e-9, f"p=0.165 anchor {anchor_165}"
    sign_low = by_point[(0.165, 30.0)]["analytic_dv"]
    assert sign_low < -1e-9, f"expected negative violation at small tilt, got {sign_low}"
    assert anchor_165 > 1e-9
    for record in records_a:
        expected = analytic_delta_v(record["axis1"], 1.0, math.radians(record["theta"]))
        assert abs(record["analytic_dv"] - expected) <= 1e-9

    records_b = sweep_rows(
        ["sweep-pure", "--a1-min=0.165", "--a1-max=0.835", "--a1-steps=5",
         "--theta-min=45.0", "--theta-max=90.0", "--theta-steps=2", "--flux=1000.0"],
        os.path.join(tmp_dir, "pure_symmetry.csv"),
    )
    at_quarter = {round(r["axis1"], 6): r["analytic_dv"] for r in records_b
                  if r["theta"] == 90.0}
    for p_value, value in at_quarter.items():
        mirrored = at_quarter[round(1.0 - p_value, 6)]
        assert abs(value - mirrored) <= 1e-9, f"asymmetry at p={p_value}"
    return (
        f"anchors dv(0.552, 90deg) = {anchor_552:.6f}, dv(0.165, 90deg) = {anchor_165:.6f}, "
        f"sign change along theta and p <-> 1-p symmetry hold"
    )


def check_9_imperfect_gate_sanity() -> str:
    first = observable_x()
    worst_tv = 0.0
    for alpha in (6.0, 12.0, 22.5, 33.0, 39.0):
        for w_plus in (0.6, 0.8, 1.0):
            cfg = PrepConfig(alpha_deg=alpha, w_plus=w_plus)
            dephased = luders_channel(prepare_signal(cfg), first)
            for theta in np.linspace(0.0, np.pi, 13):
                gate_dist = run_setting(cfg, MEASURED, theta, PERTURBED)
                reference = outcome_distribution(dephased, observable_y(theta))
                tv = 0.5 * float(
                    np.sum(np.abs(gate_dist.probabilities - reference.probabilities))
                )
                worst_tv = max(worst_tv, tv)
    assert worst_tv < 0.05, f"total variation {worst_tv} reaches 0.05"

    min_violation = np.inf
    for alpha in (6.0, 12.0, 22.5, 33.0, 39.0):
        for gamma in np.linspace(0.2, 1.0, 5):
            cfg = PrepConfig(alpha_deg=alpha, w_plus=(1.0 + gamma) / 2.0)
            v_direct = run_setting(cfg, MEASURED, np.pi / 2, UNPERTURBED).variance()
            v_dephased = run_setting(cfg, MEASURED, np.pi / 2, PERTURBED).variance()
            min_violation = min(min_violation, v_dephased - v_direct)
    assert min_violation > 0.0, f"sign flipped: minimal violation {min_violation}"
    return (
        f"worst total variation {worst_tv:.4f} < 0.05; violation stays positive "
        f"at the quarter turn (min {min_violation:.4f}) for gamma >= 0.2"
    )


CRITERIA = (
    ("1 commuting null", check_1_commuting_null),
    ("2 maximal violation", check_2_maximal_violation),
    ("3 oracle equivalence", check_3_oracle_equivalence),
    ("4 trace-distance identity", check_4_trace_distance_identity),
    ("5 classical embedding", check_5_classical_embedding),
    ("6 gate equivalence", check_6_gate_equivalence),
    ("7 Monte Carlo convergence", check_7_monte_carlo_convergence),
    ("8 figure-level regression", check_8_figure_level_regression),
    ("9 imperfect-gate sanity", check_9_imperfect_gate_sanity),
)


def _run(name, func, tmp_dir):
    if func is check_8_figure_level_regression:
        return func(tmp_dir)
    return func()


# pytest wrappers ----------------------------------------------------------


def test_criterion_1():
    print("PASS criterion 1 (commuting null):", check_1_commuting_null())


def test_criterion_2():
    print("PASS criterion 2 (maximal violation):", check_2_maximal_violation())


def test_criterion_3():
    print("PASS criterion 3 (oracle equivalence):", check_3_oracle_equivalence())


def test_criterion_4():
    print("PASS criterion 4 (trace-distance identity):", check_4_trace_distance_identity())


def test_criterion_5():
    print("PASS criterion 5 (classical embedding):", check_5_classical_embedding())


def test_criterion_6():
    print("PASS criterion 6 (gate equivalence):", check_6_gate_equivalence())


def test_criterion_7():
    print("PASS criterion 7 (Monte Carlo convergence):", check_7_monte_carlo_convergence())


def test_criterion_8(tmp_path):
    print("PASS criterion 8 (figure-level regression):", check_8_figure_level_regression(str(tmp_path)))


def test_criterion_9():
    print("PASS criterion 9 (imperfect-gate sanity):", check_9_imperfect_gate_sanity())


if __name__ == "__main__":
    import tempfile

    failed = 0
    with tempfile.TemporaryDirectory() as tmp_dir:
        for name, func in CRITERIA:
            try:
                detail = _run(name, func, tmp_dir)
            except AssertionError as exc:
                failed += 1
                print(f"FAIL criterion {name}: {exc}")
            else:
                print(f"PASS criterion {name}: {detail}")
    sys.exit(1 if failed else 0)
