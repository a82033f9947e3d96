#!/usr/bin/env python3
"""End-to-end photonic run: gate, coincidences, Poisson noise, z-scores.

Simulates the two-photon experiment the library models: the signal is
prepared with a wave plate, coupled to a meter photon through the
post-selected controlled-sign gate, analyzed after the meter is thrown
away, and read out as Poissonian coincidence counts.  The violation is
then estimated exactly as one would from lab data, with error bars from
count statistics.
"""

import numpy as np

from measurement_coherence import (
    GateParams,
    MEASURED_GATE,
    PERTURBED,
    UNPERTURBED,
    PrepConfig,
    analytic_delta_v,
    estimate_delta_v,
    run_setting,
    sample_counts,
)

FLUX = 2e5
SEED = 42
cfg = PrepConfig(alpha_deg=22.5)  # p = 1/2, pure
print(f"signal: p = {cfg.p:.3f}, gamma = {cfg.gamma:.1f}; "
      f"flux = {FLUX:.0e} coincidences per setting\n")


def scan(gate: GateParams, label: str) -> None:
    print(f"--- {label} (T_H = {gate.t_h}, T_V = {gate.t_v:.3f}, "
          f"v = {gate.visibility}) ---")
    print("  theta   analytic   estimated   std_err      z")
    for index, theta_deg in enumerate((0.0, 30.0, 60.0, 90.0, 120.0)):
        theta = np.radians(theta_deg)
        unpert = sample_counts(
            run_setting(cfg, gate, theta, UNPERTURBED), FLUX, seed=SEED + 2 * index
        )
        pert = sample_counts(
            run_setting(cfg, gate, theta, PERTURBED), FLUX, seed=SEED + 2 * index + 1
        )
        value, err = estimate_delta_v(unpert, pert)
        ideal = analytic_delta_v(cfg.p, cfg.gamma, theta)
        z = value / err if err > 0 else 0.0
        print(f"  {theta_deg:5.0f}   {ideal:+.4f}    {value:+.4f}    "
              f"{err:.4f}   {z:+7.1f}")
    print()


scan(GateParams(), "ideal gate")
scan(MEASURED_GATE, "measured splitter values")

print("The z column is the detection significance of coherence: consistent")
print("with zero at theta = 0 (commuting measurements) and hundreds of")
print("standard errors at theta = 90 deg.  The measured splitter values")
print("shift the prediction by well under the shot-noise scale here.\n")

print("--- losing two-photon interference (visibility sweep) ---")
theta = np.pi / 2
print("  visibility   gate-model delta_v")
for visibility in (1.0, 0.75, 0.5, 0.25, 0.0):
    gate = GateParams(visibility=visibility)
    v_direct = run_setting(cfg, gate, theta, UNPERTURBED).variance()
    v_dephased = run_setting(cfg, gate, theta, PERTURBED).variance()
    print(f"  {visibility:10.2f}   {v_dephased - v_direct:+.4f}")
print("\nWithout interference the gate stops dephasing the signal, so the")
print("witnessed coherence shrinks: the violation really is a two-photon")
print("interference effect.")
