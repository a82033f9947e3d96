#!/usr/bin/env python3
"""Are the error bars honest?  Pulls of the simulated experiment, by flux.

The certificate of coherence is a z-score: the estimated violation over
its standard error.  It means what it says only if the error bar is
calibrated, i.e. if the pull (sampled - analytic) / std_err of a setting
is close to a standard normal.  This script checks that the way one
checks it in the lab: it repeats the same simulated experiment (the
default 50x50 `simulate` grid with the measured gate) with 40 seeds at
each flux, through `cli.main` in one process, and reports the spread of
the pulls and how often |pull| < 1.96.

Every sweep here differs from the one before only in --seed or --flux,
so all but the first reuse the sweep's seed-independent head (the
checked probabilities and the grid's text columns) and redo only the
Poisson draw, the estimator and the writer.
"""

import contextlib
import io

import numpy as np

from measurement_coherence import cli

FLUXES = (30.0, 100.0, 1000.0, 1e5)
SEEDS = range(40)


def pulls(flux: float) -> tuple[np.ndarray, int]:
    """The pulls of every seeded sweep at this flux, and how many points
    had std_err == 0 and so no pull."""
    found, dropped = [], 0
    for seed in SEEDS:
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            status = cli.main(["simulate", "--flux", repr(flux), "--seed", str(seed)])
        if status != 0:
            raise SystemExit(status)
        rows = np.loadtxt(io.StringIO(text.getvalue()), delimiter=",", skiprows=1)
        analytic, sampled, std_err = rows[:, 2], rows[:, 3], rows[:, 4]
        kept = std_err > 0.0
        dropped += int((~kept).sum())
        found.append((sampled[kept] - analytic[kept]) / std_err[kept])
    return np.concatenate(found), dropped


print(f"simulate, default 50x50 grid, measured gate, {len(SEEDS)} seeds per flux\n")
print("      flux   pull sd   |pull| < 1.96   std_err = 0")
for flux in FLUXES:
    pull, dropped = pulls(flux)
    cover = np.mean(np.abs(pull) < 1.96)
    print(f"  {flux:8.0f}   {pull.std():7.3f}   {cover:13.3f}   {dropped:11d}")
print("\nA calibrated error bar gives sd 1 and cover 0.95.  At high flux the")
print("plug-in estimate 1 - m^2 with its first-order error bar is close to")
print("that; at low flux its pulls are too wide.  A setting whose first-order")
print("error comes out 0 (a run with one outcome empty, or both outcomes")
print("equal) has no pull at all.")
