"""Sweep commands: schemas, reproducibility, anchors, exit codes."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from measurement_coherence.cli import (
    CSV_FIELDS,
    SweepSpec,
    cmd_max_violation,
    cmd_simulate,
    cmd_sweep,
    main,
)

from test_criterion import oracle_delta_v


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]
    return header, rows


def run_main(args):
    return main([str(a) for a in args])


class TestSchema:
    def test_csv_header_is_stable(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_main(
            ["sweep-pure", "--a1-min", 0.2, "--a1-max", 0.8, "--a1-steps", 2,
             "--theta-min", 0, "--theta-max", 90, "--theta-steps", 2,
             "--flux", 1000, "--out", out]
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == list(CSV_FIELDS)
        assert len(rows) == 4

    def test_json_mirrors_field_names(self, tmp_path):
        out = tmp_path / "sweep.json"
        code = run_main(
            ["sweep-pure", "--a1-min", 0.2, "--a1-max", 0.8, "--a1-steps", 2,
             "--theta-min", 0, "--theta-max", 90, "--theta-steps", 2,
             "--flux", 1000, "--format", "json", "--out", out]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload) == 4
        assert all(list(rec.keys()) == list(CSV_FIELDS) for rec in payload)

    def test_stdout_when_no_path_given(self, capsys):
        code = run_main(
            ["max-violation", "--a1-min", 0.4, "--a1-max", 0.6, "--a1-steps", 2,
             "--flux", 1000]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert captured.splitlines()[0] == ",".join(CSV_FIELDS)


class TestDeterminism:
    def test_identical_spec_gives_identical_bytes(self, tmp_path):
        outputs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            run_main(
                ["simulate", "--a1-min", 0.2, "--a1-max", 0.8, "--a1-steps", 3,
                 "--theta-min", 10, "--theta-max", 170, "--theta-steps", 3,
                 "--flux", 5000, "--seed", 99, "--out", out]
            )
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_seed_changes_samples_not_analytics(self, tmp_path):
        rows = []
        for seed in (1, 2):
            out = tmp_path / f"s{seed}.csv"
            run_main(
                ["sweep-pure", "--a1-min", 0.3, "--a1-max", 0.7, "--a1-steps", 2,
                 "--theta-min", 30, "--theta-max", 150, "--theta-steps", 2,
                 "--flux", 2000, "--seed", seed, "--out", out]
            )
            rows.append(read_csv(out)[1])
        for first, second in zip(rows[0], rows[1]):
            assert first["analytic_dv"] == second["analytic_dv"]
        assert any(
            first["sampled_dv"] != second["sampled_dv"]
            for first, second in zip(rows[0], rows[1])
        )


class TestSweepPure:
    def test_figure_anchors(self, tmp_path):
        out = tmp_path / "pure.csv"
        spec = SweepSpec(
            axis1="p", a1_min=0.165, a1_max=0.552, a1_steps=2,
            theta_min_deg=0.0, theta_max_deg=90.0, theta_steps=2,
            flux=1000.0, out=str(out),
        )
        records = cmd_sweep(spec)
        by_point = {(round(r.axis1, 3), r.theta): r for r in records}
        assert by_point[(0.552, 90.0)].analytic_dv == pytest.approx(
            4 * 0.552 * 0.448, abs=1e-9
        )
        assert by_point[(0.165, 90.0)].analytic_dv == pytest.approx(
            4 * 0.165 * 0.835, abs=1e-9
        )
        for record in records:
            if record.theta == 0.0:
                assert abs(record.analytic_dv) <= 1e-12

    @pytest.mark.parametrize(
        "flag, value, expected", [("--a1-min", 0.5, [0.5, 1.0]), ("--a1-max", 0.5, [0.0, 0.5])]
    )
    def test_lone_axis_bound_keeps_the_other_default(self, tmp_path, flag, value, expected):
        out = tmp_path / "x.csv"
        code = run_main(
            ["sweep-pure", flag, value, "--a1-steps", 2, "--theta-steps", 2,
             "--flux", 100, "--out", out]
        )
        assert code == 0
        assert sorted({row["axis1"] for row in read_csv(out)[1]}) == expected

    def test_requires_population_axis(self, tmp_path):
        code = run_main(
            ["sweep-pure", "--axis1", "gamma", "--out", tmp_path / "x.csv"]
        )
        assert code == 2


class TestSweepMixed:
    def test_gamma_axis_anchors(self, tmp_path):
        out = tmp_path / "mixed.csv"
        spec = SweepSpec(
            axis1="gamma", a1_min=0.0, a1_max=1.0, a1_steps=2,
            theta_min_deg=36.0, theta_max_deg=84.0, theta_steps=2,
            alpha_deg=12.0, flux=1000.0, out=str(out),
        )
        records = cmd_sweep(spec)
        p_fixed = math.sin(math.radians(24.0)) ** 2
        by_point = {(r.axis1, r.theta): r for r in records}
        assert by_point[(1.0, 36.0)].analytic_dv == pytest.approx(
            oracle_delta_v(p_fixed, 1.0, math.radians(36.0)), abs=1e-9
        )
        assert by_point[(1.0, 36.0)].analytic_dv < 0.0  # negative branch
        assert by_point[(1.0, 84.0)].analytic_dv == pytest.approx(
            oracle_delta_v(p_fixed, 1.0, math.radians(84.0)), abs=1e-9
        )
        assert by_point[(0.0, 36.0)].analytic_dv == pytest.approx(0.0, abs=1e-12)
        assert by_point[(0.0, 84.0)].analytic_dv == pytest.approx(0.0, abs=1e-12)

    def test_requires_coherence_axis(self, tmp_path):
        code = run_main(["sweep-mixed", "--axis1", "p", "--out", tmp_path / "x.csv"])
        assert code == 2


class TestMaxViolation:
    def test_population_scan(self, tmp_path):
        out = tmp_path / "max_p.csv"
        spec = SweepSpec(
            axis1="p", a1_min=0.1, a1_max=0.9, a1_steps=9,
            flux=1000.0, out=str(out),
        )
        records = cmd_max_violation(spec)
        assert all(r.theta == 90.0 for r in records)
        by_p = {round(r.axis1, 3): r for r in records}
        assert by_p[0.5].analytic_dv == pytest.approx(1.0, abs=1e-12)
        for record in records:
            # the violation equals the squared trace distance here
            assert record.analytic_dv == pytest.approx(record.trdist_sq, abs=1e-12)
            mirrored = by_p[round(1.0 - record.axis1, 3)]
            assert record.analytic_dv == pytest.approx(mirrored.analytic_dv, abs=1e-9)

    def test_coherence_scan_fixes_balanced_population(self, tmp_path):
        out = tmp_path / "max_g.csv"
        spec = SweepSpec(
            axis1="gamma", a1_min=0.5, a1_max=1.0, a1_steps=2,
            flux=1000.0, out=str(out),
        )
        records = cmd_max_violation(spec)
        by_gamma = {r.axis1: r for r in records}
        assert by_gamma[0.5].analytic_dv == pytest.approx(0.25, abs=1e-12)
        assert by_gamma[1.0].analytic_dv == pytest.approx(1.0, abs=1e-12)

    def test_coherence_scan_rejects_explicit_alpha(self, tmp_path):
        code = run_main(
            ["max-violation", "--axis1", "gamma", "--alpha", 10, "--a1-steps", 2,
             "--flux", 100, "--out", tmp_path / "x.csv"]
        )
        assert code == 2
        assert not (tmp_path / "x.csv").exists()


class TestSimulate:
    def test_ideal_gate_reaches_the_maximal_violation(self, tmp_path):
        out = tmp_path / "sim.csv"
        code = run_main(
            ["simulate", "--a1-min", 0.25, "--a1-max", 0.5, "--a1-steps", 2,
             "--theta-min", 0, "--theta-max", 90, "--theta-steps", 2,
             "--th", 1.0, "--tv", 1 / 3, "--visibility", 1.0,
             "--flux", 1e6, "--seed", 4, "--out", out]
        )
        assert code == 0
        _, rows = read_csv(out)
        peak = next(r for r in rows if r["axis1"] == 0.5 and r["theta"] == 90.0)
        assert abs(peak["sampled_dv"] - 1.0) < 5 * max(peak["std_err"], 1e-12)
        assert peak["analytic_dv"] == pytest.approx(1.0, abs=1e-10)
        for row in rows:
            if row["theta"] == 0.0:
                assert -5.0 <= row["z"] <= 5.0

    def test_default_gate_is_the_measured_imperfect_one(self, tmp_path):
        out = tmp_path / "sim_imp.csv"
        code = run_main(
            ["simulate", "--a1-min", 0.4, "--a1-max", 0.5, "--a1-steps", 2,
             "--theta-min", 45, "--theta-max", 90, "--theta-steps", 2,
             "--flux", 1e5, "--out", out]
        )
        assert code == 0
        _, rows = read_csv(out)
        peak = next(r for r in rows if r["axis1"] == 0.5 and r["theta"] == 90.0)
        # imperfect-model prediction sits measurably below the ideal value 1
        assert peak["analytic_dv"] < 1.0 - 1e-4
        assert peak["analytic_dv"] > 0.95
        assert abs(peak["sampled_dv"] - peak["analytic_dv"]) < 5 * peak["std_err"]


class TestExitCodes:
    def test_bad_grid_is_a_usage_error(self, tmp_path):
        code = run_main(["sweep-pure", "--a1-steps", 1, "--out", tmp_path / "x.csv"])
        assert code == 2

    def test_bad_range_is_a_usage_error(self, tmp_path):
        code = run_main(
            ["sweep-pure", "--a1-min", 0.9, "--a1-max", 0.1, "--out", tmp_path / "x.csv"]
        )
        assert code == 2

    def test_population_outside_domain_is_a_usage_error(self, tmp_path):
        code = run_main(
            ["sweep-pure", "--a1-min", -0.5, "--a1-max", 0.5, "--out", tmp_path / "x.csv"]
        )
        assert code == 2

    def test_unwritable_output_is_a_runtime_error(self, tmp_path):
        code = run_main(
            ["max-violation", "--a1-steps", 2, "--a1-min", 0.4, "--a1-max", 0.6,
             "--flux", 100, "--out", tmp_path / "missing" / "x.csv"]
        )
        assert code == 1

    def test_vanishing_post_selection_is_a_runtime_error(self, tmp_path, capsys):
        code = run_main(["simulate", "--th", 0, "--tv", 0, "--out", tmp_path / "x.csv"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: coincidence success probability")

    def test_unknown_flag_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "measurement_coherence.cli", "sweep-pure",
             "--no-such-flag"],
            capture_output=True,
        )
        assert proc.returncode == 2

    def test_success_exits_0(self, capsys):
        code = run_main(
            ["sweep-pure", "--a1-min", 0.4, "--a1-max", 0.6, "--a1-steps", 2,
             "--theta-min", 0, "--theta-max", 90, "--theta-steps", 2, "--flux", 100]
        )
        capsys.readouterr()
        assert code == 0


class TestSpecValidation:
    def test_rejects_unknown_axis(self):
        with pytest.raises(ValueError, match="axis1"):
            SweepSpec(axis1="alpha")

    def test_rejects_bad_format(self):
        with pytest.raises(ValueError, match="format"):
            SweepSpec(axis1="p", fmt="xml")

    def test_rejects_nonpositive_flux(self):
        with pytest.raises(ValueError, match="flux"):
            SweepSpec(axis1="p", flux=0.0)

    def test_simulate_rejects_gamma_outside_domain(self, tmp_path):
        with pytest.raises(ValueError, match="gamma"):
            cmd_simulate(SweepSpec(axis1="p", gamma=1.5, out=str(tmp_path / "x.csv")))
