"""Sweep commands: schemas, reproducibility, anchors, exit codes."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from measurement_coherence import (
    PERTURBED,
    UNPERTURBED,
    GateParams,
    PrepConfig,
    delta_v,
    make_state,
    observable_x,
    observable_y,
    run_setting,
)
from measurement_coherence.cli import (
    CSV_FIELDS,
    SweepSpec,
    build_parser,
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

    @pytest.mark.parametrize("command", ["sweep-pure", "max-violation", "simulate"])
    def test_json_bytes_are_those_of_json_dumps(self, command, capsys):
        theta = [] if command == "max-violation" else ["--theta-steps", 2]
        code = run_main(
            [command, "--a1-min", 0.2, "--a1-max", 0.8, "--a1-steps", 3,
             *theta, "--flux", 1000, "--format", "json"]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert text == json.dumps(json.loads(text), indent=2) + "\n"

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
        assert not (tmp_path / "x.csv").exists()

    def test_empty_count_record_is_a_runtime_error(self, tmp_path, capsys):
        code = run_main(["simulate", "--flux", 1e-9, "--out", tmp_path / "x.csv"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: count record is empty")

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep-mixed", "--gamma", 0.3],
            ["sweep-pure", "--alpha", 30],
            ["simulate", "--axis1", "gamma", "--gamma", 0.2],
            ["max-violation", "--axis1", "p", "--alpha", 30],
            ["max-violation", "--theta-min", 100],
            ["max-violation", "--theta-max", 45],
            ["max-violation", "--axis1", "gamma", "--theta-steps", 7],
        ],
    )
    def test_flag_the_axis_ignores_is_a_usage_error(self, argv, tmp_path, capsys):
        code = run_main(argv + ["--a1-steps", 2, "--out", tmp_path / "x.csv"])
        assert code == 2
        assert capsys.readouterr().err.startswith("usage error: --")
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--flux", "nan"],
            ["simulate", "--flux", "inf"],
            ["sweep-pure", "--theta-max", "inf"],
            ["sweep-mixed", "--alpha", "nan"],
            ["sweep-mixed", "--alpha", "inf"],
            ["simulate", "--seed", -1],
        ],
    )
    def test_non_finite_value_or_negative_seed_is_a_usage_error(self, argv, tmp_path, capsys):
        code = run_main(argv + ["--a1-steps", 2, "--theta-steps", 2, "--out", tmp_path / "x.csv"])
        assert code == 2
        assert capsys.readouterr().err.startswith("usage error:")
        assert not (tmp_path / "x.csv").exists()

    def test_flux_beyond_the_poisson_limit_is_a_runtime_error(self, tmp_path, capsys):
        code = run_main(["simulate", "--flux", 1e300, "--a1-steps", 2, "--theta-steps", 2,
                         "--out", tmp_path / "x.csv"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_parser_is_built_once_and_keeps_no_state(self, tmp_path):
        assert build_parser() is build_parser()
        common = ["--a1-steps", 2, "--flux", 100]
        assert run_main(["sweep-mixed", "--alpha", 30, *common, "--theta-steps", 2,
                         "--out", tmp_path / "a.csv"]) == 0
        assert run_main(["max-violation", "--axis1", "gamma", *common,
                         "--out", tmp_path / "b.csv"]) == 0

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


def _axis_range(axis1):
    low = 0.0 if axis1 == "p" else -1.0
    bounds = st.lists(st.floats(low, 1.0), min_size=2, max_size=2, unique=True)
    return bounds.map(sorted)


class TestEngineMatchesObjectPath:
    """Every record of the batched grid engine against the per-object API."""

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        command=st.sampled_from(("sweep", "max-violation", "simulate")),
        axis1=st.sampled_from(("p", "gamma")),
        steps=st.tuples(st.integers(2, 5), st.integers(2, 5)),
        theta_range=st.lists(
            st.floats(-360.0, 360.0), min_size=2, max_size=2, unique=True
        ).map(sorted),
        fixed=st.tuples(st.floats(-1.0, 1.0), st.floats(0.0, 45.0)),
        gate=st.tuples(st.floats(0.01, 1.0), st.floats(0.01, 1.0), st.floats(0.0, 1.0)),
    )
    def test_records_match_delta_v_and_run_setting(
        self, data, command, axis1, steps, theta_range, fixed, gate
    ):
        a1_min, a1_max = data.draw(_axis_range(axis1))
        spec = SweepSpec(
            axis1=axis1, a1_min=a1_min, a1_max=a1_max, a1_steps=steps[0],
            theta_min_deg=theta_range[0], theta_max_deg=theta_range[1],
            theta_steps=steps[1], gamma=fixed[0], alpha_deg=fixed[1],
            gate=GateParams(*gate), out=os.devnull,
        )
        run = {"sweep": cmd_sweep, "max-violation": cmd_max_violation,
               "simulate": cmd_simulate}[command]
        records = run(spec)

        thetas = [90.0] if command == "max-violation" else list(
            np.linspace(spec.theta_min_deg, spec.theta_max_deg, spec.theta_steps)
        )
        grid = [(a, t) for a in np.linspace(a1_min, a1_max, steps[0]) for t in thetas]
        assert [(r.axis1, r.theta) for r in records] == grid
        alpha_deg = 22.5 if command == "max-violation" else spec.alpha_deg
        for record in records:
            if axis1 == "p":
                p, gamma = record.axis1, spec.gamma
            else:
                p, gamma = math.sin(2.0 * math.radians(alpha_deg)) ** 2, record.axis1
            theta = math.radians(record.theta)
            report = delta_v(make_state(p, gamma), observable_x(), observable_y(theta))
            if command == "simulate":
                cfg = PrepConfig(
                    alpha_deg=math.degrees(math.asin(math.sqrt(p)) / 2.0),
                    w_plus=(1.0 + gamma) / 2.0,
                )
                expected = (run_setting(cfg, spec.gate, theta, PERTURBED).variance()
                            - run_setting(cfg, spec.gate, theta, UNPERTURBED).variance())
            else:
                expected = report.delta_v
            assert abs(record.analytic_dv - expected) <= 1e-12
            assert abs(record.trdist_sq - report.trace_norm_sq) <= 1e-12
            assert record.z == (record.sampled_dv / record.std_err if record.std_err > 0 else 0.0)
