"""Sweep commands: schemas, reproducibility, anchors, exit codes."""

import io
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from dataclasses import astuple, fields

from hypothesis import example, given, settings, strategies as st

from measurement_coherence import (
    MAX_FLUX,
    PERTURBED,
    UNPERTURBED,
    GateParams,
    delta_v,
    make_state,
    observable_x,
    observable_y,
)
from measurement_coherence import cli, photonics
from measurement_coherence.cli import (
    _FLAGS,
    _stream_rows,
    _x_channel,
    CSV_FIELDS,
    SweepSpec,
    build_parser,
    cmd_max_violation,
    cmd_simulate,
    cmd_sweep,
    main,
)

from test_criterion import oracle_delta_v
from test_photonics import reference_distribution


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


def row_writer_text(fmt, rows):
    """What the writer wrote before it formatted columns: a %r template
    over each row."""
    if fmt == "csv":
        head, separator, tail = ",".join(CSV_FIELDS) + "\n", "\n", "\n"
        template = ",".join(["%r"] * len(CSV_FIELDS))
    else:
        head, separator, tail = "[\n", ",\n", "\n]\n"
        template = "  {\n" + ",\n".join(f'    "{name}": %r' for name in CSV_FIELDS) + "\n  }"
    return head + separator.join(template % tuple(row) for row in rows.tolist()) + tail


# Repeated values: signed zeros (equal, but printed differently), the
# smallest subnormal, and values whose repr switches to exponent form.
_POOL = (0.0, -0.0, 5e-324, -5e-324, 1e16, -1e16, 1e-5, -1e-5, 0.1, -2.5, 1.0)
# At least half the entries are signed zeros, so that short columns mix both.
_POOL_ENTRIES = st.sampled_from(_POOL[:2]) | st.sampled_from(_POOL)


def block_shapes(a, w):
    """The column shapes of an engine block of a axis values by w angles."""
    return ((a, 1), (w,), (a, w), (a, w), (a, w), (a, w), (a, 1))


def broadcast_rows(blocks):
    """The (n, 7) rows of engine blocks given as columns."""
    return np.concatenate([np.empty((0, len(CSV_FIELDS)))] + [
        np.stack(np.broadcast_arrays(*columns), axis=-1).reshape(-1, len(CSV_FIELDS))
        for columns in blocks])


@st.composite
def engine_blocks(draw):
    """Engine blocks as column tuples: runs of whole theta rows, pieces of
    one theta row and one-theta blocks.  Each column takes its entries from
    _POOL, drawn one by one so that a failure shrinks to the values that
    cause it, or from a continuous range through a drawn numpy seed."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = []
    for layout in draw(st.lists(st.sampled_from(("rows", "piece", "one-theta")), max_size=3)):
        a = 1 if layout == "piece" else draw(st.integers(1, 6))
        w = 1 if layout == "one-theta" else draw(st.integers(1, 8))
        columns = []
        for shape in block_shapes(a, w):
            if draw(st.booleans()):
                size = math.prod(shape)
                entries = draw(st.lists(_POOL_ENTRIES, min_size=size, max_size=size))
                columns.append(np.array(entries).reshape(shape))
            else:  # magnitudes from the subnormals to 1e300
                columns.append(rng.standard_normal(shape) * 10.0 ** rng.integers(-320, 300, shape))
        blocks.append(tuple(columns))
    return blocks


_SIGNED_ZEROS = [tuple(np.resize([0.0, -0.0, -0.0], shape) for shape in block_shapes(4, 3))]


class TestWriter:
    @settings(max_examples=80, deadline=None)
    @given(fmt=st.sampled_from(("csv", "json")), blocks=engine_blocks(),
           block_rows=st.integers(1, 7))
    @example(fmt="csv", blocks=_SIGNED_ZEROS, block_rows=5)
    def test_column_writer_matches_the_row_writer(self, fmt, blocks, block_rows):
        rows = broadcast_rows(blocks)
        handle = io.StringIO()
        with pytest.MonkeyPatch.context() as patch:  # chunk edges within a few rows
            patch.setattr(cli, "_BLOCK_ROWS", block_rows)
            _stream_rows(fmt, blocks, handle)
        # Compared as lists of lines: pytest explains a failed comparison of
        # long strings with a diff that takes longer than the whole example.
        lines = handle.getvalue().splitlines(keepends=True)
        assert lines == row_writer_text(fmt, rows).splitlines(keepends=True)
        if fmt == "json" and len(rows):
            records = [dict(zip(CSV_FIELDS, row)) for row in rows.tolist()]
            assert lines == (json.dumps(records, indent=2) + "\n").splitlines(keepends=True)


class TestEngineBlocks:
    @pytest.mark.parametrize(
        "command, axis1",
        [("sweep-pure", "p"), ("sweep-mixed", "gamma"), ("max-violation", "p"),
         ("max-violation", "gamma"), ("simulate", "p"), ("simulate", "gamma")],
    )
    def test_block_size_leaves_the_bytes_unchanged(self, command, axis1, tmp_path, monkeypatch):
        # 3600 points: one default block, four blocks of 1000
        grid = ["--a1-steps", 3600] if command == "max-violation" else [
            "--a1-steps", 60, "--theta-steps", 60]
        for seed, fmt in ((3, "csv"), (11, "json")):
            argv = [command, "--axis1", axis1, *grid, "--seed", seed, "--format", fmt]
            assert run_main(argv + ["--out", tmp_path / "default"]) == 0
            # 7 points split each 60-point theta row into unequal pieces
            for points in (1000, 7):
                with monkeypatch.context() as patch:
                    patch.setattr(cli, "_ENGINE_POINTS", points)
                    assert run_main(argv + ["--out", tmp_path / "blocks"]) == 0
                assert (tmp_path / "blocks").read_bytes() == (tmp_path / "default").read_bytes()

    def test_commands_return_the_records_of_every_block(self, monkeypatch):
        spec = SweepSpec(axis1="p", a1_steps=30, theta_steps=30, gate=GateParams(0.9, 0.8, 0.7),
                         out=os.devnull)
        whole = cmd_simulate(spec)
        monkeypatch.setattr(cli, "_ENGINE_POINTS", 100)
        assert len(whole) == 900
        assert cmd_simulate(spec) == whole

    @pytest.mark.parametrize(
        "run, grid",
        [(cmd_simulate, {"a1_steps": 3, "theta_steps": 150}),  # theta rows split in two
         (cmd_max_violation, {"a1_steps": 250})],
    )
    def test_commands_return_the_rows_they_wrote(self, run, grid, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_ENGINE_POINTS", 100)
        out = tmp_path / "sweep.csv"
        records = run(SweepSpec(axis1="p", out=str(out), **grid))
        _header, rows = read_csv(out)
        assert [astuple(record) for record in records] == [tuple(row.values()) for row in rows]

    def test_the_gate_runs_once_per_sweep(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return gated_signals(*args)

        gated_signals = cli._gated_signals
        monkeypatch.setattr(cli, "_gated_signals", counted)
        monkeypatch.setattr(photonics, "_gated_signals", counted)
        monkeypatch.setattr(cli, "_ENGINE_POINTS", 100)
        spec = SweepSpec(axis1="p", a1_steps=30, theta_steps=30, gate=GateParams(0.9, 0.8, 0.7),
                         out=os.devnull)
        assert len(cmd_simulate(spec)) == 900
        assert len(calls) == 1

    def test_memory_is_flat_in_the_grid_size(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_ENGINE_POINTS", 2000)
        peaks = []
        for steps in (60, 120):
            argv = ["simulate", "--a1-steps", steps, "--theta-steps", steps,
                    "--out", tmp_path / "x.csv"]
            assert run_main(argv) == 0  # first-call caches stay out of the peak
            tracemalloc.start()
            try:
                assert run_main(argv) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0]

    def test_x_channel_is_built_once_and_observable_x_stays_fresh(self):
        assert _x_channel() is _x_channel()
        np.testing.assert_array_equal(_x_channel(), observable_x()._channel)
        assert observable_x() is not observable_x()
        assert not _x_channel().flags.writeable


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

    def test_gate_failing_past_the_first_block_leaves_no_file(self, tmp_path, capsys):
        # The coincidence rate falls with p: it passes the floor on the
        # first two engine blocks of this grid and vanishes on the third.
        code = run_main(["simulate", "--th", 2.7386e-7, "--tv", 0.4, "--a1-steps", 300,
                         "--theta-steps", 300, "--out", tmp_path / "x.csv"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: coincidence success probability")
        assert not (tmp_path / "x.csv").exists()

    def test_empty_count_record_is_a_runtime_error(self, tmp_path, capsys):
        code = run_main(["simulate", "--flux", 1e-9, "--out", tmp_path / "x.csv"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: count record is empty")

    def test_sampling_failing_past_the_first_block_leaves_no_file(self, tmp_path, capsys):
        # Three engine blocks of this grid are written before a setting
        # draws no counts in the fourth.  A file the sweep overwrote goes.
        out = tmp_path / "x.csv"
        out.write_text("old rows\n")
        code = run_main(["simulate", "--a1-steps", 300, "--theta-steps", 300, "--flux", 11,
                         "--seed", 0, "--out", out])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: count record is empty")
        assert not out.exists()

    # Two rows of 8200 points, each an engine block; the second draws an
    # empty count record.
    LATE_FAILURE = ["simulate", "--a1-steps", 2, "--theta-steps", 8200, "--flux", 11,
                    "--seed", 0]

    def test_late_failure_keeps_the_null_device(self, capsys):
        assert run_main(self.LATE_FAILURE + ["--out", os.devnull]) == 1
        assert capsys.readouterr().err.startswith("error: count record is empty")
        assert os.path.exists(os.devnull) and not os.path.isfile(os.devnull)

    def test_late_failure_keeps_a_link_and_its_target(self, tmp_path, capsys):
        # As /dev/stdout is a link, a path that names the output through
        # one is never removed.
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("")
        link.symlink_to(target)
        assert run_main(self.LATE_FAILURE + ["--out", link]) == 1
        assert capsys.readouterr().err.startswith("error: count record is empty")
        assert link.is_symlink() and target.is_file()

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

    @pytest.mark.parametrize("flux", [1e19, 1e300])
    def test_flux_beyond_max_flux_is_a_usage_error(self, flux, tmp_path, capsys):
        code = run_main(["simulate", "--flux", flux, "--a1-steps", 2, "--theta-steps", 2,
                         "--out", tmp_path / "x.csv"])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"usage error: flux={flux} exceeds MAX_FLUX=1e+18"
        )
        assert not (tmp_path / "x.csv").exists()

    def test_flux_at_max_flux_runs(self, tmp_path):
        out = tmp_path / "x.csv"
        code = run_main(["simulate", "--flux", MAX_FLUX, "--a1-steps", 2, "--theta-steps", 2,
                         "--out", out])
        assert code == 0
        assert len(out.read_text().splitlines()) == 5

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


# One valid value per flag; --axis1 takes the axis of the cell under test.
VALID_VALUE = {
    "--axis1": None, "--a1-min": 0.0, "--a1-max": 1.0, "--a1-steps": 2,
    "--theta-min": 10.0, "--theta-max": 100.0, "--theta-steps": 2,
    "--gamma": 0.5, "--alpha": 30.0, "--th": 1.0, "--tv": 0.3, "--visibility": 0.9,
    "--flux": 100.0, "--seed": 7, "--out": None, "--format": "json",
}
# (command, axis1): the flags the command does not read on that axis
UNREAD = {
    ("sweep-pure", "p"): {"--alpha"},
    ("sweep-mixed", "gamma"): {"--gamma"},
    ("max-violation", "p"): {"--alpha", "--theta-min", "--theta-max", "--theta-steps"},
    ("max-violation", "gamma"): {"--gamma", "--alpha", "--theta-min", "--theta-max",
                                 "--theta-steps"},
    ("simulate", "p"): {"--alpha"},
    ("simulate", "gamma"): {"--gamma"},
}


class TestFlagRules:
    @pytest.mark.parametrize("flag", VALID_VALUE)
    @pytest.mark.parametrize("cell", UNREAD, ids="-".join)
    def test_flag_is_read_or_a_usage_error(self, cell, flag, tmp_path, capsys):
        command, axis1 = cell
        out = tmp_path / "x.csv"
        value = {"--axis1": axis1, "--out": out}.get(flag, VALID_VALUE[flag])
        theta = [] if command == "max-violation" else ["--theta-steps", 2]
        code = run_main([command, "--axis1", axis1, "--a1-steps", 2, *theta,
                         "--flux", 100, "--out", out, flag, value])
        if flag in UNREAD[cell]:
            assert code == 2
            assert capsys.readouterr().err.startswith(f"usage error: {flag} ")
            assert not out.exists()
        else:
            assert code == 0
            assert out.exists()

    def test_every_flag_sets_a_spec_or_gate_field(self):
        assert list(_FLAGS) == list(VALID_VALUE)
        names = {f.name for f in fields(SweepSpec)} | {f.name for f in fields(GateParams)}
        for field_name, _type, _help in _FLAGS.values():
            assert field_name in names

    @pytest.mark.parametrize("argv", [["sweep-mixed", "--alpha", 60],
                                      ["sweep-mixed", "--alpha", -1],
                                      ["simulate", "--axis1", "gamma", "--alpha", 45.5]])
    def test_alpha_outside_0_to_45_degrees_is_a_usage_error(self, argv, tmp_path, capsys):
        code = run_main(argv + ["--a1-steps", 2, "--theta-steps", 2, "--out", tmp_path / "x.csv"])
        assert code == 2
        assert capsys.readouterr().err.startswith("usage error: alpha=")
        assert not (tmp_path / "x.csv").exists()


class TestSpecValidation:
    def test_rejects_unknown_axis(self):
        with pytest.raises(ValueError, match="axis1"):
            SweepSpec(axis1="alpha")

    def test_rejects_bad_format(self):
        with pytest.raises(ValueError, match="format"):
            SweepSpec(axis1="p", fmt="xml")

    def test_rejects_reversed_theta_range(self):
        with pytest.raises(ValueError, match="theta range must satisfy min < max"):
            SweepSpec(axis1="p", theta_min_deg=90.0, theta_max_deg=10.0)

    def test_rejects_nonpositive_flux(self):
        with pytest.raises(ValueError, match="flux"):
            SweepSpec(axis1="p", flux=0.0)

    def test_rejects_flux_above_max_flux(self):
        assert SweepSpec(axis1="p", flux=MAX_FLUX).flux == MAX_FLUX
        with pytest.raises(ValueError, match=r"flux=1e\+19 exceeds MAX_FLUX=1e\+18"):
            SweepSpec(axis1="p", flux=1e19)

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
        check_records(spec, command)

    def test_records_match_next_to_p_one(self):
        # the coherence sqrt(p (1 - p)) is ill-conditioned here, so the
        # reference must take p as given rather than round-trip it through
        # a wave-plate angle
        spec = SweepSpec(
            axis1="p", a1_min=0.5, a1_max=0.9999999999999999, a1_steps=2,
            theta_min_deg=0.0, theta_max_deg=90.0, theta_steps=3,
            gate=GateParams(1.0, 0.5, 0.0), out=os.devnull,
        )
        check_records(spec, "simulate")


def check_records(spec, command):
    """Run one sweep and check each record against the per-object API; the
    simulated column goes through the 4x4 reference gate."""
    run = {"sweep": cmd_sweep, "max-violation": cmd_max_violation,
           "simulate": cmd_simulate}[command]
    records = run(spec)

    thetas = [90.0] if command == "max-violation" else list(
        np.linspace(spec.theta_min_deg, spec.theta_max_deg, spec.theta_steps)
    )
    grid = [(a, t) for a in np.linspace(spec.a1_min, spec.a1_max, spec.a1_steps)
            for t in thetas]
    assert [(r.axis1, r.theta) for r in records] == grid
    alpha_deg = 22.5 if command == "max-violation" else spec.alpha_deg
    for record in records:
        if spec.axis1 == "p":
            p, gamma = record.axis1, spec.gamma
        else:
            p, gamma = math.sin(2.0 * math.radians(alpha_deg)) ** 2, record.axis1
        theta = math.radians(record.theta)
        state = make_state(p, gamma)
        report = delta_v(state, observable_x(), observable_y(theta))
        if command == "simulate":
            expected = (
                reference_distribution(state.matrix, spec.gate, theta, PERTURBED).variance()
                - reference_distribution(state.matrix, spec.gate, theta, UNPERTURBED).variance()
            )
        else:
            expected = report.delta_v
        assert abs(record.analytic_dv - expected) <= 1e-12
        assert abs(record.trdist_sq - report.trace_norm_sq) <= 1e-12
        assert record.z == (record.sampled_dv / record.std_err if record.std_err > 0 else 0.0)
