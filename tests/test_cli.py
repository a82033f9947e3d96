"""Sweep commands: schemas, reproducibility, anchors, exit codes."""

import contextlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from dataclasses import fields

from hypothesis import example, given, settings, strategies as st

from measurement_coherence import (
    MAX_FLUX,
    PERTURBED,
    UNPERTURBED,
    GateParams,
    analytic_delta_v,
    delta_v,
    make_state,
    observable_x,
    observable_y,
)
from measurement_coherence import cli, photonics
from measurement_coherence.channels import PROBABILITY_FLOOR, _luders
from measurement_coherence.qubit import (
    _born, _family_states, _tilted_effects, _trace_norm, _variances)
from measurement_coherence.cli import (
    _FLAGS,
    _stream_rows,
    CSV_FIELDS,
    SweepSpec,
    build_parser,
    main,
)

from conftest import read_csv, sweep_rows
from test_criterion import oracle_delta_v
from test_photonics import reference_distribution


def run_main(args):
    return main([str(a) for a in args])


def _axis_range(axis1):
    low = 0.0 if axis1 == "p" else -1.0
    bounds = st.lists(st.floats(low, 1.0), min_size=2, max_size=2, unique=True)
    return bounds.map(sorted)


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
           block_rows=st.integers(1, 7),
           as_texts=st.lists(st.booleans(), min_size=len(CSV_FIELDS), max_size=len(CSV_FIELDS)))
    @example(fmt="csv", blocks=_SIGNED_ZEROS, block_rows=5, as_texts=[False] * len(CSV_FIELDS))
    def test_column_writer_matches_the_row_writer(self, fmt, blocks, block_rows, as_texts):
        # A column reaches the writer as floats or, from a sweep's head, as
        # their texts; both write the same bytes.
        rows = broadcast_rows(blocks)
        written = [tuple(cli._texts(column) if text else column
                         for column, text in zip(columns, as_texts)) for columns in blocks]
        handle = io.StringIO()
        with pytest.MonkeyPatch.context() as patch:  # chunk edges within a few rows
            patch.setattr(cli, "_BLOCK_ROWS", block_rows)
            _stream_rows(fmt, written, handle)
        # Compared as lists of lines: pytest explains a failed comparison of
        # long strings with a diff that takes longer than the whole example.
        lines = handle.getvalue().splitlines(keepends=True)
        assert lines == row_writer_text(fmt, rows).splitlines(keepends=True)
        if fmt == "json" and len(rows):
            records = [dict(zip(CSV_FIELDS, row)) for row in rows.tolist()]
            assert lines == (json.dumps(records, indent=2) + "\n").splitlines(keepends=True)

    @staticmethod
    def check_reprs(values):
        expected = list(map(repr, values))
        column = np.array(values, dtype=float)
        assert cli._reprs(column) == expected
        assert cli._reprs(column.reshape(-1, 1)) == expected

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                    min_size=1, max_size=40))
    def test_formatter_writes_repr(self, values):
        self.check_reprs(values)

    @pytest.mark.parametrize("center", [0.0, 1e-4, 1e16, 5e-324, sys.float_info.max])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_formatter_writes_repr_next_to_its_edges(self, center, sign):
        # The 2000 doubles on each side of where orjson's grammar or repr's
        # changes, or where the doubles end.
        below, above = [sign * center], [sign * center]
        for _ in range(2000):
            below.append(math.nextafter(below[-1], -math.inf))
            above.append(math.nextafter(above[-1], math.inf))
        self.check_reprs(below[:0:-1] + above)

    def test_formatter_writes_repr_of_random_bit_patterns(self):
        bits = np.random.default_rng(20261022).integers(0, 2**64, 150_000, dtype=np.uint64)
        self.check_reprs(bits.view(np.float64).tolist())

    def test_formatter_is_imported_by_the_first_sweep_that_writes(self, tmp_path):
        # A caller of the object API, or one that imports cli and never
        # writes, does not load orjson.
        script = (
            "import sys\n"
            "import measurement_coherence, measurement_coherence.cli as cli\n"
            "assert 'orjson' not in sys.modules\n"
            f"assert cli.main(['simulate', '--a1-steps', '2', '--theta-steps', '2',"
            f" '--out', {str(tmp_path / 'x.csv')!r}]) == 0\n"
            "assert 'orjson' in sys.modules\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


class TestEngineBlocks:
    @pytest.mark.parametrize(
        "command, axis1",
        [("sweep-pure", "p"), ("sweep-mixed", "gamma"), ("max-violation", "p"),
         ("max-violation", "gamma"), ("simulate", "p"), ("simulate", "gamma"),
         ("simulate --th 0.9 --tv 0.8 --visibility 0.7", "p")],  # a command and its flags
    )
    def test_block_size_leaves_the_bytes_unchanged(self, command, axis1, tmp_path, monkeypatch):
        # 3600 points: one default block, four blocks of 1000
        grid = ["--a1-steps", 3600] if command == "max-violation" else [
            "--a1-steps", 60, "--theta-steps", 60]
        for seed, fmt in ((3, "csv"), (11, "json")):
            argv = [*command.split(), "--axis1", axis1, *grid, "--seed", seed, "--format", fmt]
            assert run_main(argv + ["--out", tmp_path / "default"]) == 0
            # 7 points split each 60-point theta row into unequal pieces
            for points in (1000, 7):
                with monkeypatch.context() as patch:
                    patch.setattr(cli, "_ENGINE_POINTS", points)
                    assert run_main(argv + ["--out", tmp_path / "blocks"]) == 0
                assert (tmp_path / "blocks").read_bytes() == (tmp_path / "default").read_bytes()

    def test_a_gate_that_vanishes_late_fails_before_the_first_block(self, monkeypatch, capsys):
        # Each block gates only its own axis values, and this gate vanishes
        # only near p = 1, far past the first block of 10 axis values.
        # The sweep still fails before its first block, with the minimum
        # over the whole axis that gating every axis value at once reports.
        monkeypatch.setattr(cli, "_ENGINE_POINTS", 100)
        gate = GateParams(t_h=2.7386e-7, t_v=0.4)
        spec = SweepSpec(axis1="p", a1_steps=300, theta_steps=10, gate=gate)
        p = np.linspace(0.0, 1.0, 300)
        with pytest.raises(photonics.PostSelectionError) as whole_axis:
            photonics._gated_signals(_family_states(p, np.sqrt(p * (1.0 - p)))[:, None], gate,
                                     photonics._METER_V)
        assert str(whole_axis.value) == "coincidence success probability 7.49992996e-15 vanishes"
        for rows, column, *_rest in cli._COMMANDS.values():
            with pytest.raises(photonics.PostSelectionError) as raised:
                next(rows(spec, column))
            assert str(raised.value) == str(whole_axis.value)
        argv = ["simulate", "--th", 2.7386e-7, "--tv", 0.4, "--a1-steps", 300, "--theta-steps", 10]
        assert run_main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {whole_axis.value}\n"

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

    @pytest.mark.parametrize("command", ["sweep-pure", "simulate"])
    def test_memory_is_flat_in_theta(self, command, monkeypatch):
        # The analyzer effects are built per block: beyond the angles
        # themselves, in degrees and radians (16 B each), a longer theta
        # row costs no memory.
        monkeypatch.setattr(cli, "_ENGINE_POINTS", 2000)
        peaks = []
        for steps in (40000, 80000):
            rows, column, axes, *_rest = cli._COMMANDS[command]
            spec = SweepSpec(axis1=axes[0], a1_steps=2, theta_steps=steps)
            assert sum(1 for _ in rows(spec, column)) == 2 * steps // 2000  # caches stay out
            tracemalloc.start()
            try:
                assert sum(1 for _ in rows(spec, column)) == 2 * steps // 2000
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 32 * 40000

    @pytest.mark.parametrize("axis1", ["p", "gamma"])
    def test_memory_is_flat_in_the_axis(self, axis1, monkeypatch):
        # Each block derives its family states and gated signals for its
        # own axis values, and the gate check runs in chunks: beyond the
        # axis values themselves (8 B each), a longer axis costs no memory.
        monkeypatch.setattr(cli, "_ENGINE_POINTS", 2000)
        rows, column, *_rest = cli._COMMANDS["max-violation"]
        peaks = []
        for steps in (40000, 80000):
            spec = SweepSpec(axis1=axis1, a1_min=-1.0 if axis1 == "gamma" else 0.0,
                             a1_steps=steps)
            assert sum(1 for _ in rows(spec, column)) == steps // 2000  # caches stay out
            tracemalloc.start()
            try:
                assert sum(1 for _ in rows(spec, column)) == steps // 2000
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 32 * 40000

    def test_sweeps_make_no_linalg_call(self, monkeypatch):
        # The head takes ||rho - rho'||_1, and the sweeps their analytic
        # column, from the family's own parameters, so no sweep's bytes
        # depend on the LAPACK build.
        calls = []
        for name in ("eigvalsh", "eigh", "eig"):
            def recorded(*args, _name=name, _kernel=getattr(np.linalg, name), **kwargs):
                calls.append(_name)
                return _kernel(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recorded)
        for command in cli._COMMANDS:
            assert run_main([command, "--out", os.devnull]) == 0
        assert calls == []

    @settings(max_examples=300, deadline=None)
    @given(p=st.floats(0.0, 1.0), gamma=st.floats(-1.0, 1.0))
    @example(p=0.0, gamma=1.0)
    @example(p=1.0, gamma=-1.0)
    @example(p=0.5, gamma=1.0)
    @example(p=0.5, gamma=-1.0)
    @example(p=0.5, gamma=-0.0)
    @example(p=5e-324, gamma=1.0)
    def test_head_matches_the_lueders_channel_and_eigvalsh(self, p, gamma):
        # The head's 2|off| is the eigvalsh trace norm of rho - rho' to
        # round-off, with rho' the generic Lueders output.
        p = np.array([p])
        off = np.sqrt(p * (1.0 - p)) * gamma
        states = _family_states(p, off)
        dephased = _luders(states, observable_x()._channel)
        distance = 2.0 * np.abs(off)
        np.testing.assert_array_max_ulp(
            distance * distance, _trace_norm(states - dephased) ** 2, maxulp=4)

    @settings(max_examples=300, deadline=None)
    @given(p_range=_axis_range("p"), gamma=st.floats(-1.0, 1.0),
           theta_deg=st.floats(-360.0, 360.0))
    @example(p_range=[0.0, 1.0], gamma=1.0, theta_deg=90.0)
    @example(p_range=[0.0, 1.0], gamma=-1.0, theta_deg=-360.0)
    @example(p_range=[0.5, 1.0], gamma=1.0, theta_deg=45.0)
    @example(p_range=[0.5, 1.0], gamma=-0.0, theta_deg=180.0)
    @example(p_range=[5e-324, 1e-34], gamma=1.0, theta_deg=57.29577951308232)
    @example(p_range=[0.9999999999999999, 1.0], gamma=-1.0, theta_deg=360.0)
    def test_closed_form_matches_the_lueders_path(self, p_range, gamma, theta_deg):
        # The sweeps' analytic column and analytic_delta_v against
        # V(Lueders(rho)) - V(rho) from the x channel, the Born rule and
        # the variances of y(theta).
        spec = SweepSpec(axis1="p", a1_min=p_range[0], a1_max=p_range[1], a1_steps=2,
                         gamma=gamma)
        [(axis1, _theta, column, *_rest)] = cli._grid_rows(
            spec, (theta_deg, theta_deg, 1), cli._family_column)
        theta = np.radians([theta_deg])
        for p, analytic in zip(map(float, axis1.ravel()), map(float, column.ravel())):
            states = _family_states(np.array(p), math.sqrt(p * (1.0 - p)) * gamma)
            pair = np.array((states, _luders(states, observable_x()._channel)))
            v_direct, v_dephased = _variances(_born(pair, _tilted_effects(theta[0])),
                                              np.array([-1.0, 1.0]))
            reference = v_dephased - v_direct
            assert abs(analytic - reference) <= 1e-15
            assert abs(analytic_delta_v(p, gamma, theta[0]) - reference) <= 1e-15

    @settings(max_examples=300, deadline=None)
    @given(p_range=_axis_range("p"), gamma=st.floats(-1.0, 1.0),
           theta=st.tuples(st.floats(-360.0, 360.0), st.floats(-360.0, 360.0),
                           st.integers(1, 3)),
           gate=st.tuples(st.floats(0.01, 1.0), st.floats(0.01, 1.0), st.floats(0.0, 1.0)))
    @example(p_range=[0.0, 1.0], gamma=1.0, theta=(0.0, 180.0, 3),
             gate=(1.0, 0.3333333333333333, 1.0))
    @example(p_range=[0.0, 1.0], gamma=-0.0, theta=(0.0, 180.0, 3),
             gate=(0.985, 0.324, 1.0))
    @example(p_range=[0.0, 1.0], gamma=0.0, theta=(0.0, 180.0, 3),
             gate=(1.0, 0.3333333333333333, 1.0))
    @example(p_range=[0.25, 0.75], gamma=-1.0, theta=(45.0, 45.0, 1), gate=(0.9, 0.8, 0.0))
    def test_gate_model_column_matches_the_variances(self, p_range, gamma, theta, gate):
        # simulate's analytic column, taken factored from the two runs'
        # means, against V_+ - V_H from qubit._variances on the same
        # gated probabilities, captured as the engine checks them.
        checked = cli._checked_probabilities
        seen = []

        def kept(probabilities):
            checked_probabilities = checked(probabilities)
            # The engine snaps its own checked copy once the column is taken.
            seen.append(checked_probabilities.copy())
            return checked_probabilities

        spec = SweepSpec(axis1="p", a1_min=p_range[0], a1_max=p_range[1], a1_steps=2,
                         gamma=gamma, gate=GateParams(*gate))
        cli._HEADS.clear()  # an example may repeat the grid of an earlier one
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_checked_probabilities", kept)
            [(_axis1, _theta, column, *_rest)] = cli._grid_rows(
                spec, theta, cli._gated_means_column)
        [probabilities] = seen
        column = np.array(list(map(float, column.ravel()))).reshape(column.shape)
        variances = _variances(probabilities, np.array([-1.0, 1.0]))
        reference = variances[..., 1] - variances[..., 0]
        assert column.shape == reference.shape
        assert np.abs(column - reference).max() <= 1e-15

    @pytest.mark.parametrize(
        "argv", [["sweep-pure", "--gamma", 0], ["sweep-mixed", "--alpha", 45],
                 ["simulate", "--gamma", 0, "--a1-steps", 2, "--theta-steps", 5]])
    def test_no_cell_reads_negative_zero(self, argv, tmp_path):
        # Here off = 0, so every analytic_dv of the closed form is a signed
        # zero of the product; so is simulate's at p = 0 and p = 1, where
        # the two gated runs' means agree.
        assert run_main(argv + ["--out", tmp_path / "x.csv"]) == 0
        cells = (tmp_path / "x.csv").read_text().replace("\n", ",").split(",")
        assert "0.0" in cells
        assert "-0.0" not in cells


def run_to_bytes(argv):
    """Exit status, stderr and the bytes of the --out file (None when there
    is none) of one cli.main run; the last --out names the file, which is
    then removed."""
    argv = [str(arg) for arg in argv]
    path = pathlib.Path(argv[len(argv) - argv[::-1].index("--out")])
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    data = path.read_bytes() if path.exists() else None
    path.unlink(missing_ok=True)
    return code, err.getvalue(), data


def memo_head():
    """The one head the memo holds."""
    [head] = cli._HEADS.values()
    return head


@contextlib.contextmanager
def head_builds():
    """The arguments of every head built (cli._grid_heads call) inside the
    block."""
    built = []
    heads = cli._grid_heads

    def counted(*args):
        built.append(args)
        return heads(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_grid_heads", counted)
        yield built


# Per SweepSpec field: the axis of the base sweep, the flags appended to it
# that change the field alone (one list per change; the last of repeated
# flags wins), and whether the changed sweep reuses the base sweep's head.
FIELD_CHANGES = {
    "axis1": ("p", [["--axis1", "gamma"]], False),
    "a1_min": ("p", [["--a1-min", 0.25]], False),
    "a1_max": ("p", [["--a1-max", 0.75]], False),
    "a1_steps": ("p", [["--a1-steps", 4]], False),
    "theta_min_deg": ("p", [["--theta-min", 10.0]], False),
    "theta_max_deg": ("p", [["--theta-max", 170.0]], False),
    "theta_steps": ("p", [["--theta-steps", 5]], False),
    "gamma": ("p", [["--gamma", 0.5]], False),
    "alpha_deg": ("gamma", [["--alpha", 30.0]], False),
    "gate": ("p", [["--th", 0.9], ["--tv", 0.3], ["--visibility", 0.9]], False),
    "flux": ("p", [["--flux", 3000.0]], True),
    "seed": ("p", [["--seed", 8]], True),
    "out": ("p", [["--out", "other.csv"]], True),
    "fmt": ("p", [["--format", "json"]], True),
}


class TestHeadMemo:
    """A one-block sweep keeps its head for the next sweep of the same
    head; no output byte depends on it."""

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        command=st.sampled_from(sorted(cli._COMMANDS)),
        steps=st.tuples(st.integers(2, 5), st.integers(2, 5)),
        theta_range=st.lists(
            st.floats(-360.0, 360.0), min_size=2, max_size=2, unique=True
        ).map(sorted),
        fixed=st.tuples(st.floats(-1.0, 1.0), st.floats(0.0, 45.0)),
        gate=st.tuples(st.floats(0.01, 1.0), st.floats(0.01, 1.0), st.floats(0.0, 1.0)),
        seed=st.integers(0, 2**32),
        flux=st.floats(100.0, 1e6),
        fmt=st.sampled_from(("csv", "json")),
    )
    def test_warm_head_gives_the_cold_bytes(
        self, data, command, steps, theta_range, fixed, gate, seed, flux, fmt
    ):
        axis1 = data.draw(st.sampled_from(cli._COMMANDS[command][2]))
        a1_min, a1_max = data.draw(_axis_range(axis1))
        spec = SweepSpec(
            axis1=axis1, a1_min=a1_min, a1_max=a1_max, a1_steps=steps[0],
            theta_min_deg=theta_range[0], theta_max_deg=theta_range[1],
            theta_steps=steps[1], gamma=fixed[0], alpha_deg=fixed[1],
            gate=GateParams(*gate),
        )
        with tempfile.TemporaryDirectory() as tmp:
            grid = grid_argv(command, spec) + ["--out", os.path.join(tmp, "x")]
            run = grid + [f"--seed={seed}", f"--flux={flux}", f"--format={fmt}"]
            cli._HEADS.clear()
            cold = run_to_bytes(run)
            cli._HEADS.clear()
            # the same grid with another seed, flux and format
            other = {"csv": "json", "json": "csv"}[fmt]
            filler = run_to_bytes(grid + [f"--seed={seed + 1}", f"--flux={2.0 * flux}",
                                          f"--format={other}"])
            assert filler[:2] == (0, "")
            # The first reuse turns the head's columns into texts; the
            # second writes them.
            with head_builds() as built:
                warm = [run_to_bytes(run), run_to_bytes(run)]
            assert not built
        assert warm == [cold, cold]
        assert cold[:2] == (0, "")

    @pytest.mark.parametrize("field_name", [f.name for f in fields(SweepSpec)])
    def test_each_field_is_read_by_the_head_or_reuses_it(self, field_name, tmp_path):
        axis1, changes, reused = FIELD_CHANGES[field_name]
        base = ["simulate", "--axis1", axis1, "--a1-steps", 3, "--theta-steps", 4,
                "--out", tmp_path / "x.csv"]
        for change in changes:
            change = [tmp_path / arg if arg == "other.csv" else arg for arg in change]
            cli._HEADS.clear()
            assert run_to_bytes(base)[0] == 0
            assert run_to_bytes(base)[0] == 0  # the head now holds texts
            with head_builds() as built:
                warm = run_to_bytes(base + change)
            assert (not built) == reused
            cli._HEADS.clear()
            assert run_to_bytes(base + change) == warm
            assert warm[0] == 0

    @pytest.mark.parametrize("first, second", [
        # Both take the family's closed form, but max-violation pins theta
        # to 90 degrees.
        (["sweep-pure"], ["max-violation"]),
        # The same grid and the ideal gate, but another analytic column.
        (["sweep-pure", "--theta-steps", "4"],
         ["simulate", "--theta-steps", "4", "--th", "1.0", "--tv", repr(1.0 / 3.0)]),
    ])
    def test_commands_with_equal_specs_do_not_share_a_head(self, first, second, tmp_path):
        grid = ["--a1-steps", "5", "--out", str(tmp_path / "x.csv")]
        specs = [cli._spec_from_args(cli._parse_args(argv + grid)) for argv in (first, second)]
        assert specs[0] == specs[1]
        assert run_to_bytes(first + grid)[0] == 0
        assert run_to_bytes(first + grid)[0] == 0
        with head_builds() as built:
            warm = run_to_bytes(second + grid)
        assert len(built) == 1
        cli._HEADS.clear()
        assert run_to_bytes(second + grid) == warm
        assert warm[0] == 0

    @pytest.mark.parametrize("flag, first, second, same_grid", [
        # -0.0 == 0.0 as floats, not as bytes; np.linspace starts either
        # grid at 0.0, so the key is finer than the grid here.
        ("--a1-min", "0.0", "-0.0", True),
        ("--theta-min", "0.0", "-0.0", True),
        ("--a1-max", "0.75", repr(0.75 + 2.0**-40), False),
    ])
    def test_key_tells_apart_numbers_that_compare_equal_or_close(
            self, flag, first, second, same_grid, tmp_path):
        base = ["simulate", "--a1-steps", 3, "--theta-steps", 4, "--out", tmp_path / "x.csv"]
        assert run_to_bytes(base + [flag, first])[0] == 0
        kept = run_to_bytes(base + [flag, first])  # the head now holds texts
        with head_builds() as built:
            warm = run_to_bytes(base + [flag, second])
        assert len(built) == 1
        cli._HEADS.clear()
        assert run_to_bytes(base + [flag, second]) == warm
        assert warm[0] == 0
        assert (warm[2] == kept[2]) == same_grid

    def test_head_keeps_the_snapped_means_and_the_tail_checks_no_flux(self, tmp_path):
        # On this grid one checked probability is round-off (5.6e-17).
        argv = ["simulate", "--a1-steps", 5, "--theta-steps", 4, "--out", tmp_path / "x.csv"]
        checked = cli._checked_probabilities
        seen = []

        def kept(probabilities):
            probabilities = checked(probabilities)
            seen.append(probabilities.copy())  # before the head snaps them
            return probabilities

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_checked_probabilities", kept)
            assert run_main(argv) == 0
        [probabilities] = seen
        [(_columns, means)] = memo_head()
        assert ((probabilities > 0.0) & (probabilities <= PROBABILITY_FLOOR)).any()
        expected = np.where(probabilities <= PROBABILITY_FLOOR, 0.0, probabilities)
        assert means.shape == expected.shape
        assert means.tobytes() == expected.tobytes()
        assert means.flags.writeable is False
        spec = cli._spec_from_args(cli._parse_args([str(arg) for arg in argv]))
        rows, column, *_rest = cli._COMMANDS["simulate"]
        calls = []
        with pytest.MonkeyPatch.context() as patch:
            for module in (cli, photonics):
                patch.setattr(module, "_check_flux", lambda *args: calls.append(args))
            for _warm in range(2):  # the first reuse turns the columns into texts
                with head_builds() as built:
                    assert len(list(rows(spec, column))) == 1
                assert not built
        assert calls == []

    def test_a_head_that_raises_is_not_kept(self, tmp_path):
        argv = ["simulate", "--th", 0, "--tv", 0, "--a1-steps", 3, "--theta-steps", 3,
                "--out", tmp_path / "x.csv"]
        first = run_to_bytes(argv)
        assert first[0] == 1
        assert first[1].startswith("error: coincidence success probability")
        assert first[2] is None
        assert not cli._HEADS
        assert run_to_bytes(argv) == first
        assert not cli._HEADS

    def test_memo_keeps_one_read_only_head_of_a_one_block_sweep(self, tmp_path):
        out = ["--out", tmp_path / "x.csv"]
        for command in cli._COMMANDS:
            # The first sweep of a grid keeps its floats, a repeat its texts.
            for kind in (float, str):
                assert run_main([command, *out]) == 0
                [(columns, probabilities)] = memo_head()
                assert len(columns) == 4
                for array in (*columns, probabilities):
                    assert array.flags.writeable is False
                for column in columns:
                    assert all(type(cell) is kind for cell in column.ravel().tolist())
                with pytest.raises(ValueError, match="read-only"):
                    probabilities[0, 0, 0, 0] = 0.5
        head = memo_head()
        # 200 x 100 points: two engine blocks
        many = ["simulate", "--a1-steps", 200, "--theta-steps", 100, *out]
        assert run_main(many) == 0
        assert memo_head() is head
        cli._HEADS.clear()
        assert run_main(many) == 0
        assert not cli._HEADS

    @pytest.mark.parametrize("steps, bound", [(50, 500_000), (128, 2_500_000)])
    def test_memo_size_and_the_cold_peak(self, steps, bound, tmp_path):
        # 128 x 128 points fill one engine block.  A cold sweep builds the
        # head and keeps its floats, the first repeat keeps its texts: the
        # peak of each exceeds a warm sweep's by no more than the memo then
        # holds.
        argv = ["simulate", "--a1-steps", steps, "--theta-steps", steps,
                "--out", tmp_path / "x.csv"]
        # First-call caches stay out of the peaks.
        assert run_main(argv) == 0
        assert run_main(argv + ["--seed", 1]) == 0
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            assert run_main(argv + ["--seed", 2]) == 0
            warm = tracemalloc.get_traced_memory()[1] - start
            cli._HEADS.clear()
            # Of the cold sweep and the first repeat: the peak and what the
            # memo grew by.
            grown = []
            for seed in (3, 4):
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                assert run_main(argv + ["--seed", seed]) == 0
                held, peak = tracemalloc.get_traced_memory()
                grown.append((peak - start, held - start))
            held = tracemalloc.get_traced_memory()[0]
            cli._HEADS.clear()
            kept = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert 0 < kept <= bound
        for peak, more in grown:
            assert 0 < more <= kept
            assert peak <= warm + more


class TestSweepPure:
    def test_figure_anchors(self, tmp_path):
        records = sweep_rows(
            ["sweep-pure", "--a1-min", 0.165, "--a1-max", 0.552, "--a1-steps", 2,
             "--theta-min", 0.0, "--theta-max", 90.0, "--theta-steps", 2, "--flux", 1000.0],
            tmp_path / "pure.csv")
        by_point = {(round(r["axis1"], 3), r["theta"]): r for r in records}
        assert by_point[(0.552, 90.0)]["analytic_dv"] == pytest.approx(
            4 * 0.552 * 0.448, abs=1e-9
        )
        assert by_point[(0.165, 90.0)]["analytic_dv"] == pytest.approx(
            4 * 0.165 * 0.835, abs=1e-9
        )
        for record in records:
            if record["theta"] == 0.0:
                assert abs(record["analytic_dv"]) <= 1e-12

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
        records = sweep_rows(
            ["sweep-mixed", "--a1-min", 0.0, "--a1-max", 1.0, "--a1-steps", 2,
             "--theta-min", 36.0, "--theta-max", 84.0, "--theta-steps", 2,
             "--alpha", 12.0, "--flux", 1000.0],
            tmp_path / "mixed.csv")
        p_fixed = math.sin(math.radians(24.0)) ** 2
        by_point = {(r["axis1"], r["theta"]): r["analytic_dv"] for r in records}
        assert by_point[(1.0, 36.0)] == pytest.approx(
            oracle_delta_v(p_fixed, 1.0, math.radians(36.0)), abs=1e-9
        )
        assert by_point[(1.0, 36.0)] < 0.0  # negative branch
        assert by_point[(1.0, 84.0)] == pytest.approx(
            oracle_delta_v(p_fixed, 1.0, math.radians(84.0)), abs=1e-9
        )
        assert by_point[(0.0, 36.0)] == pytest.approx(0.0, abs=1e-12)
        assert by_point[(0.0, 84.0)] == pytest.approx(0.0, abs=1e-12)

    def test_requires_coherence_axis(self, tmp_path):
        code = run_main(["sweep-mixed", "--axis1", "p", "--out", tmp_path / "x.csv"])
        assert code == 2


class TestMaxViolation:
    def test_population_scan(self, tmp_path):
        records = sweep_rows(
            ["max-violation", "--a1-min", 0.1, "--a1-max", 0.9, "--a1-steps", 9,
             "--flux", 1000.0],
            tmp_path / "max_p.csv")
        assert all(r["theta"] == 90.0 for r in records)
        by_p = {round(r["axis1"], 3): r for r in records}
        assert by_p[0.5]["analytic_dv"] == pytest.approx(1.0, abs=1e-12)
        for record in records:
            # the violation equals the squared trace distance here
            assert record["analytic_dv"] == pytest.approx(record["trdist_sq"], abs=1e-12)
            mirrored = by_p[round(1.0 - record["axis1"], 3)]
            assert record["analytic_dv"] == pytest.approx(mirrored["analytic_dv"], abs=1e-9)

    @pytest.mark.parametrize("grid", [[], ["--a1-steps", 40000, "--a1-min=-1"]],
                             ids=["50", "40000"])
    def test_coherence_scan_violation_is_the_trace_distance_text(self, grid, tmp_path):
        # At p = 0.4999999999999999 the closed form at 90 degrees and
        # 4 off^2 agree to the last digit in every cell; on the p axis they
        # differ by round-off, as test_population_scan allows.
        out = tmp_path / "max_g.csv"
        assert run_main(["max-violation", "--axis1", "gamma", *grid, "--out", out]) == 0
        header, *lines = out.read_text().splitlines()
        analytic, trdist_sq = (header.split(",").index(name) for name in ("analytic_dv", "trdist_sq"))
        rows = [line.split(",") for line in lines]
        assert len(rows) == (40000 if grid else 50)
        assert [row[analytic] for row in rows] == [row[trdist_sq] for row in rows]

    def test_coherence_scan_fixes_balanced_population(self, tmp_path):
        records = sweep_rows(
            ["max-violation", "--axis1", "gamma", "--a1-min", 0.5, "--a1-max", 1.0,
             "--a1-steps", 2, "--flux", 1000.0],
            tmp_path / "max_g.csv")
        by_gamma = {r["axis1"]: r["analytic_dv"] for r in records}
        assert by_gamma[0.5] == pytest.approx(0.25, abs=1e-12)
        assert by_gamma[1.0] == pytest.approx(1.0, abs=1e-12)

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


def parse_outcome(parse, argv):
    """The parsed namespace as the repr of its sorted items, so that NaN
    equals itself and -0.0 differs from 0.0; or the exit code and stderr
    of a parse that fails."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            return repr(sorted(vars(parse(argv)).items()))
    except SystemExit as exc:
        return exc.code, err.getvalue()


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

    def test_theta_span_that_overflows_is_a_usage_error(self, tmp_path, capsys):
        # each bound is finite, so only the span check stops NaN angles
        argv = ["sweep-pure", "--theta-min=-1e308", "--theta-max=1e308",
                "--out", tmp_path / "x.csv"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run_main(argv) == 2
        assert capsys.readouterr().err.startswith("usage error: theta range")
        assert not (tmp_path / "x.csv").exists()

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

    def test_late_failure_on_stdout_leaves_the_rows_written(self, tmp_path, capsys,
                                                            monkeypatch):
        # In blocks of 6 points, this 18-point grid draws an empty count
        # record in its third block, after the first two are written.  On
        # stdout those rows stay: exit status 1 and the error line are the
        # only signal.  With --out the same sweep leaves no file.
        monkeypatch.setattr(cli, "_ENGINE_POINTS", 6)
        argv = ["simulate", "--a1-steps", 3, "--theta-steps", 6, "--flux", 3, "--seed", 3]
        assert run_main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: count record is empty\n"
        lines = captured.out.splitlines()
        assert lines[0] == ",".join(CSV_FIELDS)
        assert len(lines) == 1 + 2 * 6
        assert run_main(argv + ["--out", tmp_path / "x.csv"]) == 1
        assert capsys.readouterr() == ("", "error: count record is empty\n")
        assert not (tmp_path / "x.csv").exists()

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

    def test_unknown_flag_is_reported_under_the_command_usage(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["simulate", "--no-such-flag"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: measurement-coherence simulate")
        assert err.endswith(
            "measurement-coherence simulate: error: unrecognized arguments: --no-such-flag\n")

    @pytest.mark.parametrize("argv, code", [
        (["--help"], 0),
        ([], 2),
        (["bogus"], 2),
        (["simulate", "--help"], 0),
        (["simulate", "--a1-steps", "x"], 2),
        (["--", "simulate", "--a1-steps", "x"], 2),
    ])
    def test_parser_exits_as_the_top_level_parser_does(self, argv, code, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == code
        expected = capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == code
        assert capsys.readouterr() == expected

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), command=st.sampled_from(sorted(cli._COMMANDS)))
    def test_command_parser_gives_the_top_level_namespace(self, data, command):
        values = {
            str: st.sampled_from(("p", "gamma", "csv", "json", "out.csv", "")),
            int: st.integers(-(2**70), 2**70).map(str),
            float: st.floats().map(repr) | st.sampled_from(("1e5", "-0", "nan", "-inf")),
        }
        argv = [command]
        for flag in data.draw(st.lists(st.sampled_from(sorted(_FLAGS)), max_size=8)):
            value = data.draw(values[_FLAGS[flag][1]])
            argv += [f"{flag}={value}"] if data.draw(st.booleans()) else [flag, value]
        assert parse_outcome(cli._parse_args, argv) == parse_outcome(
            build_parser().parse_args, argv)

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

    def test_rejects_theta_range_whose_span_overflows(self):
        # both bounds are finite, but np.linspace would give NaN angles
        with pytest.raises(ValueError, match="theta range .* must have a finite span"):
            SweepSpec(axis1="p", theta_min_deg=-1e308, theta_max_deg=1e308)

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

    def test_simulate_rejects_gamma_outside_domain(self, tmp_path, capsys):
        assert run_main(["simulate", "--gamma", 1.5, "--out", tmp_path / "x.csv"]) == 2
        assert capsys.readouterr().err == "usage error: gamma=1.5 outside [-1, 1]\n"
        assert not (tmp_path / "x.csv").exists()


class TestEngineMatchesObjectPath:
    """Every row a command writes against the per-object API."""

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
            gate=GateParams(*gate),
        )
        if command == "sweep":
            command = "sweep-pure" if axis1 == "p" else "sweep-mixed"
        check_records(command, spec)

    def test_records_match_next_to_p_one(self):
        # the coherence sqrt(p (1 - p)) is ill-conditioned here, so the
        # reference must take p as given rather than round-trip it through
        # a wave-plate angle
        spec = SweepSpec(
            axis1="p", a1_min=0.5, a1_max=0.9999999999999999, a1_steps=2,
            theta_min_deg=0.0, theta_max_deg=90.0, theta_steps=3,
            gate=GateParams(1.0, 0.5, 0.0),
        )
        check_records("simulate", spec)


def grid_argv(command, spec):
    """The argv of the command on spec's grid and gate, each flag joined to
    its value."""
    # A flag the command does not read on this axis is a usage error;
    # every command reads the gate's.
    flags = {"--axis1": spec.axis1, "--a1-min": spec.a1_min, "--a1-max": spec.a1_max,
             "--a1-steps": spec.a1_steps, "--th": spec.gate.t_h, "--tv": spec.gate.t_v,
             "--visibility": spec.gate.visibility}
    if command != "max-violation":
        flags.update({"--theta-min": spec.theta_min_deg, "--theta-max": spec.theta_max_deg,
                      "--theta-steps": spec.theta_steps})
    if spec.axis1 == "p":
        flags["--gamma"] = spec.gamma
    elif command != "max-violation":
        flags["--alpha"] = spec.alpha_deg
    return [command] + [f"{flag}={value}" for flag, value in flags.items()]


def check_records(command, spec):
    """Run the command on spec's grid through cli.main and check each row it
    writes against the per-object API; the simulated column goes through
    the 4x4 reference gate."""
    with tempfile.TemporaryDirectory() as tmp:
        records = sweep_rows(grid_argv(command, spec), os.path.join(tmp, "sweep.csv"))

    thetas = [90.0] if command == "max-violation" else list(
        np.linspace(spec.theta_min_deg, spec.theta_max_deg, spec.theta_steps)
    )
    grid = [(a, t) for a in np.linspace(spec.a1_min, spec.a1_max, spec.a1_steps)
            for t in thetas]
    assert [(r["axis1"], r["theta"]) for r in records] == grid
    alpha_deg = 22.5 if command == "max-violation" else spec.alpha_deg
    for record in records:
        if spec.axis1 == "p":
            p, gamma = record["axis1"], spec.gamma
        else:
            p, gamma = math.sin(2.0 * math.radians(alpha_deg)) ** 2, record["axis1"]
        theta = math.radians(record["theta"])
        state = make_state(p, gamma)
        report = delta_v(state, observable_x(), observable_y(theta))
        if command == "simulate":
            expected = (
                reference_distribution(state.matrix, spec.gate, theta, PERTURBED).variance()
                - reference_distribution(state.matrix, spec.gate, theta, UNPERTURBED).variance()
            )
        else:
            expected = report.delta_v
        assert abs(record["analytic_dv"] - expected) <= 1e-12
        assert abs(record["trdist_sq"] - report.trace_norm_sq) <= 1e-12
        sampled, std_err = record["sampled_dv"], record["std_err"]
        assert record["z"] == (sampled / std_err if std_err > 0 else 0.0)
