"""Tests for snapshot/diagnostics CSV files, comparison tooling, and the
command-line interface."""

import gc
import inspect
import os
import re
import struct
import tempfile
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trsw import cli, fileio
from trsw.cli import ConfigError, convergence_mode, main, parse_config
from trsw.diagnostics import DiagnosticsRecord
from trsw.fileio import (SNAPSHOT_COLUMNS, compare_fields, compare_snapshots,
                         read_comparable, read_snapshot, restrict_average,
                         snapshot_filename, write_diagnostics, write_snapshot)
from trsw.model import (ConservedState, Numerics, Topography, build_grid,
                        flat_topography, primitives_from_state)
from trsw.scenarios import make_scenario
from trsw.stepper import run_simulation

from support import scenario_of


def _toy_rows(path, grid, previous=None, value=1.0, rest=True):
    """Write a snapshot of a toy state on ``grid``; return its rows."""
    n = grid.n
    h = np.full(n, value)
    p = np.zeros(n) if rest else np.full(n, 0.25)
    st = ConservedState.from_fields(h, np.zeros(n), p, h)
    scenario = scenario_of(grid, name="toy")
    return write_snapshot(path, st, scenario, 0.0, previous)


def _toy_snapshot(path, n=4, value=1.0, y_min=-2.0, y_max=2.0, rest=True):
    return _toy_rows(path, build_grid(y_min, y_max, n), value=value,
                     rest=rest)


class TestSnapshotFiles:
    def test_rows_and_columns(self, tmp_path):
        path = tmp_path / "snap.csv"
        _toy_snapshot(path, n=4)
        meta, data = read_snapshot(path)
        assert meta["N"] == "4"
        assert len(data) == 10
        assert all(len(col) == 4 for col in data.values())

    def test_rest_state_zero_velocity_column(self, tmp_path):
        path = tmp_path / "snap.csv"
        _toy_snapshot(path, rest=True)
        _, data = read_snapshot(path)
        assert np.all(data["v"] == 0.0)

    def test_round_trip_precision(self, tmp_path):
        s = make_scenario("ex2", cells=64, t_final=0.02)
        res = run_simulation(s)
        path = tmp_path / "snap.csv"
        write_snapshot(path, res.state, s, res.t)
        _, data = read_snapshot(path)
        assert data["h"] == pytest.approx(res.state.h, rel=1e-15)
        assert data["hb"] == pytest.approx(res.state.hb, rel=1e-15)

    def test_byte_identical_rewrite(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        _toy_snapshot(a)
        _toy_snapshot(b)
        assert a.read_bytes() == b.read_bytes()


def _old_fmt(x):
    # the per-field formatter: the reference the writers must match
    return f"{x:.16e}"


def _old_row(values):
    return ",".join(_old_fmt(x) for x in values)


def _old_snapshot_text(state, topo, grid, t, name, numerics):
    u, v, b, w = primitives_from_state(state, topo)
    columns = (grid.centers, state.h, state.q, state.p, state.hb,
               u, v, b, w, topo.z_center)
    lines = [f"# scenario: {name}", f"# N: {grid.n}",
             f"# y_min: {_old_fmt(grid.y_min)}",
             f"# y_max: {_old_fmt(grid.y_max)}", f"# t: {_old_fmt(t)}",
             f"# cfl: {_old_fmt(numerics.cfl)}",
             f"# sigma: {_old_fmt(numerics.sigma)}",
             ",".join(SNAPSHOT_COLUMNS)]
    lines += [_old_row(col[k] for col in columns) for k in range(grid.n)]
    return "\n".join(lines) + "\n"


def _from_bits(i):
    return struct.unpack("<d", struct.pack("<Q", i))[0]


_SPECIAL = (0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
            2.2250738585072009e-308, 2.2250738585072014e-308,
            np.finfo(float).max, -np.finfo(float).max, 1e16, 0.1)
_FLOAT64 = st.one_of(
    st.integers(0, 2**64 - 1).map(_from_bits),
    st.sampled_from(_SPECIAL))


class TestNumberFormat:
    """The writers against the per-field formatter, byte for byte, on
    arbitrary float64 bit patterns and on whole runs."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_FLOAT64, min_size=9, max_size=9))
    def test_diagnostics_row(self, values):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "diag.csv")
            write_diagnostics(path, [DiagnosticsRecord(*values)] * 2)
            with open(path) as fh:
                lines = fh.read().split("\n")
        assert lines[1:] == [_old_row(values)] * 2 + [""]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(_FLOAT64, _FLOAT64, _FLOAT64, _FLOAT64),
                    min_size=4, max_size=8), _FLOAT64)
    def test_snapshot_rows(self, cells, t):
        h, q, p, hb = (np.abs(a) if k in (0, 3) else a
                       for k, a in enumerate(np.array(cells).T))
        grid = build_grid(-1.0, 3.0, len(cells))
        topo = flat_topography(grid)
        state = ConservedState.from_fields(h, q, p, hb)
        numerics = Numerics()
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "snap.csv")
            with np.errstate(all="ignore"):
                write_snapshot(path, state, scenario_of(
                    grid, topo, numerics=numerics, name="bits"), t)
                expected = _old_snapshot_text(state, topo, grid, t, "bits",
                                              numerics)
            with open(path) as fh:
                assert fh.read() == expected

    def test_ex2_run_files_match_per_field_format(self, tmp_path):
        # a non-flat bottom, so every diagnostics row carries energy = NaN
        s = make_scenario("ex2", cells=64, t_final=0.02)
        res = run_simulation(s)
        assert len(res.records) > 2
        assert all(np.isnan(rec.energy) for rec in res.records)
        _assert_run_files_match(tmp_path, s, res)

    def test_lake_at_rest_files_match_per_field_format(self, tmp_path):
        # an equilibrium: whole columns (q, u, the mass ledger) hold one
        # value, and b and w two or three
        s = make_scenario("lake-at-rest", cells=64)
        res = run_simulation(s)
        assert len(res.records) > 2
        assert np.all(res.state.q == 0.0)
        assert len({rec.mass for rec in res.records}) == 1
        _assert_run_files_match(tmp_path, s, res)


def _assert_run_files_match(tmp_path, s, res):
    """The snapshot and diagnostics files of a run, byte for byte against
    the per-field formatter."""
    snap, diag = tmp_path / "snap.csv", tmp_path / "diag.csv"
    write_snapshot(snap, res.state, s, res.t)
    write_diagnostics(diag, res.records)
    assert snap.read_text() == _old_snapshot_text(
        res.state, s.topography, s.grid, res.t, s.name, s.numerics)
    expected = [",".join(DiagnosticsRecord.FIELDS)]
    expected += [_old_row(rec.row()) for rec in res.records]
    assert diag.read_text() == "\n".join(expected) + "\n"


# a few bit patterns, so that values repeat down a column: both zeros
# (equal as floats, printed differently), NaNs with distinct payloads and
# signs, both infinities, both smallest subnormals and ordinary values
_POOL = (0.0, -0.0, _from_bits(0x7FF8000000000000),
         _from_bits(0xFFF8000000000000), _from_bits(0x7FF0000000000123),
         np.inf, -np.inf, 5e-324, -5e-324, 1.0, -2.5, 0.1, 1e16)
# h and hb must not be < 0, which still leaves -0.0 and the signed NaN
_NONNEG = tuple(x for x in _POOL if not x < 0)


def _runs(pool, size):
    """Columns of ``size`` values from ``pool`` in runs of 1 to 6 equal
    neighbours: a column of short runs is formatted field by field, one of
    long runs run by run."""
    return st.lists(st.tuples(st.sampled_from(pool), st.integers(1, 6)),
                    min_size=size, max_size=size).map(
        lambda runs: [x for x, k in runs for _ in range(k)][:size])


def _change(data, column, pool):
    """Give one drawn entry of ``column`` a new value: one of ``pool``, or
    a twin of the old value that equals it as a float (0.0 and -0.0) or is
    a NaN of another payload or sign."""
    j = data.draw(st.integers(0, len(column) - 1))
    old = np.float64(column[j]).view(np.int64)
    twins = [x for x in pool
             if np.float64(x).view(np.int64) != old
             and (x == column[j] or np.isnan(x) and np.isnan(column[j]))]
    values = st.sampled_from(pool)
    column[j] = data.draw(st.one_of(st.sampled_from(twins), values)
                          if twins else values)


class TestRepeatedBitPatterns:
    """Columns of runs drawn from a small pool of bit patterns, against the
    per-field formatter: the writers format each run once."""

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.integers(4, 24))
    def test_snapshot_file(self, data, n):
        def column(pool, size=n):
            return data.draw(_runs(pool, size))
        state = ConservedState.from_fields(column(_NONNEG), column(_POOL),
                                           column(_POOL), column(_NONNEG))
        grid, numerics = build_grid(-1.0, 3.0, n), Numerics()
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "snap.csv")
            with np.errstate(all="ignore"):
                topo = Topography(np.array(column(_POOL, n + 1)))
                write_snapshot(path, state, scenario_of(
                    grid, topo, numerics=numerics, name="pool"), 0.0)
                expected = _old_snapshot_text(state, topo, grid, 0.0, "pool",
                                              numerics)
            with open(path) as fh:
                assert fh.read() == expected

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.integers(0, 16))
    def test_diagnostics_file(self, data, m):
        rows = list(zip(*[data.draw(_runs(_POOL, m)) for _ in range(9)]))
        records = [DiagnosticsRecord(*values) for values in rows]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "diag.csv")
            write_diagnostics(path, records)
            with open(path) as fh:
                text = fh.read()
        expected = [",".join(DiagnosticsRecord.FIELDS)]
        expected += [_old_row(values) for values in rows]
        assert text == "\n".join(expected) + "\n"

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.integers(4, 24), st.integers(2, 4))
    def test_snapshot_chain_reusing_rows(self, data, n, length):
        # a run's snapshots, each written with the rows the one before
        # returned: a few fields change per snapshot, often only in their
        # bits, and the bottom changes now and then
        pools = (_NONNEG, _POOL, _POOL, _NONNEG)
        fields = [data.draw(_runs(pool, n)) for pool in pools]
        z_iface = data.draw(_runs(_POOL, n + 1))
        grid, numerics = build_grid(-1.0, 3.0, n), Numerics()
        rows = None
        with tempfile.TemporaryDirectory() as tmp, np.errstate(all="ignore"):
            for k in range(length):
                if k:
                    for _ in range(data.draw(st.integers(0, n))):
                        i = data.draw(st.integers(0, 3))
                        _change(data, fields[i], pools[i])
                    if data.draw(st.booleans()):
                        _change(data, z_iface, _POOL)
                state = ConservedState.from_fields(*fields)
                topo = Topography(np.array(z_iface))
                path = os.path.join(tmp, f"snap{k}.csv")
                rows = write_snapshot(
                    path, state, scenario_of(grid, topo, numerics=numerics,
                                             name="chain"),
                    float(k), rows)
                with open(path) as fh:
                    assert fh.read() == _old_snapshot_text(
                        state, topo, grid, float(k), "chain", numerics)
            # the same n and values on another grid: the y text differs,
            # so the rows of the first grid must not be reused
            other = build_grid(-2.0, 3.0, n)
            path = os.path.join(tmp, "other.csv")
            write_snapshot(path, state, scenario_of(
                other, topo, numerics=numerics, name="chain"), 0.0, rows)
            with open(path) as fh:
                assert fh.read() == _old_snapshot_text(
                    state, topo, other, 0.0, "chain", numerics)

    def test_signed_zeros_cut_a_run(self, tmp_path):
        # 0.0 == -0.0, so a run cut by float value would print 0.0 four
        # times; cut by bit pattern, each zero keeps its sign
        column = [0.0, 0.0, -0.0, -0.0, 0.0, 0.0, -0.0, -0.0]
        records = [DiagnosticsRecord(*[x] * 9) for x in column]
        path = tmp_path / "diag.csv"
        write_diagnostics(path, records)
        lines = path.read_text().splitlines()[1:]
        assert lines == [_old_row([x] * 9) for x in column]
        assert lines[2].startswith("-0.0000000000000000e+00,")


class TestCenterText:
    """The y column is formatted once per run, by its first write, and
    held by the rows that the write returns."""

    def test_text_of_each_center(self, tmp_path):
        grid = build_grid(-250.0, 250.0, 400)
        rows = _toy_rows(tmp_path / "a.csv", grid)
        assert rows.y_text == ["%.16e" % y for y in grid.centers]
        assert _toy_rows(tmp_path / "b.csv", grid, rows).y_text \
            is rows.y_text

    def test_grids_do_not_share_text(self, tmp_path):
        # given the rows of another grid, a write formats its own y
        base = build_grid(-1.0, 3.0, 8)
        rows = _toy_rows(tmp_path / "base.csv", base)
        for other in (build_grid(-1.0, 3.0, 16), build_grid(-1.0, 5.0, 8),
                      build_grid(-2.0, 3.0, 8)):
            path = tmp_path / "other.csv"
            text = _toy_rows(path, other, rows).y_text
            assert text != rows.y_text
            assert text == ["%.16e" % y for y in other.centers]
            assert [line.split(",")[0] for line in
                    path.read_text().splitlines()[8:]] == text

    def test_dies_with_its_grid(self, tmp_path):
        # a domain no other test uses: a cache keyed by equal grids would
        # otherwise hold an earlier one and not this
        grid = build_grid(-7.25, 3.5, 12)
        rows = _toy_rows(tmp_path / "a.csv", grid)
        assert len(rows.y_text) == 12
        ref = weakref.ref(grid)
        del grid, rows
        gc.collect()
        assert ref() is None  # no cache outside the rows keeps it alive

    def test_cached_and_fresh_text_give_the_same_files(self, tmp_path):
        # as the CLI does: a snapshot from within the run formats y, and
        # the one after it for --compare-with takes y from its rows; a
        # write without them formats y afresh
        s = make_scenario("ex6", cells=400, snapshots=(0.26 * np.pi,))
        written = []

        def on_snapshot(t, state):
            path = tmp_path / "within.csv"
            written.append((path, t, state, write_snapshot(path, state, s, t)))

        res = run_simulation(s, on_snapshot=on_snapshot)
        assert not res.failed and len(written) == 1
        rows = written[0][3]
        after, fresh = tmp_path / "after.csv", tmp_path / "fresh.csv"
        assert write_snapshot(after, res.state, s, res.t, rows).y_text \
            is rows.y_text
        write_snapshot(fresh, res.state, s, res.t)
        assert after.read_bytes() == fresh.read_bytes()
        for path, t, state in [written[0][:3], (after, res.t, res.state)]:
            assert path.read_text() == _old_snapshot_text(
                state, s.topography, s.grid, t, s.name, s.numerics)

    def test_cli_passes_each_write_the_rows_before(self, tmp_path,
                                                    monkeypatch):
        # as perfbench's tracer does: trsw.fileio.write_snapshot rebound to
        # a wrapper that returns what it wraps. Each file is one call, and
        # each call, the --compare-with write of the final state too, gets
        # the rows that the call before returned
        times = tuple(3.5 * np.pi * k / 17 for k in range(1, 17))
        ref = tmp_path / "ref.csv"
        _toy_snapshot(ref, n=400, y_min=-250.0, y_max=250.0)
        signature = inspect.signature(write_snapshot)
        calls = []

        def counting(*args, **kwargs):
            out = write_snapshot(*args, **kwargs)
            calls.append((signature.bind(*args, **kwargs).arguments, out))
            return out

        monkeypatch.setattr(fileio, "write_snapshot", counting)
        out = tmp_path / "out"
        assert main(["--scenario", "ex6", "--cells", "400", "--snapshots",
                     ",".join(map(repr, times)), "--out", str(out),
                     "--compare-with", str(ref)]) == 0
        s = make_scenario("ex6", cells=400, snapshots=times)
        res = run_simulation(s)
        assert not res.failed and res.t not in times
        states = res.snapshots + [(res.t, res.state)]
        assert len(states) == 17
        assert sorted(os.listdir(out)) == sorted(
            snapshot_filename(s.name, 400, t) for t, _ in states)
        assert len(calls) == len(states)
        previous = None
        for (args, rows), (t, state) in zip(calls, states):
            assert args["path"] == str(out / snapshot_filename(s.name, 400,
                                                               t))
            assert args.get("previous") is previous
            previous = rows
            with open(args["path"]) as fh:
                assert fh.read() == _old_snapshot_text(
                    state, s.topography, s.grid, t, s.name, s.numerics)


class TestRestriction:
    def test_exact_average(self):
        fine = np.array([1.0, 3.0, 2.0, 4.0])
        assert np.array_equal(restrict_average(fine, 2), [2.0, 3.0])

    def test_incompatible_factor(self):
        with pytest.raises(ValueError):
            restrict_average(np.ones(5), 2)


class TestCompare:
    def test_identical_files(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        _toy_snapshot(a)
        _toy_snapshot(b)
        table = compare_snapshots(read_comparable(a), read_comparable(b))
        assert all(l1 == 0.0 and linf == 0.0 for l1, linf in table.values())

    def test_constant_offset_l1(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        _toy_snapshot(a, value=1.0)
        _toy_snapshot(b, value=2.0)
        l1, linf = compare_snapshots(read_comparable(a), read_comparable(b))["h"]
        assert l1 == pytest.approx(4.0)  # |1-2| over a length-4 domain
        assert linf == pytest.approx(1.0)

    def test_nested_grids_symmetric(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        sa = make_scenario("ex2", cells=50, t_final=0.02)
        sb = make_scenario("ex2", cells=100, t_final=0.02)
        ra, rb = run_simulation(sa), run_simulation(sb)
        write_snapshot(a, ra.state, sa, 0.02)
        write_snapshot(b, rb.state, sb, 0.02)
        fwd = compare_snapshots(read_comparable(a), read_comparable(b))
        bwd = compare_snapshots(read_comparable(b), read_comparable(a))
        for field in fwd:
            assert fwd[field] == pytest.approx(bwd[field])
        assert fwd["h"][0] > 0.0

    def test_non_nested_rejected(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        _toy_snapshot(a, n=4)
        _toy_snapshot(b, n=6)
        with pytest.raises(ValueError, match="not nested"):
            compare_snapshots(read_comparable(a), read_comparable(b))

    def test_different_domains_rejected(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        _toy_snapshot(a, y_max=2.0)
        _toy_snapshot(b, y_max=4.0)
        with pytest.raises(ValueError, match="domain"):
            compare_snapshots(read_comparable(a), read_comparable(b))


def _spoil_meta(path, key):
    """Replace the value of the ``# key:`` line of a snapshot by 'abc'."""
    path.write_text("".join(f"# {key}: abc\n" if line.startswith(f"# {key}:")
                            else line
                            for line in path.read_text().splitlines(True)))


class TestMalformedReference:
    """A reference snapshot that cannot be compared is a ValueError that
    names the file (and the line of a bad row), never another exception."""

    def test_header_only(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "header_only.csv"
        _toy_snapshot(a)
        b.write_text(",".join(SNAPSHOT_COLUMNS) + "\n")
        with pytest.raises(ValueError, match=f"{b}: no data rows"):
            compare_snapshots(read_comparable(a), read_comparable(b))

    @pytest.mark.parametrize("key", ["y_min", "y_max", "N"])
    def test_missing_domain_line(self, tmp_path, key):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        _toy_snapshot(a)
        _toy_snapshot(b)
        b.write_text("".join(line for line in b.read_text().splitlines(True)
                             if not line.startswith(f"# {key}:")))
        with pytest.raises(ValueError, match=f"{b}: missing {key}"):
            compare_snapshots(read_comparable(a), read_comparable(b))

    @pytest.mark.parametrize("key", ["y_min", "y_max", "N"])
    def test_non_numeric_domain_line(self, tmp_path, key):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        _toy_snapshot(a)
        _toy_snapshot(b)
        _spoil_meta(b, key)
        with pytest.raises(ValueError, match=f"{b}: malformed {key}: 'abc'"):
            compare_snapshots(read_comparable(a), read_comparable(b))

    def test_missing_column(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        _toy_snapshot(a)
        _toy_snapshot(b)
        # drop the trailing Z column from the header and every row
        b.write_text("".join(line if line.startswith("#")
                             else line.rsplit(",", 1)[0] + "\n"
                             for line in b.read_text().splitlines(True)))
        with pytest.raises(ValueError, match=f"{b}: missing Z"):
            compare_snapshots(read_comparable(a), read_comparable(b))

    @pytest.mark.parametrize("cut", [-1, 1])
    def test_short_or_long_row(self, tmp_path, cut):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        _toy_snapshot(a)
        _toy_snapshot(b)
        lines = b.read_text().splitlines(True)
        fields = lines[9].rstrip("\n").split(",")
        fields = fields[:cut] if cut < 0 else fields + ["0.0"]
        lines[9] = ",".join(fields) + "\n"
        b.write_text("".join(lines))
        # line 10: seven comment lines, the header, then the second row
        with pytest.raises(ValueError, match=f"{b}:10: {len(fields)} fields"):
            compare_snapshots(read_comparable(a), read_comparable(b))

    def test_non_numeric_field(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        _toy_snapshot(a)
        _toy_snapshot(b)
        lines = b.read_text().splitlines(True)
        lines[9] = "abc" + lines[9][lines[9].index(","):]
        b.write_text("".join(lines))
        with pytest.raises(ValueError, match=f"{b}:10: .*'abc'"):
            compare_snapshots(read_comparable(a), read_comparable(b))


def _flag_argv(key, text):
    """A setting as command-line words; a switch takes no value."""
    flag = "--" + key.replace("_", "-")
    return [flag] if key == "diagnostics" else [flag, text]


def _settings(tmp_path, flags, lines):
    """The parsed settings of flags plus a config file of (key, value)
    lines, as a dict."""
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("".join(f"{key} = {value}\n" for key, value in lines))
    return vars(parse_config(flags + ["--config", str(cfgfile)]))


# per file-settable key: a value as text, what it parses to, and a second
# value for a file line that the flag must beat
_SETTINGS = {
    "scenario": ("ex2", "ex2", "lake-at-rest"),
    "cells": ("100", 100, "200"),
    "t_final": ("0.05", 0.05, "0.1"),
    "snapshots": ("0.1, 0.2", (0.1, 0.2), "0.3"),
    "out": ("run1", "run1", "run2"),
    "cfl": ("0.4", 0.4, "0.3"),
    "sigma": ("1.5", 1.5, "1.2"),
    "diagnostics": ("yes", True, "no"),
}


class TestParseConfig:
    def test_flags(self):
        cfg = parse_config(["--scenario", "ex1-perturbed", "--cells", "100",
                            "--t-final", "0.4",
                            "--snapshots", "0.1,0.2,0.4"])
        assert cfg.scenario == "ex1-perturbed"
        assert cfg.cells == 100
        assert cfg.t_final == 0.4
        assert cfg.snapshots == (0.1, 0.2, 0.4)

    def test_defaults_kept_without_flags(self):
        cfg = parse_config(["--scenario", "ex2", "--cells", "400"])
        assert cfg.cells == 400
        assert cfg.t_final is None and cfg.snapshots is None

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            parse_config(["--scenario", "nosuch"])

    def test_missing_scenario(self):
        with pytest.raises(ConfigError):
            parse_config([])

    def test_config_file_and_flag_precedence(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            "# comment\nscenario = ex2\ncells = 100\nt_final = 0.05\n")
        cfg = parse_config(["--config", str(cfgfile), "--cells", "200"])
        assert cfg.scenario == "ex2"
        assert cfg.cells == 200       # flag wins
        assert cfg.t_final == 0.05    # file value survives

    def test_unknown_config_key_rejected(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("scenario = ex2\nbogus = 1\n")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(["--config", str(cfgfile)])

    def test_malformed_number(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("scenario = ex2\nt_final = abc\n")
        with pytest.raises(ConfigError, match="malformed"):
            parse_config(["--config", str(cfgfile)])

    @pytest.mark.parametrize("key", cli._CONFIG_KEYS)
    def test_flag_and_file_line_give_one_setting(self, tmp_path, key):
        text, parsed, other = _SETTINGS[key]
        flag = _flag_argv(key, text)
        lines = [] if key == "scenario" else [("scenario", "ex2")]
        by_flag = _settings(tmp_path, flag, lines)
        assert by_flag[key] == parsed
        assert _settings(tmp_path, [], lines + [(key, text)]) == by_flag
        # a flag beats a file line
        assert _settings(tmp_path, flag, lines + [(key, other)]) == by_flag

    @pytest.mark.parametrize("word,on", [
        ("yes", True), ("no", False), ("On", True), ("0", False)])
    def test_diagnostics_file_words(self, tmp_path, word, on):
        lines = [("scenario", "ex2"), ("diagnostics", word)]
        assert _settings(tmp_path, [], lines)["diagnostics"] is on
        assert _settings(tmp_path, ["--diagnostics"],
                         lines)["diagnostics"] is True

    @pytest.mark.parametrize("key,value", [
        ("cells", ""), ("t_final", "abc"), ("snapshots", "0.1,a"),
        ("diagnostics", "maybe")])
    @pytest.mark.parametrize("flagged", [False, True])
    def test_malformed_file_value_names_its_line(self, tmp_path, key, value,
                                                 flagged):
        # the whole file is checked, also a line that a flag overrides
        flags = _flag_argv(key, _SETTINGS[key][0]) if flagged else []
        with pytest.raises(ConfigError, match=re.escape(
                f"{tmp_path / 'run.cfg'}:2: malformed {key}: {value!r}")):
            _settings(tmp_path, flags, [("scenario", "ex2"), (key, value)])


class TestCliMain:
    def test_run_writes_snapshots(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["--scenario", "ex1-steady", "--cells", "50",
                     "--t-final", "0.05", "--snapshots", "0.05",
                     "--out", str(out)])
        assert code == 0
        files = sorted(os.listdir(out))
        assert files == [snapshot_filename("ex1-steady", 50, 0.05)]

    def test_diagnostics_file(self, tmp_path):
        out = tmp_path / "out"
        code = main(["--scenario", "ex2", "--cells", "50",
                     "--t-final", "0.02", "--snapshots", "0.02",
                     "--out", str(out), "--diagnostics"])
        assert code == 0
        diag = out / "ex2_diagnostics.csv"
        assert diag.exists()
        header = diag.read_text().splitlines()[0]
        assert header == ("t,mass,hb_total,mass_drift,hb_drift,energy,"
                          "max_abs_v,max_grad_v,tv_w")

    def test_unknown_scenario_exit_code(self, capsys):
        assert main(["--scenario", "nosuch"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_compare_mode(self, tmp_path, capsys):
        out = tmp_path / "out"
        ref = tmp_path / "ref.csv"
        s = make_scenario("ex2", cells=50, t_final=0.02)
        res = run_simulation(s)
        write_snapshot(ref, res.state, s, res.t)
        code = main(["--scenario", "ex2", "--cells", "50",
                     "--t-final", "0.02", "--snapshots", "0.02",
                     "--out", str(out), "--compare-with", str(ref)])
        assert code == 0
        text = capsys.readouterr().out
        assert "L1" in text and "0.00000e+00" in text

    def test_compare_table_equals_table_of_written_file(self, tmp_path,
                                                        capsys):
        # the table compares the run's final state in memory, which must
        # give the bytes of the table compared from its written file
        ref_dir, out = tmp_path / "ref", tmp_path / "out"
        common = ["--scenario", "ex1-perturbed", "--t-final", "0.1",
                  "--snapshots", "0.05,0.1"]
        assert main(common + ["--cells", "128", "--out", str(ref_dir)]) == 0
        ref = ref_dir / snapshot_filename("ex1-perturbed", 128, 0.1)
        assert main(common + ["--cells", "64", "--out", str(ref_dir)]) == 0
        capsys.readouterr()
        assert main(common + ["--cells", "64", "--out", str(out),
                              "--compare-with", str(ref)]) == 0
        printed = capsys.readouterr().out.splitlines()
        final = out / snapshot_filename("ex1-perturbed", 64, 0.1)
        assert printed[:2] == [
            str(out / snapshot_filename("ex1-perturbed", 64, 0.05)),
            str(final)]
        table = compare_snapshots(read_comparable(final),
                                  read_comparable(ref))
        want = [f"{'field':>6} {'L1':>13} {'Linf':>13}"]
        want += [f"{name:>6} {l1:13.5e} {linf:13.5e}"
                 for name, (l1, linf) in table.items()]
        assert printed[2:] == want
        assert any(l1 > 0.0 for l1, _ in table.values())
        # the file holds the final state that the run printed
        assert final.read_bytes() == (
            ref_dir / snapshot_filename("ex1-perturbed", 64, 0.1)).read_bytes()

    def test_malformed_reference_exit_code(self, tmp_path, capsys):
        ref = tmp_path / "header_only.csv"
        ref.write_text(",".join(SNAPSHOT_COLUMNS) + "\n")
        code = main(["--scenario", "ex2", "--cells", "20",
                     "--t-final", "0.001", "--out", str(tmp_path / "out"),
                     "--compare-with", str(ref)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(ref) in err

    @pytest.mark.parametrize("key", ["y_min", "y_max", "N"])
    def test_non_numeric_reference_meta_exit_code(self, tmp_path, capsys,
                                                  key):
        ref = tmp_path / "ref.csv"
        _toy_snapshot(ref, n=20)
        _spoil_meta(ref, key)
        code = main(["--scenario", "ex2", "--cells", "20",
                     "--t-final", "0.001", "--out", str(tmp_path / "out"),
                     "--compare-with", str(ref)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ref}: malformed {key}")

    @pytest.mark.parametrize("case,message", [
        ("header_only", "no data rows"),
        ("non_numeric_N", "malformed N"),
        ("not_nested", "grids with 20 and 6 cells are not nested"),
        ("other_domain", "snapshots cover different domains (y_min)")])
    def test_bad_reference_fails_before_the_run(self, tmp_path, capsys,
                                                monkeypatch, case, message):
        runs = []
        monkeypatch.setattr(cli, "run_simulation",
                            lambda *args, **kwargs: runs.append(args))
        ref = tmp_path / f"{case}.csv"
        if case == "header_only":
            ref.write_text(",".join(SNAPSHOT_COLUMNS) + "\n")
        else:  # ex2 runs on [-1, 1]
            _toy_snapshot(ref, n=6 if case == "not_nested" else 20,
                          y_min=-2.0 if case == "other_domain" else -1.0,
                          y_max=1.0)
            if case == "non_numeric_N":
                _spoil_meta(ref, "N")
        out = tmp_path / "out"
        code = main(["--scenario", "ex2", "--cells", "20",
                     "--t-final", "0.001", "--out", str(out),
                     "--compare-with", str(ref)])
        assert code == 1 and runs == [] and not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("key,value", [
        ("t_final", "inf"), ("t_final", "nan"), ("snapshots", "0.1,nan"),
        ("cfl", "inf")])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_non_finite_setting_fails_before_the_run(self, tmp_path, capsys,
                                                     monkeypatch, key, value,
                                                     source):
        # a spy instead of the solver: an infinite final time would never
        # return from a real run
        runs = []
        monkeypatch.setattr(cli, "run_simulation",
                            lambda *args, **kwargs: runs.append(args))
        out = tmp_path / "out"
        argv = ["--scenario", "ex2", "--cells", "40", "--out", str(out)]
        if source == "flag":
            argv += ["--" + key.replace("_", "-"), value]
        else:
            cfgfile = tmp_path / "run.cfg"
            cfgfile.write_text(f"{key} = {value}\n")
            argv += ["--config", str(cfgfile)]
        assert main(argv) == 2
        assert runs == [] and not out.exists()
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("t_final,snapshots,compare", [
        ("0.2", "0.1,0.1000001", False),
        ("0.1000001", "0.1", True)])
    def test_times_sharing_a_file_name_fail_before_the_run(
            self, tmp_path, capsys, monkeypatch, t_final, snapshots, compare):
        # two output times that print alike would write one file twice;
        # with --compare-with the final state counts as an output
        runs = []
        monkeypatch.setattr(cli, "run_simulation",
                            lambda *args, **kwargs: runs.append(args))
        out = tmp_path / "out"
        argv = ["--scenario", "ex2", "--cells", "40", "--t-final", t_final,
                "--snapshots", snapshots, "--out", str(out)]
        if compare:
            ref = tmp_path / "ref.csv"
            _toy_snapshot(ref, n=40, y_min=-1.0, y_max=1.0)
            argv += ["--compare-with", str(ref)]
        assert main(argv) == 2
        assert runs == [] and not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "0.1 and 0.1000001" in err
        assert snapshot_filename("ex2", 40, 0.1) in err

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_empty_out_means_out(self, tmp_path, monkeypatch, source):
        monkeypatch.chdir(tmp_path)
        argv = ["--scenario", "ex1-steady", "--cells", "20",
                "--t-final", "0.01", "--snapshots", "0.01"]
        if source == "flag":
            argv += ["--out", ""]
        else:
            (tmp_path / "run.cfg").write_text("out =\n")
            argv += ["--config", "run.cfg"]
        assert main(argv) == 0
        assert os.listdir(tmp_path / "out") == [
            snapshot_filename("ex1-steady", 20, 0.01)]

    def test_config_file_not_utf8_exit_code(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_bytes(b"scenario = ex2\ncells = \xff\n")
        assert main(["--config", str(cfgfile)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {cfgfile}: not UTF-8")

    @pytest.mark.parametrize("flag,value", [
        ("--cells", "abc"), ("--snapshots", "0.1,a"), ("--convergence", "a")])
    def test_malformed_flag_value_exit_code(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exit_:
            main(["--scenario", "ex2", flag, value])
        assert exit_.value.code == 2
        assert f"argument {flag}: invalid" in capsys.readouterr().err

    def test_deterministic_outputs(self, tmp_path):
        outs = []
        for name in ("o1", "o2"):
            out = tmp_path / name
            assert main(["--scenario", "ex2", "--cells", "50",
                         "--t-final", "0.02", "--snapshots", "0.02",
                         "--out", str(out)]) == 0
            outs.append((out / snapshot_filename("ex2", 50, 0.02)).read_bytes())
        assert outs[0] == outs[1]


class TestConvergenceMode:
    def test_non_nested_rejected(self):
        cfg = parse_config(["--scenario", "ex2", "--convergence", "100,150"])
        with pytest.raises(ConfigError, match="integer factors"):
            convergence_mode(cfg)

    def test_needs_two_levels(self):
        cfg = parse_config(["--scenario", "ex2", "--convergence", "100"])
        with pytest.raises(ConfigError):
            convergence_mode(cfg)

    def test_steady_state_momentum_errors_at_roundoff(self):
        # the equilibrium is an exact fixed point on every grid; the
        # momenta stay at round-off across resolutions (h differs between
        # grids only through the grid-dependent cell-center bottom)
        cfg = parse_config(["--scenario", "ex1-steady", "--t-final", "0.05",
                            "--convergence", "50,100"])
        rows = convergence_mode(cfg)
        assert rows[0]["l1"]["p"] <= 1e-9
        assert rows[0]["l1"]["q"] <= 1e-9
        # h differs only through the resampled bottom humps (2-3 cells
        # wide at N=50), not through any evolution
        assert rows[0]["l1"]["h"] <= 0.2

    def test_l1_of_the_final_states_bit_for_bit(self, monkeypatch):
        # each row's L1 of h, q, p and hb is compare_fields of the two
        # runs' final conserved fields over the coarse dy, to the bit
        finals = []

        def spy(scenario, **kwargs):
            result = run_simulation(scenario, **kwargs)
            finals.append((scenario.grid, result.state))
            return result

        monkeypatch.setattr(cli, "run_simulation", spy)
        rows = convergence_mode(parse_config([
            "--scenario", "ex2", "--t-final", "0.05",
            "--convergence", "50,100,200"]))
        assert [grid.n for grid, _ in finals] == [50, 100, 200]
        assert len(rows) == 2
        for row, (grid_c, state_c), (grid_f, state_f) in zip(
                rows, finals, finals[1:]):
            assert (row["n_coarse"], row["n_fine"]) == (grid_c.n, grid_f.n)
            want = [compare_fields(state_c.array[i], state_f.array[i],
                                   grid_c.dy)[0] for i in range(4)]
            assert [row["l1"][name].hex() for name in ("h", "q", "p", "hb")] \
                == [l1.hex() for l1 in want]
            assert want[0] > 0.0

    def test_cli_prints_table(self, capsys):
        code = main(["--scenario", "ex2", "--t-final", "0.02",
                     "--convergence", "40,80,160"])
        assert code == 0
        text = capsys.readouterr().out
        assert "L1(h)" in text and "order" in text

    def test_cell_counts_below_one_refused(self, capsys, monkeypatch):
        runs = []
        monkeypatch.setattr(cli, "run_simulation",
                            lambda *args, **kwargs: runs.append(args))
        assert main(["--scenario", "ex2", "--convergence", "0,100"]) == 2
        assert runs == []
        assert "at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("snapshots", "0.01"), ("out", "d"), ("diagnostics", "true")])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_output_settings_refused(self, tmp_path, capsys, monkeypatch,
                                     key, value, source):
        # a convergence table writes no snapshot, diagnostics or directory
        runs = []
        monkeypatch.setattr(cli, "run_simulation",
                            lambda *args, **kwargs: runs.append(args))
        monkeypatch.chdir(tmp_path)
        argv = ["--scenario", "ex2", "--t-final", "0.02",
                "--convergence", "40,80"]
        if source == "config":
            (tmp_path / "run.cfg").write_text(f"{key} = {value}\n")
            argv += ["--config", "run.cfg"]
        elif key == "diagnostics":
            argv += ["--diagnostics"]
        else:
            argv += ["--" + key, value]
        assert main(argv) == 2
        assert runs == [] and os.listdir(tmp_path) == (
            ["run.cfg"] if source == "config" else [])
        err = capsys.readouterr().err
        assert err.startswith("error: --convergence writes no files")
        assert f"--{key} not allowed" in err

    def test_compare_with_refused(self, tmp_path, capsys, monkeypatch):
        # a convergence table has no final state to compare
        runs = []
        monkeypatch.setattr(cli, "run_simulation",
                            lambda *args, **kwargs: runs.append(args))
        with pytest.raises(SystemExit) as exit_:
            main(["--scenario", "ex2", "--convergence", "40,80",
                  "--compare-with", str(tmp_path / "missing.csv")])
        assert exit_.value.code == 2 and runs == []
        assert "not allowed with" in capsys.readouterr().err
