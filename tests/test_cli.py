"""Unit tests for the command-line surface: config parsing, modes, CSV output."""

import csv
import math
import os
import re
import string
import tempfile
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughdelta import bel as bel_module, cli
from roughdelta.bel import _bel_block, _weighted, estimate_delta, make_payoff
from roughdelta.fbm import GridSpec, sample_joint_batch
from roughdelta.fd import _central_diffs, fd_delta, sde_payoff_runner
from roughdelta.frac_core import HurstParam
from roughdelta.girsanov import girsanov_xi_batch
from roughdelta.sde import mollify
from roughdelta.cli import (
    RunConfig,
    main,
    parse_config_file,
    parse_drift,
    run,
)
from roughdelta.sde import LinearDrift, RegimeSwitchDrift, ZeroDrift


class TestConfigFile:
    def test_parse_and_comments(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("# comment\nmode=validate\npaths=500  # inline\n\nhurst=0.2\n")
        got = parse_config_file(str(p))
        assert got == {"mode": "validate", "paths": "500", "hurst": "0.2"}

    def test_error_reports_line_number(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("mode=validate\nnot a pair\n")
        with pytest.raises(ValueError, match=":2:"):
            parse_config_file(str(p))

    def test_hash_inside_a_value(self, tmp_path):
        # '#' starts a comment only at line start or after whitespace
        p = tmp_path / "run.cfg"
        p.write_text("out=/tmp/hash#dir/r.csv\ndrift=zero\t# tab comment\n")
        assert parse_config_file(str(p)) == {"out": "/tmp/hash#dir/r.csv", "drift": "zero"}

    def test_hash_path_round_trips(self, tmp_path):
        (tmp_path / "hash#dir").mkdir()
        cfg = RunConfig(out=str(tmp_path / "hash#dir" / "r.csv"))
        cli._write_resolved(cfg)
        parsed = parse_config_file(cfg.out + ".config")
        assert RunConfig(**{k: cli._coerce(k, v) for k, v in parsed.items()}) == cfg

    @pytest.mark.parametrize("form", ["{}/r.csv #x", " {}/r.csv", "{}/r.csv\t", "{}/a\rb.csv"])
    def test_unwritable_value_raises(self, tmp_path, form):
        cfg = RunConfig(out=form.format(tmp_path))
        with pytest.raises(ValueError, match="cannot round trip"):
            cli._write_resolved(cfg)

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("volatility=3\n")
        with pytest.raises(ValueError, match=":1:"):
            parse_config_file(str(p))


def _text(alphabet):
    # values are stripped on parsing, so surrounding blanks cannot round trip
    return st.text(st.sampled_from(alphabet), max_size=16).map(str.strip)


_VALUE = {
    "int": st.integers(-(2**70), 2**70),
    "float": st.floats(allow_nan=False),
    "str": _text(string.ascii_letters + string.digits + ":,.-_/=+ #"),
}


@settings(max_examples=60, deadline=None)
@given(
    values=st.fixed_dictionaries(
        {f.name: _VALUE[cli._FIELD_TYPES[f.name]] for f in fields(RunConfig) if f.name != "out"}
    ),
    name=_text(string.ascii_letters + string.digits + "-_. #").filter(bool),
)
def test_resolved_config_round_trips_any_config(values, name):
    # _write_resolved -> parse_config_file -> _coerce gives back the same
    # RunConfig; a '#' after whitespace would start a comment, so such a value
    # is refused before anything is written
    with tempfile.TemporaryDirectory() as d:
        cfg = RunConfig(**values, out=os.path.join(d, name))
        if any(re.search(r"\s#", str(getattr(cfg, f.name))) for f in fields(RunConfig)):
            with pytest.raises(ValueError, match="cannot round trip"):
                cli._write_resolved(cfg)
            assert not os.path.exists(cfg.out + ".config")
            return
        cli._write_resolved(cfg)
        parsed = parse_config_file(cfg.out + ".config")
    assert set(parsed) == {f.name for f in fields(RunConfig)}
    assert RunConfig(**{k: cli._coerce(k, v) for k, v in parsed.items()}) == cfg


class TestDriftGrammar:
    def test_forms(self):
        assert isinstance(parse_drift("zero"), ZeroDrift)
        d = parse_drift("linear:0.5")
        assert isinstance(d, LinearDrift) and d.lam == 0.5
        d = parse_drift("regime:1,-1,0.2")
        assert isinstance(d, RegimeSwitchDrift) and d.threshold == 0.2

    def test_errors(self):
        with pytest.raises(ValueError):
            parse_drift("brownian")
        with pytest.raises(ValueError):
            parse_drift("linear:1,2")


class TestRunConfig:
    def test_mode_validation(self):
        cfg = RunConfig(mode="delta-everything")
        with pytest.raises(ValueError):
            cfg.validate()


def _read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def _count_draws(monkeypatch):
    """List that records each joint draw, by bel (a delta batch) or by cli (a validate slice)."""
    sample = bel_module.sample_joint_batch
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return sample(*args, **kwargs)

    for module in (bel_module, cli):
        monkeypatch.setattr(module, "sample_joint_batch", counting)
    return calls


def _on_grid(calls, n_steps):
    """The recorded draws on a grid of n_steps steps."""
    return [args for args in calls if args[0].n_steps == n_steps]


def _assert_each_path_drawn_once(calls, n_paths, batch):
    """The recorded draws tile paths 0 .. n_paths-1: no gap, no overlap, none over batch."""
    spans = sorted((args[4], args[5]) for args in calls)  # (start_index, count)
    assert all(0 < count <= batch for _, count in spans)
    ends = [start + count for start, count in spans]
    assert [start for start, _ in spans] == [0, *ends[:-1]]
    assert ends[-1] == n_paths


class TestModes:
    def test_delta_sde_identity(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        cfg = RunConfig(
            mode="delta-sde", steps=64, paths=4000, seed=3, out=str(out)
        )
        assert run(cfg) == 0
        rows = _read_rows(out)
        byq = {r["quantity"]: r for r in rows}
        est = float(byq["delta_bel"]["estimate"])
        se = float(byq["delta_bel"]["stderr"])
        assert abs(est - 1.0) <= 3 * se
        assert byq["bel_fd_gap"]["pass"] == "True"
        assert (tmp_path / "r.csv.config").exists()

    @pytest.mark.parametrize("batch", [300, 1000])
    def test_delta_sde_one_pass_matches_separate_runs(self, tmp_path, monkeypatch, batch):
        calls = _count_draws(monkeypatch)
        monkeypatch.setattr(bel_module, "DEFAULT_BATCH", batch)
        out = tmp_path / "r.csv"
        cfg = RunConfig(
            mode="delta-sde", steps=32, paths=1000, seed=4, drift="regime:1,-1,0",
            payoff="digital", strike=0.2, x0=0.1, out=str(out),
        )
        assert run(cfg) == 0
        _assert_each_path_drawn_once(calls, 1000, batch)
        byq = {r["quantity"]: r for r in _read_rows(out)}

        h = HurstParam(0.1)
        grid = GridSpec(1.0, 32)
        drift = mollify(parse_drift("regime:1,-1,0"), cfg.epsilon)
        payoff = make_payoff("digital", 0.2)
        est = estimate_delta(drift, 0.1, payoff, h, grid, 1000, 4)
        runner = sde_payoff_runner(drift, payoff, h, grid)
        fde = fd_delta(runner, 0.1, 0.1, 1000, 4)
        assert float(byq["delta_bel"]["estimate"]) == est.mean[0]
        assert float(byq["delta_bel"]["stderr"]) == est.stderr[0]
        assert float(byq["delta_fd"]["estimate"]) == fde.value[0]
        assert float(byq["delta_fd"]["stderr"]) == fde.stderr[0]
        assert fde.stderr[0] > 0.0

    @pytest.mark.parametrize("payoff", ["digital", "call"])
    def test_gap_row_uses_paired_stderr(self, tmp_path, payoff):
        # BEL and FD share every path, so the gap's stderr is that of the
        # per-path differences, not hypot of the two stderrs
        out = tmp_path / "r.csv"
        cfg = RunConfig(
            mode="delta-sde", steps=32, paths=2000, seed=4, drift="regime:1,-1,0",
            payoff=payoff, strike=0.2, x0=0.1, out=str(out),
        )
        assert run(cfg) == 0
        byq = {r["quantity"]: r for r in _read_rows(out)}
        h = HurstParam(0.1)
        grid = GridSpec(1.0, 32)
        drift = mollify(parse_drift("regime:1,-1,0"), cfg.epsilon)
        pay = make_payoff(payoff, 0.2)
        x0 = np.array([0.1])
        pi, ends = _bel_block(drift, x0[None], h, grid, 4, 0, 2000)
        bel = _weighted(pay, ends[0], pi)[:, 0]
        runner = sde_payoff_runner(drift, pay, h, grid)
        fd = _central_diffs(lambda x: runner(x, 4, 0, 2000), x0, 0.1)[:, 0]
        diff = bel - fd
        se = np.std(diff, ddof=1) / math.sqrt(len(diff))
        gap = byq["bel_fd_gap"]
        assert float(gap["estimate"]) == pytest.approx(abs(diff.mean()), rel=1e-12)
        assert float(gap["stderr"]) == pytest.approx(se, rel=1e-12)
        assert float(gap["tolerance"]) == 3 * float(gap["stderr"])
        hyp = math.hypot(float(byq["delta_bel"]["stderr"]), float(byq["delta_fd"]["stderr"]))
        assert abs(se / hyp - 1.0) > 0.01

    def test_validate_every_row_passes(self, tmp_path, capsys):
        out = tmp_path / "v.csv"
        assert run(RunConfig(mode="validate", seed=1, out=str(out))) == 0
        rows = _read_rows(out)
        assert len(rows) == 9
        assert all(r["pass"] == "True" for r in rows), rows
        assert "FAIL" not in capsys.readouterr().out

    def test_validate_gaussian_rows_share_one_pass(self, tmp_path, monkeypatch):
        # both gaussian_delta rows and girsanov_mean come from one draw of
        # each N = 128 path, the gaussian_delta rows from one solve and
        # weight per batch, and each keeps the bits of its own estimate_delta
        # call; volterra_var draws each N = 256 path once
        calls = _count_draws(monkeypatch)
        out = tmp_path / "v.csv"
        run(RunConfig(mode="validate", seed=7, out=str(out)))
        _assert_each_path_drawn_once(_on_grid(calls, 128), 20000, bel_module.DEFAULT_BATCH)
        _assert_each_path_drawn_once(_on_grid(calls, 256), 8000, bel_module.DEFAULT_BATCH)
        assert len(calls) == len(_on_grid(calls, 128)) + len(_on_grid(calls, 256))
        rows = {r["component"]: r for r in _read_rows(out) if r["quantity"] == "gaussian_delta"}

        h = HurstParam(0.1)
        grid = GridSpec(1.0, 128)
        zero = mollify(ZeroDrift(), cli.default_epsilon(grid, h))
        for name, x0, payoff in (
            ("identity", 0.0, make_payoff("identity")),
            ("digital", 0.1, make_payoff("digital", 0.3)),
        ):
            est = estimate_delta(zero, x0, payoff, h, grid, 20000, 7)
            assert float(rows[name]["estimate"]) == est.mean[0]
            assert float(rows[name]["stderr"]) == est.stderr[0]
            assert rows[name]["n_paths"] == "20000"

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("batch", [None, 300], ids=["default", "300"])
    def test_validate_sampled_rows_match_serial_oracles(self, monkeypatch, workers, batch):
        # volterra_var and girsanov_mean keep the bits of the serial
        # computations the slices replaced, at either worker count and with
        # a slice of the N = 128 pass straddling path 8000, where xi stops
        monkeypatch.setattr(bel_module, "_WORKERS", workers)
        if batch is not None:
            monkeypatch.setattr(bel_module, "DEFAULT_BATCH", batch)
        calls = _count_draws(monkeypatch)
        rows = {r[0]: r for r in cli._validate_rows(RunConfig(mode="validate", seed=7))}
        assert any(a[4] < 8000 < a[4] + a[5] for a in _on_grid(calls, 128))

        h = HurstParam(0.1)
        grid, ends, step = GridSpec(1.0, 256), np.empty(8000), bel_module.DEFAULT_BATCH
        for s in range(0, 8000, step):
            count = min(step, 8000 - s)
            ends[s : s + count] = sample_joint_batch(grid, h, 1, 7, s, count)[1][:, -1, 0]
        assert rows["volterra_var"][2] == repr(float(np.var(ends, ddof=1)))

        grid = GridSpec(1.0, 128)
        dW, bh = sample_joint_batch(grid, h, 1, 7, 0, 8000)
        drift = RegimeSwitchDrift(0.5, -0.5)
        xi = np.exp(girsanov_xi_batch(h, drift, bh[:, :, 0], dW[:, :, 0], grid, 0.0))
        se = float(np.std(xi, ddof=1) / math.sqrt(len(xi)))
        assert rows["girsanov_mean"][2:4] == (repr(float(np.mean(xi))), repr(se))

    def test_resolved_config_round_trips(self, tmp_path):
        out = tmp_path / "r.csv"
        cfg = RunConfig(mode="delta-sde", steps=32, paths=500, seed=9, out=str(out))
        assert run(cfg) == 0
        first = out.read_bytes()
        resolved = str(out) + ".config"
        # re-running from the emitted config reproduces the CSV bit-identically
        assert main(["--config", resolved]) == 0
        assert out.read_bytes() == first

    def test_advisory_emitted(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        cfg = RunConfig(
            mode="delta-sde", hurst=0.3, steps=32, paths=200, seed=1, out=str(out)
        )
        assert run(cfg) == 0
        assert "outside proven validity" in capsys.readouterr().out

    def test_soft_note_emitted(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        cfg = RunConfig(
            mode="delta-sde", hurst=0.14, steps=32, paths=200, seed=1, out=str(out)
        )
        assert run(cfg) == 0
        text = capsys.readouterr().out
        assert "note:" in text and "outside proven validity" not in text

    def test_paths_mode(self, tmp_path):
        out = tmp_path / "p.csv"
        cfg = RunConfig(mode="paths", steps=4, paths=2, out=str(out))
        assert run(cfg) == 0
        rows = _read_rows(out)
        assert len(rows) == 2 * 5
        assert rows[0]["bh"] == "0.0"

    def test_delta_rv_mode(self, tmp_path):
        out = tmp_path / "rv.csv"
        cfg = RunConfig(
            mode="delta-rv",
            drift="regime:1,-1,0",
            steps=32,
            paths=500,
            seed=2,
            g_gamma=0.3,
            out=str(out),
        )
        assert run(cfg) == 0
        rows = _read_rows(out)
        assert {r["component"] for r in rows} == {"x1", "x2"}

    def test_main_error_exit_code(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path / "missing.cfg")]) == 2

    def test_numerical_fault_exit_code(self, tmp_path, capsys):
        # a steep mollified drift on a coarse grid flips the flow factor of
        # path 0 at step 0: one stderr line with the replay address, status
        # 3 (config errors keep 2), and no CSV
        out = tmp_path / "r.csv"
        argv = [
            "--mode", "delta-sde", "--drift", "regime:-1,1,0", "--epsilon", "1e-3",
            "--steps", "16", "--paths", "64", "--out", str(out),
        ]
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            "error: flow factor non-positive in batch row 0 at step 0 in component 0;"
            " decrease dt or epsilon (master_seed 0, batch row 0 is path 0)\n"
        )
        assert not out.exists()
