"""Unit tests for the command-line surface: config parsing, modes, CSV output."""

import csv
import math

import pytest

from roughdelta import cli
from roughdelta.bel import WeightFn, estimate_delta, make_payoff
from roughdelta.fbm import GridSpec
from roughdelta.fd import fd_delta, sde_payoff_runner
from roughdelta.frac_core import HurstParam
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

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("volatility=3\n")
        with pytest.raises(ValueError, match=":1:"):
            parse_config_file(str(p))


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
        sample = cli.sample_joint_batch
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return sample(*args, **kwargs)

        monkeypatch.setattr(cli, "sample_joint_batch", counting)
        monkeypatch.setattr(cli, "DEFAULT_BATCH", batch)
        out = tmp_path / "r.csv"
        cfg = RunConfig(
            mode="delta-sde", steps=32, paths=1000, seed=4, drift="regime:1,-1,0",
            payoff="digital", strike=0.2, x0=0.1, out=str(out),
        )
        assert run(cfg) == 0
        assert len(calls) == math.ceil(1000 / batch)
        byq = {r["quantity"]: r for r in _read_rows(out)}

        h = HurstParam(0.1)
        grid = GridSpec(1.0, 32)
        drift = mollify(parse_drift("regime:1,-1,0"), cfg.epsilon)
        payoff = make_payoff("digital", 0.2)
        est = estimate_delta(
            drift, 0.1, payoff, h, WeightFn(1.0), grid, 1000, 4, batch_size=batch
        )
        runner = sde_payoff_runner(drift, payoff, h, grid)
        fde = fd_delta(runner, 0.1, 0.1, 1000, 4, batch_size=batch)
        assert float(byq["delta_bel"]["estimate"]) == est.mean[0]
        assert float(byq["delta_bel"]["stderr"]) == est.stderr[0]
        assert float(byq["delta_fd"]["estimate"]) == fde.value[0]
        assert float(byq["delta_fd"]["stderr"]) == fde.stderr[0]
        assert fde.stderr[0] > 0.0

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
