"""Unit tests for the rough stochastic volatility model and its delta weights."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughdelta import bel
from roughdelta.bel import _dual_batch
from roughdelta.fd import rv_payoff_runner
from roughdelta.fbm import GridSpec, sample_joint_batch, wiener_increment_batch
from roughdelta.frac_core import HurstParam
from roughdelta.rough_vol import (
    STREAM_FRACTIONAL,
    STREAM_STOCK,
    RVConfig,
    VolMap,
    _sbel_block,
    _simulate_batch,
    sbel_delta,
)
from roughdelta.sde import _STEP_BLOCK, RegimeSwitchDrift, ZeroDrift, mollify, solve_batch
from test_bel import _Cliff, _traced_peak
from test_sde import stream_path

H01 = HurstParam(0.1)


def _cfg(gamma=0.0, alpha=0.2, mu=0.05, x1=1.0, x2=0.0):
    drift = mollify(RegimeSwitchDrift(1.0, -1.0), 0.05)
    return RVConfig(mu=mu, g=VolMap(alpha, gamma), vol_drift=drift, x1=x1, x2=x2, h=H01)


class TestVolMap:
    def test_validation(self):
        with pytest.raises(ValueError):
            VolMap(0.0, 0.1)
        with pytest.raises(ValueError):
            VolMap(0.2, -0.1)

    def test_bounds(self):
        g = VolMap(0.2, 0.3)
        z = np.array([-50.0, 0.0, 50.0])
        v = g.value_and_deriv(z)[0]
        assert np.all(v > 0.2 - 1e-15)
        assert np.all(v < 0.5 + 1e-15)
        assert g.value_and_deriv(np.array([0.0]))[0][0] == pytest.approx(0.35)

    def test_derivative_matches_fd(self):
        g = VolMap(0.2, 0.3)
        z = np.linspace(-3, 3, 13)
        d = 1e-6
        fd = (g.value_and_deriv(z + d)[0] - g.value_and_deriv(z - d)[0]) / (2 * d)
        np.testing.assert_allclose(g.value_and_deriv(z)[1], fd, atol=1e-9)

    def test_constant_when_gamma_zero(self):
        g = VolMap(0.2, 0.0)
        z = np.linspace(-5, 5, 7)
        value, deriv = g.value_and_deriv(z)
        np.testing.assert_array_equal(value, 0.2)
        np.testing.assert_array_equal(deriv, 0.0)


class TestRVConfig:
    def test_positive_price(self):
        with pytest.raises(ValueError):
            _cfg(x1=0.0)


def _inputs(cfg, grid, seed, start, count, weights=False):
    """(sigma, dsig, dW', w2b) of paths start .., drawn and solved as _simulate_batch does."""
    dW, bh = sample_joint_batch(grid, cfg.h, 1, seed, start, count, stream=STREAM_FRACTIONAL)
    dual = _dual_batch(cfg.h, dW, grid) if weights else None
    w2b = solve_batch(cfg.vol_drift, [[cfg.x2]], bh, grid, dual=dual)[1]
    sigma, dsig = stream_path(cfg.vol_drift, [[cfg.x2]], bh, grid)
    dWp = wiener_increment_batch(grid, seed, start, count, stream=STREAM_STOCK)
    return sigma[:, :, 0], dsig[:, :, 0], dWp, w2b


def _stock_reference(cfg, sigma, dsig, dWp, grid, weights=False):
    """Independent oracle: the path-major stock loop over columns, with a masked sigmoid.

    Returns the stock path s, its x2-variation k2 by the per-step recursion
    k2[k+1] = k2[k] step_k + S_{k+1} g'(sigma_k) J_k (dW'_k - g(sigma_k) dt),
    that recursion's drive divided by S_{k+1}, and the terms of the weights
    w1 and w2a as sums of a (S g(sigma))^{-1} dS dW' over the path, with
    a = 1/T (None without weights).
    """

    def g(z):
        sig = np.empty_like(z)
        pos = z >= 0
        sig[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        sig[~pos] = ez / (1.0 + ez)
        return cfg.g.alpha + cfg.g.gamma * sig, cfg.g.gamma * sig * (1.0 - sig)

    n, dt = grid.n_steps, grid.dt
    s = np.empty_like(sigma)
    k2 = np.zeros_like(sigma)
    drive = np.empty((len(s), n))
    gsig = np.empty((len(s), n))
    s[:, 0] = cfg.x1
    for k in range(n):
        gs, gp = g(sigma[:, k])
        step = np.exp((cfg.mu - 0.5 * gs**2) * dt + gs * dWp[:, k])
        s[:, k + 1] = s[:, k] * step
        k2[:, k + 1] = k2[:, k] * step + s[:, k + 1] * gp * dsig[:, k] * (dWp[:, k] - gs * dt)
        drive[:, k] = gp * dsig[:, k] * (dWp[:, k] - gs * dt)
        gsig[:, k] = gs
    if not weights:
        return s, k2, drive, None, None
    ginv = 1.0 / (s[:, :n] * gsig * grid.horizon)
    return s, k2, drive, ginv * (s[:, :n] / cfg.x1) * dWp, ginv * k2[:, :n] * dWp


def _assert_close_to_terms(got, terms, tol=1e-13):
    """got equals each row's sum of terms within tol of that row's largest term."""
    scale = np.max(np.abs(terms), axis=1)
    assert np.all(np.abs(got - np.sum(terms, axis=1)) <= tol * scale)


def _dx2_terminal(cfg, grid, seed, start, count):
    """Oracle dS_T/dx2 of paths start ..: the reference's per-step k2 recursion at T."""
    return _stock_reference(cfg, *_inputs(cfg, grid, seed, start, count)[:3], grid)[1][:, -1]


def _check_against_reference(cfg, grid, seed, count):
    """_simulate_batch's terminal values against the path-major oracle.

    S_T and sigma_T bitwise; w1 and w2a + w2b within 1e-13 of each row's
    largest term, and w2a exactly 0 at gamma = 0.  The reference's k2_T is
    S_T Q_T, Q_T the running sum of its drive, which is what lets w2a
    cancel S.
    """
    s_T, sigma_T, w = _simulate_batch(cfg, grid, seed, 0, count, True)
    sigma, dsig, dWp, w2b = _inputs(cfg, grid, seed, 0, count, True)
    s, k2, drive, t1, t2 = _stock_reference(cfg, sigma, dsig, dWp, grid, True)
    assert s_T.tobytes() == s[:, -1].tobytes()
    assert sigma_T.tobytes() == sigma[:, -1].tobytes()
    # k2_T = sum_k S_T drive_k, whose running sum is what the recursion steps
    s_q = s[:, -1] * np.sum(drive, axis=1)
    assert np.all(np.abs(s_q - k2[:, -1]) <= 1e-13 * np.max(np.abs(s[:, -1:] * drive), axis=1))
    _assert_close_to_terms(w[:, 0], t1)
    _assert_close_to_terms(w[:, 1], np.concatenate([t2, w2b], axis=1))
    if cfg.g.gamma == 0:
        assert np.all(k2[:, -1] == 0.0)
        assert w[:, 1].tobytes() == w2b[:, 0].tobytes()  # w2a is exactly 0


class TestSimulate:
    @pytest.mark.parametrize("n", [2, _STEP_BLOCK, _STEP_BLOCK + 1, 100])
    def test_stock_loop_matches_path_major_reference(self, n):
        # the blocked loop with S cancelled moves only the roundings of k2_T and w
        _check_against_reference(_cfg(gamma=0.3, x2=0.1), GridSpec(1.0, n), 3, 7)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.sampled_from([_STEP_BLOCK - 1, _STEP_BLOCK + 1]) | st.integers(2, 100),
        gamma=st.just(0.0) | st.floats(1e-100, 1.0),  # g' stays a normal float
        x1=st.floats(0.01, 100.0),
        x2=st.floats(-1.0, 1.0),
        mu=st.floats(-1.0, 1.0),
        horizon=st.sampled_from([1.0, 2.0]) | st.floats(0.1, 4.0),
        seed=st.integers(0, 2**32),
    )
    def test_terminal_values_match_reference(self, n, gamma, x1, x2, mu, horizon, seed):
        cfg = _cfg(gamma=gamma, mu=mu, x1=x1, x2=x2)
        _check_against_reference(cfg, GridSpec(horizon, n), seed, 5)

    def test_stock_positive(self):
        s_T, *_ = _simulate_batch(_cfg(gamma=0.3), GridSpec(1.0, 64), 5, 0, 64)
        assert np.all(s_T > 0)

    def test_dx1_is_relative_price(self):
        # the stock is linear in x1, so dS/dx1 = S / x1 (the w1 weight's factor)
        grid = GridSpec(1.0, 64)
        bump = 1e-5
        s_T, up, dn = (
            _simulate_batch(_cfg(gamma=0.3, x1=x1), grid, 5, 0, 16)[0]
            for x1 in (2.0, 2.0 + bump, 2.0 - bump)
        )
        np.testing.assert_allclose((up - dn) / (2 * bump), s_T / 2.0, rtol=1e-8)

    def test_dx2_zero_when_gamma_zero(self):
        # constant volatility: the stock does not depend on the vol factor's start
        grid = GridSpec(1.0, 64)
        s_T, other = (_simulate_batch(_cfg(gamma=0.0, x2=v), grid, 5, 0, 16)[0] for v in (0.0, 0.7))
        assert s_T.tobytes() == other.tobytes()

    def test_dx2_matches_pathwise_fd(self):
        # exact derivative of the discrete recursion vs central differences
        grid = GridSpec(1.0, 128)
        bump = 1e-5
        up, dn = (
            _simulate_batch(_cfg(gamma=0.3, x2=x2), grid, 9, 4, 8)[0]
            for x2 in (0.1 + bump, 0.1 - bump)
        )
        k2_T = _dx2_terminal(_cfg(gamma=0.3, x2=0.1), grid, 9, 4, 8)
        np.testing.assert_allclose(k2_T, (up - dn) / (2 * bump), rtol=1e-3, atol=1e-6)

    def test_gbm_mean_when_gamma_zero(self):
        # constant volatility: E[S_T] = x1 e^{mu T}
        cfg = _cfg(gamma=0.0)
        grid = GridSpec(1.0, 64)
        s_T, *_ = _simulate_batch(cfg, grid, 31, 0, 8000)
        m = s_T.mean()
        se = s_T.std(ddof=1) / math.sqrt(8000)
        assert abs(m - math.exp(0.05)) <= 4 * se


class TestSbelDelta:
    def test_identity_payoff_delta_x1(self):
        cfg = _cfg(gamma=0.3, x2=0.0)
        est = sbel_delta(cfg, lambda s, sig: s, GridSpec(1.0, 128), 20000, 11)
        assert abs(est.mean[0] - math.exp(0.05)) <= 3 * est.stderr[0]

    def test_identity_payoff_delta_x1_horizon_two(self):
        # the Wiener weights' a = 1/T comes from the grid: delta_x1 = e^{mu T} at T = 2
        cfg = _cfg(gamma=0.3, x2=0.0)
        est = sbel_delta(cfg, lambda s, sig: s, GridSpec(2.0, 128), 20000, 11)
        assert abs(est.mean[0] - math.exp(0.05 * 2.0)) <= 5 * est.stderr[0]

    def test_delta_x2_zero_when_gamma_zero(self):
        cfg = _cfg(gamma=0.0)
        est = sbel_delta(cfg, lambda s, sig: s, GridSpec(1.0, 128), 10000, 11)
        assert abs(est.mean[1]) <= 3 * est.stderr[1]

    def test_reproducible(self, monkeypatch):
        cfg = _cfg(gamma=0.3)
        monkeypatch.setattr(bel, "DEFAULT_BATCH", 2000)
        g = GridSpec(1.0, 64)
        e1 = sbel_delta(cfg, lambda s, sig: s, g, 4000, 3)
        e2 = sbel_delta(cfg, lambda s, sig: s, g, 4000, 3)
        np.testing.assert_array_equal(e1.mean, e2.mean)

    def test_batch_size_does_not_change_result(self, monkeypatch):
        cfg = _cfg(gamma=0.3)
        g = GridSpec(1.0, 64)

        def run(batch):
            monkeypatch.setattr(bel, "DEFAULT_BATCH", batch)
            return sbel_delta(cfg, lambda s, sig: s, g, 3000, 3)

        e1, *rest = [run(b) for b in (500, 1024, 3000)]
        for e in rest:
            np.testing.assert_array_equal(e.mean, e1.mean)
            np.testing.assert_array_equal(e.stderr, e1.stderr)


class TestBatchWorkingSet:
    B, N = 4096, 256
    PAYOFF = staticmethod(lambda s, sigma: np.maximum(s - 1.0, 0.0))

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_sbel_batch_holds_under_five_path_arrays(self, monkeypatch, workers):
        # the batch holds bh, the dual over dW and dW', drawn before the
        # sigma solve, whose 32-step blocks the stock reads; the stock carries
        # (B,) rows only, so a kept vol path, its flow, a stock path, its
        # x2-variation or g(sigma) would add a path-sized array each
        monkeypatch.setattr(bel, "_WORKERS", workers)
        B, n = self.B, self.N
        grid = GridSpec(1.0, n)
        peak = _traced_peak(
            lambda: sbel_delta(_cfg(gamma=0.3), self.PAYOFF, grid, B, 3)
        )
        assert peak < 5 * B * (n + 1) * 8

    def test_fd_runner_holds_under_five_path_arrays(self):
        # bh and dW', plus one block's temporaries
        B, n = self.B, self.N
        runner = rv_payoff_runner(_cfg(gamma=0.3), self.PAYOFF, GridSpec(1.0, n))
        peak = _traced_peak(lambda: runner(np.array([1.0, 0.0]), 3, 0, B))
        assert peak < 5 * B * (n + 1) * 8


_FAULT_GRID = GridSpec(1.0, 16)


def _fault(case):
    """(seed, cfg, hit, message) of a fault that exactly one of paths 0 .. 63 meets.

    hit[p, k] is true where path p has met the fault by step k, and the
    message is the fault's, to be formatted with the first such step k.  The
    guard case is the finite check of the delta weights, which names no step.
    """
    if case in ("kernel", "weight"):
        # b = 0 below the level, so the vol state is x2 + bh; the state
        # (kernel) or its flow (weight) turns non-finite one step after the
        # path crosses the level
        _, bh = sample_joint_batch(_FAULT_GRID, H01, 1, 4, 0, 64)
        hit = np.pad(bh[:, :-1, 0] > 2.5, ((0, 0), (1, 0)))
        if case == "kernel":
            cliff, fault = _Cliff(np.inf, 0.0, 2.5), "non-finite state at step {k} from start 0"
        else:
            cliff, fault = _Cliff(0.0, np.inf, 2.5), "non-finite flow at step {k}"
        return 4, replace(_cfg(gamma=0.3), vol_drift=cliff), hit, fault
    # s scales with x1: at x1 = max / 2.6 the stock overflows where s > 2.6 at
    # x1 = 1.  w1 = sum_k a dW'_k / g(sigma_k) / x1 does not depend on x1
    # otherwise, so at x1 = 9 / max it overflows where |w1| > 9 at x1 = 1
    big = np.finfo(float).max
    cfg = _cfg(gamma=0.3)
    if case == "stock":
        s = _stock_reference(cfg, *_inputs(cfg, _FAULT_GRID, 4, 0, 64)[:3], _FAULT_GRID)[0]
        return 4, _cfg(gamma=0.3, x1=big / 2.6), s > 2.6, "non-finite stock value at step {k}"
    w1 = _simulate_batch(cfg, _FAULT_GRID, 5, 0, 64, True)[2][:, 0]
    x1 = 9.0 / big
    return 5, _cfg(gamma=0.3, x1=x1), ~np.isfinite(w1 / x1)[:, None], "non-finite delta weight"


# what a batch's re-raise appends to the fault's message
_REPLAY = r" \(master_seed {seed}, batch row 0 is path {start}\)$"


def _fault_message(case):
    """(seed, cfg, path, pattern) of _fault(case); the pattern wants the batch row."""
    seed, cfg, hit, fault = _fault(case)
    (path,) = np.flatnonzero(hit.any(axis=1))
    assert path >= 32  # in the second of two batches
    fault = fault.format(k=int(np.argmax(hit[path])))
    return seed, cfg, path, re.escape(fault) + " in batch row {row}"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow, inf - inf past the fault
class TestReplayableErrors:
    @pytest.mark.parametrize("case", ["kernel", "weight", "stock", "guard"])
    def test_errors_name_seed_and_first_path(self, monkeypatch, case):
        # the message replays the path as start + row, and the block at
        # (path, 1) meets the same fault in its row 0
        # (the path's batch is paths 32 .. 63, cut into bel._WORKERS slices)
        seed, cfg, path, msg = _fault_message(case)
        msg += _REPLAY
        payoff = lambda s, sigma: s
        size = -(-32 // bel._WORKERS)
        start = 32 + (path - 32) // size * size
        first = msg.format(row=path - start, seed=seed, start=start)
        monkeypatch.setattr(bel, "DEFAULT_BATCH", 32)
        with pytest.raises(FloatingPointError, match=first):
            sbel_delta(cfg, payoff, _FAULT_GRID, 64, seed)
        with pytest.raises(FloatingPointError, match=msg.format(row=0, seed=seed, start=path)):
            _sbel_block(cfg, payoff, _FAULT_GRID, seed, path, 1)


_BASE_RV = _cfg(gamma=0.3)


def _digest(cfg=None, grid=GridSpec(1.0, 4), n_paths=2, seed=0, label="call"):
    cfg = cfg or _BASE_RV
    payoff = lambda s, sigma: np.maximum(s - 1.0, 0.0)
    return sbel_delta(cfg, payoff, grid, n_paths, seed, payoff_label=label).config_digest


def _model(**kw):
    return dict(cfg=replace(_BASE_RV, **kw))


def _other(strategy, base):
    return strategy.filter(lambda v: v != base)


_RV_CHANGES = {
    "mu": _other(st.floats(-0.5, 0.5), 0.05).map(lambda v: _model(mu=v)),
    "alpha": _other(st.floats(0.05, 1.0), 0.2).map(lambda v: _model(g=VolMap(v, 0.3))),
    "gamma": _other(st.floats(0.0, 1.0), 0.3).map(lambda v: _model(g=VolMap(0.2, v))),
    "vol_drift": st.sampled_from([
        mollify(RegimeSwitchDrift(1.0, -1.0), 0.06),
        mollify(RegimeSwitchDrift(0.5, -1.0), 0.05),
        mollify(ZeroDrift(), 0.05),
    ]).map(lambda m: _model(vol_drift=m)),
    "x1": _other(st.floats(0.1, 5.0), 1.0).map(lambda v: _model(x1=v)),
    "x2": _other(st.floats(-1.0, 1.0), 0.0).map(lambda v: _model(x2=v)),
    "h": _other(st.floats(0.01, 0.49), 0.1).map(lambda v: _model(h=HurstParam(v))),
    "grid": _other(st.integers(2, 8), 4).map(lambda n: dict(grid=GridSpec(1.0, n))),
    "n_paths": st.integers(3, 6).map(lambda n: dict(n_paths=n)),
    "seed": st.integers(1, 2**64 - 1).map(lambda v: dict(seed=v)),
    "label": _other(st.text(max_size=8), "call").map(lambda v: dict(label=v)),
}


class TestSbelDigest:
    @settings(max_examples=60, deadline=None)
    @given(field=st.sampled_from(sorted(_RV_CHANGES)), data=st.data())
    def test_every_field_changes_digest(self, field, data):
        assert _digest(**data.draw(_RV_CHANGES[field])) != _digest()

    def test_unlabeled_payoff_marks_digest(self):
        labeled, unlabeled = _digest(), _digest(label="")
        assert unlabeled.startswith("unlabeled-")
        assert not labeled.startswith("unlabeled-")
        assert unlabeled != labeled
        assert _digest() == labeled
