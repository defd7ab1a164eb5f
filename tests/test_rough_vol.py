"""Unit tests for the rough stochastic volatility model and its delta weights."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughdelta import bel
from roughdelta.bel import WeightFn
from roughdelta.frac_core import SampledFunction
from roughdelta.fbm import GridSpec, sample_joint_batch
from roughdelta.frac_core import HurstParam
from roughdelta.rough_vol import RVConfig, VolMap, _sbel_block, _simulate_batch, sbel_delta
from roughdelta.sde import _STEP_BLOCK, RegimeSwitchDrift, ZeroDrift, mollify
from test_bel import _Cliff

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
        v = g(z)
        assert np.all(v > 0.2 - 1e-15)
        assert np.all(v < 0.5 + 1e-15)
        assert g(np.array([0.0]))[0] == pytest.approx(0.35)

    def test_derivative_matches_fd(self):
        g = VolMap(0.2, 0.3)
        z = np.linspace(-3, 3, 13)
        d = 1e-6
        fd = (g(z + d) - g(z - d)) / (2 * d)
        np.testing.assert_allclose(g.deriv(z), fd, atol=1e-9)

    def test_constant_when_gamma_zero(self):
        g = VolMap(0.2, 0.0)
        z = np.linspace(-5, 5, 7)
        np.testing.assert_array_equal(g(z), 0.2)
        np.testing.assert_array_equal(g.deriv(z), 0.0)


class TestRVConfig:
    def test_positive_price(self):
        with pytest.raises(ValueError):
            _cfg(x1=0.0)


def _one_path(cfg, grid, seed, index):
    """Stock path s and its x2-variation k2 of one path, as a batch of one."""
    s, _, k2, *_ = _simulate_batch(cfg, grid, seed, index, 1)
    return s[0], k2[0]


def _stock_reference(cfg, sigma, dsig, dWp, grid):
    """Independent oracle: the path-major stock loop over columns, with a masked sigmoid."""

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
    gsig = np.empty((len(s), n))
    s[:, 0] = cfg.x1
    for k in range(n):
        gs, gp = g(sigma[:, k])
        step = np.exp((cfg.mu - 0.5 * gs**2) * dt + gs * dWp[:, k])
        s[:, k + 1] = s[:, k] * step
        k2[:, k + 1] = k2[:, k] * step + s[:, k + 1] * gp * dsig[:, k] * (dWp[:, k] - gs * dt)
        gsig[:, k] = gs
    return s, k2, gsig


class TestSimulate:
    @pytest.mark.parametrize("n", [2, _STEP_BLOCK, _STEP_BLOCK + 1, 100])
    def test_stock_loop_matches_path_major_reference(self, n):
        # the blocked time-major stock loop changes the layout only
        grid = GridSpec(1.0, n)
        cfg = _cfg(gamma=0.3, x2=0.1)
        s, sigma, k2, dsig, dWp, _, gsig = _simulate_batch(cfg, grid, 3, 0, 7)
        for got, ref in zip((s, k2, gsig), _stock_reference(cfg, sigma, dsig, dWp, grid)):
            assert got.tobytes() == ref.tobytes()

    def test_stock_positive(self):
        s, _ = _one_path(_cfg(gamma=0.3), GridSpec(1.0, 64), 5, 2)
        assert np.all(s > 0)
        assert s[0] == 1.0

    def test_dx1_is_relative_price(self):
        # the stock is linear in x1, so dS/dx1 = S / x1 (the w1 weight's factor)
        grid = GridSpec(1.0, 64)
        bump = 1e-5
        s, _ = _one_path(_cfg(gamma=0.3, x1=2.0), grid, 5, 2)
        up, _ = _one_path(_cfg(gamma=0.3, x1=2.0 + bump), grid, 5, 2)
        dn, _ = _one_path(_cfg(gamma=0.3, x1=2.0 - bump), grid, 5, 2)
        np.testing.assert_allclose((up - dn) / (2 * bump), s / 2.0, rtol=1e-8)

    def test_dx2_zero_when_gamma_zero(self):
        _, k2 = _one_path(_cfg(gamma=0.0), GridSpec(1.0, 64), 5, 2)
        np.testing.assert_array_equal(k2, 0.0)

    def test_dx2_matches_pathwise_fd(self):
        # exact derivative of the discrete recursion vs central differences
        grid = GridSpec(1.0, 128)
        bump = 1e-5
        up, _ = _one_path(_cfg(gamma=0.3, x2=0.1 + bump), grid, 9, 4)
        dn, _ = _one_path(_cfg(gamma=0.3, x2=0.1 - bump), grid, 9, 4)
        _, k2 = _one_path(_cfg(gamma=0.3, x2=0.1), grid, 9, 4)
        fd = (up[-1] - dn[-1]) / (2 * bump)
        assert k2[-1] == pytest.approx(fd, rel=1e-3, abs=1e-6)

    def test_gbm_mean_when_gamma_zero(self):
        # constant volatility: E[S_T] = x1 e^{mu T}
        cfg = _cfg(gamma=0.0)
        grid = GridSpec(1.0, 64)
        s, *_ = _simulate_batch(cfg, grid, 31, 0, 8000)
        m = s[:, -1].mean()
        se = s[:, -1].std(ddof=1) / math.sqrt(8000)
        assert abs(m - math.exp(0.05)) <= 4 * se


class TestSbelDelta:
    def test_identity_payoff_delta_x1(self):
        cfg = _cfg(gamma=0.3, x2=0.0)
        est = sbel_delta(
            cfg, lambda s, sig: s, WeightFn(1.0), GridSpec(1.0, 128), 20000, 11
        )
        assert abs(est.mean[0] - math.exp(0.05)) <= 3 * est.stderr[0]

    def test_delta_x2_zero_when_gamma_zero(self):
        cfg = _cfg(gamma=0.0)
        est = sbel_delta(
            cfg, lambda s, sig: s, WeightFn(1.0), GridSpec(1.0, 128), 10000, 11
        )
        assert abs(est.mean[1]) <= 3 * est.stderr[1]

    def test_reproducible(self):
        cfg = _cfg(gamma=0.3)
        kw = dict(batch_size=2000)
        a = WeightFn(1.0)
        g = GridSpec(1.0, 64)
        e1 = sbel_delta(cfg, lambda s, sig: s, a, g, 4000, 3, **kw)
        e2 = sbel_delta(cfg, lambda s, sig: s, a, g, 4000, 3, **kw)
        np.testing.assert_array_equal(e1.mean, e2.mean)

    def test_batch_size_does_not_change_result(self):
        cfg = _cfg(gamma=0.3)
        a = WeightFn(1.0)
        g = GridSpec(1.0, 64)
        e1, *rest = [
            sbel_delta(cfg, lambda s, sig: s, a, g, 3000, 3, batch_size=b)
            for b in (500, 1024, 3000)
        ]
        for e in rest:
            np.testing.assert_array_equal(e.mean, e1.mean)
            np.testing.assert_array_equal(e.stderr, e1.stderr)


_FAULT_GRID = GridSpec(1.0, 16)


def _fault(case):
    """(seed, cfg, hit, message) of a fault that exactly one of paths 0 .. 63 meets.

    hit[p, k] is true where path p has met the fault by step k, and the
    message is the fault's, to be formatted with the first such step k.
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
    # x1 = 1, and at x1 = 1 / (0.13 max) S g(sigma) underflows the guard where
    # s g(sigma) < 0.13
    big = np.finfo(float).max
    seed = 4 if case == "stock" else 5
    s, *_, gsig = _simulate_batch(_cfg(gamma=0.3), _FAULT_GRID, seed, 0, 64)
    if case == "stock":
        return seed, _cfg(gamma=0.3, x1=big / 2.6), s > 2.6, "non-finite stock value at step {k}"
    fault = "division guard tripped: S g(sigma) not positive at step {k}"
    return seed, _cfg(gamma=0.3, x1=1.0 / (0.13 * big)), s[:, :-1] * gsig < 0.13, fault


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
    def test_errors_name_seed_and_first_path(self, case):
        # the message replays the path as start + row, and the block at
        # (path, 1) meets the same fault in its row 0
        # (the path's batch is paths 32 .. 63, cut into bel._WORKERS slices)
        seed, cfg, path, msg = _fault_message(case)
        msg += _REPLAY
        payoff = lambda s, sigma: s
        size = -(-32 // bel._WORKERS)
        start = 32 + (path - 32) // size * size
        first = msg.format(row=path - start, seed=seed, start=start)
        with pytest.raises(FloatingPointError, match=first):
            sbel_delta(cfg, payoff, WeightFn(1.0), _FAULT_GRID, 64, seed, batch_size=32)
        with pytest.raises(FloatingPointError, match=msg.format(row=0, seed=seed, start=path)):
            _sbel_block(cfg, payoff, WeightFn(1.0), _FAULT_GRID, seed, path, 1)


_X = np.linspace(0.0, 1.0, 5)
_BASE_RV = _cfg(gamma=0.3)


def _digest(cfg=None, a=None, grid=GridSpec(1.0, 4), n_paths=2, seed=0, label="call"):
    cfg = cfg or _BASE_RV
    a = a or WeightFn(1.0)
    payoff = lambda s, sigma: np.maximum(s - 1.0, 0.0)
    return sbel_delta(cfg, payoff, a, grid, n_paths, seed, payoff_label=label).config_digest


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
    "a": st.floats(-1.9, 1.9).map(
        lambda c: dict(a=WeightFn(1.0, "custom", SampledFunction(_X, 1.0 + c * (_X - 0.5))))
    ),
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
