"""Unit tests for the Malliavin-weight delta estimator."""

import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughdelta import bel
from roughdelta.bel import PAYOFF_NAMES, _bel_block, _dual_batch, estimate_delta, make_payoff
from roughdelta.fbm import GridSpec, sample_joint_batch
from roughdelta.fd import fd_delta, gaussian_digital_delta, sde_payoff_runner
from roughdelta.frac_core import _CONV_ROWS, HurstParam, _causal_conv, _conv_rows, big_c_h
from roughdelta.sde import (
    RegimeSwitchDrift,
    ZeroDrift,
    default_epsilon,
    mollify,
    solve_batch,
)
from test_sde import stream_path

H01 = HurstParam(0.1)
# Grid horizons of the weight tests: the weight averages with a = 1/T
_HORIZONS, _HORIZON_IDS = (1.0, 2.0), ("uniform", "uniform-T2")


def _linear_a(u):
    """A non-constant averaging function with unit integral on [0, 1]."""
    return 1.0 + 1.5 * (u - 0.5)


def _lag_factor(h, grid, a):
    """c2 at the midpoint lags u: u^{1/2-H} / T, or a(u) u^{1/2-H} for a given a."""
    e = 0.5 - h.h
    lag = (np.arange(1, grid.n_steps + 1) - 0.5) * grid.dt
    return lag**e / grid.horizon if a is None else a(lag) * lag**e


def _dense_profile(h, jac, grid, a=None):
    """Independent oracle: the profile as a dense Toeplitz-times-diagonal sum.

    M[m-1, k-1] = cint[k-m] c2[m] for m <= k, with c2 from _lag_factor, and
    g[:, k] = s_k^{H-1/2} sum_m M[m-1, k-1] jac[:, m-1], summed directly in
    O(N^2).
    """
    n = grid.n_steps
    t = grid.times
    e = 0.5 - h.h
    cint = (t[1:] ** e - t[:-1] ** e) / e
    c2 = _lag_factor(h, grid, a)
    diff = np.arange(n)[None, :] - np.arange(n)[:, None]
    M = np.where(diff >= 0, cint[np.maximum(diff, 0)], 0.0) * c2[:, None]
    g = np.zeros_like(jac)
    g[:, 1:] = np.einsum("mk,bmd->bkd", M, jac[:, :n]) * t[1:, None] ** (h.h - 0.5)
    return g


def _profile_batch(h, jac, grid, a=None):
    """Oracle: the whole profile g, shape (B, n+1, d), with g[:, 0] = 0.

    g[:, k] = s_k^{H-1/2} sum_{m<=k} cint[k-m] c2[m] jac[:, m-1], one FFT causal
    convolution per component over every row of the batch at once.
    """
    n = grid.n_steps
    if jac.shape[1] != n + 1:
        raise ValueError(f"flow has {jac.shape[1]} time points, grid has {n + 1}")
    t = grid.times
    e = 0.5 - h.h
    cint = (t[1:] ** e - t[:-1] ** e) / e
    c2 = _lag_factor(h, grid, a)
    scale = t[1:] ** (h.h - 0.5)
    fc = np.fft.rfft(cint, 2 * n)
    g = np.zeros_like(jac)
    for i in range(jac.shape[2]):
        for rows, y in _causal_conv(jac[:, :n, i], c2, fc, n):
            g[rows, 1:, i] = y * scale
    return g


def _reference_weight(h, jac, dW, grid):
    """Oracle for the fused weight: the whole profile, then one sum per row.

    Returns pi, (B, d), and the largest of each row's terms C_H g(s_k) dW_k,
    the scale of its rounding.
    """
    n = grid.n_steps
    terms = big_c_h(h) * _profile_batch(h, jac, grid)[:, 1:n] * dW[:, 1:n]
    return terms.sum(axis=1), np.max(np.abs(terms), axis=1, initial=0.0)


def _fused_weight(drift, h, dW, bh, grid, x0=0.0):
    """(pi, jac): pi from a solve that carries the weight's dual, jac from the stream; dW is kept."""
    starts = np.full((1, dW.shape[2]), x0)
    pi = solve_batch(drift, starts, bh, grid, dual=_dual_batch(h, dW.copy(), grid))[1]
    return pi, stream_path(drift, starts, bh, grid)[1]


@dataclass(frozen=True)
class _Cliff:
    """b = 0 and Db = 0 up to `level`, (value, slope) above it: a fault the path places."""

    value_above: float
    slope_above: float
    level: float

    def value(self, t, x):
        return np.where(x > self.level, self.value_above, 0.0)

    def derivative(self, t, x):
        return np.where(x > self.level, self.slope_above, 0.0)


@dataclass(frozen=True)
class _Poison:
    """b = 0, and Db = 0 but at each (step, row, value) of faults: flow faults placed by hand.

    Db at step k sets the flow at step k+1.  Db is asked for a block of
    steps at once: x is (steps, B, d) and t the column of their times.
    """

    times: np.ndarray
    faults: tuple

    def value(self, t, x):
        return np.zeros_like(x)

    def derivative(self, t, x):
        out = np.zeros_like(x)
        for step, row, v in self.faults:
            out[np.ravel(t) == self.times[step], row] = v
        return out


_ZERO = mollify(ZeroDrift(), 0.05)


def _zero_drift_flows(grid, seed, start, count):
    """(dW, bh, flow) of zero-drift paths start .. start+count-1."""
    dW, bh = sample_joint_batch(grid, H01, 1, seed, start, count)
    return dW, bh, stream_path(_ZERO, [[0.0]], bh, grid)[1]


class TestPayoffRegistry:
    def test_all_names(self):
        x = np.array([-1.0, 0.5, 2.0])
        np.testing.assert_array_equal(make_payoff("identity")(x), x)
        np.testing.assert_array_equal(make_payoff("call", 1.0)(x), [0.0, 0.0, 1.0])
        np.testing.assert_array_equal(make_payoff("put", 1.0)(x), [2.0, 0.5, 0.0])
        np.testing.assert_array_equal(make_payoff("digital", 0.0)(x), [0.0, 1.0, 1.0])

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_payoff("lookback")

    def test_block_of_states_reads_first_coordinate(self):
        x = np.array([-1.0, 0.5, 2.0])
        block = np.stack([x, 10.0 - x], axis=1)
        for name in PAYOFF_NAMES:
            assert make_payoff(name, 1.0)(block).tobytes() == make_payoff(name, 1.0)(x).tobytes()

    def test_two_dimensional_delta(self):
        # coordinate 1 is a chain independent of coordinate 0, which the
        # payoff reads alone, so its delta is 0
        grid = GridSpec(1.0, 64)
        est = estimate_delta(_ZERO, [0.1, 0.2], make_payoff("digital", 0.2), H01, grid, 4000, 1)
        assert est.mean.shape == (2,)
        assert abs(est.mean[1]) <= 4 * est.stderr[1]
        assert abs(est.mean[0] - gaussian_digital_delta(0.1, 0.2, 1.0, H01)) <= 4 * est.stderr[0]


class TestWeightProfile:
    def test_starts_at_zero(self):
        grid = GridSpec(1.0, 32)
        _, _, jac = _zero_drift_flows(grid, 1, 0, 1)
        g = _profile_batch(H01, jac, grid)
        assert g.shape == (1, 33, 1)
        assert g[0, 0, 0] == 0.0
        assert np.all(np.isfinite(g))

    def test_positive_for_identity_flow(self):
        grid = GridSpec(1.0, 32)
        _, _, jac = _zero_drift_flows(grid, 1, 0, 1)
        g = _profile_batch(H01, jac, grid)
        assert np.all(g[0, 1:, 0] > 0.0)

    def test_grid_mismatch(self):
        grid = GridSpec(1.0, 32)
        dW, _, jac = _zero_drift_flows(grid, 1, 0, 1)
        other = GridSpec(1.0, 16)
        with pytest.raises(ValueError, match="33 time points, grid has 17"):
            _profile_batch(H01, jac, other)
        with pytest.raises(ValueError, match="32 steps, grid has 16"):
            _dual_batch(H01, dW, other)


    @pytest.mark.parametrize("n", [2, 3, 128, 1024])
    @pytest.mark.parametrize("hv", [0.05, 0.1, 0.3])
    @pytest.mark.parametrize(
        "horizon, a", [(1.0, None), (1.0, _linear_a), (2.0, None)],
        ids=["uniform", "custom", "uniform-T2"],
    )
    def test_matches_dense_oracle(self, n, hv, horizon, a):
        # the FFT causal convolution equals the dense sum for the weight's own
        # diagonal and for a non-constant one
        grid = GridSpec(horizon, n)
        h = HurstParam(hv)
        rng = np.random.default_rng(n)
        jac = np.exp(np.cumsum(rng.normal(0.0, 0.1, (5, n + 1, 2)), axis=1))
        g = _profile_batch(h, jac, grid, a)
        ref = _dense_profile(h, jac, grid, a)
        assert g[:, 0].tobytes() == np.zeros_like(g[:, 0]).tobytes()
        row_max = np.max(np.abs(ref), axis=1, keepdims=True)
        assert np.all(np.abs(g - ref) <= 1e-12 * row_max)

    @pytest.mark.parametrize("n", [2, 3, 64, 257])
    @pytest.mark.parametrize("d", [1, 2])
    def test_chunked_weight_matches_whole_profile_bitwise(self, n, d):
        # 520 rows are three _CONV_ROWS chunks of the dual's FFT; writing the
        # dual back one chunk at a time keeps the bytes of one whole-batch
        # transform, and the fused weight matches the whole profile and one
        # einsum (the form before the sums were exchanged) to rounding
        assert _CONV_ROWS < 520 // 2
        for grid in (GridSpec(horizon, n) for horizon in _HORIZONS):
            dW, bh = sample_joint_batch(grid, H01, d, n + d, 0, 520)
            pi, jac = _fused_weight(_DRIFT, H01, dW, bh, grid, 0.1)
            token = _conv_rows.set(520)
            try:
                whole, _ = _fused_weight(_DRIFT, H01, dW, bh, grid, 0.1)
            finally:
                _conv_rows.reset(token)
            assert pi.tobytes() == whole.tobytes()
            ref, scale = _reference_weight(H01, jac, dW, grid)
            assert np.all(np.abs(pi - ref) <= 1e-13 * scale)

    @pytest.mark.parametrize("n", [2, 3, 64, 257, 1024])
    @pytest.mark.parametrize("hv", [0.05, 0.1, 0.3])
    @pytest.mark.parametrize("horizon", _HORIZONS, ids=_HORIZON_IDS)
    @pytest.mark.parametrize("d", [1, 2])
    def test_fused_weight_matches_profile_oracle(self, n, hv, horizon, d):
        # pi accumulated in the solve against the flow-free dual equals the
        # profile form's weight to within 1e-13 of each row's largest term
        grid = GridSpec(horizon, n)
        h = HurstParam(hv)
        dW, bh = sample_joint_batch(grid, h, d, n, 0, 6)
        drift = mollify(RegimeSwitchDrift(1.0, -1.0, 0.0), default_epsilon(grid, h))
        pi, jac = _fused_weight(drift, h, dW, bh, grid, 0.1)
        ref, scale = _reference_weight(h, jac, dW, grid)
        assert np.all(np.abs(pi - ref) <= 1e-13 * scale)


class TestMalliavinWeight:
    def test_zero_mean(self):
        # pi is an Ito integral, so its average over paths is near 0
        grid = GridSpec(1.0, 64)
        dW, bh, _ = _zero_drift_flows(grid, 21, 0, 400)
        vals = _fused_weight(_ZERO, H01, dW, bh, grid)[0][:, 0]
        assert abs(vals.mean()) < 4 * vals.std(ddof=1) / np.sqrt(len(vals))

    def test_non_finite_names_step_and_row(self):
        # the dual would spread a bad increment back over its whole row, so
        # dW is checked before the dual is formed
        grid = GridSpec(1.0, 16)
        dW, _, _ = _zero_drift_flows(grid, 21, 0, 4)
        dW[2, 5, 0] = np.nan
        with pytest.raises(FloatingPointError, match="increment at step 5 in batch row 2$"):
            _dual_batch(H01, dW, grid)
        dW[2, 5, 0] = np.inf
        dW[2, 9, 0] = -np.inf
        dW[3, 1, 0] = np.inf
        with pytest.raises(FloatingPointError, match="increment at step 5 in batch row 2$"):
            _dual_batch(H01, dW, grid)

    def test_non_finite_flow_names_step_and_row(self):
        # the solve checks the flow once per block and names the first bad
        # step in it, and the first bad row at that step
        grid = GridSpec(1.0, 16)
        dW, bh, _ = _zero_drift_flows(grid, 21, 0, 4)
        faults = ((8, 1, np.nan), (6, 3, np.nan), (6, 2, np.inf))
        with pytest.raises(FloatingPointError, match="flow at step 7 in batch row 2$"):
            _fused_weight(_Poison(grid.times, faults), H01, dW, bh, grid)

    def test_later_chunk_names_its_batch_row(self):
        # row 300 lies in the second chunk of the dual's FFT; the first bad row
        # of the batch is named, not the first bad row of a chunk
        grid = GridSpec(1.0, 16)
        dW, bh, _ = _zero_drift_flows(grid, 21, 0, 520)
        assert 300 // _CONV_ROWS == 1
        dW[300, 5, 0] = np.nan
        dW[310, 2, 0] = np.inf
        dW[515, 1, 0] = np.inf
        with pytest.raises(FloatingPointError, match="increment at step 5 in batch row 300$"):
            _fused_weight(_ZERO, H01, dW, bh, grid)
        dW[[300, 310, 515], [5, 2, 1], 0] = 0.0
        poison = _Poison(grid.times, ((6, 300, np.inf), (6, 515, np.nan)))
        with pytest.raises(FloatingPointError, match="flow at step 7 in batch row 300$"):
            _fused_weight(poison, H01, dW, bh, grid)


class TestEstimateDelta:
    def test_identity_delta_zero_drift(self):
        grid = GridSpec(1.0, 128)
        m = mollify(ZeroDrift(), 0.05)
        est = estimate_delta(m, 0.0, make_payoff("identity"), H01, grid, 20000, 42)
        assert abs(est.mean[0] - 1.0) <= 3 * est.stderr[0]

    def test_identity_delta_zero_drift_horizon_two(self):
        # the weight's a = 1/T comes from the grid, so the delta stays 1 at T = 2
        grid = GridSpec(2.0, 128)
        est = estimate_delta(_ZERO, 0.0, make_payoff("identity"), H01, grid, 20000, 3)
        assert abs(est.mean[0] - 1.0) <= 5 * est.stderr[0]

    def test_reproducible(self, monkeypatch):
        grid = GridSpec(1.0, 64)
        m = mollify(ZeroDrift(), 0.05)
        monkeypatch.setattr(bel, "DEFAULT_BATCH", 1000)
        e1 = estimate_delta(m, 0.0, make_payoff("identity"), H01, grid, 3000, 7)
        e2 = estimate_delta(m, 0.0, make_payoff("identity"), H01, grid, 3000, 7)
        assert e1.mean[0] == e2.mean[0]
        assert e1.stderr[0] == e2.stderr[0]
        assert e1.config_digest == e2.config_digest

    def test_batch_size_does_not_change_result(self, monkeypatch):
        grid = GridSpec(1.0, 64)
        m = mollify(ZeroDrift(), 0.05)

        def run(batch):
            monkeypatch.setattr(bel, "DEFAULT_BATCH", batch)
            return estimate_delta(m, 0.0, make_payoff("identity"), H01, grid, 3000, 7)

        e1, *rest = [run(b) for b in (500, 1024, 3000)]
        for e in rest:
            assert e.mean[0] == e1.mean[0]
            assert e.stderr[0] == e1.stderr[0]

    def test_nan_payoff_aborts(self):
        grid = GridSpec(1.0, 16)
        m = mollify(ZeroDrift(), 0.05)
        bad = lambda x: np.where(np.asarray(x) > 0, np.nan, 1.0)
        with pytest.raises(FloatingPointError):
            estimate_delta(m, 0.0, bad, H01, grid, 100, 1)

    def test_path_count_validation(self):
        grid = GridSpec(1.0, 16)
        m = mollify(ZeroDrift(), 0.05)
        with pytest.raises(ValueError):
            estimate_delta(m, 0.0, make_payoff("identity"), H01, grid, 1, 1)

    @pytest.mark.parametrize(
        "value, slope, fault",
        [(np.inf, 0.0, "non-finite state at step {k} from start 0"),
         (0.0, np.inf, "non-finite flow at step {k}")],
        ids=["kernel", "weight"],
    )
    def test_errors_name_seed_and_first_path(self, monkeypatch, value, slope, fault):
        # with b = 0 below the level the state is x0 + bh, so the one path that
        # climbs over it is known; it lies in the second of two batches.  Its
        # state (kernel) or its flow (weight) turns non-finite one step after
        # it crosses, and the message replays it as path start + row.
        grid = GridSpec(1.0, 16)
        _, bh = sample_joint_batch(grid, H01, 1, 4, 0, 64)
        over = bh[:, :, 0] > 2.5
        (path,) = np.flatnonzero(over.any(axis=1))
        assert path >= 32
        k = int(np.argmax(over[path])) + 1
        drift = _Cliff(value, slope, 2.5)
        pay = make_payoff("identity")
        msg = fault.format(k=k) + " in batch row {row} "
        msg += r"\(master_seed 4, batch row 0 is path {start}\)$"
        monkeypatch.setattr(bel, "DEFAULT_BATCH", 32)
        with pytest.raises(FloatingPointError, match=msg.format(row=path - 32, start=32)):
            estimate_delta(drift, 0.0, pay, H01, grid, 64, 4)
        with pytest.raises(FloatingPointError, match=msg.format(row=0, start=path)):
            _bel_block(drift, np.zeros((1, 1)), H01, grid, 4, path, 1)


def _traced_peak(run) -> int:
    """Bytes by which one run() raises the traced heap at its peak, after one warm-up run.

    The warm-up builds the sampler tables and FFT plans outside the measurement.
    """
    run()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestBatchWorkingSet:
    B, N = 4096, 256
    DRIFT = mollify(RegimeSwitchDrift(1.0, -1.0, 0.0), 0.05)

    def test_one_batch_holds_under_four_path_arrays(self):
        # at its peak a batch holds dW and bh, plus scratch of _STEP_BLOCK
        # steps or _CONV_ROWS rows; a kept Euler path, a flow array or a whole
        # profile g would add another path-sized array
        B, n = self.B, self.N
        grid = GridSpec(1.0, n)
        peak = _traced_peak(
            lambda: estimate_delta(
                self.DRIFT, 0.1, make_payoff("digital", 0.2), H01, grid, B, 3
            )
        )
        assert peak < 4 * B * (n + 1) * 8

    def test_fd_runner_holds_under_three_path_arrays(self):
        # the runner needs bh and the terminal states; the sampler's dW is
        # dropped before the solve, which builds no flow array
        B, n = self.B, self.N
        runner = sde_payoff_runner(self.DRIFT, make_payoff("digital", 0.2), H01, GridSpec(1.0, n))
        peak = _traced_peak(lambda: runner(np.array([0.1]), 3, 0, B))
        assert peak < 3 * B * (n + 1) * 8

    # the same bounds with the batch cut into worker slices: the slices share
    # one budget of FFT rows, so their scratch does not grow with the count
    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_sliced_batch_holds_under_four_path_arrays(self, monkeypatch, workers):
        monkeypatch.setattr(bel, "_WORKERS", workers)
        self.test_one_batch_holds_under_four_path_arrays()

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_sliced_fd_batch_holds_under_three_path_arrays(self, monkeypatch, workers):
        monkeypatch.setattr(bel, "_WORKERS", workers)
        B, n = self.B, self.N
        runner = sde_payoff_runner(self.DRIFT, make_payoff("digital", 0.2), H01, GridSpec(1.0, n))
        peak = _traced_peak(lambda: fd_delta(runner, 0.1, 0.05, B, 3))
        assert peak < 3 * B * (n + 1) * 8

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_fused_batch_holds_under_three_path_arrays(self, monkeypatch, workers):
        # the weight is accumulated in the solve, so past the sampler's own
        # peak (dW, bh and its FFT scratch) a batch holds the dual over dW and
        # bh, and no flow array; at N = 1024 the _STEP_BLOCK buffers are small
        # next to a path-sized array
        monkeypatch.setattr(bel, "_WORKERS", workers)
        B, n = self.B, 1024
        grid = GridSpec(1.0, n)
        peak = _traced_peak(
            lambda: estimate_delta(
                self.DRIFT, 0.1, make_payoff("digital", 0.2), H01, grid, B, 3
            )
        )
        assert peak < 3 * B * (n + 1) * 8


_DRIFT = mollify(RegimeSwitchDrift(1.0, -1.0, 0.0), 0.05)
_BASE = dict(
    drift=_DRIFT, x0=0.1, payoff=make_payoff("identity"), h=H01,
    grid=GridSpec(1.0, 4), n_paths=2, master_seed=0, payoff_label="identity",
)
_CHANGES = {
    "drift": st.sampled_from([
        mollify(RegimeSwitchDrift(1.0, -1.0, 0.0), 0.06),
        mollify(RegimeSwitchDrift(1.0, -0.5, 0.0), 0.05),
        mollify(ZeroDrift(), 0.05),
    ]),
    "x0": st.floats(-1.0, 1.0).filter(lambda v: v != 0.1),
    "h": st.floats(0.01, 0.49).filter(lambda v: v != 0.1).map(HurstParam),
    "grid": st.one_of(
        st.integers(2, 8).filter(lambda n: n != 4).map(lambda n: GridSpec(1.0, n)),
        st.floats(0.5, 2.0).filter(lambda t: t != 1.0).map(lambda t: GridSpec(t, 4)),
    ),
    "n_paths": st.integers(3, 6),
    "master_seed": st.integers(1, 2**64 - 1),
    "payoff_label": st.text(max_size=8).filter(lambda v: v != "identity"),
}


class TestConfigDigest:
    @settings(max_examples=60, deadline=None)
    @given(field=st.sampled_from(sorted(_CHANGES)), data=st.data())
    def test_every_field_changes_digest(self, field, data):
        new = data.draw(_CHANGES[field])
        base = estimate_delta(**_BASE).config_digest
        assert estimate_delta(**{**_BASE, field: new}).config_digest != base

    def test_unlabeled_payoff_marks_digest(self):
        labeled = estimate_delta(**_BASE).config_digest
        unlabeled = estimate_delta(**{**_BASE, "payoff_label": ""}).config_digest
        assert unlabeled.startswith("unlabeled-")
        assert not labeled.startswith("unlabeled-")
        assert unlabeled != labeled
        assert estimate_delta(**_BASE).config_digest == labeled
