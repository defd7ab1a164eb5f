"""Unit tests for the fBm samplers and the reproducible path RNG."""

import hashlib
import math
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

import roughdelta
from roughdelta.bel import _dual_batch
from roughdelta.fbm import (
    CholeskyFactorizationError,
    GridSpec,
    _cholesky_factor,
    _normal_block,
    _volterra_paths,
    covariance_report,
    sample_cholesky_batch,
    sample_joint_batch,
    volterra_weights,
    wiener_increment_batch,
)
from roughdelta.frac_core import _CONV_ROWS, HurstParam, _kernel_vec
from roughdelta.girsanov import girsanov_xi_batch
from roughdelta.sde import _STEP_BLOCK, RegimeSwitchDrift, mollify, solve_batch
from test_sde import stream_path

H01 = HurstParam(0.1)


@lru_cache(maxsize=None)
def _dense_volterra_weights(h: float, n: int, T: float) -> np.ndarray:
    """Independent oracle: the dense (n+1) x n integrated-kernel weight matrix.

    bh[k] = sum_j w[k, j] dW[j].  Interior cells carry the cell average
    (1/dt) int_cell K(t_k, s) ds by 12-point Gauss-Legendre on the closed-form
    kernel; the two singular cells of each row (s near 0 and s near t_k) carry
    the cell's L2 norm sqrt((1/dt) int_cell K^2 ds) by Gauss-Jacobi quadrature
    with the matching weight exponent.
    """
    dt = T / n
    t = np.arange(n + 1) * dt
    W = np.zeros((n + 1, n))
    xg, wg = np.polynomial.legendre.leggauss(12)
    xj0, wj0 = special.roots_jacobi(16, 0.0, 2 * h - 1.0)
    xjl, wjl = special.roots_jacobi(24, 2 * h - 1.0, 0.0)
    s0 = (xj0 + 1) * 0.5 * dt
    half = (dt / 2) ** (2 * h)
    for k in range(1, n + 1):
        tk = t[k]
        if k == 1:
            W[k, 0] = math.sqrt(tk ** (2 * h) / dt)
            continue
        i2 = half * np.sum(wj0 * _kernel_vec(h, tk, s0) ** 2 * s0 ** (1 - 2 * h))
        W[k, 0] = math.sqrt(i2 / dt)
        sl = t[k - 1] + (xjl + 1) * 0.5 * dt
        i2l = half * np.sum(wjl * _kernel_vec(h, tk, sl) ** 2 * (tk - sl) ** (1 - 2 * h))
        W[k, k - 1] = math.sqrt(i2l / dt)
        if k > 2:
            a = t[1 : k - 1][:, None]
            nodes = a + (xg[None, :] + 1) * 0.5 * dt
            W[k, 1 : k - 1] = 0.5 * np.sum(wg[None, :] * _kernel_vec(h, tk, nodes), axis=1)
    return W


def _implied_weights(grid: GridSpec, h: HurstParam) -> np.ndarray:
    """The sampler's weight matrix w[k, j]: its paths for unit increments dW = e_j."""
    n = grid.n_steps
    return _volterra_paths(grid, h, np.eye(n)[:, :, None])[:, :, 0].T


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(0.0, 10)
        with pytest.raises(ValueError):
            GridSpec(1.0, 0)

    def test_times(self):
        g = GridSpec(2.0, 4)
        np.testing.assert_allclose(g.times, [0.0, 0.5, 1.0, 1.5, 2.0])
        assert g.dt == 0.5


def _normal_block_reference(master_seed, start, count, shape, stream):
    """The earlier per-path loop of _normal_block, with numpy-array Philox state."""
    bg = np.random.Philox(key=np.array([master_seed, 0], dtype=np.uint64))
    rng = np.random.Generator(bg)
    state = bg.state
    counter = state["state"]["counter"]
    counter[2] = stream
    out = np.empty((count, *shape))
    for p in range(count):
        counter[1] = start + p
        bg.state = state
        rng.standard_normal(shape, out=out[p])
    return out


# (master_seed, start, count, shape, stream) -> sha256 of the block's bytes
_PINNED_STREAMS = [
    (
        (0, 0, 4, (128, 1), 0),
        "c4c6c3828bad375e5e3c99684fe4ce3adb8b9604d37219ec4b8d14b315f21cc1",
    ),
    (
        (2**64 - 5, 10**12, 3, (7, 2), 1),
        "646b2270d2336a868fb0c0a5d4b6d89f0fa430ddbe7db7a187e73f8fae41995d",
    ),
    (
        (12345, 4095, 2, (1024, 1), 0),
        "9b7bd5f50647f8fe8432d0c51affbcef720ecb226e6425372c40c5d874073b17",
    ),
]


class TestPathSeed:
    """The (master_seed, path index, stream) address of a path's normals."""

    def test_validation(self):
        with pytest.raises(ValueError):
            _normal_block(-1, 0, 1, (8,), 0)
        with pytest.raises(ValueError):
            _normal_block(2**64, 0, 1, (8,), 0)
        with pytest.raises(ValueError):
            _normal_block(0, -1, 1, (8,), 0)
        with pytest.raises(ValueError):
            sample_joint_batch(GridSpec(1.0, 8), H01, 1, 2**64, 0, 1)

    def test_streams_are_disjoint(self):
        a = _normal_block(42, 7, 1, (8,), 0)
        b = _normal_block(42, 7, 1, (8,), 1)
        assert not np.allclose(a, b)

    def test_reproducible(self):
        a = _normal_block(42, 7, 1, (8,), 0)
        b = _normal_block(42, 7, 1, (8,), 0)
        np.testing.assert_array_equal(a, b)

    def test_distinct_paths(self):
        a = _normal_block(42, 7, 1, (8,), 0)
        b = _normal_block(42, 8, 1, (8,), 0)
        assert not np.allclose(a, b)

    @pytest.mark.parametrize("shape", [(7,), (32, 2)])
    def test_matches_one_generator_per_path(self, shape):
        # reference stream: a fresh Philox per path at counter [0, index, stream, 0]
        for seed, stream in ((12345, 0), (2**63 - 1, 1), (2**64 - 1, 2)):
            key = np.array([seed, 0], dtype=np.uint64)
            ref = [
                np.random.Generator(
                    np.random.Philox(counter=[0, 5 + p, stream, 0], key=key)
                ).standard_normal(shape)
                for p in range(4)
            ]
            block = _normal_block(seed, 5, 4, shape, stream)
            assert block.tobytes() == np.stack(ref).tobytes()

    @pytest.mark.parametrize("args, digest", _PINNED_STREAMS)
    def test_stream_is_pinned(self, args, digest):
        # a silent change of the RNG stream fails here: the block keeps the
        # bytes of the per-path loop it replaced and their recorded sha256
        block = _normal_block(*args)
        assert block.tobytes() == _normal_block_reference(*args).tobytes()
        assert hashlib.sha256(block.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("s1, s2", [(2**63 + 1, 2**63 + 2), (2**64 - 1, 0)])
    def test_high_seeds_do_not_alias(self, s1, s2):
        # the key keeps all 64 bits of the seed, with no float64 rounding
        grid = GridSpec(1.0, 8)
        dW1, bh1 = sample_joint_batch(grid, H01, 1, s1, 0, 2)
        dW2, bh2 = sample_joint_batch(grid, H01, 1, s2, 0, 2)
        assert not np.allclose(dW1, dW2)
        assert not np.allclose(bh1, bh2)


_SEEDS = st.integers(0, 2**64 - 1)
_STARTS = st.integers(0, 2**40)


class TestBatchSplit:
    """Any path is a pure function of its address: a batch is the
    concatenation of its sub-batches, and row p is the batch of one at
    start + p."""

    @settings(max_examples=40, deadline=None)
    @given(seed=_SEEDS, start=_STARTS, count=st.integers(1, 6), data=st.data())
    def test_batches_split_bitwise(self, seed, start, count, data):
        cut = data.draw(st.integers(0, count))
        stream = data.draw(st.integers(0, 2))
        grid = GridSpec(1.0, 8)

        def draws(s, c):
            dW, bh = sample_joint_batch(grid, H01, 2, seed, s, c, stream=stream)
            return (
                _normal_block(seed, s, c, (5, 2), stream),
                wiener_increment_batch(grid, seed, s, c, stream),
                dW,
                bh,
            )

        whole = draws(start, count)
        halves = zip(draws(start, cut), draws(start + cut, count - cut))
        for w, (a, b) in zip(whole, halves):
            assert w.tobytes() == np.concatenate([a, b]).tobytes()
        for p in range(count):
            for w, one in zip(whole, draws(start + p, 1)):
                assert w[p].tobytes() == one[0].tobytes()

    @settings(max_examples=15, deadline=None)
    @given(
        seed=_SEEDS,
        n=st.integers(2, 40),
        count=st.integers(1, 2 * _CONV_ROWS + 8),
        data=st.data(),
    )
    def test_sampler_splits_across_chunks(self, seed, n, count, data):
        # the sampler's FFT runs _CONV_ROWS rows at a time; a path's bits do
        # not depend on which chunk of which batch it falls in
        cut = data.draw(st.integers(0, count))
        grid = GridSpec(1.0, n)
        bh = lambda s, c: sample_joint_batch(grid, H01, 2, seed, s, c)[1]
        whole = bh(0, count)
        assert whole.tobytes() == np.concatenate([bh(0, cut), bh(cut, count - cut)]).tobytes()
        for p in data.draw(st.lists(st.integers(0, count - 1), max_size=4)):
            assert whole[p].tobytes() == bh(p, 1)[0].tobytes()

    @settings(max_examples=20, deadline=None)
    @given(seed=_SEEDS, start=_STARTS, count=st.integers(1, 6), data=st.data())
    def test_cholesky_splits_to_rounding(self, seed, start, count, data):
        # the row-wise product L z_p makes the Cholesky reference split-invariant
        # bit for bit; the test keeps its name so its id stays stable
        cut = data.draw(st.integers(0, count))
        grid = GridSpec(1.0, 16)
        whole = sample_cholesky_batch(grid, H01, seed, start, count)
        parts = [
            sample_cholesky_batch(grid, H01, seed, start, cut),
            sample_cholesky_batch(grid, H01, seed, start + cut, count - cut),
        ]
        np.testing.assert_array_equal(whole, np.concatenate(parts))
        ones = [sample_cholesky_batch(grid, H01, seed, start + p, 1) for p in range(count)]
        np.testing.assert_array_equal(whole, np.concatenate(ones))

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 2 * _STEP_BLOCK + 3),
        d=st.integers(1, 2),
        m=st.integers(1, 3),
        count=st.integers(1, 12),
        data=st.data(),
    )
    def test_solver_splits_bitwise(self, seed, n, d, m, count, data):
        # the Euler/flow kernel steps every row on its own, so x, each start's
        # terminal state, the flow and the weight a dual carries of a path do
        # not depend on its batch
        cut = data.draw(st.integers(0, count))
        grid = GridSpec(1.0, n)
        _, bh = sample_joint_batch(grid, H01, d, seed, 0, count)
        rng = np.random.default_rng(seed)
        starts = rng.normal(0.0, 0.5, (m, d))
        dual = rng.normal(0.0, 1.0, (count, n, d))
        drift = mollify(RegimeSwitchDrift(1.0, -1.0, 0.1), 0.05)
        solve = lambda r: (
            *stream_path(drift, starts, bh[r], grid),
            *solve_batch(drift, starts, bh[r], grid, dual=dual[r]),
        )
        whole = solve(slice(0, count))
        halves = zip(solve(slice(0, cut)), solve(slice(cut, count)))
        for w, (a, b), axis in zip(whole, halves, (0, 0, 1, 0)):
            assert w.tobytes() == np.concatenate([a, b], axis=axis).tobytes()
        for p in range(count):
            for w, one, axis in zip(whole, solve(slice(p, p + 1)), (0, 0, 1, 0)):
                assert np.take(w, [p], axis=axis).tobytes() == one.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 48),
        d=st.integers(1, 2),
        count=st.integers(1, 2 * _CONV_ROWS + 8),
        data=st.data(),
    )
    def test_weight_splits_bitwise(self, seed, n, d, count, data):
        # the dual's FFT transforms each row on its own and the solve
        # accumulates each row's weight on its own, so the weight of a path
        # does not depend on the batch it is computed in
        cut = data.draw(st.integers(0, count))
        grid = GridSpec(1.0, n)
        dW, bh = sample_joint_batch(grid, H01, d, seed, 0, count)
        starts = np.full((1, d), 0.1)
        drift = mollify(RegimeSwitchDrift(1.0, -1.0, 0.0), 0.05)
        weight = lambda r: solve_batch(
            drift, starts, bh[r], grid, dual=_dual_batch(H01, dW[r].copy(), grid)
        )[1]
        whole = weight(slice(0, count))
        halves = np.concatenate([weight(slice(0, cut)), weight(slice(cut, count))])
        assert whole.tobytes() == halves.tobytes()
        for p in range(count):
            assert whole[p].tobytes() == weight(slice(p, p + 1))[0].tobytes()

    @settings(max_examples=15, deadline=None)
    @given(
        seed=_SEEDS,
        n=st.integers(2, 40),
        count=st.integers(1, 2 * _CONV_ROWS + 8),
        data=st.data(),
    )
    def test_girsanov_splits_bitwise(self, seed, n, count, data):
        # the inverse kernel transform is a row-wise FFT convolution, so the
        # log-density of a path does not depend on the batch it is in
        cut = data.draw(st.integers(0, count))
        grid = GridSpec(1.0, n)
        dW, bh = sample_joint_batch(grid, H01, 1, seed, 0, count)
        drift = mollify(RegimeSwitchDrift(1.0, -1.0, 0.0), 0.05)
        xi = lambda r: girsanov_xi_batch(H01, drift, bh[r, :, 0], dW[r, :, 0], grid, 0.1)
        whole = xi(slice(0, count))
        assert whole.tobytes() == np.concatenate([xi(slice(0, cut)), xi(slice(cut, count))]).tobytes()
        for p in data.draw(st.lists(st.integers(0, count - 1), max_size=4)):
            assert whole[p].tobytes() == xi(slice(p, p + 1)).tobytes()


_THREAD_CHILD = """
import hashlib
import numpy as np
from roughdelta.bel import _dual_batch
from roughdelta.fbm import GridSpec, sample_joint_batch
from roughdelta.frac_core import HurstParam
from roughdelta.girsanov import girsanov_xi_batch
from roughdelta.sde import RegimeSwitchDrift, mollify, solve_batch

grid, h = GridSpec(1.0, 256), HurstParam(0.1)
drift = mollify(RegimeSwitchDrift(1.0, -1.0, 0.0), 0.05)

def draw(start, count):
    dW, bh = sample_joint_batch(grid, h, 1, 17, start, count)
    log_xi = girsanov_xi_batch(h, drift, bh[:, :, 0], dW[:, :, 0], grid, 0.1)
    pi = solve_batch(drift, [[0.1]], bh, grid, dual=_dual_batch(h, dW, grid))[1]
    return bh, pi, log_xi

whole = draw(0, 4096)
one = draw(4095, 1)
same = all(w[-1].tobytes() == o[0].tobytes() for w, o in zip(whole, one))
print(*(hashlib.sha256(w.tobytes()).hexdigest() for w in whole), same)
"""


def test_bits_match_across_blas_threads():
    """bh, pi and the Girsanov log xi of 4096 paths at N = 256 have the same
    bytes at 1 and 2 BLAS threads, and the last path has them as a batch of one.

    With OpenBLAS, a GEMM put in any of these contractions (sampler, weight
    dual or inverse kernel transform) still gives the same bytes at 1 and 2
    threads, since it does not split inner sums across threads; the batch of
    one, which BLAS computes as a GEMV, catches it.
    """
    src_dir = str(Path(roughdelta.__file__).parents[1])
    pythonpath = os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")]))
    outputs = []
    for threads in (1, 2):
        # the caller's environment, so PYTHONDONTWRITEBYTECODE reaches the child
        env = {**os.environ, "PYTHONPATH": pythonpath}
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(threads)
        r = subprocess.run(
            [sys.executable, "-c", _THREAD_CHILD], capture_output=True, text=True, env=env
        )
        assert r.returncode == 0, r.stderr
        outputs.append(r.stdout.split())
    assert outputs[0] == outputs[1]
    assert outputs[0][3] == "True"


class TestVolterraSampler:
    def test_batch_matches_single(self):
        # a single path is the batch of one, bit for bit
        grid = GridSpec(1.0, 32)
        dW, bh = sample_joint_batch(grid, H01, 1, 9, 0, 6)
        dW1, bh1 = sample_joint_batch(grid, H01, 1, 9, 3, 1)
        np.testing.assert_array_equal(dW1[0], dW[3])
        np.testing.assert_array_equal(bh1[0], bh[3])

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            sample_joint_batch(GridSpec(1.0, 8), H01, 0, 1, 0, 1)

    def test_starts_at_zero(self):
        grid = GridSpec(1.0, 16)
        _, bh = sample_joint_batch(grid, H01, 2, 1, 0, 4)
        np.testing.assert_array_equal(bh[:, 0], 0.0)

    def test_terminal_variance(self):
        grid = GridSpec(1.0, 256)
        _, bh = sample_joint_batch(grid, H01, 1, 5, 0, 8000)
        v = np.var(bh[:, -1, 0], ddof=1)
        # sd of a sample variance of 8000 Gaussians is about 1.6% of the mean
        assert abs(v - 1.0) < 0.06

    def test_components_independent(self):
        grid = GridSpec(1.0, 64)
        _, bh = sample_joint_batch(grid, H01, 2, 5, 0, 4000)
        corr = np.corrcoef(bh[:, -1, 0], bh[:, -1, 1])[0, 1]
        assert abs(corr) < 0.06

    @pytest.mark.parametrize("horizon", [1.0, 2.0])
    def test_weights_l2_match_variance(self, horizon):
        # sum of squared implied weights for B(t_k) must equal t_k^{2H} closely
        grid = GridSpec(horizon, 512)
        for h in (HurstParam(0.05), HurstParam(0.1)):
            w = _implied_weights(grid, h)
            var = np.sum(w[1:] ** 2, axis=1) * grid.dt
            target = grid.times[1:] ** (2 * h.h)
            rel = np.abs(var - target) / target
            assert rel[-1] < 0.02

    def test_tables_are_cached_and_small(self):
        # the sampler keeps O(N) tables, not a matrix, and builds them once
        grid = GridSpec(1.0, 64)
        w = volterra_weights(grid, H01)
        assert isinstance(w, np.ndarray) and w.shape == (64,)
        assert volterra_weights(GridSpec(1.0, 64), HurstParam(0.1)) is w
        assert not w.flags.writeable

    @pytest.mark.parametrize("n", [2, 3, 128, 256, 1024])
    @pytest.mark.parametrize("hv", [0.05, 0.1, 0.3])
    def test_matches_dense_oracle(self, n, hv):
        # tolerances fixed before the split sampler was written: its corrected
        # cells are the dense values to rounding, every other cell is close in
        # L2, and the variance and covariance errors stay at the dense level.
        # The corrected cells and the terminal variance are checked at T = 1
        # and T = 2, against the dense oracle at T and T^{2H}; the rest of the
        # test checks the T = 1 weights.
        h = HurstParam(hv)
        k = np.arange(1, n + 1)
        for horizon in (1.0, 2.0):
            grid = GridSpec(horizon, n)
            w = _implied_weights(grid, h)
            ref = _dense_volterra_weights(hv, n, horizon)
            np.testing.assert_allclose(w[k, k - 1], ref[k, k - 1], rtol=1e-12, atol=0)
            np.testing.assert_allclose(w[1:, 0], ref[1:, 0], rtol=1e-12, atol=0)
            np.testing.assert_allclose(w[2:, 1], ref[2:, 1], rtol=1e-12, atol=0)
            var_n = grid.dt * np.sum(w[n] ** 2)
            assert abs(var_n - horizon ** (2 * hv)) <= 2e-3 * horizon ** (2 * hv)
        grid = GridSpec(1.0, n)
        w = _implied_weights(grid, h)
        ref = _dense_volterra_weights(hv, n, 1.0)
        assert w[0].tobytes() == np.zeros(n).tobytes()
        rel_l2 = np.linalg.norm(w[1:] - ref[1:], axis=1) / np.linalg.norm(ref[1:], axis=1)
        assert rel_l2.max() <= 1e-2
        t = grid.times[1:]
        target = 0.5 * (t[:, None] ** (2 * hv) + t ** (2 * hv) - np.abs(t[:, None] - t) ** (2 * hv))
        cov_err = lambda m: np.max(np.abs(grid.dt * m[1:] @ m[1:].T - target))
        assert cov_err(w) <= cov_err(ref) + 1e-3


class TestCholeskySampler:
    def test_exact_covariance_small_grid(self):
        grid = GridSpec(1.0, 64)
        vals = sample_cholesky_batch(grid, H01, 11, 0, 20000)
        rep = covariance_report(vals[:, 1:], grid.times[1:], H01)
        assert rep.max_deviation_se <= 5.0

    def test_single_matches_batch(self):
        # the batch of one starts at zero and is its row in a larger batch, bit for bit
        grid = GridSpec(1.0, 16)
        one = sample_cholesky_batch(grid, H01, 3, 2, 1)
        many = sample_cholesky_batch(grid, H01, 3, 0, 4)
        assert one[0, 0] == 0.0
        np.testing.assert_array_equal(one[0], many[2])

    def test_size_guard(self):
        # the dense factorization is capped at 4096 steps
        with pytest.raises(ValueError):
            sample_cholesky_batch(GridSpec(1.0, 4097), H01, 0, 0, 1)

    def test_factorization_error_names_config(self, monkeypatch):
        # both the plain and the jittered factorization fail: the error names
        # the grid and h, and the warning announces the jitter retry
        def fail(a):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", fail)
        _cholesky_factor.cache_clear()
        try:
            with pytest.warns(RuntimeWarning, match="jitter"):
                with pytest.raises(CholeskyFactorizationError, match=r"n_steps=24, h=0\.1\b") as exc:
                    sample_cholesky_batch(GridSpec(1.0, 24), H01, 0, 0, 1)
        finally:
            _cholesky_factor.cache_clear()
        assert (exc.value.n_steps, exc.value.h) == (24, 0.1)
        assert isinstance(exc.value.__cause__, np.linalg.LinAlgError)

    def test_batch_sampler_size_guard(self):
        with pytest.raises(ValueError, match="not supported"):
            sample_cholesky_batch(GridSpec(1.0, 5000), H01, 0, 0, 1)


class TestWienerBatch:
    def test_moments(self):
        grid = GridSpec(1.0, 64)
        dW = wiener_increment_batch(grid, 13, 0, 8000, stream=1)
        assert abs(dW.mean()) < 3e-3
        assert abs(dW.var() - grid.dt) < 5e-4

    def test_stream_separation(self):
        grid = GridSpec(1.0, 8)
        a = wiener_increment_batch(grid, 13, 0, 4, stream=0)
        b = wiener_increment_batch(grid, 13, 0, 4, stream=1)
        assert not np.allclose(a, b)


class TestCovarianceReport:
    def test_detects_wrong_scale(self):
        grid = GridSpec(1.0, 32)
        vals = 2.0 * sample_cholesky_batch(grid, H01, 17, 0, 4000)
        rep = covariance_report(vals[:, 1:], grid.times[1:], H01)
        assert rep.max_deviation_se > 5.0
