"""Derivative-free Malliavin-weight delta estimator for fBm-driven SDEs.

The sensitivity of E[payoff(X_T)] to the initial state is represented as
E[payoff(X_T) * pi], pi a stochastic-integral weight built from the flow and
the Wiener increments; no derivative of the payoff is required.  Exchanging
the order of the weight's sums turns it into the flow dotted with a
flow-free dual of the increments, one O(N log N) FFT correlation per path
formed before the solve and written over dW; the Euler/flow solve then
accumulates pi as it steps, so no flow array is kept.  The weight averages
over [0, T] with the uniform function a = 1/T of the Bismut-Elworthy-Li form
(Fournie et al., 1999), T the grid's horizon.  Each batch is cut into one
slice of paths per worker thread, and at most one batch's worth of slices is
in flight; across them it holds two path-sized arrays (dW, then the dual over
it, and bh) plus the sampler's FFT scratch.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import threading
from contextlib import contextmanager
from contextvars import copy_context
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .frac_core import _CONV_ROWS, HurstParam, _causal_conv, _conv_rows, big_c_h
from .fbm import GridSpec, sample_joint_batch
from .sde import MollifiedDrift, solve_batch

__all__ = [
    "DeltaEstimate",
    "estimate_delta",
    "make_payoff",
    "PAYOFF_NAMES",
]

# Paths in flight at once: a batch is drawn, solved and weighted as one
# unit, cut into one slice per worker thread.
DEFAULT_BATCH = 4096

# Threads a batch runs on: every core in the CPU affinity mask (taskset
# narrows it).  A path is a batch of one, so this never changes a result.
try:
    _WORKERS = len(os.sched_getaffinity(0))
except AttributeError:  # no affinity API on this platform
    _WORKERS = os.cpu_count() or 1


@dataclass(frozen=True)
class DeltaEstimate:
    """Monte-Carlo delta with entrywise standard errors and run provenance."""

    mean: np.ndarray
    stderr: np.ndarray
    n_paths: int
    config_digest: str


def _dual_batch(h: HurstParam, dW: np.ndarray, grid: GridSpec):
    """The weight's dual for solve_batch, coef R, written over dW, shape (B, n, d).

    The weight pi = C_H sum_{k>=1} g(s_k) dW_k has the profile
    g(s_k) = s_k^{H-1/2} sum_{m<=k} cint[k-m] c2[m] J[m-1], where cint[j] is
    the exact cell integral of u^{-H-1/2} over [t_j, t_{j+1}], c2[m] =
    u^{1/2-H} / T at the midpoint lag u = (m-1/2) dt, and the flow J is taken
    at the left index m-1 to keep the Ito sum adapted.  Exchanging the two sums
    gives pi = sum_j coef[j] J[j] R[:, j], with coef = C_H c2 and the flow-free
    R_j = sum_{k>=j} cint[k-j] s_{k+1}^{H-1/2} dW_{k+1} (R_{n-1} = 0), an
    anti-causal correlation of dW alone.  R comes from one
    frac_core._causal_conv over the time-reversed rows, and each chunk of rows
    is scaled by coef and written back over its dW rows as it is yielded, so
    no path-sized array is added and a path's bits do not depend on its batch.

    R_j mixes every later increment, so dW is checked first: a non-finite
    increment aborts, naming its first bad batch row and that row's first bad
    step.
    """
    n = grid.n_steps
    if dW.shape[1] != n:
        raise ValueError(f"increments have {dW.shape[1]} steps, grid has {n}")
    if not np.all(np.isfinite(dW)):
        row, step, _ = np.argwhere(~np.isfinite(dW))[0]
        raise FloatingPointError(f"non-finite Wiener increment at step {step} in batch row {row}")
    t = grid.times
    e = 0.5 - h.h
    cint = (t[1:] ** e - t[:-1] ** e) / e  # exact power antiderivative per cell
    lag = (np.arange(1, n + 1) - 0.5) * grid.dt
    c2 = (1.0 / grid.horizon) * lag**e
    rev_scale = np.append(t[n - 1 : 0 : -1] ** (h.h - 0.5), 0.0)  # s_{n-1-i}^{H-1/2}, then 0
    fc = np.fft.rfft(cint, 2 * n)
    coef = big_c_h(h) * c2[: n - 1]
    for i in range(dW.shape[2]):
        for rows, y in _causal_conv(dW[:, ::-1, i], rev_scale, fc, n):
            np.multiply(y[:, : n - 1][:, ::-1], coef, out=dW[rows, : n - 1, i])
            dW[rows, n - 1, i] = 0.0
    return dW


PAYOFF_NAMES = ("identity", "call", "put", "digital")


def make_payoff(name: str, strike: float = 0.0) -> Callable[[np.ndarray], np.ndarray]:
    """Closed payoff registry: identity, call(K), put(K), digital(K).

    The returned callable maps terminal values elementwise; a 2-D (B, d)
    block of states is reduced to its first coordinate, column 0.
    """

    def first(x):
        x = np.asarray(x, dtype=float)
        return x[:, 0] if x.ndim == 2 else x

    if name == "identity":
        return first
    if name == "call":
        return lambda x: np.maximum(first(x) - strike, 0.0)
    if name == "put":
        return lambda x: np.maximum(strike - first(x), 0.0)
    if name == "digital":
        return lambda x: (first(x) > strike).astype(float)
    raise ValueError(f"unknown payoff {name!r}; choose from {PAYOFF_NAMES}")


def _fsum_cols(a: np.ndarray) -> np.ndarray:
    """Compensated, order-fixed column sums (math.fsum per column)."""
    return np.array([math.fsum(a[:, j]) for j in range(a.shape[1])])


def _mean_stderr(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = samples.shape[0]
    mean = _fsum_cols(samples) / n
    dev2 = (samples - mean) ** 2
    var = _fsum_cols(dev2) / (n - 1)
    return mean, np.sqrt(var / n)


def config_digest(*parts, unlabeled: bool = False) -> str:
    """Stable digest of a run configuration for reproducibility metadata.

    A payoff callable has no stable hash, so the payoff enters only through
    its label; a run without one gets a digest prefixed ``unlabeled-``.
    """
    text = "|".join(repr(p) for p in parts)
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    return "unlabeled-" + digest if unlabeled else digest


def _per_path(n_paths: int, block) -> list[np.ndarray]:
    """Each per-path quantity of paths 0 .. n_paths-1, as one (n_paths, d_i) array.

    ``block(start, count)`` returns one (count, d_i) array per quantity for
    paths start .. start+count-1.  Each batch of at most DEFAULT_BATCH paths
    is cut into one contiguous slice per usable core (_WORKERS).  The calling
    thread and _WORKERS - 1 worker threads take the slices of all batches in
    path order from one queue, one at a time each, so at most one batch's
    worth of paths is in flight and no slice waits for the rest of its batch.
    Each slice's rows land at their own offsets, so neither the batch size
    nor the worker count can change a bit.  Once a slice raises, no new slice
    starts; the running ones finish, and the error of the first failing slice
    in path order propagates.  One worker starts no thread.

    The slices share one _CONV_ROWS budget of FFT rows, so the scratch in
    flight does not grow with the core count.  Every thread runs in its own
    copy of the caller's context, so np.errstate reaches the worker threads
    too; block runs on several threads at once and must be thread-safe.
    """
    rows = max(1, _CONV_ROWS // _WORKERS)

    def slices():  # (start, count) in path order
        for done in range(0, n_paths, DEFAULT_BATCH):
            count = min(DEFAULT_BATCH, n_paths - done)
            size = -(-count // _WORKERS)
            for s in range(done, done + count, size):
                yield s, min(size, done + count - s)

    queue, lock = slices(), threading.Lock()
    samples, errors = [], {}

    def run_slices(task):  # runs in a copy of the caller's context
        _conv_rows.set(rows)
        while task is not None:
            start, count = task
            try:
                parts = block(start, count)
            except BaseException as err:  # raised on the calling thread below
                with lock:
                    errors[start] = err
                return
            with lock:
                if not samples:
                    samples.extend(np.empty((n_paths, q.shape[1])) for q in parts)
                for whole, q in zip(samples, parts):
                    whole[start : start + count] = q
                task = None if errors else next(queue, None)

    first = list(itertools.islice(queue, _WORKERS))  # one slice for each thread to start on
    threads = [threading.Thread(target=copy_context().run, args=(run_slices, t)) for t in first[1:]]
    for thread in threads:
        thread.start()
    try:
        copy_context().run(run_slices, first[0])
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[min(errors)]
    return samples


def _mc_mean(n_paths: int, block):
    """(mean, stderr) of each quantity of _per_path(n_paths, block), over all paths at once."""
    if n_paths < 2:
        raise ValueError("need at least 2 paths")
    return [_mean_stderr(whole) for whole in _per_path(n_paths, block)]


def _payoff_at(payoff, xt: np.ndarray):
    """payoff of the (B, d) terminal states; a one-dimensional state goes in as (B,)."""
    return payoff(xt[:, 0] if xt.shape[1] == 1 else xt)


def _weighted(payoff, xt: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """Per-path payoff(xt) * pi, (B, d), from (B, d) terminal states; NaN payoffs abort."""
    phi = np.asarray(_payoff_at(payoff, xt), dtype=float).reshape(len(pi))
    if np.any(np.isnan(phi)):
        raise FloatingPointError("payoff returned NaN")
    return phi[:, None] * pi


@contextmanager
def _replayable(master_seed: int, start: int):
    """Re-raise a FloatingPointError with master_seed and start appended.

    The batch row r that the error names is then path start + r, which the
    block at (start + r, 1) replays as its row 0.
    """
    try:
        yield
    except FloatingPointError as err:
        raise FloatingPointError(
            f"{err} (master_seed {master_seed}, batch row 0 is path {start})"
        ) from err


def _bel_block(drift, starts: np.ndarray, h, grid, master_seed, start, count):
    """Weight pi of starts[0], (count, d), and every start's X_T, (m, count, d).

    Draws paths start .. start+count-1, writes the weight's dual over dW and
    runs one Euler/flow pass that accumulates pi as it goes, as in
    estimate_delta; callers form payoff * pi with _weighted, so one pi can
    serve several payoffs and, where the flows agree, several starts.  No
    flow array is built, so past the sampler's own peak (dW, bh and its FFT
    scratch) at most two path-sized arrays (the dual over dW, and bh) are
    alive.  A kernel or weight FloatingPointError is re-raised with
    master_seed and start, so the batch row it names is path start + row.
    """
    dW, bh = sample_joint_batch(grid, h, starts.shape[1], master_seed, start, count)
    with _replayable(master_seed, start):
        ends, pi = solve_batch(drift, starts, bh, grid, dual=_dual_batch(h, dW, grid))
        return pi, ends


def estimate_delta(
    drift: MollifiedDrift,
    x0,
    payoff: Callable[[np.ndarray], np.ndarray],
    h: HurstParam,
    grid: GridSpec,
    n_paths: int,
    master_seed: int,
    payoff_label: str = "",
) -> DeltaEstimate:
    """Monte-Carlo delta of E[payoff(X_T)] in the initial state.

    Per path: joint (Wiener, fBm) sample -> dual of the increments -> Euler
    state and flow, which accumulate the weight pi, averaged with a = 1/T
    over grid's horizon T; the estimate is the sample mean of
    payoff(X_T) * pi with entrywise standard errors.  Accumulation is
    compensated and batch-order fixed, so the result depends only on
    (inputs, master_seed): DEFAULT_BATCH, the paths in flight at once,
    bounds memory and changes no bit.

    The payoff receives the (B, d) terminal-state block and must return one
    value per path; it must be square-integrable under the simulated law
    (NaNs abort).  The slices of a batch call it at once from worker threads,
    so it must be a pure, thread-safe function of its input.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))

    def block(start, count):
        pi, ends = _bel_block(drift, x0[None], h, grid, master_seed, start, count)
        return (_weighted(payoff, ends[0], pi),)

    ((mean, stderr),) = _mc_mean(n_paths, block)
    digest = config_digest(
        grid, h, master_seed, drift, x0.tolist(), payoff_label, n_paths, unlabeled=not payoff_label
    )
    return DeltaEstimate(mean=mean, stderr=stderr, n_paths=n_paths, config_digest=digest)
