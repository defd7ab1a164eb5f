"""Worker-thread invariance: a batch's path slices run on threads without changing a bit."""

import sys
import threading

import numpy as np
import pytest

from roughdelta import bel
from roughdelta.bel import _mc_mean, estimate_delta, make_payoff
from roughdelta.cli import RunConfig, run
from roughdelta.fbm import GridSpec, _normal_block
from roughdelta.fd import fd_delta, sde_payoff_runner
from roughdelta.frac_core import _CONV_ROWS, HurstParam, _conv_rows
from roughdelta.rough_vol import _sbel_block, sbel_delta
from roughdelta.sde import RegimeSwitchDrift, mollify
from test_rough_vol import _FAULT_GRID, _REPLAY, _cfg, _fault_message

H01 = HurstParam(0.1)
WORKERS = (1, 2, 3)
# (n_paths, DEFAULT_BATCH): a batch that three workers cannot split evenly and a
# last batch of one path; batches smaller than the worker count
SPLITS = ((1001, 250), (7, 2))


def _per_worker_count(monkeypatch, compute):
    """compute() under each worker count in WORKERS."""
    results = []
    for w in WORKERS:
        monkeypatch.setattr(bel, "_WORKERS", w)
        results.append(compute())
    return results


def _assert_same_bits(arrays):
    first, *rest = arrays
    for other in rest:
        assert np.asarray(other).tobytes() == np.asarray(first).tobytes()


class TestEstimators:
    @pytest.mark.parametrize("n_paths, batch", SPLITS)
    def test_estimate_delta(self, monkeypatch, n_paths, batch):
        drift = mollify(RegimeSwitchDrift(1.0, -1.0, 0.0), 0.05)
        grid = GridSpec(1.0, 32)
        payoff = make_payoff("digital", 0.2)
        monkeypatch.setattr(bel, "DEFAULT_BATCH", batch)
        ests = _per_worker_count(
            monkeypatch, lambda: estimate_delta(drift, 0.1, payoff, H01, grid, n_paths, 3)
        )
        _assert_same_bits([e.mean for e in ests])
        _assert_same_bits([e.stderr for e in ests])

    @pytest.mark.parametrize("n_paths, batch", SPLITS)
    def test_sbel_delta(self, monkeypatch, n_paths, batch):
        payoff = lambda s, sigma: np.maximum(s - 1.0, 0.0)
        monkeypatch.setattr(bel, "DEFAULT_BATCH", batch)
        ests = _per_worker_count(
            monkeypatch, lambda: sbel_delta(_cfg(gamma=0.3), payoff, GridSpec(1.0, 16), n_paths, 5)
        )
        _assert_same_bits([e.mean for e in ests])
        _assert_same_bits([e.stderr for e in ests])

    @pytest.mark.parametrize("n_paths, batch", SPLITS)
    def test_fd_delta(self, monkeypatch, n_paths, batch):
        drift = mollify(RegimeSwitchDrift(1.0, -1.0, 0.0), 0.05)
        runner = sde_payoff_runner(drift, make_payoff("call", 0.1), H01, GridSpec(1.0, 32))
        monkeypatch.setattr(bel, "DEFAULT_BATCH", batch)
        ests = _per_worker_count(monkeypatch, lambda: fd_delta(runner, 0.1, 0.1, n_paths, 8))
        _assert_same_bits([e.value for e in ests])
        _assert_same_bits([e.stderr for e in ests])


class TestCsv:
    @pytest.mark.parametrize("config", [
        dict(mode="delta-sde", steps=32, paths=1001, drift="regime:1,-1,0",
             payoff="digital", strike=0.2, x0=0.1),
        dict(mode="delta-rv", steps=32, paths=700, drift="regime:1,-1,0",
             payoff="call", strike=1.0, g_gamma=0.3),
        dict(mode="validate"),
    ], ids=lambda c: c["mode"])
    def test_csv_bytes(self, tmp_path, monkeypatch, config):
        # uneven batches in every delta pass and in validate's variance loop
        monkeypatch.setattr(bel, "DEFAULT_BATCH", 250)
        out = tmp_path / "r.csv"

        def csv_bytes():
            assert run(RunConfig(**config, seed=11, out=str(out))) in (0, 1)
            return out.read_bytes()

        first, *rest = _per_worker_count(monkeypatch, csv_bytes)
        assert all(other == first for other in rest)


class TestSlices:
    def test_one_worker_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(bel, "_WORKERS", 1)
        threads = []

        def block(start, count):
            threads.append(threading.current_thread())
            return (np.arange(start, start + count, dtype=float)[:, None],)

        monkeypatch.setattr(bel, "DEFAULT_BATCH", 4)
        ((mean, _),) = _mc_mean(10, block)
        assert mean[0] == 4.5
        assert threads == [threading.main_thread()] * 3

    @pytest.mark.parametrize("workers", [2, 3])
    def test_slices_tile_each_batch(self, monkeypatch, workers):
        monkeypatch.setattr(bel, "_WORKERS", workers)
        calls = []

        def block(start, count):
            calls.append((start, count))
            return (np.arange(start, start + count, dtype=float)[:, None],)

        monkeypatch.setattr(bel, "DEFAULT_BATCH", 5)
        ((mean, _),) = _mc_mean(11, block)
        assert mean[0] == 5.0
        size = -(-5 // workers)
        want = [(s, min(size, b + c - s)) for b, c in ((0, 5), (5, 5), (10, 1))
                for s in range(b, b + c, size)]
        assert sorted(calls) == want

    def test_first_failing_slice_in_path_order_raises(self, monkeypatch):
        monkeypatch.setattr(bel, "_WORKERS", 3)
        calls = []

        def block(start, count):
            calls.append(start)
            if start > 0:  # slices 1 and 2 of the batch fail
                raise FloatingPointError(f"slice at {start}")
            return (np.zeros((count, 1)),)

        monkeypatch.setattr(bel, "DEFAULT_BATCH", 12)
        with pytest.raises(FloatingPointError, match="^slice at 4$"):
            _mc_mean(12, block)
        assert sorted(calls) == [0, 4, 8]  # every slice ran to its end

    def test_failing_first_slice_waits_for_the_others(self, monkeypatch):
        monkeypatch.setattr(bel, "_WORKERS", 2)
        finished = []

        def block(start, count):
            if start == 0:
                raise FloatingPointError("first slice")
            finished.append(start)
            return (np.zeros((count, 1)),)

        monkeypatch.setattr(bel, "DEFAULT_BATCH", 8)
        with pytest.raises(FloatingPointError, match="^first slice$"):
            _mc_mean(8, block)
        assert finished == [4]

    @pytest.mark.parametrize("workers", [1, 2, 3, 300])
    def test_slices_share_the_fft_row_budget(self, monkeypatch, workers):
        monkeypatch.setattr(bel, "_WORKERS", workers)
        rows = []

        def block(start, count):
            rows.append(_conv_rows.get())
            return (np.zeros((count, 1)),)

        monkeypatch.setattr(bel, "DEFAULT_BATCH", 600)
        _mc_mean(600, block)
        assert rows == [max(1, _CONV_ROWS // workers)] * min(workers, 600)
        assert _conv_rows.get() == _CONV_ROWS  # restored for callers outside a batch

    def test_queue_under_thread_switching(self, monkeypatch):
        # more workers than cores take the slices of 84 batches from one queue,
        # switching as often as the interpreter allows: each slice runs once
        # and each row lands at its own offset
        monkeypatch.setattr(bel, "_WORKERS", 8)
        monkeypatch.setattr(bel, "DEFAULT_BATCH", 12)
        calls = []

        def block(start, count):
            calls.append((start, count))
            rows = np.arange(start, start + count, dtype=float)[:, None]
            return rows, rows**2

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            (first, _), (second, _) = _mc_mean(1001, block)
        finally:
            sys.setswitchinterval(interval)
        assert first[0] == 500.0 and second[0] == 333500.0
        # slices of 2 paths, and of 1 in the last batch of 5
        want = [(s, 2) for s in range(0, 996, 2)] + [(s, 1) for s in range(996, 1001)]
        assert sorted(calls) == want

    def test_slices_see_the_callers_errstate(self, monkeypatch):
        monkeypatch.setattr(bel, "_WORKERS", 3)
        seen = []

        def block(start, count):
            seen.append((threading.current_thread() is threading.main_thread(), np.geterr()["over"]))
            return (np.zeros((count, 1)),)

        monkeypatch.setattr(bel, "DEFAULT_BATCH", 9)
        with np.errstate(over="raise"):
            _mc_mean(9, block)
        assert sorted(seen) == [(False, "raise"), (False, "raise"), (True, "raise")]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow, inf - inf past the fault
@pytest.mark.parametrize("case", ["kernel", "weight", "stock", "guard"])
def test_fault_in_second_slice_names_its_path(monkeypatch, case):
    # two workers cut the batch of paths 0 .. 63 at 32, and each fault sits
    # in one path at or past 32; the block at (path, 1) replays it
    monkeypatch.setattr(bel, "_WORKERS", 2)
    monkeypatch.setattr(bel, "DEFAULT_BATCH", 64)
    seed, cfg, path, msg = _fault_message(case)
    msg += _REPLAY
    payoff = lambda s, sigma: s
    with pytest.raises(FloatingPointError, match=msg.format(row=path - 32, seed=seed, start=32)):
        sbel_delta(cfg, payoff, _FAULT_GRID, 64, seed)
    with pytest.raises(FloatingPointError, match=msg.format(row=0, seed=seed, start=path)):
        _sbel_block(cfg, payoff, _FAULT_GRID, seed, path, 1)


def test_normal_block_concurrent_disjoint_ranges():
    # more threads than cores, switching as often as the interpreter allows
    whole = _normal_block(9, 0, 600, (64, 2), 1)
    got = {}
    barrier = threading.Barrier(4)

    def draw(start):
        barrier.wait()
        got[start] = _normal_block(9, start, 150, (64, 2), 1)

    threads = [threading.Thread(target=draw, args=(s,)) for s in range(0, 600, 150)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert np.concatenate([got[s] for s in range(0, 600, 150)]).tobytes() == whole.tobytes()
