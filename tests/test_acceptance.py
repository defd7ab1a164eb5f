"""Acceptance suite: one test per criterion, each emitting one pass/fail line.

Every estimate is compared against an independent target: an analytic value,
a quadrature, or a common-random-numbers finite-difference run.  Statistical
checks use the stated standard-error multiples; deterministic checks use the
stated absolute or relative tolerances.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import roughdelta
from roughdelta.bel import (
    _bel_block, _mc_mean, _payoff_at, _weighted, estimate_delta, make_payoff,
)
from roughdelta.fbm import (
    GridSpec,
    covariance_report,
    sample_cholesky_batch,
    sample_joint_batch,
)
from roughdelta.fd import (
    _central,
    _central_diffs,
    gaussian_digital_delta,
    rv_payoff_runner,
)
from roughdelta.frac_core import (
    FracOrder,
    HurstParam,
    SampledFunction,
    cov_rh,
    frac_deriv_left,
    frac_int_left,
    kernel_kh,
    shuffle_check,
)
from roughdelta.girsanov import girsanov_xi_batch, reweighted_expectation
from roughdelta.rough_vol import RVConfig, VolMap, _sbel_block, sbel_delta
from roughdelta.sde import (
    LinearDrift,
    RegimeSwitchDrift,
    ZeroDrift,
    mollify,
    solve_batch,
)
from test_sde import stream_path

H01 = HurstParam(0.1)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} — {detail}")


def test_01_cholesky_covariance_fidelity():
    """Exact-covariance sampler: h=0.1, N=64, 20k paths, within 5 se, <1 min."""
    start = time.monotonic()
    grid = GridSpec(1.0, 64)
    vals = sample_cholesky_batch(grid, H01, 20240101, 0, 20000)
    rep = covariance_report(vals[:, 1:], grid.times[1:], H01)
    elapsed = time.monotonic() - start
    ok = rep.max_deviation_se <= 5.0 and elapsed <= 60.0
    _report(
        "1-cholesky-covariance",
        ok,
        f"max deviation {rep.max_deviation_se:.2f} se (limit 5), {elapsed:.1f}s",
    )
    assert rep.max_deviation_se <= 5.0
    assert elapsed <= 60.0


def test_02_volterra_variance_and_kernel_identity():
    """Volterra terminal variance within 2% of T^{2H}; kernel identity 1e-3."""
    msgs = []
    ok = True
    grid = GridSpec(1.0, 512)
    for hv in (0.05, 0.1):
        h = HurstParam(hv)
        _, bh = sample_joint_batch(grid, h, 1, 7, 0, 20000)
        v = float(np.var(bh[:, -1, 0], ddof=1))
        rel = abs(v - 1.0)  # T = 1 so T^{2H} = 1
        ok &= rel <= 0.02 + 2.0 * math.sqrt(2.0 / 20000)  # sampling slack: 2 sd of a
        # sample variance of 20k Gaussians
        msgs.append(f"h={hv}: var {v:.4f} (target 1, rel {rel:.4f})")
        assert rel <= 0.02 + 2.0 * math.sqrt(2.0 / 20000)

    for t, s in ((1.0, 1.0), (1.0, 0.5), (0.7, 0.3)):
        hi = min(t, s)
        val, _ = quad(
            lambda u: kernel_kh(H01, t, u) * kernel_kh(H01, s, u)
            if t != s
            else kernel_kh(H01, t, u) ** 2,
            1e-13,
            hi * (1.0 - 1e-12),
            limit=400,
        )
        target = cov_rh(H01, t, s)
        rel = abs(val - target) / abs(target)
        ok &= rel <= 1e-3
        msgs.append(f"K*K({t},{s}) rel err {rel:.2e}")
        assert rel <= 1e-3
    _report("2-volterra-representation", ok, "; ".join(msgs))


def test_03_fractional_operators():
    """I^alpha of 1 to 1e-8; semigroup to 1e-6; D o I = id to 1e-4; N=1024."""
    x = np.linspace(0.0, 1.0, 1025)
    f = SampledFunction(x, np.sin(x))
    msgs = []
    for alpha in (0.25, 0.4):
        o = FracOrder(alpha)
        const = frac_int_left(o, SampledFunction(x, np.ones_like(x)), 0.0)
        e1 = float(np.max(np.abs(const.values - x**alpha / math.gamma(1 + alpha))))
        assert e1 <= 1e-8

        back = frac_deriv_left(o, frac_int_left(o, f, 0.0), 0.0)
        e3 = float(np.max(np.abs(back.values[1:] - f.values[1:])))
        assert e3 <= 1e-4
        msgs.append(f"a={alpha}: const {e1:.1e}, inversion {e3:.1e}")

    # semigroup across the two listed orders: I^0.25 I^0.4 = I^0.65, both ways
    direct = frac_int_left(FracOrder(0.65), f, 0.0)
    for a, b in ((0.25, 0.4), (0.4, 0.25)):
        semi = frac_int_left(FracOrder(b), frac_int_left(FracOrder(a), f, 0.0), 0.0)
        e2 = float(np.max(np.abs(semi.values - direct.values)))
        assert e2 <= 1e-6
        msgs.append(f"semigroup {a}+{b}: {e2:.1e}")
    _report("3-fractional-operators", True, "; ".join(msgs))


def test_04_shuffle_identity():
    """|lhs - rhs| <= 1e-8 at N=2048 for three integrand pairs."""
    x = np.linspace(0.0, 1.0, 2049)
    pairs = {
        "(s, 1)": (x, np.ones_like(x)),
        "(sin, cos)": (np.sin(x), np.cos(x)),
        "(exp(-s), s^2)": (np.exp(-x), x**2),
    }
    msgs = []
    for name, (v1, v2) in pairs.items():
        lhs, rhs = shuffle_check(
            SampledFunction(x, v1), SampledFunction(x, v2), 0.0, 1.0
        )
        err = abs(lhs - rhs)
        assert err <= 1e-8
        msgs.append(f"{name}: {err:.1e}")
    _report("4-shuffle-identity", True, "; ".join(msgs))


def test_05_gaussian_case_deltas():
    """Zero drift, h=0.1, N=256, 1e5 paths: identity delta = 1 and digital
    delta = closed form, both within 3 se; < 5 min."""
    start = time.monotonic()
    grid = GridSpec(1.0, 256)
    zero = mollify(ZeroDrift(), 0.05)
    est_id = estimate_delta(zero, 0.0, make_payoff("identity"), H01, grid, 100000, 11)
    dev_id = abs(est_id.mean[0] - 1.0) / est_id.stderr[0]

    x0, strike = 0.1, 0.3
    est_dig = estimate_delta(zero, x0, make_payoff("digital", strike), H01, grid, 100000, 13)
    target = gaussian_digital_delta(x0, strike, 1.0, H01)
    dev_dig = abs(est_dig.mean[0] - target) / est_dig.stderr[0]
    elapsed = time.monotonic() - start
    ok = dev_id <= 3.0 and dev_dig <= 3.0 and elapsed <= 300.0
    _report(
        "5-gaussian-deltas",
        ok,
        f"identity {est_id.mean[0]:.4f}±{est_id.stderr[0]:.4f} ({dev_id:.2f} se);"
        f" digital {est_dig.mean[0]:.4f} vs {target:.4f} ({dev_dig:.2f} se);"
        f" {elapsed:.0f}s",
    )
    assert dev_id <= 3.0
    assert dev_dig <= 3.0
    assert elapsed <= 300.0


def test_06_singular_drift_vs_fd_oracle():
    """Mollified RegimeSwitch(1,-1,0), eps=0.05, call payoff: weight-based
    delta vs paired finite differences within 3 paired se at 1e5 paths.

    As in delta-sde, each batch is drawn once and one solve advances x0 and
    x0 +- bump, so BEL and FD keep the bits of separate estimate_delta and
    fd_delta(sde_payoff_runner(...)) runs, and the gap's stderr is that of
    the per-path differences."""
    grid = GridSpec(1.0, 256)
    drift = mollify(RegimeSwitchDrift(1.0, -1.0, 0.0), 0.05)
    payoff = make_payoff("call", 0.2)
    x0, bump = 0.1, 0.05
    starts = np.array([[x0], [x0 + bump], [x0 - bump]])

    def block(start, count):
        pi, ends = _bel_block(drift, starts, H01, grid, 21, start, count)
        bel = _weighted(payoff, ends[0], pi)
        fd = _central(*(_payoff_at(payoff, xt) for xt in ends[1:]), bump)[:, None]
        return bel, fd, bel - fd

    (bel, bel_se), (fd, fd_se), (gap, gap_se) = _mc_mean(100000, block)
    gap, tol = abs(gap[0]), 3.0 * gap_se[0]
    ok = gap <= tol
    _report(
        "6-singular-drift-delta",
        ok,
        f"weights {bel[0]:.4f}±{bel_se[0]:.4f} vs fd {fd[0]:.4f}"
        f"±{fd_se[0]:.4f}, gap {gap:.4f} <= {tol:.4f}",
    )
    assert gap <= tol


def test_07_flow_accuracy():
    """Linear(0.5) drift, N=1024: J_T vs e^{0.5} and pathwise FD, both 1e-2."""
    lam = 0.5
    grid = GridSpec(1.0, 1024)
    m = mollify(LinearDrift(lam), 0.05)
    _, bh = sample_joint_batch(grid, H01, 1, 31, 0, 1)  # path 0 as a batch of one
    bump = 1e-5
    starts = [[0.2], [0.2 + bump], [0.2 - bump]]
    _, jac = stream_path(m, starts, bh, grid)
    ends, _ = solve_batch(m, starts, bh, grid)
    jac_T = jac[0, -1, 0]
    rel = abs(jac_T - math.exp(lam)) / math.exp(lam)

    fd = (ends[1, 0, 0] - ends[2, 0, 0]) / (2 * bump)
    fd_gap = abs(jac_T - fd)
    ok = rel <= 1e-2 and fd_gap <= 1e-2
    _report(
        "7-flow",
        ok,
        f"J_T {jac_T:.5f} vs e^0.5 {math.exp(lam):.5f} (rel {rel:.1e});"
        f" pathwise fd gap {fd_gap:.1e}",
    )
    assert rel <= 1e-2
    assert fd_gap <= 1e-2


def test_08_girsanov():
    """E[xi]=1 within 3 se for a bounded regime-switch drift at 1e5 paths;
    reweighted expectation matches direct simulation within 3 combined se."""
    grid = GridSpec(1.0, 128)
    dW, bh = sample_joint_batch(grid, H01, 1, 41, 0, 100000)
    drift = RegimeSwitchDrift(0.5, -0.5)
    xi = np.exp(girsanov_xi_batch(H01, drift, bh[:, :, 0], dW[:, :, 0], grid, 0.0))
    se = xi.std(ddof=1) / math.sqrt(len(xi))
    dev = abs(xi.mean() - 1.0) / se

    mol = mollify(drift, 0.05)
    f = lambda x: np.maximum(x - 0.2, 0.0)
    _, xif = reweighted_expectation(
        H01, mol, f, bh[:, :, 0], dW[:, :, 0], grid, 0.3
    )
    ends, _ = solve_batch(mol, [[0.3]], bh, grid)
    xt = ends[0, :, 0]
    direct = f(xt)
    gap = abs(xif.mean() - direct.mean())
    combined = math.hypot(
        xif.std(ddof=1) / math.sqrt(len(xif)),
        direct.std(ddof=1) / math.sqrt(len(direct)),
    )
    ok = dev <= 3.0 and gap <= 3.0 * combined
    _report(
        "8-girsanov",
        ok,
        f"E[xi] {xi.mean():.4f} ({dev:.2f} se); reweighting gap {gap:.4f}"
        f" <= {3 * combined:.4f}",
    )
    assert dev <= 3.0
    assert gap <= 3.0 * combined


def test_09_rough_vol():
    """Two-factor model at 1e5 paths, N=256: delta_x1 = e^mu for the linear
    payoff; gamma=0 kills delta_x2; call deltas match the FD oracle within 3
    paired se; <10 min.

    BEL and the FD oracle run on the same slices of paths in one pass, so
    each keeps the bits of its own sbel_delta or fd_delta run and each gap's
    stderr is that of the per-path differences."""
    start = time.monotonic()
    grid = GridSpec(1.0, 256)
    vol_drift = mollify(RegimeSwitchDrift(1.0, -1.0, 0.0), 0.05)

    cfg0 = RVConfig(
        mu=0.05, g=VolMap(0.2, 0.0), vol_drift=vol_drift, x1=1.0, x2=0.0, h=H01
    )
    est0 = sbel_delta(cfg0, lambda s, sig: s, grid, 100000, 51)
    dev_x1 = abs(est0.mean[0] - math.exp(0.05)) / est0.stderr[0]
    dev_x2 = abs(est0.mean[1]) / est0.stderr[1] if est0.stderr[1] > 0 else 0.0

    cfg = RVConfig(
        mu=0.05, g=VolMap(0.2, 0.3), vol_drift=vol_drift, x1=1.0, x2=0.0, h=H01
    )
    strike = 1.0
    call = lambda s, sig: np.maximum(s - strike, 0.0)
    runner = rv_payoff_runner(cfg, call, grid)

    def block(start, count):
        (bel,) = _sbel_block(cfg, call, grid, 53, start, count)
        fd = _central_diffs(lambda x: runner(x, 53, start, count), np.array([1.0, 0.0]), 0.02)
        return bel, fd, bel - fd

    _, _, (gap, gap_se) = _mc_mean(100000, block)
    gaps, tols = np.abs(gap), 3.0 * gap_se
    elapsed = time.monotonic() - start
    ok = dev_x1 <= 3.0 and dev_x2 <= 3.0 and np.all(gaps <= tols) and elapsed <= 600.0
    _report(
        "9-rough-vol",
        ok,
        f"delta_x1 {est0.mean[0]:.4f} vs {math.exp(0.05):.4f} ({dev_x1:.2f} se);"
        f" gamma=0 delta_x2 ({dev_x2:.2f} se);"
        f" call vs fd gaps {gaps[0]:.4f}/{gaps[1]:.4f}"
        f" <= {tols[0]:.4f}/{tols[1]:.4f}; {elapsed:.0f}s",
    )
    assert dev_x1 <= 3.0
    assert dev_x2 <= 3.0
    assert np.all(gaps <= tols)
    assert elapsed <= 600.0


def test_10_reproducibility(tmp_path):
    """Identical (config, seed) gives bit-identical CSV; thread counts only
    perturb results at summation-rounding scale.

    Each run is a fresh CLI process whose BLAS pool size is set before start
    through OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS (1, 1,
    then 2).  The child imports the same roughdelta package as this process.
    """
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "mode=delta-sde\nhurst=0.1\nhorizon=1.0\nsteps=64\npaths=4000\nseed=17\n"
        "drift=regime:1,-1,0\nepsilon=0.05\npayoff=call\nstrike=0.2\nx0=0.1\n"
    )

    src_dir = str(Path(roughdelta.__file__).parents[1])
    pythonpath = os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")]))

    def run_cli(out, threads):
        env = {**os.environ, "PYTHONPATH": pythonpath}  # PYTHONDONTWRITEBYTECODE too
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(threads)
        r = subprocess.run(
            [sys.executable, "-m", "roughdelta.cli", "--config", str(cfg), "--out", str(out)],
            capture_output=True,
            text=True,
            env=env,
            cwd=tmp_path,
        )
        assert r.returncode == 0, r.stderr
        return out.read_bytes()

    a = run_cli(tmp_path / "a.csv", 1)
    b = run_cli(tmp_path / "b.csv", 1)
    bit_identical = a == b

    c = run_cli(tmp_path / "c.csv", 2)
    import csv as _csv
    import io

    def estimates(raw):
        rows = list(_csv.DictReader(io.StringIO(raw.decode())))
        return np.array([float(r["estimate"]) for r in rows])

    drift = np.max(np.abs(estimates(a) - estimates(c)))
    ok = bit_identical and drift <= 1e-12
    _report(
        "10-reproducibility",
        ok,
        f"same-thread CSVs identical: {bit_identical}; cross-thread estimate"
        f" drift {drift:.1e}",
    )
    assert bit_identical
    assert drift <= 1e-12
