"""Batch command line: configure, run, validate, and export results as CSV.

Runs are driven by a flat ``key=value`` config file, with every flag able to
override a file entry.  Each run writes one results CSV (header: quantity,
component, estimate, stderr, n_paths, target, tolerance, pass) and one fully
resolved config file next to it, so any result can be reproduced from its
own output directory.
"""

from __future__ import annotations

import argparse
import csv
import math
import re
import sys
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .frac_core import (
    FracOrder,
    HurstParam,
    SampledFunction,
    cov_rh,
    frac_int_left,
    kernel_kh,
    shuffle_check,
)
from .fbm import (
    GridSpec,
    covariance_report,
    sample_cholesky_batch,
    sample_joint_batch,
)
from .sde import (
    DriftSpec,
    LinearDrift,
    MollifiedDrift,
    RegimeSwitchDrift,
    RegimeSwitchOUDrift,
    ZeroDrift,
    default_epsilon,
    mollify,
    solve_batch,
)
from .bel import PAYOFF_NAMES, _bel_block, _dual_batch, _mc_mean, _mean_stderr, _payoff_at
from .bel import _per_path, _replayable, _weighted, make_payoff
from .rough_vol import RVConfig, VolMap, sbel_delta
from .girsanov import girsanov_xi_batch
from .fd import _central, gaussian_digital_delta

__all__ = ["RunConfig", "main", "run"]

MODES = ("paths", "delta-sde", "delta-rv", "validate")


@dataclass
class RunConfig:
    """Fully resolved run parameters; field names match the config-file keys."""

    mode: str = "validate"
    hurst: float = 0.1
    horizon: float = 1.0
    steps: int = 256
    paths: int = 10000
    seed: int = 0
    drift: str = "zero"
    epsilon: float = 0.0  # 0 means: use the grid-coupled default
    payoff: str = "identity"
    strike: float = 0.0
    x0: float = 0.0
    x1: float = 1.0
    x2: float = 0.0
    mu: float = 0.05
    g_alpha: float = 0.2
    g_gamma: float = 0.0
    out: str = "results.csv"

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.paths < 2:
            raise ValueError("paths must be at least 2")
        if self.payoff not in PAYOFF_NAMES:
            raise ValueError(f"payoff must be one of {PAYOFF_NAMES}")


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
_COMMENT = re.compile(r"(?:^|\s)#")


def _strip_comment(line: str) -> str:
    """The line up to a '#' that starts it or follows whitespace, stripped."""
    return _COMMENT.split(line, maxsplit=1)[0].strip()


def _key_to_field(key: str) -> str:
    return key.replace("-", "_")


def parse_config_file(path: str) -> dict:
    """Flat key=value parser; blank lines and '#' comments allowed.

    A comment starts at a '#' at the start of a line or after whitespace, so
    a value may contain '#' (``out=/tmp/hash#dir/r.csv``).  Raises ValueError
    with the offending line number on malformed input.
    """
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = _strip_comment(raw)
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, _, value = line.partition("=")
            field = _key_to_field(key.strip())
            if field not in _FIELD_TYPES:
                raise ValueError(f"{path}:{lineno}: unknown key {key.strip()!r}")
            out[field] = value.strip()
    return out


def _coerce(field: str, value: str):
    kind = _FIELD_TYPES[field]
    try:
        if kind in ("int", int):
            return int(value)
        if kind in ("float", float):
            return float(value)
        return value
    except ValueError as exc:
        raise ValueError(f"bad value for {field}: {value!r}") from exc


def parse_drift(text: str) -> DriftSpec:
    """Drift grammar: zero | linear:lam | regime:b1,b2[,R] | regimeou:a1,a2,R,level."""
    name, _, rest = text.partition(":")
    args = [float(a) for a in rest.split(",")] if rest else []
    if name == "zero":
        return ZeroDrift()
    if name == "linear":
        if len(args) != 1:
            raise ValueError("linear drift needs one parameter, e.g. linear:0.5")
        return LinearDrift(args[0])
    if name == "regime":
        if len(args) == 2:
            return RegimeSwitchDrift(args[0], args[1])
        if len(args) == 3:
            return RegimeSwitchDrift(args[0], args[1], args[2])
        raise ValueError("regime drift needs b1,b2[,threshold], e.g. regime:1,-1,0")
    if name == "regimeou":
        if len(args) != 4:
            raise ValueError("regimeou drift needs a1,a2,threshold,level")
        return RegimeSwitchOUDrift(args[0], args[1], args[2], args[3])
    raise ValueError(f"unknown drift {name!r}")


def _advisory(h: HurstParam, d: int) -> Optional[str]:
    if not h.strong_solution_valid(d):
        return (
            f"advisory: h={h.h} is at or above the strong-solution threshold"
            f" 1/(2(d+2)) — outside proven validity for d={d}; the formula is"
            " computed anyway"
        )
    if not h.continuous_version_valid(d):
        return (
            f"note: h={h.h} is at or above the continuous-version threshold"
            f" 1/(2(d+3)) — strong solutions hold for d={d} but path-continuity"
            " guarantees are weaker"
        )
    return None


ROW_HEADER = (
    "quantity",
    "component",
    "estimate",
    "stderr",
    "n_paths",
    "target",
    "tolerance",
    "pass",
)


def _row(quantity, component, estimate, stderr, n_paths, target=None, tol=None):
    ok = ""
    if target is not None and tol is not None:
        ok = str(abs(estimate - target) <= tol)
    return (
        quantity,
        str(component),
        repr(float(estimate)),
        repr(float(stderr)) if stderr is not None else "",
        str(n_paths),
        repr(float(target)) if target is not None else "",
        repr(float(tol)) if tol is not None else "",
        ok,
    )


def _write_rows(path: str, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ROW_HEADER)
        writer.writerows(rows)


def _write_resolved(cfg: RunConfig) -> None:
    """Write cfg as a config file that parse_config_file reads back to the same values.

    Raises ValueError, before writing, on a value that would not round trip:
    one with a line break, surrounding blanks, or a '#' after whitespace.
    """
    lines = []
    for f in fields(RunConfig):
        key, text = f.name.replace("_", "-"), str(getattr(cfg, f.name))
        line = f"{key}={text}"
        if "\n" in text or "\r" in text or _strip_comment(line).partition("=")[2].strip() != text:
            raise ValueError(f"{f.name} value {text!r} cannot round trip through a config file")
        lines.append(line + "\n")
    with open(cfg.out + ".config", "w") as fh:
        fh.writelines(lines)


def _resolved_drift(cfg: RunConfig, grid: GridSpec, h: HurstParam) -> MollifiedDrift:
    base = parse_drift(cfg.drift)
    eps = cfg.epsilon if cfg.epsilon > 0 else default_epsilon(grid, h)
    return mollify(base, eps)


def _run_paths(cfg: RunConfig, grid: GridSpec, h: HurstParam) -> int:
    dW, bh = sample_joint_batch(grid, h, 1, cfg.seed, 0, cfg.paths)
    with open(cfg.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("path_index", "k", "t_k", "dW", "bh"))
        t = grid.times
        for p in range(cfg.paths):
            for k in range(grid.n_steps + 1):
                dw = repr(float(dW[p, k, 0])) if k < grid.n_steps else ""
                writer.writerow((p, k, repr(float(t[k])), dw, repr(float(bh[p, k, 0]))))
    return 0


def _run_delta_sde(cfg: RunConfig, grid: GridSpec, h: HurstParam) -> int:
    """Weight delta and CRN finite-difference oracle from one draw per batch.

    BEL and both FD sides share each batch's (dW, bh), and one Euler pass
    advances x0 and x0 +- bump together, giving the bits of separate
    estimate_delta and fd_delta(sde_payoff_runner(...)) runs.  Because they
    share paths, bel_fd_gap is the mean of the per-path differences bel - fd,
    with their paired stderr.
    """
    drift = _resolved_drift(cfg, grid, h)
    payoff = make_payoff(cfg.payoff, cfg.strike)
    x0 = np.array([cfg.x0])
    bump = 0.1 * cfg.horizon**h.h
    starts = np.stack([x0, x0 + bump, x0 - bump])

    def block(start, count):
        pi, ends = _bel_block(drift, starts, h, grid, cfg.seed, start, count)
        bel = _weighted(payoff, ends[0], pi)
        up, dn = (_payoff_at(payoff, xt) for xt in ends[1:])
        fd = _central(up, dn, bump)[:, None]
        return bel, fd, bel - fd

    (bel_mean, bel_se), (fd_mean, fd_se), (gap, gap_se) = _mc_mean(cfg.paths, block)
    rows = [
        _row("delta_bel", 0, bel_mean[0], bel_se[0], cfg.paths),
        _row("delta_fd", 0, fd_mean[0], fd_se[0], cfg.paths),
        _row("bel_fd_gap", 0, abs(gap[0]), gap_se[0], cfg.paths, target=0.0, tol=3 * gap_se[0]),
    ]
    _write_rows(cfg.out, rows)
    return 0


def _run_delta_rv(cfg: RunConfig, grid: GridSpec, h: HurstParam) -> int:
    drift = _resolved_drift(cfg, grid, h)
    g = VolMap(cfg.g_alpha, cfg.g_gamma)
    model = RVConfig(mu=cfg.mu, g=g, vol_drift=drift, x1=cfg.x1, x2=cfg.x2, h=h)
    scalar = make_payoff(cfg.payoff, cfg.strike)
    est = sbel_delta(
        model, lambda s, sigma: scalar(s), grid, cfg.paths, cfg.seed, payoff_label=cfg.payoff
    )
    rows = [
        _row("delta_rv", "x1", est.mean[0], est.stderr[0], est.n_paths),
        _row("delta_rv", "x2", est.mean[1], est.stderr[1], est.n_paths),
    ]
    _write_rows(cfg.out, rows)
    return 0


def _validate_rows(cfg: RunConfig):
    """Desk-scale property suite; every row carries a target and tolerance.

    Every sampled row runs on bel._per_path's worker slices: volterra_var,
    and girsanov_mean with both gaussian_delta rows in one pass that draws
    each path once (see the comment there).
    """
    rows = []
    h = HurstParam(0.1)

    # Exact-covariance sampler against the analytic covariance.
    grid = GridSpec(1.0, 32)
    vals = sample_cholesky_batch(grid, h, cfg.seed, 0, 4000)
    dev = covariance_report(vals[:, 1:], grid.times[1:], h).max_deviation_se
    rows.append(_row("cholesky_cov_max_dev", "se_units", dev, None, 4000, target=0.0, tol=5.0))

    # Volterra sampler terminal variance against T^{2H}; only the terminal
    # values outlive their slice.
    grid = GridSpec(1.0, 256)
    (ends,) = _per_path(
        8000, lambda s, c: (sample_joint_batch(grid, h, 1, cfg.seed, s, c)[1][:, -1],)
    )
    v = float(np.var(ends[:, 0], ddof=1))
    rows.append(_row("volterra_var", "T", v, None, 8000, target=1.0, tol=0.05))

    # Kernel reproduces the covariance: int_0^s K(t,u)K(s,u)du = R(t,s).
    from scipy.integrate import quad

    for t, s in ((1.0, 0.5), (0.7, 0.3)):
        val, _ = quad(lambda u: kernel_kh(h, t, u) * kernel_kh(h, s, u), 0, s, limit=200)
        target = cov_rh(h, t, s)
        rows.append(
            _row("kernel_identity", f"{t},{s}", val, None, 0, target=target, tol=1e-3 * abs(target))
        )

    # Fractional integral of a constant has a closed form.
    n = 512
    x = np.linspace(0.0, 1.0, n + 1)
    alpha = FracOrder(0.25)
    out = frac_int_left(alpha, SampledFunction(x, np.ones(n + 1)), 0.0)
    err = float(np.max(np.abs(out.values - x**0.25 / math.gamma(1.25))))
    rows.append(_row("frac_int_const", "max_abs_err", err, None, 0, target=0.0, tol=1e-8))

    # Iterated-integral shuffle identity.
    f1 = SampledFunction(x, x)
    f2 = SampledFunction(x, np.ones(n + 1))
    lhs, rhs = shuffle_check(f1, f2, 0.0, 1.0)
    rows.append(_row("shuffle_identity", "(s,1)", lhs - rhs, None, 0, target=0.0, tol=1e-8))

    # One pass over paths 0 .. 19999 of the N = 128 stream, each slice drawn
    # once.  The Girsanov density has unit mean for a bounded drift: xi of
    # paths 0 .. 7999 is formed from the slice's (dW, bh) before the weight's
    # dual is written over dW.  Zero-drift Gaussian deltas: identity payoff
    # from x0 = 0, digital from x0 = 0.1, sharing one solve from both starts
    # and one weight.  Sharing pi is exact: ZeroDrift.derivative is 0, so every
    # start's flow is 1.0 bit for bit, and each row has the bits of its own
    # estimate_delta call.
    grid = GridSpec(1.0, 128)
    bounded = RegimeSwitchDrift(0.5, -0.5)
    zero = mollify(ZeroDrift(), default_epsilon(grid, h))
    identity, digital = make_payoff("identity"), make_payoff("digital", 0.3)
    starts = np.array([[0.0], [0.1]])

    def block(start, count):
        dW, bh = sample_joint_batch(grid, h, 1, cfg.seed, start, count)
        m = max(0, min(count, 8000 - start))  # rows of the paths below 8000
        xi = np.full((count, 1), np.nan)  # the other rows carry no xi
        with _replayable(cfg.seed, start):
            if m:
                log_xi = girsanov_xi_batch(h, bounded, bh[:m, :, 0], dW[:m, :, 0], grid, 0.0)
                xi[:m, 0] = np.exp(log_xi)
            ends, pi = solve_batch(zero, starts, bh, grid, dual=_dual_batch(h, dW, grid))
        return _weighted(identity, ends[0], pi), _weighted(digital, ends[1], pi), xi

    *deltas, xi = _per_path(20000, block)
    xi = xi[:8000, 0]
    se = float(np.std(xi, ddof=1) / math.sqrt(len(xi)))
    rows.append(_row("girsanov_mean", "xi", float(np.mean(xi)), se, 8000, target=1.0, tol=5 * se))
    targets = {"identity": 1.0, "digital": gaussian_digital_delta(0.1, 0.3, 1.0, h)}
    for (name, target), (mean, se) in zip(targets.items(), map(_mean_stderr, deltas)):
        rows.append(
            _row("gaussian_delta", name, mean[0], se[0], 20000, target=target, tol=5 * se[0])
        )
    return rows


def _run_validate(cfg: RunConfig) -> int:
    rows = _validate_rows(cfg)
    _write_rows(cfg.out, rows)
    failed = [r for r in rows if r[-1] == "False"]
    for r in rows:
        status = "ok" if r[-1] != "False" else "FAIL"
        print(f"{status:4s} {r[0]} [{r[1]}] estimate={r[2]} target={r[5]} tol={r[6]}")
    return 1 if failed else 0


def run(cfg: RunConfig) -> int:
    """Execute one run; returns the process exit status."""
    cfg.validate()
    h = HurstParam(cfg.hurst)
    grid = GridSpec(cfg.horizon, cfg.steps)
    d = 1  # state dimension of every CLI-reachable model
    note = _advisory(h, d)
    if note:
        print(note)
    if cfg.epsilon <= 0:
        cfg.epsilon = default_epsilon(grid, h)
    _write_resolved(cfg)
    if cfg.mode == "paths":
        return _run_paths(cfg, grid, h)
    if cfg.mode == "delta-sde":
        return _run_delta_sde(cfg, grid, h)
    if cfg.mode == "delta-rv":
        return _run_delta_rv(cfg, grid, h)
    return _run_validate(cfg)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="roughdelta",
        description="Monte-Carlo deltas for SDEs driven by rough fractional noise.",
    )
    p.add_argument("--config", metavar="FILE", help="flat key=value config file")
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--hurst", type=float)
    p.add_argument("--horizon", type=float)
    p.add_argument("--steps", type=int)
    p.add_argument("--paths", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--drift", help="zero | linear:lam | regime:b1,b2[,R] | regimeou:a1,a2,R,level")
    p.add_argument("--epsilon", type=float, help="mollifier width; 0 = grid default")
    p.add_argument("--payoff", choices=PAYOFF_NAMES)
    p.add_argument("--strike", type=float)
    p.add_argument("--x0", type=float)
    p.add_argument("--x1", type=float)
    p.add_argument("--x2", type=float)
    p.add_argument("--mu", type=float)
    p.add_argument("--g-alpha", dest="g_alpha", type=float)
    p.add_argument("--g-gamma", dest="g_gamma", type=float)
    p.add_argument("--out")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = RunConfig()
    try:
        if args.config:
            for field, raw in parse_config_file(args.config).items():
                setattr(cfg, field, _coerce(field, raw))
        for f in fields(RunConfig):
            v = getattr(args, f.name, None)
            if v is not None:
                setattr(cfg, f.name, v)
        return run(cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FloatingPointError as exc:  # a numerical fault, named with its replay address
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
