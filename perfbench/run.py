"""Benchmark of the roughdelta command-line runs, measured in-process.

    python3 perfbench/run.py --workload rv-n256 --seed 1 --seconds 25 --trace 0

One caller in one process issues ``roughdelta.cli.run(cfg)`` calls in a
closed loop: each call starts only after the previous one returned.  The
workload seed becomes ``RunConfig.seed`` of the first two calls; every later
pair of calls gets a seed derived from it (see ``Caller.seed``).  The package
sees only the config.

``--trace 0`` reports the end-to-end metrics: an untimed warm-up call, then
timed calls until ``--seconds`` have passed, plus the set-up time of fresh
processes.  ``--trace 1`` reports per-layer busy/self times and computed work
counts from a separate run in which traced and untraced calls alternate.

Every call is checked (see ``check_csv``); the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  A run
manifest (versions, thread environment, source size, CSV hash) is printed on
the line before it and written, with the spans of a traced run, to
``perfbench/out/``.  The exit status is 0 when the run completed, even if a
check failed; it is 2 when the run could not start.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

COMMON = dict(hurst=0.1, horizon=1.0, drift="regime:1,-1,0", epsilon=0.0)

# mode-specific RunConfig fields, the weight-matrix grids set-up builds, and why.
# A delta-sde run at N = 256 (the RNG-bound FD case) is left out: with it, four
# workloads leave runs too short to be steady on a shared 2-core host, and its
# layers are measured here too (RNG and Euler/flow loops at N = 256 on rv-n256,
# the FD oracle and weight on sde-n1024).
WORKLOADS = {
    "sde-n1024": dict(
        config=dict(
            mode="delta-sde", steps=1024, paths=4096,
            payoff="digital", strike=0.2, x0=0.1,
        ),
        grids=(1024,),
        why="O(N^2) fBm convolution and weight profile dominate and the cold "
        "weight build dominates set-up; the bypass case for RNG and loop changes",
    ),
    "rv-n256": dict(
        config=dict(
            mode="delta-rv", steps=256, paths=16384, payoff="call", strike=1.0,
            x1=1.0, x2=0.0, mu=0.05, g_alpha=0.2, g_gamma=0.3,
        ),
        grids=(256,),
        why="RNG- and loop-bound at N = 256: two random streams per path, the "
        "Wiener increment sampler, Euler/flow and the Python stock loop of rough_vol",
    ),
    "validate": dict(
        config=dict(mode="validate"),
        grids=(256, 128),
        why="only workload running frac_core, girsanov and the Cholesky "
        "sampler, in many small batches, so small-batch costs show",
    ),
}

# Rows whose estimate is a Malliavin-weight delta, for time_to_se_s.
WEIGHT_ROWS = ("delta_bel", "delta_rv", "gaussian_delta")
TARGET_SE = 0.01
SETUP_REPEATS = 5
RV_ORACLE_BUMP = 0.1
RV_ORACLE_SES = 4.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "paths_per_s": "paths/s",
    "time_to_se_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import roughdelta
from roughdelta import fbm
for n in sys.argv[2:]:
    fbm.volterra_weights(fbm.GridSpec(1.0, int(n)), roughdelta.HurstParam(0.1))
print(repr(time.perf_counter() - t0))
"""


class SetupError(RuntimeError):
    """The benchmark cannot run in this directory."""


def blas_env() -> dict[str, str]:
    """BLAS thread settings: one thread per usable core, never more."""
    n = str(len(os.sched_getaffinity(0)))
    return {"OPENBLAS_NUM_THREADS": n, "OMP_NUM_THREADS": n}


def import_package():
    if not (SRC / "roughdelta" / "__init__.py").is_file():
        raise SetupError(f"no roughdelta sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import roughdelta
    from roughdelta import cli, fd

    if Path(roughdelta.__file__).resolve().parent != SRC / "roughdelta":
        raise SetupError(f"roughdelta imported from {roughdelta.__file__}, not {SRC}")
    return roughdelta, cli, fd


def measure_setup(grids) -> list[float]:
    """Seconds to import roughdelta and build cold weights, in fresh processes."""
    env = {**os.environ, **blas_env()}
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), *map(str, grids)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        if done.returncode != 0:
            raise SetupError(f"set-up process failed: {done.stderr.strip()}")
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def read_rows(data: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(data.decode())))


def check_csv(data: bytes | None, reference: bytes | None) -> list[str]:
    """Problems with one call's CSV: a failed target row or changed bytes."""
    if data is None:
        return ["no CSV written"]
    problems = [
        f"{r['quantity']}[{r['component']}] failed its target"
        for r in read_rows(data)
        if r["target"] and r["pass"] != "True"
    ]
    if reference is not None and data != reference:
        problems.append("CSV bytes differ from the first repetition")
    return problems


def rv_oracle_problems(roughdelta, fd, cfg, data: bytes) -> list[str]:
    """Compare both delta-rv components with the common-random-numbers FD oracle."""
    rd = roughdelta
    h = rd.HurstParam(cfg.hurst)
    grid = rd.GridSpec(cfg.horizon, cfg.steps)
    drift = rd.mollify(rd.cli.parse_drift(cfg.drift), rd.default_epsilon(grid, h))
    model = rd.RVConfig(
        mu=cfg.mu, g=rd.VolMap(cfg.g_alpha, cfg.g_gamma), vol_drift=drift,
        x1=cfg.x1, x2=cfg.x2, h=h,
    )
    scalar = rd.make_payoff(cfg.payoff, cfg.strike)
    runner = fd.rv_payoff_runner(model, lambda s, sigma: scalar(s), grid)
    oracle = fd.fd_delta(runner, [cfg.x1, cfg.x2], RV_ORACLE_BUMP, cfg.paths, cfg.seed)
    rows = {r["component"]: r for r in read_rows(data) if r["quantity"] == "delta_rv"}
    problems = []
    for i, comp in enumerate(("x1", "x2")):
        est, se = float(rows[comp]["estimate"]), float(rows[comp]["stderr"])
        tol = RV_ORACLE_SES * math.hypot(se, oracle.stderr[i])
        if abs(est - oracle.value[i]) > tol:
            problems.append(
                f"delta_rv[{comp}]={est!r} vs FD oracle {float(oracle.value[i])!r},"
                f" tolerance {float(tol)!r}"
            )
    return problems


class Caller:
    """Issues checked ``cli.run`` calls and keeps the verdict of each."""

    def __init__(self, cli, config: dict, workdir: Path) -> None:
        self.cli = cli
        self.config = config
        self.out = workdir / "results.csv"
        self.references: dict[int, bytes | None] = {}  # first CSV of each seed
        self.attempted = 0
        self.failed = 0

    def seed(self, call: int) -> int:
        """Seed of call ``call``: the workload seed, then a new derived seed every two calls.

        More seeds give ``time_to_se_s`` a weight variance pooled over more
        paths than one call draws; the second call of each seed checks that
        its CSV bytes repeat.  Derived seeds have 63 bits: ``fbm`` passes the
        Philox key through a float when it is 2**63 or more, so such seeds
        collide.
        """
        pair = call // 2
        if pair == 0:
            return self.config["seed"]
        digest = hashlib.sha256(f"{self.config['seed']}/{pair}".encode()).digest()
        return int.from_bytes(digest[:8], "little") >> 1

    @property
    def reference(self) -> bytes | None:
        """CSV of the first call with the workload seed."""
        return self.references.get(self.config["seed"])

    def make_config(self, seed: int | None = None):
        seed = self.config["seed"] if seed is None else seed
        return self.cli.RunConfig(**{**self.config, "seed": seed}, out=str(self.out))

    def __call__(self, run) -> float:
        """Run one call through ``run`` (``cli.run`` or a traced wrapper); return its wall time."""
        seed = self.seed(self.attempted)
        cfg = self.make_config(seed)
        self.out.unlink(missing_ok=True)
        gc.collect()
        problems = []
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            try:
                status = run(cfg)
            except Exception:
                status = None
                problems.append(traceback.format_exc())
            wall = time.perf_counter() - start
        if status not in (0, None):
            problems.append(f"exit status {status}")
        data = self.out.read_bytes() if self.out.is_file() else None
        problems += check_csv(data, self.references.get(seed))
        if self.references.get(seed) is None:
            self.references[seed] = data
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"call {self.attempted} failed: " + "; ".join(problems), file=sys.stderr)
        return wall


def git_sha() -> str | None:
    """HEAD of the checkout, when it is a git repository."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            sha, _, ref_name = line.partition(" ")
            if ref_name == name:
                return sha
    return None


def manifest(workload: str, seed: int, caller: Caller, env: dict) -> dict:
    import numpy
    import scipy

    src_files = sorted(SRC.rglob("*.py"))
    ref = caller.reference
    return {
        "workload": workload,
        "seed": seed,
        "call_seeds": list(caller.references),
        "config": caller.config,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_env": env,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "src_lines": sum(len(f.read_text().splitlines()) for f in src_files),
        "csv_sha256": hashlib.sha256(ref).hexdigest() if ref is not None else None,
    }


def work_paths(cfg, data: bytes) -> int:
    """Requested paths: the config's for a delta run, the CSV's total for validate."""
    if cfg.mode == "validate":
        return sum(int(r["n_paths"]) for r in read_rows(data))
    return cfg.paths


def pooled_weight_se(csvs) -> float:
    """Largest one-call standard error of the weight estimates, pooled over seeds.

    Each component's squared standard error is averaged over the CSVs, one per
    seed, so the figure rests on all the paths the run drew.
    """
    squares: dict[tuple[str, str], list[float]] = {}
    for data in csvs:
        for r in read_rows(data):
            if r["quantity"] in WEIGHT_ROWS:
                key = (r["quantity"], r["component"])
                squares.setdefault(key, []).append(float(r["stderr"]) ** 2)
    return math.sqrt(max(statistics.fmean(v) for v in squares.values()))


def end_to_end(cli, caller: Caller, seconds: float, grids) -> tuple[dict, dict]:
    """Untimed warm-up, then timed calls for ``seconds``; plus fresh-process set-up.

    Peak memory is read after the warm-up call, which is what one command-line
    invocation peaks at; later calls only add allocator fragmentation.
    """
    caller(cli.run)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    walls = []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        walls.append(caller(cli.run))
    setup = measure_setup(grids)
    wall = statistics.median(walls)
    values = {
        "wall_s": wall,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
    }
    if caller.reference is not None:
        cfg = caller.make_config()
        values["paths_per_s"] = work_paths(cfg, caller.reference) / wall
        csvs = [data for data in caller.references.values() if data is not None]
        values["time_to_se_s"] = wall * (pooled_weight_se(csvs) / TARGET_SE) ** 2
    samples = {"wall_s": walls, "setup_s": setup}
    return values, samples


def traced(roughdelta, cli, caller: Caller, seconds: float) -> tuple[dict, dict, list]:
    """Traced calls alternating with untraced ones; metrics of the median traced call.

    Call 0 is traced and cold, so it is the one that builds the weight
    matrices; ``fbm.weights_s`` is its weight time.  All other per-layer
    figures come from the warm traced call with the median wall time.
    """
    import spans as sp

    tracer = sp.Tracer(roughdelta)
    with tracer.installed(0) as run:
        caller(run)
    plain, traced_calls = [], []
    start = time.perf_counter()
    while not traced_calls or time.perf_counter() - start < seconds:
        plain.append(caller(cli.run))
        call = len(plain)
        with tracer.installed(call) as run:
            caller(run)
        traced_calls.append((sp.root_wall(tracer.call_spans(call)), call))
    wall, median_call = statistics.median_low(traced_calls)
    values = sp.layer_metrics(tracer.call_spans(median_call))
    attributed = sum(values[f"{layer}.self_s"] for layer in sp.LAYERS)
    if not math.isclose(attributed, wall, rel_tol=1e-9, abs_tol=1e-9):
        raise AssertionError(f"self times sum to {attributed!r}, traced wall is {wall!r}")
    cold = tracer.call_spans(0).values()
    values["fbm.weights_s"] = sum(
        sp.duration(s) for s in cold if s[0] == "fbm.volterra_weights"
    )
    values["trace.wall_s"] = wall
    traced_walls = [w for w, _ in traced_calls]
    values["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain)
    samples = {"trace.wall_s": traced_walls, "untraced_wall_s": plain}
    return values, samples, tracer.spans


def check_metric_names(trace: int) -> dict[str, str]:
    """The metrics this run reports, checked against BENCHMARK.json."""
    import spans as sp

    units = sp.UNITS if trace else END_TO_END_UNITS
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if listed != units:
        raise AssertionError(f"BENCHMARK.json lists {listed}, the benchmark reports {units}")
    return units


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        p.error("--seed must fit in 64 bits")

    env = blas_env()
    os.environ.update(env)  # before numpy is first imported
    try:
        roughdelta, cli, fd = import_package()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    units = check_metric_names(args.trace)

    spec = WORKLOADS[args.workload]
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    span_log = None
    try:
        caller = Caller(cli, {**COMMON, **spec["config"], "seed": args.seed}, workdir)
        if args.trace:
            values, samples, span_log = traced(roughdelta, cli, caller, args.seconds)
        else:
            values, samples = end_to_end(cli, caller, args.seconds, spec["grids"])
        if caller.reference is not None and caller.config["mode"] == "delta-rv":
            problems = rv_oracle_problems(roughdelta, fd, caller.make_config(), caller.reference)
            if problems:
                print("FD oracle check failed: " + "; ".join(problems), file=sys.stderr)
                caller.failed = caller.attempted  # the estimator, not one call, is off
        info = manifest(args.workload, args.seed, caller, env)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": caller.failed == 0 and set(values) == set(units),
        "attempted": caller.attempted,
        "failed": caller.failed,
        "metrics": {m: {"value": values.get(m), "unit": u} for m, u in units.items()},
    }
    info["samples"] = samples
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({"manifest": info, "result": result}, indent=1))
    if span_log is not None:
        keys = ("name", "start", "end", "parent", "raised", "call", "work")
        (OUT / f"{stem}-spans.json").write_text(json.dumps([dict(zip(keys, s)) for s in span_log]))
    print("manifest " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
