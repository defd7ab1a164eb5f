"""Run every benchmark workload and print each metric by name with its unit.

    python3 perfbench/report.py [--seed 1] [--seconds S]

Each workload runs twice in its own process: untraced for the end-to-end
metrics, then traced for the per-layer ones.  ``fail_ratio`` is the share of
``cli.run`` calls that failed a check.  The exit status is 1 when any check
failed or any run did not complete.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_workload(workload: str, seed: int, seconds: int, trace: int):
    """(result, manifest) of one run, or None when it did not complete."""
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        return None
    manifest = json.loads(lines[-2].removeprefix("manifest "))
    return json.loads(lines[-1]), manifest


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = p.parse_args(argv)

    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            got = run_workload(workload, args.seed, args.seconds, trace)
            if got is None:
                print(f"{workload:10s} run did not complete (trace {trace})")
                ok = False
                continue
            result, manifest = got
            ok = ok and result["correct"]
            samples = manifest["samples"]
            for name, m in result["metrics"].items():
                n = len(samples.get(name, ()))
                note = f"  (median of {n})" if n else ""
                value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
                print(f"{workload:10s} {name:20s} {value:<14s} {m['unit']}{note}")
            if trace == 0:
                ratio = result["failed"] / result["attempted"]
                print(f"{workload:10s} {'fail_ratio':20s} {ratio:<14.6g} 1"
                      f"  ({result['failed']} of {result['attempted']} calls)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
