"""torushom benchmark: one workload, one seed, one measured run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload replicate --seed 1 --seconds 25 --trace 0

Workloads: replicate, homology, coverage, patterns (see perfbench/README.md).
Every measurement runs in a fresh interpreter with OMP_NUM_THREADS,
OPENBLAS_NUM_THREADS and MKL_NUM_THREADS set to 1: five set-up probes, then
one measured process.  ``wall_s`` and ``setup_s`` are in reference-speed
seconds: each process scales its times by a fixed reference task
(perfbench/reference.py) run between rounds, so that much of the machine's
drift in speed cancels.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` reports the per-layer metrics from a traced run and writes its
spans under ``.bench_out/``.  The last stdout line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import glob
import importlib.metadata
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("replicate", "homology", "coverage", "patterns")
DEFAULT_SEED = 1
SETUP_PROBES = 5
TIME_LIMIT_S = 170.0  # the whole run, probes included
TAIL_BEYOND = 10  # the reported tail percentile has this many rounds above it


def _parse(argv):
    p = argparse.ArgumentParser(description="torushom benchmark run")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def _version(pkg: str) -> str:
    try:
        return importlib.metadata.version(pkg)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def environment() -> dict:
    src_lines = 0
    for path in glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "numba": "present" if importlib.util.find_spec("numba") else "absent",
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "src_lines": src_lines,
    }


def _worker(args, deadline: float, setup_only: bool) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def _tail(rounds: list[float]) -> str:
    n = len(rounds)
    if n <= 2 * TAIL_BEYOND:
        return f"no percentile above the median has {TAIL_BEYOND} rounds beyond it"
    value = sorted(rounds)[n - TAIL_BEYOND - 1]
    return f"p{100.0 * (n - TAIL_BEYOND) / n:.1f} {value:.6f} s ({TAIL_BEYOND} rounds beyond it)"


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "torushom", "__init__.py")):
        print("perfbench: no torushom sources under src/; run from a full checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        probes = [_worker(args, deadline, setup_only=True) for _ in range(SETUP_PROBES)]
        res = _worker(args, deadline, setup_only=False)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"perfbench: {args.workload} run failed: {exc}", file=sys.stderr)
        return 1
    probes.append(res)
    setups = [p["setup_s"] * p["setup_scale"] for p in probes]
    rounds = res["scaled_rounds"]
    attempted, failed = res["attempted"], res["failed"]

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env " + json.dumps(environment(), sort_keys=True))
    for note in res["notes"]:
        print(f"check: {note}")
    for reason, count in sorted(res["reasons"].items()):
        print(f"FAILED {count} operations: {reason}")
    print(f"failed_frac {failed / attempted:.6g} ratio ({failed} of {attempted} operations)")
    print(f"rounds {len(rounds)}, in reference-speed seconds: median "
          f"{statistics.median(rounds):.6f} s, {_tail(rounds)}")
    print(f"as measured: round median {statistics.median(res['rounds']):.6f} s, set-up "
          f"median {statistics.median(p['setup_s'] for p in probes):.6f} s, reference "
          f"task median {statistics.median(res['refs']):.6f} s over {len(res['refs'])} runs")

    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["layers"].items()}
        print(f"spans written to {res['spans_file']}")
        unattributed = res["layers"]["trace.unattributed_frac"][0]
        tol = res["self_time_tolerance"]
        print(f"layer self times leave {unattributed:.4f} of traced wall time "
              f"unattributed: {'within' if abs(unattributed) <= tol else 'OUTSIDE'} "
              f"the tolerance {tol} (outside counts as a failed operation)")
    else:
        metrics = {
            "wall_s": {"value": statistics.median(rounds), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
