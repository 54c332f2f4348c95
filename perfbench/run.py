"""hexcut benchmark: one workload per invocation.

    python3 perfbench/run.py --workload {certify,refute} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout that has ``src/hexcut``.  The harness draws
the workload's inputs from the seed, times ``setup_s`` (a fresh interpreter
importing hexcut and hexcut.cli) and runs the workload in a fresh worker
process, so that peak RSS belongs to that workload alone.  It prints a
readable report and, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_SAMPLES = 5  # before the worker, and as many again after it
RUN_LIMIT_S = 170.0

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "shelling.verify_s": "s",
    "shelling.verify_cpu_s": "s",
    "shelling.rows_verified": "count",
    "shelling.pairs_reported": "count",
    "shelling.verify_peak_mb": "MB",
    "shelling.verify_jobs2_s": "s",
    "shelling.parallel_eff": "ratio",
    "shelling.spanning_s": "s",
    "shelling.spanning_peak_mb": "MB",
    "shelling.order_s": "s",
    "shelling.orders_built": "count",
    "shelling.witness_s": "s",
    "shelling.explore_s": "s",
    "cutcomplex.enumerate_s": "s",
    "cutcomplex.facet_yield": "ratio",
    "cutcomplex.fvector_s": "s",
    "hexgraph.build_s": "s",
    "homology.betti_s": "s",
    "homology.wedge_s": "s",
    "homology.boundary_check_s": "s",
    "homology.euler_s": "s",
    "cli.self_s": "s",
    "cli.bytes_out": "bytes",
    "trace.unattributed_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env(tmp: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("HEXCUT_JOBS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(tmp)
    return env


def measure_setup(env: dict, samples: int) -> list[float]:
    """Wall seconds for fresh interpreters to import hexcut and hexcut.cli.
    No timeout: waiting with one polls in steps of up to 50 ms, which would
    quantise the samples."""
    argv = [sys.executable, "-c", "import hexcut, hexcut.cli"]
    out = []
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, check=True)
        out.append(time.perf_counter() - t0)
    return out


def run_worker(args, env: dict, tmp: Path, budget: float) -> dict:
    inputs = tmp / "inputs.json"
    inputs.write_text(json.dumps(workloads.make_inputs(args.workload, args.seed)))
    argv = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--inputs", str(inputs), "--tmp", str(tmp)]
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=budget)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {budget:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker printed no result:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples above it."""
    n = len(samples)
    if n < 11:
        return None
    rank = n - 10  # samples[rank-1] has exactly ten above it
    return 100.0 * rank / n, sorted(samples)[rank - 1]


def report(args, raw: dict, metrics: dict) -> None:
    print(f"hexcut benchmark  workload={args.workload}  seed={args.seed}  "
          f"seconds={args.seconds}  trace={args.trace}")
    if not args.trace:
        for key in ("wall_s", "cpu_s"):
            samples = raw[key]
            tail = tail_percentile(samples)
            tail_text = (f"p{tail[0]:.0f} {tail[1]:.4f}" if tail
                         else "no percentile with ten samples above it")
            print(f"  {key:<12} median {median(samples):.4f} s   {tail_text}   "
                  f"n={len(samples)}")
    units = PER_LAYER if args.trace else END_TO_END
    for name, value in metrics.items():
        print(f"  {name:<28} {value['value']:.6g} {units[name]}")
    frac = raw["failed"] / raw["attempted"] if raw["attempted"] else 1.0
    print(f"  failed_frac {frac:.4g} ({raw['failed']} of {raw['attempted']} checked outputs)")
    for error in raw["errors"]:
        print(f"  FAILED {error}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    started = time.perf_counter()
    if not (ROOT / "src" / "hexcut" / "__init__.py").is_file():
        print(f"benchmark: no hexcut sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    tmp = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        env = child_env(tmp)
        # the first start may write bytecode caches, so it is not counted;
        # sampling on both sides of the worker spreads the samples over the run
        setup = [] if args.trace else measure_setup(env, SETUP_SAMPLES + 1)[1:]
        budget = RUN_LIMIT_S - (time.perf_counter() - started)
        raw = run_worker(args, env, tmp, budget)
        if not args.trace:
            setup += measure_setup(env, SETUP_SAMPLES)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    if args.trace:
        values = {name: raw["layers"].get(name, 0.0) for name in PER_LAYER}
        units = PER_LAYER
    else:
        values = {
            "wall_s": median(raw["wall_s"]),
            "cpu_s": median(raw["cpu_s"]),
            "peak_rss_mb": raw["peak_rss_mb"],
            "setup_s": median(setup),
        }
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    report(args, raw, metrics)
    print(json.dumps({
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
