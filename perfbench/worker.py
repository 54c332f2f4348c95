"""Runs one workload in a fresh interpreter and prints its raw measurements
as one JSON line.  Started by run.py; not meant to be run by hand.

Untraced mode times whole iterations for ``--seconds``, starting another
only while the median iteration still fits, so a run never overshoots by a
whole iteration.  Traced mode alternates an untraced and a traced iteration
the same way, then makes one memory pass (tracemalloc inside the memory
functions only) and, for certify, one two-worker verification.  Every
output is checked after its iteration's clock has stopped.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path
from statistics import median
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402


def load_program(root: Path) -> SimpleNamespace:
    """Import hexcut from the checkout's ``src`` and nowhere else."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import hexcut
    import hexcut.cli
    import hexcut.homology

    if src not in Path(hexcut.__file__).resolve().parents:
        raise ImportError(f"hexcut imported from {hexcut.__file__}, not from {src}")
    return SimpleNamespace(hexcut=hexcut, cli=hexcut.cli, homology=hexcut.homology)


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


class Tally:
    """Checked outputs: attempts, failures, and per-label digests that must
    repeat in every iteration."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: dict[str, str] = {}

    def record(self, label: str, error: str | None) -> None:
        self.attempted += 1
        if error:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{label}: {error}")

    def check(self, workload, outputs) -> None:
        for label, out in outputs:
            if isinstance(out, Exception):
                self.record(label, f"raised {type(out).__name__}: {out}")
                continue
            try:
                error, dg = workload.checks[label](out)
            except Exception as exc:  # a malformed output is a failed output
                self.record(label, f"unreadable output: {type(exc).__name__}: {exc}")
                continue
            first = self.digests.setdefault(label, dg)
            if error is None and dg != first:
                error = "output differs from an earlier iteration"
            self.record(label, error)


def run_iteration(body):
    """Time ``body(call)``; returns wall seconds, CPU seconds and the outputs
    of every ``call``."""
    outputs = []

    def call(label, fn, *args, **kwargs):
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # counted as a failed output by the tally
            out = exc
        outputs.append((label, out))
        return None if isinstance(out, Exception) else out

    c0 = cpu_seconds()
    t0 = time.perf_counter()
    body(call)
    wall = time.perf_counter() - t0
    return wall, cpu_seconds() - c0, outputs


def untraced(workload, tally, seconds: float) -> dict:
    walls, cpus = [], []
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() + median(walls) <= deadline:
        wall, cpu, outputs = run_iteration(workload.iteration)
        walls.append(wall)
        cpus.append(cpu)
        tally.check(workload, outputs)
    rss_kb = max(resource.getrusage(who).ru_maxrss
                 for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return {"wall_s": walls, "cpu_s": cpus, "peak_rss_mb": rss_kb / 1024}


def traced(workload, tally, seconds: float, spans_path: Path) -> dict:
    plain_walls, traced_walls, per_iter, records = [], [], [], []
    tracer = tracing.Tracer()

    def traced_iteration(call):
        with tracer.root():
            workload.iteration(call)

    deadline = time.perf_counter() + seconds
    while not traced_walls or (
            time.perf_counter() + median(plain_walls) + median(traced_walls) <= deadline):
        wall, _, outputs = run_iteration(workload.iteration)
        plain_walls.append(wall)
        tally.check(workload, outputs)
        tracer.reset()
        with tracer:
            wall, _, outputs = run_iteration(traced_iteration)
        traced_walls.append(wall)
        per_iter.append(tracing.iteration_metrics(tracer))
        records += tracing.spans_to_records(tracer.spans, len(traced_walls) - 1)
        tally.check(workload, outputs)

    memory = tracing.Tracer(memory=True)
    with memory:
        _, _, outputs = run_iteration(workload.iteration)
    tally.check(workload, outputs)

    names = sorted({k for it in per_iter for k in it})
    metrics = {k: median(it.get(k, 0.0) for it in per_iter) for k in names}
    metrics.update(tracing.memory_peaks_mb(memory))
    facets = metrics.pop("cutcomplex.facets", 0.0)
    tested = metrics.pop("cutcomplex.subsets_tested", 0.0)
    metrics["cutcomplex.facet_yield"] = facets / tested if tested else 0.0
    metrics["trace.overhead_frac"] = median(traced_walls) / median(plain_walls) - 1.0
    metrics["trace.wall_s"] = median(traced_walls)

    if hasattr(workload, "jobs2_body"):
        wall, _, outputs = run_iteration(workload.jobs2_body())
        tally.check(workload, outputs)
        metrics["shelling.verify_jobs2_s"] = wall
        metrics["shelling.parallel_eff"] = metrics.get("shelling.verify_s", 0.0) / (2 * wall)

    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return {"layers": metrics, "wall_s": plain_walls, "traced_wall_s": traced_walls}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--inputs", type=Path, required=True)
    ap.add_argument("--tmp", type=Path, required=True)
    args = ap.parse_args(argv)

    program = load_program(args.root)
    inputs = json.loads(args.inputs.read_text())
    tally = Tally()
    workload = workloads.CLASSES[args.workload](program, inputs, args.tmp)
    for error in workload.setup_errors:
        tally.record("setup", error)

    if args.trace:
        spans = args.root / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        result = traced(workload, tally, args.seconds, spans)
    else:
        result = untraced(workload, tally, args.seconds)
    result.update(attempted=tally.attempted, failed=tally.failed, errors=tally.errors)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
