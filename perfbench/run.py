"""Benchmark entry point for qihe.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a qihe checkout; it imports qihe from ``src/``
and fails (non-zero exit, no result) when that is missing.  The
workloads are defined in ``workloads.py`` and described, with their
sizes and the layer-to-metric table, in ``README.md``.

One single-threaded process runs the workload in a closed loop: round
after round, each operation starting when the previous one (and its
oracle check) is done, until ``--seconds`` have passed, then the round
in progress is finished.  BLAS keeps its default thread count.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json.
Each workload timed end to end has a ``reference`` kernel and reports
its times scaled to a reference host speed: the kernel is timed between
rounds, and each round's times are multiplied by ``reference_s`` over
the kernel's median time around that round (README.md, "Host speed").
``--trace 1`` reports the per-layer metrics instead: it runs the named
workload untraced and then traced (half the time each, for the tracing
overhead), then one traced round of every other workload, the cli
layer in-process and ``-X importtime``, and writes the spans to
``.perfbench/spans-<workload>-seed<seed>.jsonl``.

The last line of stdout is the result object; the line before it is a
fuller report with the environment, the error rate and the tail
percentile.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

# Set-up is timed this many times per run (fresh processes) and the median kept.
SETUP_REPEATS = 5
# Percentile reported as op_tail_ms (lowered when fewer than 10 samples lie beyond it).
TAIL_PERCENTILE = 90
# Families whose tracemalloc peak is recorded in traced runs.
PEAK_FAMILIES = {
    "protocols.ghz_unlock",
    "protocols.parity_no_information_trials",
    "protocols.parity_unlock",
    "coding.typical_subspace.dense",
    "coding.refactorization_ledger",
}
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
_PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); import run; "
          "print(run.timed_setup(sys.argv[2], int(sys.argv[3]), run.child_env())[0])")


def child_env() -> dict[str, str]:
    """Environment for qihe processes: ``src/`` first on the path, default dense cap."""
    env = dict(os.environ)
    env.pop("QIHE_MAX_DIM", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def environment() -> dict:
    def version(pkg: str) -> str | None:
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
    }


def cpu_seconds() -> float:
    """User+sys CPU of this process (all threads) and of its waited-for children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


class Pass:
    """Samples of one closed-loop pass over a workload."""

    def __init__(self) -> None:
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.round_of: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        # Reference-kernel times: one before the first round and one after each.
        self.refs: list[float] = []

    @property
    def ops_per_s(self) -> float:
        return len(self.walls) / sum(self.walls)


class Runner:
    """Executes operations, times them and checks them against their oracles."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.next_op = 0

    def execute(self, op, p: Pass, tags: dict):
        op_id = self.next_op
        self.next_op += 1
        p.attempted += 1
        result, error = None, None
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            if self.tracer is None:
                result = op.call()
            else:
                with self.tracer.op_span(op.family, op.family in PEAK_FAMILIES,
                                         op=op_id, **tags) as rec:
                    result = op.call()
        except Exception as exc:  # a failed operation is counted, not fatal
            error = exc
        p.walls.append(time.perf_counter() - t0)
        p.cpus.append(cpu_seconds() - c0)
        p.round_of.append(p.rounds)
        if error is None:
            try:
                op.check(result)
                if self.tracer is not None and op.counters is not None:
                    rec.update(op.counters(result))
            except Exception as exc:
                error = exc
        if error is None:
            return result
        p.failed += 1
        if p.failed <= 5:
            print(f"FAIL {op.family}: {type(error).__name__}: {error}", file=sys.stderr)
        return None

    def run_ops(self, ops, p: Pass, tags: dict) -> None:
        """Drive one round generator, sending each result back into it."""
        result = None
        while True:
            try:
                op = ops.send(result)
            except StopIteration:
                return
            result = self.execute(op, p, tags)

    def run_rounds(self, wl, seconds: float, p: Pass, phase: str, reference=None) -> None:
        """Whole rounds until ``seconds`` have passed (at least one).

        With a ``reference`` kernel, it is timed before the first round and
        after each round, into ``p.refs``.
        """
        stop = time.perf_counter() + seconds
        if reference is not None:
            p.refs.append(timed(reference))
        while True:
            self.run_ops(wl.round(p.rounds), p,
                         {"workload": wl.name, "round": p.rounds, "phase": phase})
            p.rounds += 1
            if reference is not None:
                p.refs.append(timed(reference))
            if time.perf_counter() >= stop:
                return


def timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def tail(values: list[float], percentile: float) -> tuple[float, float]:
    """Nearest-rank value at ``percentile`` and the percentile actually used.

    The percentile is fixed, so that a faster commit, which completes more
    operations, is judged at the same point of the distribution.  When
    fewer than 10 samples lie beyond it, the highest rank with 10 beyond is
    used instead (the maximum with 10 samples or fewer).
    """
    s = sorted(values)
    n = len(s)
    rank = min(math.ceil(percentile / 100.0 * n), n - 10) if n > 10 else n
    return s[rank - 1], 100.0 * rank / n


def warm_blas() -> None:
    """Start BLAS/LAPACK's threads before timing.

    The first threaded call in a process pays a one-off start-up (from
    0.15 s to 1 s on a 2-CPU machine) that belongs to numpy's runtime, not
    to qihe; left in, it lands on whichever operation runs first.
    """
    import numpy as np

    a = np.eye(512, dtype=complex)
    np.linalg.eigvalsh(a)
    np.linalg.eigh(a)
    a @ a


def timed_setup(name: str, seed: int, env: dict[str, str]):
    """Import qihe (through the workload module) and build the workload's inputs."""
    t0 = time.perf_counter()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import workloads

    wl = workloads.WORKLOADS[name](seed, ROOT, env)
    return time.perf_counter() - t0, wl


def measure_setup(name: str, seed: int, env: dict[str, str]):
    """Median set-up time over fresh processes, and the workload built in this one.

    Set-up is the import of qihe plus input generation, timed inside
    ``SETUP_REPEATS - 1`` probe processes and this one.
    """
    samples = []
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run([sys.executable, "-c", _PROBE, str(BENCH_DIR), name, str(seed)],
                              env=env, cwd=ROOT, capture_output=True, text=True,
                              check=True, timeout=120)
        samples.append(float(proc.stdout.split()[-1]))
    own, wl = timed_setup(name, seed, env)
    samples.append(own)
    return statistics.median(samples), samples, wl


def plain_run(name: str, seed: int, seconds: float, env: dict[str, str]):
    setup_s, setup_samples, wl = measure_setup(name, seed, env)
    warm_blas()
    p = Pass()
    Runner().run_rounds(wl, seconds, p, "run", wl.reference)
    # Round r runs between kernel times refs[r] and refs[r + 1].  It is
    # scaled by reference_s over the median of the six kernel times nearest
    # to it: one kernel run can stall, while the host's speed changes over
    # ten seconds and more.
    scale = [wl.reference_s / statistics.median(p.refs[max(0, r - 2):r + 4])
             for r in range(p.rounds)]
    values = time_metrics([w * scale[r] for w, r in zip(p.walls, p.round_of)],
                          [c * scale[r] for c, r in zip(p.cpus, p.round_of)],
                          setup_s * wl.reference_s / statistics.median(p.refs))
    values["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values["error_rate"] = p.failed / p.attempted
    extra = {"rounds": p.rounds, "samples": len(p.walls),
             "tail_percentile": tail(p.walls, TAIL_PERCENTILE)[1],
             "setup_samples_s": setup_samples,
             "unscaled": time_metrics(p.walls, p.cpus, setup_s),
             "reference_median_ms": statistics.median(p.refs) * 1e3}
    return values, p.attempted, p.failed, extra


def time_metrics(walls: list[float], cpus: list[float], setup_s: float) -> dict[str, float]:
    return {
        "ops_per_s": len(walls) / sum(walls),
        "op_p50_ms": statistics.median(walls) * 1e3,
        "op_tail_ms": tail(walls, TAIL_PERCENTILE)[0] * 1e3,
        "cpu_per_op_ms": sum(cpus) / len(cpus) * 1e3,
        "setup_s": setup_s,
    }


def layer_values(tracer, overhead: float, imports: dict[str, float]) -> dict[str, float]:
    """Per-layer numbers from round 0 of every workload's traced pass."""
    ops = [s for s in tracer.spans
           if s["parent"] is None and s["round"] == 0 and s["phase"] == "traced"]
    by_family = defaultdict(list)
    for s in ops:
        by_family[s["name"]].append(s)
    out = {"trace.ops_per_s_ratio": overhead, **imports}
    for family, spans in by_family.items():
        ms = [(s["end"] - s["start"]) * 1e3 for s in spans]
        out[f"{family}.calls"] = len(ms)
        out[f"{family}.p50_ms"] = statistics.median(ms)
        out[f"{family}.total_ms"] = sum(ms)
        if family.startswith("verify."):
            out[f"{family}.ms"] = sum(ms)
        peaks = [s["peak_bytes"] for s in spans if "peak_bytes" in s]
        if peaks:
            out[f"{family}.peak_mib"] = max(peaks) / 2 ** 20
    dense = by_family["coding.typical_subspace.dense"]
    out["coding.typical_subspace.dense.kept_ratio"] = (
        sum(s["kept"] for s in dense) / sum(s["built"] for s in dense))
    out["coding.typical_subspace.dense.bytes"] = max(s["bytes"] for s in dense)
    out["coding.typical_subspace.census.classes"] = sum(
        s["classes"] for s in by_family["coding.typical_subspace.census"])
    in_process = {s["op"] for s in ops if s["workload"] != "cli-cold"}
    linalg = [s for s in tracer.spans
              if s["name"].startswith("numpy.linalg.") and s["op"] in in_process]
    out["qcore.eigvalsh.calls"] = len(linalg)
    out["qcore.eigvalsh.dim3"] = sum(s["dim"] ** 3 for s in linalg)
    return out


def traced_run(name: str, seed: int, seconds: float, env: dict[str, str]):
    from tracing import Tracer

    _, wl = timed_setup(name, seed, env)
    import workloads
    import qihe.cli
    import qihe.verify

    warm_blas()
    tracer = Tracer()
    plain, traced, inprocess = Pass(), Pass(), Pass()
    Runner().run_rounds(wl, seconds / 2, plain, "plain")
    runner = Runner(tracer)
    runner.next_op = plain.attempted
    tracer.count_linalg()
    try:
        runner.run_rounds(wl, seconds / 2, traced, "traced")
        others = {n: wl if n == name else workloads.WORKLOADS[n](seed, ROOT, env)
                  for n in workloads.WORKLOADS}
        sweep = []
        for other in others.values():
            if other is not wl:
                sweep.append(Pass())
                runner.run_rounds(other, 0, sweep[-1], "traced")
        runner.run_ops(others["cli-cold"].inprocess_round(qihe.cli, qihe.verify), inprocess,
                       {"workload": "cli-cold", "round": 0, "phase": "traced"})
    finally:
        tracer.restore_linalg()
    imports = others["cli-cold"].import_profile()
    spans_file = OUT_DIR / f"spans-{name}-seed{seed}.jsonl"
    tracer.write(spans_file)
    values = layer_values(tracer, traced.ops_per_s / plain.ops_per_s, imports)
    passes = (plain, traced, inprocess, *sweep)
    extra = {"spans_file": str(spans_file.relative_to(ROOT)),
             "untraced_ops_per_s": plain.ops_per_s, "traced_ops_per_s": traced.ops_per_s}
    return (values, sum(p.attempted for p in passes), sum(p.failed for p in passes), extra)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="qihe benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qihe" / "__init__.py").is_file():
        print(f"error: no qihe sources at {SRC}; run from the root of a qihe checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    os.environ.pop("QIHE_MAX_DIM", None)
    env = child_env()

    run = traced_run if args.trace else plain_run
    values, attempted, failed, extra = run(args.workload, args.seed, args.seconds, env)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(), **extra}
    if not args.trace:
        report["error_rate"] = {"value": values["error_rate"], "unit": "ratio"}
    print(json.dumps({"report": report, "metrics": metrics}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
