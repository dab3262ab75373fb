"""Benchmark of curstat's ``estimate`` and ``reproduce-table1`` commands.

Run from the repository root::

    python3 bench/run.py --workload estimate-1e5 --seed 1 --seconds 30 --trace 0

Each workload runs its CLI operations in rounds through
``curstat.cli.main`` for about ``--seconds`` seconds, checks the outputs
against computations made apart from the program, and prints one JSON
object as the last line of standard output::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of BENCHMARK.json.  The full record of a run is written to
``bench/results/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"
RESULTS = BENCH / "results"
WORK = BENCH / "_work"
SETUP_SAMPLES = 5
# the keys of workloads.WORKLOADS, which cannot be imported before the
# thread settings are in place
WORKLOAD_NAMES = ("estimate-1e5", "table-msle", "table-smle")

# setup_s: a fresh interpreter imports curstat and builds the kernel and
# its boundary family, which every CLI invocation pays before reading input
SETUP_CODE = """\
import time
t0 = time.perf_counter()
import curstat
curstat.boundary_family(curstat.triweight())
print(time.perf_counter() - t0, curstat.__file__)
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def thread_settings() -> dict[str, str]:
    # One replicate worker: with two, both tables ran 10-20 % slower on a
    # 2-CPU machine (the replicate bodies hold the interpreter lock) and
    # their wall time followed how much of the second CPU other load left.
    return {
        "CURSTAT_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }


def measure_setup(env: dict[str, str]) -> list[float]:
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup interpreter failed: {proc.stderr.strip()}")
        seconds, module = proc.stdout.split()
        if Path(module).resolve().parent != SRC / "curstat":
            raise RuntimeError(f"setup interpreter imported curstat from {module}")
        samples.append(float(seconds))
    return samples


def call_cli(main, argv, output: Path, tracer=None):
    """One CLI call; returns (exit code, stderr, output text or None, wall s, cpu s).

    With a tracer the call is the root span of everything it does.
    """
    output.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            with tracer.span(tracing.ROOT) if tracer else contextlib.nullcontext():
                code = main([*argv, "--output", str(output)])
        except Exception:  # a traceback is a failed operation, not a dead benchmark
            code = 1
            err.write(traceback.format_exc())
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    text = output.read_text() if code == 0 and output.exists() else None
    return code, err.getvalue(), text, wall, cpu


class Rounds:
    """Runs a plan's operations round after round and keeps what they did."""

    def __init__(self, main, tracer, records):
        self.main = main
        self.tracer = tracer
        self.records = records
        self.untraced: list[dict] = []
        self.traced: list[dict] = []

    def check_call(self, argv, output: Path):
        """An untimed call for a check; not counted as an operation."""
        return call_cli(self.main, argv, output)[:3]

    def one_round(self, ops, traced: bool) -> None:
        wall = cpu = 0.0
        for op in ops:
            with self.tracer.installed() if traced else contextlib.nullcontext():
                code, err, text, w, c = call_cli(self.main, op.argv, op.output, self.tracer if traced else None)
            wall, cpu = wall + w, cpu + c
            rec = self.records[op.label]
            rec.exit_codes.append(code)
            if code != 0 and not rec.stderr:
                rec.stderr = err.strip()
            if text is not None:
                rec.digests.add(hashlib.sha256(text.encode()).hexdigest())
                rec.text = rec.text or text
        (self.traced if traced else self.untraced).append({"wall_s": wall, "cpu_s": cpu, "traced": traced})

    def run(self, ops, seconds: float, trace: bool) -> None:
        """Whole rounds while the next one is expected to end in time.

        Traced runs alternate untraced and traced rounds, at least one of
        each, so the tracing overhead is measured under the same load.
        """
        start = time.perf_counter()
        lengths = []
        while True:
            traced = trace and len(self.untraced) > len(self.traced)
            t0 = time.perf_counter()
            self.one_round(ops, traced)
            lengths.append(time.perf_counter() - t0)
            done = time.perf_counter() - start
            if trace and not self.traced:
                continue
            if done + statistics.median(lengths) > seconds:
                return


def layer_metrics(tracer, summary, setup_spans, rounds: Rounds, workers: int) -> dict[str, float]:
    """Per-layer metrics per traced round (see README for their meaning)."""
    spans, n = tracer.spans, len(rounds.traced)
    setup = tracing.summarize(setup_spans)

    def ms(name):
        return 1e3 * summary.get(name, {}).get("total_s", 0.0) / n

    def calls(name):
        return summary.get(name, {}).get("calls", 0) / n

    def mean(name, key):
        values = [s[key] for s in tracer.sizes[name]]
        return statistics.fmean(values) if values else 0.0

    def group_ms(family):
        seconds, count = tracing.group_time(spans, {f"estimators.{family}_{t}" for t in ("F", "f", "lambda")})
        return 1e3 * seconds / n, count / n

    smle_ms, smle_calls = group_ms("smle")
    replicate_map_s = summary.get(tracing.REPLICATE_MAP, {}).get("total_s", 0.0)
    replicate_s = summary.get(tracing.REPLICATE, {}).get("total_s", 0.0)
    selections = tracer.sizes["bandwidth.bootstrap_bandwidth"] + tracer.sizes["bandwidth.mc_bandwidth"]
    return {
        "cli.read_observations_ms": ms("cli.read_observations"),
        "cli.self_ms": 1e3 * summary.get(tracing.ROOT, {}).get("self_s", 0.0) / n,
        "mle.build_sample_ms": ms("mle.build_sample"),
        "mle.build_sample_calls": calls("mle.build_sample"),
        "mle.fit_mle_ms": ms("mle.fit_mle"),
        "mle.fit_mle_calls": calls("mle.fit_mle"),
        "mle.jumps_mean": mean("mle.fit_mle", "jumps"),
        "mle.pava_blocks_ms": ms("mle.pava_blocks"),
        "smoothing.fit_smoothed_ms": ms("smoothing.fit_smoothed"),
        "smoothing.fit_smoothed_calls": calls("smoothing.fit_smoothed"),
        "smoothing.grid_nodes_mean": mean("smoothing.fit_smoothed", "grid_nodes"),
        "smoothing.boundary_nodes_mean": mean("smoothing.fit_smoothed", "boundary_nodes"),
        "kernels.boundary_family_ms": 1e3 * setup.get("kernels.boundary_family", {}).get("total_s", 0.0),
        "estimators.fit_msle_ms": ms("estimators.fit_msle"),
        "estimators.hull_blocks_mean": mean("estimators.fit_msle", "hull_blocks"),
        "estimators.touch_fraction": mean("estimators.fit_msle", "touch_fraction"),
        "estimators.smle_eval_ms": smle_ms,
        "estimators.smle_eval_calls": smle_calls,
        "estimators.msle_eval_ms": group_ms("msle")[0],
        "estimators.naive_eval_ms": group_ms("naive")[0],
        "bandwidth.bootstrap_bandwidth_ms": ms("bandwidth.bootstrap_bandwidth"),
        "bandwidth.mc_bandwidth_ms": ms("bandwidth.mc_bandwidth"),
        "bandwidth.replicate_ms": ms(tracing.REPLICATE),
        "bandwidth.selections": len(selections) / n,
        "bandwidth.c_at_edge": sum(s["c_at_edge"] for s in selections) / n,
        "sim.sample_current_status_ms": ms("sim.sample_current_status"),
        "threads.workers": workers,
        "threads.replicate_map_ms": ms(tracing.REPLICATE_MAP),
        "threads.busy_fraction": replicate_s / (replicate_map_s * workers) if replicate_map_s else 0.0,
        "trace.overhead_s": statistics.median(r["wall_s"] for r in rounds.traced)
        - statistics.median(r["wall_s"] for r in rounds.untraced),
    }


def src_line_count() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "curstat" / "__init__.py").is_file():
        print(f"bench: no curstat sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    # Thread settings must be in the environment before numpy is imported,
    # so the modules that import numpy are imported only after this point.
    settings = thread_settings()
    os.environ.update(settings)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy

    import curstat
    from curstat import _threads, cli

    if Path(curstat.__file__).resolve().parent != SRC / "curstat":
        print(f"bench: imported curstat from {curstat.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    setup_samples = [] if args.trace else measure_setup(env)
    tracer = tracing.Tracer()
    with tracer.installed() if args.trace else contextlib.nullcontext():
        curstat.boundary_family(curstat.triweight())
    setup_spans = tracer.spans
    tracer.clear()

    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        plan = workloads.WORKLOADS[args.workload](args.seed, workdir)
        records = {op.label: workloads.OpRecord() for op in plan.ops}
        rounds = Rounds(cli.main, tracer, records)
        rounds.run(plan.ops, args.seconds, bool(args.trace))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        problems = plan.check(records, rounds.check_call)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for label, rec in records.items():
        if len(rec.digests) > 1:
            problems.append(f"{label}: {len(rec.digests)} different outputs for one seed")
        if len(set(rec.exit_codes)) > 1:
            problems.append(f"{label}: exit codes vary between rounds: {sorted(set(rec.exit_codes))}")

    attempted = sum(len(rec.exit_codes) for rec in records.values())
    failed = sum(code != 0 for rec in records.values() for code in rec.exit_codes)
    summary = tracing.summarize(tracer.spans) if args.trace else {}
    if args.trace:
        values = layer_metrics(tracer, summary, setup_spans, rounds, _threads.thread_count())
        declared = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": statistics.median(r["wall_s"] for r in rounds.untraced),
            "cpu_s": statistics.median(r["cpu_s"] for r in rounds.untraced),
            "peak_rss_mb": peak_rss_mb,
        }
        declared = spec["end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json")
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in declared}
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **result,
        "problems": problems,
        "rounds": rounds.untraced + rounds.traced,
        "setup_samples_s": setup_samples,
        "ops": {
            label: {
                "exit_codes": rec.exit_codes,
                "stderr": rec.stderr,
                "sha256": sorted(rec.digests),
            }
            for label, rec in records.items()
        },
        "settings": {**settings, "cpu_count": os.cpu_count(), "affinity": len(os.sched_getaffinity(0))},
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__},
        "src_lines": src_line_count(),
        "layers": summary,
    }
    RESULTS.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    out = RESULTS / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}_{stamp}_{os.getpid()}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
