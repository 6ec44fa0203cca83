"""catlr benchmark: real CLI invocations, closed loop, outputs checked.

Run from the repository root:

    python3 bench/run.py --workload point-queries --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` times ``python -m catlr.cli ...`` subprocesses, one at a
time, and reports the end-to-end metrics.  ``--trace 1`` runs the same
argv lists in-process through ``catlr.cli.run`` with every layer wrapped
in spans (see tracing.py) and reports the per-layer metrics.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Invocation, Plan  # noqa: E402

SETUP_REPEATS = 3
INVOCATION_TIMEOUT_S = 60
# Reference process for normalizing wall times, and its nominal duration.
REFERENCE_ARGV = [sys.executable, "-c", "import numpy"]
REFERENCE_MS = 100.0
PROBE_EVERY_S = 1.0


def p90(values: list[float]) -> float:
    """90th percentile by linear interpolation between closest ranks."""
    return statistics.quantiles(values, n=10, method="inclusive")[8]


class Verifier:
    """Runs each invocation's check, once per distinct output."""

    def __init__(self):
        self.verified: set[tuple] = set()
        self.attempted = 0
        self.failures: list[str] = []

    def __call__(self, invocation, code: int, out: str, err: str) -> bool:
        self.attempted += 1
        if "Traceback" in err:
            self.failures.append(f"{' '.join(invocation.argv)}: traceback\n{err[-1500:]}")
            return False
        digest = None
        if invocation.out_file is not None and invocation.out_file.exists():
            digest = hashlib.sha1(invocation.out_file.read_bytes()).hexdigest()
        key = (tuple(invocation.argv), code, out, err, digest)
        if key in self.verified:
            return True
        try:
            invocation.check(code, out, err)
        except checks.CheckError as exc:
            self.failures.append(f"{' '.join(invocation.argv)}: {exc}")
            return False
        self.verified.add(key)
        return True


def setup(name: str, seed: int, work: Path, verify: Verifier) -> tuple[Plan, list[float]]:
    """Generate the workload's inputs, then warm up with ``catlr --help``.

    The warm-up compiles bytecode and fills the page cache before anything
    is timed.  Set-up runs ``SETUP_REPEATS`` times (same seed, same files);
    each time is normalized by a reference probe taken right after it.
    """
    env = cli_env()
    times = []
    for _ in range(SETUP_REPEATS):
        if work.exists():
            shutil.rmtree(work)
        work.mkdir(parents=True)
        start = time.perf_counter()
        plan = WORKLOADS[name](ROOT, work, seed)
        verify(WARMUP, *run_cli(WARMUP.argv, env)[:3])
        elapsed = time.perf_counter() - start
        times.append(elapsed * REFERENCE_MS / probe(env))
    return plan, times


def _check_help(code: int, out: str, err: str) -> None:
    checks.expect_ok(code, err)
    checks.require(out.startswith("usage: catlr"), "help text does not start with 'usage: catlr'")


WARMUP = Invocation(["--help"], _check_help)


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_cli(argv: list[str], env: dict) -> tuple[int, str, str, float]:
    """Run ``catlr <argv>`` as ``python -m catlr.cli``; (exit code, stdout, stderr, wall s)."""
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "catlr.cli", *argv], env=env, cwd=ROOT,
                              capture_output=True, timeout=INVOCATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped the child
        return -9, "", f"timed out after {INVOCATION_TIMEOUT_S} s", time.perf_counter() - start
    elapsed = time.perf_counter() - start
    return proc.returncode, proc.stdout.decode("utf-8", "replace"), proc.stderr.decode("utf-8", "replace"), elapsed


def shorten(arg: str) -> str:
    return Path(arg).name if arg.startswith("/") else arg


def probe(env: dict) -> float:
    """Wall milliseconds of the reference process: interpreter start plus numpy import."""
    start = time.perf_counter()
    subprocess.run(REFERENCE_ARGV, env=env, cwd=ROOT, capture_output=True, check=True,
                   timeout=INVOCATION_TIMEOUT_S)
    return (time.perf_counter() - start) * 1e3


def end_to_end(plan: Plan, seconds: float, setup_times: list[float], verify: Verifier) -> tuple[dict, list[str]]:
    """Closed loop, one client: whole cycles of CLI calls until ``seconds`` have passed.

    Host contention moves every process start on a shared machine by
    20-30% within minutes, so each call is scaled by the reference process
    timed around it (a probe before any call that starts PROBE_EVERY_S or
    more after the last probe, and one at the end):
    normalized = wall * REFERENCE_MS / mean(probe before, probe after).
    """
    env = cli_env()

    calls: list[tuple[Invocation, float, int]] = []  # (invocation, wall s, index of the probe before)
    probes = [probe(env)]
    last_probe = time.perf_counter()
    cycles = 0
    start = time.perf_counter()
    while cycles < plan.min_cycles or time.perf_counter() - start < seconds:
        for invocation in plan.cycle:
            if time.perf_counter() - last_probe >= PROBE_EVERY_S:
                probes.append(probe(env))
                last_probe = time.perf_counter()
            code, out, err, elapsed = run_cli(invocation.argv, env)
            verify(invocation, code, out, err)
            calls.append((invocation, elapsed, len(probes) - 1))
        cycles += 1
    probes.append(probe(env))
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    def normalized(elapsed: float, before: int) -> float:
        return elapsed * 1e3 * REFERENCE_MS / ((probes[before] + probes[before + 1]) / 2)

    latencies = [normalized(elapsed, before) for _, elapsed, before in calls]
    raw = [elapsed * 1e3 for _, elapsed, _ in calls]
    metrics = {
        "cmd_ms_p50": (statistics.median(latencies), "ms"),
        "cmd_ms_p90": (p90(latencies), "ms"),
        "ops_per_s": (1e3 * len(latencies) / sum(latencies), "1/s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    notes = [
        f"samples {len(calls)} in {cycles} cycles of {len(plan.cycle)} invocations",
        f"reference probe median {statistics.median(probes):.1f} ms over {len(probes)}",
        f"unnormalized: cmd_ms_p50 {statistics.median(raw):.1f}, cmd_ms_p90 {p90(raw):.1f}",
    ]
    for position, invocation in enumerate(plan.cycle):
        mine = latencies[position::len(plan.cycle)]
        notes.append(f"{statistics.median(mine):9.1f} ms  catlr {' '.join(shorten(a) for a in invocation.argv)}")
    for kind in ("simulate", "tally"):
        for size in sorted({inv.records for inv in plan.cycle if inv.argv[0] == kind}):
            times = [lat for (inv, _, _), lat in zip(calls, latencies) if inv.argv[0] == kind and inv.records == size]
            notes.append(f"{kind}_records_per_s at {size} records: {1e3 * size / statistics.median(times):.0f}")
    return metrics, notes


def in_process(plan: Plan, verify: Verifier, seconds: float = 0.0, tracer=None) -> tuple[int, int, int]:
    """Run whole cycles through catlr.cli.run, at least one and at most
    ``plan.min_cycles``, until ``seconds`` have passed.

    Returns (cycles, invocations, wall ns spent inside catlr.cli.run).
    """
    from catlr import cli

    wall = 0
    invocations = 0
    cycles = 0
    start = time.perf_counter()
    while cycles == 0 or (cycles < plan.min_cycles and time.perf_counter() - start < seconds):
        for invocation in plan.cycle:
            out, err = io.StringIO(), io.StringIO()
            if tracer is not None:
                tracer.invocation = invocations
            t0 = time.perf_counter_ns()
            try:
                code = cli.run(list(invocation.argv), stdout=out, stderr=err)
            except Exception:  # an escaped exception is a failed invocation
                code = 1
                err.write(traceback.format_exc())
            wall += time.perf_counter_ns() - t0
            invocations += 1
            verify(invocation, code, out.getvalue(), err.getvalue())
        cycles += 1
    return cycles, invocations, wall


def alloc_probe(plan: Plan) -> dict[str, float]:
    """Peak traced allocation of simulate_study on the workload's first profile."""
    if plan.alloc_profile is None:
        return {"simulate.peak_alloc_mb": 0.0, "model.bytes_per_record": 0.0}
    import tracemalloc

    from catlr.simulate import load_profile, simulate_study

    profile = load_profile(plan.alloc_profile.read_text(encoding="utf-8"))
    tracemalloc.start()
    try:
        records = simulate_study(profile)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"simulate.peak_alloc_mb": peak / 2**20, "model.bytes_per_record": peak / len(records)}


PER_LAYER_UNITS = {
    "_ms": "ms", "_us": "us", "_mb": "MB", "_per_s": "1/s", ".share": "fraction",
    "bytes_per_record": "B/record", "streams_built": "count", "numpy_loaded": "count",
    "coverage": "fraction", "overhead_frac": "ratio", "trace.spans": "count",
}


def unit_of(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


def per_layer(plan: Plan, seconds: float, verify: Verifier, out_dir: Path, workload: str) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    metrics = alloc_probe(plan)
    _, _, untraced_wall = in_process(plan, verify)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        cycles, invocations, wall = in_process(plan, verify, seconds, tracer)
    finally:
        tracer.uninstall()
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer.write(out_dir / f"spans-{workload}.csv")
    metrics.update(tracing.span_metrics(tracer.spans, cycles, invocations, wall))
    metrics["trace.overhead_frac"] = (wall / cycles) / untraced_wall
    startup = tracing.startup_probe(sys.executable, cli_env())
    metrics.update(startup)
    metrics.update(tracing.shares(metrics, startup["startup.python_ms"] + startup["startup.import_cli_ms"]))
    return {name: (value, unit_of(name)) for name, value in sorted(metrics.items())}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, Verifier, list[str]]:
    work = ROOT / ".bench_work" / name
    verify = Verifier()
    try:
        plan, setup_times = setup(name, seed, work, verify)
        if trace:
            metrics = per_layer(plan, seconds, verify, ROOT / ".bench_out", name)
            notes = []
        else:
            metrics, notes = end_to_end(plan, seconds, setup_times, verify)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return metrics, verify, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    missing = [p for p in ("src/catlr/cli.py", "tests/golden/bullets_lr.md", "tests/golden/bullets_lr.csv")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"bench: not a catlr checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("bench: --seed must be non-negative", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        metrics, verify, notes = run_workload(name, args.seed, args.seconds, bool(args.trace))
        failed = len(verify.failures)
        for failure in verify.failures[:10]:
            print(f"[{name}] FAILED {failure}", file=sys.stderr)
        print(f"[{name}] attempted {verify.attempted}, failed {failed}, "
              f"failed_frac {failed / max(1, verify.attempted):.4g}")
        for note in notes:
            print(f"[{name}] {note}")
        for metric, (value, unit) in metrics.items():
            print(f"[{name}] {metric} = {value:.6g} {unit}")
        prefix = f"{name}." if args.workload == "all" else ""
        result["correct"] = result["correct"] and failed == 0
        result["attempted"] += verify.attempted
        result["failed"] += failed
        result["metrics"].update(
            {f"{prefix}{metric}": {"value": value, "unit": unit} for metric, (value, unit) in metrics.items()})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
