"""Benchmark of the oamboost package: run one workload and print its metrics.

    python3 bench/run.py --workload experiment --seed 1 --seconds 10 --trace 0

The package is imported from src/ next to this directory; nothing is built
or installed.  The run
  1. makes the workload's inputs from --seed (see workloads.py),
  2. times fresh interpreters up to `import oamboost.cli` + `build_parser()`,
  3. starts worker.py in its own process, which repeats the workload pass
     in process for --seconds (every second pass traced with --trace 1),
  4. checks the last pass's output files and that every pass wrote the same
     bytes, and
  5. prints a report, then as its last line one JSON object:
     {"correct", "attempted", "failed", "metrics"}, with the end-to-end
     metrics under --trace 0 and the per-layer metrics under --trace 1.
Working files, the spans of a traced run and a full result.json (with the
run environment and output hashes) go to .bench_build/oambench/.  It exits
non-zero without a result when the package or the worker fails to run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import speed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SETUP_REPEATS = 7
RUN_LIMIT_S = 170.0
# Times setup, then the reference kernel in the same interpreter (first run discarded as warm-up).
SETUP_PROBE = ("import time, oamboost.cli; oamboost.cli.build_parser(); done = time.monotonic(); "
               "import sys; sys.path.insert(0, sys.argv[1]); import speed; speed.reference_s(); "
               "print(done, speed.reference_s(), speed.reference_s())")
END_TO_END = {"setup_s": "s", "wall_s": "s", "throughput": "units/s", "peak_rss_mb": "MB"}


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 1


def measure_setup(env: dict) -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh interpreter to `build_parser()` returning, per repeat.

    Both ends read CLOCK_MONOTONIC, which every process on the machine shares.
    Returns the raw times and the times at nominal machine speed.
    """
    raw, norm = [], []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        done = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(BENCH)], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        finished, kernel_a, kernel_b = (float(x) for x in done.stdout.split())
        raw.append(finished - start)
        norm.append(speed.normalised(raw[-1], kernel_a, kernel_b))
    return raw, norm


def tail(samples: list[float]) -> tuple[int, float] | None:
    """Highest percentile with ten samples beyond it, if that is at least the median."""
    k = len(samples) - 10
    if k <= 0 or 100 * k // len(samples) < 50:
        return None
    return 100 * k // len(samples), sorted(samples)[k - 1]


def environment() -> dict:
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}" + ("" if kind == "Unified" else kind[0].lower())] = size
    commit = None  # a checkout without git metadata; the source hash still identifies it
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "thread_env": {k: v for k, v in os.environ.items() if "THREAD" in k},
    }


def count_failures(plan: dict, passes: list[dict], problems: dict) -> int:
    """Failed operations over all passes.

    An operation fails on a nonzero exit or exception, on a failed check of
    its output, or when its pass wrote different bytes from the checked
    (last) pass, since identical inputs must give identical outputs.
    """
    checked = passes[-1]["hashes"]
    failed = 0
    for record in passes:
        bad = {int(op) for op in record["errors"]}
        if record["hashes"] != checked:
            bad = set(range(plan["ops"]))
        else:
            bad |= set(problems)
        failed += len(bad)
    return failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--small", action="store_true", help="reduced sizes, for the self-test")
    args = parser.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        return fail("--seed must be >= 0 and --seconds > 0")
    started = time.monotonic()
    if not (ROOT / "src" / "oamboost" / "cli.py").is_file():
        return fail(f"no package source at {ROOT / 'src' / 'oamboost'}")

    work = ROOT / ".bench_build" / "oambench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "out").mkdir(parents=True)
    plan = workloads.plan(args.workload, args.seed, "small" if args.small else "full", work / "out")
    (work / "plan.json").write_text(json.dumps(plan, indent=1), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))

    try:
        setup_raw, setup = measure_setup(env)
    except (OSError, subprocess.SubprocessError, ValueError) as exc:
        return fail(f"setup probe failed: {exc}")
    try:
        subprocess.run([sys.executable, str(BENCH / "worker.py"), str(work / "plan.json"),
                        str(work / "worker.json"), str(args.seconds), args.trace],
                       cwd=ROOT, env=env, stdout=subprocess.DEVNULL, check=True,
                       timeout=max(10.0, RUN_LIMIT_S - (time.monotonic() - started)))
    except (OSError, subprocess.SubprocessError) as exc:
        return fail(f"worker failed: {exc}")
    result = json.loads((work / "worker.json").read_text(encoding="utf-8"))
    passes = result["passes"]
    problems, gamma_rel_err = workloads.check(plan, work / "out")
    attempted = plan["ops"] * len(passes)
    failed = count_failures(plan, passes, problems)

    plain = [r for r in passes if not r["traced"]]
    walls = [r["norm_s"] for r in plain]
    raw_walls = [r["wall_s"] for r in plain]
    wall = statistics.median(walls)
    if plan["work"] is None:  # export: output megabytes per pass
        plan["work"] = statistics.median(r["out_bytes"] for r in passes) / 1e6
    measured = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "throughput": plan["work"] / wall,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    tail_text = "p{} {:.6g} s".format(*tail(walls)) if tail(walls) else "no tail percentile at this n (needs n >= 20)"
    notes = {
        "setup_s": f"median of n={len(setup)} fresh interpreters; raw {statistics.median(setup_raw):.6g} s",
        "wall_s": f"median of n={len(walls)} passes; {tail_text}; raw {statistics.median(raw_walls):.6g} s",
        "throughput": f"{plan['work']:.6g} {plan['work_unit']} per pass / wall_s; unit = {plan['work_unit']}/s",
        "peak_rss_mb": "ru_maxrss of the worker process (one sample)",
    }
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": int(args.trace),
        "size": plan["size"], "environment": environment(), "passes": len(passes),
        "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
        "gamma_rel_err": gamma_rel_err, "problems": problems,
        "output_sha256": passes[-1]["hashes"],
        "outputs_identical_across_passes": all(r["hashes"] == passes[-1]["hashes"] for r in passes),
        "end_to_end": measured, "setup_samples_s": setup, "setup_raw_samples_s": setup_raw,
        "wall_samples_s": walls, "wall_raw_samples_s": raw_walls,
    }
    if args.trace == "1":
        layers = dict(result["layers"], **{"estimate.gamma_rel_err": gamma_rel_err or 0.0})
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in tracing.metric_specs()}
        report["per_layer"] = layers
        report["spans_file"] = str(work / "spans.jsonl")
    else:
        metrics = {name: {"value": measured[name], "unit": unit} for name, unit in END_TO_END.items()}
    (work / "result.json").write_text(json.dumps(report, indent=1), encoding="utf-8")

    print(f"oamboost benchmark: workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("environment: " + json.dumps(report["environment"]))
    for name, digest in report["output_sha256"].items():
        print(f"  sha256 {digest}  {name}")
    print(f"  outputs identical across {len(passes)} passes: {report['outputs_identical_across_passes']}")
    print("  times are at nominal machine speed (speed.py); raw medians in the notes")
    for name, unit in END_TO_END.items():
        print(f"  {name:<14} {measured[name]:<12.6g} {unit:<8} {notes[name]}")
    print(f"  {'failed_frac':<14} {failed / attempted:<12.6g} {'ratio':<8} {failed} of {attempted} operations")
    if gamma_rel_err is not None:
        print(f"  {'gamma_rel_err':<14} {gamma_rel_err:<12.6g} {'ratio':<8} median |gamma_meas - gamma| / gamma")
    if args.trace == "1":
        for name, unit in tracing.metric_specs():
            print(f"  {name:<46} {metrics[name]['value']:<12.6g} {unit}")
        print(f"  spans: {report['spans_file']}")
    for op, messages in sorted(problems.items()):
        for message in messages[:5]:
            print(f"  problem, operation {op}: {message}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
