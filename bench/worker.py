"""Run one workload's passes in a fresh process and record what happened.

    python3 bench/worker.py PLAN_JSON RESULT_JSON SECONDS TRACE

Started by run.py, one process per workload run, so that peak memory is
the workload's own.  It imports the package from ../src, repeats the pass
for SECONDS, times the reference kernel of speed.py just before and just
after each pass, hashes the files each pass writes, and leaves the last pass's
files in the plan's output directory for run.py to check.  With TRACE 1
every second pass runs with the span wrappers of tracing.py enabled, so the
tracing overhead is measured against untraced passes run alongside.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 3
HARD_STOP_S = 120.0  # no new pass starts after this, whatever MIN_PASSES says


def import_package():
    """Import oamboost from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import oamboost.cli
    import oamboost.spectrum

    if Path(oamboost.cli.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"oamboost was imported from {oamboost.cli.__file__}, not {src}")
    return oamboost.cli, oamboost.spectrum


def cli_pass(cli, plan):
    """One CLI invocation per argument list; returns {op: error}."""
    errors = {}
    for op, argv in enumerate(plan["argvs"]):
        try:
            code = cli.main(argv)
        except (Exception, SystemExit) as exc:
            errors[op] = f"raised {exc!r}"
            continue
        if code != 0:
            errors[op] = f"exit code {code}"
    return errors


def oracle_pass(spectrum, plan):
    """Closed form and both oracles at the plan's points; a raising call gives None."""

    def call(fn, *args):
        try:
            return fn(*args)
        except Exception:  # noqa: BLE001 - the check reports the missing value
            return None

    quad = [[g, s, call(spectrum.joint_probability, 0, s, g), call(spectrum.joint_probability_quadrature, 0, s, g)]
            for g in plan["quad_gammas"] for s in plan["quad_s"]]
    spdc = [[g, s, call(spectrum.joint_probability, 0, s, g), call(spectrum.joint_probability_spdc_oracle, 0, s, g)]
            for g in plan["spdc_gammas"] for s in plan["spdc_s"]]
    return {"quadrature": quad, "spdc": spdc}


def run_passes(run_one, out: Path, seconds: float, tracer=None):
    """Repeat the pass until `seconds` have gone; returns one record per pass.

    With a tracer, every second pass is traced, so traced and untraced passes
    alternate and see the same machine speed.
    """
    records = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_STOP_S or (len(records) >= MIN_PASSES and elapsed >= seconds):
            break
        for old in out.iterdir():
            old.unlink()
        traced = tracer is not None and len(records) % 2 == 1
        if tracer:
            tracer.enable(traced)
            tracer.pass_id = len(records)
        before = speed.reference_s()
        t0 = time.perf_counter()
        errors, values = run_one()
        wall = time.perf_counter() - t0
        after = speed.reference_s()
        out_bytes = sum(f.stat().st_size for f in out.iterdir())  # what the CLI wrote
        if values is not None:
            (out / "crosscheck.json").write_text(json.dumps(values), encoding="utf-8")
        files = sorted(out.iterdir())
        records.append({
            "wall_s": wall,
            "norm_s": speed.normalised(wall, before, after),
            "errors": errors,
            "out_bytes": out_bytes,
            "hashes": {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files},
            "traced": traced,
        })
    if tracer:
        tracer.enable(False)
    return records


def main(argv) -> int:
    plan_path, result_path, seconds, trace = argv
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    seconds, trace = float(seconds), trace == "1"
    cli, spectrum = import_package()
    out = Path(plan["out"])
    out.mkdir(parents=True, exist_ok=True)
    if plan["name"] == "crosscheck":
        run_one = lambda: ({}, oracle_pass(spectrum, plan))  # noqa: E731
    else:
        run_one = lambda: (cli_pass(cli, plan), None)  # noqa: E731

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
    records = run_passes(run_one, out, seconds, tracer)
    result = {"passes": records, "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer:
        traced = [r for r in records if r["traced"]]
        plain = [r for r in records if not r["traced"]]
        tracer.write(Path(result_path).with_name("spans.jsonl"))
        layers = tracer.layer_metrics(len(traced))
        layers["cli.out_bytes"] = statistics.median(r["out_bytes"] for r in traced)
        layers["trace.overhead_frac"] = (statistics.median(r["norm_s"] for r in traced)
                                        / statistics.median(r["norm_s"] for r in plain) - 1.0)
        result["layers"] = layers
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
