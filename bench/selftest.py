"""Self-test of the benchmark itself.

    python3 bench/selftest.py

1. Runs every workload once at reduced size (--small), with --trace 0 and
   --trace 1, and checks that the result line is well formed, that no
   operation failed, and that it carries exactly the metrics, with the
   units, that BENCHMARK.json names.
2. Corrupts the output files each run left behind, one defect at a time,
   and checks that the workload's output check reports every defect.
3. Checks that the benchmark refuses to run, with a nonzero exit and no
   result line, in a directory holding only BENCHMARK.json and bench/.
Prints one line per step and exits 0 when everything holds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_build" / "oambench"
SEED = 7


def _edit_text(path: Path, edit) -> None:
    path.write_text(edit(path.read_text(encoding="ascii")), encoding="ascii")


def _edit_json(path: Path, edit) -> None:
    data = json.loads(path.read_text(encoding="utf-8"))
    edit(data)
    path.write_text(json.dumps(data), encoding="utf-8")


def _scale_fits(text: str) -> str:
    lines = text.splitlines()
    for i, line in enumerate(lines):
        f = line.split(",")
        if f[-2:-1] == ["least_squares"]:
            f[2] = repr(float(f[2]) * 1.1)
            lines[i] = ",".join(f)
    return "\n".join(lines) + "\n"


def _replace_row(text: str, old: str, new: str) -> str:
    assert f"\n{old}\n" in text, old
    return text.replace(f"\n{old}\n", f"\n{new}\n", 1)


def _drop_second_row(text: str) -> str:
    lines = text.splitlines()
    del lines[2]
    return "\n".join(lines) + "\n"


def _corruptions(plan: dict):
    """(defect, file name, edit) for each defect the workload's check must catch."""
    name = plan["name"]
    if name == "experiment":
        return [
            ("every least-squares fit 10% high", "experiment_batch.csv", lambda p: _edit_text(p, _scale_fits)),
            ("second batch row dropped", "experiment_batch.csv", lambda p: _edit_text(p, _drop_second_row)),
        ]
    if name == "roundtrip":
        stem = f"counts_g{workloads.ROUNDTRIP_GAMMA:g}_seed{plan['seed']}"
        hw = plan["half_width"]
        return [
            ("one count negative", f"{stem}.csv", lambda p: _edit_text(p, lambda t: t.rsplit(",", 1)[0] + ",-1\n")),
            ("second row dropped", f"{stem}.csv", lambda p: _edit_text(p, _drop_second_row)),
            ("sidecar window narrowed", f"{stem}.meta.json",
             lambda p: _edit_json(p, lambda d: d["windows"].update(b=[-hw, hw - 1]))),
            ("least-squares fit 10% high", "fit_least_squares.json",
             lambda p: _edit_json(p, lambda d: d.update(gamma_meas=d["gamma_meas"] * 1.1))),
        ]
    if name == "export":
        pgm = f"holo_l{plan['l']}_g{plan['gamma']:g}_{plan['holo']}x{plan['holo']}.pgm"
        csv = f"spectrum_g{plan['gamma']:g}.csv"
        return [
            ("even-sum value off by 1e-7", csv, lambda p: _edit_text(p, lambda t: _replace_row(t, "0,0,1", "0,0,1.0000001"))),
            ("odd-sum value not 0", csv, lambda p: _edit_text(p, lambda t: _replace_row(t, "0,1,0", "0,1,1e-300"))),
            ("PGM one byte short", pgm, lambda p: p.write_bytes(p.read_bytes()[:-1])),
            ("PGM maxval 254", pgm, lambda p: p.write_bytes(p.read_bytes().replace(b"\n255\n", b"\n254\n", 1))),
        ]
    return [
        ("quadrature value off by 1e-8", "crosscheck.json",
         lambda p: _edit_json(p, lambda d: d["quadrature"][0].__setitem__(3, d["quadrature"][0][3] + 1e-8))),
        ("SPDC value off by 1e-5 relative", "crosscheck.json",
         lambda p: _edit_json(p, lambda d: d["spdc"][1].__setitem__(3, d["spdc"][1][3] * (1 + 1e-5)))),
    ]


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result(workload: str, trace: str, spec: dict) -> list[str]:
    done = _run([str(BENCH / "run.py"), "--workload", workload, "--seed", str(SEED),
                 "--seconds", "1", "--trace", trace, "--small"])
    if done.returncode != 0:
        return [f"exit code {done.returncode}: {done.stderr.strip()}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or not result["attempted"] >= 1:
        errors.append(f"correct {result['correct']}, failed {result['failed']} of {result['attempted']}")
    wanted = spec["per_layer" if trace == "1" else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != units:
        errors.append(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(units))}")
    for name, m in result["metrics"].items():
        value = m["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value) or (trace == "0" and value <= 0):
            errors.append(f"{name} = {value!r}")
    return errors


def check_corruptions(workload: str) -> list[str]:
    source = WORK / f"{workload}-seed{SEED}-trace0"
    plan = json.loads((source / "plan.json").read_text(encoding="utf-8"))
    problems, _ = workloads.check(plan, source / "out")
    errors = [f"clean output flagged: {problems}"] if problems else []
    for defect, file_name, corrupt in _corruptions(plan):
        copy = WORK / "selftest" / "out"
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(source / "out", copy)
        corrupt(copy / file_name)
        if not workloads.check(plan, copy)[0]:
            errors.append(f"check missed: {defect}")
        else:
            print(f"  {workload}: check catches {defect}")
    return errors


def check_refuses_without_package() -> list[str]:
    bare = WORK / "selftest" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(["bench/run.py", "--workload", "experiment", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
    if done.returncode == 0 or done.stdout.strip().startswith("{") or '"correct"' in done.stdout:
        return [f"ran without the package: exit {done.returncode}, stdout {done.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if [w["name"] for w in spec["workloads"]] != list(workloads.NAMES):
        print(f"FAIL BENCHMARK.json workloads differ from {workloads.NAMES}")
        return 1
    failures = 0
    steps = [(f"{w} trace {t}", lambda w=w, t=t: check_result(w, t, spec)) for w in workloads.NAMES for t in "01"]
    steps += [(f"{w} output checks", lambda w=w: check_corruptions(w)) for w in workloads.NAMES]
    steps.append(("refuses to run without the package", check_refuses_without_package))
    for label, step in steps:
        errors = step()
        print(f"{'FAIL' if errors else 'ok  '} {label}")
        for error in errors:
            print(f"     {error}")
        failures += bool(errors)
    shutil.rmtree(WORK / "selftest", ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
