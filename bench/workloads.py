"""The four benchmark workloads: inputs made from the seed, and output checks.

`plan` turns a workload name and seed into the exact inputs a pass feeds
the program (CLI argument lists, or oracle arguments).  `check` reads the
files the last pass wrote and recomputes every expected value here, without
calling the package, so a wrong program cannot vouch for itself.

Operations are numbered per pass: one per CLI invocation, or one per
oracle comparison on `crosscheck`.  A check returns the problems it found
keyed by operation number, plus the least-squares relative gamma error of
the pass where the workload fits gamma.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

import numpy as np

NAMES = ("experiment", "roundtrip", "export", "crosscheck")

# Sizes of one pass.  "small" is for the self-test only.
SIZES = {
    "full": {"runs": 100, "rt_half_width": 100, "ex_half_width": 200, "holo": 2048, "n_gammas": 8},
    "small": {"runs": 10, "rt_half_width": 20, "ex_half_width": 20, "holo": 64, "n_gammas": 2},
}

EXPERIMENT_GAMMAS = (1.0, 2.0, 5.0, 10.0, 20.0)
ROUNDTRIP_GAMMA = 5.0
WITHIN = 0.05  # the criterion-7 rule: least squares within 5% ...
HIT_SHARE = 0.9  # ... in at least 90% of runs per gamma
QUAD_TOL = 1e-9  # acceptance criterion 1
SPDC_TOL = 1e-6  # acceptance criterion 9
QUAD_S = tuple(range(-20, 21))
SPDC_S = (0, 2, -2, 4, -4)
# The Gaussian-source oracle's default 256-point grid misses the 1e-6
# proportionality above gamma ~ 17 (2.7e-6 at 20, 2e-3 at 50), so its
# gammas are drawn from a narrower range than the trapezoid oracle's.
QUAD_GAMMA_RANGE = (1.0, 50.0)
SPDC_GAMMA_RANGE = (1.5, 12.0)


def plan(name: str, seed: int, size: str, out: Path) -> dict:
    """Inputs of one pass: everything the worker needs, as plain JSON data."""
    p = SIZES[size]
    out = str(out)
    base = {"name": name, "seed": seed, "size": size, "out": out}
    if name == "experiment":
        runs = p["runs"]
        argv = ["experiment", "--gamma", ",".join(f"{g:g}" for g in EXPERIMENT_GAMMAS), "--runs", str(runs),
                "--half-width", "40", "--subtract", "both", "--seed", str(seed), "--out", out]
        return {**base, "argvs": [argv], "runs": runs, "ops": 1,
                "work": len(EXPERIMENT_GAMMAS) * runs, "work_unit": "slices"}
    if name == "roundtrip":
        hw = p["rt_half_width"]
        counts = f"{out}/counts_g{ROUNDTRIP_GAMMA:g}_seed{seed}.csv"
        argvs = [
            ["simulate", "--gamma", f"{ROUNDTRIP_GAMMA:g}", "--half-width", str(hw), "--seed", str(seed), "--out", out],
            ["estimate", "--counts", counts, "--subtract", "both", "--out", out],
        ]
        return {**base, "argvs": argvs, "half_width": hw, "ops": 2,
                "work": (2 * hw + 1) ** 2, "work_unit": "cells"}
    rng = np.random.default_rng(seed)
    if name == "export":
        gamma = round(float(rng.uniform(5.0, 20.0)), 2)
        l = int(rng.integers(1, 9))
        hw, n = p["ex_half_width"], p["holo"]
        argvs = [
            ["spectrum", "--gamma", f"{gamma:g}", "--half-width", str(hw), "--out", out],
            ["hologram", "--l", str(l), "--gamma", f"{gamma:g}", "--width", str(n), "--height", str(n), "--out", out],
        ]
        # work is the output size, measured by the worker after each pass
        return {**base, "argvs": argvs, "gamma": gamma, "l": l, "half_width": hw, "holo": n, "ops": 2,
                "work": None, "work_unit": "MB"}
    if name == "crosscheck":
        k = p["n_gammas"]
        quad_gammas = sorted(float(g) for g in rng.uniform(*QUAD_GAMMA_RANGE, k))
        spdc_gammas = sorted(float(g) for g in rng.uniform(*SPDC_GAMMA_RANGE, k))
        return {**base, "quad_gammas": quad_gammas, "spdc_gammas": spdc_gammas,
                "quad_s": list(QUAD_S), "spdc_s": list(SPDC_S),
                "ops": k * len(QUAD_S) + k * (len(SPDC_S) - 1),
                "work": k * len(QUAD_S) + k * len(SPDC_S), "work_unit": "evaluations"}
    raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")


class _Problems(dict):
    def add(self, op: int, message: str) -> None:
        self.setdefault(op, []).append(message)


def _load_table(path: Path, header: str) -> np.ndarray:
    """Numeric CSV body after an exact header line; raises ValueError if malformed."""
    with open(path, encoding="ascii") as fh:
        first = fh.readline().rstrip("\n")
        if first != header:
            raise ValueError(f"{path.name}: header {first!r}, expected {header!r}")
        return np.loadtxt(fh, delimiter=",", ndmin=2)


def _grid(half_width: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-major (l_a, l_b) pairs of a symmetric square window."""
    l = np.arange(-half_width, half_width + 1)
    return np.repeat(l, len(l)), np.tile(l, len(l))


def _check_experiment(plan: dict, out: Path):
    problems = _Problems()
    runs = plan["runs"]
    path = out / "experiment_batch.csv"
    try:
        lines = path.read_text(encoding="ascii").splitlines()
        summary = json.loads((out / "experiment_summary.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        problems.add(0, f"unreadable output: {exc}")
        return problems, None
    if lines[:1] != ["seed,gamma_encoded,gamma_meas,method,residual"]:
        problems.add(0, f"batch CSV header {lines[:1]}")
    fits = {g: [] for g in EXPERIMENT_GAMMAS}
    msum_rows = 0
    for line in lines[1:]:
        fields = line.split(",")
        try:
            seed, gamma, gamma_meas, method = int(fields[0]), float(fields[1]), float(fields[2]), fields[3]
        except (IndexError, ValueError):
            problems.add(0, f"malformed batch row {line!r}")
            continue
        if not plan["seed"] <= seed < plan["seed"] + runs:
            problems.add(0, f"batch row seed {seed} outside the run range")
        if method == "least_squares" and gamma in fits:
            fits[gamma].append(gamma_meas)
        elif method == "m_sum":
            msum_rows += 1
        else:
            problems.add(0, f"unexpected batch row {line!r}")
    if msum_rows != len(EXPERIMENT_GAMMAS) * runs:
        problems.add(0, f"{msum_rows} m_sum rows, expected {len(EXPERIMENT_GAMMAS) * runs}")
    errors = []
    for gamma, measured in fits.items():
        if len(measured) != runs:
            problems.add(0, f"gamma {gamma:g}: {len(measured)} least-squares rows, expected {runs}")
        rel = [abs(m - gamma) / gamma for m in measured]
        errors += rel
        hits = sum(r < WITHIN for r in rel)
        if hits < HIT_SHARE * runs:
            problems.add(0, f"gamma {gamma:g}: only {hits}/{runs} least-squares fits within {WITHIN:.0%}")
    if len(summary.get("results", [])) != len(EXPERIMENT_GAMMAS):
        problems.add(0, "summary JSON does not hold one result per gamma")
    return problems, (statistics.median(errors) if errors else None)


def _check_roundtrip(plan: dict, out: Path):
    problems = _Problems()
    hw = plan["half_width"]
    csv_path = out / f"counts_g{ROUNDTRIP_GAMMA:g}_seed{plan['seed']}.csv"
    try:
        meta = json.loads(csv_path.with_name(csv_path.stem + ".meta.json").read_text(encoding="utf-8"))
        table = _load_table(csv_path, "l_a,l_b,count")
    except (OSError, ValueError) as exc:
        problems.add(0, f"unreadable counts: {exc}")
        table, meta = None, {}
    if table is not None:
        if meta.get("windows") != {"a": [-hw, hw], "b": [-hw, hw]}:
            problems.add(0, f"sidecar windows {meta.get('windows')} do not match half-width {hw}")
        if table.shape != ((2 * hw + 1) ** 2, 3):
            problems.add(0, f"counts CSV has {table.shape[0]} rows, expected {(2 * hw + 1) ** 2}")
        else:
            la, lb = _grid(hw)
            if not (np.array_equal(table[:, 0], la) and np.array_equal(table[:, 1], lb)):
                problems.add(0, "counts CSV rows do not cover the sidecar windows once each, in order")
            counts = table[:, 2]
            if counts.min() < 0 or not np.array_equal(counts, np.round(counts)):
                problems.add(0, "counts are not non-negative integers")
    try:
        fit = json.loads((out / "fit_least_squares.json").read_text(encoding="utf-8"))
        json.loads((out / "fit_m_sum.json").read_text(encoding="utf-8"))
        rel = abs(float(fit["gamma_meas"]) - ROUNDTRIP_GAMMA) / ROUNDTRIP_GAMMA
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.add(1, f"unreadable fit: {exc}")
        return problems, None
    if not rel < WITHIN:
        problems.add(1, f"least-squares gamma off by {rel:.2%}")
    return problems, rel


def _check_export(plan: dict, out: Path):
    problems = _Problems()
    gamma, hw, n = plan["gamma"], plan["half_width"], plan["holo"]
    try:
        table = _load_table(out / f"spectrum_g{gamma:g}.csv", "l_a,l_b,value")
    except (OSError, ValueError) as exc:
        problems.add(0, f"unreadable joint spectrum: {exc}")
        table = None
    if table is not None:
        la, lb = _grid(hw)
        if table.shape != (len(la), 3) or not (np.array_equal(table[:, 0], la) and np.array_equal(table[:, 1], lb)):
            problems.add(0, f"joint CSV rows {table.shape[0]} do not cover the {2 * hw + 1}^2 window in order")
        else:
            s = la + lb
            even = s % 2 == 0
            q = (gamma - 1.0) / (gamma + 1.0)
            expected = q ** np.abs(s[even]).astype(float)
            values = table[:, 2]
            if not np.allclose(values[even], expected, rtol=1e-12, atol=0.0):
                problems.add(0, "even-sum values differ from q**|s|")
            if np.any(values[~even] != 0.0):
                problems.add(0, "odd-sum values are not exactly 0")
    try:
        pgm = (out / f"holo_l{plan['l']}_g{gamma:g}_{n}x{n}.pgm").read_bytes()
    except OSError as exc:
        problems.add(1, f"unreadable hologram: {exc}")
        return problems, None
    header = f"P5\n{n} {n}\n255\n".encode("ascii")
    if not pgm.startswith(header):
        problems.add(1, f"PGM header {pgm[:len(header)]!r}, expected {header!r}")
    if len(pgm) != len(header) + n * n:
        problems.add(1, f"PGM has {len(pgm)} bytes, expected {len(header) + n * n}")
    return problems, None


def _check_crosscheck(plan: dict, out: Path):
    problems = _Problems()
    n_quad = len(plan["quad_gammas"]) * len(plan["quad_s"])
    try:
        values = json.loads((out / "crosscheck.json").read_text(encoding="utf-8"))
        quad, spdc = values["quadrature"], values["spdc"]
    except (OSError, ValueError, KeyError) as exc:
        for op in range(plan["ops"]):
            problems.add(op, f"unreadable oracle values: {exc}")
        return problems, None
    expected_quad = [[g, s] for g in plan["quad_gammas"] for s in plan["quad_s"]]
    for op in range(n_quad):
        row = quad[op] if op < len(quad) else None
        if row is None or row[:2] != expected_quad[op]:
            problems.add(op, f"missing quadrature entry {expected_quad[op]}")
        elif row[2] is None or row[3] is None or not abs(row[2] - row[3]) < QUAD_TOL:
            problems.add(op, f"gamma {row[0]:.6g}, s {row[1]}: closed {row[2]} vs quadrature {row[3]}")
    op = n_quad
    for i, gamma in enumerate(plan["spdc_gammas"]):
        rows = spdc[i * len(plan["spdc_s"]):(i + 1) * len(plan["spdc_s"])]
        ratios = {}
        for row in rows:
            if row[0] == gamma and row[2] and row[3] is not None:
                ratios[row[1]] = row[3] / row[2]
        reference = ratios.get(plan["spdc_s"][0])
        for s in plan["spdc_s"][1:]:
            ratio = ratios.get(s)
            if reference is None or ratio is None:
                problems.add(op, f"gamma {gamma:.6g}, s {s}: oracle value missing")
            elif not abs(ratio / reference - 1.0) < SPDC_TOL:
                problems.add(op, f"gamma {gamma:.6g}, s {s}: ratio deviates by {ratio / reference - 1.0:.3g}")
            op += 1
    return problems, None


CHECKS = {
    "experiment": _check_experiment,
    "roundtrip": _check_roundtrip,
    "export": _check_export,
    "crosscheck": _check_crosscheck,
}


def check(plan: dict, out: Path) -> tuple[dict[int, list[str]], float | None]:
    """Problems in the outputs under `out`, by operation, and gamma_rel_err."""
    problems, gamma_rel_err = CHECKS[plan["name"]](plan, Path(out))
    return dict(problems), gamma_rel_err
