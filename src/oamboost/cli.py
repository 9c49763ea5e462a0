"""Command line front end: six commands write spectra, holograms, simulated counts and fits as CSV/JSON/PGM files,
deterministic given the full flag set (README.md's CLI section lists what each records of how it was made)."""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

from ._table import Table, format_table
from .estimate import (
    DEFAULT_GAMMA_BOUNDS,
    _fit,
    _msum_gammas,
    _peak_normalised,
    batch_csv,
    check_gamma_bounds,
    estimate_gamma_fit,
    estimate_gamma_msum,
)
from .hologram import DEFAULT_EXTENT, DEFAULT_SIZE, _render
from .relativity import frame_from_gamma, require_gamma
from .simulate import (
    SUBTRACT_MODES,
    NoiseModel,
    _count_runs,
    _subtract,
    check_stream_keys,
    count_spectrum_sidecar,
    count_spectrum_to_csv,
    counts_conditional,
    read_count_spectrum,
    sidecar_path,
    simulate_counts,
)
from .spectrum import (
    OamWindow,
    _mode_counts,
    check_cells,
    conditional_slice,
    geometric_kernel,
    joint_spectrum,
    joint_spectrum_to_csv,
    measurement_sum,
    mode_count_closed,
)

class _UsageError(Exception):
    """Invalid flag or config value; maps to exit code 2."""


def _parse_float(text):
    try:  # float() alone would also read '1_0', ' 1 ' and non-ASCII digits
        if text.isascii() and "_" not in text and text == text.strip():
            return float(text)
    except ValueError:
        pass
    raise ValueError(f"must be a number, got {text!r}")


def _parse_int(text):
    try:  # an optional sign and ASCII digits; int() raises past its digit limit
        if re.fullmatch(r"[+-]?[0-9]+", text):
            return int(text)
    except ValueError:
        pass
    raise ValueError(f"must be an integer, got {text!r}")


def _parse_runs(text):
    runs = _parse_int(text)
    if runs < 1:
        raise ValueError(f"must be >= 1, got {runs}")
    return runs


def _parse_bool(text):
    value = text.strip().lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"must be a boolean, got {text!r}")


def _parse_gamma_list(text):
    gammas = [_parse_float(tok) for tok in re.split(r"[,\s]+", text, flags=re.ASCII) if tok]
    if not gammas:
        raise ValueError("must list at least one value")
    return gammas


def _choice(*choices):
    """Converter that passes one of choices through and rejects any other text."""

    def convert(text):
        if text not in choices:
            raise ValueError(f"must be one of {', '.join(choices)}; got {text!r}")
        return text

    return convert


# Per-command option tables: dest -> (converter, default, help), in --help order.
# CLI flags and config-file keys share the converters, which raise ValueError;
# flags override the config file, and an option whose default is _REQUIRED must
# come from one of them.
_REQUIRED = object()
_GAMMA_HELP = "Lorentz factor (comma-separated list for sweep/experiment)"
_SUBTRACT_HELP = "background subtraction: none, accidental, minimum or both"
_HALF_WIDTH_HELP = "OAM detection half-width for l_b"
_COMMON = {
    "out": (str, ".", "output directory"),
    "config": (str, None, "key = value file mirroring the flags; flags take precedence"),
}
_RATES = {
    "pair_rate": (_parse_float, NoiseModel.pair_rate, "expected true coincidences at the spectrum peak"),
    "accidental_rate": (_parse_float, NoiseModel.accidental_rate, "expected accidental coincidences per cell"),
    "integration": (_parse_float, NoiseModel.integration, "exposure multiplier"),
}
_FIT_BOUNDS = {
    "gamma_min": (_parse_float, DEFAULT_GAMMA_BOUNDS[0], "lower fit bound"),
    "gamma_max": (_parse_float, DEFAULT_GAMMA_BOUNDS[1], "upper fit bound"),
}

OPTION_TABLES = {
    "spectrum": {
        **_COMMON,
        "gamma": (_parse_float, _REQUIRED, _GAMMA_HELP),
        "half_width": (_parse_int, 20, _HALF_WIDTH_HELP),
        "n_modes": (_parse_int, 1, "source mode count used for joint-probability normalisation"),
        "format": (_choice("csv", "json"), "csv", "output format"),
    },
    "sweep": {
        **_COMMON,
        "gamma": (_parse_gamma_list, _REQUIRED, _GAMMA_HELP),
    },
    "hologram": {
        **_COMMON,
        "l": (_parse_int, _REQUIRED, "OAM index of the projection hologram"),
        "gamma": (_parse_float, _REQUIRED, _GAMMA_HELP),
        "width": (_parse_int, DEFAULT_SIZE, "hologram width in pixels"),
        "height": (_parse_int, DEFAULT_SIZE, "hologram height in pixels"),
        "extent": (_parse_float, DEFAULT_EXTENT, "half-width of the sampled plane in normalised units"),
        "format": (_choice("pgm", "csv"), "pgm", "output format"),
    },
    "simulate": {
        **_COMMON,
        "gamma": (_parse_float, _REQUIRED, _GAMMA_HELP),
        "half_width": (_parse_int, 20, _HALF_WIDTH_HELP),
        "half_width_a": (_parse_int, None, "OAM detection half-width for l_a (defaults to --half-width)"),
        **_RATES,
        "seed": (_parse_int, 0, "base random seed"),
    },
    "estimate": {
        **_COMMON,
        "counts": (str, _REQUIRED, "counts CSV produced by the simulate command"),
        "l_a": (_parse_int, 0, "Alice projection index of the analysed slice"),
        "method": (_choice("m_sum", "least_squares", "both"), "both", "estimator: m_sum, least_squares or both"),
        "subtract": (_choice(*SUBTRACT_MODES), "none", _SUBTRACT_HELP),
        **_FIT_BOUNDS,
    },
    "experiment": {
        **_COMMON,
        "gamma": (_parse_gamma_list, [1.0, 2.0, 5.0, 10.0, 20.0], _GAMMA_HELP),
        "seed": (_parse_int, 42, "base random seed"),
        "runs": (_parse_runs, 1, "seeded repetitions per encoded gamma"),
        "half_width": (_parse_int, 40, _HALF_WIDTH_HELP),
        **_RATES,
        "subtract": (_choice(*SUBTRACT_MODES), "both", _SUBTRACT_HELP),
        "noiseless": (_parse_bool, False, "skip the count simulation and use exact conditional spectra"),
        **_FIT_BOUNDS,
    },
}


def _load_config(path, allowed):
    """The file's values as key -> (position 'path:line: ', text)."""
    cfg = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _UsageError(f"cannot read config file {path}: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip(" \t")  # blanks only: str.strip() also takes U+00A0 and other non-ASCII ones
        if not line:
            continue
        if "=" not in line:
            raise _UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip(" \t") for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in allowed or key == "config":
            raise _UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in cfg:
            raise _UsageError(f"{path}:{lineno}: duplicate config key {key!r}")
        cfg[key] = (f"{path}:{lineno}: ", value)
    return cfg


def _resolve_options(command, args):
    """Merge CLI flags over config-file values over defaults; every text is converted here."""
    table = OPTION_TABLES[command]
    cfg = _load_config(args.config, table) if args.config else {}
    opts = {}
    for key, (convert, default, _) in table.items():
        flag = "--" + key.replace("_", "-")
        opts[key] = default
        # the config text first, so that it is checked even where the flag overrides it
        for where, text in (cfg.get(key, ("", None)), ("", getattr(args, key))):
            try:
                opts[key] = opts[key] if text is None else convert(text)
            except ValueError as exc:
                raise _UsageError(f"{where}{flag} {exc}") from None
        if opts[key] is _REQUIRED:
            raise _UsageError(f"{flag} is required")
    return opts


def _library_check(check, *args):
    """Call a library function and report a ValueError from its checks as a usage error."""
    try:
        return check(*args)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _warn_at_bound(what: str, fits, bounds) -> None:
    """One stderr line naming the bound flags that the given at-bound fits stopped at, if there are any."""
    # a bound as :g shows it where that reads back to it, else as repr, the shortest text that does (1.000001, not 1)
    flags = [f"{flag} {bound:g}" if float(f"{bound:g}") == bound else f"{flag} {bound!r}"
             for flag, bound in zip(("--gamma-min", "--gamma-max"), bounds) if bound in fits]
    if flags:
        print(f"warning: {what} stopped at the bound {' and '.join(flags)}", file=sys.stderr)


def _emit(path: Path, data, meta=None) -> None:
    """Write data to path through a temporary file (a failure leaves nothing), then meta, if given, to its sidecar;
    report each file.  A dict goes as indented JSON, a Table block by block as it is made, a buffer at once."""
    data = (json.dumps(data, indent=2) + "\n").encode() if isinstance(data, dict) else data
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:  # a Table, not any iterable: a uint8 ndarray iterates one byte at a time
            fh.writelines(data.blocks() if isinstance(data, Table) else [data])
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    print(f"wrote {path}")
    if meta is not None:
        _emit(sidecar_path(path), meta)


def _cmd_spectrum(opts) -> None:
    window = _library_check(OamWindow.symmetric, opts["half_width"])
    spec = _library_check(joint_spectrum, opts["gamma"], window, window, opts["n_modes"])
    cond = conditional_slice(0, window, spec.gamma)
    bounds = [window.l_min, window.l_max]
    meta = {"gamma": spec.gamma, "n_modes": spec.n_modes, "window": {"a": bounds, "b": bounds}}
    cond_meta = {"gamma": spec.gamma, "l_a": 0, "window": bounds}
    out, tag = Path(opts["out"]), f"g{spec.gamma:g}"
    if opts["format"] == "csv":
        _emit(out / f"spectrum_{tag}.csv", joint_spectrum_to_csv(spec), meta)
        _emit(out / f"conditional_{tag}_la0.csv", format_table("l_b,value", window.indices(), cond.values), cond_meta)
    else:
        _emit(out / f"spectrum_{tag}.json", {**meta, "values": spec.values.tolist()})
        _emit(out / f"conditional_{tag}_la0.json", {**cond_meta, "values": cond.values.tolist()})


def _cmd_sweep(opts) -> None:
    gammas = [_library_check(require_gamma, g) for g in opts["gamma"]]
    frames = [frame_from_gamma(gamma) for gamma in gammas]
    columns = (
        gammas,
        [mode_count_closed(gamma) for gamma in gammas],
        [measurement_sum(gamma) for gamma in gammas],
        [frame.rapidity for frame in frames],
        [frame.beta for frame in frames],
    )
    _emit(Path(opts["out"]) / "sweep.csv", format_table("gamma,omega_closed,m,eta,beta", *columns), {"gamma": gammas})


def _cmd_hologram(opts) -> None:
    fmt, args = opts["format"], (opts["l"], opts["gamma"], opts["width"], opts["height"], opts["extent"])
    data = _library_check(_render, *args, fmt)  # a P5 buffer or a CSV Table, from row blocks with no float64 field
    _emit(Path(opts["out"]) / f"holo_l{opts['l']}_g{opts['gamma']:g}_{opts['width']}x{opts['height']}.{fmt}", data)


def _noise_model(opts) -> NoiseModel:
    return _library_check(NoiseModel, opts["pair_rate"], opts["accidental_rate"], opts["integration"])


def _cmd_simulate(opts) -> None:
    half_widths = (opts["half_width"] if opts["half_width_a"] is None else opts["half_width_a"], opts["half_width"])
    windows = tuple(_library_check(OamWindow.symmetric, h) for h in half_widths)
    counts = _library_check(simulate_counts, opts["gamma"], windows, _noise_model(opts), opts["seed"])
    csv_file = Path(opts["out"]) / f"counts_g{counts.gamma_encoded:g}_seed{counts.seed}.csv"
    _emit(csv_file, count_spectrum_to_csv(counts), count_spectrum_sidecar(counts))


def _cmd_estimate(opts) -> None:
    bounds = _library_check(check_gamma_bounds, (opts["gamma_min"], opts["gamma_max"]))
    counts_file = Path(opts["counts"])
    if not counts_file.is_file():  # a directory or an empty path is rejected here, not by the reader
        raise _UsageError(f"--counts {opts['counts']!r} is not a file" if counts_file.exists() else
                          f"--counts file {counts_file} does not exist")
    counts = read_count_spectrum(counts_file)
    if opts["l_a"] not in counts.window_a:
        raise _UsageError(f"--l-a {opts['l_a']} lies outside the simulated window "
                          f"[{counts.window_a.l_min}, {counts.window_a.l_max}]")
    subtract, window_b = opts["subtract"], counts.window_b
    if subtract in ("minimum", "both") and len(window_b) == 1:
        raise _UsageError(f"--subtract {subtract} leaves nothing to fit in the one-cell l_b window [{window_b.l_min}, "
                          f"{window_b.l_max}]: a one-cell row less its minimum is 0; use --subtract none or accidental")
    cond = counts_conditional(counts, opts["l_a"], subtract)
    out = Path(opts["out"])
    if opts["method"] in ("m_sum", "both"):
        _emit(out / "fit_m_sum.json", estimate_gamma_msum(cond).to_dict())
    if opts["method"] in ("least_squares", "both"):
        fit = estimate_gamma_fit(cond, bounds)
        _emit(out / "fit_least_squares.json", fit.to_dict())
        _warn_at_bound("the least-squares fit", [fit.gamma_meas] if fit.at_bound else [], bounds)


def _cmd_experiment(opts) -> None:
    gammas = [_library_check(require_gamma, g) for g in opts["gamma"]]
    window = _library_check(OamWindow.symmetric, opts["half_width"])  # l_b's window; l_a's is OamWindow(0, 0)
    runs, subtract = opts["runs"], opts["subtract"]
    bounds = _library_check(check_gamma_bounds, (opts["gamma_min"], opts["gamma_max"]))
    model = None if opts["noiseless"] else _noise_model(opts)
    if model is not None and opts["half_width"] == 0 and subtract in ("minimum", "both"):
        raise _UsageError(f"--half-width 0 with --subtract {subtract} leaves nothing to fit: a one-cell row less its "
                          "minimum is 0; use --subtract none or accidental, a wider window, or --noiseless")
    seeds = range(opts["seed"], opts["seed"] + runs)
    _library_check(check_cells, OamWindow(0, 0), window, runs, len(gammas))
    _library_check(check_stream_keys, seeds)

    # all gammas' rows in one pass, each step per cell or per row: no bit moves, and the first faulty row raises
    if model is None:
        values = np.repeat(geometric_kernel(window.indices(), np.array(gammas)[:, None]), runs, axis=0)
    else:
        counts = _library_check(_count_runs, gammas, (OamWindow(0, 0), window), model, seeds)[:, :, 0]
        values = _subtract(counts.reshape(len(gammas) * runs, -1).astype(float), model, subtract)
    norm = _peak_normalised(values, 0, window)
    m_sums, (fit, residual, at_bound) = _msum_gammas(norm, 0, window), _fit(norm, window.indices(), *bounds)
    summary_rows = []
    # every peak is positive by now, so _mode_counts cannot raise
    columns = (column.reshape(len(gammas), runs) for column in (_mode_counts(values), m_sums, fit, at_bound))
    for gamma, omega, m_sum, fits, hits in zip(gammas, *columns):
        frame = frame_from_gamma(float(np.mean(fits)))
        summary_rows.append(
            {"gamma_encoded": gamma, "omega_empirical": float(np.mean(omega)),
             "gamma_meas_m_sum": float(np.mean(m_sum)), "gamma_meas_least_squares": frame.gamma, "eta": frame.rapidity,
             "beta": frame.beta, "at_bound_runs": int(hits.sum())}
        )
        _warn_at_bound(f"gamma {gamma:g}: {hits.sum()} of {runs} least-squares fits", fits[hits], bounds)

    keys = ("seed", "runs", "half_width", "noiseless", "subtract", "pair_rate", "accidental_rate", "integration")
    parameters = {"gamma": gammas, **{key: opts[key] for key in keys}, "gamma_bounds": list(bounds)}
    out = Path(opts["out"])
    seed_column = np.tile(np.repeat(np.array(seeds, dtype=object), 2), len(gammas))
    methods = np.tile(["m_sum", "least_squares"], runs * len(gammas))
    # each run's m_sum row, then its least_squares row
    meas, resid = (np.stack(pair, axis=1).ravel() for pair in ((m_sums, fit), (np.zeros_like(residual), residual)))
    columns = seed_column, np.repeat(gammas, 2 * runs), meas, methods, resid
    _emit(out / "experiment_batch.csv", batch_csv(*columns))
    _emit(out / "experiment_summary.json", {"parameters": parameters, "results": summary_rows})


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "sweep": _cmd_sweep,
    "hologram": _cmd_hologram,
    "simulate": _cmd_simulate,
    "estimate": _cmd_estimate,
    "experiment": _cmd_experiment,
}


def _add_options(parser: argparse.ArgumentParser, command: str) -> argparse.ArgumentParser:
    for key, (convert, _, help_text) in OPTION_TABLES[command].items():
        switch = {"action": "store_const", "const": "true"} if convert is _parse_bool else {}
        parser.add_argument("--" + key.replace("_", "-"), dest=key, help=help_text, **switch)
    return parser


def build_parser() -> argparse.ArgumentParser:
    description = "Joint OAM spectra of boosted detector pairs: compute, simulate, recover gamma."
    parser = argparse.ArgumentParser(prog="oamboost", description=description)
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command in OPTION_TABLES:
        _add_options(subparsers.add_parser(command), command)
    return parser


def main(argv=None) -> int:
    # parse with the invoked command's parser alone, its subparser's twin; what it leaves over goes to the whole tree
    argv, rest = sys.argv[1:] if argv is None else argv, [None]  # [None]: no command parser ran
    if argv and argv[0] in OPTION_TABLES:
        parser = _add_options(argparse.ArgumentParser(prog=f"oamboost {argv[0]}"), argv[0])
        args, rest = parser.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if rest:
        args = build_parser().parse_args(argv)
    try:
        opts = _resolve_options(args.command, args)
        _COMMANDS[args.command](opts)
    except Exception as exc:  # noqa: BLE001 - a usage error exits 2, any other failure 1
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, _UsageError) else 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
