import hashlib
import inspect
import io
import json
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from oamboost import cli, hologram
from oamboost._table import format_table
from oamboost.cli import OPTION_TABLES, build_parser, main
from oamboost.estimate import FitResult
from oamboost.hologram import export_hologram, generate_hologram
from oamboost.simulate import CountSpectrum, NoiseModel, simulate_counts
from oamboost.spectrum import ConditionalSlice, OamWindow, joint_spectrum, joint_spectrum_to_csv

SRC = str(Path(__file__).resolve().parents[1] / "src")


def read_csv_rows(path):
    lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


class TestSpectrumCommand:
    def test_rest_frame_antidiagonal(self, tmp_path, capsys):
        assert main(["spectrum", "--gamma", "1", "--half-width", "3", "--out", str(tmp_path)]) == 0
        header, rows = read_csv_rows(tmp_path / "spectrum_g1.csv")
        assert header == ["l_a", "l_b", "value"]
        for la, lb, value in rows:
            expected = 1.0 if int(la) == -int(lb) else 0.0
            assert float(value) == expected
        assert (tmp_path / "spectrum_g1.meta.json").exists()
        header, rows = read_csv_rows(tmp_path / "conditional_g1_la0.csv")
        assert header == ["l_b", "value"]
        assert len(rows) == 7

    def test_broadened_spectrum(self, tmp_path):
        assert main(["spectrum", "--gamma", "10", "--half-width", "20", "--out", str(tmp_path)]) == 0
        _, rows = read_csv_rows(tmp_path / "spectrum_g10.csv")
        values = {(int(la), int(lb)): float(v) for la, lb, v in rows}
        q = 9.0 / 11.0
        assert values[(0, 0)] == 1.0
        assert values[(0, 2)] == pytest.approx(q**2, rel=1e-12)
        assert values[(0, 1)] == 0.0
        assert values[(5, -1)] == pytest.approx(q**4, rel=1e-12)

    def test_json_format(self, tmp_path):
        assert main(
            ["spectrum", "--gamma", "2", "--half-width", "2", "--format", "json", "--out", str(tmp_path)]
        ) == 0
        payload = json.loads((tmp_path / "spectrum_g2.json").read_text())
        assert payload["gamma"] == 2.0
        assert payload["window"] == {"a": [-2, 2], "b": [-2, 2]}
        cond = json.loads((tmp_path / "conditional_g2_la0.json").read_text())
        assert cond["l_a"] == 0
        assert cond["values"][2] == 1.0

    def test_invalid_gamma_exits_2(self, tmp_path, capsys):
        assert main(["spectrum", "--gamma", "0.5", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "gamma must be >= 1" in err
        assert not list(tmp_path.iterdir())

    def test_missing_gamma_exits_2(self, tmp_path, capsys):
        assert main(["spectrum", "--out", str(tmp_path)]) == 2
        assert "--gamma is required" in capsys.readouterr().err


class TestSweepCommand:
    def test_monotone_mode_count(self, tmp_path):
        gammas = ",".join(str(g) for g in range(1, 21))
        assert main(["sweep", "--gamma", gammas, "--out", str(tmp_path)]) == 0
        header, rows = read_csv_rows(tmp_path / "sweep.csv")
        assert header == ["gamma", "omega_closed", "m", "eta", "beta"]
        assert len(rows) == 20
        omegas = [float(row[1]) for row in rows]
        assert all(a < b for a, b in zip(omegas, omegas[1:]))

    def test_single_rest_frame_row(self, tmp_path):
        assert main(["sweep", "--gamma", "1", "--out", str(tmp_path)]) == 0
        _, rows = read_csv_rows(tmp_path / "sweep.csv")
        assert [float(v) for v in rows[0]] == [1.0, 1.0, 1.0, 0.0, 0.0]

    def test_empty_list_exits_2(self, tmp_path, capsys):
        assert main(["sweep", "--gamma", "", "--out", str(tmp_path)]) == 2
        assert "at least one" in capsys.readouterr().err


class TestHologramCommand:
    def test_pgm_with_naming_convention(self, tmp_path):
        assert main(
            ["hologram", "--l", "1", "--gamma", "10", "--width", "32", "--height", "32", "--out", str(tmp_path)]
        ) == 0
        data = (tmp_path / "holo_l1_g10_32x32.pgm").read_bytes()
        assert data.startswith(b"P5\n32 32\n255\n")
        assert len(data) == len(b"P5\n32 32\n255\n") + 32 * 32

    def test_zero_charge_uniform(self, tmp_path):
        assert main(
            ["hologram", "--l", "0", "--gamma", "3", "--width", "8", "--height", "8", "--out", str(tmp_path)]
        ) == 0
        data = (tmp_path / "holo_l0_g3_8x8.pgm").read_bytes()
        assert set(data[len(b"P5\n8 8\n255\n") :]) == {0}

    def test_odd_size_center_pixel(self, tmp_path):
        assert main(
            ["hologram", "--l", "1", "--gamma", "2", "--width", "5", "--height", "5",
             "--format", "csv", "--out", str(tmp_path)]
        ) == 0
        rows = (tmp_path / "holo_l1_g2_5x5.csv").read_text().strip().splitlines()
        center = float(rows[2].split(",")[2])
        assert center == 0.0

    def test_invalid_gamma(self, tmp_path, capsys):
        assert main(["hologram", "--l", "1", "--gamma", "0.2", "--out", str(tmp_path)]) == 2
        assert "gamma must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["pgm", "csv"])
    def test_huge_charge_exits_2(self, tmp_path, capsys, fmt):
        # 10**20 and 10**20 + 1 used to write the same noise: float(l) rounds above 2**53; up to 10**12 was accepted
        for l in (10**20, 10**20 + 1, -(10**12) - 1, 10**12, 2**31, -(2**31) - 1):
            assert main(["hologram", "--l", str(l), "--gamma", "3", "--width", "6", "--height", "4",
                         "--format", fmt, "--out", str(tmp_path)]) == 2
            assert f"l must be an integer in [-2147483648, 2147483647], got {l}" in capsys.readouterr().err
        assert not tmp_path.exists() or not list(tmp_path.iterdir())
        for l in (2**31 - 1, -(2**31)):
            assert main(["hologram", "--l", str(l), "--gamma", "3", "--width", "6", "--height", "4",
                         "--format", fmt, "--out", str(tmp_path)]) == 0

    def test_size_cap_exits_2_before_allocating(self, tmp_path, capsys):
        tracemalloc.start()
        try:
            code = main(["hologram", "--l", "1", "--gamma", "2", "--width", "1000000", "--height", "1000000",
                         "--out", str(tmp_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "at most 67108864 pixels, got 1000000x1000000" in capsys.readouterr().err
        assert peak < 1 << 20
        assert list(tmp_path.iterdir()) == []

    def test_pgm_never_builds_a_field(self, tmp_path, monkeypatch):
        def no_field(*args, **kwargs):
            raise AssertionError("a float64 field was built")

        expected = export_hologram(generate_hologram(-7, 3.0, width=2048, height=131), "pgm8")
        monkeypatch.setattr(hologram, "generate_hologram", no_field)
        monkeypatch.setattr(hologram, "HologramField", no_field)
        argv = ["hologram", "--l", "-7", "--gamma", "3", "--width", "2048", "--height", "131", "--out", str(tmp_path)]
        assert main(argv) == 0
        assert (tmp_path / "holo_l-7_g3_2048x131.pgm").read_bytes() == expected

    def test_pgm_holds_one_byte_per_pixel(self, tmp_path):
        # the PGM buffer goes to the file as it is: no float64 field (8 MB here) and no copy of the buffer (1 MB)
        size, rows = 1000, hologram._BLOCK_CELLS // 1000
        main(["hologram", "--l", "3", "--gamma", "5", "--width", "8", "--height", "8", "--out", str(tmp_path)])
        tracemalloc.start()
        try:
            code = main(["hologram", "--l", "3", "--gamma", "5", "--width", "1000", "--height", "1000",
                         "--out", str(tmp_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        expected = export_hologram(generate_hologram(3, 5.0, width=size, height=size), "pgm8")
        assert (tmp_path / "holo_l3_g5_1000x1000.pgm").read_bytes() == expected
        assert peak <= size * size + 3 * rows * size * 8

    def test_a_buffer_is_written_without_a_copy(self, tmp_path):
        buf = (np.arange(1 << 22) % 251).astype(np.uint8)
        tracemalloc.start()
        try:
            cli._emit(tmp_path / "buf.pgm", buf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "buf.pgm").read_bytes() == buf.tobytes()
        assert peak < buf.nbytes // 4  # a bytes copy of the 4 MB buffer would show here

    @pytest.mark.parametrize("fmt", ["pgm", "csv"])
    @pytest.mark.parametrize(("gamma", "extent"), [("1e6", "9e307"), ("1e6", "1e303"), ("1", "9e307")])
    def test_extent_whose_grid_overflows_exits_2(self, tmp_path, capsys, fmt, gamma, extent):
        # the former code wrote a mask off by up to 3.93 rad at 9e307, and warned of overflow at 1e303
        argv = ["hologram", "--l", "3", "--gamma", gamma, "--width", "8", "--height", "8", "--extent", extent]
        assert main(argv + ["--format", fmt, "--out", str(tmp_path)]) == 2
        shown = f"got {float(extent)}; 2*extent, gamma*extent (gamma {float(gamma)})"
        assert capsys.readouterr().err == f"error: extent must be positive and finite, {shown}\n"
        assert list(tmp_path.iterdir()) == []


class TestCellCap:
    @pytest.mark.parametrize(
        ("argv", "cells"),
        [
            (["spectrum", "--gamma", "2", "--half-width", "5000"], "10001 x 10001 x 1"),
            (["simulate", "--gamma", "2", "--half-width", "4096"], "8193 x 8193 x 1"),
            (["simulate", "--gamma", "2", "--half-width", "1", "--half-width-a", "11184811"], "22369623 x 3 x 1"),
            (["experiment", "--gamma", "2", "--runs", "1000000"], "1 x 81 x 1000000"),
            (["experiment", "--gamma", "2", "--runs", "1000000", "--noiseless"], "1 x 81 x 1000000"),
            # every gamma's counts are held at once, so the cap counts gammas x runs
            (["experiment", "--runs", "200000"], "1 x 81 x 1000000 (200000 runs at each of 5 gammas)"),
            (["experiment", "--gamma", "2,3", "--half-width", "4095", "--runs", "4097"], "1 x 8191 x 8194"),
        ],
    )
    def test_exits_2_before_allocating(self, tmp_path, capsys, argv, cells):
        tracemalloc.start()
        try:
            code = main(argv + ["--out", str(tmp_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert f"window cells x runs must be at most 67108864, got {cells}" in capsys.readouterr().err
        assert peak < 1 << 20
        assert list(tmp_path.iterdir()) == []


class TestSimulateAndEstimateCommands:
    def run_simulate(self, tmp_path, seed="7"):
        return main(
            [
                "simulate", "--gamma", "5", "--half-width", "15", "--half-width-a", "0",
                "--pair-rate", "5000", "--accidental-rate", "2", "--seed", seed,
                "--out", str(tmp_path),
            ]
        )

    def test_simulate_writes_counts_and_sidecar(self, tmp_path):
        assert self.run_simulate(tmp_path) == 0
        header, rows = read_csv_rows(tmp_path / "counts_g5_seed7.csv")
        assert header == ["l_a", "l_b", "count"]
        assert len(rows) == 31
        meta = json.loads((tmp_path / "counts_g5_seed7.meta.json").read_text())
        assert meta["gamma_encoded"] == 5.0
        assert meta["model"]["pair_rate"] == 5000.0
        assert meta["windows"] == {"a": [0, 0], "b": [-15, 15]}

    def test_simulate_deterministic(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert self.run_simulate(a) == 0
        assert self.run_simulate(b) == 0
        assert (a / "counts_g5_seed7.csv").read_bytes() == (b / "counts_g5_seed7.csv").read_bytes()
        assert (a / "counts_g5_seed7.meta.json").read_bytes() == (
            b / "counts_g5_seed7.meta.json"
        ).read_bytes()

    def test_estimate_from_counts(self, tmp_path):
        assert self.run_simulate(tmp_path) == 0
        assert main(
            [
                "estimate", "--counts", str(tmp_path / "counts_g5_seed7.csv"),
                "--subtract", "both", "--out", str(tmp_path),
            ]
        ) == 0
        for method, extra in (("m_sum", set()), ("least_squares", {"at_bound"})):
            payload = json.loads((tmp_path / f"fit_{method}.json").read_text())
            assert set(payload) == {"gamma_meas", "method", "residual", "eta", "beta", "window", "l_a"} | extra
            assert payload.get("at_bound", False) is False
            assert payload["method"] == method
            assert payload["gamma_meas"] == pytest.approx(5.0, rel=0.1)
            assert payload["window"] == [-15, 15]

    @pytest.mark.parametrize("subtract", ["minimum", "both"])
    def test_estimate_of_one_cell_rows_less_their_minimum_exits_2(self, tmp_path, capsys, monkeypatch, subtract):
        # a one-cell l_b row less its minimum is 0 whatever its count; this exited 1 on the zero peak
        assert main(["simulate", "--gamma", "3", "--half-width", "0", "--out", str(tmp_path)]) == 0
        argv = ["estimate", "--counts", str(tmp_path / "counts_g3_seed0.csv"), "--out", str(tmp_path / "out")]
        capsys.readouterr()

        def no_slice(*args):
            raise AssertionError("the counts were subtracted")

        monkeypatch.setattr(cli, "counts_conditional", no_slice)
        assert main(argv + ["--subtract", subtract]) == 2
        assert capsys.readouterr().err == (
            f"error: --subtract {subtract} leaves nothing to fit in the one-cell l_b window [0, 0]: "
            "a one-cell row less its minimum is 0; use --subtract none or accidental\n"
        )
        assert not (tmp_path / "out").exists()
        monkeypatch.undo()
        for mode in ("none", "accidental"):
            assert main(argv + ["--subtract", mode]) == 0

    def test_estimate_missing_file(self, tmp_path, capsys):
        assert main(["estimate", "--counts", str(tmp_path / "nope.csv")]) == 2
        assert "does not exist" in capsys.readouterr().err

    @pytest.mark.parametrize("counts", [".", "", "/", "somedir"])
    def test_estimate_of_a_directory_or_empty_path_exits_2(self, tmp_path, capsys, monkeypatch, counts):
        # these exited 1 naming no flag: "PosixPath('.') has an empty name", or "somedir.meta.json: cannot read sidecar"
        monkeypatch.chdir(tmp_path)
        (tmp_path / "somedir").mkdir()
        assert main(["estimate", "--counts", counts, "--out", "out"]) == 2
        assert capsys.readouterr() == ("", f"error: --counts {counts!r} is not a file\n")
        assert sorted(path.name for path in tmp_path.iterdir()) == ["somedir"]

    def test_estimate_l_a_outside_window(self, tmp_path, capsys):
        assert self.run_simulate(tmp_path) == 0
        assert main(
            ["estimate", "--counts", str(tmp_path / "counts_g5_seed7.csv"), "--l-a", "3"]
        ) == 2
        assert "--l-a" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("flags", "message"),
        [
            (["--seed", "-1"], "seed must be an integer in [0, 18446744073709551615], got -1"),
            (["--seed", str(2**64)], f"seed must be an integer in [0, 18446744073709551615], got {2**64}"),
            (["--half-width", str(2**31), "--half-width-a", "0"], "half_width must be an integer in [0, 2147483647]"),
            (["--half-width-a", str(2**31 + 5)], f"half_width must be an integer in [0, 2147483647], got {2**31 + 5}"),
        ],
    )
    def test_simulate_key_out_of_range_exits_2(self, tmp_path, capsys, flags, message):
        assert main(["simulate", "--gamma", "2", "--out", str(tmp_path)] + flags) == 2
        assert message in capsys.readouterr().err
        assert not tmp_path.exists() or not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "flags", [["--pair-rate", "1e19"], ["--pair-rate", "1e300"], ["--integration", "1e300"]]
    )
    def test_simulate_lam_too_large_fails_without_outputs(self, tmp_path, capsys, flags):
        # the rates alone decide it, so it is a usage error that names them, found before any draw
        assert main(["simulate", "--gamma", "5", *flags, "--out", str(tmp_path)]) == 2
        assert "error: (pair_rate + accidental_rate) * integration must be at most 9.223e+18" in capsys.readouterr().err
        assert not tmp_path.exists() or not list(tmp_path.iterdir())

    def test_estimate_at_a_bound_says_so(self, tmp_path, capsys):
        # the fit's minimum lies above --gamma-max 4: the fit is 4 itself, flagged, with one warning naming the bound
        assert main(["simulate", "--gamma", "5", "--seed", "3", "--out", str(tmp_path)]) == 0
        counts = str(tmp_path / "counts_g5_seed3.csv")
        capsys.readouterr()
        assert main(["estimate", "--counts", counts, "--gamma-max", "4", "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "fit_least_squares.json").read_text())
        assert (payload["gamma_meas"], payload["at_bound"]) == (4.0, True)
        err = capsys.readouterr().err
        assert err == "warning: the least-squares fit stopped at the bound --gamma-max 4\n"
        assert main(["estimate", "--counts", counts, "--out", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "fit_least_squares.json").read_text())["at_bound"] is False
        assert "warning" not in capsys.readouterr().err

    def test_estimate_rejects_truncated_counts(self, tmp_path, capsys):
        assert self.run_simulate(tmp_path) == 0
        csv_file = tmp_path / "counts_g5_seed7.csv"
        lines = csv_file.read_text(encoding="utf-8").splitlines()
        csv_file.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        assert main(["estimate", "--counts", str(csv_file), "--out", str(tmp_path)]) == 1
        assert "no row for cell (0, 15); expected 31 rows, got 30" in capsys.readouterr().err
        assert not list(tmp_path.glob("fit_*.json"))

    def test_estimate_rejects_empty_counts(self, tmp_path, capsys):
        assert self.run_simulate(tmp_path) == 0
        csv_file = tmp_path / "counts_g5_seed7.csv"
        csv_file.write_bytes(b"")
        assert main(["estimate", "--counts", str(csv_file), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert f"{csv_file}: expected header 'l_a,l_b,count', got ''" in err
        assert "list index out of range" not in err

    def test_estimate_rejects_sidecar_without_model(self, tmp_path, capsys):
        assert self.run_simulate(tmp_path) == 0
        meta_file = tmp_path / "counts_g5_seed7.meta.json"
        meta = json.loads(meta_file.read_text())
        del meta["model"]
        meta_file.write_text(json.dumps(meta))
        assert main(["estimate", "--counts", str(tmp_path / "counts_g5_seed7.csv"), "--out", str(tmp_path)]) == 1
        assert f"{meta_file}: missing key 'model'" in capsys.readouterr().err
        assert not list(tmp_path.glob("fit_*.json"))

    def test_estimate_names_a_bad_sidecar(self, tmp_path, capsys):
        assert self.run_simulate(tmp_path) == 0
        meta_file = tmp_path / "counts_g5_seed7.meta.json"
        meta_file.write_text("{", encoding="utf-8")
        assert main(["estimate", "--counts", str(tmp_path / "counts_g5_seed7.csv"), "--out", str(tmp_path)]) == 1
        assert f"error: {meta_file}: Expecting property name" in capsys.readouterr().err
        assert not list(tmp_path.glob("fit_*.json"))

    def test_estimate_rejects_a_float_seed_in_the_sidecar(self, tmp_path, capsys):
        assert self.run_simulate(tmp_path) == 0
        meta_file = tmp_path / "counts_g5_seed7.meta.json"
        meta = json.loads(meta_file.read_text(encoding="utf-8"))
        meta_file.write_text(json.dumps(dict(meta, seed=7.9)), encoding="utf-8")
        assert main(["estimate", "--counts", str(tmp_path / "counts_g5_seed7.csv"), "--out", str(tmp_path)]) == 1
        message = f"error: {meta_file}: seed must be an integer in [0, 18446744073709551615], got 7.9\n"
        assert capsys.readouterr().err == message
        assert not list(tmp_path.glob("fit_*.json"))

    @pytest.mark.parametrize("gamma", [-5.0, float("nan"), 0.5, 1e300])
    def test_estimate_rejects_an_invalid_gamma_in_the_sidecar(self, tmp_path, capsys, gamma):
        assert self.run_simulate(tmp_path) == 0
        meta_file, csv_file = tmp_path / "counts_g5_seed7.meta.json", tmp_path / "counts_g5_seed7.csv"
        meta = json.loads(meta_file.read_text(encoding="utf-8"))
        meta_file.write_text(json.dumps(dict(meta, gamma_encoded=gamma)), encoding="utf-8")
        csv_file.write_bytes(b"")  # reported before the CSV is parsed
        assert main(["estimate", "--counts", str(csv_file), "--out", str(tmp_path)]) == 1
        assert f"error: {meta_file}: gamma must be" in capsys.readouterr().err
        assert not list(tmp_path.glob("fit_*.json"))

    @pytest.mark.parametrize(
        ("edit", "shown"),
        [(lambda meta: meta.update(gamma_encoded=True), "gamma must be a number, got True"),
         (lambda meta: meta.update(gamma_encoded="5"), "gamma must be a number, got '5'"),
         (lambda meta: meta["model"].update(pair_rate=True), "pair_rate must be a number, got True"),
         (lambda meta: meta["model"].update(accidental_rate="2"), "accidental_rate must be a number, got '2'")],
    )
    def test_estimate_rejects_sidecar_numbers_that_are_not_json_numbers(self, tmp_path, capsys, edit, shown):
        # each used to read back as a float, and estimate exited 0
        assert self.run_simulate(tmp_path) == 0
        meta_file = tmp_path / "counts_g5_seed7.meta.json"
        meta = json.loads(meta_file.read_text(encoding="utf-8"))
        edit(meta)
        meta_file.write_text(json.dumps(meta), encoding="utf-8")
        assert main(["estimate", "--counts", str(tmp_path / "counts_g5_seed7.csv"), "--out", str(tmp_path)]) == 1
        message = f"error: {meta_file}: {shown}\n"
        assert capsys.readouterr().err == message
        assert not list(tmp_path.glob("fit_*.json"))

    def test_estimate_rejects_a_sidecar_window_past_the_index_range(self, tmp_path, capsys):
        # simulate cannot write such a file; estimate --l-a 1099511627776 used to fit it and exit 0
        assert self.run_simulate(tmp_path) == 0
        csv_file, meta_file = tmp_path / "counts_g5_seed7.csv", tmp_path / "counts_g5_seed7.meta.json"
        meta = json.loads(meta_file.read_text(encoding="utf-8"))
        meta["windows"] = {"a": [2**40, 2**40], "b": [-(2**40) - 3, -(2**40) + 3]}
        meta_file.write_text(json.dumps(meta), encoding="utf-8")
        rows = "".join(f"{2**40},{l_b},{100 - abs(l_b + 2**40)}\n" for l_b in range(-(2**40) - 3, -(2**40) + 4))
        csv_file.write_text("l_a,l_b,count\n" + rows, encoding="utf-8")
        assert main(["estimate", "--counts", str(csv_file), "--l-a", str(2**40), "--out", str(tmp_path)]) == 1
        message = f"error: {meta_file}: l_min must be an integer in [-2147483648, 2147483647], got {2**40}\n"
        assert capsys.readouterr().err == message
        assert not list(tmp_path.glob("fit_*.json"))


class TestExperimentCommand:
    def test_noiseless_recovery(self, tmp_path):
        assert main(
            [
                "experiment", "--gamma", "1,2,5,10", "--noiseless",
                "--half-width", "200", "--out", str(tmp_path),
            ]
        ) == 0
        summary = json.loads((tmp_path / "experiment_summary.json").read_text())
        for row in summary["results"]:
            encoded = row["gamma_encoded"]
            assert row["gamma_meas_m_sum"] == pytest.approx(encoded, abs=1e-4)
            assert row["gamma_meas_least_squares"] == pytest.approx(encoded, abs=1e-4)
            assert np.cosh(row["eta"]) == pytest.approx(row["gamma_meas_least_squares"], rel=1e-10)

    def test_noiseless_window_limited_at_gamma_twenty(self, tmp_path):
        assert main(
            [
                "experiment", "--gamma", "20", "--noiseless",
                "--half-width", "20", "--out", str(tmp_path),
            ]
        ) == 0
        summary = json.loads((tmp_path / "experiment_summary.json").read_text())
        row = summary["results"][0]
        assert row["gamma_meas_m_sum"] < 20.0 - 1.0
        assert row["gamma_meas_least_squares"] == pytest.approx(20.0, abs=1e-4)

    def test_noisy_run_and_batch(self, tmp_path):
        assert main(
            [
                "experiment", "--gamma", "2,5", "--seed", "42", "--runs", "3",
                "--half-width", "40", "--out", str(tmp_path),
            ]
        ) == 0
        header, rows = read_csv_rows(tmp_path / "experiment_batch.csv")
        assert header == ["seed", "gamma_encoded", "gamma_meas", "method", "residual"]
        assert len(rows) == 2 * 3 * 2
        seeds = {int(row[0]) for row in rows}
        assert seeds == {42, 43, 44}
        summary = json.loads((tmp_path / "experiment_summary.json").read_text())
        for row in summary["results"]:
            assert row["gamma_meas_least_squares"] == pytest.approx(row["gamma_encoded"], rel=0.05)
        assert summary["parameters"]["subtract"] == "both"

    @pytest.mark.parametrize("extra", [["--subtract", "both"], ["--subtract", "none"], ["--noiseless"]])
    def test_builds_no_per_run_objects(self, tmp_path, monkeypatch, extra):
        # each gamma's runs go from the Poisson kernel to the batch CSV as one array
        argv = ["experiment", "--gamma", "1,5,20", "--seed", "3", "--runs", "4", "--half-width", "12"] + extra
        assert main(argv + ["--out", str(tmp_path / "plain")]) == 0

        def refuse(self, *args, **kwargs):
            raise AssertionError(f"experiment built a {type(self).__name__}")

        for cls in (CountSpectrum, ConditionalSlice, FitResult):
            monkeypatch.setattr(cls, "__init__", refuse)
        with pytest.raises(AssertionError, match="built a CountSpectrum"):
            simulate_counts(2.0, (OamWindow(0, 0), OamWindow(0, 0)), NoiseModel(), 0)
        assert main(argv + ["--out", str(tmp_path / "guarded")]) == 0
        for name in ("experiment_batch.csv", "experiment_summary.json"):
            assert (tmp_path / "guarded" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()

    @pytest.mark.parametrize("extra", [["--subtract", "both"], ["--noiseless"]])
    def test_one_search_for_every_gamma(self, tmp_path, monkeypatch, extra):
        calls, fit = [], cli._fit

        def spy(norm, sums, lo, hi):
            calls.append((norm.shape, sums.tolist(), lo, hi))
            return fit(norm, sums, lo, hi)

        monkeypatch.setattr(cli, "_fit", spy)
        argv = ["experiment", "--gamma", "1,5,20", "--seed", "3", "--runs", "4", "--half-width", "12"]
        assert main(argv + extra + ["--gamma-max", "30", "--out", str(tmp_path)]) == 0
        assert calls == [((12, 25), list(range(-12, 13)), 1.0, 30.0)]

    @pytest.mark.parametrize("extra", [["--subtract", "both"], ["--noiseless"]])
    def test_each_row_is_normalised_once(self, tmp_path, monkeypatch, extra):
        # one call a gamma on all its runs: the normalised rows serve both m_sum and the fit
        calls, normalise = [], cli._peak_normalised

        def spy(values, l_a, window):
            calls.append((values.shape, l_a, window))
            return normalise(values, l_a, window)

        monkeypatch.setattr(cli, "_peak_normalised", spy)
        argv = ["experiment", "--gamma", "1,5,20", "--seed", "3", "--runs", "4", "--half-width", "12"]
        assert main(argv + extra + ["--out", str(tmp_path)]) == 0
        assert calls == [((4, 25), 0, OamWindow.symmetric(12))] * 3

    @pytest.mark.parametrize("subtract", ["minimum", "both"])
    def test_one_cell_rows_less_their_minimum_exit_2_before_drawing(self, tmp_path, capsys, monkeypatch, subtract):
        # a one-cell row less its minimum is 0 on every seed, so the flags alone decide the outcome
        def no_draw(*args):
            raise AssertionError("counts were drawn")

        argv = ["experiment", "--half-width", "0", "--subtract", subtract, "--out", str(tmp_path / "out")]
        monkeypatch.setattr(cli, "_count_runs", no_draw)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --half-width 0 with --subtract " + subtract) and err.count("\n") == 1
        assert not (tmp_path / "out").exists()
        assert main(argv + ["--noiseless"]) == 0  # exact spectra are not subtracted
        monkeypatch.undo()
        assert main(argv[:4] + ["accidental", "--out", str(tmp_path / "accidental")]) == 0

    def test_fits_at_a_bound_are_counted_with_one_line_per_gamma(self, tmp_path, capsys):
        # noiseless gamma = 1 sits on --gamma-min and 30 lies beyond --gamma-max; 5 is resolved
        argv = ["experiment", "--gamma", "1,5,30", "--noiseless", "--runs", "3", "--half-width", "20"]
        assert main(argv + ["--gamma-max", "20", "--out", str(tmp_path)]) == 0
        err = capsys.readouterr().err.splitlines()
        assert err == [
            "warning: gamma 1: 3 of 3 least-squares fits stopped at the bound --gamma-min 1",
            "warning: gamma 30: 3 of 3 least-squares fits stopped at the bound --gamma-max 20",
        ]
        summary = json.loads((tmp_path / "experiment_summary.json").read_text())
        assert [row["at_bound_runs"] for row in summary["results"]] == [3, 0, 3]
        assert [row["gamma_meas_least_squares"] for row in summary["results"]][::2] == [1.0, 20.0]
        header, rows = read_csv_rows(tmp_path / "experiment_batch.csv")
        assert header == ["seed", "gamma_encoded", "gamma_meas", "method", "residual"]

    def test_default_gamma_ladder(self, tmp_path):
        assert main(["experiment", "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "experiment_summary.json").read_text())
        assert [row["gamma_encoded"] for row in summary["results"]] == [1.0, 2.0, 5.0, 10.0, 20.0]
        assert summary["parameters"]["seed"] == 42
        for row in summary["results"]:
            if row["gamma_encoded"] <= 10.0:
                assert row["gamma_meas_least_squares"] == pytest.approx(
                    row["gamma_encoded"], rel=0.05
                )

    def test_deterministic_outputs(self, tmp_path):
        args = ["experiment", "--gamma", "5", "--seed", "9", "--half-width", "30"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        for name in ("experiment_batch.csv", "experiment_summary.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_invalid_gamma_aborts_without_outputs(self, tmp_path, capsys):
        assert main(["experiment", "--gamma", "2,0.5", "--out", str(tmp_path)]) == 2
        assert "gamma must be >= 1" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_last_seed_out_of_range_exits_2(self, tmp_path, capsys):
        args = ["experiment", "--gamma", "2", "--half-width", "5", "--seed", str(2**64 - 2)]
        assert main(args + ["--runs", "3", "--out", str(tmp_path / "over")]) == 2
        message = "seed must be an integer in [0, 18446744073709551615], got 18446744073709551616"
        assert message in capsys.readouterr().err
        assert not (tmp_path / "over").exists()
        assert main(args + ["--runs", "2", "--out", str(tmp_path / "top")]) == 0

    @pytest.mark.parametrize(("seed", "runs", "bad"), [("-5", "2", -5), (str(2**64 - 2), "3", 2**64)])
    def test_noiseless_seed_out_of_range_exits_2(self, tmp_path, capsys, seed, runs, bad):
        # exact spectra draw nothing, but the batch records every seed, so they are checked as a noisy run's are
        argv = ["experiment", "--noiseless", "--gamma", "2", "--half-width", "5", "--seed", seed, "--runs", runs]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert f"error: seed must be an integer in [0, 18446744073709551615], got {bad}\n" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        ("seed", "hashes"),
        [
            ("5", ("2c00a960629b2df73e2720c00b201c5a2e7542cdddd589208e00de7e2df07bb7",
                   "ea34f81c59b80c338d9823395a62ff9fb5c5fb4473c2557b89bdd75b893778ae")),
            (str(2**64 - 2), ("3948e00e3c658032ce2223a29b5bb391a69b9f3455025279bba8046bb20b4e87",
                              "caab63c78b467697d39f93a261008c5216f57375ad71b88362449bd275087bcb")),
        ],
    )
    def test_noiseless_seeds_in_range_write_the_same_bytes(self, tmp_path, seed, hashes):
        # recorded before the noiseless seeds were checked
        argv = ["experiment", "--noiseless", "--gamma", "2", "--half-width", "5", "--seed", seed, "--runs", "2"]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        names = ("experiment_batch.csv", "experiment_summary.json")
        assert tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in names) == hashes

    @pytest.mark.parametrize(
        ("gamma_zero", "message", "floor_warnings"),
        [
            # a zero peak beside positive cells: _mode_counts passes the row, _peak_normalised rejects it
            ([[1, 2, 5, 2, 1], [1, 1, 0, 1, 1]],
             "conditional slice peak at l_b = 0 in window [-2, 2] must be positive, got 0.0", []),
            # an even-sum of 0 clamps with a warning, then one of 1e7 + 1 inverts past GAMMA_MAX
            ([[-1, 0, 1, 0, 0], [0, 0, 1, 0, 10**7]], "gamma must be <= 1e+06, got 20000001.999999948", ["even-sum 0"]),
        ],
    )
    def test_first_failing_gamma_decides_stderr(self, tmp_path, monkeypatch, capsys, gamma_zero, message,
                                                 floor_warnings):
        # gamma 1's all-zero row fails _mode_counts, yet gamma 0's fault is the one reported, as gamma by gamma
        counts = np.array([gamma_zero, [[0, 0, 0, 0, 0], [1, 2, 5, 2, 1]]])[:, :, None, :]
        monkeypatch.setattr(cli, "_count_runs", lambda *args: counts)
        argv = ["experiment", "--gamma", "2,3", "--runs", "2", "--half-width", "2", "--subtract", "none"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv + ["--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        floor = " fell below the physical floor 1; clamping gamma to 1"
        # m_sum's floor warning names the command's module, not the estimator's
        assert [(str(w.message), w.category, w.filename) for w in caught] == [
            (m + floor, RuntimeWarning, cli.__file__) for m in floor_warnings
        ]
        assert not list(tmp_path.iterdir())


# Every option error: the command, and the text its message shows the bad value with.
# "{counts}" stands for an existing file that is not a counts CSV, so an estimate
# case that read it before checking its options would fail with exit 1.
_HOLOGRAM = ["hologram", "--l", "1", "--gamma", "2", "--width", "4", "--height", "4"]
_GAMMA_COMMANDS = {
    "spectrum": ["spectrum"],
    "sweep": ["sweep"],
    "hologram": ["hologram", "--l", "1", "--width", "4", "--height", "4"],
    "simulate": ["simulate"],
    "experiment": ["experiment", "--runs", "2"],
}
OPTION_ERRORS = [
    *(
        pytest.param(argv + ["--gamma", value], f"got {shown}", id=f"{name}-gamma-{value}")
        for name, argv in _GAMMA_COMMANDS.items()
        for value, shown in (("0.5", "0.5"), ("nan", "nan"), ("2e6", "2000000.0"))
    ),
    pytest.param(["spectrum", "--gamma", "2", "--half-width", "-1"], "got -1", id="spectrum-half-width"),
    pytest.param(["simulate", "--gamma", "2", "--half-width", "-1"], "got -1", id="simulate-half-width"),
    pytest.param(["simulate", "--gamma", "2", "--half-width-a", "-1"], "got -1", id="simulate-half-width-a"),
    pytest.param(["experiment", "--half-width", "-1"], "got -1", id="experiment-half-width"),
    pytest.param(["spectrum", "--gamma", "2", "--n-modes", "0"], "got 0", id="n-modes"),
    pytest.param(_HOLOGRAM + ["--width", "1"], "got 1x4", id="width"),
    pytest.param(_HOLOGRAM + ["--height", "1"], "got 4x1", id="height"),
    pytest.param(_HOLOGRAM + ["--extent", "0"], "got 0.0", id="extent-0"),
    pytest.param(_HOLOGRAM + ["--extent", "inf"], "got inf", id="extent-inf"),
    *(
        pytest.param(argv + flags, f"got {shown}", id=f"{argv[0]}-{name}")
        for argv in (["estimate", "--counts", "{counts}"], ["experiment", "--runs", "2"])
        for name, flags, shown in (
            ("gamma-min", ["--gamma-min", "0.5"], "(0.5, 50.0)"),
            ("gamma-max-equal", ["--gamma-min", "5", "--gamma-max", "5"], "(5.0, 5.0)"),
            ("gamma-max-below", ["--gamma-min", "5", "--gamma-max", "2"], "(5.0, 2.0)"),
            ("gamma-max-inf", ["--gamma-max", "inf"], "(1.0, inf)"),
            ("gamma-max-1e9", ["--gamma-max", "1e9"], "(1.0, 1000000000.0)"),
        )
    ),
    pytest.param(["experiment", "--runs", "0"], "--runs must be >= 1, got 0", id="runs"),
    pytest.param(["simulate", "--gamma", "2", "--pair-rate", "0"], "got 0.0", id="simulate-pair-rate"),
    pytest.param(["experiment", "--pair-rate", "0"], "got 0.0", id="experiment-pair-rate"),
    # text an option's converter rejects: the message starts with the flag
    *(
        pytest.param(argv, f"error: {shown}", id=name)
        for name, argv, shown in (
            ("spectrum-gamma-text", ["spectrum", "--gamma", "abc"], "--gamma must be a number, got 'abc'"),
            ("sweep-gamma-text", ["sweep", "--gamma", "1,x"], "--gamma must be a number, got 'x'"),
            ("sweep-gamma-empty", ["sweep", "--gamma", " , "], "--gamma must list at least one value"),
            ("experiment-gamma-empty", ["experiment", "--gamma", ""], "--gamma must list at least one value"),
            ("hologram-l-text", _HOLOGRAM + ["--l", "1.5"], "--l must be an integer, got '1.5'"),
            ("runs-text", ["experiment", "--runs", "two"], "--runs must be an integer, got 'two'"),
            # int() and float() alone read each of these, and the run exited 0
            ("seed-spaced-underscore", ["simulate", "--gamma", "2", "--half-width", "1", "--seed", " 1_0 "],
             "--seed must be an integer, got ' 1_0 '"),
            ("runs-arabic-indic", ["experiment", "--runs", "\u0663", "--noiseless"],
             "--runs must be an integer, got '\u0663'"),
            ("gamma-underscore", ["experiment", "--runs", "\u0663", "--gamma", "1_0", "--noiseless"],
             "--gamma must be a number, got '1_0'"),
            ("pair-rate-spaced", ["simulate", "--gamma", "2", "--pair-rate", "1e4 "],
             "--pair-rate must be a number, got '1e4 '"),
            ("gamma-fullwidth", ["spectrum", "--gamma", "\uff12"], "--gamma must be a number, got '\uff12'"),
            ("gamma-list-no-break-space", ["sweep", "--gamma", "1\u00a02"], "--gamma must be a number, got '1\\xa02'"),
            ("spectrum-format", ["spectrum", "--gamma", "2", "--format", "pgm"],
             "--format must be one of csv, json; got 'pgm'"),
            ("hologram-format", _HOLOGRAM + ["--format", "json"], "--format must be one of pgm, csv; got 'json'"),
            ("estimate-method", ["estimate", "--counts", "{counts}", "--method", "fit"],
             "--method must be one of m_sum, least_squares, both; got 'fit'"),
            ("estimate-subtract", ["estimate", "--counts", "{counts}", "--subtract", "all"],
             "--subtract must be one of none, accidental, minimum, both; got 'all'"),
            ("experiment-subtract", ["experiment", "--subtract", "all"],
             "--subtract must be one of none, accidental, minimum, both; got 'all'"),
        )
    ),
]


@pytest.mark.parametrize(("argv", "shown"), OPTION_ERRORS)
def test_option_error_exits_2_before_any_work(tmp_path, capsys, argv, shown):
    counts = tmp_path / "not_counts.csv"
    counts.write_text("not a counts file\n", encoding="utf-8")
    out = tmp_path / "out"
    argv = [str(counts) if arg == "{counts}" else arg for arg in argv]
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and shown in err
    assert not out.exists()


@pytest.mark.parametrize(
    ("convert", "text", "value"),
    [(cli._parse_int, "10", 10), (cli._parse_int, "-3", -3), (cli._parse_int, "+5", 5), (cli._parse_int, "007", 7),
     (cli._parse_float, "1e3", 1000.0), (cli._parse_float, "-2.5", -2.5), (cli._parse_float, ".5", 0.5),
     (cli._parse_float, "+7", 7.0), (cli._parse_float, "inf", float("inf")), (cli._parse_float, "1E-3", 0.001)],
)
def test_plain_number_forms_convert(convert, text, value):
    assert convert(text) == value


@pytest.mark.parametrize("text", ["1_0", " 1", "1 ", "\t1", "1\n", "\u0663", "\uff11", "", "+", "1.0", "0x1", "1e3"])
def test_parse_int_takes_only_a_sign_and_ascii_digits(text):
    with pytest.raises(ValueError, match=r"^must be an integer, got "):
        cli._parse_int(text)


@pytest.mark.parametrize("text", ["1_0", "1_000.5", " 1", "1 ", "\t1e3", "2\n", "\u0663", "\uff11", "1\u00a0", ""])
def test_parse_float_rejects_underscores_surrounding_whitespace_and_non_ascii(text):
    with pytest.raises(ValueError, match=r"^must be a number, got "):
        cli._parse_float(text)


def test_defaults_come_from_the_library():
    model, holograms = NoiseModel(), inspect.signature(generate_hologram).parameters
    for command in ("simulate", "experiment"):
        for key in ("pair_rate", "accidental_rate", "integration"):
            assert OPTION_TABLES[command][key][1] == getattr(model, key)
    assert [OPTION_TABLES["hologram"][key][1] for key in ("width", "height", "extent")] == [
        holograms[key].default for key in ("width", "height", "extent")
    ]


def test_a_failed_write_leaves_no_file_and_exits_1(tmp_path, capsys, monkeypatch):
    def full(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli.os, "replace", full)
    assert main(["sweep", "--gamma", "2", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
    assert list(tmp_path.iterdir()) == []  # the temporary file is removed


def spy_writes(monkeypatch):
    """The size of each write call made to the files that cli opens, in order."""
    sizes = []

    class Spy(io.BufferedWriter):
        def write(self, data):
            sizes.append(memoryview(data).nbytes)
            return super().write(data)

    monkeypatch.setattr(cli.os, "fdopen", lambda fd, mode: Spy(io.FileIO(fd, mode)))
    return sizes


def traced_peak(write):
    """The peak of memory traced while write() runs."""
    tracemalloc.start()
    try:
        write()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWriter:
    @pytest.mark.parametrize("kind", ["uint8 array", "bytes"])
    def test_a_buffer_is_written_in_one_piece(self, tmp_path, monkeypatch, kind):
        # a uint8 array is iterable, and writing it one byte at a time gives the very same file
        buf = (np.arange(1 << 22) % 251).astype(np.uint8)
        sizes = spy_writes(monkeypatch)
        cli._emit(tmp_path / "buf.pgm", buf if kind == "uint8 array" else buf.tobytes())
        assert sizes == [buf.nbytes]
        assert (tmp_path / "buf.pgm").read_bytes() == buf.tobytes()

    def test_a_table_is_written_block_by_block(self, tmp_path, monkeypatch):
        spec = joint_spectrum(7.0, OamWindow.symmetric(60), OamWindow.symmetric(60))
        sizes = spy_writes(monkeypatch)
        cli._emit(tmp_path / "joint.csv", joint_spectrum_to_csv(spec))
        assert len(sizes) == 1 + 4  # the header line, then blocks of 4,096 rows: 121**2 = 3 * 4,096 + 2,353
        assert sum(sizes) == (tmp_path / "joint.csv").stat().st_size == len(joint_spectrum_to_csv(spec))

    def test_the_peak_stays_within_a_few_blocks_whatever_the_rows(self, tmp_path):
        # int16 inputs: their indexes into the distinct texts take no more room than they do, so what the peak holds
        # beyond them is the writer's own; the former writer held the whole text and its encoded copy (40-144 blocks)
        rng = np.random.default_rng(1)
        for rows in (40_000, 80_000, 160_000):
            l_a, l_b = np.repeat(np.arange(rows // 200), 200), np.tile(np.arange(-100, 100), rows // 200)
            columns = [column.astype(np.int16) for column in (l_a, l_b, rng.integers(0, 1000, rows))]
            block = len(format_table("l_a,l_b,count", *columns)) * 4096 / rows  # the text of one block
            peak = traced_peak(lambda: cli._emit(tmp_path / "t.csv", format_table("l_a,l_b,count", *columns)))
            assert peak - sum(column.nbytes for column in columns) <= 8 * block, rows

    def test_the_spectrum_csv_traces_well_under_its_size(self, tmp_path):
        # at --half-width 200 the former writer traced 11.7 MB for this 3.23 MB file
        spec = joint_spectrum(7.0, OamWindow.symmetric(200), OamWindow.symmetric(200))
        peak = traced_peak(lambda: cli._emit(tmp_path / "spectrum.csv", joint_spectrum_to_csv(spec)))
        assert peak < (tmp_path / "spectrum.csv").stat().st_size / 2

    def test_a_block_that_fails_midway_leaves_nothing(self, tmp_path, monkeypatch, capsys):
        def failing_csv(spec):
            table = joint_spectrum_to_csv(spec)
            cells_of = table.cells_of

            def second_block_fails(start, stop):
                if start:
                    raise RuntimeError("block failed")
                return cells_of(start, stop)

            table.cells_of = second_block_fails
            return table

        monkeypatch.setattr(cli, "joint_spectrum_to_csv", failing_csv)
        sizes = spy_writes(monkeypatch)
        assert main(["spectrum", "--gamma", "3", "--half-width", "100", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: block failed\n"
        assert len(sizes) == 2  # the header and the first block went to the temporary file before the failure
        assert list(tmp_path.iterdir()) == []


class TestConfigFile:
    def test_unreadable_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "missing.cfg"
        assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read config file {cfg}: [Errno 2] No such file")
        assert not (tmp_path / "out").exists()

    def test_line_without_equals_sign_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gamma = 2\nhalf-width 3\n", encoding="utf-8")
        assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {cfg}:2: expected 'key = value'\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text", ["0", "false", "No", "OFF"])
    def test_false_spellings_turn_noiseless_off(self, tmp_path, text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"noiseless = {text}\n", encoding="utf-8")
        argv = ["experiment", "--gamma", "2", "--half-width", "4", "--config", str(cfg), "--out", str(tmp_path)]
        assert main(argv) == 0
        summary = json.loads((tmp_path / "experiment_summary.json").read_text(encoding="utf-8"))
        assert summary["parameters"]["noiseless"] is False
        assert main(argv + ["--noiseless"]) == 0  # the flag still overrides the file
        summary = json.loads((tmp_path / "experiment_summary.json").read_text(encoding="utf-8"))
        assert summary["parameters"]["noiseless"] is True

    def test_config_supplies_values(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gamma = 3\nhalf-width = 4\nout = {}\n".format(tmp_path), encoding="utf-8")
        assert main(["spectrum", "--config", str(cfg)]) == 0
        assert (tmp_path / "spectrum_g3.csv").exists()

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"gamma = 3\nout = {tmp_path}\n", encoding="utf-8")
        assert main(["spectrum", "--config", str(cfg), "--gamma", "7"]) == 0
        assert (tmp_path / "spectrum_g7.csv").exists()
        assert not (tmp_path / "spectrum_g3.csv").exists()

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gamma = 3\nbogus = 1\n", encoding="utf-8")
        assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("argv", "line", "shown"),
        [
            (["spectrum"], "gamma = abc", "--gamma must be a number, got 'abc'"),
            (["sweep"], "gamma = ,", "--gamma must list at least one value"),
            (["spectrum", "--gamma", "2"], "half-width = 1.5", "--half-width must be an integer, got '1.5'"),
            (["experiment"], "noiseless = maybe", "--noiseless must be a boolean, got 'maybe'"),
            (["experiment"], "runs = 0", "--runs must be >= 1, got 0"),
            (["estimate", "--counts", "c.csv"], "subtract = all",
             "--subtract must be one of none, accidental, minimum, both; got 'all'"),
            (["simulate", "--gamma", "2"], "seed = \u0661\u0662", "--seed must be an integer, got '\u0661\u0662'"),
            (["simulate", "--gamma", "2"], "integration = 1_0", "--integration must be a number, got '1_0'"),
            (["simulate", "--gamma", "2"], "seed = \u00a012", "--seed must be an integer, got '\\xa012'"),
        ],
        ids=["gamma-text", "gamma-empty", "half-width-text", "noiseless", "runs", "subtract", "seed-arabic-indic",
             "integration-underscore", "seed-no-break-space"],
    )
    def test_bad_value_names_its_line_and_flag(self, tmp_path, capsys, argv, line, shown):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# manifest\n{line}\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {cfg}:2: {shown}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        ("argv", "line", "shown"),
        [
            (["sweep", "--gamma", "2"], "gamma = abc", "--gamma must be a number, got 'abc'"),
            (["spectrum", "--gamma", "2", "--half-width", "3"], "half-width = 1.5",
             "--half-width must be an integer, got '1.5'"),
            (["experiment", "--noiseless"], "noiseless = maybe", "--noiseless must be a boolean, got 'maybe'"),
        ],
        ids=["gamma", "half-width", "noiseless"],
    )
    def test_bad_value_is_checked_where_a_flag_overrides_it(self, tmp_path, capsys, argv, line, shown):
        # the run used to exit 0 and write its files, so the broken file passed unnoticed
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{line}\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {cfg}:1: {shown}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        ("text", "key"),
        [("gamma = 2\nout = x\ngamma = 3\n", "gamma"), ("gamma = 2\nhalf-width = 3\nhalf_width = 4\n", "half_width")],
        ids=["repeated", "dash-and-underscore"],
    )
    def test_duplicate_key_rejected(self, tmp_path, capsys, text, key):
        # the last value used to win silently
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text, encoding="utf-8")
        assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {cfg}:3: duplicate config key {key!r}\n"
        assert not (tmp_path / "out").exists()

    def test_comments_and_blanks(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"# experiment manifest\n\ngamma = 2  # encoded factor\nout = {tmp_path}\n",
            encoding="utf-8",
        )
        assert main(["sweep", "--config", str(cfg)]) == 0
        assert (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize(
    "argv, written",
    [
        (["spectrum", "--gamma", "3", "--half-width", "2"],
         ["spectrum_g3.csv", "spectrum_g3.meta.json", "conditional_g3_la0.csv", "conditional_g3_la0.meta.json"]),
        (["spectrum", "--gamma", "3", "--half-width", "2", "--format", "json"],
         ["spectrum_g3.json", "conditional_g3_la0.json"]),
        (["sweep", "--gamma", "1,2.5"], ["sweep.csv", "sweep.meta.json"]),
        (["simulate", "--gamma", "5", "--half-width", "2", "--seed", "7"],
         ["counts_g5_seed7.csv", "counts_g5_seed7.meta.json"]),
        (["hologram", "--l", "-2", "--gamma", "4", "--width", "8", "--height", "6"], ["holo_l-2_g4_8x6.pgm"]),
        (["hologram", "--l", "3", "--gamma", "2.5", "--width", "5", "--height", "4", "--format", "csv"],
         ["holo_l3_g2.5_5x4.csv"]),
    ],
)
def test_stdout_names_each_file_in_write_order(tmp_path, capsys, argv, written):
    # each table is reported before its sidecar, and nothing is written that stdout does not name
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out == "".join(f"wrote {tmp_path / name}\n" for name in written)
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(written)


@pytest.mark.parametrize("command", list(OPTION_TABLES))
def test_every_option_has_help(command):
    subparsers = next(action for action in build_parser()._actions if action.dest == "command")
    helps = {action.dest: action.help for action in subparsers.choices[command]._actions}
    assert set(OPTION_TABLES[command]) <= set(helps)
    assert all(helps[key] and helps[key].strip() for key in OPTION_TABLES[command])


# SHA-256 of each --help text at COLUMNS=80: the top level's, then each command's.  argparse lays the texts out,
# so a Python whose argparse formats help differently calls for new hashes.
HELP_SHA256 = {
    "": "7ac5e3609b62e02c1519f2a6264d004ad9f98d370c0c504832d0501411776ca0",
    "spectrum": "065f31656a5fdc68a08723dfe3512a02e17c9bb61cef7d9dbc5dd635a53bd67e",
    "sweep": "f8a45fca0db7d40979bf0c50c77362e033bd217c9c4a5d0dd9f03fa22cfde367",
    "hologram": "7a3159f9d0f98af4de6efa9f02ab6c3b76bd0da502b3a77a180192edbc41236c",
    "simulate": "43ee0f143932ea9b1ab36a9f82bc744f0698161a64db88eb83bfa1f366044a48",
    "estimate": "e0dd912cf5cdec1c8fa29a67247aa1df569c82bce4715bc9180f58ab5cc72a5a",
    "experiment": "277bdac96732dcb359a1f5515b2cfdd876bf44e4764ecea38fd80ad4cc69ba18",
}


def test_help_texts_are_pinned(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert list(HELP_SHA256)[1:] == list(OPTION_TABLES)
    for command, digest in HELP_SHA256.items():
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"] if command else ["--help"])
        captured = capsys.readouterr()
        assert exc.value.code == 0 and captured.err == ""
        assert hashlib.sha256(captured.out.encode()).hexdigest() == digest, command


# (argv, build_parser calls): main must match the whole tree's parse and dispatch in every output byte and exit code
PARSES = [
    (["spectrum", "--gamma", "2", "--half-width", "2", "--out", "{out}"], 0),
    (["spectrum", "--gamma=2", "--half-width=2", "--format=json", "--out={out}"], 0),
    (["sweep", "--gamma", "1,2", "--out", "{out}"], 0),
    (["sweep", "--gamma=1.5", "--config={config}", "--out={out}"], 0),
    (["hologram", "--l", "-2", "--gamma", "2", "--width", "4", "--height", "3", "--out", "{out}"], 0),
    (["hologram", "--l=1", "--gamma=2", "--width=3", "--height=2", "--format=csv", "--out={out}"], 0),
    (["simulate", "--gamma", "2", "--half-width", "2", "--seed", "1", "--out", "{out}"], 0),
    (["simulate", "--gamma=2", "--half-width=1", "--half-width-a=0", "--pair-rate=50", "--out={out}"], 0),
    (["estimate", "--counts", "{counts}", "--out", "{out}"], 0),
    (["estimate", "--counts={counts}", "--method=m_sum", "--l-a=0", "--out={out}"], 0),
    (["experiment", "--gamma", "2", "--half-width", "3", "--runs", "2", "--out", "{out}"], 0),
    (["experiment", "--gamma=2,3", "--half-width=3", "--noiseless", "--out={out}"], 0),
    (["simulate", "--gam", "2", "--half-width", "1", "--out", "{out}"], 0),
    (["spectrum", "--gamma", "2", "--gamma", "3", "--half-width", "1", "--out", "{out}"], 0),
    (["spectrum", "--gamma", "0", "--out", "{out}"], 0),
    (["estimate", "--counts", "{out}/missing.csv"], 0),
    (["simulate", "--half", "3", "--gamma", "2"], 0),
    (["estimate", "--counts", "--out"], 0),
    (["spectrum", "--gamma"], 0),
    (["experiment", "--noiseless=true"], 0),
    (["simulate", "--gamma", "2", "--bogus", "1"], 1),
    (["spectrum", "--gamma", "2", "-x"], 1),
    (["simulate", "--gamma", "2", "extra"], 1),
    (["spectrum", "--gamma", "2", "spectrum"], 1),
    (["sweep", "--gamma", "1", "--", "x"], 1),
    (["sweep", "--gamma", "1", "-"], 1),
    (["sweep", "--gamma", "1", "--out", "{out}", "--"], 1),
    (["simulate", "--bogus", "-h"], 0),
    *[([command, "-h"], 0) for command in OPTION_TABLES],
    (["hologram", "--l", "1", "--help"], 0),
    (["-h"], 1),
    (["--help", "spectrum"], 1),
    ([], 1),
    (["simulat", "--gamma", "2"], 1),
    (["SIMULATE", "--gamma", "2"], 1),
]


def run_captured(capsys, call):
    try:
        code = call()
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


@pytest.mark.parametrize(("argv", "calls"), PARSES, ids=[" ".join(argv) or "no-argv" for argv, _ in PARSES])
def test_one_command_parse_matches_the_whole_tree(tmp_path, monkeypatch, capsys, argv, calls):
    monkeypatch.setenv("COLUMNS", "80")
    config, counts, out = tmp_path / "sweep.conf", tmp_path / "counts_g3_seed5.csv", tmp_path / "out"
    config.write_text("gamma = 4\n", encoding="utf-8")
    assert main(["simulate", "--gamma", "3", "--half-width", "2", "--seed", "5", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    argv = [arg.format(config=config, counts=counts, out=out) for arg in argv]

    def whole_tree():  # the reference: the whole tree parses, then main's dispatch
        args = build_parser().parse_args(argv)
        try:
            cli._COMMANDS[args.command](cli._resolve_options(args.command, args))
        except Exception as exc:  # noqa: BLE001
            print(f"error: {exc}", file=sys.stderr)
            return 2 if isinstance(exc, cli._UsageError) else 1
        return 0

    expected = run_captured(capsys, whole_tree)
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    assert run_captured(capsys, lambda: main(argv)) == expected
    assert len(built) == calls


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "oamboost", "sweep", "--gamma", "1,2", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0
    assert (tmp_path / "sweep.csv").exists()


def test_usage_error_from_argparse():
    with pytest.raises(SystemExit) as exc:
        main(["bogus-command"])
    assert exc.value.code == 2
