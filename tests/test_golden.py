"""Golden bytes: the SHA-256 of every file each CLI command writes at fixed flags.

The hashes were recorded before the CSV writers and the counts reader
were rebuilt on one table writer and one numpy reader, and every output
must stay byte-identical.  The least-squares outputs (fit_least_squares.json and
every experiment file) were re-recorded when the fit moved to per-|s| totals and
a Newton iteration and gained at_bound.  The fits and spectra come from numpy's
floating-point kernels, so another numpy build may move a last digit and
call for new hashes; the CSV formatting itself must never do so.
"""

import hashlib

import pytest

from oamboost.cli import main

# Each case: the command lines run in order into one fresh directory
# ("{out}" stands for it), and the SHA-256 of every file found there after.
GOLDEN = {
    "spectrum_csv": (
        [["spectrum", "--gamma", "3", "--half-width", "20", "--n-modes", "2"]],
        {
            "conditional_g3_la0.csv": "fffaf7ba6ffa6106efdba8ae275dfb64a625aa0a9eaf62ea89bc275ec6a6701c",
            "conditional_g3_la0.meta.json": "b59573742685ede32446fd1ca355e9354f2449dd0cfa2f60b2f854ed2a60a683",
            "spectrum_g3.csv": "a54388b3ef30f0be3065c575817f8c269256dc231f8dd7eb34364bfa0ea5e77e",
            "spectrum_g3.meta.json": "bc28779467844085b694db4ee2e4ef3846fe0b6b8f51a0d81e0afa3c890e2104",
        },
    ),
    "spectrum_rest_frame": (
        [["spectrum", "--gamma", "1", "--half-width", "4"]],
        {
            "conditional_g1_la0.csv": "57ada82f42d29928ad1b0b603bf5a0dd00dc275012850cf203cdba344ebeb5b6",
            "conditional_g1_la0.meta.json": "dd6638ec6b0397a73dec266e4760228bac5499a35e785f8be7947290de91e3ff",
            "spectrum_g1.csv": "1e703646d6cd1eb79bc67b758ef5edd9c945aaeb3a03b47beab4903809b4b001",
            "spectrum_g1.meta.json": "10fb2fb256dc6b5d1305be28a98bffd5f294bd5c599aebbbf6b5f9f457b595b2",
        },
    ),
    "spectrum_json": (
        [["spectrum", "--gamma", "2.5", "--half-width", "6", "--format", "json"]],
        {
            "conditional_g2.5_la0.json": "182bdef0cdaa0c87c4b31f092d90508ca36b979e2ae8baed3584cbd67da2c87b",
            "spectrum_g2.5.json": "df77087b829b0c19e046029249cc012595c18b51f45efce26c4deec3f1d20965",
        },
    ),
    "sweep": (
        [["sweep", "--gamma", "1,1.0000001,2.5,10,1e3,1e6"]],
        {
            "sweep.csv": "54e36cdd5457db078e6922802458e8bc9cb21c08a8f89b907fe19386a2677ed7",
            "sweep.meta.json": "212849fdcac3277bf4772f126632f1b521fc860f59c79f33621de47c2ccd1b6e",
        },
    ),
    "hologram_csv": (
        [["hologram", "--l", "3", "--gamma", "2.5", "--width", "33", "--height", "17", "--format", "csv"]],
        {"holo_l3_g2.5_33x17.csv": "e6ddfd2aaf6ff73877c8206aaaea804acae612d540c08807add5c0daa69a6fcb"},
    ),
    "hologram_pgm": (
        [["hologram", "--l", "-2", "--gamma", "4", "--width", "64", "--height", "48"]],
        {"holo_l-2_g4_64x48.pgm": "9654a9dbde39224102cea756d49f02c8688a5742f848324b31625c7f6c0604fc"},
    ),
    # recorded on the whole-array hologram code; at 2048 wide its 130 rows cross
    # four seams of the row blocks that generate_hologram and export_hologram use
    "hologram_pgm_block_seams": (
        [["hologram", "--l", "5", "--gamma", "7", "--width", "2048", "--height", "130"]],
        {"holo_l5_g7_2048x130.pgm": "90e42e655451b19b2fe3702971838c208268171df412d5dc8ba59b6ddad36460"},
    ),
    # recorded before half the rows were mirrored: an odd height, whose centre row is computed, a negative l,
    # which computes the rows with y <= 0, and 131 rows crossing four row-block seams
    "hologram_pgm_mirror_odd_negative": (
        [["hologram", "--l", "-7", "--gamma", "3", "--width", "2048", "--height", "131"]],
        {"holo_l-7_g3_2048x131.pgm": "56d1de5566128f84f20e6d08cf4ac4dd2364470695e638814c7c85026949a429"},
    ),
    "simulate": (
        [["simulate", "--gamma", "5", "--half-width", "15", "--half-width-a", "3", "--seed", "7"]],
        {
            "counts_g5_seed7.csv": "78249ff20c8c998754d84a241f8aa6860789550eb8a40f3a761aeb05ee8507ca",
            "counts_g5_seed7.meta.json": "32f7040a0f8a19b022663deb5f38c8fd5c1b97d926dd60737ff4d32a3376ad27",
        },
    ),
    "estimate": (
        [
            ["simulate", "--gamma", "5", "--half-width", "15", "--half-width-a", "2", "--seed", "11"],
            ["estimate", "--counts", "{out}/counts_g5_seed11.csv", "--l-a", "1", "--subtract", "both"],
        ],
        {
            "counts_g5_seed11.csv": "9009fbe72759f33d01504398fc1067abad01cc1e09a71484441ad3c18b562fc8",
            "counts_g5_seed11.meta.json": "220e1f413dd5c827ba2538d58c4f6868608b4d20f8f286d5f4676f770fd4f31a",
            "fit_least_squares.json": "04a27bd7fdacceddaf39b38d36cc0120dcbce9f1f097f1b5c1f543f444ab20c0",
            "fit_m_sum.json": "3f770d9ad2f3fed6a407bbb17ff71ccb2e1443f8c68dc00b8a7aacb95d1ce782",
        },
    ),
    "experiment": (
        [["experiment", "--gamma", "1,2,5", "--seed", "42", "--runs", "3", "--half-width", "25"]],
        {
            "experiment_batch.csv": "bc5a1ac54aff8749c2e4ce976d95a4f9759703e23b2ab1fe226e4205939bf6e6",
            "experiment_summary.json": "6f783fee8f39afd3d58eee3607938ef07dc2ea8e9ccf5ad3b445a7b67a85e678",
        },
    ),
    # recorded before the runs of a gamma were background-subtracted as one stacked array
    "experiment_subtract_accidental": (
        [["experiment", "--gamma", "1,2,5", "--seed", "42", "--runs", "3", "--half-width", "25", "--subtract", "accidental"]],
        {
            "experiment_batch.csv": "bc5a1ac54aff8749c2e4ce976d95a4f9759703e23b2ab1fe226e4205939bf6e6",
            "experiment_summary.json": "c3c489a36327cd5544c9fe82031088afe41989b0e1ef39826ec0eb8ec954340d",
        },
    ),
    "experiment_subtract_minimum": (
        [["experiment", "--gamma", "1,2,5", "--seed", "42", "--runs", "3", "--half-width", "25", "--subtract", "minimum"]],
        {
            "experiment_batch.csv": "20c2219c79463a674e6ea447419e7fd9f16fe332eac7d316e4312ae65aa5d7ab",
            "experiment_summary.json": "7b463b54de60ba2520c2406a957764aa1a3d7ce3b8375e8bd7097eba02f15ef8",
        },
    ),
    "experiment_subtract_none": (
        [["experiment", "--gamma", "1,2,5", "--seed", "42", "--runs", "3", "--half-width", "25", "--subtract", "none"]],
        {
            "experiment_batch.csv": "cd0a8abcb8cd8e1426ccb15c97d4aab067590a4c2834c4a5940381db697f6416",
            "experiment_summary.json": "a7bdccf82d127a27af0aa83a98ebd1566f448babe6a13d9bc151e2c7d5420bea",
        },
    ),
    # the benchmark's experiment shape at a smaller --runs; recorded on the per-slice
    # object path, before the runs of a gamma were estimated as one array
    "experiment_benchmark_shape": (
        [["experiment", "--gamma", "1,2,5,10,20", "--runs", "20", "--half-width", "40", "--subtract", "both", "--seed", "7"]],
        {
            "experiment_batch.csv": "64a28c80ff8e2c2709b3f4c7a177cef754941fca4df19cdbc0cda2491666943c",
            "experiment_summary.json": "4f5ab77aa0a55945d3bc435d52c470bcb080287390e228ad3e80987b399830f8",
        },
    ),
    "experiment_noiseless": (
        [["experiment", "--gamma", "1.5,20", "--noiseless", "--half-width", "30"]],
        {
            "experiment_batch.csv": "e06c79deb1086a021ffbfb5d145e0b92d6d0b24228f0ca190bc0e3bcfedef051",
            "experiment_summary.json": "860a89023d4eb1915a9c514413a7972fcb75265a2fad584b594d79f2b3ceca43",
        },
    ),
}


def written_hashes(directory):
    return {
        path.relative_to(directory).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_outputs_match_golden_hashes(tmp_path, case):
    steps, expected = GOLDEN[case]
    for step in steps:
        argv = [arg.replace("{out}", str(tmp_path)) for arg in step]
        assert main(argv + ["--out", str(tmp_path)]) == 0
    assert written_hashes(tmp_path) == expected
