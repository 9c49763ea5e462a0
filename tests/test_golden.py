"""Golden bytes: the SHA-256 of every file each CLI command writes at fixed flags.

The hashes were recorded before the CSV writers and the counts reader
were rebuilt on one table writer and one numpy reader, and every output
must stay byte-identical.  The fits and spectra come from numpy's
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
            "fit_least_squares.json": "f2566653208b664da30bcc36e925ad91b08668160f681bfe73c5a7061a50062e",
            "fit_m_sum.json": "3f770d9ad2f3fed6a407bbb17ff71ccb2e1443f8c68dc00b8a7aacb95d1ce782",
        },
    ),
    "experiment": (
        [["experiment", "--gamma", "1,2,5", "--seed", "42", "--runs", "3", "--half-width", "25"]],
        {
            "experiment_batch.csv": "edf35b068b821c95d561dbdf3b01b0d4598c2391c7aaeeb4c7c313a24bf78db1",
            "experiment_summary.json": "ddf5021bff73c8ee6fd1576ee1181a86632893c78628319246769f6a1acd0dcd",
        },
    ),
    # recorded before the runs of a gamma were background-subtracted as one stacked array
    "experiment_subtract_accidental": (
        [["experiment", "--gamma", "1,2,5", "--seed", "42", "--runs", "3", "--half-width", "25", "--subtract", "accidental"]],
        {
            "experiment_batch.csv": "edf35b068b821c95d561dbdf3b01b0d4598c2391c7aaeeb4c7c313a24bf78db1",
            "experiment_summary.json": "72ab95ebfd1950fca7450f3371c1624ca1090d615e1e53c29707ff904d98e35b",
        },
    ),
    "experiment_subtract_minimum": (
        [["experiment", "--gamma", "1,2,5", "--seed", "42", "--runs", "3", "--half-width", "25", "--subtract", "minimum"]],
        {
            "experiment_batch.csv": "49e28972ce03e9c137a95491edc3edf10473d402009dffce63085a98b0911aba",
            "experiment_summary.json": "14bc362a8b9bc581a3f7b695053e2ea6135bfe6b71d655ce1774b2e8bae026bb",
        },
    ),
    "experiment_subtract_none": (
        [["experiment", "--gamma", "1,2,5", "--seed", "42", "--runs", "3", "--half-width", "25", "--subtract", "none"]],
        {
            "experiment_batch.csv": "a04b38d95e2dfb0ffb1e76659fea4cd68c0aa3551b2fbf5c0e4ee00b54f5ad9b",
            "experiment_summary.json": "d50d8bcc4361369bafad7d6046a0eca550ffbdfa3a655b17b5843951862c8b69",
        },
    ),
    # the benchmark's experiment shape at a smaller --runs; recorded on the per-slice
    # object path, before the runs of a gamma were estimated as one array
    "experiment_benchmark_shape": (
        [["experiment", "--gamma", "1,2,5,10,20", "--runs", "20", "--half-width", "40", "--subtract", "both", "--seed", "7"]],
        {
            "experiment_batch.csv": "395c658769c326b98b146c0b13d0f5fbfcbb9f310920b2a2f7724b3d917bf890",
            "experiment_summary.json": "4c503f277099dd14688bf70fa9b0a10ab6e3503c9aa5edded902ea2fe9da9f90",
        },
    ),
    "experiment_noiseless": (
        [["experiment", "--gamma", "1.5,20", "--noiseless", "--half-width", "30"]],
        {
            "experiment_batch.csv": "5dad21658ee52ce937c3cef268c8eea5af82810f842482b84a961f399857553d",
            "experiment_summary.json": "e3e1837188e5c9635ed0d1822cf7298504c61197d64885570ff8e2ca7aeac131",
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
