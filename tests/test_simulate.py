import hashlib
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oamboost.simulate as simulate_module
from oamboost.estimate import estimate_gamma_msum
from oamboost.simulate import (
    CountSpectrum,
    NoiseModel,
    check_stream_keys,
    count_spectrum_sidecar,
    count_spectrum_to_csv,
    counts_conditional,
    read_count_spectrum,
    sidecar_path,
    simulate_counts,
)
from oamboost.spectrum import L_RANGE, MAX_CELLS, OamWindow, conditional_slice

U64_MAX = 2**64 - 1
IN_RANGE = r" in \[-2147483648, 2147483647\]"
SEED_RANGE = r"seed must be an integer in \[0, 18446744073709551615\]"


def square_windows(half_width):
    w = OamWindow.symmetric(half_width)
    return (w, w)


def csv_text(table):
    return b"".join(table.blocks()).decode("ascii")


def philox_key(seed, l_a, l_b):
    """The 128-bit Philox key of cell (l_a, l_b) under seed."""
    cell = ((l_a + 2**31) << 32) | (l_b + 2**31)
    return (cell << 64) | seed


def reference_counts(gamma, windows, model, seed):
    """The per-cell generator loop: a fresh numpy Generator(Philox(key)) per cell."""
    window_a, window_b = windows
    scale = model.pair_rate * model.integration
    offset = model.accidental_rate * model.integration
    counts = np.empty((len(window_a), len(window_b)), dtype=np.int64)
    for i, l_a in enumerate(window_a.indices()):
        mu = scale * conditional_slice(int(l_a), window_b, gamma).values + offset
        for j, l_b in enumerate(window_b.indices()):
            rng = np.random.Generator(np.random.Philox(key=philox_key(seed, int(l_a), int(l_b))))
            counts[i, j] = rng.poisson(mu[j])
    return counts


def fresh_draws(key0, key1, lam):
    """numpy's Poisson draw per cell from a new Generator(Philox(key1 * 2**64 + key0))."""
    return np.array(
        [
            np.random.Generator(np.random.Philox(key=(k1 << 64) | k0)).poisson(mu)
            for k0, k1, mu in zip(key0.tolist(), key1.tolist(), lam.tolist())
        ],
        dtype=np.int64,
    )


def reset_draws(key0, key1, lam):
    """fresh_draws at a fifth of the cost: one Philox whose state is reset per cell.

    The reset state (zero counter, empty buffer) is what Philox(key=...)
    starts from; test_reset_reference_matches_fresh_generators checks it.
    """
    bitgen = np.random.Philox(key=0)
    poisson = np.random.Generator(bitgen).poisson
    zeros = np.zeros(4, dtype=np.uint64)
    key = np.zeros(2, dtype=np.uint64)
    state = {
        "bit_generator": "Philox",
        "state": {"counter": zeros, "key": key},
        "buffer": zeros,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    out = np.empty(lam.size, dtype=np.int64)
    for c, (k0, k1, mu) in enumerate(zip(key0.tolist(), key1.tolist(), lam.tolist())):
        key[0] = k0
        key[1] = k1
        bitgen.state = state
        out[c] = poisson(mu)
    return out


def kernel_draws(key0, key1, lam):
    """The vectorised kernel on explicit key0 and key1 arrays and their (k, n) means lam."""
    return simulate_module._draw_poisson(len(lam), lam.shape[1], lambda a, b: (key0[a:b], key1[a:b], lam[:, a:b]))


def mixed_cells(n, rng):
    """n (key0, key1, lam) cells over all three Poisson regimes and their edges.

    A third each: lam uniform in (0, 10) (multiplication method), lam
    log-uniform in [10, 1e6] (PTRS), and lam uniform in [9.5, 12] around
    the switch; then lam = 0, 1e-300, 10 - ulp, 10 and 1e6 repeated, with
    seeds at the top of the 64-bit range among them.
    """
    edges = np.array([0.0, 1e-300, np.nextafter(10.0, 0.0), 10.0, 1e6])
    n_edge = n // 10
    lam = np.concatenate(
        [
            rng.uniform(0.0, 10.0, (n - n_edge) // 3),
            10.0 ** rng.uniform(1.0, 6.0, (n - n_edge) // 3),
            rng.uniform(9.5, 12.0, n - n_edge - 2 * ((n - n_edge) // 3)),
            np.resize(edges, n_edge),
        ]
    )
    key0 = rng.integers(0, 2**64, n, dtype=np.uint64)
    key0[-n_edge::2] = rng.integers(2**64 - 5, 2**64, n_edge - n_edge // 2, dtype=np.uint64)
    key1 = rng.integers(0, 2**64, n, dtype=np.uint64)
    return key0, key1, lam


# Poisson means over both regimes and their edges: lam = 0 draws nothing, 10 - ulp is the
# multiplication method's last mean and 10 PTRS's first.
MEANS = (
    st.floats(0.0, 10.0)
    | st.floats(10.0, 1e6)
    | st.floats(9.5, 12.0)
    | st.sampled_from([0.0, 1e-300, np.nextafter(10.0, 0.0), 10.0, 1e6])
)


class TestNoiseModel:
    def test_defaults(self):
        model = NoiseModel()
        assert model.pair_rate == 1.0e4
        assert model.accidental_rate == 5.0
        assert model.integration == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"pair_rate": 0.0},
            {"pair_rate": -1.0},
            {"accidental_rate": -0.1},
            {"integration": 0.0},
            {"pair_rate": float("inf")},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            NoiseModel(**kwargs)

    @pytest.mark.parametrize(
        ("kwargs", "message"),
        [
            # float() would read these as 1.0, 10000.0 and 2.0
            ({"pair_rate": True}, "pair_rate must be a number, got True"),
            ({"accidental_rate": "1e4"}, "accidental_rate must be a number, got '1e4'"),
            ({"integration": "2"}, "integration must be a number, got '2'"),
            ({"accidental_rate": False}, "accidental_rate must be a number, got False"),
        ],
    )
    def test_rejects_a_bool_or_a_text_rate(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            NoiseModel(**kwargs)

    def test_takes_numbers_of_any_numeric_type(self):
        model = NoiseModel(np.int64(200), np.float32(0.5), 2)
        assert (model.pair_rate, model.accidental_rate, model.integration) == (200.0, 0.5, 2.0)
        assert all(type(value) is float for value in (model.pair_rate, model.accidental_rate, model.integration))


class TestSimulateCounts:
    def test_deterministic_given_seed(self):
        model = NoiseModel(pair_rate=500.0, accidental_rate=2.0)
        one = simulate_counts(5.0, square_windows(8), model, 99)
        two = simulate_counts(5.0, square_windows(8), model, 99)
        np.testing.assert_array_equal(one.counts, two.counts)
        assert csv_text(count_spectrum_to_csv(one)) == csv_text(count_spectrum_to_csv(two))

    def test_seed_changes_counts(self):
        model = NoiseModel(pair_rate=500.0, accidental_rate=2.0)
        one = simulate_counts(5.0, square_windows(8), model, 1)
        two = simulate_counts(5.0, square_windows(8), model, 2)
        assert not np.array_equal(one.counts, two.counts)

    def test_cell_draws_independent_of_window(self):
        # counter-based keying: a cell's draw does not depend on which
        # window it was simulated in
        model = NoiseModel(pair_rate=1.0e4, accidental_rate=0.0)
        big = simulate_counts(5.0, square_windows(10), model, 7)
        small = simulate_counts(
            5.0, (OamWindow(0, 0), OamWindow(2, 2)), model, 7
        )
        i = big.window_a.index_of(0)
        j = big.window_b.index_of(2)
        assert small.counts[0, 0] == big.counts[i, j]

    def test_rest_frame_antidiagonal_only(self):
        model = NoiseModel(pair_rate=1000.0, accidental_rate=0.0)
        counts = simulate_counts(1.0, square_windows(6), model, 3)
        for i, l_a in enumerate(counts.window_a.indices()):
            for j, l_b in enumerate(counts.window_b.indices()):
                if l_a != -l_b:
                    assert counts.counts[i, j] == 0

    def test_poisson_mean(self):
        # cell (0, 2) at gamma=5 has mean 1e4*(2/3)^2; check the seed-ensemble
        # mean against a 3-sigma band for 200 draws
        model = NoiseModel(pair_rate=1.0e4, accidental_rate=0.0)
        windows = (OamWindow(0, 0), OamWindow(2, 2))
        draws = [
            float(simulate_counts(5.0, windows, model, seed).counts[0, 0]) for seed in range(200)
        ]
        mean = 1.0e4 * (2.0 / 3.0) ** 2
        band = 3.0 * np.sqrt(mean) / np.sqrt(200.0)
        assert abs(np.mean(draws) - mean) < band

    def test_cell_cap_comes_before_any_allocation(self, monkeypatch):
        def no_indices(window):
            raise AssertionError("the window indices were built")

        monkeypatch.setattr(OamWindow, "indices", no_indices)
        windows = (OamWindow(0, 0), OamWindow(0, 8191))
        assert 8192 * 8192 == MAX_CELLS
        with pytest.raises(ValueError, match=r"at most 67108864, got 1 x 8192 x 8193"):
            simulate_module._count_runs([2.0], windows, NoiseModel(), range(8193))
        with pytest.raises(ValueError, match=r"at most 67108864, got 8193 x 8193 x 1"):
            simulate_counts(2.0, square_windows(4096), NoiseModel(), 0)
        # 8192 runs of 8192 cells pass the cap and reach the windows' indices
        with pytest.raises(AssertionError, match="indices were built"):
            simulate_module._count_runs([2.0], windows, NoiseModel(), range(8192))

    def test_counts_read_only(self):
        counts = simulate_counts(2.0, square_windows(2), NoiseModel(), 0)
        with pytest.raises(ValueError):
            counts.counts[0, 0] = 1


def pool_size(draw_cap):
    """Context manager that bounds the kernel's flight at draw_cap draws (and so at draw_cap keys)."""
    return mock.patch.object(simulate_module, "_DRAWS_IN_FLIGHT", draw_cap)


class TestPoissonKernel:
    """The vectorised kernel against numpy's own per-cell Generator draws."""

    def test_reset_reference_matches_fresh_generators(self):
        key0, key1, lam = mixed_cells(10_000, np.random.default_rng(1))
        np.testing.assert_array_equal(reset_draws(key0, key1, lam), fresh_draws(key0, key1, lam))

    def test_bit_identical_on_a_million_cells(self):
        key0, key1, lam = mixed_cells(1_000_000, np.random.default_rng(2))
        got = kernel_draws(key0, key1, lam[None])[0]
        expected = reset_draws(key0, key1, lam)
        mismatch = np.flatnonzero(got != expected)
        assert mismatch.size == 0, f"{mismatch.size} cells differ, first lam {lam[mismatch[:5]]}"

    def test_philox_doubles_are_numpys_words(self):
        # every key pair at every block 1..8, word-major: row j holds word j of each cell
        rng = np.random.default_rng(4)
        keys = [(int(a), int(b)) for a, b in rng.integers(0, 2**64, (5, 2), dtype=np.uint64)]
        keys += [(0, 0), (U64_MAX, 0), (0, U64_MAX), (U64_MAX, U64_MAX)]
        cells = [(k0, k1, block) for k0, k1 in keys for block in range(1, 9)]
        key0, key1, block = (np.array(column, dtype=np.uint64) for column in zip(*cells))
        got = simulate_module._philox_doubles(key0, key1, block)
        assert got.shape == (4, len(cells))
        for i, (k0, k1, b) in enumerate(cells):
            words = np.random.Philox(key=(k1 << 64) | k0).random_raw(4 * b)[-4:]
            np.testing.assert_array_equal(got[:, i], (words >> np.uint64(11)) * 2.0**-53)

    def test_mult_block_stops_as_numpys_loop(self):
        # each cell's running product meets exp(-lam) at a chosen word (or none), within a few
        # _LOG_TOL of it, so the stop, the count and the near flag are all exercised
        rng = np.random.default_rng(5)
        n = 20_000
        lam = rng.uniform(1e-3, 10.0, n)
        enlam = np.exp(-lam)
        tol = simulate_module._LOG_TOL
        target = enlam * (1.0 + tol * rng.choice([-3.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0], n))
        stop = rng.integers(0, 5, n)
        prod = np.where(rng.random(n) < 0.5, 1.0, rng.uniform(0.99, 1.0, n))
        u = rng.uniform(0.97, 1.0, (4, n))
        before = prod * np.cumprod(np.vstack((np.ones(n), u[:3])), axis=0)  # product ahead of each word
        at = stop < 4
        u[stop[at], np.flatnonzero(at)] = np.minimum(target[at] / before[stop[at], np.flatnonzero(at)], 1.0 - 2**-53)
        count = rng.integers(0, 40, n)
        expected = []
        for i in range(n):
            p, c, done, near = prod[i], int(count[i]), False, False
            for j in range(4):  # numpy's loop: prod *= U; X += 1 while prod > exp(-lam)
                p *= u[j, i]
                near = abs(p - enlam[i]) <= tol * enlam[i]
                if p <= enlam[i] or near:
                    done = True
                    break
                c += 1
            expected.append((done, near, c, p))
        done, near, c, p = (np.array(column) for column in zip(*expected))
        assert done.any() and (~done).any() and near.any() and (done & ~near).any()
        got_count, got_prod = count.copy(), prod.copy()
        got_done, got_near = simulate_module._mult_block(u.copy(), lam, got_count, got_prod)
        np.testing.assert_array_equal(got_done, done)
        np.testing.assert_array_equal(got_near, near)
        np.testing.assert_array_equal(got_count, c)
        np.testing.assert_array_equal(got_prod[~done], p[~done])

    @settings(max_examples=150, deadline=None)
    @given(
        cells=st.integers(1, 5).flatmap(
            lambda k: st.lists(
                st.tuples(st.integers(0, U64_MAX), st.integers(0, U64_MAX), st.lists(MEANS, min_size=k, max_size=k)),
                min_size=1,
                max_size=60,
            )
        ),
        draw_cap=st.integers(1, 256),
    )
    def test_any_pool_size_matches_the_reference(self, cells, draw_cap):
        # each key carries 1-5 means, and its draws must equal that many independent one-mean draws;
        # a pool smaller than the draws refills between passes and mixes both regimes with draws at
        # other stream positions, and a pool of fewer draws than a key carries still boards the key
        key0, key1 = (np.array(column, dtype=np.uint64) for column in list(zip(*cells))[:2])
        lam = np.array([means for _, _, means in cells], dtype=float).T
        with pool_size(draw_cap):
            got = kernel_draws(key0, key1, lam)
        np.testing.assert_array_equal(got, [reset_draws(key0, key1, row) for row in lam])

    def test_redraw_path_matches(self):
        # a margin covering every comparison sends each drawn cell through
        # numpy's scalar generator; the result must not change, with one mean
        # per key or with four (each key's means then span the regimes)
        key0, key1, lam = mixed_cells(2_000, np.random.default_rng(3))
        for k in (1, 4):
            n = lam.size // k
            with mock.patch.object(simulate_module, "_LOG_TOL", 1e300):
                got = kernel_draws(key0[:n], key1[:n], lam.reshape(k, n))
            np.testing.assert_array_equal(got, [fresh_draws(key0[:n], key1[:n], row) for row in lam.reshape(k, n)])

    @pytest.mark.parametrize(
        ("gamma", "windows", "model", "seed"),
        [
            (5.0, square_windows(20), NoiseModel(), 42),
            (1.0, square_windows(6), NoiseModel(pair_rate=30.0, accidental_rate=0.0), 0),
            (20.0, (OamWindow(-3, 2), OamWindow(-60, 60)), NoiseModel(pair_rate=1e6), U64_MAX - 4),
            (1.5, (OamWindow(-(2**31), -(2**31) + 2), OamWindow(2**31 - 3, 2**31 - 1)), NoiseModel(), 7),
        ],
    )
    def test_simulate_counts_matches_per_cell_loop(self, gamma, windows, model, seed):
        np.testing.assert_array_equal(
            simulate_counts(gamma, windows, model, seed).counts,
            reference_counts(gamma, windows, model, seed),
        )

    def test_count_runs_match_per_seed_calls(self):
        windows = (OamWindow(-1, 1), OamWindow.symmetric(30))
        model = NoiseModel(pair_rate=2e3, accidental_rate=3.0)
        seeds = [0, 5, 6, U64_MAX]
        runs = simulate_module._count_runs([4.0], windows, model, seeds)
        assert (runs.dtype, runs.shape) == (np.int64, (1, 4, 3, 61))
        for seed, counts in zip(seeds, runs[0]):
            np.testing.assert_array_equal(counts, simulate_counts(4.0, windows, model, seed).counts)

    @settings(max_examples=20, deadline=None)
    @given(
        gammas=st.lists(st.just(1.0) | st.floats(1.0, 60.0), min_size=1, max_size=5),
        rates=st.sampled_from([(20.0, 0.0), (1e4, 5.0), (300.0, 0.5)]),
        draw_cap=st.integers(1, 256),
        seed=st.integers(0, U64_MAX - 2),
    )
    def test_gammas_share_each_cell_stream(self, gammas, rates, draw_cap, seed):
        # one call for several gammas gives each gamma's one-gamma counts, and computes each
        # Philox block of a cell once for them all (gamma 1 with no accidentals leaves cells
        # with no draw at any gamma)
        model = NoiseModel(pair_rate=rates[0], accidental_rate=rates[1])
        windows, seeds = (OamWindow(-1, 1), OamWindow.symmetric(4)), range(seed, seed + 2)
        philox, blocks = simulate_module._philox_doubles, []

        def spy(key0, key1, block):
            blocks.extend(zip(key0.tolist(), key1.tolist(), block.tolist()))
            return philox(key0, key1, block)

        with pool_size(draw_cap), mock.patch.object(simulate_module, "_philox_doubles", spy):
            runs = simulate_module._count_runs(gammas, windows, model, seeds)
        assert len(blocks) == len(set(blocks))
        assert runs.shape == (len(gammas), 2, 3, 9)
        for counts, gamma in zip(runs, gammas):
            np.testing.assert_array_equal(counts, simulate_module._count_runs([gamma], windows, model, seeds)[0])

    @settings(max_examples=40, deadline=None)
    @given(
        l_a=st.integers(-40, 40),
        l_b=st.integers(-40, 40),
        pad=st.tuples(*[st.integers(0, 6)] * 4),
        runs=st.integers(1, 4),
        draw_cap=st.integers(1, 256),
        seed=st.integers(0, U64_MAX - 3),
    )
    def test_cell_draw_independent_of_window_and_pool_size(self, l_a, l_b, pad, runs, draw_cap, seed):
        # a small pool puts the cell in flight beside cells at other stream positions
        model = NoiseModel(pair_rate=50.0, accidental_rate=4.0)
        alone = simulate_counts(3.0, (OamWindow(l_a, l_a), OamWindow(l_b, l_b)), model, seed).counts[0, 0]
        windows = (OamWindow(l_a - pad[0], l_a + pad[1]), OamWindow(l_b - pad[2], l_b + pad[3]))
        with pool_size(draw_cap):
            embedded = simulate_module._count_runs([3.0], windows, model, range(seed, seed + runs))
        assert embedded[0, 0, pad[0], pad[2]] == alone

    def test_one_gamma_passes_hold_up_to_the_draw_bound_in_keys(self):
        # with one mean a key, keys and draws in flight are equal, so a 201 x 201 simulate fills its
        # first passes with _DRAWS_IN_FLIGHT keys; the flight's size moves no count
        sizes, philox = [], simulate_module._philox_doubles

        def spy(key0, key1, block):
            sizes.append(key0.size)
            return philox(key0, key1, block)

        with mock.patch.object(simulate_module, "_philox_doubles", spy):
            counts = simulate_counts(5.0, square_windows(100), NoiseModel(), 42).counts
        assert sizes == [16384] * 3 + [15972, 6759, 1101, 58]
        assert hashlib.sha256(counts.tobytes()).hexdigest() == (
            "33f6332f3a919dcd00a9a1cb5d459d471ebda2733f8c34a2f397190cbd0023ca"
        )

    def test_flight_memory_does_not_grow_with_the_gammas(self):
        # the draw bound boards fewer keys a pass as gammas are added; a bound on keys alone
        # held 20 x 4096 draws in flight here, with a tracemalloc peak of about 11 MB
        windows, gammas = (OamWindow(0, 0), OamWindow.symmetric(40)), np.geomspace(1.0, 50.0, 20)
        tracemalloc.start()
        try:
            runs = simulate_module._count_runs(gammas, windows, NoiseModel(), range(100))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert runs.nbytes == 20 * 100 * 81 * 8  # 1.3 MB of the peak is the counts themselves
        assert peak < 4 << 20


class TestStreamKeys:
    @pytest.mark.parametrize("seed", [-1, 2**64, -(2**63)])
    def test_seed_out_of_range(self, seed):
        # no Philox key word holds such a seed, so a CountSpectrum may not record one either
        message = rf"^{SEED_RANGE}, got {seed}$"
        with pytest.raises(ValueError, match=message):
            simulate_counts(2.0, square_windows(1), NoiseModel(), seed)
        with pytest.raises(ValueError, match=message):
            check_stream_keys([0, seed])
        with pytest.raises(ValueError, match=message):
            CountSpectrum(OamWindow(0, 0), OamWindow(0, 0), [[1]], seed, NoiseModel(), 2.0)

    @pytest.mark.parametrize("seed", [1.5, 2.0, np.float64(3.0), "4", None])
    def test_seed_must_be_an_integer(self, seed):
        # int(seed) used to truncate: seed 2.0 drew seed 2's counts, 1.5 seed 1's
        with mock.patch.object(simulate_module, "_draw_poisson") as draw:
            with pytest.raises(ValueError, match=rf"^{SEED_RANGE}, got "):
                simulate_counts(2.0, square_windows(1), NoiseModel(), seed)
            with pytest.raises(ValueError, match=rf"^{SEED_RANGE}, got "):
                simulate_module._count_runs([2.0], square_windows(1), NoiseModel(), [0, seed])
        draw.assert_not_called()

    @pytest.mark.parametrize("seed", [True, False])
    def test_bool_seed_is_not_an_integer(self, seed):
        # bool is an int subclass: seed True drew seed 1's counts
        with mock.patch.object(simulate_module, "_draw_poisson") as draw:
            with pytest.raises(ValueError, match=rf"^{SEED_RANGE}, got {seed}$"):
                simulate_counts(2.0, square_windows(1), NoiseModel(), seed)
            with pytest.raises(ValueError, match=rf"^{SEED_RANGE}, got {seed}$"):
                check_stream_keys([0, seed])
            with pytest.raises(ValueError, match=rf"^{SEED_RANGE}, got {seed}$"):
                CountSpectrum(OamWindow(0, 0), OamWindow(0, 0), [[1]], seed, NoiseModel(), 2.0)
        draw.assert_not_called()

    def test_numpy_integer_seeds_accepted(self):
        expected = simulate_counts(2.0, square_windows(2), NoiseModel(), 5).counts
        for seed in (np.int64(5), np.uint64(5), np.int8(5)):
            run = simulate_counts(2.0, square_windows(2), NoiseModel(), seed)
            assert run.seed == 5 and type(run.seed) is int
            np.testing.assert_array_equal(run.counts, expected)

    @pytest.mark.parametrize("seed", [1.5, 2.0, "3"])
    def test_count_spectrum_seed_must_be_an_integer(self, seed):
        # int(seed) used to truncate: a spectrum built with seed 1.5 recorded seed 1
        with pytest.raises(ValueError, match=rf"^{SEED_RANGE}, got "):
            CountSpectrum(OamWindow(0, 0), OamWindow(0, 0), [[1]], seed, NoiseModel(), 2.0)

    def test_count_spectrum_counts_must_be_non_negative(self):
        with pytest.raises(ValueError, match="^counts must be non-negative$"):
            CountSpectrum(OamWindow(0, 0), OamWindow(-1, 1), [[4, -1, 0]], 0, NoiseModel(), 2.0)

    @pytest.mark.parametrize(
        ("bounds", "name", "bad"),
        [((0, 2**31), "l_max", 2**31), ((-(2**31) - 1, -(2**31)), "l_min", -(2**31) - 1),
         ((-(2**40), -(2**40)), "l_min", -(2**40))],
    )
    def test_window_index_out_of_range(self, bounds, name, bad):
        # the key packs each index in 32 bits, so OamWindow refuses any other before a key is built
        with pytest.raises(ValueError, match=rf"^{name} must be an integer{IN_RANGE}, got {bad}$"):
            OamWindow(*bounds)

    def test_range_edges_accepted(self):
        assert simulate_module._I32_OFFSET == -L_RANGE[0] == 2**31
        windows = (OamWindow(L_RANGE[0], L_RANGE[0]), OamWindow(L_RANGE[1], L_RANGE[1]))
        check_stream_keys((0, U64_MAX))
        counts = simulate_counts(2.0, windows, NoiseModel(), U64_MAX).counts
        np.testing.assert_array_equal(counts, reference_counts(2.0, windows, NoiseModel(), U64_MAX))

    def test_lam_too_large_raises_before_drawing(self):
        # (pair_rate + accidental_rate) * integration bounds the largest cell mean, so the model itself is refused
        limit = simulate_module._POISSON_LAM_MAX
        message = r"\(pair_rate \+ accidental_rate\) \* integration must be at most 9\.223e\+18, got "
        for rates in ((1e19, 5.0, 1.0), (limit, 1e9, 1.0), (1e4, 5.0, 1e300), (1e300, 0.0, 1e10)):
            with pytest.raises(ValueError, match=message):
                NoiseModel(*rates)
        model = NoiseModel(limit / 2, limit / 4, 1.0)
        with mock.patch.object(simulate_module, "_draw_poisson", return_value=np.zeros((1, 9), np.int64)) as draw:
            simulate_counts(2.0, square_windows(1), model, 0)
        draw.assert_called_once()


def cleaned(counts, mode):
    """The count matrix cleaned one l_a row at a time by counts_conditional."""
    return np.array([counts_conditional(counts, l_a, mode).values for l_a in counts.window_a.indices().tolist()])


def reference_subtract(counts, mode):
    """The whole count matrix cleaned at once, each step clamped at zero (the former subtract_background)."""
    values = counts.counts.astype(float)
    if mode in ("accidental", "both"):
        values = np.maximum(values - counts.model.accidental_rate * counts.model.integration, 0.0)
    if mode in ("minimum", "both"):
        values = np.maximum(values - values.min(axis=1, keepdims=True), 0.0)
    return values


class TestSubtractBackground:
    """Background subtraction as counts_conditional applies it, row by row."""

    def test_zero_accidental_unchanged(self):
        model = NoiseModel(pair_rate=200.0, accidental_rate=0.0)
        counts = simulate_counts(3.0, square_windows(5), model, 11)
        np.testing.assert_array_equal(cleaned(counts, "accidental"), counts.counts.astype(float))

    def test_minimum_removes_constant_offset(self):
        window = OamWindow(-3, 3)
        values = np.array([[7, 7, 9, 12, 9, 7, 7]], dtype=np.int64)
        counts = CountSpectrum(
            window_a=OamWindow(0, 0),
            window_b=window,
            counts=values,
            seed=0,
            model=NoiseModel(),
            gamma_encoded=1.0,
        )
        np.testing.assert_array_equal(cleaned(counts, "minimum"), values.astype(float) - 7.0)

    def test_minimum_idempotent(self):
        model = NoiseModel(pair_rate=1.0e3, accidental_rate=4.0)
        counts = simulate_counts(5.0, square_windows(10), model, 21)
        once = cleaned(counts, "minimum")
        again = np.maximum(once - once.min(axis=1, keepdims=True), 0.0)
        np.testing.assert_array_equal(once, again)

    def test_never_negative(self):
        model = NoiseModel(pair_rate=50.0, accidental_rate=20.0)
        counts = simulate_counts(2.0, square_windows(10), model, 5)
        for mode in ("accidental", "minimum", "both"):
            assert cleaned(counts, mode).min() >= 0.0

    def test_unknown_mode(self):
        counts = simulate_counts(2.0, square_windows(2), NoiseModel(), 0)
        with pytest.raises(ValueError, match="unknown subtraction mode 'median'"):
            counts_conditional(counts, 0, "median")

    def test_both_reduces_msum_bias(self):
        # paired comparison over seeded runs at gamma=10
        model = NoiseModel(pair_rate=1.0e4, accidental_rate=5.0)
        windows = (OamWindow(0, 0), OamWindow.symmetric(40))
        with_sub, without = [], []
        for seed in range(100):
            counts = simulate_counts(10.0, windows, model, seed)
            cleaned = counts_conditional(counts, 0, "both")
            raw = counts_conditional(counts, 0, None)
            with_sub.append(estimate_gamma_msum(cleaned).gamma_meas - 10.0)
            without.append(estimate_gamma_msum(raw).gamma_meas - 10.0)
        assert abs(np.mean(with_sub)) < abs(np.mean(without))


@st.composite
def run_batches(draw):
    """(spectra, l_a): count spectra of several runs on one pair of windows and one noise model."""
    a_lo, b_lo = draw(st.integers(-6, 6)), draw(st.integers(-40, 10))
    window_a = OamWindow(a_lo, a_lo + draw(st.integers(0, 4)))
    window_b = OamWindow(b_lo, b_lo + draw(st.integers(0, 30)))
    model = NoiseModel(accidental_rate=draw(st.floats(0.0, 60.0)), integration=draw(st.floats(0.1, 3.0)))
    shape = (draw(st.integers(1, 6)), len(window_a), len(window_b))
    counts = draw(arrays(np.int64, shape, elements=st.integers(0, 120)))
    spectra = [CountSpectrum(window_a, window_b, c, seed, model, 2.0) for seed, c in enumerate(counts)]
    return spectra, draw(st.integers(window_a.l_min, window_a.l_max))


class TestCountsConditional:
    @settings(max_examples=150, deadline=None)
    @given(batch=run_batches(), mode=st.sampled_from([None, "accidental", "minimum", "both"]))
    def test_slice_is_the_whole_matrix_row(self, batch, mode):
        spectra, l_a = batch
        row = spectra[0].window_a.index_of(l_a)
        for counts in spectra:
            cond = counts_conditional(counts, l_a, mode)
            whole = counts.counts.astype(float) if mode is None else reference_subtract(counts, mode)
            assert (cond.l_a, cond.window_b) == (l_a, counts.window_b)
            # tobytes also compares the sign of every zero
            assert cond.values.tobytes() == whole[row].tobytes()
            assert cond.values.min() >= 0.0

    def test_bad_mode_or_row(self):
        counts = simulate_counts(2.0, square_windows(3), NoiseModel(accidental_rate=3.0), 1)
        with pytest.raises(ValueError, match="unknown subtraction mode"):
            counts_conditional(counts, 0, "median")
        with pytest.raises(ValueError, match=r"l = 4 lies outside the window \[-3, 3\]"):
            counts_conditional(counts, 4, None)


class TestSerialization:
    def test_csv_header_and_values(self):
        counts = simulate_counts(2.0, square_windows(1), NoiseModel(pair_rate=100.0), 1)
        lines = csv_text(count_spectrum_to_csv(counts)).strip().splitlines()
        assert lines[0] == "l_a,l_b,count"
        assert len(lines) == 1 + 9
        la, lb, count = lines[1].split(",")
        assert (int(la), int(lb)) == (-1, -1)
        assert int(count) == counts.counts[0, 0]

    def test_sidecar_fields(self):
        counts = simulate_counts(4.0, (OamWindow(0, 0), OamWindow(-3, 3)), NoiseModel(), 17)
        meta = count_spectrum_sidecar(counts)
        assert meta["gamma_encoded"] == 4.0
        assert meta["seed"] == 17
        assert meta["model"] == {"pair_rate": 1.0e4, "accidental_rate": 5.0, "integration": 1.0}
        assert meta["windows"] == {"a": [0, 0], "b": [-3, 3]}

    def test_round_trip(self, tmp_path):
        import json

        counts = simulate_counts(6.0, square_windows(4), NoiseModel(pair_rate=321.0), 8)
        csv_file = tmp_path / "counts.csv"
        csv_file.write_text(csv_text(count_spectrum_to_csv(counts)), encoding="utf-8")
        sidecar_path(csv_file).write_text(
            json.dumps(count_spectrum_sidecar(counts)), encoding="utf-8"
        )
        back = read_count_spectrum(csv_file)
        np.testing.assert_array_equal(back.counts, counts.counts)
        assert back.model == counts.model
        assert back.gamma_encoded == counts.gamma_encoded
        assert back.seed == counts.seed
        assert back.window_a == counts.window_a
        assert back.window_b == counts.window_b

    SMALL = (3.0, (OamWindow(0, 1), OamWindow(-1, 1)), NoiseModel(pair_rate=50.0), 2)
    CAP = r"counts\.meta\.json: window cells x runs must be at most 67108864, got "

    def write_counts(self, tmp_path, rows):
        """Counts CSV of SMALL with the given data rows: an int picks that row of the real CSV."""
        counts = simulate_counts(*self.SMALL)
        lines = csv_text(count_spectrum_to_csv(counts)).splitlines()
        csv_file = tmp_path / "counts.csv"
        body = [lines[1:][r] if isinstance(r, int) else r for r in rows]
        csv_file.write_text("\n".join([lines[0]] + body) + "\n", encoding="utf-8")
        sidecar_path(csv_file).write_text(json.dumps(count_spectrum_sidecar(counts)), encoding="utf-8")
        return csv_file

    @pytest.mark.parametrize(
        ("rows", "message"),
        [
            ([0, 1, 2, 3, 4], r"no row for cell \(1, 1\); expected 6 rows, got 5"),
            ([0, 1, 2, 3, 4, 5, 5], r":8: second row for cell \(1, 1\)"),
            ([0, 1, 2, 2, 4, 5], r":5: second row for cell \(0, 1\)"),
            ([0, 1, 2, 3, 4, 5, "2,0,7"], r":8: cell \(2, 0\) lies outside the windows"),
            ([0, "0,-2,1", 2, 3, 4, 5], r":3: cell \(0, -2\) lies outside the windows"),
            ([0, 1, "0,1", 3, 4, 5], r":4: expected 'l_a,l_b,count' integers"),
            ([0, 1, 2, "1,-1,x", 4, 5], r":5: expected 'l_a,l_b,count' integers"),
            ([0, "0,0, 7_0", 2, 3, 4, 5], r":3: expected 'l_a,l_b,count' integers, got '0,0, 7_0'"),
            ([0, 1, "0,1,7_0", 3, 4, 5], r":4: expected 'l_a,l_b,count' integers, got '0,1,7_0'"),
            ([0, 1, 2, "+1,-1,4", 4, 5], r":5: expected 'l_a,l_b,count' integers"),
            ([0, 1, 2, 3, 4, "1,1\r,5"], r":7: expected 'l_a,l_b,count' integers, got '1,1'"),
            ([0, 1, 2, 3, "1,0,-3", 5], r":6: count must be non-negative, got -3"),
            ([0, 0, "x", 3, 4, 5], r":3: second row for cell \(0, -1\)"),
        ],
    )
    def test_rejects_bad_rows(self, tmp_path, rows, message):
        with pytest.raises(ValueError, match=message):
            read_count_spectrum(self.write_counts(tmp_path, rows))

    @pytest.mark.parametrize(
        ("edit", "message"),
        [
            ("model", r"counts\.meta\.json: missing key 'model'"),
            ("windows", r"counts\.meta\.json: missing key 'windows'"),
            ("seed", r"counts\.meta\.json: missing key 'seed'"),
            ("gamma_encoded", r"counts\.meta\.json: missing key 'gamma_encoded'"),
            (None, r"counts\.meta\.json: cannot read sidecar: No such file or directory"),
            (b"{", r"counts\.meta\.json: Expecting property name"),
            (b"[1, 2]", r"counts\.meta\.json: list indices must be integers"),
            (lambda meta: meta["model"].update(bogus=1), r"counts\.meta\.json: .*unexpected keyword argument 'bogus'"),
            (lambda meta: meta["model"].update(pair_rate=-1), r"counts\.meta\.json: pair_rate must be positive"),
            (lambda meta: meta["windows"].update(a=[3, -3]), r"counts\.meta\.json: l_min must not exceed l_max"),
            (lambda meta: meta.update(gamma_encoded="x"), r"counts\.meta\.json: gamma must be a number, got 'x'$"),
            # float() read these as 1.0, 5.0, 1.0 and 10000.0
            (lambda meta: meta.update(gamma_encoded=True), r"counts\.meta\.json: gamma must be a number, got True$"),
            (lambda meta: meta.update(gamma_encoded="5"), r"counts\.meta\.json: gamma must be a number, got '5'$"),
            (lambda meta: meta["model"].update(pair_rate=True),
             r"counts\.meta\.json: pair_rate must be a number, got True$"),
            (lambda meta: meta["model"].update(pair_rate="1e4"),
             r"counts\.meta\.json: pair_rate must be a number, got '1e4'$"),
            (lambda meta: meta.update(gamma_encoded=-5), r"counts\.meta\.json: gamma must be >= 1 and finite, got -5\.0"),
            (lambda meta: meta.update(gamma_encoded=float("nan")), r"counts\.meta\.json: gamma must be >= 1 and finite, got nan"),
            (lambda meta: meta.update(gamma_encoded=0.5), r"counts\.meta\.json: gamma must be >= 1 and finite, got 0\.5"),
            (lambda meta: meta.update(gamma_encoded=1e300), r"counts\.meta\.json: gamma must be <= 1e\+06, got 1e\+300"),
            # int() would read these as 7 and 1
            (lambda meta: meta.update(seed=7.9), rf"counts\.meta\.json: {SEED_RANGE}, got 7\.9$"),
            (lambda meta: meta.update(seed=True), rf"counts\.meta\.json: {SEED_RANGE}, got True$"),
            # no Philox key word holds these seeds; estimate exited 0 on them
            (lambda meta: meta.update(seed=-5), rf"counts\.meta\.json: {SEED_RANGE}, got -5$"),
            (lambda meta: meta.update(seed=2**70), rf"counts\.meta\.json: {SEED_RANGE}, got {2**70}$"),
            (lambda meta: meta["windows"].update(b=[-2.6, 2.9]),
             rf"counts\.meta\.json: l_min must be an integer{IN_RANGE}, got -2\.6$"),
            (lambda meta: meta["windows"].update(a=[0, 1.0]),
             rf"counts\.meta\.json: l_max must be an integer{IN_RANGE}, got 1\.0$"),
            # 2**63 + 1 cells overflowed len(); such a window now lies past L_RANGE
            (lambda meta: meta["windows"].update(a=[-(2**62), 2**62], b=[0, 0]),
             rf"counts\.meta\.json: l_min must be an integer{IN_RANGE}, got {-(2**62)}$"),
            # windows over the cell cap: the widest window, and 10**10 cells, which reached np.bincount
            (lambda meta: meta["windows"].update(a=list(L_RANGE), b=[0, 0]), CAP + "4294967296 x 1 x 1"),
            (lambda meta: meta["windows"].update(a=[0, 99_999], b=[0, 99_999]), CAP + "100000 x 100000 x 1"),
        ],
    )
    def test_rejects_bad_sidecar(self, tmp_path, edit, message):
        # edit: a key to delete, None to remove the sidecar, bytes to write in its place,
        # or a function that changes its contents; no case allocates for the sidecar's windows
        csv_file = self.write_counts(tmp_path, [0, 1, 2, 3, 4, 5])
        meta_file = sidecar_path(csv_file)
        meta = json.loads(meta_file.read_text(encoding="utf-8"))
        if edit is None:
            meta_file.unlink()
        elif isinstance(edit, bytes):
            meta_file.write_bytes(edit)
        else:
            edit(meta) if callable(edit) else meta.pop(edit)
            meta_file.write_text(json.dumps(meta), encoding="utf-8")
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=message):
                read_count_spectrum(csv_file)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_rejects_empty_file(self, tmp_path):
        csv_file = self.write_counts(tmp_path, [0, 1, 2, 3, 4, 5])
        csv_file.write_bytes(b"")
        with pytest.raises(ValueError, match=r"counts\.csv: expected header 'l_a,l_b,count', got ''"):
            read_count_spectrum(csv_file)

    def test_row_order_free(self, tmp_path):
        back = read_count_spectrum(self.write_counts(tmp_path, [5, 3, 1, 0, 2, 4]))
        np.testing.assert_array_equal(back.counts, simulate_counts(*self.SMALL).counts)
