"""Tests for geometry, unit conversions and channel statistics.

Groups:
  * dBm conversion and the free-space path-loss curve (hand oracles)
  * node placement invariants and reproducibility
  * channel realization shapes, reproducibility and calibrated moments
  * the draw against the frozen per-block draw in ``scalar_reference``, bit
    for bit, under fuzzed and changing configs, and the baseline sweep's
    lane-drawn channels against single draws
  * frame keys: the vectorised hash against ``SeedSequence``, lane draws of
    the one re-keyed generator and episode resets against one generator per
    frame, and batched seed draws against single ones
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
import scalar_reference as ref

from srnoma import harness
from srnoma.network import (
    ChannelRealization,
    SystemConfig,
    dbm_to_watts,
    derive_keys,
    draw_realization,
    make_placement,
    next_seed,
    path_loss,
    philox,
    philox_keys,
)
from srnoma.env import SrEnv, action_dim, state_vector
from srnoma.ris import ACTIVE

# independent hand evaluation of the 1 m reference loss at 28 GHz
PL0_28GHZ = (299_792_458.0 / (4.0 * math.pi * 28e9)) ** 2


@pytest.fixture
def small_cfg():
    return SystemConfig(n_bs_antennas=4, n_ris_elements=8, n_pairs=3)


# ===========================================================================
# unit conversions
# ===========================================================================


class TestDbm:
    def test_noise_floor(self):
        assert math.isclose(dbm_to_watts(-120.0), 1e-15, rel_tol=1e-12)

    def test_one_watt(self):
        assert math.isclose(dbm_to_watts(30.0), 1.0, rel_tol=1e-12)

    def test_one_milliwatt(self):
        assert math.isclose(dbm_to_watts(0.0), 1e-3, rel_tol=1e-12)

    def test_round_trip(self):
        for dbm in (-120.0, -30.0, 0.0, 17.0, 43.0):
            assert math.isclose(10.0 * math.log10(dbm_to_watts(dbm)) + 30.0, dbm, abs_tol=1e-9)


class TestPathLoss:
    def test_reference_at_one_metre(self):
        got = path_loss(1.0, carrier_hz=28e9, exponent=3.0)
        assert math.isclose(got, PL0_28GHZ, rel_tol=1e-12), f"PL0 off: {got}"

    def test_two_hundred_metres_cubic(self):
        got = path_loss(200.0, carrier_hz=28e9, exponent=3.0)
        assert math.isclose(got, PL0_28GHZ / 8e6, rel_tol=1e-12)

    def test_zero_exponent_is_distance_free(self):
        for d in (5.0, 100.0):
            assert math.isclose(
                path_loss(d, carrier_hz=28e9, exponent=0.0), PL0_28GHZ, rel_tol=1e-12
            )

    def test_nonpositive_distance_rejected(self):
        with pytest.raises(ValueError):
            path_loss(0.0)
        with pytest.raises(ValueError):
            path_loss(-3.0)


# ===========================================================================
# configuration validation
# ===========================================================================


class TestSystemConfig:
    def test_defaults_are_valid(self):
        cfg = SystemConfig()
        assert cfg.symbols_per_bd_symbol == 100
        assert cfg.rician_k == 10.0
        assert math.isclose(cfg.noise_bs_watts, 1e-15, rel_tol=1e-12)
        assert cfg.carrier_hz == 28e9
        assert cfg.path_loss_exponent == 3.0
        assert cfg.d_bs_sbd_m == 200.0
        assert cfg.d_bs_sue_max_m == 100.0
        assert cfg.d_bs_asris_max_m == 300.0
        assert cfg.bs_antenna_gain == 16.0
        assert cfg.ris_element_gain == 8.0

    def test_bad_counts_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig(n_bs_antennas=0)
        with pytest.raises(ValueError):
            SystemConfig(n_pairs=-1)
        for field in ("n_bs_antennas", "n_ris_elements", "n_pairs", "symbols_per_bd_symbol"):
            for value in (2.5, math.inf, True):
                with pytest.raises(ValueError, match=field):
                    SystemConfig(**{field: value})
            assert getattr(SystemConfig(**{field: np.int64(2)}), field) == 2

    def test_bad_efficiency_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig(energy_conversion_efficiency=1.5)

    def test_nonpositive_power_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig(p_bs_max_watts=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(SystemConfig)
                                       if isinstance(f.default, float)])
    def test_non_finite_floats_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            SystemConfig(**{field: value})


# ===========================================================================
# placement
# ===========================================================================


class TestPlacement:
    def test_sbd_ring_is_exact(self, small_cfg):
        pl = make_placement(small_cfg, seed=1)
        np.testing.assert_allclose(np.linalg.norm(pl.sbd - pl.bs, axis=1), small_cfg.d_bs_sbd_m,
                                   rtol=1e-12)

    def test_sues_inside_bs_disc(self, small_cfg):
        pl = make_placement(small_cfg, seed=2)
        assert np.all(pl.d_bs_sue_reflect() <= small_cfg.d_bs_sue_max_m)
        assert np.all(
            np.linalg.norm(pl.sue_transmit, axis=1) <= small_cfg.d_bs_sue_max_m
        )

    def test_surface_within_reach(self, small_cfg):
        pl = make_placement(small_cfg, seed=3)
        assert pl.d_bs_asris() <= small_cfg.d_bs_asris_max_m

    def test_sue_sides_of_surface_plane(self, small_cfg):
        # the surface plane is vertical through its x position
        for seed in range(5):
            pl = make_placement(small_cfg, seed=seed)
            x_plane = pl.asris[0]
            assert np.all(pl.sue_reflect[:, 0] < x_plane), "reflect user behind plane"
            assert np.all(pl.sue_transmit[:, 0] > x_plane), "transmit user before plane"

    def test_same_seed_same_positions(self, small_cfg):
        a = make_placement(small_cfg, seed=77)
        b = make_placement(small_cfg, seed=77)
        np.testing.assert_array_equal(a.sbd, b.sbd)
        np.testing.assert_array_equal(a.sue_reflect, b.sue_reflect)
        np.testing.assert_array_equal(a.sue_transmit, b.sue_transmit)

    @pytest.mark.parametrize("seed", [-1, 1.5, math.inf, True, "7"])
    def test_seeds_are_counts_from_zero(self, seed):
        with pytest.raises(ValueError, match="seed must be in"):
            derive_keys(seed, 2)

    def test_numpy_integer_seeds_fan_out_like_ints(self):
        assert derive_keys(np.uint64(7), 3) == derive_keys(np.int64(7), 3) == derive_keys(7, 3)

    def test_different_seeds_move_nodes(self, small_cfg):
        a = make_placement(small_cfg, seed=1)
        b = make_placement(small_cfg, seed=2)
        assert not np.allclose(a.sbd, b.sbd)

    def test_positions_are_read_only(self, small_cfg):
        pl = make_placement(small_cfg, seed=4)
        for name in ("bs", "asris", "sbd", "sue_reflect", "sue_transmit"):
            with pytest.raises(ValueError):
                getattr(pl, name)[0] = 1.0
            with pytest.raises(AttributeError):
                setattr(pl, name, np.zeros(2))


# ===========================================================================
# channel realizations
# ===========================================================================


class TestChannels:
    def test_shapes(self, small_cfg):
        pl = make_placement(small_cfg, seed=0)
        ch = draw_realization(small_cfg, pl, seed=0)
        n, m, i = 4, 8, 3
        assert ch.h1.shape == (n, i)
        assert ch.g1.shape == (n, i)
        assert ch.h2.shape == (m, n)
        assert ch.h3.shape == (n, i)
        assert ch.g2r.shape == (i, m)
        assert ch.g2t.shape == (i, m)

    def test_same_seed_same_draw(self, small_cfg):
        pl = make_placement(small_cfg, seed=0)
        a = draw_realization(small_cfg, pl, seed=123)
        b = draw_realization(small_cfg, pl, seed=123)
        for blk_a, blk_b in zip(a.blocks(), b.blocks()):
            np.testing.assert_array_equal(blk_a, blk_b)

    def test_different_seeds_differ(self, small_cfg):
        pl = make_placement(small_cfg, seed=0)
        a = draw_realization(small_cfg, pl, seed=1)
        b = draw_realization(small_cfg, pl, seed=2)
        assert not np.allclose(a.h1, b.h1)

    def test_bs_link_second_moment_calibrated(self, small_cfg):
        # Monte-Carlo: mean |h1 entry|^2 must equal PL(d_bs_sbd) * G_bs.
        pl = make_placement(small_cfg, seed=5)
        expected = path_loss(
            small_cfg.d_bs_sbd_m, small_cfg.carrier_hz, small_cfg.path_loss_exponent
        ) * small_cfg.bs_antenna_gain
        # the fewest frames that hold 100,000 h1 entries, as lanes of one draw
        draws = -(-100_000 // (small_cfg.n_bs_antennas * small_cfg.n_pairs))
        ch = draw_realization(small_cfg, pl, range(10_000, 10_000 + draws))
        mean = float(np.mean(np.abs(ch.h1) ** 2))
        assert abs(mean - expected) / expected < 0.02, (
            f"second moment off by {abs(mean - expected) / expected:.3%}"
        )

    def test_rician_line_of_sight_fraction(self, small_cfg):
        # K-factor 10: the deterministic component carries 10/11 of the power.
        pl = make_placement(small_cfg, seed=6)
        h2 = draw_realization(small_cfg, pl, range(50_000, 54_000)).h2
        mean_entry_power = float(np.mean(np.abs(h2.mean(axis=0)) ** 2))
        fraction = mean_entry_power / float(np.mean(np.abs(h2) ** 2))
        assert abs(fraction - 10.0 / 11.0) < 0.03, f"LoS fraction {fraction:.4f}"

    def test_blocks_order_matches_fields(self, small_cfg):
        pl = make_placement(small_cfg, seed=0)
        ch = draw_realization(small_cfg, pl, seed=0)
        blocks = ch.blocks()
        assert blocks[0] is ch.h1 and blocks[1] is ch.g1 and blocks[2] is ch.h2
        assert blocks[3] is ch.h3 and blocks[4] is ch.g2r and blocks[5] is ch.g2t

    def test_realization_dataclass_roundtrip(self):
        one = np.ones((1, 1), dtype=complex)
        ch = ChannelRealization(one, one, one, one, one, one, seed=9)
        assert ch.seed == 9


# ===========================================================================
# the draw against the frozen per-block draw
# ===========================================================================


def assert_bit_equal(got: ChannelRealization, want: ChannelRealization) -> None:
    assert got.seed == want.seed
    for name, a, b in zip(("h1", "g1", "h2", "h3", "g2r", "g2t"), got.blocks(), want.blocks()):
        assert a.shape == b.shape and a.dtype == b.dtype, name
        assert np.array_equal(a.view(float), b.view(float)), f"{name} values differ"
        assert np.array_equal(np.signbit(a.view(float)), np.signbit(b.view(float))), (
            f"{name} signs of zero differ"
        )


def fuzzed_config(rng: np.random.Generator) -> SystemConfig:
    return SystemConfig(
        n_bs_antennas=int(rng.integers(1, 9)),
        n_ris_elements=int(rng.integers(1, 17)),
        n_pairs=int(rng.integers(1, 5)),
        bs_antenna_gain=float(rng.uniform(0.5, 30.0)),
        ris_element_gain=float(rng.uniform(0.5, 30.0)),
        carrier_hz=float(rng.uniform(1e9, 60e9)),
        path_loss_exponent=float(rng.uniform(0.0, 4.0)),
        rician_k=float(rng.choice([0.0, rng.uniform(0.01, 20.0)])),
        d_bs_sbd_m=float(rng.uniform(1.0, 500.0)),
        d_bs_sue_max_m=float(rng.uniform(5.0, 200.0)),
    )


class TestDraw:
    def test_fuzzed_scenes_match_reference_bit_for_bit(self):
        rng = np.random.default_rng(2024)
        for _ in range(60):
            cfg = fuzzed_config(rng)
            pl = make_placement(cfg, seed=int(rng.integers(2**63)))
            for _ in range(4):
                seed = int(rng.integers(2**63))
                assert_bit_equal(draw_realization(cfg, pl, seed),
                                 ref.draw_realization(cfg, pl, seed))

    @pytest.mark.parametrize("rician_k", [0.0, 10.0])
    @pytest.mark.parametrize("counts", [(1, 1, 1), (8, 16, 4), (2, 4, 2), (3, 2, 4)])
    def test_edge_scenes_match_reference(self, counts, rician_k):
        n, m, i = counts
        cfg = SystemConfig(n_bs_antennas=n, n_ris_elements=m, n_pairs=i, rician_k=rician_k)
        pl = make_placement(cfg, seed=n * 100 + m * 10 + i)
        for seed in (0, 1, 2**63 - 1):
            assert_bit_equal(draw_realization(cfg, pl, seed), ref.draw_realization(cfg, pl, seed))

    def test_draw_follows_the_config(self):
        # one placement drawn under A, then B, then A again: B changes every
        # config field the draw reads, and each draw must be its config's own.
        # The placement fixes the number of pairs, so another n_pairs is an
        # error (the reference returned blocks of mismatched shapes).
        base = dict(n_bs_antennas=2, n_ris_elements=4, n_pairs=2)
        cfg_a = SystemConfig(**base)
        pl = make_placement(cfg_a, seed=21)
        changes = dict(
            n_bs_antennas=3, n_ris_elements=5, bs_antenna_gain=4.0,
            ris_element_gain=2.0, carrier_hz=3.5e9, path_loss_exponent=2.2,
            rician_k=0.0, d_bs_sbd_m=50.0,
        )
        variants = [SystemConfig(**{**base, name: value}) for name, value in changes.items()]
        variants.append(SystemConfig(**{**base, **changes}))
        for cfg_b in variants:
            for cfg in (cfg_a, cfg_b, cfg_a):
                for seed in (5, 6):
                    assert_bit_equal(draw_realization(cfg, pl, seed),
                                     ref.draw_realization(cfg, pl, seed))
        for n_pairs in (1, 3):
            with pytest.raises(ValueError, match="n_pairs"):
                draw_realization(SystemConfig(**{**base, "n_pairs": n_pairs}), pl, 5)
        assert_bit_equal(draw_realization(cfg_a, pl, 5), ref.draw_realization(cfg_a, pl, 5))


def test_baseline_point_equals_a_loop_over_single_draws():
    # _baseline_point draws its channels as the lanes of one call; a loop of
    # single draws on the same seed streams must give the same row, bit for bit
    config = harness.default_config()
    config["system"].update(n_bs_antennas=1, n_ris_elements=1, n_pairs=1,
                            harvest_threshold_joules=1e-15)
    config["sweep"].update(n_channels=6, budget=40)
    cfg, seed = harness.system_from(config), 13
    placement_key, draw_key, search_key = derive_keys(seed, 3)
    pl = make_placement(cfg, placement_key)
    draw_rng, search_rng = philox(draw_key), philox(search_key)
    results = [harness.random_search(cfg, draw_realization(cfg, pl, next_seed(draw_rng)), ACTIVE,
                                     40, next_seed(search_rng)) for _ in range(6)]
    feasible = [r for r in results if r.feasible]
    assert feasible, "the check needs a feasible channel"
    assert harness._baseline_point(config, ACTIVE, seed) == {
        "min_rate": float(np.mean([r.objective for r in feasible])),
        "sum_rate": float(np.mean([r.sum_rate for r in feasible])),
        "feasible_channels": len(feasible),
    }


# ===========================================================================
# frame keys and the re-keyed generator
# ===========================================================================


class TestFrameKeys:
    def test_keys_equal_seed_sequence_on_fuzzed_and_edge_seeds(self):
        rng = np.random.default_rng(23)
        seeds = [int(s) for s in rng.integers(0, 2**63, 8000)]
        seeds += [int(s) for s in rng.integers(0, 2**32, 2000)]  # one 32-bit word of entropy
        seeds += [int(s) for s in rng.integers(0, 2**64 - 1, 2000, dtype=np.uint64)]
        seeds += [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**63, 2**64 - 1]
        want = [np.random.SeedSequence(s).generate_state(2, np.uint64) for s in seeds]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no NumPy scalar overflows
            got = philox_keys(seeds)
        assert got.dtype == np.uint64 and got.shape == (len(seeds), 2)
        np.testing.assert_array_equal(got, want)

    def test_numpy_integer_seeds_hash_like_ints(self):
        seeds = [0, 7, 2**31 - 1]
        for kind in (np.int32, np.int64, np.uint32, np.uint64):
            np.testing.assert_array_equal(philox_keys([kind(s) for s in seeds]),
                                          philox_keys(seeds))
        np.testing.assert_array_equal(philox_keys(np.array([5, 2**63], np.uint64)),
                                      philox_keys([5, 2**63]))
        assert philox_keys([]).shape == (0, 2)

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, np.int64(-3), "7"])
    def test_seeds_outside_the_64_bit_counts_are_refused(self, seed, small_cfg):
        with pytest.raises((ValueError, OverflowError)):
            philox_keys([3, seed])
        with pytest.raises((ValueError, OverflowError)):
            draw_realization(small_cfg, make_placement(small_cfg, seed=0), [3, seed])

    def test_a_lane_draw_carries_nothing_over_from_earlier_draws(self, small_cfg):
        # the shared generator is left mid-stream by draws of other sizes; each
        # lane must still be its own seed's frame, as a generator built from it draws
        pl = make_placement(small_cfg, seed=8)
        other = SystemConfig(n_bs_antennas=3, n_ris_elements=5, n_pairs=1)
        seeds = [11, 2**63 - 1, 0, 2**64 - 1]
        for _ in range(2):
            lanes = draw_realization(small_cfg, pl, seeds)
            for lane, seed in enumerate(seeds):
                assert_bit_equal(lanes.lane(lane), ref.draw_realization(small_cfg, pl, seed))
            draw_realization(other, make_placement(other, seed=2), [5, 6, 7])
            draw_realization(small_cfg, pl, [9])
            philox(4).standard_normal(3)
        assert_bit_equal(draw_realization(small_cfg, pl, [11]).lane(0),
                         ref.draw_realization(small_cfg, pl, 11))

    @pytest.mark.parametrize("steps", [1, 4, 25, 200])
    def test_reset_states_equal_per_frame_reference_draws(self, steps, small_cfg):
        # T + 1 = 2, 5, 26 and 201 frames, each keyed by its frame seed alone
        env, seed = SrEnv(small_cfg, episode_steps=steps), 31
        first = env.reset(seed)
        states = env.states
        last = env.step(np.zeros((steps, action_dim(small_cfg)))).state[-1]
        placement_key, channel_key = derive_keys(seed, 2)
        placement, stream = make_placement(small_cfg, placement_key), philox(channel_key)
        frame_seeds = [next_seed(stream) for _ in range(steps + 1)]
        want = [state_vector(ref.draw_realization(small_cfg, placement, s)) for s in frame_seeds]
        assert np.vstack([first, states[1:-1], last]).tobytes() == np.array(want).tobytes()
        assert states.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("count", [0, 1, 2, 26, 201, 5000])
    def test_batched_seeds_equal_single_draws(self, count):
        batched, single = philox(41), philox(41)
        seeds = next_seed(batched, count)
        assert seeds == [int(single.integers(0, 2**63)) for _ in range(count)]  # one per call
        assert all(type(s) is int and 0 <= s < 2**63 for s in seeds)
        after = next_seed(batched)
        assert type(after) is int and after == next_seed(single), "the streams end alike"
        assert repr(batched.bit_generator.state) == repr(single.bit_generator.state)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
