"""Unitary evolution of the coined walker and its classical comparator.

Hand-derived small-step profiles, exact translation limits, and closed
binomial formulas pin the dynamics; the windowed evolver is held to
bitwise agreement with the one-step reference operation.
"""

from __future__ import annotations

import copy
import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from qwjumps import (
    BoundaryContactError,
    ClassicalProfile,
    CoinFamily,
    CoinSpec,
    Protocol,
    RunConfig,
    SpinorField,
    classical_evolve,
    classical_step,
    evolve,
    generate,
    initial_state,
    step,
    to_jumps,
    walk_engine,
)
from qwjumps.observables import asymmetry_carpet, jsd
from qwjumps.walk_engine import (
    _CLASSICAL_COIN,
    CLASSICAL_FIELDS,
    FLUSH_THRESHOLD,
    QUANTUM_FIELDS,
    _PackedWalk,
)

H4 = CoinSpec(CoinFamily.H, math.pi / 4.0)
K4 = CoinSpec(CoinFamily.K, math.pi / 4.0)


def profile_at(state: SpinorField, x: int) -> float:
    return float(state.probability()[state.origin + x])


def evolve_carpet(config: RunConfig):
    """evolve(config), the t of each carpet row in call order, and the rows stacked.

    The rows are stacked after evolve returns, so a row array that evolve
    reused would show its last contents in every place it was kept.
    """
    calls = []
    result = evolve(config, carpet_row=lambda t, row: calls.append((t, row)))
    return result, [t for t, _ in calls], np.array([row for _, row in calls])


class TestCoinMatrices:
    @pytest.mark.parametrize("family", [CoinFamily.H, CoinFamily.K])
    def test_matrix_is_unitary_across_the_angle_range(self, family):
        for theta in np.linspace(0.0, math.pi / 2.0, 25):
            m = CoinSpec(family, float(theta)).matrix()
            np.testing.assert_allclose(m @ m.conj().T, np.eye(2), atol=1e-12)

    def test_zero_angle_h_coin_is_the_z_pauli_matrix(self):
        np.testing.assert_array_equal(
            CoinSpec(CoinFamily.H, 0.0).matrix(), np.diag([1.0, -1.0])
        )

    def test_zero_angle_k_coin_is_the_identity(self):
        np.testing.assert_array_equal(
            CoinSpec(CoinFamily.K, 0.0).matrix(), np.eye(2)
        )

    def test_quarter_pi_matrices(self):
        r = 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(
            H4.matrix(), np.array([[r, r], [r, -r]]), atol=1e-15
        )
        np.testing.assert_allclose(
            K4.matrix(), np.array([[r, 1j * r], [1j * r, r]]), atol=1e-15
        )

    def test_angle_outside_the_quarter_circle_is_rejected(self):
        with pytest.raises(ValueError, match="theta"):
            CoinSpec(CoinFamily.H, -0.1)
        with pytest.raises(ValueError, match="theta"):
            CoinSpec(CoinFamily.H, 2.0)

    def test_family_accepts_its_string_value(self):
        assert CoinSpec("K", 0.3).family is CoinFamily.K


class TestInitialState:
    def test_h_family_puts_a_quarter_turn_phase_on_the_up_component(self):
        state = initial_state(H4, 5)
        amp = 1.0 / math.sqrt(2.0)
        assert state.down[state.origin] == pytest.approx(amp)
        assert state.up[state.origin] == pytest.approx(1j * amp)
        assert state.norm() == pytest.approx(1.0, abs=1e-15)

    def test_k_family_uses_equal_real_components(self):
        state = initial_state(K4, 5)
        amp = 1.0 / math.sqrt(2.0)
        assert state.down[state.origin] == pytest.approx(amp)
        assert state.up[state.origin] == pytest.approx(amp)

    def test_positions_center_the_origin(self):
        state = initial_state(H4, 7)
        np.testing.assert_array_equal(state.positions(), np.arange(-3, 4))

    def test_even_extent_is_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            initial_state(H4, 4)

    def test_extent_must_be_an_integer(self):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            initial_state(H4, 3.0)
        state = initial_state(H4, np.int64(3))
        assert type(state.origin) is int and state.origin == 1

    @pytest.mark.parametrize(
        "down, up, origin, match",
        [
            (np.zeros(5, complex), np.zeros(3, complex), 1, "equal length"),
            (np.zeros((3, 3), complex), np.zeros((3, 3), complex), 1, "1-D"),
            (np.zeros(4, complex), np.zeros(4, complex), 1, "odd"),
            (np.zeros(5, complex), np.zeros(5, complex), 5, "origin"),
        ],
    )
    def test_malformed_fields_are_rejected_on_construction(
        self, down, up, origin, match
    ):
        with pytest.raises(ValueError, match=match):
            SpinorField(down=down, up=up, origin=origin)


class TestSingleSteps:
    def test_first_step_splits_mass_evenly(self):
        state = step(initial_state(H4, 5), H4, 1)
        assert profile_at(state, -1) == pytest.approx(0.5, abs=1e-15)
        assert profile_at(state, +1) == pytest.approx(0.5, abs=1e-15)
        assert profile_at(state, 0) == 0.0

    def test_two_steps_reproduce_the_hand_derived_profile(self):
        state = initial_state(H4, 9)
        for _ in range(2):
            state = step(state, H4, 1)
        assert profile_at(state, -2) == pytest.approx(0.25, abs=1e-14)
        assert profile_at(state, 0) == pytest.approx(0.5, abs=1e-14)
        assert profile_at(state, +2) == pytest.approx(0.25, abs=1e-14)

    @pytest.mark.parametrize("jump", [1, 2])
    def test_identity_coin_translates_components_without_mixing(self, jump):
        coin = CoinSpec(CoinFamily.K, 0.0)
        rng = np.random.default_rng(1)
        down = np.zeros(11, dtype=complex)
        up = np.zeros(11, dtype=complex)
        down[3:8] = rng.normal(size=5) + 1j * rng.normal(size=5)
        up[3:8] = rng.normal(size=5) + 1j * rng.normal(size=5)
        scale = math.sqrt(float(np.sum(np.abs(down) ** 2 + np.abs(up) ** 2)))
        state = SpinorField(down=down / scale, up=up / scale, origin=5)
        moved = step(state, coin, jump)
        np.testing.assert_array_equal(moved.up[jump:], state.up[:-jump])
        np.testing.assert_array_equal(moved.down[:-jump], state.down[jump:])

    def test_half_pi_angle_keeps_support_near_the_origin(self):
        state = initial_state(H4, 9)
        coin = CoinSpec(CoinFamily.H, math.pi / 2.0)
        for _ in range(2):
            state = step(state, coin, 1)
        occupied = np.flatnonzero(state.probability() > 1e-15) - state.origin
        assert set(occupied) <= {-1, 0, 1}

    def test_jump_values_are_validated(self):
        with pytest.raises(ValueError, match="jump"):
            step(initial_state(H4, 5), H4, 3)

    def test_classical_jump_values_are_validated(self):
        profile = ClassicalProfile(mass=np.array([0.0, 1.0, 0.0]), origin=1)
        with pytest.raises(ValueError, match="jump"):
            classical_step(profile, 3)

    def test_norm_is_preserved_across_random_draws(self):
        rng = np.random.default_rng(2024)
        for _ in range(10_000):
            family = CoinFamily.H if rng.random() < 0.5 else CoinFamily.K
            coin = CoinSpec(family, float(rng.uniform(0.0, math.pi / 2.0)))
            jump = int(rng.integers(1, 3))
            down = rng.normal(size=9) + 1j * rng.normal(size=9)
            up = rng.normal(size=9) + 1j * rng.normal(size=9)
            # Clear both margins so the post-coin shift stays on-lattice.
            down[:2] = down[-2:] = up[:2] = up[-2:] = 0.0
            scale = math.sqrt(float(np.sum(np.abs(down) ** 2 + np.abs(up) ** 2)))
            state = SpinorField(down=down / scale, up=up / scale, origin=4)
            assert abs(step(state, coin, jump).norm() - 1.0) < 1e-12


class TestBoundaries:
    def test_amplitude_leaving_the_lattice_is_detected(self):
        down = np.zeros(5, dtype=complex)
        up = np.zeros(5, dtype=complex)
        up[4] = 1.0
        state = SpinorField(down=down, up=up, origin=2)
        with pytest.raises(BoundaryContactError):
            step(state, CoinSpec(CoinFamily.K, 0.0), 1)

    def test_exact_zero_amplitude_at_the_edge_is_harmless(self):
        down = np.zeros(5, dtype=complex)
        up = np.zeros(5, dtype=complex)
        down[2] = up[2] = 1.0 / math.sqrt(2.0)
        state = SpinorField(down=down, up=up, origin=2)
        moved = step(state, CoinSpec(CoinFamily.K, 0.0), 2)
        assert abs(moved.norm() - 1.0) < 1e-15

    def test_classical_mass_leaving_the_lattice_is_detected(self):
        mass = np.zeros(5)
        mass[0] = 1.0
        with pytest.raises(BoundaryContactError):
            classical_step(ClassicalProfile(mass=mass, origin=2), 1)


class TestPureTranslationLimit:
    def test_zero_angle_walker_occupies_exactly_two_sites(self):
        config = RunConfig(
            coin=CoinSpec(CoinFamily.H, 0.0),
            protocol=Protocol.FIBONACCI,
            t_max=100,
            record_fields=("IPR",),
        )
        result = evolve(config)
        reach = int(np.sum(to_jumps(generate(Protocol.FIBONACCI, 0, 100))[:100]))
        profile = result.final_state.probability()
        origin = result.final_state.origin
        occupied = np.flatnonzero(profile > 1e-15) - origin
        np.testing.assert_array_equal(occupied, [-reach, reach])
        assert profile[origin - reach] == pytest.approx(0.5, abs=1e-14)
        assert profile[origin + reach] == pytest.approx(0.5, abs=1e-14)
        np.testing.assert_allclose(
            result.series.column("IPR")[1:], 2.0, atol=1e-12
        )


class TestEvolveAgainstStepReference:
    @pytest.mark.parametrize(
        "coin",
        [H4, K4, CoinSpec(CoinFamily.H, 0.0), CoinSpec(CoinFamily.K, 0.0)],
    )
    def test_windowed_evolution_is_bitwise_identical_to_stepping(self, coin):
        config = RunConfig(
            coin=coin,
            protocol=Protocol.RANDOM,
            t_max=100,
            rng_seed=77,
            record_fields=("m2",),
        )
        result = evolve(config)
        state = initial_state(coin, config.extent)
        for jump in result.jumps:
            state = step(state, coin, int(jump))
        np.testing.assert_array_equal(result.final_state.down, state.down)
        np.testing.assert_array_equal(result.final_state.up, state.up)

    @pytest.mark.parametrize("t_max", [1, 101])
    @pytest.mark.parametrize("coin", [H4, K4], ids=["H", "K"])
    def test_odd_horizons_are_bitwise_identical_to_stepping(self, coin, t_max):
        # After an odd step count, down mirrors up under the conjugated phase.
        config = RunConfig(coin=coin, protocol=Protocol.FIBONACCI, t_max=t_max)
        result = evolve(config)
        state = initial_state(coin, config.extent)
        for jump in result.jumps:
            state = step(state, coin, int(jump))
        np.testing.assert_array_equal(result.final_state.down, state.down)
        np.testing.assert_array_equal(result.final_state.up, state.up)

    @pytest.mark.parametrize("coin", [H4, K4])
    def test_carpet_is_the_normalized_asymmetry_of_the_stepped_states(self, coin):
        config = RunConfig(
            coin=coin,
            protocol=Protocol.RANDOM,
            t_max=60,
            rng_seed=77,
            record_fields=("m2",),
        )
        result, _, carpet = evolve_carpet(config)
        state = initial_state(coin, config.extent)
        states = [state]
        for jump in result.jumps:
            state = step(state, coin, int(jump))
            states.append(state)
        raw = np.array(
            [
                s.up.real**2 + s.up.imag**2 - s.down.real**2 - s.down.imag**2
                for s in states
            ]
        )
        np.testing.assert_array_equal(carpet, asymmetry_carpet(raw))

    def test_jsd_compares_against_the_classical_comparator_profile(self):
        config = RunConfig(
            coin=H4,
            protocol=Protocol.RANDOM,
            t_max=300,
            rng_seed=77,
            record_fields=("JSD",),
        )
        result = evolve(config)
        classical = classical_evolve(replace(config, record_fields=("m2",)))
        expected = jsd(
            result.final_state.probability(), classical.final_profile.mass
        )
        # The recorder sums |up|^2 before |down|^2, probability() the
        # reverse, so the last bit of each site's mass may differ.
        assert result.series.column("JSD")[-1] == pytest.approx(
            expected, rel=1e-12, abs=0.0
        )

    def test_jsd_counts_classical_mass_outside_the_quantum_window(self):
        # At theta = pi/2 the quantum walk stays within a few sites of the
        # origin and its live window is trimmed, while the classical
        # profile spreads far past it.
        config = RunConfig(
            coin=CoinSpec(CoinFamily.H, math.pi / 2.0),
            protocol=Protocol.STANDARD,
            t_max=300,
            record_fields=("JSD",),
        )
        result = evolve(config)
        classical = classical_evolve(replace(config, record_fields=("m2",)))
        p = result.final_state.probability()
        q = classical.final_profile.mass
        assert np.sum(q[p == 0.0]) > 0.5
        assert result.series.column("JSD")[-1] == pytest.approx(
            jsd(p, q), rel=1e-12, abs=0.0
        )

    def test_jump_schedule_matches_the_generated_word(self):
        config = RunConfig(coin=H4, protocol=Protocol.PERIODIC, t_max=9)
        result = evolve(config)
        expected = to_jumps(generate(Protocol.PERIODIC, 0, 9))[:9]
        np.testing.assert_array_equal(result.jumps, expected)

    def test_first_jump_acts_on_the_initial_state(self):
        # Seed symbol 1 makes the very first jump a double step.
        config = RunConfig(
            coin=CoinSpec(CoinFamily.K, 0.0),
            protocol=Protocol.PERIODIC,
            t_max=1,
            seed_symbol=1,
            record_fields=("m2",),
        )
        result = evolve(config)
        assert result.series.column("m2")[-1] == pytest.approx(4.0, abs=1e-14)


class TestReflectionSymmetry:
    @pytest.mark.parametrize("coin", [H4, K4, CoinSpec(CoinFamily.H, math.pi / 8)])
    def test_uniform_jump_profiles_are_even_in_position(self, coin):
        state = initial_state(coin, 2 * 50 + 1)
        for _ in range(50):
            state = step(state, coin, 1)
            profile = state.probability()
            np.testing.assert_allclose(
                profile, profile[::-1], rtol=0.0, atol=1e-10
            )


class TestMirrorImage:
    """down(x) = phase up(-x), the premise of evolve's one-component kernel."""

    @pytest.mark.parametrize("seed_symbol", [0, 1])
    @pytest.mark.parametrize("protocol", list(Protocol))
    @pytest.mark.parametrize("family", [CoinFamily.H, CoinFamily.K])
    def test_stepped_down_is_the_phased_mirror_of_up(
        self, family, protocol, seed_symbol
    ):
        for theta in (0.0, 0.3, math.pi / 4.0, 1.3, math.pi / 2.0):
            coin = CoinSpec(family, theta)
            config = RunConfig(
                coin=coin,
                protocol=protocol,
                t_max=300,
                seed_symbol=seed_symbol,
                rng_seed=77 if protocol is Protocol.RANDOM else None,
            )
            state = initial_state(coin, config.extent)
            # The phase is down/up at the origin: -i for H, 1 for K.  The
            # H coin has m11 = -m00, which flips it every step.
            phase = -1j if family is CoinFamily.H else 1
            np.testing.assert_array_equal(state.down, phase * state.up[::-1])
            for jump in config.jump_schedule():
                state = step(state, coin, int(jump))
                phase *= -1 if family is CoinFamily.H else 1
                np.testing.assert_array_equal(state.down, phase * state.up[::-1])

    def test_a_coin_that_breaks_the_mirror_is_refused(self):
        amp = 1.0 / math.sqrt(2.0)
        with pytest.raises(ValueError, match="mirror"):
            _PackedWalk(np.diag([1.0, 1j]), amp, amp, 4)

    @pytest.mark.parametrize("coin", [H4, K4])
    def test_a_start_that_breaks_the_mirror_is_refused(self, coin):
        with pytest.raises(ValueError, match="mirror"):
            _PackedWalk(coin.matrix(), 1.0 + 0j, 0j, 4)


class TestRecording:
    def test_default_stride_switches_at_the_thousand_step_mark(self):
        short = RunConfig(coin=H4, protocol=Protocol.STANDARD, t_max=1000)
        long = RunConfig(coin=H4, protocol=Protocol.STANDARD, t_max=1001)
        assert short.stride == 1
        assert long.stride == 10

    def test_final_step_is_recorded_even_off_stride(self):
        config = RunConfig(
            coin=H4,
            protocol=Protocol.STANDARD,
            t_max=105,
            record_stride=10,
            record_fields=("m2",),
        )
        times = evolve(config).series.times
        np.testing.assert_array_equal(times, [*range(0, 110, 10), 105])

    def test_zero_step_run_records_the_initial_profile(self):
        config = RunConfig(coin=H4, protocol=Protocol.STANDARD, t_max=0)
        result = evolve(config)
        series = result.series
        np.testing.assert_array_equal(series.times, [0])
        assert series.column("m2")[0] == 0.0
        assert series.column("S")[0] == pytest.approx(0.0, abs=1e-12)
        assert series.column("IPR")[0] == pytest.approx(1.0, abs=1e-12)
        assert math.isnan(series.column("kappa")[0])
        assert result.final_norm == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize(
        "recipe, named",
        [
            ({"protocol": Protocol.RANDOM}, "rng_seed is required"),
            ({"protocol": Protocol.STANDARD, "seed_symbol": 7}, "seed_symbol"),
            ({"protocol": Protocol.FIBONACCI, "rng_seed": 3}, "rng_seed is only"),
        ],
        ids=["random-without-seed", "seed-symbol-7", "fibonacci-with-seed"],
    )
    def test_a_zero_step_run_checks_its_recipe(self, recipe, named):
        config = RunConfig(coin=H4, t_max=0, **recipe)
        with pytest.raises(ValueError, match=named):
            evolve(config)

    def test_unknown_record_fields_are_rejected(self):
        with pytest.raises(ValueError, match="record fields"):
            RunConfig(
                coin=H4,
                protocol=Protocol.STANDARD,
                t_max=5,
                record_fields=("m2", "norm"),
            )

    def test_repeated_record_fields_are_rejected(self):
        with pytest.raises(ValueError, match=r"repeated record fields: \['m2'\]"):
            RunConfig(
                coin=H4,
                protocol=Protocol.STANDARD,
                t_max=5,
                record_fields=("m2", "m2", "S"),
            )

    def test_negative_t_max_is_rejected(self):
        with pytest.raises(ValueError, match="t_max"):
            RunConfig(coin=H4, protocol=Protocol.STANDARD, t_max=-1)

    def test_zero_record_stride_is_rejected(self):
        with pytest.raises(ValueError, match="record_stride"):
            RunConfig(coin=H4, protocol=Protocol.STANDARD, t_max=5, record_stride=0)

    @pytest.mark.parametrize(
        "counts", [{"t_max": 2.5}, {"t_max": 5, "record_stride": 2.5}],
        ids=["t_max", "record_stride"],
    )
    def test_fractional_counts_are_refused_on_construction(self, counts):
        with pytest.raises(TypeError):
            RunConfig(H4, "standard", **counts)

    def test_numpy_integer_counts_become_python_ints(self):
        config = RunConfig(H4, "standard", t_max=np.int64(5), record_stride=np.int64(2))
        assert type(config.t_max) is int and type(config.record_stride) is int
        assert list(evolve(config).series.times) == [0, 2, 4, 5]

    def test_seeds_become_python_ints_and_fractions_are_refused(self):
        config = RunConfig(
            H4, "random", t_max=5, seed_symbol=np.int64(1), rng_seed=np.int64(5)
        )
        assert type(config.seed_symbol) is int and type(config.rng_seed) is int
        for seeds in ({"seed_symbol": 1.0}, {"rng_seed": 2.5}):
            with pytest.raises(TypeError):
                RunConfig(H4, "random", t_max=5, **{"rng_seed": 5, **seeds})

    def test_carpet_rows_cover_every_step(self):
        config = RunConfig(
            coin=H4,
            protocol=Protocol.PERIODIC,
            t_max=20,
            record_fields=("m2",),
        )
        _, times, carpet = evolve_carpet(config)
        assert times == list(range(21))
        assert carpet.shape == (21, config.extent)
        assert not carpet[0].any()
        assert np.abs(carpet).max() <= 1.0

    @pytest.mark.parametrize("coin", [H4, K4], ids=["H", "K"])
    @pytest.mark.parametrize("protocol", [Protocol.FIBONACCI, Protocol.RUDIN_SHAPIRO])
    def test_recording_a_carpet_leaves_the_run_bit_identical(self, coin, protocol):
        config = RunConfig(coin=coin, protocol=protocol, t_max=200)
        (carpeted, _, carpet), plain = evolve_carpet(config), evolve(config)
        assert carpet.shape == (201, 801)
        np.testing.assert_array_equal(carpeted.series.times, plain.series.times)
        for field in QUANTUM_FIELDS:
            np.testing.assert_array_equal(
                carpeted.series.column(field), plain.series.column(field)
            )
        np.testing.assert_array_equal(carpeted.final_state.up, plain.final_state.up)
        np.testing.assert_array_equal(carpeted.final_state.down, plain.final_state.down)
        assert carpeted.final_norm == plain.final_norm

    def test_a_strided_series_still_gets_a_carpet_row_every_step(self):
        config = RunConfig(
            coin=K4, protocol=Protocol.RUDIN_SHAPIRO, t_max=50, record_stride=7
        )
        (strided, times, carpet), plain = evolve_carpet(config), evolve(config)
        _, _, every_step = evolve_carpet(replace(config, record_stride=1))
        assert times == list(range(51))
        np.testing.assert_array_equal(carpet, every_step)
        assert strided.series.times.tolist() == [0, 7, 14, 21, 28, 35, 42, 49, 50]
        np.testing.assert_array_equal(strided.series.times, plain.series.times)
        for field in QUANTUM_FIELDS:
            np.testing.assert_array_equal(
                strided.series.column(field), plain.series.column(field)
            )

    def test_each_carpet_row_is_a_fresh_array_the_callee_may_keep(self):
        config = RunConfig(coin=H4, protocol=Protocol.FIBONACCI, t_max=30)
        kept = []
        evolve(config, carpet_row=lambda t, row: kept.append((row, row.copy())))
        assert len(kept) == 31
        for row, copy in kept:
            assert row.dtype == np.float64 and row.shape == (config.extent,)
            np.testing.assert_array_equal(row, copy)
        for (a, _), (b, _) in zip(kept, kept[1:]):
            assert not np.shares_memory(a, b)

    def test_translation_carpet_marks_the_two_moving_fronts(self):
        config = RunConfig(
            coin=CoinSpec(CoinFamily.K, 0.0),
            protocol=Protocol.STANDARD,
            t_max=10,
            record_fields=("m2",),
        )
        result, _, carpet = evolve_carpet(config)
        origin = result.final_state.origin
        for t in range(1, 11):
            row = carpet[t]
            assert row[origin + t] == pytest.approx(1.0, abs=1e-12)
            assert row[origin - t] == pytest.approx(-1.0, abs=1e-12)
            assert np.count_nonzero(np.abs(row) > 1e-12) == 2



class TestClassicalComparator:
    def test_uniform_jumps_give_the_binomial_moments(self):
        config = RunConfig(
            coin=H4,
            protocol=Protocol.STANDARD,
            t_max=200,
            record_fields=("m2", "m4"),
        )
        series = classical_evolve(config).series
        t = series.times.astype(float)
        np.testing.assert_allclose(series.column("m2"), t, atol=1e-10)
        np.testing.assert_allclose(
            series.column("m4"), 3.0 * t**2 - 2.0 * t, atol=1e-7
        )

    @pytest.mark.parametrize("seed_symbol", [0, 1])
    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_moments_follow_the_closed_form_of_the_jump_schedule(
        self, protocol, seed_symbol
    ):
        # With +-J_s steps of probability 1/2 each, m2(t) = sum J_s^2
        # and m4(t) = 3 (sum J_s^2)^2 - 2 sum J_s^4 over s < t.
        config = RunConfig(
            coin=H4,
            protocol=protocol,
            t_max=1000,
            seed_symbol=seed_symbol,
            rng_seed=12345 if protocol is Protocol.RANDOM else None,
            record_stride=1,
            record_fields=("m2", "m4"),
        )
        result = classical_evolve(config)
        jumps = to_jumps(
            generate(protocol, seed_symbol, 1000, rng_seed=config.rng_seed)
        )[:1000].astype(float)
        sum2 = np.concatenate(([0.0], np.cumsum(jumps**2)))
        sum4 = np.concatenate(([0.0], np.cumsum(jumps**4)))
        np.testing.assert_allclose(
            result.series.column("m2"), sum2, rtol=1e-12, atol=0.0
        )
        np.testing.assert_allclose(
            result.series.column("m4"),
            3.0 * sum2**2 - 2.0 * sum4,
            rtol=1e-12,
            atol=0.0,
        )

    def test_windowed_evolution_is_bitwise_identical_to_stepping(self):
        config = RunConfig(
            coin=H4,
            protocol=Protocol.RANDOM,
            t_max=100,
            rng_seed=77,
            record_fields=("m2",),
        )
        result = classical_evolve(config)
        mass = np.zeros(config.extent)
        mass[config.extent // 2] = 1.0
        profile = ClassicalProfile(mass=mass, origin=config.extent // 2)
        for jump in result.jumps:
            profile = classical_step(profile, int(jump))
        np.testing.assert_array_equal(result.final_profile.mass, profile.mass)

    @pytest.mark.parametrize("t_max", [1, 2, 17, 300, 2000])
    @pytest.mark.parametrize("seed_symbol", [0, 1])
    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_profile_is_the_exact_binomial_convolution(
        self, protocol, seed_symbol, t_max
    ):
        # n1 jumps of 1 and n2 of 2 spread Bin(n1, 1/2) over x = -n1, 2 - n1,
        # ..., n1, convolved with Bin(n2, 1/2) over a lattice of step 4.
        config = RunConfig(
            coin=H4,
            protocol=protocol,
            t_max=t_max,
            seed_symbol=seed_symbol,
            rng_seed=77 if protocol is Protocol.RANDOM else None,
            record_stride=t_max,
            record_fields=("m2",),
        )
        mass = classical_evolve(config).final_profile.mass
        jumps = config.jump_schedule()

        def binomial(n: int, spacing: int) -> np.ndarray:
            weights = np.zeros(spacing * n + 1)
            weights[::spacing] = [math.comb(n, k) / 2**n for k in range(n + 1)]
            return weights

        # Entry m of the convolution sits at x = 2m - S, S the summed jumps.
        spread = np.convolve(
            binomial(int(np.sum(jumps == 1)), 1), binomial(int(np.sum(jumps == 2)), 2)
        )
        s, origin = int(jumps.sum()), config.extent // 2
        exact = np.zeros(config.extent)
        exact[origin - s : origin + s + 1 : 2] = spread
        assert np.all(np.abs(mass - exact) <= 1e-14 * exact + 1e-190)
        if t_max == 2000:
            # Trimming dropped sites whose exact mass is positive.
            assert np.any((exact > 0) & (mass == 0))

    def test_kurtosis_approaches_the_gaussian_value(self):
        config = RunConfig(
            coin=H4,
            protocol=Protocol.STANDARD,
            t_max=1000,
            record_fields=("kappa",),
        )
        series = classical_evolve(config).series
        assert series.column("kappa")[-1] == pytest.approx(
            3.0 - 2.0 / 1000.0, abs=1e-9
        )

    def test_single_step_splits_mass_in_half(self):
        mass = np.zeros(5)
        mass[2] = 1.0
        moved = classical_step(ClassicalProfile(mass=mass, origin=2), 2)
        np.testing.assert_allclose(moved.mass, [0.5, 0.0, 0.0, 0.0, 0.5])

    def test_mass_is_conserved_over_a_long_aperiodic_run(self):
        config = RunConfig(
            coin=H4,
            protocol=Protocol.THUE_MORSE,
            t_max=100_000,
            record_stride=100_000,
            record_fields=("m2",),
        )
        result = classical_evolve(config)
        assert abs(result.final_mass - 1.0) < 1e-12

    def test_quantum_only_fields_are_dropped(self):
        config = RunConfig(
            coin=H4,
            protocol=Protocol.STANDARD,
            t_max=5,
            record_fields=("m2", "JSD", "S_e"),
        )
        series = classical_evolve(config).series
        assert list(series.columns) == ["m2"]

    def test_purely_quantum_field_requests_are_rejected(self):
        config = RunConfig(
            coin=H4,
            protocol=Protocol.STANDARD,
            t_max=5,
            record_fields=("JSD",),
        )
        with pytest.raises(ValueError, match="classical record fields"):
            classical_evolve(config)

    def test_negative_mass_is_rejected_on_construction(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ClassicalProfile(mass=np.array([0.5, -0.1, 0.6]), origin=1)

    @pytest.mark.parametrize(
        "mass, origin, match",
        [
            (np.zeros((3, 3)), 1, "1-D"),
            (np.zeros(4), 1, "odd length"),
            (np.zeros(1), 0, ">= 3"),
            (np.zeros(5), -1, "origin"),
        ],
    )
    def test_malformed_profiles_are_rejected_on_construction(self, mass, origin, match):
        with pytest.raises(ValueError, match=match):
            ClassicalProfile(mass=mass, origin=origin)

    def test_extent_and_positions_center_the_origin(self):
        profile = ClassicalProfile(mass=np.array([0.0, 0.0, 1.0, 0.0, 0.0]), origin=2)
        assert profile.extent == 5
        np.testing.assert_array_equal(profile.positions(), np.arange(-2, 3))


def momentum_space_m2(coin: CoinSpec, jumps: np.ndarray) -> float:
    """m2 after the jumps, from the walk's momentum-space transfer matrices.

    With psi(k) = sum_x psi_x e^{-ikx}, one step of jump J is
    T_J(k) = diag(e^{-ikJ}, e^{ikJ}) C on (up, down), and its k-derivative
    adds diag(-iJ, iJ) T_J.  The support x = 2m - S, m = 0 .. S, makes
    |d_k psi|^2 a trigonometric polynomial of degree S in 2k, so its mean
    over S + 1 even points of [0, pi) is its mean over a period, which by
    Parseval is sum_x x^2 P(x).
    """
    s = int(np.sum(jumps))
    k = np.pi * np.arange(s + 1) / (s + 1)
    state = initial_state(coin, 3)
    psi = np.outer([state.up[1], state.down[1]], np.ones(s + 1))
    dpsi = np.zeros_like(psi)
    c = coin.matrix()
    shift = {j: np.exp(np.outer([-1j * j, 1j * j], k)) for j in (1, 2)}
    d_shift = {j: np.array([[-1j * j], [1j * j]]) for j in (1, 2)}
    for jump in jumps.tolist():
        psi = shift[jump] * (c @ psi)
        dpsi = shift[jump] * (c @ dpsi) + d_shift[jump] * psi
    return float(np.mean(np.abs(dpsi[0]) ** 2 + np.abs(dpsi[1]) ** 2))


class TestMomentumSpaceOracle:
    """evolve's m2 against an independent k-space evolution at long horizons."""

    @pytest.mark.parametrize("theta, seed_symbol", [(math.pi / 4.0, 0), (1.3, 1)])
    @pytest.mark.parametrize("family", [CoinFamily.H, CoinFamily.K])
    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_second_moment_matches_the_transfer_matrix_product(
        self, protocol, family, theta, seed_symbol
    ):
        coin = CoinSpec(family, theta)
        config = RunConfig(
            coin=coin,
            protocol=protocol,
            t_max=2048,
            seed_symbol=seed_symbol,
            rng_seed=12345 if protocol is Protocol.RANDOM else None,
            record_stride=2048,
            record_fields=("m2",),
        )
        result = evolve(config)
        assert result.series.column("m2")[-1] == pytest.approx(
            momentum_space_m2(coin, result.jumps), rel=1e-12, abs=0.0
        )


class TestBallisticLaw:
    """The standard walk's m2 against its exact ballistic coefficient."""

    # The largest |m2(t) - (1 - sin theta) t^2| over every t <= 2e4, at each
    # of these angles and for both coins, was 1.2624, at t = 3 and theta 0.4.
    BOUND = 1.27

    @pytest.mark.parametrize("theta", [0.4, math.pi / 4.0, 1.2])
    @pytest.mark.parametrize("family", [CoinFamily.H, CoinFamily.K])
    def test_m2_stays_within_a_constant_of_its_ballistic_law(self, family, theta):
        # m2(t) = (1 - sin theta) t^2 + O(1): the weak limit of the walk.
        config = RunConfig(
            coin=CoinSpec(family, theta),
            protocol=Protocol.STANDARD,
            t_max=4000,
            record_stride=1,
            record_fields=("m2",),
        )
        series = evolve(config).series
        t = series.times.astype(float)
        law = (1.0 - math.sin(theta)) * t**2
        assert np.abs(series.column("m2") - law).max() <= self.BOUND


def periodic_ballistic_coefficient(coin: CoinSpec, jumps: tuple[int, int]) -> float:
    """c in m2(t) = c t^2 + O(t) for the periodic word that starts with jumps.

    One period is M(k) = T_J1(k) T_J0(k), with T_J(k) = diag(e^{-ikJ}, e^{ikJ}) C
    on (up, down).  An eigenvector e of M with eigenvalue lambda moves at
    v = Re(-i <e|d_k M|e> / lambda) / 2 sites per step, and
    c = int dk/2pi sum_e |<e|psi0>|^2 v^2, here by the midpoint rule on 4096
    points: the integrand is smooth and periodic.
    """
    k = 2.0 * np.pi * (np.arange(4096) + 0.5) / 4096
    c = coin.matrix()
    transfer, d_transfer = [], []
    for jump in jumps:
        t_j = np.exp(np.multiply.outer(k, [-1j * jump, 1j * jump]))[:, :, None] * c
        transfer.append(t_j)
        d_transfer.append(np.array([[-1j * jump], [1j * jump]]) * t_j)
    (t0, t1), (d0, d1) = transfer, d_transfer
    lam, vec = np.linalg.eig(t1 @ t0)
    d_m = d1 @ t0 + t1 @ d0
    state = initial_state(coin, 3)
    psi0 = np.array([state.up[1], state.down[1]])
    weight = np.abs(np.einsum("nxe,x->ne", vec.conj(), psi0)) ** 2
    v = np.real(-1j * np.einsum("nxe,nxy,nye->ne", vec.conj(), d_m, vec) / lam) / 2
    return float(np.mean(np.sum(weight * v**2, axis=1)))


class TestPeriodicBallisticLaw:
    """The periodic walk's m2 against its exact ballistic coefficient."""

    # The largest |m2(t) - c t^2| over every even t <= 2e4, at each of these
    # angles, for both coins and both seed symbols, was 7.35, at t = 6 and
    # K 0.4; past t = 100 it stayed below 6.
    BOUND = 8.0

    @pytest.mark.parametrize("seed_symbol, jumps", [(0, (1, 2)), (1, (2, 1))])
    @pytest.mark.parametrize("theta", [0.4, math.pi / 4.0, 1.2])
    @pytest.mark.parametrize("family", [CoinFamily.H, CoinFamily.K])
    def test_m2_stays_within_a_constant_of_its_ballistic_law_at_even_t(
        self, family, theta, seed_symbol, jumps
    ):
        # Odd t carry a term linear in t, whose sign flips with the seed symbol.
        coin = CoinSpec(family, theta)
        config = RunConfig(
            coin=coin,
            protocol=Protocol.PERIODIC,
            t_max=4000,
            seed_symbol=seed_symbol,
            record_stride=1,
            record_fields=("m2",),
        )
        result = evolve(config)
        assert tuple(result.jumps[:2].tolist()) == jumps
        c = periodic_ballistic_coefficient(coin, jumps)
        t = result.series.times[::2].astype(float)
        law = c * t**2
        assert np.abs(result.series.column("m2")[::2] - law).max() <= self.BOUND


def stepped_asymmetry(state: SpinorField) -> np.ndarray:
    raw = state.up.real**2 + state.up.imag**2 - state.down.real**2 - state.down.imag**2
    return asymmetry_carpet(raw[None])[0]


class TestTrimmingAgainstTheDenseReferences:
    """Long runs where the live window drops edge sites below the threshold."""

    @pytest.mark.parametrize("family", [CoinFamily.H, CoinFamily.K])
    @pytest.mark.parametrize(
        "theta, protocol, t_max, rng_seed",
        [
            (1.3, Protocol.FIBONACCI, 600, None),
            (math.pi / 4.0, Protocol.RUDIN_SHAPIRO, 1500, None),
            (1.5, Protocol.RANDOM, 400, 77),
            (math.pi / 2.0, Protocol.RANDOM, 100, 77),
        ],
        ids=["fibonacci", "rudin-shapiro", "random", "half-pi"],
    )
    def test_carpet_equals_the_stepped_asymmetry_bit_for_bit(
        self, family, theta, protocol, t_max, rng_seed
    ):
        coin = CoinSpec(family, theta)
        config = RunConfig(
            coin=coin,
            protocol=protocol,
            t_max=t_max,
            rng_seed=rng_seed,
            record_fields=("m2",),
        )
        result, _, carpet = evolve_carpet(config)
        state = initial_state(coin, config.extent)
        np.testing.assert_array_equal(carpet[0], stepped_asymmetry(state))
        for t, jump in enumerate(result.jumps, 1):
            state = step(state, coin, int(jump))
            np.testing.assert_array_equal(carpet[t], stepped_asymmetry(state))
        final = result.final_state
        np.testing.assert_array_equal(final.probability(), state.probability())
        # Trimming fired: the reference still holds amplitudes that the
        # window dropped, and they square to exactly 0.
        dropped = (state.down != 0.0) & (final.down == 0.0)
        assert dropped.any()
        assert not np.any(np.abs(state.down[dropped]) ** 2)

    @pytest.mark.parametrize("protocol", [Protocol.THUE_MORSE, Protocol.RANDOM])
    def test_classical_mass_matches_stepping(self, protocol):
        config = RunConfig(
            coin=H4,
            protocol=protocol,
            t_max=1000,
            rng_seed=77 if protocol is Protocol.RANDOM else None,
            record_stride=1000,
            record_fields=("m2",),
        )
        result = classical_evolve(config)
        mass = np.zeros(config.extent)
        mass[config.extent // 2] = 1.0
        profile = ClassicalProfile(mass=mass, origin=config.extent // 2)
        for jump in result.jumps:
            profile = classical_step(profile, int(jump))
        ref, got = profile.mass, result.final_profile.mass
        large = ref >= 1e-150
        np.testing.assert_allclose(got[large], ref[large], rtol=1e-12, atol=0.0)
        assert np.sum(np.abs(got - ref)) < 1e-180
        assert np.any((ref > 0.0) & (got == 0.0))


class TestAdvanceInBlocks:
    """Advancing over any split of a schedule equals stepping one jump at a time."""

    # Blocks of one, odd blocks, and blocks of 17 and 33 that straddle the
    # trims every TRIM_INTERVAL = 16 steps.
    SPLITS = [[1], [3], [7, 2], [17], [33, 1, 16, 5]]
    COINS = pytest.mark.parametrize(
        "coin",
        [CoinSpec(CoinFamily.H, 1.3), CoinSpec(CoinFamily.K, 1.3), "classical"],
        ids=["H", "K", "classical"],
    )

    @staticmethod
    def walker(coin, s_max=2000):
        if coin == "classical":
            return _PackedWalk(_CLASSICAL_COIN, 0.5, 0.5, s_max)
        state = initial_state(coin, 3)
        return _PackedWalk(coin.matrix(), state.up[1], state.down[1], s_max)

    @staticmethod
    def snapshot(walk):
        # Every stored coordinate: the window, the shift and the step count.
        return walk.up.tobytes(), (walk.lo, walk.off, walk.t)

    @pytest.mark.parametrize("split", SPLITS, ids=lambda s: "-".join(map(str, s)))
    @COINS
    def test_blocks_leave_the_state_of_single_steps(self, coin, split):
        jumps = to_jumps(generate(Protocol.FIBONACCI, 0, 1000))[:1000].tolist()
        single, blocked = self.walker(coin), self.walker(coin)
        start, sizes = 0, itertools.cycle(split)
        while start < len(jumps):
            stop = min(start + next(sizes), len(jumps))
            for jump in jumps[start:stop]:
                single.advance([jump])
            blocked.advance(jumps[start:stop])
            assert self.snapshot(blocked) == self.snapshot(single)
            start = stop
        assert blocked.t == 1000
        # Trimming fired: the window no longer starts at packed site 0.
        assert blocked.lo > 0

    @pytest.mark.parametrize(
        "coin",
        [
            CoinSpec(CoinFamily.H, math.pi / 4.0),
            CoinSpec(CoinFamily.H, 1.3),
            CoinSpec(CoinFamily.K, 1.0),
            CoinSpec(CoinFamily.K, 1.5),
            "classical",
        ],
        ids=["H-pi/4", "H-1.3", "K-1.0", "K-1.5", "classical"],
    )
    def test_each_trim_drops_exactly_the_dead_edge_sites(self, coin, monkeypatch):
        jumps = to_jumps(generate(Protocol.FIBONACCI, 0, 2000))[:2000].tolist()
        walk, dropped = self.walker(coin, sum(jumps)), 0
        for start in range(0, len(jumps), 16):
            block = jumps[start : start + 16]
            # The copy steps the same block with no trim at all.
            untrimmed = copy.deepcopy(walk)
            with monkeypatch.context() as patch:
                patch.setattr(walk_engine, "TRIM_INTERVAL", len(jumps) + 1)
                untrimmed.advance(block)
            walk.advance(block)
            # Edge sites of the untrimmed window with no stored real at or
            # above the threshold, counted from the nearer end.
            lo, n = untrimmed.lo, len(untrimmed.up)
            u = untrimmed.up[lo + untrimmed.off : n - lo]
            big = np.abs(u.view(np.float64)) >= FLUSH_THRESHOLD
            live = np.flatnonzero(big) // (u.itemsize // 8)
            first = int(min(live[0], len(u) - 1 - live[-1]))
            assert walk.lo == lo + first
            u[:first] = u[len(u) - first :] = 0.0
            assert walk.up.tobytes() == untrimmed.up.tobytes()
            dropped += first
        assert walk.t == len(jumps)
        assert dropped > 0

    @COINS
    def test_buffer_is_zero_outside_the_live_window(self, coin):
        walk = self.walker(coin)
        walk.advance(to_jumps(generate(Protocol.FIBONACCI, 0, 1000))[:1000].tolist())
        assert walk.lo > 0
        # A jump grows the window into the sites left of it, so they must be 0.
        assert not walk.up[: walk.lo + walk.off].any()
        assert not walk.up[len(walk.up) - walk.lo :].any()

    @pytest.mark.parametrize("stride", [3, 7])
    @pytest.mark.parametrize("coin", [H4, K4], ids=["H", "K"])
    def test_odd_strides_match_the_dense_reference(self, coin, stride):
        config = RunConfig(
            coin=coin, protocol=Protocol.RANDOM, t_max=100, rng_seed=77,
            record_stride=stride,
        )
        result = evolve(config)
        every_step = evolve(replace(config, record_stride=1)).series
        times = result.series.times
        assert times.tolist() == [*range(0, 100, stride), 100]
        for field in QUANTUM_FIELDS:
            np.testing.assert_array_equal(
                result.series.column(field), every_step.column(field)[times]
            )
        state = initial_state(coin, config.extent)
        for jump in result.jumps:
            state = step(state, coin, int(jump))
        np.testing.assert_array_equal(result.final_state.down, state.down)
        np.testing.assert_array_equal(result.final_state.up, state.up)


class TestSamplingScratch:
    """A sample writes into the walker's own buffers, not into fresh ones."""

    @pytest.mark.parametrize("coin", [H4, K4, "classical"], ids=["H", "K", "classical"])
    def test_profile_allocates_nothing_window_sized(self, coin, monkeypatch):
        # Untrimmed, 10^4 steps of 1 leave a window of 10^4 + 1 sites.
        monkeypatch.setattr(walk_engine, "TRIM_INTERVAL", 10**9)
        walk = TestAdvanceInBlocks.walker(coin, 10_000)
        walk.advance([1] * 10_000)
        window = walk.up[walk.lo + walk.off : len(walk.up) - walk.lo]
        assert len(window) == 10_001
        before = walk.profile(walk.lo).copy()
        tracemalloc.start()
        try:
            mass = walk.profile(walk.lo)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.01 * window.nbytes
        # The result is the walker's buffer, and a second call rewrites it alike.
        assert np.shares_memory(mass, walk.mass)
        np.testing.assert_array_equal(mass, before)

    @pytest.mark.parametrize("coin", [H4, K4, "classical"], ids=["H", "K", "classical"])
    def test_window_writes_down_into_the_scratch_row(self, coin, monkeypatch):
        # Untrimmed, 10^4 steps of 1 leave a window of 10^4 + 1 sites.
        monkeypatch.setattr(walk_engine, "TRIM_INTERVAL", 10**9)
        walk = TestAdvanceInBlocks.walker(coin, 10_000)
        walk.advance([1] * 10_000)
        window = walk.up[walk.lo + walk.off : len(walk.up) - walk.lo]
        assert len(window) == 10_001
        tracemalloc.start()
        try:
            down, up = walk.window(walk.lo)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.01 * window.nbytes
        assert np.shares_memory(down, walk.tmp)
        assert np.shares_memory(up, window)
        np.testing.assert_array_equal(down, walk.phases[walk.t & 1] * window[::-1])


class TestFieldSets:
    def test_classical_fields_are_a_subset_of_quantum_fields(self):
        assert set(CLASSICAL_FIELDS) <= set(QUANTUM_FIELDS)
        assert "JSD" in QUANTUM_FIELDS and "S_e" in QUANTUM_FIELDS
