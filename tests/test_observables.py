"""Distributional, informational, and entanglement measures.

Moments are audited against plain summation loops, divergences against
two-term hand sums, and the exponent fit against planted power laws
with bounded multiplicative noise.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from qwjumps import CoinFamily, CoinSpec, DegenerateFitError, initial_state
from qwjumps.observables import (
    ReducedCoinMatrix,
    asymmetry_carpet,
    entanglement_entropy,
    fit_alpha,
    ipr,
    jsd,
    kld,
    kurtosis,
    moment,
    reduced_coin_matrix,
    shannon_entropy,
)

DELTA = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
FIVE_SITES = np.arange(-2, 3)
HALF_PAIR = np.array([0.0, 0.5, 0.0, 0.5, 0.0])
QUARTER_TRIPLE = np.array([0.25, 0.0, 0.5, 0.0, 0.25])


class TestMoments:
    def test_point_mass_at_the_origin_has_zero_moments(self):
        assert moment(DELTA, FIVE_SITES, 2) == 0.0

    def test_symmetric_pair_has_unit_variance(self):
        assert moment(HALF_PAIR, FIVE_SITES, 2) == pytest.approx(1.0, abs=1e-15)

    def test_quarter_half_quarter_fourth_moment(self):
        assert moment(QUARTER_TRIPLE, FIVE_SITES, 4) == pytest.approx(
            8.0, abs=1e-15
        )

    def test_moments_match_a_plain_summation_loop(self):
        rng = np.random.default_rng(5)
        positions = np.arange(-5, 6)
        for _ in range(100):
            mass = rng.random(11)
            mass /= mass.sum()
            for n in (1, 2, 3, 4):
                direct = sum(
                    float(x) ** n * float(p) for x, p in zip(positions, mass)
                )
                assert moment(mass, positions, n) == pytest.approx(
                    direct, abs=1e-12
                )

    def test_huge_positions_do_not_overflow(self):
        positions = np.array([-(4 * 10**5), 0, 4 * 10**5], dtype=np.int64)
        mass = np.array([0.5, 0.0, 0.5])
        expected = (4e5) ** 4
        assert moment(mass, positions, 4) == pytest.approx(expected, rel=1e-12)

    def test_fourth_moment_of_a_point_mass_is_correctly_rounded(self):
        # Past |x| = 9741, x^4 exceeds 2^53 and must be rounded; float
        # pow misses the correctly rounded value for some of these sites.
        positions = np.arange(-20000.0, 20001.0)
        mass = np.zeros(len(positions))
        for x in range(9700, 20001):
            mass[20000 + x] = 1.0
            assert moment(mass, positions, 4) == float(x**4), x
            mass[20000 + x] = 0.0

    def test_moment_order_must_be_positive(self):
        with pytest.raises(ValueError, match="order"):
            moment(DELTA, FIVE_SITES, 0)

    @pytest.mark.parametrize("n", [2.5, 1.5, 0.5, math.nan, math.inf])
    def test_moment_order_must_be_a_whole_number(self, n):
        # 2.5 once returned the third moment; 1.5 recursed without end.
        mass, positions = np.array([0.25, 0.5, 0.25]), np.array([-2, 1, 3])
        with pytest.raises(ValueError, match="positive integer"):
            moment(mass, positions, n)

    def test_whole_float_order_is_the_integer_order(self):
        assert moment(QUARTER_TRIPLE, FIVE_SITES, 4.0) == moment(
            QUARTER_TRIPLE, FIVE_SITES, 4
        )


class TestKurtosis:
    def test_symmetric_pair(self):
        assert kurtosis(1.0, 1.0) == 1.0

    def test_quarter_half_quarter(self):
        m2 = moment(QUARTER_TRIPLE, FIVE_SITES, 2)
        m4 = moment(QUARTER_TRIPLE, FIVE_SITES, 4)
        assert kurtosis(m2, m4) == pytest.approx(2.0, abs=1e-14)

    def test_zero_variance_is_rejected(self):
        with pytest.raises(ValueError, match="m2"):
            kurtosis(0.0, 1.0)


class TestEntropyAndParticipation:
    def test_point_mass_has_zero_entropy_and_unit_participation(self):
        assert shannon_entropy(DELTA) == 0.0
        assert ipr(DELTA) == pytest.approx(1.0, abs=1e-15)

    def test_uniform_profile_saturates_both_measures(self):
        uniform = np.full(7, 1.0 / 7.0)
        assert shannon_entropy(uniform) == pytest.approx(math.log(7), abs=1e-12)
        assert ipr(uniform) == pytest.approx(7.0, abs=1e-12)

    def test_symmetric_pair_values(self):
        assert shannon_entropy(HALF_PAIR) == pytest.approx(math.log(2), abs=1e-15)
        assert ipr(HALF_PAIR) == pytest.approx(2.0, abs=1e-15)

    def test_zero_cells_do_not_contribute(self):
        padded = np.array([0.0, 0.5, 0.5, 0.0, 0.0])
        assert shannon_entropy(padded) == pytest.approx(math.log(2), abs=1e-15)

    def test_nonuniform_profiles_stay_below_the_uniform_bounds(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            mass = rng.random(9) + 0.01
            mass /= mass.sum()
            assert shannon_entropy(mass) < math.log(9)
            assert ipr(mass) < 9.0


class TestDivergences:
    def test_identical_profiles_have_zero_divergence(self):
        p = np.array([0.25, 0.25, 0.5])
        assert kld(p, p) == 0.0
        assert jsd(p, p) == 0.0

    def test_point_mass_against_a_two_site_uniform_is_one_bit(self):
        r = np.array([1.0, 0.0])
        w = np.array([0.5, 0.5])
        assert kld(r, w) == pytest.approx(1.0, abs=1e-15)

    def test_swapped_three_quarter_profiles(self):
        r = np.array([0.75, 0.25])
        w = np.array([0.25, 0.75])
        assert kld(r, w) == pytest.approx(0.5 * math.log2(3.0), abs=1e-12)

    def test_mass_outside_the_reference_support_is_rejected(self):
        with pytest.raises(ValueError, match="infinite"):
            kld(np.array([0.5, 0.5]), np.array([1.0, 0.0]))

    def test_disjoint_supports_saturate_the_dissimilarity(self):
        p = np.array([0.5, 0.5, 0.0, 0.0])
        q = np.array([0.0, 0.0, 0.5, 0.5])
        assert jsd(p, q) == pytest.approx(1.0, abs=1e-15)

    def test_subnormal_mass_against_an_empty_cell_stays_finite(self):
        # Halving p + q would round the subnormal cell to zero and leave
        # p with mass where the mean distribution has none.
        p = np.array([1.0, 5e-324])
        q = np.array([1.0, 0.0])
        with pytest.raises(ValueError, match="infinite"):
            kld(p, 0.5 * (p + q))
        value = jsd(p, q)
        assert math.isfinite(value)
        assert 0.0 <= value <= 1.0

    def test_dissimilarity_is_exactly_symmetric_and_bounded(self):
        rng = np.random.default_rng(99)
        for _ in range(10_000):
            p = rng.random(8) * (rng.random(8) < 0.8)
            q = rng.random(8) * (rng.random(8) < 0.8)
            if p.sum() == 0.0 or q.sum() == 0.0:
                continue
            p /= p.sum()
            q /= q.sum()
            left = jsd(p, q)
            assert left == jsd(q, p)
            assert 0.0 <= left <= 1.0

    def test_profiles_must_share_a_shape(self):
        with pytest.raises(ValueError, match="shape"):
            kld(np.array([1.0]), np.array([0.5, 0.5]))

    def test_jsd_profiles_must_share_a_shape(self):
        with pytest.raises(ValueError, match="shape"):
            jsd(np.array([1.0]), np.array([0.5, 0.5]))


class TestReducedCoinMatrix:
    def test_origin_state_with_quarter_turn_phase(self):
        state = initial_state(CoinSpec(CoinFamily.H, math.pi / 4), 5)
        rc = reduced_coin_matrix(state.down, state.up)
        assert rc.g_a == pytest.approx(0.5, abs=1e-15)
        assert rc.g_b == pytest.approx(0.5, abs=1e-15)
        assert rc.g_ab == pytest.approx(-0.5j, abs=1e-15)

    def test_single_component_state(self):
        down = np.array([0.6, 0.8j])
        up = np.zeros(2, dtype=complex)
        rc = reduced_coin_matrix(down, up)
        assert rc.g_a == pytest.approx(1.0, abs=1e-15)
        assert rc.g_b == 0.0
        assert rc.g_ab == 0.0

    def test_weights_of_random_states_sum_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            down = rng.normal(size=7) + 1j * rng.normal(size=7)
            up = rng.normal(size=7) + 1j * rng.normal(size=7)
            scale = math.sqrt(float(np.sum(np.abs(down) ** 2 + np.abs(up) ** 2)))
            rc = reduced_coin_matrix(down / scale, up / scale)
            assert rc.g_a + rc.g_b == pytest.approx(1.0, abs=1e-12)
            assert abs(rc.g_ab) ** 2 <= rc.g_a * rc.g_b + 1e-12


    def test_components_must_share_a_shape(self):
        with pytest.raises(ValueError, match="shape"):
            reduced_coin_matrix(np.ones(3, dtype=complex), np.ones(5, dtype=complex))


class TestEntanglementEntropy:
    def test_product_states_carry_no_entanglement(self):
        state = initial_state(CoinSpec(CoinFamily.H, math.pi / 4), 5)
        rc = reduced_coin_matrix(state.down, state.up)
        assert entanglement_entropy(rc) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_spin_reads_one_bit(self):
        rc = ReducedCoinMatrix(g_a=0.5, g_b=0.5, g_ab=0.0)
        assert entanglement_entropy(rc) == 1.0

    def test_value_stays_in_the_unit_interval_for_physical_states(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            down = rng.normal(size=5) + 1j * rng.normal(size=5)
            up = rng.normal(size=5) + 1j * rng.normal(size=5)
            scale = math.sqrt(float(np.sum(np.abs(down) ** 2 + np.abs(up) ** 2)))
            rc = reduced_coin_matrix(down / scale, up / scale)
            assert 0.0 <= entanglement_entropy(rc) <= 1.0

    def test_global_phase_leaves_the_entropy_unchanged(self):
        rng = np.random.default_rng(13)
        down = rng.normal(size=5) + 1j * rng.normal(size=5)
        up = rng.normal(size=5) + 1j * rng.normal(size=5)
        scale = math.sqrt(float(np.sum(np.abs(down) ** 2 + np.abs(up) ** 2)))
        down, up = down / scale, up / scale
        phase = np.exp(0.7j)
        before = entanglement_entropy(reduced_coin_matrix(down, up))
        after = entanglement_entropy(
            reduced_coin_matrix(phase * down, phase * up)
        )
        assert after == before

    def test_marginal_floating_excess_is_clamped(self):
        excess = ReducedCoinMatrix(g_a=0.5, g_b=0.5, g_ab=np.sqrt(0.25 + 1e-13))
        assert entanglement_entropy(excess) == pytest.approx(0.0, abs=1e-5)

    def test_unphysical_matrices_are_rejected(self):
        bad = ReducedCoinMatrix(g_a=0.5, g_b=0.5, g_ab=np.sqrt(0.25 + 1e-6))
        with pytest.raises(ValueError, match="discriminant"):
            entanglement_entropy(bad)


class TestAsymmetryCarpet:
    def test_balanced_rows_stay_zero(self):
        raw = np.zeros((3, 5))
        raw[1] = [0.0, 0.2, 0.0, -0.2, 0.0]
        carpet = asymmetry_carpet(raw)
        assert not carpet[0].any()
        assert not carpet[2].any()
        np.testing.assert_allclose(carpet[1], [0.0, 1.0, 0.0, -1.0, 0.0])

    def test_rows_are_scaled_by_their_own_peak(self):
        raw = np.array([[0.1, -0.4, 0.2], [0.05, 0.0, -0.01]])
        carpet = asymmetry_carpet(raw)
        assert np.abs(carpet).max() <= 1.0
        assert carpet[0, 1] == -1.0
        assert carpet[1, 0] == 1.0

    def test_one_dimensional_input_is_rejected(self):
        with pytest.raises(ValueError, match="2-D"):
            asymmetry_carpet(np.zeros(4))


class TestExponentFit:
    def test_exact_square_law(self):
        t = np.arange(1, 2001, dtype=float)
        fit = fit_alpha(t, t**2)
        assert fit.alpha == pytest.approx(2.0, abs=1e-12)
        assert fit.intercept == pytest.approx(0.0, abs=1e-10)
        assert fit.residual < 1e-12

    def test_exact_linear_law_with_prefactor(self):
        t = np.arange(1, 1001, dtype=float)
        fit = fit_alpha(t, 3.0 * t)
        assert fit.alpha == pytest.approx(1.0, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-10)

    def test_default_window_skips_the_short_time_transient(self):
        t = np.arange(1, 2001, dtype=float)
        fit = fit_alpha(t, t**2)
        assert fit.window == (200.0, 2000.0)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0, 3.0])
    def test_planted_exponents_survive_one_percent_noise(self, alpha):
        rng = np.random.default_rng(int(10 * alpha))
        t = np.arange(1, 2001, dtype=float)
        noise = 1.0 + 0.01 * rng.uniform(-1.0, 1.0, size=t.size)
        fit = fit_alpha(t, 1.7 * t**alpha * noise)
        assert fit.alpha == pytest.approx(alpha, abs=0.02)

    def test_explicit_window_is_honored(self):
        t = np.arange(1, 101, dtype=float)
        m2 = np.where(t < 50, t, t**2)  # kinked curve
        fit = fit_alpha(t, m2, window=(50, 100))
        assert fit.alpha == pytest.approx(2.0, abs=1e-10)
        assert fit.window == (50.0, 100.0)

    def test_single_time_windows_are_degenerate(self):
        t = np.arange(1, 101, dtype=float)
        with pytest.raises(DegenerateFitError, match="distinct"):
            fit_alpha(t, t**2, window=(60, 60))

    def test_zero_variance_inside_the_window_is_degenerate(self):
        t = np.arange(1, 101, dtype=float)
        m2 = t.copy()
        m2[70] = 0.0
        with pytest.raises(DegenerateFitError, match="non-positive"):
            fit_alpha(t, m2, window=(10, 100))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_variance_inside_the_window_is_degenerate(self, bad):
        t = np.arange(1, 101, dtype=float)
        m2 = t**2
        m2[70] = bad
        with pytest.raises(DegenerateFitError, match="non-finite"):
            fit_alpha(t, m2, window=(10, 100))
        # Outside the window the sample is never read.
        fit = fit_alpha(t, m2, window=(80, 100))
        assert fit.alpha == pytest.approx(2.0, abs=1e-10)

    def test_mismatched_shapes_are_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            fit_alpha(np.arange(5), np.arange(6))
