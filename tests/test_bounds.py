import math

import numpy as np
import pytest

from l1minimax import (ProbabilityVector, adell_jodra_tv_bound,
                       chernoff_tails, classical_constant, empirical_estimator,
                       estimator_risk_exact, hoeffding_bound,
                       minimax_entropy_lower, minimax_lower_hd, mle_entropy_lower,
                       mle_entropy_upper, mle_upper_simple, mle_upper_tight,
                       simplex_lower, threshold_upper)
from conftest import exact_poisson_tail_lower, exact_poisson_tail_upper

E = math.e


class TestMleUpperBounds:
    def test_simple_values(self):
        assert mle_upper_simple(5, 100) == 0.2
        assert mle_upper_simple(1, 7) == 0.0
        assert mle_upper_simple(2, 4) == 0.5

    def test_simple_dominates_exact_uniform(self):
        risk = estimator_risk_exact(ProbabilityVector([0.5, 0.5]),
                                    empirical_estimator(), 4)
        assert risk == pytest.approx(0.375, rel=1e-13)
        assert risk <= mle_upper_simple(2, 4)

    def test_tight_frozen(self):
        # sqrt(2/(pi 1e4)) + 2 sqrt(2) / 1e3, frozen at 40 digits
        assert mle_upper_tight(2, 10**4) == pytest.approx(0.0108072727327748437, rel=1e-14)
        assert mle_upper_tight(1, 10) == 0.0

    def test_tight_vs_simple_crossover(self):
        # at S=2 the tight bound loses below n ~ 3.8e4 and wins above
        assert mle_upper_tight(2, 10**4) > mle_upper_simple(2, 10**4)
        assert mle_upper_tight(2, 10**5) < mle_upper_simple(2, 10**5)

    def test_random_vectors_dominated(self, rng):
        for _ in range(25):
            S = int(rng.integers(2, 12))
            n = int(rng.integers(2, 300))
            pv = ProbabilityVector(rng.dirichlet(np.ones(S)))
            risk = estimator_risk_exact(pv, empirical_estimator(), n)
            assert risk <= mle_upper_simple(S, n) + 1e-12
            assert risk <= mle_upper_tight(S, n) + 1e-12


class TestClassicalConstant:
    def test_frozen(self):
        assert classical_constant(2) == pytest.approx(0.797884560802865356, rel=1e-15)
        assert classical_constant(9) == pytest.approx(2.25675833419102515, rel=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            classical_constant(1)

    def test_matches_scaled_uniform_risk(self):
        n = 10**4
        risk = estimator_risk_exact(ProbabilityVector([0.5, 0.5]),
                                    empirical_estimator(), n)
        assert abs(math.sqrt(n) * risk - classical_constant(2)) <= 0.01


class TestParamTypes:
    def test_high_dim_params_validation(self):
        with pytest.raises(ValueError, match="S must be at least 2"):
            minimax_lower_hd(1, 10, 0.5)
        with pytest.raises(ValueError, match="zeta"):
            minimax_lower_hd(10, 10, 0.0)
        with pytest.raises(ValueError, match="zeta"):
            minimax_lower_hd(10, 10, 1.5)

    def test_entropy_ball_params_validation(self):
        # the entropy-ball bounds check H > 0, c in (0, 1) and eta > 1 themselves
        mle_entropy_lower(1.0, 100, 0.5)
        mle_entropy_upper(1.0, 100, 1.1)
        with pytest.raises(ValueError, match="H"):
            mle_entropy_lower(0.0, 100, 0.5)
        with pytest.raises(ValueError, match="c must"):
            minimax_entropy_lower(1.0, 100, 1.0)
        with pytest.raises(ValueError, match="eta"):
            mle_entropy_upper(1.0, 100, 1.0)


class TestMinimaxLowerHd:
    def test_small_cell_is_vacuous(self):
        out = minimax_lower_hd(2, 10, 1.0)
        assert out.vacuous and out.value < 0

    def test_large_cell_frozen(self):
        out = minimax_lower_hd(10**6, 10**4, 0.5)
        assert not out.vacuous
        assert out.value == pytest.approx(0.970445533548508157, rel=1e-12)

    def test_branch_switches_at_ratio(self):
        # pick S so (1+zeta) n / S straddles e/16
        zeta, n = 0.5, 1000
        S_hi = int(16 * (1 + zeta) * n / E) + 2   # ratio below e/16: exp branch
        S_lo = int(16 * (1 + zeta) * n / E) - 2   # ratio above e/16: sqrt branch
        penal = lambda S: (math.exp(-zeta**2 * n / 24)
                           + 12 * math.exp(-zeta**2 * S / (32 * math.log(S) ** 2)))
        hi = minimax_lower_hd(S_hi, n, zeta)
        lo = minimax_lower_hd(S_lo, n, zeta)
        assert hi.value == pytest.approx(
            math.exp(-2 * (1 + zeta) * n / S_hi) - penal(S_hi), rel=1e-12)
        assert lo.value == pytest.approx(
            0.125 * math.sqrt(E * S_lo / ((1 + zeta) * n)) - penal(S_lo), rel=1e-12)


class TestEntropyBallBounds:
    def test_mle_upper_frozen(self):
        out = mle_entropy_upper(1.0, 10**6, 1.1)
        assert not out.vacuous
        assert out.value == pytest.approx(0.304461146048712114, rel=1e-13)

    def test_mle_upper_vacuous_regime(self):
        # ln n <= 3 ln ln n for n = 50
        out = mle_entropy_upper(1.0, 50, 1.5)
        assert out.vacuous and out.value == math.inf

    def test_mle_upper_h_zero_limit(self):
        out = mle_entropy_upper(0.0, 10**6, 1.1)
        assert out.value == pytest.approx(math.log(10**6) ** -1.1, rel=1e-14)

    def test_mle_lower_frozen(self):
        assert mle_entropy_lower(1.0, 10**3, 0.5) == pytest.approx(
            0.144186923414384313, rel=1e-13)

    def test_mle_lower_tiny_c(self):
        value = mle_entropy_lower(1.0, 10**3, 1e-9)
        assert 0.0 < value < 1e-8

    def test_mle_lower_domain_errors_name_condition(self):
        with pytest.raises(ValueError, match=r"e\^H"):
            mle_entropy_lower(10.0, 10**3, 0.5)
        with pytest.raises(ValueError, match=r"\(1-c\)"):
            mle_entropy_lower(1.0, 10**3, 0.9)  # (1-c)^(-1/(1-c)) = 1e10

    def test_threshold_upper_frozen(self):
        out = threshold_upper(1.0, 10**6, 1.1)
        assert not out.vacuous
        assert out.value == pytest.approx(0.242744062332774561, rel=1e-13)

    def test_threshold_upper_vacuous_at_small_n(self):
        assert threshold_upper(1.0, 10**3, 1.5).vacuous

    def test_threshold_beats_mle_upper_here(self):
        assert (threshold_upper(1.0, 10**6, 1.1).value
                < mle_entropy_upper(1.0, 10**6, 1.1).value)

    def test_threshold_upper_linear_in_h(self):
        n, eta = 10**6, 1.1
        denom = math.log(n) - math.log(2 * E * E) - 2 * eta * math.log(math.log(n))
        diff = threshold_upper(2.0, n, eta).value - threshold_upper(1.0, n, eta).value
        assert diff == pytest.approx(1.0 / denom, rel=1e-12)

    def test_minimax_lower_frozen(self):
        out = minimax_entropy_lower(1.0, 10**3, 0.5)
        assert out.value == pytest.approx(0.0720928839959398034, rel=1e-13)

    @pytest.mark.parametrize("H,n,c", [
        (1.0, 10**3, 0.5), (1.0, 10**4, 0.3), (2.0, 10**5, 0.7), (0.5, 100, 0.9),
    ])
    def test_simplex_is_twice_minimax(self, H, n, c):
        assert simplex_lower(H, n, c).value == 2.0 * minimax_entropy_lower(H, n, c).value

    def test_simplex_dominated_by_mle_upper(self):
        for n in (10**3, 10**4, 10**5, 10**6):
            floor = simplex_lower(1.0, n, 0.5)
            ceil = mle_entropy_upper(1.0, n, 1.1)
            if not floor.vacuous and not ceil.vacuous:
                assert floor.value <= ceil.value

    def test_entropy_ball_uppers_dominate_low_entropy_corpus(self):
        # distributions whose entropy sits strictly inside the ball
        from l1minimax import ThresholdConfig, entropy, threshold_estimator
        H, eta = 1.0, 1.1
        corpus = [ProbabilityVector([0.5, 0.5]),
                  ProbabilityVector([0.9, 0.05, 0.05]),
                  ProbabilityVector([0.7, 0.2, 0.05, 0.05])]
        for pv in corpus:
            assert entropy(pv) <= H
            for n in (10**3, 10**4):
                mle_risk = estimator_risk_exact(pv, empirical_estimator(), n)
                upper = mle_entropy_upper(H, n, eta)
                assert not upper.vacuous and mle_risk <= upper.value
                thr_risk = estimator_risk_exact(
                    pv, threshold_estimator(ThresholdConfig(n, eta)), n)
                t_upper = threshold_upper(H, n, eta)
                if not t_upper.vacuous:
                    assert thr_risk <= t_upper.value

    def test_minimax_lower_c_to_one_trend(self):
        # ratio (ln n / H) * bound climbs toward 1 along c -> 1, provided n
        # grows fast enough to keep the correction term small
        pairs = [(0.3, 10**3), (0.5, 10**5), (0.7, 10**10), (0.9, 10**45)]
        ratios = [math.log(n) * minimax_entropy_lower(1.0, n, c).value
                  for c, n in pairs]
        assert all(a < b for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] > 0.89


class TestAdellJodra:
    def test_frozen_min(self):
        assert adell_jodra_tv_bound(1.0, 1.0) == pytest.approx(
            0.355297434464560051, rel=1e-14)

    def test_zero_gap(self):
        assert adell_jodra_tv_bound(3.0, 0.0) == 0.0

    def test_exponential_branch_wins_at_t_zero(self):
        for x in (0.01, 5.0, 10.0, 40.0):
            assert adell_jodra_tv_bound(0.0, x) == -math.expm1(-x)

    def test_sqrt_branch_wins_at_positive_t(self):
        assert adell_jodra_tv_bound(1.0, 1.0) == pytest.approx(
            math.sqrt(2 / E) * (math.sqrt(2) - 1), rel=1e-12)


class TestChernoffTails:
    def test_delta_to_zero_limit(self):
        upper, lower = chernoff_tails(100.0, 1e-9)
        assert upper == pytest.approx(1.0, abs=1e-12)
        assert lower == pytest.approx(1.0, abs=1e-12)

    def test_lower_tail_frozen(self):
        assert chernoff_tails(100.0, 0.5).lower_tail == pytest.approx(
            3.72665317207867099e-6, rel=1e-13)

    def test_dominates_exact_poisson_tail(self):
        lam, delta = 100.0, 0.5
        exact = exact_poisson_tail_lower(lam, (1 - delta) * lam)
        assert exact <= chernoff_tails(lam, delta).lower_tail
        exact_up = exact_poisson_tail_upper(lam, (1 + delta) * lam)
        assert exact_up <= chernoff_tails(lam, delta).upper_tail


class TestHoeffding:
    def test_vacuous_clamp(self):
        assert hoeffding_bound(10, 1.0, 1e-15) == 1.0

    def test_reproduces_concentration_penalty(self):
        # with n = S, width 2/S, t = zeta/(4 ln S) this equals
        # 2 exp(-zeta^2 S / (32 (ln S)^2)); frozen at S=1e4, zeta=0.5
        S, zeta = 10**4, 0.5
        t = zeta / (4 * math.log(S))
        direct = 2 * math.exp(-zeta**2 * S / (32 * math.log(S) ** 2))
        assert hoeffding_bound(S, 2 / S, t) == pytest.approx(direct, rel=1e-12)
        assert direct == pytest.approx(0.796276834746970274, rel=1e-13)

    def test_doubling_t_relation(self):
        # bound(2t) = bound(t)^4 / 8 whenever nothing clamps
        n, w, t = 50, 0.3, 1.5
        b1 = hoeffding_bound(n, w, t)
        b2 = hoeffding_bound(n, w, 2 * t)
        assert b1 < 1.0
        assert b2 == pytest.approx(b1**4 / 8.0, rel=1e-10)
