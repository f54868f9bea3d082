import itertools
import math
from collections import Counter

import numpy as np
import pytest

from l1minimax import (CompositePrior, CompressedFamily,
                       assembled_minimax_lower_hd,
                       bayes_risk_entropy_ball, bayes_risk_entropy_ball_constrained,
                       bayes_risk_two_point, bayes_risk_two_point_piecewise,
                       entropy, entropy_ball_family,
                       minimax_entropy_lower, minimax_lower_hd, mle_entropy_lower,
                       poisson_tv_exact, sample_from_composite_prior,
                       sample_multinomial, simplex_lower)

E = math.e


class TestEntropyBallFamily:
    def test_frozen_construction(self):
        fam = entropy_ball_family(1.0, 0.2)
        assert fam.S_prime == 13  # real solution 12.1580059936830754
        assert entropy(fam.family) == pytest.approx(1.01339229503049523, rel=1e-13)

    def test_real_solution_hits_entropy_target(self):
        # before rounding, delta ln S' - delta ln delta - (1-delta) ln(1-delta) = H
        H, delta = 1.7, 0.31
        log_sp = (math.log(delta) + H / delta
                  + (1 - delta) / delta * math.log1p(-delta))
        recovered = (delta * log_sp - delta * math.log(delta)
                     - (1 - delta) * math.log1p(-delta))
        assert recovered == pytest.approx(H, rel=1e-13)

    @pytest.mark.parametrize("H,delta", [(1.0, 0.2), (1.0, 0.05), (2.5, 0.4), (0.7, 0.3)])
    def test_rounding_only_adds_entropy(self, H, delta):
        fam = entropy_ball_family(H, delta)
        assert entropy(fam.family) >= H - 1e-12
        log_sp_real = (math.log(delta) + H / delta
                       + (1 - delta) / delta * math.log1p(-delta))
        excess_cap = delta * (math.log(fam.S_prime) - log_sp_real)
        assert entropy(fam.family) - H <= excess_cap + 1e-12

    def test_delta_near_one_approaches_uniform(self):
        fam = entropy_ball_family(math.log(4), 0.999999)
        assert fam.S_prime == 4
        tiny, heavy = fam.family.atoms[0], fam.family.atoms[1]
        assert tiny[0] == pytest.approx(0.25, rel=1e-5)
        assert heavy[0] == pytest.approx(0.0, abs=1e-5)

    def test_small_coordinate_fits_identity_regime(self):
        # the tuned delta = c H / ln n keeps delta/S' below 1/n
        H, n, c = 1.0, 10**3, 0.5
        delta = c * H / math.log(n)
        assert delta == pytest.approx(0.0723824136505419713, rel=1e-13)
        fam = entropy_ball_family(H, delta)
        assert delta / fam.S_prime < 1.0 / n
        assert delta <= c

    @pytest.mark.parametrize("c", [0.3, 0.5, 0.7, 0.9])
    @pytest.mark.parametrize("n", [10**3, 10**4, 10**5, 10**6])
    def test_identity_regime_over_grid(self, c, n):
        # the small-coordinate condition needs n > (1-c)^(-1/(1-c)), which
        # excludes c = 0.9 at desk scale (it would require n > 1e10): there
        # the floor that rests on it refuses the cell
        H = 1.0
        if n <= math.exp(-math.log1p(-c) / (1.0 - c)):
            with pytest.raises(ValueError, match=r"requires n > \(1-c\)\^\(-1/\(1-c\)\)"):
                mle_entropy_lower(H, n, c)
            return
        delta = c * H / math.log(n)
        fam = entropy_ball_family(H, delta)
        assert delta / fam.S_prime < 1.0 / n
        assert delta <= c


class TestTwoPointPrior:
    # the perturbation eta = min{1, sqrt(eS/n)/4} is read through the value
    # eta (1 - TV(n(1 - eta)/S, n(1 + eta)/S))
    def test_perturbation_frozen(self):
        eta = 0.13034286105448596
        tv = poisson_tv_exact(1000 * (1.0 - eta) / 100, 1000 * (1.0 + eta) / 100)
        assert bayes_risk_two_point(100, 1000) == pytest.approx(eta * (1.0 - tv), rel=1e-14)

    def test_perturbation_clamped(self):
        assert bayes_risk_two_point(1000, 100) == 1.0 - poisson_tv_exact(0.0, 0.2)

    def test_bayes_risk_frozen(self):
        value = bayes_risk_two_point(100, 1000)
        assert value == pytest.approx(0.0887883656828233, rel=1e-10)

    def test_products_past_the_float_range_are_split(self):
        # e S and n (1 + eta) overflowed: eta read 1, then "rates must be finite";
        # split, the eta and rates are those at S = 2, n = 3
        value = bayes_risk_two_point(2, 3)
        assert bayes_risk_two_point(1e308, 1.5e308) == pytest.approx(value, rel=1e-15)
        assert assembled_minimax_lower_hd(1e308, 1e308, 0.5).value == pytest.approx(value)

    @pytest.mark.parametrize("S,n", [(100, 1000), (1000, 100), (10, 10), (3, 2000)])
    def test_exact_tv_dominates_piecewise_form(self, S, n):
        assert (bayes_risk_two_point(S, n)
                >= bayes_risk_two_point_piecewise(S, n) - 1e-12)

    def test_piecewise_branches(self):
        # n/S <= e/16 uses the exponential branch
        assert bayes_risk_two_point_piecewise(1000, 100) == pytest.approx(
            math.exp(-0.2), rel=1e-14)
        assert bayes_risk_two_point_piecewise(100, 1000) == pytest.approx(
            0.125 * math.sqrt(E * 0.1), rel=1e-14)


class TestAssembledLower:
    def test_small_cell_vacuous(self):
        out = assembled_minimax_lower_hd(3, 10, 0.5)
        assert out.vacuous

    def test_needs_ln_S_above_one(self):
        with pytest.raises(ValueError, match="at least 3"):
            assembled_minimax_lower_hd(2, 10, 0.5)

    def test_dominates_statement_form(self):
        for S, n, zeta in [(10**6, 10**4, 0.5), (10**5, 10**3, 1.0), (4000, 50, 0.7)]:
            assembled = assembled_minimax_lower_hd(S, n, zeta)
            statement = minimax_lower_hd(S, n, zeta)
            assert assembled.value >= statement.value - 1e-12

    def test_frozen_large_cell(self):
        out = assembled_minimax_lower_hd(10**6, 10**4, 0.5)
        assert out.value == pytest.approx(0.970445533548508157, rel=1e-10)

    def test_penalties_fade_at_scale(self):
        zeta = 0.5
        gaps = []
        for S, n in [(10**4, 10**2), (10**5, 10**3), (10**6, 10**4)]:
            assembled = assembled_minimax_lower_hd(S, n, zeta).value
            bayes_only = bayes_risk_two_point(S, (1 + zeta) * n)
            gaps.append(bayes_only - assembled)
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-12


class TestEntropyBallBayesRisk:
    def _prior(self, sp=10, delta=0.5, k=2):
        return CompositePrior(delta=delta, S_prime=sp, k=k)

    def test_frozen_pair(self):
        out = bayes_risk_entropy_ball(self._prior(), 20)
        assert out.exact == pytest.approx(0.179242961204271117, rel=1e-13)
        # the linear cap gives exactly zero here: n delta = S'
        assert out.linearized == pytest.approx(0.0, abs=1e-15)
        assert out.exact >= out.linearized

    def test_no_observations_returns_delta(self):
        out = bayes_risk_entropy_ball(self._prior(), 0)
        assert out.exact == 0.5
        assert out.linearized == 0.5

    @pytest.mark.parametrize("n", [0, 1, 5, 50, 500])
    def test_exact_dominates_linearized(self, n):
        # expected occupancy E N = S'(1 - exact/delta) is capped by n delta
        # (the linearized form) and by S' (exact >= 0)
        out = bayes_risk_entropy_ball(self._prior(sp=40, delta=0.3), n)
        assert out.exact >= out.linearized - 1e-15
        assert out.exact >= 0.0

    def test_seeded_occupancy_matches_expectation(self):
        # distinct observed tiny atoms over seeded Multinomial draws agree
        # with the expected occupancy S'(1 - exact/delta) within four
        # standard errors
        delta, sp, n = 0.4, 25, 60
        fam = CompressedFamily(((delta / sp, sp), (1 - delta, 1)))
        reps = 3000
        observed = np.empty(reps)
        for seed in range(reps):
            counts = sample_multinomial(fam, n, seed)
            observed[seed] = np.count_nonzero(counts[:sp])
        expected = sp * (1 - bayes_risk_entropy_ball(self._prior(sp, delta), n).exact / delta)
        se = observed.std(ddof=1) / math.sqrt(reps)
        assert abs(observed.mean() - expected) <= 4 * se

    def test_linearized_dominates_closed_form_floor(self):
        H, n, c = 1.0, 10**3, 0.5
        delta = c * H / math.log(n)
        fam = entropy_ball_family(H, delta)
        prior = CompositePrior.from_family(fam, k=2)
        out = bayes_risk_entropy_ball(prior, n)
        assert out.linearized >= minimax_entropy_lower(H, n, c).value - 1e-15

    def test_from_family_carries_delta_support_and_k(self):
        # the cor9 path builds its prior this way
        fam = entropy_ball_family(1.0, 0.3)
        assert CompositePrior.from_family(fam, 7) == CompositePrior(fam.delta, fam.S_prime, 7)

    def test_constrained_k2_equals_unconstrained_exact(self):
        prior = self._prior(k=2)
        assert (bayes_risk_entropy_ball_constrained(prior, 20)
                == bayes_risk_entropy_ball(prior, 20).exact)

    def test_constrained_factor_approaches_two(self):
        lo = bayes_risk_entropy_ball_constrained(self._prior(k=2), 20)
        hi = bayes_risk_entropy_ball_constrained(self._prior(k=10**6), 20)
        assert hi == pytest.approx(2.0 * lo * (1 - 1 / 10**6) / 1.0, rel=1e-9)

    def test_constrained_dominates_simplex_floor(self):
        H, n, c, k = 1.0, 10**3, 0.5, 10**6
        fam = entropy_ball_family(H, c * H / math.log(n))
        prior = CompositePrior.from_family(fam, k)
        value = bayes_risk_entropy_ball_constrained(prior, n)
        floor = simplex_lower(H, n, c)
        assert value >= floor.value * (1 - 1 / k) - 1e-15


class TestPosteriorRiskMinimizer:
    """Lattice brute force over candidate estimates for the composite prior.

    Given N observed active slots, the posterior puts the remaining
    S' - N active slots uniformly over the kS' - N unobserved ones; the
    claimed minimizer keeps observed slots at delta/S', zeroes the rest,
    and scores (1 - N/S') delta.
    """

    @staticmethod
    def posterior_risk(a, N, sp, k, delta):
        ks = k * sp
        seen = sum(abs(delta / sp - ai) for ai in a[:N])
        unseen = sum(((k - 1) * sp * abs(aj)
                      + (sp - N) * abs(delta / sp - aj)) / (ks - N)
                     for aj in a[N:ks])
        return seen + unseen + abs(1 - delta - a[ks])

    @pytest.mark.parametrize("sp,N", [(1, 0), (1, 1), (2, 1), (3, 0), (3, 2), (3, 3)])
    def test_lattice_minimum_matches_claimed_value(self, sp, N):
        k, delta = 2, 0.4
        ks = k * sp
        unit = delta / sp
        lattice = [0.0, unit / 2, unit, 2 * unit]
        tail_lattice = [1 - delta - unit, 1 - delta, 1 - delta + unit]
        best = math.inf
        for head in itertools.product(lattice, repeat=ks):
            for tail in tail_lattice:
                best = min(best, self.posterior_risk(head + (tail,), N, sp, k, delta))
        claimed = (1 - N / sp) * delta
        assert best == pytest.approx(claimed, abs=1e-12)
        argmin = tuple(unit if i < N else 0.0 for i in range(ks)) + (1 - delta,)
        assert self.posterior_risk(argmin, N, sp, k, delta) == pytest.approx(
            claimed, abs=1e-12)


class TestCompositePriorSampling:
    def test_two_slot_frequencies(self):
        cp = CompositePrior(delta=0.5, S_prime=1, k=2)
        hits = Counter(sample_from_composite_prior(cp, s)[0]
                       for s in range(10_000))
        # 5000 +- 3 sqrt(2500)
        assert abs(hits[0] - 5000) <= 150
        assert hits[0] + hits[1] == 10_000

    def test_draw_is_sorted_distinct_slots_in_range(self):
        cp = CompositePrior(delta=0.3, S_prime=4, k=3)
        for seed in range(20):
            slots = sample_from_composite_prior(cp, seed)
            assert len(slots) == cp.S_prime
            assert slots == tuple(sorted(set(slots)))
            assert all(0 <= slot < cp.k * cp.S_prime for slot in slots)

    def test_top_draw_takes_the_top_of_its_range(self, monkeypatch):
        # Every draw is 1.0, the stream's top value: step i must take slot i,
        # the last of [0, i], never i + 1 (the heavy coordinate, or a slot a
        # later step takes again).
        cp = CompositePrior(delta=0.2, S_prime=5, k=4)
        monkeypatch.setattr("l1minimax.rng.uniforms", lambda key, start, count: np.ones(count))
        assert sample_from_composite_prior(cp, 0) == tuple(range(15, 20))

    def test_deterministic_in_seed(self):
        cp = CompositePrior(delta=0.2, S_prime=5, k=4)
        a = sample_from_composite_prior(cp, 123)
        b = sample_from_composite_prior(cp, 123)
        c = sample_from_composite_prior(cp, 124)
        assert a == b
        assert a != c
