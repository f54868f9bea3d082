import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln
from scipy.stats import binom as sp_binom
from scipy.stats import poisson as sp_poisson

from l1minimax import (BinomialSpec, CoordinatewiseEstimator, CompressedFamily,
                       PoissonPair, ProbabilityVector, binomial_expectation,
                       binomial_mad_exact, empirical_estimator, entropy_ball_family,
                       estimator_risk_exact, poisson_tv_exact, threshold_estimator,
                       ThresholdConfig)
from l1minimax.exact import _lgamma_int, _poisson_window, _window_pmf
from conftest import brute_force_risk, expand


def full_window(n, p):
    """Binomial pmf on 0..n, anchored where binomial_expectation anchors it:
    at 0 or n while that mass is representable, else at the mode."""
    if n * math.log1p(-p) > -700.0:
        return _window_pmf(n, p, 0, n, 0)
    if n * math.log(p) > -700.0:
        return _window_pmf(n, p, 0, n, n)
    return _window_pmf(n, p, 0, n, min(int((n + 1) * p), n))


class TestLgammaInt:
    """The port of cephes `lgam` equals scipy.special.gammaln bit for bit on
    integers, so exact risks keep their bits without scipy at run time."""

    @staticmethod
    def assert_bits_equal(xs):
        got = np.array([_lgamma_int(x) for x in xs.tolist()])
        bad = np.flatnonzero(got != gammaln(xs))
        assert bad.size == 0, xs[bad[:5]]

    def test_every_integer_to_2e5(self):
        self.assert_bits_equal(np.arange(1, 200_001, dtype=float))

    def test_seeded_sample_to_1e8(self):
        rng = np.random.default_rng(20140606)
        self.assert_bits_equal(rng.integers(200_001, 10**8 + 11, 200_000).astype(float))

    def test_branch_edges(self):
        self.assert_bits_equal(np.array([12.0, 13.0, 999.0, 1000.0, 1e8, 1e8 + 1]))


class TestBinomialPmf:
    def test_symmetric_case(self):
        assert full_window(2, 0.5)[1] == pytest.approx(0.5, rel=1e-15)

    def test_degenerate_p(self):
        def at(k):
            return lambda ks: (ks == k).astype(float)
        assert binomial_expectation(10, 0.0, at(0)) == 1.0
        assert binomial_expectation(10, 1.0, at(10)) == 1.0

    def test_frozen_power(self):
        # 0.95^10 at 40 digits
        assert _window_pmf(10, 0.05, 0, 10, 0)[0] == pytest.approx(
            0.598736939238378906, rel=1e-14)

    def test_k_out_of_range(self):
        # the certified window never evaluates a term outside 0..n; the mass
        # it covers is 1 up to the log-gamma anchor, whose rounding grows
        # with n (about 1e-9 at n = 1e6)
        for n, p in [(1, 0.5), (40, 0.3), (5000, 0.01), (10**6, 0.999)]:
            seen = []

            def term(ks, seen=seen):
                seen.append(ks)
                return np.ones(ks.shape)
            assert binomial_expectation(n, p, term) == pytest.approx(1.0, rel=1e-8)
            ks = np.concatenate(seen)
            assert ks.min() >= 0 and ks.max() <= n

    @pytest.mark.parametrize("n", [1, 2, 5, 17, 100, 333, 1000, 2000])
    @pytest.mark.parametrize("p", [1e-7, 0.01, 0.3, 0.5, 0.731, 0.999])
    def test_sums_to_one(self, n, p):
        assert abs(math.fsum(full_window(n, p).tolist()) - 1.0) <= 1e-12

    def test_agrees_with_scipy_at_large_n(self):
        n, p = 10**6, 0.1
        pmf = full_window(n, p)
        for k in [0, 99_000, 100_000, 101_000, 10**6]:
            ref = float(sp_binom.pmf(k, n, p))
            assert pmf[k] == pytest.approx(ref, rel=1e-8, abs=1e-300)


class TestBinomialMad:
    def test_tiny_case_by_hand(self):
        # outcomes {0,1,2} have probs {1/4,1/2,1/4}, deviations {1/2,0,1/2}
        assert binomial_mad_exact(BinomialSpec(2, 0.5)) == pytest.approx(0.25, rel=1e-14)

    def test_small_p_identity_case(self):
        # p < 1/n, so the value collapses to 2p(1-p)^n
        assert binomial_mad_exact(BinomialSpec(10, 0.05)) == pytest.approx(
            0.0598736939238378906, rel=1e-13)

    def test_deterministic_zero(self):
        assert binomial_mad_exact(BinomialSpec(5, 0.0)) == 0.0

    @pytest.mark.parametrize("n,p", [
        (10, 0.05), (100, 0.004), (1000, 0.0007), (100_000, 1e-6), (100_000, 9.9e-6),
    ])
    def test_identity_below_one_over_n(self, n, p):
        assert p < 1.0 / n
        expected = 2.0 * p * math.exp(n * math.log1p(-p))
        assert binomial_mad_exact(BinomialSpec(n, p)) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("n", [3, 10, 47, 200, 1000])
    @pytest.mark.parametrize("p", [0.001, 0.1, 0.4, 0.5, 0.8, 0.999])
    def test_dominated_by_min_bound(self, n, p):
        mad = binomial_mad_exact(BinomialSpec(n, p))
        assert mad <= math.sqrt(p * (1 - p) / n) + 1e-15
        assert mad <= 2.0 * p + 1e-15

    def test_brute_force_small(self):
        from scipy.stats import binom
        for n, p in [(4, 0.3), (7, 0.9), (12, 0.08)]:
            brute = math.fsum(abs(k / n - p) * float(binom.pmf(k, n, p))
                              for k in range(n + 1))
            assert binomial_mad_exact(BinomialSpec(n, p)) == pytest.approx(brute, rel=1e-12)

    @given(st.integers(1, 200), st.floats(1e-9, 1.0 - 1e-9))
    @example(10, 0.5)
    @example(200, 0.25)
    @example(7, 0.9)
    @settings(max_examples=300, deadline=None)
    def test_de_moivre_closed_form(self, n, p):
        # E|X - np| = 2 nu C(n, nu) p^nu q^(n - nu + 1) with nu = floor(np) + 1
        # (De Moivre; Diaconis & Zabell 1991), integer np included
        nu = math.floor(n * p) + 1
        q = 1.0 - p
        closed = 2 * nu * float(math.comb(n, nu)) * p ** nu * q ** (n - nu + 1)
        assert n * binomial_mad_exact(BinomialSpec(n, p)) == pytest.approx(closed, rel=1e-12)


class TestEstimatorRiskExact:
    def test_uniform_two_cells(self):
        fam = ProbabilityVector([0.5, 0.5])
        risk = estimator_risk_exact(fam, empirical_estimator(), 4)
        assert risk == pytest.approx(0.375, rel=1e-13)
        assert risk == pytest.approx(
            brute_force_risk([0.5, 0.5], empirical_estimator(), 4), rel=1e-12)

    def test_perfect_oracle_has_zero_risk(self):
        fam = ProbabilityVector([0.25] * 4)
        oracle = CoordinatewiseEstimator(
            "oracle", lambda ks, n: np.full(np.shape(ks), 0.25))
        assert estimator_risk_exact(fam, oracle, 10) == 0.0

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force_enumeration(self, seed):
        gen = np.random.default_rng(seed)
        S = int(gen.integers(2, 4))
        n = int(gen.integers(2, 7))
        probs = gen.dirichlet(np.ones(S))
        pv = ProbabilityVector(probs)
        for est in (empirical_estimator(), threshold_estimator(ThresholdConfig(n, 1.2))):
            fast = estimator_risk_exact(pv, est, n)
            brute = brute_force_risk(pv.probs, est, n)
            assert fast == pytest.approx(brute, rel=1e-10, abs=1e-12)

    def test_equals_sum_of_mads(self):
        gen = np.random.default_rng(99)
        probs = gen.dirichlet(np.ones(7))
        pv = ProbabilityVector(probs)
        n = 61
        risk = estimator_risk_exact(pv, empirical_estimator(), n)
        mads = math.fsum(binomial_mad_exact(BinomialSpec(n, float(p))) for p in pv.probs)
        assert risk == pytest.approx(mads, rel=1e-12)

    def test_compressed_matches_expanded(self):
        fam = CompressedFamily(((0.001, 100), (0.9, 1)))
        n = 50
        compressed = estimator_risk_exact(fam, empirical_estimator(), n)
        expanded = estimator_risk_exact(expand(fam), empirical_estimator(), n)
        assert compressed == pytest.approx(expanded, rel=1e-10)

    def test_risk_increases_with_c_at_small_n(self):
        H, n = 1.0, 1000
        grid = [entropy_ball_family(H, c * H / math.log(n)).family
                for c in (0.3, 0.5, 0.7)]
        risks = [estimator_risk_exact(f, empirical_estimator(), n) for f in grid]
        assert risks[0] < risks[1] < risks[2]

    def test_flat_family_floor(self):
        # S' tiny atoms below 1/n: their total contribution is exactly
        # 2 delta (1 - delta/S')^n, so the full risk must exceed it
        delta, sp, n = 0.1, 1000, 100
        fam = CompressedFamily(((delta / sp, sp), (1 - delta, 1)))
        risk = estimator_risk_exact(fam, empirical_estimator(), n)
        floor = 2 * delta * math.exp(n * math.log1p(-delta / sp))
        assert risk >= floor - 1e-14


class TestPoisson:
    def test_pmf_examples(self):
        assert _poisson_window(0.0, 3).tolist() == [1.0, 0.0, 0.0, 0.0]
        assert _poisson_window(1.0, 1) == pytest.approx([math.exp(-1)] * 2, rel=1e-14)
        ks = np.arange(60)
        assert _poisson_window(12.5, 59) == pytest.approx(sp_poisson.pmf(ks, 12.5), rel=1e-12)

    def test_tv_identical_rates(self):
        assert poisson_tv_exact(PoissonPair(3.7, 3.7)) == 0.0

    def test_tv_zero_vs_one(self):
        assert poisson_tv_exact(PoissonPair(0.0, 1.0)) == pytest.approx(
            1 - math.exp(-1), rel=1e-13)

    def test_tv_one_vs_two_frozen(self):
        # frozen from a 30-digit factorial-based summation
        tv = poisson_tv_exact(PoissonPair(1.0, 2.0))
        assert tv == pytest.approx(0.329753032633046568, rel=1e-12)
        assert tv <= min(1 - math.exp(-1), math.sqrt(2 / math.e) * (math.sqrt(2) - 1))

    @pytest.mark.parametrize("lo,hi", [(0.5, 2.0), (4.0, 4.5), (40.0, 90.0)])
    def test_half_abs_equals_one_minus_min(self, lo, hi):
        kmax = int(hi + 25 * math.sqrt(hi + 1)) + 50
        pmf_lo = sp_poisson.pmf(np.arange(kmax), lo)
        pmf_hi = sp_poisson.pmf(np.arange(kmax), hi)
        other_form = 1.0 - np.minimum(pmf_lo, pmf_hi).sum()
        assert poisson_tv_exact(PoissonPair(lo, hi)) == pytest.approx(
            other_form, abs=1e-12)

    def test_tv_monotone_in_gap(self):
        base = 2.0
        values = [poisson_tv_exact(PoissonPair(base, base + x))
                  for x in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_pair_validation(self):
        with pytest.raises(ValueError):
            PoissonPair(2.0, 1.0)
        with pytest.raises(ValueError):
            PoissonPair(-1.0, 1.0)


class TestTruncationBudget:
    """The certified 1e-14 truncation budget covers the whole risk sum."""

    @pytest.mark.parametrize("fam,n", [
        (CompressedFamily(((1e-20, 10**19), (0.9, 1))), 1000),
        (CompressedFamily(((0.3 / 7, 7), (0.2 / 11, 11), (0.5, 1))), 100),
        (ProbabilityVector(np.random.default_rng(5).dirichlet(np.ones(40))), 10**5),
    ])
    def test_sum_of_scaled_tails_within_budget(self, monkeypatch, fam, n):
        from l1minimax import exact
        seen = []
        original = exact.binomial_expectation

        def recording(n, p, term, term_bound=1.0, tail_tol=exact.TAIL_TOL):
            seen.append((p, tail_tol))
            return original(n, p, term, term_bound, tail_tol)

        monkeypatch.setattr(exact, "binomial_expectation", recording)
        estimator_risk_exact(fam, empirical_estimator(), n)
        mults = dict(exact._grouped_atoms(fam))
        assert len(seen) == len(mults)
        spent = math.fsum(mults[p] * tol for p, tol in seen)
        # up to the rounding of the division that splits the budget
        assert spent <= exact.TAIL_TOL * (1.0 + 1e-12)
