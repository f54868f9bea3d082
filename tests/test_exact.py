import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import poisson as sp_poisson

from l1minimax import (CoordinatewiseEstimator, CompressedFamily, McConfig,
                       ProbabilityVector, assembled_minimax_lower_hd, bayes_risk_two_point,
                       binomial_expectation, binomial_mad_exact, empirical_estimator,
                       entropy_ball_family,
                       estimator_risk_exact, mc_risk, poisson_tv_exact, threshold_estimator,
                       ThresholdConfig, ThresholdRule)
from l1minimax import binomial, exact
from l1minimax.exact import _poisson_window
from conftest import brute_force_risk, expand, perfbench_spans


class TestBinomialMad:
    def test_tiny_case_by_hand(self):
        # outcomes {0,1,2} have probs {1/4,1/2,1/4}, deviations {1/2,0,1/2}
        assert binomial_mad_exact(2, 0.5) == pytest.approx(0.25, rel=1e-14)

    def test_small_p_identity_case(self):
        # p < 1/n, so the value collapses to 2p(1-p)^n
        assert binomial_mad_exact(10, 0.05) == pytest.approx(
            0.0598736939238378906, rel=1e-13)

    def test_deterministic_zero(self):
        assert binomial_mad_exact(5, 0.0) == 0.0

    @pytest.mark.parametrize("n,p", [
        (10, 0.05), (100, 0.004), (1000, 0.0007), (100_000, 1e-6), (100_000, 9.9e-6),
    ])
    def test_identity_below_one_over_n(self, n, p):
        assert p < 1.0 / n
        expected = 2.0 * p * math.exp(n * math.log1p(-p))
        assert binomial_mad_exact(n, p) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("n", [3, 10, 47, 200, 1000])
    @pytest.mark.parametrize("p", [0.001, 0.1, 0.4, 0.5, 0.8, 0.999])
    def test_dominated_by_min_bound(self, n, p):
        mad = binomial_mad_exact(n, p)
        assert mad <= math.sqrt(p * (1 - p) / n) + 1e-15
        assert mad <= 2.0 * p + 1e-15

    def test_brute_force_small(self):
        from scipy.stats import binom
        for n, p in [(4, 0.3), (7, 0.9), (12, 0.08)]:
            brute = math.fsum(abs(k / n - p) * float(binom.pmf(k, n, p))
                              for k in range(n + 1))
            assert binomial_mad_exact(n, p) == pytest.approx(brute, rel=1e-12)

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
        assert n * binomial_mad_exact(n, p) == pytest.approx(closed, rel=1e-12)


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
        mads = math.fsum(binomial_mad_exact(n, float(p)) for p in pv.probs)
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


def mpmath_poisson_tv(lo, hi, digits=50):
    """Half the absolute pmf difference of Poisson(lo) and Poisson(hi),
    summed in mpmath far past both tails."""
    import mpmath
    with mpmath.workdps(digits):
        lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
        p_lo, p_hi = mpmath.exp(-lo), mpmath.exp(-hi)
        total = abs(p_lo - p_hi)
        for k in range(1, int(hi + 40 * math.sqrt(hi + 1)) + 60):
            p_lo, p_hi = p_lo * lo / k, p_hi * hi / k
            total += abs(p_lo - p_hi)
        return float(total / 2)


def mpmath_poisson_tv_cdf(lo, hi, digits=40):
    """TV of Poisson(lo) and Poisson(hi), lo < hi, as a regularized-gamma CDF
    difference: the pmfs cross once, at k* = floor((hi - lo) / ln(hi / lo)),
    so the TV is P_lo(X <= k*) - P_hi(X <= k*) = Q(k*+1, lo) - Q(k*+1, hi)."""
    import mpmath
    with mpmath.workdps(digits):
        lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
        k = int(mpmath.floor((hi - lo) / mpmath.log(hi / lo)))
        return float(mpmath.gammainc(k + 1, lo, hi, regularized=True))


class TestPoisson:
    @pytest.mark.parametrize("lo,hi", [(0.0, 1.0), (0.5, 2.0), (5.0, 6.0), (40.0, 90.0),
                                       (100.0, 100.5), (300.0, 320.0), (700.0, 760.0),
                                       (999.5, 1000.5), (1000.0, 1010.0), (1000.0, 1040.0)])
    def test_tv_matches_mpmath(self, lo, hi):
        assert poisson_tv_exact(lo, hi) == pytest.approx(
            mpmath_poisson_tv(lo, hi), rel=1e-14, abs=0)

    @pytest.mark.parametrize("lo,hi", [(1e4, 1.01e4), (1e6, 1.001e6)])
    def test_tv_matches_mpmath_at_large_rates(self, lo, hi):
        assert poisson_tv_exact(lo, hi) == pytest.approx(
            mpmath_poisson_tv_cdf(lo, hi), rel=1e-14, abs=0)

    def test_window_stays_near_the_rates(self, monkeypatch):
        # 20 deviations either side of the two rates: ~137,000 points, where
        # a window from 0 would hold ~1e7
        original = exact._outward

        def bounded(lo, hi, *args):
            if hi - lo + 1 > 200_000:
                raise AssertionError(f"window {lo}..{hi} holds {hi - lo + 1} points")
            return original(lo, hi, *args)

        monkeypatch.setattr(exact, "_outward", bounded)
        assert poisson_tv_exact(1e7, 1.001e7) == pytest.approx(
            mpmath_poisson_tv_cdf(1e7, 1.001e7), rel=1e-14, abs=0)

    @pytest.mark.parametrize("lam", [0.0, 1e-3, 1.0, 12.5, 300.0, 1040.0])
    def test_window_matches_scipy(self, lam):
        # the first window poisson_tv_exact takes at rates below 400, whose
        # tail beyond kmax is below 1e-15; scipy's own relative error reaches
        # 3e-12 at lam = 1040
        kmax = int(max(lam + 20.0 * math.sqrt(lam + 1.0), 50.0))
        pmf = _poisson_window(lam, 0, kmax)
        assert math.fsum(pmf.tolist()) == pytest.approx(1.0, abs=1e-15)
        ref = sp_poisson.pmf(np.arange(kmax + 1), lam)
        assert pmf == pytest.approx(ref, rel=1e-11, abs=1e-300)

    def test_tv_identical_rates(self):
        assert poisson_tv_exact(3.7, 3.7) == 0.0

    def test_tv_zero_vs_one(self):
        assert poisson_tv_exact(0.0, 1.0) == pytest.approx(
            1 - math.exp(-1), rel=1e-13)

    def test_tv_one_vs_two_frozen(self):
        # frozen from a 30-digit factorial-based summation
        tv = poisson_tv_exact(1.0, 2.0)
        assert tv == pytest.approx(0.329753032633046568, rel=1e-12)
        assert tv <= min(1 - math.exp(-1), math.sqrt(2 / math.e) * (math.sqrt(2) - 1))

    @pytest.mark.parametrize("lo,hi", [(0.5, 2.0), (4.0, 4.5), (40.0, 90.0)])
    def test_half_abs_equals_one_minus_min(self, lo, hi):
        kmax = int(hi + 25 * math.sqrt(hi + 1)) + 50
        pmf_lo = sp_poisson.pmf(np.arange(kmax), lo)
        pmf_hi = sp_poisson.pmf(np.arange(kmax), hi)
        other_form = 1.0 - np.minimum(pmf_lo, pmf_hi).sum()
        assert poisson_tv_exact(lo, hi) == pytest.approx(
            other_form, abs=1e-12)

    def test_tv_monotone_in_gap(self):
        base = 2.0
        values = [poisson_tv_exact(base, base + x)
                  for x in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestWindowDoubling:
    """A first window whose certified tail is over the tolerance is doubled
    until it is not, and the sum over the wider window agrees."""

    @staticmethod
    def _record(monkeypatch, module, name):
        built, original = [], getattr(module, name)

        def recording(*args):
            window = original(*args)
            built.append(window.size)
            return window

        monkeypatch.setattr(module, name, recording)
        return built

    @pytest.mark.parametrize("n, p", [(10**4, 0.3), (500, 0.5)])
    def test_binomial_window_widens_to_tolerance(self, monkeypatch, n, p):
        def term(ks):
            return np.abs(ks / n - p)

        built = self._record(monkeypatch, binomial, "_window_pmf")
        default = binomial_expectation(n, p, term)
        (first,) = built
        tight = binomial_expectation(n, p, term, tail_tol=1e-60)
        assert len(built) == 3 and built[1] == first and built[2] > first
        assert tight == pytest.approx(default, rel=1e-13)
        if (n, p) == (500, 0.5):
            nu = n // 2 + 1  # De Moivre's closed form, as in TestBinomialMad
            closed = 2 * nu * float(math.comb(n, nu)) * 0.5 ** (n + 1) / n
            assert tight == pytest.approx(closed, rel=1e-12)

    @pytest.mark.parametrize("lo,hi", [(3.0, 5.0), (100.0, 120.0), (1e4, 1.01e4)])
    def test_poisson_window_widens_to_tolerance(self, monkeypatch, lo, hi):
        built = self._record(monkeypatch, exact, "_poisson_window")
        monkeypatch.setattr(exact, "POISSON_TAIL_TOL", 1e-300)
        assert poisson_tv_exact(lo, hi) == pytest.approx(
            mpmath_poisson_tv(lo, hi), rel=1e-14, abs=0)
        assert max(built) > built[0]

    @pytest.mark.parametrize("call, names", [
        (lambda: binomial_mad_exact(2**53, 0.5), "n=9007199254740992 "),
        (lambda: poisson_tv_exact(0, 1e15), "rates lam_lo=0, lam_hi=1000000000000000.0 "),
        (lambda: bayes_risk_two_point(2, 1e15), r"n / S = 5e\+14 is too large: rates "),
        (lambda: assembled_minimax_lower_hd(3, 1e15, 1), r"n / S = 6.66667e\+14 is too large: "),
    ], ids=["binomial_mad_exact", "poisson_tv_exact", "bayes_risk_two_point",
            "assembled_minimax_lower_hd"])
    def test_window_past_the_ceiling_is_a_value_error(self, monkeypatch, call, names):
        # numpy was asked for 6.8 GiB to 7.11 PiB: a MemoryError, or without
        # an address-space limit the machine's memory; now nothing is built
        def unbuilt(lo, hi, *args):
            raise AssertionError(f"window {lo}..{hi} was built")

        monkeypatch.setattr(binomial, "_outward", unbuilt)
        monkeypatch.setattr(exact, "_outward", unbuilt)
        with pytest.raises(ValueError, match=f"^{names}.* exceeds 10,000,000 points$"):
            call()


class TestTruncationBudget:
    """The certified 1e-14 truncation budget covers the whole risk sum."""

    @pytest.mark.parametrize("fam,n", [
        (CompressedFamily(((1e-20, 10**19), (0.9, 1))), 1000),
        (CompressedFamily(((0.3 / 7, 7), (0.2 / 11, 11), (0.5, 1))), 100),
        (ProbabilityVector(np.random.default_rng(5).dirichlet(np.ones(40))), 10**5),
    ])
    def test_sum_of_scaled_tails_within_budget(self, monkeypatch, fam, n):
        seen = []
        original = exact.binomial_expectation

        def recording(n, p, term, term_bound=1.0, tail_tol=exact.TAIL_TOL, **kwargs):
            seen.append((p, tail_tol))
            return original(n, p, term, term_bound, tail_tol, **kwargs)

        monkeypatch.setattr(exact, "binomial_expectation", recording)
        estimator_risk_exact(fam, empirical_estimator(), n)
        mults = dict(exact._grouped_atoms(fam))
        assert len(seen) == len(mults)
        spent = math.fsum(mults[p] * tol for p, tol in seen)
        # up to the rounding of the division that splits the budget
        assert spent <= exact.TAIL_TOL * (1.0 + 1e-12)


def on_list_route(call):
    """call() with every pmf window built as a list, as when numpy is not loaded."""
    with mock.patch.object(binomial, "_numpy_loaded", lambda: False), \
            mock.patch.object(binomial, "_MAX_LIST_WINDOW", math.inf):
        assert isinstance(binomial._window_pmf(10, 0.3, 0, 10, 3), list)
        return call()


def on_both_routes(call):
    """call() with every pmf window built as a list, as when numpy is not
    loaded, then with every window an array: their results as .hex()."""
    listed = on_list_route(call)
    with mock.patch.object(binomial, "_MAX_LIST_WINDOW", -1):
        assert isinstance(binomial._window_pmf(10, 0.3, 0, 10, 3), np.ndarray)
        arrays = call()
    return listed.hex(), arrays.hex()


_SIZES = st.integers(0, 7).flatmap(lambda e: st.integers(1, 10**e))


@st.composite
def _families(draw):
    """1-3 atoms: weights in [0.01, 1] and multiplicities up to 1e6."""
    atoms = draw(st.lists(st.tuples(st.floats(0.01, 1.0), st.integers(1, 10**6)),
                          min_size=1, max_size=3))
    mass = math.fsum(w * m for w, m in atoms)
    return CompressedFamily(tuple((w / mass, m) for w, m in atoms))


class TestRoutes:
    """A window built as a list and one built as an array give every exact
    value the same bits: the same ratios in the same order, products in
    np.cumprod's order, and `_pairwise_sum` in `ndarray.sum()`'s."""

    @given(_families(), _SIZES, st.floats(1.01, 3.0))
    @example(entropy_ball_family(1.0, 0.05).family, 10**7, 1.1)
    @example(CompressedFamily(((0.5, 2),)), 10**7, 2.0)
    @example(CompressedFamily(((1.0, 1),)), 1, 1.5)
    @example(CompressedFamily(((0.0, 3), (1.0, 1))), 1000, 1.1)  # p = 0 and 1
    @settings(max_examples=40, deadline=None)
    def test_estimator_risk_exact(self, fam, n, eta):
        rules = [empirical_estimator()]
        if n >= 2:
            rules.append(threshold_estimator(ThresholdConfig(n, eta)))
        for rule in rules:
            listed, arrays = on_both_routes(lambda: estimator_risk_exact(fam, rule, n))
            assert listed == arrays, rule.name

    @given(_SIZES, st.floats(0.0, 1.0))
    @example(10**6, 0.37)
    @example(10**7, 1e-9)
    @example(5, 0.0)
    @example(5, 1.0)
    @settings(max_examples=40, deadline=None)
    def test_binomial_mad_exact(self, n, p):
        listed, arrays = on_both_routes(lambda: binomial_mad_exact(n, p))
        assert listed == arrays

    @given(st.floats(0.0, 1e4), st.floats(0.0, 100.0))
    @example(0.0, 1.0)
    @example(1e4, 100.0)
    @settings(max_examples=40, deadline=None)
    def test_poisson_tv_exact(self, lo, gap):
        listed, arrays = on_both_routes(lambda: poisson_tv_exact(lo, lo + gap))
        assert listed == arrays

    def test_term_on_arrays_alone_sums_a_list_window(self):
        # a custom fn, not a ThresholdRule, takes the window as an array
        oracle = CoordinatewiseEstimator("quarter", lambda ks, n: np.full(np.shape(ks), 0.25))
        fam = CompressedFamily(((0.25, 4),))
        listed, arrays = on_both_routes(lambda: estimator_risk_exact(fam, oracle, 1000))
        assert listed == arrays == (0.0).hex()

    @pytest.mark.parametrize("n", [100, 1000])
    def test_custom_rule_has_one_risk_on_both_routes(self, n):
        # the all-zero rule loses 0.25 at every count: its risk is the
        # window's pmf sum, within roundings of 1, and the same on both routes
        zero = CoordinatewiseEstimator("zero", lambda ks, n: np.zeros(np.shape(ks)))
        fam = CompressedFamily(((0.25, 4),))
        listed, arrays = on_both_routes(lambda: estimator_risk_exact(fam, zero, n))
        assert listed == arrays
        assert float.fromhex(listed) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("p", [0.0, 1.0])
    @pytest.mark.parametrize("n", [1, 7, 10**7])
    def test_all_the_mass_at_one_count(self, p, n):
        # at p = 0 or 1 the window is the one count 0 or n, on both routes
        k = 0 if p == 0.0 else n
        window = on_list_route(lambda: binomial._binomial_window(n, p, exact.TAIL_TOL))
        assert window == (k, [1.0], 0.0)
        fam = CompressedFamily(((p, 1), (1.0 - p, 1)))
        for fn, risk in ((ThresholdRule(0.0), 0.0), (ThresholdRule(math.inf), 1.0),
                         (lambda ks, n: np.full(np.shape(ks), 0.5), 1.0)):
            rule = CoordinatewiseEstimator("rule", fn)
            listed, arrays = on_both_routes(lambda: estimator_risk_exact(fam, rule, n))
            assert listed == arrays == risk.hex()


@pytest.mark.parametrize("est", [empirical_estimator(),
                                 threshold_estimator(ThresholdConfig(1000, 1.1))],
                         ids=["empirical", "threshold"])
def test_traced_estimators_keep_their_bits(est):
    # the benchmark's tracer rebuilds an estimator around a timed fn, which
    # takes arrays: its exact risk equals the list route's, its MC risk too
    traced = perfbench_spans().Tracer().wrap_estimator(est)
    assert traced.name == est.name
    fam = entropy_ball_family(1.0, 0.05).family
    assert estimator_risk_exact(fam, traced, 1000).hex() == \
        on_list_route(lambda: estimator_risk_exact(fam, est, 1000)).hex()
    assert mc_risk(fam, traced, 1000, McConfig(200, 3)) == mc_risk(fam, est, 1000, McConfig(200, 3))
