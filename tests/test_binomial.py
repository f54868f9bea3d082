import ast
import importlib
import inspect
import logging
import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln
from scipy.stats import binom as sp_binom

from l1minimax import (McConfig, ProbabilityVector, binomial_expectation, empirical_estimator,
                       mc_risk)
from l1minimax import binomial, exact, montecarlo, rng
from l1minimax.binomial import _lgamma_int, _pairwise_sum, _window_pmf
from l1minimax.rng import stream_key, uniforms
from conftest import perfbench_spans


# hooked by the benchmark but not defined since the block kernel became
# `_block_runs`; the change that re-points the hook updates this test
_ABSENT_HOOKS = {("l1minimax.montecarlo", "_block_cells")}


def test_benchmark_hooks_stay_bound():
    # perfbench/spans.py hooks these attributes by module and name, and
    # patches every module bound to the same function
    assert exact._window_pmf is binomial._window_pmf
    assert montecarlo._binomial_inverse is binomial._binomial_inverse
    spans = perfbench_spans()
    hooks = {(module, attr) for module, attr, _, _ in spans.HOOKS}
    hooks |= {("l1minimax.estimators", attr) for attr in spans.ESTIMATOR_FACTORIES}
    for module, attr in sorted(hooks):
        bound = hasattr(importlib.import_module(module), attr)
        assert bound == ((module, attr) not in _ABSENT_HOOKS), f"{module}.{attr}"


def test_stream_range_is_the_one_of_rng():
    # `binomial` holds the range of `rng.uniforms` itself, as `rng` loads numpy
    assert (binomial._UNIFORM_MIN, binomial._UNIFORM_MAX) == (rng.UNIFORM_MIN, rng.UNIFORM_MAX)


_MOVED = ("_lgamma_int", "_LOG_TINY", "_LS2PI", "_LGAM_A", "_outward", "_geometric_tail",
          "_window_pmf", "_binomial_window", "_GUARD", "_UNIT", "_TINY", "_TABLE_TAIL",
          "_MIN_TABLE_DRAWS", "_MAX_TABLE_BUDGET", "_MIN_WALK_WORK", "_binomial_guess",
          "_anchors", "_unresolved", "_table", "_walk", "_boost_draws", "_binomial_inverse")


@pytest.mark.parametrize("module", [exact, montecarlo], ids=["exact", "montecarlo"])
def test_binomial_numerics_are_defined_in_binomial(module):
    # the other modules may import a function from `binomial`, never define
    # one of its names or hold its constants; montecarlo reads nothing of exact
    for name in _MOVED:
        assert hasattr(binomial, name), name
        if hasattr(module, name):
            assert getattr(getattr(module, name), "__module__", None) == "l1minimax.binomial", name
    if module is montecarlo:
        imports = ast.walk(ast.parse(inspect.getsource(montecarlo)))
        assert not any(isinstance(node, ast.ImportFrom) and node.module == "exact"
                       for node in imports)


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


class TestPairwiseSum:
    """`_pairwise_sum` adds a list in the order `ndarray.sum()` adds a
    contiguous float64 array, so list and array windows sum to the same bits."""

    def test_equals_ndarray_sum_for_lengths_to_40000(self):
        gen = np.random.default_rng(20140606)
        lengths = list(range(1100)) + gen.integers(1100, 40_001, 60).tolist() + [40_000]
        for i, size in enumerate(lengths):
            # signed, spread over 26 decades, and heavy-tailed values in turn
            values = (gen.standard_normal(size), gen.random(size) * np.exp(gen.uniform(-30, 30, size)),
                      gen.standard_cauchy(size))[i % 3]
            assert _pairwise_sum(values.tolist()).hex() == float(values.sum()).hex(), size

    def test_sums_a_slice(self):
        values = [float(k) * 0.1 for k in range(300)]
        assert _pairwise_sum(values, 17, 290) == float(np.array(values[17:290]).sum())


class TestBinomialKernel:
    """`_binomial_inverse` against the public scipy.stats.binom.ppf (clipped
    and cast as the sampler did before), bit for bit, so a scipy release
    that moves the private kernel fails here before it moves any MC number.
    The q = 1e-12 and 1 - 1e-12 rows are calls too small to walk (draws x
    log1p(mean) <= _MIN_WALK_WORK) and go to boost's quantile whole; only
    the moderate-q rows reach the walk, which `TestBinomialWalk` forces on
    at every q."""

    def test_matches_public_ppf(self):
        budgets = np.unique(np.concatenate(
            [[0, 1], np.rint(np.logspace(0.3, 7.0, 36))])).astype(np.int64)
        # boost's cost grows with the budget: fewer draws at the large ones
        per_budget = np.where(budgets < 10_000, 1000, 100)
        b = np.repeat(budgets, per_budget)
        starts = np.cumsum(per_budget) - per_budget
        key = stream_key(2024)
        qs = [1e-12, 1e-3, 0.02, 0.3, 0.5, 0.97, 1.0 - 1e-12] + uniforms(key, 0, 3).tolist()
        draws = 0
        for i, q in enumerate(qs):
            u = uniforms(key, 3 + i * b.size, b.size)
            # extremes of `uniforms` at every budget: 0.5 * 2^-53, and
            # 1 - 2^-54, which rounds to 1.0
            u[starts] = 2.0 ** -54
            u[starts + 1] = 1.0 - 2.0 ** -54
            want = np.clip(sp_binom.ppf(u, b, q), 0, b).astype(np.int64)
            got = binomial._binomial_inverse(u, b, q)
            assert np.array_equal(got, want), q
            draws += u.size
        assert draws >= 200_000


def _boost_quantile(u, budgets, q):
    """Boost's quantile, clipped as `_binomial_inverse` clips it: the
    definition of a draw."""
    from scipy.special._ufuncs import _binom_ppf
    return np.clip(_binom_ppf(u, budgets, q), 0, budgets).astype(np.int64)


_BUDGETS = st.one_of(st.integers(0, 60), st.integers(0, 10**4), st.integers(0, 10**7),
                     st.integers(0, 10**12))
_QS = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@st.composite
def _uniforms_on_cdf_steps(draw, budgets=st.lists(_BUDGETS, min_size=1, max_size=3), qs=_QS):
    """q across (0, 1), one to three budgets up to 1e12, and u exactly on
    boost's CDF steps C(k) and 1 ulp to either side, within [2^-54, 1]:
    every k of a small budget, a window of k anywhere from the far lower
    to the far upper tail of a large one."""
    from scipy.special._ufuncs import _binom_cdf
    q = draw(qs)
    budgets = draw(budgets)
    b_all, k_all = [], []
    for b in budgets:
        if b <= 60:
            ks = np.arange(b + 1)
        else:
            z = draw(st.floats(-9.0, 9.0))
            centre = round(b * q + z * math.sqrt(b * q * (1.0 - q)))
            ks = np.clip(np.arange(centre - 10, centre + 11), 0, b)
        b_all.append(np.full(ks.size, b))
        k_all.append(ks)
    b_all, k_all = np.concatenate(b_all), np.concatenate(k_all)
    steps = _binom_cdf(k_all, b_all, q)
    u = np.concatenate([steps, np.nextafter(steps, 0.0), np.nextafter(steps, 2.0)])
    budgets = np.tile(b_all, 3)
    keep = (u >= 2.0 ** -54) & (u <= 1.0)
    return u[keep], budgets[keep].astype(np.int64), q


class TestBinomialWalk:
    """The walk of `_binomial_inverse`, which accepts or rejects each draw at
    its guess, against boost's quantile, bit for bit, with the walk taken
    for every call with a positive budget and unequal budgets."""

    # offset 50: guesses 50 steps off, so that nearly every draw the walk
    # sees is off its guess and must reach boost
    @given(_uniforms_on_cdf_steps(), st.sampled_from([0, 50]))
    @settings(max_examples=150, deadline=None)
    def test_uniforms_on_cdf_steps_match_boost(self, case, offset):
        u, budgets, q = case
        # draws at two more budgets keep the call off the table route
        u = np.append(u, [0.5, 0.5])
        budgets = np.append(budgets, [0, budgets.max(initial=0) + 1])
        guess, walk = binomial._binomial_guess, binomial._walk
        walked = []
        with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
            # boost's search warns of itself at some extreme q; nothing else may
            warnings.simplefilter("error")
            warnings.filterwarnings("ignore", "Error in function boost::", RuntimeWarning)
            want = _boost_quantile(u, budgets, q)
            mp.setattr(binomial, "_MIN_WALK_WORK", 0.0)
            mp.setattr(binomial, "_walk", lambda *a: walked.append(walk(*a)) or walked[0])
            if offset:
                mp.setattr(binomial, "_binomial_guess", lambda x, b, p: guess(x, b, p)
                           + np.resize([-offset, offset, 3 - offset, offset - 7], x.shape))
            got = binomial._binomial_inverse(u, budgets, q)
        assert np.array_equal(got, want)
        [(draws, unresolved)] = walked
        assert unresolved[draws != want].all()

    def test_unresolved_draws_alone_reach_boost(self, monkeypatch):
        # Guesses 50 steps off: only draws whose clipped guess is boost's
        # draw resolve; the rest, u = 1 and budget 0 go to boost, draw by
        # draw, without a warning.
        from scipy.special import _ufuncs
        m, q = 3000, 0.3
        u = uniforms(stream_key(77), 0, m)
        u[7] = 1.0
        budgets = np.resize(np.arange(0, 20, dtype=np.int64), m)
        want = _boost_quantile(u, budgets, q)
        offsets = np.resize([-50, 50], m)
        start = np.clip(binomial._binomial_guess(np.where(u < 1.0, u, 0.5), budgets, q)
                        + offsets, 0, budgets)
        unresolved = (want != start) | (budgets == 0) | (u == 1.0)
        assert 100 < unresolved.sum() < m - 100
        guess = binomial._binomial_guess
        monkeypatch.setattr(binomial, "_MIN_WALK_WORK", 0.0)
        monkeypatch.setattr(binomial, "_binomial_guess",
                            lambda x, b, p: guess(x, b, p) + offsets)
        sent = []
        ppf = _ufuncs._binom_ppf

        def counting_ppf(x, b, p):
            sent.append(np.array(x))
            return ppf(x, b, p)

        monkeypatch.setattr(_ufuncs, "_binom_ppf", counting_ppf)
        tally = Counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = binomial._binomial_inverse(u, budgets, q, tally)
        assert np.array_equal(got, want)
        assert len(sent) == 1 and np.array_equal(sent[0], u[unresolved])
        assert tally == {"walked": m - unresolved.sum(), "fallback": unresolved.sum()}

    def test_mc_risk_logs_draw_routes(self, caplog):
        # two chain steps of 300 draws each: the first, at budget n in every
        # replicate, from a table; the second walked at n = 1000, too small
        # to walk at n = 5
        pv = ProbabilityVector([0.2, 0.3, 0.5])
        for n, walk in ((1000, True), (5, False)):
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="l1minimax"):
                mc_risk(pv, empirical_estimator(), n, McConfig(300, 4))
            records = [r for r in caplog.records if r.name == "l1minimax.montecarlo"]
            assert len(records) == 1
            table, walked, fallback, small = records[0].args
            assert table + walked + fallback + small == 600
            assert table > 0 and (walked > 0) == walk and small == (0 if walk else 300)


@st.composite
def _single_budget_cases(draw):
    """One budget up to 1e12, q across (0, 1) with its extremes, and u on
    boost's CDF steps and 1 ulp to either side (`_uniforms_on_cdf_steps`)."""
    n = draw(_BUDGETS)
    qs = st.one_of(_QS, st.sampled_from([1e-300, 1.0 - 2.0**-53]))
    u, _, q = draw(_uniforms_on_cdf_steps(st.just([n]), qs))
    return u, n, q


class TestBinomialTable:
    """The table route of `_binomial_inverse`, taken by every call of
    _MIN_TABLE_DRAWS or more draws whose budgets are all equal and at most
    _MAX_TABLE_BUDGET, against boost's quantile, bit for bit; such calls
    at larger budgets take the other routes."""

    @given(_single_budget_cases(), st.integers(0, 2**64 - 1))
    @settings(max_examples=150, deadline=None)
    def test_uniforms_on_cdf_steps_match_boost(self, case, seed):
        u, n, q = case
        # boost's shortcut to 0 at (1 - q)^n and 1 ulp to either side, the
        # extremes of `uniforms`, 2^-54 and 1.0, and draws off the steps
        zero = (1.0 - q) ** n
        u = np.concatenate([u, [zero, np.nextafter(zero, 0.0), np.nextafter(zero, 2.0)]])
        u = np.concatenate([u[(u >= 2.0**-54) & (u <= 1.0)], [2.0**-54, 1.0],
                            uniforms(stream_key(seed), 0, 200)])
        budgets = np.full(u.size, n, dtype=np.int64)
        tally = Counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            warnings.filterwarnings("ignore", "Error in function boost::", RuntimeWarning)
            want = _boost_quantile(u, budgets, q)
            got = binomial._binomial_inverse(u, budgets, q, tally)
        assert np.array_equal(got, want)
        assert sum(tally.values()) == u.size
        assert (set(tally) - {"fallback"} == {"table"}) == (n <= binomial._MAX_TABLE_BUDGET)

    @pytest.mark.parametrize("b", [2, 5, 17, 60, 150, 300])
    def test_uniforms_near_table_cdf_match_boost(self, monkeypatch, b):
        """u 1 to 40 b ulps to either side of the table's own CDF values,
        where the table's error bound `err` is wider than the band's budget
        share, with _GUARD at 0: every draw `_table` resolves is boost's
        quantile."""
        monkeypatch.setattr(binomial, "_GUARD", 0.0)
        ulps = np.unique(np.geomspace(1, 40 * b, 30).round().astype(np.int64))
        ulps = np.concatenate([ulps, -ulps])
        draws = resolved = 0
        for q in (1e-3, 0.05, 0.3, 0.5, 0.77, 0.999):
            _, pmf, _ = binomial._binomial_window(b, q, binomial._TABLE_TAIL)
            cdf = np.cumsum(pmf / pmf.sum())
            u = (cdf.view(np.int64)[:, None] + ulps).ravel().view(np.float64)
            u = u[(u >= rng.UNIFORM_MIN) & (u < 1.0)]
            budgets = np.full(u.size, b, dtype=np.int64)
            got, unresolved = binomial._table(u, budgets, q)
            want = _boost_quantile(u, budgets, q)
            assert np.array_equal(got[~unresolved], want[~unresolved]), q
            draws += u.size
            resolved += u.size - unresolved.sum()
        assert resolved > draws // 50  # the widest offsets clear the whole band


@pytest.mark.parametrize("route", ["_table", "_walk"])
class TestLargeBudgets:
    """Each route, called directly, against boost's quantile at budgets
    where boost's CDF stands up to b/2 roundings off the true one."""

    @staticmethod
    def _draws(route, u, b, q):
        budgets = np.full(u.size, b, dtype=np.int64)
        want = _boost_quantile(u, budgets, q)
        got, unresolved = getattr(binomial, route)(u, budgets, q)
        return np.where(unresolved, want, got), want

    @pytest.mark.parametrize("b, q", [(10**9, 1e-9), (10**12, 1e-12)])
    def test_uniforms_between_pow_and_cdf0_match_boost(self, route, b, q):
        # boost answers 0 outright for u <= (1 - q)^b by pow, which stands
        # ~b/4 roundings off its C(0) here
        from scipy.special._ufuncs import _binom_cdf
        zero, c0 = (1.0 - q) ** b, _binom_cdf(0, b, q)
        assert abs(zero - c0) > 1e-8 * c0
        got, want = self._draws(route, np.linspace(min(zero, c0), max(zero, c0), 64), b, q)
        assert np.array_equal(got, want)

    # boost's C(1) at (1e9, 3e-9) is 2.6e-8 relative below the true C(1);
    # at (1739006029, 9.235479502160027e-9) its C(15) is 1.7e-8 relative
    # above its C(16) - pmf(16)
    @pytest.mark.parametrize("b, q", [(10**9, 3e-9), (1739006029, 9.235479502160027e-9)])
    def test_uniforms_on_cdf_steps_match_boost(self, route, b, q):
        from scipy.special._ufuncs import _binom_cdf
        ks = np.arange(max(0, round(b * q) - 40), round(b * q) + 41)
        steps = _binom_cdf(ks, np.full(ks.size, b), q)
        u = np.concatenate([steps, np.nextafter(steps, 0.0), np.nextafter(steps, 2.0)])
        got, want = self._draws(route, u[(u >= 2.0**-54) & (u <= 1.0)], b, q)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("guard", [binomial._GUARD, 0.0])
@pytest.mark.parametrize("route", ["_table", "_walk"])
def test_uniforms_near_cdf_steps_match_boost(monkeypatch, route, guard):
    """Each route, called directly, with u at a relative 1e-10 to 1e-15 to
    either side of boost's CDF steps at budgets 2 to 1e4: every draw it
    resolves is boost's quantile.  This holds with _GUARD at 0 too, where
    many of these draws resolve, because the rest of `_unresolved`'s band
    keeps the draws that could differ unresolved: no known input needs the
    guard, which stays as a margin."""
    from scipy.special._ufuncs import _binom_cdf
    monkeypatch.setattr(binomial, "_GUARD", guard)
    rel = np.array([1e-10, 3e-11, 1e-11, 3e-12, 1e-12, 3e-13, 1e-14, 1e-15])
    rel = np.concatenate([1.0 + rel, 1.0 - rel])
    draws = resolved = 0
    for b in (2, 7, 60, 500, 3000, 10**4):
        for q in (1e-3, 0.05, 0.3, 0.5, 0.77, 0.999):
            mean = round(b * q)
            ks = np.arange(max(0, mean - 60), min(b, mean + 60) + 1)
            u = (_binom_cdf(ks, np.full(ks.size, b), q)[:, None] * rel).ravel()
            u = u[(u >= 2.0 ** -54) & (u < 1.0)]
            budgets = np.full(u.size, b, dtype=np.int64)
            got, unresolved = getattr(binomial, route)(u, budgets, q)
            want = _boost_quantile(u, budgets, q)
            assert np.array_equal(got[~unresolved], want[~unresolved]), (b, q)
            draws += u.size
            resolved += u.size - unresolved.sum()
    assert draws > 20_000
    # the guard alone leaves all of them to boost
    assert resolved > draws // 4 if guard == 0.0 else resolved == 0
