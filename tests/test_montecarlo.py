import logging
import math
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom as sp_binom

from l1minimax import (CompressedFamily, CoordinatewiseEstimator, McConfig,
                       ProbabilityVector, ThresholdConfig, derive_replicate_seed,
                       empirical_estimator, entropy_ball_family,
                       estimator_risk_exact, mc_risk, sample_multinomial,
                       threshold_estimator)
from l1minimax import montecarlo, rng
from l1minimax.rng import derive_key, stream_key, uniforms

from conftest import expand, per_replicate_compressed_losses


class TestRngStream:
    def test_uniforms_deterministic_and_open(self):
        key = stream_key(42)
        a = uniforms(key, 0, 1000)
        b = uniforms(key, 0, 1000)
        assert np.array_equal(a, b)
        assert np.all((a > 0.0) & (a < 1.0))

    def test_stream_offsets_are_consistent(self):
        key = stream_key(7)
        whole = uniforms(key, 0, 20)
        assert np.array_equal(whole[5:12], uniforms(key, 5, 7))

    def test_derived_keys_match_derived_seeds(self):
        keys = derive_key(99, np.arange(8))
        for r in range(8):
            assert keys[r] == stream_key(derive_replicate_seed(99, r))

    def test_per_row_starts(self):
        keys = derive_key(5, np.arange(9))
        count = 40
        # equal starts, a spread crossing counter-hash pages, and a spread
        # wider than the page cache
        for starts in ([3] * 9, [0, 1, 7, 8150, 8191, 8192, 8200, 20000, 3],
                       [0, 5, 300_000, 17, 40, 99, 1, 2, 3]):
            starts = np.array(starts, dtype=np.int64)
            got = uniforms(keys, starts, count)
            assert got.shape == (9, count)
            for r in range(9):
                assert np.array_equal(got[r], uniforms(keys[r], int(starts[r]), count))

    def test_counter_pages_match_direct_hashing(self):
        key = stream_key(11)
        page = rng._PAGE
        cases = [(0, 1), (page - 3, 7), (page, page), (5, 3 * page + 1),
                 (2 * page - 1, 20 * page)]
        for cold in (True, False):
            if cold:
                rng._counter_page.cache_clear()
            for start, count in cases:
                assert np.array_equal(rng._hashed_offsets(start, count),
                                      rng._counter_hashes(start, count))
                assert np.array_equal(uniforms(key, start, count),
                                      uniforms(key, 0, start + count)[start:])

    def test_uniform_moments(self):
        u = uniforms(stream_key(3), 0, 200_000)
        assert abs(u.mean() - 0.5) < 0.005
        assert abs(u.std() - math.sqrt(1 / 12)) < 0.005


class TestSampleMultinomial:
    def test_point_mass(self):
        h = sample_multinomial(ProbabilityVector([0.0, 1.0, 0.0]), 50, seed=1)
        assert h.counts.tolist() == [0, 50, 0]

    def test_single_draw(self):
        h = sample_multinomial(ProbabilityVector([0.3, 0.7]), 1, seed=5)
        assert sorted(h.counts.tolist()) == [0, 1]

    @given(st.integers(0, 2**32), st.integers(1, 60))
    @settings(max_examples=50, deadline=None)
    def test_counts_sum_to_n(self, seed, n):
        pv = ProbabilityVector([0.1, 0.2, 0.3, 0.4])
        h = sample_multinomial(pv, n, seed)
        assert int(h.counts.sum()) == n
        assert np.all(h.counts >= 0)

    def test_compressed_and_dense_agree_in_distribution(self):
        fam = CompressedFamily(((0.25, 2), (0.5, 1)))
        n = 30
        totals = np.zeros(3)
        reps = 2000
        for seed in range(reps):
            totals += sample_multinomial(fam, n, seed).counts
        freq = totals / (reps * n)
        assert np.allclose(freq, [0.25, 0.25, 0.5], atol=0.01)

    def test_marginal_mean_matches(self):
        # frequency of the first cell over many replicates concentrates at p
        reps, n = 10_000, 10_000
        keys = derive_key(2024, np.arange(reps))
        counts = montecarlo._conditional_chain(keys, [0.5, 0.5], n)
        mean = counts[:, 0].mean() / n
        se = 0.5 / math.sqrt(reps * n)
        assert abs(mean - 0.5) <= 4 * se

    def test_huge_compressed_support_rejected(self):
        fam = CompressedFamily(((1e-9, 10**9),))
        with pytest.raises(ValueError, match="mc_risk"):
            sample_multinomial(fam, 5, seed=0)


class TestMcRisk:
    def test_perfect_oracle(self):
        pv = ProbabilityVector([0.25] * 4)
        oracle = CoordinatewiseEstimator(
            "oracle", lambda ks, n: np.full(np.shape(ks), 0.25))
        out = mc_risk(pv, oracle, 10, McConfig(200, 0))
        assert out.mean == 0.0
        assert out.std_error == 0.0

    def test_ci_contains_exact_uniform(self):
        pv = ProbabilityVector([0.5, 0.5])
        out = mc_risk(pv, empirical_estimator(), 4, McConfig(100_000, 7))
        assert out.ci_lo <= 0.375 <= out.ci_hi
        assert out.ci_lo <= out.mean <= out.ci_hi

    def test_ci_contains_exact_entropy_ball(self):
        fam = entropy_ball_family(1.0, 0.5 / math.log(1000)).family
        exact = estimator_risk_exact(fam, empirical_estimator(), 1000)
        out = mc_risk(fam, empirical_estimator(), 1000, McConfig(10_000, 11))
        assert out.ci_lo <= exact <= out.ci_hi

    def test_bitwise_deterministic(self):
        fam = CompressedFamily(((0.05, 10), (0.5, 1)))
        a = mc_risk(fam, empirical_estimator(), 40, McConfig(500, 3))
        b = mc_risk(fam, empirical_estimator(), 40, McConfig(500, 3))
        assert a == b

    def test_chunking_does_not_change_results(self, monkeypatch):
        pv = ProbabilityVector([0.2, 0.3, 0.5])
        baseline = mc_risk(pv, empirical_estimator(), 25, McConfig(400, 9))
        monkeypatch.setattr(montecarlo, "_CHUNK_CELLS", 7)
        chunked = mc_risk(pv, empirical_estimator(), 25, McConfig(400, 9))
        assert baseline == chunked

    def test_replicates_reproducible_in_isolation_dense(self):
        pv = ProbabilityVector([0.2, 0.8])
        n, master, reps = 12, 31337, 150
        out = mc_risk(pv, empirical_estimator(), n, McConfig(reps, master))
        losses = []
        for r in range(reps):
            h = sample_multinomial(pv, n, derive_replicate_seed(master, r))
            est = empirical_estimator()(h.counts, n)
            losses.append(float(np.abs(est - pv.probs).sum()))
        mean = float(np.asarray(losses).sum() / reps)
        assert mean == out.mean

    def test_replicates_reproducible_in_isolation_compressed(self):
        fam = CompressedFamily(((0.02, 20), (0.6, 1)))
        n, master, reps = 30, 555, 120
        out = mc_risk(fam, empirical_estimator(), n, McConfig(reps, master))
        expanded = expand(fam)
        losses = []
        for r in range(reps):
            h = sample_multinomial(fam, n, derive_replicate_seed(master, r))
            est = empirical_estimator()(h.counts, n)
            losses.append(float(np.abs(est - expanded.probs).sum()))
        mean = float(np.asarray(losses).sum() / reps)
        assert mean == out.mean

    def test_replicate_floor_enforced(self):
        with pytest.raises(ValueError, match="100"):
            McConfig(99, 0)

    def test_coverage_over_seeds(self):
        # |mc mean - exact| within z standard errors for nearly all seeds
        pv = ProbabilityVector([0.5, 0.5])
        exact = estimator_risk_exact(pv, empirical_estimator(), 10)
        hits = sum(
            1 for seed in range(100)
            if (lambda e: e.ci_lo <= exact <= e.ci_hi)(
                mc_risk(pv, empirical_estimator(), 10, McConfig(1000, seed))))
        assert hits >= 99


def _compressed_families(draw):
    """1-4 atoms; multiplicities 1, small, up to 2^53; masses spanning four
    decades (so some blocks draw nothing) and zero-valued atoms."""
    count = draw(st.integers(1, 4))
    mults = draw(st.lists(st.one_of(st.just(1), st.integers(2, 60), st.integers(2, 2**53),
                                    st.just(2**53)), min_size=count, max_size=count))
    weights = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-4, 1.0)),
                            min_size=count, max_size=count).filter(lambda w: sum(w) > 0))
    total = sum(weights)
    return CompressedFamily(tuple((w / total / m, m) for w, m in zip(weights, mults)))


class TestBatchedCompressedLosses:
    """The batched kernel against the per-replicate loop it replaced
    (`conftest.per_replicate_compressed_losses`), bit for bit."""

    @given(st.composite(_compressed_families)(), st.integers(1, 3000),
           st.integers(100, 160), st.integers(0, 2**64 - 1), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_matches_per_replicate_loop(self, fam, n, reps, master, threshold):
        if threshold and n >= 2:
            estimator = threshold_estimator(ThresholdConfig(n, 1.1))
        else:
            estimator = empirical_estimator()
        keys = derive_key(master, np.arange(reps, dtype=np.uint64))
        want = per_replicate_compressed_losses(keys, fam, estimator, n)
        assert np.array_equal(montecarlo._compressed_losses(keys, fam, estimator, n), want)
        for chunk in (1, 7):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(montecarlo, "_CHUNK_DRAWS", chunk)
                got = montecarlo._compressed_losses(keys, fam, estimator, n)
            assert np.array_equal(got, want), chunk

    def test_chunking_does_not_change_results(self, monkeypatch):
        fam = CompressedFamily(((0.004, 100), (0.1, 3), (0.3, 1)))
        baseline = mc_risk(fam, empirical_estimator(), 300, McConfig(400, 9))
        for chunk in (1, 7):
            monkeypatch.setattr(montecarlo, "_CHUNK_DRAWS", chunk)
            assert mc_risk(fam, empirical_estimator(), 300, McConfig(400, 9)) == baseline

    def test_row_batching_does_not_change_results(self, monkeypatch):
        # _CHUNK_CELLS // 3 atoms = 0 and 2 rows per batch split block atoms
        # across row batches, each with its own stream positions
        fam = CompressedFamily(((0.004, 100), (0.1, 3), (0.3, 1)))
        estimator = empirical_estimator()
        keys = derive_key(9, np.arange(400, dtype=np.uint64))
        want = per_replicate_compressed_losses(keys, fam, estimator, 300)
        baseline = mc_risk(fam, estimator, 300, McConfig(400, 9))
        for cells in (1, 7):
            monkeypatch.setattr(montecarlo, "_CHUNK_CELLS", cells)
            assert np.array_equal(montecarlo._compressed_losses(keys, fam, estimator, 300),
                                  want), cells
            assert mc_risk(fam, estimator, 300, McConfig(400, 9)) == baseline

    @pytest.mark.parametrize("mult", [2, 30, 2**53])
    def test_top_draw_is_counted_not_padding(self, monkeypatch, mult):
        # Every block draw is 1.0, the stream's top value: it must land in
        # cell mult - 1, next to the padding sentinel `mult`, and be counted.
        fam = CompressedFamily(((0.4 / mult, mult), (0.3, 1), (0.3 / 7, 7)))
        n, keys = 40, derive_key(21, np.arange(300, dtype=np.uint64))
        stream = montecarlo.uniforms

        def top(key, start, count):
            if np.all(np.asarray(start) == 0):  # the conditional chain
                return stream(key, start, count)
            return np.ones(np.shape(key) + (count,))

        monkeypatch.setattr(montecarlo, "uniforms", top)
        totals = montecarlo._conditional_chain(keys, [v * m for v, m in fam.atoms], n)[:, 0]
        assert totals.min() < totals.max()  # rows of one batch are padded
        loss = np.arange(totals.max() + 1) / n
        for chunk in (montecarlo._CHUNK_DRAWS, 1, 7):
            monkeypatch.setattr(montecarlo, "_CHUNK_DRAWS", chunk)
            occupied, sums = montecarlo._block_losses(
                keys, np.full(keys.size, 2), totals, mult, loss)
            assert np.array_equal(occupied, (totals > 0).astype(np.int64))
            assert np.array_equal(sums, np.where(totals > 0, loss[totals], 0.0))
        estimator = empirical_estimator()
        assert np.array_equal(montecarlo._compressed_losses(keys, fam, estimator, n),
                              per_replicate_compressed_losses(keys, fam, estimator, n))
        if mult < 2**53:  # a 2^53-cell block has no dense histogram to sample into
            blocks = np.array([sample_multinomial(fam, n, derive_replicate_seed(21, r))
                               .counts[:mult] for r in range(keys.size)])
            assert np.array_equal(blocks, np.eye(mult, dtype=np.int64)[-1] * totals[:, None])

    def test_memory_stays_bounded(self):
        # One batch holds at most _CHUNK_DRAWS padded draws; holding every
        # replicate's draws at once would need about 20 MB here.
        fam = entropy_ball_family(1.0, 0.7 / math.log(100_000)).family
        mc_risk(fam, empirical_estimator(), 100_000, McConfig(100, 0))  # imports, pages
        tracemalloc.start()
        try:
            mc_risk(fam, empirical_estimator(), 100_000, McConfig(400, 1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000, peak


class TestDenseVectorsAsAtoms:
    """A ProbabilityVector is the atoms (p_i, 1): it draws what the matching
    all-multiplicity-1 family draws, and its loss is accumulated coordinate
    by coordinate in index order."""

    # numpy's row sum and index-order accumulation part from 8 terms on;
    # n = 1e3 zeroes most thresholded estimates, n = 1e5 keeps most of them
    @pytest.mark.parametrize("threshold", [False, True], ids=["empirical", "threshold"])
    @pytest.mark.parametrize("kind", ["uniform", "dirichlet"])
    @pytest.mark.parametrize("S", [10, 50])
    @pytest.mark.parametrize("n", [1000, 100_000])
    def test_matches_independent_recomputation(self, n, S, kind, threshold):
        if kind == "uniform":
            pv = ProbabilityVector.uniform(S)
        else:
            pv = ProbabilityVector(np.random.default_rng(S).dirichlet(np.ones(S)))
        master, reps = 4242 + S, 120
        estimator = (threshold_estimator(ThresholdConfig(n, 1.1)) if threshold
                     else empirical_estimator())
        atoms = CompressedFamily(tuple((v, 1) for v in pv.probs.tolist()))
        out = mc_risk(pv, estimator, n, McConfig(reps, master))
        losses = []
        for r in range(reps):
            seed = derive_replicate_seed(master, r)
            h = sample_multinomial(pv, n, seed)
            assert h.counts.tolist() == sample_multinomial(atoms, n, seed).counts.tolist()
            est = estimator(h.counts, n)
            loss = 0.0
            for i in range(S):
                loss += abs(float(est[i]) - float(pv.probs[i]))
            losses.append(loss)
        assert float(np.asarray(losses).sum() / reps) == out.mean
        keys = derive_key(master, np.arange(reps, dtype=np.uint64))
        assert montecarlo._compressed_losses(keys, pv, estimator, n).tolist() == losses


class TestGoldenBits:
    """Fixed-seed outputs pinned bit for bit.

    The determinism contract promises the same numbers across runs and
    platforms; these values make a change of sampler (or of the library
    behind the Binomial inversion) visible instead of silent.
    """

    def test_dense_mc_mean(self):
        pv = ProbabilityVector([0.2, 0.3, 0.5])
        out = mc_risk(pv, empirical_estimator(), 100, McConfig(1000, 11))
        assert out.mean.hex() == "0x1.b97785729b283p-4"

    def test_entropy_ball_mc_mean(self):
        fam = entropy_ball_family(1.0, 0.5 / math.log(1000)).family
        out = mc_risk(fam, empirical_estimator(), 1000, McConfig(200, 5))
        assert out.mean.hex() == "0x1.3735e981139dap-3"

    def test_dense_sample(self):
        pv = ProbabilityVector([0.1, 0.15, 0.2, 0.25, 0.3])
        h = sample_multinomial(pv, 50, seed=11)
        assert h.counts.tolist() == [6, 7, 4, 21, 12]

    def test_compressed_sample(self):
        fam = CompressedFamily(((0.05, 10), (0.5, 1)))
        h = sample_multinomial(fam, 40, seed=3)
        assert h.counts.tolist() == [1, 1, 2, 1, 2, 1, 2, 1, 2, 1, 26]


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
            got = montecarlo._binomial_inverse(u, b, q)
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
        guess, walk = montecarlo._binomial_guess, montecarlo._walk
        walked = []
        with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
            # boost's search warns of itself at some extreme q; nothing else may
            warnings.simplefilter("error")
            warnings.filterwarnings("ignore", "Error in function boost::", RuntimeWarning)
            want = _boost_quantile(u, budgets, q)
            mp.setattr(montecarlo, "_MIN_WALK_WORK", 0.0)
            mp.setattr(montecarlo, "_walk", lambda *a: walked.append(walk(*a)) or walked[0])
            if offset:
                mp.setattr(montecarlo, "_binomial_guess", lambda x, b, p: guess(x, b, p)
                           + np.resize([-offset, offset, 3 - offset, offset - 7], x.shape))
            got = montecarlo._binomial_inverse(u, budgets, q)
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
        start = np.clip(montecarlo._binomial_guess(np.where(u < 1.0, u, 0.5), budgets, q)
                        + offsets, 0, budgets)
        unresolved = (want != start) | (budgets == 0) | (u == 1.0)
        assert 100 < unresolved.sum() < m - 100
        guess = montecarlo._binomial_guess
        monkeypatch.setattr(montecarlo, "_MIN_WALK_WORK", 0.0)
        monkeypatch.setattr(montecarlo, "_binomial_guess",
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
            got = montecarlo._binomial_inverse(u, budgets, q, tally)
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
            got = montecarlo._binomial_inverse(u, budgets, q, tally)
        assert np.array_equal(got, want)
        assert sum(tally.values()) == u.size
        assert (set(tally) - {"fallback"} == {"table"}) == (n <= montecarlo._MAX_TABLE_BUDGET)


@pytest.mark.parametrize("route", ["_table", "_walk"])
class TestLargeBudgets:
    """Each route, called directly, against boost's quantile at budgets
    where boost's CDF stands up to b/2 roundings off the true one."""

    @staticmethod
    def _draws(route, u, b, q):
        budgets = np.full(u.size, b, dtype=np.int64)
        want = _boost_quantile(u, budgets, q)
        got, unresolved = getattr(montecarlo, route)(u, budgets, q)
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
