import errno
import inspect
import logging
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l1minimax import (CompositePrior, CompressedFamily, CoordinatewiseEstimator,
                       McConfig, ProbabilityVector, ThresholdConfig, binomial_mad_exact,
                       derive_replicate_seed, empirical_estimator,
                       entropy_ball_family, estimator_risk_exact, mc_risk,
                       sample_from_composite_prior, sample_multinomial,
                       threshold_estimator)
from l1minimax import montecarlo, rng
from l1minimax.rng import derive_key, stream_key, uniforms

from conftest import expand, per_replicate_compressed_losses


def _split_in_three(monkeypatch):
    """Makes every `mc_risk` call with a block atom split its replicates into
    three ranges, the last two in forked children; returns the list that
    gets the pid of each child forked."""
    forked, fork = [], os.fork

    def counted():
        forked.append(fork())
        return forked[-1]

    monkeypatch.setattr(montecarlo, "_MIN_SPLIT_DRAWS", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(os, "fork", counted)
    return forked


def _spy_on_block_runs(monkeypatch):
    """Records the keys and totals of every `_block_runs` call, in a list it
    returns."""
    calls, block_runs = [], montecarlo._block_runs

    def spy(keys, starts, totals, mult):
        calls.append((keys.copy(), totals.copy()))
        return block_runs(keys, starts, totals, mult)

    monkeypatch.setattr(montecarlo, "_block_runs", spy)
    return calls


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
        # equal starts, a spread inside the counter-hash table, and a spread
        # wider than its cap
        for starts in ([3] * 9, [0, 1, 7, 8150, 8191, 8192, 8200, 20000, 3],
                       [0, 5, 300_000, 17, 40, 99, 1, 2, 3]):
            starts = np.array(starts, dtype=np.int64)
            got = uniforms(keys, starts, count)
            assert got.shape == (9, count)
            for r in range(9):
                assert np.array_equal(got[r], uniforms(keys[r], int(starts[r]), count))

    def test_counter_table_matches_direct_hashing(self, monkeypatch):
        # every range reads the counter hashes of its own draws, from the
        # shared table (grown on demand, read-only, never past the cap) or
        # hashed directly; a cold and a warm table give the same draws
        cap = rng._TABLE_CAP
        assert cap == 2**18

        def direct(key, start, count):
            hashes = rng._seed_hash(0, np.arange(start, start + count, dtype=np.uint64))
            return ((rng.mix64(key ^ hashes) >> np.uint64(11)) + 0.5) * 2.0**-53

        key, keys = stream_key(11), derive_key(11, np.arange(4))
        ranges = [(0, 1), (5, 0), (8189, 7), (3, 40_000), (cap - 5, 5), (cap - 5, 9),
                  (cap + 7, 20), (4 * cap, 3)]
        row_starts = [[0, 1, 2, 3], [9, 9, 9, 9], [cap - 40, 7, 3000, 0],
                      [cap - 2, 0, cap + 5, 11], [cap, 5 * cap, cap + 1, cap]]
        for cold in (True, False):
            if cold:
                monkeypatch.setattr(rng, "_table", np.empty(0, dtype=np.uint64))
            early = rng._hashed_offsets(0, 3)  # a view of the table as it stands
            for start, count in ranges:
                got = uniforms(key, start, count)
                assert got.shape == (count,)
                assert np.array_equal(got, direct(key, start, count))
                assert np.array_equal(uniforms(keys, start, count),
                                      np.array([direct(k, start, count) for k in keys]))
            for starts in row_starts:
                got = uniforms(keys, np.array(starts), 6)
                for k, start, row in zip(keys, starts, got):
                    assert np.array_equal(row, direct(k, start, 6))
            assert len(rng._table) == cap and not rng._table.flags.writeable
            assert np.array_equal(early, rng._seed_hash(0, np.arange(3, dtype=np.uint64)))
        uniforms(key, 50 * cap, 2 * cap)
        assert len(rng._table) == cap

    def test_uniform_moments(self):
        u = uniforms(stream_key(3), 0, 200_000)
        assert abs(u.mean() - 0.5) < 0.005
        assert abs(u.std() - math.sqrt(1 / 12)) < 0.005

    def test_range_and_index_rule(self):
        # the smallest and largest 53-bit hashes as `uniforms` maps them; the
        # top draw, 1.0, indexes the last of m cells
        hashes = np.array([0, 2**53 - 1], dtype=np.uint64).astype(np.float64)
        assert ((hashes + 0.5) * 2.0**-53).tolist() == [rng.UNIFORM_MIN, rng.UNIFORM_MAX]
        assert (rng.UNIFORM_MIN, rng.UNIFORM_MAX) == (2.0**-54, 1.0)
        for m in (1, 2, 7, 2**53):
            u = np.array([rng.UNIFORM_MIN, 0.5, rng.UNIFORM_MAX])
            assert rng.to_index(u, m) is u
            assert u.tolist() == [0, m // 2, m - 1]
        assert rng.to_index(np.ones(3), np.array([1, 5, 9])).tolist() == [0, 4, 8]

    def test_index_range_limit(self):
        # blocks of up to rng.MAX_INDEX_RANGE symbols and composite-prior
        # populations of up to that many slots are sampled; one more is
        # rejected (sample_multinomial's dense-support check comes first)
        limit = rng.MAX_INDEX_RANGE
        assert limit == 2**53
        cfg = McConfig(100, 0)
        at, over = (CompressedFamily(((0.5 / m, m), (0.5, 1))) for m in (limit, limit + 1))
        assert mc_risk(at, empirical_estimator(), 10, cfg).mean > 0.0
        with pytest.raises(ValueError, match="multiplicity too large"):
            mc_risk(over, empirical_estimator(), 10, cfg)
        with pytest.raises(ValueError, match="too large for a dense histogram"):
            sample_multinomial(over, 10, 0)
        with pytest.raises(ValueError, match="population too large"):
            sample_from_composite_prior(CompositePrior(0.5, 1, limit + 1), 0)
        assert 0 <= sample_from_composite_prior(
            CompositePrior(0.5, 1, limit), 0)[0] < limit



class TestSampleMultinomial:
    def test_point_mass(self):
        counts = sample_multinomial(ProbabilityVector([0.0, 1.0, 0.0]), 50, seed=1)
        assert counts.tolist() == [0, 50, 0]

    def test_counts_are_a_read_only_int64_array(self):
        counts = sample_multinomial(CompressedFamily(((0.25, 2), (0.5, 1))), 8, seed=2)
        assert type(counts) is np.ndarray and counts.dtype == np.int64
        assert counts.shape == (3,) and not counts.flags.writeable

    def test_single_draw(self):
        counts = sample_multinomial(ProbabilityVector([0.3, 0.7]), 1, seed=5)
        assert sorted(counts.tolist()) == [0, 1]

    @given(st.integers(0, 2**32), st.integers(1, 60))
    @settings(max_examples=50, deadline=None)
    def test_counts_sum_to_n(self, seed, n):
        pv = ProbabilityVector([0.1, 0.2, 0.3, 0.4])
        counts = sample_multinomial(pv, n, seed)
        assert int(counts.sum()) == n
        assert np.all(counts >= 0)

    def test_compressed_and_dense_agree_in_distribution(self):
        fam = CompressedFamily(((0.25, 2), (0.5, 1)))
        n = 30
        totals = np.zeros(3)
        reps = 2000
        for seed in range(reps):
            totals += sample_multinomial(fam, n, seed)
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

    def test_equal_losses_get_an_interval_of_their_own(self):
        # seed 2 never draws the 0.001 atom: all 100 losses are 2 * 0.001,
        # and mean +- 3 standard errors (~1e-19) missed the exact risk
        pv = ProbabilityVector([0.999, 0.001])
        exact = estimator_risk_exact(pv, empirical_estimator(), 10)
        out = mc_risk(pv, empirical_estimator(), 10, McConfig(100, 2))
        assert out.std_error < 1e-18 and out.mean != exact
        half = 2.0 * math.log(1.0 / 0.0027) / 100
        assert (out.ci_lo, out.ci_hi) == (0.002 - half, 0.002 + half)
        assert out.ci_lo <= exact <= out.ci_hi

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

    @pytest.mark.parametrize("split", [False, True])
    def test_chunking_does_not_change_results(self, monkeypatch, split):
        pv = ProbabilityVector([0.2, 0.3, 0.5])
        baseline = mc_risk(pv, empirical_estimator(), 25, McConfig(400, 9))
        forked = _split_in_three(monkeypatch) if split else []
        monkeypatch.setattr(montecarlo, "_CHUNK_CELLS", 7)
        chunked = mc_risk(pv, empirical_estimator(), 25, McConfig(400, 9))
        assert baseline == chunked
        assert forked == []  # a dense vector has no block draws to split

    def test_replicates_reproducible_in_isolation_dense(self):
        pv = ProbabilityVector([0.2, 0.8])
        n, master, reps = 12, 31337, 150
        out = mc_risk(pv, empirical_estimator(), n, McConfig(reps, master))
        losses = []
        for r in range(reps):
            counts = sample_multinomial(pv, n, derive_replicate_seed(master, r))
            est = empirical_estimator()(counts, n)
            losses.append(float(np.abs(est - pv.probs).sum()))
        mean = float(np.asarray(losses).sum() / reps)
        assert mean == out.mean

    @pytest.mark.parametrize("split", [False, True])
    def test_replicates_reproducible_in_isolation_compressed(self, monkeypatch, split):
        fam = CompressedFamily(((0.02, 20), (0.6, 1)))
        n, master, reps = 30, 555, 120
        forked = _split_in_three(monkeypatch) if split else []
        out = mc_risk(fam, empirical_estimator(), n, McConfig(reps, master))
        assert len(forked) == 2 * split
        expanded = expand(fam)
        losses = []
        for r in range(reps):
            counts = sample_multinomial(fam, n, derive_replicate_seed(master, r))
            est = empirical_estimator()(counts, n)
            losses.append(float(np.abs(est - expanded.probs).sum()))
        mean = float(np.asarray(losses).sum() / reps)
        assert mean == out.mean

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

    @pytest.mark.parametrize("split", [False, True])
    def test_row_batching_does_not_change_results(self, monkeypatch, split):
        # _CHUNK_CELLS // 3 atoms = 0 and 2 rows per batch split block atoms
        # across row batches, each with its own stream positions; a split
        # makes replicate ranges of 133, 133 and 134
        fam = CompressedFamily(((0.004, 100), (0.1, 3), (0.3, 1)))
        estimator = empirical_estimator()
        keys = derive_key(9, np.arange(400, dtype=np.uint64))
        want = per_replicate_compressed_losses(keys, fam, estimator, 300)
        baseline = mc_risk(fam, estimator, 300, McConfig(400, 9))
        forked = _split_in_three(monkeypatch) if split else []
        for cells in (1, 7):
            monkeypatch.setattr(montecarlo, "_CHUNK_CELLS", cells)
            for losses in (montecarlo._compressed_losses, montecarlo._split_losses):
                assert np.array_equal(losses(keys, fam, estimator, 300, Counter()), want), cells
            assert mc_risk(fam, estimator, 300, McConfig(400, 9)) == baseline
        assert len(forked) == 8 * split

    def test_width_ordered_batches(self, monkeypatch):
        # Block totals that fall, interleave and hold zeros, and one row (60)
        # wider than the budget: at 24 padded draws, batches of widths
        # 1-3, 4-6, 7-8, 9-9, 9 and 60.
        totals = np.array([9, 7, 0, 5, 9, 1, 0, 3, 8, 2, 60, 4, 0, 6, 9, 1, 5, 2, 3, 0])
        fam = CompressedFamily(((0.3 / 7, 7), (0.7, 1)))
        n, estimator = 80, empirical_estimator()
        keys = derive_key(5, np.arange(totals.size, dtype=np.uint64))
        monkeypatch.setattr(montecarlo, "_conditional_chain",
                            lambda keys, masses, n, tally=None:
                            np.stack([totals, n - totals], axis=1))
        starts, loss = np.full(totals.size, 1), np.abs(np.arange(61) / n - 0.3 / 7)
        monkeypatch.setattr(montecarlo, "_CHUNK_DRAWS", 1)  # each row alone
        alone = montecarlo._block_losses(keys, starts, totals, 7, loss)
        want = per_replicate_compressed_losses(keys, fam, estimator, n)
        monkeypatch.setattr(montecarlo, "_CHUNK_DRAWS", 24)
        batches, tally = _spy_on_block_runs(monkeypatch), Counter()
        got = montecarlo._block_losses(keys, starts, totals, 7, loss, tally)
        assert np.array_equal(got[0], alone[0]) and np.array_equal(got[1], alone[1])
        assert [t.tolist() for _, t in batches] == [
            [1, 1, 2, 2, 3, 3], [4, 5, 5, 6], [7, 8], [9, 9], [9], [60]]
        for row_keys, widths in batches:
            assert row_keys.size * widths.max() <= 24 or row_keys.size == 1
        allocated = np.concatenate([row_keys for row_keys, _ in batches])
        assert sorted(allocated.tolist()) == sorted(keys[totals > 0].tolist())
        assert tally == {"block rows": 16, "block batches": 6, "block draws": 134,
                         "block padded": 18 + 24 + 16 + 18 + 9 + 60}
        assert np.array_equal(montecarlo._compressed_losses(keys, fam, estimator, n), want)

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
        batches = _spy_on_block_runs(monkeypatch)
        totals = montecarlo._conditional_chain(keys, [v * m for v, m in fam.atoms], n)[:, 0]
        loss = np.arange(totals.max() + 1) / n
        default = montecarlo._CHUNK_DRAWS
        for chunk in (default, 1, 7):
            monkeypatch.setattr(montecarlo, "_CHUNK_DRAWS", chunk)
            occupied, sums = montecarlo._block_losses(
                keys, np.full(keys.size, 2), totals, mult, loss)
            assert np.array_equal(occupied, (totals > 0).astype(np.int64))
            assert np.array_equal(sums, np.where(totals > 0, loss[totals], 0.0))
            if chunk == default:  # rows of one batch are padded
                assert any(widths.min() < widths.max() for _, widths in batches)
        estimator = empirical_estimator()
        assert np.array_equal(montecarlo._compressed_losses(keys, fam, estimator, n),
                              per_replicate_compressed_losses(keys, fam, estimator, n))
        if mult < 2**53:  # a 2^53-cell block has no dense histogram to sample into
            blocks = np.array([sample_multinomial(fam, n, derive_replicate_seed(21, r))[:mult]
                               for r in range(keys.size)])
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


class TestSplitReplicates:
    """A split call keeps its result bit for bit and its Binomial draws,
    whatever its children do, and leaves no child behind."""

    def call(self):
        fam = CompressedFamily(((0.004, 100), (0.1, 3), (0.3, 1)))
        return mc_risk(fam, empirical_estimator(), 300, McConfig(400, 9))

    @staticmethod
    def fail(monkeypatch, where):
        """`_compressed_losses` raises in the children or in this process."""
        parent, losses = os.getpid(), montecarlo._compressed_losses

        def failing(*args):
            if (os.getpid() == parent) == (where == "parent"):
                raise ArithmeticError(where)
            return losses(*args)

        monkeypatch.setattr(montecarlo, "_compressed_losses", failing)

    def test_route_tally_counts_the_same_draws(self, monkeypatch, caplog):
        # two chain steps a replicate; halving a call can move draws between routes
        caplog.set_level(logging.DEBUG, logger="l1minimax.montecarlo")
        baseline = self.call()
        _split_in_three(monkeypatch)
        assert self.call() == baseline
        routes = [r for r in caplog.records if r.msg.startswith("mc_risk: Binomial")]
        assert [sum(record.args) for record in routes] == [800, 800]

    def test_block_tally_counts_the_same_draws(self, monkeypatch, caplog):
        # a split call's children send back their block counts too
        caplog.set_level(logging.DEBUG, logger="l1minimax.montecarlo")
        fam = CompressedFamily(((0.004, 100), (0.1, 3), (0.3, 1)))
        keys = derive_key(9, np.arange(400, dtype=np.uint64))
        chain = montecarlo._conditional_chain(keys, [v * m for v, m in fam.atoms], 300)
        baseline = self.call()
        forked = _split_in_three(monkeypatch)
        assert self.call() == baseline and len(forked) == 2
        blocks = [r.args for r in caplog.records if r.msg.startswith("mc_risk: block")]
        assert len(blocks) == 2
        for rows, batches, draws, padded in blocks:
            assert rows == np.count_nonzero(chain[:, :2]) and 0 < batches <= rows
            assert draws == chain[:, :2].sum() and padded >= draws

    @pytest.mark.parametrize("failure", ["children", "fork", "pipe", "no affinity mask"])
    def test_range_without_a_child_is_computed_here(self, monkeypatch, failure):
        baseline = self.call()
        forked = _split_in_three(monkeypatch)
        if failure == "children":
            self.fail(monkeypatch, "children")
        elif failure == "fork":
            monkeypatch.setattr(os, "fork", mock.Mock(side_effect=OSError("no fork")))
        elif failure == "pipe":
            # the first range gets its child, the second no pipe
            no_pipe = OSError(errno.EMFILE, "Too many open files")
            monkeypatch.setattr(os, "pipe", mock.Mock(side_effect=[os.pipe(), no_pipe]))
        else:
            monkeypatch.delattr(os, "sched_getaffinity")
        assert self.call() == baseline
        assert len(forked) == {"children": 2, "pipe": 1}.get(failure, 0)

    def test_parent_range_raising_leaves_no_child(self, monkeypatch):
        forked = _split_in_three(monkeypatch)
        self.fail(monkeypatch, "parent")
        with pytest.raises(ArithmeticError, match="parent"):
            self.call()
        assert len(forked) == 2
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


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
            counts = sample_multinomial(pv, n, seed)
            assert counts.tolist() == sample_multinomial(atoms, n, seed).tolist()
            est = estimator(counts, n)
            loss = 0.0
            for i in range(S):
                loss += abs(float(est[i]) - float(pv.probs[i]))
            losses.append(loss)
        assert float(np.asarray(losses).sum() / reps) == out.mean
        keys = derive_key(master, np.arange(reps, dtype=np.uint64))
        assert montecarlo._compressed_losses(keys, pv, estimator, n).tolist() == losses


def exact_golden_values() -> list:
    """.hex() of three exact values of the kinds whose last bits followed
    OpenBLAS's kernel and thread count while exact sums used `np.dot`: the
    empirical risk on an entropy ball at n = 1e7, on a seeded 50-atom
    Dirichlet vector at n = 100, and a Binomial MAD on ~11,700 points.
    Self-contained, so that a child process can run its source."""
    import math
    import random

    import numpy  # noqa: F401  (loaded, so every window is an array)

    from l1minimax import (ProbabilityVector, binomial_mad_exact, empirical_estimator,
                           entropy_ball_family, estimator_risk_exact)

    rnd = random.Random(11)
    weights = [rnd.expovariate(1.0) for _ in range(50)]
    dirichlet = ProbabilityVector([w / math.fsum(weights) for w in weights])
    ball = entropy_ball_family(1.0, 0.05).family
    return [estimator_risk_exact(ball, empirical_estimator(), 10**7).hex(),
            estimator_risk_exact(dirichlet, empirical_estimator(), 100).hex(),
            binomial_mad_exact(10**6, 0.37).hex()]


class TestGoldenBits:
    """Fixed-seed outputs pinned bit for bit.

    The determinism contract promises the same numbers across runs and
    platforms; these values make a change of sampler (or of the library
    behind the Binomial inversion) visible instead of silent.
    """

    EXACT = ["0x1.840d6aa4b73f7p-4", "0x1.eb79ac6b04515p-2", "0x1.93ef3e0764dc2p-12"]

    def test_exact_values(self):
        assert exact_golden_values() == self.EXACT

    @pytest.mark.parametrize("setting", [
        {"OPENBLAS_CORETYPE": "Prescott"},
        {"OPENBLAS_NUM_THREADS": "1"},
        {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
    ], ids=["openblas-prescott", "openblas-one-thread", "numpy-without-avx512"])
    def test_exact_values_whatever_the_kernel(self, setting):
        # exact sums are numpy's pairwise sum, whose order is the number of
        # terms alone: no BLAS kernel, thread count or SIMD target moves them
        src = pathlib.Path(montecarlo.__file__).resolve().parents[1]
        script = inspect.getsource(exact_golden_values) + "\nprint(*exact_golden_values())\n"
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src), **setting},
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == exact_golden_values()

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
        counts = sample_multinomial(pv, 50, seed=11)
        assert counts.tolist() == [6, 7, 4, 21, 12]

    def test_compressed_sample(self):
        fam = CompressedFamily(((0.05, 10), (0.5, 1)))
        counts = sample_multinomial(fam, 40, seed=3)
        assert counts.tolist() == [1, 1, 2, 1, 2, 1, 2, 1, 2, 1, 26]
