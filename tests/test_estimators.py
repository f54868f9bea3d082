import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from l1minimax import (ThresholdConfig, ThresholdRule, empirical_estimator, threshold_estimator,
                       threshold_level)


def estimate(rule, counts):
    """A coordinatewise rule applied to counts at their sample size."""
    counts = np.asarray(counts)
    return rule(counts, int(counts.sum()))


class TestEmpirical:
    def test_basic(self):
        assert estimate(empirical_estimator(), [3, 1]).tolist() == [0.75, 0.25]

    def test_all_in_one_cell(self):
        assert estimate(empirical_estimator(), [0, 0, 4]).tolist() == [0.0, 0.0, 1.0]

    def test_even_split(self):
        assert estimate(empirical_estimator(), [2, 2]).tolist() == [0.5, 0.5]

    @given(st.lists(st.integers(0, 50), min_size=1, max_size=10).filter(lambda c: sum(c) > 0))
    def test_lies_on_simplex(self, counts):
        est = estimate(empirical_estimator(), counts)
        assert abs(math.fsum(est.tolist()) - 1.0) <= 1e-12


class TestThresholdLevel:
    # expected values frozen from 40-digit evaluation of e^2 (ln n)^(2 eta) / n
    @pytest.mark.parametrize("n,eta,expected", [
        (10**6, 1.1, 0.00238449397702038539),
        (100, 1.5, 7.21649004563987529),
        (10**4, 1.0 + 1e-9, 0.06268163638897031),
    ])
    def test_frozen_values(self, n, eta, expected):
        assert threshold_level(ThresholdConfig(n, eta)) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("eta", [1e200, 1e308])
    def test_level_past_the_float_range_is_inf(self, eta, caplog):
        # (ln n)^(2 eta) overflows: at 1e200 it raised OverflowError (34, ...),
        # at 1e308 (2 eta = inf) it gave inf; both zero every frequency
        cfg = ThresholdConfig(1000, eta)
        assert threshold_level(cfg) == math.inf
        rule = threshold_estimator(cfg)
        assert "returns 0 everywhere" in caplog.text
        assert rule.fn == ThresholdRule(math.inf, 1000)
        assert estimate(rule, [999, 1]).tolist() == [0.0, 0.0]


class TestHardThreshold:
    def test_keep_and_drop_against_level_oracle(self):
        # cutoff at n=1e6, eta=1.1 is ~2.3845e-3: 0.005 kept, 0.002 dropped
        n = 10**6
        cfg = ThresholdConfig(n, 1.1)
        counts = np.zeros(3, dtype=np.int64)
        counts[0], counts[1] = 5000, 2000
        counts[2] = n - 7000
        out = estimate(threshold_estimator(cfg), counts)
        assert out[0] == 0.005
        assert out[1] == 0.0
        assert out[2] == counts[2] / n

    def test_zero_count_maps_to_zero(self):
        cfg = ThresholdConfig(8, 1.2)
        out = estimate(threshold_estimator(cfg), [0, 8])
        assert out[0] == 0.0

    def test_cutoff_is_strict(self):
        # at n=216, eta=1.0020862308122218 the level equals 215/216 exactly
        # as a double, so a count of 215 must be dropped (strict inequality)
        n, k, eta = 216, 215, 1.0020862308122218
        cfg = ThresholdConfig(n, eta)
        assert threshold_level(cfg) == k / n
        out = estimate(threshold_estimator(cfg), [k, n - k])
        assert out[0] == 0.0
        # nudging the exponent below moves the cutoff under k/n: now kept
        cfg_lo = ThresholdConfig(n, eta - 1e-9)
        assert threshold_level(cfg_lo) < k / n
        kept = estimate(threshold_estimator(cfg_lo), [k, n - k])
        assert kept[0] == k / n

    def test_n_mismatch_rejected(self):
        with pytest.raises(ValueError, match="match"):
            threshold_estimator(ThresholdConfig(5, 1.5))(np.array([2, 2]), 4)

    def test_degenerate_level_zeroes_everything(self):
        # threshold_level(100, 1.5) ~ 7.22 > 1, so every coordinate dies
        cfg = ThresholdConfig(100, 1.5)
        assert threshold_level(cfg) > 1.0
        out = estimate(threshold_estimator(cfg), [60, 40])
        assert np.all(out == 0.0)

    @given(st.lists(st.integers(0, 30), min_size=1, max_size=8).filter(lambda c: sum(c) > 1),
           st.floats(1.01, 3.0))
    def test_dominated_by_empirical(self, counts, eta):
        thresholded = estimate(threshold_estimator(ThresholdConfig(sum(counts), eta)), counts)
        plain = estimate(empirical_estimator(), counts)
        assert np.all(thresholded <= plain)
        assert float(thresholded.sum()) <= 1.0 + 1e-12


class TestEstimatorObjects:
    def test_built_in_rules_are_threshold_rules(self):
        assert empirical_estimator().fn == ThresholdRule(0.0)
        cfg = ThresholdConfig(50, 1.3)
        rule = threshold_estimator(cfg).fn
        assert rule == ThresholdRule(threshold_level(cfg), 50)
        mismatch = "config n=50 does not match sample size n=49"
        with pytest.raises(ValueError, match=mismatch):
            rule(np.arange(3), 49)
        with pytest.raises(ValueError, match=mismatch):
            rule.losses(range(3), 49, 0.5)

    @given(st.integers(1, 2000),
           st.one_of(st.just(0.0), st.just(5e-324), st.floats(1e-300, 1.0),
                     st.floats(1.0, 1e300), st.just(math.inf)),
           st.booleans(), st.floats(0.0, 1.0))
    @example(1000, 0.0, False, 0.25)  # the empirical rule
    @example(1000, threshold_level(ThresholdConfig(1000, 1.1)), True, 0.25)
    @example(216, 215 / 216, True, 215 / 216)  # the cut on a count: dropped
    def test_rule_on_arrays_is_the_rule_count_by_count(self, n, cut, own_n, value):
        # k -> k/n if k/n > cut else 0, and its losses, bit for bit, for every count 0..n
        rule = ThresholdRule(cut, n if own_n else None)
        counts = np.arange(n + 1)
        by_count = [k / n if k / n > cut else 0.0 for k in range(n + 1)]
        on_arrays = rule(counts, n)
        assert [x.hex() for x in on_arrays.tolist()] == [x.hex() for x in by_count]
        losses = rule.losses(range(n + 1), n, value)
        assert [x.hex() for x in np.abs(on_arrays - value).tolist()] == [x.hex() for x in losses]

    def test_empirical_rule_on_arrays(self):
        rule = empirical_estimator()
        out = rule(np.array([0, 2, 4]), 4)
        assert out.tolist() == [0.0, 0.5, 1.0]

    def test_threshold_rule_matches_hard_threshold(self):
        # the rule on a sample's counts is hard thresholding of k/n at the level
        cfg = ThresholdConfig(50, 1.3)
        counts = np.array([0, 1, 5, 44])
        freq = counts / 50
        expected = np.where(freq > threshold_level(cfg), freq, 0.0)
        assert np.array_equal(threshold_estimator(cfg)(counts, 50), expected)
