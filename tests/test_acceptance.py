"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines alongside the pytest verdicts.
"""

import math
import pathlib
import re
import shlex
import time

import numpy as np
import pytest

from l1minimax import (CompositePrior, McConfig,
                       ProbabilityVector, ThresholdConfig, adell_jodra_tv_bound,
                       bayes_risk_entropy_ball, bayes_risk_entropy_ball_constrained,
                       bayes_risk_two_point, bayes_risk_two_point_piecewise,
                       binomial_mad_exact, chernoff_tails, classical_constant,
                       empirical_estimator, entropy_ball_family,
                       estimator_risk_exact, hoeffding_bound, mc_risk,
                       mle_entropy_lower, mle_entropy_upper, mle_upper_simple,
                       mle_upper_tight, poisson_tv_exact, simplex_lower,
                       threshold_estimator, threshold_upper)
from l1minimax.cli import main
from conftest import (exact_binomial_tail_upper, exact_poisson_tail_lower,
                      exact_poisson_tail_upper)

H_BUDGET = 1.0
C_GRID = (0.3, 0.5, 0.7, 0.9)
N_GRID = (10**3, 10**4, 10**5, 10**6)
TREND_C_GRID = (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
TREND_N_GRID = (10**3, 10**4, 10**5, 10**6, 10**7)


def _entropy_ball_regime_ok(c: float, n: int) -> bool:
    """Validity condition of the hard-family risk floor."""
    return n > math.exp(-math.log1p(-c) / (1.0 - c)) and n > math.exp(H_BUDGET)


def _ball_risk(c: float, n: int, estimator) -> float:
    fam = entropy_ball_family(H_BUDGET, c * H_BUDGET / math.log(n)).family
    return estimator_risk_exact(fam, estimator, n)


def test_criterion_01_binomial_mad_identity():
    started = time.perf_counter()
    ns = np.unique(np.geomspace(2, 10**5, 20).astype(int))
    fractions = np.linspace(0.03, 0.97, 10)
    pairs = [(int(n), float(f) / int(n)) for n in ns for f in fractions][:200]
    assert len(pairs) == 200
    worst = 0.0
    for n, p in pairs:
        assert p < 1.0 / n
        expected = 2.0 * p * math.exp(n * math.log1p(-p))
        rel = abs(binomial_mad_exact(n, p) - expected) / expected
        worst = max(worst, rel)
    elapsed = time.perf_counter() - started
    assert worst <= 1e-12
    assert elapsed < 10.0
    print(f"\nPASS criterion 1: Binomial MAD identity, 200 pairs, "
          f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_mle_risk_dominated_by_upper_bounds():
    started = time.perf_counter()
    gen = np.random.default_rng(1729)
    violations = 0
    for _ in range(500):
        S = int(gen.integers(2, 51))
        n = int(gen.integers(1, 10**4 + 1))
        pv = ProbabilityVector(gen.dirichlet(np.ones(S)))
        risk = estimator_risk_exact(pv, empirical_estimator(), n)
        if risk > mle_upper_simple(S, n) or risk > mle_upper_tight(S, n):
            violations += 1
    elapsed = time.perf_counter() - started
    assert violations == 0
    assert elapsed < 60.0
    print(f"\nPASS criterion 2: 500 random vectors dominated by both upper "
          f"bounds, {elapsed:.1f}s")


def test_criterion_03_classical_constant():
    started = time.perf_counter()
    target = classical_constant(2)
    gaps = []
    for n in (10**2, 10**3, 10**4):
        risk = estimator_risk_exact(ProbabilityVector([0.5, 0.5]),
                                    empirical_estimator(), n)
        gaps.append(abs(math.sqrt(n) * risk - target))
    elapsed = time.perf_counter() - started
    assert gaps[-1] <= 0.01
    assert gaps[0] > gaps[1] > gaps[2]
    assert elapsed < 10.0
    print(f"\nPASS criterion 3: sqrt(n) uniform risk gaps {gaps[0]:.2e} > "
          f"{gaps[1]:.2e} > {gaps[2]:.2e}, final <= 0.01, {elapsed:.1f}s")


def test_criterion_04_entropy_ball_sandwich():
    started = time.perf_counter()
    tested = 0
    for c in C_GRID:
        for n in N_GRID:
            if not _entropy_ball_regime_ok(c, n):
                continue
            upper = mle_entropy_upper(H_BUDGET, n, 1.1)
            if upper.vacuous:
                continue
            lower = mle_entropy_lower(H_BUDGET, n, c)
            risk = _ball_risk(c, n, empirical_estimator())
            assert lower <= risk <= upper.value, (c, n, lower, risk, upper.value)
            tested += 1
    elapsed = time.perf_counter() - started
    assert tested >= 12
    assert elapsed < 300.0
    print(f"\nPASS criterion 4: MLE risk inside [lower, upper] on {tested} "
          f"valid cells, {elapsed:.1f}s")


def test_criterion_05_threshold_upper_and_improvement():
    started = time.perf_counter()
    eta = 1.1
    checked = 0
    for c in C_GRID:
        for n in N_GRID:
            upper = threshold_upper(H_BUDGET, n, eta)
            if upper.vacuous:
                continue
            risk = _ball_risk(c, n, threshold_estimator(ThresholdConfig(n, eta)))
            assert risk <= upper.value, (c, n, risk, upper.value)
            checked += 1
    improvements = 0
    for c in C_GRID:
        n = 10**6
        thr = _ball_risk(c, n, threshold_estimator(ThresholdConfig(n, eta)))
        mle = _ball_risk(c, n, empirical_estimator())
        assert thr < mle, (c, thr, mle)
        improvements += 1
    elapsed = time.perf_counter() - started
    assert checked >= 12
    print(f"\nPASS criterion 5: threshold risk under its bound on {checked} "
          f"cells and beats MLE at n=1e6 on {improvements} families, {elapsed:.1f}s")


def test_criterion_06_rate_constant_trends():
    started = time.perf_counter()
    eta = 1.1
    mle_ratios, thr_ratios, valid = [], [], []
    for n in TREND_N_GRID:
        mle = max(_ball_risk(c, n, empirical_estimator()) for c in TREND_C_GRID)
        thr_est = threshold_estimator(ThresholdConfig(n, eta))
        thr = max(_ball_risk(c, n, thr_est) for c in TREND_C_GRID)
        mle_ratios.append(math.log(n) * mle / H_BUDGET)
        thr_ratios.append(math.log(n) * thr / H_BUDGET)
        valid.append(not threshold_upper(H_BUDGET, n, eta).vacuous
                     and not mle_entropy_upper(H_BUDGET, n, eta).vacuous)
    assert all(a < b for a, b in zip(mle_ratios, mle_ratios[1:]))
    assert mle_ratios[-1] > 1.0
    compared = [n for n, ok in zip(TREND_N_GRID, valid) if ok]
    assert compared, "no n with both regimes valid"
    for ok, mle_r, thr_r in zip(valid, mle_ratios, thr_ratios):
        if ok:
            assert thr_r < mle_r
    elapsed = time.perf_counter() - started
    print(f"\nPASS criterion 6: MLE ratios {[f'{r:.3f}' for r in mle_ratios]} "
          f"increase past 1.0; threshold ratios strictly below at n={compared}, "
          f"{elapsed:.1f}s")


def test_criterion_07_poisson_tv_bound_grid():
    started = time.perf_counter()
    grid = np.linspace(0.0, 50.0, 50)
    violations = 0
    for t in grid:
        assert poisson_tv_exact(t, t) <= 1e-12
        for x in grid:
            tv = poisson_tv_exact(t, t + x)
            if tv > adell_jodra_tv_bound(t, x) + 1e-12:
                violations += 1
    elapsed = time.perf_counter() - started
    assert violations == 0
    assert elapsed < 30.0
    print(f"\nPASS criterion 7: exact Poisson TV within its bound on the "
          f"50x50 grid, {elapsed:.1f}s")


def test_criterion_08_bayes_oracles():
    started = time.perf_counter()
    S_grid = [max(2, int(round(s))) for s in np.geomspace(2, 10**4, 20)]
    n_grid = [max(1, int(round(n))) for n in np.geomspace(1, 10**4, 20)]
    for S in S_grid:
        for n in n_grid:
            exact = bayes_risk_two_point(S, n)
            floor = bayes_risk_two_point_piecewise(S, n)
            assert exact >= floor - 1e-12, (S, n, exact, floor)
    k = 10**6
    for c in C_GRID:
        for n in N_GRID:
            fam = entropy_ball_family(H_BUDGET, c * H_BUDGET / math.log(n))
            prior = CompositePrior.from_family(fam, k)
            pair = bayes_risk_entropy_ball(prior, n)
            assert pair.exact >= pair.linearized - 1e-15
            constrained = bayes_risk_entropy_ball_constrained(prior, n)
            floor = simplex_lower(H_BUDGET, n, c)
            assert constrained >= floor.value * (1 - 1.0 / k) - 1e-12
    elapsed = time.perf_counter() - started
    print(f"\nPASS criterion 8: Bayes oracles dominate their closed forms on "
          f"400 two-point cells and {len(C_GRID) * len(N_GRID)} ball cells, "
          f"{elapsed:.1f}s")


def test_criterion_09_tail_bounds():
    started = time.perf_counter()
    lams = np.geomspace(0.5, 200.0, 10)
    deltas = np.linspace(0.05, 0.95, 10)
    for lam in lams:
        for delta in deltas:
            lam, delta = float(lam), float(delta)
            upper, lower = chernoff_tails(lam, delta)
            assert exact_poisson_tail_upper(lam, (1 + delta) * lam) <= upper + 1e-15
            assert exact_poisson_tail_lower(lam, (1 - delta) * lam) <= lower + 1e-15
            n = int(4 * lam) + 10
            assert exact_binomial_tail_upper(n, lam / n, (1 + delta) * lam) <= upper + 1e-15
    # concentration penalty reproduced by the generic bound at eps = zeta/(4 ln S)
    S, zeta = 10**4, 0.5
    direct = 2 * math.exp(-zeta**2 * S / (32 * math.log(S) ** 2))
    via_bound = hoeffding_bound(S, 2 / S, zeta / (4 * math.log(S)))
    assert abs(via_bound - direct) <= 1e-12 * direct
    elapsed = time.perf_counter() - started
    print(f"\nPASS criterion 9: exact tails under Chernoff bounds on 100 "
          f"points, penalty term reproduced to 1e-12, {elapsed:.1f}s")


def test_criterion_10_mc_consistency_and_reproducibility(tmp_path):
    started = time.perf_counter()
    cells = [(S, n) for S in (2, 3)
             for n in (4, 7, 10, 16, 25, 40, 60, 100, 150, 250)]
    assert len(cells) == 20
    estimator = empirical_estimator()
    hits = total = 0
    for S, n in cells:
        pv = ProbabilityVector.uniform(S)
        exact = estimator_risk_exact(pv, estimator, n)
        for seed in range(100):
            est = mc_risk(pv, estimator, n, McConfig(10_000, seed))
            hits += est.ci_lo <= exact <= est.ci_hi
            total += 1
    coverage = hits / total
    assert total == 2000
    assert coverage >= 0.99

    args = ["mc", "--family", "uniform", "--grid-S", "2", "3", "--grid-n", "25",
            "--replicates", "1000", "--seed", "99"]
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    elapsed = time.perf_counter() - started
    print(f"\nPASS criterion 10: exact value inside the 3-sigma CI in "
          f"{coverage:.2%} of 2000 (cell, seed) pairs; reports byte-identical, "
          f"{elapsed:.1f}s")


def _readme_blocks(language):
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    return re.findall(rf"```{language}\n(.*?)```", readme, re.DOTALL)


def test_readme_quick_start_runs():
    # the README's one python block runs as printed (it asserts its own MC
    # check), and its "# 0.375" comment holds
    (block,) = _readme_blocks("python")
    scope = {}
    exec(block, scope)
    assert scope["risk"] == 0.375


def _readme_command_lines():
    """Each `l1minimax ...` line of the README's sh blocks, continuations joined."""
    return [line for block in _readme_blocks("sh")
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("l1minimax ")]


@pytest.mark.parametrize("line", _readme_command_lines(), ids=lambda line: line.split()[1])
def test_readme_command_line_runs(line, tmp_path):
    # exits 0 as printed, its report written under tmp_path
    argv = shlex.split(line, comments=True)[1:]
    assert main(argv + ["--out", str(tmp_path / "report")]) == 0
