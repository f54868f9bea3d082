import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from l1minimax import (CompressedFamily, McConfig, ProbabilityVector,
                       empirical_estimator, entropy, estimator_risk_exact, mc_risk,
                       sample_multinomial)

from conftest import expand


class TestEntropy:
    @pytest.mark.parametrize("S", [1, 2, 3, 4, 7, 64, 100, 1234, 9999, 10_000])
    def test_uniform_is_log_s(self, S):
        assert abs(entropy(ProbabilityVector.uniform(S)) - math.log(S)) <= 1e-12

    @pytest.mark.parametrize("S", [1, 2, 17, 10_000])
    def test_uniform_compressed_is_log_s(self, S):
        fam = CompressedFamily(((1.0 / S, S),))
        assert abs(entropy(fam) - math.log(S)) <= 1e-12

    def test_point_mass_is_zero(self):
        assert entropy(ProbabilityVector([1.0, 0.0, 0.0])) == 0.0

    def test_compressed_five_atoms(self):
        fam = CompressedFamily(((0.2, 5),))
        assert abs(entropy(fam) - math.log(5)) <= 1e-12
        # expansion cross-check, summed by brute force
        brute = math.fsum(-p * math.log(p) for p in expand(fam).probs)
        assert abs(entropy(fam) - brute) <= 1e-12

    @given(st.lists(st.tuples(st.floats(1e-6, 1.0), st.integers(1, 50)),
                    min_size=1, max_size=5))
    def test_compressed_matches_expansion(self, raw):
        mass = math.fsum(v * m for v, m in raw)
        fam = CompressedFamily(tuple((v / mass, m) for v, m in raw))
        assert abs(entropy(fam) - entropy(expand(fam))) <= 1e-12


class TestConstruction:
    def test_normalizes_small_drift(self):
        pv = ProbabilityVector([0.5, 0.5 + 5e-10])
        assert abs(math.fsum(pv.probs.tolist()) - 1.0) <= 1e-12

    def test_rejects_large_drift(self):
        with pytest.raises(ValueError, match="far from 1"):
            ProbabilityVector([0.5, 0.51])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ProbabilityVector([1.5, -0.5])

    def test_support_size_counts_zeros(self):
        assert ProbabilityVector([0.0, 1.0, 0.0]).support_size == 3

    @pytest.mark.parametrize("drift", [2e-12, 5e-10, -5e-10])
    def test_family_normalizes_small_drift(self, drift):
        # mass off by more than the sum tolerance, within the normalizing one
        fam = CompressedFamily(((0.25, 2), (0.5 + drift, 1)))
        mass = 1.0 + drift
        assert fam.atoms == ((0.25 / mass, 2), ((0.5 + drift) / mass, 1))
        assert math.fsum(v * m for v, m in fam.atoms) == pytest.approx(1.0, abs=1e-15)

    def test_family_keeps_mass_within_sum_tolerance(self):
        atoms = ((0.25, 2), (0.5 + 1e-13, 1))
        assert CompressedFamily(atoms).atoms == atoms

    def test_family_mass_must_be_one(self):
        with pytest.raises(ValueError):
            CompressedFamily(((0.3, 2),))

    def test_family_rejects_bad_multiplicity(self):
        with pytest.raises(ValueError):
            CompressedFamily(((0.5, 0), (0.5, 1)))

    def test_family_huge_multiplicity_ok(self):
        mult = 10**15
        fam = CompressedFamily(((0.5 / mult, mult), (0.5, 1)))
        assert fam.support_size == mult + 1


class TestAtomView:
    """core._atom_items is the one place that knows the distribution types;
    every consumer rejects anything else with its TypeError."""

    @pytest.mark.parametrize("consume", [
        entropy,
        lambda p: sample_multinomial(p, 5, seed=0),
        lambda p: mc_risk(p, empirical_estimator(), 5, McConfig(100, 0)),
        lambda p: estimator_risk_exact(p, empirical_estimator(), 5),
    ], ids=["entropy", "sample_multinomial", "mc_risk", "estimator_risk_exact"])
    def test_foreign_type_rejected(self, consume):
        with pytest.raises(TypeError, match="expected ProbabilityVector or CompressedFamily"):
            consume([0.5, 0.5])
