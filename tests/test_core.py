import ast
import math
import pathlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

import l1minimax
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
        # the contract table keeps each vector's mass at 1; this one's is 1.01
        with pytest.raises(ValueError, match="far from 1"):
            ProbabilityVector([0.5, 0.51])

    def test_mass_past_the_float_range_is_far_from_1(self):
        # fsum raised OverflowError ("intermediate overflow in fsum") here
        with pytest.raises(ValueError, match="probs sum to inf, too far from 1"):
            ProbabilityVector([1e308, 1e308])
        with pytest.raises(ValueError, match=r"atom masses \(value x multiplicity\) sum to inf, "):
            CompressedFamily(((1e308, 1), (1e308, 1)))

    def test_support_size_counts_zeros(self):
        assert ProbabilityVector([0.0, 1.0, 0.0]).probs.size == 3

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

    def test_family_huge_multiplicity_ok(self):
        mult = 10**15
        fam = CompressedFamily(((0.5 / mult, mult), (0.5, 1)))
        assert fam.atoms == ((0.5 / mult, mult), (0.5, 1))


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


def _self_int_comparisons(source: str) -> int:
    """How many comparisons in `source` set a value against its own int()."""
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            casts = {ast.dump(op.args[0]) for op in operands
                     if isinstance(op, ast.Call) and isinstance(op.func, ast.Name)
                     and op.func.id == "int" and len(op.args) == 1}
            count += sum(ast.dump(op) in casts for op in operands)
    return count


def test_whole_number_rule_is_defined_in_core():
    # `x != int(x)` is the whole-number test; every size goes through the one
    # copy in `core._whole`, so no entry can check a size more loosely
    package = pathlib.Path(l1minimax.__file__).parent
    counts = {path.stem: _self_int_comparisons(path.read_text(encoding="utf-8"))
              for path in sorted(package.glob("*.py"))}
    assert {name: count for name, count in counts.items() if count} == {"core": 1}
