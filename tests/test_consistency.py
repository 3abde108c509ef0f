import numpy as np
import pytest

from crfe.consistency import (
    SubsetFamily,
    jaccard_multi,
    kuncheva,
    weighted_consistency,
)
from crfe.exceptions import InvalidCardinalityError, InvalidFamilyError
from oracles import kuncheva_family, weighted_consistency as oracle_weighted


FAMILY = SubsetFamily(subsets=({1, 2}, {1, 2}, {1, 3}))


def test_family_validation():
    with pytest.raises(InvalidFamilyError):
        SubsetFamily(subsets=())
    with pytest.raises(InvalidFamilyError):
        SubsetFamily(subsets=({1}, set()))


def test_jaccard_multi_fixture():
    assert jaccard_multi(FAMILY) == pytest.approx(1 / 3)
    assert jaccard_multi(SubsetFamily(subsets=({0, 1}, {0, 1}))) == 1.0
    assert jaccard_multi(SubsetFamily(subsets=({0}, {1}))) == 0.0


def test_weighted_consistency_fixture():
    # majority counts j in {2, 3}; weights 2/5 and 3/5; union has 3 features;
    # 2 features reach two subsets, 1 reaches all three
    assert weighted_consistency(FAMILY) == pytest.approx(7 / 15, abs=1e-15)


def test_weighted_consistency_universe_denominator():
    # the universe form lives in the oracle; its union form is the package's
    assert oracle_weighted(FAMILY) == pytest.approx(weighted_consistency(FAMILY), abs=1e-15)
    assert oracle_weighted(FAMILY, denominator="universe", universe_size=5) == (
        pytest.approx(7 / 25, abs=1e-15)
    )
    with pytest.raises(InvalidFamilyError):
        oracle_weighted(FAMILY, denominator="universe", universe_size=2)
    with pytest.raises(InvalidFamilyError):
        oracle_weighted(FAMILY, denominator="nope")


def test_weighted_equals_jaccard_for_pairs():
    rng = np.random.default_rng(0)
    for trial in range(200):
        u = int(rng.integers(2, 12))
        a = set(rng.choice(u, size=int(rng.integers(1, u + 1)), replace=False).tolist())
        b = set(rng.choice(u, size=int(rng.integers(1, u + 1)), replace=False).tolist())
        fam = SubsetFamily(subsets=(a, b))
        assert weighted_consistency(fam) == pytest.approx(jaccard_multi(fam), abs=1e-12)


def test_weighted_identical_family_is_one():
    fam = SubsetFamily(subsets=({2, 4, 7},) * 5)
    assert weighted_consistency(fam) == pytest.approx(1.0, abs=1e-15)


def test_kuncheva_fixture():
    # overlap 3 of 5 picks in a 10-feature universe
    assert kuncheva({0, 1, 2, 3, 4}, {2, 3, 4, 8, 9}, 10) == pytest.approx(0.2)


def test_kuncheva_identities():
    rng = np.random.default_rng(1)
    for trial in range(100):
        s = int(rng.integers(3, 20))
        k = int(rng.integers(1, s))
        a = frozenset(rng.choice(s, size=k, replace=False).tolist())
        assert kuncheva(a, a, s) == pytest.approx(1.0)
    # disjoint subsets score -k/(s-k)
    assert kuncheva({0, 1}, {2, 3}, 6) == pytest.approx(-2 / 4)


def test_kuncheva_validation():
    with pytest.raises(InvalidCardinalityError):
        kuncheva({0, 1}, {0}, 5)
    with pytest.raises(InvalidCardinalityError):
        kuncheva({0, 1, 2}, {0, 1, 2}, 3)  # kappa == s
    with pytest.raises(InvalidCardinalityError):
        kuncheva(set(), set(), 3)


def test_kuncheva_family_mean_of_pairs():
    fam = SubsetFamily(subsets=({0, 1}, {0, 1}, {2, 3}))
    # pairs: (1.0, -2/4, -2/4) over s=6
    assert kuncheva_family(fam, 6) == pytest.approx((1.0 - 0.5 - 0.5) / 3)
    with pytest.raises(InvalidFamilyError):
        kuncheva_family(SubsetFamily(subsets=({0, 1},)), 6)
