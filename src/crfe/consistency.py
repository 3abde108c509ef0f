"""Agreement indices for families of selected feature subsets.

Quantifies how stable a selector is across resampled runs: the multi-set
Jaccard index, a weighted index that credits features recurring in a
majority of runs, and the chance-corrected pairwise index for
equal-cardinality subsets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidCardinalityError, InvalidFamilyError


@dataclass(frozen=True, eq=False)
class SubsetFamily:
    """A non-empty collection of non-empty feature-index subsets."""

    subsets: tuple[frozenset[int], ...]

    def __post_init__(self):
        subs = tuple(frozenset(int(j) for j in s) for s in self.subsets)
        if not subs:
            raise InvalidFamilyError("family holds no subsets")
        if any(len(s) == 0 for s in subs):
            raise InvalidFamilyError("family holds an empty subset")
        object.__setattr__(self, "subsets", subs)

    @property
    def n(self) -> int:
        return len(self.subsets)

    def union(self) -> frozenset[int]:
        out: frozenset[int] = frozenset()
        for s in self.subsets:
            out |= s
        return out

    def intersection(self) -> frozenset[int]:
        out = self.subsets[0]
        for s in self.subsets[1:]:
            out &= s
        return out


def jaccard_multi(family: SubsetFamily) -> float:
    """|intersection| / |union| over the whole family."""
    return len(family.intersection()) / len(family.union())


def weighted_consistency(family: SubsetFamily) -> float:
    """Weighted majority-recurrence index.

    For a family of n subsets, let C_j be the number of features that
    appear in at least j of them. Only the majority counts
    j in {floor(n/2)+1, ..., n} contribute; count j gets weight
    proportional to j and the fractions C_j / |union| sum up. Equals the
    Jaccard index when n = 2.
    """
    occur: dict[int, int] = {}
    for s in family.subsets:
        for j in s:
            occur[j] = occur.get(j, 0) + 1
    n = family.n
    js = np.arange(n // 2 + 1, n + 1)
    weights = js / js.sum()
    counts = np.array([sum(1 for c in occur.values() if c >= j) for j in js])
    return float((weights * counts / len(family.union())).sum())


def kuncheva(a, b, universe_size: int) -> float:
    """Chance-corrected overlap of two equal-size subsets.

    With r = |a & b|, kappa = |a| = |b| and s the universe size:
    (r s - kappa^2) / (kappa (s - kappa)). 1 for identical subsets; 0 in
    expectation for independent uniform draws.
    """
    a = frozenset(int(j) for j in a)
    b = frozenset(int(j) for j in b)
    kappa = len(a)
    if len(b) != kappa:
        raise InvalidCardinalityError("subsets must share one cardinality")
    if kappa == 0 or kappa >= universe_size:
        raise InvalidCardinalityError("cardinality must satisfy 0 < kappa < s")
    r = len(a & b)
    return (r * universe_size - kappa * kappa) / (kappa * (universe_size - kappa))
