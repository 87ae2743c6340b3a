"""Explicit finite population — a fully enumerable measure ``S(·)``.

For small models every expectation in the paper can be computed by direct
summation over ``℘`` (and, with an enumerable suite measure, over ``Ξ``).
The enumeration engine in :mod:`repro.analytic.enumeration` uses this class
to produce ground-truth values against which both the Bernoulli closed
forms and the Monte-Carlo estimates are tested.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np

from ..errors import EmptyPopulationError, ModelError, ProbabilityError
from ..faults import FaultUniverse
from ..rng import InverseCdf, inverse_cdf_indices
from ..types import SeedLike
from ..versions import Version
from .base import VersionPopulation

__all__ = ["FinitePopulation"]

_SUM_TOLERANCE = 1e-9


class FinitePopulation(VersionPopulation):
    """A finite set of versions with explicit selection probabilities.

    Parameters
    ----------
    universe:
        Shared fault universe.
    versions:
        The distinct versions in the support of ``S``.
    probabilities:
        Selection probability of each version; must sum to one.

    Notes
    -----
    Duplicated versions in ``versions`` are rejected — a measure assigns one
    probability per distinct program; merge duplicates before construction.
    """

    def __init__(
        self,
        universe: FaultUniverse,
        versions: Sequence[Version],
        probabilities: Sequence[float] | np.ndarray,
    ) -> None:
        super().__init__(universe)
        versions = list(versions)
        if not versions:
            raise EmptyPopulationError("finite population needs at least one version")
        for index, version in enumerate(versions):
            if version.universe is not universe:
                raise ModelError(
                    f"version {index} belongs to a different fault universe"
                )
        keys = {version.fault_ids.tobytes() for version in versions}
        if len(keys) != len(versions):
            raise ModelError("duplicate versions in finite population support")
        probs = np.asarray(probabilities, dtype=np.float64)
        if probs.shape != (len(versions),):
            raise ModelError(
                f"got {len(versions)} versions but probability vector of "
                f"shape {probs.shape}"
            )
        if np.any(probs < 0.0) or np.any(~np.isfinite(probs)):
            raise ProbabilityError("selection probabilities must be finite and >= 0")
        if abs(float(probs.sum()) - 1.0) > _SUM_TOLERANCE:
            raise ProbabilityError(
                f"selection probabilities must sum to 1, got {probs.sum():.12f}"
            )
        self._versions = versions
        self._probs = probs
        self._cdf = InverseCdf(np.cumsum(probs))
        self._presence_table: np.ndarray | None = None

    @classmethod
    def uniform_over(
        cls, universe: FaultUniverse, versions: Sequence[Version]
    ) -> "FinitePopulation":
        """Equal selection probability over the given versions."""
        count = len(list(versions))
        if count == 0:
            raise EmptyPopulationError("finite population needs at least one version")
        return cls(universe, versions, np.full(count, 1.0 / count))

    @property
    def versions(self) -> List[Version]:
        """The support of the measure (copy)."""
        return list(self._versions)

    @property
    def probabilities(self) -> np.ndarray:
        """Selection probabilities (copy)."""
        return self._probs.copy()

    def __len__(self) -> int:
        return len(self._versions)

    def sample(self, rng: SeedLike = None) -> Version:
        """Draw one version according to the selection probabilities."""
        return self._versions[inverse_cdf_indices(self._cdf, rng)]

    def sample_fault_matrix(self, count: int, rng: SeedLike = None) -> np.ndarray:
        """Draw ``count`` versions as presence rows gathered from the support.

        One inverse-CDF draw selects all ``count`` support indices; the
        result rows are gathered from a cached ``[support, n_faults]``
        presence table, so the batch engine never touches Version objects.
        """
        if count < 0:
            raise ModelError(f"count must be non-negative, got {count}")
        if self._presence_table is None:
            table = np.zeros((len(self._versions), len(self._universe)), dtype=bool)
            for row, version in enumerate(self._versions):
                table[row, version.fault_ids] = True
            self._presence_table = table
        return self._presence_table[inverse_cdf_indices(self._cdf, rng, count)]

    def enumerate(self) -> Iterable[Tuple[Version, float]]:
        """Yield every ``(version, probability)`` pair."""
        return zip(list(self._versions), self._probs.tolist())

    def difficulty(self) -> np.ndarray:
        """Exact ``theta(x)`` by direct summation over the support."""
        theta = np.zeros(self.space.size, dtype=np.float64)
        for version, probability in self.enumerate():
            theta += probability * version.failure_mask
        return theta

    def tested_difficulty(
        self, suite_demands: Sequence[int] | np.ndarray
    ) -> np.ndarray:
        """Exact ``xi(x, t)`` by summing post-test failure masks.

        Each support version is put through perfect testing with the fixed
        suite (faults triggered by the suite removed) and the resulting
        failure masks are averaged under ``S``.
        """
        triggered = self._universe.triggered_by(suite_demands)
        xi = np.zeros(self.space.size, dtype=np.float64)
        for version, probability in self.enumerate():
            tested = version.without_faults(triggered)
            xi += probability * tested.failure_mask
        return xi

    def score_expectation(self, demand: int) -> float:
        """``E_S[υ(Π, x)]`` for one demand — scalar form of eq. (1)."""
        demand = self.space.validate_demand(demand)
        return float(self.difficulty()[demand])
