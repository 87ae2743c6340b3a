"""The fault universe: every fault a version might contain.

The Bernoulli population model (``repro.populations.bernoulli``) draws a
version as a random subset of a :class:`FaultUniverse`.  The universe also
precomputes the dense fault-by-demand coverage matrix that all vectorised
analytics (difficulty functions, inclusion-exclusion closed forms, testing
closure) operate on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Sequence

import numpy as np

from ..demand import DemandSpace
from ..errors import IncompatibleSpaceError, ModelError
from ..types import as_index_array
from .fault import Fault

__all__ = ["FLOAT32_EXACT_BOUND", "FaultUniverse", "require_float32_exact"]

#: float32 holds every integer up to 2**24 exactly, so a float32 product
#: of 0/1 or count matrices is exact (in any summation order, fused or
#: not) while every dot product stays below this bound
FLOAT32_EXACT_BOUND = 1 << 24

#: elements per float32 operand or result block of those products; the
#: products are exact, so how the rows are split cannot change a result
_PRODUCT_BLOCK = 1 << 18


def require_float32_exact(bound: int, what: str) -> None:
    """Raise :class:`ModelError` unless dot products ``<= bound`` are exact.

    ``bound`` is a cap on every dot product of a float32 product, derived
    from shapes (a 0/1 operand of width ``w`` caps it at ``w``) or from
    known suite lengths; the products never round silently.
    """
    if bound >= FLOAT32_EXACT_BOUND:
        raise ModelError(
            f"{what} of {bound} reaches 2**24, beyond which float32 "
            "products of 0/1 and count matrices are no longer exact"
        )


@dataclass(frozen=True)
class FaultUniverse:
    """An immutable, indexed collection of faults over one demand space.

    Parameters
    ----------
    space:
        The shared demand space.
    faults:
        Faults with identifiers ``0 .. len(faults)-1`` in order.  The
        constructor enforces the identifier convention so that boolean
        fault-presence vectors index consistently everywhere.
    """

    space: DemandSpace
    faults: tuple
    _coverage: np.ndarray = field(init=False, repr=False, compare=False)
    _coverage_f32: np.ndarray | None = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self) -> None:
        faults = tuple(self.faults)
        for index, fault in enumerate(faults):
            if not isinstance(fault, Fault):
                raise ModelError(f"item {index} is not a Fault: {fault!r}")
            self.space.require_same(fault.space)
            if fault.identifier != index:
                raise ModelError(
                    f"fault at position {index} has identifier "
                    f"{fault.identifier}; identifiers must equal positions"
                )
        object.__setattr__(self, "faults", faults)
        if faults:
            coverage = np.stack([fault.mask for fault in faults])
        else:
            coverage = np.zeros((0, self.space.size), dtype=bool)
        object.__setattr__(self, "_coverage", coverage)

    @classmethod
    def from_regions(
        cls, space: DemandSpace, regions: Sequence[Sequence[int] | np.ndarray]
    ) -> "FaultUniverse":
        """Build a universe from raw failure regions (identifiers assigned)."""
        faults = tuple(
            Fault(space, np.asarray(region), identifier=index)
            for index, region in enumerate(regions)
        )
        return cls(space, faults)

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self) -> Iterator[Fault]:
        return iter(self.faults)

    def __getitem__(self, index: int) -> Fault:
        return self.faults[index]

    @property
    def coverage(self) -> np.ndarray:
        """Boolean matrix ``[n_faults, n_demands]``; row ``f`` is fault ``f``'s region."""
        return self._coverage

    def faults_covering(self, demand: int) -> np.ndarray:
        """Identifiers of faults whose region contains ``demand``.

        This is the paper's ``O_x`` for the *maximal* version containing
        every fault; an actual version's ``O_x`` is the intersection with
        its fault set.
        """
        demand = self.space.validate_demand(demand)
        return np.flatnonzero(self._coverage[:, demand]).astype(np.int64)

    def coverage_counts(self) -> np.ndarray:
        """Per-demand count of faults covering each demand."""
        return self._coverage.sum(axis=0).astype(np.int64)

    def triggered_by(self, demands: Sequence[int] | np.ndarray) -> np.ndarray:
        """Identifiers of faults triggered by any demand in ``demands``.

        Under a perfect oracle and perfect fixing, these are exactly the
        faults that testing with suite ``demands`` removes from any version
        containing them.
        """
        demands = self.space.validate_demands(demands)
        if demands.size == 0:
            return np.empty(0, dtype=np.int64)
        hit = self._coverage[:, demands].any(axis=1)
        return np.flatnonzero(hit).astype(np.int64)

    def coverage_float32(self) -> np.ndarray:
        """The coverage matrix as float32 0/1, cached for the batch kernels.

        Chunked batch runs take :meth:`triggered_matrix`,
        :meth:`failure_matrix` and :meth:`hit_counts` once per chunk;
        converting the fixed coverage matrix each time would be pure
        repeated work.  float32 rather than float64: every product against
        it is a sum of non-negative integers, exact below 2**24 — which
        the demand-space and universe sizes are checked against here, once
        — and sgemm moves half the bytes of dgemm.
        """
        if self._coverage_f32 is None:
            require_float32_exact(self.space.size, "demand space size")
            require_float32_exact(len(self.faults), "universe size")
            matrix = self._coverage.astype(np.float32)
            matrix.flags.writeable = False
            object.__setattr__(self, "_coverage_f32", matrix)
        return self._coverage_f32

    def triggered_matrix(self, suite_masks: np.ndarray) -> np.ndarray:
        """Batched :meth:`triggered_by`: which faults each suite triggers.

        Parameters
        ----------
        suite_masks:
            Boolean matrix ``[n_suites, n_demands]``; row ``r`` is the
            demand-membership mask of suite ``r``.

        Returns
        -------
        Boolean matrix ``[n_suites, n_faults]`` where entry ``(r, f)`` is
        True iff suite ``r`` exercises at least one demand of fault ``f``'s
        region.  This is the perfect-oracle testing closure as one matrix
        product: the hot kernel of the batch Monte-Carlo engine.
        """
        masks = np.asarray(suite_masks, dtype=bool)
        if masks.ndim != 2 or masks.shape[1] != self.space.size:
            raise IncompatibleSpaceError(
                f"suite masks of shape {masks.shape} do not match demand "
                f"space size {self.space.size}"
            )
        if not len(self.faults):
            return np.zeros((masks.shape[0], 0), dtype=bool)
        # float matmul routes through BLAS, which is far faster than any
        # boolean reduction over the (suites, faults, demands) cube; each
        # entry counts demands, at most the (checked) space size
        triggered = np.empty((masks.shape[0], len(self.faults)), dtype=bool)
        for rows, hits in self._products(masks, self.coverage_float32().T):
            np.greater(hits, 0.5, out=triggered[rows])
        return triggered

    def failure_matrix(self, presence: np.ndarray) -> np.ndarray:
        """Per-version failure masks from a batch of fault-presence rows.

        Parameters
        ----------
        presence:
            Boolean matrix ``[n_versions, n_faults]``; row ``r`` marks the
            faults version ``r`` contains.

        Returns
        -------
        Boolean matrix ``[n_versions, n_demands]`` where entry ``(r, x)``
        is True iff version ``r`` fails on demand ``x`` — the batched form
        of :attr:`repro.versions.Version.failure_mask`.
        """
        rows = np.asarray(presence, dtype=bool)
        if rows.ndim != 2 or rows.shape[1] != len(self.faults):
            raise ModelError(
                f"presence matrix of shape {rows.shape} does not match "
                f"universe size {len(self.faults)}"
            )
        if not len(self.faults):
            return np.zeros((rows.shape[0], self.space.size), dtype=bool)
        # each entry counts faults, at most the (checked) universe size
        failing = np.empty((rows.shape[0], self.space.size), dtype=bool)
        for block, hits in self._products(rows, self.coverage_float32()):
            np.greater(hits, 0.5, out=failing[block])
        return failing

    def hit_counts(self, counts: np.ndarray) -> np.ndarray:
        """How often each suite executes a demand of each fault's region.

        Parameters
        ----------
        counts:
            Non-negative integer occurrence counts ``[n_suites, n_demands]``
            — entry ``(r, x)`` is how often suite ``r`` executes demand
            ``x`` (or how many of those executions detected a failure).

        Returns
        -------
        Float64 matrix ``[n_suites, n_faults]`` of exact integer values:
        entry ``(r, f)`` is ``sum_x counts[r, x] * cover(f, x)``, the
        number of removal chances fault ``f`` gets in suite ``r`` — the
        count closure of the §4.1 and coverage-limited batch kernels.
        Computed as one float32 matrix product, exact while every entry
        is below 2**24.  A float32 sum of non-negative integers reads
        below 2**24 exactly when the true sum does (rounding is monotone
        and 2**24 is representable), so the result itself is the check:
        an entry at or above the bound raises :class:`ModelError` instead
        of rounding silently, and no pass over ``counts`` is needed.
        """
        block = np.asarray(counts)
        if block.ndim != 2 or block.shape[1] != self.space.size:
            raise IncompatibleSpaceError(
                f"count block of shape {block.shape} does not match demand "
                f"space size {self.space.size}"
            )
        if not len(self.faults):
            return np.zeros((block.shape[0], 0), dtype=np.float64)
        chances = np.empty((block.shape[0], len(self.faults)), dtype=np.float64)
        for rows, hits in self._products(block, self.coverage_float32().T):
            require_float32_exact(int(hits.max()), "suite hit count")
            chances[rows] = hits
        return chances

    @staticmethod
    def _products(block: np.ndarray, matrix: np.ndarray):
        """``block @ matrix`` as float32, one row block at a time.

        Yields ``(rows, product)`` pairs.  The operands are 0/1 or count
        matrices, so every product entry is an exact integer and the row
        split cannot change a result; it only keeps the float32 copies of
        ``block`` and the product near cache size instead of the size of
        the whole replication block.
        """
        step = max(1, _PRODUCT_BLOCK // max(block.shape[1], matrix.shape[1]))
        for start in range(0, block.shape[0], step):
            rows = slice(start, start + step)
            yield rows, block[rows].astype(np.float32) @ matrix

    def surviving(self, demands: Sequence[int] | np.ndarray) -> np.ndarray:
        """Identifiers of faults *not* triggered by the given demands."""
        demands = self.space.validate_demands(demands)
        if demands.size == 0:
            return np.arange(len(self.faults), dtype=np.int64)
        hit = self._coverage[:, demands].any(axis=1)
        return np.flatnonzero(~hit).astype(np.int64)

    def region_masses(self, probabilities: np.ndarray) -> np.ndarray:
        """Usage mass ``Q(R_f)`` of every region under demand probabilities.

        ``(1 - Q(R_f))**n`` is then the survival probability of fault ``f``
        under an i.i.d. operational suite of ``n`` demands — the basic
        quantity of the exact reliability-growth formulas.
        """
        probs = np.asarray(probabilities, dtype=np.float64)
        if probs.shape != (self.space.size,):
            raise IncompatibleSpaceError(
                f"probability vector length {probs.shape} does not match "
                f"demand space size {self.space.size}"
            )
        return self._coverage @ probs

    def union_mask(self, fault_ids: Sequence[int] | np.ndarray) -> np.ndarray:
        """Boolean demand mask of the union of the given faults' regions."""
        ids = as_index_array(fault_ids)
        if ids.size and (ids[0] < 0 or ids[-1] >= len(self.faults)):
            raise ModelError(
                f"fault ids {ids.tolist()} outside universe of size {len(self.faults)}"
            )
        if ids.size == 0:
            return np.zeros(self.space.size, dtype=bool)
        return self._coverage[ids].any(axis=0)

    def validate_fault_ids(self, fault_ids: Sequence[int] | np.ndarray) -> np.ndarray:
        """Canonicalise fault identifiers against this universe."""
        ids = as_index_array(fault_ids)
        if ids.size and (ids[0] < 0 or ids[-1] >= len(self.faults)):
            bad = ids[(ids < 0) | (ids >= len(self.faults))]
            raise ModelError(
                f"fault ids {bad.tolist()} outside universe of size {len(self.faults)}"
            )
        return ids

    def presence_mask(self, fault_ids: Sequence[int] | np.ndarray) -> np.ndarray:
        """Boolean fault-presence vector from a list of identifiers."""
        mask = np.zeros(len(self.faults), dtype=bool)
        mask[self.validate_fault_ids(fault_ids)] = True
        return mask

    def restrict(self, fault_ids: Sequence[int] | np.ndarray) -> "FaultUniverse":
        """A new universe containing only the given faults (re-identified)."""
        ids = self.validate_fault_ids(fault_ids)
        regions = [self.faults[int(i)].region for i in ids]
        return FaultUniverse.from_regions(self.space, regions)

    def overlap_matrix(self) -> np.ndarray:
        """Pairwise region-overlap counts ``[n_faults, n_faults]``."""
        cov = self._coverage.astype(np.int64)
        return cov @ cov.T

    def describe(self) -> str:
        """One-line human summary used by example scripts."""
        sizes = [fault.size for fault in self.faults] or [0]
        return (
            f"FaultUniverse(n_faults={len(self.faults)}, "
            f"demands={self.space.size}, "
            f"region sizes min/median/max = {min(sizes)}/"
            f"{int(np.median(sizes))}/{max(sizes)})"
        )
