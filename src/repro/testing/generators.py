"""Test-suite generation procedures — the measure ``M(·)`` over ``Ξ``.

"Clearly, with a given selection criterion a multitude of test suites can be
generated, each being a particular realisation of a given test suite
generation procedure" (§2).  A :class:`SuiteGenerator` is such a procedure:
``sample`` draws a suite with the procedure's probability law.  Generators
that can also *enumerate* their law exactly (finite support with known
probabilities) additionally implement ``enumerate``, unlocking the exact
analytics; the rest raise :class:`NotEnumerableError` and are handled by
Monte Carlo.

Forced *testing* diversity (paper §3.2) is simply using two different
generator objects for the two channels.
"""

from __future__ import annotations

import abc
import itertools
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from ..demand import DemandPartition, DemandSpace, UsageProfile
from ..errors import ModelError, NotEnumerableError, ProbabilityError
from ..rng import InverseCdf, as_generator, inverse_cdf_indices, spawn_many
from ..types import SeedLike
from .suite import TestSuite

__all__ = [
    "SuiteGenerator",
    "OperationalSuiteGenerator",
    "WithoutReplacementGenerator",
    "PartitionCoverageGenerator",
    "WeightedDebugGenerator",
    "ExhaustiveSuiteGenerator",
    "EnumerableSuiteGenerator",
    "demand_sequences_to_counts",
]

_SUM_TOLERANCE = 1e-9

#: padding value marking unused tail positions in a demand-sequence block
SEQUENCE_PAD = -1


def demand_sequences_to_counts(sequences: np.ndarray, n_demands: int) -> np.ndarray:
    """Per-demand occurrence counts from a padded demand-sequence block.

    ``sequences`` is an int ``[count, length]`` matrix of demand indices with
    ``-1`` marking padding (rows may encode suites of different lengths).
    Returns the int64 ``[count, n_demands]`` matrix whose entry ``(r, x)`` is
    the number of times suite ``r`` executes demand ``x`` — the suite
    representation of the imperfect-testing batch kernels, where repeats are
    *not* ineffective (each execution is another detection opportunity).
    """
    seqs = np.asarray(sequences, dtype=np.int64)
    if seqs.ndim != 2:
        raise ModelError(f"sequence block must be 2-D, got shape {seqs.shape}")
    rows, cols = np.nonzero(seqs >= 0)
    demands = seqs[rows, cols]
    if demands.size and demands.max() >= n_demands:
        raise ModelError(
            f"sequence block contains demands outside space of size {n_demands}"
        )
    flat = np.bincount(
        rows * n_demands + demands, minlength=seqs.shape[0] * n_demands
    )
    return flat.reshape(seqs.shape[0], n_demands)


def _profile_demand_masks(
    profile: UsageProfile,
    size: int,
    space: DemandSpace,
    count: int,
    rng: SeedLike,
) -> np.ndarray:
    """``count`` i.i.d. profile-drawn suites of ``size`` as demand masks.

    Shared kernel of the operational and debug generators' batched draws:
    one ``(count, size)`` inverse-CDF block scattered into a boolean
    ``(count, space)`` membership matrix.
    """
    if count < 0:
        raise ModelError(f"count must be non-negative, got {count}")
    masks = np.zeros((count, space.size), dtype=bool)
    if count and size:
        demands = profile.sample(as_generator(rng), size=(count, size))
        np.put_along_axis(masks, demands, True, axis=1)
    return masks


def _profile_demand_sequences(
    profile: UsageProfile,
    size: int,
    count: int,
    rng: SeedLike,
) -> np.ndarray:
    """``count`` i.i.d. profile-drawn suites of ``size`` as ordered sequences."""
    if count < 0:
        raise ModelError(f"count must be non-negative, got {count}")
    if count == 0 or size == 0:
        return np.empty((count, size), dtype=np.int64)
    return np.asarray(
        profile.sample(as_generator(rng), size=(count, size)), dtype=np.int64
    )


class SuiteGenerator(abc.ABC):
    """Abstract test-suite generation procedure over a demand space."""

    def __init__(self, space: DemandSpace) -> None:
        self._space = space

    @property
    def space(self) -> DemandSpace:
        """The demand space suites are drawn from."""
        return self._space

    @abc.abstractmethod
    def sample(self, rng: SeedLike = None) -> TestSuite:
        """Draw one suite according to the generation measure ``M``."""

    def sample_many(self, count: int, rng: SeedLike = None) -> List[TestSuite]:
        """Draw ``count`` independent suites.

        This is the library primitive behind the *independent test suites*
        regimes (paper §3.1): each suite comes from its own spawned stream.
        """
        generator = as_generator(rng)
        return [self.sample(stream) for stream in spawn_many(generator, count)]

    def sample_demand_masks(self, count: int, rng: SeedLike = None) -> np.ndarray:
        """Draw ``count`` independent suites as demand-membership masks.

        Returns a boolean ``[count, space.size]`` matrix whose row ``r`` is
        :meth:`TestSuite.mask` of the ``r``-th draw — the suite
        representation of the batch Monte-Carlo engine, sufficient for all
        perfect-oracle analyses (where only demand membership matters).
        The default loops :meth:`sample`; generators with vectorisable
        measures override it with a single block draw.
        """
        if count < 0:
            raise ModelError(f"count must be non-negative, got {count}")
        masks = np.zeros((count, self._space.size), dtype=bool)
        generator = as_generator(rng)
        for row, stream in enumerate(spawn_many(generator, count)):
            masks[row, self.sample(stream).unique_demands] = True
        return masks

    def sample_demand_sequences(self, count: int, rng: SeedLike = None) -> np.ndarray:
        """Draw ``count`` independent suites as ordered demand sequences.

        Returns an int64 ``[count, max_length]`` matrix whose row ``r`` is
        the ``r``-th drawn suite in execution order, right-padded with
        ``-1`` when suites differ in length.  This is the suite
        representation of the *order-dependent* batch kernels — back-to-back
        testing replays demands left to right, so membership masks are not
        enough.  The default loops :meth:`sample`; generators with
        vectorisable measures override it with a single block draw.
        """
        if count < 0:
            raise ModelError(f"count must be non-negative, got {count}")
        generator = as_generator(rng)
        suites = [self.sample(stream) for stream in spawn_many(generator, count)]
        width = max((len(suite) for suite in suites), default=0)
        out = np.full((count, width), SEQUENCE_PAD, dtype=np.int64)
        for row, suite in enumerate(suites):
            out[row, : len(suite)] = suite.demands
        return out

    def sample_demand_counts(self, count: int, rng: SeedLike = None) -> np.ndarray:
        """Draw ``count`` independent suites as demand occurrence counts.

        Returns the int64 ``[count, space.size]`` matrix whose entry
        ``(r, x)`` counts how often suite ``r`` executes demand ``x`` — the
        representation of the imperfect-oracle/imperfect-fixing batch
        kernels, where each execution of a failing demand is an independent
        detection opportunity (so multiplicity matters, unlike the
        perfect-oracle mask representation).
        """
        return demand_sequences_to_counts(
            self.sample_demand_sequences(count, rng), self._space.size
        )

    def enumerate(self) -> Iterable[Tuple[TestSuite, float]]:
        """Yield ``(suite, probability)`` when the measure is enumerable.

        Raises
        ------
        NotEnumerableError
            By default; enumerable generators override.
        """
        raise NotEnumerableError(
            f"{type(self).__name__} does not support exact enumeration"
        )


class OperationalSuiteGenerator(SuiteGenerator):
    """Suites of ``n`` i.i.d. draws from the operational profile ``Q``.

    The paper's primary test model: "if operational reliability is targeted
    the test suites are generated using the expected operational profile".
    With this law, a fault with region mass ``q = Q(R_f)`` survives a random
    suite with probability ``(1 - q)**n`` — the hook the exact analytics
    use.
    """

    def __init__(self, profile: UsageProfile, size: int) -> None:
        super().__init__(profile.space)
        if size < 0:
            raise ModelError(f"suite size must be >= 0, got {size}")
        self._profile = profile
        self._size = size

    @property
    def profile(self) -> UsageProfile:
        """The operational profile suites draw from."""
        return self._profile

    @property
    def size(self) -> int:
        """Number of demands per suite."""
        return self._size

    def sample(self, rng: SeedLike = None) -> TestSuite:
        generator = as_generator(rng)
        if self._size == 0:
            return TestSuite.empty(self._space)
        demands = self._profile.sample(generator, size=self._size)
        return TestSuite(self._space, demands)

    def sample_demand_masks(self, count: int, rng: SeedLike = None) -> np.ndarray:
        """All ``count`` suites in one ``(count, size)`` i.i.d. profile draw."""
        return _profile_demand_masks(
            self._profile, self._size, self._space, count, rng
        )

    def sample_demand_sequences(self, count: int, rng: SeedLike = None) -> np.ndarray:
        """All ``count`` suites as one ``(count, size)`` ordered block draw."""
        return _profile_demand_sequences(self._profile, self._size, count, rng)

    def with_size(self, size: int) -> "OperationalSuiteGenerator":
        """Same profile, different suite size — used by growth sweeps."""
        return OperationalSuiteGenerator(self._profile, size)


class WithoutReplacementGenerator(SuiteGenerator):
    """Suites of ``n`` distinct demands, weighted by a profile.

    Models testers who never repeat a test case.  For ``n`` approaching the
    space size this approaches exhaustive testing.
    """

    def __init__(self, profile: UsageProfile, size: int) -> None:
        super().__init__(profile.space)
        if not 0 <= size <= profile.space.size:
            raise ModelError(
                f"suite size must be in 0..{profile.space.size}, got {size}"
            )
        if size > int(np.count_nonzero(profile.probabilities > 0)):
            raise ModelError(
                "suite size exceeds the number of demands with positive "
                "probability"
            )
        self._profile = profile
        self._size = size

    @property
    def size(self) -> int:
        """Number of distinct demands per suite."""
        return self._size

    def sample(self, rng: SeedLike = None) -> TestSuite:
        generator = as_generator(rng)
        if self._size == 0:
            return TestSuite.empty(self._space)
        demands = generator.choice(
            self._space.size,
            size=self._size,
            replace=False,
            p=self._profile.probabilities,
        )
        return TestSuite(self._space, demands)


class PartitionCoverageGenerator(SuiteGenerator):
    """One (or more) demands per partition block — partition testing.

    Guarantees every block is exercised; within a block demands are drawn
    from the restricted operational profile.  Partition testing is a
    standard "debug-goal" procedure whose measure differs from operational
    testing — exactly the raw material for forced testing diversity.
    """

    def __init__(
        self,
        partition: DemandPartition,
        profile: UsageProfile,
        per_block: int = 1,
    ) -> None:
        super().__init__(partition.space)
        partition.space.require_same(profile.space)
        if per_block < 1:
            raise ModelError(f"per_block must be >= 1, got {per_block}")
        self._partition = partition
        self._profile = profile
        self._per_block = per_block
        self._block_profiles = []
        for block in partition.blocks():
            weights = np.zeros(partition.space.size)
            weights[block] = np.maximum(profile.probabilities[block], 1e-300)
            self._block_profiles.append(
                UsageProfile.normalised(partition.space, weights)
            )

    def sample(self, rng: SeedLike = None) -> TestSuite:
        generator = as_generator(rng)
        picks = [
            block_profile.sample(generator, size=self._per_block)
            for block_profile in self._block_profiles
        ]
        return TestSuite(self._space, np.concatenate(picks))


class WeightedDebugGenerator(SuiteGenerator):
    """Suites drawn from a debug profile distinct from the usage profile.

    "If debugging is targeted the test suite is generated according to what
    the debugger believes maximises the chances of finding faults" (§2).
    The debug profile typically up-weights suspected failure regions.
    """

    def __init__(self, debug_profile: UsageProfile, size: int) -> None:
        super().__init__(debug_profile.space)
        if size < 0:
            raise ModelError(f"suite size must be >= 0, got {size}")
        self._debug_profile = debug_profile
        self._size = size

    @property
    def debug_profile(self) -> UsageProfile:
        """The profile the debugger samples from (distinct from usage)."""
        return self._debug_profile

    @property
    def size(self) -> int:
        """Number of demands per generated suite."""
        return self._size

    @classmethod
    def biased_towards(
        cls,
        profile: UsageProfile,
        hot_demands: Sequence[int] | np.ndarray,
        boost: float,
        size: int,
    ) -> "WeightedDebugGenerator":
        """Debug profile = usage profile with ``hot_demands`` boosted ×``boost``."""
        if boost <= 0:
            raise ProbabilityError(f"boost must be > 0, got {boost}")
        weights = profile.probabilities.copy()
        hot = profile.space.validate_demands(hot_demands)
        weights[hot] *= boost
        return cls(UsageProfile.normalised(profile.space, weights), size)

    def sample(self, rng: SeedLike = None) -> TestSuite:
        generator = as_generator(rng)
        if self._size == 0:
            return TestSuite.empty(self._space)
        demands = self._debug_profile.sample(generator, size=self._size)
        return TestSuite(self._space, demands)

    def sample_demand_masks(self, count: int, rng: SeedLike = None) -> np.ndarray:
        """All ``count`` suites in one ``(count, size)`` debug-profile draw."""
        return _profile_demand_masks(
            self._debug_profile, self._size, self._space, count, rng
        )

    def sample_demand_sequences(self, count: int, rng: SeedLike = None) -> np.ndarray:
        """All ``count`` suites as one ``(count, size)`` ordered block draw."""
        return _profile_demand_sequences(self._debug_profile, self._size, count, rng)


class ExhaustiveSuiteGenerator(SuiteGenerator):
    """The degenerate measure putting all mass on the exhaustive suite.

    Under perfect detection and fixing, exhaustive testing removes every
    fault — the limit in which the paper's back-to-back worst case makes
    the versions "fail identically" (here: not at all, unless detection is
    imperfect).
    """

    def sample(self, rng: SeedLike = None) -> TestSuite:
        return TestSuite(self._space, self._space.demands)

    def sample_demand_masks(self, count: int, rng: SeedLike = None) -> np.ndarray:
        """Every suite covers every demand — an all-True block."""
        if count < 0:
            raise ModelError(f"count must be non-negative, got {count}")
        return np.ones((count, self._space.size), dtype=bool)

    def sample_demand_sequences(self, count: int, rng: SeedLike = None) -> np.ndarray:
        """Every suite is the full demand space in index order."""
        if count < 0:
            raise ModelError(f"count must be non-negative, got {count}")
        return np.tile(
            np.asarray(self._space.demands, dtype=np.int64), (count, 1)
        )

    def enumerate(self) -> Iterable[Tuple[TestSuite, float]]:
        yield TestSuite(self._space, self._space.demands), 1.0


class EnumerableSuiteGenerator(SuiteGenerator):
    """An explicit finite measure ``M`` — suites with listed probabilities.

    The exact-analytics workhorse: expectations over ``Ξ`` (eqs. (12), (14),
    (20), (21)) become finite sums.  Also the natural encoding of scripted
    test campaigns where the possible suites are known in advance.
    """

    def __init__(
        self,
        space: DemandSpace,
        suites: Sequence[TestSuite],
        probabilities: Sequence[float] | np.ndarray,
    ) -> None:
        super().__init__(space)
        suites = list(suites)
        if not suites:
            raise ModelError("enumerable generator needs at least one suite")
        for index, suite in enumerate(suites):
            space.require_same(suite.space)
        probs = np.asarray(probabilities, dtype=np.float64)
        if probs.shape != (len(suites),):
            raise ModelError(
                f"got {len(suites)} suites but probability vector of shape "
                f"{probs.shape}"
            )
        if np.any(probs < 0.0) or np.any(~np.isfinite(probs)):
            raise ProbabilityError("suite probabilities must be finite and >= 0")
        if abs(float(probs.sum()) - 1.0) > _SUM_TOLERANCE:
            raise ProbabilityError(
                f"suite probabilities must sum to 1, got {probs.sum():.12f}"
            )
        self._suites = suites
        self._probs = probs
        self._cdf = InverseCdf(np.cumsum(probs))
        self._mask_table: np.ndarray | None = None
        self._sequence_table: np.ndarray | None = None

    @classmethod
    def uniform_over(
        cls, space: DemandSpace, suites: Sequence[TestSuite]
    ) -> "EnumerableSuiteGenerator":
        """Equal probability over the listed suites."""
        suites = list(suites)
        return cls(space, suites, np.full(len(suites), 1.0 / len(suites)))

    @classmethod
    def all_subsets(
        cls, profile: UsageProfile, size: int
    ) -> "EnumerableSuiteGenerator":
        """All ``size``-subsets of the demand space, probability ∝ product of ``Q``.

        An exactly enumerable analogue of without-replacement sampling for
        tiny spaces (the combinatorics explode quickly; intended for
        ground-truth tests only).
        """
        space = profile.space
        suites = []
        weights = []
        for combo in itertools.combinations(range(space.size), size):
            suites.append(TestSuite.of(space, combo))
            weights.append(float(np.prod(profile.probabilities[list(combo)])))
        weight_array = np.asarray(weights)
        total = weight_array.sum()
        if total <= 0:
            raise ProbabilityError("no subset has positive probability")
        return cls(space, suites, weight_array / total)

    def __len__(self) -> int:
        return len(self._suites)

    def sample(self, rng: SeedLike = None) -> TestSuite:
        return self._suites[inverse_cdf_indices(self._cdf, rng)]

    def sample_demand_masks(self, count: int, rng: SeedLike = None) -> np.ndarray:
        """Gather ``count`` rows from a cached per-suite mask table."""
        if count < 0:
            raise ModelError(f"count must be non-negative, got {count}")
        if self._mask_table is None:
            self._mask_table = np.stack([suite.mask() for suite in self._suites])
        return self._mask_table[inverse_cdf_indices(self._cdf, rng, count)]

    def sample_demand_sequences(self, count: int, rng: SeedLike = None) -> np.ndarray:
        """Gather ``count`` rows from a cached padded per-suite sequence table."""
        if count < 0:
            raise ModelError(f"count must be non-negative, got {count}")
        if self._sequence_table is None:
            width = max(len(suite) for suite in self._suites)
            table = np.full((len(self._suites), width), SEQUENCE_PAD, dtype=np.int64)
            for row, suite in enumerate(self._suites):
                table[row, : len(suite)] = suite.demands
            self._sequence_table = table
        return self._sequence_table[inverse_cdf_indices(self._cdf, rng, count)]

    def enumerate(self) -> Iterable[Tuple[TestSuite, float]]:
        """Yield every ``(suite, probability)`` pair of the measure."""
        return zip(list(self._suites), self._probs.tolist())
