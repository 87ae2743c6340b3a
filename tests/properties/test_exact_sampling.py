"""Property-based tests (hypothesis) for the exact fast paths of the engine.

Two speed-ups sit under every batch run and must never change a result:

* the guided (Chen–Asau) inverse-CDF search of :class:`repro.rng.InverseCdf`
  must return exactly ``min(searchsorted(cdf, u, "right"), D - 1)`` — on the
  scalar, ``size`` and ``uniforms=`` paths of
  :func:`repro.rng.inverse_cdf_indices`, for zero-probability demands
  (repeated cdf entries), a last cdf entry a hair below 1, uniforms exactly
  on cdf entries, ``u = 0``, one-demand spaces and heavily skewed profiles;
* the float32 products behind :meth:`FaultUniverse.triggered_matrix`,
  :meth:`FaultUniverse.failure_matrix`, :meth:`FaultUniverse.hit_counts`
  and the count closures (batch and numpy twin) must equal a pure
  boolean / integer reference, and must refuse loudly where float32 could
  round.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.faults.universe as universe_module
import repro.rng as rng_module
from repro.demand import DemandSpace
from repro.errors import ModelError
from repro.faults import FaultUniverse
from repro.mc.batch import apply_coverage_testing_batch, apply_imperfect_testing_batch
from repro.mc.kernels import _np_imperfect_closure, _np_perfect_closure
from repro.rng import InverseCdf, inverse_cdf_indices


#: a block long enough for every table to take the guided search
GUIDED = rng_module._GUIDE_MIN * (rng_module._MAX_STEPS + 1)


def reference(cdf: np.ndarray, uniforms) -> np.ndarray:
    """The plain binary search the guided search must reproduce."""
    return np.minimum(np.searchsorted(cdf, uniforms, side="right"), len(cdf) - 1)


@st.composite
def cdfs(draw):
    """A cdf with zero-probability demands and an inexact top entry."""
    size = draw(st.integers(min_value=1, max_value=300))
    weights = np.array(
        draw(
            st.lists(
                st.one_of(
                    st.just(0.0),
                    st.floats(min_value=1e-12, max_value=1.0),
                ),
                min_size=size,
                max_size=size,
            )
        )
    )
    if weights.sum() == 0.0:
        weights[draw(st.integers(min_value=0, max_value=size - 1))] = 1.0
    cdf = np.cumsum(weights / weights.sum())
    shift = draw(st.sampled_from([0.0, -1e-12, -1e-15, 1e-15]))
    return cdf * (1.0 + shift)


def edge_uniforms(cdf: np.ndarray) -> np.ndarray:
    """Uniforms on and just around every cdf entry, plus both ends —
    repeated up to a block the guided search (not the small-block binary
    search) handles."""
    edges = np.concatenate(
        [
            cdf,
            np.nextafter(cdf, 0.0),
            np.nextafter(cdf, 2.0),
            [0.0, 1.0, np.nextafter(1.0, 0.0), 5e-324],
            [-5e-324, -0.25, 1.5, 1e300],  # outside [0, 1]: still exact
        ]
    )
    return np.tile(edges, -(-GUIDED // edges.size))


@settings(max_examples=150, deadline=None)
@given(cdfs(), st.integers(min_value=0, max_value=2**32 - 1))
def test_guided_search_matches_binary_search(cdf, seed):
    table = InverseCdf(cdf)
    assert table.steps <= min(len(cdf).bit_length(), rng_module._MAX_STEPS)
    if table._wide is not None:  # the binary-search share the cap promises
        assert table._wide.mean() <= 2.0**-rng_module._MAX_STEPS
    edges = edge_uniforms(cdf)
    # uniforms= path, including values exactly on cdf entries and u = 0
    assert np.array_equal(
        inverse_cdf_indices(table, None, uniforms=edges), reference(cdf, edges)
    )
    # the same uniforms one at a time, and as small blocks
    few = edges[:: max(1, edges.size // 16)]
    assert [int(table.indices(u)) for u in few] == reference(cdf, few).tolist()
    assert [table.index(u) for u in few] == reference(cdf, few).tolist()
    assert np.array_equal(table.indices(few), reference(cdf, few))
    # scalar path on a seeded draw
    drawn = inverse_cdf_indices(table, np.random.default_rng(seed))
    assert isinstance(drawn, int)
    assert drawn == reference(cdf, np.random.default_rng(seed).random())
    # size path, with tuple shapes on both sides of the guided threshold
    for shape in ((7, 5), (2, GUIDED // 2)):
        block = inverse_cdf_indices(table, seed, size=shape)
        assert block.dtype == np.int64 and block.shape == shape
        assert np.array_equal(
            block, reference(cdf, np.random.default_rng(seed).random(shape))
        )
    # a raw cdf builds the same table
    assert np.array_equal(
        inverse_cdf_indices(cdf, None, uniforms=edges), reference(cdf, edges)
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=1023), st.integers(min_value=0, max_value=99))
def test_skewed_profile_with_crowded_bucket(n_tail, seed):
    """Hundreds of cdf entries in one bucket: the draws landing there are
    finished by the binary search once the bucket outgrows the step cap."""
    weights = np.concatenate([[1.0], np.full(n_tail, 1e-9)])
    cdf = np.cumsum(weights / weights.sum())
    table = InverseCdf(cdf)
    # every entry sits in the top bucket
    steps = (n_tail + 1).bit_length()
    assert table.steps == min(steps, rng_module._MAX_STEPS)
    assert (table._wide is not None) == (steps > rng_module._MAX_STEPS)
    uniforms = np.concatenate(
        [edge_uniforms(cdf), 1.0 - np.random.default_rng(seed).random(500) * 1e-6]
    )
    assert np.array_equal(table.indices(uniforms), reference(cdf, uniforms))


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=30))
def test_interior_bucket_on_both_sides_of_the_step_cap(width, bucket):
    """A crowded bucket below the top one (where the clamp cannot hide a
    search one short), holding fewer, exactly or more than
    ``2 ** _MAX_STEPS`` cdf entries."""
    buckets = 64
    cluster = (bucket + np.arange(1, width + 1) / (width + 1)) / buckets
    cdf = np.sort(np.concatenate([cluster, np.linspace(0.5, 1.0, buckets - width)]))
    edges = edge_uniforms(cdf)
    assert np.array_equal(InverseCdf(cdf).indices(edges), reference(cdf, edges))


def test_uniform_profile_takes_one_step():
    for size in (1, 3, 400, 1000):
        assert InverseCdf(np.cumsum(np.full(size, 1 / size))).steps == 1


def test_one_demand_space_and_multi_pass_blocks():
    assert inverse_cdf_indices(np.array([1.0]), 3) == 0
    assert not inverse_cdf_indices(np.array([1.0 - 1e-12]), 3, size=9).any()
    cdf = np.cumsum(np.random.default_rng(0).dirichlet(np.full(257, 0.3)))
    uniforms = np.random.default_rng(1).random((3, 40_000))  # several passes
    assert np.array_equal(
        inverse_cdf_indices(cdf, None, uniforms=uniforms), reference(cdf, uniforms)
    )
    empty = inverse_cdf_indices(cdf, None, uniforms=np.empty((0, 4)))
    assert empty.shape == (0, 4) and empty.dtype == np.int64


# ---------------------------------------------------------------------------
# exact float32 products
# ---------------------------------------------------------------------------


@st.composite
def universes(draw):
    """A random universe; one region may cover the whole space."""
    n_demands = draw(st.integers(min_value=1, max_value=24))
    n_faults = draw(st.integers(min_value=0, max_value=9))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    regions = []
    for _ in range(n_faults):
        mask = rng.random(n_demands) < rng.random()
        mask[rng.integers(n_demands)] = True
        regions.append(np.flatnonzero(mask))
    if n_faults and draw(st.booleans()):
        regions[0] = np.arange(n_demands)
    return FaultUniverse.from_regions(DemandSpace(n_demands), regions), rng


def int_hits(counts: np.ndarray, coverage: np.ndarray) -> np.ndarray:
    return counts.astype(np.int64) @ coverage.T.astype(np.int64)


@settings(max_examples=150, deadline=None)
@given(universes(), st.integers(min_value=0, max_value=12))
def test_mask_products_match_boolean_reference(model, n_rows):
    universe, rng = model
    cover = universe.coverage
    masks = rng.random((n_rows, universe.space.size)) < 0.3
    presence = rng.random((n_rows, len(universe))) < 0.5
    triggered = (masks[:, None, :] & cover[None, :, :]).any(axis=2)
    failing = (presence[:, :, None] & cover[None, :, :]).any(axis=1)
    assert np.array_equal(universe.triggered_matrix(masks), triggered)
    assert np.array_equal(universe.failure_matrix(presence), failing)
    visible = np.ones(len(universe), dtype=bool)
    assert np.array_equal(
        _np_perfect_closure(presence, masks, cover, visible), presence & ~triggered
    )


@settings(max_examples=150, deadline=None)
@given(universes(), st.integers(min_value=0, max_value=12), st.integers(0, 2**32 - 1))
def test_count_closures_match_integer_reference(model, n_rows, seed):
    universe, rng = model
    cover = universe.coverage
    counts = rng.integers(0, 60, size=(n_rows, universe.space.size))
    faults = rng.random((n_rows, len(universe))) < 0.6
    hits = int_hits(counts, cover)
    assert np.array_equal(universe.hit_counts(counts), hits.astype(np.float64))
    # §4.1 closure: perfect oracle and fixing, then imperfect fixing
    assert np.array_equal(
        apply_imperfect_testing_batch(faults, counts, universe, 1.0, 1.0),
        faults & (hits == 0),
    )
    survive = np.random.default_rng(seed).random(faults.shape) < 0.4**hits
    assert np.array_equal(
        apply_imperfect_testing_batch(faults, counts, universe, 1.0, 0.6, rng=seed),
        faults & survive,
    )
    # coverage-limited closure with per-fault diagnosis probabilities
    probs = rng.random(len(universe))
    survive = (
        np.random.default_rng(seed).random(faults.shape) < (1.0 - probs) ** hits
    )
    assert np.array_equal(
        apply_coverage_testing_batch(faults, counts, universe, probs, rng=seed),
        faults & survive,
    )


@settings(max_examples=100, deadline=None)
@given(universes(), st.integers(min_value=0, max_value=10), st.integers(1, 30))
def test_twin_count_closure_matches_integer_reference(model, n_rows, length):
    universe, rng = model
    cover = universe.coverage
    seqs = rng.integers(-1, universe.space.size, size=(n_rows, length))
    faults = rng.random((n_rows, len(universe))) < 0.6
    detect_u = rng.random(seqs.shape)
    surv_u = rng.random(faults.shape)
    detecting = (seqs >= 0) & (detect_u < 0.7)
    counts = np.zeros((n_rows, universe.space.size), dtype=np.int64)
    for row, col in zip(*np.nonzero(detecting)):
        counts[row, seqs[row, col]] += 1
    survive = surv_u < 0.5 ** int_hits(counts, cover)
    assert np.array_equal(
        _np_imperfect_closure(faults, seqs, cover, detect_u, surv_u, 0.7, 0.5),
        faults & survive,
    )


def test_products_span_several_row_blocks():
    """Enough rows for several float32 row blocks, with a ragged last one."""
    rng = np.random.default_rng(5)
    regions = [np.flatnonzero(rng.random(30) < 0.2) for _ in range(5)] + [range(30)]
    universe = FaultUniverse.from_regions(DemandSpace(30), regions)
    cover = universe.coverage
    rows = 3 * (universe_module._PRODUCT_BLOCK // 30) + 7
    masks = rng.random((rows, 30)) < 0.05
    presence = rng.random((rows, 6)) < 0.2
    counts = rng.integers(0, 4, size=(rows, 30))
    assert np.array_equal(
        universe.triggered_matrix(masks), int_hits(masks, cover) > 0
    )
    assert np.array_equal(
        universe.failure_matrix(presence), presence.astype(np.int64) @ cover > 0
    )
    assert np.array_equal(universe.hit_counts(counts), int_hits(counts, cover))


# ---------------------------------------------------------------------------
# the exactness guard
# ---------------------------------------------------------------------------


def test_products_refuse_where_float32_could_round(monkeypatch):
    monkeypatch.setattr(universe_module, "FLOAT32_EXACT_BOUND", 16)
    small = FaultUniverse.from_regions(DemandSpace(10), [[0, 1], [2]])
    counts = np.zeros((2, 10), dtype=np.int64)
    counts[0, :4] = 3  # fault 0 gets 6 chances, fault 1 gets 3
    assert np.array_equal(small.hit_counts(counts)[0], [6.0, 3.0])
    counts[1, 0] = 16
    with pytest.raises(ModelError, match="2\\*\\*24"):
        small.hit_counts(counts)
    seqs = np.zeros((1, 16), dtype=np.int64)
    with pytest.raises(ModelError, match="suite length"):
        _np_imperfect_closure(
            np.ones((1, 2), dtype=bool), seqs, small.coverage,
            np.zeros((1, 16)), np.zeros((1, 2)), 1.0, 1.0,
        )
    wide = FaultUniverse.from_regions(DemandSpace(16), [[0]])
    with pytest.raises(ModelError, match="demand space size"):
        wide.triggered_matrix(np.zeros((1, 16), dtype=bool))
    many = FaultUniverse.from_regions(DemandSpace(3), [[0]] * 16)
    with pytest.raises(ModelError, match="universe size"):
        many.failure_matrix(np.zeros((1, 16), dtype=bool))


def test_real_bound_is_two_to_the_24():
    assert universe_module.FLOAT32_EXACT_BOUND == 2**24
    assert float(np.float32(2**24 - 1)) == 2**24 - 1
    assert float(np.float32(2**24 + 1)) != 2**24 + 1
