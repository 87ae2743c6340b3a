"""Random-number management for reproducible stochastic experiments.

Every stochastic object in the library takes a :class:`numpy.random.Generator`
at the point of sampling, never at construction, so that model objects stay
immutable and a single seed threads deterministically through an entire
experiment.  The helpers here normalise user-supplied seeds and spawn
independent child streams for parallel or multi-component simulations.
"""

from __future__ import annotations

from typing import Iterator, List

import numpy as np

from .types import SeedLike

__all__ = [
    "InverseCdf",
    "as_generator",
    "counter_generator",
    "counter_key",
    "counter_uniforms",
    "inverse_cdf_indices",
    "philox_uniform",
    "spawn",
    "spawn_many",
    "stream",
]


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for any seed-like input.

    Accepts ``None`` (fresh OS entropy), an ``int``, a
    :class:`numpy.random.SeedSequence`, or an existing generator (returned
    unchanged so callers can thread one stream through nested calls).
    ``default_rng`` handles every non-generator case natively, including
    ``SeedSequence`` instances.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


#: uniforms per guided pass (a bisection step, or the binary-search pass of
#: the wide buckets) below which a plain binary search of the whole block
#: beats the fixed per-call cost of the passes and returns the same
#: indices.  Measured crossovers (2-CPU x86-64, numpy 2.4, D = 400 unless
#: noted): 512–1024 uniforms for a uniform profile (1 pass), 1024–2048 for
#: zipf(0.8) (2 passes), 2048–4096 for geometric(0.9) and about 4096 for
#: zipf(3.0) on D = 4096 (5 passes each)
_GUIDE_MIN = 1 << 10
#: uniforms per guided block: the search's temporaries stay cache-sized,
#: so the draw's transient memory does not grow with the request
_GUIDE_BLOCK = 1 << 14
#: most bisection steps a guided draw takes.  A draw whose bucket holds
#: ``2 ** _MAX_STEPS`` cdf entries or more is finished by a binary search
#: instead; since the buckets hold ``len(cdf) <= K`` entries in all, at most
#: one bucket in ``2 ** _MAX_STEPS`` is that wide, so at most that share of
#: the draws (each bucket is hit with probability ``1 / K``) takes it
_MAX_STEPS = 4


class InverseCdf:
    """A cumulative-probability vector with an inverse-CDF guide table.

    The indexed search of Chen & Asau (1974).  With ``K`` the next power of
    two ``>= len(cdf)``, ``guide[k]`` is the number of cdf entries
    ``<= k / K`` (``guide[0]`` is 0), so the search for a uniform ``u`` in
    bucket ``k = floor(u·K)`` starts at ``guide[k]`` and ends at or before
    ``guide[k + 1]`` (the last bucket ends at ``len(cdf)``).  A fixed
    number of branch-free bisection steps — ``bit_length`` of the widest
    bucket, capped at ``_MAX_STEPS`` — then finishes it with the very
    ``cdf[i] <= u`` comparisons ``np.searchsorted(cdf, u, side="right")``
    makes; the draws that land in a bucket too wide for the cap (at most a
    ``2 ** -_MAX_STEPS`` share) run that binary search itself.  Because
    ``K`` is a power of two, ``k / K`` and ``u·K`` are exact, and the
    result is identical to ``min(searchsorted(cdf, u, "right"),
    len(cdf) - 1)`` for every finite ``u``: the guide only narrows the
    range the same comparisons run over.  A uniform profile needs one step
    per draw.

    Built once per profile, suite measure or population (where the cdf was
    built before), and shared by every draw.  ``cdf`` must be
    non-decreasing; repeated entries (zero-probability outcomes) and a last
    entry a hair off 1.0 are fine.
    """

    def __init__(self, cdf) -> None:
        cdf = np.array(cdf, dtype=np.float64)
        if cdf.ndim != 1 or cdf.shape[0] == 0:
            raise ValueError(f"cdf must be a non-empty vector, got shape {cdf.shape}")
        size = cdf.shape[0]
        buckets = 1 << (size - 1).bit_length()
        edges = np.searchsorted(
            cdf, np.arange(buckets + 1) / buckets, side="right"
        )
        edges[0], edges[-1] = 0, size
        widths = np.diff(edges)
        steps = min(int(widths.max()).bit_length(), _MAX_STEPS)
        wide = widths >= 1 << steps
        self._last = size - 1
        self._buckets = buckets
        self._guide = edges[:-1].astype(np.int64)
        self._strides = tuple(1 << step for step in reversed(range(steps)))
        # the buckets whose draws the binary search finishes, if any
        self._wide = wide if wide.any() else None
        self._min_block = _GUIDE_MIN * (steps + (self._wide is not None))
        # the cdf with a +inf sentinel: no probe stops on it, and the "clip"
        # takes of the search send every probe past the end of the cdf onto it
        self._padded = np.append(cdf, np.inf)
        self._cdf = self._padded[:-1]

    @property
    def steps(self) -> int:
        """Bisection steps per guided draw."""
        return len(self._strides)

    def indices(self, uniforms) -> np.ndarray:
        """Clamped inverse-CDF indices of a uniform block, as int64.

        A block of ``_GUIDE_MIN`` uniforms per guided pass or more runs the
        guided search in cache-sized blocks that write straight into the
        result; a smaller one (a scalar included) takes the plain binary
        search, which is faster there and gives the same indices.
        """
        u = np.asarray(uniforms, dtype=np.float64)
        if u.size < self._min_block:
            return self._bisect(u)
        out = np.empty(u.shape, dtype=np.int64)
        flat_u, flat_out = u.reshape(-1), out.reshape(-1)
        for start in range(0, flat_u.shape[0], _GUIDE_BLOCK):
            stop = start + _GUIDE_BLOCK
            self._guided(flat_u[start:stop], flat_out[start:stop])
        return out

    def index(self, uniform: float) -> int:
        """The clamped inverse-CDF index of one uniform (a binary search)."""
        return min(int(self._cdf.searchsorted(uniform, side="right")), self._last)

    def _bisect(self, u: np.ndarray) -> np.ndarray:
        """The plain binary search and clamp the guided search reproduces."""
        found = np.searchsorted(self._cdf, u, side="right")
        return np.minimum(found, self._last).astype(np.int64, copy=False)

    def _guided(self, u: np.ndarray, out: np.ndarray) -> None:
        """The guided search of one block, written into ``out``."""
        scaled = u * self._buckets
        np.minimum(scaled, self._buckets - 1, out=scaled)
        # truncation is floor for u >= 0; "clip" sends u < 0 to bucket 0
        bucket = scaled.astype(np.int64)
        np.take(self._guide, bucket, out=out, mode="clip")
        for stride in self._strides:
            below = self._padded.take(out + (stride - 1), mode="clip") <= u
            if stride == 1:
                out += below
            else:
                np.add(out, stride, out=out, where=below)
        if self._wide is not None:
            slow = np.flatnonzero(self._wide.take(bucket, mode="clip"))
            if slow.size:
                out[slow] = self._bisect(u[slow])
        np.minimum(out, self._last, out=out)


def inverse_cdf_indices(cdf, rng: SeedLike, size=None, uniforms=None):
    """Draw indices by inverse-CDF sampling, clamped into range.

    ``cdf`` is an :class:`InverseCdf` table (or a raw cumulative-probability
    vector, from which one is built); returns a scalar int when
    ``size is None``, else an int64 array of the given (possibly tuple)
    shape.  The clamp matters: probability vectors in this library are
    validated to sum to one only within a tolerance, so ``cdf[-1]`` may sit
    a hair below 1.0 and an unlucky uniform draw would otherwise index one
    past the end.  Every inverse-CDF sampler (usage profiles, finite
    populations, enumerable suite generators) routes through here so the
    clamp cannot drift out of sync.

    The search is the guided (Chen–Asau) search of :class:`InverseCdf`:
    one bisection step per draw on a uniform profile, and bit-identical to
    ``min(np.searchsorted(cdf, u, side="right"), len(cdf) - 1)``, so the
    random streams and every result built on them are those of a plain
    binary search.

    ``uniforms`` supplies the uniform draws instead of consuming ``rng``
    (``size`` is then ignored) — how the antithetic variance-reduction
    kernel shares one uniform block between a ``u`` / ``1 − u`` pair while
    keeping this single definition of the search-and-clamp.
    """
    table = cdf if isinstance(cdf, InverseCdf) else InverseCdf(cdf)
    if uniforms is not None:
        return table.indices(uniforms)
    generator = as_generator(rng)
    if size is None:
        return table.index(generator.random())
    return table.indices(generator.random(size))


def spawn(rng: np.random.Generator) -> np.random.Generator:
    """Spawn one statistically independent child generator from ``rng``.

    Uses the generator's underlying seed sequence spawning where available;
    falls back to seeding from the parent stream.  Child streams are
    independent of later draws from the parent.
    """
    children = spawn_many(rng, 1)
    return children[0]


def spawn_many(rng: np.random.Generator, count: int) -> List[np.random.Generator]:
    """Spawn ``count`` independent child generators from ``rng``.

    Independent streams matter in this library because the paper's regimes
    differ precisely in which random objects are shared: e.g. the
    independent-suites regime needs two suite draws that share nothing,
    while the same-suite regime reuses one draw.  Giving each stochastic
    component its own child stream keeps those couplings explicit.

    Children come from the generator's underlying
    :class:`~numpy.random.SeedSequence` via ``seed_seq.spawn(count)`` —
    the collision-resistant spawning protocol — so repeated calls yield
    fresh, mutually independent families without consuming the parent
    stream.  Bit generators constructed without a seed sequence (e.g.
    ``Philox(key=...)``) fall back to drawing 64-bit child seeds from the
    parent stream; that fallback consumes the parent and is
    birthday-collision-prone at very large family sizes, which is why the
    seed-sequence path is preferred whenever available.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    bit_generator = rng.bit_generator
    seed_seq = getattr(bit_generator, "seed_seq", None)
    if seed_seq is None:
        seed_seq = getattr(bit_generator, "_seed_seq", None)
    if isinstance(seed_seq, np.random.SeedSequence):
        return [np.random.default_rng(child) for child in seed_seq.spawn(count)]
    seeds = rng.integers(0, 2**63 - 1, size=count, dtype=np.int64)
    return [np.random.default_rng(int(s)) for s in seeds]


# ---------------------------------------------------------------------------
# counter-based RNG (Philox4x32-10)
#
# A counter-based generator is a pure function ``(key, counter) -> bits``:
# there is no evolving state, so any parallel decomposition of the work —
# chunking, process sharding, resumption — reads exactly the same random
# numbers for replication ``r`` as a serial run would.  The compiled kernel
# backend (:mod:`repro.mc.kernels`) keys every draw by
# ``(root_key, stream, lane)`` where ``stream`` is the *global* replication
# index and ``lane`` enumerates the draw slots within one replication,
# which is what makes its results bit-identical regardless of
# ``chunk_size`` and ``n_jobs``.
#
# The block cipher is Philox4x32-10 (Salmon et al., SC'11) — the same
# round function behind ``numpy.random.Philox`` — implemented here twice
# with identical integer semantics: a scalar form (:func:`philox_uniform`)
# that numba can ``@njit``, and a vectorized form
# (:func:`counter_uniforms`) for the numpy fallback, so the compiled and
# fallback paths draw bit-identical uniforms.
# ---------------------------------------------------------------------------

_U64_MASK = (1 << 64) - 1
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15


def _splitmix64(value: int) -> int:
    """The splitmix64 finalizer — a strong 64-bit mix used to derive keys."""
    z = (value + _SPLITMIX_GAMMA) & _U64_MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64_MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64_MASK
    return z ^ (z >> 31)


def counter_key(seed: SeedLike = None) -> int:
    """Derive the 64-bit root key of a counter-RNG run from any seed-like.

    Deterministic for deterministic inputs: an ``int`` seed is mixed
    through splitmix64 (so small seeds like 0, 1, 2 land far apart in key
    space), a :class:`~numpy.random.SeedSequence` contributes its entropy,
    and an existing :class:`~numpy.random.Generator` has one 64-bit value
    drawn from it (consuming the stream, exactly like seeding a child).
    ``None`` draws a fresh key from OS entropy.
    """
    if seed is None:
        return int(np.random.SeedSequence().generate_state(1, np.uint64)[0])
    if isinstance(seed, np.random.Generator):
        return int(seed.integers(0, 2**64, dtype=np.uint64))
    if isinstance(seed, np.random.SeedSequence):
        return int(seed.generate_state(1, np.uint64)[0])
    return _splitmix64(int(seed) & _U64_MASK)


def philox_uniform(key: np.uint64, stream: np.uint64, lane: np.uint64) -> float:
    """One uniform in ``[0, 1)`` from Philox4x32-10 — scalar reference form.

    Pure function of ``(key, stream, lane)``: the 128-bit Philox counter is
    ``(lane, stream)`` and the 64-bit key is ``key``.  Every operation is
    explicit ``uint64`` arithmetic so numba ``@njit`` compiles this exact
    function to native code with bit-identical results; the vectorized
    twin is :func:`counter_uniforms`.
    """
    mask = np.uint64(0xFFFFFFFF)
    m0 = np.uint64(0xD2511F53)
    m1 = np.uint64(0xCD9E8D57)
    w0 = np.uint64(0x9E3779B9)
    w1 = np.uint64(0xBB67AE85)
    shift = np.uint64(32)
    c0 = np.uint64(lane) & mask
    c1 = (np.uint64(lane) >> shift) & mask
    c2 = np.uint64(stream) & mask
    c3 = (np.uint64(stream) >> shift) & mask
    k0 = np.uint64(key) & mask
    k1 = (np.uint64(key) >> shift) & mask
    for _round in range(10):
        p0 = m0 * c0
        p1 = m1 * c2
        n0 = (p1 >> shift) ^ c1 ^ k0
        n1 = p1 & mask
        n2 = (p0 >> shift) ^ c3 ^ k1
        n3 = p0 & mask
        c0, c1, c2, c3 = n0, n1, n2, n3
        k0 = (k0 + w0) & mask
        k1 = (k1 + w1) & mask
    bits = (c0 << shift) | c1
    return float(bits >> np.uint64(11)) * (1.0 / 9007199254740992.0)


def counter_uniforms(key: int, streams, lanes) -> np.ndarray:
    """Uniforms in ``[0, 1)`` keyed by ``(key, stream, lane)`` — vectorized.

    ``streams`` and ``lanes`` are broadcast against each other; entry
    ``(…)`` is exactly ``philox_uniform(key, streams[…], lanes[…])``.  The
    batch engines call this as
    ``counter_uniforms(key, replication_ids[:, None], lane_ids[None, :])``
    to materialise a whole ``(replications, lanes)`` block in one shot.
    """
    mask = np.uint64(0xFFFFFFFF)
    shift = np.uint64(32)
    streams_arr = np.asarray(streams, dtype=np.uint64)
    lanes_arr = np.asarray(lanes, dtype=np.uint64)
    lanes_b, streams_b = np.broadcast_arrays(lanes_arr, streams_arr)
    c0 = lanes_b & mask
    c1 = (lanes_b >> shift) & mask
    c2 = streams_b & mask
    c3 = (streams_b >> shift) & mask
    key64 = np.uint64(int(key) & _U64_MASK)
    k0 = key64 & mask
    k1 = (key64 >> shift) & mask
    m0 = np.uint64(0xD2511F53)
    m1 = np.uint64(0xCD9E8D57)
    w0 = np.uint64(0x9E3779B9)
    w1 = np.uint64(0xBB67AE85)
    for _round in range(10):
        p0 = m0 * c0
        p1 = m1 * c2
        n0 = (p1 >> shift) ^ c1 ^ k0
        n1 = p1 & mask
        n2 = (p0 >> shift) ^ c3 ^ k1
        n3 = p0 & mask
        c0, c1, c2, c3 = n0, n1, n2, n3
        k0 = (k0 + w0) & mask
        k1 = (k1 + w1) & mask
    bits = (c0 << shift) | c1
    return (bits >> np.uint64(11)).astype(np.float64) * (1.0 / 9007199254740992.0)


def counter_generator(seed: SeedLike, index: int) -> np.random.Generator:
    """A full :class:`~numpy.random.Generator` on the keyed Philox stream.

    The 128-bit Philox key is ``(counter_key(seed), index)``, so streams
    for different replication/shard indices are independent by
    construction — no serial spawning, no parent stream to consume, and no
    birthday-collision risk however many indices are in flight.  This is
    the coarse-grained companion of :func:`counter_uniforms` for code that
    needs arbitrary distributions rather than raw uniforms.
    """
    if index < 0:
        raise ValueError(f"index must be non-negative, got {index}")
    key = np.array([counter_key(seed), index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def stream(seed: SeedLike = None) -> Iterator[np.random.Generator]:
    """Yield an unbounded sequence of independent generators.

    Convenient for experiment drivers that need one fresh stream per
    replication::

        gens = stream(seed=42)
        for replication in range(1000):
            rng = next(gens)
            ...
    """
    root = as_generator(seed)
    while True:
        yield spawn(root)
