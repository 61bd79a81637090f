"""Random number generator helpers.

Every stochastic routine in the library accepts a ``seed`` argument that may be
``None``, an integer, or an existing :class:`numpy.random.Generator`.  Routing
everything through :func:`as_generator` keeps experiments reproducible and lets
callers share a single generator across composed samplers.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

SeedLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    seed:
        ``None`` (fresh entropy), an ``int`` seed, a ``SeedSequence``, or an
        existing ``Generator`` (returned unchanged).

    Returns
    -------
    numpy.random.Generator
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def weighted_choice(rng: np.random.Generator, p: np.ndarray,
                    size: Optional[Union[int, Tuple[int, ...]]] = None):
    """``rng.choice(len(p), size, p=p)``, bit for bit, without re-validating ``p``.

    For a ``p`` its caller has just clipped to ``>= 0``; it need not be
    normalized (HKPV's phase 2 passes raw leverage scores), since the CDF is
    divided by its last entry.  ``Generator.choice`` checks every entry again (NaN, sign, a Kahan sum
    against 1) before it draws; this runs only its draw, the inverse CDF
    ``cdf = p.cumsum(); cdf /= cdf[-1]`` searched with ``rng.random(size)``,
    so it consumes the same stream and returns the same indices: an ``int``
    for ``size=None``, else an ``int64`` array of shape ``size``.  One scalar
    guard stays: a total mass that is not finite and positive (a NaN, an inf
    or all zeros) raises ``ValueError``.
    """
    cdf = np.cumsum(p, dtype=float)
    total = cdf[-1] if cdf.size else 0.0
    if not 0.0 < total < np.inf:
        raise ValueError(f"weights have total mass {total}, not a finite positive number")
    cdf /= total
    index = cdf.searchsorted(rng.random(size), side="right")
    return int(index) if size is None else index.astype(np.int64, copy=False)


def spawn_generators(seed: SeedLike, count: int) -> list:
    """Create ``count`` statistically independent child generators.

    Used to model independent parallel machines: each simulated machine gets
    its own stream so results do not depend on scheduling order.
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    if isinstance(seed, np.random.Generator):
        seeds = seed.integers(0, 2**63 - 1, size=count)
        return [np.random.default_rng(int(s)) for s in seeds]
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(count)]


def substream_seed(seed: SeedLike, index: int) -> np.random.SeedSequence:
    """The (picklable) seed of child stream ``index`` of a root seed.

    This is :func:`substream`'s derivation without the generator around it —
    the single definition both the local :class:`~repro.service.scheduler.RoundScheduler`
    (via :func:`substream`) and the cluster session's wire-shipped request
    seeds rely on; if the derivation ever changed in one place only, fused
    cluster drains would silently stop being byte-identical to local ones.
    """
    if index < 0:
        raise ValueError(f"index must be nonnegative, got {index}")
    if seed is None or isinstance(seed, np.random.Generator):
        raise TypeError(
            "substream requires a reproducible root seed (int or SeedSequence); "
            f"got {type(seed).__name__} which would not be re-derivable"
        )
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return np.random.SeedSequence(
        entropy=seq.entropy,
        spawn_key=tuple(seq.spawn_key) + (index,),
    )


def substream(seed: SeedLike, index: int) -> np.random.Generator:
    """Deterministic, addressable child stream ``index`` of a root seed.

    Unlike :func:`spawn_generators` (which must materialize all children up
    front), ``substream(root, i)`` can be evaluated independently per request
    and always yields ``SeedSequence(root).spawn(i + 1)[i]`` — the serving
    layer uses this to give each concurrently submitted sample request its own
    stream so fused execution order never changes any request's draws.
    """
    return np.random.default_rng(substream_seed(seed, index))
