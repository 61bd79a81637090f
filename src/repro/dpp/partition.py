"""Partition-constrained DPPs (Definition 7) with a torus counting oracle.

``μ(S) ∝ det(L_S) · ∏_i 1[|S ∩ V_i| = c_i]`` for an ensemble matrix ``L``, a
partition ``V_1 ∪ ... ∪ V_r = [n]`` with ``r = O(1)``, and target counts
``c_1, ..., c_r``.  :class:`PartitionDPP` takes a symmetric PSD ``L``.  Nothing
below needs symmetry, so the nonsymmetric k-DPP
(:class:`~repro.dpp.nonsymmetric.NonsymmetricKDPP`) is the one-part case over
an nPSD ``L``.

The counting oracle reads the coefficient of ``∏ z_i^{c_i}`` in the
``r``-variate polynomial [Cel+16]

``g(z_1, ..., z_r) = det(I + L · diag(z_{part(e)})) = Σ_S det(L_S) ∏_i z_i^{|S∩V_i|}``.

It has degree at most ``|V_i|`` in ``z_i``, so its values on a torus of
``|V_i| + 1`` points per axis determine it, and the coefficient is one DFT
coefficient: a Vandermonde solve on roots of unity, which cannot amplify
rounding.  With ``A = I + L · diag(z)``, the sets containing ``T`` have the
generating polynomial ``det(A) · det(I − A⁻¹[T, T])``, so tables of
``det A_m`` and ``A_m⁻¹`` at the torus nodes, built once per root
distribution, answer every count with stacked ``|T| x |T|`` determinants.

Conditioning on inclusion of ``A`` (Section 3.2 of the paper) keeps the
root's tables: the child's count of ``T`` is the root's count of ``A ∪ T``
divided by ``det(L_A)``, which is the count the Schur complement ``L^A``
with reduced part sizes and counts has.  The node weights are logarithms,
so neither ``ρ_i^{c_i}`` nor ``det(L_A)``, folded in before a count is
summed, has to be representable.  A child too deep for the root's radius
re-roots on ``L^A`` (:meth:`PartitionDPP.condition`).

The tables hold ``∏ (|V_i| + 1)`` complex ``n x n`` inverses, built in
chunks of nodes, and may take at most ``_GRID_BUDGET_BYTES`` (1 GiB), so a
one-part kernel fits up to ``n = 406``.
"""

from __future__ import annotations

import copy
import math
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.distributions.base import HomogeneousDistribution
from repro.dpp.kernels import validate_ensemble
from repro.dpp.likelihood import dpp_log_unnormalized
from repro.linalg.batch import group_by_size
from repro.linalg.esp import _saddle_radius
from repro.linalg.schur import schur_complement
from repro.pram.tracker import current_tracker, determinant_work
from repro.utils.validation import check_subset


#: largest stacked complex ``(n, n, nodes)`` torus grid, in bytes, a table build may
#: allocate
_GRID_BUDGET_BYTES = 1 << 30

#: a child re-roots when its parent's tables answer its normalizer with
#: ``Σ_m |terms| > _CANCELLATION_LIMIT · count`` (more than ~4 digits lost)
_CANCELLATION_LIMIT = 1e4

#: shallower children never re-root to save work: their blocks cost call overhead
_REROOT_MIN_DEPTH = 8

#: largest stacked ``(sets, nodes, t, t)`` block gather of one counting chunk, in bytes
_QUERY_CHUNK_BYTES = 64 << 20

#: largest ``(nodes, n, n)`` chunk of a table build, in bytes: a build holds
#: the tables plus two such chunks
_BUILD_CHUNK_BYTES = 16 << 20


class InterpolationGridTooLarge(ValueError):
    """The torus grid of a Partition-DPP's counting oracle exceeds the memory budget.

    The grid has ``∏ (|P_i| + 1)`` nodes, each an ``n x n`` complex matrix,
    so a few large parts already ask for more memory than any host has, and
    one part fits up to ``n = 406``.  Raised before anything is allocated.
    """


def check_grid_budget(shape: Sequence[int], n: int) -> None:
    """Raise :class:`InterpolationGridTooLarge` when the torus grid ``shape`` of
    an ``n``-item kernel needs more than ``_GRID_BUDGET_BYTES``."""
    nodes = math.prod(shape)
    grid_bytes = nodes * n * n * np.dtype(complex).itemsize
    if grid_bytes > _GRID_BUDGET_BYTES:
        raise InterpolationGridTooLarge(
            f"torus grid {tuple(shape)} has {nodes} nodes: its stacked complex "
            f"({nodes}, {n}, {n}) matrices need {grid_bytes} bytes, "
            f"over the budget of {_GRID_BUDGET_BYTES} bytes")


def torus_tables(L: np.ndarray, parts: Sequence[Sequence[int]],
                 counts: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
    """Node tables ``(log(w_m · det A_m), A_m⁻¹)`` with ``A_m = I + L · diag(z_m)``.

    Axis ``i`` of the torus has the ``N_i = |V_i| + 1`` nodes
    ``ρ_i e^{iθ}``, ``θ = 2πj / N_i``, and every element of ``V_i`` takes the
    axis's value.  The radius ``ρ_i`` is the saddle point of the moduli of the
    eigenvalues of the block ``L[V_i, V_i]`` for ``max(c_i, ½)`` items (1 for
    a zero block), so each axis keeps its own scale; the moduli serve a
    nonsymmetric block as well as a symmetric one.  The weights
    ``w_m = e^{−i Σ_i c_i θ_im} / (N ∏_i ρ_i^{c_i})`` over the ``N = ∏ N_i``
    nodes turn a sum of node values into the coefficient of ``∏ z_i^{c_i}``;
    ``w_m · det A_m`` is returned as a complex logarithm, from ``slogdet``
    and ``Σ_i c_i log ρ_i``, so neither factor has to be representable on
    its own.  The inverses are stacked node-last,
    ``inverses[i, j, m] = (A_m⁻¹)_ij``, so a set's blocks at every node are
    one contiguous gather; they are built in chunks of at most
    ``_BUILD_CHUNK_BYTES``.  A grid over budget raises
    :class:`InterpolationGridTooLarge` (:func:`check_grid_budget`) before
    anything is allocated.  The build is charged as its determinant work on
    ``nodes`` machines; it answers no query, so it makes no oracle call.
    """
    n = L.shape[0]
    shape = tuple(len(part) + 1 for part in parts)
    check_grid_budget(shape, n)
    nodes = math.prod(shape)
    itemsize = np.dtype(complex).itemsize
    z = np.empty((nodes, n), dtype=complex)
    phase = np.zeros(nodes)
    log_scale = math.log(nodes)
    grid = np.indices(shape).reshape(len(shape), nodes)     # node m's index on each axis
    for part, count, size, index in zip(parts, counts, shape, grid):
        spectrum = np.abs(np.linalg.eigvals(L[np.ix_(part, part)]))
        rho = _saddle_radius(spectrum, max(count, 0.5)) if np.any(spectrum > 0) else 1.0
        theta = 2.0 * np.pi * index / size
        z[:, list(part)] = (rho * np.exp(1j * theta))[:, None]
        phase += count * theta
        log_scale += count * math.log(rho)
    log_weights = np.empty(nodes, dtype=complex)
    inverses = np.empty((n, n, nodes), dtype=complex)
    chunk = max(1, _BUILD_CHUNK_BYTES // (n * n * itemsize))
    tracker = current_tracker()
    with tracker.round("partition-tables"):
        tracker.charge(work=nodes * determinant_work(n), machines=float(nodes))
        for start in range(0, nodes, chunk):
            block = slice(start, start + chunk)
            stack = L[None] * z[block, None, :]
            stack += np.eye(n)                                      # A_m at these nodes
            sign, logdet = np.linalg.slogdet(stack)
            log_weights[block] = np.log(sign) + (logdet - log_scale) - 1j * phase[block]
            inverses[:, :, block] = np.moveaxis(np.linalg.inv(stack), 0, -1)
    return log_weights, inverses


def _node_terms(idx: np.ndarray, weights: np.ndarray, inverses: np.ndarray) -> np.ndarray:
    """``(sets, nodes)`` terms ``weights_m · det(I − A_m⁻¹[U, U])`` of each row
    ``U`` of ``idx``, gathered in chunks of at most ``_QUERY_CHUNK_BYTES``."""
    sets, t = idx.shape
    nodes = weights.size
    chunk = max(1, _QUERY_CHUNK_BYTES // (nodes * t * t * np.dtype(complex).itemsize))
    terms = np.empty((sets, nodes), dtype=complex)
    for start in range(0, sets, chunk):
        rows = idx[start:start + chunk]
        blocks = np.eye(t)[:, :, None] - inverses[rows[:, :, None], rows[:, None, :]]
        terms[start:start + chunk] = np.linalg.det(np.moveaxis(blocks, -1, 1)) * weights
    return terms


class PartitionDPP(HomogeneousDistribution):
    """Partition-constrained DPP (Definition 7).

    Parameters
    ----------
    L:
        Symmetric PSD ensemble matrix.
    parts:
        Sequence of ``r`` disjoint element lists covering ``[n]``.
    counts:
        Required intersection sizes ``c_i = |S ∩ V_i|``.
    """

    def __init__(self, L: np.ndarray, parts: Sequence[Sequence[int]], counts: Sequence[int],
                 *, validate: bool = True, labels: Optional[Sequence[int]] = None,
                 tables: Optional[Tuple[np.ndarray, np.ndarray]] = None):
        self.L = validate_ensemble(L, symmetric=True) if validate else np.asarray(L, dtype=float)
        self.n = self.L.shape[0]
        self.parts: List[Tuple[int, ...]] = [tuple(sorted(int(i) for i in part)) for part in parts]
        self.counts: Tuple[int, ...] = tuple(int(c) for c in counts)
        if len(self.parts) != len(self.counts):
            raise ValueError("parts and counts must have the same length")
        if len(self.parts) == 0:
            raise ValueError("at least one part is required")
        covered = [i for part in self.parts for i in part]
        if sorted(covered) != list(range(self.n)):
            raise ValueError("parts must form a partition of the ground set")
        for part, count in zip(self.parts, self.counts):
            if count < 0 or count > len(part):
                raise ValueError(f"count {count} infeasible for part of size {len(part)}")
        self.r = len(self.parts)
        self.k = int(sum(self.counts))
        self._labels = tuple(int(i) for i in labels) if labels is not None else tuple(range(self.n))
        self._part_of = np.empty(self.n, dtype=int)  # part index of each element
        for idx, part in enumerate(self.parts):
            self._part_of[list(part)] = idx
        # a warm factorization cache (or a worker payload) may supply the
        # tables ``torus_tables`` builds, so constructions skip the inverses
        self._tables = tables
        # a root: ``condition`` hands its children this ``L``, these tables
        # and this partition, with the conditioned root items ``_given``,
        # ``log det(L_given)`` and each child item's root index
        self._root = (tuple(self.parts), self.counts, self._labels)
        self._given: Tuple[int, ...] = ()
        self._logdet_given = 0.0
        self._items = np.arange(self.n)
        self._weights: Optional[np.ndarray] = None
        # a child's normalizer, summed once by ``condition``'s check
        self._z: Optional[float] = None
        if validate or tables is not None:
            if self.partition_function() <= 0:
                raise ValueError("partition constraints have zero probability under the DPP")

    # ------------------------------------------------------------------ #
    @property
    def ground_labels(self) -> Tuple[int, ...]:
        return self._labels

    def part_of(self, element: int) -> int:
        """Index of the part containing ``element``."""
        return int(self._part_of[int(element)])

    @classmethod
    def _bare(cls, L: np.ndarray, parts: Sequence[Sequence[int]], counts: Sequence[int],
              labels: Sequence[int]) -> "PartitionDPP":
        """A root with no tables yet and no checks: its sender validated ``L``."""
        root = cls.__new__(cls)
        PartitionDPP.__init__(root, L, parts, counts, validate=False, labels=labels)
        return root

    def worker_payload(self):
        """Ship the root's ``L``, partition and node tables (once built) and
        the conditioned root items, so every child of one root shares one
        set of shipped arrays."""
        parts, counts, labels = self._root
        params = {"parts": parts, "counts": counts, "labels": labels, "given": self._given}
        if self._tables is None:
            return {"L": self.L}, params
        log_weights, inverses = self._tables
        return {"L": self.L, "log_weights": log_weights, "inverses": inverses}, params

    @classmethod
    def from_worker_payload(cls, arrays, params):
        # narrowed to the shipped items without re-deciding whether the child
        # re-roots, so every backend answers from the same tables
        root = cls._bare(arrays["L"], params["parts"], params["counts"], params["labels"])
        if "inverses" in arrays:
            root._tables = (arrays["log_weights"], arrays["inverses"])
        return root._narrow(params["given"]) if params["given"] else root

    def oracle_cost_hint(self) -> float:
        """Stacked LAPACK, like :func:`~repro.linalg.esp.kdpp_counts_from_factor`.

        A round gathers every set's ``|T| x |T|`` blocks of the node tables
        and answers them with one stacked determinant call per size group;
        only the per-group bookkeeping runs in Python.
        """
        return 0.1

    # ------------------------------------------------------------------ #
    # densities
    # ------------------------------------------------------------------ #
    def _satisfies_constraints(self, subset: Tuple[int, ...]) -> bool:
        tallies = [0] * self.r
        for item in subset:
            tallies[self._part_of[item]] += 1
        return tuple(tallies) == self.counts

    def _in_root(self, idx: np.ndarray) -> np.ndarray:
        """Sorted root indices of ``given ∪ T`` for each row ``T`` of ``idx``."""
        if not self._given:
            return idx
        given = np.broadcast_to(self._given, (len(idx), len(self._given)))
        return np.sort(np.concatenate([given, self._items[idx]], axis=1), axis=1)

    def unnormalized(self, subset: Iterable[int]) -> float:
        items = check_subset(subset, self.n)
        if len(items) != self.k or not self._satisfies_constraints(items):
            return 0.0
        union = self._in_root(np.array([items], dtype=int))[0]
        return float(np.exp(dpp_log_unnormalized(self.L, union) - self._logdet_given))

    # ------------------------------------------------------------------ #
    # counting oracle on the torus
    # ------------------------------------------------------------------ #
    def _node_tables(self) -> Tuple[np.ndarray, np.ndarray]:
        # built once per root: every count of it and of its children reads them
        if self._tables is None:
            parts, counts, _ = self._root
            self._tables = torus_tables(self.L, parts, counts)
        return self._tables

    def _node_weights(self) -> np.ndarray:
        """``w_m det A_m / det(L_A)`` at every node, exponentiated once."""
        if self._weights is None:
            log_weights, _ = self._node_tables()
            self._weights = np.exp(log_weights - self._logdet_given)
        return self._weights

    def partition_function(self) -> float:
        if self._given:
            return self.counting(())
        return max(float(np.sum(self._node_weights()).real), 0.0)

    def counting(self, given: Iterable[int] = ()) -> float:
        return float(self.counting_batch([check_subset(given, self.n)])[0])

    def marginal_vector(self, given: Iterable[int] = ()) -> np.ndarray:
        items = check_subset(given, self.n)
        item_set = set(items)
        outside = [i for i in range(self.n) if i not in item_set]
        queries = [tuple(sorted(items + (i,))) for i in outside]
        marginals = np.ones(self.n, dtype=float)
        tracker = current_tracker()
        with tracker.round("partition-dpp-marginals"):
            tracker.charge(machines=float(self.n))
            values = self.counting_batch([items] + queries)  # the denominator rides along
        if values[0] <= 0:
            raise ValueError(f"conditioning event {items} has zero probability")
        marginals[outside] = values[1:] / values[0]
        return np.clip(marginals, 0.0, 1.0)

    def counting_batch(self, subsets: Sequence[Sequence[int]]) -> np.ndarray:
        """Batched counting off the root's node tables, one stacked call per size group.

        A set ``T`` is read as the root set ``U = A ∪ T``, where ``A`` holds
        the conditioned root items (none at a root).  Sets that break a quota
        or have ``det(L_U) <= 0`` count 0, and sets of size ``k`` count
        ``det(L_U) / det(L_A)``, from ``slogdet``.  Every other set counts
        ``Re Σ_m (w_m det A_m / det(L_A)) · det(I − A_m⁻¹[U, U])``, clipped
        at 0, from ``|U| x |U|`` blocks gathered in chunks of at most
        ``_QUERY_CHUNK_BYTES``.  A set's count does not depend on what it is
        batched with.  Each set is one oracle call on one machine; its
        determinants are charged as work.  A root's normalizer (``T = ∅``)
        is a sum over its tables and charges nothing, like
        :meth:`partition_function`, so every backend charges alike.
        """
        values = np.zeros(len(subsets), dtype=float)
        tracker = current_tracker()
        for t, positions in group_by_size(subsets).items():
            idx = np.array([check_subset(subsets[p], self.n) for p in positions], dtype=int)
            union = self._in_root(idx)
            size = union.shape[1]
            if size == 0:
                # a root's normalizer is a sum over its tables, as
                # ``partition_function`` answers it: no query to charge
                values[positions] = self.partition_function()
                continue
            tracker.charge(work=len(idx) * determinant_work(size),
                           machines=float(len(idx)), oracle_calls=len(idx))
            if t == 0 and self._z is not None:
                # a child's normalizer, summed by ``condition``: charged as
                # ``_torus_counts`` charges it
                tracker.charge(work=self._node_weights().size
                               * determinant_work(size))
                values[positions] = self._z
                continue
            taken = (self._part_of[idx][:, :, None] == np.arange(self.r)).sum(axis=1)
            sign, logdet = np.linalg.slogdet(self.L[union[:, :, None], union[:, None, :]])
            ok = np.flatnonzero(np.all(taken <= self.counts, axis=1) & (sign > 0))
            out = np.zeros(len(idx), dtype=float)
            if t == self.k:
                out[ok] = np.exp(logdet[ok] - self._logdet_given)
            elif ok.size:
                out[ok] = self._torus_counts(union[ok])
            values[positions] = out
        return values

    def _torus_counts(self, idx: np.ndarray) -> np.ndarray:
        """Counts of the equal-size root sets ``idx`` (one sorted row each),
        divided by ``det(L_A)``."""
        weights = self._node_weights()
        _, inverses = self._node_tables()
        sets, t = idx.shape
        tracker = current_tracker()
        tracker.charge(work=sets * weights.size * determinant_work(t))
        return np.clip(_node_terms(idx, weights, inverses).real.sum(axis=1), 0.0, None)

    def joint_marginals_batch(self, subsets: Sequence[Sequence[int]]) -> np.ndarray:
        tracker = current_tracker()
        with tracker.round("partition-dpp-joint-marginals"):
            tracker.charge(machines=float(len(subsets)))
            values = self.counting_batch([()] + list(subsets))  # the normalizer rides along
        return np.clip(values[1:] / values[0], 0.0, None)

    # ------------------------------------------------------------------ #
    def condition(self, include: Iterable[int]) -> "PartitionDPP":
        """The distribution given ``include ⊆ S``, answered from the root's tables.

        The child keeps the root's ``L``, tables and partition, and records
        the conditioned root items ``A`` with ``log det(L_A)``; its ``counts``
        and ``k`` are the reduced ones.  It re-roots instead, on the Schur
        complement ``L^A`` with tables built in the round that first counts,
        when ``|A| >= _REROOT_MIN_DEPTH`` and ``|A|³ > n'²`` for its ``n'``
        items (a marginal round of ``|A|``-item blocks costs about as much as
        its own tables), or when the root's radius no longer suits it (deep
        below a root whose ``k`` is a large share of ``n``): the root's
        tables cancel more than ``_CANCELLATION_LIMIT`` in its normalizer.
        Raises ``ValueError`` when a quota goes negative or
        ``det(L_A) <= 0``: the event has zero probability.
        """
        items = check_subset(include, self.n)
        if not items:
            return self
        child = self._narrow(items)
        if child.k == 0:
            return child  # every count of it is a determinant: it reads no table
        depth = len(child._given)
        if depth >= _REROOT_MIN_DEPTH and depth ** 3 > child.n ** 2:
            return child._rerooted()
        child._tables = self._node_tables()
        terms = _node_terms(np.array([child._given]), child._node_weights(), child._tables[1])
        child._z = float(np.clip(terms.real.sum(axis=1), 0.0, None)[0])
        if not np.sum(np.abs(terms)) <= _CANCELLATION_LIMIT * child._z:
            return child._rerooted()
        return child

    def _narrow(self, items: Sequence[int]) -> "PartitionDPP":
        """The child given ``items``, reading these tables (refusals as in :meth:`condition`)."""
        taken = np.bincount(self._part_of[list(items)], minlength=self.r)
        counts = tuple(int(c - t) for c, t in zip(self.counts, taken))
        if min(counts) < 0:
            raise ValueError(f"conditioning on {items} violates the partition constraints")
        given = tuple(sorted(self._given + tuple(int(i) for i in self._items[list(items)])))
        sign, logdet = np.linalg.slogdet(self.L[np.ix_(given, given)])
        if sign <= 0:
            raise ValueError(f"conditioning event {items} has zero probability: "
                             f"det(L_A) <= 0 for root items A={given}")
        keep = np.ones(self.n, dtype=bool)
        keep[list(items)] = False
        keep = np.flatnonzero(keep)
        child = copy.copy(self)
        child._given = given
        child._logdet_given = float(logdet)
        child._weights = None
        child._z = None
        child._items = self._items[keep]
        child._part_of = self._part_of[keep]
        child._labels = tuple(self._labels[i] for i in keep)
        child.n = len(keep)
        child.parts = [tuple(np.flatnonzero(child._part_of == i).tolist()) for i in range(self.r)]
        child.counts = counts
        child.k = sum(counts)
        return child

    def _rerooted(self) -> "PartitionDPP":
        """A root over the Schur complement ``L^A`` with this child's partition and counts."""
        return self._bare(schur_complement(self.L, self._given), self.parts, self.counts,
                          self._labels)
