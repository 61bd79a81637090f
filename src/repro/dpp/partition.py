"""Partition-constrained DPPs (Definition 7) with a torus counting oracle.

``μ(S) ∝ det(L_S) · ∏_i 1[|S ∩ V_i| = c_i]`` for a symmetric PSD ensemble
matrix ``L``, a partition ``V_1 ∪ ... ∪ V_r = [n]`` with ``r = O(1)``, and
target counts ``c_1, ..., c_r``.

The counting oracle reads the coefficient of ``∏ z_i^{c_i}`` in the
``r``-variate polynomial [Cel+16]

``g(z_1, ..., z_r) = det(I + L · diag(z_{part(e)})) = Σ_S det(L_S) ∏_i z_i^{|S∩V_i|}``.

It has degree at most ``|V_i|`` in ``z_i``, so its values on a torus of
``|V_i| + 1`` points per axis determine it, and the coefficient is one DFT
coefficient: a Vandermonde solve on roots of unity, which cannot amplify
rounding.  With ``A = I + L · diag(z)``, the sets containing ``T`` have the
generating polynomial ``det(A) · det(I − A⁻¹[T, T])``, so tables of
``det A_m`` and ``A_m⁻¹`` at the torus nodes, built once per distribution,
answer every count with stacked ``|T| x |T|`` determinants.  Conditioning
on inclusion of ``T`` maps to the Schur complement ``L^T`` together with
reduced part sizes and counts (Section 3.2 of the paper).
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.distributions.base import HomogeneousDistribution
from repro.dpp.kernels import validate_ensemble
from repro.dpp.likelihood import dpp_unnormalized
from repro.linalg.batch import group_by_size
from repro.linalg.esp import _saddle_radius
from repro.linalg.schur import condition_ensemble
from repro.pram.tracker import current_tracker
from repro.utils.validation import check_subset


#: largest stacked complex ``(nodes, n, n)`` torus grid, in bytes, a table build may
#: allocate (it holds two such stacks at its peak)
_GRID_BUDGET_BYTES = 1 << 30

#: largest stacked ``(sets, nodes, t, t)`` block gather of one counting chunk, in bytes
_QUERY_CHUNK_BYTES = 64 << 20


class InterpolationGridTooLarge(ValueError):
    """The torus grid of a Partition-DPP's counting oracle exceeds the memory budget.

    The grid has ``∏ (|P_i| + 1)`` nodes, each an ``n x n`` complex matrix,
    so a few large parts already ask for more memory than any host has.
    Raised before anything is allocated.
    """


def torus_tables(L: np.ndarray, parts: Sequence[Sequence[int]],
                 counts: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
    """Node tables ``(w_m · det A_m, A_m⁻¹)`` with ``A_m = I + L · diag(z_m)``.

    Axis ``i`` of the torus has the ``N_i = |V_i| + 1`` nodes
    ``ρ_i e^{iθ}``, ``θ = 2πj / N_i``, and every element of ``V_i`` takes the
    axis's value.  The radius ``ρ_i`` is the saddle point of the block
    ``L[V_i, V_i]`` for ``max(c_i, ½)`` items (1 for a block with no positive
    eigenvalue), so each axis keeps its own scale.  The weights
    ``w_m = e^{−i Σ_i c_i θ_im} / (N ∏_i ρ_i^{c_i})`` over the ``N = ∏ N_i``
    nodes turn a sum of node values into the coefficient of ``∏ z_i^{c_i}``.
    The inverses are stacked node-last, ``inverses[i, j, m] = (A_m⁻¹)_ij``,
    so a set's blocks at every node are one contiguous gather.  A grid whose
    stack would exceed ``_GRID_BUDGET_BYTES`` raises
    :class:`InterpolationGridTooLarge` before anything is allocated.
    """
    n = L.shape[0]
    shape = tuple(len(part) + 1 for part in parts)
    nodes = math.prod(shape)
    grid_bytes = nodes * n * n * np.dtype(complex).itemsize
    if grid_bytes > _GRID_BUDGET_BYTES:
        raise InterpolationGridTooLarge(
            f"torus grid {shape} has {nodes} nodes: its stacked complex "
            f"({nodes}, {n}, {n}) matrices need {grid_bytes} bytes, "
            f"over the budget of {_GRID_BUDGET_BYTES} bytes")
    z = np.empty((nodes, n), dtype=complex)
    phase = np.zeros(nodes)
    scale = float(nodes)
    grid = np.indices(shape).reshape(len(shape), nodes)     # node m's index on each axis
    for part, count, size, index in zip(parts, counts, shape, grid):
        spectrum = np.linalg.eigvalsh(L[np.ix_(part, part)])
        rho = _saddle_radius(spectrum, max(count, 0.5)) if np.any(spectrum > 0) else 1.0
        theta = 2.0 * np.pi * index / size
        z[:, list(part)] = (rho * np.exp(1j * theta))[:, None]
        phase += count * theta
        scale *= rho ** count
    tracker = current_tracker()
    with tracker.round("partition-tables"):
        tracker.charge_determinant(n, count=nodes)
        stack = np.eye(n) + L[None] * z[:, None, :]              # A_m at every node
        weighted = np.linalg.det(stack) * np.exp(-1j * phase) / scale
        stack = np.linalg.inv(stack)  # rebound, so at most two stacks are alive
    return weighted, np.ascontiguousarray(np.moveaxis(stack, 0, -1))


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
        # part index of each element
        self._part_of = np.empty(self.n, dtype=int)
        for idx, part in enumerate(self.parts):
            for element in part:
                self._part_of[element] = idx
        # ``tables`` lets a warm factorization cache (or a worker payload)
        # supply the node tables ``torus_tables`` builds for this kernel, so
        # repeated constructions skip the stacked inverses
        self._tables = tables
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

    def worker_payload(self):
        """Ship ``L``, the partition structure, and the node tables once built."""
        params = {
            "parts": tuple(tuple(part) for part in self.parts),
            "counts": self.counts,
            "labels": self._labels,
        }
        if self._tables is None:
            return {"L": self.L}, params
        weighted, inverses = self._tables
        return {"L": self.L, "weighted_dets": weighted, "inverses": inverses}, params

    @classmethod
    def from_worker_payload(cls, arrays, params):
        tables = (arrays["weighted_dets"], arrays["inverses"]) if "inverses" in arrays else None
        return cls(arrays["L"], params["parts"], params["counts"], validate=False,
                   labels=params["labels"], tables=tables)

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

    def unnormalized(self, subset: Iterable[int]) -> float:
        items = check_subset(subset, self.n)
        if len(items) != self.k or not self._satisfies_constraints(items):
            return 0.0
        return max(dpp_unnormalized(self.L, items), 0.0)

    # ------------------------------------------------------------------ #
    # counting oracle on the torus
    # ------------------------------------------------------------------ #
    def _node_tables(self) -> Tuple[np.ndarray, np.ndarray]:
        # built once: every count of this distribution reads them
        if self._tables is None:
            self._tables = torus_tables(self.L, self.parts, self.counts)
        return self._tables

    def partition_function(self) -> float:
        weighted, _ = self._node_tables()
        return max(float(np.sum(weighted).real), 0.0)

    def counting(self, given: Iterable[int] = ()) -> float:
        return float(self.counting_batch([check_subset(given, self.n)])[0])

    def marginal_vector(self, given: Iterable[int] = ()) -> np.ndarray:
        items = check_subset(given, self.n)
        denom = self.counting(items)
        if denom <= 0:
            raise ValueError(f"conditioning event {items} has zero probability")
        item_set = set(items)
        outside = [i for i in range(self.n) if i not in item_set]
        queries = [tuple(sorted(items + (i,))) for i in outside]
        marginals = np.ones(self.n, dtype=float)
        tracker = current_tracker()
        with tracker.round("partition-dpp-marginals"):
            tracker.charge(machines=float(self.n))
            marginals[outside] = self.counting_batch(queries) / denom
        return np.clip(marginals, 0.0, 1.0)

    def counting_batch(self, subsets: Sequence[Sequence[int]]) -> np.ndarray:
        """Batched counting off the node tables, one stacked call per size group.

        Sets that break a quota or have ``det(L_T) <= 0`` count 0, and sets of
        size ``k`` count ``det(L_T)``.  Every other set counts
        ``Re Σ_m w_m det A_m · det(I − A_m⁻¹[T, T])``, clipped at 0, from
        ``|T| x |T|`` blocks gathered in chunks of at most
        ``_QUERY_CHUNK_BYTES``.  A set's count does not depend on what it is
        batched with.
        """
        values = np.zeros(len(subsets), dtype=float)
        tracker = current_tracker()
        for t, positions in group_by_size(subsets).items():
            if t == 0:
                values[positions] = self.partition_function()
                continue
            idx = np.array([check_subset(subsets[p], self.n) for p in positions], dtype=int)
            taken = (self._part_of[idx][:, :, None] == np.arange(self.r)).sum(axis=1)
            tracker.charge_determinant(t, count=len(idx))
            dets = np.linalg.det(self.L[idx[:, :, None], idx[:, None, :]])
            ok = np.flatnonzero(np.all(taken <= self.counts, axis=1) & (dets > 0))
            out = np.zeros(len(idx), dtype=float)
            if t == self.k:
                out[ok] = dets[ok]
            elif ok.size:
                out[ok] = self._torus_counts(idx[ok])
            values[positions] = out
        return values

    def _torus_counts(self, idx: np.ndarray) -> np.ndarray:
        """Counts of the equal-size sets ``idx`` (one sorted row each)."""
        weighted, inverses = self._node_tables()
        sets, t = idx.shape
        nodes = weighted.size
        current_tracker().charge_determinant(t, count=sets * nodes)
        chunk = max(1, _QUERY_CHUNK_BYTES // (nodes * t * t * np.dtype(complex).itemsize))
        out = np.empty(sets, dtype=float)
        for start in range(0, sets, chunk):
            rows = idx[start:start + chunk]
            blocks = np.eye(t)[:, :, None] - inverses[rows[:, :, None], rows[:, None, :]]
            minors = np.linalg.det(np.moveaxis(blocks, -1, 1))     # (sets, nodes)
            out[start:start + chunk] = np.sum((minors * weighted).real, axis=1)
        return np.clip(out, 0.0, None)

    def joint_marginals_batch(self, subsets: Sequence[Sequence[int]]) -> np.ndarray:
        z = self.partition_function()
        tracker = current_tracker()
        with tracker.round("partition-dpp-joint-marginals"):
            tracker.charge(machines=float(len(subsets)))
            values = self.counting_batch(subsets) / z
        return np.clip(values, 0.0, None)

    # ------------------------------------------------------------------ #
    def condition(self, include: Iterable[int]) -> "PartitionDPP":
        items = check_subset(include, self.n)
        if not items:
            return self
        taken = [0] * self.r
        for item in items:
            taken[self._part_of[item]] += 1
        reduced_counts = [c - t for c, t in zip(self.counts, taken)]
        if any(c < 0 for c in reduced_counts):
            raise ValueError(f"conditioning on {items} violates the partition constraints")
        L_cond, remaining = condition_ensemble(self.L, items)
        L_cond = 0.5 * (L_cond + L_cond.T)
        labels = tuple(self._labels[i] for i in remaining)
        old_to_new = {old: new for new, old in enumerate(remaining)}
        new_parts = []
        for part in self.parts:
            new_parts.append([old_to_new[i] for i in part if i in old_to_new])
        return PartitionDPP(L_cond, new_parts, reduced_counts, validate=False, labels=labels)
