"""Partition-constrained DPPs (Definition 7) with the [Cel+16] counting oracle.

``μ(S) ∝ det(L_S) · ∏_i 1[|S ∩ V_i| = c_i]`` for a symmetric PSD ensemble
matrix ``L``, a partition ``V_1 ∪ ... ∪ V_r = [n]`` with ``r = O(1)``, and
target counts ``c_1, ..., c_r``.

The counting oracle evaluates the ``r``-variate polynomial

``g(z_1, ..., z_r) = det(I + L · diag(z_{part(e)})) = Σ_S det(L_S) ∏_i z_i^{|S∩V_i|}``

on a tensor grid and reads off the coefficient of ``∏ z_i^{c_i}`` by solving
Vandermonde systems (``NC``, [Cel+17]).  Conditioning on inclusion of ``T``
maps to the Schur complement ``L^T`` together with reduced part sizes and
counts (Section 3.2 of the paper).
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.distributions.base import HomogeneousDistribution
from repro.dpp.kernels import validate_ensemble
from repro.dpp.likelihood import dpp_unnormalized
from repro.linalg.batch import (
    batched_schur_complements,
    group_by_size,
    stacked_principal_submatrices,
)
from repro.linalg.determinant import principal_minor
from repro.linalg.interpolation import tensor_product_nodes, tensor_vandermonde_solve
from repro.linalg.schur import condition_ensemble
from repro.pram.tracker import current_tracker
from repro.utils.validation import check_subset


#: largest stacked ``(nodes, n, n)`` interpolation grid, in bytes, an oracle may allocate
_GRID_BUDGET_BYTES = 1 << 30


class InterpolationGridTooLarge(ValueError):
    """The tensor interpolation grid of a counting query exceeds the memory budget.

    The grid has ``∏ (|P_i| + 1)`` nodes, each an ``n x n`` determinant, so a
    few large parts already ask for more memory than any host has.  Raised
    before anything is allocated.
    """


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
                 partition_function: Optional[float] = None):
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
        # ``partition_function`` lets a warm factorization cache supply the
        # (already validated) interpolation-oracle normalizer so repeated
        # constructions/queries on the same kernel skip the grid of stacked
        # determinants; the value must equal what ``_constrained_count`` on
        # the full ensemble would return.
        self._z: Optional[float] = float(partition_function) if partition_function is not None else None
        if validate or self._z is not None:
            z = self.partition_function()
            if z <= 0:
                raise ValueError("partition constraints have zero probability under the DPP")

    # ------------------------------------------------------------------ #
    @property
    def ground_labels(self) -> Tuple[int, ...]:
        return self._labels

    def part_of(self, element: int) -> int:
        """Index of the part containing ``element``."""
        return int(self._part_of[int(element)])

    def worker_payload(self):
        """Ship ``L``, the partition structure, and the normalizer if warm."""
        params = {
            "parts": tuple(tuple(part) for part in self.parts),
            "counts": self.counts,
            "labels": self._labels,
            "z": self._z,
        }
        return {"L": self.L}, params

    @classmethod
    def from_worker_payload(cls, arrays, params):
        return cls(arrays["L"], params["parts"], params["counts"], validate=False,
                   labels=params["labels"], partition_function=params["z"])

    def oracle_cost_hint(self) -> float:
        """Interpolation grids: heavily GIL-bound.

        Each surviving subset of a batch evaluates its own tensor-product
        interpolation grid (a Python loop around stacked determinants plus
        the Vandermonde solve), and the grid has ``∏(|P_i|+1)`` nodes — so
        the effective per-query order is well above ``n`` and the Python
        lane dominates.  This is the flagship process-backend workload.
        """
        return 0.8

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
    # counting oracle by multivariate interpolation
    # ------------------------------------------------------------------ #
    @staticmethod
    def _constrained_count(L: np.ndarray, part_of: np.ndarray, part_sizes: Sequence[int],
                           counts: Sequence[int]) -> float:
        """Coefficient of ``∏ z_i^{c_i}`` in ``det(I + L diag(z_{part})``.

        All grid evaluations of the generating polynomial are one stacked
        determinant call (one batched ``Õ(1)``-depth round), followed by the
        tensor-product Vandermonde solve.  A grid whose stack would exceed
        ``_GRID_BUDGET_BYTES`` raises :class:`InterpolationGridTooLarge`.
        """
        n = L.shape[0]
        if any(c < 0 for c in counts):
            return 0.0
        if any(c > s for c, s in zip(counts, part_sizes)):
            return 0.0
        if n == 0:
            return 1.0 if all(c == 0 for c in counts) else 0.0
        node_sets = tensor_product_nodes(part_sizes, node_scale=1.0)
        grid_shape = tuple(len(nodes) for nodes in node_sets)
        grid_nodes = math.prod(grid_shape)
        grid_bytes = grid_nodes * n * n * np.dtype(float).itemsize
        if grid_bytes > _GRID_BUDGET_BYTES:
            raise InterpolationGridTooLarge(
                f"interpolation grid {grid_shape} has {grid_nodes} nodes: its stacked "
                f"({grid_nodes}, {n}, {n}) determinants need {grid_bytes} bytes, "
                f"over the budget of {_GRID_BUDGET_BYTES} bytes")
        # row-major grid of evaluation points, one row per grid node
        points = np.stack(np.meshgrid(*node_sets, indexing="ij"), axis=-1).reshape(-1, len(node_sets))
        weights = points[:, part_of]                      # (grid, n) column scalings
        tracker = current_tracker()
        with tracker.round("interpolation-evaluations"):
            tracker.charge(machines=float(weights.shape[0]))
            tracker.charge_determinant(n, count=weights.shape[0])
            stacked = np.eye(n)[None] + L[None] * weights[:, None, :]
            values = np.linalg.det(stacked).reshape(grid_shape)
        coeffs = tensor_vandermonde_solve(values, node_sets)
        value = float(coeffs[tuple(counts)])
        return max(value, 0.0)

    def partition_function(self) -> float:
        # Memoized: the interpolation-grid evaluation is the dominant
        # preprocessing cost of this oracle, and conditioned kernels created
        # mid-sample would otherwise re-pay it on every normalizer query.
        if self._z is None:
            part_sizes = [len(p) for p in self.parts]
            self._z = self._constrained_count(self.L, self._part_of, part_sizes, self.counts)
        return self._z

    def counting(self, given: Iterable[int] = ()) -> float:
        items = check_subset(given, self.n)
        if not items:
            return self.partition_function()
        # Conditioning reduces to a Schur complement with reduced counts
        # (paper, Section 3.2: Partition-DPP conditioning).
        taken = [0] * self.r
        for item in items:
            taken[self._part_of[item]] += 1
        reduced_counts = [c - t for c, t in zip(self.counts, taken)]
        if any(c < 0 for c in reduced_counts):
            return 0.0
        det_t = principal_minor(self.L, items)
        if det_t <= 0:
            return 0.0
        if len(items) == self.k:
            return det_t
        L_cond, remaining = condition_ensemble(self.L, items)
        L_cond = 0.5 * (L_cond + L_cond.T)
        part_of_reduced = np.array([self._part_of[i] for i in remaining], dtype=int)
        part_sizes = [int(np.sum(part_of_reduced == idx)) for idx in range(self.r)]
        inner = self._constrained_count(L_cond, part_of_reduced, part_sizes, reduced_counts)
        return det_t * inner

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
        """Batched counting: stacked ``det(L_T)`` and Schur complements per
        size group, then the (internally stacked-grid) interpolation oracle
        per surviving subset."""
        values = np.zeros(len(subsets), dtype=float)
        tracker = current_tracker()
        for t, positions in group_by_size(subsets).items():
            group = [check_subset(subsets[p], self.n) for p in positions]
            if t == 0:
                values[positions] = self.partition_function()
                continue
            reduced_counts_group: List[Optional[List[int]]] = []
            for items in group:
                taken = [0] * self.r
                for item in items:
                    taken[self._part_of[item]] += 1
                reduced = [c - took for c, took in zip(self.counts, taken)]
                reduced_counts_group.append(None if any(c < 0 for c in reduced) else reduced)
            tracker.charge_determinant(t, count=len(group))
            dets = np.linalg.det(stacked_principal_submatrices(self.L, group))
            feasible = np.array([rc is not None for rc in reduced_counts_group])
            ok = np.flatnonzero(feasible & (dets > 0))
            if ok.size == 0:
                continue
            if t == self.k:
                out = np.zeros(len(group), dtype=float)
                out[ok] = dets[ok]
                values[positions] = out
                continue
            schur, remaining = batched_schur_complements(self.L, [group[i] for i in ok])
            out = np.zeros(len(group), dtype=float)
            for row, i in enumerate(ok):
                L_cond = 0.5 * (schur[row] + schur[row].T)
                part_of_reduced = self._part_of[remaining[row]]
                part_sizes = [int(np.sum(part_of_reduced == idx)) for idx in range(self.r)]
                inner = self._constrained_count(L_cond, part_of_reduced, part_sizes,
                                               reduced_counts_group[i])
                out[i] = dets[i] * inner
            values[positions] = out
        return values

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
