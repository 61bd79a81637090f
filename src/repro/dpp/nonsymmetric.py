"""Nonsymmetric DPPs and k-DPPs (Definitions 4–6).

A nonsymmetric PSD (nPSD) ensemble matrix satisfies ``L + Lᵀ ⪰ 0``, which
guarantees nonnegative principal minors [Gar+19, Lemma 1] so ``det(L_S)``
defines a measure.  The determinant identities used for counting are purely
algebraic and hold verbatim:

* ``Σ_{S ⊇ T} det(L_S) = det(K_T) det(I + L)`` with ``K = L (I + L)^{-1}``;
* ``Σ_{S ⊇ T, |S|=k} det(L_S) = det(L_T) · [Σ_{|S'|=k-|T|} det((L^T)_{S'})]``
  where the inner sum is a coefficient of the characteristic polynomial of the
  Schur complement ``L^T`` (real even when its eigenvalues are complex).

Marginals no longer have a clean eigenvector formula, so the k-DPP marginal
vector uses the exclusion identity
``P[i ∈ S] = 1 - e_k(L_{-i}) / e_k(L)`` (delete row/column ``i``), evaluated
for all ``i`` in one batched round.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.distributions.base import HomogeneousDistribution, SubsetDistribution
from repro.dpp.kernels import ensemble_to_kernel, validate_ensemble
from repro.dpp.likelihood import all_principal_minor_sums, dpp_unnormalized, sum_principal_minors
from repro.linalg.batch import (
    batched_schur_complements,
    group_by_size,
    grouped_principal_minors,
    stacked_principal_submatrices,
)
from repro.linalg.determinant import principal_minor
from repro.linalg.esp import elementary_symmetric_polynomials
from repro.linalg.schur import condition_ensemble
from repro.pram.tracker import current_tracker
from repro.utils.validation import check_positive_int, check_subset


class NonsymmetricDPP(SubsetDistribution):
    """Unconstrained nonsymmetric DPP ``P[Y] ∝ det(L_Y)`` with nPSD ``L``."""

    def __init__(self, L: np.ndarray, *, validate: bool = True,
                 labels: Optional[Sequence[int]] = None):
        self.L = validate_ensemble(L, symmetric=False) if validate else np.asarray(L, dtype=float)
        self.n = self.L.shape[0]
        self._labels = tuple(int(i) for i in labels) if labels is not None else tuple(range(self.n))
        self._kernel: Optional[np.ndarray] = None
        self._z: Optional[float] = None

    @property
    def ground_labels(self) -> Tuple[int, ...]:
        return self._labels

    @property
    def kernel(self) -> np.ndarray:
        """(Nonsymmetric) marginal kernel ``K = L (I + L)^{-1}``."""
        if self._kernel is None:
            self._kernel = ensemble_to_kernel(self.L)
        return self._kernel

    def attach_precomputed(self, *, kernel: Optional[np.ndarray] = None,
                           partition_function: Optional[float] = None) -> "NonsymmetricDPP":
        """Install cached artifacts (marginal kernel, ``det(I + L)``).

        The values must be what this class would compute itself (the serving
        layer's factorization cache uses the identical routines), so cached
        and uncached fixed-seed samples agree bitwise.
        """
        if kernel is not None:
            if kernel.shape != self.L.shape:
                raise ValueError("precomputed kernel has mismatched shape")
            self._kernel = kernel
        if partition_function is not None:
            self._z = float(partition_function)
        return self

    def worker_payload(self):
        """Ship ``L`` (plus the marginal kernel / normalizer when warm)."""
        arrays = {"L": self.L}
        if self._kernel is not None:
            arrays["kernel"] = self._kernel
        return arrays, {"labels": self._labels, "z": self._z}

    @classmethod
    def from_worker_payload(cls, arrays, params):
        dist = cls(arrays["L"], validate=False, labels=params["labels"])
        if "kernel" in arrays:
            dist._kernel = arrays["kernel"]
        if params["z"] is not None:
            dist._z = float(params["z"])
        return dist

    def oracle_cost_hint(self) -> float:
        """Marginal-kernel minors, exactly like the symmetric DPP."""
        return 0.05

    # ------------------------------------------------------------------ #
    def unnormalized(self, subset: Iterable[int]) -> float:
        items = check_subset(subset, self.n)
        return max(dpp_unnormalized(self.L, items), 0.0)

    def partition_function(self) -> float:
        if self._z is not None:
            return self._z
        current_tracker().charge_determinant(self.n)
        return float(np.linalg.det(np.eye(self.n) + self.L))

    def counting(self, given: Iterable[int] = ()) -> float:
        items = check_subset(given, self.n)
        if not items:
            return self.partition_function()
        joint = principal_minor(self.kernel, items)
        return max(joint, 0.0) * self.partition_function()

    def joint_marginal(self, subset: Iterable[int]) -> float:
        items = check_subset(subset, self.n)
        if not items:
            return 1.0
        return float(np.clip(principal_minor(self.kernel, items), 0.0, 1.0))

    def marginal_vector(self, given: Iterable[int] = ()) -> np.ndarray:
        items = check_subset(given, self.n)
        tracker = current_tracker()
        with tracker.round("ndpp-marginals"):
            if not items:
                return np.clip(np.diag(self.kernel).copy(), 0.0, 1.0)
            conditioned = self.condition(items)
            marginals = np.ones(self.n, dtype=float)
            remaining = [i for i in range(self.n) if i not in items]
            marginals[remaining] = np.clip(np.diag(conditioned.kernel), 0.0, 1.0)
        return marginals

    def counting_batch(self, subsets: Sequence[Sequence[int]]) -> np.ndarray:
        """Counting values for many (mixed-size) ``T``: ``det(K_T) · det(I + L)``."""
        minors = grouped_principal_minors(self.kernel, subsets)
        return np.clip(minors, 0.0, None) * self.partition_function()

    def cardinality_distribution(self) -> np.ndarray:
        sums = all_principal_minor_sums(self.L)
        sums = np.clip(sums, 0.0, None)
        total = sums.sum()
        if total <= 0:
            raise ValueError("ensemble matrix defines a zero measure")
        return sums / total

    # ------------------------------------------------------------------ #
    def condition(self, include: Iterable[int]) -> "NonsymmetricDPP":
        items = check_subset(include, self.n)
        if not items:
            return self
        L_cond, remaining = condition_ensemble(self.L, items)
        labels = tuple(self._labels[i] for i in remaining)
        return NonsymmetricDPP(L_cond, validate=False, labels=labels)

    def restrict_to_size(self, k: int) -> "NonsymmetricKDPP":
        return NonsymmetricKDPP(self.L, k)


class NonsymmetricKDPP(HomogeneousDistribution):
    """Nonsymmetric k-DPP ``P[Y] ∝ det(L_Y) · 1[|Y| = k]`` with nPSD ``L``."""

    def __init__(self, L: np.ndarray, k: int, *, validate: bool = True,
                 labels: Optional[Sequence[int]] = None,
                 partition_function: Optional[float] = None):
        self.L = validate_ensemble(L, symmetric=False) if validate else np.asarray(L, dtype=float)
        self.n = self.L.shape[0]
        self.k = int(check_positive_int(k, "k", minimum=0)) if k else 0
        if self.k > self.n:
            raise ValueError(f"k={k} exceeds ground set size {self.n}")
        self._labels = tuple(int(i) for i in labels) if labels is not None else tuple(range(self.n))
        # ``partition_function`` lets a warm factorization cache supply the
        # (already validated) normalizer so construction skips the O(n³)
        # characteristic-polynomial call; the value must equal what
        # ``sum_principal_minors(L, k)`` would return.
        self._z: Optional[float] = float(partition_function) if partition_function is not None else None
        z = self.partition_function()
        if z <= 0:
            raise ValueError(f"nonsymmetric k-DPP with k={self.k} has zero partition function")

    @property
    def ground_labels(self) -> Tuple[int, ...]:
        return self._labels

    def worker_payload(self):
        """Ship ``L`` and the (constructor-validated) normalizer, so workers
        never redo the characteristic-polynomial pass."""
        return {"L": self.L}, {"k": self.k, "labels": self._labels, "z": self._z}

    @classmethod
    def from_worker_payload(cls, arrays, params):
        return cls(arrays["L"], params["k"], validate=False,
                   labels=params["labels"], partition_function=params["z"])

    # ------------------------------------------------------------------ #
    def oracle_cost_hint(self) -> float:
        """Charpoly minor sums: a substantial GIL-bound Python lane.

        The batch route stacks determinants/Schur complements, but the
        per-group ESP evaluation and the charpoly recursions behind the
        normalizer keep a sizable interpreted share — this is one of the two
        workloads the process backend was built for.
        """
        return 0.5

    def unnormalized(self, subset: Iterable[int]) -> float:
        items = check_subset(subset, self.n)
        if len(items) != self.k:
            return 0.0
        return max(dpp_unnormalized(self.L, items), 0.0)

    def partition_function(self) -> float:
        # Memoized: the charpoly minor-sum pass is O(n³) of mostly GIL-bound
        # work, and the serving/engine hot paths query the normalizer on
        # every joint-marginal batch.
        if self._z is None:
            self._z = max(sum_principal_minors(self.L, self.k), 0.0)
        return self._z

    def counting(self, given: Iterable[int] = ()) -> float:
        items = check_subset(given, self.n)
        t = len(items)
        if t > self.k:
            return 0.0
        if t == 0:
            return self.partition_function()
        det_t = principal_minor(self.L, items)
        if det_t <= 0:
            return 0.0
        if t == self.k:
            return det_t
        L_cond, _ = condition_ensemble(self.L, items)
        return det_t * max(sum_principal_minors(L_cond, self.k - t), 0.0)

    def marginal_vector(self, given: Iterable[int] = ()) -> np.ndarray:
        """Exclusion identity ``P[i ∈ S | T] = 1 - e_{k'}(L^T_{-i}) / e_{k'}(L^T)``.

        All ``n`` leave-one-out minor sums are evaluated with one stacked
        eigenvalue call plus a batched ESP (one adaptive round).
        """
        items = check_subset(given, self.n)
        tracker = current_tracker()
        with tracker.round("nkdpp-marginals"):
            target = self.condition(items) if items else self
            kk = target.k
            z = target.partition_function()
            m = target.n
            tracker.charge(machines=float(m))
            tracker.charge_determinant(max(m - 1, 0), count=m)
            if m <= 1 or kk > m - 1:
                # dropping any row leaves fewer than k' elements -> excluded
                # mass is zero and every marginal is 1 (or the set is trivial)
                inner = np.ones(m, dtype=float) if kk > m - 1 else np.zeros(m, dtype=float)
                if m == 1 and kk == 0:
                    inner[:] = 0.0
            else:
                keep = np.array([[j for j in range(m) if j != i] for i in range(m)])
                # chunk the stacked eigenvalue call: one (chunk, m-1, m-1)
                # block at a time keeps memory at O(chunk * m^2) instead of
                # materializing all n leave-one-out submatrices at once
                chunk = max(1, min(m, int(2 ** 24 // max((m - 1) ** 2, 1)) or 1))
                excluded = np.empty(m, dtype=float)
                for start in range(0, m, chunk):
                    block = keep[start:start + chunk]
                    stacked = target.L[block[:, :, None], block[:, None, :]]
                    esp = elementary_symmetric_polynomials(np.linalg.eigvals(stacked), max_order=kk)
                    excluded[start:start + chunk] = np.clip(esp[kk].real, 0.0, None)
                inner = 1.0 - np.minimum(excluded / z, 1.0)
            marginals = np.ones(self.n, dtype=float)
            if items:
                remaining = [i for i in range(self.n) if i not in items]
                marginals[remaining] = np.clip(inner, 0.0, 1.0)
            else:
                marginals = np.clip(inner, 0.0, 1.0)
        return marginals

    def counting_batch(self, subsets: Sequence[Sequence[int]]) -> np.ndarray:
        """``det(L_T) · e_{k-t}(λ(L^T))`` for many ``T`` via stacked linalg.

        Each equal-size group costs one batched determinant, one batched
        Schur complement, one stacked (complex) eigenvalue call, and a
        batched ESP evaluation — mirroring the scalar route of
        :meth:`counting` operation for operation.
        """
        values = np.zeros(len(subsets), dtype=float)
        tracker = current_tracker()
        for t, positions in group_by_size(subsets).items():
            group = [subsets[p] for p in positions]
            if t > self.k:
                continue
            if t == 0:
                values[positions] = self.partition_function()
                continue
            tracker.charge_determinant(t, count=len(group))
            dets = np.linalg.det(stacked_principal_submatrices(self.L, group))
            if t == self.k:
                values[positions] = np.where(dets > 0, dets, 0.0)
                continue
            ok = np.flatnonzero(dets > 0)
            if ok.size == 0:
                continue
            schur, _ = batched_schur_complements(self.L, [group[i] for i in ok])
            esp = elementary_symmetric_polynomials(np.linalg.eigvals(schur), max_order=self.k - t)
            inner = esp[self.k - t].real
            out = np.zeros(len(group), dtype=float)
            out[ok] = dets[ok] * np.clip(inner, 0.0, None)
            values[positions] = out
        return values

    def joint_marginals_batch(self, subsets: Sequence[Sequence[int]]) -> np.ndarray:
        z = self.partition_function()
        tracker = current_tracker()
        with tracker.round("nkdpp-joint-marginals"):
            tracker.charge(machines=float(len(subsets)))
            values = self.counting_batch(subsets) / z
        return np.clip(values, 0.0, None)

    # ------------------------------------------------------------------ #
    def condition(self, include: Iterable[int]) -> "NonsymmetricKDPP":
        items = check_subset(include, self.n)
        if not items:
            return self
        if len(items) > self.k:
            raise ValueError(f"cannot condition a {self.k}-DPP on {len(items)} inclusions")
        L_cond, remaining = condition_ensemble(self.L, items)
        labels = tuple(self._labels[i] for i in remaining)
        return NonsymmetricKDPP(L_cond, self.k - len(items), validate=False, labels=labels)
