"""Nonsymmetric DPPs and k-DPPs (Definitions 4–6).

A nonsymmetric PSD (nPSD) ensemble matrix satisfies ``L + Lᵀ ⪰ 0``, which
guarantees nonnegative principal minors [Gar+19, Lemma 1] so ``det(L_S)``
defines a measure.  The determinant identities used for counting are purely
algebraic and hold verbatim:

* ``Σ_{S ⊇ T} det(L_S) = det(K_T) det(I + L)`` with ``K = L (I + L)^{-1}``,
  the unconstrained DPP's oracle: marginal-kernel minors;
* ``Σ_{S ⊇ T} z^{|S|} det(L_S) = det(A) · det(I − A⁻¹[T, T])`` with
  ``A = I + zL``, whose ``z^k`` coefficient is the k-DPP's count.  The k-DPP
  is therefore the one-part Partition-DPP: it reads that coefficient off
  node tables of ``(det A, A⁻¹)`` on a circle, built once per root
  (:func:`repro.dpp.partition.torus_tables`), and a conditioned child reads
  its root's tables until it is deep enough to re-root on its Schur
  complement.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.distributions.base import SubsetDistribution
from repro.dpp.elementary import normalize_sizes
from repro.dpp.kernels import ensemble_to_kernel, validate_ensemble
from repro.dpp.likelihood import all_principal_minor_sums
from repro.dpp.partition import PartitionDPP
from repro.linalg.batch import grouped_principal_minors
from repro.linalg.determinant import principal_minor
from repro.linalg.schur import condition_ensemble
from repro.pram.tracker import current_tracker
from repro.utils.validation import check_positive_int, check_subset


class NonsymmetricDPP(SubsetDistribution):
    """Unconstrained nonsymmetric DPP ``P[Y] ∝ det(L_Y)`` with nPSD ``L``.

    Its oracle serves any ``n``; :meth:`restrict_to_size` (and so Theorem 8's
    unconstrained sampler) builds a :class:`NonsymmetricKDPP`: ``n ≤ 406``.
    """

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

    def worker_payload(self):
        """Ship ``L`` (plus the marginal kernel and ``det(I + L)`` once computed)."""
        arrays = {"L": self.L}
        if self._kernel is not None:
            arrays["kernel"] = self._kernel
        return arrays, {"labels": self._labels, "z": self._z}

    @classmethod
    def from_worker_payload(cls, arrays, params):
        dist = cls(arrays["L"], validate=False, labels=params["labels"])
        if "kernel" in arrays:
            dist._kernel = arrays["kernel"]
        dist._z = params["z"]
        return dist

    def oracle_cost_hint(self) -> float:
        """Marginal-kernel minors, exactly like the symmetric DPP."""
        return 0.05

    # ------------------------------------------------------------------ #
    def unnormalized(self, subset: Iterable[int]) -> float:
        items = check_subset(subset, self.n)
        return max(principal_minor(self.L, items), 0.0)

    def partition_function(self) -> float:
        """``det(I + L)``, computed and charged on first use only."""
        if self._z is None:
            current_tracker().charge_determinant(self.n)
            self._z = float(np.linalg.det(np.eye(self.n) + self.L))
        return self._z

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
        return normalize_sizes(np.clip(all_principal_minor_sums(self.L), 0.0, None))

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


class NonsymmetricKDPP(PartitionDPP):
    """Nonsymmetric k-DPP ``P[Y] ∝ det(L_Y) · 1[|Y| = k]`` with nPSD ``L``.

    The one-part :class:`~repro.dpp.partition.PartitionDPP` (part ``[n]``,
    count ``k``): every count, marginal and conditioned child comes from the
    torus tables of ``det(I + z L)``, whose identity needs no symmetry.  The
    tables hold ``n + 1`` complex ``n x n`` inverses, so ``n`` is capped at
    406 (:class:`~repro.dpp.partition.InterpolationGridTooLarge`), and a
    construction holds about ``16 (n + 1) n²`` bytes (1 GiB near the cap).
    ``tables`` lets a warm factorization cache supply them.
    """

    def __init__(self, L: np.ndarray, k: int, *, validate: bool = True,
                 labels: Optional[Sequence[int]] = None,
                 tables: Optional[Tuple[np.ndarray, np.ndarray]] = None):
        L = validate_ensemble(L, symmetric=False) if validate else np.asarray(L, dtype=float)
        n = L.shape[0]
        k = int(check_positive_int(k, "k", minimum=0)) if k else 0
        if k > n:
            raise ValueError(f"k={k} exceeds ground set size {n}")
        # tables go in after the base constructor, whose own zero-mass check
        # would otherwise answer for this class
        super().__init__(L, [range(n)], [k], validate=False, labels=labels)
        self._tables = tables
        if self.partition_function() <= 0:
            raise ValueError(f"nonsymmetric k-DPP with k={self.k} has zero partition function")
