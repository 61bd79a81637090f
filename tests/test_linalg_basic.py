"""Tests for repro.linalg: determinants, Schur, ESPs, PSD helpers."""

import numpy as np
import pytest

from repro.linalg.batch import grouped_principal_minors
from repro.linalg.determinant import principal_minor
from repro.linalg.esp import elementary_symmetric_polynomials
from repro.linalg.psd import (
    is_npsd,
    is_psd,
    project_psd,
    psd_sqrt,
    random_orthogonal,
    symmetrize,
)
from repro.linalg.schur import condition_ensemble, schur_complement


def reference_esp(values, max_order=None):
    """The scalar ESP loop the single routine replaced, kept as its reference."""
    vals = np.asarray(values).ravel()
    vals = vals.astype(complex if np.iscomplexobj(vals) else float)
    n = vals.size
    m = n if max_order is None else int(max_order)
    esp = np.zeros(m + 1, dtype=vals.dtype)
    esp[0] = 1.0
    upper = min(m, n)
    for x in vals:
        esp[1:upper + 1] = esp[1:upper + 1] + x * esp[0:upper]
    return esp


class TestDeterminants:
    def test_principal_minor(self, small_psd):
        subset = (1, 3, 4)
        expected = np.linalg.det(small_psd[np.ix_(subset, subset)])
        assert principal_minor(small_psd, subset) == pytest.approx(expected)

    def test_principal_minor_empty(self, small_psd):
        assert principal_minor(small_psd, ()) == 1.0

    def test_principal_minor_out_of_range(self, small_psd):
        with pytest.raises(ValueError):
            principal_minor(small_psd, (0, 99))

    def test_batched_matches_loop(self, small_psd):
        for subsets in ([(0, 1), (2, 3), (1, 4)], [(0,), (1, 2), (), (3, 4, 5), (2,)]):
            batched = grouped_principal_minors(small_psd, subsets)
            direct = [principal_minor(small_psd, s) for s in subsets]
            assert np.allclose(batched, direct)

    def test_batched_empty_subsets(self, small_psd):
        assert np.allclose(grouped_principal_minors(small_psd, [(), ()]), [1.0, 1.0])

    def test_batched_no_subsets(self, small_psd):
        assert grouped_principal_minors(small_psd, []).size == 0


class TestSchur:
    def test_determinant_factorization(self, small_psd):
        # det(M) = det(M_BB) * det(schur complement)
        block = (0, 2)
        sc = schur_complement(small_psd, block)
        det_block = np.linalg.det(small_psd[np.ix_(block, block)])
        assert np.linalg.det(small_psd) == pytest.approx(det_block * np.linalg.det(sc), rel=1e-8)

    def test_empty_block_is_identity_operation(self, small_psd):
        assert np.allclose(schur_complement(small_psd, ()), small_psd)

    def test_full_block_gives_empty(self, small_psd):
        out = schur_complement(small_psd, tuple(range(6)))
        assert out.shape == (0, 0)

    def test_condition_ensemble_matches_conditional_minors(self, small_psd):
        # det(L_{T ∪ A}) = det(L_T) * det((L^T)_A)
        T = (1, 4)
        L_cond, remaining = condition_ensemble(small_psd, T)
        A_local = (0, 2)  # indices into remaining
        A_global = tuple(remaining[i] for i in A_local)
        lhs = np.linalg.det(small_psd[np.ix_(T + A_global, T + A_global)])
        rhs = np.linalg.det(small_psd[np.ix_(T, T)]) * np.linalg.det(L_cond[np.ix_(A_local, A_local)])
        assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_condition_on_zero_probability_event_raises(self):
        L = np.zeros((3, 3))
        with pytest.raises(ValueError):
            condition_ensemble(L, (0,))

    def test_remaining_labels(self, small_psd):
        _, remaining = condition_ensemble(small_psd, (0, 3))
        assert list(remaining) == [1, 2, 4, 5]


class TestESP:
    def test_small_case_by_hand(self):
        esp = elementary_symmetric_polynomials(np.array([1.0, 2.0, 3.0]))
        assert np.allclose(esp, [1.0, 6.0, 11.0, 6.0])

    def test_max_order_truncation(self):
        esp = elementary_symmetric_polynomials(np.array([1.0, 2.0, 3.0]), max_order=1)
        assert np.allclose(esp, [1.0, 6.0])

    def test_empty_values(self):
        assert np.allclose(elementary_symmetric_polynomials(np.array([])), [1.0])

    def test_one_dimensional_input_matches_reference_bitwise(self, rng):
        # orders below n / 2 take the order-wise cumulative sums, the rest the
        # per-value loop; complex spectra (``dpp/likelihood.py``) and exact
        # zeros go down both
        for n in (1, 2, 7, 33, 200):
            # entries spread over 1e±8, or 1e±1 at n = 200, where e_100 would overflow
            decades = 8 if n <= 33 else 1
            real = rng.exponential(size=n) * 10.0 ** rng.uniform(-decades, decades, size=n)
            real[rng.random(n) < 0.2] = 0.0
            complex_ = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            complex_[rng.random(n) < 0.2] = 0.0
            for values in (rng.exponential(size=n), real, complex_):
                for max_order in (None, 0, 1, n // 4, (n - 1) // 2, n // 2, n - 1, n, n + 2):
                    esp = elementary_symmetric_polynomials(values, max_order)
                    assert esp.dtype == reference_esp(values, max_order).dtype
                    assert np.array_equal(esp, reference_esp(values, max_order))

    def test_each_stacked_row_matches_reference_bitwise(self, rng):
        stack = rng.exponential(size=(3, 4, 9))
        for max_order in (0, 1, 5, 9, 11):
            table = elementary_symmetric_polynomials(stack, max_order)
            assert table.shape == (max_order + 1, 3, 4)
            for i, j in np.ndindex(3, 4):
                assert np.array_equal(table[:, i, j], reference_esp(stack[i, j], max_order))

    def test_complex_rows_match_numpy_poly(self, rng):
        # e_j is the coefficient of t^{n-j} in prod (t + x_i)
        stack = rng.standard_normal((6, 8)) + 1j * rng.standard_normal((6, 8))
        table = elementary_symmetric_polynomials(stack)
        for row in range(6):
            np.testing.assert_allclose(table[:, row], np.poly(-stack[row]), rtol=1e-13)


class TestPSD:
    def test_is_psd_true(self, small_psd):
        assert is_psd(small_psd)

    def test_is_psd_false_for_indefinite(self):
        assert not is_psd(np.diag([1.0, -1.0]))

    def test_is_psd_false_for_asymmetric(self, rng):
        a = rng.standard_normal((4, 4))
        assert not is_psd(a + 5 * np.eye(4)) or np.allclose(a, a.T)

    def test_is_npsd(self, small_npsd):
        assert is_npsd(small_npsd)

    def test_is_npsd_false(self):
        assert not is_npsd(np.diag([-2.0, 1.0]))

    def test_project_psd_is_psd(self, rng):
        a = rng.standard_normal((5, 5))
        assert is_psd(project_psd(a))

    def test_project_psd_fixes_negative_eigenvalues(self):
        a = np.diag([1.0, -0.5])
        out = project_psd(a)
        assert np.linalg.eigvalsh(out).min() >= -1e-12

    def test_psd_sqrt_squares_back(self, small_psd):
        root = psd_sqrt(small_psd)
        assert np.allclose(root @ root, small_psd, atol=1e-8)

    def test_psd_sqrt_rejects_indefinite(self):
        with pytest.raises(ValueError):
            psd_sqrt(np.diag([1.0, -1.0]))

    def test_random_orthogonal(self):
        q = random_orthogonal(6, seed=0)
        assert np.allclose(q @ q.T, np.eye(6), atol=1e-10)

    def test_symmetrize(self, rng):
        a = rng.standard_normal((4, 4))
        s = symmetrize(a)
        assert np.allclose(s, s.T)
