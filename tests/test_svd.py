"""The SVD contract of the PCA core, prompt_engine._pca_basis: ordering, sign
and rank conventions, the orthonormal completion, float32, batch
independence and non-finite blocks."""
import numpy as np

from viapt.numerics import Tensor
from viapt.prompt_engine import _batched_pca_coords, _pca_basis

from oracles import jacobi_eigh, principal_angles

RNG = np.random.default_rng(77)


def _one(m, k):
    s, basis, proj = _pca_basis(m[None], k)
    return s[0], basis[0], proj[0]


def test_diagonal_case():
    s, v, _ = _one(np.diag([3.0, 1.0]), 1)
    assert np.allclose(s, [3.0, 1.0])
    assert np.allclose(np.abs(v[:, 0]), [1.0, 0.0])
    assert v[0, 0] > 0


def test_full_reconstruction_random_6x4():
    m = RNG.standard_normal((6, 4))
    _, v, proj = _one(m, 4)
    assert np.array_equal(v, proj)
    assert np.abs(m - m @ v @ v.T).max() < 1e-10


def test_topm_subspace_matches_jacobi_eigh_oracle():
    m = RNG.standard_normal((9, 5))
    _, v, _ = _one(m, 3)
    eigvals, eigvecs = jacobi_eigh(m.T @ m)
    assert principal_angles(v, eigvecs[:, :3]) < 1e-8


def test_orthonormality_and_ordering():
    for shape in [(6, 4), (4, 6), (10, 10), (3, 12)]:
        m = RNG.standard_normal(shape)
        k = shape[1]
        s, v, _ = _one(m, k)
        assert np.abs(v.T @ v - np.eye(k)).max() < 1e-10
        assert (np.diff(s) <= 1e-12).all()
        assert (s >= 0).all()


def test_singular_values_match_lapack():
    # masking a non-finite block must not disturb its neighbours
    batch = RNG.standard_normal((3, 7, 5))
    batch[1, 2, 3] = np.inf
    s, _, _ = _pca_basis(batch, 5)
    for i in (0, 2):
        assert np.allclose(s[i], np.linalg.svd(batch[i], compute_uv=False), atol=1e-10)


def test_sign_convention():
    for _ in range(5):
        m = RNG.standard_normal((6, 5))
        _, v, _ = _one(m, 5)
        for i in range(v.shape[1]):
            col = v[:, i]
            assert col[np.argmax(np.abs(col))] > 0


def test_rank_deficient_wide_matrix_gets_completed_basis():
    m = np.outer(RNG.standard_normal(4), RNG.standard_normal(9))
    s, v, proj = _one(m, 6)
    assert s[0] > 0 and np.allclose(s[1:], 0, atol=1e-12)
    assert np.abs(v.T @ v - np.eye(6)).max() < 1e-10
    assert np.array_equal(proj[:, :1], v[:, :1]) and not proj[:, 1:].any()
    assert np.abs(m - m @ proj @ proj.T).max() < 1e-10


def test_m_zero_gives_empty_factors():
    s, v, proj = _pca_basis(RNG.standard_normal((2, 3, 5)), 0)
    assert s.shape == (2, 3) and v.shape == (2, 5, 0) and proj.shape == (2, 5, 0)


def test_non_finite_block_reads_nan():
    batch = RNG.standard_normal((3, 4, 6))
    batch[2, 0, 0] = np.nan
    s, v, proj = _pca_basis(batch, 3)
    assert np.isnan(s[2]).all() and np.isnan(v[2]).all() and np.isnan(proj[2]).all()
    assert np.isfinite(s[:2]).all() and np.isfinite(proj[:2]).all()


def test_batch_results_independent_of_neighbours():
    batch = Tensor(RNG.standard_normal((6, 8, 12)).astype(np.float32))
    together = []
    _batched_pca_coords(batch, 6, capture=together)
    mean_all, proj_all = together[0]
    for i in range(6):
        alone = []
        _batched_pca_coords(Tensor(batch.data[i : i + 1]), 6, capture=alone)
        mean_one, proj_one = alone[0]
        assert np.array_equal(mean_all[i], mean_one[0])
        assert np.array_equal(proj_all[i], proj_one[0])


def test_float32_path():
    m = RNG.standard_normal((8, 48)).astype(np.float32)
    s, v, proj = _one(m, 8)
    assert s.dtype == v.dtype == proj.dtype == np.float32
    assert np.abs(m - (m @ v) @ v.T).max() < 1e-4
    assert np.abs(v.T @ v - np.eye(8)).max() < 1e-5
