"""Tests for repro.matmul.blocks — block-CSR storage and the fill gate."""

import numpy as np
import pytest

from repro.matmul import BlockCsrMatrix, CsrMatrix, regroup_to_blocks
from repro.pruning import column_block_mask


def column_block_sparse(m, k, sparsity, block_cols=8, seed=0):
    """A dense matrix pruned in whole aligned column groups."""
    rng = np.random.default_rng(seed)
    dense = rng.normal(size=(m, k))
    return dense * column_block_mask(dense, sparsity, block_cols)


def scattered_sparse(m, k, density, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(m, k)) * (rng.random((m, k)) < density)


class TestConstruction:
    def test_from_dense_roundtrip(self):
        dense = column_block_sparse(32, 24, 0.5)
        blocked = BlockCsrMatrix.from_dense(dense, (8, 8))
        np.testing.assert_array_equal(blocked.to_dense(), dense)

    def test_roundtrip_with_ragged_edges(self):
        # Neither dimension divides the block shape; edge tiles are
        # zero-padded internally but to_dense clips back to the
        # logical shape.
        dense = scattered_sparse(13, 11, 0.4)
        blocked = BlockCsrMatrix.from_dense(dense, (4, 4))
        assert blocked.shape == (13, 11)
        np.testing.assert_array_equal(blocked.to_dense(), dense)

    def test_all_zero_matrix_stores_no_blocks(self):
        blocked = BlockCsrMatrix.from_dense(np.zeros((8, 8)), (4, 4))
        assert blocked.n_blocks == 0
        assert blocked.nnz == 0
        np.testing.assert_array_equal(blocked.to_dense(), np.zeros((8, 8)))

    def test_counts_on_a_known_pattern(self):
        dense = np.zeros((8, 8))
        dense[:4, :4] = 1.0  # one fully dense tile
        dense[4, 4] = 2.0  # one singleton in another tile
        blocked = BlockCsrMatrix.from_dense(dense, (4, 4))
        assert blocked.n_blocks == 2
        assert blocked.stored_cells == 32
        assert blocked.nnz == 17
        assert blocked.fill == pytest.approx(17 / 32)

    def test_invalid_block_shape(self):
        with pytest.raises(ValueError, match="block_shape"):
            BlockCsrMatrix.from_dense(np.ones((4, 4)), (0, 4))
        with pytest.raises(ValueError, match="block_shape"):
            BlockCsrMatrix.from_dense(np.ones((4, 4)), "4x4")


class TestFillAndSparsity:
    def test_column_block_pruning_yields_full_tiles(self):
        # Whole-column-group pruning aligned to the tile width leaves
        # every stored tile fully dense.
        dense = column_block_sparse(64, 64, 0.75, block_cols=8)
        blocked = BlockCsrMatrix.from_dense(dense, (64, 8))
        assert blocked.fill == pytest.approx(1.0)
        assert blocked.sparsity == pytest.approx(
            1 - blocked.nnz / dense.size
        )

    def test_scattered_pruning_yields_low_fill(self):
        dense = scattered_sparse(64, 64, 0.05)
        blocked = BlockCsrMatrix.from_dense(dense, (64, 8))
        assert blocked.fill < 0.5

    def test_block_sparsity_counts_tiles(self):
        dense = np.zeros((8, 16))
        dense[:4, :4] = 1.0
        blocked = BlockCsrMatrix.from_dense(dense, (4, 4))
        # 2 x 4 = 8 tile positions, one stored.
        assert blocked.block_sparsity == pytest.approx(1 - 1 / 8)


class TestRegroup:
    def test_structured_matrix_regroups(self):
        dense = column_block_sparse(64, 64, 0.75, block_cols=8)
        csr = CsrMatrix.from_dense(dense)
        regrouped = regroup_to_blocks(csr, (64, 8), min_fill=0.5)
        assert isinstance(regrouped, BlockCsrMatrix)
        assert regrouped.fill >= 0.5
        np.testing.assert_array_equal(regrouped.to_dense(), dense)

    def test_scattered_matrix_falls_back_to_scalar(self):
        csr = CsrMatrix.from_dense(scattered_sparse(64, 64, 0.05))
        regrouped = regroup_to_blocks(csr, (64, 8), min_fill=0.5)
        assert regrouped is csr

    def test_zero_matrix_falls_back(self):
        csr = CsrMatrix.from_dense(np.zeros((8, 8)))
        assert regroup_to_blocks(csr, (4, 4), min_fill=0.0) is csr

    def test_min_fill_zero_always_blocks(self):
        csr = CsrMatrix.from_dense(scattered_sparse(16, 16, 0.05, seed=3))
        regrouped = regroup_to_blocks(csr, (4, 4), min_fill=0.0)
        assert isinstance(regrouped, BlockCsrMatrix)

    def test_rejects_non_csr(self):
        with pytest.raises(TypeError, match="CsrMatrix"):
            regroup_to_blocks(np.ones((4, 4)), (2, 2))

    def test_rejects_bad_min_fill(self):
        csr = CsrMatrix.from_dense(np.ones((4, 4)))
        with pytest.raises(ValueError, match="min_fill"):
            regroup_to_blocks(csr, (2, 2), min_fill=1.5)
