"""Block-structured Compressed Sparse Row matrices.

The paper's sparse micro-kernels (Section 4.3) win over dense GEMM only
when pruning leaves hardware-friendly structure: LIBXSMM JIT-unrolls
over the stored non-zeros, so scattered singletons waste the SIMD lanes
a dense ``r x c`` tile would fill.  :class:`BlockCsrMatrix` stores a
sparse ``m x k`` matrix as dense ``r x c`` tiles addressed CSR-style —
``values`` holds one dense tile per stored block, ``col_blocks`` its
block column, and ``row_ptr`` spans block *rows* — so SpMM vectorizes
over contiguous blocks instead of gathering one scalar at a time.

:func:`regroup_to_blocks` converts a scalar :class:`CsrMatrix`, measures
the achieved *block fill* (true non-zeros over stored cells), and falls
back to the scalar matrix when fill is too low: regrouping an
unstructured-pruned matrix stores mostly zeros and would be slower than
scalar CSR, whereas column-block pruning
(:class:`repro.pruning.ColumnBlockPruner`) yields fill ~1.0 by
construction.

The matrix is a layout, not a kernel: float32 compiled plans execute
it as gathered dense panels (``repro.runtime.compile``), and the
float64 reference multiplies the scalar CSR of the same weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.matmul.csr import CsrMatrix
from repro.utils.validation import check_array_2d


def _check_block_shape(block_shape) -> tuple[int, int]:
    try:
        r, c = (int(v) for v in block_shape)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"block_shape must be an (r, c) pair, got {block_shape!r}") from exc
    if r <= 0 or c <= 0:
        raise ValueError(f"block_shape must be positive, got {(r, c)}")
    return r, c


@dataclass
class BlockCsrMatrix:
    """A block-CSR sparse matrix of logical shape ``(m, k)``.

    ``values[b]`` is the dense ``r x c`` tile at block row
    ``i`` (where ``row_ptr[i] <= b < row_ptr[i+1]``) and block column
    ``col_blocks[b]``; tiles overlapping the logical edge are
    zero-padded.  Block columns are stored ascending within each block
    row, mirroring scalar CSR storage order.
    """

    values: np.ndarray
    col_blocks: np.ndarray
    row_ptr: np.ndarray
    shape: tuple[int, int]
    block_shape: tuple[int, int]

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        self.col_blocks = np.asarray(self.col_blocks, dtype=np.int64)
        self.row_ptr = np.asarray(self.row_ptr, dtype=np.int64)
        self.block_shape = _check_block_shape(self.block_shape)
        m, k = self.shape
        r, c = self.block_shape
        if m <= 0 or k <= 0:
            raise ValueError(f"shape must be positive, got {self.shape}")
        if self.values.ndim != 3 or self.values.shape[1:] != (r, c):
            raise ValueError(
                f"values must have shape (n_blocks, {r}, {c}), got {self.values.shape}"
            )
        if len(self.row_ptr) != self.n_block_rows + 1:
            raise ValueError(
                f"row_ptr must have {self.n_block_rows + 1} entries, got {len(self.row_ptr)}"
            )
        if self.row_ptr[0] != 0 or self.row_ptr[-1] != len(self.values):
            raise ValueError("row_ptr must start at 0 and end at n_blocks")
        if np.any(np.diff(self.row_ptr) < 0):
            raise ValueError("row_ptr must be non-decreasing")
        if len(self.col_blocks) != len(self.values):
            raise ValueError("values and col_blocks must have equal length")
        if len(self.col_blocks) and (
            self.col_blocks.min() < 0 or self.col_blocks.max() >= self.n_block_cols
        ):
            raise ValueError("col_blocks entries out of range")
        for i in range(self.n_block_rows):
            lo, hi = self.row_ptr[i], self.row_ptr[i + 1]
            if np.any(np.diff(self.col_blocks[lo:hi]) <= 0):
                raise ValueError(f"col_blocks must be strictly ascending in block row {i}")

    # ------------------------------------------------------------------
    # Construction / conversion
    # ------------------------------------------------------------------
    @classmethod
    def from_dense(cls, dense, block_shape) -> "BlockCsrMatrix":
        """Tile a dense matrix, keeping only blocks with a non-zero."""
        a = check_array_2d(dense, "dense")
        r, c = _check_block_shape(block_shape)
        m, k = a.shape
        mb, kb = -(-m // r), -(-k // c)
        padded = np.zeros((mb * r, kb * c), dtype=np.float64)
        padded[:m, :k] = a
        # (mb, kb, r, c): tiles addressable by (block row, block col).
        tiles = padded.reshape(mb, r, kb, c).transpose(0, 2, 1, 3)
        keep = np.any(tiles != 0.0, axis=(2, 3))
        counts = keep.sum(axis=1)
        rows, cols = np.nonzero(keep)  # row-major: ascending cols per row
        return cls(
            values=np.ascontiguousarray(tiles[rows, cols]),
            col_blocks=cols.astype(np.int64),
            row_ptr=np.concatenate(([0], np.cumsum(counts))).astype(np.int64),
            shape=(m, k),
            block_shape=(r, c),
        )

    def to_dense(self) -> np.ndarray:
        """Materialize the logical dense equivalent."""
        m, k = self.shape
        r, c = self.block_shape
        out = np.zeros((self.n_block_rows * r, self.n_block_cols * c), dtype=np.float64)
        for i in range(self.n_block_rows):
            for b in range(self.row_ptr[i], self.row_ptr[i + 1]):
                j = self.col_blocks[b]
                out[i * r : (i + 1) * r, j * c : (j + 1) * c] = self.values[b]
        return out[:m, :k]

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def n_block_rows(self) -> int:
        return -(-self.shape[0] // self.block_shape[0])

    @property
    def n_block_cols(self) -> int:
        return -(-self.shape[1] // self.block_shape[1])

    @property
    def n_blocks(self) -> int:
        """Number of stored tiles."""
        return len(self.values)

    @property
    def stored_cells(self) -> int:
        """Cells the stored tiles occupy (including padding zeros)."""
        return self.n_blocks * self.block_shape[0] * self.block_shape[1]

    @property
    def nnz(self) -> int:
        """True non-zeros inside the stored tiles."""
        return int(np.count_nonzero(self.values))

    @property
    def fill(self) -> float:
        """True non-zeros over stored cells — the vectorization payoff.

        1.0 means every stored cell does useful work (perfect blocking);
        low fill means the blocks mostly multiply zeros and scalar CSR
        would be cheaper.
        """
        stored = self.stored_cells
        return self.nnz / stored if stored else 0.0

    @property
    def sparsity(self) -> float:
        """Fraction of logical entries that are zero."""
        m, k = self.shape
        return 1.0 - self.nnz / (m * k)

    @property
    def block_sparsity(self) -> float:
        """Fraction of tile positions holding no stored block."""
        total = self.n_block_rows * self.n_block_cols
        return 1.0 - self.n_blocks / total if total else 0.0


def regroup_to_blocks(
    matrix: CsrMatrix,
    block_shape=(64, 8),
    *,
    min_fill: float = 0.5,
) -> BlockCsrMatrix | CsrMatrix:
    """Regroup a scalar CSR matrix into dense tiles, or refuse.

    Returns a :class:`BlockCsrMatrix` when the achieved block fill
    reaches ``min_fill``, else the original scalar matrix — blocking an
    unstructured sparsity pattern stores mostly zeros, so the scalar
    kernel stays faster and the caller keeps CSR.
    """
    if not isinstance(matrix, CsrMatrix):
        raise TypeError(f"expected CsrMatrix, got {type(matrix).__name__}")
    if not 0.0 <= min_fill <= 1.0:
        raise ValueError(f"min_fill must be in [0, 1], got {min_fill}")
    blocked = BlockCsrMatrix.from_dense(matrix.to_dense(), block_shape)
    if blocked.n_blocks == 0 or blocked.fill < min_fill:
        return matrix
    return blocked
