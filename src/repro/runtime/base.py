"""The ``Scorer`` protocol — the library's single scoring surface.

Every deployable model (QuickScorer forests, distilled students served
through their compiled plans, early-exit cascades, future backends) is
adapted to one small interface:

* ``score(X) -> np.ndarray`` — per-document scores for a 2-D feature
  matrix;
* ``predicted_us_per_doc`` — the calibrated cost model's µs/doc price,
  computed lazily (pricing a network needs the GFLOPS surface, which is
  only built when someone actually asks for a price);
* ``describe()`` — a human-readable one-liner;
* ``batchable`` — whether a request may be split into micro-batches
  (cascades rank *within* a request, so they must see it whole);
* ``coalescable`` (optional, default ``False``) — whether a
  non-batchable scorer takes a whole coalesced batch of requests in
  one call, splitting it itself at the request boundaries the engine
  pins (:func:`request_rows`); cascades do;
* ``input_dim`` — expected feature count, or ``None`` when the backend
  cannot know it.

Adapters additionally guarantee **chunk-invariant scoring**: splitting a
feature matrix into micro-batches of any size yields bit-identical
scores to one full-matrix call.  Tree traversal is row-independent by
construction; the network adapter's stable compiled plans run dense
layers through :class:`StableTiles` — BLAS GEMM over fixed
:data:`STABLE_TILE`-document tiles, one document per column — instead
of one GEMM over the whole batch, whose accumulation order (and
therefore last-bit rounding) changes with the batch shape.  Offline
evaluation keeps using the models' native ``predict``.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Sequence
from contextlib import contextmanager
from typing import Any, Protocol, runtime_checkable

import numpy as np



@runtime_checkable
class Scorer(Protocol):
    """Protocol of a priced, deployable document scorer."""

    #: Registry name of the backend that produced this scorer.
    backend: str
    #: Whether requests may be split into micro-batches.
    batchable: bool
    #: Optional: whether a non-batchable scorer takes a coalesced batch
    #: whole (read with ``getattr(scorer, "coalescable", False)``).

    @property
    def input_dim(self) -> int | None:  # pragma: no cover - protocol
        """Expected feature count (``None`` if unknown)."""
        ...

    @property
    def predicted_us_per_doc(self) -> float:  # pragma: no cover - protocol
        """Calibrated per-document scoring price, in microseconds."""
        ...

    def score(self, features) -> np.ndarray:  # pragma: no cover - protocol
        """Score a 2-D feature matrix; returns shape ``(n_docs,)``."""
        ...

    def describe(self) -> str:  # pragma: no cover - protocol
        """One-line human-readable description."""
        ...


def is_scorer(obj: Any) -> bool:
    """Cheap structural check for the :class:`Scorer` protocol.

    Inspects the *type* so that lazily-priced scorers are not forced to
    compute their price just to be recognized.
    """
    t = type(obj)
    return all(
        hasattr(t, name)
        for name in ("score", "describe", "predicted_us_per_doc", "backend")
    )


class BaseScorer:
    """Shared plumbing for the concrete adapters: lazy pricing.

    Subclasses set ``backend``/``batchable`` as class attributes and pass
    a zero-argument ``price_fn`` that is evaluated (once) on the first
    ``predicted_us_per_doc`` access.
    """

    backend: str = "base"
    batchable: bool = True

    def __init__(self, *, price_fn: Callable[[], float], input_dim: int | None) -> None:
        self._price_fn = price_fn
        self._price: float | None = None
        self._input_dim = input_dim

    @property
    def input_dim(self) -> int | None:
        return self._input_dim

    @property
    def predicted_us_per_doc(self) -> float:
        if self._price is None:
            self._price = float(self._price_fn())
        return self._price

    def score(self, features) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def describe(self) -> str:  # pragma: no cover - abstract
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} [{self.backend}] {self.describe()}>"


# ----------------------------------------------------------------------
# Request-scoped version pinning
# ----------------------------------------------------------------------
#: Thread-local (token, rows) set by the batch engine around one engine
#: call: ``rows`` holds the row count of each logical request the call
#: carries (one entry for a plain call), or ``None`` while hidden.
#: Version-aware scorers (:class:`~repro.runtime.lifecycle.
#: VersionedScorer`) snapshot the active model version once per token,
#: so a hot swap landing mid-way through a chunked request can never mix
#: versions within it.
_PIN_STATE = threading.local()


@contextmanager
def pinned_scope(rows: Sequence[int]):
    """Pin version resolution for the duration of one engine call.

    The engine wraps each ``score`` / ``score_coalesced`` execution in
    this scope.  Scorers that resolve a mutable target per call (the
    versioned registry scorer) cache their resolution against the
    scope's token: every chunk of the wrapped call sees the same model
    version — the "in-flight requests finish on the incumbent" half of
    the zero-downtime swap contract.  ``rows`` gives the row count of
    each logical request in the call (``(n,)`` for a plain call, one
    entry per member of a coalesced one): per-version served counts
    stay request-accurate, and scorers that split a coalesced batch
    themselves read the boundaries back with :func:`request_rows`.
    No-op overhead for ordinary scorers.
    """
    previous = getattr(_PIN_STATE, "state", None)
    _PIN_STATE.state = (object(), tuple(rows))
    try:
        yield
    finally:
        _PIN_STATE.state = previous


def current_pin() -> tuple[object, tuple[int, ...] | None] | None:
    """The calling thread's active pin ``(token, rows)``, if any."""
    return getattr(_PIN_STATE, "state", None)


def request_rows(n_rows: int) -> tuple[int, ...] | None:
    """The pinned per-request row counts, when they tile an
    ``n_rows``-row call exactly; ``None`` otherwise (no pin, hidden
    boundaries, or a call that is a chunk of the engine call)."""
    state = getattr(_PIN_STATE, "state", None)
    if state is None or state[1] is None or sum(state[1]) != n_rows:
        return None
    return state[1]


@contextmanager
def hidden_request_rows():
    """Hide the pinned request boundaries from nested calls.

    A scorer that consumed the boundaries (a cascade running its
    stages) wraps its inner calls in this scope, so a nested scorer
    never mistakes the outer requests for its own.  The version pin
    itself stays in force.
    """
    state = getattr(_PIN_STATE, "state", None)
    if state is None or state[1] is None:
        yield
        return
    _PIN_STATE.state = (state[0], None)
    try:
        yield
    finally:
        _PIN_STATE.state = state


#: Documents per stable-mode GEMM tile.  Part of the bit contract, not a
#: tuning option: every chunk-invariant caller multiplies tiles of
#: exactly this width, so a document's bits never depend on the batch.
STABLE_TILE = 16

#: Tiles per numpy ``matmul`` call.  Bounds the product scratch to this
#: many tiles whatever the batch; numpy still issues one BLAS GEMM per
#: tile of the stack, so this does not touch the bits.
TILES_PER_CALL = 8

#: Document widths of the wide stable GEMMs, widest first.  Plans cover
#: a batch's full tiles with one ``w @ block.T`` call per this many
#: documents, for each width :func:`wide_widths` verified on the
#: layer's shape; the rest stays on :data:`STABLE_TILE`-document tiles.
STABLE_WIDE_WIDTHS = (256, 64)


class StableTiles:
    """Preallocated fixed-tile operands for one chunk-invariant product.

    Computes ``out = a @ w.T`` as one BLAS GEMM per :data:`STABLE_TILE`
    documents with the weights on the left: ``w @ tile.T``, each
    document one column of the right operand.  The full tiles are views
    of ``a``; the ragged tail is copied into the zero-padded ``tile``
    scratch, so every BLAS call has the same shape and operand layout
    whatever ``n``.  A column's bits then depend only on that document
    and the weights — never on the batch size, shard boundaries, row
    order or the other documents' values (a NaN row stays in its own
    column).  Plain ``a @ w.T`` cannot promise this: on OpenBLAS 0.3.31
    a row's GEMM bits change with the batch size and with its position
    in the batch, and ``tile @ w.T`` (documents as rows) with the row
    order inside a tile.

    ``wide`` lists document widths (widest first) whose ``w @ block.T``
    calls :func:`wide_widths` found to reproduce the tile bits for this
    shape: the leading full tiles are covered greedily by calls of
    those widths (``block`` a view of ``width`` rows of ``a``), and the
    remaining full tiles and the tail run as above.  Each wide product
    lands in the first ``m * width`` elements of ``wide_prod``, a
    C-contiguous scratch vector.

    ``a`` is the C-contiguous ``(n, k)`` input, ``out`` the ``(n, m)``
    destination (any strides), ``tile`` a C-contiguous
    ``(STABLE_TILE, k)`` scratch and ``prod`` a C-contiguous
    ``(tiles, m, STABLE_TILE)`` product buffer with
    ``tiles = min(ceil(n / STABLE_TILE), TILES_PER_CALL)``, so every
    operand stays BLAS-able (numpy silently falls back to its own
    loop — other bits, ~10x slower — when one is not).  Built once per
    shape; :meth:`run` only slices views of these buffers, so it keeps
    the heap flat.
    """

    __slots__ = (
        "wide", "body", "body_out", "prod", "tail_in", "tail", "tail_pad",
        "tail_t", "tail_res", "tail_out",
    )

    def __init__(
        self, a: np.ndarray, out: np.ndarray, tile: np.ndarray, prod: np.ndarray,
        *, wide: tuple[int, ...] = (), wide_prod: np.ndarray | None = None,
    ) -> None:
        if not all(x.flags.c_contiguous for x in (a, tile, prod)) or (
            wide and not wide_prod.flags.c_contiguous
        ):
            # A copy would silently detach the views from the buffers.
            raise ValueError("StableTiles needs C-contiguous a, tile and prod")
        n, k = a.shape
        m = out.shape[1]
        full, rest = divmod(n, STABLE_TILE)
        cut = full * STABLE_TILE
        start = 0
        chunks = []
        for width in wide:
            count = (cut - start) // width
            if count:
                end = start + count * width
                chunks.append((
                    a[start:end].reshape(count, width, k).transpose(0, 2, 1),
                    out[start:end].reshape(count, width, m).transpose(0, 2, 1),
                    wide_prod[: m * width].reshape(m, width),
                ))
                start = end
        self.wide = tuple(chunks)
        tiles = (cut - start) // STABLE_TILE
        self.body = a[start:cut].reshape(tiles, STABLE_TILE, k).transpose(0, 2, 1)
        self.body_out = out[start:cut].reshape(tiles, STABLE_TILE, m).transpose(0, 2, 1)
        self.prod = prod
        self.tail_in = None
        if rest:
            self.tail_in = a[cut:]
            self.tail = tile[:rest]
            self.tail_pad = tile[rest:]
            self.tail_t = tile.T
            self.tail_res = prod[0, :, :rest]
            self.tail_out = out[cut:].T

    def run(self, w: np.ndarray) -> None:
        """Write ``a @ w.T`` into ``out``; ``w`` is ``(m, k)``."""
        # Chunks are sliced per call, not prebuilt: plans cache one
        # StableTiles per layer and batch size, so each must stay small.
        for blocks, outs, prod in self.wide:
            for block, dest in zip(blocks, outs):
                np.matmul(w, block, out=prod)
                np.copyto(dest, prod)
        for i in range(0, len(self.body), TILES_PER_CALL):
            tiles = self.body[i : i + TILES_PER_CALL]
            prod = self.prod[: len(tiles)]
            np.matmul(w, tiles, out=prod)
            np.copyto(self.body_out[i : i + TILES_PER_CALL], prod)
        if self.tail_in is not None:
            np.copyto(self.tail, self.tail_in)
            self.tail_pad.fill(0.0)
            np.matmul(w, self.tail_t, out=self.prod[0])
            np.copyto(self.tail_out, self.tail_res)


def product_tiles(n: int) -> int:
    """Tiles a :class:`StableTiles` product buffer holds for ``n`` rows."""
    return min(-(-n // STABLE_TILE), TILES_PER_CALL)


#: ``(m, k, dtype, width) -> bool`` verdicts of :func:`wide_widths`.
_WIDE_VERDICTS: dict[tuple[int, int, str, int], bool] = {}
_WIDE_LOCK = threading.Lock()


def _wide_matches_tiles(m: int, k: int, dtype: np.dtype, width: int) -> bool:
    """Whether ``width``-document calls give the tile bits at ``(m, k)``."""
    rng = np.random.default_rng(m * 7919 + k)
    w = rng.standard_normal((m, k)).astype(dtype)
    a = rng.standard_normal((width, k)).astype(dtype)
    tile = np.empty((STABLE_TILE, k), dtype=dtype)
    prod = np.empty((product_tiles(width), m, STABLE_TILE), dtype=dtype)
    tiled = np.empty((width, m), dtype=dtype)
    wide = np.empty((width, m), dtype=dtype)
    StableTiles(a, tiled, tile, prod).run(w)
    StableTiles(
        a, wide, tile, prod, wide=(width,),
        wide_prod=np.empty(m * width, dtype=dtype),
    ).run(w)
    return tiled.tobytes() == wide.tobytes()


def wide_widths(m: int, k: int, dtype, limit: int) -> tuple[int, ...]:
    """The :data:`STABLE_WIDE_WIDTHS` up to ``limit`` documents whose
    wide GEMMs reproduce the tile bits of an ``(m, k)`` weight.

    BLAS picks its code path from shape, operand layout, dtype and
    thread count, never from the values, so one probe on random
    operands decides a ``(m, k, dtype, width)`` for every weight and
    batch.  Verdicts are memoized per process.  On OpenBLAS 0.3.31 the
    probe fails on ``50 x 136``, ``50 x 50``, ``50 x 200`` and
    ``64 x 136`` at every width and on ``25 x 50`` from 64 documents
    up; those layers stay tiled.
    """
    dtype = np.dtype(dtype)
    enabled = []
    for width in STABLE_WIDE_WIDTHS:
        if width > limit:
            continue
        key = (m, k, dtype.str, width)
        verdict = _WIDE_VERDICTS.get(key)
        if verdict is None:
            with _WIDE_LOCK:
                verdict = _WIDE_VERDICTS.get(key)
                if verdict is None:
                    verdict = _WIDE_VERDICTS[key] = _wide_matches_tiles(
                        m, k, dtype, width
                    )
        if verdict:
            enabled.append(width)
    return tuple(enabled)


def stable_matmul(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Chunk-invariant ``a @ w.T`` on fixed GEMM tiles (allocating).

    Runs :class:`StableTiles` on fresh buffers, so its bits equal every
    preallocated caller's.  ``w`` is ``(m, k)`` like
    :attr:`Linear.weight`; its memory layout selects the BLAS kernel and
    is therefore part of the bits, so callers that must agree bit for
    bit pass the same layout (C-contiguous for dense layers).  A
    non-contiguous ``a`` is copied to C order for the same reason.
    Returns the ``(n, m)`` product.
    """
    dtype = np.result_type(a.dtype, w.dtype)
    a = np.ascontiguousarray(a, dtype=dtype)
    n, k = a.shape
    m = w.shape[0]
    out = np.empty((n, m), dtype=dtype)
    StableTiles(
        a,
        out,
        np.empty((STABLE_TILE, k), dtype=dtype),
        np.empty((product_tiles(n), m, STABLE_TILE), dtype=dtype),
    ).run(w)
    return out
