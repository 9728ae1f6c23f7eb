"""The ``Scorer`` protocol — the library's single scoring surface.

Every deployable model (QuickScorer forests, dense students, sparse
first-layer students, quantized networks, early-exit cascades, future
backends) is adapted to one small interface:

* ``score(X) -> np.ndarray`` — per-document scores for a 2-D feature
  matrix;
* ``predicted_us_per_doc`` — the calibrated cost model's µs/doc price,
  computed lazily (pricing a network needs the GFLOPS surface, which is
  only built when someone actually asks for a price);
* ``describe()`` — a human-readable one-liner;
* ``batchable`` — whether a request may be split into micro-batches
  (cascades rank *within* a request, so they must see it whole);
* ``input_dim`` — expected feature count, or ``None`` when the backend
  cannot know it.

Adapters additionally guarantee **chunk-invariant scoring**: splitting a
feature matrix into micro-batches of any size yields bit-identical
scores to one full-matrix call.  Tree traversal is row-independent by
construction; network adapters route matmuls through
:func:`stable_matmul` — one identically shaped BLAS GEMV per document —
instead of BLAS GEMM, whose accumulation order (and therefore last-bit
rounding) changes with the batch shape.  Offline evaluation keeps using
the models' native ``predict``.
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from contextlib import contextmanager
from typing import Any, Protocol, runtime_checkable

import numpy as np

from repro.nn.layers import Linear
from repro.nn.network import FeedForwardNetwork
from repro.utils.validation import check_array_2d


@runtime_checkable
class Scorer(Protocol):
    """Protocol of a priced, deployable document scorer."""

    #: Registry name of the backend that produced this scorer.
    backend: str
    #: Whether requests may be split into micro-batches.
    batchable: bool

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
#: Thread-local (token, n_requests) set by the batch engine around one
#: logical request (or one coalesced batch).  Version-aware scorers
#: (:class:`~repro.runtime.lifecycle.VersionedScorer`) snapshot the
#: active model version once per token, so a hot swap landing mid-way
#: through a chunked request can never mix versions within it.
_PIN_STATE = threading.local()


@contextmanager
def pinned_scope(n_requests: int = 1):
    """Pin version resolution for the duration of one engine call.

    The engine wraps each ``score`` / ``score_coalesced`` execution in
    this scope.  Scorers that resolve a mutable target per call (the
    versioned registry scorer) cache their resolution against the
    scope's token: every chunk of the wrapped call sees the same model
    version — the "in-flight requests finish on the incumbent" half of
    the zero-downtime swap contract.  ``n_requests`` tells such scorers
    how many logical requests the scope carries (1 for a plain call,
    the batch width for a coalesced one) so per-version served counts
    stay request-accurate.  No-op overhead for ordinary scorers.
    """
    previous = getattr(_PIN_STATE, "state", None)
    _PIN_STATE.state = (object(), int(n_requests))
    try:
        yield
    finally:
        _PIN_STATE.state = previous


def current_pin() -> tuple[object, int] | None:
    """The calling thread's active pin ``(token, n_requests)``, if any."""
    return getattr(_PIN_STATE, "state", None)


def stable_matmul(
    a: np.ndarray, w: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Chunk-invariant ``a @ w.T``: one identically shaped GEMV per row.

    ``np.matmul`` over the row-stacked ``(n, 1, k)`` view of ``a`` runs
    every document as its own ``(1, k) @ (k, m)`` BLAS GEMV, so a row's
    bits depend only on that row and the weights — never on the
    batch size, shard boundaries or the row's position.  Plain GEMM
    cannot promise this: on OpenBLAS 0.3.31 a row's bits change with
    the batch size, and even with the row order inside a fixed
    zero-padded tile.

    ``w`` is ``(m, k)`` like :attr:`Linear.weight`.  Its memory layout
    selects the BLAS kernel and is therefore part of the bits: callers
    that must agree bit for bit pass the same layout (C-contiguous for
    dense layers).  ``out``, if given, is the ``(n, 1, m)`` row-stacked
    destination (``c[:, None, :]``, built once by allocation-free
    callers).  Returns the ``(n, 1, m)`` product.
    """
    return np.matmul(a[:, None, :], w.T, out=out)


def stable_forward(network: FeedForwardNetwork, x: np.ndarray) -> np.ndarray:
    """Chunk-invariant inference through a feed-forward network.

    Linear layers are evaluated with :func:`stable_matmul` (one BLAS
    GEMV per document), all other layers through their own inference
    path.  Scoring any row subset therefore reproduces the full-matrix
    bits exactly — the property the :class:`~repro.runtime.batching.
    BatchEngine` relies on.
    """
    out = np.ascontiguousarray(check_array_2d(x, "features"))
    if out.shape[1] != network.input_dim:
        raise ValueError(
            f"expected {network.input_dim} features, got {out.shape[1]}"
        )
    for layer in network.layers:
        if isinstance(layer, Linear):
            out = stable_matmul(out, layer.weight.data)[:, 0] + layer.bias.data
        else:
            out = layer.forward(out, training=False)
    return out[:, 0]
