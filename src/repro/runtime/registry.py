"""Backend registry: ``make_scorer`` dispatch without ``isinstance`` ladders.

Every scorer backend is a named :class:`ScorerBackend` entry pairing a
``matches(model, opts)`` predicate with a ``build(model, context,
**opts)`` factory.  ``make_scorer`` resolves the *last registered* entry
whose predicate accepts the model — so downstream code can register a
new backend (an oblivious-forest variant, a GPU engine, a remote
scorer) and every call site (serving, pipeline, CLI, cascades,
benchmarks) picks it up without modification.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from typing import Any

from repro.design.cascade import EarlyExitCascade
from repro.distill.student import DistilledStudent
from repro.exceptions import ReproError
from repro.forest.ensemble import TreeEnsemble
from repro.runtime import adapters
from repro.runtime.base import Scorer
from repro.runtime.context import PricingContext, default_context


class UnknownBackendError(ReproError):
    """``make_scorer``/``price`` was asked for an unregistered backend."""


@dataclass(frozen=True)
class ScorerBackend:
    """One pluggable scoring backend.

    Attributes
    ----------
    name:
        Registry key, e.g. ``"compiled-network"``.
    matches:
        ``(model, opts) -> bool`` — whether this backend auto-dispatches
        for the model under the given ``make_scorer`` keyword options.
    build:
        ``(model, context, **opts) -> Scorer`` factory.
    description:
        One line for documentation and error messages.
    """

    name: str
    matches: Callable[[Any, Mapping[str, Any]], bool]
    build: Callable[..., Scorer]
    description: str = field(default="")


_REGISTRY: dict[str, ScorerBackend] = {}


def register_backend(backend: ScorerBackend, *, replace: bool = False) -> None:
    """Add a backend to the registry.

    Later registrations win auto-dispatch ties, so a more specific
    backend registered downstream shadows the built-ins it refines.
    """
    if backend.name in _REGISTRY and not replace:
        raise ValueError(
            f"backend {backend.name!r} is already registered "
            "(pass replace=True to override)"
        )
    # Re-insert to refresh registration order even on replace.
    _REGISTRY.pop(backend.name, None)
    _REGISTRY[backend.name] = backend


def unregister_backend(name: str) -> ScorerBackend:
    """Remove and return a registered backend."""
    try:
        return _REGISTRY.pop(name)
    except KeyError:
        raise UnknownBackendError(
            f"unknown backend {name!r}; registered: {', '.join(_REGISTRY)}"
        ) from None


def backend_names() -> tuple[str, ...]:
    """Names of all registered backends, in registration order."""
    return tuple(_REGISTRY)


def get_backend(name: str) -> ScorerBackend:
    """Look up a backend by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownBackendError(
            f"unknown backend {name!r}; registered: {', '.join(_REGISTRY)}"
        ) from None


def make_scorer(
    model,
    *,
    backend: str | None = None,
    context: PricingContext | None = None,
    **opts,
) -> Scorer:
    """Adapt ``model`` to the :class:`Scorer` protocol.

    With ``backend`` the named backend is used directly; otherwise the
    most recently registered backend whose predicate matches wins.
    Keyword options are forwarded to the backend factory (e.g.
    ``quantize="int8"``, ``device="gpu"``, ``false_fraction=...``).
    """
    ctx = context or default_context()
    if backend is not None:
        return get_backend(backend).build(model, ctx, **opts)
    for entry in reversed(list(_REGISTRY.values())):
        if entry.matches(model, opts):
            return entry.build(model, ctx, **opts)
    raise TypeError(
        f"unsupported model type {type(model).__name__}; no registered "
        f"backend matches (registered: {', '.join(_REGISTRY)})"
    )


# ----------------------------------------------------------------------
# Built-in backends.  Registration order defines auto-dispatch priority
# (later entries are tried first), so the most specific matchers come
# last.
# ----------------------------------------------------------------------
register_backend(
    ScorerBackend(
        name="quickscorer",
        matches=lambda m, opts: isinstance(m, TreeEnsemble),
        build=lambda m, ctx, **o: adapters.QuickScorerAdapter(m, ctx, **o),
        description="tree ensembles via the (exact) QuickScorer traversal",
    )
)
register_backend(
    ScorerBackend(
        name="cascade",
        matches=lambda m, opts: isinstance(m, EarlyExitCascade),
        build=lambda m, ctx, **o: adapters.CascadeScorer(m, ctx, **o),
        description="early-exit cascades served per request",
    )
)
register_backend(
    ScorerBackend(
        name="compiled-network",
        matches=lambda m, opts: isinstance(m, DistilledStudent),
        build=lambda m, ctx, **o: adapters.CompiledNetworkScorer(m, ctx, **o),
        description="students executed through ahead-of-time compiled plans",
    )
)
register_backend(
    ScorerBackend(
        name="quickscorer-gpu",
        matches=lambda m, opts: (
            isinstance(m, TreeEnsemble) and opts.get("device") == "gpu"
        ),
        build=lambda m, ctx, *, device="gpu", **o: (
            adapters.GpuQuickScorerAdapter(m, ctx, **o)
        ),
        description="tree ensembles priced by the GPU QuickScorer model",
    )
)
