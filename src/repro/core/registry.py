"""The pluggable explainer registry.

Explanation-generation techniques are looked up by name at runtime instead
of being hard-coded into the :class:`~repro.core.api.PerfXplain` facade.
Anything that satisfies the :class:`Explainer` protocol can be registered —
the facade, the CLI ``--technique`` flag and the evaluation harness all use
the same registry, so a technique registered once works everywhere:

.. code-block:: python

    from repro.core.registry import register_explainer

    @register_explainer("coinflip")
    class CoinFlipExplainer:
        name = "CoinFlip"

        def explain(self, log, query, schema=None, width=None):
            ...

    PerfXplain(log).explain(query, technique="coinflip")

Registered objects may be classes or zero-argument-callable factories.  At
instantiation time the registry inspects the callable's signature and
injects only the keyword arguments it declares, out of:

* ``config`` — the facade's :class:`~repro.core.explainer.PerfXplainConfig`;
* ``pair_config`` — that config's pair-feature encoding parameters;
* ``rng`` — a :class:`random.Random` seeded deterministically per technique.

The three built-in techniques (``perfxplain``, ``ruleofthumb``,
``simbutdiff``) register themselves when their modules are imported; the
registry imports them lazily so that a bare ``create_explainer("perfxplain")``
works without importing :mod:`repro.core` first.
"""

from __future__ import annotations

import functools
import inspect
import random
import zlib
from typing import TYPE_CHECKING, Any, Callable, Protocol, runtime_checkable

from repro.exceptions import ExplanationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.examples import TrainingMatrix
    from repro.core.explainer import PerfXplainConfig
    from repro.core.explanation import Explanation
    from repro.core.features import FeatureSchema
    from repro.core.pxql.query import PXQLQuery
    from repro.logs.store import ExecutionLog


@runtime_checkable
class Explainer(Protocol):
    """The interface every explanation-generation technique exposes.

    ``explain`` may additionally accept ``auto_despite`` (despite-clause
    generation) and ``examples`` (a precomputed
    :class:`~repro.core.examples.TrainingMatrix`, used by the session layer
    to share work across queries); callers detect support for those
    keywords from the signature, so minimal implementations can omit them.
    """

    name: str

    def explain(
        self,
        log: "ExecutionLog",
        query: "PXQLQuery",
        schema: "FeatureSchema | None" = None,
        width: int | None = None,
    ) -> "Explanation":
        """Generate an explanation for a query bound to a pair of interest."""
        ...  # pragma: no cover


#: A callable producing an explainer; keyword arguments are injected by name.
ExplainerFactory = Callable[..., Explainer]

_REGISTRY: dict[str, ExplainerFactory] = {}

#: Keyword arguments the registry knows how to inject into factories.
_INJECTABLE = ("config", "pair_config", "rng")


def _normalize(name: str) -> str:
    if not isinstance(name, str) or not name.strip():
        raise ExplanationError("explainer names must be non-empty strings")
    return name.strip().lower()


def register_explainer(
    name: str,
    factory: ExplainerFactory | None = None,
    *,
    override: bool = False,
) -> Callable[[ExplainerFactory], ExplainerFactory] | ExplainerFactory:
    """Register an explainer class (or factory) under a technique name.

    Usable as a decorator — ``@register_explainer("myname")`` — or called
    directly with the factory as the second argument.  Names are
    case-insensitive.

    :param name: the public technique name (as passed to ``technique=``).
    :param factory: the class or factory callable (omitted in decorator use).
    :param override: allow replacing an existing registration.
    :raises ExplanationError: on a duplicate name unless ``override`` is set.
    """
    key = _normalize(name)

    def _register(target: ExplainerFactory) -> ExplainerFactory:
        if key in _REGISTRY and not override:
            raise ExplanationError(
                f"an explainer named {key!r} is already registered; "
                f"pass override=True to replace it"
            )
        _REGISTRY[key] = target
        return target

    if factory is not None:
        return _register(factory)
    return _register


def unregister_explainer(name: str) -> None:
    """Remove a registration; unknown names are ignored."""
    _REGISTRY.pop(_normalize(name), None)


def registered_explainers() -> tuple[str, ...]:
    """All registered technique names, in registration order."""
    _ensure_builtins()
    return tuple(_REGISTRY)


def is_registered(name: str) -> bool:
    """Whether a technique name resolves to a registered explainer."""
    _ensure_builtins()
    return _normalize(name) in _REGISTRY


def explainer_seed_offset(name: str) -> int:
    """A deterministic per-technique seed offset.

    Keeps the facade's RNG discipline stable: every technique derives its
    generator from ``base_seed + offset(name)``, where the offset depends
    only on the technique's name — not on import order, registration order,
    or which other techniques a caller instantiates.
    """
    return zlib.crc32(_normalize(name).encode("utf-8"))


def create_explainer(
    name: str,
    config: "PerfXplainConfig | None" = None,
    rng: random.Random | None = None,
) -> Explainer:
    """Instantiate the registered explainer for a technique name.

    :param config: facade configuration, injected if the factory accepts a
        ``config`` (or ``pair_config``) keyword.
    :param rng: random generator, injected if the factory accepts ``rng``.
    :raises ExplanationError: for names with no registration.
    """
    _ensure_builtins()
    key = _normalize(name)
    factory = _REGISTRY.get(key)
    if factory is None:
        known = ", ".join(sorted(_REGISTRY)) or "(none)"
        raise ExplanationError(
            f"unknown technique {name!r}; registered techniques: {known}"
        )
    if config is None:
        from repro.core.explainer import PerfXplainConfig

        config = PerfXplainConfig()
    available: dict[str, Any] = {
        "config": config,
        "pair_config": config.pair_config,
        "rng": rng if rng is not None else random.Random(0),
    }
    accepted = _accepted_keywords(factory, _INJECTABLE)
    return factory(**{kw: available[kw] for kw in _INJECTABLE if kw in accepted})


def explainer_accepts_examples(explainer: Explainer) -> bool:
    """Whether a technique's ``explain`` declares the ``examples`` keyword.

    The session layer uses this to decide *before* dispatching whether to
    build the shared training matrix for a query — the expensive,
    parallel-friendly work — so it can run outside the per-technique
    serialisation that keeps stateful explainers deterministic.
    """
    return "examples" in _explain_keywords(explainer)


def call_explainer(
    explainer: Explainer,
    log: "ExecutionLog",
    query: "PXQLQuery",
    *,
    schema: "FeatureSchema | None" = None,
    width: int | None = None,
    auto_despite: bool = False,
    examples: "TrainingMatrix | None" = None,
) -> "Explanation":
    """Invoke ``explainer.explain`` with only the keywords it supports.

    ``schema`` and ``width`` are part of the :class:`Explainer` protocol and
    always passed; ``auto_despite`` and ``examples`` are optional extensions.
    Requesting ``auto_despite`` from a technique that does not declare the
    keyword is an error (silently dropping it would change semantics);
    ``examples`` is a pure optimisation and is dropped when unsupported.
    """
    kwargs: dict[str, Any] = {"schema": schema, "width": width}
    accepted = _explain_keywords(explainer)
    if auto_despite:
        if "auto_despite" not in accepted:
            raise ExplanationError(
                f"technique {explainer.name!r} does not support auto_despite"
            )
        kwargs["auto_despite"] = auto_despite
    if examples is not None and "examples" in accepted:
        kwargs["examples"] = examples
    return explainer.explain(log, query, **kwargs)


def _explain_keywords(explainer: Explainer) -> frozenset[str]:
    """Which of the optional keywords the technique's ``explain`` accepts.

    Worked out once per underlying function: a bound method is unwrapped,
    so every instance of a class shares one entry and none is kept alive.
    """
    explain = explainer.explain
    return _function_keywords(getattr(explain, "__func__", explain))


@functools.lru_cache(maxsize=256)
def _function_keywords(function: Callable) -> frozenset[str]:
    return frozenset(_accepted_keywords(function, ("auto_despite", "examples")))


def _accepted_keywords(callable_: Callable, candidates: tuple[str, ...]) -> set[str]:
    """Which of ``candidates`` can be passed to ``callable_`` by keyword."""
    try:
        parameters = inspect.signature(callable_).parameters
    except (TypeError, ValueError):  # builtins without introspectable signatures
        return set()
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()):
        return set(candidates)
    keyword_kinds = (
        inspect.Parameter.POSITIONAL_OR_KEYWORD,
        inspect.Parameter.KEYWORD_ONLY,
    )
    return {
        name
        for name, parameter in parameters.items()
        if name in candidates and parameter.kind in keyword_kinds
    }


def _ensure_builtins() -> None:
    """Import the modules that register the built-in techniques."""
    import repro.core.baselines  # noqa: F401  (registers ruleofthumb, simbutdiff)
    import repro.core.explainer  # noqa: F401  (registers perfxplain)
    import repro.detectors  # noqa: F401  (registers the detect-* techniques)
