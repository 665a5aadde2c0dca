"""Streaming surprise detection over discrete event streams.

Unexpectedness of an event is the drop between how costly the world
finds it to generate (bits, from an occurrence-rate model or a causal
graph) and how costly the observer finds it to describe (bits, from
recency of last sighting). Sustained positive drops signal that the
stream's generator changed.
"""

import importlib

# Public name -> the submodule that defines it. A submodule is imported
# on the first access to one of its names (PEP 562), so a command loads
# only the modules it runs.
_SUBMODULE_OF = {name: module for module, names in {
    "causal": ("CausalGraph", "Explanation", "from_probabilities"),
    "core": ("BitLength", "SymbolId", "UnexpectError"),
    "divergence": (
        "DivergenceReport", "MachinePair", "cross_entropy", "divergences",
        "entropy", "kl", "memory_cost_ordered", "memory_cost_unordered",
        "soundness_completeness", "variety", "variety_hat", "variety_star",
    ),
    "engine": (
        "ChangeDetector", "Engine", "EngineConfig", "TraceRecord", "run_stream",
    ),
    "estimators": ("FirEstimator", "IirEstimator"),
    "memory": ("Observation", "StmStack", "read_events"),
    "simgen": ("SourceSpec", "SplitMix64", "generate", "zipf_distribution"),
    "tables": (
        "CodeLengthTable", "DiscreteDistribution", "bits_from_probability",
        "distribution_from_code",
    ),
}.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_SUBMODULE_OF)


def __getattr__(name: str):
    module = _SUBMODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
