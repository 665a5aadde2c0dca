"""Distributions and code-length tables: the world's masses and the
mind's bits.

`track` and `replay` never load this module; `simulate`, `divergence`
and `explain` load it through `cli_tools`.
"""

from __future__ import annotations

import json
import math
from typing import Iterable

from .core import (BitLength, ImproperDistributionError, KraftViolationError,
                   SymbolId, ValidationError, _Value)

MASS_TOLERANCE = 1e-9


def bits_from_probability(p: float) -> BitLength:
    """Information content log2(1/p) of an outcome with probability p.

    p = 1 carries no information (0 bits); p = 0 is infinitely costly.
    """
    if math.isnan(p) or p < 0.0 or p > 1.0:
        raise ValidationError(f"probability must be in [0, 1], got {p}")
    if p == 0.0:
        return math.inf
    return math.log2(1.0 / p)


def _numbers(name: str, value) -> tuple:
    """`value` as a tuple, if a list (or tuple) of numbers, not bools; else
    TypeError naming `name`, which each reader reports as malformed."""
    if not isinstance(value, (list, tuple)) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in value):
        raise TypeError(f"{name} must be a list of numbers, got {value!r}")
    return tuple(value)


class DiscreteDistribution(_Value):
    """Probability masses over an ordered, duplicate-free support."""

    __slots__ = ("support", "mass")

    def __init__(self, support: Iterable[SymbolId], mass: Iterable[float]):
        self._fill(tuple(support), tuple(float(m) for m in mass))
        if len(self.support) != len(self.mass):
            raise ValidationError("support and mass must be parallel arrays")
        if len(set(self.support)) != len(self.support):
            raise ValidationError("support contains duplicate symbols")
        for sym, m in zip(self.support, self.mass):
            if math.isnan(m) or m < 0.0:
                raise ValidationError(f"mass of {sym!r} must be >= 0, got {m}")
        total = math.fsum(self.mass)
        if abs(total - 1.0) > MASS_TOLERANCE:
            raise ImproperDistributionError(
                f"masses sum to {total!r}, expected 1 within {MASS_TOLERANCE}"
            )

    def __len__(self) -> int:
        return len(self.support)

    def as_dict(self) -> dict[SymbolId, float]:
        return dict(zip(self.support, self.mass))

    def to_json(self) -> str:
        return json.dumps({"symbols": list(self.support), "mass": list(self.mass)})


class CodeLengthTable(_Value):
    """Per-symbol code lengths in bits; finite and nonnegative.

    A table is a proper (prefix-realizable) code when its Kraft sum
    sum_i 2^-L_i does not exceed 1; it is complete when the sum equals 1.
    """

    __slots__ = ("support", "length")

    def __init__(self, support: Iterable[SymbolId], length: Iterable[BitLength]):
        self._fill(tuple(support), tuple(float(v) for v in length))
        if len(self.support) != len(self.length):
            raise ValidationError("support and length must be parallel arrays")
        if len(set(self.support)) != len(self.support):
            raise ValidationError("support contains duplicate symbols")
        for sym, bits in zip(self.support, self.length):
            if math.isnan(bits) or math.isinf(bits) or bits < 0.0:
                raise ValidationError(
                    f"length of {sym!r} must be finite and >= 0, got {bits}"
                )

    def __len__(self) -> int:
        return len(self.support)

    def kraft_sum(self) -> float:
        return math.fsum(2.0 ** -bits for bits in self.length)

    def to_json(self) -> str:
        return json.dumps({"symbols": list(self.support), "bits": list(self.length)})


def distribution_from_code(
    table: CodeLengthTable, normalize: bool = False
) -> DiscreteDistribution:
    """Turn code lengths into masses d_i = 2^-L_i.

    Without ``normalize`` the table must already be a complete code
    (Kraft sum 1); Kraft sums above 1 are rejected outright because no
    prefix code realizes them.
    """
    raw = [2.0 ** -bits for bits in table.length]
    total = math.fsum(raw)
    if normalize:
        return DiscreteDistribution(table.support, tuple(d / total for d in raw))
    if total > 1.0 + MASS_TOLERANCE:
        raise KraftViolationError(
            f"Kraft sum {total!r} exceeds 1; not a proper code"
        )
    if abs(total - 1.0) > MASS_TOLERANCE:
        raise ImproperDistributionError(
            f"masses sum to {total!r}; pass normalize=True to rescale"
        )
    return DiscreteDistribution(table.support, tuple(raw))
