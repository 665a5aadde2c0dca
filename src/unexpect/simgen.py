"""Deterministic, seedable stream generators for ground-truth scenarios.

The generator is SplitMix64 (Steele, Lea & Flood's 64-bit mix with the
golden-gamma increment 0x9E3779B97F4A7C15), seeded directly with the
spec's integer seed, so identical specs reproduce identical streams
byte for byte in any implementation language.

Kinds:

* stationary   - i.i.d. draws from one distribution
* changepoint  - distribution A for t < t_star, B afterwards
* bifurcation  - latent integer offset V drawn once at t = 0, then
                 i.i.d. integer labels shifted by V (stationary in
                 every run, non-ergodic across runs)
* zipf         - i.i.d. with mass proportional to 1/rank^s
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import chain
from typing import TYPE_CHECKING, Iterator, Optional

from .core import InvalidSpecError, SymbolId, ValidationError, _Value, _require
from .tables import DiscreteDistribution, _numbers

if TYPE_CHECKING:
    from .memory import Observation

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """SplitMix64 PRNG; state advances by the golden gamma each draw."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def next_float(self) -> float:
        """Uniform in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0 ** -53


class CategoricalSampler:
    """Inverse-CDF sampling from a discrete distribution."""

    def __init__(self, dist: DiscreteDistribution, rng: SplitMix64):
        self._rng = rng
        self._symbols = dist.support
        cum, acc = [], 0.0
        for m in dist.mass:
            acc += m
            cum.append(acc)
        cum[-1] = 1.0  # guard against float shortfall at the top
        self._cum = cum

    def draws(self, n: int) -> Iterator[SymbolId]:
        """n draws, one rng float each, bound once for the whole loop."""
        next_float = self._rng.next_float
        cum, symbols = self._cum, self._symbols
        last = len(symbols) - 1
        for _ in range(n):
            i = bisect_right(cum, next_float())
            yield symbols[i if i < last else last]


def zipf_distribution(alphabet: int, exponent: float = 1.0) -> DiscreteDistribution:
    """mass(rank k) proportional to 1/k^exponent, symbols "0".."n-1"."""
    if alphabet < 1:
        raise InvalidSpecError(f"alphabet must be >= 1, got {alphabet}")
    raw = [1.0 / (k + 1) ** exponent for k in range(alphabet)]
    total = math.fsum(raw)
    return DiscreteDistribution(
        tuple(str(k) for k in range(alphabet)),
        tuple(v / total for v in raw),
    )


class SourceSpec(_Value):
    """Parameters of one synthetic stream."""

    __slots__ = ("kind", "length", "seed", "distribution", "distribution_after",
                 "t_star", "base_labels", "base_mass", "offset_values",
                 "offset_mass", "alphabet", "exponent")

    def __init__(
        self,
        kind: str,
        length: int,
        seed: int,
        distribution: Optional[DiscreteDistribution] = None,  # stationary, changepoint
        distribution_after: Optional[DiscreteDistribution] = None,  # changepoint
        t_star: Optional[int] = None,                     # changepoint
        base_labels: Optional[int] = None,                # bifurcation
        base_mass: Optional[tuple[float, ...]] = None,    # bifurcation
        offset_values: Optional[tuple[int, ...]] = None,  # bifurcation
        offset_mass: Optional[tuple[float, ...]] = None,  # bifurcation
        alphabet: Optional[int] = None,                   # zipf
        exponent: float = 1.0,                            # zipf
    ):
        self._fill(kind, length, seed, distribution, distribution_after, t_star,
                   base_labels, base_mass, offset_values, offset_mass, alphabet,
                   exponent)
        # Types first, so that no check below compares a str. The kind's
        # own checks reject a missing field.
        try:
            for name in ("length", "seed", "t_star", "base_labels", "alphabet"):
                value = getattr(self, name)
                if value is not None or name in ("length", "seed"):
                    _require(name, value, int, "an integer")
            for value in self.offset_values or ():
                _require("offset_values", value, int, "integers")
            _require("exponent", self.exponent, (int, float), "a number")
        except ValidationError as exc:
            raise InvalidSpecError(str(exc)) from None
        if self.length < 0:
            raise InvalidSpecError(f"length must be >= 0, got {self.length}")
        if self.kind == "stationary":
            if self.distribution is None:
                raise InvalidSpecError("stationary spec needs a distribution")
        elif self.kind == "changepoint":
            if self.distribution is None or self.distribution_after is None:
                raise InvalidSpecError("changepoint spec needs two distributions")
            if self.t_star is None or not 0 <= self.t_star < max(self.length, 1):
                raise InvalidSpecError("changepoint spec needs 0 <= t_star < length")
        elif self.kind == "bifurcation":
            if not self.base_labels or self.base_labels < 1:
                raise InvalidSpecError("bifurcation spec needs base_labels >= 1")
            if self.offset_values is None or self.offset_mass is None:
                raise InvalidSpecError("bifurcation spec needs an offset distribution")
            # validates masses as a distribution
            self._offset_distribution()
            self._base_distribution()
        elif self.kind == "zipf":
            if self.alphabet is None or self.alphabet < 1:
                raise InvalidSpecError("zipf spec needs alphabet >= 1")
            if not self.exponent > 0:  # also rejects NaN
                raise InvalidSpecError(f"zipf exponent must be > 0, got {self.exponent}")
            try:  # 1 / alphabet ** exponent is the smallest mass
                float(self.alphabet) ** self.exponent
            except OverflowError:
                raise InvalidSpecError(f"zipf exponent must keep {self.alphabet} ** "
                                       f"exponent a float, got {self.exponent}") from None
        else:
            raise InvalidSpecError(f"unknown kind {self.kind!r}")

    def _base_distribution(self) -> DiscreteDistribution:
        labels = tuple(str(i) for i in range(self.base_labels))
        if self.base_mass is None:
            uniform = 1.0 / self.base_labels
            return DiscreteDistribution(labels, (uniform,) * self.base_labels)
        return DiscreteDistribution(labels, tuple(self.base_mass))

    def _offset_distribution(self) -> DiscreteDistribution:
        return DiscreteDistribution(
            tuple(str(v) for v in self.offset_values), tuple(self.offset_mass)
        )

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind, "length": self.length, "seed": self.seed}
        if self.kind in ("stationary", "changepoint"):
            out["symbols"] = list(self.distribution.support)
            out["mass"] = list(self.distribution.mass)
        if self.kind == "changepoint":
            out["mass_after"] = list(self.distribution_after.mass)
            out["t_star"] = self.t_star
        if self.kind == "bifurcation":
            out["base_labels"] = self.base_labels
            if self.base_mass is not None:
                out["base_mass"] = list(self.base_mass)
            out["offset_values"] = list(self.offset_values)
            out["offset_mass"] = list(self.offset_mass)
        if self.kind == "zipf":
            out["alphabet"] = self.alphabet
            out["exponent"] = self.exponent
        return out

    @classmethod
    def from_dict(cls, obj: dict) -> "SourceSpec":
        try:
            kind = obj["kind"]
            length = obj["length"]
            seed = obj.get("seed", 0)
        except (KeyError, TypeError) as exc:
            raise InvalidSpecError(f"spec missing field: {exc}") from None
        try:
            kwargs: dict = {}
            if kind in ("stationary", "changepoint"):
                if "symbols" not in obj or "mass" not in obj:
                    raise InvalidSpecError('spec needs "symbols" and "mass"')
                _require('"symbols"', obj["symbols"], list, "a list of strings")
                # Its own message, as simulate has always printed it.
                if not all(isinstance(symbol, str) for symbol in obj["symbols"]):
                    raise InvalidSpecError('spec "symbols" must be strings')
                kwargs["distribution"] = DiscreteDistribution(
                    tuple(obj["symbols"]), _numbers('"mass"', obj["mass"]))
            if kind == "changepoint":
                if "mass_after" not in obj:
                    raise InvalidSpecError('changepoint spec needs "mass_after"')
                kwargs["distribution_after"] = DiscreteDistribution(
                    tuple(obj["symbols"]),
                    _numbers('"mass_after"', obj["mass_after"]))
                kwargs["t_star"] = obj.get("t_star")
            if kind == "bifurcation":
                kwargs["base_labels"] = obj.get("base_labels")
                if obj.get("base_mass") is not None:
                    kwargs["base_mass"] = _numbers('"base_mass"', obj["base_mass"])
                kwargs["offset_values"] = tuple(obj.get("offset_values", ()))
                kwargs["offset_mass"] = _numbers('"offset_mass"', obj.get("offset_mass", ()))
            if kind == "zipf":
                kwargs["alphabet"] = obj.get("alphabet")
                kwargs["exponent"] = obj.get("exponent", 1.0)
            return cls(kind=kind, length=length, seed=seed, **kwargs)
        except (TypeError, ValueError) as exc:  # e.g. a mass of "x" or 5
            raise InvalidSpecError(f"malformed spec: {exc}") from None
        except ValidationError as exc:  # e.g. "symbols" of "ab"
            raise InvalidSpecError(str(exc)) from None


def _stream(spec: SourceSpec) -> Iterator[SymbolId]:
    """The spec's symbols in order, all drawn from one rng seeded once."""
    rng = SplitMix64(spec.seed)
    if spec.kind == "stationary":
        return CategoricalSampler(spec.distribution, rng).draws(spec.length)
    if spec.kind == "changepoint":
        before = CategoricalSampler(spec.distribution, rng)
        after = CategoricalSampler(spec.distribution_after, rng)
        return chain(before.draws(spec.t_star),
                     after.draws(spec.length - spec.t_star))
    if spec.kind == "bifurcation":
        offset_sampler = CategoricalSampler(spec._offset_distribution(), rng)
        offset = int(next(offset_sampler.draws(1)))  # drawn once per run
        base = CategoricalSampler(spec._base_distribution(), rng)
        return (str(int(label) + offset) for label in base.draws(spec.length))
    if spec.kind == "zipf":
        dist = zipf_distribution(spec.alphabet, spec.exponent)
        return CategoricalSampler(dist, rng).draws(spec.length)
    # unreachable after validation
    raise InvalidSpecError(f"unknown kind {spec.kind!r}")


def generate(spec: SourceSpec) -> Iterator[Observation]:
    """Emit the spec's stream; deterministic given (spec, seed)."""
    from .memory import Observation

    for t, symbol in enumerate(_stream(spec)):
        yield Observation(t, symbol)


def stationary_distribution(spec: SourceSpec) -> DiscreteDistribution:
    """The single generating distribution, for kinds that have one."""
    if spec.kind == "stationary":
        return spec.distribution
    if spec.kind == "zipf":
        return zipf_distribution(spec.alphabet, spec.exponent)
    raise InvalidSpecError(f"{spec.kind} streams have no single distribution")
