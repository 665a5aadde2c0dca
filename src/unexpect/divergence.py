"""Batch divergence analytics between a generative source and a mind code.

Given world masses p_i over a finite support and per-symbol description
costs C_D(i), the per-symbol surprise is U(i) = log2(1/p_i) - C_D(i).
Averaging U with three different weightings yields three divergences,
each of which also has a closed Kullback-Leibler form:

    world-relative  sum p_i U(i)        = -KL(W || D)   (always <= 0)
    absolute        sum (1/N) U(i)      =  KL(U || W) - KL(U || D)
    mind-relative   sum d_i U(i)        =  KL(D || W)   (always >= 0)

with d_i = 2^-C_D(i). Reports compute every divergence both ways and
refuse to return unless the two agree to 1e-9; the identities are the
point, so they double as a built-in self-test.
"""

from __future__ import annotations

import math
import sys
import warnings
from typing import Optional

from .core import (
    BitLength,
    IdentityMismatchError,
    ImproperDistributionError,
    KraftViolationError,
    SupportMismatchError,
    SymbolId,
    ValidationError,
    _Value,
)
from .tables import (
    MASS_TOLERANCE,
    CodeLengthTable,
    DiscreteDistribution,
    distribution_from_code,
)

IDENTITY_TOLERANCE = 1e-9


def _aligned_masses(
    p: DiscreteDistribution, q: DiscreteDistribution
) -> list[tuple[SymbolId, float, float]]:
    if set(p.support) != set(q.support):
        raise SupportMismatchError("distributions must share the same support")
    q_mass = q.as_dict()
    return [(sym, mass, q_mass[sym]) for sym, mass in zip(p.support, p.mass)]


def entropy(p: DiscreteDistribution) -> BitLength:
    """H(P) in bits; zero-mass symbols contribute nothing."""
    return math.fsum(m * math.log2(1.0 / m) for m in p.mass if m > 0.0)


def cross_entropy(p: DiscreteDistribution, q: DiscreteDistribution) -> BitLength:
    """H(P, Q); infinite when Q misses mass where P has some."""
    terms = []
    for sym, pm, qm in _aligned_masses(p, q):
        if pm == 0.0:
            continue
        if qm == 0.0:
            warnings.warn(
                f"cross-entropy is infinite: {sym!r} has zero model mass",
                stacklevel=2,
            )
            return math.inf
        terms.append(pm * math.log2(1.0 / qm))
    return math.fsum(terms)


def kl(p: DiscreteDistribution, q: DiscreteDistribution) -> BitLength:
    """Relative entropy KL(P || Q) = H(P, Q) - H(P)."""
    return cross_entropy(p, q) - entropy(p)


def variety(n: int) -> BitLength:
    """Classic variety: log2 of the number of distinguishable states."""
    if n < 1:
        raise ValidationError(f"state count must be >= 1, got {n}")
    return math.log2(n)


def variety_hat(mind: CodeLengthTable) -> BitLength:
    """Uniform average of per-symbol description costs."""
    return math.fsum(mind.length) / len(mind)


def variety_star(mind: CodeLengthTable, normalize: bool = False) -> BitLength:
    """Description-weighted average cost: the entropy of d_i = 2^-L_i."""
    return entropy(distribution_from_code(mind, normalize=normalize))


def memory_cost_unordered(n: int) -> BitLength:
    """Total address cost of n objects behind fixed-width pointers."""
    if n < 1:
        raise ValidationError(f"object count must be >= 1, got {n}")
    return n * math.log2(n)


def memory_cost_ordered(n: int) -> BitLength:
    """Total cost of walking a stack: log2(n!) + log2(n), exactly.

    Uses the log-gamma function rather than the n*log2(n) Stirling
    shortcut; the two agree only up to an n*log2(e) gap.
    """
    if n < 1:
        raise ValidationError(f"object count must be >= 1, got {n}")
    return math.lgamma(n + 1) / math.log(2.0) + math.log2(n)


class MachinePair(_Value):
    """World distribution and mind code table over one ordered support."""

    __slots__ = ("world", "mind")

    def __init__(self, world: DiscreteDistribution, mind: CodeLengthTable):
        self._fill(world, mind)
        if world.support != mind.support:
            raise SupportMismatchError(
                "world and mind must share the same support, in the same order"
            )


class DivergenceReport(_Value):
    __slots__ = ("support", "h", "v", "v_hat", "v_star", "d", "d_wrel", "d_abs",
                 "d_drel", "per_symbol_u", "unsound_symbols",
                 "incomplete_symbols", "zero_mass_symbols")

    def __init__(self, support: tuple[SymbolId, ...], h: BitLength, v: BitLength,
                 v_hat: BitLength, v_star: BitLength, d: BitLength,
                 d_wrel: BitLength, d_abs: BitLength, d_drel: BitLength,
                 per_symbol_u: tuple[float, ...],
                 unsound_symbols: tuple[SymbolId, ...],
                 incomplete_symbols: tuple[SymbolId, ...],
                 zero_mass_symbols: tuple[SymbolId, ...]):
        self._fill(support, h, v, v_hat, v_star, d, d_wrel, d_abs, d_drel,
                   per_symbol_u, unsound_symbols, incomplete_symbols,
                   zero_mass_symbols)

    # The scalar fields, in the order of both output formats.
    SCALARS = ("h", "v", "v_hat", "v_star", "d", "d_wrel", "d_abs", "d_drel")

    def to_dict(self) -> dict:
        def enc(x: float) -> Optional[float]:
            return x if math.isfinite(x) else None

        return {
            "symbols": list(self.support),
            **{key: enc(getattr(self, key)) for key in self.SCALARS},
            "u": [enc(u) for u in self.per_symbol_u],
            "unsound": list(self.unsound_symbols),
            "incomplete": list(self.incomplete_symbols),
            "zero_mass": list(self.zero_mass_symbols),
        }


def _nearly(a: float, b: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= IDENTITY_TOLERANCE


def soundness_completeness(
    pair: MachinePair, tau: float
) -> tuple[list[SymbolId], list[SymbolId]]:
    """Instance-level offenders against soundness and completeness.

    Unsound: cheap to describe (C_D <= tau) yet hard to generate
    (C_W > 2*tau), i.e. the positive-surprise symbols. Incomplete: cheap to
    generate yet hard to describe.
    """
    if tau <= 0.0:
        raise ValidationError(f"tau must be > 0, got {tau}")
    unsound, incomplete = [], []
    for sym, p, c_d in zip(pair.world.support, pair.world.mass, pair.mind.length):
        c_w = math.log2(1.0 / p) if p > 0.0 else math.inf
        if c_d <= tau and c_w > 2.0 * tau:
            unsound.append(sym)
        if c_w <= tau and c_d > 2.0 * tau:
            incomplete.append(sym)
    return unsound, incomplete


def normalized_mind(mind: CodeLengthTable) -> CodeLengthTable:
    """Rescale lengths so the code is complete (Kraft sum exactly 1).

    Every length shifts by log2(Kraft sum), which is the unique uniform
    adjustment that keeps the d_i proportions intact.
    """
    shift = math.log2(mind.kraft_sum())
    return CodeLengthTable(mind.support, tuple(bits + shift for bits in mind.length))


def divergences(
    pair: MachinePair, tau: float = 2.0, normalize_mind: bool = False
) -> DivergenceReport:
    """Full report; every divergence computed two ways and cross-checked.

    The mind table must be a complete code. Incomplete or Kraft-violating
    tables are rejected unless normalize_mind is set, in which case the
    table is renormalized first (which changes the measured values; the
    flag makes that explicit). A positive world mass below 2^-1022 and a
    mind length above 1022 bits (after any renormalization) are rejected:
    within them 2^-L, p/d and d/p are normal floats, so both forms of each
    divergence keep the precision the cross-check needs.
    """
    mind = pair.mind
    kraft = mind.kraft_sum()
    if abs(kraft - 1.0) > MASS_TOLERANCE:
        if not normalize_mind:
            if kraft > 1.0:
                raise KraftViolationError(
                    f"mind Kraft sum {kraft!r} exceeds 1; not a proper code")
            raise ImproperDistributionError(
                f"mind Kraft sum {kraft!r} < 1; the mind-relative divergence "
                "needs a complete code (set normalize_mind to rescale)")
        mind = normalized_mind(mind)

    world = pair.world
    for sym, pi, bits in zip(world.support, world.mass, mind.length):
        if 0.0 < pi < sys.float_info.min:
            raise ValidationError(f"world mass of {sym!r} is {pi!r}, below 2**-1022")
        if bits > 1022.0:
            raise ValidationError(f"mind length of {sym!r} is {bits!r} bits, above 1022")
    n = len(world)
    support = world.support
    p = list(world.mass)
    lengths = list(mind.length)
    d = [2.0 ** -bits for bits in lengths]
    c_w = [math.log2(1.0 / pi) if pi > 0.0 else math.inf for pi in p]
    u = [cw - cd for cw, cd in zip(c_w, lengths)]
    zero_mass = tuple(s for s, pi in zip(support, p) if pi == 0.0)

    # Weighted-average-of-U forms (0 * inf reads as 0: never generated,
    # never weighted).
    wrel_u = math.fsum(pi * ui for pi, ui in zip(p, u) if pi > 0.0)
    abs_u = math.inf if zero_mass else math.fsum(u) / n
    drel_u = math.inf if zero_mass else math.fsum(di * ui for di, ui in zip(d, u))

    # Closed KL forms over the same numbers.
    h = math.fsum(pi * cwi for pi, cwi in zip(p, c_w) if pi > 0.0)
    wrel_kl = -(math.fsum(pi * math.log2(pi / di) for pi, di in zip(p, d) if pi > 0.0))
    if zero_mass:
        abs_kl = drel_kl = math.inf
    else:
        uniform = 1.0 / n
        kl_uw = math.fsum(uniform * math.log2(uniform / pi) for pi in p)
        kl_ud = math.fsum(uniform * math.log2(uniform / di) for di in d)
        abs_kl = kl_uw - kl_ud
        drel_kl = math.fsum(di * math.log2(di / pi) for di, pi in zip(d, p))

    for name, via_u, via_kl in (
        ("world-relative", wrel_u, wrel_kl),
        ("absolute", abs_u, abs_kl),
        ("mind-relative", drel_u, drel_kl),
    ):
        if not _nearly(via_u, via_kl):
            raise IdentityMismatchError(
                f"{name} divergence disagrees with its KL identity: "
                f"{via_u!r} vs {via_kl!r}")

    unsound, incomplete = soundness_completeness(MachinePair(world, mind), tau)
    v = variety(n)
    return DivergenceReport(
        support=support,
        h=h,
        v=v,
        v_hat=variety_hat(mind),
        v_star=math.fsum(di * bits for di, bits in zip(d, lengths)),
        d=h - v,
        d_wrel=wrel_u,
        d_abs=abs_u,
        d_drel=drel_u,
        per_symbol_u=tuple(u),
        unsound_symbols=tuple(unsound),
        incomplete_symbols=tuple(incomplete),
        zero_mass_symbols=zero_mass,
    )
