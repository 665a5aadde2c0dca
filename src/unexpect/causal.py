"""Weighted causal graphs: generation cost as a min-cost path.

A node's prior cost (bits) says how hard the world finds it to produce
that situation from scratch; an edge cost says how hard it is to
produce the target given that its source already happened. Generating a
situation therefore costs the cheapest root-to-target chain, and the
chain's first hop behind the target is the best explanation. With costs
taken as -log2 of probabilities this reproduces Bayes' rule exactly:
2^-u equals the posterior of the best cause.

Graphs are immutable after construction; queries are pure.
"""

from __future__ import annotations

import heapq
import math
import sys
from typing import Mapping, Optional, Sequence

from .core import (
    BitLength,
    SymbolId,
    UnknownNodeError,
    UnreachableError,
    ValidationError,
    _Value,
    _require,
    _symbols,
)


class Explanation(_Value):
    __slots__ = ("target", "best_cause", "chain", "generation_cost", "c_d",
                 "u_raw", "u_clamped")

    def __init__(
        self,
        target: SymbolId,
        best_cause: Optional[SymbolId],   # None when the prior alone is cheapest
        chain: tuple[SymbolId, ...],      # root .. target along the minimal path
        generation_cost: BitLength,
        c_d: BitLength,
        u_raw: float,
        u_clamped: float,
    ):
        self._fill(target, best_cause, chain, generation_cost, c_d, u_raw,
                   u_clamped)


class CausalGraph:
    """Directed graph with nonnegative edge costs and root priors."""

    def __init__(
        self,
        priors: Mapping[SymbolId, BitLength],
        edges: Sequence[tuple[SymbolId, SymbolId, BitLength]] = (),
        nodes: Sequence[SymbolId] = (),
    ):
        def cost(name, bits) -> float:
            return float(_require(name, bits, (int, float), "a finite number >= 0",
                                  lambda b: 0.0 <= b <= sys.float_info.max))

        self._priors = {node: cost(f"prior of {node!r}", bits)
                        for node, bits in priors.items()}
        if not self._priors:
            raise ValidationError("graph needs at least one node with a prior")
        self._adjacency: dict[SymbolId, list[tuple[SymbolId, float]]] = {}
        self._nodes = set(nodes) | set(self._priors)
        for src, dst, bits in edges:
            self._nodes.update((src, dst))
            self._adjacency.setdefault(src, []).append(
                (dst, cost(f"edge {src!r}->{dst!r} cost", bits)))
        for out in self._adjacency.values():
            out.sort()  # deterministic relaxation order

    def _shortest(self) -> tuple[dict[SymbolId, float], dict[SymbolId, SymbolId]]:
        """Multi-source Dijkstra from all priors; smallest-id tie-breaks."""
        dist: dict[SymbolId, float] = {}
        pred: dict[SymbolId, SymbolId] = {}
        heap: list[tuple[float, SymbolId]] = []
        for node in sorted(self._priors):
            bits = self._priors[node]
            if bits < dist.get(node, math.inf):
                dist[node] = bits
                heap.append((bits, node))
        heapq.heapify(heap)
        done: set[SymbolId] = set()
        while heap:
            d, node = heapq.heappop(heap)
            if node in done or d > dist.get(node, math.inf):
                continue
            done.add(node)
            for nxt, w in self._adjacency.get(node, ()):
                cand = d + w
                old = dist.get(nxt, math.inf)
                if cand < old:
                    dist[nxt] = cand
                    pred[nxt] = node
                    heapq.heappush(heap, (cand, nxt))
                elif cand == old and node < pred.get(nxt, node):
                    pred[nxt] = node
        return dist, pred

    def generation_complexity(self, target: SymbolId) -> BitLength:
        """Cheapest way the graph generates target; +inf if unreachable."""
        if target not in self._nodes:
            raise UnknownNodeError(f"unknown node {target!r}")
        dist, _ = self._shortest()
        return dist.get(target, math.inf)

    def explain(self, target: SymbolId, c_d: BitLength) -> Explanation:
        """Minimal generation chain for target, scored against cost c_d."""
        if target not in self._nodes:
            raise UnknownNodeError(f"unknown node {target!r}")
        if not 0.0 <= c_d < math.inf:  # also rejects NaN
            raise ValidationError(
                f"description cost must be finite and >= 0, got {c_d}")
        dist, pred = self._shortest()
        cost = dist.get(target, math.inf)
        if math.isinf(cost):
            raise UnreachableError(f"{target!r} cannot be generated from any root")
        chain = [target]
        while chain[-1] in pred:
            chain.append(pred[chain[-1]])
        chain.reverse()
        u_raw = cost - c_d
        return Explanation(
            target=target,
            best_cause=chain[-2] if len(chain) > 1 else None,
            chain=tuple(chain),
            generation_cost=cost,
            c_d=c_d,
            u_raw=u_raw,
            u_clamped=max(u_raw, 0.0),
        )

    # -- serialization -------------------------------------------------

    @classmethod
    def from_dict(cls, obj: dict) -> "CausalGraph":
        try:
            node_ids = _symbols("node ids", [n["id"] for n in obj["nodes"]],
                                distinct=True)
            priors = {
                n["id"]: n["prior_bits"]
                for n in obj["nodes"]
                if n.get("prior_bits") is not None
            }
            edges = [(e["from"], e["to"], e["bits"]) for e in obj.get("edges", ())]
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed graph object: {exc}") from None
        for src, dst, _ in edges:
            if src not in node_ids or dst not in node_ids:
                raise ValidationError(f"edge {src!r}->{dst!r} references unknown node")
        return cls(priors, edges, nodes=node_ids)


def from_probabilities(
    priors: Mapping[SymbolId, float],
    likelihoods: Mapping[SymbolId, float],
    evidence: float,
    observation: SymbolId = "O",
) -> tuple[CausalGraph, BitLength]:
    """Build the single-hop graph matching a discrete Bayes model.

    Cause k becomes a root with prior -log2 P(M_k) and an edge to the
    observation costing -log2 P(O|M_k); the returned description cost is
    -log2 P(O). Causes with zero prior or zero likelihood are simply
    absent rather than infinitely costly. P(O) may not fall below
    sum_k P(M_k) P(O|M_k) (to a relative 1e-9): else the best chain
    would cost less than describing O, and 2^-u would exceed 1.
    """
    if not 0.0 < evidence <= 1.0:
        raise ValidationError(f"evidence must be in (0, 1], got {evidence}")
    unknown = set(likelihoods) - set(priors)
    if unknown:
        raise ValidationError(f"likelihood for unknown cause(s): {sorted(unknown)}")
    total = math.fsum(priors.values())
    if total > 1.0 + 1e-9:
        raise ValidationError(f"priors sum to {total!r}, must be <= 1")
    graph_priors: dict[SymbolId, float] = {}
    edges: list[tuple[SymbolId, SymbolId, float]] = []
    joint: list[float] = []
    for cause, p in priors.items():
        if not 0.0 <= p <= 1.0:
            raise ValidationError(f"prior of {cause!r} must be in [0, 1], got {p}")
        if cause == observation:
            raise ValidationError(f"cause {cause!r} collides with the observation id")
        if p == 0.0:
            continue
        graph_priors[cause] = math.log2(1.0 / p)
        lik = likelihoods.get(cause, 0.0)
        if not 0.0 <= lik <= 1.0:
            raise ValidationError(
                f"likelihood of {cause!r} must be in [0, 1], got {lik}"
            )
        if lik > 0.0:
            edges.append((cause, observation, math.log2(1.0 / lik)))
            joint.append(p * lik)
    if not graph_priors:
        raise ValidationError("all priors are zero; nothing can explain anything")
    least = math.fsum(joint)  # P(O) if only the causes produce O
    if evidence < least * (1.0 - 1e-9):
        raise ValidationError(f"evidence {evidence!r} is below the sum of "
                              f"prior * likelihood, {least!r}")
    graph = CausalGraph(graph_priors, edges, nodes=[*graph_priors, observation])
    return graph, math.log2(1.0 / evidence)
