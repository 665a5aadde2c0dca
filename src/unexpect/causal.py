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
import json
import math
from typing import Mapping, Optional, Sequence

from .core import (
    BitLength,
    SymbolId,
    UnknownNodeError,
    UnreachableError,
    ValidationError,
    _Value,
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
        self._priors = dict(priors)
        self._adjacency: dict[SymbolId, list[tuple[SymbolId, float]]] = {}
        self._nodes = set(nodes) | set(self._priors)
        for src, dst, _ in edges:
            self._nodes.add(src)
            self._nodes.add(dst)
        for node, bits in self._priors.items():
            if not math.isfinite(bits) or bits < 0.0:
                raise ValidationError(
                    f"prior of {node!r} must be finite and >= 0, got {bits}"
                )
        if not self._priors:
            raise ValidationError("graph needs at least one node with a prior")
        for src, dst, bits in edges:
            if not math.isfinite(bits) or bits < 0.0:
                raise ValidationError(
                    f"edge {src!r}->{dst!r} cost must be finite and >= 0, got {bits}"
                )
            self._adjacency.setdefault(src, []).append((dst, float(bits)))
        for out in self._adjacency.values():
            out.sort()  # deterministic relaxation order

    @property
    def nodes(self) -> frozenset[SymbolId]:
        return frozenset(self._nodes)

    def prior(self, node: SymbolId) -> Optional[BitLength]:
        return self._priors.get(node)

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
        if not math.isfinite(c_d):
            raise ValidationError(f"description cost must be finite, got {c_d}")
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

    def to_dict(self) -> dict:
        nodes = [
            {"id": n, **({"prior_bits": self._priors[n]} if n in self._priors else {})}
            for n in sorted(self._nodes)
        ]
        edges = [
            {"from": src, "to": dst, "bits": bits}
            for src in sorted(self._adjacency)
            for dst, bits in self._adjacency[src]
        ]
        return {"nodes": nodes, "edges": edges}

    @classmethod
    def from_dict(cls, obj: dict) -> "CausalGraph":
        try:
            node_ids = [n["id"] for n in obj["nodes"]]
            priors = {
                n["id"]: float(n["prior_bits"])
                for n in obj["nodes"]
                if n.get("prior_bits") is not None
            }
            edges = [
                (e["from"], e["to"], float(e["bits"])) for e in obj.get("edges", ())
            ]
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed graph object: {exc}") from None
        for src, dst, _ in edges:
            if src not in node_ids or dst not in node_ids:
                raise ValidationError(f"edge {src!r}->{dst!r} references unknown node")
        return cls(priors, edges, nodes=node_ids)

    @classmethod
    def from_json(cls, text: str) -> "CausalGraph":
        return cls.from_dict(json.loads(text))


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
    absent rather than infinitely costly.
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
    if not graph_priors:
        raise ValidationError("all priors are zero; nothing can explain anything")
    graph = CausalGraph(graph_priors, edges, nodes=[*graph_priors, observation])
    return graph, math.log2(1.0 / evidence)
