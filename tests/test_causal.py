import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unexpect.causal import CausalGraph, from_probabilities
from unexpect.core import (
    UnknownNodeError,
    UnreachableError,
    ValidationError,
)


def brute_force_cost(graph_dict, target):
    """Cheapest root-to-target cost by exhaustive simple-path search.

    Costs accumulate in path order (prior first, then each edge), the
    same prefix-sum order the search uses, so equality can be exact.
    """
    adjacency: dict[str, list[tuple[str, float]]] = {}
    for edge in graph_dict["edges"]:
        adjacency.setdefault(edge["from"], []).append((edge["to"], edge["bits"]))
    best = math.inf

    def walk(node, cost, visited):
        nonlocal best
        if node == target:
            best = min(best, cost)
            return
        for nxt, bits in adjacency.get(node, ()):
            if nxt not in visited:
                walk(nxt, cost + bits, visited | {nxt})

    for node in graph_dict["nodes"]:
        if node.get("prior_bits") is not None:
            walk(node["id"], node["prior_bits"], {node["id"]})
    return best


def random_dag(rng_next_float, rng_next_below):
    n = 2 + rng_next_below(9)
    ids = [f"n{i}" for i in range(n)]
    nodes = []
    any_prior = False
    for i, node_id in enumerate(ids):
        if rng_next_float() < 0.5 or (i == n - 1 and not any_prior):
            nodes.append({"id": node_id, "prior_bits": rng_next_float() * 8})
            any_prior = True
        else:
            nodes.append({"id": node_id})
    edges = []
    for i, j in itertools.combinations(range(n), 2):
        if rng_next_float() < 0.4:
            edges.append({"from": ids[i], "to": ids[j],
                          "bits": rng_next_float() * 10})
    return {"nodes": nodes, "edges": edges}


class TestGenerationComplexity:
    def test_bare_root_costs_its_prior(self):
        graph = CausalGraph({"s": 5.0})
        assert graph.generation_complexity("s") == 5.0

    def test_single_chain_adds_costs(self):
        prior = math.log2(100)          # 6.6439 bits
        edge = math.log2(1 / 0.9)       # 0.1520 bits
        graph = CausalGraph({"c": prior}, [("c", "s", edge)])
        assert graph.generation_complexity("s") == pytest.approx(
            6.795859283219775, abs=1e-12
        )

    def test_two_causes_take_the_cheaper(self):
        graph = CausalGraph(
            {"c1": 2.0, "c2": 4.0},
            [("c1", "s", 3.0), ("c2", "s", 0.5)],
        )
        assert graph.generation_complexity("s") == 4.5

    def test_unreachable_is_infinite(self):
        graph = CausalGraph({"root": 1.0}, [("root", "a", 1.0)], nodes=["b"])
        assert graph.generation_complexity("b") == math.inf

    def test_unknown_node(self):
        graph = CausalGraph({"root": 1.0})
        with pytest.raises(UnknownNodeError):
            graph.generation_complexity("ghost")

    def test_prior_can_beat_incoming_path(self):
        graph = CausalGraph({"c": 1.0, "s": 0.5}, [("c", "s", 2.0)])
        assert graph.generation_complexity("s") == 0.5

    def test_cycles_cannot_improve_cost(self):
        graph = CausalGraph(
            {"a": 1.0},
            [("a", "b", 1.0), ("b", "a", 0.0), ("b", "c", 1.0)],
        )
        assert graph.generation_complexity("c") == 3.0

    def test_rejects_negative_costs(self):
        with pytest.raises(ValidationError):
            CausalGraph({"a": -1.0})
        with pytest.raises(ValidationError):
            CausalGraph({"a": 1.0}, [("a", "b", -0.5)])

    def test_adding_an_edge_never_hurts(self):
        from unexpect.simgen import SplitMix64

        rng = SplitMix64(7)
        for _ in range(50):
            obj = random_dag(rng.next_float, lambda n: rng.next_u64() % n)
            graph = CausalGraph.from_dict(obj)
            ids = [n["id"] for n in obj["nodes"]]
            src = ids[rng.next_u64() % len(ids)]
            dst = ids[rng.next_u64() % len(ids)]
            if src == dst:
                continue
            before = {n: graph.generation_complexity(n) for n in ids}
            obj2 = {
                "nodes": obj["nodes"],
                "edges": obj["edges"] + [
                    {"from": src, "to": dst, "bits": rng.next_float() * 5}
                ],
            }
            richer = CausalGraph.from_dict(obj2)
            for n in ids:
                assert richer.generation_complexity(n) <= before[n] + 1e-12


class TestExplain:
    def test_u_from_single_cause_chain(self):
        graph = CausalGraph(
            {"c": math.log2(100)}, [("c", "s", math.log2(1 / 0.9))]
        )
        explanation = graph.explain("s", math.log2(10))
        assert explanation.best_cause == "c"
        assert explanation.chain == ("c", "s")
        assert explanation.u_raw == pytest.approx(3.4739311883324127, abs=1e-12)

    def test_perfectly_explained_target(self):
        graph = CausalGraph({"c": 2.0}, [("c", "s", 2.5)])
        explanation = graph.explain("s", 4.5)
        assert explanation.u_raw == 0.0
        assert explanation.u_clamped == 0.0

    def test_two_cause_best_selection(self):
        graph = CausalGraph(
            {"c1": 2.0, "c2": 4.0},
            [("c1", "s", 3.0), ("c2", "s", 0.5)],
        )
        explanation = graph.explain("s", 4.5)
        assert explanation.best_cause == "c2"
        assert explanation.u_raw == 0.0

    def test_root_target_has_no_cause(self):
        graph = CausalGraph({"s": 1.5})
        explanation = graph.explain("s", 1.0)
        assert explanation.best_cause is None
        assert explanation.chain == ("s",)

    def test_tie_breaks_to_smallest_cause_id(self):
        graph = CausalGraph(
            {"zed": 1.0, "ann": 1.0},
            [("zed", "s", 1.0), ("ann", "s", 1.0)],
        )
        assert graph.explain("s", 1.0).best_cause == "ann"

    def test_unreachable_target(self):
        graph = CausalGraph({"root": 1.0}, nodes=["orphan"])
        with pytest.raises(UnreachableError):
            graph.explain("orphan", 1.0)

    def test_rejects_infinite_description_cost(self):
        graph = CausalGraph({"s": 1.0})
        # A cost in bits is never negative either.
        for c_d in (math.inf, math.nan, -1.0):
            with pytest.raises(ValidationError):
                graph.explain("s", c_d)

    def test_negative_u_survives_raw(self):
        graph = CausalGraph({"s": 1.0})
        explanation = graph.explain("s", 3.0)
        assert explanation.u_raw == -2.0
        assert explanation.u_clamped == 0.0

    def test_chain_visits_target_once_at_the_end(self):
        graph = CausalGraph(
            {"a": 1.0},
            [("a", "s", 1.0), ("s", "b", 0.1), ("b", "s", 0.1)],
        )
        explanation = graph.explain("s", 1.0)
        assert explanation.chain.count("s") == 1
        assert explanation.chain[-1] == "s"


class TestAgainstBruteForce:
    def test_five_hundred_random_dags(self):
        from unexpect.simgen import SplitMix64

        rng = SplitMix64(2024)
        for _ in range(500):
            obj = random_dag(rng.next_float, lambda n: rng.next_u64() % n)
            graph = CausalGraph.from_dict(obj)
            for node in obj["nodes"]:
                expected = brute_force_cost(obj, node["id"])
                assert graph.generation_complexity(node["id"]) == expected


class TestFromProbabilities:
    def test_textbook_instance(self):
        graph, c_d = from_probabilities({"M": 0.01}, {"M": 0.9}, 0.1)
        assert c_d == pytest.approx(math.log2(10), abs=1e-12)
        explanation = graph.explain("O", c_d)
        assert 2.0 ** -explanation.u_raw == pytest.approx(0.09, abs=1e-9)

    def test_certain_world(self):
        graph, c_d = from_probabilities({"M": 1.0}, {"M": 1.0}, 1.0)
        explanation = graph.explain("O", c_d)
        assert explanation.u_raw == 0.0
        assert 2.0 ** -explanation.u_raw == 1.0

    def test_zero_probability_causes_are_absent(self):
        graph, _ = from_probabilities(
            {"M1": 0.5, "M2": 0.0}, {"M1": 0.5, "M2": 0.9}, 0.25
        )
        with pytest.raises(UnknownNodeError):
            graph.generation_complexity("M2")

    def test_zero_likelihood_leaves_prior_only_root(self):
        graph, c_d = from_probabilities(
            {"M1": 0.5, "M2": 0.25}, {"M1": 0.5, "M2": 0.0}, 0.25
        )
        assert graph.generation_complexity("M2") == 2.0
        assert graph.explain("O", c_d).best_cause == "M1"

    def test_rejects_inconsistent_inputs(self):
        with pytest.raises(ValidationError):
            from_probabilities({"M": 0.5}, {"M": 0.5}, 0.0)
        with pytest.raises(ValidationError):
            from_probabilities({"M": 0.8, "N": 0.7}, {"M": 1.0, "N": 1.0}, 0.5)
        with pytest.raises(ValidationError):
            from_probabilities({"M": 0.5}, {"M": 0.5, "ghost": 0.1}, 0.5)
        with pytest.raises(ValidationError, match="below the sum"):
            from_probabilities({"M": 0.5}, {"M": 0.5}, 0.25 * (1 - 1e-8))

    @settings(deadline=None, max_examples=200)
    @given(st.data())
    def test_bayes_posterior_identity(self, data):
        k = data.draw(st.integers(min_value=1, max_value=16))
        raw = data.draw(
            st.lists(st.floats(min_value=0.01, max_value=10.0),
                     min_size=k + 1, max_size=k + 1)
        )
        total = math.fsum(raw)
        priors = {f"M{i:02d}": raw[i] / total for i in range(k)}
        likelihoods = {
            f"M{i:02d}": data.draw(st.floats(min_value=1e-6, max_value=1.0))
            for i in range(k)
        }
        evidence = math.fsum(priors[m] * likelihoods[m] for m in priors)
        graph, c_d = from_probabilities(priors, likelihoods, evidence)
        explanation = graph.explain("O", c_d)

        posteriors = {m: priors[m] * likelihoods[m] / evidence for m in priors}
        best = min(sorted(posteriors), key=lambda m: (-posteriors[m], m))
        assert abs(2.0 ** -explanation.u_raw - posteriors[best]) < 1e-9
