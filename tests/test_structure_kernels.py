"""Differential tests for the structural front-end kernels (tier-1).

Four layers of cross-checking for the indexed structural kernels:

* **property-based** (hypothesis): on random graphs, the heap-driven
  min-degree / min-fill orderings pick exactly the same vertices as the seed
  linear-scan heuristics (:mod:`repro.structure.reference`), so the widths
  they certify are never worse, and the width returned as a by-product
  equals an independent :func:`ordering_width` replay;
* **workload-based**: on the Gaifman graphs of the seeded ``random_workload``
  families, the fused decomposition→encoding pipeline validates, matches the
  seed widths, and its automaton provenance (d-DNNF, circuit, and OBDD) is
  extensionally equal to the seed construction; the first-bag-index fact
  placements along path and tree decompositions equal the seed bag scans —
  plus a full
  :class:`ProbabilityOracle` sweep with the ``automaton`` route running on
  the fused path;
* **default order**: ``best_heuristic_sweep`` (min-fill skipped at the
  degeneracy) and ``default_fact_order`` / ``CompilationEngine.fact_order``
  (tree decomposition built only above path width 2) equal their
  both-builds references, and a cold ``auto`` request builds only the
  structure the rule reads;
* **unit**: co-reachability pruning on unsatisfiable properties, the
  ``peak_live_gates`` memory report, and depth-robustness of the iterative
  ``make_nice`` / encoding builders.
"""

import random
from fractions import Fraction
from itertools import product as world_product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.engine.session as session
import repro.structure.elimination as elimination
from repro.data.gaifman import gaifman_graph
from repro.data.instance import Instance, fact
from repro.data.tid import ProbabilisticInstance
from repro.engine import CompilationEngine
from repro.errors import CompilationError, DecompositionError
from repro.generators import (
    balanced_binary_tree_instance,
    directed_path_instance,
    grid_instance,
    labelled_partial_ktree_instance,
    rst_chain_instance,
)
from repro.provenance.automaton_provenance import provenance, provenance_obdd
from repro.provenance.reference import (
    default_fact_order_reference,
    fact_order_from_path_decomposition_seed,
    fact_order_from_tree_decomposition_seed,
    provenance_seed,
    reachable_states_seed,
    tree_encoding_seed,
)
from repro.provenance.automata import reachable_states
from repro.provenance.tree_encoding import fused_tree_encoding, tree_encoding
from repro.provenance.ucq_automaton import ucq_automaton
from repro.provenance.variable_orders import (
    default_fact_order,
    fact_order_from_path_decomposition,
    fact_order_from_tree_decomposition,
)
from repro.queries.library import two_incident_same_direction, unsafe_rst
from repro.queries.parser import parse_ucq
from repro.structure.elimination import (
    best_heuristic_ordering_with_width,
    best_heuristic_sweep,
    min_degree_ordering_with_width,
    min_fill_ordering_with_width,
    ordering_width,
)
from repro.structure.graph import (
    Graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
)
from repro.structure.nice import make_nice
from repro.structure.path_decomposition import (
    PathDecomposition,
    greedy_path_order,
    path_decomposition,
)
from repro.structure.reference import (
    best_heuristic_ordering_seed,
    best_heuristic_sweep_reference,
    greedy_path_order_seed,
    min_degree_ordering_seed,
    min_fill_ordering_seed,
    ordering_width_seed,
    path_decomposition_seed,
    validate_path_decomposition_seed,
)
from repro.structure.tree_decomposition import (
    TreeDecomposition,
    decomposition_from_ordering,
    decomposition_from_sweep,
    tree_decomposition,
)
from repro.testing import ProbabilityOracle, is_valid_decomposition, random_workload

# -- random graph machinery ---------------------------------------------------

edges_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=9), st.integers(min_value=0, max_value=9)),
    min_size=0,
    max_size=24,
)


def graph_from_edges(n, edges):
    graph = Graph()
    for v in range(n):
        graph.add_vertex(v)
    for u, v in edges:
        graph.add_edge(u % n, v % n)
    return graph


# -- property-based: indexed orderings vs the seed scans ----------------------


@settings(max_examples=120, deadline=None)
@given(n=st.integers(min_value=1, max_value=10), edges=edges_strategy)
def test_indexed_orderings_match_the_seed_heuristics(n, edges):
    graph = graph_from_edges(n, edges)
    # Identical tie-breaking ⇒ identical orderings, hence identical widths:
    # the indexed kernels certify width <= (in fact ==) the seed heuristics.
    assert min_degree_ordering_with_width(graph)[0] == min_degree_ordering_seed(graph)
    assert min_fill_ordering_with_width(graph)[0] == min_fill_ordering_seed(graph)
    assert best_heuristic_ordering_with_width(graph)[0] == best_heuristic_ordering_seed(graph)


@settings(max_examples=120, deadline=None)
@given(n=st.integers(min_value=1, max_value=10), edges=edges_strategy)
def test_byproduct_width_equals_independent_replay(n, edges):
    graph = graph_from_edges(n, edges)
    for with_width in (
        min_degree_ordering_with_width,
        min_fill_ordering_with_width,
        best_heuristic_ordering_with_width,
    ):
        ordering, width = with_width(graph)
        assert width == ordering_width(graph, ordering)
        assert width == ordering_width_seed(graph, ordering)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(min_value=1, max_value=10), edges=edges_strategy)
def test_fused_decomposition_is_valid_and_matches_sweep_width(n, edges):
    graph = graph_from_edges(n, edges)
    sweep = best_heuristic_sweep(graph)
    decomposition = decomposition_from_sweep(sweep)
    decomposition.validate(graph)
    assert decomposition.width == sweep.width
    # The no-validation ordering path builds the identical decomposition.
    replay = decomposition_from_ordering(graph, sweep.order, validate=False)
    assert replay.bags == decomposition.bags
    assert replay.children == decomposition.children
    assert replay.root == decomposition.root


# -- path-order kernels vs the seed rescans and bag scans ---------------------

_LABELLINGS = (
    lambda i: i,
    lambda i: f"v{i}",
    lambda i: (i, "t"),
)


def mixed_graph(rng, n, edge_count, components=1):
    """A random graph on ``n`` int/str/tuple-labelled vertices, split into
    ``components`` vertex blocks with no edges between them (so isolated
    vertices and disconnected pieces both occur)."""
    labels = [_LABELLINGS[rng.randrange(3)](i) for i in range(n)]
    block = [rng.randrange(components) for _ in range(n)]
    graph = Graph()
    for label in labels:
        graph.add_vertex(label)
    for _ in range(edge_count):
        u, v = rng.randrange(n), rng.randrange(n)
        if block[u] == block[v]:
            graph.add_edge(labels[u], labels[v])
    return graph


kinds_strategy = st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=12)


def labelled_graph(kinds, edges):
    """A graph on ``len(kinds)`` vertices labelled by ``_LABELLINGS[kind]``."""
    n = len(kinds)
    labels = [_LABELLINGS[kind](i) for i, kind in enumerate(kinds)]
    graph = Graph()
    for label in labels:
        graph.add_vertex(label)
    for u, v in edges:
        graph.add_edge(labels[u % n], labels[v % n])
    return graph


def structured_graphs():
    rng = random.Random(14)
    graphs = [
        Graph(),
        grid_graph(4, 6),
        grid_graph(3, 3),
        complete_graph(7),
        cycle_graph(11),
        complete_bipartite_graph(3, 4),
        path_graph(40),
    ]
    for trial in range(60):
        n = rng.randint(1, 30)
        graphs.append(mixed_graph(rng, n, rng.randint(0, 3 * n), components=1 + trial % 4))
    return graphs


@settings(max_examples=150, deadline=None)
@given(kinds=kinds_strategy, edges=edges_strategy)
def test_greedy_path_order_matches_the_seed_rescan(kinds, edges):
    graph = labelled_graph(kinds, edges)
    assert greedy_path_order(graph) == greedy_path_order_seed(graph)


def test_greedy_path_order_matches_the_seed_on_structured_graphs():
    for graph in structured_graphs():
        assert greedy_path_order(graph) == greedy_path_order_seed(graph)
        kernel, seed = path_decomposition(graph), path_decomposition_seed(graph)
        assert kernel.bags == seed.bags
        assert kernel.width == seed.width


def _validation_outcome(check, decomposition, graph):
    try:
        check(decomposition, graph)
    except DecompositionError as error:
        return str(error)
    return None


def _assert_same_verdict(bags, graph):
    decomposition = PathDecomposition(bags)
    kernel = _validation_outcome(PathDecomposition.validate, decomposition, graph)
    seed = _validation_outcome(validate_path_decomposition_seed, decomposition, graph)
    assert kernel == seed, (bags, kernel, seed)
    return kernel


def _mutations(bags, graph, rng):
    """Valid bags, then one vertex dropped, one edge uncovered, one
    occurrence split, and a few random single-membership flips."""
    yield list(bags)
    vertices = list(graph.vertices)
    if vertices:
        dropped = rng.choice(vertices)
        yield [bag - {dropped} for bag in bags]
    edges = graph.edges()
    if edges:
        u, v = rng.choice(edges)
        yield [bag - {v} if u in bag else bag for bag in bags]
    for vertex in vertices:
        where = [i for i, bag in enumerate(bags) if vertex in bag]
        if len(where) >= 3:
            middle = where[len(where) // 2]
            yield [bag - {vertex} if i == middle else bag for i, bag in enumerate(bags)]
            break
        if where and where[-1] + 2 < len(bags):
            gap = where[-1] + 2
            yield [bag | {vertex} if i == gap else bag for i, bag in enumerate(bags)]
            break
    for _ in range(4):
        if not bags or not vertices:
            break
        i, vertex = rng.randrange(len(bags)), rng.choice(vertices)
        flipped = list(bags)
        flipped[i] = bags[i] ^ {vertex}
        yield flipped


def test_path_validate_rejects_exactly_what_the_seed_rejects():
    rng = random.Random(21)
    verdicts = set()
    for graph in structured_graphs():
        bags = list(path_decomposition(graph).bags)
        for mutated in _mutations(bags, graph, rng):
            verdict = _assert_same_verdict(mutated, graph)
            verdicts.add(verdict.split(" ")[0] if verdict else None)
    # Every kind of verdict was exercised: valid, uncovered vertex, uncovered
    # edge, and split occurrences.
    assert verdicts == {None, "path", "edge", "occurrences"}


def _placement_instances():
    for case in random_workload(40, seed=11, max_facts=40):
        yield case.tid.instance
    yield directed_path_instance(150)
    yield rst_chain_instance(60)
    yield labelled_partial_ktree_instance(40, 2, seed=40)
    yield grid_instance(4, 4)


def test_fact_placements_match_the_seed_bag_scans():
    for instance in _placement_instances():
        graph = gaifman_graph(instance)
        path = path_decomposition(graph)
        tree = tree_decomposition(graph)
        assert fact_order_from_path_decomposition(
            instance, path
        ) == fact_order_from_path_decomposition_seed(instance, path)
        assert fact_order_from_tree_decomposition(
            instance, tree
        ) == fact_order_from_tree_decomposition_seed(instance, tree)
        assert default_fact_order(instance) == default_fact_order(
            instance, path=path_decomposition_seed(graph), tree=tree
        )


def test_fact_placements_fall_back_to_the_scan_on_mismatched_decompositions():
    instance = Instance([fact("R", "a", "b"), fact("S", "c")])
    # {a, b} first meet in the third bag: the first-occurrence guess (bag 1)
    # does not cover R(a, b), so the placement scans on, like the seed.
    path = PathDecomposition([{"a", "c"}, {"b"}, {"a", "b"}])
    assert fact_order_from_path_decomposition(
        instance, path
    ) == fact_order_from_path_decomposition_seed(instance, path)
    tree = TreeDecomposition(
        bags={0: frozenset({"a", "c"}), 1: frozenset({"b"}), 2: frozenset({"a", "b"})},
        children={0: [1, 2]},
        root=0,
    )
    assert fact_order_from_tree_decomposition(
        instance, tree
    ) == fact_order_from_tree_decomposition_seed(instance, tree)
    uncovered = PathDecomposition([{"a", "c"}, {"b"}])
    for placement in (fact_order_from_path_decomposition, fact_order_from_path_decomposition_seed):
        with pytest.raises(CompilationError, match="no bag covers"):
            placement(instance, uncovered)


# -- the default order builds only the structure its rule reads --------------


def _assert_same_sweep(graph):
    fast, reference = best_heuristic_sweep(graph), best_heuristic_sweep_reference(graph)
    assert fast.order == reference.order
    assert fast.bags == reference.bags
    assert fast.width == reference.width


@settings(max_examples=150, deadline=None)
@given(kinds=kinds_strategy, edges=edges_strategy)
def test_best_heuristic_sweep_matches_the_both_sweeps_reference(kinds, edges):
    _assert_same_sweep(labelled_graph(kinds, edges))


def test_best_heuristic_sweep_matches_the_reference_on_structured_graphs():
    # Min-fill certifies 3 where min-degree certifies 4, and the degeneracy
    # is 3: the one case where the skip must not fire one width early.
    fill_wins = graph_from_edges(
        6, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (1, 5), (2, 5), (3, 5), (4, 5)]
    )
    assert min_fill_ordering_with_width(fill_wins)[1] < min_degree_ordering_with_width(fill_wins)[1]
    for graph in [fill_wins, *structured_graphs()]:
        _assert_same_sweep(graph)


_elements = st.one_of(
    st.integers(min_value=0, max_value=6),
    st.sampled_from(("a", "b", "c", "d")),
    st.tuples(st.integers(min_value=0, max_value=3), st.just("t")),
)
# Relation names carry their arity, so any mix of facts is one signature.
_facts_strategy = st.lists(
    st.integers(min_value=1, max_value=3).flatmap(
        lambda arity: st.tuples(
            st.just(f"R{arity}"), st.lists(_elements, min_size=arity, max_size=arity)
        )
    ),
    max_size=24,
)


def _assert_default_order_matches_the_reference(instance):
    expected = default_fact_order_reference(instance)
    assert default_fact_order(instance) == expected
    assert list(CompilationEngine().fact_order(instance)) == expected


@settings(max_examples=150, deadline=None)
@given(facts=_facts_strategy)
def test_default_fact_order_matches_the_both_decompositions_rule(facts):
    _assert_default_order_matches_the_reference(
        Instance([fact(relation, *arguments) for relation, arguments in facts])
    )


def test_default_fact_order_matches_the_reference_on_families():
    edgeless = Instance([fact("R", "a"), fact("R", 1), fact("S", "b", "b"), fact("R", (2, "t"))])
    two_paths = Instance(
        [fact("E", f"p{i}", f"p{i + 1}") for i in range(6)]
        + [fact("E", i, i + 1) for i in range(6)]
    )
    # A binary tree of depth 4: path width 3 against tree width 1, so the
    # rule builds the tree and takes it.
    families = [Instance([]), edgeless, two_paths, balanced_binary_tree_instance(4)]
    families += [grid_instance(4, 4), grid_instance(2, 9)]
    families += [directed_path_instance(n) for n in (1, 40)]
    families += [rst_chain_instance(n) for n in (1, 30)]
    families += [labelled_partial_ktree_instance(40, k, seed=k) for k in (1, 2, 3)]
    for instance in families:
        _assert_default_order_matches_the_reference(instance)


def _count_calls(monkeypatch, counts, module, name):
    original = getattr(module, name)
    counts[name] = 0

    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def _cold_auto_request(monkeypatch, instance, query):
    counts = {}
    for name in ("best_heuristic_sweep", "decomposition_from_sweep"):
        _count_calls(monkeypatch, counts, session, name)
    for name in ("min_degree_sweep", "min_fill_sweep", "treewidth_lower_bound"):
        _count_calls(monkeypatch, counts, elimination, name)
    engine = CompilationEngine()
    tid = ProbabilisticInstance.uniform(instance, Fraction(1, 2))
    assert isinstance(engine.probability(query, tid), Fraction)
    assert engine.route_mix() == {"obdd": 1}
    monkeypatch.undo()
    assert engine.tree_decomposition_of(instance) == tree_decomposition(gaifman_graph(instance))
    return counts


def test_cold_auto_request_on_a_path_builds_no_sweep_and_no_tree(monkeypatch):
    counts = _cold_auto_request(
        monkeypatch, directed_path_instance(120), two_incident_same_direction()
    )
    assert counts == {
        "best_heuristic_sweep": 0,
        "decomposition_from_sweep": 0,
        "min_degree_sweep": 0,
        "min_fill_sweep": 0,
        "treewidth_lower_bound": 0,
    }


def test_cold_auto_request_on_a_ktree_runs_min_degree_only(monkeypatch):
    counts = _cold_auto_request(
        monkeypatch, labelled_partial_ktree_instance(120, 2), unsafe_rst()
    )
    assert counts == {
        "best_heuristic_sweep": 1,
        "decomposition_from_sweep": 1,
        "min_degree_sweep": 1,
        "min_fill_sweep": 0,
        "treewidth_lower_bound": 1,
    }


# -- workload-based: orderings and the fused pipeline on real families --------


def test_indexed_orderings_certify_seed_widths_on_workload_families():
    for case in random_workload(24, seed=5):
        graph = gaifman_graph(case.tid.instance)
        for fast, seed_fn in (
            (min_degree_ordering_with_width, min_degree_ordering_seed),
            (min_fill_ordering_with_width, min_fill_ordering_seed),
        ):
            ordering, width = fast(graph)
            assert width <= ordering_width_seed(graph, seed_fn(graph))
            assert ordering == seed_fn(graph)


def test_fused_pipeline_decompositions_are_valid_on_workload_families():
    for case in random_workload(24, seed=6):
        graph = gaifman_graph(case.tid.instance)
        decomposition = tree_decomposition(graph)
        assert is_valid_decomposition(decomposition, graph)


def _worlds(instance):
    facts = list(instance.facts)
    for keep in world_product((False, True), repeat=len(facts)):
        yield dict(zip(facts, keep))


def test_fused_provenance_extensionally_equals_seed_construction():
    for case in random_workload(18, seed=7):
        instance = case.tid.instance
        automaton = ucq_automaton(case.query)
        seed_encoding = tree_encoding_seed(instance)
        fused_encoding = fused_tree_encoding(instance)
        fused_encoding.validate()
        assert fused_encoding.width == seed_encoding.width

        seed_result = provenance_seed(automaton, seed_encoding)
        fused_result = provenance(automaton, fused_encoding)
        valuation = {f: case.tid.probability_of(f) for f in instance}
        seed_probability = seed_result.dnnf.probability(
            {f: valuation[f] for f in seed_result.dnnf.variables()}
        )
        fused_probability = fused_result.dnnf.probability(
            {f: valuation[f] for f in fused_result.dnnf.variables()}
        )
        assert seed_probability == fused_probability
        # Pruning can only shrink the circuit and the live-gate footprint.
        assert fused_result.dnnf_size <= seed_result.dnnf_size
        assert fused_result.peak_live_gates <= seed_result.peak_live_gates
        assert fused_result.reachable_state_counts == seed_result.reachable_state_counts
        # Circuit representation: world-by-world extensional equality.
        for world in _worlds(instance):
            assert seed_result.circuit.evaluate(world) == fused_result.circuit.evaluate(world)


def test_fused_provenance_obdd_route_agrees_with_seed():
    for case in random_workload(10, seed=8):
        instance = case.tid.instance
        automaton = ucq_automaton(case.query)
        compiled = provenance_obdd(automaton, fused_tree_encoding(instance))
        seed_result = provenance_seed(automaton, tree_encoding_seed(instance))
        valuation = case.tid.valuation()
        expected = seed_result.dnnf.probability(
            {f: case.tid.probability_of(f) for f in seed_result.dnnf.variables()}
        )
        assert compiled.probability(valuation) == expected


def test_probability_oracle_passes_with_the_automaton_route():
    oracle = ProbabilityOracle(
        exact_methods=("brute_force", "obdd", "auto", "automaton"),
        karp_luby_samples=0,
    )
    oracle.check_many(random_workload(16, seed=9))


def test_reachable_states_matches_seed_pass():
    for case in random_workload(8, seed=10):
        instance = case.tid.instance
        automaton = ucq_automaton(case.query)
        encoding = tree_encoding_seed(instance)
        assert reachable_states(automaton, encoding) == reachable_states_seed(
            automaton, encoding
        )


# -- unit: pruning, memory report, and depth robustness ----------------------


def test_unsatisfiable_property_prunes_every_gate():
    instance = directed_path_instance(5)
    automaton = ucq_automaton(parse_ucq("E(x,y), E(y,z), E(z,w), E(w,u), E(u,t), E(t,s)"))
    result = provenance(automaton, fused_tree_encoding(instance))
    # Six consecutive edges never exist on a 5-edge path: everything is
    # co-unreachable from an accepting root, so no state gates are emitted.
    assert result.peak_live_gates == 0
    assert not result.dnnf.evaluate({f: True for f in instance})


def test_peak_live_gates_stays_local_on_path_encodings():
    instance = directed_path_instance(60)
    automaton = ucq_automaton(parse_ucq("E(x,y), E(y,z)"))
    result = provenance(automaton, fused_tree_encoding(instance))
    tid = ProbabilisticInstance.uniform(instance, Fraction(1, 2))
    # Path-shaped encoding: each gate table is freed once its parent is
    # built, so the peak is a small constant, not proportional to the
    # encoding (which has >= 60 nodes).
    assert 0 < result.peak_live_gates <= 16
    value = result.dnnf.probability(
        {f: tid.probability_of(f) for f in result.dnnf.variables()}
    )
    assert 0 < value < 1


def test_automaton_probability_handles_nodes_of_any_arity():
    # The DP must stay arity-generic even though produced encodings are
    # binary: a hand-built ternary node exercises the weighted-product fold.
    from repro.data.instance import Instance, fact
    from repro.provenance.automata import automaton_probability
    from repro.provenance.automata import FunctionalAutomaton
    from repro.provenance.tree_encoding import EncodingNode, TreeEncoding

    facts = [fact("R", f"a{i}") for i in range(3)]
    instance = Instance(facts)
    nodes = {
        i: EncodingNode(i, frozenset({f"a{i}"}), facts[i], ()) for i in range(3)
    }
    nodes[3] = EncodingNode(3, frozenset(), None, (0, 1, 2))
    encoding = TreeEncoding(instance, nodes, 3)
    automaton = FunctionalAutomaton(
        lambda node, present, child_states: sum(child_states) + (1 if present else 0),
        lambda state: state == 3,
        name="all-three",
    )
    tid = ProbabilisticInstance.uniform(instance, Fraction(1, 2))
    assert automaton_probability(automaton, encoding, tid) == Fraction(1, 8)


def test_make_nice_handles_deep_decompositions_iteratively():
    graph = path_graph(3000)
    nice = make_nice(tree_decomposition(graph))
    assert nice.width == 1
    assert len(nice) >= 3000


def test_fused_encoding_handles_deep_instances():
    instance = directed_path_instance(1500)
    encoding = tree_encoding(instance)
    assert encoding.width <= 2
    assert len(encoding.facts_in_order()) == 1500
