"""Provenance circuits from deterministic tree automata (Theorems 6.3 and 6.11).

Given a deterministic bottom-up automaton A and a tree encoding E of an
instance, the construction of [2] builds, bottom-up, one gate ``g^q_n`` per
node n and reachable state q, meaning "in the current possible world, the run
of A assigns state q to node n".  The gate is an OR, over the combinations of
children states and fact-presence values leading to q, of the AND of the
children's gates and the fact literal (or its negation).

Because A is deterministic:

* the OR inputs are mutually exclusive (different combinations cannot hold in
  the same world), and
* the AND inputs depend on disjoint facts (left subtree, right subtree, and
  the node's own fact),

so the produced circuit is a d-DNNF (Theorem 6.11), of size linear in the
encoding (for a fixed automaton and width).  The same circuit viewed as a
plain Boolean circuit is the bounded-treewidth lineage circuit of
Theorem 6.3; over a path encoding it has bounded pathwidth (Proposition 6.8).

The construction runs as an indexed kernel:

* states get **dense integer ids** per node, in first-reached order, so no
  ``sorted(..., key=repr)`` normalization and no repeated hashing of
  composite state objects (the UCQ automaton's states are frozensets of
  descriptors) on the hot path;
* the bottom-up pass calls ``transition`` **once** per (child-combination,
  fact-presence) pair and records the result in a per-node transition table,
  instead of one reachability pass plus a second full product enumeration;
* a **top-down co-reachability pass** keeps only the states from which an
  accepting root state is still reachable, so gates are emitted only for
  combinations that can contribute to the output;
* per-child gate tables are **freed** as soon as the parent consumes them,
  and the peak number of live gate-table entries is reported in
  :class:`ProvenanceResult` (``peak_live_gates``) — on a path-shaped
  encoding the peak is O(states-per-node), not O(encoding).

The seed construction is preserved in :mod:`repro.provenance.reference` as a
differential baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as _iter_product
from typing import Sequence

from repro.booleans.circuit import BooleanCircuit
from repro.booleans.dnnf import DNNF
from repro.data.instance import Fact
from repro.errors import LineageError
from repro.provenance.automata import State, TreeAutomaton
from repro.provenance.tree_encoding import TreeEncoding


@dataclass(slots=True)
class ProvenanceResult:
    """The provenance of an automaton on an encoding, in both representations."""

    dnnf: DNNF
    circuit: BooleanCircuit
    reachable_state_counts: dict[int, int]
    peak_live_gates: int = 0

    @property
    def dnnf_size(self) -> int:
        return self.dnnf.size

    @property
    def circuit_size(self) -> int:
        return self.circuit.size

    @property
    def max_states_per_node(self) -> int:
        return max(self.reachable_state_counts.values(), default=0)


def provenance_dnnf(automaton: TreeAutomaton, encoding: TreeEncoding) -> DNNF:
    """The d-DNNF provenance of the automaton on the encoding (Theorem 6.11)."""
    return provenance(automaton, encoding).dnnf


def provenance_circuit(automaton: TreeAutomaton, encoding: TreeEncoding) -> BooleanCircuit:
    """The lineage circuit of the automaton on the encoding (Theorem 6.3)."""
    return provenance(automaton, encoding).circuit


def reachability_tables(
    automaton: TreeAutomaton, encoding: TreeEncoding
) -> tuple[list[int], dict[int, list[State]], dict[int, list[list[tuple[tuple[int, ...], bool]]]]]:
    """Pass 1 of the indexed kernel: dense state ids and transition tables.

    Returns ``(post, states, combos)`` where ``post`` is the encoding's
    post-order, ``states[n]`` lists the reachable states of node n in
    first-reached order (the dense id of a state is its list position), and
    ``combos[n][q]`` indexes, per resulting state id q, the
    (child-state-id combination, fact_present) pairs whose transition reaches
    q — each combination is evaluated once.  The gate-emission passes below
    consume these tables.
    """
    post = encoding.post_order()
    nodes = encoding.nodes
    transition = automaton.transition
    states: dict[int, list[State]] = {}
    combos: dict[int, list[list[tuple[tuple[int, ...], bool]]]] = {}
    for identifier in post:
        node = nodes[identifier]
        child_state_lists = [states[child] for child in node.children]
        presence_options = (False, True) if node.fact is not None else (False,)
        intern: dict[State, int] = {}
        local_states: list[State] = []
        local_combos: list[list[tuple[tuple[int, ...], bool]]] = []
        for indexed in _iter_product(*(list(enumerate(s)) for s in child_state_lists)):
            combination = tuple(pair[0] for pair in indexed)
            actual = tuple(pair[1] for pair in indexed)
            for fact_present in presence_options:
                state = transition(node, fact_present, actual)
                state_id = intern.get(state)
                if state_id is None:
                    state_id = len(local_states)
                    intern[state] = state_id
                    local_states.append(state)
                    local_combos.append([])
                local_combos[state_id].append((combination, fact_present))
        states[identifier] = local_states
        combos[identifier] = local_combos
    return post, states, combos


def provenance(automaton: TreeAutomaton, encoding: TreeEncoding) -> ProvenanceResult:
    """Build the provenance d-DNNF and circuit with the indexed kernel."""
    nodes = encoding.nodes

    # -- pass 1: bottom-up reachability with dense state ids ------------------
    post, states, combos = reachability_tables(automaton, encoding)

    counts = {identifier: len(local) for identifier, local in states.items()}

    # -- pass 2: top-down co-reachability pruning -----------------------------
    # A (node, state) pair is useful iff some accepting root state is reachable
    # from it; only useful states get gates.  Reversed post-order visits every
    # parent before its children.
    useful: dict[int, set[int]] = {identifier: set() for identifier in post}
    root_states = states[encoding.root]
    useful[encoding.root] = {
        state_id for state_id, state in enumerate(root_states) if automaton.is_accepting(state)
    }
    for identifier in reversed(post):
        live = useful[identifier]
        if not live:
            continue
        children = nodes[identifier].children
        if not children:
            continue
        child_useful = [useful[child] for child in children]
        node_combos = combos[identifier]
        for state_id in live:
            for combination, _fact_present in node_combos[state_id]:
                for position, child_state_id in enumerate(combination):
                    child_useful[position].add(child_state_id)

    # -- pass 3: bottom-up gate emission with child-table freeing -------------
    dnnf = DNNF()
    circuit = BooleanCircuit()
    dnnf_gate: dict[int, dict[int, int]] = {}
    circuit_gate: dict[int, dict[int, int]] = {}
    live_gates = 0
    peak_live_gates = 0

    for identifier in post:
        node = nodes[identifier]
        children = node.children
        node_combos = combos[identifier]
        del combos[identifier]

        node_dnnf: dict[int, int] = {}
        node_circuit: dict[int, int] = {}
        for state_id in sorted(useful[identifier]):
            state_combos = node_combos[state_id]
            dnnf_terms: list[int] = []
            circuit_terms: list[int] = []
            for combination, fact_present in state_combos:
                dnnf_parts: list[int] = []
                circuit_parts: list[int] = []
                for position, child_state_id in enumerate(combination):
                    child = children[position]
                    dnnf_parts.append(dnnf_gate[child][child_state_id])
                    circuit_parts.append(circuit_gate[child][child_state_id])
                if node.fact is not None:
                    dnnf_parts.append(dnnf.literal(node.fact, fact_present))
                    fact_gate = circuit.variable(node.fact)
                    circuit_parts.append(fact_gate if fact_present else circuit.negation(fact_gate))
                dnnf_terms.append(dnnf.conjunction(dnnf_parts))
                circuit_terms.append(circuit.conjunction(circuit_parts))
            node_dnnf[state_id] = dnnf.disjunction(dnnf_terms)
            node_circuit[state_id] = circuit.disjunction(circuit_terms)
        dnnf_gate[identifier] = node_dnnf
        circuit_gate[identifier] = node_circuit
        live_gates += len(node_dnnf)
        if live_gates > peak_live_gates:
            peak_live_gates = live_gates
        # The parent above is the only consumer of these tables: free them.
        for child in children:
            live_gates -= len(dnnf_gate[child])
            del dnnf_gate[child]
            del circuit_gate[child]

    accepting_ids = sorted(useful[encoding.root])
    root_dnnf = dnnf_gate[encoding.root]
    root_circuit = circuit_gate[encoding.root]
    dnnf.set_output(
        dnnf.disjunction([root_dnnf[state_id] for state_id in accepting_ids])
        if accepting_ids
        else dnnf.constant(False)
    )
    circuit.set_output(
        circuit.disjunction([root_circuit[state_id] for state_id in accepting_ids])
        if accepting_ids
        else circuit.constant(False)
    )

    return ProvenanceResult(
        dnnf=dnnf,
        circuit=circuit,
        reachable_state_counts=counts,
        peak_live_gates=peak_live_gates,
    )


def provenance_obdd(automaton: TreeAutomaton, encoding: TreeEncoding):
    """An OBDD for the automaton's lineage, under the encoding's fact order.

    This realizes the Theorem 6.5 pipeline: the bounded-treewidth circuit of
    Theorem 6.3 compiled into an OBDD whose variable order follows the
    decomposition (facts in post-order of their attachment node).
    """
    from repro.provenance.compile_obdd import compile_circuit_to_obdd

    result = provenance(automaton, encoding)
    order: Sequence[Fact] = encoding.facts_in_order()
    missing = set(result.circuit.variables()) - set(order)
    if missing:
        raise LineageError("encoding fact order does not cover the circuit variables")
    # Facts never mentioned by the circuit are appended so that model counts
    # are taken over the full instance when needed.
    return compile_circuit_to_obdd(result.circuit, list(order))
