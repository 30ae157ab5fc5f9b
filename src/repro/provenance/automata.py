"""Deterministic bottom-up automata over tree encodings.

The MSO-on-treelike-instances machinery of the paper ([2], Theorem 3.2,
Theorems 6.3/6.11) runs tree automata over tree encodings of the instance,
where each node's attached fact can be kept or discarded.  Full MSO-to-
automaton compilation is non-elementary, so — as the paper itself does in its
constructions — we work directly with *deterministic* bottom-up automata,
given as transition functions:

* concrete automata for the MSO properties the paper uses live in
  :mod:`repro.provenance.mso_properties`;
* UCQ≠ queries are compiled into (lazily determinized) automata in
  :mod:`repro.provenance.ucq_automaton`.

Because the automaton is deterministic, three things follow directly, and are
implemented here:

* model checking is a single bottom-up pass (linear time; Theorem 5.2 upper
  bound / Table 1);
* the probability of the property on a TID instance is computed by a single
  bottom-up dynamic programming pass over (node, state) pairs — the
  "ra-linear" evaluation of Theorem 3.2 / 4.2;
* the provenance circuit built per [2] is a d-DNNF of linear size
  (Theorem 6.11), constructed in :mod:`repro.provenance.automaton_provenance`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Hashable, Iterable, Mapping, Protocol, Sequence

from repro import resilience as _resilience
from repro.data.instance import Fact
from repro.data.tid import ProbabilisticInstance
from repro.errors import LineageError
from repro.provenance.tree_encoding import EncodingNode, TreeEncoding

State = Hashable


class TreeAutomaton(Protocol):
    """A deterministic bottom-up automaton over tree encodings.

    The transition receives the encoding node (bag and attached fact), whether
    the attached fact is kept in the current possible world, and the states of
    the node's children (left to right); it must return the node's state.
    Nodes without an attached fact are evaluated with ``fact_present=False``.
    """

    def transition(
        self, node: EncodingNode, fact_present: bool, child_states: Sequence[State]
    ) -> State:
        ...

    def is_accepting(self, state: State) -> bool:
        ...


@dataclass
class FunctionalAutomaton:
    """A tree automaton given by plain Python functions."""

    transition_function: Callable[[EncodingNode, bool, Sequence[State]], State]
    accepting: Callable[[State], bool]
    name: str = "automaton"

    def transition(self, node: EncodingNode, fact_present: bool, child_states: Sequence[State]) -> State:
        return self.transition_function(node, fact_present, child_states)

    def is_accepting(self, state: State) -> bool:
        return self.accepting(state)


def run_automaton(
    automaton: TreeAutomaton, encoding: TreeEncoding, world: Iterable[Fact] | Mapping[Fact, bool]
) -> State:
    """Run the automaton bottom-up on the encoding for a given possible world."""
    if isinstance(world, Mapping):
        present = {f for f, kept in world.items() if kept}
    else:
        present = set(world)
    states: dict[int, State] = {}
    for identifier in encoding.post_order():
        node = encoding.nodes[identifier]
        child_states = [states[child] for child in node.children]
        fact_present = node.fact is not None and node.fact in present
        states[identifier] = automaton.transition(node, fact_present, child_states)
    return states[encoding.root]


def accepts(
    automaton: TreeAutomaton, encoding: TreeEncoding, world: Iterable[Fact] | Mapping[Fact, bool]
) -> bool:
    """Model checking of the property on the given possible world (linear time)."""
    return automaton.is_accepting(run_automaton(automaton, encoding, world))


def model_check(automaton: TreeAutomaton, encoding: TreeEncoding) -> bool:
    """Model checking on the full instance (every fact present)."""
    return accepts(automaton, encoding, encoding.instance.facts)


def reachable_states(
    automaton: TreeAutomaton, encoding: TreeEncoding
) -> dict[int, set[State]]:
    """The set of states reachable at each node over all possible worlds.

    This is the key quantity of the provenance construction: its maximum per
    node bounds both the d-DNNF size factor and the OBDD width.  Child states
    are enumerated in first-reached order (no ``repr`` normalization); the
    seed pass survives as :func:`repro.provenance.reference.
    reachable_states_seed`.
    """
    reachable: dict[int, set[State]] = {}
    for identifier in encoding.post_order():
        node = encoding.nodes[identifier]
        child_state_sets = [reachable[child] for child in node.children]
        presence_options = (False, True) if node.fact is not None else (False,)
        states: set[State] = set()
        for combination in product(*child_state_sets):
            for fact_present in presence_options:
                states.add(automaton.transition(node, fact_present, combination))
        reachable[identifier] = states
    return reachable


def automaton_probability(
    automaton: TreeAutomaton,
    encoding: TreeEncoding,
    probabilistic_instance: ProbabilisticInstance,
) -> Fraction:
    """Probability that the property holds, by dynamic programming over states.

    This is the ra-linear probability evaluation of Theorems 3.2/4.2: a single
    bottom-up pass computing, for every node and reachable state, the
    probability that the subtree's facts produce that state.  Exact rational
    arithmetic throughout.
    """
    if probabilistic_instance.instance != encoding.instance:
        raise LineageError("the probabilistic instance does not match the encoding's instance")
    one = Fraction(1)
    budget = _resilience.ACTIVE
    distributions: dict[int, dict[State, Fraction]] = {}
    for identifier in encoding.post_order():
        node = encoding.nodes[identifier]
        children = node.children
        if budget is not None:
            budget.charge_nodes(1)
        # Weighted product over the children (any arity), without recursion;
        # a child's distribution is consumed exactly once (by its parent), so
        # it is freed immediately afterwards.
        combos: list[tuple[tuple[State, ...], Fraction]] = [((), one)]
        for child in children:
            combos = [
                ((*combination, state), weight * child_weight)
                for combination, weight in combos
                for state, child_weight in distributions[child].items()
                if child_weight != 0
            ]
            if budget is not None:
                # State combinations are this route's unit of work (they
                # explode exactly when the automaton state space does), so
                # they draw from the same node budget as OBDD allocations.
                budget.charge_nodes(len(combos))
        for child in children:
            del distributions[child]
        current: dict[State, Fraction] = {}
        if node.fact is not None:
            probability = probabilistic_instance.probability_of(node.fact)
            options = ((True, probability), (False, 1 - probability))
        else:
            options = ((False, one),)
        for combination, weight in combos:
            for fact_present, fact_weight in options:
                if fact_weight == 0:
                    continue
                state = automaton.transition(node, fact_present, combination)
                current[state] = current.get(state, Fraction(0)) + weight * fact_weight
        distributions[identifier] = current
    root_distribution = distributions[encoding.root]
    total = sum(root_distribution.values(), Fraction(0))
    if total != 1:
        raise LineageError("state distribution does not sum to 1; the automaton is not total")
    return sum(
        (probability for state, probability in root_distribution.items() if automaton.is_accepting(state)),
        Fraction(0),
    )


