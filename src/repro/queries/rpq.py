"""Conjunctive two-way regular path queries with disequalities (C2RPQ≠).

Section 4 of the paper notes that the probability-evaluation dichotomy
(Theorem 4.2) can alternatively be shown with a *monotone* query taken from
C2RPQ≠ -- conjunctive two-way regular path queries [7, 8] extended with
disequality atoms -- instead of the non-monotone FO query q_h.  This module
provides the C2RPQ≠ machinery:

* a small regular-expression language over the binary relations of a
  signature, with two-way navigation (``R`` forward, ``R-`` backward),
  concatenation (``.``), alternation (``|``), Kleene star (``*``), plus
  (``+``) and optional (``?``);
* Thompson-style compilation of expressions to NFAs and product-graph
  evaluation of path atoms on relational instances;
* C2RPQ≠ queries as conjunctions of path atoms plus disequalities, with
  Boolean evaluation, homomorphism enumeration, match (witness fact set)
  enumeration, and monotone-DNF lineage extraction compatible with the rest
  of the lineage pipeline;
* the subdivision-invariant "two incident paths" query used as the monotone
  analogue of q_p when instances may be subdivided.

Path-witness enumeration is necessarily bounded (a Kleene star admits
arbitrarily long witnesses); the bound defaults to the number of facts of the
instance, which is enough for *minimal* witnesses since a minimal witness
never repeats a fact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Sequence

from repro.data.instance import Fact, Instance
from repro.errors import QueryError
from repro.queries.atoms import Disequality, Variable, var


# -- regular expressions -------------------------------------------------------------


@dataclass(frozen=True)
class RegexNode:
    """A node of the regular-expression AST.

    ``kind`` is one of ``symbol``, ``epsilon``, ``concat``, ``union``,
    ``star``; ``payload`` is ``(relation, inverse)`` for symbols and the
    child tuple for the composite kinds.
    """

    kind: str
    payload: Any = None

    def __str__(self) -> str:
        if self.kind == "symbol":
            relation, inverse = self.payload
            return f"{relation}-" if inverse else relation
        if self.kind == "epsilon":
            return "ε"
        if self.kind == "concat":
            return ".".join(_wrap(child) for child in self.payload)
        if self.kind == "union":
            return "|".join(_wrap(child) for child in self.payload)
        return f"{_wrap(self.payload)}*"


def _wrap(node: RegexNode) -> str:
    if node.kind in ("symbol", "epsilon", "star"):
        return str(node)
    return f"({node})"


def symbol(relation: str, inverse: bool = False) -> RegexNode:
    """An atomic step along (``inverse=False``) or against a binary relation."""
    return RegexNode("symbol", (relation, bool(inverse)))


def epsilon() -> RegexNode:
    return RegexNode("epsilon")


def concat(*parts: RegexNode) -> RegexNode:
    children = tuple(parts)
    if not children:
        return epsilon()
    if len(children) == 1:
        return children[0]
    return RegexNode("concat", children)


def union(*parts: RegexNode) -> RegexNode:
    children = tuple(parts)
    if not children:
        raise QueryError("union of no expressions")
    if len(children) == 1:
        return children[0]
    return RegexNode("union", children)


def star(part: RegexNode) -> RegexNode:
    return RegexNode("star", part)


def plus(part: RegexNode) -> RegexNode:
    return concat(part, star(part))


def optional(part: RegexNode) -> RegexNode:
    return union(part, epsilon())


# -- regular-expression parser ---------------------------------------------------------

_OPERATORS = set(".|*+?()")


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    index = 0
    while index < len(text):
        char = text[index]
        if char.isspace():
            index += 1
            continue
        if char in _OPERATORS:
            tokens.append(char)
            index += 1
            continue
        if char.isalnum() or char == "_":
            start = index
            while index < len(text) and (text[index].isalnum() or text[index] == "_"):
                index += 1
            name = text[start:index]
            if index < len(text) and text[index] == "-":
                index += 1
                tokens.append(f"{name}-")
            else:
                tokens.append(name)
            continue
        raise QueryError(f"unexpected character {char!r} in regular expression")
    return tokens


def parse_regex(text: str) -> RegexNode:
    """Parse a two-way regular expression, e.g. ``"E.(E|E-)*"``."""
    tokens = _tokenize(text)
    if not tokens:
        raise QueryError("empty regular expression")
    position = 0

    def peek() -> str | None:
        return tokens[position] if position < len(tokens) else None

    def advance() -> str:
        nonlocal position
        token = tokens[position]
        position += 1
        return token

    def parse_union() -> RegexNode:
        parts = [parse_concat()]
        while peek() == "|":
            advance()
            parts.append(parse_concat())
        return union(*parts)

    def parse_concat() -> RegexNode:
        parts = [parse_postfix()]
        while True:
            token = peek()
            if token == ".":
                advance()
                parts.append(parse_postfix())
            elif token is not None and token not in ("|", ")", "."):
                parts.append(parse_postfix())
            else:
                break
        return concat(*parts)

    def parse_postfix() -> RegexNode:
        node = parse_atom()
        while peek() in ("*", "+", "?"):
            token = advance()
            if token == "*":
                node = star(node)
            elif token == "+":
                node = plus(node)
            else:
                node = optional(node)
        return node

    def parse_atom() -> RegexNode:
        token = peek()
        if token is None:
            raise QueryError("unexpected end of regular expression")
        if token == "(":
            advance()
            node = parse_union()
            if peek() != ")":
                raise QueryError("unbalanced parenthesis in regular expression")
            advance()
            return node
        if token in _OPERATORS:
            raise QueryError(f"unexpected operator {token!r} in regular expression")
        advance()
        if token.endswith("-"):
            return symbol(token[:-1], inverse=True)
        return symbol(token)

    node = parse_union()
    if position != len(tokens):
        raise QueryError(f"trailing tokens in regular expression: {tokens[position:]!r}")
    return node


# -- NFA compilation ---------------------------------------------------------------------


@dataclass
class NFA:
    """A nondeterministic finite automaton over two-way relation symbols.

    Transitions are labelled either ``None`` (epsilon) or ``(relation,
    inverse)``.  States are integers; there is one initial and one accepting
    state (Thompson construction).
    """

    initial: int
    accepting: int
    transitions: list[tuple[int, tuple[str, bool] | None, int]] = field(default_factory=list)
    state_count: int = 0

    def labels(self) -> set[tuple[str, bool]]:
        return {label for _, label, _ in self.transitions if label is not None}

    def epsilon_closure(self, states: Iterable[int]) -> frozenset[int]:
        closure = set(states)
        stack = list(closure)
        while stack:
            state = stack.pop()
            for source, label, target in self.transitions:
                if source == state and label is None and target not in closure:
                    closure.add(target)
                    stack.append(target)
        return frozenset(closure)

    def step(self, states: Iterable[int], label: tuple[str, bool]) -> frozenset[int]:
        reached = {
            target
            for source, transition_label, target in self.transitions
            if source in set(states) and transition_label == label
        }
        return self.epsilon_closure(reached)

    def accepts_word(self, word: Sequence[tuple[str, bool]]) -> bool:
        current = self.epsilon_closure({self.initial})
        for letter in word:
            current = self.step(current, letter)
            if not current:
                return False
        return self.accepting in current


def regex_to_nfa(node: RegexNode) -> NFA:
    """Thompson construction: one initial and one accepting state, epsilon moves."""
    counter = 0

    def fresh() -> int:
        nonlocal counter
        state = counter
        counter += 1
        return state

    transitions: list[tuple[int, tuple[str, bool] | None, int]] = []

    def build(current: RegexNode) -> tuple[int, int]:
        start, end = fresh(), fresh()
        if current.kind == "symbol":
            transitions.append((start, current.payload, end))
        elif current.kind == "epsilon":
            transitions.append((start, None, end))
        elif current.kind == "concat":
            previous = start
            for child in current.payload:
                child_start, child_end = build(child)
                transitions.append((previous, None, child_start))
                previous = child_end
            transitions.append((previous, None, end))
        elif current.kind == "union":
            for child in current.payload:
                child_start, child_end = build(child)
                transitions.append((start, None, child_start))
                transitions.append((child_end, None, end))
        elif current.kind == "star":
            child_start, child_end = build(current.payload)
            transitions.append((start, None, end))
            transitions.append((start, None, child_start))
            transitions.append((child_end, None, child_start))
            transitions.append((child_end, None, end))
        else:  # pragma: no cover - defensive
            raise QueryError(f"unknown regex node kind {current.kind!r}")
        return start, end

    initial, accepting = build(node)
    return NFA(initial=initial, accepting=accepting, transitions=transitions, state_count=counter)


# -- path evaluation on instances -----------------------------------------------------------


def _instance_steps(instance: Instance, labels: set[tuple[str, bool]]) -> dict[tuple[Any, tuple[str, bool]], list[tuple[Any, Fact]]]:
    """For each (element, label), the reachable elements and the fact used."""
    steps: dict[tuple[Any, tuple[str, bool]], list[tuple[Any, Fact]]] = {}
    for f in instance.facts:
        if f.arity != 2:
            continue
        source, target = f.arguments
        forward = (f.relation, False)
        backward = (f.relation, True)
        if forward in labels:
            steps.setdefault((source, forward), []).append((target, f))
        if backward in labels:
            steps.setdefault((target, backward), []).append((source, f))
    return steps


def rpq_pairs(instance: Instance, regex: RegexNode | str) -> set[tuple[Any, Any]]:
    """All pairs (a, b) such that some path from a to b matches the expression.

    Product-graph reachability between the instance and the expression's NFA;
    runs in time O(|I| * |NFA|) per source element.
    """
    node = parse_regex(regex) if isinstance(regex, str) else regex
    nfa = regex_to_nfa(node)
    labels = nfa.labels()
    steps = _instance_steps(instance, labels)
    pairs: set[tuple[Any, Any]] = set()
    for source in instance.domain:
        frontier = {(source, state) for state in nfa.epsilon_closure({nfa.initial})}
        seen = set(frontier)
        stack = list(frontier)
        while stack:
            element, state = stack.pop()
            if state == nfa.accepting:
                pairs.add((source, element))
            for transition_source, label, target_state in nfa.transitions:
                if transition_source != state or label is None:
                    continue
                for next_element, _ in steps.get((element, label), ()):
                    for closed in nfa.epsilon_closure({target_state}):
                        candidate = (next_element, closed)
                        if candidate not in seen:
                            seen.add(candidate)
                            stack.append(candidate)
        # epsilon-only acceptance (empty path): handled because the initial
        # closure may already contain the accepting state.
    return pairs


def rpq_witness_paths(
    instance: Instance,
    regex: RegexNode | str,
    source: Any,
    target: Any,
    max_facts: int | None = None,
) -> Iterator[frozenset[Fact]]:
    """Fact sets of fact-simple witness paths from ``source`` to ``target``.

    A witness path never uses the same fact twice (longer witnesses are never
    minimal), so the enumeration is finite even under Kleene stars.
    ``max_facts`` optionally caps the number of facts on a witness.
    """
    node = parse_regex(regex) if isinstance(regex, str) else regex
    nfa = regex_to_nfa(node)
    labels = nfa.labels()
    steps = _instance_steps(instance, labels)
    bound = len(instance) if max_facts is None else max_facts
    emitted: set[frozenset[Fact]] = set()

    def search(element: Any, states: frozenset[int], used: frozenset[Fact]) -> Iterator[frozenset[Fact]]:
        if element == target and nfa.accepting in states:
            if used not in emitted:
                emitted.add(used)
                yield used
        if len(used) >= bound:
            return
        for label in labels:
            next_states = nfa.step(states, label)
            if not next_states:
                continue
            for next_element, used_fact in steps.get((element, label), ()):
                if used_fact in used:
                    continue
                yield from search(next_element, next_states, used | {used_fact})

    yield from search(source, nfa.epsilon_closure({nfa.initial}), frozenset())


# -- C2RPQ≠ queries --------------------------------------------------------------------------


@dataclass(frozen=True)
class PathAtom:
    """A path atom ``regex(x, y)``: some path from x to y matches the expression."""

    regex: RegexNode
    source: Variable
    target: Variable

    def __str__(self) -> str:
        return f"({self.regex})({self.source}, {self.target})"


def path_atom(regex: RegexNode | str, source: str | Variable, target: str | Variable) -> PathAtom:
    node = parse_regex(regex) if isinstance(regex, str) else regex
    source_variable = source if isinstance(source, Variable) else var(source)
    target_variable = target if isinstance(target, Variable) else var(target)
    return PathAtom(node, source_variable, target_variable)


@dataclass(frozen=True)
class ConjunctiveRPQ:
    """A Boolean C2RPQ≠: a conjunction of path atoms plus disequalities."""

    atoms: tuple[PathAtom, ...]
    disequalities: tuple[Disequality, ...] = ()

    def __post_init__(self) -> None:
        if not self.atoms:
            raise QueryError("a C2RPQ needs at least one path atom")
        atom_variables = set(self.variables())
        for disequality in self.disequalities:
            for variable in disequality.variables():
                if variable not in atom_variables:
                    raise QueryError(
                        f"disequality variable {variable} does not occur in any path atom"
                    )

    def variables(self) -> tuple[Variable, ...]:
        seen: dict[Variable, None] = {}
        for current in self.atoms:
            seen.setdefault(current.source, None)
            seen.setdefault(current.target, None)
        return tuple(seen)

    @property
    def size(self) -> int:
        return len(self.atoms) + len(self.disequalities)

    def __str__(self) -> str:
        parts = [str(current) for current in self.atoms]
        parts.extend(str(d) for d in self.disequalities)
        return ", ".join(parts)


def c2rpq(
    atoms: Sequence[PathAtom],
    disequalities: Iterable[Disequality] = (),
) -> ConjunctiveRPQ:
    """Shorthand constructor for :class:`ConjunctiveRPQ`."""
    return ConjunctiveRPQ(tuple(atoms), tuple(disequalities))


def c2rpq_homomorphisms(query: ConjunctiveRPQ, instance: Instance) -> Iterator[dict[Variable, Any]]:
    """All variable assignments satisfying every path atom and disequality."""
    pair_sets = [rpq_pairs(instance, current.regex) for current in query.atoms]
    variables = list(query.variables())

    def violates(assignment: dict[Variable, Any]) -> bool:
        for disequality in query.disequalities:
            left, right = disequality.variables()
            if left in assignment and right in assignment and assignment[left] == assignment[right]:
                return True
        return False

    def extend(index: int, assignment: dict[Variable, Any]) -> Iterator[dict[Variable, Any]]:
        if violates(assignment):
            return
        if index == len(query.atoms):
            if len(assignment) < len(variables):
                # Shouldn't happen: every variable occurs in some atom.
                return
            yield dict(assignment)
            return
        current = query.atoms[index]
        for source_value, target_value in pair_sets[index]:
            if current.source == current.target and source_value != target_value:
                continue
            if current.source in assignment and assignment[current.source] != source_value:
                continue
            if current.target in assignment and assignment[current.target] != target_value:
                continue
            extended = dict(assignment)
            extended[current.source] = source_value
            extended[current.target] = target_value
            yield from extend(index + 1, extended)

    yield from extend(0, {})


def c2rpq_satisfied(instance: Instance, query: ConjunctiveRPQ) -> bool:
    """Boolean semantics: does the instance satisfy the C2RPQ≠?"""
    return next(c2rpq_homomorphisms(query, instance), None) is not None


def c2rpq_matches(
    query: ConjunctiveRPQ,
    instance: Instance,
    max_facts_per_atom: int | None = None,
) -> list[frozenset[Fact]]:
    """Witness fact sets of the query: one choice of witness path per atom.

    The result may contain non-minimal sets; use :func:`c2rpq_minimal_matches`
    for the minimal ones (the clauses of the monotone-DNF lineage).  An
    atom's witness paths depend only on the atom and its two endpoints, so
    each ``(atom index, source, target)`` is enumerated once per call, however
    many homomorphisms share it.
    """
    matches: set[frozenset[Fact]] = set()
    witnessed: dict[tuple[int, Any, Any], list[frozenset[Fact]]] = {}
    for assignment in c2rpq_homomorphisms(query, instance):
        per_atom: list[list[frozenset[Fact]]] = []
        for index, current in enumerate(query.atoms):
            key = (index, assignment[current.source], assignment[current.target])
            witnesses = witnessed.get(key)
            if witnesses is None:
                witnesses = witnessed[key] = list(
                    rpq_witness_paths(
                        instance, current.regex, key[1], key[2], max_facts=max_facts_per_atom
                    )
                )
            per_atom.append(witnesses)
        combinations: list[frozenset[Fact]] = [frozenset()]
        for witnesses in per_atom:
            combinations = [existing | witness for existing in combinations for witness in witnesses]
        matches.update(combinations)
    return sorted(matches, key=lambda clause: (len(clause), sorted(map(str, clause))))


def c2rpq_minimal_matches(
    query: ConjunctiveRPQ,
    instance: Instance,
    max_facts_per_atom: int | None = None,
) -> list[frozenset[Fact]]:
    """The inclusion-minimal witness fact sets of the query on the instance.

    Witness sets have no size bound, so minimality is not a subset probe:
    each minimal set is indexed by one of its facts, and a candidate is
    compared only with the minimal sets indexed by one of its own facts.
    The matches come smallest first, so every proper subset of a candidate
    has been seen; if the empty set is a witness, it absorbs every other.
    """
    matches = c2rpq_matches(query, instance, max_facts_per_atom=max_facts_per_atom)
    if matches and not matches[0]:
        return matches[:1]
    minimal: list[frozenset[Fact]] = []
    indexed: dict[Fact, list[frozenset[Fact]]] = {}
    for candidate in matches:
        if not any(other < candidate for f in candidate for other in indexed.get(f, ())):
            minimal.append(candidate)
            indexed.setdefault(next(iter(candidate)), []).append(candidate)
    return minimal


def c2rpq_lineage(
    query: ConjunctiveRPQ,
    instance: Instance,
    max_facts_per_atom: int | None = None,
):
    """The monotone-DNF lineage of a C2RPQ≠ on an instance.

    Correctness relies on monotonicity: a world satisfies the query iff it
    contains all facts of some witness set, and every satisfying world
    contains a fact-simple witness per atom, which the bounded enumeration
    finds.
    """
    from repro.provenance.lineage import MonotoneDNFLineage

    clauses = c2rpq_minimal_matches(query, instance, max_facts_per_atom=max_facts_per_atom)
    return MonotoneDNFLineage(instance, tuple(clauses))


# -- named queries -----------------------------------------------------------------------------


def two_incident_paths_query(relation: str = "E") -> ConjunctiveRPQ:
    """The subdivision-invariant monotone analogue of q_p.

    It asks for two non-trivial paths (arbitrary orientation at each step)
    that share their middle endpoint but have distinct other endpoints: on a
    subdivided graph this detects two incident original edges, i.e., a
    violation of the world being a matching of the original graph, which is
    the role q_p plays in Theorem 8.1 and the role the C2RPQ≠ query plays in
    the monotone variant of Theorem 4.2.
    """
    step = union(symbol(relation), symbol(relation, inverse=True))
    walk = plus(step)
    return c2rpq(
        [path_atom(walk, "x", "y"), path_atom(walk, "y", "z")],
        [Disequality(var("x"), var("z")), Disequality(var("x"), var("y")), Disequality(var("y"), var("z"))],
    )


def reachability_query(relation: str = "E") -> ConjunctiveRPQ:
    """Plain one-way reachability between two distinct elements."""
    return c2rpq(
        [path_atom(plus(symbol(relation)), "x", "y")],
        [Disequality(var("x"), var("y"))],
    )
