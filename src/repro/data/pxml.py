"""Probabilistic XML (PrXML) documents without data values.

The introduction of the paper points out that its bounded-treewidth
tractability result covers probabilistic XML [11]: a probabilistic XML
document is a tree, trees have treewidth 1, so MSO queries on probabilistic
XML are a special case of MSO queries on treelike TID instances.  This module
provides that substrate:

* :class:`PXMLNode` / :class:`PXMLDocument` -- p-documents in the PrXML
  {ind, mux} dialect: ordinary nodes carry labels, ``ind`` distributional
  nodes keep each child independently with its probability, ``mux`` nodes
  keep at most one child (probabilities summing to at most 1);
* possible-world semantics (:meth:`PXMLDocument.possible_worlds`) and exact
  brute-force probability of arbitrary properties of the sampled document;
* tree-pattern queries (:class:`TreePattern`) with child and descendant axes,
  Boolean matching on deterministic documents, and exact probability
  evaluation -- by brute force for any document, and through the monotone
  lineage/OBDD pipeline for PrXML{ind} documents (each pattern match
  depends on the ``ind`` edges along the root paths of its matched nodes);
* a translation of documents to relational instances over ``child`` /
  ``label_*`` relations, which always has treewidth 1 and plugs into every
  treelike algorithm of the library.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as cartesian_product
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro.data.instance import Fact, Instance
from repro.data.signature import Signature
from repro.data.tid import ProbabilisticInstance, as_probability
from repro.errors import InstanceError

ORDINARY = "ordinary"
IND = "ind"
MUX = "mux"
_KINDS = (ORDINARY, IND, MUX)


@dataclass(frozen=True)
class PXMLNode:
    """A node of a p-document.

    ``children`` pairs each child with the probability of the edge leading to
    it: 1 for edges out of ordinary nodes, the independent keep-probability
    for ``ind`` nodes, and the choice probability for ``mux`` nodes.
    """

    identifier: str
    label: str | None = None
    kind: str = ORDINARY
    children: tuple[tuple["PXMLNode", Fraction], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise InstanceError(f"unknown p-document node kind {self.kind!r}")
        if self.kind == ORDINARY and self.label is None:
            raise InstanceError(f"ordinary node {self.identifier!r} needs a label")
        if self.kind != ORDINARY and self.label is not None:
            raise InstanceError(
                f"distributional node {self.identifier!r} must not carry a label"
            )

    def child_nodes(self) -> tuple["PXMLNode", ...]:
        return tuple(child for child, _ in self.children)

    def __str__(self) -> str:
        tag = self.label if self.kind == ORDINARY else self.kind
        return f"{tag}[{self.identifier}]"


def ordinary(identifier: str, label: str, children: Sequence[PXMLNode] = ()) -> PXMLNode:
    """An ordinary node: its children are kept with probability 1."""
    return PXMLNode(
        identifier,
        label=label,
        kind=ORDINARY,
        children=tuple((child, Fraction(1)) for child in children),
    )


def ind(identifier: str, children: Sequence[tuple[PXMLNode, Any]]) -> PXMLNode:
    """An ``ind`` node: each child is kept independently with its probability."""
    prepared = tuple((child, as_probability(probability)) for child, probability in children)
    return PXMLNode(identifier, kind=IND, children=prepared)


def mux(identifier: str, children: Sequence[tuple[PXMLNode, Any]]) -> PXMLNode:
    """A ``mux`` node: at most one child is kept, with the given probabilities."""
    prepared = tuple((child, as_probability(probability)) for child, probability in children)
    total = sum((probability for _, probability in prepared), Fraction(0))
    if total > 1:
        raise InstanceError(f"mux node {identifier!r} has total child probability {total} > 1")
    return PXMLNode(identifier, kind=MUX, children=prepared)


@dataclass(frozen=True)
class DeterministicDocument:
    """A possible world of a p-document: the retained ordinary nodes.

    ``parent`` maps every retained non-root node to its closest retained
    ordinary ancestor; ``labels`` maps retained node identifiers to labels.
    """

    root: str
    parent: Mapping[str, str]
    labels: Mapping[str, str]

    def nodes(self) -> tuple[str, ...]:
        return tuple(self.labels)

    def children_of(self, identifier: str) -> tuple[str, ...]:
        return tuple(sorted(child for child, parent in self.parent.items() if parent == identifier))

    def descendants_of(self, identifier: str) -> tuple[str, ...]:
        result = []
        stack = list(self.children_of(identifier))
        while stack:
            current = stack.pop()
            result.append(current)
            stack.extend(self.children_of(current))
        return tuple(sorted(result))

    def size(self) -> int:
        return len(self.labels)


class PXMLDocument:
    """A p-document: a tree of ordinary and distributional nodes."""

    def __init__(self, root: PXMLNode) -> None:
        if root.kind != ORDINARY:
            raise InstanceError("the root of a p-document must be an ordinary node")
        self._root = root
        self._nodes = tuple(self._collect(root))
        identifiers = [node.identifier for node in self._nodes]
        if len(set(identifiers)) != len(identifiers):
            raise InstanceError("p-document node identifiers must be unique")

    @staticmethod
    def _collect(node: PXMLNode) -> Iterator[PXMLNode]:
        yield node
        for child in node.child_nodes():
            yield from PXMLDocument._collect(child)

    # -- accessors ------------------------------------------------------------------

    @property
    def root(self) -> PXMLNode:
        return self._root

    def nodes(self) -> tuple[PXMLNode, ...]:
        return self._nodes

    def ordinary_nodes(self) -> tuple[PXMLNode, ...]:
        return tuple(node for node in self._nodes if node.kind == ORDINARY)

    def distributional_nodes(self) -> tuple[PXMLNode, ...]:
        return tuple(node for node in self._nodes if node.kind != ORDINARY)

    def is_deterministic(self) -> bool:
        return not self.distributional_nodes()

    def uses_only_ind(self) -> bool:
        return all(node.kind != MUX for node in self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __repr__(self) -> str:
        return (
            f"PXMLDocument({len(self.ordinary_nodes())} ordinary nodes, "
            f"{len(self.distributional_nodes())} distributional nodes)"
        )

    # -- possible-world semantics --------------------------------------------------------

    def possible_worlds(self) -> Iterator[tuple[DeterministicDocument, Fraction]]:
        """All deterministic documents with their probabilities.

        Exponential in the number of uncertain edges; intended for testing and
        for small documents (exact evaluation of large documents goes through
        lineages instead).
        """
        for kept_edges, probability in self._edge_scenarios():
            if probability == 0:
                continue
            yield self._world_from_edges(kept_edges), probability

    def _edge_scenarios(self) -> Iterator[tuple[frozenset[tuple[str, str]], Fraction]]:
        """Joint scenarios over the uncertain edges (per-node local choices)."""
        local_choices: list[list[tuple[list[tuple[str, str]], Fraction]]] = []
        for node in self._nodes:
            if node.kind == IND:
                options: list[tuple[list[tuple[str, str]], Fraction]] = [([], Fraction(1))]
                for child, probability in node.children:
                    extended = []
                    for kept, weight in options:
                        extended.append((kept + [(node.identifier, child.identifier)], weight * probability))
                        extended.append((kept, weight * (1 - probability)))
                    options = extended
                local_choices.append(options)
            elif node.kind == MUX:
                options = [([], 1 - sum((p for _, p in node.children), Fraction(0)))]
                for child, probability in node.children:
                    options.append(([(node.identifier, child.identifier)], probability))
                local_choices.append(options)
        certain_edges = [
            (node.identifier, child.identifier)
            for node in self._nodes
            if node.kind == ORDINARY
            for child in node.child_nodes()
        ]
        if not local_choices:
            yield frozenset(certain_edges), Fraction(1)
            return
        for combination in cartesian_product(*local_choices):
            edges = set(certain_edges)
            probability = Fraction(1)
            for kept, weight in combination:
                edges.update(kept)
                probability *= weight
            yield frozenset(edges), probability

    def _world_from_edges(self, kept_edges: frozenset[tuple[str, str]]) -> DeterministicDocument:
        """Collapse distributional nodes: retained ordinary nodes and their ordinary parents."""
        by_identifier = {node.identifier: node for node in self._nodes}
        parent_of = {
            child.identifier: node.identifier
            for node in self._nodes
            for child in node.child_nodes()
        }

        def is_retained(identifier: str) -> bool:
            current = identifier
            while current != self._root.identifier:
                parent = parent_of[current]
                edge = (parent, current)
                parent_node = by_identifier[parent]
                if parent_node.kind != ORDINARY and edge not in kept_edges:
                    return False
                current = parent
            return True

        labels: dict[str, str] = {}
        parents: dict[str, str] = {}
        for node in self.ordinary_nodes():
            if not is_retained(node.identifier):
                continue
            labels[node.identifier] = node.label or ""
            if node.identifier == self._root.identifier:
                continue
            ancestor = parent_of[node.identifier]
            while by_identifier[ancestor].kind != ORDINARY:
                ancestor = parent_of[ancestor]
            parents[node.identifier] = ancestor
        return DeterministicDocument(self._root.identifier, parents, labels)

    def probability_of(self, document_property: Callable[[DeterministicDocument], bool]) -> Fraction:
        """Exact probability of an arbitrary property of the sampled document."""
        total = Fraction(0)
        for world, probability in self.possible_worlds():
            if document_property(world):
                total += probability
        return total

    # -- uncertain edges and lineages -------------------------------------------------------

    def uncertain_edge_facts(self) -> dict[tuple[str, str], Fraction]:
        """The ``ind`` edges as probabilistic ``choice`` facts (PrXML{ind} only)."""
        if not self.uses_only_ind():
            raise InstanceError("uncertain edge facts require a PrXML{ind} document")
        return {
            (node.identifier, child.identifier): probability
            for node in self._nodes
            if node.kind == IND
            for child, probability in node.children
        }

    def root_path_requirements(self, identifier: str) -> frozenset[Fact]:
        """The ``ind`` edge facts a node's existence depends on."""
        by_identifier = {node.identifier: node for node in self._nodes}
        parent_of = {
            child.identifier: node.identifier
            for node in self._nodes
            for child in node.child_nodes()
        }
        required: set[Fact] = set()
        current = identifier
        while current != self._root.identifier:
            parent = parent_of[current]
            if by_identifier[parent].kind == IND:
                required.add(Fact("choice", (parent, current)))
            elif by_identifier[parent].kind == MUX:
                raise InstanceError("root-path requirements are only defined for PrXML{ind}")
            current = parent
        return frozenset(required)

    def choice_instance(self) -> ProbabilisticInstance:
        """The TID instance of ``choice`` facts, one per ``ind`` edge."""
        edges = self.uncertain_edge_facts()
        facts = [Fact("choice", edge) for edge in sorted(edges)]
        instance = Instance(facts, Signature([("choice", 2)]))
        return ProbabilisticInstance(
            instance, {Fact("choice", edge): probability for edge, probability in edges.items()}
        )

    # -- relational encoding ------------------------------------------------------------------

    def to_instance(self) -> Instance:
        """The relational encoding of the *document shape*: child and label facts.

        Distributional nodes are kept as explicitly labelled elements so the
        encoding is lossless; the Gaifman graph is the document tree, hence
        treewidth (at most) 1.
        """
        facts: list[Fact] = []
        relations: dict[str, int] = {"child": 2}
        for node in self._nodes:
            label = node.label if node.kind == ORDINARY else node.kind
            relation = f"label_{label}"
            relations[relation] = 1
            facts.append(Fact(relation, (node.identifier,)))
            for child in node.child_nodes():
                facts.append(Fact("child", (node.identifier, child.identifier)))
        return Instance(facts, Signature(sorted(relations.items())))

    def to_probabilistic_instance(self) -> ProbabilisticInstance:
        """The TID encoding of a PrXML{ind} document.

        ``child`` facts out of ``ind`` nodes carry their keep-probability,
        every other fact is certain.  Note the TID worlds are supersets of the
        document worlds (a fact may survive even if an ancestor edge does
        not); queries must be root-path aware, which is what
        :func:`pattern_lineage` implements.
        """
        if not self.uses_only_ind():
            raise InstanceError("the TID encoding requires a PrXML{ind} document")
        instance = self.to_instance()
        uncertain = self.uncertain_edge_facts()
        valuation = {}
        for f in instance.facts:
            if f.relation == "child" and f.arguments in uncertain:
                valuation[f] = uncertain[f.arguments]
            else:
                valuation[f] = Fraction(1)
        return ProbabilisticInstance(instance, valuation)


# -- tree patterns ---------------------------------------------------------------------------------


@dataclass(frozen=True)
class TreePattern:
    """A Boolean tree-pattern query: label tests linked by child/descendant axes.

    ``label`` is ``None`` for a wildcard; ``children`` pairs sub-patterns with
    their axis (``"child"`` or ``"descendant"``).
    """

    label: str | None
    children: tuple[tuple["TreePattern", str], ...] = ()

    def __post_init__(self) -> None:
        for _, axis in self.children:
            if axis not in ("child", "descendant"):
                raise InstanceError(f"unknown tree-pattern axis {axis!r}")

    def size(self) -> int:
        return 1 + sum(child.size() for child, _ in self.children)

    def __str__(self) -> str:
        label = self.label if self.label is not None else "*"
        if not self.children:
            return label
        parts = []
        for child, axis in self.children:
            connector = "/" if axis == "child" else "//"
            parts.append(f"{connector}{child}")
        return f"{label}[{','.join(parts)}]"


def pattern(label: str | None, *children: tuple[TreePattern, str]) -> TreePattern:
    """Shorthand constructor: ``pattern("a", (pattern("b"), "descendant"))``."""
    return TreePattern(label, tuple(children))


def pattern_embeddings(
    document: DeterministicDocument, query: TreePattern
) -> Iterator[dict[int, str]]:
    """All embeddings of the pattern into a deterministic document.

    The returned mappings use the pre-order index of each pattern node as the
    key (patterns are frozen dataclasses, so equal subpatterns would collide
    as dictionary keys).
    """
    indexed: list[tuple[int, TreePattern]] = []

    def index_pattern(node: TreePattern) -> int:
        position = len(indexed)
        indexed.append((position, node))
        for child, _ in node.children:
            index_pattern(child)
        return position

    index_pattern(query)

    def label_matches(node_identifier: str, pattern_node: TreePattern) -> bool:
        return pattern_node.label is None or document.labels[node_identifier] == pattern_node.label

    def embed(position: int, node_identifier: str) -> Iterator[dict[int, str]]:
        _, pattern_node = indexed[position]
        if not label_matches(node_identifier, pattern_node):
            return
        partial_maps: list[dict[int, str]] = [{position: node_identifier}]
        child_position = position + 1
        for child, axis in pattern_node.children:
            if axis == "child":
                candidates = document.children_of(node_identifier)
            else:
                candidates = document.descendants_of(node_identifier)
            extended: list[dict[int, str]] = []
            for mapping in partial_maps:
                for candidate in candidates:
                    for child_mapping in embed(child_position, candidate):
                        extended.append({**mapping, **child_mapping})
            partial_maps = extended
            child_position += child.size()
        yield from partial_maps

    for identifier in document.nodes():
        yield from embed(0, identifier)


def pattern_matches(document: DeterministicDocument, query: TreePattern) -> bool:
    """Boolean tree-pattern matching on a deterministic document."""
    return next(pattern_embeddings(document, query), None) is not None


def pattern_probability_brute_force(document: PXMLDocument, query: TreePattern) -> Fraction:
    """Exact pattern probability by possible-world enumeration."""
    return document.probability_of(lambda world: pattern_matches(world, query))


def pattern_lineage(document: PXMLDocument, query: TreePattern):
    """The monotone lineage of a tree pattern over the ``ind`` edge choices.

    Every embedding of the pattern into the fully-retained document
    contributes one clause: the ``choice`` facts on the root paths of the
    matched nodes.  A world of the ``choice`` TID satisfies the lineage iff
    the corresponding document world matches the pattern (PrXML{ind} only).
    """
    from repro.provenance.lineage import MonotoneDNFLineage

    if not document.uses_only_ind():
        raise InstanceError("pattern lineages require a PrXML{ind} document")
    full_world = document._world_from_edges(
        frozenset(
            (node.identifier, child.identifier)
            for node in document.nodes()
            for child in node.child_nodes()
        )
    )
    clauses: set[frozenset[Fact]] = set()
    for embedding in pattern_embeddings(full_world, query):
        requirement: frozenset[Fact] = frozenset()
        for node_identifier in embedding.values():
            requirement |= document.root_path_requirements(node_identifier)
        clauses.add(requirement)
    tid = document.choice_instance()
    minimal = [clause for clause in clauses if not any(other < clause for other in clauses)]
    ordered = sorted(minimal, key=lambda clause: (len(clause), sorted(map(str, clause))))
    return MonotoneDNFLineage(tid.instance, tuple(ordered))


def pattern_probability(document: PXMLDocument, query: TreePattern) -> Fraction:
    """Exact pattern probability through the lineage/OBDD pipeline (PrXML{ind})."""
    from repro.booleans.obdd import OBDD

    lineage = pattern_lineage(document, query)
    tid = document.choice_instance()
    if not lineage.clauses:
        return Fraction(0)
    if any(not clause for clause in lineage.clauses):
        return Fraction(1)
    manager = OBDD(list(tid.instance.facts))
    root = manager.build_from_clauses(lineage.clauses)
    return manager.probability(root, tid.valuation())


# -- generators ----------------------------------------------------------------------------------------


def random_pxml_document(
    depth: int,
    fanout: int = 2,
    labels: Sequence[str] = ("a", "b", "c"),
    ind_probability: float = 0.5,
    seed: int = 0,
) -> PXMLDocument:
    """A random PrXML{ind} document for scaling experiments.

    Each ordinary node at depth < ``depth`` gets ``fanout`` children; with
    probability ``ind_probability`` the children hang below an ``ind`` node
    with random keep-probabilities, otherwise they are certain.
    """
    if depth < 0:
        raise InstanceError("the depth must be non-negative")
    generator = random.Random(seed)
    counter = [0]

    def fresh(prefix: str) -> str:
        counter[0] += 1
        return f"{prefix}{counter[0]}"

    def build(level: int) -> PXMLNode:
        label = generator.choice(list(labels))
        if level == depth:
            return ordinary(fresh("n"), label)
        children = [build(level + 1) for _ in range(fanout)]
        if generator.random() < ind_probability:
            keep = [
                (child, Fraction(generator.randint(1, 3), 4)) for child in children
            ]
            return ordinary(fresh("n"), label, [ind(fresh("d"), keep)])
        return ordinary(fresh("n"), label, children)

    return PXMLDocument(build(0))
