"""Binary and nice tree decompositions.

The provenance constructions of Section 6 (tree encodings, tree automata) work
over *binary* decompositions where each node has at most two children and
where consecutive bags differ in a controlled way.  We provide:

* :func:`binarize` — turn an arbitrary rooted decomposition into one where
  every node has at most two children, without changing the width;
* :func:`make_nice` — the classical nice form with introduce / forget / join
  leaf nodes (bags differ by at most one vertex between parent and child).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any

from repro.structure.graph import element_key
from repro.structure.tree_decomposition import BagId, TreeDecomposition


def binarize(decomposition: TreeDecomposition) -> TreeDecomposition:
    """A decomposition of the same width where every node has <= 2 children.

    A node with children c1..cm (m > 2) is replaced by a right-leaning chain
    of copies of its bag, each taking one child.
    """
    next_id = max(decomposition.bags) + 1
    bags = dict(decomposition.bags)
    children: dict[BagId, list[BagId]] = {node: list(kids) for node, kids in decomposition.children.items()}

    work = list(decomposition.nodes())
    for node in work:
        kids = children.get(node, [])
        while len(kids) > 2:
            overflow = kids[1:]
            helper = next_id
            next_id += 1
            bags[helper] = bags[node]
            children[helper] = overflow
            kids = [kids[0], helper]
            children[node] = kids
            node = helper
            kids = children[helper]
    return TreeDecomposition(bags=bags, children=children, root=decomposition.root).relabel()


class NiceNodeKind(Enum):
    """The kind of a node in a nice tree decomposition."""

    LEAF = "leaf"
    INTRODUCE = "introduce"
    FORGET = "forget"
    JOIN = "join"


@dataclass(frozen=True)
class NiceNode:
    """A node of a nice tree decomposition."""

    identifier: int
    kind: NiceNodeKind
    bag: frozenset
    children: tuple[int, ...]
    vertex: Any = None  # the introduced / forgotten vertex, when applicable


@dataclass
class NiceTreeDecomposition:
    """A nice tree decomposition: leaf / introduce / forget / join nodes."""

    nodes: dict[int, NiceNode]
    root: int

    @property
    def width(self) -> int:
        return max((len(node.bag) for node in self.nodes.values()), default=0) - 1

    def __len__(self) -> int:
        return len(self.nodes)

    def post_order(self) -> list[int]:
        order: list[int] = []
        stack: list[tuple[int, bool]] = [(self.root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
            else:
                stack.append((node, True))
                for kid in reversed(self.nodes[node].children):
                    stack.append((kid, False))
        return order

    def validate(self) -> None:
        """Sanity-check the introduce/forget/join structure."""
        from repro.errors import DecompositionError

        for node in self.nodes.values():
            kids = [self.nodes[c] for c in node.children]
            if node.kind is NiceNodeKind.LEAF:
                if kids or len(node.bag) > 1:
                    raise DecompositionError("leaf node must have no children and a bag of size <= 1")
            elif node.kind is NiceNodeKind.INTRODUCE:
                if len(kids) != 1 or node.bag != kids[0].bag | {node.vertex} or node.vertex in kids[0].bag:
                    raise DecompositionError("invalid introduce node")
            elif node.kind is NiceNodeKind.FORGET:
                if len(kids) != 1 or node.bag != kids[0].bag - {node.vertex} or node.vertex not in kids[0].bag:
                    raise DecompositionError("invalid forget node")
            elif node.kind is NiceNodeKind.JOIN:
                if len(kids) != 2 or any(kid.bag != node.bag for kid in kids):
                    raise DecompositionError("invalid join node")


def make_nice(decomposition: TreeDecomposition) -> NiceTreeDecomposition:
    """Convert a rooted tree decomposition into nice form (same width).

    The conversion walks the binarized tree iteratively (children before
    parents), so decompositions of arbitrary depth — e.g. from path-shaped
    instances — convert without touching the interpreter recursion limit.
    """
    binary = binarize(decomposition)
    nodes: dict[int, NiceNode] = {}
    counter = [0]

    def fresh() -> int:
        counter[0] += 1
        return counter[0] - 1

    def emit(kind: NiceNodeKind, bag: frozenset, children: tuple[int, ...], vertex: Any = None) -> int:
        identifier = fresh()
        nodes[identifier] = NiceNode(identifier, kind, bag, children, vertex)
        return identifier

    def chain(from_bag: frozenset, to_bag: frozenset, below: int) -> int:
        """Insert forget/introduce nodes turning ``from_bag`` (below) into ``to_bag``."""
        current_bag = from_bag
        current = below
        for vertex in sorted(from_bag - to_bag, key=element_key):
            current_bag = current_bag - {vertex}
            current = emit(NiceNodeKind.FORGET, current_bag, (current,), vertex)
        for vertex in sorted(to_bag - current_bag, key=element_key):
            current_bag = current_bag | {vertex}
            current = emit(NiceNodeKind.INTRODUCE, current_bag, (current,), vertex)
        return current

    def leaf_chain(bag: frozenset) -> int:
        ordered = sorted(bag, key=element_key)
        if not ordered:
            return emit(NiceNodeKind.LEAF, frozenset(), ())
        current = emit(NiceNodeKind.LEAF, frozenset({ordered[0]}), ())
        current_bag = frozenset({ordered[0]})
        for vertex in ordered[1:]:
            current_bag = current_bag | {vertex}
            current = emit(NiceNodeKind.INTRODUCE, current_bag, (current,), vertex)
        return current

    # Reversed pre-order visits every child before its parent.
    built: dict[BagId, int] = {}
    for node in reversed(binary.topological_order()):
        bag = binary.bags[node]
        kids = binary.children.get(node, [])
        if not kids:
            built[node] = leaf_chain(bag)
        elif len(kids) == 1:
            built[node] = chain(binary.bags[kids[0]], bag, built[kids[0]])
        else:
            left = chain(binary.bags[kids[0]], bag, built[kids[0]])
            right = chain(binary.bags[kids[1]], bag, built[kids[1]])
            built[node] = emit(NiceNodeKind.JOIN, bag, (left, right))

    # Forget every vertex of the root bag so the root has an empty bag.
    root = chain(binary.bags[binary.root], frozenset(), built[binary.root])
    nice = NiceTreeDecomposition(nodes=nodes, root=root)
    nice.validate()
    return nice
