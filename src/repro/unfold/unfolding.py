"""The unfolding construction of Section 9 (Definition 9.2, Theorem 9.7).

An *unfolding* of an instance I is an instance I' with a homomorphism to I
that is bijective on facts; when the unfolding *respects* a query q (preimages
of matches are matches), q has literally the same lineage on I and I'
(Lemma 9.5), so probability evaluation can be done on I' instead.

Theorem 9.7: for a ranked inversion-free UCQ q and a ranked instance I, the
construction below produces an unfolding that respects q and has tree-depth at
most arity(sigma) — hence bounded pathwidth and treewidth — explaining the
tractability of inversion-free (safe) queries through the instance-based
route of the paper.

The construction distinguishes each element of each fact by the tuple of the
elements at the preceding positions in the relation's attribute order (the
inversion-free expression's order), as in Proposition 5 of [36].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.data.instance import Fact, Instance
from repro.errors import UnfoldingError
from repro.queries.cq import ConjunctiveQuery
from repro.queries.properties import attribute_orders, is_ranked_instance, is_ranked_query
from repro.queries.ucq import UnionOfConjunctiveQueries, as_ucq
from repro.structure.tree_depth import EliminationForest


@dataclass
class Unfolding:
    """The result of unfolding an instance for a query.

    Attributes
    ----------
    original:
        The input instance I.
    unfolded:
        The unfolding I'; its domain elements are tuples of original elements
        (prefixes along the attribute orders).
    fact_map:
        The bijection from original facts to unfolded facts.
    homomorphism:
        The homomorphism from dom(I') to dom(I) (each tuple maps to its last
        element).
    """

    original: Instance
    unfolded: Instance
    fact_map: dict[Fact, Fact]
    homomorphism: dict[Any, Any]

    def unfolded_fact(self, original_fact: Fact) -> Fact:
        return self.fact_map[original_fact]

    def original_fact(self, unfolded_fact: Fact) -> Fact:
        inverse = {v: k for k, v in self.fact_map.items()}
        return inverse[unfolded_fact]

    def elimination_forest(self) -> EliminationForest:
        """The prefix-order elimination forest of the unfolded instance.

        Its height is at most the maximum arity of the signature, witnessing
        the tree-depth bound of Theorem 9.7.
        """
        parent: dict[Any, Any] = {}
        domain = set(self.unfolded.domain)
        for element in domain:
            if not isinstance(element, tuple) or len(element) <= 1:
                parent[element] = None
                continue
            candidate = element[:-1]
            while len(candidate) >= 1 and candidate not in domain:
                candidate = candidate[:-1]
            parent[element] = candidate if len(candidate) >= 1 and candidate in domain else None
        return EliminationForest(parent)

    def element_order(self) -> list[Any]:
        """The unfolded domain in preorder of :meth:`elimination_forest`.

        Every element comes after its forest parent, and each subtree is one
        contiguous block.  Roots, and the children of each element, are
        visited by ``(type name, repr)`` (plain ``repr`` order on the tuple
        elements an unfolding builds), so the order does not depend on set
        iteration.  Ordering facts by the last of their elements in it
        (:func:`repro.provenance.variable_orders.element_major_order`) places
        each fact with the deepest of its elements, which keeps the OBDD of
        an inversion-free UCQ at constant width (Theorem 9.6).
        """
        children: dict[Any, list[Any]] = {}
        for element, parent in self.elimination_forest().parent.items():
            children.setdefault(parent, []).append(element)
        order: list[Any] = []
        stack = sorted(children.get(None, ()), key=_stable_key, reverse=True)
        while stack:
            element = stack.pop()
            order.append(element)
            stack.extend(sorted(children.get(element, ()), key=_stable_key, reverse=True))
        return order

    @property
    def tree_depth_bound(self) -> int:
        """The height of the prefix elimination forest (<= arity of the signature)."""
        return self.elimination_forest().height


def unfold_instance(
    query: UnionOfConjunctiveQueries | ConjunctiveQuery, instance: Instance
) -> Unfolding:
    """Apply the Theorem 9.7 unfolding for a ranked inversion-free UCQ.

    Raises :class:`UnfoldingError` if the query is not ranked / inversion-free
    or the instance is not ranked (apply :mod:`repro.queries.ranking` first).
    """
    query = as_ucq(query)
    if not is_ranked_query(query):
        raise UnfoldingError("the query is not ranked; apply the ranking transformation first")
    if not is_ranked_instance(instance):
        raise UnfoldingError("the instance is not ranked; apply the ranking transformation first")
    try:
        orders = attribute_orders(query)
    except Exception as error:  # QueryError
        raise UnfoldingError(f"the query is not inversion-free: {error}") from error

    fact_map: dict[Fact, Fact] = {}
    homomorphism: dict[Any, Any] = {}
    for f in instance:
        order = orders.get(f.relation, tuple(range(f.arity)))
        if len(order) != f.arity:
            raise UnfoldingError(
                f"attribute order for {f.relation!r} does not match the fact arity"
            )
        # Build, for each position, the tuple of elements at the preceding
        # positions (inclusive) in the attribute order.
        prefix: list[Any] = []
        tuple_at_position: dict[int, tuple] = {}
        for position in order:
            prefix.append(f.arguments[position])
            tuple_at_position[position] = tuple(prefix)
        new_arguments = tuple(tuple_at_position[i] for i in range(f.arity))
        new_fact = Fact(f.relation, new_arguments)
        fact_map[f] = new_fact
        for argument in new_arguments:
            homomorphism[argument] = argument[-1]
    unfolded = Instance(fact_map.values(), instance.signature)
    if len(unfolded) != len(instance):
        raise UnfoldingError("unfolding collapsed two distinct facts; the instance is degenerate")
    return Unfolding(
        original=instance, unfolded=unfolded, fact_map=fact_map, homomorphism=homomorphism
    )


def _stable_key(element: Any) -> tuple[str, str]:
    return (type(element).__name__, repr(element))
