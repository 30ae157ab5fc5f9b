"""The ranking transformation of Section 9 (after [16, 18]).

A UCQ is *ranked* when the "occurs before" relation on its variables is
acyclic; an instance is ranked when some total order of the domain makes the
arguments of every fact strictly ascending.  The ranking transformation
rewrites an arbitrary query and instance (separately) over an extended
signature so that both become ranked while preserving the lineage fact by
fact.  The paper (and [16, 18]) use it as a preprocessing step before the
unfolding construction of Theorem 9.7.

We implement the transformation for arity-<=2 signatures (the setting of the
paper's dichotomies); each binary relation R is split into R_asc / R_desc /
R_eq according to the order type of the tuple, and binary atoms are expanded
into the corresponding disjunction.  Higher arities raise
:class:`QueryError` — callers can still use the rest of the pipeline on
already-ranked inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.data.instance import Fact, Instance
from repro.data.signature import Signature
from repro.errors import QueryError
from repro.queries.atoms import Atom, Disequality, Variable
from repro.queries.cq import ConjunctiveQuery
from repro.queries.ucq import UnionOfConjunctiveQueries, as_ucq
from repro.structure.graph import element_key

ASC_SUFFIX = "_asc"
DESC_SUFFIX = "_desc"
EQ_SUFFIX = "_eq"


@dataclass(frozen=True)
class RankedInstance:
    """The result of ranking an instance: the new instance plus the fact bijection."""

    instance: Instance
    fact_map: dict[Fact, Fact]  # original fact -> ranked fact

    def original_of(self, ranked_fact: Fact) -> Fact:
        inverse = {v: k for k, v in self.fact_map.items()}
        return inverse[ranked_fact]


def rank_instance(instance: Instance) -> RankedInstance:
    """Apply the ranking transformation to an arity-<=2 instance.

    Uses the canonical total order on domain elements.  Unary facts are kept;
    a binary fact R(a, b) becomes R_asc(a, b) if a < b, R_desc(b, a) if b < a,
    and R_eq(a) if a = b.  The mapping is a bijection on facts, and the
    Gaifman graph is unchanged, so treewidth/pathwidth/tree-depth are
    preserved (as noted in Section 9).
    """
    if instance.signature.max_arity > 2:
        raise QueryError("ranking transformation implemented for arity-<=2 signatures only")
    new_facts: dict[Fact, Fact] = {}
    for f in instance:
        if f.arity == 1:
            new_facts[f] = f
            continue
        a, b = f.arguments
        if a == b:
            new_facts[f] = Fact(f.relation + EQ_SUFFIX, (a,))
        elif element_key(a) < element_key(b):
            new_facts[f] = Fact(f.relation + ASC_SUFFIX, (a, b))
        else:
            new_facts[f] = Fact(f.relation + DESC_SUFFIX, (b, a))
    ranked = Instance(new_facts.values())
    if len(ranked) != len(instance):
        raise QueryError("ranking transformation collapsed distinct facts; input is degenerate")
    return RankedInstance(ranked, new_facts)


def rank_query(query: ConjunctiveQuery | UnionOfConjunctiveQueries) -> UnionOfConjunctiveQueries:
    """Apply the ranking transformation to an arity-<=2 UCQ≠.

    Each binary atom R(x, y) is expanded into the three cases
    R_asc(x, y), R_desc(y, x) and R_eq(x) (with y renamed to x); a disjunct
    with b binary atoms becomes 3^b disjuncts.  The resulting UCQ≠ has, on the
    ranked instance, exactly the same lineage as the original query on the
    original instance (under the fact bijection of :func:`rank_instance`).
    """
    query = as_ucq(query)
    if query.signature().max_arity > 2:
        raise QueryError("ranking transformation implemented for arity-<=2 signatures only")
    new_disjuncts: list[ConjunctiveQuery] = []
    for disjunct in query.disjuncts:
        expansions: list[tuple[list[Atom], dict[Variable, Variable]]] = [([], {})]
        for a in disjunct.atoms:
            next_expansions: list[tuple[list[Atom], dict[Variable, Variable]]] = []
            for atoms_so_far, substitution in expansions:
                if a.arity == 1:
                    next_expansions.append((atoms_so_far + [a], substitution))
                    continue
                x, y = a.arguments
                # ascending
                next_expansions.append(
                    (atoms_so_far + [Atom(a.relation + ASC_SUFFIX, (x, y))], dict(substitution))
                )
                # descending
                next_expansions.append(
                    (atoms_so_far + [Atom(a.relation + DESC_SUFFIX, (y, x))], dict(substitution))
                )
                # equal: y is identified with x
                merged = dict(substitution)
                merged[y] = merged.get(x, x)
                next_expansions.append(
                    (atoms_so_far + [Atom(a.relation + EQ_SUFFIX, (x,))], merged)
                )
            expansions = next_expansions
        for atoms_so_far, substitution in expansions:
            # Apply the variable identifications from the _eq cases (closed under chains).
            def resolve(v: Variable) -> Variable:
                seen = set()
                while v in substitution and v not in seen:
                    seen.add(v)
                    v = substitution[v]
                return v

            atoms = [Atom(a.relation, tuple(resolve(v) for v in a.arguments)) for a in atoms_so_far]
            try:
                disequalities = []
                satisfiable = True
                for d in disjunct.disequalities:
                    left, right = resolve(d.left), resolve(d.right)
                    if left == right:
                        satisfiable = False
                        break
                    disequalities.append(Disequality(left, right))
                if not satisfiable:
                    continue
                new_disjuncts.append(ConjunctiveQuery(tuple(atoms), tuple(disequalities)))
            except QueryError:
                continue
    if not new_disjuncts:
        raise QueryError("ranking transformation produced an unsatisfiable query")
    return UnionOfConjunctiveQueries(tuple(new_disjuncts))


def ranked_signature(signature: Signature) -> Signature:
    """The signature produced by the ranking transformation."""
    relations: list[tuple[str, int]] = []
    for relation in signature:
        if relation.arity == 1:
            relations.append((relation.name, 1))
        elif relation.arity == 2:
            relations.extend(
                [
                    (relation.name + ASC_SUFFIX, 2),
                    (relation.name + DESC_SUFFIX, 2),
                    (relation.name + EQ_SUFFIX, 1),
                ]
            )
        else:
            raise QueryError("ranking transformation implemented for arity-<=2 signatures only")
    return Signature(relations)
