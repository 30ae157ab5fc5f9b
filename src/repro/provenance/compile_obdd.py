"""Knowledge compilation of lineages into OBDDs (Theorems 6.5 and 6.7).

The compilation pipeline is:

1. compute the lineage of the query on the instance (a monotone DNF of
   matches, or an arbitrary lineage circuit);
2. derive a variable order on facts from a tree or path decomposition of the
   instance (:mod:`repro.provenance.variable_orders`);
3. compile with OBDD ``apply`` under that order;
4. evaluate the compiled diagram on its flattened columns
   (:class:`CompiledOBDD`, :mod:`repro.booleans.columnar`).

On bounded-treewidth instances this yields polynomial-size OBDDs; on
bounded-pathwidth instances the OBDD width is bounded by a constant depending
only on the query and the width — these are the measurable claims of
Theorems 6.5 and 6.7 that the benchmark harness charts.
"""

from __future__ import annotations

from typing import Sequence

from repro.booleans.circuit import BooleanCircuit
from repro.booleans.columnar import ColumnarOBDD, SweepResult
from repro.booleans.dnnf import DNNF, dnnf_from_obdd
from repro.booleans.obdd import OBDD
from repro.data.instance import Fact, Instance
from repro.errors import CompilationError
from repro.provenance.lineage import MonotoneDNFLineage, lineage_of
from repro.provenance.variable_orders import (
    default_fact_order,
    fact_order_from_path_decomposition,
)
from repro.queries.cq import ConjunctiveQuery
from repro.queries.ucq import UnionOfConjunctiveQueries


class CompiledOBDD:
    """The result of compiling a lineage into an OBDD: one artifact, two forms.

    The object form ``(manager, root)`` is the one construction works on
    (``to_dnnf``, DOT output, further ``apply``); the columnar form
    (:class:`~repro.booleans.columnar.ColumnarOBDD`) is the one every
    measurement and probability reads, and the one the store and the
    shared-memory transport carry.  Both are lossless, and each is derived
    from the other on first use and kept: a fresh build flattens once, on
    its first evaluation or shipment (:meth:`to_columnar`); an artifact
    loaded from its columns (:meth:`from_columnar`, a store hit) rebuilds the
    object form only when ``manager``, ``root`` or :meth:`to_dnnf` is read.
    """

    __slots__ = ("order", "_object", "_columnar", "__weakref__")

    def __init__(self, manager: OBDD, root: int, order: Sequence[Fact]) -> None:
        self.order: tuple[Fact, ...] = tuple(order)
        self._object: tuple[OBDD, int] | None = (manager, root)
        self._columnar: ColumnarOBDD | None = None

    @classmethod
    def from_columnar(cls, columnar: ColumnarOBDD) -> "CompiledOBDD":
        """The artifact held in its columnar form (no object rebuild yet)."""
        compiled = cls.__new__(cls)
        compiled.order = tuple(columnar.order)
        compiled._object = None
        compiled._columnar = columnar
        return compiled

    def to_columnar(self) -> ColumnarOBDD:
        """The artifact as a :class:`~repro.booleans.columnar.ColumnarOBDD`,
        flattened on first use."""
        if self._columnar is None:
            manager, root = self._object
            self._columnar = manager.to_columnar(root, self.order)
        return self._columnar

    def _object_form(self) -> tuple[OBDD, int]:
        if self._object is None:
            self._object = self._columnar.to_obdd()
        return self._object

    @property
    def manager(self) -> OBDD:
        return self._object_form()[0]

    @property
    def root(self) -> int:
        return self._object_form()[1]

    def stats(self) -> SweepResult:
        """Size, width, and model count from one (cached) columnar pass."""
        return self.to_columnar().stats()

    @property
    def size(self) -> int:
        return self.to_columnar().size

    @property
    def width(self) -> int:
        return self.to_columnar().width

    def model_count(self) -> int:
        """Satisfying assignments over the full fact order."""
        return self.to_columnar().model_count()

    def probability(self, probabilities, exact: bool = True):
        """Probability under independent facts: exact :class:`~fractions.Fraction`
        by default, the float pass (with exact fallback) when ``exact=False``.

        ``probabilities`` maps facts to probabilities, or is a
        :class:`~repro.data.tid.ProbabilisticInstance`, whose probabilities
        the exact kernel reads by fact position
        (:meth:`~repro.booleans.columnar.ColumnarOBDD.probability`)."""
        return self.to_columnar().probability(probabilities, exact)

    def evaluate(self, valuation) -> bool:
        return self.to_columnar().evaluate(valuation)

    def to_dnnf(self) -> DNNF:
        return dnnf_from_obdd(self.manager, self.root)


def compile_lineage_to_obdd(
    lineage: MonotoneDNFLineage, order: Sequence[Fact] | None = None
) -> CompiledOBDD:
    """Compile a monotone DNF lineage into a reduced OBDD under a fact order.

    The clauses reach the OBDD as levels: one list maps each position in
    ``lineage.instance.facts`` to its fact's level, so no clause is read as
    facts.  A lineage whose fact clauses name a fact outside its instance
    (no positions) is compiled from those facts."""
    if order is None:
        order = default_fact_order(lineage.instance)
    order = list(order)
    manager = OBDD(order)
    clauses = lineage.clause_positions
    if clauses is None:
        if lineage.variables() - set(order):
            raise CompilationError("fact order does not cover all lineage variables")
        root = manager.build_from_clauses(lineage.clauses)
    else:
        levels = manager.levels_of(lineage.instance.facts)
        if None in levels and any(
            levels[position] is None for clause in clauses for position in clause
        ):
            raise CompilationError("fact order does not cover all lineage variables")
        root = manager.build_from_levels(
            tuple(sorted(map(levels.__getitem__, clause))) for clause in clauses
        )
    return CompiledOBDD(manager, root, tuple(order))


def compile_query_to_obdd(
    query: UnionOfConjunctiveQueries | ConjunctiveQuery,
    instance: Instance,
    order: Sequence[Fact] | None = None,
    use_path_decomposition: bool = False,
    engine=None,
) -> CompiledOBDD:
    """Compile the lineage of a UCQ≠ on an instance into an OBDD.

    ``use_path_decomposition=True`` forces the variable order derived from a
    path decomposition (the Theorem 6.7 regime); otherwise the default order
    is used (path order when the instance is thin, tree order otherwise).

    Passing a :class:`repro.engine.CompilationEngine` (and no explicit
    ``order``) serves the compilation from the engine's cache, reusing the
    instance's decompositions and fact orders across calls.
    """
    if engine is not None and order is None:
        return engine.compile(query, instance, use_path_decomposition)
    lineage = lineage_of(query, instance)
    if order is None:
        if use_path_decomposition:
            order = fact_order_from_path_decomposition(instance)
        else:
            order = default_fact_order(instance)
    return compile_lineage_to_obdd(lineage, order)


def compile_circuit_to_obdd(
    circuit: BooleanCircuit, order: Sequence | None = None
) -> CompiledOBDD:
    """Compile an arbitrary lineage circuit into an OBDD (Lemma 6.6 workhorse).

    The order defaults to the circuit's variable insertion order; callers that
    have a decomposition of the underlying instance should pass the
    corresponding fact order to obtain the Section 6 width guarantees.
    """
    if order is None:
        order = list(circuit.variables())
    manager = OBDD(list(order))
    root = manager.build_from_circuit(circuit)
    return CompiledOBDD(manager, root, tuple(order))


def obdd_width_of_query(
    query: UnionOfConjunctiveQueries | ConjunctiveQuery,
    instance: Instance,
    use_path_decomposition: bool = False,
) -> int:
    """The width of the compiled OBDD for the query's lineage on the instance."""
    return compile_query_to_obdd(query, instance, use_path_decomposition=use_path_decomposition).width


def compile_query_to_dnnf(
    query: UnionOfConjunctiveQueries | ConjunctiveQuery, instance: Instance
) -> DNNF:
    """A d-DNNF for the query lineage obtained through the OBDD route.

    The tree-automaton construction of Theorem 6.11 is available in
    :mod:`repro.provenance.automaton_provenance`; this helper is the generic
    fallback that works for any UCQ≠ on any instance.
    """
    return compile_query_to_obdd(query, instance).to_dnnf()

