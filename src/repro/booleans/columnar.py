"""The OBDD evaluation kernel: a reduced OBDD as flat columns.

The object manager of :mod:`repro.booleans.obdd` keeps one Python tuple per
decision node; that representation is ideal for *building* diagrams
(hash-consing, ``apply`` caches) but wrong for *shipping* and *evaluating*
them: pickling a node graph across a process boundary costs a traversal plus
one object per node on the far side, and cyclic-GC passes rescan every cached
node forever.  So every evaluation of a compiled diagram — exact and float
probability, batch re-weighting, model count and width — runs here, on the
diagram flattened into three parallel ``int64`` columns::

    var[i]  level (index into ``order``) tested by node id ``i + 2``
    lo[i]   id of the low child of node id ``i + 2``
    hi[i]   id of the high child of node id ``i + 2``

Ids ``0`` and ``1`` are the FALSE/TRUE terminals, exactly as in the object
manager.  Decision nodes are stored **sorted by level, deepest first**, so
every child id is strictly smaller than its parent id and ascending-id order
is a topological order; nodes at one level occupy one contiguous slice.  The
passes read the columns as Python lists indexed by node id.

Two arithmetic regimes:

* ``exact=True`` (default) computes probabilities with
  :func:`exact_probability` (per-level scaled integers, one
  :class:`~fractions.Fraction` per answer) and model counts as Python
  integers — no node objects, no recursion, exact end to end.  What the
  exact sweep needs of the columns alone (each level's rank, and each
  node's two edges as slots in a list of distinct edges) is an
  :class:`ExactPlan`, built in pure Python on an artifact's first exact
  evaluation and kept beside its cached statistics; every exact
  probability — single, batch, re-weighting shard, float fallback — is then
  one coefficient per distinct edge and one multiply-add per node.  A TID
  is read by position: each level's fact is located in
  ``instance.facts`` once per artifact (again only for another fact tuple),
  and its numerator and denominator are read from the TID's integer
  columns (:meth:`~repro.data.tid.ProbabilisticInstance.ratios`);
* ``exact=False`` runs a float pass whose result is always a float in
  ``[0, 1]``: gross degeneracy (non-finite, or off by more than 1e-9) falls
  back to the exact kernel, and sub-tolerance rounding excursions are
  clamped.  :meth:`ColumnarOBDD.probability_many` runs the batch as one numpy
  matrix pass over ``(nodes, assignments)``.

Columns built in this process are stdlib ``array('q')``.  numpy enters only
as zero-copy views over a packed buffer (:func:`columnar_from_buffer`: store
entries and shared-memory segments) and in the float batch; without numpy
(or with ``REPRO_NO_NUMPY=1``, see :func:`array_backend`) buffers are copied
into arrays and the batch runs one scalar pass per map — same results, no
third-party dependency.

The columns round-trip losslessly to the object representation
(:func:`columnar_from_obdd` / :meth:`ColumnarOBDD.to_obdd`) and to a single
contiguous byte buffer (:meth:`ColumnarOBDD.write_into` /
:func:`columnar_from_buffer`), which is how :mod:`repro.engine.shm` ships
artifacts through ``multiprocessing.shared_memory`` segments that workers
attach to zero-copy.
"""

from __future__ import annotations

import math
import operator
import os
import weakref
from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Any, Hashable, Mapping, Sequence

from repro import resilience as _resilience
from repro.booleans.obdd import FALSE_NODE, OBDD, TRUE_NODE
from repro.data.instance import Fact, Instance
from repro.data.tid import ProbabilisticInstance
from repro.errors import CompilationError, LineageError

#: What a probability pass reads: a map from variables to probabilities, or
#: a TID, whose probabilities the exact kernel reads by fact position.
Probabilities = Mapping[Hashable, Fraction | float] | ProbabilisticInstance

_ITEM = "q"  # signed 64-bit entries, matching numpy int64
_ITEMSIZE = 8

# Pass iterations between wall-clock checkpoints under an active budget; one
# Deadline consultation per stride keeps the checkpoint overhead under the
# bench_resilience gate (the batch matrix pass checkpoints once per level).
_CHECKPOINT_STRIDE = 4096


def array_backend():
    """The numpy module when usable, else ``None`` (array-module fallback).

    ``REPRO_NO_NUMPY=1`` forces the fallback even when numpy is installed —
    CI uses it to exercise the pure-Python columns.
    """
    if os.environ.get("REPRO_NO_NUMPY") == "1":
        return None
    try:
        import numpy
    except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
        return None
    return numpy


class ExactPlan:
    """What the exact sweep reads of the columns, derived once per artifact.

    Ranks number the diagram's distinct levels from the top: the root sits
    at rank 0 and the terminals at rank ``depth``.  Every edge is one of the
    distinct ``(rank, child rank, side)`` edges, and a node names each of its
    two edges by its slot in the coefficient list an evaluation builds::

        0                        every edge into FALSE (its value is 0: dropped)
        1 + rank                 the high edge from ``rank`` to ``rank + 1``
        1 + depth + rank         the low edge from ``rank`` to ``rank + 1``
        1 + 2 * depth + k        ``long_edges[k]``: any other edge, which
                                 skips ranks or ends in TRUE above rank
                                 ``depth - 1``

    ``levels[rank]`` is the level of each rank.  ``chunks`` holds the nodes
    in ascending id order, at most ``_CHECKPOINT_STRIDE`` per chunk, as four
    lists: each node's high edge slot, high child, low edge slot and low
    child.  A plan is built in pure Python, never stored and never shipped.
    """

    __slots__ = ("levels", "long_edges", "chunks", "root")

    def __init__(self, var: list[int], lo: list[int], hi: list[int], root: int) -> None:
        # Nodes are sorted deepest level first, so the distinct levels in
        # node order run from the bottom rank up.
        levels = list(dict.fromkeys(var))
        levels.reverse()
        depth = len(levels)
        rank_of = dict(zip(levels, range(depth)))
        node_ranks = list(map(rank_of.__getitem__, var))
        # Rank by node id; FALSE's -1 is never one rank below a node.
        ranks = [-1, depth, *node_ranks]
        long_edges: list[tuple[int, int, bool]] = []
        high_slots = _edge_slots(ranks, node_ranks, hi, depth, True, long_edges)
        low_slots = _edge_slots(ranks, node_ranks, lo, depth, False, long_edges)
        stride = _CHECKPOINT_STRIDE
        self.levels = levels
        self.long_edges = long_edges
        self.chunks = [
            (
                high_slots[start : start + stride],
                hi[start : start + stride],
                low_slots[start : start + stride],
                lo[start : start + stride],
            )
            for start in range(0, len(var), stride)
        ]
        self.root = root


def _edge_slots(
    ranks: list[int],
    node_ranks: list[int],
    children: list[int],
    depth: int,
    high: bool,
    long_edges: list[tuple[int, int, bool]],
) -> list[int]:
    """The coefficient slot of one side's edge of every node (see
    :class:`ExactPlan`); each distinct long edge is appended once."""
    first = 1 if high else 1 + depth
    long_base = 1 + 2 * depth
    stride = depth + 1
    seen: dict[int, int] = {}
    slots: list[int] = []
    append = slots.append
    for rank, child in zip(node_ranks, children):
        child_rank = ranks[child]
        if child_rank == rank + 1:
            append(first + rank)
        elif child == FALSE_NODE:
            append(0)
        else:
            key = rank * stride + child_rank
            slot = seen.get(key)
            if slot is None:
                slot = seen[key] = long_base + len(long_edges)
                long_edges.append((rank, child_rank, high))
            append(slot)
    return slots


def exact_probability(
    plan: ExactPlan, numerators: Sequence[int], denominators: Sequence[int]
) -> Fraction:
    """The exact probability of a planned diagram, in integers.

    ``numerators[rank] / denominators[rank]`` is ``p = a/d``, the
    probability of the variable at rank ``rank``.  With ``S(rank)`` the
    product of ``d`` over the ranks at or below ``rank`` (1 for the
    terminals), each node holds the integer ``v(node) * S(rank)``::

        V(node) = a * G(rank, high) * V(high) + (d - a) * G(rank, low) * V(low)

    where ``G`` is the product of the denominators of the ranks an edge
    skips.  Each call computes one coefficient ``a * G`` or ``(d - a) * G``
    per distinct edge of the plan (no product at all for an edge to the
    next rank), then one multiply-add per node.  Scaling each rank by its
    own denominator keeps every value as small as the exact answer needs; a
    common denominator for all levels would multiply the digits by the
    number of levels whenever the denominators share few factors.  No
    operation reduces a fraction: the answer is the one ``Fraction`` built
    at the root.  An active budget is checkpointed before every chunk of
    the plan's nodes.
    """
    depth = len(denominators)
    lows = list(map(operator.sub, denominators, numerators))
    # scale[rank] = S(rank): the suffix products, bottom up.
    scale = list(accumulate(reversed(denominators), operator.mul, initial=1))
    scale.reverse()
    coefficients = [0, *numerators, *lows]
    for rank, child_rank, high in plan.long_edges:
        coefficient = numerators[rank] if high else lows[rank]
        if child_rank == depth:
            coefficient *= scale[rank + 1]
        else:
            for skipped in range(rank + 1, child_rank):
                coefficient *= denominators[skipped]
        coefficients.append(coefficient)
    values = [0, 1]
    append = values.append
    budget = _resilience.ACTIVE
    for chunk in plan.chunks:
        if budget is not None:
            budget.checkpoint()
        for high_slot, high, low_slot, low in zip(*chunk):
            append(coefficients[high_slot] * values[high] + coefficients[low_slot] * values[low])
    # The root is the one node at rank 0.
    return Fraction(values[plan.root], scale[0])


def _mapping_ratios(
    order: Sequence[Hashable],
    levels: list[int],
    probabilities: Mapping[Hashable, Fraction | float],
) -> tuple[list[int], list[int]]:
    """The numerator and the denominator of each level's probability, one
    lookup per level."""
    numerators, denominators = [], []
    for level in levels:
        variable = order[level]
        try:
            raw = probabilities[variable]
        except KeyError:
            raise LineageError(f"missing probability for variable {variable!r}") from None
        value = raw if isinstance(raw, Fraction) else Fraction(raw)
        numerators.append(value.numerator)
        denominators.append(value.denominator)
    return numerators, denominators


def _unit_interval(value: float) -> float | None:
    """``value`` clamped into ``[0, 1]``, or None when the float pass
    degenerated (non-finite, or off by more than 1e-9) and the exact kernel
    must answer instead."""
    if not (math.isfinite(value) and -1e-9 <= value <= 1 + 1e-9):
        return None
    return min(max(value, 0.0), 1.0)


@dataclass(frozen=True, slots=True)
class SweepResult:
    """The outputs of one :meth:`ColumnarOBDD.sweep`.

    Fields not requested are ``None``; ``size`` (the number of decision
    nodes) is always known: it is the length of the columns.
    """

    size: int
    probability: Fraction | float | None = None
    model_count: int | None = None
    width: int | None = None


def _check_topology(order, var, lo, hi) -> None:
    """Reject columns that break the sorted-layout contract.

    The passes index ``values[lo]``/``values[hi]`` without bounds checks and
    the level slicer assumes one contiguous run per level, so columns that
    arrive from an untrusted buffer (a shared-memory segment written by
    another process, a store entry) must be rejected here, not deep inside a
    later pass.  numpy views are checked vectorized; other columns as lists,
    which iterate fastest.
    """
    n = len(var)
    if n == 0:
        return
    if isinstance(var, array):
        var, lo, hi = var.tolist(), lo.tolist(), hi.tolist()
    if getattr(var, "dtype", None) is None:
        ids = range(2, n + 2)
        levels_ok = 0 <= min(var) and max(var) < len(order)
        sorted_ok = all(map(operator.le, var[1:], var))
        children_ok = (
            min(lo) >= 0
            and min(hi) >= 0
            and all(map(operator.lt, lo, ids))
            and all(map(operator.lt, hi, ids))
        )
    else:
        import numpy as np

        node_ids = np.arange(2, n + 2)
        levels_ok = bool(((var >= 0) & (var < len(order))).all())
        sorted_ok = bool((var[1:] <= var[:-1]).all())
        children_ok = bool(
            ((lo >= 0) & (lo < node_ids) & (hi >= 0) & (hi < node_ids)).all()
        )
    if not levels_ok:
        raise CompilationError("columnar OBDD level column exceeds the variable order")
    if not sorted_ok:
        raise CompilationError("columnar OBDD nodes must be sorted by descending level")
    if not children_ok:
        raise CompilationError(
            "columnar OBDD child ids must be smaller than their parent's id"
        )


def _as_column(values: Sequence[int]) -> Any:
    """An ``array('q')`` column; int64 numpy views pass through unchanged."""
    if isinstance(values, array) and values.typecode == _ITEM:
        return values
    if getattr(values, "dtype", None) == "int64":
        return values
    return array(_ITEM, values)


class ColumnarOBDD:
    """A reduced OBDD flattened into parallel ``var``/``lo``/``hi`` columns.

    Instances are immutable compiled artifacts: the columns describe exactly
    the nodes reachable from ``root`` (so ``size`` is their length), and the
    measurement API — ``size``/``width`` properties, ``model_count()``,
    ``probability()``, ``evaluate()`` — is the one
    :class:`repro.provenance.compile_obdd.CompiledOBDD` delegates to.
    """

    __slots__ = ("order", "var", "lo", "hi", "root", "_stats", "_plan", "_positions", "_retain")

    def __init__(
        self,
        order: Sequence[Hashable],
        var: Sequence[int],
        lo: Sequence[int],
        hi: Sequence[int],
        root: int,
        retain: Any = None,
    ) -> None:
        if not (len(var) == len(lo) == len(hi)):
            raise CompilationError("columnar OBDD columns must have equal lengths")
        if not (0 <= root < len(var) + 2):
            raise CompilationError(f"columnar OBDD root {root} out of range")
        self.order = tuple(order)
        _check_topology(self.order, var, lo, hi)
        self.var = _as_column(var)
        self.lo = _as_column(lo)
        self.hi = _as_column(hi)
        self.root = int(root)
        self._stats: SweepResult | None = None
        # The exact kernel's plan, built on the first exact evaluation, and
        # the fact positions of its ranks with the fact tuple they index.
        self._plan: ExactPlan | None = None
        self._positions: tuple[tuple[Fact, ...], list[int]] | None = None
        # Keeps the memory owner (e.g. a SharedMemory mapping) alive while
        # numpy views into it exist.
        self._retain = retain

    # -- basic shape -----------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self.var)

    def __len__(self) -> int:
        return len(self.var)

    def __repr__(self) -> str:
        backend = "array" if isinstance(self.var, array) else "numpy"
        return (
            f"ColumnarOBDD({len(self.var)} nodes over {len(self.order)} variables, "
            f"root {self.root}, {backend} columns)"
        )

    def level_of(self, variable: Hashable) -> int:
        try:
            return self.order.index(variable)
        except ValueError:
            raise LineageError(f"variable {variable!r} not in the columnar order") from None

    def _lists(self) -> tuple[list[int], list[int], list[int]]:
        """The columns as Python lists, the form every pass reads."""
        return self.var.tolist(), self.lo.tolist(), self.hi.tolist()

    def _level_slices(self, var: list[int]) -> list[tuple[int, int, int]]:
        """Contiguous ``(level, start, stop)`` runs of the level-sorted columns."""
        n = len(var)
        slices: list[tuple[int, int, int]] = []
        start = 0
        while start < n:
            level = var[start]
            stop = start + 1
            while stop < n and var[stop] == level:
                stop += 1
            slices.append((level, start, stop))
            start = stop
        return slices

    # -- semantics -------------------------------------------------------------

    def evaluate(self, valuation: Mapping[Hashable, bool]) -> bool:
        current = self.root
        var, lo, hi, order = self.var, self.lo, self.hi, self.order
        while current > TRUE_NODE:
            index = current - 2
            variable = order[var[index]]
            current = int(hi[index] if valuation.get(variable, False) else lo[index])
        return current == TRUE_NODE

    # -- the passes ------------------------------------------------------------

    def sweep(
        self,
        probabilities: Probabilities | None = None,
        *,
        model_count: bool = False,
        width: bool = False,
        exact: bool = True,
    ) -> SweepResult:
        """Probability, model count, size, and width over the columns.

        ``probabilities`` requests the probability, as :meth:`probability`
        computes it.
        """
        columns = self._lists() if model_count or width else None
        n_vars = len(self.order)
        return SweepResult(
            size=len(self.var),
            probability=(
                None if probabilities is None else self.probability(probabilities, exact)
            ),
            model_count=self._model_count_pass(n_vars, *columns) if model_count else None,
            width=self._width_pass(n_vars, *columns) if width else None,
        )

    def _exact(self, probabilities: Probabilities) -> Fraction:
        """One map's exact probability: the planned kernel, with the plan
        built on the first call."""
        if self.root <= TRUE_NODE:
            return Fraction(self.root)
        plan = self._plan
        if plan is None:
            plan = self._plan = ExactPlan(*self._lists(), self.root)
        if isinstance(probabilities, ProbabilisticInstance):
            numerators, denominators = probabilities.ratios()
            positions = self._fact_positions(probabilities.instance, plan.levels)
            return exact_probability(
                plan,
                list(map(numerators.__getitem__, positions)),
                list(map(denominators.__getitem__, positions)),
            )
        return exact_probability(plan, *_mapping_ratios(self.order, plan.levels, probabilities))

    def _fact_positions(self, instance: Instance, levels: list[int]) -> list[int]:
        """Where the variable of each level sits in ``instance.facts``.

        Cached with the fact tuple it indexes, and reused only while a TID
        brings that same tuple; a variable that is no fact of the instance
        has no probability."""
        facts = instance.facts
        cached = self._positions
        if cached is not None and cached[0] is facts:
            return cached[1]
        positions = []
        for level in levels:
            variable = self.order[level]
            position = None
            if isinstance(variable, Fact):
                position = instance.fact_positions(variable.relation).get(variable.arguments)
            if position is None:
                raise LineageError(f"missing probability for variable {variable!r}")
            positions.append(position)
        self._positions = (facts, positions)
        return positions

    def _probability(self, probabilities: Probabilities) -> float:
        """One map's float probability: the float pass, with the exact
        kernel as its fallback.  A TID is read as its valuation."""
        mapping = (
            probabilities.valuation()
            if isinstance(probabilities, ProbabilisticInstance)
            else probabilities
        )
        value = _unit_interval(self._probability_pass(mapping, *self._lists()))
        if value is None:
            value = float(self._exact(probabilities))
        return value

    def _level_probability(
        self, probabilities: Mapping[Hashable, Fraction | float], level: int
    ) -> float:
        variable = self.order[level]
        if variable not in probabilities:
            raise LineageError(f"missing probability for variable {variable!r}")
        return float(probabilities[variable])

    def _probability_pass(
        self,
        probabilities: Mapping[Hashable, Fraction | float],
        var: list[int],
        lo: list[int],
        hi: list[int],
    ) -> float:
        """Ascending-id float probability pass."""
        values: list[float] = [0.0, 1.0]
        prob_of_level: dict[int, float] = {}
        budget = _resilience.ACTIVE
        countdown = _CHECKPOINT_STRIDE
        for level, low, high in zip(var, lo, hi):
            if budget is not None:
                countdown -= 1
                if countdown == 0:
                    countdown = _CHECKPOINT_STRIDE
                    budget.checkpoint()
            p = prob_of_level.get(level)
            if p is None:
                p = prob_of_level[level] = self._level_probability(probabilities, level)
            values.append(p * values[high] + (1 - p) * values[low])
        return values[self.root]

    def _model_count_pass(
        self, n_vars: int, var: list[int], lo: list[int], hi: list[int]
    ) -> int:
        """Exact model count over the full order, in Python integers."""
        counts: list[int] = [0, 1]
        landing: list[int] = [n_vars, n_vars, *var]
        budget = _resilience.ACTIVE
        countdown = _CHECKPOINT_STRIDE
        for level, low, high in zip(var, lo, hi):
            if budget is not None:
                countdown -= 1
                if countdown == 0:
                    countdown = _CHECKPOINT_STRIDE
                    budget.checkpoint()
            counts.append(
                (counts[low] << (landing[low] - level - 1))
                + (counts[high] << (landing[high] - level - 1))
            )
        return counts[self.root] << landing[self.root]

    def _width_pass(self, n_vars: int, var: list[int], lo: list[int], hi: list[int]) -> int:
        """The width of Definition 6.4: the maximum, over cuts ``L`` of the
        order, of the distinct subfunctions live after fixing the first ``L``
        variables.  Each edge target is live exactly at the cuts
        ``min_source_level(target) < L <= landing(target)`` (the root from
        cut 1 through its own level), counted with a difference array."""
        sentinel = n_vars + 1
        min_source: list[int] = [sentinel] * (len(var) + 2)
        for level, low, high in zip(var, lo, hi):
            if level < min_source[low]:
                min_source[low] = level
            if level < min_source[high]:
                min_source[high] = level
        landing: list[int] = [n_vars, n_vars, *var]
        delta = [0] * (n_vars + 2)
        delta[1] += 1
        delta[landing[self.root] + 1] -= 1
        for source_level, target_landing in zip(min_source, landing):
            if source_level < target_landing:
                delta[source_level + 1] += 1
                delta[target_landing + 1] -= 1
        width_value = 1
        live = 0
        for cut in range(1, n_vars + 1):
            live += delta[cut]
            if live > width_value:
                width_value = live
        return width_value

    # -- the compiled-artifact API ---------------------------------------------

    def stats(self) -> SweepResult:
        """Size, width, and model count from one (cached) pass."""
        if self._stats is None:
            self._stats = self.sweep(model_count=True, width=True)
        return self._stats

    @property
    def size(self) -> int:
        return len(self.var)

    @property
    def width(self) -> int:
        return self.stats().width

    def model_count(self) -> int:
        return self.stats().model_count

    def probability(self, probabilities: Probabilities, exact: bool = True) -> Fraction | float:
        """The probability of the diagram under independent variables.

        ``probabilities`` maps each variable to its probability, or is a
        :class:`~repro.data.tid.ProbabilisticInstance` whose facts are the
        variables.  The default answer is an exact
        :class:`~fractions.Fraction` from :func:`exact_probability`, which
        reads a TID's probabilities by fact position and a mapping with one
        lookup per level; a variable without a probability raises
        :class:`~repro.errors.LineageError`.  ``exact=False`` runs the float
        pass instead, which always answers a float inside ``[0, 1]`` (see
        the module docstring).
        """
        if exact:
            return self._exact(probabilities)
        return self._probability(probabilities)

    def probability_many(
        self,
        probability_maps: Sequence[Mapping[Hashable, Fraction | float]],
        exact: bool = True,
    ) -> list[Fraction | float]:
        """Probabilities under many weightings — the batch re-weighting kernel.

        The exact regime runs :func:`exact_probability` once per map, on
        the artifact's one plan.  The float regime runs *one* matrix dynamic program over a
        ``(nodes, assignments)`` value plane: all dictionary work is hoisted
        into a single ``(levels, assignments)`` weight matrix up front, and
        the per-level update is one fused numpy gather over the whole batch,
        so the per-level overhead amortizes across the batch.  Degenerate
        columns (non-finite or outside ``[0, 1]``) fall back to the exact
        kernel individually, as in :meth:`sweep`.  Without numpy the float
        regime runs one scalar pass per map.
        """
        maps = list(probability_maps)
        if exact:
            return [self._exact(weights) for weights in maps]
        numpy_module = array_backend()
        if numpy_module is None or not maps:
            return [self._probability(weights) for weights in maps]
        np = numpy_module
        batch = len(maps)
        slices = self._level_slices(self.var.tolist())
        weight_rows = np.empty((len(slices), batch), dtype=np.float64)
        for row, (level, _, _) in enumerate(slices):
            for column, weights in enumerate(maps):
                weight_rows[row, column] = self._level_probability(weights, level)
        values = np.empty((len(self.var) + 2, batch), dtype=np.float64)
        values[FALSE_NODE] = 0.0
        values[TRUE_NODE] = 1.0
        lo = np.frombuffer(self.lo, dtype=np.int64)
        hi = np.frombuffer(self.hi, dtype=np.int64)
        budget = _resilience.ACTIVE
        for row, (_, start, stop) in enumerate(slices):
            if budget is not None:
                budget.checkpoint()
            p = weight_rows[row]
            values[start + 2 : stop + 2] = (
                p * values[hi[start:stop]] + (1.0 - p) * values[lo[start:stop]]
            )
        results: list[Fraction | float] = []
        for weights, raw in zip(maps, values[self.root].tolist()):
            value = _unit_interval(raw)
            results.append(value if value is not None else float(self._exact(weights)))
        return results

    # -- lossless adapters -----------------------------------------------------

    def to_obdd(self) -> "tuple[OBDD, int]":
        """Rebuild an object manager holding exactly this diagram.

        Ascending-id order processes children before parents, so every
        ``make_node`` call sees already-rebuilt children; the reduced unique
        table reproduces the same diagram (adapters are lossless both ways).
        """
        manager = OBDD(self.order)
        mapping: list[int] = [FALSE_NODE, TRUE_NODE]
        for level, low, high in zip(*self._lists()):
            mapping.append(manager.make_node(level, mapping[low], mapping[high]))
        manager.root = mapping[self.root]
        return manager, manager.root

    def copy(self) -> "ColumnarOBDD":
        """A deep copy owning private columns (detached from shared memory)."""
        return ColumnarOBDD(self.order, *self._lists(), self.root)

    # -- flat-buffer packing ---------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Bytes needed by :meth:`write_into`: three int64 columns."""
        return 3 * len(self.var) * _ITEMSIZE

    def write_into(self, buffer) -> None:
        """Serialize the columns into a writable buffer as ``var|lo|hi``."""
        n = len(self.var)
        view = memoryview(buffer)
        if len(view) < self.nbytes:
            raise CompilationError("buffer too small for the columnar OBDD")
        for position, column in enumerate((self.var, self.lo, self.hi)):
            chunk = view[position * n * _ITEMSIZE : (position + 1) * n * _ITEMSIZE]
            chunk[:] = column.tobytes()

    def meta(self) -> dict[str, Any]:
        """The picklable sidecar needed to reattach a packed buffer."""
        return {"node_count": len(self.var), "root": self.root, "order": self.order}


#: Memory owners whose close raced a still-exported buffer.  The finalizer
#: below runs *during* the flat array's deallocation — before the array
#: releases its buffer export — so the first close attempt can fail; parking
#: the owner here keeps it alive (its destructor must not run against live
#: exports either) and the next columnar call retires it, by which point the
#: export is long gone.
_DEFERRED_RELEASE: list[Any] = []


def _drain_deferred_releases() -> None:
    still_exported = []
    for owner in _DEFERRED_RELEASE:
        try:
            owner.close()
        except BufferError:  # pragma: no cover - an export is somehow alive
            still_exported.append(owner)
    _DEFERRED_RELEASE[:] = still_exported


def _release_retained(owner: Any) -> None:
    """Close a retained memory owner (e.g. a SharedMemory mapping) quietly."""
    _drain_deferred_releases()
    close = getattr(owner, "close", None)
    if close is None:
        return
    try:
        close()
    except BufferError:
        _DEFERRED_RELEASE.append(owner)


def columnar_from_buffer(meta: Mapping[str, Any], buffer, retain: Any = None) -> ColumnarOBDD:
    """Reconstruct a :class:`ColumnarOBDD` from a packed ``var|lo|hi`` buffer.

    With numpy available the columns are **views** into ``buffer`` (zero
    copy); ``retain`` (e.g. the owning ``SharedMemory`` mapping) is kept
    alive on the artifact for as long as those views exist.  The fallback
    backend copies into :mod:`array` columns.
    """
    n = int(meta["node_count"])
    root = int(meta["root"])
    order = tuple(meta["order"])
    numpy_module = array_backend()
    _drain_deferred_releases()
    if numpy_module is not None:
        flat = numpy_module.frombuffer(buffer, dtype=numpy_module.int64, count=3 * n)
        if retain is not None:
            # Release the memory owner only once the last view over ``flat``
            # is gone: the finalizer's argument keeps it alive until then,
            # and closing after all views died cannot hit "exported pointers
            # exist".  (Slot teardown order alone cannot guarantee this.)
            weakref.finalize(flat, _release_retained, retain)
        columns = (flat[:n], flat[n : 2 * n], flat[2 * n : 3 * n])
        return ColumnarOBDD(order, *columns, root=root, retain=retain)
    view = memoryview(buffer)
    columns = []
    for position in range(3):
        chunk = array(_ITEM)
        chunk.frombytes(view[position * n * _ITEMSIZE : (position + 1) * n * _ITEMSIZE])
        columns.append(chunk)
    return ColumnarOBDD(order, *columns, root=root)


def columnar_from_obdd(
    manager: OBDD, root: int, order: Sequence[Hashable] | None = None
) -> ColumnarOBDD:
    """Flatten the diagram rooted at ``root`` into level-sorted columns.

    Only the reachable nodes are kept; they are renumbered by descending
    level (ties broken by original id, so the layout is deterministic for a
    given manager state), which gives the contiguous level runs the batch
    pass relies on.
    """
    if order is None:
        order = manager.variable_order
    nodes = manager._nodes
    # Ascending ids, then a stable sort by descending level keeps id order
    # among the nodes of one level.
    ordered = sorted(manager._reachable_list(root))
    ordered.sort(key=lambda node: nodes[node][0], reverse=True)
    mapping = {FALSE_NODE: FALSE_NODE, TRUE_NODE: TRUE_NODE}
    mapping.update(zip(ordered, range(2, len(ordered) + 2)))
    triples = [nodes[node] for node in ordered]
    var = [level for level, _, _ in triples]
    lo = [mapping[low] for _, low, _ in triples]
    hi = [mapping[high] for _, _, high in triples]
    return ColumnarOBDD(order, var, lo, hi, mapping[root])
