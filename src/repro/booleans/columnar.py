"""Columnar (structure-of-arrays) OBDD kernels.

The object kernels of :mod:`repro.booleans.obdd` keep one Python tuple per
decision node inside a manager; that representation is ideal for *building*
diagrams (hash-consing, ``apply`` caches) but wrong for *shipping* and
*sweeping* them: pickling a node graph across a process boundary costs a
traversal plus one object per node on the far side, and cyclic-GC passes
rescan every cached node forever.

A :class:`ColumnarOBDD` is the compiled artifact flattened into three parallel
``int64`` columns::

    var[i]  level (index into ``order``) tested by node id ``i + 2``
    lo[i]   id of the low child of node id ``i + 2``
    hi[i]   id of the high child of node id ``i + 2``

Ids ``0`` and ``1`` are the FALSE/TRUE terminals, exactly as in the object
manager.  Decision nodes are stored **sorted by level, deepest first**, so
every child id is strictly smaller than its parent id and ascending-id order
is a topological order; nodes at one level occupy one contiguous slice, which
is what makes level-at-a-time vectorized passes possible.

Two arithmetic regimes, mirroring the object sweep's contract:

* ``exact=True`` (default) computes probabilities with the integer
  recurrence the object manager uses too
  (:func:`repro.booleans.obdd.exact_probability`: per-level scaled integers,
  one :class:`~fractions.Fraction` per answer), fed the columns in ascending
  id order, and model counts as Python integers in a plain loop *over the
  columns* — no node objects, no recursion, exact end to end;
* ``exact=False`` runs the vectorized float fast path: one fused numpy gather
  per level, with the same degeneracy fallback (non-finite or out-of-range
  results rerun the exact kernel) and sub-tolerance clamping as
  :meth:`repro.booleans.obdd.OBDD.sweep`.

The columns round-trip losslessly to the object representation
(:func:`columnar_from_obdd` / :meth:`ColumnarOBDD.to_obdd`) and to a single
contiguous byte buffer (:meth:`ColumnarOBDD.write_into` /
:func:`columnar_from_buffer`), which is how
:mod:`repro.engine.shm` ships artifacts through
``multiprocessing.shared_memory`` segments that workers attach to zero-copy.

numpy is optional: :func:`array_backend` returns ``None`` when numpy is
missing (or ``REPRO_NO_NUMPY=1`` forces the fallback), and every kernel then
runs on :mod:`array`-module columns with pure-Python loops — same results,
no third-party dependency.
"""

from __future__ import annotations

import math
import os
import weakref
from array import array
from fractions import Fraction
from typing import Any, Hashable, Mapping, Sequence

from repro import resilience as _resilience
from repro.booleans.obdd import FALSE_NODE, OBDD, TRUE_NODE, SweepResult, exact_probability
from repro.errors import CompilationError, LineageError

_ITEM = "q"  # signed 64-bit entries, matching numpy int64
_ITEMSIZE = 8

# Scalar-pass iterations between wall-clock checkpoints under an active
# budget (the vectorized passes checkpoint once per level instead).
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


def _check_topology(order, var, lo, hi, numpy_module) -> None:
    """Reject columns that break the sorted-layout contract.

    The sweeps index ``values[lo]``/``values[hi]`` without bounds checks and
    the level slicer assumes one contiguous run per level, so columns that
    arrive from an untrusted buffer (a shared-memory segment written by
    another process) must be rejected here, not deep inside a later pass.
    """
    n = len(var)
    if n == 0:
        return
    if numpy_module is not None:
        np = numpy_module
        ids = np.arange(2, n + 2)
        levels_ok = bool(((var >= 0) & (var < len(order))).all())
        sorted_ok = bool((var[1:] <= var[:-1]).all())
        children_ok = bool(
            ((lo >= 0) & (lo < ids) & (hi >= 0) & (hi < ids)).all()
        )
    else:
        levels_ok = all(0 <= level < len(order) for level in var)
        sorted_ok = all(var[i + 1] <= var[i] for i in range(n - 1))
        children_ok = all(
            0 <= lo[i] < i + 2 and 0 <= hi[i] < i + 2 for i in range(n)
        )
    if not levels_ok:
        raise CompilationError("columnar OBDD level column exceeds the variable order")
    if not sorted_ok:
        raise CompilationError("columnar OBDD nodes must be sorted by descending level")
    if not children_ok:
        raise CompilationError(
            "columnar OBDD child ids must be smaller than their parent's id"
        )


def _as_column(values: Sequence[int], numpy_module) -> Any:
    if numpy_module is not None:
        return numpy_module.asarray(values, dtype=numpy_module.int64)
    if isinstance(values, array) and values.typecode == _ITEM:
        return values
    return array(_ITEM, values)


class ColumnarOBDD:
    """A reduced OBDD flattened into parallel ``var``/``lo``/``hi`` columns.

    Instances are immutable compiled artifacts: the columns describe exactly
    the nodes reachable from ``root`` (so ``size`` is their length), and the
    measurement API mirrors :class:`repro.provenance.compile_obdd.CompiledOBDD`
    — ``size``/``width`` properties, ``model_count()``, ``probability()``,
    ``evaluate()`` — so the two artifact kinds are interchangeable downstream.
    """

    __slots__ = ("order", "var", "lo", "hi", "root", "_stats", "_retain")

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
        numpy_module = array_backend()
        self.order = tuple(order)
        self.var = _as_column(var, numpy_module)
        self.lo = _as_column(lo, numpy_module)
        self.hi = _as_column(hi, numpy_module)
        _check_topology(self.order, self.var, self.lo, self.hi, numpy_module)
        self.root = int(root)
        self._stats: SweepResult | None = None
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
        backend = "numpy" if array_backend() is not None else "array"
        return (
            f"ColumnarOBDD({len(self.var)} nodes over {len(self.order)} variables, "
            f"root {self.root}, {backend} columns)"
        )

    def level_of(self, variable: Hashable) -> int:
        try:
            return self.order.index(variable)
        except ValueError:
            raise LineageError(f"variable {variable!r} not in the columnar order") from None

    def _level_slices(self) -> list[tuple[int, int, int]]:
        """Contiguous ``(level, start, stop)`` runs of the level-sorted columns."""
        var = self.var
        n = len(var)
        slices: list[tuple[int, int, int]] = []
        start = 0
        while start < n:
            level = var[start]
            stop = start + 1
            while stop < n and var[stop] == level:
                stop += 1
            slices.append((int(level), start, stop))
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

    # -- the fused columnar sweep ----------------------------------------------

    def sweep(
        self,
        probabilities: Mapping[Hashable, Fraction | float] | None = None,
        *,
        model_count: bool = False,
        width: bool = False,
        exact: bool = True,
    ) -> SweepResult:
        """Probability, model count, size, and width over the columns.

        The exact regime (`exact=True`) is integer arithmetic in ascending-id
        passes; the float regime is the vectorized
        level-at-a-time fast path with the object sweep's degeneracy fallback
        and clamping, so callers always see a float inside ``[0, 1]``.
        """
        result = self._sweep_impl(probabilities, model_count, width, exact)
        if not exact and result.probability is not None:
            value = result.probability
            if not (math.isfinite(value) and -1e-9 <= value <= 1 + 1e-9):
                fallback = self._sweep_impl(probabilities, model_count, width, True)
                result = SweepResult(
                    size=fallback.size,
                    probability=float(fallback.probability),
                    model_count=fallback.model_count,
                    width=fallback.width,
                )
            elif not 0.0 <= value <= 1.0:
                result = SweepResult(
                    size=result.size,
                    probability=min(max(value, 0.0), 1.0),
                    model_count=result.model_count,
                    width=result.width,
                )
        return result

    def _level_probability(
        self, probabilities: Mapping[Hashable, Fraction | float], level: int
    ) -> float:
        variable = self.order[level]
        if variable not in probabilities:
            raise LineageError(f"missing probability for variable {variable!r}")
        return float(probabilities[variable])

    def _sweep_impl(
        self,
        probabilities: Mapping[Hashable, Fraction | float] | None,
        want_count: bool,
        want_width: bool,
        exact: bool,
    ) -> SweepResult:
        n_vars = len(self.order)
        n = len(self.var)
        want_probability = probabilities is not None
        if self.root <= TRUE_NODE:
            is_true = self.root == TRUE_NODE
            probability: Fraction | float | None = None
            if want_probability:
                probability = Fraction(1 if is_true else 0) if exact else float(is_true)
            return SweepResult(
                size=0,
                probability=probability,
                model_count=((1 << n_vars) if is_true else 0) if want_count else None,
                width=1 if want_width else None,
            )

        probability_value: Fraction | float | None = None
        if want_probability:
            numpy_module = array_backend()
            if exact:
                probability_value = exact_probability(
                    self.order, probabilities, self._node_table(), range(2, n + 2), self.root
                )
            elif numpy_module is None:
                probability_value = self._probability_pass(probabilities)
            else:
                probability_value = self._probability_vectorized(numpy_module, probabilities)

        model_count_value: int | None = None
        if want_count:
            model_count_value = self._model_count_pass(n_vars)

        width_value: int | None = None
        if want_width:
            width_value = self._width_pass(n_vars)

        return SweepResult(
            size=n,
            probability=probability_value,
            model_count=model_count_value,
            width=width_value,
        )

    def _node_table(self) -> list[tuple[int, int, int]]:
        """``(level, low, high)`` by node id, terminals at 0 and 1: the
        layout :func:`~repro.booleans.obdd.exact_probability` reads."""
        columns = (self.var.tolist(), self.lo.tolist(), self.hi.tolist())
        return [(-1, -1, -1), (-1, -1, -1), *zip(*columns)]

    def _probability_pass(self, probabilities: Mapping[Hashable, Fraction | float]) -> float:
        """Ascending-id float probability pass (the no-numpy fallback)."""
        var, lo, hi = self.var, self.lo, self.hi
        values: list[float] = [0.0, 1.0] + [0.0] * len(var)
        prob_of_level: dict[int, float] = {}
        budget = _resilience.ACTIVE
        countdown = _CHECKPOINT_STRIDE
        for index in range(len(var)):
            if budget is not None:
                countdown -= 1
                if countdown == 0:
                    countdown = _CHECKPOINT_STRIDE
                    budget.checkpoint()
            level = var[index]
            p = prob_of_level.get(level)
            if p is None:
                p = prob_of_level[level] = self._level_probability(probabilities, int(level))
            values[index + 2] = p * values[hi[index]] + (1 - p) * values[lo[index]]
        return values[self.root]

    def _probability_vectorized(
        self, numpy_module, probabilities: Mapping[Hashable, Fraction | float]
    ) -> float:
        """One fused gather per level: ``v[nodes] = p*v[hi] + (1-p)*v[lo]``."""
        np = numpy_module
        budget = _resilience.ACTIVE
        values = np.empty(len(self.var) + 2, dtype=np.float64)
        values[FALSE_NODE] = 0.0
        values[TRUE_NODE] = 1.0
        for level, start, stop in self._level_slices():
            if budget is not None:
                budget.checkpoint()
            p = self._level_probability(probabilities, level)
            values[start + 2 : stop + 2] = p * values[self.hi[start:stop]] + (1.0 - p) * values[
                self.lo[start:stop]
            ]
        return float(values[self.root])

    def _model_count_pass(self, n_vars: int) -> int:
        """Exact model count over the full order, in Python integers."""
        var, lo, hi = self.var, self.lo, self.hi
        counts: list[int] = [0, 1] + [0] * len(var)
        landing: list[int] = [n_vars, n_vars] + [int(level) for level in var]
        budget = _resilience.ACTIVE
        countdown = _CHECKPOINT_STRIDE
        for index in range(len(var)):
            if budget is not None:
                countdown -= 1
                if countdown == 0:
                    countdown = _CHECKPOINT_STRIDE
                    budget.checkpoint()
            # Python ints throughout: numpy int64 shift amounts would make
            # the counts wrap.
            level, low, high = int(var[index]), int(lo[index]), int(hi[index])
            counts[index + 2] = (counts[low] << (landing[low] - level - 1)) + (
                counts[high] << (landing[high] - level - 1)
            )
        return counts[self.root] << landing[self.root]

    def _width_pass(self, n_vars: int) -> int:
        """Interval-counted width (Definition 6.4), as in the object sweep."""
        var, lo, hi = self.var, self.lo, self.hi
        sentinel = n_vars + 1
        min_source: list[int] = [sentinel] * (len(var) + 2)
        for index in range(len(var)):
            level = var[index]
            for child in (lo[index], hi[index]):
                if level < min_source[child]:
                    min_source[child] = level
        landing: list[int] = [n_vars, n_vars] + [int(level) for level in var]
        delta = [0] * (n_vars + 2)
        root_level = landing[self.root]
        delta[1] += 1
        delta[root_level + 1] -= 1
        for target in range(len(var) + 2):
            source_level = min_source[target]
            if source_level == sentinel:
                continue
            if source_level + 1 <= landing[target]:
                delta[source_level + 1] += 1
                delta[landing[target] + 1] -= 1
        width_value = 1
        live = 0
        for cut in range(1, n_vars + 1):
            live += delta[cut]
            if live > width_value:
                width_value = live
        return width_value

    # -- the compiled-artifact API (CompiledOBDD-compatible) -------------------

    def stats(self) -> SweepResult:
        """Size, width, and model count from one (cached) columnar sweep."""
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

    def probability(
        self, probabilities: Mapping[Hashable, Fraction | float], exact: bool = True
    ) -> Fraction | float:
        """Exact Fraction by default; the vectorized float fast path when
        ``exact=False`` (with the exact fallback on degeneracy)."""
        return self.sweep(probabilities, exact=exact).probability

    def probability_many(
        self,
        probability_maps: Sequence[Mapping[Hashable, Fraction | float]],
        exact: bool = True,
    ) -> list[Fraction | float]:
        """Probabilities under many weightings — the batch re-weighting kernel.

        The exact regime (and the no-numpy fallback) runs one sweep per map:
        exact answers come from the same integer recurrence as
        :meth:`probability`.
        The float regime runs *one* matrix dynamic program over a
        ``(nodes, assignments)`` value plane: all dictionary work is hoisted
        into a single ``(levels, assignments)`` weight matrix up front, and
        the per-level update is one fused gather over the whole batch — this
        is where the columnar layout beats the object kernel even on narrow
        diagrams, because the per-level overhead amortizes across the batch.
        Degenerate columns (non-finite or outside ``[0, 1]``) fall back to
        the exact kernel individually, as in :meth:`sweep`.
        """
        maps = list(probability_maps)
        numpy_module = array_backend()
        if exact or numpy_module is None or not maps:
            return [self.probability(weights, exact=exact) for weights in maps]
        np = numpy_module
        batch = len(maps)
        if self.root <= TRUE_NODE:
            return [1.0 if self.root == TRUE_NODE else 0.0] * batch
        slices = self._level_slices()
        weight_rows = np.empty((len(slices), batch), dtype=np.float64)
        for row, (level, _, _) in enumerate(slices):
            for column, weights in enumerate(maps):
                weight_rows[row, column] = self._level_probability(weights, level)
        values = np.empty((len(self.var) + 2, batch), dtype=np.float64)
        values[FALSE_NODE] = 0.0
        values[TRUE_NODE] = 1.0
        lo, hi = self.lo, self.hi
        budget = _resilience.ACTIVE
        for row, (_, start, stop) in enumerate(slices):
            if budget is not None:
                budget.checkpoint()
            p = weight_rows[row]
            values[start + 2 : stop + 2] = (
                p * values[hi[start:stop]] + (1.0 - p) * values[lo[start:stop]]
            )
        out = values[self.root]
        results: list[Fraction | float] = []
        for column in range(batch):
            value = float(out[column])
            if not (math.isfinite(value) and -1e-9 <= value <= 1 + 1e-9):
                results.append(float(self.probability(maps[column], exact=True)))
            else:
                results.append(min(max(value, 0.0), 1.0))
        return results

    # -- lossless adapters -----------------------------------------------------

    def to_obdd(self) -> "tuple[OBDD, int]":
        """Rebuild an object manager holding exactly this diagram.

        Ascending-id order processes children before parents, so every
        ``make_node`` call sees already-rebuilt children; the reduced unique
        table reproduces the same diagram (adapters are lossless both ways).
        """
        manager = OBDD(self.order)
        mapping: list[int] = [FALSE_NODE, TRUE_NODE] + [0] * len(self.var)
        for index in range(len(self.var)):
            mapping[index + 2] = manager.make_node(
                int(self.var[index]), mapping[self.lo[index]], mapping[self.hi[index]]
            )
        manager.root = mapping[self.root]
        return manager, manager.root

    def copy(self) -> "ColumnarOBDD":
        """A deep copy owning private columns (detached from shared memory)."""
        return ColumnarOBDD(
            self.order, list(self.var), list(self.lo), list(self.hi), self.root
        )

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
            chunk[:] = _column_bytes(column)

    def meta(self) -> dict[str, Any]:
        """The picklable sidecar needed to reattach a packed buffer."""
        return {"node_count": len(self.var), "root": self.root, "order": self.order}


def _column_bytes(column) -> bytes:
    if isinstance(column, array):
        return column.tobytes()
    return column.tobytes()  # numpy


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
    given manager state), which gives the contiguous level runs the
    vectorized sweeps rely on.
    """
    if order is None:
        order = manager.variable_order
    reachable = sorted(manager.reachable_nodes(root))
    levels = {node: manager._nodes[node][0] for node in reachable}
    ordered = sorted(reachable, key=lambda node: (-levels[node], node))
    mapping = {FALSE_NODE: FALSE_NODE, TRUE_NODE: TRUE_NODE}
    for position, node in enumerate(ordered):
        mapping[node] = position + 2
    var: list[int] = []
    lo: list[int] = []
    hi: list[int] = []
    for node in ordered:
        level, low, high = manager._nodes[node]
        var.append(level)
        lo.append(mapping[low])
        hi.append(mapping[high])
    return ColumnarOBDD(order, var, lo, hi, mapping[root])
