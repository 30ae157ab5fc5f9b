"""The five benchmark workloads: one closed-loop client each.

A workload sets itself up (everything counted in ``setup_s``), computes its
reference answers outside every timed window, and then hands the runner one
:class:`Request` at a time: ``call`` is the timed part, everything that builds
the request's inputs runs before it, untimed.  Instance shapes are fixed;
the seed draws every fact probability as ``k/1000`` and names the fresh
instances of ``restart``, so one seed always gives the same inputs.
"""

from __future__ import annotations

import random
import shutil
from dataclasses import dataclass, replace
from fractions import Fraction
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Any, Callable

import repro.data.io as data_io
from repro.data.instance import Fact, Instance
from repro.data.signature import Signature
from repro.data.tid import ProbabilisticInstance
from repro.engine import CompilationEngine, ParallelEngine
from repro.generators import (
    directed_path_instance,
    labelled_partial_ktree_instance,
    rst_chain_instance,
)
from repro.queries.library import hierarchical_example, two_incident_same_direction, unsafe_rst
from repro.resilience import ResourceBudget
from repro.store import ArtifactStore

import references
from tracing import LayerCounts, engine_snapshot

PATH_QUERY = two_incident_same_direction()
RST_QUERY = unsafe_rst()
SAFE_QUERY = hierarchical_example()

# Fresh-valuation ktree answers are checked against the d-DNNF route of a
# separate engine; the first few per run are also checked against the tree
# automaton route, which is too slow (~0.5 s at ktree-250) to run on all.
AUTOMATON_CHECKS_PER_RUN = 2


@dataclass(frozen=True)
class Kind:
    """One request shape: a fixed instance, a query and its reference."""

    label: str
    instance: Instance
    query: Any
    reference: str  # "path", "rst", "rst_t" (closed forms) or "ktree"


@dataclass
class Request:
    kind: str
    call: Callable[[], Any]
    expected: Callable[[], Any]  # computed after the call, untimed


def path_kind(n: int) -> Kind:
    return Kind(f"path-{n}", directed_path_instance(n), PATH_QUERY, "path")


def ktree_kind(n: int) -> Kind:
    return Kind(f"ktree-{n}", labelled_partial_ktree_instance(n, 2), RST_QUERY, "ktree")


def rst_kind(n: int, safe: bool) -> Kind:
    if safe:
        return Kind(f"rst-line-{n}-safe", rst_chain_instance(n), SAFE_QUERY, "rst")
    return Kind(f"rst-line-{n}-unsafe", rst_chain_instance(n), RST_QUERY, "rst_t")


def closed_form(kind: Kind, valuation: dict) -> Fraction:
    if kind.reference == "path":
        return references.path_two_consecutive(references.path_edges_in_order(valuation))
    if kind.reference in ("rst", "rst_t"):
        return references.rst_line(valuation, with_t=kind.reference == "rst_t")
    raise ValueError(f"no closed form for {kind.label}")


def automaton_reference(kind: Kind, valuation: dict) -> Fraction:
    tid = ProbabilisticInstance(kind.instance, valuation)
    return CompilationEngine().probability(kind.query, tid, method="automaton")


class KtreeReference:
    """Exact answers for RST on a ktree from a second route on its own engine."""

    def __init__(self, kind: Kind) -> None:
        self.kind = kind
        self.engine = CompilationEngine()
        self.engine.dnnf(kind.query, kind.instance)
        self.automaton_checks = AUTOMATON_CHECKS_PER_RUN

    def __call__(self, tid: ProbabilisticInstance) -> Fraction | None:
        value = self.engine.probability(self.kind.query, tid, method="dnnf")
        if self.automaton_checks > 0:
            self.automaton_checks -= 1
            if self.engine.probability(self.kind.query, tid, method="automaton") != value:
                return None
        return value


class Workload:
    """Base class; see the module docstring for the protocol."""

    name = ""
    cycle: tuple[str, ...] = ()

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.workdir = workdir / self.name
        self.budgeted = False
        self.engine: CompilationEngine | None = None
        self.budget: ResourceBudget | None = None
        # Counters of a long-lived engine before the current request.
        self.before: tuple | None = None

    def valuation(self, facts) -> dict[Fact, Fraction]:
        randint = self.rng.randint
        return {f: Fraction(randint(1, 999), 1000) for f in facts}

    def fresh_budget(self) -> ResourceBudget | None:
        # A budget with no caps only counts: rows and nodes for the trace.
        self.budget = ResourceBudget() if self.budgeted else None
        return self.budget

    def setup(self) -> None:
        raise NotImplementedError

    def prepare_references(self) -> None:
        pass

    def request(self, index: int) -> Request:
        raise NotImplementedError

    def warm_up(self) -> None:
        """One request of each kind, so lazy one-time costs land in setup."""
        seen = set()
        for index, kind in enumerate(self.cycle):
            if kind not in seen:
                seen.add(kind)
                self.request(index).call()

    def observe(self, counts: LayerCounts) -> None:
        """After a traced request: fold the engine's counters into ``counts``."""
        if self.engine is not None:
            counts.add_engine(self.engine, self.before)
        if self.budget is not None:
            counts.rows += self.budget.usage()["rows"]

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


# -- cold ------------------------------------------------------------------------


class FileWorkload(Workload):
    """A workload whose requests load TID files written in setup, with one
    fixed valuation per file, so each reference is computed once."""

    def write_files(self, kinds: list[Kind]) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.kinds = {kind.label: kind for kind in kinds}
        self.files: dict[str, Path] = {}
        self.valuations: dict[str, dict] = {}
        for kind in kinds:
            valuation = self.valuation(kind.instance)
            path = self.workdir / f"{kind.label}.json"
            data_io.save_instance(ProbabilisticInstance(kind.instance, valuation), path)
            self.files[kind.label] = path
            self.valuations[kind.label] = valuation

    def prepare_references(self) -> None:
        self.expected: dict[str, Fraction] = {}
        for label, kind in self.kinds.items():
            if kind.reference == "ktree":
                self.expected[label] = automaton_reference(kind, self.valuations[label])
            else:
                self.expected[label] = closed_form(kind, self.valuations[label])


class Cold(FileWorkload):
    """One CLI ``probability`` invocation per request, in-process: load the
    TID file, build a store-less engine, evaluate with ``method="auto"``."""

    name = "cold"
    cycle = (
        "path-60", "ktree-60", "rst-line-120-safe", "path-120", "rst-line-480-unsafe",
        "ktree-120", "rst-line-120-unsafe", "path-240", "rst-line-480-safe",
    )

    def setup(self) -> None:
        kinds = [path_kind(60), path_kind(120), path_kind(240), ktree_kind(60), ktree_kind(120)]
        self.write_files(kinds + [rst_kind(n, safe) for n in (120, 480) for safe in (True, False)])
        self.warm_up()

    def request(self, index: int) -> Request:
        label = self.cycle[index % len(self.cycle)]
        kind, path, budget = self.kinds[label], self.files[label], self.fresh_budget()

        def call() -> Any:
            tid = data_io.load_tid(path)
            self.engine = CompilationEngine()
            return self.engine.probability(kind.query, tid, budget=budget)

        return Request(label, call, lambda: self.expected[label])


# -- warm ------------------------------------------------------------------------


class Warm(FileWorkload):
    """One long-lived engine with every artifact cached; each request is a
    fresh ``ProbabilisticInstance`` over a cached instance plus ``auto``."""

    name = "warm"
    cycle = ("path-240", "ktree-250", "rst-line-480-safe", "ktree-250", "rst-line-480-unsafe")
    warm_up_rounds = 3

    def setup(self) -> None:
        self.write_files([path_kind(240), ktree_kind(250), rst_kind(480, True), rst_kind(480, False)])
        # Requests reuse the instances as loaded: the objects the engine caches.
        self.kinds = {
            label: replace(kind, instance=data_io.load_tid(self.files[label]).instance)
            for label, kind in self.kinds.items()
        }
        self.engine = CompilationEngine()
        # Build the circuit artifacts outside "auto": the router's cost model
        # is a per-fact moving average shared by all instances, and a compile
        # observed through "auto" can tip it onto the columnar route for
        # rst-line-480 (a ~20x slower exact sweep than the read-once
        # shortcut), depending on timing alone.
        for kind in self.kinds.values():
            self.engine.lifted_plan(kind.query)
            if kind.query is not SAFE_QUERY:
                self.engine.compile(kind.query, kind.instance)
                self.engine.columnar(kind.query, kind.instance)
        for _ in range(self.warm_up_rounds):
            for index in range(len(self.cycle)):
                self.request(index).call()

    def prepare_references(self) -> None:
        self.ktree = KtreeReference(self.kinds["ktree-250"])

    def request(self, index: int) -> Request:
        label = self.cycle[index % len(self.cycle)]
        kind, budget, engine = self.kinds[label], self.fresh_budget(), self.engine
        valuation = self.valuation(kind.instance)
        self.before = engine_snapshot(engine) if self.budgeted else None
        box: dict[str, ProbabilisticInstance] = {}

        def call() -> Any:
            tid = box["tid"] = ProbabilisticInstance(kind.instance, valuation)
            return engine.probability(kind.query, tid, budget=budget)

        def expected() -> Any:
            if kind.reference == "ktree":
                return self.ktree(box["tid"])
            return closed_form(kind, valuation)

        return Request(label, call, expected)


# -- restart ---------------------------------------------------------------------


class Restart(FileWorkload):
    """The store-warm path after a process restart: a fresh engine on a
    persistent store per request; one request in four names an instance the
    store has never seen, so it compiles and writes behind."""

    name = "restart"
    cycle = (
        "path-120", "ktree-120", "rst-line-240-safe", "fresh-path-120",
        "ktree-120", "path-120", "ktree-120", "fresh-path-120",
    )
    fresh_size = 120
    # The store is put back to the snapshot every this many requests
    # (untimed), so hit latency, which grows with the number of shard
    # directories the store opens, does not depend on how many misses a
    # run happened to write.
    reset_every = 32

    def setup(self) -> None:
        self.write_files([path_kind(120), ktree_kind(120), rst_kind(240, True)])
        self.snapshot = snapshot = self.workdir / "snapshot"
        filler = CompilationEngine(store=snapshot)
        for label, kind in self.kinds.items():
            filler.probability(kind.query, data_io.load_tid(self.files[label]))
        # The fresh instances' query is unsafe on every instance; its
        # "no lifted plan" verdict is stored once, like any restart would find.
        filler.lifted_plan(PATH_QUERY)
        self.store = self.workdir / "store"
        shutil.copytree(snapshot, self.store)
        self.warm_up()

    def fresh_instance(self, index: int) -> Instance:
        prefix = f"s{self.seed}r{index}v"
        facts = [
            Fact("E", (f"{prefix}{i}", f"{prefix}{i + 1}")) for i in range(self.fresh_size)
        ]
        return Instance(facts, Signature([("E", 2)]))

    def request(self, index: int) -> Request:
        label = self.cycle[index % len(self.cycle)]
        budget, store = self.fresh_budget(), self.store
        if index % self.reset_every == 0:
            shutil.rmtree(store)
            shutil.copytree(self.snapshot, store)
        self.bytes_before = self.store_bytes() if self.budgeted else 0
        if label.startswith("fresh-"):
            instance = self.fresh_instance(index)
            valuation = self.valuation(instance)
            path = self.workdir / "fresh.json"
            data_io.save_instance(ProbabilisticInstance(instance, valuation), path)
            query = PATH_QUERY
            expected = lambda: references.path_two_consecutive(  # noqa: E731
                references.path_edges_in_order(valuation)
            )
        else:
            query, path = self.kinds[label].query, self.files[label]
            expected = lambda: self.expected[label]  # noqa: E731

        def call() -> Any:
            self.engine = CompilationEngine(store=store)
            return self.engine.probability(query, data_io.load_tid(path), budget=budget)

        return Request(label, call, expected)

    def store_bytes(self) -> int:
        return ArtifactStore(self.store).stats().total_bytes

    def observe(self, counts: LayerCounts) -> None:
        super().observe(counts)
        counts.store_bytes_grown += self.store_bytes() - self.bytes_before


# -- lifted ----------------------------------------------------------------------


class Lifted(Workload):
    """The library caller's path for a safe query: ``Instance`` and
    ``ProbabilisticInstance`` from in-memory fact tuples, then a fresh
    engine's ``auto`` evaluation (the lifted plan)."""

    name = "lifted"
    # R(a_i) for i < k plus S(a_i, b_j) for j < WIDTH: k * (WIDTH + 1) facts.
    width = 50
    cycle = ("k15", "k45", "k20", "k150", "k30", "k60", "k45", "k80")

    def setup(self) -> None:
        self.tuples: dict[str, list[tuple[str, tuple]]] = {}
        for label in set(self.cycle):
            k = int(label[1:])
            rows = [("R", (f"a{i}",)) for i in range(k)]
            rows += [("S", (f"a{i}", f"b{j}")) for i in range(k) for j in range(self.width)]
            self.tuples[label] = rows
        self.warm_up()

    def request(self, index: int) -> Request:
        label = self.cycle[index % len(self.cycle)]
        tuples, budget = self.tuples[label], self.fresh_budget()
        randint = self.rng.randint
        probabilities = [Fraction(randint(1, 999), 1000) for _ in tuples]

        def call() -> Any:
            facts = [Fact(relation, arguments) for relation, arguments in tuples]
            tid = ProbabilisticInstance(Instance(facts), dict(zip(facts, probabilities)))
            self.engine = CompilationEngine()
            return self.engine.probability(SAFE_QUERY, tid, budget=budget)

        def expected() -> Fraction:
            k = int(label[1:])
            rows = [probabilities[k + i * self.width : k + (i + 1) * self.width] for i in range(k)]
            return references.lifted_family(probabilities[:k], rows)

        return Request(label, call, expected)


# -- parallel --------------------------------------------------------------------


class Parallel(Workload):
    """One warmed two-worker pool; requests are whole batches: a
    ``map_probability`` over fresh valuations of three instances, or a
    ``reweight_many`` of one compiled artifact through shared memory."""

    name = "parallel"
    cycle = ("map", "reweight", "map")
    pairs_per_instance = 4
    reweight_batch = 32
    workers = 2

    def setup(self) -> None:
        self.map_kinds = [path_kind(120), ktree_kind(120), rst_kind(240, True)]
        self.reweight_kind = path_kind(120)
        self.compiled = CompilationEngine().compile(PATH_QUERY, self.reweight_kind.instance)
        # Start the shared-memory resource tracker before the pool forks, so
        # the workers share it and close() can stop and reap it.
        resource_tracker.ensure_running()
        self.target = self.pool = ParallelEngine(workers=self.workers)
        self.warm_up_target(rounds=2)

    def warm_up_target(self, rounds: int) -> None:
        # Every worker may receive pairs of every instance: warm until each
        # has compiled all three.
        for _ in range(rounds):
            for index in range(len(self.cycle)):
                self.request(index).call()

    def start_inline(self) -> None:
        """The same batches on ``ParallelEngine(workers=1)`` (traced run only)."""
        self.target = self.inline = ParallelEngine(workers=1)
        self.warm_up_target(rounds=1)

    def prepare_references(self) -> None:
        self.ktree = KtreeReference(self.map_kinds[1])

    def request(self, index: int) -> Request:
        label = self.cycle[index % len(self.cycle)]
        target = self.target
        if label == "map":
            pairs = []
            for kind in self.map_kinds:
                for _ in range(self.pairs_per_instance):
                    tid = ProbabilisticInstance(kind.instance, self.valuation(kind.instance))
                    pairs.append((kind, tid))
            items = [(kind.query, tid) for kind, tid in pairs]

            def call() -> Any:
                return list(target.map_probability(items).values)

            def expected() -> list:
                return [
                    self.ktree(tid) if kind.reference == "ktree"
                    else closed_form(kind, tid.valuation())
                    for kind, tid in pairs
                ]

            return Request(label, call, expected)
        maps = [self.valuation(self.reweight_kind.instance) for _ in range(self.reweight_batch)]
        compiled = self.compiled

        def call() -> Any:
            return target.reweight_many(compiled, maps)

        return Request(
            label, call, lambda: [closed_form(self.reweight_kind, m) for m in maps]
        )

    def observe(self, counts: LayerCounts) -> None:
        report = self.target.last_report
        if report is None:
            return
        counts.shards.append(report.shard_count)
        counts.add_stats(report.stats, report.route_mix)
        for value in report.stats.values():
            counts.worker_hits += value.hits
            counts.worker_lookups += value.total

    def close(self) -> None:
        for pool in (getattr(self, "pool", None), getattr(self, "inline", None)):
            if pool is not None:
                pool.close()
        resource_tracker._resource_tracker._stop()  # waits for the tracker to exit
        super().close()


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (Cold, Warm, Restart, Lifted, Parallel)
}
