"""Command-line interface for the library.

Four subcommands cover the everyday workflow on files produced by
:mod:`repro.data.io` (JSON or CSV instances, optionally with probabilities):

``info``
    Structural report: size, domain, signature, treewidth, pathwidth,
    tree-depth.
``lineage``
    Compile the lineage of a UCQ≠ (given in the textual syntax of
    :func:`repro.queries.parser.parse_ucq`) and report circuit / OBDD /
    d-DNNF sizes, optionally emitting Graphviz DOT.
``probability``
    Exact (or approximate) probability evaluation of a UCQ≠ on a TID file.
``batch``
    Probabilities of several queries on one TID file through a single
    :class:`repro.engine.CompilationEngine` session, so decompositions and
    lineage artifacts are shared across the whole workload.
``convert``
    Convert between the JSON and CSV instance formats.
``store``
    Maintenance of a persistent artifact store directory
    (:mod:`repro.store`): ``stats``, ``verify`` (optionally with
    ``--repair``), ``gc``, and ``quarantine-list``.

The ``lineage`` and ``probability`` subcommands route their compilations
through the process-wide default engine as well, which makes repeated
invocations within one process (e.g. from tests) benefit from the cache.
``--store PATH`` on ``lineage``/``probability``/``batch`` opens a
persistent artifact store below the engine's caches, so a *second process*
answering the same workload starts from the compiled artifacts instead of
recompiling.

Run ``python -m repro.cli --help`` (or the ``repro`` console script) for
details; every subcommand prints to stdout and returns a conventional exit
code, so the CLI is scriptable.

Exit codes distinguish the typed failures a wrapper script wants to branch
on: 0 success, 1 any other library error, 2 usage errors (argparse owns
it), 3 the query is unsafe (:class:`~repro.errors.UnsafeQueryError` under a
lifted method), 4 the ``--timeout`` deadline passed
(:class:`~repro.errors.DeadlineExceeded`), 5 a ``--budget-*`` cap was
exhausted on every route (:class:`~repro.errors.BudgetExceeded`).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from repro.data.gaifman import instance_tree_depth
from repro.data.io import (
    circuit_to_dot,
    dnnf_to_dot,
    instance_to_csv,
    load_instance_csv,
    load_tid,
    obdd_to_dot,
    save_instance,
    save_instance_csv,
    tid_to_dict,
)
from repro.data.tid import ProbabilisticInstance
from repro.errors import (
    BudgetExceeded,
    DeadlineExceeded,
    ReproError,
    UnsafeQueryError,
)

# Scriptable exit codes (argparse itself exits with 2 on usage errors).
EXIT_FAILURE = 1
EXIT_UNSAFE = 3
EXIT_DEADLINE = 4
EXIT_BUDGET = 5


def _load(path: str) -> ProbabilisticInstance:
    """Load a JSON or CSV file as a TID instance (probabilities default to 1)."""
    location = Path(path)
    if not location.exists():
        raise ReproError(f"no such file: {path}")
    if location.suffix.lower() == ".csv":
        return load_instance_csv(location)
    return load_tid(location)


def _add_instance_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("instance", help="path to a JSON or CSV instance file")


def _command_info(arguments: argparse.Namespace) -> int:
    from repro.engine import default_engine

    tid = _load(arguments.instance)
    instance = tid.instance
    # One engine session: the Gaifman graph, decompositions, and the fused
    # tree encoding are each computed once and shared across the report.
    engine = default_engine()
    print(f"facts: {len(instance)}")
    print(f"domain size: {instance.domain_size}")
    relations = ", ".join(
        f"{relation.name}/{relation.arity}" for relation in instance.signature
    )
    print(f"signature: {relations}")
    print(f"treewidth (upper bound): {engine.tree_decomposition_of(instance).width}")
    print(f"pathwidth (upper bound): {engine.path_decomposition_of(instance).width}")
    print(f"tree-depth: {instance_tree_depth(instance)}")
    encoding = engine.tree_encoding_of(instance)
    print(f"tree encoding: {len(encoding)} nodes, width {encoding.width}")
    uncertain = sum(1 for f in instance.facts if tid.probability_of(f) != 1)
    print(f"uncertain facts: {uncertain}")
    return 0


def _command_lineage(arguments: argparse.Namespace) -> int:
    from repro.engine import CompilationEngine, default_engine
    from repro.provenance.compile_obdd import compile_query_to_obdd
    from repro.provenance.lineage import lineage_of
    from repro.queries.parser import parse_ucq

    if arguments.store is not None:
        # A persistent store is a per-invocation decision; the process-wide
        # default engine stays store-less.
        engine = CompilationEngine(store=arguments.store)
    else:
        engine = default_engine()
    tid = _load(arguments.instance)
    query = parse_ucq(arguments.query)
    lineage = lineage_of(query, tid.instance, engine=engine)
    circuit = lineage.to_circuit()
    compiled = compile_query_to_obdd(query, tid.instance, engine=engine)
    dnnf = compiled.to_dnnf()
    # One pass over the columns serves size, width, and model count together.
    stats = compiled.stats()
    print(f"query: {query}")
    print(f"minimal matches (DNF clauses): {lineage.clause_count}")
    print(f"circuit gates: {circuit.size}")
    print(f"OBDD size: {stats.size}  width: {stats.width}  models: {stats.model_count}")
    print(f"d-DNNF nodes: {dnnf.size}")
    if arguments.dot == "circuit":
        print(circuit_to_dot(circuit))
    elif arguments.dot == "obdd":
        print(obdd_to_dot(compiled.manager, compiled.root))
    elif arguments.dot == "dnnf":
        print(dnnf_to_dot(dnnf))
    return 0


def _command_probability(arguments: argparse.Namespace) -> int:
    from repro.engine import CompilationEngine, ProbabilityBounds, default_engine
    from repro.probability.approximation import approximate_probability
    from repro.probability.evaluation import probability
    from repro.queries.parser import parse_ucq
    from repro.resilience import ResourceBudget

    tid = _load(arguments.instance)
    query = parse_ucq(arguments.query)
    if arguments.approximate:
        result = approximate_probability(
            query, tid, epsilon=arguments.epsilon, delta=arguments.delta
        )
        print(f"estimate: {result.estimate:.6f} ({result.method}, {result.samples} samples)")
        return 0
    budget = None
    if (
        arguments.timeout is not None
        or arguments.budget_nodes is not None
        or arguments.budget_rows is not None
    ):
        budget = ResourceBudget(
            node_limit=arguments.budget_nodes,
            row_limit=arguments.budget_rows,
            timeout=arguments.timeout,
        )
    if arguments.degrade or arguments.store is not None:
        # Degradation and the persistent store are engine-construction
        # decisions (the process-wide default engine stays strict and
        # store-less), so opting in gets a private session.
        engine = CompilationEngine(
            degradation="karp_luby" if arguments.degrade else None,
            store=arguments.store,
        )
    else:
        engine = default_engine()
    if arguments.explain:
        decision = engine.choose_route(query, tid)
        print(f"route: {decision.method} ({decision.reason})")
        print(f"liftable: {decision.liftable}  facts: {decision.instance_facts}")
        # The failover chain: the head, then the other feasible routes.
        chain = sorted(decision.feasible, key=lambda route: route != decision.method)
        print(f"feasible: {', '.join(chain) or 'none'}")
        if decision.infeasible:
            print(f"infeasible: {', '.join(decision.infeasible)}")
    value = probability(query, tid, method=arguments.method, engine=engine, budget=budget)
    if arguments.explain and engine.last_decision is not None:
        walked = engine.last_decision
        for attempt in walked.attempts:
            outcome = "ok" if attempt.succeeded else attempt.error
            print(f"attempt[{attempt.route}]: {outcome} ({attempt.seconds:.6f}s)")
    if isinstance(value, ProbabilityBounds):
        print(
            f"probability in [{float(value.lower):.6f}, {float(value.upper):.6f}]"
            f" (degraded: {value.method}, estimate {value.estimate:.6f},"
            f" {value.samples} samples)"
        )
    elif isinstance(value, float):
        print(f"probability: {value:.6f} (float fast path)")
    else:
        print(f"probability: {value} (= {float(value):.6f})")
    return 0


def _command_batch(arguments: argparse.Namespace) -> int:
    from repro.engine import CompilationEngine, ParallelEngine
    from repro.queries.parser import parse_ucq

    if arguments.workers < 1:
        raise ReproError(f"--workers must be at least 1, got {arguments.workers}")
    tid = _load(arguments.instance)
    queries = [parse_ucq(text) for text in arguments.query]
    if arguments.workers > 1:
        with ParallelEngine(workers=arguments.workers, store=arguments.store) as parallel:
            values = parallel.probability_many(queries, tid, method=arguments.method)
            report = parallel.last_report
    else:
        engine = CompilationEngine(store=arguments.store)
        values = engine.probability_many(queries, tid, method=arguments.method)
        report = None
    for text, value in zip(arguments.query, values):
        print(f"{text}: {value} (= {float(value):.6f})")
    if arguments.stats:
        if report is not None:
            print(f"workers: {report.workers}  shard sizes: {list(report.shard_sizes)}")
            for worker, stats in enumerate(report.worker_stats):
                summary = ", ".join(f"{name}: {value}" for name, value in stats.items())
                print(f"worker[{worker}]: {summary}")
            merged = report.stats
            routes = report.route_mix
        else:
            merged = engine.cache_info()
            routes = engine.route_mix()
        for name, stats in merged.items():
            print(f"cache[{name}]: {stats}")
        if routes:
            summary = ", ".join(
                f"{route}: {count}" for route, count in sorted(routes.items())
            )
            print(f"routes: {summary}")
    return 0


def _command_convert(arguments: argparse.Namespace) -> int:
    tid = _load(arguments.instance)
    target = Path(arguments.output)
    if target.suffix.lower() == ".csv":
        save_instance_csv(tid, target)
    elif target.suffix.lower() == ".json":
        save_instance(tid, target)
    else:
        raise ReproError(f"unknown output format for {target.name!r} (use .json or .csv)")
    print(f"wrote {target}")
    return 0


def _command_show(arguments: argparse.Namespace) -> int:
    tid = _load(arguments.instance)
    if arguments.format == "json":
        print(json.dumps(tid_to_dict(tid), indent=2, sort_keys=True))
    else:
        print(instance_to_csv(tid.instance, tid.valuation()), end="")
    return 0


def _build_repair_hook(instance_paths: Sequence[str]):
    """The ``store verify --repair`` recompile hook.

    A damaged columnar entry is re-derived when its metadata names the
    fingerprint of one of the given source instance files; anything else
    returns ``None`` and the sweep deletes the entry with a logged reason.
    The repair engine is deliberately store-less: the sweep holds the
    store's exclusive lock, and re-derivation must not re-enter it.
    """
    from repro.engine import CompilationEngine
    from repro.queries.parser import parse_ucq

    engine = CompilationEngine()
    instances = {}
    for path in instance_paths:
        tid = _load(path)
        instances[tid.instance.fingerprint] = tid.instance

    def recompile(meta: dict) -> "tuple[object, object] | None":
        fingerprint, query = meta.get("instance"), meta.get("query")
        if meta.get("kind") != "columnar" or not isinstance(query, str):
            return None
        instance = instances.get(fingerprint) if isinstance(fingerprint, str) else None
        if instance is None:
            return None
        try:
            artifact = engine.columnar(
                parse_ucq(query), instance, use_path_decomposition=bool(meta.get("use_path"))
            )
        except ReproError:
            return None
        return artifact, instance

    return recompile


def _command_store(arguments: argparse.Namespace) -> int:
    from repro.store import ArtifactStore

    store = ArtifactStore(arguments.root)
    action = arguments.store_command
    if action == "stats":
        for name, value in store.stats().as_dict().items():
            print(f"{name}: {value}")
        return 0
    if action == "quarantine-list":
        records = store.quarantine_list()
        if not records:
            print("quarantine is empty")
            return 0
        for record in records:
            print(f"{record.name}  key={record.key or '?'}  reason: {record.reason}")
        return 0
    if action == "gc":
        removed = store.gc(
            max_bytes=arguments.max_bytes,
            max_age_seconds=arguments.max_age,
            clear_quarantine=arguments.clear_quarantine,
        )
        print(f"evicted {len(removed)} entries")
        for key in removed:
            print(f"  {key}")
        return 0
    # verify [--repair [--instance FILE ...]]
    recompile = _build_repair_hook(arguments.instance or []) if arguments.repair else None
    report = store.verify(recompile=recompile)
    print(f"checked: {report.checked}  ok: {report.ok}  damaged: {len(report.damaged)}")
    for key, reason in report.damaged:
        print(f"damaged {key}: {reason}")
    for key in report.quarantined:
        print(f"quarantined {key}")
    for key in report.repaired:
        print(f"repaired {key}")
    for key, reason in report.deleted:
        print(f"deleted {key}: {reason}")
    if arguments.repair:
        # Repair resolves every damaged entry (rewritten in place or deleted
        # with its reason above); failure here means damage is still on disk.
        return 0 if report.clean else EXIT_FAILURE
    return 0 if not report.damaged else EXIT_FAILURE


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser for the ``repro`` command."""
    from repro.engine import ROUTES

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Tractable lineages on treelike instances: CLI front-end",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    info = subparsers.add_parser("info", help="structural report on an instance file")
    _add_instance_argument(info)
    info.set_defaults(handler=_command_info)

    lineage = subparsers.add_parser("lineage", help="compile and measure query lineage")
    _add_instance_argument(lineage)
    lineage.add_argument("--query", required=True, help="UCQ≠ in textual syntax")
    lineage.add_argument(
        "--dot",
        choices=["circuit", "obdd", "dnnf"],
        default=None,
        help="also print a Graphviz DOT rendering of the chosen representation",
    )
    lineage.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="persistent artifact store directory (created on first use)",
    )
    lineage.set_defaults(handler=_command_lineage)

    prob = subparsers.add_parser("probability", help="probability of a UCQ≠ on a TID file")
    _add_instance_argument(prob)
    prob.add_argument("--query", required=True, help="UCQ≠ in textual syntax")
    prob.add_argument("--method", default="auto", choices=list(ROUTES))
    prob.add_argument(
        "--explain",
        action="store_true",
        help="print the dichotomy router's decision (liftability, feasible and gated routes)",
    )
    prob.add_argument("--approximate", action="store_true", help="use Karp-Luby sampling")
    prob.add_argument("--epsilon", type=float, default=0.05)
    prob.add_argument("--delta", type=float, default=0.05)
    prob.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock deadline for the whole evaluation (exit code 4 when exceeded)",
    )
    prob.add_argument(
        "--budget-nodes",
        type=int,
        default=None,
        metavar="N",
        help="cap OBDD node allocations per route attempt (exit code 5 when every route blows it)",
    )
    prob.add_argument(
        "--budget-rows",
        type=int,
        default=None,
        metavar="N",
        help="cap lifted-executor rows (facts scanned by a ground atom) per route attempt",
    )
    prob.add_argument(
        "--degrade",
        action="store_true",
        help="when every exact route fails under --budget-*/--timeout, return labelled"
        " Karp-Luby bounds instead of exiting with an error (method=auto only)",
    )
    prob.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="persistent artifact store directory: compiled artifacts survive the process"
        " and warm-start the next invocation",
    )
    prob.set_defaults(handler=_command_probability)

    batch = subparsers.add_parser(
        "batch",
        help="probabilities of several UCQ≠ on one TID file through a shared engine session",
    )
    _add_instance_argument(batch)
    batch.add_argument(
        "--query",
        action="append",
        required=True,
        help="UCQ≠ in textual syntax (repeatable; all queries share one compilation session)",
    )
    batch.add_argument("--method", default="auto", choices=list(ROUTES))
    batch.add_argument(
        "--stats", action="store_true", help="also print the engine's cache hit/miss statistics"
    )
    batch.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the batch (>1 shards the workload through ParallelEngine)",
    )
    batch.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="persistent artifact store directory shared by all workers",
    )
    batch.set_defaults(handler=_command_batch)

    convert = subparsers.add_parser("convert", help="convert between JSON and CSV formats")
    _add_instance_argument(convert)
    convert.add_argument("--output", required=True, help="target file (.json or .csv)")
    convert.set_defaults(handler=_command_convert)

    store = subparsers.add_parser(
        "store", help="maintain a persistent artifact store directory"
    )
    store_commands = store.add_subparsers(dest="store_command", required=True)
    store_stats = store_commands.add_parser(
        "stats", help="disk occupancy and traffic counters"
    )
    store_stats.add_argument("root", help="store directory")
    store_verify = store_commands.add_parser(
        "verify",
        help="re-verify every entry; damage is quarantined (exit code 1 when found)",
    )
    store_verify.add_argument("root", help="store directory")
    store_verify.add_argument(
        "--repair",
        action="store_true",
        help="re-derive damaged entries from --instance files when possible,"
        " delete them with a logged reason otherwise",
    )
    store_verify.add_argument(
        "--instance",
        action="append",
        default=None,
        metavar="FILE",
        help="source instance file for --repair (repeatable; matched by fingerprint)",
    )
    store_gc = store_commands.add_parser(
        "gc", help="evict entries by age and total size (oldest first)"
    )
    store_gc.add_argument("root", help="store directory")
    store_gc.add_argument(
        "--max-bytes", type=int, default=None, metavar="N",
        help="evict oldest entries until the store fits in N bytes",
    )
    store_gc.add_argument(
        "--max-age", type=float, default=None, metavar="SECONDS",
        help="evict entries older than SECONDS",
    )
    store_gc.add_argument(
        "--clear-quarantine", action="store_true",
        help="also empty the quarantine directory",
    )
    store_quarantine = store_commands.add_parser(
        "quarantine-list", help="list quarantined entries and their reasons"
    )
    store_quarantine.add_argument("root", help="store directory")
    store.set_defaults(handler=_command_store)

    show = subparsers.add_parser("show", help="print an instance file to stdout")
    _add_instance_argument(show)
    show.add_argument("--format", choices=["json", "csv"], default="json")
    show.set_defaults(handler=_command_show)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point: parse arguments, dispatch, report errors on stderr."""
    parser = build_parser()
    arguments = parser.parse_args(argv)
    try:
        return arguments.handler(arguments)
    except UnsafeQueryError as error:
        print(f"error: unsafe query: {error}", file=sys.stderr)
        return EXIT_UNSAFE
    except DeadlineExceeded as error:
        print(f"error: deadline exceeded: {error}", file=sys.stderr)
        return EXIT_DEADLINE
    except BudgetExceeded as error:
        print(f"error: budget exhausted: {error}", file=sys.stderr)
        return EXIT_BUDGET
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":  # pragma: no cover - exercised through main() in tests
    sys.exit(main())
