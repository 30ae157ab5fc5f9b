"""Engine sessions: batched, cached compilation over one instance family.

Run with::

    python examples/engine_sessions.py

A :class:`repro.engine.CompilationEngine` is a memoizing session: structural
artifacts (Gaifman graph, tree/path decompositions, fact orders) are computed
once per instance (keyed by content fingerprint), lineages / OBDDs once per
(query, instance), and probabilities once per (query, TID object).  This
example runs a workload of several queries against a bounded-treewidth
instance, batched through ``probability_many`` and ``compile_many``, then
shows that editing the instance (a new fact) changes its fingerprint and
transparently invalidates the cache.
"""

import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.data import Fact, ProbabilisticInstance
from repro.engine import CompilationEngine
from repro.generators import labelled_partial_ktree_instance
from repro.queries import parse_ucq


def main() -> None:
    instance = labelled_partial_ktree_instance(14, 2, seed=5)
    tid = ProbabilisticInstance.uniform(instance, Fraction(1, 2))
    print(f"instance: {instance!r}, fingerprint {instance.fingerprint[:12]}...")

    workload = [
        parse_ucq("R(x), S(x, y), T(y)"),
        parse_ucq("R(x), S(x, y)"),
        parse_ucq("S(x, y), T(y) | R(x), S(x, y)"),
        parse_ucq("R(x), S(x, y), T(y)"),  # repeated on purpose: served from cache
    ]

    engine = CompilationEngine()
    compiled = engine.compile_many(workload, instance)
    for query, obdd in zip(workload, compiled):
        print(f"OBDD size {obdd.size:>4}, width {obdd.width}:  {query}")

    values = engine.probability_many(workload, tid)
    for query, value in zip(workload, values):
        print(f"P = {float(value):.6f}  {query}")

    print("cache stats after the batch:")
    for name, stats in engine.cache_info().items():
        print(f"  {name:>11}: {stats}")

    # Content-based invalidation: a derived instance has a new fingerprint,
    # so nothing stale is ever served — the engine just recompiles.
    grown = instance.with_facts([Fact("S", (instance.domain[0], "fresh-element"))])
    print(f"grown instance fingerprint {grown.fingerprint[:12]}... "
          f"(differs: {grown.fingerprint != instance.fingerprint})")
    engine.compile(workload[0], grown)
    print(f"obdd cache after recompiling on the grown instance: {engine.stats['obdd']}")


if __name__ == "__main__":
    main()
