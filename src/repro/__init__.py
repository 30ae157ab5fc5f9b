"""repro — Tractable Lineages on Treelike Instances.

A faithful Python implementation of the constructions of Amarilli, Bourhis and
Senellart, *Tractable Lineages on Treelike Instances: Limits and Extensions*
(PODS 2016): relational instances and tuple-independent databases, tree/path
decompositions and tree-depth, lineage representations (circuits, formulas,
OBDDs, d-DNNFs), provenance constructions on tree encodings via deterministic
tree automata, exact probability evaluation, the intricacy meta-dichotomy, and
the unfolding technique for inversion-free (safe) queries.

For repeated workloads, :mod:`repro.engine` provides the
:class:`CompilationEngine` session object: per-instance structural artifacts
(Gaifman graph, decompositions, fact orders) and per-(query, instance)
lineages/OBDDs are memoized behind content fingerprints, and probabilities
per TID object, with batched entry points ``compile_many`` and
``probability_many`` (see the ``repro.engine`` package docstring for the
caching keys and invalidation rules).  :class:`ParallelEngine` shards
probability batches across ``multiprocessing`` workers, :mod:`repro.store`
persists compiled artifacts to a crash-safe checksummed disk tier shared
across processes (:class:`ArtifactStore`, accepted by both engines as
``store=``), and
:mod:`repro.testing` provides the
differential oracle (:class:`~repro.testing.ProbabilityOracle`) that
cross-checks every probability backend on seeded random workloads.

Quickstart::

    from repro import (
        ProbabilisticInstance, parse_cq, probability, rst_chain_instance,
    )

    instance = rst_chain_instance(4)
    query = parse_cq("R(x), S(x, y), T(y)")
    tid = ProbabilisticInstance.uniform(instance, 0.5)
    print(probability(query, tid))
"""

from repro.booleans import FBDD, OBDD, BooleanCircuit, DNNF, Formula, SweepResult
from repro.data import (
    Fact,
    Instance,
    PXMLDocument,
    ProbabilisticInstance,
    Signature,
    fact,
    gaifman_graph,
    graph_instance,
    instance_pathwidth,
    instance_tree_depth,
    instance_treewidth,
    pattern,
    pattern_probability,
    random_pxml_document,
)
from repro.data.io import load_instance, load_tid, save_instance
from repro.engine import CacheStats, CompilationEngine, ParallelEngine, default_engine
from repro.generators import (
    grid_instance,
    labelled_line_instance,
    probabilistic_xml_instance,
    rst_chain_instance,
    unary_instance,
)
# ``probability`` is the subpackage itself, which is callable as
# :func:`repro.probability.evaluation.probability`; importing the function
# here would hide the subpackage (``import repro.probability.lifted``).
from repro import probability
from repro.probability import (
    dissociation_bounds,
    is_liftable,
    karp_luby_probability,
    lifted_probability,
    monte_carlo_probability,
    safe_plan_probability,
)
from repro.provenance import (
    compile_query_to_dnnf,
    compile_query_to_obdd,
    lineage_of,
    provenance_dnnf,
    tree_encoding,
    ucq_lineage_dnnf,
)
from repro.queries import (
    ConjunctiveQuery,
    ConjunctiveRPQ,
    UnionOfConjunctiveQueries,
    c2rpq_lineage,
    is_intricate,
    is_inversion_free,
    parse_cq,
    parse_regex,
    parse_ucq,
    qp,
    rpq_pairs,
    two_incident_paths_query,
)
from repro.semirings import query_provenance_polynomial
from repro.store import ArtifactStore
from repro.structure import (
    clique_expression,
    pathwidth,
    tree_decomposition,
    tree_depth,
    treewidth,
)
from repro.unfold import unfold_instance, verify_unfolding

__version__ = "1.0.0"

__all__ = [
    "ArtifactStore",
    "BooleanCircuit",
    "CacheStats",
    "CompilationEngine",
    "ConjunctiveQuery",
    "ConjunctiveRPQ",
    "DNNF",
    "FBDD",
    "Fact",
    "Formula",
    "Instance",
    "OBDD",
    "PXMLDocument",
    "ParallelEngine",
    "ProbabilisticInstance",
    "Signature",
    "SweepResult",
    "UnionOfConjunctiveQueries",
    "__version__",
    "c2rpq_lineage",
    "clique_expression",
    "compile_query_to_dnnf",
    "compile_query_to_obdd",
    "default_engine",
    "dissociation_bounds",
    "fact",
    "gaifman_graph",
    "graph_instance",
    "grid_instance",
    "instance_pathwidth",
    "instance_tree_depth",
    "instance_treewidth",
    "is_intricate",
    "is_inversion_free",
    "is_liftable",
    "karp_luby_probability",
    "labelled_line_instance",
    "lifted_probability",
    "lineage_of",
    "load_instance",
    "load_tid",
    "monte_carlo_probability",
    "parse_cq",
    "parse_regex",
    "parse_ucq",
    "pathwidth",
    "pattern",
    "pattern_probability",
    "probabilistic_xml_instance",
    "probability",
    "provenance_dnnf",
    "qp",
    "query_provenance_polynomial",
    "random_pxml_document",
    "rpq_pairs",
    "rst_chain_instance",
    "safe_plan_probability",
    "save_instance",
    "tree_decomposition",
    "tree_depth",
    "tree_encoding",
    "treewidth",
    "two_incident_paths_query",
    "ucq_lineage_dnnf",
    "unary_instance",
    "unfold_instance",
    "verify_unfolding",
]
