"""E5 — Table 2, "any instance / inversion-free UCQ / OBDD of constant width"
(Theorem 9.6, [36] Proposition 5).

OBDD width of an inversion-free UCQ on *arbitrary* (here: dense random ranked)
instances of growing size, under the element-major variable order induced by
the unfolding (facts by the last of their elements in a preorder of the
prefix elimination forest, :meth:`Unfolding.element_order`): the width stays
constant even though the instances have growing treewidth.
"""

from repro.data.signature import Signature
from repro.experiments import ScalingSeries, format_table
from repro.generators import random_ranked_instance
from repro.provenance import compile_query_to_obdd
from repro.provenance.variable_orders import element_major_order
from repro.queries import inversion_free_example
from repro.unfold import unfold_instance

RST = Signature([("R", 1), ("S", 2), ("T", 1)])
SIZES = (10, 20, 40, 80)


def compile_width(fact_count: int) -> int:
    query = inversion_free_example()
    instance = random_ranked_instance(RST, max(6, fact_count // 3), fact_count, seed=fact_count)
    unfolding = unfold_instance(query, instance)
    ordered = element_major_order(unfolding.unfolded, unfolding.element_order())
    compiled = compile_query_to_obdd(query, unfolding.unfolded, order=ordered)
    return compiled.width


def test_e5_inversion_free_constant_width(benchmark):
    series = ScalingSeries("OBDD width of an inversion-free UCQ")
    for size in SIZES:
        series.add(size, compile_width(size))
    benchmark(compile_width, SIZES[-1])
    print()
    print(format_table(["|I| (facts)", "OBDD width"], series.rows()))
    assert series.is_roughly_constant(tolerance=2.0), "inversion-free UCQs have constant-width OBDDs"
