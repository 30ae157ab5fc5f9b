"""A2 (extension) — two-terminal reliability: full MSO strength on treelike instances.

Connectivity is MSO-definable but not UCQ-definable; the reliability automaton
exercises the general Theorem 3.2 pipeline beyond UCQ≠.  We measure the cost
and the d-DNNF size of exact s-t reliability on ladder networks of growing
length (bounded treewidth): both grow roughly linearly, while the same
computation on n x n grids grows much faster with the width.
"""

import time
from fractions import Fraction

from repro.data.tid import ProbabilisticInstance
from repro.experiments import ScalingSeries, classify_growth, format_table
from repro.generators import grid_instance
from repro.provenance import provenance_dnnf, st_connectivity_automaton, st_reliability, tree_encoding

# The d-DNNF grows by about 87 nodes per unit of length from a negative
# intercept, so a fit over lengths 3-9 alone reads a slope above 1.6 for a
# linear series; the long ladders measure growth where the fit means it.
LENGTHS = (3, 5, 7, 9, 17, 33, 65)


def ladder_reliability(length: int) -> Fraction:
    instance = grid_instance(2, length)
    tid = ProbabilisticInstance.uniform(instance, Fraction(3, 4))
    return st_reliability(tid, "v0_0", f"v1_{length - 1}")


def test_a2_reliability_scales_on_ladders(benchmark):
    time_series = ScalingSeries("ladder reliability time (s)")
    size_series = ScalingSeries("reliability d-DNNF size")
    for length in LENGTHS:
        start = time.perf_counter()
        value = ladder_reliability(length)
        time_series.add(length, time.perf_counter() - start)
        assert 0 < value < 1
        encoding = tree_encoding(grid_instance(2, length))
        automaton = st_connectivity_automaton("v0_0", f"v1_{length - 1}")
        size_series.add(length, provenance_dnnf(automaton, encoding).size)
    benchmark(ladder_reliability, LENGTHS[-1])
    print()
    print(
        format_table(
            ["ladder length", "seconds", "d-DNNF size"],
            [
                (int(n), round(t, 5), int(s))
                for (n, t), (_, s) in zip(time_series.rows(), size_series.rows())
            ],
        )
    )
    print("d-DNNF growth:", classify_growth(size_series))
    assert size_series.loglog_slope() < 1.6
