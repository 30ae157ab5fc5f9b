"""Lineage representations: circuits, formulas, OBDDs, FBDDs, d-DNNFs.

The compilation and evaluation hot paths are iterative, array-oriented
kernels.  :mod:`repro.booleans.obdd` builds reduced OBDDs (trie-driven DNF
compilation, ``apply``, restriction); :mod:`repro.booleans.columnar` flattens
a reduced OBDD into structure-of-arrays ``(var, lo, hi)`` columns and
evaluates it there — exact and float probability, batch re-weighting, model
count and width — and is also the layout the store and the shared-memory
transport carry.  The seed recursive algorithms are preserved as
differential references in :mod:`repro.booleans.reference`.
"""

from repro.booleans.circuit import BooleanCircuit, Gate, GateKind, circuit_from_function
from repro.booleans.columnar import (
    ColumnarOBDD,
    SweepResult,
    array_backend,
    columnar_from_buffer,
    columnar_from_obdd,
)
from repro.booleans.dnnf import DNNF, DNNFNode, dnnf_from_obdd
from repro.booleans.fbdd import (
    FBDD,
    compile_circuit_to_fbdd,
    fbdd_from_clauses,
    fbdd_from_obdd,
)
from repro.booleans.formula import (
    Formula,
    circuit_to_formula,
    minimal_formula_size,
    parity_circuit,
    parity_formula,
    threshold_2_circuit,
    threshold_2_formula,
)
from repro.booleans.obdd import FALSE_NODE, OBDD, TRUE_NODE, minimal_obdd_width
from repro.booleans.reference import (
    build_from_clauses_fold,
    model_count_recursive,
    probability_recursive,
    width_by_cuts,
)

__all__ = [
    "BooleanCircuit",
    "ColumnarOBDD",
    "DNNF",
    "DNNFNode",
    "FALSE_NODE",
    "FBDD",
    "Formula",
    "Gate",
    "GateKind",
    "OBDD",
    "SweepResult",
    "TRUE_NODE",
    "array_backend",
    "build_from_clauses_fold",
    "circuit_from_function",
    "columnar_from_buffer",
    "columnar_from_obdd",
    "circuit_to_formula",
    "compile_circuit_to_fbdd",
    "dnnf_from_obdd",
    "fbdd_from_clauses",
    "fbdd_from_obdd",
    "minimal_formula_size",
    "minimal_obdd_width",
    "model_count_recursive",
    "parity_circuit",
    "parity_formula",
    "probability_recursive",
    "threshold_2_circuit",
    "threshold_2_formula",
    "width_by_cuts",
]
