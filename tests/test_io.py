"""Tests for serialization (repro.data.io)."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.booleans.circuit import BooleanCircuit
from repro.data.instance import Fact, Instance, fact
from repro.data.io import (
    circuit_to_dot,
    dnnf_to_dot,
    instance_from_csv,
    instance_from_dict,
    instance_to_csv,
    instance_to_dict,
    load_instance,
    load_instance_csv,
    load_tid,
    obdd_to_dot,
    save_instance,
    save_instance_csv,
    tid_from_dict,
    tid_to_dict,
    tree_decomposition_to_dot,
)
from repro.data.signature import Signature
from repro.data.tid import ProbabilisticInstance
from repro.errors import InstanceError
from repro.generators.lines import rst_chain_instance
from repro.generators.random_instances import random_instance, random_probabilities
from repro.provenance.compile_obdd import compile_query_to_obdd
from repro.queries.library import unsafe_rst
from repro.structure.graph import path_graph
from repro.structure.tree_decomposition import tree_decomposition


# -- JSON round trips -----------------------------------------------------------------


def test_instance_dict_round_trip():
    instance = rst_chain_instance(3)
    data = instance_to_dict(instance)
    restored = instance_from_dict(data)
    assert restored == instance
    assert restored.signature == instance.signature


def test_instance_from_dict_rejects_malformed_input():
    with pytest.raises(InstanceError):
        instance_from_dict({"facts": []})
    with pytest.raises(InstanceError):
        instance_from_dict({"signature": {"R": 1}, "facts": [{"relation": "R"}]})
    for argument in (["x"], {"x": 1}):
        with pytest.raises(InstanceError, match="scalars"):
            instance_from_dict(
                {"signature": {"R": 1}, "facts": [{"relation": "R", "arguments": [argument]}]}
            )


def test_tid_from_dict_rejects_malformed_probabilities():
    data = tid_to_dict(ProbabilisticInstance.uniform(rst_chain_instance(2), Fraction(1, 3)))
    data["probabilities"][0]["probability"] = "abc"
    with pytest.raises(InstanceError):
        tid_from_dict(data)
    data["probabilities"] = {"R": 1}
    with pytest.raises(InstanceError):
        tid_from_dict(data)


def test_cli_reports_malformed_probabilities_as_errors(tmp_path, capsys):
    from repro.cli import main

    data = tid_to_dict(ProbabilisticInstance.uniform(rst_chain_instance(2), Fraction(1, 3)))
    data["probabilities"][0]["probability"] = "abc"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["probability", str(path), "--query", "R(x), S(x, y), T(y)"]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_reports_non_scalar_fact_arguments_as_errors(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "nested.json"
    path.write_text(
        json.dumps({"signature": {"R": 1}, "facts": [{"relation": "R", "arguments": [["x"]]}]})
    )
    assert main(["probability", str(path), "--query", "R(x)"]) == 1
    assert "error:" in capsys.readouterr().err


def test_tid_dict_round_trip_preserves_fractions():
    instance = rst_chain_instance(2)
    tid = ProbabilisticInstance.uniform(instance, Fraction(1, 3))
    data = tid_to_dict(tid)
    restored = tid_from_dict(data)
    assert restored.instance == instance
    for f in instance.facts:
        assert restored.probability_of(f) == Fraction(1, 3)
    # The JSON payload is actually JSON-serializable.
    json.dumps(data)


def test_save_and_load_json_files(tmp_path):
    instance = rst_chain_instance(2)
    tid = ProbabilisticInstance.uniform(instance, Fraction(2, 5))
    plain_path = tmp_path / "instance.json"
    tid_path = tmp_path / "tid.json"
    save_instance(instance, plain_path)
    save_instance(tid, tid_path)
    assert load_instance(plain_path) == instance
    restored = load_tid(tid_path)
    assert restored.probability_of(instance.facts[0]) == Fraction(2, 5)
    # Loading the plain file as a TID defaults every probability to 1.
    assert load_tid(plain_path).probability_of(instance.facts[0]) == 1


# -- CSV round trips ----------------------------------------------------------------------


def test_csv_round_trip_without_probabilities():
    instance = rst_chain_instance(2)
    text = instance_to_csv(instance)
    restored, probabilities = instance_from_csv(text)
    assert restored == instance
    assert probabilities == {}


def test_csv_round_trip_with_probabilities(tmp_path):
    instance = rst_chain_instance(2)
    tid = ProbabilisticInstance.uniform(instance, Fraction(1, 4))
    path = tmp_path / "tid.csv"
    save_instance_csv(tid, path)
    restored = load_instance_csv(path)
    assert restored.instance == instance
    assert all(restored.probability_of(f) == Fraction(1, 4) for f in instance.facts)


def test_csv_handles_mixed_arities_and_empty_input():
    instance = Instance(
        [fact("R", "a"), fact("S", "a", "b")], Signature([("R", 1), ("S", 2)])
    )
    text = instance_to_csv(instance)
    restored, _ = instance_from_csv(text)
    assert restored == instance
    with pytest.raises(InstanceError):
        instance_from_csv("")


@pytest.mark.parametrize("cell", ["x", "1/0"])
def test_csv_rejects_malformed_probability_cells(cell):
    text = f"relation,arg1,probability\nR,a,1/2\nR,b,{cell}\n"
    with pytest.raises(InstanceError, match="row 3"):
        instance_from_csv(text)


def test_cli_reports_malformed_csv_probabilities_as_errors(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "bad.csv"
    for cell in ("x", "1/0"):
        path.write_text(f"relation,arg1,probability\nR,a,{cell}\n")
        assert main(["probability", str(path), "--query", "R(x)"]) == 1
        assert "error:" in capsys.readouterr().err


def test_save_instance_csv_plain_instance(tmp_path):
    instance = rst_chain_instance(1)
    path = tmp_path / "plain.csv"
    save_instance_csv(instance, path)
    restored = load_instance_csv(path)
    assert restored.instance == instance
    assert all(restored.probability_of(f) == 1 for f in instance.facts)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=1000))
def test_json_round_trip_on_random_tids(seed):
    signature = Signature([("R", 1), ("S", 2)])
    instance = random_instance(signature, 4, 8, seed=seed)
    tid = random_probabilities(instance, seed=seed)
    restored = tid_from_dict(tid_to_dict(tid))
    assert restored.instance == instance
    assert restored.valuation() == tid.valuation()


# -- DOT exports -------------------------------------------------------------------------------


def test_circuit_to_dot_contains_gates_and_marks_output():
    circuit = BooleanCircuit()
    a, b = circuit.variable("a"), circuit.variable("b")
    circuit.set_output(circuit.disjunction([circuit.conjunction([a, b]), circuit.negation(a)]))
    dot = circuit_to_dot(circuit)
    assert dot.startswith("digraph circuit")
    assert "∧" in dot and "∨" in dot and "¬" in dot
    assert "penwidth=2" in dot


def test_obdd_and_dnnf_to_dot():
    instance = rst_chain_instance(2)
    compiled = compile_query_to_obdd(unsafe_rst(), instance)
    dot = obdd_to_dot(compiled.manager, compiled.root)
    assert dot.startswith("digraph obdd")
    assert "style=dashed" in dot
    dnnf = compiled.to_dnnf()
    dnnf_dot = dnnf_to_dot(dnnf)
    assert dnnf_dot.startswith("digraph dnnf")
    assert "∨" in dnnf_dot or "∧" in dnnf_dot


def test_tree_decomposition_to_dot():
    decomposition = tree_decomposition(path_graph(5))
    dot = tree_decomposition_to_dot(decomposition)
    assert dot.startswith("graph tree_decomposition")
    assert dot.count("--") == len(decomposition) - 1
