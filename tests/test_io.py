"""Tests for serialization (repro.data.io)."""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
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
from repro.data.reference import tid_from_dict_seed
from repro.data.signature import Relation, Signature
from repro.data.tid import ProbabilisticInstance, as_probability
from repro.errors import InstanceError, ReproError, SignatureError
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


def _one_probability(cell):
    return {
        "signature": {"R": 1},
        "facts": [{"relation": "R", "arguments": ["a"]}],
        "probabilities": [{"relation": "R", "arguments": ["a"], "probability": cell}],
    }


def test_json_float_probability_reads_like_the_api_and_csv():
    # A JSON float goes through as_probability, as a float given to the API
    # does: 0.1 is 1/10, not the float's exact binary value.
    probability = tid_from_dict(_one_probability(0.1)).probability_of(fact("R", "a"))
    assert probability == as_probability(0.1) == Fraction(1, 10)
    _, csv_cells = instance_from_csv("relation,arg1,probability\nR,a,0.1\n")
    assert list(csv_cells.values()) == [probability]


@pytest.mark.parametrize("cell", ["0.1", "1/10"])
def test_json_string_probabilities_parse_exactly(cell):
    assert tid_from_dict(_one_probability(cell)).probability_of(fact("R", "a")) == Fraction(1, 10)


@pytest.mark.parametrize("cell", [True, False, None, [1], {"p": 1}], ids=repr)
def test_json_probability_cells_reject_booleans_and_non_numbers(cell):
    with pytest.raises(InstanceError, match="probability entry"):
        tid_from_dict(_one_probability(cell))


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


# Each description differs from a valid one in one field.
MALFORMED_DESCRIPTIONS = {
    "relation is an array": {
        "signature": {"R": 1},
        "facts": [{"relation": ["R"], "arguments": ["a"]}],
    },
    "relation is empty": {"signature": {"R": 1}, "facts": [{"relation": "", "arguments": ["a"]}]},
    "arguments is an object": {
        "signature": {"R": 1},
        "facts": [{"relation": "R", "arguments": {"a": 1}}],
    },
    "arguments is a string": {
        "signature": {"R": 2},
        "facts": [{"relation": "R", "arguments": "ab"}],
        "probabilities": [{"relation": "R", "arguments": ["a", "b"], "probability": "1/3"}],
    },
    "probability arguments is a string": {
        "signature": {"R": 2},
        "facts": [{"relation": "R", "arguments": ["a", "b"]}],
        "probabilities": [{"relation": "R", "arguments": "ab", "probability": "1/3"}],
    },
    "probability relation is an array": {
        "signature": {"R": 1},
        "facts": [{"relation": "R", "arguments": ["a"]}],
        "probabilities": [{"relation": ["R"], "arguments": ["a"], "probability": "1/3"}],
    },
}


@pytest.mark.parametrize("name", sorted(MALFORMED_DESCRIPTIONS))
def test_loaders_reject_malformed_fact_entries(name):
    data = MALFORMED_DESCRIPTIONS[name]
    with pytest.raises(InstanceError, match="entry"):
        tid_from_dict(data)
    if "probabilities" not in data:
        with pytest.raises(InstanceError, match="entry"):
            instance_from_dict(data)


@pytest.mark.parametrize("arity", [True, 1.0, "1", None])
def test_loaders_reject_non_integer_arities(arity):
    # ``R/True`` would compare equal to ``R/1`` yet fingerprint differently.
    data = {"signature": {"R": arity}, "facts": [{"relation": "R", "arguments": ["a"]}]}
    with pytest.raises(SignatureError, match="integer arity"):
        instance_from_dict(data)


@pytest.mark.parametrize("name, arity", [(["R"], 1), (1, 1), ("R", True), ("R", 1.0), ("R", "2")])
def test_relation_rejects_non_string_names_and_non_integer_arities(name, arity):
    with pytest.raises(SignatureError):
        Relation(name, arity)


def test_cli_reports_unhashable_relations_as_errors(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "relation.json"
    path.write_text(json.dumps(MALFORMED_DESCRIPTIONS["relation is an array"]))
    assert main(["probability", str(path), "--query", "R(x)"]) == 1
    assert "error:" in capsys.readouterr().err


# JSON-shaped values: what ``json.loads`` can return (it accepts NaN and
# Infinity).  Two in three are arrays or objects, the values a loader is most
# likely to mistake for a name, a list of arguments, or a probability.
json_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
_nested = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=6,
)
json_values = (
    json_scalars
    | st.lists(_nested, max_size=3)
    | st.dictionaries(st.text(max_size=2), _nested, max_size=3)
)


def _or_any(strategy, one_in):
    """``strategy``, except that one draw in ``one_in`` is any JSON value.

    Containers are replaced rarely and leaves often, so that most
    descriptions get past their outer fields into the inner ones.
    """
    return st.integers(1, one_in).flatmap(lambda roll: json_values if roll == 1 else strategy)


CONTAINER, LEAF = 8, 3
_names = st.sampled_from(["R", "S"])
_arguments = _or_any(st.lists(st.sampled_from(["a", "b", 1, None]), min_size=1, max_size=2), LEAF)
_fact_entries = _or_any(
    st.fixed_dictionaries({"relation": _or_any(_names, LEAF), "arguments": _arguments}), CONTAINER
)
_probability_entries = _or_any(
    st.fixed_dictionaries(
        {
            "relation": _or_any(_names, LEAF),
            "arguments": _arguments,
            "probability": _or_any(st.sampled_from(["1/2", "0", "1", 1, "3/2"]), LEAF),
        }
    ),
    CONTAINER,
)
json_descriptions = _or_any(
    st.fixed_dictionaries(
        {
            "signature": _or_any(
                st.dictionaries(_names, _or_any(st.integers(1, 2), LEAF), max_size=2), CONTAINER
            ),
            "facts": _or_any(st.lists(_fact_entries, min_size=1, max_size=3), CONTAINER),
            "probabilities": _or_any(st.lists(_probability_entries, max_size=3), CONTAINER),
        }
    ),
    CONTAINER,
)


@settings(max_examples=300, deadline=None)
@given(data=json_descriptions)
@example(data=MALFORMED_DESCRIPTIONS["relation is an array"])
@example(
    data={
        "signature": {"R": 1},
        "facts": [{"relation": "R", "arguments": ["a"]}],
        "probabilities": [{"relation": "R", "arguments": ["a"], "probability": float("inf")}],
    }
)
def test_loaders_raise_only_typed_errors(data):
    for load in (instance_from_dict, tid_from_dict):
        try:
            load(data)
        except ReproError:
            pass


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


def _loaded(load, data):
    """What a loader makes of ``data``: the TID's facts, valuation and both
    fingerprints, or the typed error it raised."""
    try:
        tid = load(data)
    except ReproError as error:
        return type(error), str(error)
    return tid.instance.facts, tid.valuation(), tid.instance.fingerprint, tid.fingerprint


_CELLS = ["0.1", " 1/2 ", "1e-3", 1, 0.25, "1/0", "007/010", "3/2", "٣/٤"]


@st.composite
def tid_descriptions(draw):
    """A saved TID description, its probability list laid out as saved,
    reordered, partial or with duplicates, and some of its cells replaced."""
    seed = draw(st.integers(min_value=0, max_value=1000))
    instance = random_instance(Signature([("R", 1), ("S", 2)]), 4, 8, seed=seed)
    data = tid_to_dict(random_probabilities(instance, seed=seed))
    entries = [dict(entry) for entry in data["probabilities"]]
    layout = draw(st.sampled_from(["saved", "reordered", "both reordered", "partial", "duplicated"]))
    if layout in ("reordered", "both reordered"):
        order = draw(st.permutations(range(len(entries))))
        entries = [entries[i] for i in order]
        if layout == "both reordered":
            data["facts"] = [data["facts"][i] for i in order]
    elif layout == "partial":
        entries = entries[draw(st.integers(0, len(entries))) :]
    elif layout == "duplicated":
        extra = draw(st.lists(st.sampled_from(entries), min_size=1, max_size=3))
        entries += [dict(entry) for entry in extra]
    for entry in entries:
        if draw(st.integers(1, 4)) == 1:
            entry["probability"] = draw(st.sampled_from(_CELLS))
    data["probabilities"] = entries
    return data


@settings(max_examples=200, deadline=None)
@given(data=tid_descriptions())
def test_one_pass_loader_equals_the_reference_loader(data):
    assert _loaded(tid_from_dict, data) == _loaded(tid_from_dict_seed, data)


@settings(max_examples=200, deadline=None)
@given(data=json_descriptions)
def test_one_pass_loader_equals_the_reference_loader_on_any_json(data):
    assert _loaded(tid_from_dict, data) == _loaded(tid_from_dict_seed, data)


@pytest.mark.parametrize("cell", _CELLS, ids=repr)
def test_each_cell_loads_as_the_reference_loads_it(cell):
    assert _loaded(tid_from_dict, _one_probability(cell)) == _loaded(
        tid_from_dict_seed, _one_probability(cell)
    )


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
