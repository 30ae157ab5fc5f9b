"""Serialization of instances, TID valuations and lineage objects.

Relational instances and their probability valuations round-trip through JSON
and CSV; circuits, OBDDs, d-DNNFs and tree decompositions export to Graphviz
DOT for inspection.  Probabilities are serialized as ``"numerator/denominator"``
strings so that the exact :class:`fractions.Fraction` semantics of the library
survives the round trip (the paper's footnote 1: all numbers are rationals).
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from operator import is_
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.data.instance import Fact, Instance
from repro.data.signature import Signature
from repro.data.tid import ProbabilisticInstance, as_probability
from repro.errors import InstanceError


# -- JSON -----------------------------------------------------------------------------------


def instance_to_dict(instance: Instance) -> dict[str, Any]:
    """A JSON-serializable description of an instance (signature + facts)."""
    return {
        "signature": {relation.name: relation.arity for relation in instance.signature},
        "facts": [
            {"relation": f.relation, "arguments": list(f.arguments)} for f in instance.facts
        ],
    }


def instance_from_dict(data: Mapping[str, Any]) -> Instance:
    """The inverse of :func:`instance_to_dict`."""
    return _read_instance(data)[0]


def _read_instance(data: Mapping[str, Any]) -> tuple[Instance, list[Any], list[Fact]]:
    """The instance, its fact entries and their facts, in file order."""
    try:
        signature = Signature(sorted(data["signature"].items()))
        entries = list(data["facts"])
    except (KeyError, TypeError, AttributeError) as error:
        raise InstanceError(f"malformed instance description: {error}") from error
    facts = [_fact_from_entry(entry, "fact") for entry in entries]
    return Instance(facts, signature), entries, facts


def _fact_from_entry(entry: Any, kind: str) -> Fact:
    """The fact of one ``{"relation": name, "arguments": [...]}`` entry."""
    try:
        relation, arguments = entry["relation"], entry["arguments"]
    except (KeyError, TypeError) as error:
        raise InstanceError(f"malformed {kind} entry {entry!r}: {error}") from error
    if not isinstance(relation, str) or not relation:
        raise InstanceError(f"{kind} entry {entry!r}: relation must be a non-empty string")
    if not isinstance(arguments, list):
        raise InstanceError(f"{kind} entry {entry!r}: arguments must be an array")
    if any(isinstance(argument, (list, dict)) for argument in arguments):
        raise InstanceError(
            f"{kind} entry {entry!r}: arguments must be scalars, not arrays or objects"
        )
    return Fact(relation, tuple(arguments))


def tid_to_dict(probabilistic_instance: ProbabilisticInstance) -> dict[str, Any]:
    """A JSON-serializable description of a TID instance."""
    description = instance_to_dict(probabilistic_instance.instance)
    description["probabilities"] = [
        {
            "relation": f.relation,
            "arguments": list(f.arguments),
            "probability": str(probabilistic_instance.probability_of(f)),
        }
        for f in probabilistic_instance.instance.facts
    ]
    return description


def tid_from_dict(data: Mapping[str, Any]) -> ProbabilisticInstance:
    """The inverse of :func:`tid_to_dict`.

    A probability cell follows :func:`~repro.data.tid.as_probability`: a
    string parses exactly (``"1/10"``, ``"0.1"``), a JSON number is an int or
    a float (read as the nearest fraction with a denominator of at most
    ``10**12``, so ``0.1`` is ``1/10``, as in a CSV cell).  A boolean or any
    other JSON value raises :class:`InstanceError` naming the entry.

    One pass over the entries: entry ``i`` of ``probabilities`` reuses the
    fact of entry ``i`` of ``facts`` when both name the same relation and
    arguments (as :func:`save_instance` writes them), and a cell of ASCII
    ``digits/digits`` is split into two ints instead of going through the
    ``Fraction`` string parser.  When the entries list exactly
    ``instance.facts`` in order, the TID is built from the column.
    """
    instance, fact_entries, facts = _read_instance(data)
    listed: list[Fact] = []
    column: list[Fraction] = []
    try:
        for position, entry in enumerate(data.get("probabilities", [])):
            if position < len(facts) and _names_same_fact(entry, fact_entries[position]):
                listed.append(facts[position])
            else:
                listed.append(_fact_from_entry(entry, "probability"))
            column.append(as_probability(_probability_cell(entry)))
    except (
        KeyError, TypeError, AttributeError, ValueError, ZeroDivisionError, OverflowError
    ) as error:
        raise InstanceError(f"malformed probability description: {error}") from error
    if len(listed) == len(instance.facts) and all(map(is_, listed, instance.facts)):
        return ProbabilisticInstance.from_column(instance, column)
    return ProbabilisticInstance(instance, dict(zip(listed, column)))


def _names_same_fact(entry: Any, fact_entry: Any) -> bool:
    """Whether a probability entry names the fact of an (already checked)
    fact entry."""
    return (
        type(entry) is dict
        and type(fact_entry) is dict
        and entry.get("relation") == fact_entry["relation"]
        and entry.get("arguments") == fact_entry["arguments"]
    )


def _probability_cell(entry: Any) -> Fraction | int | float:
    """The probability cell of an entry, a string parsed exactly."""
    cell = entry["probability"]
    if isinstance(cell, str):
        numerator, slash, denominator = cell.partition("/")
        if slash and _is_ascii_digits(numerator) and _is_ascii_digits(denominator):
            return Fraction(int(numerator), int(denominator))
        return Fraction(cell)
    if isinstance(cell, bool) or not isinstance(cell, (int, float)):
        raise InstanceError(
            f"probability entry {entry!r}: probability must be a number or a string"
        )
    return cell


def _is_ascii_digits(text: str) -> bool:
    return text.isascii() and text.isdigit()


def save_instance(instance: Instance | ProbabilisticInstance, path: str | Path) -> None:
    """Write an instance (or TID instance) to a JSON file."""
    if isinstance(instance, ProbabilisticInstance):
        payload = tid_to_dict(instance)
    else:
        payload = instance_to_dict(instance)
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))


def load_instance(path: str | Path) -> Instance:
    """Read an instance from a JSON file (ignores probabilities if present)."""
    return instance_from_dict(json.loads(Path(path).read_text()))


def load_tid(path: str | Path) -> ProbabilisticInstance:
    """Read a TID instance from a JSON file (missing probabilities default to 1)."""
    return tid_from_dict(json.loads(Path(path).read_text()))


# -- CSV ------------------------------------------------------------------------------------------


def instance_to_csv(instance: Instance, probabilities: Mapping[Fact, Fraction] | None = None) -> str:
    """One row per fact: relation, arguments..., and optionally a probability column."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    max_arity = instance.signature.max_arity if len(instance) else 0
    header = ["relation"] + [f"arg{i + 1}" for i in range(max_arity)]
    if probabilities is not None:
        header.append("probability")
    writer.writerow(header)
    for f in instance.facts:
        row = [f.relation] + [str(a) for a in f.arguments]
        row += [""] * (max_arity - f.arity)
        if probabilities is not None:
            row.append(str(probabilities.get(f, Fraction(1))))
        writer.writerow(row)
    return buffer.getvalue()


def instance_from_csv(text: str) -> tuple[Instance, dict[Fact, Fraction]]:
    """Parse the CSV format of :func:`instance_to_csv`.

    Returns the instance together with the probability column (empty when the
    CSV has no such column).
    """
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration as error:
        raise InstanceError("empty CSV input") from error
    has_probability = bool(header) and header[-1] == "probability"
    facts: list[Fact] = []
    probabilities: dict[Fact, Fraction] = {}
    for row in reader:
        if not row or not row[0]:
            continue
        values = row[1:-1] if has_probability else row[1:]
        arguments = tuple(value for value in values if value != "")
        f = Fact(row[0], arguments)
        facts.append(f)
        if has_probability and row[-1]:
            try:
                probabilities[f] = as_probability(Fraction(row[-1]))
            except (ValueError, ZeroDivisionError) as error:
                raise InstanceError(
                    f"malformed probability {row[-1]!r} in CSV row {reader.line_num}: {error}"
                ) from error
    return Instance(facts), probabilities


def save_instance_csv(
    instance: Instance | ProbabilisticInstance, path: str | Path
) -> None:
    """Write an instance (or TID instance) to a CSV file."""
    if isinstance(instance, ProbabilisticInstance):
        text = instance_to_csv(instance.instance, instance.valuation())
    else:
        text = instance_to_csv(instance)
    Path(path).write_text(text)


def load_instance_csv(path: str | Path) -> ProbabilisticInstance:
    """Read a CSV file as a TID instance (probabilities default to 1)."""
    instance, probabilities = instance_from_csv(Path(path).read_text())
    return ProbabilisticInstance(instance, probabilities)


# -- DOT exports -----------------------------------------------------------------------------------


def _dot_escape(value: Any) -> str:
    return str(value).replace('"', '\\"')


def circuit_to_dot(circuit) -> str:
    """Graphviz DOT for a Boolean circuit (gates as nodes, wires as edges)."""
    from repro.booleans.circuit import GateKind

    lines = ["digraph circuit {", "  rankdir=BT;"]
    for gate_id, gate in circuit.gates():
        if gate.kind is GateKind.VAR:
            label = _dot_escape(gate.payload)
            shape = "box"
        elif gate.kind is GateKind.CONST:
            label = "1" if gate.payload else "0"
            shape = "plaintext"
        else:
            label = {GateKind.NOT: "¬", GateKind.AND: "∧", GateKind.OR: "∨"}[gate.kind]
            shape = "circle"
        suffix = ", penwidth=2" if gate_id == circuit.output else ""
        lines.append(f'  g{gate_id} [label="{label}", shape={shape}{suffix}];')
        for source in gate.inputs:
            lines.append(f"  g{source} -> g{gate_id};")
    lines.append("}")
    return "\n".join(lines)


def obdd_to_dot(obdd, root: int) -> str:
    """Graphviz DOT for the OBDD rooted at ``root`` (dashed low edges, solid high edges)."""
    lines = ["digraph obdd {", '  t0 [label="0", shape=box];', '  t1 [label="1", shape=box];']

    def name(node: int) -> str:
        return f"t{node}" if node <= 1 else f"n{node}"

    for node, variable, low, high in obdd.node_table(root):
        lines.append(f'  n{node} [label="{_dot_escape(variable)}"];')
        lines.append(f"  n{node} -> {name(low)} [style=dashed];")
        lines.append(f"  n{node} -> {name(high)};")
    lines.append("}")
    return "\n".join(lines)


def dnnf_to_dot(dnnf) -> str:
    """Graphviz DOT for a d-DNNF circuit."""
    lines = ["digraph dnnf {", "  rankdir=BT;"]
    for node_id in dnnf.reachable():
        node = dnnf.node(node_id)
        if node.kind == "lit":
            variable, positive = node.payload
            label = _dot_escape(variable) if positive else f"¬{_dot_escape(variable)}"
            shape = "box"
        elif node.kind == "const":
            label = "1" if node.payload else "0"
            shape = "plaintext"
        else:
            label = "∧" if node.kind == "and" else "∨"
            shape = "circle"
        lines.append(f'  n{node_id} [label="{label}", shape={shape}];')
        for child in node.children:
            lines.append(f"  n{child} -> n{node_id};")
    lines.append("}")
    return "\n".join(lines)


def tree_decomposition_to_dot(decomposition) -> str:
    """Graphviz DOT for a tree decomposition (bags as box nodes)."""
    lines = ["graph tree_decomposition {"]
    for node in decomposition.nodes():
        bag = ", ".join(sorted(map(str, decomposition.bag(node))))
        lines.append(f'  b{node} [label="{_dot_escape(bag)}", shape=box];')
    for node in decomposition.nodes():
        for child in decomposition.children.get(node, ()):
            lines.append(f"  b{node} -- b{child};")
    lines.append("}")
    return "\n".join(lines)
