"""Tests for the command-line interface (repro.cli)."""

from fractions import Fraction

import pytest

from repro.cli import build_parser, main
from repro.data.instance import Instance, fact
from repro.data.io import save_instance, save_instance_csv
from repro.data.signature import Signature
from repro.data.tid import ProbabilisticInstance
from repro.generators.lines import rst_chain_instance
from repro.probability.evaluation import probability
from repro.queries.library import unsafe_rst


@pytest.fixture()
def tid_json(tmp_path):
    tid = ProbabilisticInstance.uniform(rst_chain_instance(2), Fraction(1, 2))
    path = tmp_path / "chain.json"
    save_instance(tid, path)
    return path, tid


@pytest.fixture()
def tid_csv(tmp_path):
    tid = ProbabilisticInstance.uniform(rst_chain_instance(2), Fraction(1, 2))
    path = tmp_path / "chain.csv"
    save_instance_csv(tid, path)
    return path, tid


def test_build_parser_requires_subcommand():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])


def test_info_command(tid_json, capsys):
    path, _ = tid_json
    assert main(["info", str(path)]) == 0
    output = capsys.readouterr().out
    assert "facts: 6" in output
    assert "treewidth" in output and "tree-depth" in output
    assert "uncertain facts: 6" in output


def test_info_command_on_csv(tid_csv, capsys):
    path, _ = tid_csv
    assert main(["info", str(path)]) == 0
    assert "facts: 6" in capsys.readouterr().out


def test_info_command_missing_file(capsys):
    assert main(["info", "/nonexistent/file.json"]) == 1
    assert "error:" in capsys.readouterr().err


def test_lineage_command_reports_sizes(tid_json, capsys):
    path, _ = tid_json
    assert main(["lineage", str(path), "--query", "R(x), S(x, y), T(y)"]) == 0
    output = capsys.readouterr().out
    assert "minimal matches (DNF clauses): 2" in output
    assert "OBDD size:" in output and "d-DNNF nodes:" in output


@pytest.mark.parametrize("kind", ["circuit", "obdd", "dnnf"])
def test_lineage_command_dot_output(tid_json, capsys, kind):
    path, _ = tid_json
    assert main(["lineage", str(path), "--query", "R(x), S(x, y), T(y)", "--dot", kind]) == 0
    assert "digraph" in capsys.readouterr().out


def test_probability_command_exact(tid_json, capsys):
    path, tid = tid_json
    assert main(["probability", str(path), "--query", "R(x), S(x, y), T(y)"]) == 0
    output = capsys.readouterr().out
    expected = probability(unsafe_rst(), tid)
    assert str(expected) in output


def test_probability_command_methods_agree(tid_json, capsys):
    path, tid = tid_json
    expected = probability(unsafe_rst(), tid)
    for method in ("obdd", "automaton"):
        assert (
            main(["probability", str(path), "--query", "R(x), S(x, y), T(y)", "--method", method])
            == 0
        )
        assert str(expected) in capsys.readouterr().out
    # The columnar form is how the obdd route evaluates, not a method.
    with pytest.raises(SystemExit) as exit_info:
        main(["probability", str(path), "--query", "R(x), S(x, y), T(y)", "--method", "columnar"])
    assert exit_info.value.code == 2
    capsys.readouterr()
    # The RST query is the canonical unsafe query: lifted inference must refuse
    # it, and the refusal gets its own scriptable exit code.
    assert (
        main(["probability", str(path), "--query", "R(x), S(x, y), T(y)", "--method", "safe_plan"])
        == 3
    )
    assert "unsafe query" in capsys.readouterr().err


def test_probability_command_approximate(tid_json, capsys):
    path, _ = tid_json
    code = main(
        [
            "probability",
            str(path),
            "--query",
            "R(x), S(x, y), T(y)",
            "--approximate",
            "--epsilon",
            "0.2",
            "--delta",
            "0.2",
        ]
    )
    assert code == 0
    assert "estimate:" in capsys.readouterr().out


def test_convert_and_show_round_trip(tid_json, tmp_path, capsys):
    path, tid = tid_json
    target = tmp_path / "converted.csv"
    assert main(["convert", str(path), "--output", str(target)]) == 0
    capsys.readouterr()
    assert main(["show", str(target), "--format", "csv"]) == 0
    csv_output = capsys.readouterr().out
    assert "relation" in csv_output and "1/2" in csv_output
    assert main(["show", str(path), "--format", "json"]) == 0
    assert '"probabilities"' in capsys.readouterr().out


def test_convert_rejects_unknown_format(tid_json, tmp_path, capsys):
    path, _ = tid_json
    assert main(["convert", str(path), "--output", str(tmp_path / "out.xml")]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_error_on_bad_query(tid_json, capsys):
    path, _ = tid_json
    assert main(["probability", str(path), "--query", "not a query !!"]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_error_on_query_arity_mismatch(tmp_path, capsys):
    path = tmp_path / "unary.json"
    instance = Instance([fact("R", "a")], Signature.of(R=1))
    save_instance(ProbabilisticInstance.uniform(instance, Fraction(1, 2)), path)
    assert main(["probability", str(path), "--query", "R(x,y)"]) == 1
    error = capsys.readouterr().err
    assert "error:" in error and "R/1" in error


# -- resilience flags (budgets, deadlines, degradation) --------------------------


@pytest.fixture()
def dense_tid_json(tmp_path):
    """A denser treelike instance where every circuit route needs real work
    (the RST lineage is not read-once shaped, so no route evades the caps)."""
    from repro.generators import labelled_partial_ktree_instance

    tid = ProbabilisticInstance.uniform(
        labelled_partial_ktree_instance(8, 2, seed=1), Fraction(1, 2)
    )
    path = tmp_path / "ktree.json"
    save_instance(tid, path)
    return path, tid


def test_probability_timeout_exit_code(dense_tid_json, capsys):
    # The dense instance is never cached on the process-wide default engine
    # (cache hits legitimately bypass the budget), so the expired deadline
    # trips at the first route checkpoint.
    path, _ = dense_tid_json
    code = main(
        ["probability", str(path), "--query", "R(x), S(x, y), T(y)", "--timeout", "1e-9"]
    )
    assert code == 4
    assert "deadline exceeded" in capsys.readouterr().err


def test_probability_budget_exit_code(dense_tid_json, capsys):
    path, _ = dense_tid_json
    code = main(
        [
            "probability",
            str(path),
            "--query",
            "R(x), S(x, y), T(y)",
            "--budget-nodes",
            "5",
        ]
    )
    assert code == 5
    assert "budget exhausted" in capsys.readouterr().err


def test_probability_generous_budget_still_exact(tid_json, capsys):
    path, tid = tid_json
    expected = probability(unsafe_rst(), tid)
    code = main(
        [
            "probability",
            str(path),
            "--query",
            "R(x), S(x, y), T(y)",
            "--budget-nodes",
            "100000",
            "--timeout",
            "60",
        ]
    )
    assert code == 0
    assert str(expected) in capsys.readouterr().out


def test_probability_degrade_returns_bounds(dense_tid_json, capsys):
    path, _ = dense_tid_json
    code = main(
        [
            "probability",
            str(path),
            "--query",
            "R(x), S(x, y), T(y)",
            "--budget-nodes",
            "5",
            "--degrade",
        ]
    )
    assert code == 0
    output = capsys.readouterr().out
    assert "probability in [" in output and "degraded: karp_luby" in output


def test_probability_explain_reports_failover_attempts(dense_tid_json, capsys):
    path, _ = dense_tid_json
    code = main(
        [
            "probability",
            str(path),
            "--query",
            "R(x), S(x, y), T(y)",
            "--budget-nodes",
            "5",
            "--degrade",
            "--explain",
        ]
    )
    assert code == 0
    output = capsys.readouterr().out
    # Every exact route was attempted and each failure is labelled.
    assert "attempt[" in output and "BudgetExceeded" in output
    # The decision names its rule and the feasible routes in chain order,
    # with no timing estimate.
    assert "route: obdd (unsafe query: obdd by rule)" in output
    assert "feasible: obdd, automaton\n" in output
    assert "estimate[" not in output
