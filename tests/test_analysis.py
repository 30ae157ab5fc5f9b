"""Tests for the static invariant checker (repro.analysis).

Each rule is exercised against a fixture package with a seeded violation and
the finding is asserted at its exact file/line; the suite also covers inline
suppressions (valid and justification-less), per-module config overrides,
pyproject discovery, the CLI, and — the actual gate — a run over ``src/repro``
that must come back clean.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    AnalysisConfig,
    analyze,
    config_from_mapping,
    discover_config,
    load_config,
    rule_ids,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


def write_package(root: Path, name: str = "pkg", **modules: str) -> Path:
    package_dir = root / name
    package_dir.mkdir(parents=True, exist_ok=True)
    (package_dir / "__init__.py").write_text("")
    for module_name, source in modules.items():
        (package_dir / f"{module_name}.py").write_text(textwrap.dedent(source))
    return package_dir


def line_of(source: str, needle: str) -> int:
    for number, line in enumerate(textwrap.dedent(source).splitlines(), start=1):
        if needle in line:
            return number
    raise AssertionError(f"{needle!r} not found in fixture source")


def findings_for(result, rule_id):
    return [f for f in result.findings if f.rule == rule_id]


KERNEL_CONFIG = AnalysisConfig(package="pkg", kernel_modules=("pkg.kernel",))


class TestREC001:
    def test_direct_recursion_in_kernel_flagged_at_def_line(self, tmp_path):
        source = """
            def walk(node):
                for child in node.children:
                    walk(child)
                return node
        """
        pkg = write_package(tmp_path, kernel=source)
        result = analyze([pkg], config=KERNEL_CONFIG, select=["REC001"])
        findings = findings_for(result, "REC001")
        assert len(findings) == 1
        assert findings[0].line == line_of(source, "def walk")
        assert findings[0].path.endswith("kernel.py")
        assert "calls itself" in findings[0].message

    def test_mutual_recursion_reachable_from_kernel(self, tmp_path):
        helper = """
            def even(n):
                return True if n == 0 else odd(n - 1)

            def odd(n):
                return False if n == 0 else even(n - 1)
        """
        kernel = """
            from pkg.helper import even

            def kernel_entry(n):
                return even(n)
        """
        pkg = write_package(tmp_path, kernel=kernel, helper=helper)
        result = analyze([pkg], config=KERNEL_CONFIG, select=["REC001"])
        lines = {(f.path.rsplit("/", 1)[-1], f.line) for f in findings_for(result, "REC001")}
        assert lines == {
            ("helper.py", line_of(helper, "def even")),
            ("helper.py", line_of(helper, "def odd")),
        }
        messages = {f.message for f in findings_for(result, "REC001")}
        assert any("mutually recursive" in m for m in messages)

    def test_unreachable_recursion_not_flagged(self, tmp_path):
        helper = """
            def lonely(n):
                return lonely(n - 1) if n else 0
        """
        kernel = """
            def kernel_entry():
                return 1
        """
        pkg = write_package(tmp_path, kernel=kernel, helper=helper)
        result = analyze([pkg], config=KERNEL_CONFIG, select=["REC001"])
        assert findings_for(result, "REC001") == []

    def test_reference_module_recursion_is_allowlisted(self, tmp_path):
        reference = """
            def oracle(node):
                return sum(oracle(c) for c in node.children) + 1
        """
        kernel = """
            from pkg.reference import oracle

            def kernel_entry(node):
                return oracle(node)
        """
        pkg = write_package(tmp_path, kernel=kernel, reference=reference)
        result = analyze([pkg], config=KERNEL_CONFIG, select=["REC001"])
        assert findings_for(result, "REC001") == []

    def test_tree_walker_method_recursion_detected(self, tmp_path):
        source = """
            class Node:
                def walk(self):
                    for child in self.children:
                        yield from child.walk()
                    yield self
        """
        pkg = write_package(tmp_path, kernel=source)
        result = analyze([pkg], config=KERNEL_CONFIG, select=["REC001"])
        findings = findings_for(result, "REC001")
        assert len(findings) == 1
        assert findings[0].line == line_of(source, "def walk")

    def test_subscript_receiver_method_recursion_detected(self, tmp_path):
        # 'self.children[0]._evaluate()' — the receiver is a Subscript, not a
        # Name, so the same-class heuristic must fire on opaque receivers too.
        source = """
            class Expression:
                def _evaluate(self):
                    if self.kind == "leaf":
                        return self.value
                    return self.children[0]._evaluate() + self.children[1]._evaluate()
        """
        pkg = write_package(tmp_path, kernel=source)
        result = analyze([pkg], config=KERNEL_CONFIG, select=["REC001"])
        findings = findings_for(result, "REC001")
        assert len(findings) == 1
        assert findings[0].line == line_of(source, "def _evaluate")

    def test_same_method_name_on_unrelated_class_is_not_recursion(self, tmp_path):
        # Query.variables() iterating atom.variables() must not be a self-edge:
        # Atom is unrelated to Query, so the same-class heuristic stays quiet.
        source = """
            class Atom:
                def variables(self):
                    return self.args

            class Query:
                def variables(self):
                    seen = []
                    for atom in self.atoms:
                        seen.extend(atom.variables())
                    return seen
        """
        pkg = write_package(tmp_path, kernel=source)
        result = analyze([pkg], config=KERNEL_CONFIG, select=["REC001"])
        assert findings_for(result, "REC001") == []


EXACT_CONFIG = config_from_mapping(
    {
        "package": "pkg",
        "rules": {
            "EXACT001": {
                "exact-modules": ["pkg.exact"],
                "allow-functions": ["pkg.exact:fast_path"],
            }
        },
    }
)


class TestEXACT001:
    def test_float_literal_cast_math_and_division_flagged(self, tmp_path):
        source = """
            import math
            from fractions import Fraction

            def probability(n: int, d: int):
                bad_literal = 0.5
                bad_cast = float(n)
                bad_math = math.sqrt(n)
                bad_division = n / d
                return Fraction(n, d)
        """
        pkg = write_package(tmp_path, exact=source)
        result = analyze([pkg], config=EXACT_CONFIG, select=["EXACT001"])
        lines = sorted(f.line for f in findings_for(result, "EXACT001"))
        assert lines == [
            line_of(source, "bad_literal"),
            line_of(source, "bad_cast"),
            line_of(source, "bad_math"),
            line_of(source, "bad_division"),
        ]

    def test_exact_fraction_division_and_int_safe_math_pass(self, tmp_path):
        source = """
            import math
            from fractions import Fraction

            def probability(numerator: Fraction, d: int):
                scaled = numerator / d
                support = math.isqrt(d)
                return scaled, support, d // 2
        """
        pkg = write_package(tmp_path, exact=source)
        result = analyze([pkg], config=EXACT_CONFIG, select=["EXACT001"])
        assert findings_for(result, "EXACT001") == []

    def test_allow_function_and_its_nested_defs_exempt(self, tmp_path):
        source = """
            def fast_path(values):
                def level(x):
                    return float(x) * 0.5
                return sum(level(v) for v in values)
        """
        pkg = write_package(tmp_path, exact=source)
        result = analyze([pkg], config=EXACT_CONFIG, select=["EXACT001"])
        assert findings_for(result, "EXACT001") == []


class TestPICKLE001:
    def test_lambda_and_nested_function_submissions_flagged(self, tmp_path):
        source = """
            def run(pool, shards):
                def local_runner(shard):
                    return shard

                bad_lambda = pool.map(lambda s: s, shards)
                bad_nested = pool.map(local_runner, shards)
                return bad_lambda, bad_nested
        """
        pkg = write_package(tmp_path, engine=source)
        result = analyze([pkg], config=KERNEL_CONFIG, select=["PICKLE001"])
        lines = sorted(f.line for f in findings_for(result, "PICKLE001"))
        assert lines == [
            line_of(source, "bad_lambda"),
            line_of(source, "bad_nested"),
        ]

    def test_initializer_keyword_and_payload_lambda_flagged(self, tmp_path):
        source = """
            def start(context, options):
                def init_worker(opts):
                    pass

                return context.Pool(
                    initializer=init_worker,
                    initargs=(lambda: options,),
                )
        """
        pkg = write_package(tmp_path, engine=source)
        result = analyze([pkg], config=KERNEL_CONFIG, select=["PICKLE001"])
        lines = sorted(f.line for f in findings_for(result, "PICKLE001"))
        assert lines == [
            line_of(source, "initializer=init_worker"),
            line_of(source, "initargs=(lambda"),
        ]

    def test_nested_function_as_later_submit_argument_flagged(self, tmp_path):
        source = """
            def _run_task(runner, shards):
                return runner(shards)

            def run(pool, shards):
                def local_runner(shard):
                    return shard

                return pool.submit(_run_task, local_runner, shards)
        """
        pkg = write_package(tmp_path, engine=source)
        result = analyze([pkg], config=KERNEL_CONFIG, select=["PICKLE001"])
        findings = findings_for(result, "PICKLE001")
        assert [f.line for f in findings] == [line_of(source, "pool.submit")]
        assert "function defined inside another function" in findings[0].message

    def test_module_level_runner_passes(self, tmp_path):
        source = """
            def runner(shard):
                return shard

            def run(pool, shards):
                return pool.map(runner, shards)
        """
        pkg = write_package(tmp_path, engine=source)
        result = analyze([pkg], config=KERNEL_CONFIG, select=["PICKLE001"])
        assert findings_for(result, "PICKLE001") == []


class TestDET001:
    def test_bare_repr_sort_key_flagged(self, tmp_path):
        source = """
            def order(values):
                return sorted(values, key=repr)
        """
        pkg = write_package(tmp_path, mod=source)
        result = analyze([pkg], config=KERNEL_CONFIG, select=["DET001"])
        findings = findings_for(result, "DET001")
        assert len(findings) == 1
        assert findings[0].line == line_of(source, "key=repr")

    def test_lambda_id_sort_key_and_cache_repr_flagged(self, tmp_path):
        source = """
            def lookup(cache, values, node):
                ordered = values.sort(key=lambda v: id(v))
                cached = cache[repr(node)]
                fallback = cache.get(tuple(set(values)))
                return ordered, cached, fallback
        """
        pkg = write_package(tmp_path, mod=source)
        result = analyze([pkg], config=KERNEL_CONFIG, select=["DET001"])
        lines = sorted(f.line for f in findings_for(result, "DET001"))
        assert lines == [
            line_of(source, "key=lambda"),
            line_of(source, "cache[repr(node)]"),
            line_of(source, "tuple(set(values))"),
        ]

    def test_blessed_structural_key_not_flagged(self, tmp_path):
        source = """
            def order(values, cache, node):
                ordered = sorted(values, key=lambda v: (type(v).__name__, repr(v)))
                cached = cache[(type(node).__name__, repr(node))]
                return ordered, cached
        """
        pkg = write_package(tmp_path, mod=source)
        result = analyze([pkg], config=KERNEL_CONFIG, select=["DET001"])
        assert findings_for(result, "DET001") == []

    def test_reference_module_exempt(self, tmp_path):
        source = """
            def order(values):
                return sorted(values, key=repr)
        """
        pkg = write_package(tmp_path, reference=source)
        result = analyze([pkg], config=KERNEL_CONFIG, select=["DET001"])
        assert findings_for(result, "DET001") == []


class TestSLOTS001:
    def test_unslotted_node_dataclass_flagged(self, tmp_path):
        source = """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class DecisionNode:
                variable: int
        """
        pkg = write_package(tmp_path, kernel=source)
        result = analyze([pkg], config=KERNEL_CONFIG, select=["SLOTS001"])
        findings = findings_for(result, "SLOTS001")
        assert len(findings) == 1
        assert findings[0].line == line_of(source, "class DecisionNode")
        assert "slots=True" in findings[0].message

    def test_unfrozen_structure_node_flagged(self, tmp_path):
        source = """
            from dataclasses import dataclass

            @dataclass(slots=True)
            class AndGate:
                children: tuple
        """
        pkg = write_package(tmp_path, kernel=source)
        result = analyze([pkg], config=KERNEL_CONFIG, select=["SLOTS001"])
        findings = findings_for(result, "SLOTS001")
        assert len(findings) == 1
        assert "frozen=True" in findings[0].message

    def test_slotted_frozen_node_and_non_kernel_module_pass(self, tmp_path):
        kernel = """
            from dataclasses import dataclass

            @dataclass(frozen=True, slots=True)
            class DecisionNode:
                variable: int
        """
        other = """
            from dataclasses import dataclass

            @dataclass
            class HelperNode:
                value: int
        """
        pkg = write_package(tmp_path, kernel=kernel, other=other)
        result = analyze([pkg], config=KERNEL_CONFIG, select=["SLOTS001"])
        assert findings_for(result, "SLOTS001") == []


class TestEXCEPT001:
    CONFIG = AnalysisConfig(
        package="pkg", rules={"EXCEPT001": {"modules": ("pkg.engine",)}}
    )

    def test_broad_handler_flagged_at_except_line(self, tmp_path):
        source = """
            def run(task):
                try:
                    return task()
                except Exception:
                    return None
        """
        pkg = write_package(tmp_path, engine=source)
        result = analyze([pkg], config=self.CONFIG, select=["EXCEPT001"])
        findings = findings_for(result, "EXCEPT001")
        assert len(findings) == 1
        assert findings[0].line == line_of(source, "except Exception")
        assert "Exception" in findings[0].message

    def test_bare_except_and_tuple_catch_flagged(self, tmp_path):
        source = """
            def run(task):
                try:
                    return task()
                except (ValueError, BaseException):
                    pass
                try:
                    return task()
                except:
                    return None
        """
        pkg = write_package(tmp_path, engine=source)
        result = analyze([pkg], config=self.CONFIG, select=["EXCEPT001"])
        findings = findings_for(result, "EXCEPT001")
        assert len(findings) == 2
        assert "BaseException" in findings[0].message
        assert "bare except" in findings[1].message

    def test_typed_handlers_and_other_modules_pass(self, tmp_path):
        engine = """
            def run(task):
                try:
                    return task()
                except (ValueError, OSError):
                    return None
        """
        other = """
            def best_effort(task):
                try:
                    return task()
                except Exception:
                    return None
        """
        pkg = write_package(tmp_path, engine=engine, other=other)
        result = analyze([pkg], config=self.CONFIG, select=["EXCEPT001"])
        assert findings_for(result, "EXCEPT001") == []

    def test_justified_suppression_silences(self, tmp_path):
        source = """
            def run(task):
                try:
                    return task()
                # repro-analysis: allow(EXCEPT001): reports any failure to the parent
                except Exception:
                    return None
        """
        pkg = write_package(tmp_path, engine=source)
        result = analyze([pkg], config=self.CONFIG, select=["EXCEPT001"])
        assert findings_for(result, "EXCEPT001") == []
        assert [f.rule for f in result.suppressed] == ["EXCEPT001"]

    AUDIT_CONFIG = AnalysisConfig(
        package="pkg",
        rules={
            "EXCEPT001": {
                "modules": ("pkg.engine",),
                "audit-modules": ("pkg.store",),
                "audit-names": ("OSError",),
            }
        },
    )

    def test_audited_oserror_without_justification_flagged(self, tmp_path):
        store = """
            def persist(path, blob):
                try:
                    path.write_bytes(blob)
                except OSError:
                    return False
                return True
        """
        pkg = write_package(tmp_path, store=store)
        result = analyze([pkg], config=self.AUDIT_CONFIG, select=["EXCEPT001"])
        findings = findings_for(result, "EXCEPT001")
        assert len(findings) == 1
        assert findings[0].line == line_of(store, "except OSError")
        assert "OSError" in findings[0].message

    def test_audited_oserror_with_justification_passes(self, tmp_path):
        store = """
            def persist(path, blob):
                try:
                    path.write_bytes(blob)
                # repro-analysis: allow(EXCEPT001): write-behind is best-effort by contract
                except OSError:
                    return False
                return True
        """
        pkg = write_package(tmp_path, store=store)
        result = analyze([pkg], config=self.AUDIT_CONFIG, select=["EXCEPT001"])
        assert findings_for(result, "EXCEPT001") == []
        assert [f.rule for f in result.suppressed] == ["EXCEPT001"]

    def test_audit_ignores_subtypes_and_unaudited_modules(self, tmp_path):
        # Catching the precise subtype already documents the expectation;
        # the same handler outside the audited modules is idiomatic.
        store = """
            def read(path):
                try:
                    return path.read_bytes()
                except FileNotFoundError:
                    return None
        """
        engine = """
            def read(path):
                try:
                    return path.read_bytes()
                except OSError:
                    return None
        """
        pkg = write_package(tmp_path, store=store, engine=engine)
        result = analyze([pkg], config=self.AUDIT_CONFIG, select=["EXCEPT001"])
        assert findings_for(result, "EXCEPT001") == []


class TestSuppressions:
    SOURCE = """
        # repro-analysis: allow(REC001): depth bounded by the pattern size (<= 4)
        def walk(node):
            return walk(node.child)
    """

    def test_justified_suppression_silences_and_is_reported_as_suppressed(self, tmp_path):
        pkg = write_package(tmp_path, kernel=self.SOURCE)
        result = analyze([pkg], config=KERNEL_CONFIG, select=["REC001"])
        assert result.findings == ()
        assert len(result.suppressed) == 1
        assert result.suppressed[0].rule == "REC001"

    def test_suppression_without_justification_is_sup001_and_does_not_suppress(
        self, tmp_path
    ):
        source = """
            # repro-analysis: allow(REC001)
            def walk(node):
                return walk(node.child)
        """
        pkg = write_package(tmp_path, kernel=source)
        result = analyze([pkg], config=KERNEL_CONFIG, select=["REC001"])
        rules = sorted(f.rule for f in result.findings)
        assert rules == ["REC001", "SUP001"]
        sup = findings_for(result, "SUP001")[0]
        assert sup.line == line_of(source, "allow(REC001)")

    def test_suppression_for_other_rule_does_not_cover(self, tmp_path):
        source = """
            # repro-analysis: allow(DET001): not this rule
            def walk(node):
                return walk(node.child)
        """
        pkg = write_package(tmp_path, kernel=source)
        result = analyze([pkg], config=KERNEL_CONFIG, select=["REC001"])
        assert len(findings_for(result, "REC001")) == 1


class TestConfig:
    def test_per_module_override_disables_rule(self, tmp_path):
        source = """
            def order(values):
                return sorted(values, key=repr)
        """
        config = config_from_mapping(
            {
                "package": "pkg",
                "per-module": {"pkg.legacy": {"disable": ["DET001"]}},
            }
        )
        pkg = write_package(tmp_path, legacy=source, fresh=source)
        result = analyze([pkg], config=config, select=["DET001"])
        modules = {f.module for f in findings_for(result, "DET001")}
        assert modules == {"pkg.fresh"}

    def test_globally_disabled_rule_does_not_run(self, tmp_path):
        source = """
            def order(values):
                return sorted(values, key=repr)
        """
        config = config_from_mapping({"package": "pkg", "disable": ["DET001"]})
        pkg = write_package(tmp_path, mod=source)
        result = analyze([pkg], config=config)
        assert "DET001" not in result.rules_run

    def test_pyproject_discovery_reads_tool_table(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            textwrap.dedent(
                """
                [tool.repro-analysis]
                package = "pkg"
                kernel-modules = ["pkg.kernel"]

                [tool.repro-analysis.rules.REC001]
                root-modules = ["pkg.kernel"]
                """
            )
        )
        pkg = write_package(tmp_path, kernel="x = 1\n")
        config = discover_config([pkg])
        assert config.kernel_modules == ("pkg.kernel",)
        assert config.options_for("REC001")["root_modules"] == ["pkg.kernel"]
        assert config.source == tmp_path / "pyproject.toml"

    def test_repo_pyproject_parses(self):
        config = load_config(REPO_ROOT / "pyproject.toml")
        assert "repro.booleans.obdd" in config.kernel_modules


class TestCLI:
    @staticmethod
    def run_cli(*arguments: str, cwd: Path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        return subprocess.run(
            [sys.executable, "-m", "repro.analysis", *arguments],
            capture_output=True,
            text=True,
            cwd=cwd,
            env=env,
            timeout=60,
        )

    def test_findings_give_exit_1_and_json_report(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            '[tool.repro-analysis]\npackage = "pkg"\nkernel-modules = ["pkg.kernel"]\n'
        )
        write_package(tmp_path, kernel="def walk(n):\n    return walk(n - 1)\n")
        completed = self.run_cli("pkg", "--format", "json", cwd=tmp_path)
        assert completed.returncode == 1
        document = json.loads(completed.stdout)
        assert [f["rule"] for f in document["findings"]] == ["REC001"]
        assert document["findings"][0]["line"] == 1

    def test_clean_package_exits_0(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            '[tool.repro-analysis]\npackage = "pkg"\n'
        )
        write_package(tmp_path, mod="def add(a, b):\n    return a + b\n")
        completed = self.run_cli("pkg", "--strict", cwd=tmp_path)
        assert completed.returncode == 0, completed.stdout + completed.stderr
        assert "0 findings" in completed.stdout

    def test_list_rules_names_all_six(self, tmp_path):
        completed = self.run_cli("--list-rules", cwd=tmp_path)
        assert completed.returncode == 0
        for rule_id in (
            "REC001",
            "EXACT001",
            "EXCEPT001",
            "PICKLE001",
            "DET001",
            "SLOTS001",
        ):
            assert rule_id in completed.stdout


class TestSelfGate:
    """The tier-1 gate: the analyzer runs clean over this repository."""

    def test_src_repro_has_zero_findings(self):
        result = analyze([SRC / "repro"])
        assert set(result.rules_run) == set(rule_ids())
        assert result.modules_analyzed > 90
        details = "\n".join(
            f"{f.location()}: {f.rule} {f.message}" for f in result.findings
        )
        assert result.ok, f"repro.analysis found violations:\n{details}"

    def test_every_exact001_allow_pattern_names_a_function(self):
        """A stale allow-list entry exempts nothing today but would silently
        exempt a future function of that name: each pattern must match."""
        from repro.analysis.callgraph import CallGraph
        from repro.analysis.config import matches_any
        from repro.analysis.loader import load_paths

        config = load_config(REPO_ROOT / "pyproject.toml")
        patterns = config.options_for("EXACT001").get("allow_functions", ())
        assert patterns
        functions = CallGraph(load_paths([SRC / "repro"])).functions
        stale = [p for p in patterns if not any(matches_any(key, [p]) for key in functions)]
        assert not stale, f"EXACT001 allow-functions match no function: {stale}"

    def test_every_repo_suppression_is_justified(self):
        result = analyze([SRC / "repro"])
        assert not [f for f in result.findings if f.rule == "SUP001"]
        # Bounded-depth walkers in the structural front-end and query
        # matcher, the deliberate broad handlers on the crash-recovery
        # paths (worker loop survival, platform-variant tracker cleanup),
        # and the artifact store's audited OSError degradation decisions.
        suppressed_modules = {f.module for f in result.suppressed}
        assert suppressed_modules <= {
            "repro.queries.matching",
            "repro.structure.clique_width",
            "repro.structure.elimination",
            "repro.structure.minors",
            "repro.engine.parallel",
            "repro.engine.shm",
            "repro.store.format",
            "repro.store.store",
        }
