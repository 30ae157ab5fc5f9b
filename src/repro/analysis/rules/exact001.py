"""EXACT001 — exact probability routes stay in exact arithmetic.

Bug class: PR 3 found Karp–Luby's union-bound scaling and the dissociation
bounds drifting because ``Fraction`` values leaked through ``float``
operations; the differential oracle only caught it at runtime on lucky seeds.
Every route advertised as exact must compute with ``Fraction`` (or integers)
end to end — the single deliberate exception is the float pass of the OBDD
evaluation kernel (``obdd_float`` and the float batch re-weighting), which
is declared in configuration rather than discovered.

Inside each declared exact-route function the rule flags:

* ``float`` literals (``0.5``, ``1e-9``);
* ``float(...)`` casts;
* ``math.*`` calls and constants, except the integer-exact allowlist
  (``isqrt``, ``comb``, ``factorial``, ``gcd``, ...) — ``math`` arithmetic is
  IEEE-754 arithmetic;
* true division ``/`` unless both operands are provably exact and at least
  one is a ``Fraction``: ``int / int`` is a float in disguise, and
  ``Fraction / unknown`` silently degrades when the unknown is a float.
  (``Fraction(a, b)`` or ``//`` are the exact spellings.)

Operand types come from a deliberately small local inference: parameter and
variable annotations, literals, and direct ``Fraction(...)`` / ``int``-y
assignments in the same function.

Options (``[tool.repro-analysis.rules.EXACT001]``):

* ``exact-modules`` — module patterns whose every function is an exact route;
* ``exact-functions`` — additional ``module:Qual.name`` function patterns;
* ``allow-functions`` — function patterns exempted (the declared float fast
  path);
* ``int-safe-math`` — extra ``math`` members to treat as exact.
"""

from __future__ import annotations

import ast
from typing import Iterator, Mapping

from repro.analysis.callgraph import FunctionNode
from repro.analysis.config import matches_any
from repro.analysis.loader import ModuleInfo
from repro.analysis.registry import AnalysisContext, register
from repro.analysis.report import Finding

INT_SAFE_MATH = frozenset(
    {"isqrt", "comb", "perm", "factorial", "gcd", "lcm", "floor", "ceil", "trunc"}
)

# The tiny abstract domain of the local type inference.
_FRACTION = "fraction"
_INT = "int"
_FLOAT = "float"
_UNKNOWN = "unknown"

_EXACT = frozenset({_FRACTION, _INT})

_INT_CALLS = frozenset({"int", "len", "sum", "abs", "round", "ord", "hash"})


@register
class ExactnessPurityRule:
    id = "EXACT001"
    title = "exact routes must stay in Fraction/integer arithmetic"
    description = (
        "Declared exact probability routes may not touch float literals, "
        "float() casts, math.* arithmetic, or inexact true division."
    )

    def check(self, context: AnalysisContext) -> Iterator[Finding]:
        options = context.options_for(self.id)
        exact_modules = tuple(options.get("exact_modules", ()))
        exact_functions = tuple(options.get("exact_functions", ()))
        allow_functions = tuple(options.get("allow_functions", ()))
        int_safe = INT_SAFE_MATH | frozenset(options.get("int_safe_math", ()))
        if not exact_modules and not exact_functions:
            return

        graph = context.callgraph
        module_by_name = {module.name: module for module in context.modules}
        matched: list[FunctionNode] = []
        for key, function in graph.functions.items():
            if matches_any(key, allow_functions) or _ancestor_allowed(
                function, allow_functions, graph.functions
            ):
                continue
            if context.config.is_reference_module(function.module):
                continue
            if matches_any(function.module, exact_modules) or matches_any(
                key, exact_functions
            ):
                matched.append(function)
        # Nested functions whose enclosing function is already matched are
        # checked as part of the parent walk; drop them to avoid duplicates.
        matched_keys = {function.key for function in matched}
        roots = [
            function
            for function in matched
            if not _ancestor_matched(function, matched_keys, graph.functions)
        ]
        allow = allow_functions
        for function in sorted(roots, key=lambda f: (f.module, f.lineno)):
            module = module_by_name.get(function.module)
            if module is None:
                continue
            yield from self._check_function(context, module, function, allow, int_safe)

    def _check_function(
        self,
        context: AnalysisContext,
        module: ModuleInfo,
        function: FunctionNode,
        allow_functions: tuple[str, ...],
        int_safe: frozenset[str],
    ) -> Iterator[Finding]:
        types = _local_types(function.ast_node)
        for node in _walk_route(function, allow_functions):
            if isinstance(node, ast.Constant) and type(node.value) is float:
                yield context.finding(
                    self.id,
                    module,
                    node,
                    f"float literal {node.value!r} in exact route "
                    f"'{function.qualname}'; use Fraction",
                    symbol=function.qualname,
                )
            elif isinstance(node, ast.Call):
                finding = self._check_call(context, module, function, node, int_safe)
                if finding is not None:
                    yield finding
            elif isinstance(node, ast.Attribute) and _is_math_member(node):
                if node.attr not in int_safe:
                    yield context.finding(
                        self.id,
                        module,
                        node,
                        f"math.{node.attr} in exact route '{function.qualname}' "
                        "is IEEE-754 arithmetic; use exact integer/Fraction forms",
                        symbol=function.qualname,
                    )
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                left = _classify(node.left, types)
                right = _classify(node.right, types)
                exact_division = (
                    left in _EXACT
                    and right in _EXACT
                    and _FRACTION in (left, right)
                )
                if not exact_division:
                    yield context.finding(
                        self.id,
                        module,
                        node,
                        f"true division ({left} / {right}) in exact route "
                        f"'{function.qualname}' is not provably exact; use "
                        "Fraction(numerator, denominator) or //",
                        symbol=function.qualname,
                    )

    def _check_call(
        self,
        context: AnalysisContext,
        module: ModuleInfo,
        function: FunctionNode,
        node: ast.Call,
        int_safe: frozenset[str],
    ) -> Finding | None:
        func = node.func
        if isinstance(func, ast.Name) and func.id == "float":
            return context.finding(
                self.id,
                module,
                node,
                f"float() cast in exact route '{function.qualname}'",
                symbol=function.qualname,
            )
        return None


def _ancestor_allowed(
    function: FunctionNode,
    allow_functions: tuple[str, ...],
    functions: Mapping[str, FunctionNode],
) -> bool:
    """True when any enclosing function is allowlisted (nested defs inherit)."""
    parent_key = function.parent_function
    while parent_key is not None:
        if matches_any(parent_key, allow_functions):
            return True
        parent = functions.get(parent_key)
        parent_key = parent.parent_function if parent is not None else None
    return False


def _ancestor_matched(
    function: FunctionNode,
    matched_keys: set[str],
    functions: Mapping[str, FunctionNode],
) -> bool:
    parent_key = function.parent_function
    while parent_key is not None:
        if parent_key in matched_keys:
            return True
        parent = functions.get(parent_key)
        parent_key = parent.parent_function if parent is not None else None
    return False


def _walk_route(
    function: FunctionNode, allow_functions: tuple[str, ...]
) -> Iterator[ast.AST]:
    """The function body including nested defs, minus allowlisted nested defs."""
    stack: list[ast.AST] = list(function.ast_node.body)
    module = function.module
    prefix = f"{function.qualname}.<locals>."
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nested_key = f"{module}:{prefix}{node.name}"
            if matches_any(nested_key, allow_functions):
                continue
            stack.extend(node.body)
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _is_math_member(node: ast.Attribute) -> bool:
    return isinstance(node.value, ast.Name) and node.value.id == "math"


def _local_types(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
) -> dict[str, str]:
    """name -> abstract type, from annotations and direct assignments."""
    types: dict[str, str] = {}

    def note(name: str, inferred: str) -> None:
        seen = types.get(name)
        if seen is None:
            types[name] = inferred
        elif seen != inferred:
            types[name] = _UNKNOWN

    arguments = node.args
    for argument in (*arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs):
        if argument.annotation is not None:
            inferred = _annotation_type(argument.annotation)
            if inferred is not None:
                note(argument.arg, inferred)
    for statement in ast.walk(node):
        if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
            inferred = _annotation_type(statement.annotation)
            if inferred is not None:
                note(statement.target.id, inferred)
        elif isinstance(statement, ast.Assign):
            for target in statement.targets:
                if isinstance(target, ast.Name):
                    note(target.id, _classify(statement.value, {}))
    return types


def _annotation_type(annotation: ast.expr) -> str | None:
    if isinstance(annotation, ast.Name):
        return {"Fraction": _FRACTION, "int": _INT, "float": _FLOAT, "bool": _INT}.get(
            annotation.id
        )
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        return {"Fraction": _FRACTION, "int": _INT, "float": _FLOAT}.get(
            annotation.value.strip()
        )
    return None


def _classify(expr: ast.expr, types: Mapping[str, str]) -> str:
    """Abstract type of an expression under the local environment."""
    if isinstance(expr, ast.Constant):
        if isinstance(expr.value, bool) or isinstance(expr.value, int):
            return _INT
        if type(expr.value) is float:
            return _FLOAT
        return _UNKNOWN
    if isinstance(expr, ast.Name):
        return types.get(expr.id, _UNKNOWN)
    if isinstance(expr, ast.Call):
        func = expr.func
        if isinstance(func, ast.Name):
            if func.id == "Fraction":
                return _FRACTION
            if func.id in _INT_CALLS:
                return _INT
            if func.id == "float":
                return _FLOAT
        return _UNKNOWN
    if isinstance(expr, ast.UnaryOp):
        return _classify(expr.operand, types)
    if isinstance(expr, ast.BinOp):
        left = _classify(expr.left, types)
        right = _classify(expr.right, types)
        if isinstance(expr.op, ast.Div):
            if left == _FRACTION and right in _EXACT:
                return _FRACTION
            if right == _FRACTION and left in _EXACT:
                return _FRACTION
            return _UNKNOWN
        if isinstance(expr.op, (ast.Add, ast.Sub, ast.Mult, ast.Pow, ast.FloorDiv, ast.Mod)):
            if _FLOAT in (left, right):
                return _FLOAT
            if _UNKNOWN in (left, right):
                return _UNKNOWN
            if _FRACTION in (left, right):
                return _FRACTION
            return _INT
        return _UNKNOWN
    if isinstance(expr, ast.IfExp):
        body = _classify(expr.body, types)
        orelse = _classify(expr.orelse, types)
        return body if body == orelse else _UNKNOWN
    return _UNKNOWN
