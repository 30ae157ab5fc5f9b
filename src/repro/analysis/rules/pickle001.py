"""PICKLE001 — only picklable callables cross the process pool boundary.

Bug class: everything submitted to ``ParallelEngine``'s persistent process
pool is pickled — ``ProcessPoolExecutor.submit`` pickles the callable and
every argument whatever the start method, and a ``Process`` target is
pickled under ``spawn`` — so lambdas, functions nested inside other
functions, and classes defined in a local scope raise ``PicklingError`` only
at runtime, on the first submission that carries them.  The shard runners
are module-level functions for this reason; this rule keeps it that way.

The rule inspects every pool submission site:

* attribute calls named like pool submissions (``map``, ``imap``,
  ``apply_async``, ``submit``, ...) — the callable is the first positional
  argument or the ``func=`` keyword, and every later positional argument is
  pickled too (``submit(fn, *args)`` ships a shard runner as an argument);
* any call carrying a ``target=`` or ``initializer=`` keyword
  (``multiprocessing.Process``, ``Pool``);
* the accompanying ``args=`` / ``initargs=`` / ``iterable`` arguments, whose
  *elements* are scanned for lambdas.

A callable or positional argument is flagged when it is a lambda, resolves to
a function or class defined inside another function, or is ``self.method``
of a class that is itself not module-level.  Names the analyzer cannot
resolve (parameters, attributes of unknown objects) are not flagged.

Options (``[tool.repro-analysis.rules.PICKLE001]``):

* ``submit-methods`` — extra attribute names treated as submission sites.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.callgraph import CallGraph, FunctionNode
from repro.analysis.loader import ModuleInfo
from repro.analysis.registry import AnalysisContext, register
from repro.analysis.report import Finding

SUBMIT_METHODS = frozenset(
    {
        "map",
        "map_async",
        "imap",
        "imap_unordered",
        "starmap",
        "starmap_async",
        "apply",
        "apply_async",
        "submit",
    }
)

CALLABLE_KEYWORDS = frozenset({"func", "target", "initializer"})
TUPLE_KEYWORDS = frozenset({"args", "initargs", "iterable"})


@register
class ForkSafetyRule:
    id = "PICKLE001"
    title = "pool submissions must be picklable"
    description = (
        "Lambdas, nested functions, and local classes cannot cross the "
        "multiprocessing boundary under the spawn start method."
    )

    def check(self, context: AnalysisContext) -> Iterator[Finding]:
        options = context.options_for(self.id)
        submit_methods = SUBMIT_METHODS | frozenset(options.get("submit_methods", ()))
        graph = context.callgraph
        module_by_name = {module.name: module for module in context.modules}
        for key in sorted(graph.functions):
            function = graph.functions[key]
            if context.config.is_reference_module(function.module):
                continue
            module = module_by_name.get(function.module)
            if module is None:
                continue
            for call in _calls_directly_in(function.ast_node):
                yield from self._check_call(
                    context, module, graph, function, call, submit_methods
                )

    def _check_call(
        self,
        context: AnalysisContext,
        module: ModuleInfo,
        graph: CallGraph,
        function: FunctionNode,
        call: ast.Call,
        submit_methods: frozenset[str],
    ) -> Iterator[Finding]:
        candidates: list[tuple[ast.expr, str]] = []
        is_submission = isinstance(call.func, ast.Attribute) and call.func.attr in submit_methods
        if is_submission and call.args:
            candidates.append((call.args[0], "submitted callable"))
            # submit(fn, *args) pickles every argument, callables included.
            candidates.extend((argument, "submitted argument") for argument in call.args[1:])
        for keyword in call.keywords:
            if keyword.arg in CALLABLE_KEYWORDS:
                candidates.append((keyword.value, f"{keyword.arg}= callable"))
                is_submission = True
        if not is_submission:
            return
        site = (
            call.func.attr if isinstance(call.func, ast.Attribute) else "submission"
        )
        for expr, role in candidates:
            problem = _unpicklable_reason(graph, function, expr)
            if problem is not None:
                yield context.finding(
                    self.id,
                    module,
                    expr,
                    f"{role} of '{site}' {problem}; move it to module level "
                    "so it pickles under the spawn start method",
                    symbol=function.qualname,
                )
        # Lambdas hiding inside argument tuples/iterables are just as fatal.
        for keyword in call.keywords:
            if keyword.arg in TUPLE_KEYWORDS:
                yield from self._scan_payload(
                    context, module, function, keyword.value, site
                )
        if isinstance(call.func, ast.Attribute) and call.func.attr in submit_methods:
            for argument in call.args[1:]:
                if not isinstance(argument, ast.Lambda):  # flagged above
                    yield from self._scan_payload(
                        context, module, function, argument, site
                    )

    def _scan_payload(
        self,
        context: AnalysisContext,
        module: ModuleInfo,
        function: FunctionNode,
        payload: ast.expr,
        site: str,
    ) -> Iterator[Finding]:
        for node in ast.walk(payload):
            if isinstance(node, ast.Lambda):
                yield context.finding(
                    self.id,
                    module,
                    node,
                    f"lambda inside the payload of '{site}' cannot be pickled "
                    "under the spawn start method",
                    symbol=function.qualname,
                )


def _unpicklable_reason(
    graph: CallGraph, scope: FunctionNode, expr: ast.expr
) -> str | None:
    if isinstance(expr, ast.Lambda):
        return "is a lambda, which cannot be pickled"
    if isinstance(expr, ast.Name):
        for frame in _scope_chain(graph, scope):
            if expr.id in frame.local_functions:
                return "is a function defined inside another function"
            if expr.id in frame.local_classes:
                return "is a class defined inside a function"
        return None
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
        and scope.class_key is not None
    ):
        class_node = graph.classes.get(scope.class_key)
        if class_node is not None and class_node.parent_function is not None:
            return "is a bound method of a class defined inside a function"
    return None


def _scope_chain(graph: CallGraph, scope: FunctionNode) -> Iterator[FunctionNode]:
    current: FunctionNode | None = scope
    while current is not None:
        yield current
        current = (
            graph.functions.get(current.parent_function)
            if current.parent_function
            else None
        )


def _calls_directly_in(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
) -> Iterator[ast.Call]:
    stack: list[ast.AST] = list(node.body)
    while stack:
        current = stack.pop()
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(current, ast.Call):
            yield current
        stack.extend(ast.iter_child_nodes(current))
