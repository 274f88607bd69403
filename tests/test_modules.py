"""Rules over the package's own source files, read with ``ast``, and over the records they define."""
import ast
import dataclasses
import importlib
from pathlib import Path

import pytest

import edgeprice

_SOURCES = sorted(Path(edgeprice.__file__).parent.glob("*.py"))


def _private_reaches(tree: ast.Module) -> list[str]:
    """Each underscore name imported from, or read off, another module of the package."""
    modules = set()  # local names of package modules, bound by "from . import x"
    reached = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("edgeprice")):
            for alias in node.names:
                if alias.name.startswith("_"):
                    reached.append(f"line {node.lineno}: {alias.name} from {node.module or '.'}")
                elif node.module is None:
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            reached.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
    return reached


def test_no_module_reaches_a_private_name_of_another():
    # a name one module needs from another is public there, so it has one home and one spelling;
    # tests and the benchmark may still reach private names
    assert len(_SOURCES) > 1
    reached = {path.name: _private_reaches(ast.parse(path.read_text(encoding="utf-8"))) for path in _SOURCES}
    assert {name: lines for name, lines in reached.items() if lines} == {}


def _validate_callers(path: Path) -> list[str]:
    """``module.function`` of each call to a ``validate``, the function being the innermost around it."""
    callers = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if getattr(func, "id", None) == "validate" or getattr(func, "attr", None) == "validate":
                    callers.append(f"{path.stem}.{where} (line {child.lineno})")
            visit(child, where)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return callers


def test_only_the_gate_calls_validate():
    # scenario.checked is the one gate: it validates once per instance and raises ScenarioError,
    # so every entry refuses an invalid scenario with the same message
    callers = [caller for path in _SOURCES for caller in _validate_callers(path)]
    assert [caller.split(" ")[0] for caller in callers] == ["scenario.checked"], callers


def _classes() -> dict[str, type]:
    """``module.Class`` of each class a package module defines, private ones included."""
    classes = {}
    for path in _SOURCES:
        module = importlib.import_module("edgeprice" if path.stem == "__init__" else f"edgeprice.{path.stem}")
        for name, value in vars(module).items():
            if isinstance(value, type) and value.__module__ == module.__name__:
                classes[f"{path.stem}.{name}"] = value
    return classes


#: The records that keep ``dataclasses.replace`` or per-instance state: Scenario and ChannelSpec
#: cache in ``__dict__``, SwarmConfig checks itself in ``__post_init__``, and the rest are replaced
#: by callers (or, like the searcher, are objects rather than values).
_DATACLASSES = {
    "harness.ComparisonReport", "harness.SweepSpec", "offload.Allocation", "optimizers.RunResult",
    "optimizers.SwarmConfig", "optimizers.TrialStats", "optimizers._Searcher", "scenario.ChannelSpec",
    "scenario.Scenario",
}

#: Every other result record is a NamedTuple: defined without generated code, immutable, and its
#: fields in the order they had as dataclasses.
_RECORDS = {
    "offload.TimeBreakdown": ("t_local", "t_u", "t_p", "t_d", "t_offload", "t_save"),
    "offload.EnergyBreakdown": ("e_local", "e_up", "e_d", "e_save"),
    "pricing.PriceCoefficients": ("a", "b_coef"),
    "pricing.UtilitySummary": ("price", "u_user", "u_server", "w_revenue", "time", "energy"),
    "pricing.CurvatureReport": ("lambda1", "lambda2", "negative_definite", "critical_f", "critical_b"),
    "pricing.QuadraticGapEstimate": ("predicted_drop", "actual_drop"),
    "pricing.Diagnostics": ("b_part", "p_part", "u_affect"),
    "harness.SurfaceGrid": ("f_values", "b_values", "u_user", "price", "u_server"),
    "verification.AnchorCheck": ("name", "basis", "passed", "detail"),
}


def test_only_the_nine_replaced_or_stateful_records_are_dataclasses():
    assert {name for name, cls in _classes().items() if dataclasses.is_dataclass(cls)} == _DATACLASSES


@pytest.mark.parametrize("name", sorted(_RECORDS))
def test_each_value_record_is_an_immutable_named_tuple(name):
    cls = _classes()[name]
    assert issubclass(cls, tuple) and cls._fields == _RECORDS[name]
    record = cls(*map(float, range(len(cls._fields))))
    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, -1.0)
    assert record == tuple(map(float, range(len(cls._fields))))
