"""Rules over the package's own source files, read with ``ast``, and over the records they define."""
import ast
import dataclasses
import importlib
from pathlib import Path
from typing import Callable

import pytest

import edgeprice
from edgeprice import optimizers, pricing

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


def _sites(path: Path, found: Callable[[ast.AST], bool]) -> list[str]:
    """``module.function (line n)`` of each node that is ``found``, the function being the innermost around it."""
    sites = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if found(child):
                sites.append(f"{path.stem}.{where} (line {child.lineno})")
            visit(child, where)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return sites


def _named(node: ast.AST, name: str) -> bool:
    return name in (getattr(node, "id", None), getattr(node, "attr", None))


def _callers(path: Path, name: str) -> list[str]:
    """``module.function (line n)`` of each call to a ``name``."""
    return _sites(path, lambda node: isinstance(node, ast.Call) and _named(node.func, name))


def _readers(path: Path, name: str) -> list[str]:
    """``module.function (line n)`` of each read of a ``name``, bare or as an attribute."""
    return _sites(path, lambda node: isinstance(getattr(node, "ctx", None), ast.Load) and _named(node, name))


def test_only_the_gate_calls_validate():
    # scenario.checked is the one gate: it validates once per instance and raises ScenarioError,
    # so every entry refuses an invalid scenario with the same message
    callers = [caller for path in _SOURCES for caller in _callers(path, "validate")]
    assert [caller.split(" ")[0] for caller in callers] == ["scenario.checked"], callers


def test_only_scenario_from_config_builds_a_scenario():
    # settings become a Scenario on one path: the CLI loader, the defaults, the random draws and the
    # randomized comparison all convert through scenario.number_fields, and a copy is a replace
    callers = [caller for path in _SOURCES for caller in _callers(path, "Scenario")]
    assert [caller.split(" ")[0] for caller in callers] == ["scenario.scenario_from_config"], callers


def test_only_the_writer_and_the_heatmap_blocks_read_the_piece_bound():
    # harness._write slices every piece it is given, so an emitter passes its whole document; the
    # heatmap's blocks are sized by the same bound, so each is one write
    readers = [reader for path in _SOURCES for reader in _readers(path, "PIECE_CHARS")]
    assert {reader.split(" ")[0] for reader in readers} == {"harness._write", "svgplot._cell_blocks"}, readers


def test_only_the_searchers_read_numpy_words():
    # optimizers decodes a batch's GA and DE draws from PCG64 words as numpy converts them, rewinds a
    # trial's generator and reads its 32-bit buffer: numpy's word layout has that one home
    def buffer_key(node: ast.AST) -> bool:
        return isinstance(node, ast.Constant) and node.value == "has_uint32"

    sites = [site for path in _SOURCES for site in
             [*_readers(path, "random_raw"), *_readers(path, "advance"), *_sites(path, buffer_key)]]
    assert {site.split(".")[0] for site in sites} == {"optimizers"}, sites


def test_only_require_integer_says_a_least_count():
    # every count a caller passes (population, rounds, seed, trials, grid steps) is held to its least
    # value by one function, in one message form
    def says_least(node: ast.AST) -> bool:
        return isinstance(node, ast.Raise) and any(
            isinstance(part, ast.Constant) and "must be >=" in str(part.value) for part in ast.walk(node))

    sites = [site for path in _SOURCES for site in _sites(path, says_least)]
    assert [site.split(" ")[0] for site in sites] == ["optimizers.require_integer"], sites


def test_the_price_slope_is_derive_coefficients():
    # the gradient at a purchase is the coefficients whose critical point it is, less those charged
    callers = _callers(Path(pricing.__file__), "derive_coefficients")
    assert "pricing.user_utility_gradient" in [caller.split(" ")[0] for caller in callers], callers


def test_the_model_records_define_no_methods():
    # ChannelSpec, Scenario and Allocation hold data only: what is derived from them is said in functions,
    # scenario.spectral_efficiencies among them, and kept by scenario.kept
    records = {node.name: [item.name for item in node.body if isinstance(item, ast.FunctionDef)]
               for path in _SOURCES for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.ClassDef) and node.name in ("ChannelSpec", "Scenario", "Allocation")}
    assert records == {"ChannelSpec": [], "Scenario": [], "Allocation": []}


def test_every_package_and_test_source_parses_as_python_3_10():
    # 3.10 is the oldest Python CI runs: syntax of a later one (an except* clause, a type statement)
    # fails here on any Python
    failures = []
    for path in [*_SOURCES, *sorted(Path(__file__).parent.glob("*.py"))]:
        try:
            ast.parse(path.read_text(encoding="utf-8"), filename=path.name, feature_version=(3, 10))
        except SyntaxError as exc:
            failures.append(f"{path.name}:{exc.lineno}: {exc.msg}")
    assert failures == []


def test_no_module_but_scenario_reads_the_kb_unit():
    # a KB setting is converted by scenario.number_fields alone; GHz and Mbps still price the purchase
    readers = [f"{path.stem} (line {node.lineno})" for path in _SOURCES
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if "BITS_PER_KB" in (getattr(node, "attr", None), getattr(node, "id", None))
               or isinstance(node, ast.ImportFrom) and "BITS_PER_KB" in [alias.name for alias in node.names]]
    assert {reader.split(" ")[0] for reader in readers} == {"scenario"}, readers


def _classes() -> dict[str, type]:
    """``module.Class`` of each class a package module defines, private ones included."""
    classes = {}
    for path in _SOURCES:
        module = importlib.import_module("edgeprice" if path.stem == "__init__" else f"edgeprice.{path.stem}")
        for name, value in vars(module).items():
            if isinstance(value, type) and value.__module__ == module.__name__:
                classes[f"{path.stem}.{name}"] = value
    return classes


#: The records that keep ``dataclasses.replace`` or per-instance state: Scenario keeps what it
#: derives, SwarmConfig checks itself in ``__post_init__``, and the rest, ChannelSpec among them, are
#: replaced by callers and keep nothing (or, like the searcher, are objects rather than values).
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


def _function(module, name: str) -> ast.FunctionDef:
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    (function,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == name]
    return function


def test_the_search_loop_reads_a_searchers_two_rules_only():
    # a searcher is its name, a proposal rule and an acceptance rule: the loop starts every state as ()
    # and acceptance writes in place, so adding a searcher touches no loop code
    fields = [f.name for f in dataclasses.fields(optimizers._Searcher)]
    assert fields == ["name", "propose", "accept"]
    search = _function(optimizers, "_search")
    parents = {child: node for node in ast.walk(search) for child in ast.iter_child_nodes(node)}
    uses = [node for node in ast.walk(search) if isinstance(node, ast.Name) and node.id == "searcher"]
    read = [getattr(parents[use], "attr", f"line {use.lineno}: the searcher itself") for use in uses]
    assert sorted(set(read)) == ["accept", "propose"], read
    # the acceptance call is a statement of its own: its result, if any, is not used
    accepts = [use for use in uses if getattr(parents[use], "attr", None) == "accept"]
    assert [type(parents[parents[parents[use]]]) for use in accepts] == [ast.Expr]


def test_a_search_reads_one_box():
    # the initial sample, the padding corner and every proposal read the one box of (s, p_n)
    calls = [node for node in ast.walk(_function(optimizers, "_search"))
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_search_box"]
    assert len(calls) == 1


def test_only_the_memo_names_an_instance_dict():
    # scenario.kept is the one memo of what a Scenario derives; every other module goes through it
    named = [f"{path.stem} (line {node.lineno})" for path in _SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if "__dict__" in (getattr(node, "attr", None), getattr(node, "id", None), getattr(node, "value", None))]
    assert {name.split(" ")[0] for name in named} == {"scenario"}, named


def test_no_cached_property_keeps_a_second_memo():
    # a cached_property writes the instance __dict__ itself, where the test above cannot see it
    named = [f"{path.name}:{node.lineno}" for path in _SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if "cached_property" in (getattr(node, "attr", None), getattr(node, "id", None),
                                      getattr(node, "name", None))]
    assert named == []


def _powers(path: Path) -> list[str]:
    """``file:line`` of each ``**`` power, binary or augmented, whose operands are not both constants."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(getattr(node, "op", None), ast.Pow):
            operands = (node.left, node.right) if isinstance(node, ast.BinOp) else (node.target, node.value)
            if not all(isinstance(x, ast.Constant) for x in operands):
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_every_power_of_the_model_goes_through_libm():
    # Python's float ** raises OverflowError where numpy's gives inf, and numpy's can differ from the C
    # library in the last bit: scenario.libm(pow, x, y) gives inf and the C library's bits on both.
    # A power of two constants, such as 2**16, and ** argument unpacking are no power of the model.
    assert [power for path in _SOURCES for power in _powers(path)] == []
