import ast
import importlib
import inspect
import os
import pkgutil
import typing

import pytest

import chartab

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_every_exported_name_is_its_module_attribute():
    for name in chartab.__all__:
        module = importlib.import_module(f"chartab.{chartab._MODULE_OF[name]}")
        assert getattr(chartab, name) is getattr(module, name)


def test_namespace_lists_and_star_imports_the_exports():
    assert len(chartab.__all__) == 54
    assert set(chartab.__all__) <= set(dir(chartab))
    namespace = {}
    exec("from chartab import *", namespace)
    assert set(chartab.__all__) <= set(namespace)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'Permutation'"):
        chartab.Permutation


@pytest.mark.parametrize("part, attr", [
    ("data", "sizes"), ("row", "values"), ("row", "degree"), ("table", "provenance"),
    ("table", "rows"), ("table", "new_attribute"),
])
def test_tables_and_their_parts_are_immutable(table_factory, part, attr):
    table = table_factory("S3")
    obj = {"data": table.data, "row": table.rows[0], "table": table}[part]
    with pytest.raises(AttributeError):
        setattr(obj, attr, ())
    with pytest.raises(AttributeError):
        delattr(obj, attr)


# each record's fields in order: the tuple that `==` and hashing see
RECORD_FIELDS = {
    "GroupSpec": "name degree generators",
    "ClassData": "order sizes power_map",
    "ClassFunction": "values",
    "SizeSpectrum": "order counts",
    "DefectReport": "p n real residues defect_zero_classes character_side direct_side",
    "BlockReport": "p members member_flags failures",
    "AltNormalizerReport": (
        "p block gamma_values p_times_order_p_part block_degree_sum block_degree_sum_p_part"
    ),
    "ReductionMap": "e p m f",
    "CheckResult": "group check ok detail",
}


@pytest.mark.parametrize("name", RECORD_FIELDS)
def test_records_are_named_tuples_without_attributes(name):
    cls = getattr(chartab, name)
    assert cls._fields == tuple(RECORD_FIELDS[name].split())
    record = cls(*range(len(cls._fields)))
    assert record == tuple(record) and hash(record) == hash(tuple(record))
    changed = record._replace(**{cls._fields[0]: -1})
    assert type(changed) is cls and changed[1:] == record[1:]
    with pytest.raises(AttributeError):
        record.new_attribute = 1


def test_check_result_detail_defaults_to_empty():
    assert chartab.CheckResult("S3", "identities", True) == ("S3", "identities", True, "")


# each expression README's Library example annotates, with the value its
# comment gives
LIBRARY_VALUES = (
    ("table.degrees", "(1, 1, 2)"),
    ("gamma(2, table, 0)", "11"),
    ("seq", "[3, 11, 49, 251]"),
    ("recover_class_sizes(seq, 6).as_dict()", "{1: 1, 2: 1, 3: 1}"),
    ("p_element_flags(table, rmap)", "(True, True, False)"),
    ("principal_block_members(table, rmap).members", "(0, 1, 2)"),
)


def test_readme_library_example_runs():
    with open(README, encoding="utf-8") as fh:
        library = fh.read().split("\n## Library\n", 1)[1]
    block = library.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    for expr, value in LIBRARY_VALUES:
        assert f"# {value}" in block, value
        assert eval(expr, namespace) == ast.literal_eval(value), expr


def _functions():
    """Every function and method defined in a chartab module, private ones too."""
    for info in pkgutil.iter_modules(chartab.__path__):
        if info.name == "__main__":  # importing it runs the command line
            continue
        module = importlib.import_module(f"chartab.{info.name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield obj
            elif inspect.isclass(obj):
                yield from (f for f in vars(obj).values() if inspect.isfunction(f))


def test_no_function_takes_a_group_and_its_classes():
    # a ConjugacyData holds its group, so a (group, cd) pair can only disagree
    functions = list(_functions())
    assert any(f.__name__ == "_build_table" for f in functions)
    both = [
        f.__qualname__ for f in functions
        if {"group", "cd"} <= set(inspect.signature(f).parameters)
    ]
    assert both == []


def test_every_annotation_resolves():
    # postponed annotations are strings; each must name something its module
    # defines or imports at module level, so that the annotations resolve
    unresolved = []
    for f in _functions():
        try:
            typing.get_type_hints(f)
        except Exception as exc:
            unresolved.append(f"{f.__module__}.{f.__qualname__}: {exc!r}")
    assert unresolved == []


# cyclo alone builds values from ints and does arithmetic on coefficient
# tuples, the reduction's remainders included; outside it, .coeffs is read by
# the canonical row order and the table file's value records only
PRIVATE_TO_CYCLO = {"_make", "_reduce", "_integers"}
COEFFS_READERS = {("dixon", "_sort_rows"), ("tables", "table_to_dict")}


def test_only_cyclo_touches_coefficients():
    src = os.path.dirname(chartab.__file__)
    found = []
    for filename in sorted(os.listdir(src)):
        if not filename.endswith(".py") or filename == "cyclo.py":
            continue
        module = filename[:-3]
        with open(os.path.join(src, filename), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for top in tree.body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                name = getattr(node, "id", None) or getattr(node, "attr", None)
                if isinstance(node, ast.alias):
                    name = node.name
                if name in PRIVATE_TO_CYCLO or (
                    isinstance(node, ast.Attribute) and name == "coeffs"
                    and (module, owner) not in COEFFS_READERS
                ):
                    found.append(f"{module}.{owner}: {name}")
    assert found == []


# tables alone reads and writes the value records of a table file, and cli
# alone turns the values and reports into JSON
SERIALIZATION_METHODS = ("to_dict", "from_dict", "as_dict")
RECORDS_WITHOUT_SERIALIZATION = (
    "Cyclotomic", "DefectReport", "BlockReport", "AltNormalizerReport", "CheckResult",
)


def test_each_format_has_one_owner():
    src = os.path.dirname(chartab.__file__)
    found = []
    for filename in sorted(os.listdir(src)):
        if not filename.endswith(".py") or filename == "tables.py":
            continue
        with open(os.path.join(src, filename), encoding="utf-8") as fh:
            text = fh.read()
        found += [
            f"{filename}: {key}" for key in ('"num"', "'num'", '"den"', "'den'") if key in text
        ]
    for name in RECORDS_WITHOUT_SERIALIZATION:
        cls = getattr(chartab, name)
        found += [f"{name}.{m}" for m in SERIALIZATION_METHODS if hasattr(cls, m)]
    assert found == []


def _package_imports():
    """Module -> the chartab modules it imports, at module level or in a function."""
    src = os.path.dirname(chartab.__file__)
    modules = {name[:-3] for name in os.listdir(src) if name.endswith(".py")}
    graph = {}
    for module in sorted(modules):
        with open(os.path.join(src, f"{module}.py"), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        targets = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                paths = [alias.name.split(".") for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                paths = [["chartab", *(node.module or "").split(".")]]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                paths = [node.module.split(".")]
            else:
                continue
            for path in paths:
                if path[0] != "chartab":
                    continue
                if len(path) > 1 and path[1]:
                    targets.add(path[1])
                else:  # `from . import x` and `from chartab import x` name modules
                    targets.update(alias.name for alias in node.names)
        graph[module] = targets & modules - {module}
    return graph


def test_package_imports_have_no_cycle():
    # each module is a layer: none imports, at any depth, a module that
    # imports it back; the first cycle found is named in the failure
    graph = _package_imports()
    assert "dixon" in graph["tables"]  # an import inside a function counts
    done, path = set(), []

    def cycle_from(module):
        if module in path:
            return path[path.index(module):] + [module]
        if module not in done:
            path.append(module)
            for target in sorted(graph[module]):
                cycle = cycle_from(target)
                if cycle:
                    return cycle
            path.pop()
            done.add(module)
        return None

    assert next(filter(None, map(cycle_from, sorted(graph))), None) is None


# the private names a module may import from another chartab module, as
# (importer, source, name); an import of any other _name across modules fails
PRIVATE_IMPORTS = {
    ("tables", "groups", "_read_json"),
    ("tables", "dixon", "_build_table"),
    ("verify", "dixon", "_build_table"),
    ("duality", "classfuncs", "_multiplicities"),
    ("verify", "classfuncs", "_multiplicities"),
    ("duality", "classfuncs", "_nonnegative"),
}


def test_private_names_are_imported_only_where_listed():
    src = os.path.dirname(chartab.__file__)
    found = set()
    for filename in sorted(os.listdir(src)):
        if not filename.endswith(".py"):
            continue
        with open(os.path.join(src, filename), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):  # imports inside functions count
            if not isinstance(node, ast.ImportFrom) or node.level > 1:
                continue
            path = (node.module or "").split(".")
            if node.level == 1:
                path = ["chartab", *path]
            if path[0] != "chartab":
                continue
            source = path[1] if len(path) > 1 and path[1] else "chartab"
            found |= {
                (filename[:-3], source, alias.name)
                for alias in node.names if alias.name.startswith("_")
            }
    assert ("tables", "dixon", "_build_table") in found  # the scan sees function bodies
    assert found == PRIVATE_IMPORTS
