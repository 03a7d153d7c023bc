import importlib

import pytest

import chartab


def test_every_exported_name_is_its_module_attribute():
    for name in chartab.__all__:
        module = importlib.import_module(f"chartab.{chartab._MODULE_OF[name]}")
        assert getattr(chartab, name) is getattr(module, name)


def test_namespace_lists_and_star_imports_the_exports():
    assert len(chartab.__all__) == 65
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
