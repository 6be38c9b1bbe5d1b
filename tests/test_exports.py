"""The package's public surface: ``evfuse.__all__`` is what it exports."""

import evfuse
from evfuse import engine


def test_every_exported_name_resolves_on_the_package():
    missing = [name for name in evfuse.__all__ if not hasattr(evfuse, name)]
    assert missing == []


def test_the_export_list_is_sorted_without_repeats():
    assert evfuse.__all__ == sorted(set(evfuse.__all__))


def test_a_star_import_binds_exactly_the_exported_names():
    namespace = {}
    exec("from evfuse import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == evfuse.__all__


def test_combine2_is_exported_from_the_engine():
    assert evfuse.combine2 is engine.combine2
