"""The package's public surface: ``evfuse.__all__`` is what it exports."""

import evfuse
from evfuse import engine, rules

PUBLIC = [
    "ColumnSums",
    "ExpressionError",
    "Frame",  # read by perfbench/workloads.py
    "FusionState",  # read by perfbench/workloads.py
    "MassFunction",  # read by perfbench/workloads.py
    "Model",
    "Proposition",
    "Rule",
    "TotalConflictError",  # read by perfbench/workloads.py
    "ValidationError",  # read by perfbench/workloads.py
    "combine2",
    "deviation",
    "make_model",  # read by perfbench/workloads.py
    "sdli2",  # read by perfbench/workloads.py
    "vbf",
]

# the conjunctive and transfer stages that FusionState runs, kept in their modules
STAGES = {
    rules: ["apply_transfer", "conjunctive", "transfer_dempster", "transfer_sdli",
            "transfer_smets", "transfer_union", "transfer_yager"],
    engine: ["oracle_conjunctive"],
}


def test_the_export_list_is_the_public_surface():
    assert evfuse.__all__ == PUBLIC


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


def test_the_stages_stay_in_their_modules_and_off_the_package():
    for module, names in STAGES.items():
        for name in names:
            assert callable(getattr(module, name)), (module.__name__, name)
            assert not hasattr(evfuse, name), name
    assert not hasattr(evfuse.mass, "column_sums")
    assert not hasattr(evfuse.Proposition, "dnf_terms")
    assert not hasattr(evfuse.MassFunction, "focal")
