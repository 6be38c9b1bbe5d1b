"""The immutable value classes: Frame, Proposition, Model, FusionState,
MassFunction and ColumnSums.

They compare by their fields, reject assignment and deletion, and
survive pickling, deep copies and weak references.  The first three hash
by their fields and print as them; the last three hold dicts and are
unhashable.
"""

import copy
import pickle
import weakref

import pytest

from evfuse import ColumnSums, Frame, FusionState, MassFunction, Model, Proposition, Rule
from evfuse.cli import Scenario


def build():
    """One value of each class, built afresh on every call."""
    frame = Frame(("A", "B", "C"))
    model = Model.exclusive(frame)
    source = MassFunction(model, {frame.parse("A"): 0.6, frame.total_ignorance(): 0.4})
    state = FusionState.initial(model).fuse(source)
    return {"frame": frame, "proposition": frame.parse("A|B&C"), "model": model, "state": state,
            "mass": source, "columns": state.columns}


KINDS = ["frame", "proposition", "model", "state", "mass", "columns"]


@pytest.mark.parametrize("kind", KINDS)
def test_equal_values_from_separate_builds(kind):
    a, b = build()[kind], build()[kind]
    assert a is not b
    assert a == b and not a != b
    assert a == a


@pytest.mark.parametrize("kind", ["frame", "proposition", "model"])
def test_equal_values_hash_equal(kind):
    a, b = build()[kind], build()[kind]
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_values_differ_by_any_field():
    frame = Frame(("A", "B", "C"))
    assert frame != Frame(("A", "B", "D"))
    assert frame.parse("A") != frame.parse("B")
    assert frame.parse("A") != Frame(("A", "B", "D")).parse("A")
    assert Model.free(frame) != Model.exclusive(frame)
    state = FusionState.initial(Model.free(frame))
    assert state != FusionState.initial(Model.free(frame), 0.25)
    assert state != state.fuse(MassFunction(Model.free(frame), {frame.parse("A"): 1.0}))
    model, a, top = Model.free(frame), frame.parse("A"), frame.total_ignorance()
    source = MassFunction(model, {a: 0.5, top: 0.5})
    assert source != MassFunction(model, {a: 0.25, top: 0.75})
    assert source != MassFunction(Model.exclusive(frame), {a: 0.5, top: 0.5})
    assert ColumnSums(model, {a: 0.5}, 1) != ColumnSums(model, {a: 0.5}, 2)
    assert ColumnSums(model, {a: 0.5}, 1) != ColumnSums(model, {top: 0.5}, 1)
    assert ColumnSums(model, {a: 0.5}, 1) != ColumnSums(Model.exclusive(frame), {a: 0.5}, 1)


@pytest.mark.parametrize("kind", KINDS)
def test_another_class_is_not_implemented(kind):
    values = build()
    value = values[kind]
    for other in [*(v for k, v in values.items() if k != kind), 1, "A", None, (value,)]:
        assert value.__eq__(other) is NotImplemented
        assert value != other


def test_a_stored_state_is_unhashable():
    with pytest.raises(TypeError):
        hash(build()["state"])


@pytest.mark.parametrize("kind, name", [("mass", "MassFunction"), ("columns", "ColumnSums")])
def test_masses_are_unhashable(kind, name):
    with pytest.raises(TypeError, match=f"^unhashable type: '{name}'$"):
        hash(build()[kind])


def test_repr_strings():
    values = build()
    frame = "Frame(atoms=('A', 'B', 'C'))"
    assert repr(values["frame"]) == frame
    assert repr(values["proposition"]) == "<Proposition A|B&C>"
    assert repr(values["model"]) == f"Model(frame={frame}, constrained=232)"
    assert repr(values["state"]) == (
        "FusionState(accumulator=MassFunction({A: 0.600000, A|B|C: 0.400000}), "
        "columns=ColumnSums({<Proposition A>: 0.6, <Proposition A|B|C>: 0.4}, source_count=1), "
        "prune_epsilon=0.0)"
    )
    assert repr(FusionState.initial(Model.free(Frame(["x", "y"])), 0.5)) == (
        "FusionState(accumulator=MassFunction({x|y: 1.000000}), "
        "columns=ColumnSums({}, source_count=0), prune_epsilon=0.5)"
    )


@pytest.mark.parametrize("kind, field", [
    ("frame", "atoms"), ("proposition", "bits"), ("model", "constrained"),
    ("state", "prune_epsilon"), ("frame", "n"), ("model", "extra"),
    ("mass", "model"), ("mass", "_masses"), ("mass", "terms"),
    ("columns", "model"), ("columns", "source_count"), ("columns", "_masses"),
])
def test_assignment_and_deletion_raise_attribute_error(kind, field):
    value = build()[kind]
    before = vars(value).copy()
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(value, field, 0)
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(value, field)
    assert vars(value) == before


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
@pytest.mark.parametrize("kind", KINDS)
def test_pickle_round_trip(kind, protocol):
    value = build()[kind]
    back = pickle.loads(pickle.dumps(value, protocol))
    assert type(back) is type(value)
    assert back == value


@pytest.mark.parametrize("kind", KINDS)
def test_deepcopy_round_trip(kind):
    value = build()[kind]
    back = copy.deepcopy(value)
    assert back is not value and back == value
    assert copy.copy(value) == value


def test_a_copied_state_fuses_and_snapshots_alike():
    state = build()["state"]
    frame = state.model.frame
    source = MassFunction(state.model, {frame.parse("B"): 0.5, frame.parse("A|B"): 0.5})
    for copied in (copy.deepcopy(state), pickle.loads(pickle.dumps(state))):
        for rule in Rule:
            assert copied.fuse(source).snapshot(rule) == state.fuse(source).snapshot(rule)


@pytest.mark.parametrize("kind", KINDS)
def test_weak_references(kind):
    value = build()[kind]
    ref = weakref.ref(value)
    assert ref() is value
    del value
    assert ref() is None


def test_frame_memos_fill_on_a_frozen_frame():
    frame = Frame(("A", "B", "C"))
    assert frame.parse("A&B|C").text() == "A&B|C"
    assert {"full_bits", "_atom_bits", "_regions"} <= set(vars(frame))
    assert frame == Frame(("A", "B", "C"))


def test_constructors_take_their_field_names():
    frame = Frame(atoms=["A", "B"])
    assert frame.atoms == ("A", "B")
    assert Proposition(frame=frame, bits=frame.full_bits) == frame.total_ignorance()
    model = Model(frame=frame, constrained=0)
    assert model == Model.free(frame)
    columns = ColumnSums.empty(model)
    state = FusionState(accumulator=FusionState.initial(model).accumulator, columns=columns)
    assert state.prune_epsilon == 0.0 and state == FusionState.initial(model)
    scenario = Scenario(start=state, names=["s"], masses=[], rule=Rule.SDLI)
    assert (scenario.start, scenario.names, scenario.masses, scenario.rule) == (
        state, ["s"], [], Rule.SDLI)
