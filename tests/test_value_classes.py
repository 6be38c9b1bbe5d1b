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

from evfuse import (ColumnSums, Frame, FusionState, MassFunction, Model, Proposition, Rule,
                    make_model)
from evfuse.rules import apply_transfer
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


WIDE = tuple(f"x{i}" for i in range(16))
MEMOS = ("_regions", "_plans")


def _used_wide_frame():
    frame = Frame(WIDE)
    p = frame.parse("x0&x1|x2&x3&x15|x7")
    assert p.text() == "x0&x1|x2&x3&x15|x7" and len(p.conflict_parties()) == 6
    assert p.atoms_union() == frame.parse("x0|x1|x2|x3|x7|x15")
    # a routed snapshot of a conflicting product fills the plan memo
    product = MassFunction(Model.exclusive(frame), {p: 0.5, frame.parse("x0&x1"): 0.5},
                           allow_conflict=True)
    assert apply_transfer(Rule.DUBOIS_PRADE, product, ColumnSums.empty(product.model)).mass(frame.parse("x0|x1")) == 0.5
    assert all(getattr(frame, memo) for memo in MEMOS)
    return frame, p


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_a_frame_pickles_as_its_atom_names(protocol):
    # the bit tables and memos of a 16-atom frame run to hundreds of
    # kilobytes; the copy rebuilds them instead
    frame, p = _used_wide_frame()
    data = pickle.dumps(frame, protocol)
    assert len(data) < 1024
    back = pickle.loads(data)
    assert back == frame and back._atom_bits == frame._atom_bits
    assert not any(getattr(back, memo) for memo in MEMOS)
    q = Proposition(back, p.bits)
    assert q.text() == p.text()
    assert [g.bits for g in q.conflict_parties()] == [g.bits for g in p.conflict_parties()]
    assert q.atoms_union().bits == p.atoms_union().bits


def test_a_deepcopied_frame_starts_with_empty_memos():
    frame, p = _used_wide_frame()
    for back in (copy.deepcopy(frame), copy.copy(frame)):
        assert back is not frame and back == frame
        assert not any(getattr(back, memo) for memo in MEMOS)
        assert Proposition(back, p.bits).text() == p.text()


def test_a_model_carries_its_visible_regions():
    # visible is the constraint's complement within the frame, a positive int;
    # it is not a field, so equality, hash and repr read the constraint alone
    frame = Frame(("A", "B", "C"))
    ring = make_model(frame, [("A", "B"), ("B", "C"), ("C", "A")])
    for model in (Model.free(frame), Model.exclusive(frame), ring):
        assert model.visible == frame.full_bits & ~model.constrained
        assert model.visible >= 0
        assert "visible" not in repr(model) and hash(model) == hash((frame, model.constrained))
        for back in (pickle.loads(pickle.dumps(model)), copy.deepcopy(model)):
            assert back == model and back.visible == model.visible
        for bits in range(0, 1 << (1 << frame.n), 2):  # every mask; region 0 is never one
            assert (not bits & model.visible) == model.is_empty(Proposition(frame, bits))


def test_a_used_state_copies_to_identical_snapshot_bits():
    frame = Frame(("A", "B", "C", "D"))
    model = Model.with_exclusions(frame, [("A", "B"), ("C", "D"), ("A", "C")])
    sources = [{"A": 0.5, "B|C": 0.3, "A|B|C|D": 0.2}, {"B": 0.4, "C&D|A": 0.6},
               {"C": 0.7, "A|D": 0.2, "B&D": 0.1}]
    state = FusionState.initial(model).fold(
        MassFunction(model, {frame.parse(k): v for k, v in s.items()}) for s in sources)

    def hex_snapshots(state):
        return {rule: [(p.bits, v.hex()) for p, v in state.snapshot(rule).items()]
                for rule in Rule}

    want = hex_snapshots(state)  # fills the frame's memos before the copies are made
    for back in (pickle.loads(pickle.dumps(state)), copy.deepcopy(state)):
        assert back.model.frame is not frame
        assert hex_snapshots(back) == want


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
