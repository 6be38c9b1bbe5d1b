"""How far the stored state reaches on the north star's grid: 3 to 16
atoms, 2 or 8 focal sets per source and up to 400 sources.  Each cell
either folds every source or is refused at the source whose product could
pass the state limit, and ``support.REACH`` pins which."""

import random

import pytest

from evfuse import FusionState, MassFunction, Model, Rule, ValidationError, deviation, vbf
from evfuse import engine
from evfuse.rules import conjunctive

from support import REACH, golden_model, ordered_sum, unions_of_atoms

SOURCES = 400
# the rules whose snapshot may keep mass on a model-empty key
OPEN_WORLD = {Rule.CONJUNCTIVE, Rule.SMETS, Rule.DSM_CLASSIC}


def reach_sources(model: Model, kind: str, focal: int):
    """The cell's SOURCES sources, drawn lazily: each puts 0.9 on ``focal``
    unions of 1-3 atoms by seeded weights, and 0.1 on total ignorance."""
    frame = model.frame
    names = list(frame.atoms)
    rng = random.Random(f"reach/{frame.n}/{kind}/{focal}")
    ignorance = frame.total_ignorance()
    for _ in range(SOURCES):
        unions = unions_of_atoms(rng, names, focal)
        weights = [rng.random() for _ in unions]
        total = ordered_sum(weights)
        yield MassFunction(model, [*((frame.parse(u), 0.9 * w / total)
                                     for u, w in zip(unions, weights)), (ignorance, 0.1)])


def fold_until_refused(monkeypatch, model, sources):
    """Fold ``sources`` in turn.  Return the sources drawn, the last state,
    and the refused source's number and error, or None.  The refused
    source must reach no product and leave the state as it was."""
    calls = []

    def counted(a, b):
        calls.append(b)
        return conjunctive(a, b)

    monkeypatch.setattr(engine, "conjunctive", counted)
    state, drawn = FusionState.initial(model), []
    for k, source in enumerate(sources, start=1):
        drawn.append(source)
        before = dict(state.accumulator._masses), dict(state.columns._masses)
        try:
            state = state.fuse(source)
        except ValidationError as exc:
            assert calls == drawn[:-1]
            assert (dict(state.accumulator._masses), dict(state.columns._masses)) == before
            return drawn, state, (k, str(exc))
    assert calls == drawn
    return drawn, state, None


@pytest.mark.parametrize("atoms, kind, focal", list(REACH),
                         ids=[f"{a}-{k}-{f}" for a, k, f in REACH])
def test_the_state_reaches_its_pinned_source(monkeypatch, atoms, kind, focal):
    model = golden_model(kind, [chr(ord("A") + i) for i in range(atoms)])
    sources, state, refusal = fold_until_refused(
        monkeypatch, model, reach_sources(model, kind, focal))
    if refusal is not None:
        k, message = refusal
        assert message.startswith(f"source {k}: the state could grow to ")
        assert k == REACH[atoms, kind, focal]
        return
    assert len(sources) == SOURCES and REACH[atoms, kind, focal] is None
    order = sources[:]
    random.Random(f"reach/{atoms}/{kind}/{focal}/order").shuffle(order)
    refold = FusionState.initial(model).fold(order)
    padded = state.fuse(vbf(model))
    for rule in Rule:
        snap = state.snapshot(rule)
        assert abs(ordered_sum(snap._masses.values()) - 1.0) <= 1e-9, rule
        assert snap.is_input_valid() or rule in OPEN_WORLD, rule
        assert deviation(refold.snapshot(rule), snap) <= 1e-9, rule
        assert deviation(padded.snapshot(rule), snap) <= 1e-12, rule
