"""The north star's claim as one stateful property.

The stored pre-transfer state gives every rule the same snapshot whatever
order its sources arrived in, and sources fold one at a time.  The machine
fuses drawn sources and vacuous ones into one state and pickles it; after
every step each rule's snapshot must equal a refold of the same sources in a
shuffled order and the exact reference of ``support``.  A later state
operation joins the machine as one more rule.
"""

import pickle
from fractions import Fraction

import pytest
from hypothesis import settings, stateful, strategies as st

from evfuse import FusionState, Rule, vbf
from evfuse.errors import TotalConflictError

from support import draw_focal, draw_model, draw_source, ref_exact_snapshot, ref_exact_state

# Fixed before the first run, per key against both references: source masses
# are 64ths, which floats hold exactly, and a fold of at most 14 sources rounds
# a few times 2**-53 per source, far inside it.
BOUND = 1e-9
MAX_SOURCES = 14
# Tier-1 runs 200 examples of up to 12 steps (about 5 s on CPython 3.11); the
# larger profile of conftest.py runs 1 000 of up to 30 steps as its own CI step.
LARGE = "machine-large"
TIER1 = settings(max_examples=200, stateful_step_count=12, deadline=None)


def _masks(snapshot) -> dict:
    return {p.bits: v for p, v in snapshot.items()}


def _assert_within(got: dict, want: dict, what) -> None:
    assert got.keys() == want.keys(), what
    for bits, value in want.items():
        assert abs(Fraction(got[bits]) - Fraction(value)) <= BOUND, (what, bits)


class FusionMachine(stateful.RuleBasedStateMachine):
    """One state on a 2-4-atom free, exclusive or pair-exclusion model.  Its
    model is the list of sources fused so far and that list shuffled: each
    source is inserted at a drawn position."""

    @stateful.initialize(data=st.data())
    def start(self, data):
        self.model = draw_model(data.draw, (2, 4))
        self.state = FusionState.initial(self.model)
        self.sources, self.shuffled = [], []

    def _fuse(self, source, data):
        self.state = self.state.fuse(source)
        self.sources.append(source)
        self.shuffled.insert(data.draw(st.integers(0, len(self.shuffled))), source)

    @stateful.precondition(lambda self: len(self.sources) < MAX_SOURCES)
    @stateful.rule(data=st.data())
    def fuse_source(self, data):
        def focal():
            return draw_focal(data.draw, self.model, st.booleans())

        self._fuse(draw_source(data.draw, self.model, focal, 64), data)

    @stateful.precondition(lambda self: len(self.sources) < MAX_SOURCES)
    @stateful.rule(data=st.data())
    def fuse_vbf(self, data):
        self._fuse(vbf(self.model), data)

    @stateful.rule()
    def pickle_round_trip(self):
        # the copy's frame is a twin with no memo
        self.state = pickle.loads(pickle.dumps(self.state))

    @stateful.precondition(lambda self: self.sources)
    @stateful.invariant()
    def every_rule_is_order_free_and_exact(self):
        refold = FusionState.initial(self.model).fold(self.shuffled)
        product, columns = ref_exact_state(self.sources)
        for rule in Rule:
            exact = ref_exact_snapshot(rule, self.model, product, columns)
            if exact is None:
                # dempster, where every term of the exact product is in conflict
                for state in (self.state, refold):
                    with pytest.raises(TotalConflictError):
                        state.snapshot(rule)
                continue
            got = _masks(self.state.snapshot(rule))
            _assert_within(got, _masks(refold.snapshot(rule)), (rule, "refold"))
            _assert_within(got, exact, (rule, "exact"))


TestFusionMachine = FusionMachine.TestCase
TestFusionMachine.settings = (settings.get_profile(LARGE)
                              if settings.get_current_profile_name() == LARGE else TIER1)
