import pytest
from hypothesis import settings

from evfuse import Frame, Model

from support import ROWS_M1, ROWS_M2, ROWS_M3, ROWS_M4, mass_from_rows

# The fusion machine's larger run, its own CI step (tier-1 runs the machine's
# smaller profile, see tests/test_machine.py):
#   python -m pytest -q --hypothesis-profile=machine-large tests/test_machine.py
# pytest reads this file before it loads the profile the option names.
settings.register_profile("machine-large", max_examples=1000, stateful_step_count=30,
                          deadline=None)


@pytest.fixture
def frame():
    return Frame(("A", "B", "C"))


@pytest.fixture
def exclusive(frame):
    return Model.exclusive(frame)


@pytest.fixture
def free(frame):
    return Model.free(frame)


@pytest.fixture
def m1(exclusive):
    return mass_from_rows(exclusive, ROWS_M1)


@pytest.fixture
def m2(exclusive):
    return mass_from_rows(exclusive, ROWS_M2)


@pytest.fixture
def m3(exclusive):
    return mass_from_rows(exclusive, ROWS_M3)


@pytest.fixture
def m4(exclusive):
    return mass_from_rows(exclusive, ROWS_M4)
