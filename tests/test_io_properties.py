"""Property test: arbitrary JSON handed to the net loader either loads or
raises ValueError, never any other exception. Needs hypothesis; skipped
without it."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from qbnets.io import qbnet_from_json  # noqa: E402

SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=16,
)
NAMES = st.sampled_from(["a", "b", "c"])
PAIRS = st.lists(st.lists(st.floats(-1, 1), min_size=2, max_size=2), max_size=4)
# net-shaped objects whose members are sometimes valid, sometimes any JSON,
# so the search reaches past the top-level key checks
NODE = st.fixed_dictionaries(
    {},
    optional={
        "name": NAMES | JSON,
        "states": st.integers(0, 3) | JSON,
        "parents": st.lists(NAMES, max_size=2) | JSON,
    },
)
NET = st.fixed_dictionaries(
    {},
    optional={
        "nodes": st.lists(NODE | JSON, max_size=3) | JSON,
        "tpms": st.dictionaries(NAMES, PAIRS | JSON, max_size=3) | JSON,
    },
)


@hypothesis.settings(max_examples=400, deadline=None)
@hypothesis.given(NET | JSON)
def test_arbitrary_json_loads_or_raises_value_error(obj):
    try:
        qbnet_from_json(obj)
    except ValueError:
        pass
