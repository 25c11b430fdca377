"""``_util.json_chunks`` against its oracle, ``json.dumps(..., indent=2)``."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from floodpave._util import json_chunks, json_default

FLOATS = st.floats() | st.sampled_from([0.0, -0.0, 5e-324, -2.225e-308, 1e308, float("nan"), float("inf"), -float("inf")])
TEXTS = st.text() | st.text(st.characters(categories=["Cc", "Cs", "Zl", "Zp"])) | st.sampled_from(["", ", ", "é☃𝄞"])
NUMPY_SCALARS = st.one_of(
    st.integers(-(2**31), 2**31 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    st.integers(-(2**31), 2**31 - 1).map(np.int32),
    FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32),
)
NUMPY_ARRAYS = hnp.arrays(
    st.sampled_from([np.int64, np.int32, np.float64, np.float32, np.bool_]),
    hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4),
)
# Arrays of plain numbers take the one-call path; mixed ones do not.
NUMBER_LISTS = st.lists(st.integers() | FLOATS | st.booleans() | FLOATS.map(np.float64), max_size=8)
LEAVES = st.none() | st.booleans() | st.integers() | FLOATS | TEXTS | NUMPY_SCALARS | NUMPY_ARRAYS | NUMBER_LISTS
DOCUMENTS = st.recursive(
    LEAVES,
    lambda children: st.lists(children, max_size=5)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(TEXTS, children, max_size=5),
    max_leaves=25,
)


@settings(max_examples=400, deadline=None)
@given(doc=DOCUMENTS, sort_keys=st.booleans())
def test_matches_json_dumps(doc, sort_keys):
    want = json.dumps(doc, indent=2, sort_keys=sort_keys, default=json_default)
    assert "".join(json_chunks(doc, sort_keys=sort_keys)) == want


@pytest.mark.parametrize("doc", [{1: "a"}, {"a": [{"b": 1, 2.5: 0}]}, {None: 0}, {("a",): 1}])
@pytest.mark.parametrize("sort_keys", [False, True])
def test_keys_other_than_strings_are_refused(doc, sort_keys):
    with pytest.raises(TypeError):
        "".join(json_chunks(doc, sort_keys=sort_keys))


def test_default_is_called_when_the_writer_reaches_a_value():
    # An object the default expands is expanded only when its turn comes,
    # so a list of them is never held expanded all at once.
    seen = []

    class Lazy:
        def __init__(self, i):
            self.i = i

    def expand(obj):
        if isinstance(obj, Lazy):
            seen.append(obj.i)
            return {"i": obj.i, "values": np.arange(obj.i, dtype=float)}
        return json_default(obj)

    doc = {"items": [Lazy(i) for i in range(3)]}
    chunks = json_chunks(doc, default=expand)
    next(chunks)
    assert seen == []
    assert "".join(chunks) and seen == [0, 1, 2]
    assert "".join(json_chunks(doc, default=expand)) == json.dumps(doc, indent=2, default=expand)


def test_unknown_values_raise_type_error():
    with pytest.raises(TypeError, match="not JSON serializable"):
        "".join(json_chunks({"a": [object()]}))
    with pytest.raises(TypeError):
        "".join(json_chunks([np.bool_(True)]))
