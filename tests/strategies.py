"""Hypothesis strategies shared by the test modules."""

from __future__ import annotations

from hypothesis import strategies as st

#: Arbitrary JSON values, non-finite floats included (``json`` reads and
#: writes ``NaN``/``Infinity``).
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=8,
)
