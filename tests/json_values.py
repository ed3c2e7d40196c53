"""Arbitrary JSON values for the config fuzz tests, as a hypothesis strategy."""

from hypothesis import strategies as st

# the integers are small, or too large for an index or a float; never a
# model dimension whose n x n default Lambda would be large
JSON = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=6)
    | st.integers(-3, 3) | st.integers(2**63, 10**400),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6)
