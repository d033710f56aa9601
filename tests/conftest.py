import pytest

# The verify properties are plain asserts in library code; rewrite them so
# that a failing one reports the compared values, as a test's own assert does.
pytest.register_assert_rewrite("triplet.verify")
