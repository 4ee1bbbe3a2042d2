"""Suite-wide hooks."""

import pytest


def pytest_collection_modifyitems(items):
    # Every acceptance gate carries the `acceptance` marker, so
    # `pytest -m "not acceptance"` runs the fast part of the suite.
    for item in items:
        if item.path.name == "test_acceptance.py":
            item.add_marker(pytest.mark.acceptance)
