"""Test isolation shared by every test module."""

import pytest

from treepark import series


@pytest.fixture(autouse=True)
def empty_series_memo():
    """Each test starts and ends with no named series held, so a series built
    while a test patched the layer's internals reaches no other test, and a
    test that counts builds sees every one."""
    series._reset_memo()
    yield
    series._reset_memo()
