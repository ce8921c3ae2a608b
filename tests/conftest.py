"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture
def counted_calls(monkeypatch):
    """count(module, name) records the arguments of every call to
    module.<name> in the list it returns, for the rest of the test.  The
    wrapper calls the function the module held, so counting a name in
    several modules that imported it counts each call once, in the module
    that makes it."""

    def count(module, name):
        calls = []
        real = getattr(module, name)

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(module, name, counted)
        return calls

    return count
