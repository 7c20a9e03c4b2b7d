from contextlib import contextmanager

import pytest

import conedet.determinants as determinants
import conedet.special_functions as special_functions
from conedet.quadrature import QuadratureError, adaptive_quadrature


@pytest.fixture
def count_evals(monkeypatch):
    """count_evals(module) replaces the adaptive_quadrature that module
    binds with one that counts integrand evaluations, and returns the list
    that gets one count per quadrature call."""
    calls = []

    def counting(f, points):
        def g(y):
            calls[-1] += 1
            return f(y)

        calls.append(0)
        return adaptive_quadrature(g, points)

    def install(module):
        monkeypatch.setattr(module, "adaptive_quadrature", counting)
        return calls

    return install


@pytest.fixture
def quadrature_fails(monkeypatch):
    """quadrature_fails() is a context in which every Barnes quadrature
    raises QuadratureError.  It clears the Barnes cache first, so that the
    next angle in the window 1/5 < a < 5 reaches the quadrature.  No cone
    input exhausts the quadrature budget, so this is how a test reaches that
    failure."""

    def fail(f, points):
        raise QuadratureError("injected quadrature failure")

    @contextmanager
    def inject():
        determinants._barnes_a11.cache_clear()
        with monkeypatch.context() as patch:
            patch.setattr(special_functions, "adaptive_quadrature", fail)
            yield

    return inject
