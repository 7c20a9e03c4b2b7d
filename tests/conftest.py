import pytest

from conedet.quadrature import adaptive_quadrature


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
