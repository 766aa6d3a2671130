"""Shared fixtures; the expensive Fourier-Bessel fits are session-scoped."""

from dataclasses import replace

import pytest

from weberosc import forced, weber


@pytest.fixture(scope="session")
def sample_config():
    """The damped dry-friction sample: w0=3, q=1/10, k2=10, m=1, A=1, mu=1."""
    return weber.PhysicalConfig(omega0=3.0, q=0.1, k2=10.0, m=1.0, A=1.0,
                                mu=1.0, x0=0.0, v0=1.0)


@pytest.fixture(scope="session")
def sample_coeffs(sample_config):
    return weber.map_params(sample_config)


@pytest.fixture(scope="session")
def undamped_coeffs(sample_config):
    return weber.map_params(replace(sample_config, A=0.0, mu=0.0))


@pytest.fixture(scope="session")
def fit200(sample_coeffs):
    """200-term particular solution of the damped (A=1) sample."""
    return forced.variation_constants(sample_coeffs, 1.0, n_terms=200)


@pytest.fixture(scope="session")
def fit30_undamped(undamped_coeffs):
    """30-term particular solution of the undamped (A=0) sample."""
    return forced.variation_constants(undamped_coeffs, 1.0, n_terms=30)


@pytest.fixture(scope="session")
def forced300(sample_config):
    """Full forced solution, 300 expansion terms (oracle-grade accuracy)."""
    return forced.solve_forced_ivp(sample_config, n_terms=300)
