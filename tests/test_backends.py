"""Parity of the compiled kernel extension against its pure-Python twin.

Both implement identical algorithms, but the compiled path uses the fused
multiply-add in its double-double product while the pure path uses Dekker
splitting, so agreement is asserted to near machine precision rather than
bitwise.
"""

import math

import pytest

from weberosc import _kernels_py as pure

compiled = pytest.importorskip(
    "weberosc._kernels", reason="compiled extension not built")

MAX_TERMS = 500
REL_TOL = 1e-14


def _close(x, y, rel=5e-15):
    assert x == pytest.approx(y, rel=rel, abs=1e-305)


@pytest.mark.parametrize("a,b,z", [
    (0.5, 1.5, 0.0),
    (-7.875, 0.5, 12.0),
    (-7.875, 0.5, 30.0),      # deep cancellation: double-double path
    (-7.875, 0.5, 120.0),
    (0.25, 0.5, -40.0),       # Kummer-transform path
    (3.0, 7.0, 2.5),
])
def test_hyp1f1_parity(a, b, z):
    _close(compiled.hyp1f1(a, b, z, MAX_TERMS, REL_TOL),
           pure.hyp1f1(a, b, z, MAX_TERMS, REL_TOL))


@pytest.mark.parametrize("nu,z", [
    (16.25, -5.477225575051661),
    (15.75, 0.0),
    (16.666666666666664, 3.3),
    (-0.5, 1.0),
    (3.0, -2.0),
])
def test_hermite_parity(nu, z):
    # the two Gamma-weighted Kummer terms cancel for some (nu, z), which
    # amplifies the fma-vs-Dekker rounding difference past 5e-15
    _close(compiled.hermite(nu, z, MAX_TERMS, REL_TOL),
           pure.hermite(nu, z, MAX_TERMS, REL_TOL), rel=1e-12)


@pytest.mark.parametrize("z", [-0.25, -9.0, -36.0, -100.0])
def test_hyp1f2_parity(z):
    _close(compiled.hyp1f2(0.5, 1.0, 1.5, z, MAX_TERMS, REL_TOL),
           pure.hyp1f2(0.5, 1.0, 1.5, z, MAX_TERMS, REL_TOL))


def test_hyp1f2_cancellation_guard_parity():
    from weberosc.errors import ConvergenceError
    for mod in (compiled, pure):
        with pytest.raises(ConvergenceError):
            mod.hyp1f2(0.5, 1.0, 1.5, -2000.0, MAX_TERMS, REL_TOL)


@pytest.mark.parametrize("z", [0.0, 0.5, 2.404825557695773, 7.3, 40.0,
                               156.29503426853353, 627.0])
def test_j0_integral_parity(z):
    _close(compiled.j0_integral(z), pure.j0_integral(z))


def test_rgamma_parity():
    for x in (-3.0, -2.5, -0.5, 0.0, 0.5, 1.0, 4.25, 20.0):
        _close(compiled.rgamma(x), pure.rgamma(x))


def test_active_backend_is_compiled():
    """WEBEROSC_PURE is not set in the test run, so the extension wins."""
    import weberosc
    assert weberosc.BACKEND == "compiled"
