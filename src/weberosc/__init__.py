"""Closed-form machinery for a damped oscillator on a decelerating arm.

Special functions (Kummer 1F1, Hermite functions of real order, Bessel
J0/J1 and the running integral of J0), the quadratic-stiffness
closed-form solver, full 3-D kinematics with constraint reactions, and
the dry-friction forced case via variation of constants with a
Fourier-Bessel expansion -- all cross-validated against an independent
adaptive ODE integrator.
"""

# The series kernels are pure Python; run records name this constant.
BACKEND = "python"

__version__ = "0.1.0"
__all__ = ["BACKEND", "__version__"]
