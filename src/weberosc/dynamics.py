"""Full 3-D bead kinematics on the rotating arm.

Vertical oscillation z(t), constraint reactions R_y and R_z, the arm
rotation theta(t) with its inverse t(theta), the polar projection
rho(theta) of the bead's trajectory, the five transient presets, and
trajectory sampling with the |x| <= L cutoff.
"""

from dataclasses import dataclass, field, replace
import math
import numbers
from typing import NamedTuple

from . import weber
from .errors import ConfigError, DomainError
from .weber import ClosedFormSolution, PhysicalConfig

DEFAULT_DRAG_SET = (0.2, 0.5, 1.0, 2.0)  # figure-style sweep; not paper data
DEFAULT_N_SAMPLES = 1001

# the closed-form transient and polar curves are those of the mu = 0 arm
UNFORCED_ONLY = "mu = %g needs the forced solution (weberosc forced)"


@dataclass(frozen=True)
class VerticalMotion:
    """z(t) = C3 sin(omega_bar t + C4) - m g / k1."""

    C3: float
    C4: float
    omega_bar: float
    offset: float  # -m g / k1

    @classmethod
    def from_config(cls, config: PhysicalConfig) -> "VerticalMotion":
        om = math.sqrt(config.k1 / config.m)
        off = -config.m * config.g / config.k1
        dz = config.z0 - off  # z0 + m g / k1
        c3 = math.sqrt(dz * dz + (config.zdot0 / om) ** 2)
        # two-argument arctangent resolves the quadrant; zdot0 = 0 maps to
        # +-pi/2 with the sign of z0 + m g / k1
        c4 = math.atan2(om * (config.k1 * config.z0 + config.m * config.g),
                        config.zdot0 * config.k1)
        return cls(C3=c3, C4=c4, omega_bar=om, offset=off)

    def at(self, t: float):
        """(z, z', z'') at time t; a NaN or infinite t is a DomainError."""
        weber._finite_t(t)
        ph = self.omega_bar * t + self.C4
        sn = math.sin(ph)
        return (self.C3 * sn + self.offset,
                self.C3 * self.omega_bar * math.cos(ph),
                -self.C3 * self.omega_bar ** 2 * sn)


def z_motion(config: PhysicalConfig, t: float):
    """Closed-form vertical position and velocity at time t."""
    return VerticalMotion.from_config(config).at(t)[:2]


def reaction_z(config: PhysicalConfig, t: float) -> float:
    """Vertical constraint reaction R_z = m (g + z'')."""
    return _reaction_z(config, VerticalMotion.from_config(config).at(t)[2])


def _reaction_z(config: PhysicalConfig, zddot: float) -> float:
    return config.m * (config.g + zddot)


def reaction_y(config: PhysicalConfig, sol: ClosedFormSolution, t: float) -> float:
    """Transverse reaction R_y = 2 m w0 (1 - q t) x' - m w0 q x."""
    return _reaction_y(config, t, *weber.eval_solution(sol, t))


def _reaction_y(config: PhysicalConfig, t, x, xdot) -> float:
    return 2.0 * config.m * config.omega0 * (1.0 - config.q * t) * xdot \
        - config.m * config.omega0 * config.q * x


def theta_of_t(config: PhysicalConfig, t: float) -> float:
    """Arm rotation angle theta(t) = w0 (t - q t^2 / 2), theta(0) = 0;
    a NaN or infinite t is a DomainError."""
    weber._finite_t(t)
    return config.omega0 * (t - 0.5 * config.q * t * t)


def t_of_theta(config: PhysicalConfig, theta: float) -> float:
    """Inverse of theta(t) on its monotone branch.

    The admissible range is theta >= 0, capped at w0 / (2 q) when q > 0;
    anything else (NaN included) raises DomainError.
    """
    q, w0 = config.q, config.omega0
    theta_max = w0 / (2.0 * q) if q > 0.0 else math.inf
    if not 0.0 <= theta <= theta_max + 1e-12:
        raise DomainError("theta = %g outside [0, %g]" % (theta, theta_max))
    if q == 0.0:
        return theta / w0
    return (1.0 - math.sqrt(max(0.0, 1.0 - 2.0 * q * theta / w0))) / q


def polar_curve(config: PhysicalConfig, sol: ClosedFormSolution,
                theta: float) -> float:
    """Planar polar projection rho(theta) = x(t(theta))."""
    t = t_of_theta(config, theta)
    x, _ = weber.eval_solution(sol, t)
    return x


@dataclass(frozen=True)
class TransientPreset:
    q: float
    k2: float


# V's k2 is chosen so its c stays negative (damped oscillations), the one
# regime the summary table ascribes to it.
PRESETS = {
    "I": TransientPreset(q=0.1, k2=10.0),
    "II": TransientPreset(q=0.1, k2=8.0),
    "III": TransientPreset(q=-0.1, k2=30.0),
    "IV": TransientPreset(q=-0.1, k2=8.0),
    "V": TransientPreset(q=0.0, k2=10.0),
}


def apply_preset(config: PhysicalConfig, preset_id: str,
                 A: float | None = None) -> PhysicalConfig:
    """Return a config with the preset's q and k2 (and optionally A)."""
    try:
        p = PRESETS[preset_id]
    except KeyError:
        raise ConfigError("unknown preset %r" % preset_id) from None
    over = {"q": p.q, "k2": p.k2}
    if A is not None:
        over["A"] = A
    return replace(config, **over)


class TrajectorySample(NamedTuple):
    """One row of a transient run; the fields name the CSV columns."""

    t: float
    x: float
    xdot: float
    z: float
    zdot: float
    theta: float
    rho: float  # x renamed in the polar frame; equal by construction
    Ry: float
    Rz: float


@dataclass(frozen=True)
class TransientResult:
    samples: list = field(default_factory=list)
    truncated: bool = False
    t_trunc: float | None = None


def horizon(config: PhysicalConfig) -> float:
    """Physical time span: 1/q when the arm spins down, t_end otherwise."""
    if config.q > 0.0:
        return 1.0 / config.q
    return config.t_end


def run_transient(config: PhysicalConfig,
                  n_samples: int = DEFAULT_N_SAMPLES) -> TransientResult:
    """Sample the unforced (mu = 0) state on a uniform grid, cut at the
    first |x| > L; the rows come from one ``weber.solution_table``."""
    if (isinstance(n_samples, bool)
            or not isinstance(n_samples, numbers.Integral) or n_samples < 2):
        raise ConfigError("n_samples must be an integer >= 2, got %r"
                          % (n_samples,))
    if config.mu != 0.0:
        raise ConfigError(UNFORCED_ONLY % config.mu)
    coeffs = weber.map_params(config)
    sol = weber.solve_ivp(coeffs, config.x0, config.v0)
    vm = VerticalMotion.from_config(config)
    t_end = horizon(config)
    dt = t_end / (n_samples - 1)
    x_at = weber.solution_table(sol, (n_samples - 1) * dt)
    samples = []
    t_trunc = None
    for i in range(n_samples):
        t = i * dt
        x, xdot = x_at(t)
        if abs(x) > config.L:
            t_trunc = t
            break
        z, zdot, zddot = vm.at(t)
        samples.append(TrajectorySample(
            t, x, xdot, z, zdot, theta_of_t(config, t), x,
            _reaction_y(config, t, x, xdot), _reaction_z(config, zddot)))
    return TransientResult(samples=samples,
                           truncated=t_trunc is not None, t_trunc=t_trunc)
