"""Exception types shared across the package."""


class SolshootError(Exception):
    """Base class for all package-specific failures."""


class EventNotReached(SolshootError):
    """A required trajectory event (e.g. a level crossing) never occurred."""


class InadmissibleParameters(SolshootError):
    """Shooting parameters violate the admissible ranges d1 >= 0, d2 >= -1, d3 >= 0."""


class NonConvergence(SolshootError):
    """Newton iteration failed; carries the partial result in ``result``."""

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class DegenerateXi(SolshootError):
    """Scaled variables undefined: division by xi = 0 (or r = 0)."""


class DegenerateZ(SolshootError):
    """Unscaled variables undefined: z <= 0 or y = 0."""


class UndefinedGauge(SolshootError):
    """Gauge quantities undefined at y = 0."""


class LaunchTooFar(SolshootError):
    """Unstable-manifold trace failed: it stopped short or left the descent region."""


class LaunchOutOfRange(LaunchTooFar, ValueError):
    """Unstable-manifold launch offset outside (0, 1e-3]: a bad argument."""


class BlendInfeasible(SolshootError):
    """A profile blend violates its sign or monotonicity requirements."""


class ProfileGaugeError(SolshootError):
    """No absolute normalization for f1 is available on this trajectory."""


class NonPrincipal(SolshootError):
    """Profile reconstruction hit r <= 0: not a principal-orbit state."""


class GridTooCoarse(SolshootError):
    """Too few grid points for the requested finite-difference stencil."""


class EpsilonTooLarge(SolshootError):
    """Series handoff distance outside (0, 1e-1], where the launch series is not trusted."""


class SingularJacobian(NonConvergence):
    """Newton stopped: the shooting Jacobian is not invertible."""


class MaxIterations(NonConvergence):
    """Newton stopped: iteration or damping budget exhausted."""


class ShootFailure(SolshootError):
    """A shot inside an outer iteration failed; carries the parameters."""

    def __init__(self, message, params=None):
        super().__init__(message)
        self.params = params


class ExtrapolationUnstable(SolshootError):
    """Richardson levels disagree; the extrapolated orbit value is untrusted."""
