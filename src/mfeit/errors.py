"""Exception hierarchy shared by all mfeit modules."""


class MfeitError(Exception):
    """Base class for all package errors."""


class ConstraintViolation(MfeitError):
    """A star shape leaves the admissible radial band or norm bound.

    Carries which bound failed and the worst offending angle.
    """

    def __init__(self, which: str, theta: float, value: float, bound: float):
        self.which = which
        self.theta = theta
        self.value = value
        self.bound = bound
        super().__init__(
            f"{which} violated: value {value:.6g} vs bound {bound:.6g} "
            f"at theta={theta:.6g}"
        )


class InvalidResolution(MfeitError):
    """Boundary grid size is odd or too small."""


class DomainViolation(MfeitError):
    """Source point of the Neumann kernel outside the open unit disk."""


class TargetTooClose(MfeitError):
    """Off-boundary evaluation target inside the quadrature accuracy zone."""


class NotConverged(MfeitError):
    """Requested spectral modes are not resolved on the given grid."""


class NearResonance(MfeitError):
    """Contrast value too close to a plasmonic resonance; solve is blowing up."""

    def __init__(self, k, distance):
        self.k = k
        self.distance = distance
        super().__init__(f"contrast {k} within {distance:.3g} of a resonance")


class SingularSystem(MfeitError):
    """Saddle system for the perfect-conductor solve is rank deficient."""


class InsufficientFrequencies(MfeitError):
    """Too few distinct contrast samples for the requested pole count."""


class FitDiverged(MfeitError):
    """Rational fit failed: its residual stayed above tolerance at the pole
    budget, or a fitted pole lies at or beyond an end of the class segment,
    so the data have a pole outside the admissible class."""

