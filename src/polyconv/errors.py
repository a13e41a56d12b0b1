"""Exception hierarchy shared by all polyconv modules."""


class PolyconvError(Exception):
    """Base class for all library errors."""


class DegreeMismatch(PolyconvError):
    """Two polynomials with different nominal degrees were combined."""


class OutOfRange(PolyconvError, ValueError):
    """A parameter (usually lambda or gamma) lies outside its admissible range."""


class BadParams(PolyconvError):
    """A constructor received degenerate parameters (a = 0, c = +-1, alpha = 0, ...)."""


class NotSymmetric(PolyconvError):
    """No unimodular phase makes the polynomial self-inversive: zeros are not
    symmetric about the unit circle."""


class NotOnCircle(PolyconvError):
    """An operation requiring all zeros on the unit circle was given a
    polynomial with zeros elsewhere."""


class NoConvergence(PolyconvError):
    """The root residual is above tolerance after the solve and polish."""


class PhaseCollision(PolyconvError):
    """c_P == c_Q where distinct self-inversive phases are required."""


class PhaseMismatch(PolyconvError):
    """c_P != c_Q where equal self-inversive phases are required."""


class InternalInconsistency(PolyconvError):
    """Two supposedly equivalent decision routes disagreed (test hook)."""


class HypothesisViolated(PolyconvError):
    """A theorem hypothesis such as |a_0| < |a_n| does not hold."""


class PositivityLost(PolyconvError):
    """Re S_k(r z) <= 0 somewhere on the circle; raise k or lower r."""


class OutOfDomain(PolyconvError):
    """Evaluation point outside the open unit disk."""


class SamplerExhausted(PolyconvError):
    """Rejection sampler ran out of budget."""
