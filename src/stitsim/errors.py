"""Exception types shared across the package."""


class StitSimError(Exception):
    """Base class for all stitsim errors."""


class GeometryError(StitSimError):
    pass


class DegenerateCut(GeometryError):
    """A splitting hyperplane passes within tolerance of a polytope vertex.

    The caller is expected to resample the hyperplane; the event has
    probability zero under any driving measure used here.
    """


class NonPositiveScale(GeometryError):
    pass


class RegimeMismatch(StitSimError):
    """Measure and geometry regimes are incompatible (e.g. isotropic in 3-D boxes)."""


class SamplerStall(StitSimError):
    """A rejection sampler exceeded its iteration cap."""


class ExplosionGuard(StitSimError):
    """The event cap was exceeded while simulating a cell tree."""


class MethodMismatch(StitSimError):
    """Operation requires a tree built with a different construction method."""


class InsufficientNests(StitSimError):
    pass


class WindowMismatch(StitSimError):
    pass


class OutOfRange(StitSimError):
    pass


class UnsupportedSupport(StitSimError):
    """The directional support does not positively span the space."""


class InsufficientSamples(StitSimError):
    pass


class TooFewConditioned(StitSimError):
    """Too few replicates satisfied the conditioning event."""


class ConfigError(StitSimError):
    pass
