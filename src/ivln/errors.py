"""Exception types shared across the toolkit."""


class IvlnError(Exception):
    """Base class for all toolkit errors."""


class SnapFailure(IvlnError):
    """A query point has no navigable node or cell within the snap radius."""

    def __init__(self, point, radius, index=None):
        self.point = point
        self.radius = radius
        self.index = index
        where = f" (endpoint index {index})" if index is not None else ""
        super().__init__(
            f"no navigable location within {radius} m of {tuple(point)}{where}"
        )


class Disconnected(IvlnError):
    """Two locations lie in different connected components of the scene."""

    def __init__(self, message, index=None):
        self.index = index
        super().__init__(message)


class EmptySequence(IvlnError):
    """An operation that needs at least one element was given none."""


class DimensionMismatch(IvlnError):
    """Array arguments disagree on shape."""


class UnsupportedScene(IvlnError):
    """The requested operation is not defined for this scene kind."""


class InstructionCountMismatch(IvlnError):
    """A path does not carry the per-path instruction count the expansion needs."""


class SizeLimit(IvlnError):
    """Problem size exceeds the limit of an exact algorithm."""


class SpecInfeasible(IvlnError):
    """A generator spec cannot be satisfied (e.g. rooms do not fit the extent)."""


class SamplingExhausted(IvlnError):
    """Episode sampling ran out of attempts before filling the request."""


class PolicyTimeout(IvlnError):
    """An external policy failed to answer within the per-step deadline."""


class ProtocolViolation(IvlnError):
    """An external policy sent a message that does not fit the wire protocol."""


class MissingEpisode(IvlnError):
    """A tour references an episode that the episode set or trace does not contain."""
