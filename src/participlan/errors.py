"""Exception hierarchy shared across the package, and its settings' count check."""
import numbers


class PlanningError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(PlanningError):
    """A document or model reply could not be interpreted."""


class InvariantError(PlanningError):
    """Structured data violates a documented invariant."""


class NotPresent(PlanningError):
    """No area of any requested land-use type exists under the plan."""


class SpecError(PlanningError):
    """A demographic specification is invalid."""


class GeometryError(PlanningError):
    """A geometric operation could not be completed."""


class NeedsMissing(PlanningError):
    """A resident has no elicited needs but a need-aware metric was requested."""


class NoMarginalized(PlanningError):
    """The population contains no marginalized residents."""


class Infeasible(PlanningError):
    """Quantity requirements cannot be met on this region."""


class BackendError(PlanningError):
    """An agent backend failed to produce a usable reply."""


class TransportError(BackendError):
    """Network-level failure talking to a remote backend, after retries."""


class RateLimited(BackendError):
    """The remote backend kept rate-limiting us past the retry budget."""


class BadReply(BackendError):
    """The backend returned an empty or structurally unusable reply."""


class RepairFailed(BackendError):
    """A model reply stayed invalid after the single repair round."""


class EmptyCommunity(PlanningError):
    """No resident lives in or near the community under discussion."""


def check_count(name: str, value, minimum: int) -> None:
    """A setting that must be an integer, numpy's included, >= minimum."""
    if not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}")
