"""Exception types shared across the package."""


class HexCutError(Exception):
    """Base class for all package-specific errors."""


class InvalidParams(HexCutError, ValueError):
    """Grid parameters are out of range (m or n below 1, bad types)."""


class VertexOutOfRange(HexCutError, ValueError):
    """A vertex label lies outside [1, N]."""


class EmptySubset(HexCutError, ValueError):
    """A nonempty vertex subset was required."""


class ConstructionInvariantViolated(HexCutError):
    """A freshly built graph failed one of its structural invariants."""


class TailFacetInvariantViolated(HexCutError):
    """A tail facet does not match the open neighborhood of its center."""


class TailFacetNotFound(HexCutError):
    """A constructed tail facet is absent from the enumerated facet list."""


class OrdinalOutOfRange(HexCutError, IndexError):
    """A 1-based facet position lies outside the order."""


class IncompleteOrder(HexCutError):
    """An order does not cover every facet exactly once."""


class CountWithoutFailure(HexCutError):
    """The containment check found no failing row in an order, but its
    interval sum is not the face count f(Delta): the verifier contradicts
    itself."""


class NoTailFacets(HexCutError):
    """The instance has no tail facets, so tail-specific checks are vacuous."""


class UnverifiedOrder(HexCutError):
    """Spanning analysis was requested on an order not verified as a shelling."""


class ResourceGuard(HexCutError):
    """A size exceeds a guard.  The message says whether force lifts it."""
