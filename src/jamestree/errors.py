"""Exception types shared across the package."""

import json


def wire_text(raw) -> str:
    """`raw` written as JSON, the form a user gave it in, for error messages.
    Tuples print as arrays; a value JSON cannot hold prints as its repr."""
    return json.dumps(raw, default=repr)


class JamesTreeError(Exception):
    """Base class for all package errors."""


class InvalidSegmentError(JamesTreeError):
    """Top node is not an ancestor-or-equal of the bottom node."""


class InvalidVectorError(JamesTreeError):
    """Vector violates the invariants of the target space."""


class InvalidFunctionalError(JamesTreeError):
    """Functional violates the invariants of its declared class."""


class SpaceMismatchError(JamesTreeError):
    """Operation applied to a space it is not defined for."""


class EnumerationCapError(JamesTreeError):
    """Canonical enumeration exceeded the configured resource cap."""


class PreconditionError(JamesTreeError):
    """Documented operation precondition does not hold."""


class ConvergenceError(JamesTreeError):
    """Iterative scheme exceeded its iteration cap."""


class CertificationError(JamesTreeError):
    """A certificate could not be constructed or failed its exact recheck."""


class ScenarioConstraintError(JamesTreeError):
    """Scenario parameters violate the required inequalities.

    The message names the violated inequality.
    """


class SchemaError(JamesTreeError):
    """Malformed JSON input (wire-format validation failure)."""
