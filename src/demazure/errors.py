"""Exception types shared across the package.

Everything raised on purpose by this library derives from DemazureError, so
callers can catch the whole family at once.  A class that always means one
exit code of the CLI names it as ``exit_code``; the others leave it None
and exit with their command's family code, 3 for a fan command and 7 for
a divisor command.  README.md's table lists the codes.
"""


class DemazureError(Exception):
    """Base class for all library errors."""

    exit_code = None


class ZeroVector(DemazureError):
    """A nonzero vector was required (the zero vector spans no ray)."""


class RankMismatch(DemazureError):
    """Vector or matrix size disagrees with the ambient lattice rank."""


class NotStronglyConvex(DemazureError):
    """Operation requires a strongly convex (pointed) cone."""


class UnboundedRegion(DemazureError):
    """Lattice-point enumeration without a box needs a bounded region."""


class DuplicateRay(DemazureError):
    """Two listed rays span the same half-line."""


class UnknownRay(DemazureError):
    """A cone references a ray index that is not in the ray list."""


class BadIntersection(DemazureError):
    """Two fan cones do not intersect in a common face."""

    def __init__(self, id1, id2, reason=""):
        self.id1 = id1
        self.id2 = id2
        self.reason = reason
        text = f"cones {id1} and {id2} do not intersect in a common face"
        if reason:
            text += f": {reason}"
        super().__init__(text)


class ConeNotInFan(DemazureError):
    """The referenced cone is not a member of the fan."""


class NoRays(DemazureError):
    """Root enumeration needs at least one ray."""


class UnboundedRoots(DemazureError):
    """The root region of some ray is unbounded and no bound was supplied."""

    exit_code = 4

    def __init__(self, ray_index):
        self.ray_index = ray_index
        super().__init__(
            f"root region of ray {ray_index} is unbounded; supply a bound"
        )


class NegativeBound(DemazureError):
    """A root search bound (max |coordinate|) must be nonnegative."""

    exit_code = 2

    def __init__(self, bound):
        self.bound = bound
        super().__init__(f"bound must be nonnegative, got {bound}")


class NotARoot(DemazureError):
    """The given character is not a Demazure root of the fan."""

    exit_code = 5


class UnsupportedFan(DemazureError):
    """The fan violates a precondition (e.g. rays do not span the space)."""

    exit_code = 6


class NotAffine(DemazureError):
    """The operation needs an affine fan: exactly one maximal cone."""


class WeightEscape(DemazureError):
    """A derivation produced a term whose weight left the weight monoid."""

    exit_code = 8


class NotNilpotent(DemazureError):
    """A term has a negative multiplier, so no power of the derivation
    kills it."""

    exit_code = 8


class WeightOutsideDual(DemazureError):
    """Evaluation weight lies outside the dual cone of the tail."""


class NotProper(DemazureError):
    """The polyhedral divisor is not proper."""


class NoDegreeZeroLND(DemazureError):
    """The colored divisor admits no horizontal derivation of degree zero."""


class NotNormalized(DemazureError):
    """The divisor is not in the normal form required by this operation."""


class NotCoherent(DemazureError):
    """The pair (colored divisor, character) fails a coherence condition."""


class InvalidColoring(DemazureError):
    """Marked points/vertices violate the colored-divisor constraints."""


class CurveMismatch(DemazureError):
    """The base curve is not A^1 or P^1, or the data does not fit it."""


class InvalidDivisor(DemazureError):
    """No vertex, coefficients with different tails, or a repeated point."""


class InvalidInteger(DemazureError):
    """A value that must be an integer, or a positive one, is not."""


class SchemaError(DemazureError):
    """An input document does not match the expected JSON shape."""

    exit_code = 2
