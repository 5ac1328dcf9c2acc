"""Exception hierarchy for the ring toolkit.

Every mathematical failure raises a subclass of RingError so callers (and
the CLI) can distinguish math errors from usage errors: the CLI maps
RingError to exit code 1 and ParseError to exit code 2.
"""


class RingError(Exception):
    """Base class for all mathematical errors raised by this package."""


class ContextMismatch(RingError):
    """Binary operation applied to elements of different ring contexts."""


class ContextNotEuclidean(RingError):
    """gcd/division requested in a context with no Euclidean structure."""


class NotInvertible(RingError):
    """Element has no multiplicative inverse.

    For residue rings the offending gcd is attached as .gcd.
    """

    def __init__(self, message, gcd=None):
        super().__init__(message)
        self.gcd = gcd


class DivisionByZero(RingError):
    pass


class ZeroDenominator(RingError):
    pass


class NotAField(RingError):
    pass


class NotADomain(RingError):
    pass


class NotPrimeCharacteristic(RingError):
    pass


class InfiniteRing(RingError):
    pass


class TooLarge(RingError):
    """Work beyond the one budget, intutil.BUDGET."""


class NotARoot(RingError):
    pass


class ZeroPolynomial(RingError):
    pass


class ZeroInput(RingError):
    pass


class DuplicateNode(RingError):
    pass


class ConstantTermNotUnit(RingError):
    pass


class DenominatorIndistinguishableFromZero(RingError):
    """Laurent normalization: ord of the denominator is AtLeast(N)."""


class NotComaximal(RingError):
    """A congruence system with a non-unit pairwise gcd.

    Attributes i, j give the offending pair's indices, .gcd their gcd.
    """

    def __init__(self, message, i=None, j=None, gcd=None):
        super().__init__(message)
        self.i = i
        self.j = j
        self.gcd = gcd


class EmptySystem(RingError):
    pass


class FactorsMismatch(RingError):
    pass


class DeterminantNotUnit(RingError):
    def __init__(self, message, det=None):
        super().__init__(message)
        self.det = det


class ShapeMismatch(RingError):
    pass


class InvalidParameters(RingError):
    pass


class NotPrimitive(RingError):
    pass


class ConstantPolynomial(RingError):
    pass


class DegreeOutOfRange(RingError):
    pass


class DegreeDrops(RingError):
    """Reduction mod p would lower the degree (p divides the leading coefficient)."""


class MissingVariable(RingError):
    pass


class VariableCollision(RingError):
    pass


class ParseError(Exception):
    """Malformed context or element literal.  Not a RingError: the CLI
    reports it as a usage error (exit 2), not a mathematical one."""
