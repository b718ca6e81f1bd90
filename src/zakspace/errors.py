"""Exception types raised by zakspace.

Every validation error names the witnessing element, pair, or triple so
failures in group tables and actions can be located without re-running
the check by hand.
"""


class ZakspaceError(Exception):
    """Base class for all zakspace errors."""


# group tables
class NotAssociative(ZakspaceError):
    def __init__(self, g, h, k):
        self.triple = (g, h, k)
        super().__init__(f"table is not associative at ({g}*{h})*{k} != {g}*({h}*{k})")


class NoIdentity(ZakspaceError):
    def __init__(self):
        super().__init__("table has no two-sided identity element")


class NoInverse(ZakspaceError):
    def __init__(self, g):
        self.element = g
        super().__init__(f"element {g} has no inverse")


# actions
class NotHomomorphism(ZakspaceError):
    def __init__(self, g, h):
        self.pair = (g, h)
        super().__init__(f"perm({g}*{h}) != perm({g}) o perm({h})")


class NonpositiveWeight(ZakspaceError):
    def __init__(self, x, value):
        self.point = x
        super().__init__(f"weight at point {x} is {value}; weights must be finite and > 0")


class EmptySet(ZakspaceError):
    pass


class SizeMismatch(ZakspaceError):
    pass


class ShapeMismatch(ZakspaceError):
    pass


# representation theory
class NotAbelian(ZakspaceError):
    def __init__(self, g, h):
        self.pair = (g, h)
        super().__init__(f"group is not abelian: {g}*{h} != {h}*{g}")


class NotSubgroup(ZakspaceError):
    pass


class IncompleteDual(ZakspaceError):
    def __init__(self, sum_d2, order):
        self.sum_d2 = sum_d2
        self.order = order
        super().__init__(f"sum of squared irrep dimensions is {sum_d2}, expected |G| = {order}")


class NotIrreducible(ZakspaceError):
    pass


class NotCosetFunction(ZakspaceError):
    pass


# Zak transforms
class DualGroupMismatch(ZakspaceError):
    pass


class EquivarianceViolation(ZakspaceError):
    """Equivariance law broken; signals an implementation bug, not bad data."""


class InvariantViolation(ZakspaceError):
    pass


class NotRepresentative(ZakspaceError):
    def __init__(self, x):
        self.point = x
        super().__init__(f"point {x} is not a fundamental-domain representative")


# invariant operators
class NotInvariant(ZakspaceError):
    def __init__(self, g):
        self.element = g
        super().__init__(f"operator does not commute with the permutation of group element {g}")


class NotHermitian(ZakspaceError):
    pass


# Euclidean isometries
class DimensionMismatch(ZakspaceError):
    pass


class TruncationExceeded(ZakspaceError):
    """Raised when the generated set outgrows the element cap; carries the partial set."""

    def __init__(self, partial):
        self.partial = partial
        super().__init__(f"generation exceeded the element cap with {len(partial)} elements")


class NotClosable(ZakspaceError):
    pass


# radiation
class NotTransverse(ZakspaceError):
    def __init__(self, dot):
        super().__init__(f"polarization is not transverse: n . k = {dot}")


class SampleSetNotClosed(ZakspaceError):
    def __init__(self, point):
        self.point = point
        super().__init__(f"sample set is not closed under the isometry near point {point}")


class DensityNotInvariant(ZakspaceError):
    pass


# CLI
class ConfigError(ZakspaceError):
    pass
