"""Exception types shared across the package.

The positivity/orientation/exactness requirements of the method get their
own exception family (``MethodAssumptionError``) so callers can distinguish
"your problem violates what the method needs" from internal verification
failures and plain I/O trouble.  The CLI maps these families to distinct
exit codes.
"""

from __future__ import annotations

import math


class DDFemError(Exception):
    """Base class for all errors raised by this package."""


class UnsupportedConfigError(DDFemError):
    """A (dimension, order) pair or rule outside the supported set was requested."""


class MethodAssumptionError(DDFemError):
    """A structural requirement of the approximation method does not hold."""


class ConductivityPositivityError(MethodAssumptionError):
    """Conductivity evaluated to a nonpositive or non-finite value."""

    def __init__(self, value: float, where=None, element: int | None = None,
                 gauss_point: int | None = None):
        self.value = value
        self.where = where
        self.element = element
        self.gauss_point = gauss_point
        loc = f" at {where}" if where is not None else ""
        if element is not None:
            loc += f" in element {element + 1}"
            if gauss_point is not None:
                loc += f", Gauss point {gauss_point + 1}"
        super().__init__(
            f"conductivity must be finite and strictly positive, got {value:g}{loc}")


class ElementOrientationError(MethodAssumptionError):
    """An element mapping's Jacobian determinant is not positive, tiny or not finite."""

    def __init__(self, element: int, gauss_point: int, det: float):
        self.element = element
        self.gauss_point = gauss_point
        self.det = det
        if not math.isfinite(det):
            why = "is not finite (coordinates too large or not finite)"
        elif det > 0.0:
            why = "is too small for the element's size (degenerate element)"
        else:
            why = "is not positive (inverted or degenerate element)"
        super().__init__(f"element {element + 1}: Jacobian determinant {det:g} "
                         f"at Gauss point {gauss_point + 1} {why}")


class QuadratureWeightError(MethodAssumptionError):
    """A quadrature rule carries a nonpositive weight."""

    def __init__(self, index: int, weight: float, where: str = ""):
        self.index = index
        self.weight = weight
        super().__init__(
            f"{where}quadrature weight {index + 1} is {weight:g}, must be positive")


class QuadratureVolumeError(MethodAssumptionError):
    """A quadrature rule's weights do not sum to the reference simplex volume."""


class GradientSampleRankError(MethodAssumptionError):
    """The gradient sample matrix is (numerically) column rank deficient."""

    def __init__(self, tau: float, sigma: float):
        self.tau = tau
        self.sigma = sigma
        super().__init__(
            f"gradient sample matrix is rank deficient: smallest singular value "
            f"{tau:g} below cutoff relative to largest {sigma:g}; the quadrature "
            f"rule is too weak for this element order"
        )


class MeshFormatError(DDFemError):
    """A mesh (or matrix) text file failed to parse."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class MeshInvariantError(MeshFormatError):
    """Mesh data violates a structural invariant (bad index, duplicate node, ...)."""


class InfiniteSupportError(DDFemError):
    """The support number is infinite: the denominator's nullspace is not contained
    in the numerator's."""

    def __init__(self, direction):
        self.direction = direction
        super().__init__(
            "support number is infinite: found a direction in the nullspace of the "
            "second matrix on which the first is positive"
        )


class SingularSystemError(DDFemError):
    """A matrix expected to be positive definite is singular."""

    def __init__(self, message: str, component=None):
        self.component = component
        super().__init__(message)


class EigensolverError(DDFemError):
    """An iterative eigensolver stopped without reaching its tolerance."""


class ConsistencyError(DDFemError):
    """An internal mathematical identity failed beyond tolerance."""
