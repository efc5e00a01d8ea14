"""Quadrature rules on the reference simplex and their exactness audit.

The built-in rules are the classic midpoint rule (order-1 elements) and the
symmetric (d+1)-point degree-2 rules (order-2 elements).  Custom rules can be
supplied as (coordinates..., weight) records; they pass through the same
validation.  The factorial-formula integrator below is the independent oracle
used to audit polynomial exactness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (MeshFormatError, QuadratureVolumeError, QuadratureWeightError,
                     UnsupportedConfigError)

# Largest absolute error of a monomial integral that still counts as exact.
EXACTNESS_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Points and positive weights on the open unit d-simplex."""

    d: int
    points: np.ndarray   # (q, d), strictly interior
    weights: np.ndarray  # (q,), strictly positive
    name: str = "custom"

    @property
    def q(self) -> int:
        return len(self.weights)

    @property
    def m_q(self) -> float:
        """Smallest weight."""
        return float(self.weights.min())

    @property
    def M_q(self) -> float:
        """Largest weight."""
        return float(self.weights.max())


@dataclass(frozen=True)
class ExactnessReport:
    """Outcome of checking a rule against the exact monomial integrals."""

    degree: int
    max_error: float
    failures: tuple = ()   # (exponents, rule value, exact value, abs error)

    @property
    def passed(self) -> bool:
        return not self.failures


def make_rule(d: int, points, weights, name: str = "custom",
              lines=None) -> QuadratureRule:
    """Validate and freeze a quadrature rule.

    Enforces q >= 1, strictly positive weights, strictly interior points
    (all coordinates > 0, coordinate sum < 1), and weights summing to the
    reference volume 1/d! (exact on constants, as every order needs).  A
    rejection names the point's entry of ``lines`` (source line numbers), the
    sum the first point's.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    wts = np.asarray(weights, dtype=float).reshape(-1)
    if d not in (2, 3):
        raise UnsupportedConfigError(f"quadrature dimension must be 2 or 3, got {d}")
    if pts.shape[0] != wts.shape[0] or pts.shape[0] == 0:
        raise UnsupportedConfigError(
            f"rule needs matching nonempty points/weights, got {pts.shape[0]} points "
            f"and {wts.shape[0]} weights"
        )
    if pts.shape[1] != d:
        raise UnsupportedConfigError(
            f"rule points have {pts.shape[1]} coordinates, expected {d}"
        )
    if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(wts))):
        raise UnsupportedConfigError("rule points and weights must be finite")
    where = [f"line {ln}: " for ln in lines] if lines is not None else [""] * len(wts)
    for k, w in enumerate(wts):
        if not w > 0.0:
            raise QuadratureWeightError(k, float(w), where[k])
    for k, r in enumerate(pts):
        if not (np.all(r > 0.0) and r.sum() < 1.0):
            raise UnsupportedConfigError(
                f"{where[k]}Gauss point {k + 1} at {tuple(r.tolist())} is not strictly "
                f"inside the unit simplex"
            )
    volume = 1.0 / math.factorial(d)
    with np.errstate(over="ignore"):   # an infinite sum is rejected below
        total = float(wts.sum())
    if not abs(total - volume) <= EXACTNESS_TOL:
        raise QuadratureVolumeError(
            f"{where[0]}quadrature weights sum to {total!r}, not the reference simplex "
            f"volume 1/{math.factorial(d)}: the rule does not integrate constants exactly")
    pts = pts.copy()
    wts = wts.copy()
    pts.setflags(write=False)
    wts.setflags(write=False)
    return QuadratureRule(d=d, points=pts, weights=wts, name=name)


def standard_rule(d: int, p: int) -> QuadratureRule:
    """The built-in rule for a (dimension, order) pair.

    (2,1): one point (1/3,1/3), weight 1/2.
    (2,2): three points (1/6,1/6), (1/6,2/3), (2/3,1/6), each weight 1/6.
    (3,1): one point (1/4,1/4,1/4), weight 1/6.
    (3,2): four points at permutations of (a,b,b,b) barycentric with
           b=(10-sqrt(20))/40, each weight 1/24.
    """
    if (d, p) == (2, 1):
        return make_rule(2, [(1 / 3, 1 / 3)], [1 / 2], name="triangle-midpoint")
    if (d, p) == (2, 2):
        return make_rule(
            2,
            [(1 / 6, 1 / 6), (1 / 6, 2 / 3), (2 / 3, 1 / 6)],
            [1 / 6, 1 / 6, 1 / 6],
            name="triangle-3pt",
        )
    if (d, p) == (3, 1):
        return make_rule(3, [(1 / 4, 1 / 4, 1 / 4)], [1 / 6], name="tet-midpoint")
    if (d, p) == (3, 2):
        xi1 = (10.0 - math.sqrt(20.0)) / 40.0
        xi2 = 1.0 - 3.0 * xi1
        pts = [(xi1, xi1, xi1), (xi1, xi1, xi2), (xi1, xi2, xi1), (xi2, xi1, xi1)]
        return make_rule(3, pts, [1 / 24] * 4, name="tet-4pt")
    raise UnsupportedConfigError(f"no built-in rule for (d={d}, p={p})")


def exact_monomial_integral(exponents) -> float:
    """Exact integral of the monomial x^a y^b (z^c) over the unit simplex.

    Uses the factorial formula: prod(a_i!) / (sum(a_i) + d)!.  This is the
    test oracle for the assembly path and stays independent of it.
    """
    exponents = tuple(int(a) for a in exponents)
    num = 1
    for a in exponents:
        num *= math.factorial(a)
    return num / math.factorial(sum(exponents) + len(exponents))


def _monomials_up_to(d: int, degree: int):
    if d == 2:
        for total in range(degree + 1):
            for a in range(total + 1):
                yield (a, total - a)
    else:
        for total in range(degree + 1):
            for a in range(total + 1):
                for b in range(total - a + 1):
                    yield (a, b, total - a - b)


def verify_exactness(rule: QuadratureRule, degree: int,
                     tolerance: float = EXACTNESS_TOL) -> ExactnessReport:
    """Compare the rule against the exact integral of every monomial up to degree.

    Returns a report carrying the worst absolute error and the list of failing
    monomials; it never raises, so callers decide what a failure means.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    failures = []
    max_error = 0.0
    for exps in _monomials_up_to(rule.d, degree):
        vals = np.ones(rule.q)
        for axis, a in enumerate(exps):
            if a:
                vals *= rule.points[:, axis] ** a
        approx = float(vals @ rule.weights)
        exact = exact_monomial_integral(exps)
        err = abs(approx - exact)
        max_error = max(max_error, err)
        if err > tolerance:
            failures.append((exps, approx, exact, err))
    return ExactnessReport(degree=degree, max_error=max_error,
                           failures=tuple(failures))


def parse_rule_records(records, d: int, name: str = "custom",
                       lines=None) -> QuadratureRule:
    """Build a rule from (x, y, [z,] weight) records, e.g. config-file lines.

    ``lines`` gives each record's source line number for error messages.  A
    field that is not a finite number raises MeshFormatError.
    """
    pts = []
    wts = []
    for idx, fields in enumerate(records):
        line = lines[idx] if lines is not None else None
        try:
            rec = [float(v) for v in fields]
        except ValueError:
            rec = [math.nan]
        if not np.all(np.isfinite(rec)):
            raise MeshFormatError(
                f"rule record {' '.join(map(str, fields))!r} needs finite numbers",
                line=line)
        if len(rec) != d + 1:
            raise UnsupportedConfigError(
                f"{'' if line is None else f'line {line}: '}custom rule record {rec} "
                f"has {len(rec)} fields, expected {d + 1} (coordinates then weight)"
            )
        pts.append(rec[:d])
        wts.append(rec[d])
    return make_rule(d, pts, wts, name=name, lines=lines)
