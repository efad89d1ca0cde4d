"""Quadrature rules on the reference triangle and the unit interval.

Triangle rules are symmetric positive-weight rules in barycentric
coordinates with weights summing to 1, so integrals scale by the
physical area |K|; those exact to degrees 2, 6 and 12 are stored.  Edge
(1D) rules are Gauss-Legendre on [0, 1] with weights summing to 1,
scaling by the edge length.
"""

import numpy as np

from ._dunavant import ORBITS

MAX_DEGREE = max(ORBITS)


class QuadratureRule:
    """Immutable point/weight table.

    points : (npts, 3) barycentric coordinates
    weights : (npts,) weights summing to 1
    """

    def __init__(self, points, weights):
        self.points = np.ascontiguousarray(points, dtype=float)
        self.weights = np.ascontiguousarray(weights, dtype=float)
        self.points.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def npts(self):
        return self.weights.shape[0]


def _expand(orbits):
    pts, wts = [], []
    for size, a, b, c, w in orbits:
        group = [(a, b, c), (b, c, a), (c, a, b)]
        if size == 6:
            group += [(a, c, b), (c, b, a), (b, a, c)]
        pts.extend(group)
        wts.extend([w] * size)
    return np.array(pts), np.array(wts)


_CACHE = {}


def rule_for_degree(deg):
    """The smallest stored triangle rule exact to at least ``deg``
    (1 <= deg <= 12)."""
    if not 1 <= deg <= MAX_DEGREE:
        raise ValueError("no triangle rule for degree %r "
                         "(supported: 1..%d)" % (deg, MAX_DEGREE))
    rule = min(r for r in ORBITS if r >= deg)
    if rule not in _CACHE:
        pts, wts = _expand(ORBITS[rule])
        _CACHE[rule] = QuadratureRule(pts, wts)
    return _CACHE[rule]


def edge_rule(deg):
    """Gauss-Legendre rule on [0, 1] exact to degree ``deg``.

    Returns (t, w) with sum(w) = 1; the point set is symmetric about
    t = 1/2, so the value of a mean integral does not depend on the
    direction in which the edge is traversed.
    """
    npts = (deg + 2) // 2
    x, w = np.polynomial.legendre.leggauss(npts)
    return (x + 1.0) / 2.0, w / 2.0
