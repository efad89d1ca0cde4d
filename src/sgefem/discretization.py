"""The mixed method on one mesh, built once and reused across a sweep.

Every matrix of the method splits as part0 + iota^2 part2 and lambda
enters only the pressure block, so one mesh carries everything the
(iota, lambda) cells of a study need: the nodal coefficients of its
shape classes, the DoF maps, the matrix parts, the load parts
F = F0 + iota^2 F2 (for mu = 1), the parts of ||f||^2, and the exact
field's gradient and second derivatives at the error quadrature points.
A cell then only combines parts, solves and measures; the lambda cells
of one iota share A, B, the pressure Gram matrix and the load, the
solver's factors of A and the Gram matrix, and one conjugate gradient
sequence of the lambda = infinity system, which every lambda replays
as a shift (the inf-sup condition makes that sequence converge, see
:mod:`sgefem.linalg`).
Each group is computed on first use, so a caller that needs only some
of them (the verification checks) pays only for those, and the exact
tables of a study are built by its first error measurement, after the
first solve, rather than held through it.
"""

import math
from functools import cached_property, partial

from .assembly import (assemble_a_parts, assemble_b_parts, assemble_load,
                       assemble_norm_gram_parts, assemble_pressure_parts,
                       combine_parts, mean_constraint_vector)
from .element import batched_scalar_coeff
from .linalg import SaddleFactors, SaddleSystem
from .manufactured import (error_norms, exact_tables, field_by_name,
                           load_parts)
from .space import build_qdofmap, build_vdofmap


class Discretization:
    """The 20-DoF displacement space and P1 pressures on ``mesh``.

    ``example`` names the manufactured solution (see
    :data:`sgefem.manufactured.FIELDS`) that drives the load and the
    error norms; the matrices need none.
    """

    def __init__(self, mesh, example=None):
        self.mesh = mesh
        self.example = example
        self._factors = None

    @cached_property
    def coeff(self):
        """Nodal coefficients (K, 10, 10) of the mesh's shape classes."""
        return batched_scalar_coeff(self.mesh)

    @cached_property
    def vmap(self):
        return build_vdofmap(self.mesh)

    @cached_property
    def qmap(self):
        return build_qdofmap(self.mesh)

    @cached_property
    def a_parts(self):
        """(eps, eps) and (grad eps, grad eps)."""
        return assemble_a_parts(self.mesh, self.coeff, self.vmap)

    @cached_property
    def b_parts(self):
        """(div v, q) and (grad div v, grad q)."""
        return assemble_b_parts(self.mesh, self.coeff, self.vmap, self.qmap)

    @cached_property
    def pressure_parts(self):
        """P1 mass and stiffness matrices."""
        return assemble_pressure_parts(self.mesh, self.qmap)

    @cached_property
    def norm_gram_parts(self):
        """Gradient and second-derivative Gram matrices of G_V."""
        return assemble_norm_gram_parts(self.mesh, self.coeff, self.vmap)

    @cached_property
    def mean_constraint(self):
        return mean_constraint_vector(self.mesh, self.qmap)

    @cached_property
    def load(self):
        """(F, G): the load vectors F0, F2 and the Gram matrix of the
        load parts f0, f2, from one jets pass over the load points."""
        return assemble_load(self.mesh, self.coeff, self.vmap,
                             partial(load_parts, self.example))

    @cached_property
    def exact(self):
        """The exact field's derivatives at the error points (see
        :func:`sgefem.manufactured.exact_tables`), from one jets pass."""
        return exact_tables(self.mesh, field_by_name(self.example))

    def factors(self, mu, iota):
        """The lambda-independent A = 2 mu (a0 + iota^2 a2),
        B = b0 + iota^2 b2, G = M_p + iota^2 K_p and load
        mu (F0 + iota^2 F2) of (mu, iota), with the solver's factors of
        A and G and its lambda = infinity sequence, built on first use.
        A and G hold the index arrays of their parts' shared pattern; B
        is scipy's sum, which drops the entries that cancel to zero.
        One entry is kept: a study runs its lambdas inside each iota, so
        the previous pair is released when iota changes."""
        key = (mu, iota)
        if self._factors is None or self._factors[0] != key:
            self._factors = None    # free the old factors before the new A
            i2 = iota ** 2
            a0, a2 = self.a_parts
            b0, b2 = self.b_parts
            mp, kp = self.pressure_parts
            (F0, F2), _ = self.load
            self._factors = (key, SaddleFactors(
                combine_parts(a0, a2, i2, 2.0 * mu), b0 + i2 * b2,
                combine_parts(mp, kp, i2), self.mean_constraint,
                mu * (F0 + i2 * F2)))
        return self._factors[1]

    def system(self, mu, lam, iota):
        """The saddle system of one (mu, lambda, iota) cell."""
        if not 0 < mu < math.inf:
            raise ValueError("the method needs a finite mu > 0")
        if lam <= 0:
            raise ValueError("the mixed form needs lambda > 0")
        return SaddleSystem(self.factors(mu, iota), lam)

    def load_norm(self, mu, iota):
        """||f||_0 of the load at (mu, iota), from the parts of ||f||^2."""
        _, G = self.load
        i2 = iota ** 2
        return mu * math.sqrt(G[0, 0] + 2.0 * i2 * G[0, 1]
                              + i2 * i2 * G[1, 1])

    def errors(self, u, p, iota):
        """(|e|_1, |e|_{2,h}, ||e||_{V,h}, ||e_p||_Q) of a solution:
        :func:`sgefem.manufactured.error_norms` with this mesh's exact
        tables, and (p^T (M_p + iota^2 K_p) p)^{1/2} as lambda div u = 0."""
        mp, kp = self.pressure_parts
        e_p = math.sqrt(p @ ((mp + iota ** 2 * kp) @ p))
        return error_norms(self.mesh, self.coeff, self.vmap, u, self.exact,
                           iota) + (e_p,)
