"""The mixed method on one mesh, built once and reused across a sweep.

Every matrix of the method splits as part0 + iota^2 part2 and lambda
enters only the pressure block, so one mesh carries everything the
(iota, lambda) cells of a study need: the nodal coefficients of its
shape classes, the DoF maps, the scatter plans and class kernels of the
a- and b-parts, the summed parts of the pressure Gram matrix and of G_V
(whose scalar parts act on each component alone), the load parts F =
F0 + iota^2 F2 (for mu = 1, the unit), the parts of ||f||^2, and the
exact field's gradient and second derivatives at the error quadrature
points.  A cell then only combines parts, solves (at lambda / mu) and
measures; the lambda cells of one iota share A, B, the pressure Gram
matrix and the load, the solver's factors of A and the Gram matrix, and
one solve, in which every lambda advances in lockstep as a shift of the
conjugate gradients of the lambda = infinity system (the inf-sup
condition makes them converge, see :mod:`sgefem.linalg`).  Each group
is computed on first use, so a caller that needs only some of them (the
verification checks) pays only for those.

Each iota sums the a- and b-parts anew through their plans
(:meth:`sgefem.assembly.ScatterPlan.combine`), so no summed a- or
b-part is alive when an iota's A is factored: a uniform mesh has two
shape classes, and its plans are about a quarter the size of the
summed parts they replace (a mesh with no repeated shape keeps one
kernel pair per triangle, 6.4 KB for the a-parts, which outweighs
them).  :meth:`Discretization.solve` solves every cell of a mesh
holding one iota's factors at a time: it drops the plans once the last
iota has combined them and the factors after the last solve, so the
errors measured afterwards build the exact tables beside no factor.
"""

import math
from functools import cached_property, partial

from . import linalg
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
    error norms; the matrices need none.  :meth:`solve` drops the parts
    that only further cells would read; whatever is asked for after it
    is rebuilt.
    """

    def __init__(self, mesh, example=None):
        self.mesh = mesh
        self.example = example

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
        """The scatter plan and class kernels of (eps, eps) and
        (grad eps, grad eps)."""
        return assemble_a_parts(self.mesh, self.coeff, self.vmap)

    @cached_property
    def b_parts(self):
        """The scatter plan and class kernels of (div v, q) and
        (grad div v, grad q)."""
        return assemble_b_parts(self.mesh, self.coeff, self.vmap, self.qmap)

    @cached_property
    def pressure_parts(self):
        """P1 mass and stiffness matrices."""
        return assemble_pressure_parts(self.mesh, self.qmap)

    @cached_property
    def norm_gram_parts(self):
        """The scalar g1, g2 of G_V = (g1 + iota^2 g2) kron I_2."""
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

    def factors(self, iota):
        """The lambda-independent A = 2 (a0 + iota^2 a2), B = b0 + iota^2 b2,
        G = M_p + iota^2 K_p and load F0 + iota^2 F2 of iota at mu = 1,
        with the solver's factors of A and G, built on first use.  A and
        B are summed through their plans and hold the plans' index
        arrays, and G its parts', so B keeps the zeros that b0 stores.
        Each call combines the parts anew."""
        if not math.isfinite(iota):
            raise ValueError("the method needs a finite iota")
        i2 = iota ** 2
        plan_a, a = self.a_parts
        plan_b, b = self.b_parts
        mp, kp = self.pressure_parts
        (F0, F2), _ = self.load
        return SaddleFactors(
            plan_a.combine(a, i2, 2.0), plan_b.combine(b, i2),
            combine_parts(mp, kp, i2), self.mean_constraint, F0 + i2 * F2)

    def solve(self, mu, lams, iotas):
        """Each (lambda, iota) cell's (u, p), or its SolverBreakdown,
        keyed (lam, iota).  mu is the unit: divided by mu, the rows of u
        are those of mu = 1 in p / mu, with lambda / mu in the pressure
        block, so each cell is solved at lambda / mu and its p scaled by
        mu.  The lambdas of an iota share its factors and the first
        cell's solve, and only one iota's factors are alive at a time;
        the plans of the a- and b-parts go once the last iota has
        combined them, before its A is factored, and the factors after
        the last solve.
        It only drops them: each factorization starts on a trimmed heap
        (:func:`sgefem.linalg.spd_factor`)."""
        if not 0 < mu < math.inf:
            raise ValueError("the method needs a finite mu > 0")
        cells = {}
        for iota in iotas:
            # free the old factors, and their systems, before the new A
            f = systems = system = None
            f = self.factors(iota)
            if iota == iotas[-1]:
                self.__dict__.pop("a_parts", None)
                self.__dict__.pop("b_parts", None)
            systems = [SaddleSystem(f, lam / mu) for lam in lams]
            for lam, system in zip(lams, systems):
                try:
                    u, p, _ = linalg.solve_saddle(system)
                    cells[lam, iota] = u, mu * p
                except linalg.SolverBreakdown as exc:
                    # the frames of its traceback, and of the failure it
                    # wraps, would hold the factors
                    if exc.__cause__ is not None:
                        exc.__cause__.with_traceback(None)
                    cells[lam, iota] = exc.with_traceback(None)
        f = systems = system = None
        return cells

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
        # at p / 2^e, mu's scale of p cannot over- or underflow the square
        _, e = math.frexp(abs(p).max(initial=0.0))
        p = p * math.ldexp(1.0, -e)
        q = p @ (combine_parts(mp, kp, iota ** 2) @ p)
        e_p = math.ldexp(math.sqrt(q), e)
        return error_norms(self.mesh, self.coeff, self.vmap, u, self.exact,
                           iota) + (e_p,)
