"""Ordered Wick moments of quadrature polynomials: the independent oracle
for the trace formulas of ``gaussep.moments``.

A polynomial is a dictionary mapping an ordered tuple of quadrature indices
(0 -> q1, 1 -> p1, ...) to a coefficient; the tuple order is the operator
order.  For a Gaussian state the expectation of an ordered product follows
from the Wick recursion with the two-point function M = cov + (i/2) J:

    <X_{i1} ... X_{im}> = d_{i1} <rest> + sum_j M[i1, ij] <rest without j>.

Replacing M by the plain covariance matrix yields the symmetrized
(Weyl-ordered) moment instead, which is what averaging the same polynomial
over samples of the Wigner density converges to.
"""

import numpy as np

from gaussep.core import symplectic_form


def poly_product(p1, p2):
    """Operator product; p1 factors stand to the left of p2 factors."""
    out = {}
    for k1, c1 in p1.items():
        for k2, c2 in p2.items():
            out[k1 + k2] = out.get(k1 + k2, 0.0) + c1 * c2
    return out


def photon_number_difference(plus_mode, minus_mode):
    """n(plus) - n(minus); the 1/2 constants of n = (q^2 + p^2 - 1)/2 cancel."""
    qp, pp = 2 * plus_mode, 2 * plus_mode + 1
    qm, pm = 2 * minus_mode, 2 * minus_mode + 1
    return {(qp, qp): 0.5, (pp, pp): 0.5, (qm, qm): -0.5, (pm, pm): -0.5}


def cross_intensity(x_mode, y_mode):
    """a_x^dag a_y + a_y^dag a_x = q_x q_y + p_x p_y for distinct modes."""
    qx, px = 2 * x_mode, 2 * x_mode + 1
    qy, py = 2 * y_mode, 2 * y_mode + 1
    return {(qx, qy): 1.0, (px, py): 1.0}


def cross_phase(x_mode, y_mode):
    """i(a_x^dag a_y - a_y^dag a_x) = q_y p_x - q_x p_y for distinct modes."""
    qx, px = 2 * x_mode, 2 * x_mode + 1
    qy, py = 2 * y_mode, 2 * y_mode + 1
    return {(qy, px): 1.0, (qx, py): -1.0}


def _ordered_moment(idx, means, M, cache):
    if not idx:
        return 1.0 + 0.0j
    hit = cache.get(idx)
    if hit is not None:
        return hit
    i0, rest = idx[0], idx[1:]
    total = means[i0] * _ordered_moment(rest, means, M, cache)
    for j in range(len(rest)):
        total += M[i0, rest[j]] * _ordered_moment(rest[:j] + rest[j + 1 :], means, M, cache)
    cache[idx] = total
    return total


def _expect(poly, means, M):
    cache = {}
    return sum(c * _ordered_moment(k, means, M, cache) for k, c in poly.items())


def expect_operator(poly, state):
    """Quantum expectation of the ordered operator polynomial."""
    return _expect(poly, state.means, state.cov + 0.5j * symplectic_form(state.n_modes))


def expect_symmetrized(poly, state):
    """Average of the polynomial over the state's Wigner density."""
    return float(_expect(poly, state.means, state.cov.astype(complex)).real)


def package_factors():
    """(name, factor, polynomial) of each of the package's eight readout
    factors: the quadratic form the package uses and the same observable
    as an ordered polynomial."""
    from gaussep.stokes import _S1_ARM_C, _S1_ARM_D, _S1_SINGLE, _S3
    from gaussep.twocopy import _OPA_PRODUCTS

    opa_polys = [cross_phase(2, 3), cross_intensity(2, 3), cross_phase(2, 1), cross_intensity(2, 1)]
    return [
        ("S1", _S1_SINGLE, photon_number_difference(1, 0)),
        ("S1_c", _S1_ARM_C, photon_number_difference(2, 0)),
        ("S1_d", _S1_ARM_D, photon_number_difference(3, 1)),
        ("S3", _S3, cross_phase(3, 0)),
        *((f"opa{i}", factors[0], poly)
          for i, ((factors, _), poly) in enumerate(zip(_OPA_PRODUCTS, opa_polys))),
    ]
