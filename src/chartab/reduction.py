"""Reduction of cyclotomic integers modulo every maximal ideal over p at once.

Write e = m p^a with p not dividing m.  Mod p the e-th cyclotomic polynomial
factors as Phi_e = Phi_m^phi(p^a), and Phi_m mod p is squarefree (x^m - 1 is
prime to its derivative m x^(m-1)): a product of distinct irreducibles of
degree f, the multiplicative order of p mod m.  So eps -> x maps Z[eps_e]
onto R = GF(p)[x] / (Phi_m mod p), and its kernel is the radical of p
Z[eps_e], the intersection of the maximal ideals M over p, one per
irreducible factor.  R is the product of their residue fields GF(p^f), and
an image is zero iff the value lies in every M over p.

That is all the congruences of `blocks` need.  The Galois group of Q(eps_e)
permutes the irreducible characters and acts transitively on the ideals over
p, so a statement about every irreducible character holds mod one M iff it
holds mod every M; and the principal block is the same mod every M (see
`blocks`).  Comparing images in R decides each criterion mod any M, with no
residue field, choice of root or bound on the field size.

An image is a phi(m)-tuple of ints in [0, p), the coefficients of a
polynomial of degree < phi(m).  The map is Z-linear on the power basis 1,
eps, ..., eps^(phi(e)-1), so `reduce_mod_M` applies it as a phi(m) x phi(e)
integer matrix whose column t holds the coefficients of x^t mod Phi_m.  A
rational integer c (only coefficient 0 nonzero) skips the matrix: column 0
is x^0 = 1, so its image is (c mod p, 0, ..., 0).
"""

from __future__ import annotations

from functools import lru_cache
from collections import namedtuple
from operator import mul

from .arith import euler_phi, multiplicative_order, p_part, require_prime
from .cyclo import Cyclotomic, cyclotomic_polynomial
from .errors import OrderMismatchError
from .finite_field import powers_of_x


class ReductionMap(namedtuple("ReductionMap", "e p m f poly")):
    """Ring homomorphism data: integer coefficients mod p, eps -> x mod poly.

    `m` is the p-free part of e, `f` the degree of each residue field over
    GF(p), and `poly` Phi_m mod p, constant term first.
    """

    __slots__ = ()


def build_reduction(e: int, p: int) -> ReductionMap:
    """The reduction of Z[eps_e] modulo the radical of p."""
    require_prime(p)
    if e < 1:
        raise ValueError(f"order must be positive, got {e}")
    m = e // p_part(e, p)
    f = 1 if m == 1 else multiplicative_order(p, m)
    poly = tuple(c % p for c in cyclotomic_polynomial(m))
    return ReductionMap(e=e, p=p, m=m, f=f, poly=poly)


@lru_cache(maxsize=128)  # bounded: a long-lived caller may reduce at many primes
def _images(rmap: ReductionMap) -> tuple[tuple[int, ...], ...]:
    """The map's matrix: row k holds coefficient k of x^t for t < phi(e)."""
    return tuple(zip(*powers_of_x(rmap.poly, rmap.p, euler_phi(rmap.e))))


def _integer_image(c: int, rmap: ReductionMap) -> tuple[int, ...]:
    """The image of the rational integer c."""
    return (c % rmap.p,) + (0,) * (len(rmap.poly) - 2)


def reduce_mod_M(z: Cyclotomic, rmap: ReductionMap) -> tuple[int, ...]:
    """Apply the homomorphism to a cyclotomic integer; the image is a phi(m)-tuple.

    The map is Z-linear on the power basis: sum_t c_t eps^t goes to
    sum_t c_t x^t, one integer dot product with a row of `_images(rmap)` per
    coefficient of the result.  A rational integer goes to its
    `_integer_image`, the same tuple, without the matrix.
    """
    if z.e != rmap.e:
        raise OrderMismatchError(f"value of order {z.e} under a map for order {rmap.e}")
    cs = z.coeffs
    if z.is_rational():
        return _integer_image(cs[0], rmap)
    p = rmap.p
    return tuple(sum(map(mul, cs, row)) % p for row in _images(rmap))
