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
polynomial of degree < phi(m): `cyclo.remainder` at m and p.  Phi_m divides
x^m - 1 in Z[x], so reducing sum_t c_t x^t modulo x^m - 1, then modulo the
monic Phi_m, then mod p, gives its class modulo Phi_m mod p: the map
eps -> x above.  Phi_e is Phi_m^phi(p^a) mod p, a multiple of Phi_m mod p,
so the image does not depend on which representative of z modulo Phi_e the
power basis holds.  Over Z the remainder is not a ring map; mod p it is.
"""

from __future__ import annotations

from collections import namedtuple

from .arith import multiplicative_order, p_part, require_prime
from .cyclo import Cyclotomic, remainder
from .errors import OrderMismatchError


class ReductionMap(namedtuple("ReductionMap", "e p m f")):
    """Ring homomorphism data: integer coefficients mod p, eps -> x mod Phi_m.

    `m` is the p-free part of e and `f` the degree of each residue field
    over GF(p).
    """

    __slots__ = ()


def build_reduction(e: int, p: int) -> ReductionMap:
    """The reduction of Z[eps_e] modulo the radical of p."""
    require_prime(p)
    if e < 1:
        raise ValueError(f"order must be positive, got {e}")
    m = e // p_part(e, p)
    f = 1 if m == 1 else multiplicative_order(p, m)
    return ReductionMap(e=e, p=p, m=m, f=f)


def reduce_mod_M(z: Cyclotomic, rmap: ReductionMap) -> tuple[int, ...]:
    """Apply the homomorphism to a cyclotomic integer; the image is a phi(m)-tuple."""
    if z.e != rmap.e:
        raise OrderMismatchError(f"value of order {z.e} under a map for order {rmap.e}")
    return remainder(z, rmap.m, rmap.p)
