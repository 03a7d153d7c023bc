"""Reduction of cyclotomic integers to finite fields of characteristic p.

The target field is the residue field of a maximal ideal over p in the ring
of integers of Q(eps_e).  Concretely: strip the p-part of e to get m, take f
to be the multiplicative order of p mod m, build GF(p^f), and send eps to a
root eta of the e-th cyclotomic polynomial mod p.  Writing e = m p^a,
Phi_e = Phi_m^phi(p^a) mod p, so the roots are exactly the elements of order
m: the powers gen^((p^f - 1) j / m) with gcd(j, m) = 1 of a generator gen.
Any of them works; the builder picks j = 1 for the field's smallest
generator, and `candidate_roots` lists them all so independence of the
choice can be tested.  Fields with more than FIELD_SIZE_CAP elements are
refused, because finding their defining polynomial is a brute-force search.

Field elements are plain f-tuples of ints in [0, p) (see `finite_field`):
eta, the candidate roots and every image are such tuples, and an image is
zero iff `not any(image)`.  The map is Z-linear on the power basis 1, eps,
..., eps^(phi(e)-1), so `reduce_mod_M` applies it as an f x phi(e) integer
matrix whose column t holds the coefficients of eta^t.  A rational integer c
(only coefficient 0 nonzero) skips the matrix: column 0 is the coefficients
of eta^0 = 1, so its image is (c mod p, 0, ..., 0).  The matrix is cached
per ReductionMap rather than stored in it: a map copied with
`_replace(eta=...)` or built by hand for another root then gets its own
matrix, never the one of the root it came from.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from operator import mul
from typing import NamedTuple

from .arith import euler_phi, is_prime, multiplicative_order, p_part
from .cyclo import Cyclotomic
from .errors import CapExceededError, OrderMismatchError
from .finite_field import _poly_mul_mod, _poly_pow_mod, field_generator, irreducible_polynomial

# Largest residue field build_reduction constructs.  The slowest admitted
# fields build in under 0.5 s (2 vCPU, CPython 3.11); above the cap the
# brute-force search for the defining polynomial grows without bound in p.
FIELD_SIZE_CAP = 2**20


class ReductionMap(NamedTuple):
    """Ring homomorphism data: integer coefficients mod p, eps -> eta."""

    e: int
    p: int
    m: int
    f: int
    poly: tuple[int, ...]
    eta: tuple[int, ...]


def build_reduction(e: int, p: int) -> ReductionMap:
    """Deterministic reduction map for order e and prime p.

    eta = gen^((p^f - 1) / m) for the field's smallest generator gen: the
    first power of gen of exact order m, hence a root of the e-th cyclotomic
    polynomial mod p.  Raises CapExceededError when p^f > FIELD_SIZE_CAP.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if e < 1:
        raise ValueError(f"order must be positive, got {e}")
    m = e // p_part(e, p)
    f = 1 if m == 1 else multiplicative_order(p, m)
    if p**f > FIELD_SIZE_CAP:
        raise CapExceededError(
            f"residue field GF({p}^{f}) exceeds the cap of {FIELD_SIZE_CAP} elements"
        )
    poly = irreducible_polynomial(p, f)
    eta = _poly_pow_mod(field_generator(p, poly), (p**f - 1) // m, poly, p)
    return ReductionMap(e=e, p=p, m=m, f=f, poly=poly, eta=eta)


def candidate_roots(e: int, p: int) -> list[tuple[int, ...]]:
    """Every valid eta, the elements of exact order m, in coefficient order."""
    base = build_reduction(e, p)
    return sorted(
        _poly_pow_mod(base.eta, j, base.poly, p)
        for j in range(1, base.m + 1)
        if gcd(j, base.m) == 1
    )


@lru_cache(maxsize=128)  # bounded: a long-lived caller may try many roots
def _images(rmap: ReductionMap) -> tuple[tuple[int, ...], ...]:
    """The map's matrix: row k holds coefficient k of eta^t for t < phi(e)."""
    power = (1,) + (0,) * (rmap.f - 1)
    columns = []
    for _ in range(euler_phi(rmap.e)):
        columns.append(power)
        power = _poly_mul_mod(power, rmap.eta, rmap.poly, rmap.p)
    return tuple(zip(*columns))


def reduce_mod_M(z: Cyclotomic, rmap: ReductionMap) -> tuple[int, ...]:
    """Apply the homomorphism to a cyclotomic integer; the image is an f-tuple.

    The map is Z-linear on the power basis: sum_t c_t eps^t goes to
    sum_t c_t eta^t, one integer dot product with a row of `_images(rmap)` per
    coefficient of the result.  A rational integer c goes to (c mod p, 0, ...,
    0), the same tuple, without the matrix.  The matrix is cached on the whole
    map, eta included, and not stored as a field, so `rmap._replace(eta=...)`
    cannot carry the old root's images.
    """
    if z.e != rmap.e:
        raise OrderMismatchError(f"value of order {z.e} under a map for order {rmap.e}")
    p = rmap.p
    cs = z.coeffs
    if not any(cs[1:]):
        return (cs[0] % p,) + (0,) * (rmap.f - 1)
    return tuple(sum(map(mul, cs, row)) % p for row in _images(rmap))
