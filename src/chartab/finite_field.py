"""Powers of x modulo a monic polynomial over GF(p).

This is the one computation the mod-p reduction of cyclotomic integers needs
(see `reduction`).  With e = m p^a and p not dividing m, the e-th cyclotomic
polynomial is Phi_m^phi(p^a) mod p, and Phi_m mod p is a product of distinct
irreducibles, one per maximal ideal over p.  The ring GF(p)[x] / (Phi_m mod
p) is therefore the product of the residue fields of all those ideals at
once, and the images x^t of the powers of eps are all the reduction uses: no
irreducible factor, field generator or root is ever chosen.  An element of
the ring is a plain tuple of ints in [0, p), its coefficients below the
polynomial's degree, constant term first.
"""

from __future__ import annotations


def powers_of_x(poly: tuple[int, ...], p: int, count: int) -> list[tuple[int, ...]]:
    """x^0, ..., x^(count-1) in GF(p)[x] / (poly); poly is monic, constant term first."""
    tail = [c % p for c in poly[:-1]]
    power = [1] + [0] * (len(tail) - 1)
    out = []
    for _ in range(count):
        out.append(tuple(power))
        # times x, then x^deg = -(poly below x^deg)
        top = power[-1]
        power = [(a - top * c) % p for a, c in zip([0] + power[:-1], tail)]
    return out
