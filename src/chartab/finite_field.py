"""Extension fields GF(p^f), the residue fields of the mod-M reduction.

An element is a plain f-tuple of ints in [0, p): the coefficients (constant
term first) of a polynomial of degree < f over GF(p), reduced modulo a fixed
monic irreducible defining polynomial.  There is no element class.  Equality
is tuple equality, an element is zero iff `not any(el)` (a tuple of zeros is
truthy), and the private `_poly_mul_mod` and `_poly_pow_mod` multiply and
raise to powers.  The defining polynomial for a given (p, f) is always the
lexicographically smallest monic irreducible, scanning the constant term
upward, so field constructions are reproducible.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .arith import is_prime, prime_factors


def _poly_mul_mod(a: tuple[int, ...], b: tuple[int, ...], poly: tuple[int, ...], p: int):
    f = len(poly) - 1
    conv = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                conv[i + j] = (conv[i + j] + ai * bj) % p
    # reduce modulo the monic defining polynomial
    for i in range(len(conv) - 1, f - 1, -1):
        c = conv[i]
        if c:
            conv[i] = 0
            for j in range(f):
                conv[i - f + j] = (conv[i - f + j] - c * poly[j]) % p
    out = conv[:f]
    out += [0] * (f - len(out))
    return tuple(out)


def _poly_divides(d: tuple[int, ...], a: tuple[int, ...], p: int) -> bool:
    """Whether monic d divides a over GF(p)."""
    rem = [c % p for c in a]
    dd = len(d) - 1
    lead_inv = pow(d[-1], -1, p)
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i] * lead_inv % p
        if c:
            for j in range(dd + 1):
                rem[i - dd + j] = (rem[i - dd + j] - c * d[j]) % p
    return not any(rem[:dd])


@lru_cache(maxsize=None)
def irreducible_polynomial(p: int, f: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree f over GF(p).

    Candidates are scanned with the constant term as the most significant
    position, upward from zero.
    """
    if not is_prime(p):
        raise ValueError(f"characteristic {p} is not prime")
    if f < 1:
        raise ValueError(f"degree must be positive, got {f}")
    for tail in product(range(p), repeat=f):
        cand = tail + (1,)
        if cand[0] == 0 and f == 1:
            return cand  # x itself is irreducible
        if cand[0] == 0:
            continue  # divisible by x
        if _is_irreducible(cand, p):
            return cand
    raise AssertionError("unreachable: irreducibles of every degree exist")


def _is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    f = len(poly) - 1
    if f == 1:
        return True
    for deg in range(1, f // 2 + 1):
        for tail in product(range(p), repeat=deg):
            d = tail + (1,)
            if _poly_divides(d, poly, p):
                return False
    return True


def _poly_pow_mod(a: tuple[int, ...], n: int, poly: tuple[int, ...], p: int) -> tuple[int, ...]:
    """a^n in GF(p)[x] / (poly), by repeated squaring; n >= 0."""
    out = (1,) + (0,) * (len(poly) - 2)
    while n:
        if n & 1:
            out = _poly_mul_mod(out, a, poly, p)
        a = _poly_mul_mod(a, a, poly, p)
        n >>= 1
    return out


def field_elements(p: int, poly: tuple[int, ...]):
    """All elements of the field, in lexicographic coefficient order."""
    return product(range(p), repeat=len(poly) - 1)


@lru_cache(maxsize=None)
def field_generator(p: int, poly: tuple[int, ...]) -> tuple[int, ...]:
    """First multiplicative generator in lexicographic coefficient order."""
    n = p ** (len(poly) - 1) - 1
    one = (1,) + (0,) * (len(poly) - 2)
    rs = prime_factors(n)
    for el in field_elements(p, poly):
        if any(el) and all(_poly_pow_mod(el, n // r, poly, p) != one for r in rs):
            return el
    raise AssertionError("unreachable: finite fields have cyclic unit groups")
