"""Small number-theory helpers shared across the package."""

from __future__ import annotations

from functools import lru_cache
from math import gcd


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def prime_factors(n: int) -> dict[int, int]:
    """Factor n >= 1 into {prime: exponent}."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    phi = 1
    for p, a in prime_factors(n).items():
        phi *= (p - 1) * p ** (a - 1)
    return phi


def p_part(n: int, p: int) -> int:
    """Largest power of p dividing n (n >= 1)."""
    part = 1
    while n % p == 0:
        part *= p
        n //= p
    return part


def order_dividing(n: int, is_one) -> int:
    """Order of an element x whose order divides n, where is_one(k) tells x^k = 1.

    For each prime r | n, divide by r while the power stays the identity.
    """
    order = n
    for r in prime_factors(n):
        while order % r == 0 and is_one(order // r):
            order //= r
    return order


def multiplicative_order(a: int, n: int) -> int:
    """Order of a in (Z/n)*; requires gcd(a, n) = 1."""
    if gcd(a, n) != 1:
        raise ValueError(f"{a} is not a unit mod {n}")
    return order_dividing(euler_phi(n), lambda k: pow(a, k, n) == 1)


@lru_cache(maxsize=None)
def primitive_root(q: int) -> int:
    """Smallest generator of (Z/q)* for prime q."""
    if not is_prime(q):
        raise ValueError(f"{q} is not prime")
    rs = prime_factors(q - 1)
    for g in range(1, q):
        if all(pow(g, (q - 1) // r, q) != 1 for r in rs):
            return g
    raise AssertionError("unreachable: every prime has a primitive root")
