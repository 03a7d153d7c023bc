"""Small number-theory helpers shared across the package."""

from __future__ import annotations

from functools import lru_cache
from math import gcd


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin with the first 13 primes as bases is proven correct below
# this bound (Sorenson and Webster 2015)
MR_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; raises ValueError for n >= MR_LIMIT."""
    if n >= MR_LIMIT:
        raise ValueError(f"cannot decide primality of {n}: at least {MR_LIMIT}")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
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
