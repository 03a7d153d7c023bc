import os
from collections import namedtuple
from functools import lru_cache
from itertools import product
from math import factorial, gcd

import pytest

from chartab.arith import euler_phi
from chartab.cyclo import Cyclotomic, cyclotomic_polynomial
from chartab.groups import conjugacy_data, enumerate_group, load_catalog, load_group_spec
from chartab.tables import compute_table

ALL_GROUPS = (
    "trivial", "C2", "C3", "C4", "C5", "C6", "S3",
    "D8", "Q8", "D12", "A4", "S4", "A5", "S5",
)

BENCH_SPECS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "specs"
)
SPEC_GROUPS = ("S6", "A6", "GL32")


# fields of a saved S3 table replaced by values of the wrong type, each of
# which a loader must refuse before it takes a len() or a hash()
MISTYPED_FIELDS = {
    "sizes-int": ("class_sizes", 5),
    "sizes-null": ("class_sizes", None),
    "rows-ints": ("rows", [1, 2, 3]),
    "rows-nulls": ("rows", [None, None, None]),
    "group-list": ("group", ["S3"]),
}


@pytest.fixture(scope="session")
def group_factory():
    specs = load_catalog()
    cache = {}

    def get(name):
        if name not in cache:
            group = enumerate_group(specs[name])
            cache[name] = (group, conjugacy_data(group))
        return cache[name]

    return get


@pytest.fixture(scope="session")
def table_factory(group_factory):
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = compute_table(group_factory(name)[1])
        return cache[name]

    return get


@pytest.fixture(scope="session")
def spec_tables():
    """The tables of the bench spec groups, by spec file name."""
    out = {}
    for name in SPEC_GROUPS:
        group = enumerate_group(load_group_spec(os.path.join(BENCH_SPECS, f"{name}.json")))
        out[name] = compute_table(conjugacy_data(group))
    return out


# -- products and roots of unity, for tests that need one of each ----------


def mul(group, i, j):
    """Index of the product of elements i and j, element i applied first."""
    a, b = group.elements[i], group.elements[j]
    return group.index[tuple(b[x] for x in a)]


def inverses(group):
    """The index of each element's inverse: g^-1 sends g[x] back to x."""
    out = []
    for g in group.elements:
        inv = [0] * len(g)
        for x, y in enumerate(g):
            inv[y] = x
        out.append(group.index[tuple(inv)])
    return out


def root_power(e, j):
    """eps_e^j in canonical form (j taken mod e)."""
    return Cyclotomic(e, [0] * (j % e) + [1])


def value_record(e, r):
    """The table-file record of the int r as a value of order e."""
    d = euler_phi(e)
    return {"e": e, "num": [r] + [0] * (d - 1), "den": [1] * d}


# -- a power-map oracle: the definition of composition ---------------------


def composes(data):
    """Whether the class of (g^s)^t is the class of g^(st) for every class g
    and every s and t mod e: the definition, checked at every pair."""
    e, power = data.exponent, data.power_class
    return all(
        power(power(i, s), t) == power(i, s * t)
        for s in range(e) for i in range(data.k) for t in range(e)
    )


# -- a cyclotomic-polynomial oracle: exact division by the lower ones ------


@lru_cache(maxsize=None)
def cyclotomic_by_division(e):
    """Phi_e as x^e - 1 divided exactly by Phi_d for every proper divisor d of e."""
    poly = [-1] + [0] * (e - 1) + [1]
    for d in range(1, e):
        if e % d:
            continue
        den = cyclotomic_by_division(d)
        top = len(den) - 1
        quotient = [0] * (len(poly) - top)
        for i in range(len(poly) - 1, top - 1, -1):
            c = quotient[i - top] = poly[i]
            if c:
                for j, dj in enumerate(den):
                    poly[i - top + j] -= c * dj
        assert not any(poly), "inexact polynomial division"
        poly = quotient
    return tuple(poly)


# -- a class-function oracle: pointwise arithmetic and the inner product ----
#
# A class function here is a test-local (values, data) pair, so the oracle
# shares no representation with chartab, whose table rows hold values only.

CF = namedtuple("CF", "values data")


def row_functions(table):
    """The table's rows as (values, data) pairs over the table's class data."""
    return [CF(row.values, table.data) for row in table.rows]


def cf_mul(a, b):
    """The pointwise product of two class functions, or of one and an int."""
    if isinstance(b, int):
        return CF(tuple(v * b for v in a.values), a.data)
    assert a.data == b.data, "class functions over different class data"
    return CF(tuple(x * y for x, y in zip(a.values, b.values)), a.data)


def cf_add(a, b):
    """The pointwise sum of two class functions."""
    assert a.data == b.data, "class functions over different class data"
    return CF(tuple(x + y for x, y in zip(a.values, b.values)), a.data)


def cf_conj(a):
    """The pointwise complex conjugate of a class function."""
    return CF(tuple(v.galois(-1) for v in a.values), a.data)


def constant(data, c):
    """The class function with the int value c on every class."""
    return CF(tuple(Cyclotomic(data.exponent, [c]) for _ in range(data.k)), data)


def all_ones(data):
    return constant(data, 1)


def pi_character(data):
    """The conjugation character: centralizer order on each class."""
    return CF(
        tuple(Cyclotomic(data.exponent, [c]) for c in data.centralizer_orders),
        data,
    )


def psi_character(data):
    """Sum of the squared irreducible characters: centralizer order on real
    classes and 0 elsewhere, by column orthogonality of g against g^-1."""
    return CF(
        tuple(
            Cyclotomic(data.exponent, [c if real else 0])
            for c, real in zip(data.centralizer_orders, data.real_flags)
        ),
        data,
    )


def power(a, n):
    """n-th pointwise power; power(a, 0) is the all-ones function."""
    if n < 0:
        raise ValueError(f"power must be non-negative, got {n}")
    out = all_ones(a.data)
    for _ in range(n):
        out = cf_mul(out, a)
    return out


def inner(phi, theta):
    """(1/|G|) sum over classes of |K| phi(g_K) conj(theta(g_K)), one
    Cyclotomic product per class."""
    assert phi.data == theta.data, "class functions over different class data"
    total = Cyclotomic(phi.data.exponent, [])
    for size, a, b in zip(phi.data.sizes, phi.values, theta.values):
        total = total + a * b.galois(-1) * size
    return total / phi.data.order


# -- a field oracle on tuples, independent of chartab.reduction -----------
#
# field_mul and horner work in GF(p)[x] / (poly) for any monic poly, a field
# or not, so they also check the reduction's ring GF(p)[x] / (Phi_m mod p).


def field_one(poly):
    """1 in GF(p)[x] / (poly), as a tuple of len(poly) - 1 ints."""
    return (1,) + (0,) * (len(poly) - 2)


def field_mul(a, b, p, poly):
    """a * b in GF(p)[x] / (poly) by shift and add: the sum of b_j (x^j a)."""
    f = len(poly) - 1
    out = [0] * f
    shifted = [c % p for c in a]
    for bj in b:
        out = [(o + bj * s) % p for o, s in zip(out, shifted)]
        top = shifted[-1]
        shifted = [0] + shifted[:-1]  # times x, then x^f = -(poly below x^f)
        shifted = [(s - top * c) % p for s, c in zip(shifted, poly)]
    return tuple(out)


def horner(coeffs, el, p, poly):
    """sum_t coeffs[t] el^t by Horner's rule, one field multiply and add per term."""
    acc = (0,) * (len(poly) - 1)
    for c in reversed(coeffs):
        acc = field_mul(acc, el, p, poly)
        acc = ((acc[0] + c) % p,) + acc[1:]
    return acc


def _divides(d, a, p):
    """Whether the monic d divides a over GF(p), by long division."""
    rem = [c % p for c in a]
    top = len(d) - 1
    for i in range(len(rem) - 1, top - 1, -1):
        c = rem[i]
        if c:
            for j, dj in enumerate(d):
                rem[i - top + j] = (rem[i - top + j] - c * dj) % p
    return not any(rem)


@lru_cache(maxsize=None)
def irreducible_polynomial(p, f):
    """The first monic irreducible of degree f over GF(p), scanning candidates
    with the constant term most significant: the first with no monic divisor
    of degree 1 to f // 2, each found by trying them all."""
    for tail in product(range(p), repeat=f):
        cand = tail + (1,)
        if not any(
            _divides(d + (1,), cand, p)
            for deg in range(1, f // 2 + 1)
            for d in product(range(p), repeat=deg)
        ):
            return cand
    raise AssertionError("unreachable: irreducibles of every degree exist")


def brute_degree(e, p):
    """m, the p-free part of e, and f, the least f with m | p^f - 1."""
    m = e
    while m % p == 0:
        m //= p
    f = 1
    while (p**f - 1) % m:
        f += 1
    return m, f


@lru_cache(maxsize=None)
def residue_roots(e, p):
    """GF(p^f), the residue field of every maximal ideal over p in Z[eps_e],
    as its defining polynomial, and every root of Phi_e in it, sorted.

    The first root is found by evaluating Phi_e at each element in turn; the
    others are its powers eta^j with gcd(j, m) = 1, the elements of order m.
    Sending eps to a root is reduction mod one maximal ideal over p, and the
    roots reach each of them.
    """
    m, f = brute_degree(e, p)
    poly = irreducible_polynomial(p, f)
    phi = cyclotomic_polynomial(e)
    eta = next(el for el in product(range(p), repeat=f) if not any(horner(phi, el, p, poly)))
    roots, power = set(), field_one(poly)
    for j in range(1, m + 1):
        power = field_mul(power, eta, p, poly)
        if gcd(j, m) == 1:
            roots.add(power)
    return poly, sorted(roots)


# -- a symmetric-group oracle: partitions, beta-sets and hooks -------------


def partitions(n, largest=None):
    """The partitions of n, parts descending, each a tuple."""
    largest = n if largest is None else largest
    if n == 0:
        return [()]
    return [
        (first, *rest)
        for first in range(min(n, largest), 0, -1)
        for rest in partitions(n - first, first)
    ]


def beta_set(partition):
    """The first-column hook lengths lambda_i + r - i, r the number of parts."""
    r = len(partition)
    return frozenset(part + r - 1 - i for i, part in enumerate(partition))


def from_beta_set(beta):
    """The partition of a beta-set, zero parts dropped."""
    r = len(beta)
    parts = (b - (r - 1 - i) for i, b in enumerate(sorted(beta, reverse=True)))
    return tuple(part for part in parts if part)


@lru_cache(maxsize=None)
def murnaghan_nakayama(beta, cycle_type):
    """chi^lambda at a permutation of the given cycle type, lambda given by beta.

    A rim hook of length m is a bead b of beta moved to the gap b - m; its
    sign is -1 to the number of beads strictly between the two.
    """
    if not cycle_type:
        return 1
    m, rest = cycle_type[0], cycle_type[1:]
    total = 0
    for b in beta:
        if b >= m and b - m not in beta:
            sign = (-1) ** sum(b - m < c < b for c in beta)
            total += sign * murnaghan_nakayama(beta - {b} | {b - m}, rest)
    return total


def z_mu(cycle_type):
    """The centralizer order prod_i i^(m_i) m_i! of a permutation of that cycle type."""
    out = 1
    for length in set(cycle_type):
        m = cycle_type.count(length)
        out *= length**m * factorial(m)
    return out


def hook_lengths(partition):
    conjugate = [sum(part > j for part in partition) for j in range(partition[0])]
    return [
        part - j + conjugate[j] - i - 1
        for i, part in enumerate(partition) for j in range(part)
    ]


def p_core(partition, p):
    """The partition left once every p-hook is removed: beads slid up p at a time."""
    beta = set(beta_set(partition))
    moved = True
    while moved:
        moved = False
        for b in sorted(beta):
            if b >= p and b - p not in beta:
                beta = beta - {b} | {b - p}
                moved = True
    return from_beta_set(beta)


def cycle_type(images):
    """Cycle lengths of a permutation given by its images, descending."""
    seen, lengths = set(), []
    for start in range(len(images)):
        length, x = 0, start
        while x not in seen:
            seen.add(x)
            x = images[x]
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


# -- PSL(2,q) by Jordan and Schur ------------------------------------------
#
# PSL(2,q), q an odd prime, acts on the projective line through x -> x + 1
# and x -> -1/x, the point x labelled x + 1 and infinity labelled q + 1
# (Dornhoff, Group Representation Theory A, section 38).

PSL2_PRIMES = (11, 13, 17, 19)


def psl2_spec(q):
    """The group spec record of PSL(2,q) on the q + 1 points of the line."""
    shift = "(" + " ".join(str(x + 1) for x in range(q)) + ")"
    pairs = [(0, q)] + [(x, -pow(x, -1, q) % q) for x in range(1, q)]
    flip = "".join(f"({x + 1} {y + 1})" for x, y in pairs if x < y)
    return {"name": f"PSL2_{q}", "degree": q + 1, "generators": [shift, flip]}


def psl2_order(q):
    return q * (q * q - 1) // 2


def psl2_degrees(q):
    """The sorted degrees: 1, q, two of (q +- 1)/2, and q + 1 and q - 1 each
    about q/4 times, which makes (q + 5)/2 of them."""
    if q % 4 == 1:
        half, plus, minus = (q + 1) // 2, (q - 5) // 4, (q - 1) // 4
    else:
        half, plus, minus = (q - 1) // 2, (q - 3) // 4, (q - 3) // 4
    return sorted([1, q, half, half] + [q + 1] * plus + [q - 1] * minus)
