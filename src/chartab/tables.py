"""Exact irreducible character tables: the table type, validation, files.

`compute_table` picks the Dixon prime, takes the rows from the
Dixon-Schneider split of `chartab.dixon`, imported on its first call, and
validates the table; `load_table` reads a saved table and re-verifies every
invariant, so externally produced tables are usable with the verifiers
without trusting their source.  A job that only loads a table file never
compiles the split.  This module alone reads and writes table files, their
value records {"e", "num", "den"} included.
"""

from __future__ import annotations

import json
from functools import lru_cache
from math import gcd

from .arith import euler_phi, is_prime, prime_factors
from .classfuncs import ClassFunction
from .cyclo import Cyclotomic, conj_weighted_sum
from .errors import FormatError, TableIntegrityError
from .groups import ClassData, ConjugacyData, _read_json


class CharacterTable:
    """Irreducible characters, one class function over `data` per row.

    Immutable.  Two tables are equal when their group name, class data and
    rows are; `provenance` (where the table came from) is not compared.  The
    hash, which reads every value, is computed on the first `hash()` and
    kept: the multiplicity and central-character caches are keyed by tables.
    """

    __slots__ = ("group_name", "data", "rows", "provenance", "_hash")

    def __init__(
        self, group_name: str, data: ClassData, rows: tuple[ClassFunction, ...],
        provenance: str = "",
    ):
        object.__setattr__(self, "group_name", group_name)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "provenance", provenance)

    def __setattr__(self, name, value):
        raise AttributeError(f"CharacterTable is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"CharacterTable is immutable; cannot delete {name!r}")

    def __eq__(self, other):
        if not isinstance(other, CharacterTable):
            return NotImplemented
        return (self.group_name, self.data, self.rows) == (
            other.group_name, other.data, other.rows
        )

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash((self.group_name, self.data, self.rows))
            object.__setattr__(self, "_hash", h)
            return h

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(row.degree for row in self.rows)

    def __repr__(self):
        return (
            f"CharacterTable({self.group_name!r}, order={self.data.order}, "
            f"degrees={self.degrees})"
        )


def dixon_prime(e: int, order: int, above: int = 0) -> int:
    """Smallest admissible prime: q = 1 (mod e), q > 2*sqrt(order), q not dividing order.

    With `above`, the smallest such prime strictly larger than it (used to
    recompute a table with the next admissible prime).
    """
    if e < 1 or order < 1:
        raise ValueError("order and exponent must be positive")
    q = 1  # stepping by e from 1 keeps q = 1 (mod e)
    while q <= above or not (is_prime(q) and order % q and q * q > 4 * order):
        q += e
    return q


# -- the table computation ----------------------------------------------


def compute_table(cd: ConjugacyData) -> CharacterTable:
    """Exact character table of the group `cd` holds the classes of, validated.

    The rows come from `dixon._build_table` at the least admissible Dixon
    prime (see `dixon_prime`), and the table is checked by `validate_table`.
    """
    from .dixon import _build_table  # only computing a table needs the split

    data = cd.data
    prime = dixon_prime(data.exponent, data.order)
    table = CharacterTable(
        cd.group.name, data, _build_table(cd, prime), f"computed (dixon prime {prime})"
    )
    validate_table(table)
    return table


# -- validation ----------------------------------------------------------


def verify_orthogonality(table: CharacterTable) -> list[dict]:
    """Exact row orthogonality; returns violations (empty on success).

    For rows a <= b the |G|-scaled inner product sum_i |K_i| chi_a(g_i)
    conj(chi_b(g_i)) must equal |G| when a == b and 0 otherwise; a violation's
    "value" is that scaled sum.  For a square table X with D = diag(|K_i|),
    X D X* = |G| I gives X* X = |G| D^-1, so the column relations hold as soon
    as the row relations do and are not checked separately.  Every row must
    hold one value per class, as `validate_table` checks first.
    """
    violations = []
    rows = table.rows
    data = table.data
    for a in range(len(rows)):
        for b in range(a, len(rows)):
            total = conj_weighted_sum(data.exponent, data.sizes, rows[a].values, rows[b].values)
            if total != (data.order if a == b else 0):
                violations.append(
                    {"kind": "row", "first": a, "second": b, "value": str(total)}
                )
    return violations


@lru_cache(maxsize=128)
def _unit_generators(e: int) -> tuple[int, ...]:
    """A generating set of the units mod e, chosen greedily in ascending order.

    Each unit not yet reached is taken, and the subgroup reached is closed
    under it: the cosets H, Hs, Hs^2, ... up to the first power of s in H.
    Empty for e <= 2, where 1 is the only unit.
    """
    phi = euler_phi(e)
    reached = {1}
    gens = []
    for s in range(2, e):
        if len(reached) == phi:
            break
        if s in reached or gcd(s, e) != 1:
            continue
        gens.append(s)
        grown = set(reached)
        x = s
        while x not in reached:
            grown |= {h * x % e for h in reached}
            x = x * s % e
        reached = grown
    return tuple(gens)


def validate_table(table: CharacterTable) -> None:
    """Raise TableIntegrityError unless every table invariant holds exactly.

    One row per class and values in Z[eps_e] are the caller's to check, as
    `table_from_dict` and `dixon._build_table` do.  That every row holds one
    value per class is checked first, then the other checks linear in k, and
    orthogonality last.

    The power map P composes, P(P(i, s), t) = P(i, st), and the Galois
    action chi(g^s) = sigma_s(chi(g)) holds, for every s once they hold for
    s among the primes dividing e and the unit generators, where they are
    checked.  Products of these are all of Z/e: s = d u mod e, with
    d = gcd(s, e) and u a unit lifting s/d mod e/d.  If s and s' pass at
    every class, so does ss', since
    P(P(i, ss'), t) = P(P(P(i, s), s'), t) = P(P(i, s), s't) = P(i, ss't)
    and chi(g^(ss')) = chi((g^s)^s') = sigma_s'(sigma_s(chi(g))).  At a
    class of order o, g^s has order o / gcd(s, o), and both sides repeat
    with that period in t: so the walk of P(i, s), whose length is that
    order, must equal P(i, st) for t below o / gcd(s, o).
    """
    data = table.data
    for idx, row in enumerate(table.rows):
        if len(row.values) != data.k:
            raise TableIntegrityError(
                f"row {idx} has {len(row.values)} values for {data.k} classes"
            )
    if sum(data.sizes) != data.order:
        raise TableIntegrityError("class sizes do not sum to the group order")
    if any(s < 1 or data.order % s for s in data.sizes):
        raise TableIntegrityError("class sizes must be positive divisors of the group order")
    if not all(v == 1 for v in table.rows[0].values):
        raise TableIntegrityError("row 0 is not the trivial character")
    for idx, row in enumerate(table.rows):
        if not row.values[0].is_rational() or row.degree < 1 or data.order % row.degree:
            raise TableIntegrityError(
                f"row {idx} has degree {row.values[0]}, not a positive divisor of the order"
            )
    if sum(d * d for d in table.degrees) != data.order:
        raise TableIntegrityError("sum of squared degrees differs from the group order")
    _validate_power_map(data)
    units = _unit_generators(data.exponent)
    for idx, row in enumerate(table.rows):
        for i, value in enumerate(row.values):
            for s in units:
                if row.values[data.power_class(i, s)] != value.galois(s):
                    raise TableIntegrityError(
                        f"row {idx}: value at class {i} to the power {s} is not "
                        f"its Galois image"
                    )
    violations = verify_orthogonality(table)
    if violations:
        raise TableIntegrityError(f"orthogonality violated: {violations[:3]}")


def _validate_power_map(data: ClassData) -> None:
    """Walk i starts with the identity and class i and does not return to the
    identity, so its length is the order of class i, which must divide the
    group order.  The walks compose, checked as `validate_table` says.  The
    inverse classes and the exponent are read off the walks, so they cannot
    disagree with them.
    """
    for i, row in enumerate(data.power_map):
        if row[0] != 0 or data.power_class(i, 1) != i:
            raise TableIntegrityError(
                f"power map of class {i} does not start with the identity and class {i}"
            )
        if 0 in row[1:]:
            raise TableIntegrityError(
                f"power map of class {i} reaches the identity before its rep order {len(row)}"
            )
        if data.order % len(row):
            raise TableIntegrityError(
                f"class {i} has rep order {len(row)}, which does not divide the "
                f"group order {data.order}"
            )
    e = data.exponent
    for s in (*prime_factors(e), *_unit_generators(e)):
        for i, row in enumerate(data.power_map):
            o = len(row)
            # the walk of g^s against g^(st) over its one period
            if data.power_map[row[s % o]] != tuple(row[s * t % o] for t in range(o // gcd(s, o))):
                raise TableIntegrityError(
                    f"power map of class {i} does not compose: some (g^{s})^t is "
                    f"not in the class of g^({s}t)"
                )


# -- file format ----------------------------------------------------------


def table_to_dict(table: CharacterTable) -> dict:
    """The file record: each walk is written out to the exponent, beside the
    rep orders, inverse classes and exponent read off the walks, and each
    value is written as its phi(e) coefficients over denominators of 1."""
    data = table.data
    e = data.exponent
    return {
        "group": table.group_name,
        "order": data.order,
        "exponent": e,
        "class_sizes": list(data.sizes),
        "rep_orders": list(data.rep_orders),
        "inverse_class": list(data.inverse_class),
        "power_map": [list(row) * (e // len(row)) for row in data.power_map],
        "rows": [
            [{"e": v.e, "num": list(v.coeffs), "den": [1] * len(v.coeffs)} for v in row.values]
            for row in table.rows
        ],
    }


def save_table(table: CharacterTable, path) -> None:
    with open(path, "w") as fh:
        json.dump(table_to_dict(table), fh, indent=1)
        fh.write("\n")


def table_from_dict(data: dict, provenance: str = "dict") -> CharacterTable:
    required = (
        "group", "order", "exponent", "class_sizes", "rep_orders",
        "inverse_class", "power_map", "rows",
    )
    if not isinstance(data, dict) or any(key not in data for key in required):
        raise FormatError(f"table record must carry the keys {required}")
    group_name = data["group"]
    order = data["order"]
    exponent = data["exponent"]
    sizes = data["class_sizes"]
    if not isinstance(group_name, str):
        raise FormatError(f"bad group name {group_name!r}")
    if type(order) is not int or order < 1:
        raise FormatError(f"bad order {order!r}")
    if type(exponent) is not int or exponent < 1:
        raise FormatError(f"bad exponent {exponent!r}")
    if not isinstance(sizes, list):
        raise FormatError("class_sizes must be a list of integers")
    k = len(sizes)
    for name in ("class_sizes", "rep_orders", "inverse_class"):
        seq = data[name]
        if not isinstance(seq, list) or len(seq) != k or not all(
            type(x) is int for x in seq
        ):
            raise FormatError(f"{name} must be a list of {k} integers")
    if any(not 0 <= c < k for c in data["inverse_class"]):
        raise FormatError("inverse_class entries out of range")
    pm = data["power_map"]
    if (
        not isinstance(pm, list)
        or len(pm) != k
        or any(not isinstance(row, list) or len(row) != exponent for row in pm)
        or any(type(c) is not int or not 0 <= c < k for row in pm for c in row)
    ):
        raise FormatError(f"power_map must be {k} rows of {exponent} class indices")
    raw_rows = data["rows"]
    if not isinstance(raw_rows, list) or len(raw_rows) != k or any(
        not isinstance(row, list) or len(row) != k for row in raw_rows
    ):
        raise FormatError(f"rows must be a {k} x {k} matrix of cyclotomic records")
    # each row is its class's walk repeated out to the exponent: cut it to one period
    walks = []
    for i, (row, o, inverse) in enumerate(zip(pm, data["rep_orders"], data["inverse_class"])):
        if o < 1 or exponent % o:
            raise TableIntegrityError(
                f"class {i} has rep order {o}, not a positive divisor of the exponent {exponent}"
            )
        if row[o:] != row[:-o]:
            raise TableIntegrityError(f"power map of class {i} does not repeat with period {o}")
        if row[o - 1] != inverse:
            raise TableIntegrityError(f"power map of class {i} does not end at its inverse class")
        walks.append(tuple(row[:o]))
    class_data = ClassData(order=order, sizes=tuple(sizes), power_map=tuple(walks))
    if class_data.exponent != exponent:
        raise TableIntegrityError("the exponent is not the lcm of the rep orders")
    rows = tuple(
        ClassFunction(tuple(_value_from_dict(rec, exponent, r, i) for i, rec in enumerate(row)))
        for r, row in enumerate(raw_rows)
    )
    table = CharacterTable(
        group_name=group_name, data=class_data, rows=rows, provenance=provenance
    )
    validate_table(table)
    return table


def _value_from_dict(rec, e: int, r: int, i: int) -> Cyclotomic:
    """The value in row r, class i: a record in canonical form (order e, phi(e)
    coefficients in lowest terms), else a FormatError; den other than 1 is
    not in Z[eps_e], so a TableIntegrityError."""
    try:
        order, num, den = rec["e"], rec["num"], rec["den"]
    except (TypeError, KeyError) as exc:
        raise FormatError(f"bad cyclotomic record: {rec!r}") from exc
    if type(order) is not int or order < 1:
        raise FormatError(f"bad cyclotomic order: {order!r}")
    if order != e:
        raise FormatError(f"cyclotomic order {order} where {e} is required")
    d = euler_phi(e)
    if not isinstance(num, list) or not isinstance(den, list) or not len(num) == len(den) == d:
        raise FormatError(f"order {e} needs {d} numerators and denominators")
    for n, m in zip(num, den):
        if type(n) is not int or type(m) is not int or m < 1:
            raise FormatError(f"bad coefficient {n}/{m}")
        if m != 1 and gcd(n, m) != 1:
            raise FormatError(f"coefficient {n}/{m} is not in lowest terms")
    if any(m != 1 for m in den):
        raise TableIntegrityError(f"row {r} value {i} is not an algebraic integer")
    return Cyclotomic(e, num)


def load_table(path) -> CharacterTable:
    """Read and fully re-verify a table file."""
    # only table files need a digest; hashlib would also load OpenSSL
    try:
        from _sha256 import sha256
    except ImportError:
        try:
            from _sha2 import sha256  # its name from CPython 3.12
        except ImportError:
            from hashlib import sha256

    with open(path, "rb") as fh:
        raw = fh.read()
    digest = sha256(raw).hexdigest()
    return table_from_dict(_read_json(raw, "table file"), provenance=f"file sha256:{digest[:16]}")
