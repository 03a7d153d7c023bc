"""Exact irreducible character tables.

Tables are computed with the Dixon-Schneider method: the class-sum
multiplication matrices are diagonalized simultaneously over a prime field
GF(q) with q = 1 (mod e), whose elements are plain ints in [0, q); the mod-q
character values are read off the one-dimensional common eigenspaces, and
each value is lifted back to a cyclotomic integer in Z[eps_e] by a discrete
Fourier sum over the powers of its class.
Everything is deterministic: eigenvalues are scanned in ascending order and
rows are sorted (trivial character first, then by degree and coefficient
order), so recomputing with a different admissible prime yields a literally
equal table.

Tables can also be saved to and loaded from JSON files; loading re-verifies
every invariant, so externally produced tables are usable with the verifiers
without trusting their source.
"""

from __future__ import annotations

import json
from math import gcd, lcm

from .arith import is_prime, primitive_root
from .classfuncs import ClassFunction, _scaled_inner
from .cyclo import Cyclotomic
from .errors import (
    EigensplitError,
    FormatError,
    NonIntegralValueError,
    TableIntegrityError,
)
from .groups import ClassData, ConjugacyData, Group, class_matrix


class CharacterTable:
    """Irreducible characters, one class function over `data` per row.

    Immutable.  Two tables are equal when their group name, class data and
    rows are; `provenance` (where the table came from) is not compared.
    """

    __slots__ = ("group_name", "data", "rows", "provenance")

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
        return hash((self.group_name, self.data, self.rows))

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(row.degree for row in self.rows)

    def __repr__(self):
        return (
            f"CharacterTable({self.group_name!r}, order={self.data.order}, "
            f"degrees={self.degrees})"
        )


def dixon_prime(e: int, order: int, above: int = 0) -> int:
    """Smallest prime q = 1 (mod e) with q > 2*sqrt(order), q not dividing order.

    With `above`, the smallest such prime strictly larger than it (used to
    recompute a table with the next admissible prime).
    """
    if e < 1 or order < 1:
        raise ValueError("order and exponent must be positive")
    q = 1
    while q * q <= 4 * order or q <= above or q <= 2:
        q += e
    while True:
        if is_prime(q) and order % q:
            return q
        q += e


# -- linear algebra over GF(q) ------------------------------------------
# GF(q) values are plain ints in [0, q); every function reduces with % q.


def _rref(rows: list[list[int]], q: int):
    """Reduced row echelon form over GF(q); returns (rows, pivot columns)."""
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], -1, q)
        rows[r] = [x * inv % q for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % q for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def _nullspace(matrix: list[list[int]], q: int):
    """Basis of the right null space, in RREF by construction."""
    n = len(matrix)
    rref, pivots = _rref(matrix, q)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * n
        vec[fc] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = -rref[r][fc] % q
        basis.append(vec)
    return basis


def _coords_in_basis(basis, pivots, vec, q: int):
    """Coordinates of vec in an RREF basis of a subspace containing it."""
    coords = [vec[c] for c in pivots]
    residue = list(vec)
    for coef, bvec in zip(coords, basis):
        if coef:
            residue = [(x - coef * y) % q for x, y in zip(residue, bvec)]
    if any(residue):
        raise TableIntegrityError("vector left the invariant subspace (internal bug)")
    return coords


def _split_subspace(matrix, basis, pivots, q: int):
    """Split an invariant subspace into eigenspaces of the matrix, ascending eigenvalue."""
    d = len(basis)
    # the matrix of the action restricted to the subspace, in basis coordinates
    action_cols = []
    for bvec in basis:
        image = [
            sum(row[c] * bvec[c] for c in range(len(bvec)) if bvec[c]) % q
            for row in matrix
        ]
        action_cols.append(_coords_in_basis(basis, pivots, image, q))
    out = []
    found = 0
    for lam in range(q):
        shifted = [
            [(action_cols[j][i] - (lam if i == j else 0)) % q for j in range(d)]
            for i in range(d)
        ]
        kernel = _nullspace(shifted, q)
        if not kernel:
            continue
        ambient = []
        for kv in kernel:
            vec = [0] * len(basis[0])
            for coef, bvec in zip(kv, basis):
                if coef:
                    vec = [(x + coef * y) % q for x, y in zip(vec, bvec)]
            ambient.append(vec)
        out.append(_rref(ambient, q))
        found += len(kernel)
        if found == d:
            break
    if found != d:
        raise TableIntegrityError("class matrix not diagonalizable (internal bug)")
    return out


def _common_eigenvectors(matrices, k: int, q: int):
    """Common eigenvectors of the commuting class matrices.

    With q = 1 (mod e) and q not dividing |G| the class algebra over GF(q) is
    split semisimple, so once every class matrix has been applied each common
    eigenspace is one-dimensional (Dixon 1967; Schneider 1990).
    """
    spaces = [_rref([[int(i == j) for j in range(k)] for i in range(k)], q)]
    for matrix in matrices:
        spaces = _apply_split(matrix, spaces, q)
        if all(len(basis) == 1 for basis, _ in spaces):
            break
    return [basis[0] for basis, _ in spaces]


def _apply_split(matrix, spaces, q: int):
    out = []
    for basis, pivots in spaces:
        if len(basis) == 1:
            out.append((basis, pivots))
        else:
            out.extend(_split_subspace(matrix, basis, pivots, q))
    return out


# -- the table computation ----------------------------------------------


def compute_table(group: Group, cd: ConjugacyData, prime: int | None = None) -> CharacterTable:
    """Exact character table of an enumerated group.

    The class-sum matrices over GF(q) are split into common one-dimensional
    eigenspaces; each eigenvector, scaled to 1 at the identity class, carries
    the central character values w_i = |K_i| chi(g_i) / chi(1) mod q.  The
    degree is recovered from the orthogonality relation
    chi(1)^2 * sum_i w_i w_{i*} / |K_i| = |G| (the square root is the
    representative below q/2, valid because chi(1) <= sqrt(|G|) < q/2),
    and each value is lifted to a cyclotomic integer through the counts of
    eigenvalue multiplicities m_t = (1/o) sum_{s<o} chi(g^s) z^(-t s e/o)
    mod q, o the order of g, as chi(g) = sum_t m_t eps^(t e/o).
    A caller-supplied `prime` must be admissible in the sense of
    `dixon_prime`; otherwise ValueError.
    """
    data = cd.data
    k = cd.k
    e = group.exponent
    if prime is None:
        q = dixon_prime(e, group.order)
    elif (
        is_prime(prime)
        and (prime - 1) % e == 0
        and group.order % prime
        and prime * prime > 4 * group.order
    ):
        q = prime
    else:
        raise ValueError(
            f"{prime} is not an admissible Dixon prime for order {group.order} "
            f"and exponent {e}"
        )
    matrices = [
        [[a % q for a in row] for row in class_matrix(cd, i)] for i in range(1, k)
    ]
    eigvecs = _common_eigenvectors(matrices, k, q)
    if len(eigvecs) != k:
        raise EigensplitError(f"expected {k} eigenvectors, found {len(eigvecs)}")

    size_inv = [pow(s, -1, q) for s in data.sizes]
    z = pow(primitive_root(q), (q - 1) // e, q)
    z_inv_pows = [pow(z, -t, q) for t in range(e)]

    rows = []
    for vec in eigvecs:
        if not vec[0]:
            raise TableIntegrityError("eigenvector vanishes at the identity class")
        scale = pow(vec[0], -1, q)
        omega = [v * scale % q for v in vec]
        norm = sum(omega[i] * omega[data.inverse_class[i]] * size_inv[i] for i in range(k))
        degree = _sqrt_below_half(group.order * pow(norm, -1, q) % q, q)
        theta = [degree * omega[i] * size_inv[i] % q for i in range(k)]
        values = []
        for j in range(k):
            # theta(g^s) has period o, so only the powers eps^(t e/o) occur:
            # a length-o transform with root z^(e/o) finds their counts
            o = data.rep_orders[j]
            step = e // o
            o_inv = pow(o, -1, q)
            theta_pow = [theta[data.power_map[j][s]] for s in range(o)]
            poly = [0] * e
            for t in range(o):
                poly[t * step] = o_inv * sum(
                    theta_pow[s] * z_inv_pows[t * s * step % e] for s in range(o)
                ) % q
            values.append(Cyclotomic.from_poly(e, poly))
        row = ClassFunction(tuple(values), data)
        if row.degree != degree:
            raise TableIntegrityError("lifted degree disagrees with mod-q degree")
        rows.append(row)

    table = CharacterTable(
        group_name=group.name,
        data=data,
        rows=tuple(_sort_rows(rows)),
        provenance=f"computed (dixon prime {q})",
    )
    validate_table(table)
    return table


def _sqrt_below_half(x: int, q: int) -> int:
    for r in range(1, (q + 1) // 2):
        if r * r % q == x:
            return r
    raise TableIntegrityError(f"{x} has no square root below {q}/2")


def _sort_rows(rows):
    """Trivial character first, then by (degree, coefficient order)."""
    trivial = [r for r in rows if r.degree == 1 and all(v == 1 for v in r.values)]
    if len(trivial) != 1:
        raise TableIntegrityError(f"expected one trivial character, found {len(trivial)}")
    rest = [r for r in rows if r is not trivial[0]]
    rest.sort(key=lambda r: (r.degree, [v.coeffs for v in r.values]))
    return trivial + rest


# -- validation ----------------------------------------------------------


def verify_orthogonality(table: CharacterTable) -> list[dict]:
    """Exact row orthogonality; returns violations (empty on success).

    For rows a <= b the |G|-scaled inner product sum_i |K_i| chi_a(g_i)
    conj(chi_b(g_i)) must equal |G| when a == b and 0 otherwise; a violation's
    "value" is that scaled sum.  For a square table X with D = diag(|K_i|),
    X D X* = |G| I gives X* X = |G| D^-1, so the column relations hold as soon
    as the row relations do and are not checked separately.
    """
    violations = []
    rows = table.rows
    order = table.data.order
    for a in range(len(rows)):
        for b in range(a, len(rows)):
            total = _scaled_inner(rows[a], rows[b])
            if total != (order if a == b else 0):
                violations.append(
                    {"kind": "row", "first": a, "second": b, "value": str(total)}
                )
    return violations


def validate_table(table: CharacterTable) -> None:
    """Raise TableIntegrityError unless every table invariant holds exactly."""
    data = table.data
    k = data.k
    if len(table.rows) != k:
        raise TableIntegrityError(f"{len(table.rows)} rows for {k} classes")
    if sum(data.sizes) != data.order:
        raise TableIntegrityError("class sizes do not sum to the group order")
    if any(s < 1 or data.order % s for s in data.sizes):
        raise TableIntegrityError("class sizes must be positive divisors of the group order")
    _validate_power_map(data)
    units = [s for s in range(2, data.exponent) if gcd(s, data.exponent) == 1]
    first = table.rows[0]
    if not all(v == 1 for v in first.values):
        raise TableIntegrityError("row 0 is not the trivial character")
    for idx, row in enumerate(table.rows):
        if row.degree < 1 or data.order % row.degree:
            raise TableIntegrityError(
                f"row {idx} has degree {row.degree}, not a positive divisor of the order"
            )
        for i, value in enumerate(row.values):
            if value.e != data.exponent:
                raise TableIntegrityError(f"row {idx} value {i} has the wrong order")
            # chi(g^s) = sigma_s(chi(g)); s = -1 is the inverse class, which the
            # power map has already tied to inverse_class
            for s in units:
                if row.values[data.power_class(i, s)] != value.galois(s):
                    raise TableIntegrityError(
                        f"row {idx}: value at class {i} to the power {s} is not "
                        f"its Galois image"
                    )
    if sum(d * d for d in table.degrees) != data.order:
        raise TableIntegrityError("sum of squared degrees differs from the group order")
    violations = verify_orthogonality(table)
    if violations:
        raise TableIntegrityError(f"orthogonality violated: {violations[:3]}")


def _validate_power_map(data: ClassData) -> None:
    """Row i of the power map runs identity, class i, ..., inverse class, and
    first returns to the identity at rep_orders[i]; their lcm is the exponent.

    Row i must also repeat with period o = rep_orders[i] (g^(s+o) = g^s) and
    compose: (g^s)^p ~ g^(sp) for every s < o and every prime p < e, which by
    the periodicity covers every s.  With the t = 0, 1 entries this gives
    (g^s)^t ~ g^(st) for all t, by induction on the prime factors of t.
    """
    e = data.exponent
    for i in range(data.k):
        if data.power_class(i, 0) != 0 or data.power_class(i, 1) != i:
            raise TableIntegrityError(
                f"power map of class {i} does not start with the identity and class {i}"
            )
        if data.power_class(i, -1) != data.inverse_class[i]:
            raise TableIntegrityError(
                f"power map of class {i} does not end at its inverse class"
            )
        first = next(t for t in range(1, e + 1) if data.power_class(i, t) == 0)
        if data.rep_orders[i] != first:
            raise TableIntegrityError(
                f"class {i} has rep order {data.rep_orders[i]}, but its power map "
                f"first reaches the identity at {first}"
            )
        row = data.power_map[i]
        if row[first:] != row[: e - first]:
            raise TableIntegrityError(
                f"power map of class {i} does not repeat with period {first}"
            )
    if e != lcm(*data.rep_orders):
        raise TableIntegrityError("the exponent is not the lcm of the rep orders")
    for p in range(2, e):
        if not is_prime(p):
            continue
        to_the_p = [row[p] for row in data.power_map]  # class c -> class of rep(c)^p
        for i, (row, o) in enumerate(zip(data.power_map, data.rep_orders)):
            if any(to_the_p[row[s]] != row[s * p % o] for s in range(o)):
                raise TableIntegrityError(
                    f"power map of class {i} does not compose: some (g^s)^{p} is "
                    f"not in the class of g^({p}s)"
                )


# -- file format ----------------------------------------------------------


def table_to_dict(table: CharacterTable) -> dict:
    data = table.data
    return {
        "group": table.group_name,
        "order": data.order,
        "exponent": data.exponent,
        "class_sizes": list(data.sizes),
        "rep_orders": list(data.rep_orders),
        "inverse_class": list(data.inverse_class),
        "power_map": [list(row) for row in data.power_map],
        "rows": [[v.to_dict() for v in row.values] for row in table.rows],
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
    order = data["order"]
    exponent = data["exponent"]
    sizes = data["class_sizes"]
    if type(order) is not int or order < 1:
        raise FormatError(f"bad order {order!r}")
    if type(exponent) is not int or exponent < 1:
        raise FormatError(f"bad exponent {exponent!r}")
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
        len(row) != k for row in raw_rows
    ):
        raise FormatError(f"rows must be a {k} x {k} matrix of cyclotomic records")
    class_data = ClassData(
        order=order,
        exponent=exponent,
        sizes=tuple(sizes),
        rep_orders=tuple(data["rep_orders"]),
        inverse_class=tuple(data["inverse_class"]),
        power_map=tuple(tuple(row) for row in pm),
    )
    rows = tuple(
        ClassFunction(
            tuple(_value_from_dict(rec, exponent, r, i) for i, rec in enumerate(row)),
            class_data,
        )
        for r, row in enumerate(raw_rows)
    )
    table = CharacterTable(
        group_name=data["group"], data=class_data, rows=rows, provenance=provenance
    )
    validate_table(table)
    return table


def _value_from_dict(rec, exponent: int, r: int, i: int) -> Cyclotomic:
    try:
        return Cyclotomic.from_dict(rec, expect_e=exponent)
    except NonIntegralValueError as exc:
        raise TableIntegrityError(f"row {r} value {i} is not an algebraic integer") from exc


def load_table(path) -> CharacterTable:
    """Read and fully re-verify a table file."""
    import hashlib  # only table files need it; saves its import on other runs

    with open(path, "rb") as fh:
        raw = fh.read()
    digest = hashlib.sha256(raw).hexdigest()
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise FormatError(f"table file is not valid JSON: {exc}") from exc
    return table_from_dict(data, provenance=f"file sha256:{digest[:16]}")
