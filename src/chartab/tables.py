"""Exact irreducible character tables.

Tables are computed with the Dixon-Schneider method: the class-sum
multiplication matrices are diagonalized simultaneously over a prime field
GF(q) with q = 1 (mod e), whose elements are plain ints in [0, q); the mod-q
character values are read off the one-dimensional common eigenspaces, and
each value is lifted back to a cyclotomic integer in Q(eps_e) by a discrete
Fourier sum over the power map.
Everything is deterministic: eigenvalues are scanned in ascending order and
rows are sorted (trivial character first, then by degree and coefficient
order), so recomputing with a different admissible prime yields a literally
equal table.

Tables can also be saved to and loaded from JSON files; loading re-verifies
every invariant, so externally produced tables are usable with the verifiers
without trusting their source.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .arith import is_prime, primitive_root
from .classfuncs import ClassFunction
from .cyclo import Cyclotomic
from .errors import EigensplitError, FormatError, TableIntegrityError
from .groups import ClassData, ConjugacyData, Group, class_matrix


@dataclass(frozen=True)
class CharacterTable:
    """Irreducible characters, one class function over `data` per row."""

    group_name: str
    data: ClassData
    rows: tuple[ClassFunction, ...]
    provenance: str = field(default="", compare=False)

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
    eigenvalue multiplicities m_t = (1/e) sum_s chi(g^s) z^(-t s) mod q.
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
    e_inv = pow(e, -1, q)

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
            theta_pow = [theta[data.power_map[j][s]] for s in range(e)]
            counts = [
                e_inv * sum(theta_pow[s] * z_inv_pows[t * s % e] for s in range(e)) % q
                for t in range(e)
            ]
            values.append(Cyclotomic.from_poly(e, counts))
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
    """Exact row and column orthogonality; returns violations (empty on success)."""
    violations = []
    data = table.data
    k = data.k
    order = data.order
    sizes = data.sizes
    conj = [[v.conjugate() for v in row.values] for row in table.rows]
    for a in range(k):
        for b in range(a, k):
            total = Cyclotomic.zero(data.exponent)
            for i in range(k):
                total = total + sizes[i] * (table.rows[a].values[i] * conj[b][i])
            total = total * Fraction(1, order)
            expected = 1 if a == b else 0
            if total != expected:
                violations.append(
                    {"kind": "row", "first": a, "second": b, "value": str(total)}
                )
    for i in range(k):
        for j in range(i, k):
            total = Cyclotomic.zero(data.exponent)
            for row, row_conj in zip(table.rows, conj):
                total = total + row.values[i] * row_conj[j]
            expected = order // sizes[i] if i == j else 0
            if total != expected:
                violations.append(
                    {"kind": "column", "first": i, "second": j, "value": str(total)}
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
    if any(data.order % s for s in data.sizes):
        raise TableIntegrityError("class sizes must divide the group order")
    _validate_power_map(data)
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
            if not value.is_integral():
                raise TableIntegrityError(
                    f"row {idx} value {i} is not an algebraic integer"
                )
            if row.values[data.inverse_class[i]] != value.conjugate():
                raise TableIntegrityError(
                    f"row {idx}: value at the inverse of class {i} is not the conjugate"
                )
    if sum(d * d for d in table.degrees) != data.order:
        raise TableIntegrityError("sum of squared degrees differs from the group order")
    violations = verify_orthogonality(table)
    if violations:
        raise TableIntegrityError(f"orthogonality violated: {violations[:3]}")


def _validate_power_map(data: ClassData) -> None:
    """Row i of the power map runs identity, class i, ..., inverse class, and
    first returns to the identity at rep_orders[i]; their lcm is the exponent.
    """
    for i in range(data.k):
        if data.power_class(i, 0) != 0 or data.power_class(i, 1) != i:
            raise TableIntegrityError(
                f"power map of class {i} does not start with the identity and class {i}"
            )
        if data.power_class(i, -1) != data.inverse_class[i]:
            raise TableIntegrityError(
                f"power map of class {i} does not end at its inverse class"
            )
        first = next(t for t in range(1, data.exponent + 1) if data.power_class(i, t) == 0)
        if data.rep_orders[i] != first:
            raise TableIntegrityError(
                f"class {i} has rep order {data.rep_orders[i]}, but its power map "
                f"first reaches the identity at {first}"
            )
    if data.exponent != lcm(*data.rep_orders):
        raise TableIntegrityError("the exponent is not the lcm of the rep orders")


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
    if not isinstance(order, int) or order < 1:
        raise FormatError(f"bad order {order!r}")
    if not isinstance(exponent, int) or exponent < 1:
        raise FormatError(f"bad exponent {exponent!r}")
    k = len(sizes)
    for name in ("class_sizes", "rep_orders", "inverse_class"):
        seq = data[name]
        if not isinstance(seq, list) or len(seq) != k or not all(
            isinstance(x, int) for x in seq
        ):
            raise FormatError(f"{name} must be a list of {k} integers")
    if any(not 0 <= c < k for c in data["inverse_class"]):
        raise FormatError("inverse_class entries out of range")
    pm = data["power_map"]
    if (
        not isinstance(pm, list)
        or len(pm) != k
        or any(len(row) != exponent for row in pm)
        or any(not 0 <= c < k for row in pm for c in row)
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
            tuple(Cyclotomic.from_dict(rec, expect_e=exponent) for rec in row), class_data
        )
        for row in raw_rows
    )
    table = CharacterTable(
        group_name=data["group"], data=class_data, rows=rows, provenance=provenance
    )
    validate_table(table)
    return table


def load_table(path) -> CharacterTable:
    """Read and fully re-verify a table file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    digest = hashlib.sha256(raw).hexdigest()
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise FormatError(f"table file is not valid JSON: {exc}") from exc
    return table_from_dict(data, provenance=f"file sha256:{digest[:16]}")
