"""The Dixon-Schneider split: computing a character table from its group.

The class-sum multiplication matrices are diagonalized simultaneously over a
prime field GF(q) with q = 1 (mod e), whose elements are plain ints in
[0, q); the mod-q character values are read off the one-dimensional common
eigenspaces, and each value is lifted back to a cyclotomic integer in
Z[eps_e] by a discrete Fourier sum over the powers of its class.
Each split reads the action restricted to a subspace at the pivot rows of
its basis, since the class matrices commute and every subspace is invariant
(see `_split_subspace`); it finds the eigenvalues as the GF(q) roots of the
characteristic polynomial of that action and computes one null space per
root.  The class matrices are used as built: each dot product reduces mod q.
Everything is deterministic: the roots are taken in ascending order and rows
are sorted (trivial character first, then by degree and coefficient order),
so recomputing with a different admissible prime yields literally equal
rows.

`_build_table` returns the rows alone.  `tables.compute_table` picks and
checks the prime, wraps the rows in a table and validates it; it imports this
module on its first call, so a job that only loads a table file never
compiles it.
"""

from __future__ import annotations

from .arith import primitive_root
from .classfuncs import ClassFunction
from .cyclo import Cyclotomic
from .errors import TableIntegrityError
from .groups import ConjugacyData, class_matrix


# -- linear algebra over GF(q) ------------------------------------------
# GF(q) values are plain ints in [0, q); every function reduces with % q.
# A subspace is (basis, pivots): vector j is 1 at pivots[j], 0 at the other pivots.


def _rref(rows: list[list[int]], q: int):
    """Reduced row echelon form over GF(q); returns (rows, pivot columns)."""
    rows = [list(r) for r in rows]
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
    """(basis, free columns) of the right null space, the basis reduced at
    the free columns but not RREF: [[1, 1]] gives ([[q - 1, 1]], [1])."""
    n = len(matrix[0])
    rref, pivots = _rref(matrix, q)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * n
        vec[fc] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = -rref[r][fc] % q
        basis.append(vec)
    return basis, free


def _charpoly(action: list[list[int]], q: int) -> list[int]:
    """Characteristic polynomial det(x I - A) over GF(q), low degree first.

    A is brought to upper Hessenberg form H by similarity, then the leading
    principal minors satisfy p_m = (x - h_mm) p_(m-1)
    - sum_(i<m) h_im (h_(i+1,i) ... h_(m,m-1)) p_(i-1)
    (Cohen, A Course in Computational Algebraic Number Theory, Alg. 2.2.9).
    """
    h = [list(row) for row in action]
    n = len(h)
    for m in range(1, n - 1):
        pivot = next((i for i in range(m, n) if h[i][m - 1]), None)
        if pivot is None:
            continue
        if pivot != m:
            h[pivot], h[m] = h[m], h[pivot]
            for row in h:
                row[pivot], row[m] = row[m], row[pivot]
        inv = pow(h[m][m - 1], -1, q)
        for i in range(m + 1, n):
            u = h[i][m - 1] * inv % q
            if u:
                # row i -= u * row m, then column m += u * column i: a similarity
                h[i] = [(a - u * b) % q for a, b in zip(h[i], h[m])]
                for row in h:
                    row[m] = (row[m] + u * row[i]) % q
    polys = [[1]]
    for m in range(n):
        # (x - h_mm) p_(m-1), then the subdiagonal products down column m
        prev = polys[m]
        nxt = [0] + prev
        for t, c in enumerate(prev):
            nxt[t] = (nxt[t] - h[m][m] * c) % q
        sub = 1
        for i in range(m - 1, -1, -1):
            sub = sub * h[i + 1][i] % q
            f = sub * h[i][m] % q
            for t, c in enumerate(polys[i]):
                nxt[t] = (nxt[t] - f * c) % q
        polys.append(nxt)
    return polys[n]


def _roots(poly: list[int], q: int) -> list[int]:
    """Roots in GF(q) of a polynomial (low degree first), ascending, by Horner."""
    roots = []
    for lam in range(q):
        value = 0
        for c in reversed(poly):
            value = (value * lam + c) % q
        if not value:
            roots.append(lam)
    return roots


def _split_subspace(matrix, basis, pivots, q: int):
    """Split an invariant subspace into eigenspaces of the matrix, ascending eigenvalue.

    The restricted action is read at the pivots alone.  Basis vector j is 1
    at pivots[j] and 0 at the other pivots, so a vector of the span has its
    coordinates at the pivots; M b lies in the span because the space is an
    intersection of eigenspaces of class matrices, and M commutes with each
    of them (the class algebra is commutative).  So coordinate a of M b_j is
    (M b_j)[pivots[a]], and only the pivot rows of M are read.  Only a
    corrupted class matrix fails to commute; catching one is left to the
    eigenvector count, the diagonalizability guard and `validate_table`.

    The eigenvalues are the GF(q) roots of the characteristic polynomial of
    the restricted action, so one null space is computed per eigenvalue.  A
    kernel reduced at its free columns c maps to a space reduced at pivots[c].
    """
    d = len(basis)
    support = [[(c, x) for c, x in enumerate(bvec) if x] for bvec in basis]
    action = [
        [sum(row[c] * x for c, x in vec) % q for vec in support]
        for row in (matrix[p] for p in pivots)
    ]
    out = []
    found = 0
    for lam in _roots(_charpoly(action, q), q):
        shifted = [
            [(a - (lam if i == j else 0)) % q for j, a in enumerate(row)]
            for i, row in enumerate(action)
        ]
        kernel, free = _nullspace(shifted, q)
        ambient = []
        for kv in kernel:
            vec = [0] * len(basis[0])
            for coef, bvec in zip(kv, basis):
                if coef:
                    vec = [(x + coef * y) % q for x, y in zip(vec, bvec)]
            ambient.append(vec)
        out.append((ambient, [pivots[c] for c in free]))
        found += len(kernel)
    if found != d:
        raise TableIntegrityError("class matrix not diagonalizable (internal bug)")
    return out


def _common_eigenvectors(matrices, k: int, q: int):
    """Common eigenvectors of the commuting class matrices.

    With q = 1 (mod e) and q not dividing |G| the class algebra over GF(q) is
    split semisimple, so once every class matrix has been applied each common
    eigenspace is one-dimensional (Dixon 1967; Schneider 1990).
    """
    spaces = [([[int(i == j) for j in range(k)] for i in range(k)], list(range(k)))]
    for matrix in matrices:
        split = []
        for basis, pivots in spaces:
            if len(basis) == 1:
                split.append((basis, pivots))
            else:
                split.extend(_split_subspace(matrix, basis, pivots, q))
        spaces = split
        if all(len(basis) == 1 for basis, _ in spaces):
            break
    return [basis[0] for basis, _ in spaces]


# -- the table computation ----------------------------------------------


def _build_table(cd: ConjugacyData, q: int) -> tuple[ClassFunction, ...]:
    """Rows of the table of `cd.group` as the split at the admissible prime q
    gives them, in `_sort_rows` order, not validated.

    The class-sum matrices over GF(q) are split into common one-dimensional
    eigenspaces; each eigenvector, scaled to 1 at the identity class, carries
    the central character values w_i = |K_i| chi(g_i) / chi(1) mod q.  The
    degree is recovered from the orthogonality relation
    chi(1)^2 * sum_i w_i w_{i*} / |K_i| = |G| (the square root is the
    representative below q/2, valid because chi(1) <= sqrt(|G|) < q/2),
    and each value is lifted to a cyclotomic integer through the counts of
    eigenvalue multiplicities m_t = (1/o) sum_{s<o} chi(g^s) z^(-t s e/o)
    mod q, o the order of g, as chi(g) = sum_t m_t eps^(t e/o).
    """
    data = cd.data
    k, e, order = cd.k, data.exponent, data.order
    # lazily: the split stops at the first matrix that leaves every space 1-d
    matrices = (class_matrix(cd, i) for i in range(1, k))
    eigvecs = _common_eigenvectors(matrices, k, q)
    if len(eigvecs) != k:
        raise TableIntegrityError(f"expected {k} eigenvectors, found {len(eigvecs)}")

    size_inv = [pow(s, -1, q) for s in data.sizes]
    inverse = data.inverse_class
    z = pow(primitive_root(q), (q - 1) // e, q)
    z_inv_pows = [pow(z, -t, q) for t in range(e)]

    rows = []
    for vec in eigvecs:
        if not vec[0]:
            raise TableIntegrityError("eigenvector vanishes at the identity class")
        scale = pow(vec[0], -1, q)
        omega = [v * scale % q for v in vec]
        norm = sum(omega[i] * omega[inverse[i]] * size_inv[i] for i in range(k))
        degree = _sqrt_below_half(order * pow(norm, -1, q) % q, q)
        theta = [degree * omega[i] * size_inv[i] % q for i in range(k)]
        values = []
        for walk in data.power_map:
            # theta(g^s) has period o, so only the powers eps^(t e/o) occur:
            # a length-o transform with root z^(e/o) finds their counts
            o = len(walk)
            step = e // o
            o_inv = pow(o, -1, q)
            theta_pow = [theta[c] for c in walk]
            poly = [0] * e
            for t in range(o):
                poly[t * step] = o_inv * sum(
                    theta_pow[s] * z_inv_pows[t * s * step % e] for s in range(o)
                ) % q
            values.append(Cyclotomic(e, poly))
        rows.append(ClassFunction(tuple(values)))
    return tuple(_sort_rows(rows))


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
