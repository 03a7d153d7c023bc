"""Groups of permutations: enumeration, conjugacy structure, the class algebra.

A group element is a plain tuple of images: points 1..d are stored as
0..d-1, and g[x] is the image of x.  A product applies its left factor first.
Groups are given by generators in cycle notation and enumerated by
breadth-first closure, which fixes a deterministic element ordering (identity
first); inverses are looked up once in `Group.inverse_index`.  A conjugacy
class is the orbit of an element under conjugation by the generators, found
breadth-first in |G| * |gens| conjugations.  Classes are ordered by (size,
smallest member), so the identity class is always class 0 and two runs over
the same spec produce identical orderings.  A `Group` holds only its elements,
their index and their inverses; the class facts live in `ClassData`, which
stores one walk 1, x, x^2, ... over the powers of each representative x and
reads its class's order, inverse class and power map off it.  Commutator
counts come from the structure constants of the class sums, in k * |G|
products, not |G|^2 pairs.
"""

from __future__ import annotations

import json
import os
import re
from collections import namedtuple
from math import lcm
from operator import itemgetter

from .errors import CapExceededError, CycleSyntaxError, FormatError, UnknownGroupError

DEFAULT_ELEMENT_CAP = 2000
# Largest degree a group spec may give.  Every element is a tuple of `degree`
# images, so the element cap alone does not bound the work; 10^4 points still
# admits the regular representation of any group under 10^4 elements.
MAX_DEGREE = 10_000


def _compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The product a * b: apply a first, then b."""
    if len(a) > 1:
        return itemgetter(*a)(b)
    return tuple(b[x] for x in a)  # itemgetter of one index returns the bare item


def _cycles(g: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Nontrivial cycles of g on 1-based points, each from its smallest point."""
    seen = [False] * len(g)
    out = []
    for start in range(len(g)):
        if seen[start] or g[start] == start:
            continue
        cyc = []
        x = start
        while not seen[x]:
            seen[x] = True
            cyc.append(x + 1)
            x = g[x]
        out.append(tuple(cyc))
    return out


def cycle_string(images: tuple[int, ...]) -> str:
    """Cycle notation of an image tuple, "()" for the identity."""
    cycs = _cycles(images)
    if not cycs:
        return "()"
    return "".join("(" + " ".join(str(p) for p in c) + ")" for c in cycs)


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, degree: int) -> tuple[int, ...]:
    """Parse whitespace-separated disjoint cycles like "(1 2 3)(4 5)".

    "()" is the identity.  Points are 1-based and must not repeat.
    """
    if degree < 1:
        raise ValueError(f"degree must be positive, got {degree}")
    stripped = re.sub(r"\s", "", text)
    if not stripped:
        raise CycleSyntaxError("empty cycle expression")
    consumed = _CYCLE_RE.sub("", stripped)
    if consumed:
        raise CycleSyntaxError(f"malformed cycle notation: {text!r}")
    images = list(range(degree))
    seen: set[int] = set()
    for body in _CYCLE_RE.findall(text):
        points = body.split()
        if not points:
            continue  # "()" inside the expression
        try:
            pts = [int(tok) for tok in points]
        except ValueError as exc:
            raise CycleSyntaxError(f"non-integer point in {text!r}") from exc
        for pt in pts:
            if pt < 1 or pt > degree:
                raise CycleSyntaxError(f"point {pt} out of range 1..{degree}")
            if pt in seen:
                raise CycleSyntaxError(f"repeated point {pt} in {text!r}")
            seen.add(pt)
        if len(pts) < 2:
            continue  # fixed point, e.g. "(3)"
        for a, b in zip(pts, pts[1:] + pts[:1]):
            images[a - 1] = b - 1
    return tuple(images)


class GroupSpec(namedtuple("GroupSpec", "name degree generators")):
    """Generator description of a permutation group.

    `name` is a str, `degree` the int number of points and `generators` a
    tuple of cycle strings.
    """

    __slots__ = ()

    @classmethod
    def from_dict(cls, data: dict) -> "GroupSpec":
        try:
            name = data["name"]
            degree = data["degree"]
            generators = data["generators"]
        except (TypeError, KeyError) as exc:
            raise FormatError(f"group spec needs name/degree/generators: {data!r}") from exc
        if not isinstance(name, str) or type(degree) is not int or degree < 1:
            raise FormatError(f"bad group spec fields: {data!r}")
        if degree > MAX_DEGREE:
            raise FormatError(f"degree {degree} is above the limit of {MAX_DEGREE} points")
        if not isinstance(generators, list) or not all(isinstance(g, str) for g in generators):
            raise FormatError(f"generators must be a list of cycle strings: {data!r}")
        return cls(name=name, degree=degree, generators=tuple(generators))


class Group:
    """Fully enumerated permutation group with a fixed element ordering.

    `generators` must generate the group; conjugacy classes are their orbits.
    `index` maps each element to its position in `elements`.
    """

    def __init__(
        self,
        name: str,
        elements: list[tuple[int, ...]],
        generators: tuple[tuple[int, ...], ...],
        index: dict[tuple[int, ...], int],
    ):
        self.name = name
        self.elements = tuple(elements)
        self.generators = generators
        self.index = index
        self.order = len(self.elements)
        # g^-1 sends g[x] back to x, so each inverse pair is looked up once
        inverse_index = [-1] * self.order
        inv = [0] * len(self.elements[0])
        for i, g in enumerate(self.elements):
            if inverse_index[i] < 0:
                for x, y in enumerate(g):
                    inv[y] = x
                j = self.index[tuple(inv)]
                inverse_index[i], inverse_index[j] = j, i
        self.inverse_index = tuple(inverse_index)

    def __repr__(self):
        return f"Group({self.name!r}, order={self.order})"


def check_cap(cap: int) -> None:
    """Raise ValueError unless the element cap is at least 1."""
    if cap < 1:
        raise ValueError(f"cap must be at least 1, got {cap}")


def enumerate_group(spec: GroupSpec, cap: int = DEFAULT_ELEMENT_CAP) -> Group:
    """Breadth-first closure of the generators, sorted generator application."""
    check_cap(cap)
    gens = tuple(sorted({parse_cycles(text, spec.degree) for text in spec.generators}))
    ident = tuple(range(spec.degree))
    elements = [ident]
    index = {ident: 0}
    pos = 0
    while pos < len(elements):
        g = elements[pos]
        pos += 1
        for s in gens:
            h = _compose(g, s)
            if h not in index:
                if len(elements) >= cap:
                    raise CapExceededError(
                        f"group {spec.name!r} exceeds the element cap {cap}"
                    )
                index[h] = len(elements)
                elements.append(h)
    return Group(spec.name, elements, gens, index)


class ClassData(namedtuple("ClassData", "order sizes power_map")):
    """The class-level facts shared by class functions and character tables.

    `order` is the group order, `sizes` a tuple of class sizes and
    `power_map[i]` the walk of class i: the classes of g^0, g^1, ...,
    g^(o-1) for g in class i, o its order.  Each walk is the one record of
    its class's order (its length), its inverse class (its last entry) and
    its power map; the exponent is the lcm of the orders.  For a group the
    walks come from `ConjugacyData`; a table file carries them written out
    to the exponent, and `load_table` checks them.
    """

    __slots__ = ()

    @property
    def k(self) -> int:
        return len(self.sizes)

    @property
    def rep_orders(self) -> tuple[int, ...]:
        return tuple(map(len, self.power_map))

    @property
    def inverse_class(self) -> tuple[int, ...]:
        return tuple(row[-1] for row in self.power_map)

    @property
    def exponent(self) -> int:
        return lcm(*map(len, self.power_map))

    @property
    def centralizer_orders(self) -> tuple[int, ...]:
        return tuple(self.order // s for s in self.sizes)

    @property
    def real_flags(self) -> tuple[bool, ...]:
        return tuple(row[-1] == i for i, row in enumerate(self.power_map))

    def power_class(self, i: int, t: int) -> int:
        """Class of rep(i)^t; t is taken mod the order of rep(i)."""
        row = self.power_map[i]
        return row[t % len(row)]


class ConjugacyData:
    """Conjugacy classes of an enumerated group, ordered by (size, first member).

    `data` holds one walk per representative x: the classes of 1, x, x^2,
    ... up to the return to 1, which give the order of x, its inverse class
    (the last step) and its power map.  The walks take as many products as
    the orders sum to.
    Also holds each class matrix `class_matrix` has built for it.
    """

    def __init__(self, group: Group):
        n = group.order
        elements, index = group.elements, group.index
        # x^s = s^-1 * x * s, applied left factor first
        gens = [(s, elements[group.inverse_index[index[s]]]) for s in group.generators]
        class_of = [-1] * n
        members: list[tuple[int, ...]] = []
        for start in range(n):
            if class_of[start] >= 0:
                continue
            # the class of x is its orbit under conjugation by the generators;
            # the loop visits the members it appends
            c = len(members)
            class_of[start] = c
            orbit = [start]
            for idx in orbit:
                x = elements[idx]
                for s, s_inv in gens:
                    y = index[_compose(_compose(s_inv, x), s)]
                    if class_of[y] < 0:
                        class_of[y] = c
                        orbit.append(y)
            members.append(tuple(sorted(orbit)))
        # canonical class order: by size, then by smallest member
        perm = sorted(range(len(members)), key=lambda c: (len(members[c]), members[c][0]))
        members = [members[c] for c in perm]
        relabel = {old: new for new, old in enumerate(perm)}
        class_of = [relabel[c] for c in class_of]

        self.group = group
        self.class_of = tuple(class_of)
        self.members = tuple(members)
        self.representatives = tuple(m[0] for m in members)
        self.k = len(members)
        self._class_matrices: list[tuple[tuple[int, ...], ...] | None] = [None] * self.k
        # row[t] is the class of x^t, t below the order of x
        walks = []
        for rep in self.representatives:
            x = cur = elements[rep]
            row = [0]
            while cur != elements[0]:
                row.append(class_of[index[cur]])
                cur = _compose(cur, x)
            walks.append(tuple(row))
        self.data = ClassData(
            order=n, sizes=tuple(len(m) for m in members), power_map=tuple(walks)
        )

    def __repr__(self):
        return f"ConjugacyData({self.group.name!r}, sizes={self.data.sizes})"


def conjugacy_data(group: Group) -> ConjugacyData:
    return ConjugacyData(group)


def class_matrix(cd: ConjugacyData, i: int) -> tuple[tuple[int, ...], ...]:
    """Multiplication-by-class-sum matrix of class i.

    Entry [j][l] counts the pairs (x, y) in K_i x K_j with x*y = rep(l), so
    row j holds the structure constants of K_i K_j, one per class l.  Each
    matrix is built on its first request and kept in `cd`.
    """
    matrix = cd._class_matrices[i]
    if matrix is None:
        matrix = cd._class_matrices[i] = _build_class_matrix(cd, i)
    return matrix


def _build_class_matrix(cd: ConjugacyData, i: int) -> tuple[tuple[int, ...], ...]:
    group = cd.group
    rows = [[0] * cd.k for _ in range(cd.k)]
    for l, rep in enumerate(cd.representatives):
        g_l = group.elements[rep]
        for x_idx in cd.members[i]:
            y = _compose(group.elements[group.inverse_index[x_idx]], g_l)
            rows[cd.class_of[group.index[y]]][l] += 1
    return tuple(map(tuple, rows))


def commutator_counts(cd: ConjugacyData, length: int) -> tuple[tuple[int, ...], ...]:
    """Products of commutators per class, counted in the class algebra.

    Returns (N_1, ..., N_length), where N_n[l] counts the 2n-tuples
    (a_1, b_1, ..., a_n, b_n) with [a_1, b_1] ... [a_n, b_n] = rep(l) and
    [a, b] = a^-1 b^-1 a b.

    With a_ij^l = class_matrix(cd, i)[j][l]: [a, b] = a^-1 a^b, and for a in
    class K each y in K is a^b for c_K = |C_G(a)| elements b, so
    N_1[l] = sum_K c_K a_{K-bar,K}^l, K-bar the inverse class.  N_n is a
    class function, so regrouping by the first n commutators gives
    N_(n+1)[l] = sum_(i,j) N_n[i] N_1[j] a_ij^l.
    """
    if length < 1:
        raise ValueError(f"length must be at least 1, got {length}")
    k, inverse = cd.k, cd.data.inverse_class
    a = [class_matrix(cd, i) for i in range(k)]  # a[i][j][l] = a_ij^l
    once = tuple(
        sum(c * a[inverse[K]][K][l] for K, c in enumerate(cd.data.centralizer_orders))
        for l in range(k)
    )
    counts = [once]
    while len(counts) < length:
        # the nonzero N_n[i] N_1[j], each with its row of a_ij^l
        terms = [(x * y, a[i][j]) for i, x in enumerate(counts[-1]) if x
                 for j, y in enumerate(once) if y]
        counts.append(tuple(sum(w * row[l] for w, row in terms) for l in range(k)))
    return tuple(counts)


def load_catalog() -> dict[str, GroupSpec]:
    """The bundled group catalog, in file order."""
    path = os.path.join(os.path.dirname(__file__), "data", "catalog.json")
    return parse_catalog(__loader__.get_data(path))


def _read_json(raw: str | bytes, what: str):
    """The value the JSON text raw holds, else FormatError "<what> is not valid
    JSON": ValueError covers bad syntax, bytes that are not UTF-8 and an int
    past CPython's 4300-digit limit, RecursionError a value nested too deeply."""
    try:
        return json.loads(raw)
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{what} is not valid JSON: {exc}") from exc


def parse_catalog(text: str | bytes) -> dict[str, GroupSpec]:
    raw = _read_json(text, "catalog")
    if not isinstance(raw, list):
        raise FormatError("catalog must be a JSON list of group specs")
    out: dict[str, GroupSpec] = {}
    for entry in raw:
        spec = GroupSpec.from_dict(entry)
        if spec.name in out:
            raise FormatError(f"duplicate group name {spec.name!r} in catalog")
        out[spec.name] = spec
    return out


def load_group_spec(path) -> GroupSpec:
    """Read a single group spec from a JSON file."""
    with open(path, "rb") as fh:
        return GroupSpec.from_dict(_read_json(fh.read(), "group spec file"))


def catalog_group(name: str, cap: int = DEFAULT_ELEMENT_CAP) -> Group:
    specs = load_catalog()
    if name not in specs:
        raise UnknownGroupError(name)
    return enumerate_group(specs[name], cap=cap)
