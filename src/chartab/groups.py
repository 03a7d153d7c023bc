"""Groups of permutations: enumeration, conjugacy structure, commutator counting.

A group element is a plain tuple of images: points 1..d are stored as
0..d-1, and g[x] is the image of x.  A product applies its left factor first.
Groups are given by generators in cycle notation and enumerated by
breadth-first closure, which fixes a deterministic element ordering (identity
first); inverses are looked up once in `Group.inverse_index`.  A conjugacy
class is the orbit of an element under conjugation by the generators, found
breadth-first in |G| * |gens| conjugations.  Classes are ordered by (size,
smallest member), so the identity class is always class 0 and two runs over
the same spec produce identical orderings.
"""

from __future__ import annotations

import json
import re
from importlib import resources
from math import lcm
from typing import NamedTuple

from .errors import CapExceededError, CycleSyntaxError, FormatError, UnknownGroupError

DEFAULT_ELEMENT_CAP = 2000

_COMMUTATOR_CAPS = {1: 24, 2: 12}


def _compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The product a * b: apply a first, then b."""
    return tuple(b[x] for x in a)


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


class GroupSpec(NamedTuple):
    """Generator description of a permutation group."""

    name: str
    degree: int
    generators: tuple[str, ...]

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
        if not isinstance(generators, list) or not all(isinstance(g, str) for g in generators):
            raise FormatError(f"generators must be a list of cycle strings: {data!r}")
        return cls(name=name, degree=degree, generators=tuple(generators))

    def to_dict(self) -> dict:
        return {"name": self.name, "degree": self.degree, "generators": list(self.generators)}


class Group:
    """Fully enumerated permutation group with a fixed element ordering.

    `generators` must generate the group; conjugacy classes are their orbits.
    """

    def __init__(
        self,
        name: str,
        elements: list[tuple[int, ...]],
        generators: tuple[tuple[int, ...], ...],
    ):
        self.name = name
        self.elements = tuple(elements)
        self.generators = generators
        self.index = {g: i for i, g in enumerate(self.elements)}
        self.order = len(self.elements)
        self.element_orders = tuple(
            lcm(*(len(c) for c in _cycles(g))) for g in self.elements
        )
        self.exponent = lcm(*self.element_orders)
        # g^-1 sends g[x] back to x: the points listed in the order of their images
        self.inverse_index = tuple(
            self.index[tuple(sorted(range(len(g)), key=g.__getitem__))]
            for g in self.elements
        )

    def mul(self, i: int, j: int) -> int:
        return self.index[_compose(self.elements[i], self.elements[j])]

    def __len__(self):
        return self.order

    def __repr__(self):
        return f"Group({self.name!r}, order={self.order})"


def enumerate_group(spec: GroupSpec, cap: int = DEFAULT_ELEMENT_CAP) -> Group:
    """Breadth-first closure of the generators, sorted generator application."""
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
    return Group(spec.name, elements, gens)


class ClassData(NamedTuple):
    """The class-level facts shared by class functions and character tables."""

    order: int
    exponent: int
    sizes: tuple[int, ...]
    rep_orders: tuple[int, ...]
    inverse_class: tuple[int, ...]
    power_map: tuple[tuple[int, ...], ...]  # power_map[i][t]: class of rep(i)^t

    @property
    def k(self) -> int:
        return len(self.sizes)

    @property
    def centralizer_orders(self) -> tuple[int, ...]:
        return tuple(self.order // s for s in self.sizes)

    @property
    def real_flags(self) -> tuple[bool, ...]:
        return tuple(self.inverse_class[i] == i for i in range(self.k))

    def power_class(self, i: int, t: int) -> int:
        """Class of rep(i)^t; t is taken mod the exponent."""
        return self.power_map[i][t % self.exponent]


class ConjugacyData:
    """Conjugacy classes of an enumerated group, ordered by (size, first member)."""

    def __init__(self, group: Group):
        n = group.order
        elements, index = group.elements, group.index
        # x^s = s^-1 * x * s sends s[j] to s[x[j]]
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
                    y = index[tuple(s[x[j]] for j in s_inv)]
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
        power_map = []
        for rep in self.representatives:
            x = elements[rep]
            cur = elements[0]
            row = []
            for _ in range(group.exponent):
                row.append(self.class_of[index[cur]])
                cur = _compose(cur, x)
            power_map.append(tuple(row))
        self.data = ClassData(
            order=group.order,
            exponent=group.exponent,
            sizes=tuple(len(m) for m in members),
            rep_orders=tuple(group.element_orders[rep] for rep in self.representatives),
            inverse_class=tuple(
                self.class_of[group.inverse_index[rep]] for rep in self.representatives
            ),
            power_map=tuple(power_map),
        )

    def __repr__(self):
        return f"ConjugacyData({self.group.name!r}, sizes={self.data.sizes})"


def conjugacy_data(group: Group) -> ConjugacyData:
    return ConjugacyData(group)


def real_classes(data: ClassData) -> list[int]:
    """Indices of classes equal to their inverse class."""
    return [i for i, flag in enumerate(data.real_flags) if flag]


def class_matrix(cd: ConjugacyData, i: int) -> list[list[int]]:
    """Multiplication-by-class-sum matrix of class i.

    Entry [j][l] counts the pairs (x, y) in K_i x K_j with x*y = rep(l), so
    row j holds the structure constants of K_i K_j, one per class l.
    """
    group = cd.group
    rows = [[0] * cd.k for _ in range(cd.k)]
    for l, rep in enumerate(cd.representatives):
        g_l = group.elements[rep]
        for x_idx in cd.members[i]:
            y = _compose(group.elements[group.inverse_index[x_idx]], g_l)
            rows[cd.class_of[group.index[y]]][l] += 1
    return rows


def count_commutator_solutions(group: Group, target: tuple[int, ...], n: int) -> int:
    """Number of 2n-tuples whose commutator product equals target, by brute force."""
    if n not in _COMMUTATOR_CAPS:
        raise ValueError(f"n must be 1 or 2, got {n}")
    cap = _COMMUTATOR_CAPS[n]
    if group.order > cap:
        raise CapExceededError(
            f"brute-force commutator count limited to order {cap} for n={n}"
        )
    if target not in group.index:
        raise ValueError("target is not an element of the group")
    size = group.order
    mul = [[group.mul(i, j) for j in range(size)] for i in range(size)]
    inv = group.inverse_index
    comm = [
        [mul[mul[inv[a]][inv[b]]][mul[a][b]] for b in range(size)]
        for a in range(size)
    ]
    t_idx = group.index[target]
    if n == 1:
        return sum(row.count(t_idx) for row in comm)
    count = 0
    for a1 in range(size):
        row1 = comm[a1]
        for b1 in range(size):
            c1 = row1[b1]
            for a2 in range(size):
                row2 = comm[a2]
                for b2 in range(size):
                    if mul[c1][row2[b2]] == t_idx:
                        count += 1
    return count


def load_catalog() -> dict[str, GroupSpec]:
    """The bundled group catalog, in file order."""
    text = resources.files("chartab").joinpath("data/catalog.json").read_text()
    return parse_catalog(text)


def parse_catalog(text: str) -> dict[str, GroupSpec]:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"catalog is not valid JSON: {exc}") from exc
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
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"group spec file is not valid JSON: {exc}") from exc
    return GroupSpec.from_dict(data)


def catalog_group(name: str, cap: int = DEFAULT_ELEMENT_CAP) -> Group:
    specs = load_catalog()
    if name not in specs:
        raise UnknownGroupError(name)
    return enumerate_group(specs[name], cap=cap)
