"""Permutation algebra for the two symmetry factors.

Position symmetries are permutations of the 16 cells; relabelings are
permutations of the 4 values.  Both are `Perm` instances, distinguished
only by degree.

Composition convention (fixed everywhere in this package): the right
factor acts first, (a * b)(i) = a(b(i)).  A `SymmetryElement` (pos, rel)
acts on a board by first moving cells with `pos`, then renaming values
with `rel`.  Orbit and Burnside results depend on this convention, so it
is restated on every operation that composes or applies symmetries.

`Perm` products are memoised in a bounded cache, and a `SymmetryElement`
product composes its two parts through `Perm.__mul__`, so each distinct
pair of factor permutations is composed once while the cache holds it.
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import lru_cache
from operator import itemgetter
from typing import Iterable

from .board import cell_at, coords

POSITION_DEGREE = 16
RELABEL_DEGREE = 4

#: The records' unchecked constructor, bound once so that products build
#: their records without a classmethod call per part.
_new = tuple.__new__


class Perm(namedtuple("Perm", "image")):
    """A bijection on {1..n}, stored as the image tuple: image[i-1] = p(i).
    The image must be a tuple of ints (not bools); anything else raises
    ValueError.

    An immutable tuple record (image,): hashing, equality and ordering
    are the tuple's, so ordering is lexicographic on the image, giving
    every finite set of permutations a canonical minimum.
    """

    __slots__ = ()

    def __new__(cls, image: tuple[int, ...]) -> "Perm":
        ints = type(image) is tuple and {int}.issuperset(map(type, image))
        if not ints or sorted(image) != list(range(1, len(image) + 1)):
            raise ValueError(f"not a bijection on 1..{len(image)}: {image!r}")
        return tuple.__new__(cls, (image,))

    # _replace builds through _make: validate there too
    _make = classmethod(lambda cls, fields: cls(*fields))

    @classmethod
    def _trusted(cls, image: tuple[int, ...]) -> "Perm":
        """Unchecked Perm, for products, inverses and images known to be bijections."""
        return tuple.__new__(cls, (image,))

    @classmethod
    def identity(cls, degree: int) -> "Perm":
        return cls(tuple(range(1, degree + 1)))

    @classmethod
    def from_cycles(cls, text: str, degree: int) -> "Perm":
        """Parse disjoint-cycle notation, e.g. '(2 5)(3 9)'.

        Unmentioned points are fixed; '' and '()' denote the identity.
        Raises ValueError on out-of-range or repeated elements, or on
        digits other than ASCII 0-9.
        """
        text = text.strip()
        if text and not re.fullmatch(r"(\s*\(\s*[0-9\s]*\)\s*)+", text):
            raise ValueError(f"malformed cycle notation: {text!r}")
        image = list(range(1, degree + 1))
        seen: set[int] = set()
        for cycle_body in re.findall(r"\(([^()]*)\)", text):
            elems = [int(tok) for tok in cycle_body.split()]
            for e in elems:
                if not 1 <= e <= degree:
                    raise ValueError(f"cycle element {e} out of range 1..{degree}")
                if e in seen:
                    raise ValueError(f"repeated element {e} in cycles {text!r}")
                seen.add(e)
            for a, b in zip(elems, elems[1:] + elems[:1]):
                image[a - 1] = b
        return cls(tuple(image))

    @property
    def degree(self) -> int:
        return len(self.image)

    @property
    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.image, start=1))

    def __call__(self, i: int) -> int:
        return self.image[i - 1]

    @lru_cache(maxsize=4096)
    def __mul__(self, other: "Perm") -> "Perm":
        """Compose, right factor first: (a * b)(i) = a(b(i)).  Memoised in a
        bounded cache that holds all of `verify`'s pairs; a degree mismatch
        raises ValueError on every call, as exceptions are not cached.

        Entry i of the image is image[other_image[i] - 1], gathered in C
        from a 1-based copy of image."""
        (image,), (other_image,) = self, other
        if len(image) != len(other_image):
            raise ValueError("cannot compose permutations of different degrees")
        if len(image) < 2:
            return self  # the identity, the only permutation of degree 0 or 1
        return _new(Perm, (itemgetter(*other_image)((0,) + image),))

    def inverse(self) -> "Perm":
        img = [0] * self.degree
        for i, j in enumerate(self.image, start=1):
            img[j - 1] = i
        return Perm._trusted(tuple(img))

    def order(self) -> int:
        k, p = 1, self
        while not p.is_identity:
            p = p * self
            k += 1
        return k

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Disjoint cycles of length >= 2, each starting at its smallest
        element, listed by smallest element."""
        out: list[tuple[int, ...]] = []
        seen: set[int] = set()
        for start in range(1, self.degree + 1):
            if start in seen or self(start) == start:
                continue
            cyc = [start]
            seen.add(start)
            nxt = self(start)
            while nxt != start:
                cyc.append(nxt)
                seen.add(nxt)
                nxt = self(nxt)
            out.append(tuple(cyc))
        return tuple(out)

    def cycle_notation(self) -> str:
        """Canonical cycle string; fixed points omitted, identity -> ''."""
        return "".join("(" + " ".join(map(str, cyc)) + ")" for cyc in self.cycles())

    def __str__(self) -> str:
        return self.cycle_notation() or "()"


def grid_perm(row_perm: Perm, col_perm: Perm) -> Perm:
    """Cell permutation sending (i, j) to (row_perm(i), col_perm(j)).

    Only band-preserving row and pillar-preserving column permutations
    yield valid position symmetries; this constructor does not check that.
    """
    if row_perm.degree != 4 or col_perm.degree != 4:
        raise ValueError("grid_perm wants degree-4 row and column permutations")
    return Perm(tuple(cell_at(row_perm(r), col_perm(c)) for r, c in map(coords, range(1, 17))))


@lru_cache(maxsize=1)
def gen_r() -> Perm:
    """Quarter-turn clockwise rotation: the value at (i, j) moves to (j, 5-i).

    Built geometrically from the coordinate map rather than a typed cycle
    list; tests pin it down via the r^4 = (tr)^2 = id relations.
    """
    return Perm(tuple(cell_at(c, 5 - r) for r, c in map(coords, range(1, 17))))


@lru_cache(maxsize=1)
def gen_s() -> Perm:
    """Swap of the third and fourth rows."""
    return grid_perm(Perm.from_cycles("(3 4)", 4), Perm.identity(4))


@lru_cache(maxsize=1)
def gen_t() -> Perm:
    """Transpose of the board: the value at (i, j) moves to (j, i)."""
    return Perm(tuple(cell_at(c, r) for r, c in map(coords, range(1, 17))))


@lru_cache(maxsize=1)
def gen_r2() -> Perm:
    """Half-turn rotation r*r."""
    return gen_r() * gen_r()


@lru_cache(maxsize=1)
def standard_position_generators() -> tuple[tuple[str, Perm], ...]:
    """The named position generators r, r2, s, t, in pool order."""
    return (("r", gen_r()), ("r2", gen_r2()), ("s", gen_s()), ("t", gen_t()))


def standard_name(p: Perm) -> str | None:
    """p's name among the standard position generators, if it has one."""
    return next((name for name, g in standard_position_generators() if g == p), None)


def perm_label(p: Perm) -> str:
    """Generator label: the standard name, else cycle notation, else 'id'."""
    return standard_name(p) or p.cycle_notation() or "id"


def relabeling(text: str) -> Perm:
    """Degree-4 permutation from cycle notation, e.g. '(1 2 3)'."""
    return Perm.from_cycles(text, RELABEL_DEGREE)


#: The overdetermined relabeling generator set used for graph edges.
RELABEL_GENERATOR_NAMES = ("(1 2)", "(2 3)", "(3 4)", "(1 4)")


class SymmetryElement(namedtuple("SymmetryElement", "pos rel")):
    """A combined symmetry (pos, rel) of a degree-16 and a degree-4 Perm:
    move cells by pos, then rename values by rel.  Composition is
    componentwise, right factor first, through the memoised
    `Perm.__mul__`.  An immutable tuple record, ordered as the tuple
    (pos, rel)."""

    __slots__ = ()

    def __new__(cls, pos: Perm, rel: Perm) -> "SymmetryElement":
        perms = isinstance(pos, Perm) and isinstance(rel, Perm)
        if not perms or pos.degree != POSITION_DEGREE or rel.degree != RELABEL_DEGREE:
            raise ValueError("symmetry element wants (degree-16, degree-4) parts")
        return tuple.__new__(cls, (pos, rel))

    _make = classmethod(lambda cls, fields: cls(*fields))

    @classmethod
    def _trusted(cls, pos: Perm, rel: Perm) -> "SymmetryElement":
        """Unchecked element, for products and inverses of valid ones."""
        return tuple.__new__(cls, (pos, rel))

    @classmethod
    def identity(cls) -> "SymmetryElement":
        return cls(Perm.identity(POSITION_DEGREE), Perm.identity(RELABEL_DEGREE))

    @classmethod
    def from_position(cls, pos: Perm) -> "SymmetryElement":
        return cls(pos, Perm.identity(RELABEL_DEGREE))

    @classmethod
    def from_relabeling(cls, rel: Perm) -> "SymmetryElement":
        return cls(Perm.identity(POSITION_DEGREE), rel)

    @property
    def is_identity(self) -> bool:
        return self.pos.is_identity and self.rel.is_identity

    def __mul__(self, other: "SymmetryElement") -> "SymmetryElement":
        (p, r), (q, s) = self, other
        return _new(SymmetryElement, (p * q, r * s))

    def inverse(self) -> "SymmetryElement":
        return SymmetryElement._trusted(self.pos.inverse(), self.rel.inverse())

    def __str__(self) -> str:
        return f"pos={self.pos.cycle_notation()}; rel={self.rel.cycle_notation()}"


@lru_cache(maxsize=128)
def _cells(pos: Perm) -> itemgetter:
    """The gather that moves 16 cell values by pos: place c - 1 of its
    result holds the value of cell pos^-1(c)."""
    return itemgetter(*(i - 1 for i in pos.inverse().image))


def apply_batch(e: SymmetryElement, batch: Iterable[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """e applied to each board's values in batch, in order.  The cell
    gather and the rename table are found once per call; each board then
    costs two C-level gathers, cells then names.

    Raises apply_values's ValueError at the first board in batch that
    has other than 16 values, or a value below 0 or above 4.
    """
    cells = _cells(e.pos)
    a, b, c, d = e.rel.image
    rename = {0: 0, 1: a, 2: b, 3: c, 4: d}
    out = []
    try:
        for values in batch:
            if len(values) != POSITION_DEGREE:
                raise ValueError(f"not {POSITION_DEGREE} board values: {len(values)}")
            out.append(itemgetter(*cells(values))(rename))
    except KeyError as exc:
        raise ValueError(f"board value {exc.args[0]} out of range 0..4") from None
    return out


def apply_values(e: SymmetryElement, values: tuple[int, ...]) -> tuple[int, ...]:
    """The value in cell i lands in cell e.pos(i), renamed by e.rel:
    apply_batch on one board.

    Raises ValueError unless there are exactly 16 values, or on a value
    below 0 or above 4; a 0 value is moved but not renamed.
    """
    return apply_batch(e, (values,))[0]
