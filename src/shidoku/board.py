"""Shidoku boards: a 4x4 grid whose rows, columns, and 2x2 blocks each
contain the values 1..4 exactly once.

Cells are indexed 1..16 in row-major order: cell i sits at
row = (i-1)//4 + 1, column = (i-1)%4 + 1.  All public constants and
serialized output use this 1-based convention.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from typing import Iterable

VALUES = (1, 2, 3, 4)
CELLS = tuple(range(1, 17))


def cell_at(row: int, col: int) -> int:
    return (row - 1) * 4 + col


def coords(cell: int) -> tuple[int, int]:
    return (cell - 1) // 4 + 1, (cell - 1) % 4 + 1


def block_of(cell: int) -> int:
    row, col = coords(cell)
    return ((row - 1) // 2) * 2 + (col - 1) // 2 + 1


ROWS = tuple(tuple(cell_at(r, c) for c in VALUES) for r in VALUES)
COLS = tuple(tuple(cell_at(r, c) for r in VALUES) for c in VALUES)
BLOCKS = tuple(
    tuple(cell for cell in CELLS if block_of(cell) == b) for b in VALUES
)
REGIONS = ROWS + COLS + BLOCKS

_REGIONS0 = tuple(tuple(cell - 1 for cell in region) for region in REGIONS)
_VALUE_SET = frozenset(VALUES)
_CELL_VALUES = _VALUE_SET | {0}


class Board(namedtuple("Board", "values")):
    """An assignment of values 0..4 (0 an empty cell) to the 16 cells, as
    a tuple of ints; other values, or other than a tuple, raise ValueError.

    Region-invalid assignments are representable; use validate()/is_valid()
    to check the region constraints.  An immutable tuple record (values,):
    ordering is lexicographic on the 16-tuple, which is the canonical
    ordering everywhere.
    """

    __slots__ = ()

    def __new__(cls, values: tuple[int, ...]) -> "Board":
        ints = type(values) is tuple and set(map(type, values)) == {int}
        if not ints or len(values) != 16 or not _CELL_VALUES.issuperset(values):
            raise ValueError(f"not 16 board values in 0..4: {values!r}")
        return tuple.__new__(cls, (values,))

    # _replace builds through _make: validate there too
    _make = classmethod(lambda cls, fields: cls(*fields))

    @classmethod
    def from_text(cls, text: str) -> "Board":
        """Parse the 16-digit row-major board string, e.g. '1234341221434321';
        ASCII digits only."""
        text = text.strip()
        if len(text) != 16 or not (text.isascii() and text.isdigit()):
            raise ValueError(f"board text must be 16 digits, got {text!r}")
        return cls(tuple(int(ch) for ch in text))

    @property
    def text(self) -> str:
        return "".join(str(v) for v in self.values)

    def cells_with(self, value: int) -> frozenset[int]:
        """Cells (1-based) holding the given value."""
        return frozenset(i + 1 for i, v in enumerate(self.values) if v == value)

    def is_valid(self) -> bool:
        return validate(self.values)

    def __str__(self) -> str:
        return self.text


def validate(values: Iterable[int]) -> bool:
    """True iff the 16 entries satisfy all 12 region constraints.

    Total: any input (wrong length, out-of-range entries) returns False.
    """
    vals = tuple(values)
    if len(vals) != 16:
        return False
    try:
        return all(
            {vals[i] for i in region} == _VALUE_SET for region in _REGIONS0
        )
    except TypeError:
        return False


@lru_cache(maxsize=1)
def enumerate_all() -> tuple[Board, ...]:
    """All 288 valid boards, in lexicographic order.

    Backtracking over cells in index order with per-region bitmasks; the
    ascending candidate order makes the output lexicographic.
    """
    boards: list[Board] = []
    vals = [0] * 16
    rows = [0] * 4
    cols = [0] * 4
    blocks = [0] * 4

    def fill(i: int) -> None:
        if i == 16:
            boards.append(Board(tuple(vals)))
            return
        r, c = i // 4, i % 4
        b = (i // 8) * 2 + c // 2
        for v in VALUES:
            bit = 1 << v
            if (rows[r] | cols[c] | blocks[b]) & bit:
                continue
            vals[i] = v
            rows[r] |= bit
            cols[c] |= bit
            blocks[b] |= bit
            fill(i + 1)
            rows[r] ^= bit
            cols[c] ^= bit
            blocks[b] ^= bit

    fill(0)
    return tuple(boards)


@lru_cache(maxsize=1)
def board_numbers() -> dict[tuple[int, ...], int]:
    """Each valid board's number, keyed by its values: its position in
    enumerate_all(), so numbers sort as the boards do."""
    return {b.values: k for k, b in enumerate(enumerate_all())}


def board_number(b: Board) -> int:
    """b's number in board_numbers(); ValueError unless b is a valid board."""
    if (k := board_numbers().get(b.values)) is None:
        raise ValueError(f"not a valid Shidoku board: {b.text}")
    return k


def count_with_ones_configuration(mask: Iterable[int]) -> int:
    """Number of valid boards whose cells holding 1 are exactly `mask`.

    Masks that are not a one-per-row/column/block transversal match no
    board, so the count is 0 for them.
    """
    target = frozenset(mask)
    return sum(1 for b in enumerate_all() if b.cells_with(1) == target)

