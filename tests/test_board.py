from itertools import combinations

import pytest

from shidoku.board import (
    BLOCKS,
    Board,
    COLS,
    REGIONS,
    ROWS,
    count_with_ones_configuration,
    enumerate_all,
    validate,
)
from shidoku.perm import Perm, SymmetryElement, gen_t
from helpers import (
    TYPE1_TEXT,
    TYPE2_TEXT,
    oracle,
)


def test_region_layout():
    assert len(REGIONS) == 12
    assert ROWS[0] == (1, 2, 3, 4)
    assert COLS[0] == (1, 5, 9, 13)
    assert BLOCKS == ((1, 2, 5, 6), (3, 4, 7, 8), (9, 10, 13, 14), (11, 12, 15, 16))


def test_validate_known_boards():
    assert validate(Board.from_text(TYPE1_TEXT).values)
    assert validate(Board.from_text("1234341241232341").values)  # nest representative A
    assert not validate((1,) * 16)


@pytest.mark.parametrize(
    "values",
    [
        (),
        (1, 2, 3),
        (1, 2, 3, 4) * 3,
        (0,) + (1, 2, 3, 4) * 3 + (1, 2, 3),
        (5,) * 16,
        ("x",) * 16,
    ],
)
def test_validate_is_total(values):
    assert validate(values) is False


def test_enumerate_sorted_unique_valid():
    boards = enumerate_all()
    assert list(boards) == sorted(boards)
    assert len(set(boards)) == len(boards)
    assert all(b.is_valid() for b in boards)


def test_enumerate_first_board_is_lexicographic_minimum():
    assert enumerate_all()[0].text == TYPE1_TEXT


def test_enumerate_stable():
    assert enumerate_all() == enumerate_all()


def test_enumerate_matches_exhaustive_scan_oracle():
    # oracle: row-by-row scan over permutations of 1..4, each region checked
    assert [b.values for b in enumerate_all()] == list(oracle.boards())


def test_value_cells_form_transversals():
    for b in enumerate_all():
        for value in (1, 2, 3, 4):
            cells = b.cells_with(value)
            assert len(cells) == 4
            for region_family in (ROWS, COLS, BLOCKS):
                for region in region_family:
                    assert len(cells & set(region)) == 1


def test_ones_configuration_counts():
    assert count_with_ones_configuration({1, 2, 3, 4}) == 0
    assert count_with_ones_configuration(set()) == 0


def test_ones_configurations_partition_the_boards():
    configs = {}
    for b in enumerate_all():
        configs.setdefault(b.cells_with(1), []).append(b)
    assert len(configs) == 16
    assert all(len(group) == 18 for group in configs.values())
    assert sum(count_with_ones_configuration(cfg) for cfg in configs) == 288


def test_non_transversal_masks_count_zero():
    # any 4 cells inside one row share a row, so no board matches
    for mask in combinations(range(1, 5), 4):
        assert count_with_ones_configuration(mask) == 0


def test_board_text_roundtrip():
    for b in enumerate_all():
        assert Board.from_text(b.text) == b
    assert str(Board.from_text(TYPE2_TEXT)) == TYPE2_TEXT


@pytest.mark.parametrize("text", ["", "123", "1" * 15, "1" * 17, "123434122143432x"])
def test_board_text_rejects_malformed(text):
    with pytest.raises(ValueError):
        Board.from_text(text)


@pytest.mark.parametrize(
    "text", ["\u0661\u0662\u0663\u0664\u0663\u0664\u0661\u0662\u0662\u0661\u0664\u0663\u0664\u0663\u0662\u0661", "\u00b9234341221434321"],
    ids=["arabic-indic", "superscript-one"],
)
def test_board_text_takes_ascii_digits_only(text):
    # str.isdigit accepts both; int() reads the first as 1234341221434321
    # and fails on the second with its own message
    with pytest.raises(ValueError, match=f"^board text must be 16 digits, got {text!r}$"):
        Board.from_text(text)


def test_board_text_roundtrips_invalid_values_before_validation():
    # region-invalid boards stay representable; values outside 0..4 do not
    b = Board.from_text("1" * 16)
    assert b.text == "1" * 16
    assert not b.is_valid()
    with pytest.raises(ValueError, match="^not 16 board values in 0..4: "):
        Board.from_text("9" * 16)


@pytest.mark.parametrize(
    "values",
    [
        (7,) * 16,
        (1, 2, 3),
        (1, 2, 3, 4) * 4 + (1,),
        (-1,) + (1, 2, 3, 4) * 3 + (1, 2, 3),
        (-5,) + (1, 2, 3, 4) * 3 + (1, 2, 3),
        (True,) + (1, 2, 3, 4) * 3 + (1, 2, 3),
        (1.0,) + (1, 2, 3, 4) * 3 + (1, 2, 3),
        ("1",) * 16,
    ],
    ids=["seven", "short", "long", "minus-one", "minus-five", "bool", "float", "str"],
)
def test_board_rejects_impossible_values(values):
    with pytest.raises(ValueError, match=r"^not 16 board values in 0\.\.4: \("):
        Board(values)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Perm((2.0, 1.0, 3.0, 4.0)), r"not a bijection on 1\.\.4: \(2\.0, 1\.0, 3\.0, 4\.0\)"),
        (lambda: Perm((2, True)), r"not a bijection on 1\.\.2: \(2, True\)"),
        (lambda: Perm([2, 1, 3, 4]), r"not a bijection on 1\.\.4: \[2, 1, 3, 4\]"),
        (lambda: Board([1, 2, 3, 4] * 4), r"not 16 board values in 0\.\.4: \[1, 2, 3, 4, "),
        (lambda: SymmetryElement(gen_t().image, Perm.identity(4)), r"symmetry element wants .*parts"),
        (lambda: SymmetryElement(gen_t(), (1, 2, 3, 4)), r"symmetry element wants .*parts"),
    ],
    ids=["perm-float", "perm-bool", "perm-list", "board-list", "element-tuple-pos", "element-tuple-rel"],
)
def test_records_reject_fields_that_would_break_them_later(make, message):
    # a float image breaks str() and products, a list breaks hashing and
    # the board lookups, a tuple part breaks every element method
    with pytest.raises(ValueError, match=f"^{message}") as got:
        make()
    assert "\n" not in str(got.value)


def test_perm_of_degree_zero_still_builds():
    assert Perm(()).degree == 0 and Perm(()).is_identity


def test_board_records_hash_assign_and_sort_as_field_tuples():
    # Board is an immutable tuple record (values,), hashed as the frozen
    # dataclass was, so set and dict order stay as they were
    b = Board.from_text(TYPE1_TEXT)
    assert hash(b) == hash((b.values,))
    with pytest.raises(AttributeError):
        b.values = b.values
    with pytest.raises(ValueError, match=r"^not 16 board values in 0\.\.4: \(1, 2, 3\)$"):
        Board(values=(1, 2, 3))
    with pytest.raises(ValueError, match=r"^not 16 board values in 0\.\.4: "):
        b._replace(values=(9,) * 16)
    assert Board(values=b.values) == b
    boards = list(enumerate_all())[::-7]
    assert sorted(boards) == sorted(boards, key=lambda board: board.values)
