import random

import pytest

from shidoku import verify
from shidoku.board import REGIONS, Board, enumerate_all
from shidoku.perm import Perm, SymmetryElement, gen_r, gen_r2, gen_s, gen_t, relabeling
from shidoku.group import (
    RELABELINGS,
    SymmetryGroup,
    conjugacy_classes,
    element,
    element_number,
    factor_tables,
    generate,
    generate_position,
    named_group,
    position_group,
    relabel_group,
    trivial_group,
)
from shidoku.action import apply
from shidoku.nests import s4_nest_graph
from shidoku.burnside import (
    _fixed_cells,
    _fixing_rules,
    burnside_orbit_count,
    fixed_points,
    invariance_table,
    invariant_count,
    position_tally,
    product_orbit_count,
    relabel_recovery,
    relabel_weights,
    undo_row,
)
from helpers import (
    INVARIANT_UNDER_TRANSPOSE_TEXT,
    TYPE1_TEXT,
    check_fixing_lemmas,
    oracle_fixed_points,
    oracle_recoveries,
)

FIG_BOARD = Board.from_text(INVARIANT_UNDER_TRANSPOSE_TEXT)

# (size, invariant count) rows of the 20-class table for the full position
# group, frozen from an exhaustive scan; they sum to 2 * 3072 as the
# two-orbit count demands.
POSITION_GROUP_TABLE = sorted(
    [
        (1, 288), (4, 0), (4, 0), (8, 48), (16, 0),
        (2, 192), (4, 96), (8, 48), (4, 144), (8, 48),
        (4, 96), (8, 0), (16, 48), (16, 0), (1, 96),
        (4, 240), (4, 0), (4, 192), (8, 48), (4, 0),
    ]
)


def test_recovery_identity_position():
    for b in enumerate_all()[:10]:
        assert relabel_recovery(Perm.identity(16), b) == Perm.identity(4)


def test_row_swap_recovers_nothing():
    assert all(relabel_recovery(gen_s(), b) is None for b in enumerate_all())


def test_recovery_matches_brute_force_oracle():
    members = generate_position([gen_s(), gen_t()]).sorted_elements()
    for e in members:
        for b in enumerate_all():
            brute = oracle_recoveries(e.pos, b)
            assert len(brute) <= 1  # relabelings act freely
            got = relabel_recovery(e.pos, b)
            assert got == (brute[0] if brute else None)


def test_recovery_matches_brute_force_oracle_on_the_position_group():
    # the first inconsistent cell ends the scan; every symmetry of H4
    for e in position_group().sorted_elements():
        for b in enumerate_all()[::9]:
            brute = oracle_recoveries(e.pos, b)
            assert relabel_recovery(e.pos, b) == (brute[0] if brute else None)


def test_recovery_rejects_malformed_boards():
    # a wrong length or a value above 4 raises, never None: Board itself
    # rejects such values, so no malformed board reaches the recovery
    values = Board.from_text(TYPE1_TEXT).values
    for bad in (values[:15], values + (1,), values[:15] + (9,)):
        for x in (Perm.identity(16), gen_s(), gen_t()):
            with pytest.raises(ValueError, match="^not 16 board values in 0..4: "):
                relabel_recovery(x, Board(bad))


def test_recovery_rejects_a_permutation_of_fewer_cells():
    # (1 2) as a cell permutation is consistent on the first four cells
    with pytest.raises(ValueError, match="not a cell permutation"):
        relabel_recovery(relabeling("(1 2)"), Board.from_text(TYPE1_TEXT))


@pytest.mark.parametrize("negative", [-1, -5])
def test_recovery_rejects_negative_values(negative):
    # a negative value raises, never reads the end of sigma: Board itself
    # rejects it, so it never reaches the recovery
    values = (negative,) + Board.from_text(TYPE1_TEXT).values[1:]
    for x in (Perm.identity(16), gen_s(), gen_t()):
        with pytest.raises(ValueError, match="^not 16 board values in 0..4: "):
            relabel_recovery(x, Board(values))


def test_recovery_agrees_with_apply_on_zero_values():
    # a 0 value is moved but never renamed, so sigma must send it onto a 0
    relabelings = [e.rel for e in relabel_group().sorted_elements()]
    for cell, b in enumerate(enumerate_all()[::18]):
        holed = Board(b.values[:cell] + (0,) + b.values[cell + 1 :])
        for e in position_group().sorted_elements():
            found = [s for s in relabelings if apply(SymmetryElement(e.pos, s), holed) == holed]
            assert relabel_recovery(e.pos, holed) == (found[0] if found else None)


def test_fixed_points():
    t23 = SymmetryElement(gen_t(), relabeling("(2 3)"))
    assert oracle_fixed_points(SymmetryElement.identity()) == 288
    assert oracle_fixed_points(t23) == 8
    assert oracle_fixed_points(SymmetryElement.from_position(gen_s())) == 0
    assert oracle_fixed_points(SymmetryElement.from_position(gen_r2())) == 24
    for e in named_group("stxS4").sorted_elements()[::7]:
        assert fixed_points(e) == oracle_fixed_points(e)


def test_fixed_point_decomposition():
    # summing over all relabelings recovers the invariant count
    relabelings = [SymmetryElement.from_relabeling(e.rel) for e in relabel_group().elements]
    for x in (Perm.identity(16), gen_s(), gen_t(), gen_r(), gen_r2()):
        total = sum(oracle_fixed_points(SymmetryElement(x, e.rel)) for e in relabelings)
        assert total == invariant_count(x)


def test_burnside_matches_oracle_average():
    # the non-product group has order 24, below 8 * 6 for its projections
    non_product = generate(
        [SymmetryElement(gen_t(), relabeling("(2 3)")), SymmetryElement(gen_s(), relabeling("(1 2)"))]
    )
    assert non_product.order == 24
    for g in (named_group("stxS4"), named_group("rtxS4"), trivial_group(), non_product):
        total = sum(oracle_fixed_points(e) for e in g.elements)
        assert total % g.order == 0
        assert burnside_orbit_count(g) == total // g.order


def test_burnside_rejects_non_groups():
    # not closed under composition; fixed-point total 312 is not divisible by 5
    r = gen_r()
    elements = [
        SymmetryElement.from_position(p) for p in (Perm.identity(16), r, r * r, r * r * r, gen_s())
    ]
    with pytest.raises(ValueError, match="generators generate 64 elements, not the 5 given"):
        SymmetryGroup(elements, ())
    # built unchecked from the five position parts, each over the identity
    # relabeling, the non-group reaches burnside's divisibility guard
    section = dict.fromkeys((element_number(e) // RELABELINGS for e in elements), 0)
    fake = SymmetryGroup._trusted(section, frozenset({0}), ())
    assert fake.numbers == frozenset(map(element_number, elements))
    with pytest.raises(ValueError, match="not divisible by group order 5"):
        burnside_orbit_count(fake)


def test_position_tally_counts_the_fixed_nests():
    # 24 boards per value nest that x maps to itself, whatever its rho
    for g in (trivial_group(), named_group("st"), position_group()):
        tally = position_tally(g)
        assert len(tally) == RELABELINGS
        assert 24 * sum(tally) == sum(invariant_count(e.pos) for e in g.elements)
    assert position_tally(trivial_group()) == [12] + [0] * (RELABELINGS - 1)
    with pytest.raises(ValueError, match="position tally wants a position-only group"):
        position_tally(named_group("stxS4"))


def test_product_orbit_count_rejects_a_total_the_order_does_not_divide():
    # the identity fixes the 12 value nests, each with 24 boards: 288
    # fixed points, divisible by 1 but not by 5
    tally, weights = position_tally(trivial_group()), relabel_weights(trivial_group())
    assert product_orbit_count(tally, weights, 1) == 288
    with pytest.raises(ValueError, match="^fixed-point total 288 not divisible by group order 5$"):
        product_orbit_count(tally, weights, 5)


def test_invariance_table_trivial():
    table = invariance_table(trivial_group())
    assert [(len(cls), count) for cls, count in table] == [(1, 288)]


def test_invariance_table_full_position_group():
    table = invariance_table(position_group())
    assert sorted((len(cls), count) for cls, count in table) == POSITION_GROUP_TABLE
    # Burnside consistency: the table total over the product order gives 2
    assert sum(len(cls) * count for cls, count in table) == 2 * 3072


def test_invariance_table_rejects_mixed_group():
    with pytest.raises(ValueError):
        invariance_table(relabel_group())


def test_invariant_count_equals_the_recovery_hits_on_every_position_symmetry():
    # all 128 x 288 pairs: undo row entry k names the relabeling that
    # undoes x on board k, and the count is the number of boards with one
    positions, relabelings = (table.elements for table in factor_tables())
    for p, x in enumerate(positions):
        recovered = [relabel_recovery(x, b) for b in enumerate_all()]
        assert [relabelings[r - 1] if r else None for r in undo_row(p)] == recovered
        assert invariant_count(x) == sum(sigma is not None for sigma in recovered)


def test_fixed_counts_match_the_oracle_on_a_seeded_sample():
    for n in random.Random(20).sample(range(3072), 40):
        assert fixed_points(element(n)) == oracle_fixed_points(element(n))


def test_fixed_counts_are_the_undo_rows_counts_on_every_element():
    # the cocycle's sums over fixed nests against the undo rows, which
    # name the undoing relabeling board by board: all 3072 elements
    for p in range(3072 // RELABELINGS):
        row = undo_row(p)
        for r in range(RELABELINGS):
            assert fixed_points(element(p * RELABELINGS + r)) == row.count(r + 1)


def test_invariant_count_is_24_per_value_nest_mapped_to_itself():
    # x leaves a board invariant up to relabeling iff it maps the board's
    # value nest to itself, and then every one of the nest's 24 boards
    for x in factor_tables()[0].elements:
        loops = sum(edge.src == edge.dst for edge in s4_nest_graph([x]).edges)
        assert invariant_count(x) == 24 * loops


def test_invariant_count_rejects_a_cell_permutation_outside_h4():
    x = Perm.from_cycles("(1 2)", 16)
    with pytest.raises(ValueError) as got:
        invariant_count(x)
    with pytest.raises(ValueError) as want:
        element_number(SymmetryElement.from_position(x))
    assert str(got.value) == str(want.value) and "\n" not in str(got.value)
    with pytest.raises(ValueError, match="degree-16"):
        invariant_count(Perm.identity(4))


def test_invariant_count_constant_on_classes():
    # invariance_table counts each class on its minimal element only
    classes = conjugacy_classes(position_group())
    assert sum(map(len, classes)) == 128
    rows = [(len(cls), invariant_count(min(cls).pos)) for cls in classes]
    assert sorted(rows) == POSITION_GROUP_TABLE
    for cls in classes:
        counts = {invariant_count(member.pos) for member in cls}
        assert counts == {invariant_count(min(cls).pos)}


def test_fixing_rules_hold_on_examples():
    assert check_fixing_lemmas(gen_t(), FIG_BOARD)
    for b in enumerate_all()[:20]:
        assert check_fixing_lemmas(Perm.identity(16), b)


@pytest.mark.parametrize(
    "x, b, sigma",
    [
        # rule 1 alone: the transpose fixes cell 1, the 4-cycle moves its value
        (gen_t(), Board.from_text(TYPE1_TEXT), relabeling("(1 2 3 4)")),
        # rule 2 alone: on a valid board a pointwise-fixed region makes
        # rule 1 fix every value, so only empty cells break rule 2 alone
        (Perm.identity(16), Board((0,) * 16), relabeling("(1 2)")),
        # rule 3 alone: the rotation fixes no cell and moves values
        (gen_r(), Board.from_text(TYPE1_TEXT), Perm.identity(4)),
    ],
    ids=["rule-1", "rule-2", "rule-3"],
)
def test_fixing_rules_reject_a_pair_breaking_one_rule(x, b, sigma):
    assert not _fixing_rules(x, b, sigma)


def test_fixed_cells_match_a_scan_of_every_position_symmetry():
    flags = set()
    for x in (e.pos for e in position_group().sorted_elements()):
        cells = tuple(i - 1 for i in range(1, 17) if x(i) == i)
        covers = any(all(x(i) == i for i in region) for region in REGIONS)
        assert _fixed_cells(x) == (cells, covers)
        flags.add(covers)
    assert flags == {False, True}  # s fixes rows 1 and 2, r fixes no cell


def test_fixed_cells_memo_holds_a_cold_verify():
    # the memo is keyed by x alone: at most one entry per position symmetry
    _fixed_cells.cache_clear()
    assert verify.run_checks(lambda line: None)
    info = _fixed_cells.cache_info()
    assert 0 < info.currsize == info.misses <= info.maxsize == 128


def test_fixing_rules_require_invariance():
    with pytest.raises(ValueError):
        check_fixing_lemmas(gen_s(), FIG_BOARD)
