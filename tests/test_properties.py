"""Property-based tests over randomly sampled permutations, group
elements, and boards."""

from hypothesis import given, settings
from hypothesis import strategies as st

from shidoku.board import Board, enumerate_all, validate
from shidoku.perm import Perm, SymmetryElement, gen_r, gen_r2, gen_s, gen_t
from shidoku.group import (
    direct_product,
    full_group,
    generate,
    generate_position,
    generate_relabel,
    position_group,
    relabel_group,
)
from shidoku.action import apply, full_partition, is_complete, orbits
from shidoku.burnside import burnside_orbit_count, relabel_recovery
from shidoku.nests import h4_canonicalize, s4_canonicalize
from helpers import oracle_apply, oracle_product, oracle_recoveries

BOARDS = enumerate_all()
FULL_ELEMENTS = full_group().sorted_elements()
POSITION_ELEMENTS = position_group().sorted_elements()
RELABEL_ELEMENTS = relabel_group().sorted_elements()

boards = st.sampled_from(BOARDS)
elements = st.sampled_from(FULL_ELEMENTS)
position_perms = st.sampled_from([e.pos for e in POSITION_ELEMENTS])
relabels = st.sampled_from([e.rel for e in RELABEL_ELEMENTS])
raw_perm16 = st.permutations(list(range(1, 17))).map(lambda img: Perm(tuple(img)))
raw_perm4 = st.permutations([1, 2, 3, 4]).map(lambda img: Perm(tuple(img)))
raw_elements = st.builds(SymmetryElement, raw_perm16, raw_perm4)


@given(raw_perm16)
def test_cycle_notation_roundtrip(p):
    assert Perm.from_cycles(p.cycle_notation(), 16) == p


@given(raw_perm16)
def test_inverse_cancels(p):
    assert (p * p.inverse()).is_identity
    assert (p.inverse() * p).is_identity


@given(raw_perm16, raw_perm16)
def test_inverse_antihomomorphism(a, b):
    assert (a * b).inverse() == b.inverse() * a.inverse()


@given(raw_elements, raw_elements)
def test_element_products_match_the_componentwise_oracle(a, b):
    # any cell permutation, not only H4's: the product is pure composition
    product = a * b
    assert product == oracle_product(a, b)
    assert type(product) is SymmetryElement
    assert type(product.pos) is Perm and type(product.rel) is Perm
    assert type(product.pos.image) is tuple and type(product.rel.image) is tuple


@given(elements, elements, boards)
def test_action_law(a, b, board):
    assert apply(a * b, board) == apply(a, apply(b, board))


@given(elements, boards)
def test_inverse_undoes_action(e, board):
    assert apply(e.inverse(), apply(e, board)) == board


@given(elements, boards)
def test_action_preserves_validity(e, board):
    assert validate(apply(e, board).values)


@given(elements, boards)
def test_action_matches_definition_oracle(e, board):
    assert apply(e, board).values == oracle_apply(e, board.values)


@given(position_perms, boards)
def test_recovery_matches_brute_force(x, board):
    brute = oracle_recoveries(x, board)
    assert len(brute) <= 1
    assert relabel_recovery(x, board) == (brute[0] if brute else None)


@given(relabels, boards)
def test_s4_canonicalize_constant_on_relabel_orbit(sigma, board):
    moved = apply(SymmetryElement.from_relabeling(sigma), board)
    assert s4_canonicalize(moved) == s4_canonicalize(board)


@given(position_perms, boards)
def test_h4_canonicalize_constant_on_position_orbit(x, board):
    moved = apply(SymmetryElement.from_position(x), board)
    assert h4_canonicalize(moved) == h4_canonicalize(board)


position_subsets = st.sets(
    st.sampled_from([gen_r(), gen_r2(), gen_s(), gen_t()]), max_size=4
)
relabel_subsets = st.sets(st.sampled_from([e.rel for e in RELABEL_ELEMENTS]), max_size=3)


@settings(max_examples=25, deadline=None)
@given(position_subsets, relabel_subsets)
def test_orbits_refine_the_full_partition(pos_gens, rel_gens):
    g = direct_product(generate_position(pos_gens), generate_relabel(rel_gens))
    part = orbits(g)
    full = full_partition()
    for block in part.blocks:
        assert len({full.block_of(b) for b in block}) == 1
    for size in part.sizes():
        assert g.order % size == 0


@settings(max_examples=25, deadline=None)
@given(position_subsets, relabel_subsets)
def test_complete_iff_two_orbits(pos_gens, rel_gens):
    g = direct_product(generate_position(pos_gens), generate_relabel(rel_gens))
    assert is_complete(g) == (orbits(g).block_count == 2)


@settings(max_examples=40, deadline=None)
@given(st.lists(elements, min_size=1, max_size=2), elements)
def test_verdicts_are_invariant_under_conjugation(gens, c):
    # c G c^-1 is built through SymmetryElement products, so the memoised
    # factor products see random traffic; its verdicts must be G's, and
    # its orbits c applied to G's.  A closure fault that commutes with
    # conjugation passes all that, so the Burnside count over the closed
    # elements must also be the orbit count over the generators.
    c_inverse = c.inverse()
    g, h = generate(gens), generate([c * x * c_inverse for x in gens])
    assert h.order == g.order
    assert is_complete(h) == is_complete(g)
    assert burnside_orbit_count(h) == burnside_orbit_count(g) == orbits(g).block_count
    moved = {frozenset(Board(oracle_apply(c, b.values)) for b in block) for block in orbits(g).blocks}
    assert {frozenset(block) for block in orbits(h).blocks} == moved
