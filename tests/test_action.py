import pytest

from shidoku.board import Board, enumerate_all
from shidoku.perm import Perm, SymmetryElement, gen_r, gen_s, gen_t, relabeling
from shidoku.group import (
    direct_product,
    generate_position,
    generate_relabel,
    full_group,
    position_group,
    relabel_group,
    trivial_group,
)
from shidoku.action import (
    apply,
    full_partition,
    is_complete,
    is_position_symmetry,
    named_generators,
    orbit_graph,
    orbits,
)
from helpers import (
    TYPE1_TEXT,
    TYPE2_TEXT,
    oracle_apply,
    oracle_orbits,
)


def full_generators():
    return [
        SymmetryElement.from_position(p) for p in (gen_r(), gen_s(), gen_t())
    ] + [SymmetryElement.from_relabeling(relabeling(n)) for n in ("(1 2)", "(2 3)", "(3 4)", "(1 4)")]


def test_apply_rejects_malformed_boards():
    t = SymmetryElement.from_position(gen_t())
    for values in ((1, 2, 3, 4) * 4 + (9,), (1, 2, 3, 4) * 3 + (1, 2, 3)):
        with pytest.raises(ValueError):
            apply(t, Board(values))
    with pytest.raises(ValueError, match="9"):
        apply(t, Board.from_text("1234341221434329"))


def test_apply_matches_definition_oracle_on_all_boards():
    for e in full_generators():
        for b in enumerate_all():
            assert apply(e, b).values == oracle_apply(e, b.values)


def test_orbits_full_group():
    part = full_partition()
    assert part.block_of(Board.from_text(TYPE1_TEXT)) == 0
    assert part.block_of(Board.from_text(TYPE2_TEXT)) == 1


@pytest.mark.parametrize(
    "position_gens, relabel_gens, want_sizes",
    [
        ((gen_r, gen_t), "S4", (24, 96, 48, 96, 24)),
        ((gen_s, gen_t), "S4", (96, 192)),
        ((gen_r, gen_s), "(1 2 3)", (96, 192)),
    ],
)
def test_orbit_block_sizes(position_gens, relabel_gens, want_sizes):
    pos = generate_position([g() for g in position_gens])
    rel = (
        relabel_group()
        if relabel_gens == "S4"
        else generate_relabel([relabeling(relabel_gens)])
    )
    assert orbits(direct_product(pos, rel)).sizes() == want_sizes


def test_orbits_trivial_group():
    part = orbits(trivial_group())
    assert part.block_count == 288
    assert part.sizes() == (1,) * 288


def test_orbits_match_bfs_oracle():
    st_s4 = direct_product(generate_position([gen_s(), gen_t()]), relabel_group())
    got = {frozenset(block) for block in orbits(st_s4).blocks}
    want = oracle_orbits(st_s4.generators, enumerate_all())
    assert got == want

    rt_s4 = direct_product(generate_position([gen_r(), gen_t()]), relabel_group())
    got = {frozenset(block) for block in orbits(rt_s4).blocks}
    want = oracle_orbits(rt_s4.generators, enumerate_all())
    assert got == want


def test_orbits_via_elements_when_no_generators():
    st = generate_position([gen_s(), gen_t()])
    bare = type(st)(st.elements, ())
    assert orbits(bare) == orbits(st)


def test_is_complete():
    assert is_complete(full_group())
    # neither factor alone is complete
    assert not is_complete(position_group())
    assert not is_complete(relabel_group())


def test_two_orbits_equals_complete_for_subgroups():
    c123 = generate_relabel([relabeling("(1 2 3)")])
    candidates = [
        full_group(),
        direct_product(generate_position([gen_s(), gen_t()]), relabel_group()),
        direct_product(generate_position([gen_r(), gen_t()]), relabel_group()),
        direct_product(generate_position([gen_r(), gen_s()]), c123),
        direct_product(position_group(), c123),
        position_group(),
        relabel_group(),
        trivial_group(),
    ]
    for g in candidates:
        assert is_complete(g) == (orbits(g).block_count == 2)


def test_orbit_refinement():
    sub = direct_product(generate_position([gen_s(), gen_t()]), relabel_group())
    sub_part = orbits(sub)
    full_part = full_partition()
    for block in sub_part.blocks:
        targets = {full_part.block_of(b) for b in block}
        assert len(targets) == 1


def test_orbit_sizes_divide_group_order():
    c123 = generate_relabel([relabeling("(1 2 3)")])
    for g in (
        direct_product(generate_position([gen_r(), gen_t()]), relabel_group()),
        direct_product(generate_position([gen_r(), gen_s()]), c123),
        position_group(),
        relabel_group(),
    ):
        for size in orbits(g).sizes():
            assert g.order % size == 0


def test_orbit_graph_components_match_orbits():
    g = full_group()
    graph = orbit_graph(named_generators(g))
    components = {frozenset(c) for c in graph.components()}
    assert components == {frozenset(b) for b in full_partition().blocks}
    assert len(graph.edges) == 288 * len(g.generators)


def test_orbit_graph_empty_generators():
    graph = orbit_graph(())
    assert graph.component_count == 288
    assert graph.edges == ()


def test_orbit_graph_involution_edges_marked_undirected():
    graph = orbit_graph(named_generators(full_group()))
    directed_labels = {e.label for e in graph.edges if e.directed}
    assert directed_labels == {"r"}


def test_is_position_symmetry():
    assert is_position_symmetry(gen_r())
    assert not is_position_symmetry(Perm.from_cycles("(1 2)", 16))
    # swapping the middle two rows is not a symmetry (crosses the bands)
    assert not is_position_symmetry(
        Perm.from_cycles("(5 9)(6 10)(7 11)(8 12)", 16)
    )


def test_position_symmetries_are_exactly_the_generated_group():
    """The validity-preserving cell permutations are exactly the 128
    elements of <r, s, t>: no exotic symmetries exist.

    Oracle: any permutation of the board set must preserve the cell
    co-occurrence counts M[i][j] = #boards with equal values at i and j,
    so backtracking over M-preserving cell maps bounds the candidates
    from above, independently of the group closure.
    """
    boards = [b.values for b in enumerate_all()]
    m = [[sum(v[i] == v[j] for v in boards) for j in range(16)] for i in range(16)]

    candidates = []

    def extend(mapping: list[int], used: set[int]) -> None:
        i = len(mapping)
        if i == 16:
            candidates.append(tuple(mapping))
            return
        for cand in range(16):
            if cand in used:
                continue
            if m[cand][cand] != m[i][i]:
                continue
            if all(m[cand][mapping[k]] == m[i][k] for k in range(i)):
                mapping.append(cand)
                used.add(cand)
                extend(mapping, used)
                mapping.pop()
                used.remove(cand)

    extend([], set())
    assert len(candidates) == 128

    preserving = {
        Perm(tuple(v + 1 for v in x))
        for x in candidates
        if is_position_symmetry(Perm(tuple(v + 1 for v in x)))
    }
    assert len(preserving) == 128
    assert preserving == {e.pos for e in position_group().elements}


def test_named_generators_labels():
    g = full_group()
    names = [name for name, _ in named_generators(g)]
    assert names == ["r", "s", "t", "(1 2)", "(2 3)", "(3 4)", "(1 4)"]
