import random
from itertools import combinations

import pytest

from shidoku.board import Board, enumerate_all, validate
from shidoku.perm import Perm, SymmetryElement, _cells, gen_r, gen_s, gen_t, relabeling
from shidoku.group import (
    direct_product,
    generate,
    generate_position,
    generate_relabel,
    full_group,
    named_group,
    position_group,
    relabel_group,
    trivial_group,
)
from shidoku import action
from shidoku.action import (
    OrbitPartition,
    apply,
    apply_values,
    full_partition,
    is_complete,
    is_position_symmetry,
    named_generators,
    orbit_graph,
    orbits,
)
from shidoku.search import default_position_pool, default_relabel_pool
from shidoku.unionfind import components
from helpers import (
    TYPE1_TEXT,
    TYPE2_TEXT,
    oracle_apply,
    oracle_components,
    oracle_orbits,
)


def full_generators():
    return [
        SymmetryElement.from_position(p) for p in (gen_r(), gen_s(), gen_t())
    ] + [SymmetryElement.from_relabeling(relabeling(n)) for n in ("(1 2)", "(2 3)", "(3 4)", "(1 4)")]


def test_apply_rejects_malformed_boards():
    # Board rejects these values itself; the action checks them again
    t = SymmetryElement.from_position(gen_t())
    for values in ((1, 2, 3, 4) * 4 + (9,), (1, 2, 3, 4) * 3 + (1, 2, 3)):
        with pytest.raises(ValueError):
            apply_values(t, values)
    with pytest.raises(ValueError, match="9"):
        apply_values(t, Board.from_text(TYPE1_TEXT).values[:15] + (9,))


@pytest.mark.parametrize("negative", [-1, -5])
def test_apply_rejects_negative_values(negative):
    # a negative value must not be renamed through the end of the rename table
    values = (negative,) + Board.from_text(TYPE1_TEXT).values[1:]
    for e in (SymmetryElement.identity(), SymmetryElement.from_relabeling(relabeling("(1 2 3 4)"))):
        with pytest.raises(ValueError, match=str(negative)):
            apply_values(e, values)


def test_apply_matches_definition_oracle_on_all_boards():
    for e in full_generators():
        for b in enumerate_all():
            assert apply(e, b).values == oracle_apply(e, b.values)


def test_apply_matches_definition_oracle_on_zero_values():
    # a 0 value is moved but not renamed, by both
    rotate_values = SymmetryElement.from_relabeling(relabeling("(1 2 3 4)"))
    elements = [rotate_values, *full_generators(), *full_group().sorted_elements()[::97]]
    for cell, b in enumerate(enumerate_all()[::18]):
        holed = b.values[:cell] + (0,) + b.values[cell + 1 :]
        for e in elements:
            assert apply_values(e, holed) == oracle_apply(e, holed)


def test_apply_values_stays_right_past_the_cell_gather_bound():
    # more distinct cell permutations than the memoised gathers hold, any
    # of them, not only H4's: applying them is pure moving and renaming
    rng = random.Random(20)
    boards = enumerate_all()
    for _ in range(300):
        pos, rel = rng.sample(range(1, 17), 16), rng.sample(range(1, 5), 4)
        e = SymmetryElement(Perm(tuple(pos)), Perm(tuple(rel)))
        values = rng.choice(boards).values
        assert apply_values(e, values) == oracle_apply(e, values)
    info = _cells.cache_info()
    assert info.currsize <= info.maxsize < 300


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
    want = oracle_orbits(st_s4.generators)
    assert got == want

    rt_s4 = direct_product(generate_position([gen_r(), gen_t()]), relabel_group())
    got = {frozenset(block) for block in orbits(rt_s4).blocks}
    want = oracle_orbits(rt_s4.generators)
    assert got == want


def test_orbits_and_is_complete_match_oracle_on_seeded_mixed_groups():
    # the query shape: groups generated by 1 or 2 random elements of H4 x S4
    full_blocks = oracle_orbits(full_generators())
    elements = full_group().sorted_elements()
    rng = random.Random(7)
    verdicts = set()
    for _ in range(40):
        gens = rng.sample(elements, rng.choice((1, 2)))
        g = generate(gens)
        want = oracle_orbits(gens)
        assert list(orbits(g).blocks) == sorted(tuple(sorted(block)) for block in want)
        complete = is_complete(g)
        assert complete == (want == full_blocks)
        verdicts.add(complete)
    assert verdicts == {True, False}


def test_orbit_partition_holds_board_numbers():
    boards = enumerate_all()
    for spec in ("full", "rtxS4", "rsxc123", "H4", "c123", "trivial"):
        g = named_group(spec)
        part = orbits(g)
        want = sorted(tuple(sorted(block)) for block in oracle_orbits(g.generators))
        assert part.blocks == tuple(want)
        assert part.numbers == tuple(tuple(boards.index(b) for b in block) for block in want)
        assert part.sizes() == tuple(map(len, want))
        assert part.block_count == len(want)
        assert all(part.block_of(b) == k for k, block in enumerate(want) for b in block)


def test_orbit_partition_block_of_rejects_invalid_boards():
    part = full_partition()
    with pytest.raises(ValueError, match="^not a valid Shidoku board: 1111111111111111$"):
        part.block_of(Board((1,) * 16))
    with pytest.raises(ValueError, match="^not a valid Shidoku board: 0000000000000000$"):
        part.block_of(Board((0,) * 16))


def test_equal_groups_give_equal_partitions():
    s, t = (SymmetryElement.from_position(p) for p in (gen_s(), gen_t()))
    swaps = [SymmetryElement.from_relabeling(relabeling(c)) for c in ("(1 2)", "(2 3)", "(3 4)")]
    a = named_group("stxS4")
    b = generate([t * s, s, *reversed(swaps), swaps[0] * t])
    assert a == b and a.generators != b.generators
    assert orbits(a) == orbits(b)
    assert hash(orbits(a)) == hash(orbits(b))
    assert orbits(a) == OrbitPartition(orbits(b).numbers)
    assert orbits(a) != orbits(named_group("rtxS4"))


def test_orbits_rejects_elements_that_leave_the_board_set():
    swap12 = Perm.from_cycles("(1 2)", 16)
    message = r"^symmetry pos=\(1 2\); rel= moves a board to \d{16}, not a valid board$"
    with pytest.raises(ValueError, match=message):
        orbits(generate_position([swap12]))


def test_orbits_via_elements_when_no_generators():
    st = generate_position([gen_s(), gen_t()])
    bare = type(st)(st.elements, ())
    assert orbits(bare) == orbits(st)


def test_is_complete_after_orbits_labels_the_orbits_once(monkeypatch):
    # the query shape: orbits, then is_complete, on the same group
    calls = []

    def counted(size, maps):
        calls.append(len(maps))
        return components(size, maps)

    monkeypatch.setattr(action, "components", counted)
    action._board_blocks.cache_clear()
    g = named_group("stxS4")
    part = orbits(g)
    assert is_complete(g) and is_complete(named_group("stxS4"))
    assert orbits(g) == part and len(calls) == 1
    # the kept blocks are immutable
    assert type(part.numbers) is tuple and all(type(block) is tuple for block in part.numbers)
    # a different group is labeled anew
    assert not is_complete(named_group("rtxS4"))
    assert len(calls) == 2


def test_is_complete():
    assert is_complete(full_group())
    # neither factor alone is complete
    assert not is_complete(position_group())
    assert not is_complete(relabel_group())


def test_is_complete_matches_the_orbit_comparison():
    # orbits(g) == full_partition() is the slow side; groups whose order
    # every full orbit size divides get past is_complete's order gate
    def subsets(pool):
        return [subset for size in range(len(pool) + 1) for subset in combinations(pool, size)]

    full = full_partition()
    groups = [
        direct_product(generate_position(p for _, p in ps), generate_relabel(p for _, p in rs))
        for ps in subsets(default_position_pool())
        for rs in subsets(default_relabel_pool())
    ]
    elements = full_group().sorted_elements()
    rng = random.Random(13)
    groups += [generate(rng.sample(elements, rng.randint(1, 3))) for _ in range(60)]
    rt_s4 = named_group("rtxS4")
    assert rt_s4.order % 192 == 0 and orbits(rt_s4).block_count == 5
    groups.append(rt_s4)
    gated = set()
    for g in groups:
        complete = orbits(g) == full
        assert is_complete(g) == complete
        if g.order % 192 == 0:
            gated.add(complete)
    assert gated == {True, False}


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


def test_orbit_graph_components_match_oracle_in_order():
    t = SymmetryElement.from_position(gen_t())
    c123 = SymmetryElement.from_relabeling(relabeling("(1 2 3)"))
    for gens in (
        named_generators(full_group()),
        named_generators(generate_position([gen_r(), gen_t()])),
        # two generators under one label still give two maps
        [("x", t), ("x", c123)],
        [c123],
    ):
        graph = orbit_graph(gens)
        want = oracle_components(graph.nodes, [(e.src, e.dst) for e in graph.edges])
        assert graph.components() == want


def test_orbit_graph_edges_match_the_action_oracle():
    mixed = SymmetryElement(gen_r(), relabeling("(1 2 4)"))
    graph = orbit_graph([("m", mixed), *named_generators(full_group())])
    named = dict(named_generators(full_group()), m=mixed)
    assert len(graph.edges) == 288 * 8
    for edge in graph.edges:
        assert edge.dst.values == oracle_apply(named[edge.label], edge.src.values)


def test_orbit_graph_rejects_elements_outside_the_full_group():
    swap12 = SymmetryElement.from_position(Perm.from_cycles("(1 2)", 16))
    message = r"^symmetry pos=\(1 2\); rel= moves a board to \d{16}, not a valid board$"
    with pytest.raises(ValueError, match=message):
        orbit_graph([("x", swap12)])


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
        p
        for p in (Perm(tuple(v + 1 for v in x)) for x in candidates)
        if all(validate(oracle_apply(SymmetryElement.from_position(p), v)) for v in boards)
    }
    assert len(preserving) == 128
    assert preserving == {e.pos for e in position_group().elements}
    assert all(map(is_position_symmetry, preserving))


def test_named_generators_labels():
    g = full_group()
    names = [name for name, _ in named_generators(g)]
    assert names == ["r", "s", "t", "(1 2)", "(2 3)", "(3 4)", "(1 4)"]
