import random
from itertools import combinations

import pytest

from shidoku.board import Board, board_numbers, enumerate_all, validate
from shidoku.perm import Perm, SymmetryElement, _cells, apply_batch, gen_r, gen_s, gen_t, relabeling
from shidoku.group import (
    _kernel_blocks,
    conjugacy_classes,
    direct_product,
    element,
    element_number,
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
    element_label,
    full_partition,
    is_complete,
    is_position_symmetry,
    orbit_graph,
    orbits,
)
from shidoku.burnside import burnside_orbit_count
from shidoku.nests import s4_nests
from shidoku.search import default_position_pool, default_relabel_pool, search_products
from shidoku.unionfind import components
from helpers import (
    TYPE1_TEXT,
    TYPE2_TEXT,
    called_codes,
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


def test_apply_batch_is_apply_values_board_by_board():
    rng = random.Random(21)
    values = [b.values for b in enumerate_all()]
    for e in [SymmetryElement.identity(), *rng.sample(full_group().sorted_elements(), 12)]:
        moved = apply_batch(e, values)
        assert moved == [apply_values(e, v) for v in values]
        assert moved == [oracle_apply(e, v) for v in values]
    assert apply_batch(SymmetryElement.from_position(gen_t()), []) == []


@pytest.mark.parametrize("cell, value", [(15, None), (6, 5)], ids=["15-values", "value-5"])
def test_apply_batch_rejects_a_bad_board_inside_a_batch(cell, value):
    # the bad board sits between good ones: its error is apply_values's
    t = SymmetryElement.from_position(gen_t())
    good = [b.values for b in enumerate_all()[:6]]
    bad = good[0][:cell] + (() if value is None else (value,) + good[0][cell + 1 :])
    with pytest.raises(ValueError) as one:
        apply_values(t, bad)
    with pytest.raises(ValueError) as batch:
        apply_batch(t, good[:3] + [bad] + good[3:])
    assert str(batch.value) == str(one.value)
    assert "\n" not in str(one.value)


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


POSITION_H4 = (gen_r(), gen_s(), gen_t())
#: Generators of a subgroup of S4 of each order; order 4 twice, cyclic and Klein.
KERNELS = {
    "1": (),
    "2": ("(1 2)",),
    "3": ("(1 2 3)",),
    "4 cyclic": ("(1 2 3 4)",),
    "4 Klein": ("(1 2)(3 4)", "(1 3)(2 4)"),
    "6": ("(1 2)", "(1 2 3)"),
    "8": ("(1 2 3 4)", "(1 3)"),
    "12": ("(1 2 3)", "(1 2)(3 4)"),
    "24": ("(1 2)", "(2 3)", "(3 4)"),
}


def relabel_kernel(g):
    return frozenset(n for n in g.numbers if n < 24)


def assert_orbits_match_oracle(g, full_blocks):
    want = oracle_orbits(g.generators)
    part = orbits(g)
    want_blocks = sorted(tuple(sorted(block)) for block in want)
    assert list(part.blocks) == want_blocks
    assert part.sizes() == tuple(map(len, want_blocks))
    assert burnside_orbit_count(g) == part.block_count
    action._orbits.cache_clear()
    assert is_complete(g) == (want == full_blocks)


def test_orbits_and_is_complete_match_oracle_on_seeded_mixed_groups():
    # the query shape: groups generated by 1 or 2 random elements of H4 x S4,
    # most of them not products, many with a nontrivial relabel-only kernel
    full_blocks = oracle_orbits(full_generators())
    elements = full_group().sorted_elements()
    rng = random.Random(7)
    verdicts = set()
    for _ in range(40):
        g = generate(rng.sample(elements, rng.choice((1, 2))))
        assert_orbits_match_oracle(g, full_blocks)
        verdicts.add((len(relabel_kernel(g)), is_complete(g)))
    assert {order for order, _ in verdicts} == {1, 2, 3, 12}
    assert {complete for _, complete in verdicts} == {True, False}


@pytest.mark.parametrize("kernel", KERNELS)
def test_quotient_orbits_match_oracle_on_products_of_every_kernel_order(kernel):
    full_blocks = oracle_orbits(full_generators())
    rel = generate_relabel([relabeling(c) for c in KERNELS[kernel]])
    assert rel.order == int(kernel.split()[0])
    for position_gens in [(), (gen_r(),), (gen_s(), gen_t()), (gen_r(), gen_t()), POSITION_H4]:
        g = direct_product(generate_position(position_gens), rel)
        assert relabel_kernel(g) == rel.numbers
        assert_orbits_match_oracle(g, full_blocks)
        # numbered by smallest board: labels first appear as 0, 1, 2, ...
        labels = orbits(g).labels
        assert len(labels) == 288
        assert list(dict.fromkeys(labels)) == list(range(orbits(g).block_count))


@pytest.mark.parametrize("kernel", [name for name in KERNELS if name != "1"])
def test_kernel_blocks_are_the_kernel_orbits(kernel):
    rel = generate_relabel([relabeling(c) for c in KERNELS[kernel]])
    label, count, smallest, tau = _kernel_blocks(rel.numbers)
    blocks = [[k for k, i in enumerate(label) if i == c] for c in range(count)]
    assert count * rel.order == 288 and all(len(block) == rel.order for block in blocks)
    # numbered by smallest board, which the gather reads
    firsts = [block[0] for block in blocks]
    assert firsts == sorted(firsts) and list(smallest(range(288))) == firsts
    # each board is its recorded relabeling in K of its block's smallest board
    boards = enumerate_all()
    for b, i, r in zip(boards, label, tau):
        assert r in rel.numbers
        assert oracle_apply(element(r), boards[firsts[i]].values) == b.values
    numbers = board_numbers()
    want = {frozenset(numbers[b.values] for b in block) for block in oracle_orbits(rel.generators)}
    assert set(map(frozenset, blocks)) == want
    if rel.order == 24:
        assert want == {frozenset(numbers[b.values] for b in n.members) for n in s4_nests()}


def test_orbit_partition_holds_board_numbers():
    boards = enumerate_all()
    for spec in ("full", "rtxS4", "rsxc123", "H4", "c123", "trivial"):
        g = named_group(spec)
        part = orbits(g)
        want = sorted(tuple(sorted(block)) for block in oracle_orbits(g.generators))
        assert part.blocks == tuple(want)
        assert part.labels == tuple(next(k for k, block in enumerate(want) if b in block) for b in boards)
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
    assert orbits(a) == OrbitPartition(orbits(b).labels, orbits(b).orbit_sizes)
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
    action._orbits.cache_clear()
    g = named_group("stxS4")
    part = orbits(g)
    assert is_complete(g) and is_complete(named_group("stxS4"))
    assert orbits(g) == part and len(calls) == 1
    # the kept partition is immutable
    assert type(part.labels) is tuple
    assert type(part.blocks) is tuple and all(type(block) is tuple for block in part.blocks)
    # a different group is labeled anew
    assert not is_complete(named_group("rtxS4"))
    assert len(calls) == 2


def test_orbits_and_is_complete_number_no_element():
    # a group keeps its generators as element numbers: labeling its orbits
    # and judging it neither number nor decode an element, conjugacy
    # classes number none, and a group built from elements alone decodes
    # none into generators
    full_partition()
    rng = random.Random(28)
    elements = full_group().sorted_elements()
    groups = [generate(rng.sample(elements, 2)) for _ in range(6)]
    groups += [named_group("stxS4"), trivial_group(), full_group()]

    def label():
        for g in groups:
            action._orbits.cache_clear()
            orbits(g), is_complete(g)

    labeled = called_codes(label)
    assert action._orbits.__wrapped__.__code__ in labeled
    assert not labeled & {element_number.__code__, element.__code__}
    conjugated = called_codes(lambda: conjugacy_classes(named_group("stxc123")))
    assert element_number.__code__ not in conjugated
    st = named_group("stxS4")
    members = st.elements
    assert element.__code__ not in called_codes(lambda: type(st)(members, ()))


def test_orbit_sizes_and_count_are_read_not_counted():
    # the labeling pass sizes the orbits: reading them calls no function
    for g in (full_group(), named_group("rtxS4"), trivial_group()):
        part = orbits(g)

        def read():
            return part.sizes(), part.block_count

        readers = {OrbitPartition.sizes.__code__, OrbitPartition.block_count.fget.__code__}
        assert called_codes(read) == {read.__code__, *readers}
        assert read() == (tuple(map(len, part.blocks)), len(part.blocks))


def test_search_counts_orbits_without_labeling_them():
    # search counts each product's orbits by Burnside and judges it by the
    # count: no orbit labeling and no is_complete, through any binding
    full_partition()
    rng = random.Random(25)
    positions = rng.sample(position_group().sorted_elements(), 3)
    relabelings = rng.sample(relabel_group().sorted_elements(), 3)
    seeded = (
        tuple((f"x{k}", e.pos) for k, e in enumerate(positions)),
        tuple((f"s{k}", e.rel) for k, e in enumerate(relabelings)),
    )
    results = []
    called = called_codes(lambda: results.extend(search_products() + search_products(*seeded)))
    labelers = {components, is_complete, action._orbits.__wrapped__}
    assert search_products.__code__ in called
    assert not called & {f.__code__ for f in labelers}
    default_pools = default_position_pool(), default_relabel_pool()
    positions, relabels = (dict(default + pool) for default, pool in zip(default_pools, seeded))
    for res in results:
        factors = (
            generate_position(map(positions.get, res.position_names)),
            generate_relabel(map(relabels.get, res.relabel_names)),
        )
        product = direct_product(*factors)
        assert res.complete == is_complete(product)
        assert res.orbit_count == orbits(product).block_count
    assert {res.complete for res in results} == {True, False}


def test_is_complete():
    assert is_complete(full_group())
    # neither factor alone is complete
    assert not is_complete(position_group())
    assert not is_complete(relabel_group())


def test_is_complete_matches_the_burnside_count():
    # is_complete compares labeled orbits; burnside_orbit_count runs on the
    # cocycle and labels nothing, and a subgroup's orbits refine the full
    # group's two, so it is complete iff the count is 2
    def subsets(pool):
        return [subset for size in range(len(pool) + 1) for subset in combinations(pool, size)]

    groups = [
        direct_product(generate_position(p for _, p in ps), generate_relabel(p for _, p in rs))
        for ps in subsets(default_position_pool())
        for rs in subsets(default_relabel_pool())
    ]
    elements = full_group().sorted_elements()
    rng = random.Random(13)
    groups += [generate(rng.sample(elements, rng.randint(1, 3))) for _ in range(60)]
    rt_s4 = named_group("rtxS4")
    assert rt_s4.order == 192 and orbits(rt_s4).block_count == 5
    groups.append(rt_s4)
    verdicts = set()
    for g in groups:
        complete = burnside_orbit_count(g) == 2
        assert is_complete(g) == complete
        verdicts.add(complete)
    assert verdicts == {True, False}
    assert not is_complete(rt_s4)


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
    graph = orbit_graph(g.generators)
    components = {frozenset(c) for c in graph.components()}
    assert components == {frozenset(b) for b in full_partition().blocks}
    assert len(graph.edges) == 288 * len(g.generators)


def test_orbit_graph_components_match_oracle_in_order():
    t = SymmetryElement.from_position(gen_t())
    c123 = SymmetryElement.from_relabeling(relabeling("(1 2 3)"))
    for gens in (
        full_group().generators,
        generate_position([gen_r(), gen_t()]).generators,
        # the same generator twice, under one label, still gives two maps
        [t, c123, t],
        [c123],
    ):
        graph = orbit_graph(gens)
        want = oracle_components(graph.nodes, [(e.src, e.dst) for e in graph.edges])
        assert graph.components() == want


def test_orbit_graph_edges_match_the_action_oracle():
    mixed = SymmetryElement(gen_r(), relabeling("(1 2 4)"))
    gens = (mixed, *full_group().generators)
    graph = orbit_graph(gens)
    by_label = {element_label(e): e for e in gens}
    assert len(by_label) == len(gens) and len(graph.edges) == 288 * 8
    for edge in graph.edges:
        assert edge.dst.values == oracle_apply(by_label[edge.label], edge.src.values)


def test_orbit_graph_rejects_elements_outside_the_full_group():
    swap12 = SymmetryElement.from_position(Perm.from_cycles("(1 2)", 16))
    message = r"^symmetry pos=\(1 2\); rel= moves a board to \d{16}, not a valid board$"
    with pytest.raises(ValueError, match=message):
        orbit_graph([swap12])


def test_orbit_graph_empty_generators():
    graph = orbit_graph(())
    assert graph.component_count == 288
    assert graph.edges == ()


def test_orbit_graph_involution_edges_marked_undirected():
    graph = orbit_graph(full_group().generators)
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


def test_orbit_graph_edges_carry_element_labels():
    graph = orbit_graph(full_group().generators)
    labels = [e.label for e in graph.edges[::288]]
    assert labels == ["r", "s", "t", "(1 2)", "(2 3)", "(3 4)", "(1 4)"]
    assert labels == list(map(element_label, full_group().generators))
