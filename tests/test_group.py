import random
from collections import Counter
from itertools import combinations

import pytest

from shidoku import group as group_module
from shidoku import search
from shidoku.action import apply_values, is_complete, orbits
from shidoku.board import Board, board_numbers, enumerate_all
from shidoku.burnside import burnside_orbit_count
from shidoku.perm import (
    Perm,
    SymmetryElement,
    apply_batch,
    gen_r,
    gen_r2,
    gen_s,
    gen_t,
    relabeling,
)
from shidoku.group import (
    RELABELINGS,
    SymmetryGroup,
    cocycle,
    conjugacy_classes,
    direct_product,
    element,
    element_number,
    factor_tables,
    full_group,
    generate,
    generate_position,
    generate_relabel,
    image,
    named_group,
    parse_group_description,
    position_group,
    relabel_group,
    trivial_group,
)
from shidoku.search import default_position_pool, default_relabel_pool
from helpers import (
    format_group_description,
    is_subgroup,
    oracle_closure,
    oracle_orbits,
    position_parts,
    relabel_parts,
)


@pytest.mark.parametrize(
    "spec, order",
    [
        ("full", 3072),
        ("trivial", 1),
        ("H4", 128),
        ("st", 8),
        ("rs", 64),
        ("rt", 8),
        ("r2st", 64),
        ("S4", 24),
        ("c123", 3),
        ("stxS4", 192),
        ("rtxS4", 192),
        ("rsxc123", 192),
        ("r2stxc123", 192),
        ("H4xc123", 384),
        ("H4xS4", 3072),
    ],
)
def test_named_group_orders(spec, order):
    assert named_group(spec).order == order


@pytest.mark.parametrize("spec", ["S4xH4", "c123xst", "stxH4", "fullxS4", "x", "", "nonsense"])
def test_named_group_rejects_non_shorthands(spec):
    assert named_group(spec) is None


def test_direct_product_rejects_mixed_factors():
    mixed = generate([SymmetryElement(gen_t(), relabeling("(2 3)"))])
    with pytest.raises(ValueError):
        direct_product(mixed, relabel_group())
    with pytest.raises(ValueError):
        direct_product(position_group(), mixed)


def test_factor_table_products_match_perm_products():
    position, relabel = factor_tables()
    assert (len(position.elements), len(relabel.elements)) == (128, 24)
    for table in (position, relabel):
        assert list(table.elements) == sorted(table.elements)
        for a, x in enumerate(table.elements):
            assert table.numbers[x] == a
            for b, y in enumerate(table.elements):
                assert table.elements[table.products[a][b]] == x * y


def test_factor_table_inverses_are_the_inverses_of_every_element():
    for table in factor_tables():
        assert len(table.inverses) == len(table.elements)
        for a, b in enumerate(table.inverses):
            assert table.products[a][b] == table.products[b][a] == 0
    for n in range(3072):
        assert group_module._inverse(n) == element_number(element(n).inverse())


def test_factor_table_images_match_apply_on_every_board():
    numbers = board_numbers()
    position, relabel = factor_tables()
    for table, make in ((position, SymmetryElement.from_position), (relabel, SymmetryElement.from_relabeling)):
        for e, row in zip(map(make, table.elements), table.images, strict=True):
            assert row == tuple(numbers[apply_values(e, b.values)] for b in enumerate_all())


def test_images_of_every_element_match_apply_on_every_board():
    # mixed elements too: image(n) reads the position image through the relabel image
    numbers, boards = board_numbers(), [b.values for b in enumerate_all()]
    for n in range(3072):
        assert image(n) == tuple(numbers[values] for values in apply_batch(element(n), boards))


def test_element_number_names_the_first_board_a_mixed_element_breaks():
    e = SymmetryElement(Perm.from_cycles("(1 2)", 16), relabeling("(1 2 3)"))
    moved = [apply_values(e, b.values) for b in enumerate_all()]
    first = next(values for values in moved if values not in board_numbers())
    with pytest.raises(ValueError) as raised:
        element_number(e)
    assert str(raised.value) == f"symmetry {e} moves a board to {Board(first)}, not a valid board"
    assert str(raised.value) == (
        "symmetry pos=(1 2); rel=(1 2 3) moves a board to 3214142332414132, not a valid board"
    )


def test_element_numbers_sort_as_elements():
    elements = [element(n) for n in range(3072)]
    assert elements == sorted(elements)
    assert [element_number(e) for e in elements] == list(range(3072))
    assert full_group().sorted_elements() == elements


def test_generate_matches_closure_oracle_on_default_pool_subsets():
    cases = [
        [*map(make, (p for _, p in subset))]
        for pool, make in (
            (default_position_pool(), SymmetryElement.from_position),
            (default_relabel_pool(), SymmetryElement.from_relabeling),
        )
        for size in range(len(pool) + 1)
        for subset in combinations(pool, size)
    ]
    assert len(cases) == 16 + 32
    for gens in cases:
        want = oracle_closure(gens)
        got = generate(gens)
        assert got.elements == want
        assert got.order == len(want)


def test_generate_matches_closure_oracle_on_random_mixed_elements():
    elements = full_group().sorted_elements()
    rng = random.Random(11)
    for _ in range(40):
        gens = rng.sample(elements, rng.choice((1, 2)))
        want = oracle_closure(gens)
        got = generate(gens)
        assert got.elements == want
        assert got.order == len(want)


def test_closure_by_cosets_matches_oracle_on_0_to_4_generators():
    # a repeated generator and the identity among the generators change nothing
    elements = full_group().sorted_elements()
    identity = SymmetryElement.identity()
    rng = random.Random(12)
    for size in range(5):
        for _ in range(4):
            gens = rng.sample(elements, size)
            want = oracle_closure(gens)
            padded = gens + rng.sample(gens, min(size, 1)) + [identity]
            rng.shuffle(padded)
            assert generate(gens).elements == want
            assert generate(padded).elements == want
    assert generate([identity, identity]) == trivial_group()


@pytest.mark.parametrize(
    "gens",
    [
        # (s, (1 2)) * (s, id) = (1, (1 2))
        [(gen_s(), "(1 2)"), (gen_s(), "")],
        # (r, (1 2 3)) ** 4 = (1, (1 2 3)), one generator alone
        [(gen_r(), "(1 2 3)")],
        # no generator or product of two is a non-identity relabel-only
        # element, yet |K| = 3
        [(gen_r(), "(1 2)"), (gen_t(), "(1 3)")],
        [(gen_s(), "(1 2 3 4)"), (gen_t(), "(1 3)"), (gen_r2(), "(2 4)")],
        # both over r: K is the Klein four-group, which the Schreier
        # generators u^-1 t give; u t would give only half of it
        [(gen_r(), "(1 2 3 4)"), (gen_r(), "(1 3)")],
    ],
)
def test_closure_reaches_relabel_only_elements_through_mixed_generators(gens):
    gens = [SymmetryElement(x, relabeling(rel) if rel else Perm.identity(4)) for x, rel in gens]
    assert not any(e.pos.is_identity for e in gens)
    want = oracle_closure(gens)
    got = generate(gens)
    assert got.elements == want
    kernel = {e.rel for e in want if e.pos.is_identity}
    assert len(kernel) > 1
    # |G| = |position projection| * |relabel-only kernel|
    assert got.order == len(position_parts(got)) * len(kernel)
    assert len(position_parts(got)) == len({e.pos for e in want})


def _perm_closure(perms: list[Perm]) -> frozenset[Perm]:
    """The group perms generate, closed under Perm products: no factor table."""
    closed = [Perm.identity(4)]
    for p in closed:
        closed += {g * p for g in perms}.difference(closed)
    return frozenset(closed)


def test_join_reaches_the_30_subgroups_of_s4_as_perm_products_close_them():
    relabelings = factor_tables()[1].elements
    subgroups = [frozenset({0})]
    for kernel in subgroups:
        for s in range(RELABELINGS):
            joined = group_module._join(kernel, s)
            want = _perm_closure([relabelings[k] for k in kernel] + [relabelings[s]])
            assert {relabelings[k] for k in joined} == want
            if joined not in subgroups:
                subgroups.append(joined)
    orders = Counter(map(len, subgroups))
    assert orders == {1: 1, 2: 9, 3: 4, 4: 7, 6: 4, 8: 3, 12: 1, 24: 1}
    assert group_module._join.cache_info().currsize <= 30 * RELABELINGS


def test_kernel_is_the_relabel_only_part_of_the_oracle_closure():
    relabelings = factor_tables()[1].elements
    elements = full_group().sorted_elements()
    mixed = [e for e in elements if not e.pos.is_identity and not e.rel.is_identity]
    rng = random.Random(15)
    kernels = Counter()
    for _ in range(200):
        gens = rng.sample(mixed, rng.randint(1, 3))
        want = {e.rel for e in oracle_closure(gens) if e.pos.is_identity}
        kernel = generate(gens).kernel
        assert {relabelings[k] for k in kernel} == want
        kernels[len(kernel)] += 1
    assert len(kernels) > 3  # trivial, small and large kernels all occur


def _evaluated_products(monkeypatch) -> list[tuple[SymmetryGroup, SymmetryGroup, SymmetryGroup]]:
    """(position factor, relabel factor, product) for every direct product
    search_products() builds, in order."""
    made = []

    def recording(h, s):
        made.append((h, s, direct_product(h, s)))
        return made[-1][2]

    monkeypatch.setattr(search, "direct_product", recording)
    search.search_products()
    monkeypatch.undo()
    return made


def test_closure_facts_match_the_number_set(monkeypatch):
    # order, kernel and the factor tests are read off the stored closure;
    # each must agree with the element numbers it stands for
    subsets = [
        generate(map(make, (p for _, p in subset)))
        for pool, make in (
            (default_position_pool(), SymmetryElement.from_position),
            (default_relabel_pool(), SymmetryElement.from_relabeling),
        )
        for size in range(len(pool) + 1)
        for subset in combinations(pool, size)
    ]
    products = _evaluated_products(monkeypatch)
    assert len(subsets) == 48 and len(products) > 48
    elements = full_group().sorted_elements()
    rng = random.Random(13)
    mixed = [generate(rng.sample(elements, rng.choice((1, 2)))) for _ in range(40)]
    groups = subsets + [product for _, _, product in products] + mixed
    for g in groups:
        numbers = g.numbers
        assert g.order == len(numbers)
        assert g.kernel == {n for n in numbers if n < 24}
        assert g.is_position_only() == all(n % 24 == 0 for n in numbers)
        assert g.is_relabel_only() == all(n < 24 for n in numbers)
    for h, s, product in products:
        assert product.numbers == {x + sigma for x in h.numbers for sigma in s.numbers}
    assert any(not g.is_position_only() and not g.is_relabel_only() for g in mixed)


def test_queries_and_search_build_no_number_set(monkeypatch):
    numbers, builds = group_module._numbers, []

    def counting(section, kernel):
        builds.append(len(section) * len(kernel))
        return numbers(section, kernel)

    elements = full_group().sorted_elements()
    monkeypatch.setattr(group_module, "_numbers", counting)
    rng = random.Random(14)
    for _ in range(20):
        g = generate(rng.sample(elements, rng.choice((1, 2))))
        orbits(g), burnside_orbit_count(g), is_complete(g)
    search.search_products()
    assert builds == []
    first = g.numbers
    assert builds == [g.order]
    assert g.numbers is first
    assert builds == [g.order]


def test_hand_built_group_checks_its_generators():
    full = full_group()
    assert SymmetryGroup(full.elements, full.generators) == full
    with pytest.raises(ValueError, match=r"^generators generate 4 elements, not the 3072 given$"):
        SymmetryGroup(full.elements, full.generators[:1])


@pytest.mark.parametrize(
    "group",
    [
        trivial_group(),
        generate_position([gen_s(), gen_t()]),
        generate_position([gen_r(), gen_t()]),
        generate_relabel([relabeling("(1 2 3)")]),
        relabel_group(),
    ],
)
def test_group_axioms(group):
    elements = group.elements
    assert SymmetryElement.identity() in elements
    for a in elements:
        assert a.inverse() in elements
        for b in elements:
            assert a * b in elements


def test_orders_divide_full_group_order():
    pool = [gen_r(), gen_r2(), gen_s(), gen_t()]
    for size in range(len(pool) + 1):
        for subset in combinations(pool, size):
            assert 3072 % generate_position(subset).order == 0


def test_conjugacy_classes_swap_transpose():
    group = generate_position([gen_s(), gen_t()])
    classes = conjugacy_classes(group)
    union = set()
    for c in classes:
        union |= c
    assert union == set(group.elements)


def test_conjugacy_classes_match_conjugation_by_every_element_in_order():
    rng = random.Random(5)
    elements = full_group().sorted_elements()
    groups = [named_group(spec) for spec in ("H4", "st", "stxS4", "rtxS4", "r2stxc123")]
    groups += [generate(rng.sample(elements, 2)) for _ in range(3)]
    for group in groups:
        members = group.sorted_elements()
        want = []
        for e in members:
            if not any(e in c for c in want):
                want.append(frozenset(c * e * c.inverse() for c in members))
        classes = conjugacy_classes(group)
        assert list(classes) == want


def test_generators_position_parts_generate_the_position_projection():
    rng = random.Random(6)
    elements = full_group().sorted_elements()
    groups = [named_group(spec) for spec in ("full", "stxS4", "rsxc123", "S4")]
    groups += [generate(rng.sample(elements, rng.choice((1, 2)))) for _ in range(10)]
    for group in groups:
        projection = generate_position(position_parts(group))
        assert generate_position(e.pos for e in group.generators) == projection


def test_conjugacy_classes_trivial():
    classes = conjugacy_classes(trivial_group())
    assert len(classes) == 1 and len(classes[0]) == 1


def test_conjugacy_class_counts():
    assert len(conjugacy_classes(relabel_group())) == 5
    # product classes are pairs of factor classes: 20 position classes * 5
    assert len(conjugacy_classes(full_group())) == 100


def test_conjugacy_class_sizes_divide_group_order():
    for group in (position_group(), relabel_group()):
        classes = conjugacy_classes(group)
        assert sum(map(len, classes)) == group.order
        assert all(group.order % len(c) == 0 for c in classes)


def test_is_subgroup():
    st = generate_position([gen_s(), gen_t()])
    rs = generate_position([gen_r(), gen_s()])
    r2st = generate_position([gen_r2(), gen_s(), gen_t()])
    assert is_subgroup(st, position_group())
    assert not is_subgroup(r2st, rs)
    assert SymmetryElement.from_position(gen_t()) not in rs
    assert SymmetryElement.from_position(Perm.from_cycles("(1 2)", 16)) not in full_group()
    assert is_subgroup(full_group(), full_group())


def test_r2st_differs_from_full_positions_but_is_half_the_size():
    r2st = generate_position([gen_r2(), gen_s(), gen_t()])
    assert r2st.elements != position_group().elements
    assert is_subgroup(r2st, position_group())
    assert r2st.order * 2 == position_group().order


def test_projection_helpers():
    st = generate_position([gen_s(), gen_t()])
    assert st.is_position_only() and not st.is_relabel_only()
    assert relabel_group().is_relabel_only()
    product = direct_product(st, relabel_group())
    assert len(position_parts(product)) == 8
    assert len(relabel_parts(product)) == 24


def test_group_description_roundtrip():
    gens = [
        SymmetryElement(gen_s(), Perm.identity(4)),
        SymmetryElement(Perm.identity(16), relabeling("(1 2 3)")),
    ]
    text = format_group_description(gens)
    assert text.splitlines()[0] == "generators:"
    assert parse_group_description(text) == gens
    assert generate(parse_group_description(text)).order == 6


@pytest.mark.parametrize(
    "text",
    [
        "",
        "pos=; rel=\n",
        "generators:\npos=(1 2)\n",
        "generators:\nrel=(1 2); pos=\n",
        "generators:\npos=(1 17); rel=\n",
        # exactly one of the two prefixes is wrong
        "generators:\npos=; rel:(1 2)\n",
        "generators:\npos:(1 2); rel=\n",
    ],
)
def test_group_description_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_group_description(text)


def test_cocycle_moves_each_nests_smallest_board_as_the_action_does():
    # x(b_i) = rho(b_j) under apply_values, b_i the smallest board of value
    # nest i with the nests from the oracle's orbits, not the factor tables
    boards, numbers = enumerate_all(), board_numbers()
    relabel_orbits = oracle_orbits(relabel_group().generators)
    firsts = sorted(min(numbers[b.values] for b in orbit) for orbit in relabel_orbits)
    moves, fixed, classes, centralizers = cocycle()
    for e in position_group().sorted_elements():  # r, s and t among them
        row = moves[element_number(e) // RELABELINGS]
        assert len(row) == len(firsts) == 12
        for i, (j, rho) in enumerate(row):
            moved = apply_values(element(rho), boards[firsts[j]].values)
            assert apply_values(e, boards[firsts[i]].values) == moved
    for row, nests in zip(moves, fixed):
        assert nests == tuple(rho for i, (j, rho) in enumerate(row) if i == j)
    assert sum(map(bool, fixed)) == 72
    # each relabeling's class, by its smallest member, and centralizer, by Perm products
    relabelings = factor_tables()[1].elements
    for r, sigma in enumerate(relabelings):
        conjugates = {relabelings.index(t * sigma * t.inverse()) for t in relabelings}
        assert classes[r] == min(conjugates)
        assert centralizers[r] == sum(t * sigma == sigma * t for t in relabelings)
