from itertools import combinations

import pytest

from shidoku.perm import Perm, SymmetryElement, gen_r, gen_r2, gen_s, gen_t, relabeling
from shidoku.group import (
    conjugacy_classes,
    direct_product,
    format_group_description,
    full_group,
    generate,
    generate_position,
    generate_relabel,
    is_subgroup,
    named_group,
    parse_group_description,
    position_group,
    relabel_group,
    trivial_group,
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
        assert c.representative == min(c.members)
        assert c.representative in c.members
        union |= set(c.members)
    assert union == set(group.elements)


def test_conjugacy_classes_trivial():
    classes = conjugacy_classes(trivial_group())
    assert len(classes) == 1 and classes[0].size == 1


def test_conjugacy_class_counts():
    assert len(conjugacy_classes(relabel_group())) == 5
    # product classes are pairs of factor classes: 20 position classes * 5
    assert len(conjugacy_classes(full_group())) == 100


def test_conjugacy_class_sizes_divide_group_order():
    for group in (position_group(), relabel_group()):
        classes = conjugacy_classes(group)
        assert sum(c.size for c in classes) == group.order
        assert all(group.order % c.size == 0 for c in classes)


def test_is_subgroup():
    st = generate_position([gen_s(), gen_t()])
    rs = generate_position([gen_r(), gen_s()])
    r2st = generate_position([gen_r2(), gen_s(), gen_t()])
    assert is_subgroup(st, position_group())
    assert not is_subgroup(r2st, rs)
    assert SymmetryElement.from_position(gen_t()) not in rs
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
    assert len(product.position_parts()) == 8
    assert len(product.relabel_parts()) == 24


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
    ],
)
def test_group_description_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_group_description(text)
