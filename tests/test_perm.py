import random
from itertools import permutations

import pytest

from shidoku.board import cell_at, coords
from shidoku.perm import (
    RELABEL_GENERATOR_NAMES,
    Perm,
    SymmetryElement,
    gen_r,
    gen_r2,
    gen_s,
    gen_t,
    grid_perm,
    relabeling,
)
from shidoku.group import position_group
from shidoku.action import is_position_symmetry
from shidoku.verify import run_checks
from helpers import oracle


def word(*letters: Perm) -> Perm:
    out = Perm.identity(letters[0].degree)
    for letter in letters:
        out = out * letter
    return out


def test_rotation_is_the_clockwise_grid_map():
    r = gen_r()
    for cell in range(1, 17):
        i, j = coords(cell)
        assert r(cell) == cell_at(j, 5 - i)
    assert r.order() == 4


def test_compose_right_factor_first():
    r, t = gen_r(), gen_t()
    for i in range(1, 17):
        assert (t * r)(i) == t(r(i))


def test_inverse():
    r, s = gen_r(), gen_s()
    assert s.inverse() == s
    assert r.inverse() == word(r, r, r)
    assert Perm.identity(16).inverse() == Perm.identity(16)
    assert (r * r.inverse()).is_identity


def test_orders():
    assert gen_r().order() == 4
    assert gen_r2().order() == 2
    assert gen_s().order() == 2
    assert Perm.identity(4).order() == 1


def test_cycle_notation_identity_is_empty():
    assert Perm.identity(16).cycle_notation() == ""
    assert str(Perm.identity(16)) == "()"


def test_parse_cycles_known_generators():
    assert Perm.from_cycles("(9 13)(10 14)(11 15)(12 16)", 16) == gen_s()
    assert Perm.from_cycles("(2 5)(3 9)(4 13)(7 10)(8 14)(12 15)", 16) == gen_t()
    assert Perm.from_cycles("", 16) == Perm.identity(16)
    assert Perm.from_cycles("()", 16) == Perm.identity(16)


def test_cycle_roundtrip_over_whole_position_group():
    for e in position_group().sorted_elements():
        p = e.pos
        assert Perm.from_cycles(p.cycle_notation(), 16) == p


@pytest.mark.parametrize(
    "text",
    # int() reads the Arabic-Indic digits as 1 and 2: only ASCII digits are digits
    ["(17 2)", "(0 1)", "(1 2)(2 3)", "(1 1)", "(1 2", "1 2)", "(1 a)", "junk", "(\u0661 \u0662)", "(1 \u0662)(3 4)"],
)
def test_parse_cycles_rejects_malformed(text):
    with pytest.raises(ValueError):
        Perm.from_cycles(text, 16)


def test_perm_rejects_non_bijection():
    with pytest.raises(ValueError):
        Perm((1, 1, 3, 4))
    with pytest.raises(ValueError):
        Perm((0, 1, 2, 3))


def test_compose_rejects_degree_mismatch():
    with pytest.raises(ValueError):
        gen_s() * relabeling("(1 2)")


@pytest.mark.parametrize("a, b", [(0, 1), (1, 0), (1, 2), (2, 1), (0, 16), (4, 16)])
def test_compose_rejects_degree_mismatch_in_every_degree(a, b):
    with pytest.raises(ValueError, match="cannot compose permutations of different degrees"):
        Perm.identity(a) * Perm.identity(b)


@pytest.mark.parametrize("degree", [0, 1])
def test_compose_in_degrees_zero_and_one(degree):
    # a one-index gather returns a scalar and an empty one raises: the
    # only permutation of degree 0 or 1 is the identity, its own product
    p = Perm.identity(degree)
    product = p * p
    assert product == p and type(product) is Perm
    assert product.image == tuple(range(1, degree + 1)) and type(product.image) is tuple
    assert product.is_identity and product.order() == 1


def test_memoised_products_stay_right_past_the_cache_bound():
    rng = random.Random(19)
    maxsize = Perm.__mul__.cache_info().maxsize
    points = list(range(1, 17))
    pairs = set()
    while len(pairs) <= maxsize + 500:
        pairs.add((tuple(rng.sample(points, 16)), tuple(rng.sample(points, 16))))
    for a, b in [*pairs, *rng.sample(sorted(pairs), 500)]:  # misses, then hits and misses
        product = Perm(a) * Perm(b)
        assert product.image == oracle.compose(a, b)
        assert type(product) is Perm and type(product.image) is tuple
    assert Perm.__mul__.cache_info().currsize <= maxsize
    for _ in range(2):  # a failed product is not cached: it raises again
        with pytest.raises(ValueError, match="cannot compose permutations of different degrees"):
            gen_s() * relabeling("(1 2)")


def test_the_product_cache_holds_every_pair_verify_multiplies():
    Perm.__mul__.cache_clear()
    assert run_checks(write=lambda line: None)
    info = Perm.__mul__.cache_info()
    assert info.misses == info.currsize  # nothing was evicted
    assert info.hits >= 50 * info.misses


def test_grid_perm_matches_row_swap():
    assert grid_perm(Perm.from_cycles("(3 4)", 4), Perm.identity(4)) == gen_s()
    assert grid_perm(Perm.identity(4), Perm.identity(4)).is_identity


def test_generators_preserve_validity_on_every_board():
    for p in (gen_r(), gen_s(), gen_t(), gen_r2()):
        assert is_position_symmetry(p)


def test_symmetry_element_algebra():
    e = SymmetryElement(gen_t(), relabeling("(2 3)"))
    assert (e * e.inverse()).is_identity
    assert SymmetryElement.identity().is_identity
    a = SymmetryElement.from_position(gen_r())
    b = SymmetryElement.from_relabeling(relabeling("(1 2 3)"))
    ab = a * b
    assert ab.pos == gen_r() and ab.rel == relabeling("(1 2 3)")


def test_trusted_products_equal_validated_perms():
    # products and inverses skip validation; they must equal what the
    # validating constructors build from the same images (which still
    # reject bad images: test_perm_rejects_non_bijection and
    # test_symmetry_element_rejects_wrong_degrees)
    positions = position_group().sorted_elements()
    for a in positions:
        assert a.pos.inverse() == Perm(a.pos.inverse().image)
        assert a.inverse() == SymmetryElement(a.pos.inverse(), Perm.identity(4))
        for b in positions:
            product = a.pos * b.pos
            assert product == Perm(product.image)
            assert hash(product) == hash(Perm(product.image))
            assert product.image == tuple(a.pos(b.pos(i)) for i in range(1, 17))
    rel = relabeling("(1 2 3)")
    e = SymmetryElement(gen_r(), rel) * SymmetryElement(gen_t(), rel)
    assert e == SymmetryElement(Perm((gen_r() * gen_t()).image), Perm((rel * rel).image))


def test_symmetry_element_rejects_wrong_degrees():
    with pytest.raises(ValueError):
        SymmetryElement(relabeling("(1 2)"), relabeling("(1 2)"))


def test_relabel_generators_are_the_four_transpositions():
    names = [p.cycle_notation() for p in map(relabeling, RELABEL_GENERATOR_NAMES)]
    assert names == ["(1 2)", "(2 3)", "(3 4)", "(1 4)"]


# Perm and SymmetryElement are immutable tuple records.


def test_records_hash_as_their_field_tuples():
    # the frozen dataclasses' hash, so set and dict order, and every
    # output built from it, stay as they were
    rel = relabeling("(1 2 3)")
    for p in (gen_r(), rel, Perm.identity(4)):
        assert hash(p) == hash((p.image,))
    e = SymmetryElement(gen_t(), rel)
    assert hash(e) == hash((gen_t(), rel))


def test_records_reject_field_assignment():
    e = SymmetryElement(gen_t(), relabeling("(1 2)"))
    with pytest.raises(AttributeError):
        e.pos.image = gen_r().image
    with pytest.raises(AttributeError):
        e.rel = relabeling("(2 3)")
    with pytest.raises(AttributeError):
        e.extra = 1


def test_keyword_and_replaced_records_are_validated():
    with pytest.raises(ValueError, match=r"^not a bijection on 1\.\.4: \(1, 1, 3, 4\)$"):
        Perm(image=(1, 1, 3, 4))
    with pytest.raises(ValueError, match=r"^not a bijection on 1\.\.4: "):
        relabeling("(1 2)")._replace(image=(0, 1, 2, 3))
    wrong = r"^symmetry element wants \(degree-16, degree-4\) parts$"
    with pytest.raises(ValueError, match=wrong):
        SymmetryElement(pos=relabeling("(1 2)"), rel=relabeling("(1 2)"))
    with pytest.raises(ValueError, match=wrong):
        SymmetryElement.identity()._replace(rel=gen_r())
    assert Perm(image=gen_r().image) == gen_r()
    assert SymmetryElement(pos=gen_t(), rel=Perm.identity(4)) == SymmetryElement.from_position(gen_t())


def test_records_sort_by_their_field_tuples():
    perms = [Perm(image) for image in permutations((1, 2, 3, 4))][::-1]
    assert sorted(perms) == sorted(perms, key=lambda p: p.image)
    elements = [SymmetryElement(x, sigma) for sigma in perms[:6] for x in (gen_t(), gen_r(), gen_s())]
    assert sorted(elements) == sorted(elements, key=lambda e: (e.pos.image, e.rel.image))
