import pytest

from shidoku.perm import Perm, SymmetryElement, gen_r, gen_r2, gen_s, gen_t, relabeling
from shidoku.group import (
    SymmetryGroup,
    direct_product,
    generate,
    generate_position,
    generate_relabel,
)
from shidoku.action import full_partition, is_complete, orbits
from shidoku.search import (
    default_position_pool,
    default_relabel_pool,
    minimal_order,
    parse_pool_file,
    search_products,
)


def position_gens(res, pool=None):
    """res's position generators: its names read through the position pool."""
    return [dict(pool or default_position_pool())[name] for name in res.position_names]


def relabel_gens(res, pool=None):
    """res's relabel generators: its names read through the relabel pool."""
    return [dict(pool or default_relabel_pool())[name] for name in res.relabel_names]


def result_for(results, positions, relabelings):
    """Find the result whose generated factor groups match the given ones."""
    want_pos = generate_position(positions).elements
    want_rel = generate_relabel(relabelings).elements
    for res in results:
        if (
            generate_position(position_gens(res)).elements == want_pos
            and generate_relabel(relabel_gens(res)).elements == want_rel
        ):
            return res
    raise AssertionError("expected group pair not found in search results")


def test_minimal_order():
    assert minimal_order() == max(full_partition().sizes())
    assert 3072 % minimal_order() == 0


@pytest.fixture(scope="module")
def results():
    return search_products()


def test_search_finds_the_known_products(results):
    s4_gens = [p for _, p in default_relabel_pool()[:4]]
    res = result_for(results, [gen_s(), gen_t()], s4_gens)
    assert res.order == 192 and res.complete and res.minimal

    res = result_for(results, [gen_r(), gen_s()], [relabeling("(1 2 3)")])
    assert res.order == 192 and res.complete and res.minimal

    res = result_for(results, [gen_r2(), gen_s(), gen_t()], [relabeling("(1 2 3)")])
    assert res.order == 192 and res.complete and res.minimal

    res = result_for(results, [gen_r(), gen_t()], s4_gens)
    assert res.order == 192 and not res.complete and not res.minimal

    res = result_for(results, [gen_r(), gen_s(), gen_t()], [relabeling("(1 2 3)")])
    assert res.order == 384 and res.complete and not res.minimal


def test_no_complete_result_below_the_bound(results):
    for res in results:
        if res.complete:
            assert res.order >= minimal_order()
        assert res.minimal == (res.complete and res.order == minimal_order())


def test_complete_results_have_the_full_partition(results):
    sample = [res for res in results if res.complete][:5]
    for res in sample:
        g = direct_product(
            generate_position(position_gens(res)), generate_relabel(relabel_gens(res))
        )
        assert orbits(g) == full_partition()
        assert orbits(g).block_count == res.orbit_count


def test_search_deduplicates_by_element_sets(results):
    keys = set()
    for res in results:
        key = (
            generate_position(position_gens(res)).elements,
            generate_relabel(relabel_gens(res)).elements,
        )
        assert key not in keys
        keys.add(key)
    assert len(results) == 156  # distinct factor-group pairs from the default pools


def test_search_is_deterministic(results):
    assert search_products() == results


def test_search_orders_are_products_of_factor_orders(results):
    for res in results:
        pos_order = generate_position(position_gens(res)).order
        rel_order = generate_relabel(relabel_gens(res)).order
        assert res.order == pos_order * rel_order


def test_search_with_custom_pools():
    results = search_products(
        position_pool=(("s", gen_s()), ("t", gen_t())),
        relabel_pool=(("(1 2 3)", relabeling("(1 2 3)")),),
    )
    assert len(results) == 8  # 4 position subgroups x 2 relabel subgroups
    orders = sorted(res.order for res in results)
    assert orders == [1, 2, 2, 3, 6, 6, 8, 24]
    assert not any(res.complete for res in results)


def test_search_with_custom_pools_matches_orbits_of_each_product():
    # the shared per-generator images give each product's own orbits
    position_pool = (("r2", gen_r2()), ("s", gen_s()), ("t", gen_t()), ("rs", gen_r() * gen_s()))
    relabel_pool = (("(1 2 3 4)", relabeling("(1 2 3 4)")), ("(1 2 3)", relabeling("(1 2 3)")))
    results = search_products(position_pool, relabel_pool)
    assert any(res.complete for res in results) and not all(res.complete for res in results)
    for res in results:
        product = direct_product(
            generate_position(position_gens(res, position_pool)),
            generate_relabel(relabel_gens(res, relabel_pool)),
        )
        partition = orbits(product)
        assert res.orbit_count == partition.block_count
        assert res.complete == (partition == full_partition())


def test_parse_pool_file():
    text = "# comment\nr=(1 4 16 13)(2 8 15 9)(3 12 14 5)(6 7 11 10)\n\ns=(9 13)(10 14)(11 15)(12 16)\n"
    pool = parse_pool_file(text, 16)
    assert [name for name, _ in pool] == ["r", "s"]
    assert pool[0][1] == gen_r()
    assert pool[1][1] == gen_s()


@pytest.mark.parametrize("text", ["", "# nothing\n", "r\n", "=(1 2)\n", "x=(1 99)\n"])
def test_parse_pool_file_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_pool_file(text, 16)


def test_a_complete_group_of_order_384_is_minimal_by_inclusion():
    # search's "minimal" means order 192; this complete group of order 384
    # (an order-32 position group times A4) has no complete proper subgroup
    gens = [
        SymmetryElement(Perm.from_cycles(pos, 16), Perm.from_cycles(rel, 4))
        for pos, rel in (
            ("(1 8 11 13 6 3 16 10)(2 4 12 9 5 7 15 14)", "(2 3 4)"),
            ("(1 11 6 16)(2 15 5 12)(3 7 8 4)(9 10 14 13)", "(1 3 2)"),
        )
    ]
    group = generate(gens)
    assert group.order == 384 and is_complete(group)
    # a complete group has an orbit of 192 boards, so a complete proper
    # subgroup would have index 2: the kernel of a map onto C2, fixed by
    # the generators' parities; a BFS over products finds every such map
    identity = SymmetryElement(Perm.identity(16), Perm.identity(4))
    kernels = []
    for parities in ((0, 1), (1, 0), (1, 1)):
        parity, queue, conflict = {identity: 0}, [identity], False
        for x in queue:
            for g, bit in zip(gens, parities):
                y, want = g * x, parity[x] ^ bit
                if y not in parity:
                    parity[y] = want
                    queue.append(y)
                conflict |= parity[y] != want
        assert len(parity) == 384
        if not conflict:
            kernels.append(SymmetryGroup([x for x, bit in parity.items() if bit == 0], ()))
    assert len(kernels) == 3
    for kernel in kernels:
        assert kernel.order == 192 and not is_complete(kernel)
        # four orbits, two of 48 boards and two of 96
        assert sorted(orbits(kernel).sizes()) == [48, 48, 96, 96]
