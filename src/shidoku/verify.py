"""End-to-end reproduction checks for the package's headline results.

This is where the paper's results are asserted together; the unit tests
check implementation properties (parsers, error paths, oracle
comparisons, algebraic laws), and a few of them pin one of these facts
again as such a test's expected value.  Each check
is exact (integer counts, set equality); there are no tolerances
anywhere.  The CLI `verify` subcommand and the acceptance test module
both run this list.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, NamedTuple

from .board import Board, board_numbers, count_with_ones_configuration, enumerate_all
from .perm import (
    Perm,
    SymmetryElement,
    apply_batch,
    gen_r,
    gen_s,
    gen_t,
    relabel_generators,
    relabeling,
)
from .group import (
    direct_product,
    element_number,
    factor_tables,
    full_group,
    generate_position,
    generate_relabel,
    image,
    named_group,
    position_group,
    relabel_group,
)
from .action import apply, apply_values, full_partition, is_complete, orbit_graph, orbits
from .burnside import (
    _fixing_rules,
    burnside_orbit_count,
    invariance_table,
    relabel_recovery,
    undo_row,
)
from .nests import (
    completeness_via_nests,
    h4_nest_graph,
    h4_nests,
    s4_nest_graph,
    s4_nest_of,
    s4_nests,
)
from .search import default_position_pool, default_relabel_pool, minimal_order

TYPE1_REPRESENTATIVE = "1234341221434321"
TYPE2_REPRESENTATIVE = "1234341223414123"


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def check_board_count() -> None:
    """Enumeration yields exactly 288 boards."""
    expect(len(enumerate_all()) == 288, f"expected 288 boards, got {len(enumerate_all())}")


def check_group_orders() -> None:
    """Generated subgroup orders: <r,s,t>=128, <r,t>=8, <r,s>=64, <s,t>=8, full=3072."""
    for spec, want in (("H4", 128), ("rt", 8), ("rs", 64), ("st", 8)):
        got = named_group(spec).order
        expect(got == want, f"|{spec}|: got {got}, want {want}")
    expect(full_group().order == 3072, f"full group order {full_group().order} != 3072")


def check_full_orbits() -> None:
    """The full group splits the boards into orbits of 96 and 192, separating
    the two representative boards."""
    part = full_partition()
    expect((sizes := part.sizes()) == (96, 192), f"full orbit sizes {sizes} != (96, 192)")
    b1 = Board.from_text(TYPE1_REPRESENTATIVE)
    b2 = Board.from_text(TYPE2_REPRESENTATIVE)
    expect(
        part.block_of(b1) != part.block_of(b2),
        "Type 1 and Type 2 representatives landed in the same orbit",
    )


def check_rotation_transpose_product() -> None:
    """<r,t> x S4 has order 192 but five orbits (minimal without being complete)."""
    g = named_group("rtxS4")
    expect(g.order == 192, f"|<r,t> x S4| = {g.order} != 192")
    count = orbits(g).block_count
    expect(count == 5, f"<r,t> x S4 orbit count {count} != 5")
    expect(not is_complete(g), "<r,t> x S4 should not be complete")


def check_complete_products() -> None:
    """The three order-192 complete products, plus the order-384 one."""
    for spec, want_order in (("rsxc123", 192), ("stxS4", 192), ("r2stxc123", 192), ("H4xc123", 384)):
        g = named_group(spec)
        expect(g.order == want_order, f"{spec}: order {g.order} != {want_order}")
        expect(is_complete(g), f"{spec}: expected complete")


def check_swap_transpose_classes() -> None:
    """<s,t> has classes {id},{s,tst},{t,sts},{st,ts},{stst} with invariant
    board counts 288, 0, 48, 0, 0."""
    s = SymmetryElement.from_position(gen_s())
    t = SymmetryElement.from_position(gen_t())
    identity = SymmetryElement.identity()
    st, ts = s * t, t * s
    sts, tst = s * t * s, t * s * t
    stst = st * st
    group = named_group("st")
    expect(
        group.elements == frozenset({identity, s, t, st, ts, sts, tst, stst}),
        "<s,t> element set is not {id, s, t, st, ts, sts, tst, stst}",
    )
    want = {
        frozenset({identity}): 288,
        frozenset({s, tst}): 0,
        frozenset({t, sts}): 48,
        frozenset({st, ts}): 0,
        frozenset({stst}): 0,
    }
    got = {cls.members: count for cls, count in invariance_table(group)}
    expect(got == want, f"conjugacy classes or invariant counts differ: {got}")


def check_burnside_cross() -> None:
    """Burnside count equals direct orbit count on five groups, and the
    <s,t> x S4 fixed-point total is 384 over 192 = 2."""
    for spec in ("full", "stxS4", "rtxS4", "H4xc123", "trivial"):
        g = named_group(spec)
        b = burnside_orbit_count(g)
        d = orbits(g).block_count
        expect(b == d, f"{spec}: burnside {b} != direct {d}")

    st_group = named_group("st")
    # a board invariant under x up to relabeling is fixed by one (x, sigma)
    total = sum(cls.size * count for cls, count in invariance_table(st_group))
    order = st_group.order * relabel_group().order
    expect(total == 384, f"fixed-point total {total} != 384")
    expect(order == 192, f"group order {order} != 192")
    expect(total // order == 2, f"{total}/{order} != 2")


def check_nests() -> None:
    """Twelve size-24 value nests and six position nests (32/64/32/64/64/32)
    with the expected canonical representatives; half-turn/swap/transpose
    position orbits coincide with the position nests."""
    value_nests = s4_nests()
    expect(len(value_nests) == 12, f"value nest count {len(value_nests)} != 12")
    expect(all(n.size == 24 for n in value_nests), "value nests must all have size 24")

    position_nests = h4_nests()
    want_sizes = {"a": 32, "b": 64, "c": 32, "d": 64, "e": 64, "f": 32}
    got_sizes = {n.label: n.size for n in position_nests}
    expect(got_sizes == want_sizes, f"position nest sizes {got_sizes} != {want_sizes}")

    expect(
        sorted(orbits(named_group("r2st")).blocks) == sorted(n.members for n in position_nests),
        "<r2,s,t> orbits differ from the position nests",
    )


def check_nest_graph_components() -> None:
    """Component counts of the quotient graphs: {s,t} gives 2 (sizes 8 and 4),
    {r,t} gives 5; {(12),(23)} and {(123)} each give 2."""
    g = s4_nest_graph([gen_s(), gen_t()])
    sizes = sorted(len(c) for c in g.components())
    expect(sizes == [4, 8], f"{{s,t}} component sizes {sizes} != [4, 8]")
    count = s4_nest_graph([gen_r(), gen_t()]).component_count
    expect(count == 5, f"{{r,t}} component count {count} != 5")
    count = h4_nest_graph([relabeling("(1 2)"), relabeling("(2 3)")]).component_count
    expect(count == 2, f"{{(12),(23)}} component count {count} != 2")
    count = h4_nest_graph([relabeling("(1 2 3)")]).component_count
    expect(count == 2, f"{{(123)}} component count {count} != 2")


def check_quotient_consistency() -> None:
    """Completeness via nest-graph components agrees with direct orbit
    computation for every subset of {r, r2, s, t} (paired with all
    relabelings) and every subset of the relabeling pool (paired with all
    position symmetries)."""
    from itertools import combinations

    cases = (
        ("position", default_position_pool(), lambda ps: (generate_position(ps), relabel_group())),
        ("relabel", default_relabel_pool(), lambda ps: (position_group(), generate_relabel(ps))),
    )
    for factor, pool, factors in cases:
        for size in range(len(pool) + 1):
            for subset in combinations(pool, size):
                perms = [p for _, p in subset]
                via_nests = completeness_via_nests(perms)
                direct = is_complete(direct_product(*factors(perms)))
                expect(
                    via_nests == direct,
                    f"{factor} gens {[n for n, _ in subset]}: nests say {via_nests}, orbits say {direct}",
                )


def check_fixing_rules_exhaustive() -> None:
    """The three fixing rules hold for every (position symmetry, invariant
    board) pair: a 128 x 288 scan.  The undo rows propose each pair and
    its relabeling sigma; apply confirms that (x, sigma) fixes the board,
    relabel_recovery that it finds sigma, and a total of 2 x 3072 = 6,144
    confirmed pairs (Burnside, two orbits) shows that no invariant pair
    was left out.  Each pair is confirmed on its own, one board per
    apply_values call; only what depends on x alone, its fixed cells and
    whether they cover a region, is found once per x (burnside._fixed_cells)."""
    boards = enumerate_all()
    position, relabel = factor_tables()
    pairs = 0
    for p, x in enumerate(position.elements):
        for k, r in enumerate(undo_row(p)):
            if not r:
                continue
            b, sigma = boards[k], relabel.elements[r - 1]
            moved = apply_values(SymmetryElement._trusted(x, sigma), b.values)
            if moved != b.values or relabel_recovery(x, b) != sigma:
                raise AssertionError(f"undo row: {sigma} does not undo x={x} on {b.text}")
            if not _fixing_rules(x, b, sigma):
                raise AssertionError(f"fixing rules fail for x={x} on {b.text}")
            pairs += 1
    want = 2 * full_group().order
    expect(pairs == want, f"{pairs} invariant pairs confirmed, not the {want} of two orbits")


def check_ones_configuration() -> None:
    """Exactly 18 boards put their 1s on cells 1, 7, 10, 16."""
    count = count_with_ones_configuration({1, 7, 10, 16})
    expect(count == 18, f"ones-configuration count {count} != 18")


def check_action_and_relations() -> None:
    """Generator relations and action laws.

    Relations: r^4 = s^2 = t^2 = (tr)^2 = (ts)^4 = (srsr^3)^2 = id and
    r^2 s r t s r^3 t = id, composed right factor first.  Action laws:
    the identity fixes every board; every generator sends every board to
    a valid board; the full group is closed under each generator; and
    apply(a * b, board) == apply(a, apply(b, board)) for every generator
    a and every full-group element b on the two orbit representatives
    (which extends to all pairs by induction on word length), and for
    all element pairs of the minimal complete group <s,t> x S4 on the
    Type 1 representative.  Products are made by SymmetryElement
    multiplication and images by apply_batch; the factor tables'
    generator images are compared with apply's, and no answer is read
    from the tables.
    """
    r, s, t = gen_r(), gen_s(), gen_t()

    def word(*letters: Perm) -> Perm:
        out = Perm.identity(16)
        for letter in letters:
            out = out * letter
        return out

    relations = {
        "r^4": word(r, r, r, r),
        "s^2": word(s, s),
        "t^2": word(t, t),
        "(tr)^2": word(t, r, t, r),
        "r^2 s r t s r^3 t": word(r, r, s, r, t, s, r, r, r, t),
        "(ts)^4": word(t, s, t, s, t, s, t, s),
        "(srsr^3)^2": word(s, r, s, r, r, r, s, r, s, r, r, r),
    }
    for name, value in relations.items():
        expect(value.is_identity, f"relation {name} does not hold: {value.cycle_notation()}")

    boards = [b.values for b in enumerate_all()]
    numbers = board_numbers()
    for values, moved in zip(boards, apply_batch(SymmetryElement.identity(), boards)):
        if moved != values:
            raise AssertionError(f"identity moved board {Board(values).text}")

    def numbered(e: SymmetryElement, batch: list[tuple[int, ...]]) -> list[int]:
        out = list(map(numbers.get, apply_batch(e, batch)))
        if None in out:
            b = Board(batch[out.index(None)])
            raise AssertionError(f"element {e} sends {b.text} off the boards")
        return out

    generators = [
        *map(SymmetryElement.from_position, (r, s, t)),
        *map(SymmetryElement.from_relabeling, relabel_generators()),
    ]
    moves = [numbered(e, boards) for e in generators]  # moves[g][k]: generator g's image of board k
    for e, row in zip(generators, moves):
        expect(row == list(image(element_number(e))), f"factor table image of {e} is not apply's")

    reps = (Board.from_text(TYPE1_REPRESENTATIVE), Board.from_text(TYPE2_REPRESENTATIVE))
    rep_values = [b.values for b in reps]
    elements = full_group().sorted_elements()
    index = {e: i for i, e in enumerate(elements)}
    images = [k for e in elements for k in numbered(e, rep_values)]
    on_reps = (images[0::2], images[1::2])  # on_reps[j][i]: element i's image of reps[j]
    for a, row in zip(generators, moves):
        ab = list(map(index.get, map(a.__mul__, elements)))  # ab[i]: the index of a * element i
        expect(None not in ab, "full group is not closed under a generator")
        for rep, on_rep in zip(reps, on_reps):
            if itemgetter(*ab)(on_rep) != itemgetter(*on_rep)(row):
                raise AssertionError(f"action law fails for generator pair on {rep.text}")

    minimal = named_group("stxS4").sorted_elements()
    minimal_index = {e: i for i, e in enumerate(minimal)}
    on_type1 = [on_reps[0][index[e]] for e in minimal]
    orbit = sorted(set(on_type1))  # Type 1's orbit, as <s,t> x S4 is complete
    orbit_values = [boards[k] for k in orbit]
    for a in minimal:
        a_moves = dict(zip(orbit, numbered(a, orbit_values)))  # a's image of each board in it
        ab = list(map(minimal_index.get, map(a.__mul__, minimal)))
        if None in ab or itemgetter(*ab)(on_type1) != itemgetter(*on_type1)(a_moves):
            raise AssertionError("action law fails inside <s,t> x S4")


def check_pinned_examples() -> None:
    """Remaining pinned facts not already under checks 1-13: generator
    cycle forms, the transpose-invariance example board, the 20-row
    invariance table, orbit-graph component counts, the known induced nest
    moves, and the order-192 completeness bound."""
    expect(
        gen_t().cycle_notation() == "(2 5)(3 9)(4 13)(7 10)(8 14)(12 15)",
        f"transpose cycle form changed: {gen_t().cycle_notation()}",
    )
    expect(
        gen_s().cycle_notation() == "(9 13)(10 14)(11 15)(12 16)",
        f"row-swap cycle form changed: {gen_s().cycle_notation()}",
    )

    expect(
        s4_nest_of(Board.from_text(TYPE2_REPRESENTATIVE)) == "I",
        "Type 2 representative is not in value nest I",
    )

    invariant_board = Board.from_text("1243342143122134")
    t_el = SymmetryElement.from_position(gen_t())
    expect(
        apply(t_el, invariant_board).text == "1342243142133124",
        "transpose image of the invariance example board changed",
    )
    sigma = relabel_recovery(gen_t(), invariant_board)
    expect(
        sigma is not None and sigma.cycle_notation() == "(2 3)",
        "recovering relabeling for the invariance example is not (2 3)",
    )
    expect(
        apply(SymmetryElement(gen_t(), sigma), invariant_board) == invariant_board,
        "(transpose, (2 3)) does not fix the invariance example board",
    )

    expect(
        len(invariance_table(position_group())) == 20,
        "full position group table does not have 20 conjugacy-class rows",
    )

    graph = orbit_graph(full_group().generators)
    expect(
        sorted(len(c) for c in graph.components()) == [96, 192],
        "full orbit graph components are not 96 and 192 boards",
    )
    expect(
        orbit_graph(named_group("rtxS4").generators).component_count == 5,
        "<r,t> x S4 orbit graph does not have 5 components",
    )
    expect(
        orbit_graph(position_group().generators).component_count == 6,
        "position-only orbit graph does not have 6 components",
    )

    s4_graph = s4_nest_graph([gen_r(), gen_s(), gen_t()])
    moves = {(e.label, e.src): e.dst for e in s4_graph.edges}
    expect(moves[("t", "A")] == "C", "t does not move nest A to nest C")
    expect(moves[("s", "C")] == "H", "s does not move nest C to nest H")
    expect(
        all(
            e.aux is not None and e.aux.cycle_notation() == "(2 3)"
            for e in s4_graph.edges
            if e.label == "t"
        ),
        "a t-edge needs a relabeling other than (2 3)",
    )
    expect(
        all(e.aux is None for e in s4_graph.edges if e.label == "s"),
        "an s-edge needed a relabeling",
    )
    h4_graph = h4_nest_graph([relabeling("(3 4)"), relabeling("(2 3)")])
    hmoves = {(e.label, e.src): (e.dst, e.aux) for e in h4_graph.edges}
    expect(hmoves[("(3 4)", "a")] == ("c", None), "(3 4) does not send nest a straight to c")
    expect(
        hmoves[("(2 3)", "a")] == ("a", gen_t()),
        "(2 3) on nest a should loop back via the transpose",
    )

    expect(minimal_order() == 192, f"completeness bound {minimal_order()} != 192")


class Check(NamedTuple):
    number: int
    name: str
    run: Callable[[], None]
    description: str


def all_checks() -> tuple[Check, ...]:
    checks = (
        (1, "board-count", check_board_count),
        (2, "group-orders", check_group_orders),
        (3, "full-group-orbits", check_full_orbits),
        (4, "rotation-transpose-product", check_rotation_transpose_product),
        (5, "complete-products", check_complete_products),
        (6, "swap-transpose-classes", check_swap_transpose_classes),
        (7, "burnside-cross-check", check_burnside_cross),
        (8, "nests", check_nests),
        (9, "nest-graph-components", check_nest_graph_components),
        (10, "quotient-consistency", check_quotient_consistency),
        (11, "fixing-rules", check_fixing_rules_exhaustive),
        (12, "ones-configuration", check_ones_configuration),
        (13, "action-and-relations", check_action_and_relations),
        (14, "pinned-examples", check_pinned_examples),
    )
    return tuple(
        Check(number, name, fn, (fn.__doc__ or "").strip().split("\n")[0])
        for number, name, fn in checks
    )


def run_checks(write: Callable[[str], None] = print) -> bool:
    """Run every check, print one pass/fail line each; True iff all pass."""
    ok = True
    for check in all_checks():
        try:
            check.run()
        except Exception as exc:  # report and continue; verify must see all
            ok = False
            write(f"FAIL {check.number:2d} {check.name}: {exc}")
        else:
            write(f"ok   {check.number:2d} {check.name}")
    return ok
