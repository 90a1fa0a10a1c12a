import io
import json
import os
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shidoku import cli
from shidoku.group import GROUP_SHORTHANDS, position_group, relabel_group
from shidoku.nests import h4_nest_graph, s4_nest_graph
from shidoku.perm import Perm, gen_r, gen_s, gen_t, relabeling
from helpers import dot_component_count, parse_dot

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate")
    lines = out.splitlines()
    assert code == 0
    assert len(lines) == 288
    assert lines == sorted(lines)
    assert lines[0] == "1234341221434321"


def test_enumerate_json(capsys):
    code, out, _ = run(capsys, "enumerate", "--format", "json")
    assert code == 0
    assert len(json.loads(out)["boards"]) == 288


def test_orbits_full(capsys):
    code, out, _ = run(capsys, "orbits", "--group", "full")
    assert code == 0
    assert out.splitlines() == [
        "block 1: size 96, min 1234341221434321",
        "block 2: size 192, min 1234341223414123",
    ]


def test_orbits_product_spec(capsys):
    code, out, _ = run(capsys, "orbits", "--group", "rtxS4")
    assert code == 0
    assert len(out.splitlines()) == 5


def test_orbits_trivial(capsys):
    code, out, _ = run(capsys, "orbits", "--group", "trivial")
    assert code == 0
    assert len(out.splitlines()) == 288


def test_burnside_table(capsys):
    code, out, _ = run(capsys, "burnside", "--group", "stxS4")
    assert code == 0
    assert out.splitlines() == [
        "class 1: size 1, rep (), invariant 12*4! (288)",
        "class 2: size 2, rep (9 13)(10 14)(11 15)(12 16), invariant 0*4! (0)",
        "class 3: size 1, rep (3 4)(7 8)(9 13)(10 14)(11 16)(12 15), invariant 0*4! (0)",
        "class 4: size 2, rep (2 5)(3 9)(4 13)(7 10)(8 14)(12 15), invariant 2*4! (48)",
        "class 5: size 2, rep (2 5)(3 9 4 13)(7 10 8 14)(11 12 16 15), invariant 0*4! (0)",
        "group order: 192",
        "orbit count (burnside): 2",
        "orbit count (direct): 2",
    ]


def test_burnside_full_group_and_non_product_file(tmp_path, capsys):
    path = tmp_path / "group.txt"
    path.write_text(
        "generators:\n"
        "pos=(2 5)(3 9)(4 13)(7 10)(8 14)(12 15); rel=(2 3)\n"
        "pos=(9 13)(10 14)(11 15)(12 16); rel=(1 2)\n"
    )
    for spec in ("full", str(path)):
        code, out, _ = run(capsys, "burnside", "--group", spec, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["orbits_burnside"] == payload["orbits_direct"]


def test_burnside_json(capsys):
    code, out, _ = run(capsys, "burnside", "--group", "stxS4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 192
    assert payload["orbits_burnside"] == payload["orbits_direct"] == 2
    assert sum(row["invariant"] * row["size"] for row in payload["classes"]) == 384


def test_nests_reports(capsys):
    code, out, _ = run(capsys, "nests", "--factor", "s4")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 12
    assert lines[0] == "nest A: size 24, rep 1234341241232341"

    code, out, _ = run(capsys, "nests", "--factor", "h4")
    assert code == 0
    assert out.splitlines()[0] == "nest a: size 32, rep 1234341221434321"


def test_nest_graph_components(capsys):
    cases = (
        ("s4", "s,t", s4_nest_graph([gen_s(), gen_t()])),
        ("s4", "r,t", s4_nest_graph([gen_r(), gen_t()])),
        ("h4", "(12),(23)", h4_nest_graph([relabeling("(1 2)"), relabeling("(2 3)")])),
        ("h4", "(1 2 3)", h4_nest_graph([relabeling("(1 2 3)")])),
    )
    for factor, gens, graph in cases:
        code, out, _ = run(capsys, "nest-graph", "--factor", factor, "--gens", gens)
        assert code == 0
        assert out.strip() == f"components: {graph.component_count}"


@pytest.mark.parametrize(
    "argv, name",
    [
        (["nests", "--factor", "s4"], "s4_nests"),
        (["nests", "--factor", "h4"], "h4_nests"),
        (["nest-graph", "--factor", "s4", "--gens", "s,t"], "s4_nest_graph"),
        (["nest-graph", "--factor", "h4", "--gens", "(123)"], "h4_nest_graph"),
    ],
    ids=["nests-s4", "nests-h4", "nest-graph-s4", "nest-graph-h4"],
)
def test_nest_subcommands_call_the_function_bound_on_cli_at_call_time(monkeypatch, capsys, argv, name):
    # a function rebound on cli after import (as a tracer rebinds them) is
    # the one the subcommand calls, once, and no other nest function is
    calls = Counter()
    for bound in ("s4_nests", "h4_nests", "s4_nest_graph", "h4_nest_graph"):

        def counted(*args, _f=getattr(cli, bound), _name=bound):
            calls[_name] += 1
            return _f(*args)

        monkeypatch.setattr(cli, bound, counted)
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out
    assert calls == {name: 1}


@pytest.mark.parametrize("gens", ["(\u0661\u0662\u0663)", "(\u0661 \u0662 \u0663)", "(1\u00b2)"])
def test_nest_graph_takes_ascii_digits_only(capsys, gens):
    # \d matches Arabic-Indic digits, which int() reads as (1 2 3)
    code, out, err = run(capsys, "nest-graph", "--factor", "h4", "--gens", gens)
    assert code == 2 and out == ""
    assert err == f"error: bad relabeling token {gens!r}: malformed cycle notation: '{gens}'\n"


def test_nest_graph_writes_dot(tmp_path, capsys):
    path = tmp_path / "nests.dot"
    code, out, _ = run(
        capsys, "nest-graph", "--factor", "h4", "--gens", "(123)", "--dot", str(path)
    )
    assert code == 0
    nodes, edges = parse_dot(path.read_text())
    assert len(nodes) == 6 and len(edges) == 6


def test_export_orbit_graph(tmp_path, capsys):
    path = tmp_path / "orbits.dot"
    code, _, _ = run(capsys, "export", "--group", "full", "--dot", str(path))
    assert code == 0
    assert dot_component_count(path.read_text()) == 2


@pytest.mark.parametrize(
    "argv, golden", [((), "search.txt"), (("--format", "json"), "search.json")]
)
def test_search_output_matches_golden(capsys, argv, golden):
    # every product row of the default pools, byte for byte
    code, out, _ = run(capsys, "search", *argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


GOLDEN_REPORTS = [
    (("enumerate", "--format", "json"), "enumerate.json"),
    (("orbits", "--group", "rtxS4", "--format", "json"), "orbits-rtxS4.json"),
    (("nests", "--factor", "s4", "--format", "json"), "nests-s4.json"),
    (("nests", "--factor", "h4", "--format", "json"), "nests-h4.json"),
    (("nest-graph", "--factor", "h4", "--gens", "(12),(23)", "--format", "json"),
     "nest-graph-h4.json"),
    (("nest-graph", "--factor", "h4", "--gens", "(12),(23)", "--dot", "{dot}"),
     "nest-graph-h4.dot"),
    (("burnside", "--group", "H4"), "burnside-H4.txt"),
    (("burnside", "--group", "full", "--format", "json"), "burnside-full.json"),
    (("search", "--minimal-only"), "search-minimal.txt"),
    (("search", "--minimal-only", "--format", "json"), "search-minimal.json"),
]


@pytest.mark.parametrize("argv, golden", GOLDEN_REPORTS, ids=[g for _, g in GOLDEN_REPORTS])
def test_report_matches_golden(tmp_path, capsys, argv, golden):
    # the reports the benchmark's golden files do not pin, byte for byte;
    # a .dot golden is the file --dot writes
    dot = tmp_path / "graph.dot"
    code, out, _ = run(capsys, *(arg.format(dot=dot) for arg in argv))
    assert code == 0
    assert (dot.read_text() if golden.endswith(".dot") else out) == (GOLDEN / golden).read_text()


def test_search_minimal_only(capsys):
    code, out, _ = run(capsys, "search", "--minimal-only")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert all("order=192" in line and "complete=yes" in line for line in lines)


def test_search_json_contains_known_minimal_group(capsys):
    code, out, _ = run(capsys, "search", "--minimal-only", "--format", "json")
    assert code == 0
    rows = json.loads(out)["results"]
    assert {"position_gens": ["r", "s"], "relabel_gens": ["(1 2 3)"],
            "order": 192, "orbits": 2, "complete": True, "minimal": True} in rows


def test_search_with_pool_files(tmp_path, capsys):
    pos = tmp_path / "pos.txt"
    pos.write_text("s=(9 13)(10 14)(11 15)(12 16)\nt=(2 5)(3 9)(4 13)(7 10)(8 14)(12 15)\n")
    rel = tmp_path / "rel.txt"
    rel.write_text("c3=(1 2 3)\n")
    code, out, _ = run(
        capsys, "search", "--position-pool", str(pos), "--relabel-pool", str(rel)
    )
    assert code == 0
    assert len(out.splitlines()) == 8


def test_group_description_file(tmp_path, capsys):
    path = tmp_path / "group.txt"
    path.write_text(
        "generators:\n"
        "pos=(9 13)(10 14)(11 15)(12 16); rel=\n"
        "pos=; rel=(1 2 3)\n"
    )
    code, out, _ = run(capsys, "orbits", "--group", str(path))
    assert code == 0
    assert len(out.splitlines()) == 48


def test_invalid_position_symmetry_in_file(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("generators:\npos=(1 2); rel=\n")
    code, _, err = run(capsys, "orbits", "--group", str(path))
    assert code == 2
    assert "not a valid position symmetry" in err


def test_bad_pool_file_is_named(tmp_path, capsys):
    pool = tmp_path / "p.txt"
    pool.write_text("b=(1 5)\n")
    code, out, err = run(capsys, "search", "--relabel-pool", str(pool))
    assert code == 2
    assert out == ""
    assert err == f"error: {pool}: cycle element 5 out of range 1..4\n"


def test_pool_file_with_a_repeated_name_is_rejected(tmp_path, capsys):
    # two generators named a would print two different groups as rel=a
    pool = tmp_path / "p.txt"
    pool.write_text("a=(1 2)\na=(2 3)\n")
    code, out, err = run(capsys, "search", "--relabel-pool", str(pool))
    assert code == 2
    assert out == ""
    assert err == f"error: {pool}: bad pool line (repeated name 'a'): 'a=(2 3)'\n"


def test_invalid_position_symmetry_in_pool_file(tmp_path, capsys):
    pool = tmp_path / "pool.txt"
    pool.write_text("x=(1 2)\n")
    code, out, err = run(capsys, "search", "--position-pool", str(pool))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert "(1 2) is not a valid position symmetry" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["nest-graph", "--factor", "s4", "--gens", "s,t", "--dot", "{missing}/out.dot"],
        ["export", "--group", "trivial", "--dot", "{missing}/out.dot"],
        ["orbits", "--group", "{dir}"],
    ],
    ids=["nest-graph-dot", "export-dot", "group-directory"],
)
def test_os_errors_exit_2_with_one_line(tmp_path, capsys, argv):
    paths = {"missing": tmp_path / "missing", "dir": tmp_path}
    code, _, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "--position-pool", ""],
        ["search", "--relabel-pool="],
        ["nest-graph", "--factor", "s4", "--gens", "s,t", "--dot", ""],
    ],
    ids=["position-pool", "relabel-pool", "nest-graph-dot"],
)
def test_empty_path_options_exit_2_with_one_line(tmp_path, monkeypatch, capsys, argv):
    # an empty path names no file: it is an error, not the default
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_unknown_position_generator(capsys):
    code, out, err = run(capsys, "nest-graph", "--factor", "s4", "--gens", "q")
    assert code == 2
    assert out == ""
    assert err == "error: unknown position generator 'q'; use r, r2, s, t\n"


def test_unknown_group_spec(capsys):
    for spec in ("nonsense", ""):
        code, _, err = run(capsys, "orbits", "--group", spec)
        assert code == 2
        assert "unknown group spec" in err


def test_bad_relabel_token(capsys):
    code, _, err = run(capsys, "nest-graph", "--factor", "h4", "--gens", "(15)")
    assert code == 2
    assert "bad relabeling token" in err


@pytest.mark.parametrize("token", ["(12", "((12))", "(12)(", "(1"])
def test_malformed_packed_relabel_token(capsys, token):
    # none is unpacked into a cycle: each reaches from_cycles as typed
    code, out, err = run(capsys, "nest-graph", "--factor", "h4", "--gens", token)
    assert code == 2
    assert out == ""
    assert err == f"error: bad relabeling token {token!r}: malformed cycle notation: {token!r}\n"


@pytest.mark.parametrize(
    "token, cycles", [("(123)", "(1 2 3)"), ("(12)(34)", "(1 2)(3 4)"), ("()", ""), ("(1 2)", "(1 2)")]
)
def test_packed_relabel_tokens_parse(token, cycles):
    assert cli._parse_relabel_token(token) == Perm.from_cycles(cycles, 4)


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["orbits"])  # missing --group
    assert exc.value.code == 2


def test_verify_exit_codes(monkeypatch, capsys):
    # wiring only; the real checks run in the acceptance suite.  cmd_verify
    # imports run_checks when it runs, so the patch goes on verify itself
    monkeypatch.setattr("shidoku.verify.run_checks", lambda write: True)
    assert cli.main(["verify"]) == 0
    monkeypatch.setattr("shidoku.verify.run_checks", lambda write: False)
    assert cli.main(["verify"]) == 1


def test_importing_the_cli_loads_neither_dataclasses_nor_json():
    # every invocation pays this import in a fresh interpreter: the
    # records are tuples, json loads only for --format json and verify
    # only for `shidoku verify`; the modules the benchmark traces load
    code = (
        "import sys; before = set(sys.modules); import shidoku.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    added = proc.stdout.split()
    traced = "board perm group unionfind action burnside nests search graphio".split()
    assert {"shidoku.cli", *(f"shidoku.{m}" for m in traced)} <= set(added)
    assert not {"dataclasses", "json", "shidoku.verify"} & set(added)


# Inputs for the fuzz test below: valid pieces mixed with junk.  A file
# argument is an (option, bytes) pair, written to a file before the run.
position_cycles = sorted({e.pos.cycle_notation() for e in position_group().sorted_elements()})
relabel_cycles = sorted({e.rel.cycle_notation() for e in relabel_group().sorted_elements()})
cycle_strings = st.one_of(
    st.text(alphabet="() 0123456789", max_size=14),
    st.builds(
        lambda cycles, sep: "".join(f"({sep.join(map(str, c))})" for c in cycles),
        st.lists(st.lists(st.integers(0, 17), min_size=1, max_size=4), max_size=3),
        st.sampled_from(["", " "]),
    ),
)
junk = st.text(max_size=12)


def lines_text(line, header=st.just([])):
    texts = st.builds(
        lambda head, body, noise: "\n".join(head + body + noise),
        header,
        st.lists(line, max_size=3),
        st.lists(st.one_of(junk, st.sampled_from(["# note", ""])), max_size=1),
    )
    return st.one_of(texts.map(str.encode), st.binary(max_size=24))


def pool_file(cycles):
    names = st.one_of(st.sampled_from(["a", "b"]), junk)
    entries = st.builds("{}={}".format, names, st.one_of(st.sampled_from(cycles), cycle_strings))
    return lines_text(entries)


group_file = lines_text(
    st.builds(
        "pos={}; rel={}".format,
        st.one_of(st.sampled_from(position_cycles), cycle_strings),
        st.one_of(st.sampled_from(relabel_cycles), cycle_strings),
    ),
    st.sampled_from([["generators:"], []]),
)
position_pool, relabel_pool = pool_file(position_cycles), pool_file(relabel_cycles)
gen_lists = st.lists(
    st.one_of(st.sampled_from(["r", "r2", "s", "t", "q", " s "]), cycle_strings, junk), max_size=3
)
group_specs = st.one_of(
    st.sampled_from(GROUP_SHORTHANDS),
    st.builds("{}x{}".format, *[st.sampled_from([*GROUP_SHORTHANDS, ""])] * 2),
    junk,
)
formats = st.sampled_from(["--format=text", "--format=json"])
cli_inputs = st.one_of(
    st.builds(
        lambda factor, gens, fmt: ["nest-graph", factor, f"--gens={','.join(gens)}", fmt],
        st.sampled_from(["--factor=s4", "--factor=h4"]),
        gen_lists,
        formats,
    ),
    st.builds(lambda spec, fmt: ["orbits", f"--group={spec}", fmt], group_specs, formats),
    st.builds(lambda text, fmt: ["orbits", ("--group=", text), fmt], group_file, formats),
    st.builds(
        lambda pos, rel: ["search", ("--position-pool=", pos), ("--relabel-pool=", rel)],
        position_pool,
        relabel_pool,
    ),
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=400, deadline=None)
@given(argv=cli_inputs)
def test_fuzzed_inputs_exit_0_or_2_with_one_error_line(fuzz_dir, argv):
    args = []
    for k, arg in enumerate(argv):
        if isinstance(arg, tuple):
            option, content = arg
            path = fuzz_dir / f"input{k}.txt"
            path.write_bytes(content)
            arg = f"{option}{path}"
        args.append(arg)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(args)
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert code == 2 and out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        assert err.getvalue().endswith("\n")
