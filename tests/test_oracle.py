import ast
import sys

from helpers import ORACLE_PATH

PACKAGE = ORACLE_PATH.parents[1] / "src" / "shidoku"


def test_bench_oracle_imports_only_the_standard_library():
    # the tests take their slow references from bench/oracle.py, so it must
    # share no code with shidoku; and shidoku has no runtime dependency:
    # every import names a stdlib module, or, in the package, one of its own
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 10
    for path in [ORACLE_PATH, *sources]:
        imported = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add("." * node.level + (node.module or ""))
        assert imported
        allowed = sys.stdlib_module_names | ({""} if path.parent == PACKAGE else set())
        outside = {name for name in imported if name.split(".")[0] not in allowed}
        assert not outside, f"{path.name} imports {sorted(outside)}"
