import ast
import sys

from helpers import ORACLE_PATH


def test_bench_oracle_imports_only_the_standard_library():
    # the tests take their slow references from this file, so it must
    # share no code with shidoku: every import names a stdlib module
    imported = set()
    for node in ast.walk(ast.parse(ORACLE_PATH.read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported
    outside = {name for name in imported if name.split(".")[0] not in sys.stdlib_module_names}
    assert not outside, f"bench/oracle.py imports {sorted(outside)}"
