"""Every function in ``src/bconstell`` is run by a command or by the documented API.

The argvs of the golden tests (every subcommand, every ``--op`` and
``--prop``, ``tau`` with all three checks) and the ```python blocks of
README's "Library use" run in-process under ``sys.setprofile``, with every
memo table emptied first.  Each ``def`` of the package that none of them
enters must be on ``ALLOWED``, with its reason; anything else is code no
command needs, and belongs in a test helper or nowhere.
"""

import ast
import contextlib
import importlib
import io
import os
import sys
from pathlib import Path

import pytest

import bconstell
from bconstell.cli import main

from test_golden import CASES
from test_readme import BLOCKS, README

PACKAGE = Path(bconstell.__file__).resolve().parent

# "module:qualified name" of the functions no command or README block runs
ALLOWED = {
    "coeffring:_overflow": "error path: an exponent past the packed field",
    "coeffring:Coeff.var": "import-time builder of B, U and Q",
    "coeffring:Coeff.inv_one_plus_b": "import-time builder of INV_1PB",
    "coeffring:Coeff.num": "read by the benchmark's span counters (perfbench/spans.py)",
    "constraints:Model.__init__": "import-time builder of the three models",
    "jack:_gcd": "error path: the reduced denominator an OracleDenominatorError names",
    "jack:_prem": "error path: through jack._gcd",
    "ppoly:PPoly.first_term": "failure path: a failing tau check's first nonzero term",
    "ppoly:first_difference": "failure path: the first term of two unequal series coefficients",
    "ppoly:PPoly.__sub__": "failure path: first_difference subtracts the unequal sides",
    "ppoly:PPoly.__neg__": "failure path: through PPoly.__sub__",
    "ppoly:PPoly.__add__": "failure path: through PPoly.__sub__",
}


def package_defs():
    """{(source file, first line of the code object): "module:qualified name"}.

    A decorated function's code starts at its first decorator.
    """
    defs = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = prefix + child.name
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    defs[(str(path), first)] = "%s:%s" % (path.stem, name)
                    visit(child, name + ".")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return defs


def clear_memo_tables():
    """Empty every lru_cache of the package, so each builder runs again."""
    for name in list(sys.modules):
        if name == "bconstell" or name.startswith("bconstell."):
            for value in list(vars(sys.modules[name]).values()):
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def reached_code():
    """(source file, first line) of every code object the commands and README enter."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            seen.add((code.co_filename, code.co_firstlineno))

    clear_memo_tables()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for name, argv in CASES.items():
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            assert code == 0, name
        for block in BLOCKS:
            exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    finally:
        sys.setprofile(previous)
    return {(os.path.realpath(f), line) for f, line in seen}


@pytest.fixture(scope="module")
def unreached():
    reached = reached_code()
    return {name for key, name in package_defs().items() if key not in reached}


def test_every_function_is_reached_or_allowed(unreached):
    stray = sorted(unreached - set(ALLOWED))
    assert not stray, "no command or README block runs: %s" % ", ".join(stray)


def test_every_allowed_function_exists_and_is_unreached(unreached):
    gone = sorted(set(ALLOWED) - set(package_defs().values()))
    assert not gone, "allowed but no longer defined: %s" % ", ".join(gone)
    reached = sorted(set(ALLOWED) - unreached)
    assert not reached, "allowed but run by a command: %s" % ", ".join(reached)


def test_package_surface():
    missing = [name for name in bconstell.__all__ if not hasattr(bconstell, name)]
    assert not missing, missing
    # README's "Library use": the function shadows its submodule, and stays
    # bound after the submodule is imported by name
    module = importlib.import_module("bconstell.jack")
    assert callable(bconstell.jack) and bconstell.jack is module.jack
    assert module is sys.modules["bconstell.jack"]
