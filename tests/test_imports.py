"""matwaring runs on numpy alone: no route, classification, CLI command or
the verifier imports scipy, which the tests use only as an oracle. And the
verifier imports none of the construction modules.

Each scipy check runs in a fresh interpreter, because this test process has
imported scipy long before.
"""

import ast
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import matwaring

PACKAGE = Path(matwaring.__file__).parent

# an import hook that refuses scipy and every submodule of it
BLOCK_SCIPY = """
    class NoScipy:
        def find_spec(self, name, path=None, target=None):
            if name.split(".")[0] == "scipy":
                raise ImportError(f"{name} is blocked")
            return None

    sys.meta_path.insert(0, NoScipy())
"""

EVERY_ROUTE_AND_THE_CLI = """
    import os, tempfile
    import numpy as np
    from matwaring import cli, freealg, serialize, waring

    rng = np.random.default_rng(7)
    T = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    A = T - np.trace(T) / 6 * np.eye(6)
    A5 = T[:5, :5] - np.trace(T[:5, :5]) / 5 * np.eye(5)
    f = freealg.parse("[X1,X2]")
    g = freealg.parse("X1^2*X2 + X1")
    assert waring.two_term_decompose(f, A5).mode == "two-term"
    assert waring.waring_express(f, A).mode == "four-term"
    assert waring.five_term_express(g, T).mode == "five-term"
    assert freealg.classify(g, 3).is_identity_or_central is False
    with tempfile.TemporaryDirectory() as tmp:
        for mode, poly, M in (("two", "[X1,X2]", A5), ("four", "[X1,X2]", A),
                              ("five", "X1^2*X2 + X1", T)):
            target = os.path.join(tmp, mode + "-target.json")
            with open(target, "w") as fh:
                fh.write(serialize.dumps_canonical(serialize.matrix_to_json(M)))
            out = os.path.join(tmp, mode + ".json")
            assert cli.main(["decompose", poly, target, "--mode", mode,
                             "--out", out]) == 0
            assert cli.main(["verify", out]) == 0
        assert cli.main(["classify", "[X1,X2]", "4"]) == 0
"""


def scipy_modules_after(code, block=False):
    """The scipy modules loaded once code has run in a fresh interpreter,
    with scipy refused by an import hook when block is set."""
    report = ("\nprint(json.dumps(sorted(m for m in sys.modules"
              " if m.split('.')[0] == 'scipy')))")
    hook = textwrap.dedent(BLOCK_SCIPY) if block else ""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, sys\n" + hook + textwrap.dedent(code) + report],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("block", [False, True],
                         ids=["scipy-installed", "scipy-blocked"])
def test_every_route_and_the_cli_run_without_scipy(block):
    # installed, nothing loads it; refused, nothing needs it
    assert scipy_modules_after(EVERY_ROUTE_AND_THE_CLI, block) == []


def test_the_import_hook_blocks_scipy():
    # the check above means something only if the hook refuses scipy
    code = """
        try:
            import scipy.linalg
        except ImportError as exc:
            assert "blocked" in str(exc)
        else:
            raise AssertionError("scipy was imported")
    """
    assert scipy_modules_after(code, block=True) == []


def test_routes_do_not_load_numpy_ma():
    # np.unique loads numpy.ma on its first call, 11-16 ms of the first
    # four- or five-term certificate of a process
    code = """
        import sys
        import numpy as np
        from matwaring import five_term_express, parse, waring_express

        rng = np.random.default_rng(7)
        T = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        waring_express(parse("[X1,X2]"), T - np.trace(T) / 6 * np.eye(6))
        five_term_express(parse("X1^2*X2 + X1"), T)
        print("numpy.ma" in sys.modules)
    """
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def package_imports(module):
    """The modules of the package that its module `module` imports, read
    from the source with ast (imports inside functions included)."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:   # relative: the package has no subpackages
                module = f"matwaring.{module}".rstrip(".")
            names = ([f"{module}.{alias.name}" for alias in node.names]
                     if module == "matwaring" else [module])
        else:
            continue
        for name in names:
            head, _, rest = name.partition(".")
            if head == "matwaring" and rest:
                found.add(rest.partition(".")[0])
    return found


def import_closure(module):
    """Every module of the package that `module` imports, transitively."""
    seen, todo = set(), [module]
    while todo:
        for name in package_imports(todo.pop()) - seen:
            seen.add(name)
            todo.append(name)
    return seen


def test_verifier_imports_no_construction_module():
    # a pass must not rest on the code that built the certificate
    assert import_closure("verify") == {"config", "errors", "freealg",
                                        "serialize"}


def test_polynomial_layer_imports_no_route():
    # a polynomial is its text and program; what the routes keep per f
    # lives in waring, not on f
    assert import_closure("freealg") == {"config", "errors"}


# every module that a route, the verifier or the CLI runs
PIPELINE = ("canon", "cli", "config", "errors", "freealg", "linalg",
            "serialize", "unitaries", "verify", "waring")


@pytest.mark.parametrize("module", PIPELINE + ("__init__",))
def test_pipeline_imports_no_theory(module):
    # the lemma checks are the tests' reference code, not the pipeline's
    assert "theory" not in import_closure(module)


def test_importing_the_package_leaves_theory_unloaded():
    code = ("import sys, matwaring\n"
            "print('matwaring.theory' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_pipeline_lists_every_module_but_theory():
    assert set(PIPELINE) == {p.stem for p in PACKAGE.glob("*.py")} - {
        "__init__", "theory"}


def test_import_walk_sees_the_construction_modules():
    # the check above means something only if the walk finds imports
    assert {"canon", "linalg", "unitaries", "verify",
            "waring"} <= import_closure("cli")
    assert {"linalg", "unitaries"} <= import_closure("theory")
