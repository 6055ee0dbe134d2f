"""The numeric layers and the numeric CLI never import sympy; the symbolic
names of ``fuzzylab`` load on first use."""

import json
import os
import subprocess
import sys
from pathlib import Path

import fuzzylab

SRC = str(Path(fuzzylab.__file__).resolve().parents[1])


def run_python(code: str) -> str:
    """stdout of ``code`` run in a fresh interpreter that imports from src."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_fuzzylab_and_cli_does_not_load_sympy():
    out = run_python("import sys\n"
                     "import fuzzylab, fuzzylab.cli\n"
                     "print('sympy' in sys.modules)\n")
    assert out.strip() == "False"


def test_numeric_check_does_not_load_sympy():
    from importlib.metadata import version
    out = run_python(
        "import contextlib, io, json, sys\n"
        "from fuzzylab import cli\n"
        "buf = io.StringIO()\n"
        "with contextlib.redirect_stdout(buf):\n"
        "    code = cli.main(['check', '--suite', 'kinematics', '--lambda',\n"
        "                     '0.5', '--nmax', '6', '--format', 'json'])\n"
        "env = json.loads(buf.getvalue())['summary']['environment']\n"
        "print(json.dumps([code, 'sympy' in sys.modules, env['sympy']]))\n")
    code, loaded, reported = json.loads(out)
    assert code == 0
    assert not loaded
    assert reported == version("sympy")


def test_every_public_name_resolves():
    out = run_python(
        "import fuzzylab\n"
        "missing = [n for n in fuzzylab.__all__ if not hasattr(fuzzylab, n)]\n"
        "namespace = {}\n"
        "exec('from fuzzylab import *', namespace)\n"
        "missing += [n for n in fuzzylab.__all__ if n not in namespace]\n"
        "from fuzzylab import check_identity, AlgebraExpr, IDENTITY_NAMES\n"
        "print(missing, IDENTITY_NAMES == fuzzylab.identities.IDENTITY_NAMES)\n")
    assert out.strip() == "[] True"


def test_dir_lists_the_lazy_names():
    out = run_python(
        "import fuzzylab\n"
        "print(sorted(set(fuzzylab.__all__) - set(dir(fuzzylab))))\n")
    assert out.strip() == "[]"


def test_unknown_attribute_raises_attribute_error():
    out = run_python(
        "import fuzzylab\n"
        "try:\n"
        "    fuzzylab.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n")
    assert "no_such_name" in out


def test_only_fock_and_operators_import_scipy():
    import ast
    package = Path(fuzzylab.__file__).resolve().parent
    importers = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                importers.add(path.name)
    assert importers <= {"fock.py", "operators.py"}, sorted(importers)
