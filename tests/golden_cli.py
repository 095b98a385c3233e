"""The locked CLI commands, from one table: ``CLI_COMMANDS`` in
``bench/workloads.py``, whose rows ``bench/record_golden.py`` recorded as
``bench/golden/cli/<name>.out``; also the lattice-search forms of
``LatticeSearch.JOBS`` there.  Both are read with ``ast.literal_eval``, so no
bench module is imported; pytest does not collect this file.  Run as
``python3 tests/golden_cli.py``, it runs the installed ``obstruct`` console
script on every row from the checkout root, names each row whose stdout
differs from its golden file, and exits 1 if any does; it exits 2 when no
``obstruct`` script is on PATH."""

import ast
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
GOLDEN_CLI = REPO / "bench" / "golden" / "cli"


def _literal(body, name):
    """The value of the one assignment to `name` among the statements `body`;
    ValueError unless there is exactly one, to a literal."""
    [value] = [node.value for node in body if isinstance(node, ast.Assign)
               and [getattr(t, "id", None) for t in node.targets] == [name]]
    try:
        return ast.literal_eval(value)
    except ValueError as exc:
        raise ValueError(f"bench/workloads.py: {name} is no longer a literal: {exc}") from None


def _workloads():
    return ast.parse((REPO / "bench" / "workloads.py").read_text()).body


def cli_commands():
    """The (name, argv) rows of ``CLI_COMMANDS``; ValueError unless the
    benchmark assigns it once, to a literal."""
    return _literal(_workloads(), "CLI_COMMANDS")


def lattice_search_jobs():
    """The (params, all_witnesses) rows of ``LatticeSearch.JOBS``: params are
    fig3-black's (a0, a1, b0, b1), or None for L35-white."""
    [cls] = [node for node in _workloads()
             if isinstance(node, ast.ClassDef) and node.name == "LatticeSearch"]
    return _literal(cls.body, "JOBS")


if __name__ == "__main__":
    if shutil.which("obstruct") is None:
        print("no `obstruct` console script on PATH: run `pip install -e .` first")
        sys.exit(2)
    rows = cli_commands()
    differ = []
    for name, argv in rows:
        proc = subprocess.run(["obstruct", *argv], cwd=REPO, capture_output=True)
        if proc.returncode or proc.stdout != (GOLDEN_CLI / f"{name}.out").read_bytes():
            differ.append(name)
            print(f"{name}: `obstruct {shlex.join(argv)}` (exit {proc.returncode}) "
                  f"does not print bench/golden/cli/{name}.out")
    print(f"{len(rows) - len(differ)} of {len(rows)} locked commands match")
    sys.exit(1 if differ else 0)
