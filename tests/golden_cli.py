"""The locked CLI commands, from one table: ``CLI_COMMANDS`` in
``bench/workloads.py``, whose rows ``bench/record_golden.py`` recorded as
``bench/golden/cli/<name>.out``.  It is read with ``ast.literal_eval``, so no
bench module is imported; pytest does not collect this file.  Run as
``python3 tests/golden_cli.py``, it runs the installed ``obstruct`` console
script on every row from the checkout root, names each row whose stdout
differs from its golden file, and exits 1 if any does."""

import ast
import shlex
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
GOLDEN_CLI = REPO / "bench" / "golden" / "cli"


def cli_commands():
    """The (name, argv) rows of ``CLI_COMMANDS``; ValueError unless the
    benchmark assigns it once, to a literal."""
    tree = ast.parse((REPO / "bench" / "workloads.py").read_text())
    [value] = [node.value for node in tree.body if isinstance(node, ast.Assign)
               and [getattr(t, "id", None) for t in node.targets] == ["CLI_COMMANDS"]]
    try:
        return ast.literal_eval(value)
    except ValueError as exc:
        raise ValueError(f"bench/workloads.py: CLI_COMMANDS is no longer a literal: {exc}") from None


if __name__ == "__main__":
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
