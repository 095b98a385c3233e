"""Record the benchmark's reference outputs from the program as it stands.

    python3 bench/record_golden.py

Writes ``bench/golden/``: the status, changemaker counts and witnesses of
every lattice-search job, the exact counts of every residue-scan, per-item
digests of the default-seed verdict-stream, and the stdout bytes of every
cli-oneshot command.  Run it only at a commit whose outputs are known to be
right; the benchmark then fails any output that differs.
"""

from __future__ import annotations

import json

from common import GOLDEN, Tracer, import_program
from workloads import (
    CLI_COMMANDS, LatticeSearch, ResidueScan, VerdictStream, _digest, composed_obstruction,
    program_env, run_program,
)


def write_json(name: str, obj) -> None:
    (GOLDEN / name).write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")


def main() -> None:
    mods = import_program()
    GOLDEN.mkdir(exist_ok=True)

    lattice = {}
    for name, gram, n, all_w in LatticeSearch().forms(mods):
        res = mods.lattice.changemaker_obstruction(gram, n, all_witnesses=all_w)
        composed, counts = composed_obstruction(mods.lattice, gram, n, all_w, Tracer())
        assert composed == res, name
        lattice[name] = dict(
            counts, n=n, rank=gram.rank, status=res.status,
            witnesses=[{"sigma": list(e.sigma.entries), "vectors": [list(v) for v in e.vectors]}
                       for e in res.witnesses],
        )
    write_json(LatticeSearch.GOLDEN_FILE, lattice)

    scans = {}
    for token, rset, limit in ResidueScan().scans(mods):
        dens = mods.numtheory.density(rset, limit)
        scans[token] = {"limit": limit, "count": int(dens * limit)}
    write_json(ResidueScan.GOLDEN_FILE, scans)

    stream = VerdictStream()
    seed = 0
    ctx = stream.setup(mods, seed)
    ctx.golden_digests = None  # being recorded now
    items = stream.run_pass(ctx)
    msgs = stream.check(ctx, items)
    bad = [(it.key, m) for it, m in zip(items, msgs) if m]
    assert not bad, bad[:5]
    digests = [_digest(stream.item_json(ctx, spec, it.output))
               for (_, spec, _), it in zip(ctx.items, items)]
    write_json(stream.GOLDEN_FILE, {"seed": seed, "digests": digests})

    (GOLDEN / "cli").mkdir(exist_ok=True)
    env = program_env()
    for name, argv in CLI_COMMANDS:
        code, out, _ = run_program(argv, env)
        assert code == 0, (name, code)
        (GOLDEN / "cli" / f"{name}.out").write_bytes(out)


if __name__ == "__main__":
    main()
