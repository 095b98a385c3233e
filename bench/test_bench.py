"""Tests of the benchmark itself (not part of the program's suite).

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.fixture(scope="module")
def mods():
    return common.import_program()


def small_stream(mods, seed: int, size: int = 300):
    stream = wl.VerdictStream()
    stream.SIZE = size
    return stream, stream.setup(mods, seed)


# ---------------------------------------------------------------------------
# generators are deterministic for a given seed


def test_stream_generator_is_deterministic_per_seed():
    assert wl.generate_stream(11) == wl.generate_stream(11)
    assert wl.generate_stream(11) != wl.generate_stream(12)


def test_stream_mix_is_fixed_across_seeds():
    def mix(seed):
        kinds = {}
        for spec in wl.generate_stream(seed):
            kinds[spec[1]] = kinds.get(spec[1], 0) + 1
        return kinds

    assert mix(1) == mix(2) == {
        "random": 2800, "opposite-mirror": 400, "equal": 400, "em-pattern": 160,
        "census": 148, "l35": 12, "em-report": 80,
    }


@pytest.mark.parametrize("name", ["lattice-search", "residue-scan", "cli-oneshot"])
def test_fixed_workloads_do_not_depend_on_the_seed(mods, name):
    w = wl.WORKLOADS[name]
    keys = [[item[0] for item in w.setup(mods, seed).items] for seed in (1, 2)]
    assert keys[0] == keys[1]


# ---------------------------------------------------------------------------
# composed (traced) results equal the one-call results


@pytest.mark.parametrize("ab,all_witnesses", [((1, 1), False), ((2, 2), False), ((1, 3), True)])
def test_composed_obstruction_equals_one_call(mods, ab, all_witnesses):
    gram = mods.goeritz.family_2odd_2odd(*ab)
    n = mods.goeritz.det_h1_order(gram)
    one = mods.lattice.changemaker_obstruction(gram, n, all_witnesses=all_witnesses)
    tr = common.Tracer()
    composed, counts = wl.composed_obstruction(mods.lattice, gram, n, all_witnesses, tr)
    assert composed == one
    assert counts["changemakers"] == len(mods.lattice.enumerate_changemakers(gram.rank + 1, n))
    assert counts["sigma_tried"] == sum(s.name == "lattice.embed" for s in tr.spans)


def test_composed_verdicts_equal_one_call(mods):
    stream, ctx = small_stream(mods, seed=5)
    tr = common.Tracer(workload=stream.name)
    items = stream.run_traced(ctx, tr)
    assert stream.traced_check(ctx, items) == [None] * len(items)
    one = stream.run_pass(ctx)
    assert [it.output for it in items] == [it.output for it in one]


def test_self_time_subtracts_children():
    tr = common.Tracer(workload="w")
    with tr.span("outer"):
        with tr.span("inner"):
            pass
    outer, inner = tr.spans
    table = tr.self_times("w")
    child = inner.end - inner.start
    assert table["outer"]["self_s"] == pytest.approx(outer.end - outer.start - child)
    assert table["inner"]["self_s"] == pytest.approx(child)


# ---------------------------------------------------------------------------
# a wrong output is a failure, not a fast run


def patched_import(monkeypatch, module: str, attr: str, make_fake):
    """Make ``run.measure`` import a program whose ``module.attr`` is wrong."""
    real_import = common.import_program

    def fake_import():
        mods = real_import()
        mod = getattr(mods, module)
        monkeypatch.setattr(mod, attr, make_fake(getattr(mod, attr), mods))
        return mods

    monkeypatch.setattr(run, "import_program", fake_import)


def test_flipped_lattice_status_fails(monkeypatch):
    def make_fake(real, mods):
        return lambda gram, p, all_witnesses=False: mods.lattice.ObstructionResult("obstructed", ())

    patched_import(monkeypatch, "lattice", "changemaker_obstruction", make_fake)
    rec = run.measure(wl.WORKLOADS["lattice-search"], seed=1, seconds=0)
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    assert list(rec["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert rec["failed"] == rec["attempted"] * 3 // 7  # the three witness jobs
    assert {f["item"] for f in rec["failures"]} == {
        "fig3-black(1,2,2,3)", "fig3-black(3,2,3,2)", "L35-white"}


def test_changed_density_count_fails(monkeypatch):
    def make_fake(real, mods):
        return lambda rset, limit: Fraction(1, limit)

    patched_import(monkeypatch, "numtheory", "density", make_fake)
    rec = run.measure(wl.WORKLOADS["residue-scan"], seed=1, seconds=0)
    assert rec["failed"] == rec["attempted"] > 0


def test_flipped_verdict_fails(mods, monkeypatch):
    stream, ctx = small_stream(mods, seed=3)
    real = mods.manifolds.not_surgery_verdict

    def flipped(y, with_changemaker=False):
        v = real(y, with_changemaker)
        return dataclasses.replace(v, overall="inconclusive" if v.nonintegral else v.overall)

    monkeypatch.setattr(mods.manifolds, "not_surgery_verdict", flipped)
    items = stream.run_pass(ctx)
    msgs = stream.check(ctx, items)
    flipped_keys = {it.key for it in items
                    if it.output is not None and getattr(it.output, "nonintegral", None)}
    assert flipped_keys
    assert {it.key for it, m in zip(items, msgs) if m} == flipped_keys


def test_later_pass_differing_from_first_fails(mods):
    stream, ctx = small_stream(mods, seed=4, size=100)
    first = stream.run_pass(ctx)
    assert stream.check(ctx, first) == [None] * len(first)
    second = stream.run_pass(ctx)
    i = next(i for i, (_, spec, _) in enumerate(ctx.items) if spec[0] == "verdict")
    second[i].output = dataclasses.replace(second[i].output, h1=second[i].output.h1 + 1)
    msgs = stream.check(ctx, second)
    assert msgs[i] and msgs.count(None) == len(msgs) - 1


def test_wrong_cli_bytes_fail(mods, monkeypatch):
    monkeypatch.setattr(wl, "run_program", lambda argv, env: (0, b"{}\n", None))
    w = wl.WORKLOADS["cli-oneshot"]
    ctx = w.setup(mods, 1)
    items = w.run_pass(ctx)
    assert all(w.check(ctx, items))


# ---------------------------------------------------------------------------
# without the program's sources the benchmark refuses to run


def test_fails_without_program_sources(tmp_path):
    root = Path(__file__).resolve().parent.parent
    shutil.copytree(root / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lattice-search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "program sources not found" in proc.stderr


def test_benchmark_json_names_the_workloads():
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
