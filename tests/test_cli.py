import json
import subprocess
import sys
from pathlib import Path

import pytest

from obstruct import __version__


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "obstruct", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def report_of(proc):
    assert proc.returncode == 0, proc.stderr
    rep = json.loads(proc.stdout)
    assert rep["schema"] == 1
    assert rep["version"] == __version__
    return rep


def test_splice_not_any_surgery():
    rep = report_of(run_cli("splice", "--a", "3", "--b", "4", "--c", "-3", "--d", "4"))
    assert rep["command"] == "splice"
    assert rep["result"]["overall"] == "not-any-surgery"
    assert rep["result"]["shortcut"]["set"] == "S"
    assert rep["result"]["shortcut"]["in_set"] is False


def test_splice_nonintegral():
    rep = report_of(run_cli("splice", "--a", "2", "--b", "3", "--c", "2", "--d", "-3"))
    ni = rep["result"]["nonintegral"]
    assert (ni["l"], ni["m"]) == (2, 2)
    assert ni["slope"] == "37/2"
    assert rep["result"]["overall"] == "nonintegral-surgery"


def test_splice_trivial_knot_exits_2():
    proc = run_cli("splice", "--a", "2", "--b", "1", "--c", "2", "--d", "3")
    assert proc.returncode == 2
    assert "error" in proc.stderr


def test_splice_determinism():
    args = ("splice", "--a", "3", "--b", "5", "--c", "-3", "--d", "5", "--changemaker")
    out1 = run_cli(*args)
    out2 = run_cli(*args)
    assert out1.stdout == out2.stdout
    rep = json.loads(out1.stdout)
    assert rep["result"]["changemaker"]["sigma"] == [1, 2, 2, 4, 4, 8, 11]
    assert rep["timing_ms"] is None


def test_census_default_bound_small():
    rep = report_of(run_cli("census-2odd", "--max-product", "9"))
    assert rep["result"]["witness_pairs"] == [[1, 1]]
    assert len(rep["result"]["rows"]) == 1


def test_census_empty():
    rep = report_of(run_cli("census-2odd", "--max-product", "8"))
    assert rep["result"]["rows"] == []
    assert rep["result"]["witness_pairs"] == []


def test_census_jobs_deterministic():
    a = run_cli("census-2odd", "--max-product", "45")
    b = run_cli("census-2odd", "--max-product", "45", "--jobs", "2")
    ra, rb = json.loads(a.stdout), json.loads(b.stdout)
    assert ra["result"]["rows"] == rb["result"]["rows"]


def test_census_bad_jobs_exit_2(capsys):
    from obstruct import cli

    assert cli.main(["census-2odd", "--max-product", "45", "--jobs", "0"]) == 2
    assert "jobs" in capsys.readouterr().err


def test_census_bad_max_product_exit_2(capsys):
    from obstruct import cli

    for bound in ("0", "-5"):
        assert cli.main(["census-2odd", "--max-product", bound]) == 2
        assert "max_product" in capsys.readouterr().err


def test_changemaker_enum():
    rep = report_of(run_cli("changemaker", "enum", "--len", "2", "--norm", "2"))
    assert rep["result"]["changemakers"] == [[1, 1]]
    assert rep["command"] == "changemaker enum"


def test_changemaker_embed(tmp_path):
    gram = tmp_path / "gd.txt"
    gram.write_text(
        "6\n-4 2 1 0 0 0\n2 -5 1 0 1 1\n1 1 -5 2 0 1\n"
        "0 0 2 -3 1 0\n0 1 0 1 -3 0\n0 1 1 0 0 -2\n"
    )
    rep = report_of(run_cli("changemaker", "embed", "--gram", str(gram), "--p", "226"))
    assert rep["result"]["status"] == "witness"
    assert rep["result"]["witnesses"][0]["sigma"] == [1, 2, 2, 4, 4, 8, 11]


def test_changemaker_embed_obstructed(tmp_path):
    gram = tmp_path / "fam22.txt"
    gram.write_text("5\n-3 1 0 1 0\n1 -3 1 0 0\n0 1 -3 2 0\n1 0 2 -4 1\n0 0 0 1 -3\n")
    rep = report_of(run_cli("changemaker", "embed", "--gram", str(gram), "--p", "99"))
    assert rep["result"]["status"] == "obstructed"
    assert rep["result"]["witnesses"] == []


def test_changemaker_embed_bad_matrix(tmp_path):
    gram = tmp_path / "bad.txt"
    gram.write_text("1\n1\n")  # positive definite
    proc = run_cli("changemaker", "embed", "--gram", str(gram), "--p", "5")
    assert proc.returncode == 2
    proc = run_cli("changemaker", "embed", "--gram", str(tmp_path / "nope.txt"), "--p", "5")
    assert proc.returncode == 2


def test_changemaker_embed_bad_p_exit_2(tmp_path, capsys):
    from obstruct import cli

    gram = tmp_path / "fam22.txt"
    gram.write_text("5\n-3 1 0 1 0\n1 -3 1 0 0\n0 1 -3 2 0\n1 0 2 -4 1\n0 0 0 1 -3\n")
    for p in ("0", "-99"):
        assert cli.main(["changemaker", "embed", "--gram", str(gram), "--p", p]) == 2
        err = capsys.readouterr().err
        assert "norm p must be positive" in err and "length" not in err


def test_em_report():
    rep = report_of(run_cli("em", "--l", "2", "--m", "2", "--n", "0", "--p", "0"))
    res = rep["result"]
    assert res["slope"] == "-37/2"
    assert res["h1_order"] == 37
    assert res["su2_cyclic"] is True
    assert res["splice_form_status"] == "splice"
    assert res["splice_form"]["first"] == [3, 2]


def test_em_witness():
    rep = report_of(run_cli("em", "--l", "5", "--m", "2", "--n", "0", "--p", "2"))
    res = rep["result"]
    assert res["su2_cyclic"] is False
    assert res["witness"]["phi_over_pi"] == "2/3"


def test_em_not_a_splice():
    rep = report_of(run_cli("em", "--l", "3", "--m", "2", "--n", "0", "--p", "2"))
    assert rep["result"]["su2_cyclic"] is True
    assert rep["result"]["splice_form_status"] == "not-a-splice"


def test_em_bad_params_exit_2():
    proc = run_cli("em", "--l", "2", "--m", "2", "--n", "1", "--p", "1")
    assert proc.returncode == 2


def test_em_degenerate_m_still_evaluates():
    # m = 1 is a flagged degenerate range; the report omits the witness
    rep = report_of(run_cli("em", "--l", "5", "--m", "1", "--n", "0", "--p", "2"))
    assert rep["result"]["degenerate_warning"] is True
    assert rep["result"]["su2_cyclic"] is False
    assert rep["result"]["witness"] is None


def test_density_commands():
    rep = report_of(run_cli("density", "--set", "Sk:1", "--limit", "25", "--bound"))
    assert rep["result"]["density"] == "3/5"
    assert rep["result"]["product_bound"] == "3/5"
    assert rep["result"]["matches_bound"] is True

    rep = report_of(run_cli("density", "--set", "Sk:0", "--limit", "10"))
    assert rep["result"]["density"] == "1"

    rep = report_of(run_cli("density", "--set", "S", "--limit", "100"))
    from fractions import Fraction

    from obstruct import ResidueSet, density

    assert Fraction(rep["result"]["density"]) == density(ResidueSet("S"), 100)

    proc = run_cli("density", "--set", "S", "--limit", "10", "--bound")
    assert proc.returncode == 2
    proc = run_cli("density", "--set", "bogus", "--limit", "10")
    assert proc.returncode == 2


def test_cable_commands():
    rep = report_of(run_cli("cable", "--knot", "T(2,3)"))
    rows = rep["result"]["slopes"]
    assert rows[0]["family"]["base"] == 6
    assert rows[1]["slope"] == "6"
    assert rows[1]["manifold"]["name"] == "RP3 # L(3,2)"

    rep = report_of(run_cli("cable", "--knot", "C(13,2);T(2,3)"))
    assert [r["slope"] for r in rep["result"]["slopes"]] == ["25", "26"]

    rep = report_of(run_cli("cable", "--knot", "C(5,2);C(13,2);T(2,3)"))
    assert rep["result"]["slopes"] == []
    assert rep["result"]["depth"] == 3


def test_cable_bad_spec_exit_2():
    for spec in ("T(1,3)", "garbage", "C(4,2);T(2,3)", "T(2,3);C(13,2)"):
        proc = run_cli("cable", "--knot", spec)
        assert proc.returncode == 2, spec


def test_pretty_goes_to_stderr():
    proc = run_cli("splice", "--a", "2", "--b", "3", "--c", "2", "--d", "-3", "--pretty")
    assert proc.returncode == 0
    json.loads(proc.stdout)  # stdout stays pure JSON
    assert "splice" in proc.stderr


def test_timing_flag_populates_field():
    for argv in (("density", "--set", "Sk:1", "--limit", "5"),
                 ("changemaker", "enum", "--len", "3", "--norm", "5")):
        proc = run_cli(*argv, "--timing")
        rep = json.loads(proc.stdout)
        assert isinstance(rep["timing_ms"], float), argv


def test_changemaker_group_rejects_report_flags():
    # --pretty and --timing belong to the action, not to the changemaker group
    for flag in ("--pretty", "--timing"):
        proc = run_cli("changemaker", flag, "enum", "--len", "3", "--norm", "5")
        assert proc.returncode == 2, flag
        assert proc.stdout == ""


def test_resource_cap_exit_3(monkeypatch, capsys):
    from obstruct import cli, numtheory

    def blow_up(rset, limit):
        raise numtheory.PrimeSearchCapExceeded("search cap reached")

    monkeypatch.setattr(numtheory, "density", blow_up)
    rc = cli.main(["density", "--set", "S", "--limit", "10"])
    assert rc == 3
    assert "resource cap" in capsys.readouterr().err


def test_density_limit_cap_exit_3(capsys):
    import tracemalloc

    from obstruct import cli

    tracemalloc.start()
    try:
        rc = cli.main(["density", "--set", "S", "--limit", "100000001"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("resource cap: ") and "100000001" in err
    assert peak < 2**20  # refused before the sieve's array is allocated


def test_density_k_cap_exit_3(capsys):
    from obstruct import cli

    for token in ("Sk:10001", "Tk:100000"):
        assert cli.main(["density", "--set", token, "--limit", "10"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("resource cap: ") and "MAX_RESIDUE_K = 10000" in err


def test_density_bound_too_long_exit_3(capsys):
    from obstruct import cli

    assert cli.main(["density", "--set", "Sk:1000", "--limit", "10", "--bound"]) == 0
    assert '"product_bound": "' in capsys.readouterr().out
    if not getattr(sys, "get_int_max_str_digits", lambda: 0)():
        pytest.skip("int-to-str conversion has no digit limit")
    # k = 1200 is valid input, but its exact bound has too many digits to print
    assert cli.main(["density", "--set", "Sk:1200", "--limit", "10", "--bound"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("resource cap: ") and "Sk:1200" in err


def test_census_product_cap_exit_3(capsys):
    from obstruct import cli

    assert cli.main(["census-2odd", "--max-product", "10001"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("resource cap: ") and "MAX_CENSUS_PRODUCT = 10000" in err


# ---------------------------------------------------------------------------
# golden reports: the README examples, byte for byte

REPO = Path(__file__).resolve().parent.parent
GOLDEN_CLI = REPO / "bench" / "golden" / "cli"

# the same argv as the benchmark's cli-oneshot workload
GOLDEN_COMMANDS = (
    ("splice-3-4", ("splice", "--a", "3", "--b", "4", "--c", "-3", "--d", "4", "--pretty")),
    ("splice-2-3", ("splice", "--a", "2", "--b", "3", "--c", "2", "--d", "-3")),
    ("splice-3-5-changemaker",
     ("splice", "--a", "3", "--b", "5", "--c", "-3", "--d", "5", "--changemaker")),
    ("census-jobs1", ("census-2odd", "--jobs", "1", "--pretty")),
    ("census-jobs2", ("census-2odd", "--jobs", "2", "--pretty")),
    ("changemaker-enum", ("changemaker", "enum", "--len", "7", "--norm", "226")),
    ("changemaker-embed",
     ("changemaker", "embed", "--gram", "bench/data/gd.txt", "--p", "226", "--all")),
    ("em-2-2-0-0", ("em", "--l", "2", "--m", "2", "--n", "0", "--p", "0")),
    ("em-5-2-0-2", ("em", "--l", "5", "--m", "2", "--n", "0", "--p", "2")),
    ("density-sk2", ("density", "--set", "Sk:2", "--limit", "845", "--bound")),
    ("cable-t23", ("cable", "--knot", "T(2,3)")),
    ("cable-c13", ("cable", "--knot", "C(13,2);T(2,3)")),
    ("cable-c5-c13", ("cable", "--knot", "C(5,2);C(13,2);T(2,3)")),
)


@pytest.mark.parametrize("name,argv", GOLDEN_COMMANDS, ids=[n for n, _ in GOLDEN_COMMANDS])
def test_golden_report_bytes(name, argv, monkeypatch, capsys):
    from obstruct import cli

    monkeypatch.chdir(REPO)  # the embed example names its Gram file relative to the root
    assert cli.main(list(argv)) == 0
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN_CLI / f"{name}.out").read_bytes()


# paths the README examples do not reach: expected stdout and --pretty stderr
# are kept next to these tests, in tests/golden/cli
LOCKED = Path(__file__).resolve().parent / "golden" / "cli"

LOCKED_COMMANDS = (
    ("em-1-2-0-0", ("em", "--l", "1", "--m", "2", "--n", "0", "--p", "0")),
    ("em-3-2-0-2", ("em", "--l", "3", "--m", "2", "--n", "0", "--p", "2")),
    ("splice-2-3-5-7-changemaker",
     ("splice", "--a", "2", "--b", "3", "--c", "5", "--d", "7", "--changemaker")),
    ("density-s-50", ("density", "--set", "S", "--limit", "50")),
    ("census-45", ("census-2odd", "--max-product", "45")),
)


@pytest.mark.parametrize("name,argv", LOCKED_COMMANDS, ids=[n for n, _ in LOCKED_COMMANDS])
def test_locked_report_bytes(name, argv, capsys):
    from obstruct import cli

    assert cli.main([*argv, "--pretty"]) == 0
    captured = capsys.readouterr()
    assert captured.out.encode() == (LOCKED / f"{name}.out").read_bytes()
    assert captured.err.encode() == (LOCKED / f"{name}.err").read_bytes()
