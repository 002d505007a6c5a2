import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from test_bosonic import count_scans
from test_kostka import refuse_building

import crystalpaths
from crystalpaths import bosonic, cli, kostka, pairing
from crystalpaths.cli import main, parse_weight_selector
from crystalpaths.kostka import CrystalSpec
from crystalpaths.tableaux import RectShape
from crystalpaths.weights import LevelWeight, vadd


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def cold(*args: str) -> subprocess.CompletedProcess:
    """Run the interpreter with args in a fresh process that finds this
    package first, writes no bytecode and keeps this run's -O level."""
    src = os.path.dirname(os.path.dirname(crystalpaths.__file__))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, *["-O"] * sys.flags.optimize, *args],
                          capture_output=True, text=True, env=env, timeout=120)


GOLDEN = json.loads((Path(__file__).parent / "golden_cli.json").read_text(encoding="utf-8"))


def test_readme_commands_run(capsys):
    """Every ``crystalpaths ...`` line of the README's Command line block
    exits 0 and prints schema-1 JSON, and the block shows every subcommand."""
    text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("crystalpaths ")]
    assert {argv[0] for argv in commands} == {"kostka", "verify", "verify-zero", "straighten"}
    for argv in commands:
        code, out, err = run(capsys, *argv)
        assert code == 0, (argv, err)
        assert json.loads(out)["schema"] == 1, argv


@pytest.mark.parametrize("case", GOLDEN, ids=[" ".join(c["argv"]) for c in GOLDEN])
def test_golden_output(case, capsys):
    """Stdout and exit code match, byte for byte, the recorded output of the
    vacuum, non-vacuum and level-zero commands, including summand_count and
    truncation_bound; the last level-zero product has a box count that the
    rank does not divide.  Two taller-b0 cases pin the b0 grading: one where
    the identity holds, and the known unequal one (exit 1, seven warnings)."""
    code, out, _ = run(capsys, *case["argv"])
    assert (code, out) == (case["exit_code"], case["stdout"])


def test_weight_selector_parsing():
    assert parse_weight_selector("L0", 2) == LevelWeight(1, (0, 0), 0)
    assert parse_weight_selector("2L0", 3) == LevelWeight(2, (0, 0, 0), 0)
    assert parse_weight_selector("L0+L1", 3) == LevelWeight(2, (1, 0, 0), 0)
    assert parse_weight_selector("2L0+L2", 3) == LevelWeight(3, (1, 1, 0), 0)
    with pytest.raises(ValueError):
        parse_weight_selector("1,0", 2)
    with pytest.raises(ValueError):
        parse_weight_selector("L5", 3)


def test_weight_selector_adds_each_term_once(monkeypatch):
    """A coefficient scales its fundamental vector: one vadd per term, however
    large the coefficient."""
    calls = []

    def spy(a, b):
        calls.append(b)
        return vadd(a, b)

    monkeypatch.setattr(cli, "vadd", spy)
    assert parse_weight_selector("1000000000000L1+L2", 3) == LevelWeight(10 ** 12 + 1, (10 ** 12 + 1, 1, 0), 0)
    assert calls == [(10 ** 12, 0, 0), (1, 1, 0)]


def test_kostka_classical_json(capsys):
    code, out, _ = run(
        capsys, "kostka", "--n", "2", "--shapes", "1x1,1x1", "--lambda", "2,0"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["path_count"] == 1
    assert len(payload["polynomial"]) == 1


def test_kostka_level_json(capsys):
    code, out, _ = run(
        capsys, "kostka", "--n", "2", "--shapes", "1x1,1x1", "--level", "1",
        "--Lambda", "L0",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["polynomial"] == [[-1, 1]]


def test_validation_exit_code(capsys):
    code, _, err = run(capsys, "kostka", "--n", "3", "--shapes", "3x1", "--lambda", "1,1,1")
    assert code == 2
    assert "height" in err
    # a fault of the spec is named before a malformed --lambda
    assert run(capsys, "kostka", "--n", "3", "--shapes", "3x1", "--lambda", "x") == (
        2, "", "validation error: factor height 3 must lie in 1..2 (below the rank)\n")
    # a nonzero entry past position n
    assert run(capsys, "kostka", "--n", "3", "--shapes", "1x1", "--lambda", "1,0,0,1") == (
        2, "", "validation error: weight (1, 0, 0, 1) has a nonzero entry past position 3\n")
    code, _, err = run(capsys, "kostka", "--n", "2", "--shapes", "1x1")
    assert code == 2
    # the missing mode is named before any fault of the spec
    code, _, err = run(capsys, "kostka", "--n", "1", "--shapes", "3x1")
    assert (code, err) == (2, "validation error: kostka needs either --lambda or --level with --Lambda\n")


def test_kostka_both_modes_refusal(capsys):
    """--lambda together with --Lambda exits 2 and names both, where the
    level mode once won silently; like the missing mode, before any fault
    of the spec."""
    refused = (2, "", "validation error: kostka takes --lambda (classical) or --Lambda "
               "(level-restricted), not both\n")
    assert run(capsys, "kostka", "--n", "3", "--shapes", "1x1,1x1", "--lambda", "1,1",
               "--Lambda", "L0", "--level", "1") == refused
    assert run(capsys, "kostka", "--n", "1", "--shapes", "3x1", "--lambda", "1", "--Lambda", "L0") == refused


# integer inputs that int() refuses: (argv, the option or key and the form the message names)
INTEGER_REFUSALS = [
    (["straighten", "n=x", "l=2", "alpha=1,0,0"], "n must be an integer, got 'x'"),
    (["straighten", "n=3", "l=x", "alpha=1,0,0"], "l must be an integer, got 'x'"),
    (["straighten", "n=3", "l=2", "alpha="], "alpha must be comma-separated integers, got ''"),
    (["straighten", "n=3", "l=2", "alpha=1,,0"], "alpha must be comma-separated integers, got '1,,0'"),
    (["kostka", "--n", "3", "--shapes", "1x1,1x1", "--lambda", "2,x"],
     "--lambda must be comma-separated integers, got '2,x'"),
    (["kostka", "--n", "3", "--shapes", "1x1,1x1", "--lambda", ","],
     "--lambda must be comma-separated integers, got ','"),
    (["kostka", "--n", "3", "--shapes", "1xa", "--lambda", "1"],
     "--shapes must be KxL with positive integers K and L, got '1xa'"),
    (["verify-zero", "--n", "3", "--shapes", "1x1,2x"],
     "--shapes must be KxL with positive integers K and L, got '2x'"),
    (["verify", "--n", "3", "--shapes", "1x1", "--level", "1", "--Lambda", "L1", "--b0", "1xz"],
     "--b0 must be KxL with positive integers K and L, got '1xz'"),
]


@pytest.mark.parametrize("argv, message", INTEGER_REFUSALS, ids=[" ".join(a) for a, _ in INTEGER_REFUSALS])
def test_integer_parse_refusal_exit_code(argv, message, capsys):
    """An integer input that does not parse exits 2 with a message naming
    its option or key and the form it must have, where Python's bare
    int() message once named neither."""
    assert run(capsys, *argv) == (2, "", "validation error: %s\n" % message)


# inputs whose level checks the CrystalSpec alone makes: (argv, the weight named)
LEVEL_REFUSALS = [
    (["kostka", "--n", "3", "--shapes", "1x1", "--Lambda", "L0"], "Lambda"),
    (["kostka", "--n", "3", "--shapes", "1x1", "--level", "2", "--Lambda", "L0"], "Lambda"),
    (["verify", "--n", "3", "--shapes", "1x1", "--level", "2", "--Lambda", "L0"], "Lambda"),
    (["kostka", "--n", "3", "--shapes", "1x1", "--level", "1", "--Lambda", "L0",
      "--LambdaPrime", "L0+L1"], "LambdaPrime"),
    (["verify", "--n", "3", "--shapes", "1x1", "--level", "1", "--Lambda", "L0",
      "--LambdaPrime", "2L1"], "LambdaPrime"),
    (["kostka", "--n", "3", "--shapes", "1x1", "--lambda", "1", "--LambdaPrime", "L1"], "LambdaPrime"),
]


@pytest.mark.parametrize("argv, name", LEVEL_REFUSALS, ids=[" ".join(a) for a, _ in LEVEL_REFUSALS])
def test_level_refusal_exit_code(argv, name, capsys):
    """A weight without a level, or of another level than --level, exits 2
    with the spec's message naming it."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("validation error: ") and re.search(r"\b%s\b" % name, err)


OVERSIZED = [
    ["verify", "--n", "20", "--shapes", "10x1", "--level", "1", "--Lambda", "L0", "--LambdaPrime", "L10"],
    ["verify-zero", "--n", "20", "--shapes", "10x1"],
    ["kostka", "--n", "20", "--shapes", "10x1", "--lambda", "1,1,1,1,1,1,1,1,1,1"],
]


@pytest.mark.parametrize("argv", OVERSIZED, ids=[" ".join(a) for a in OVERSIZED])
def test_oversized_factor_refusal_exit_code(argv, capsys, monkeypatch):
    """A factor over FACTOR_LIMIT elements exits 2 before any crystal or
    Schur polynomial is built."""
    refuse_building(monkeypatch)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "10x1 at rank 20 has at least 184756 elements, over FACTOR_LIMIT = 5000" in err


HUGE_RANK = [
    ["verify-zero", "--n", "1000000", "--shapes", ""],
    ["verify", "--n", "1000000", "--shapes", "", "--level", "1", "--Lambda", "L0"],
]


@pytest.mark.parametrize("argv", HUGE_RANK, ids=[" ".join(a) for a in HUGE_RANK])
def test_huge_rank_refusal_exit_code(argv, capsys, monkeypatch):
    """A rank over FACTOR_LIMIT exits 2 before any sum, also for the empty
    product, whose sums would take time quadratic in the rank."""
    def unreachable(*args):
        raise AssertionError("an alternating sum ran for %s" % (args,))
    monkeypatch.setattr(bosonic, "fibre_sums", unreachable)  # every sum runs through bosonic's
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "rank 1000000 is over FACTOR_LIMIT = 5000" in err


def test_verify_command(capsys):
    code, out, _ = run(
        capsys, "verify", "--n", "2", "--level", "1", "--shapes", "1x1,1x1",
        "--Lambda", "L0", "--LambdaPrime", "L0", "--widen-check",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["equal"] is True
    assert payload["widen_certificate"]["stable"] is True
    assert payload["warnings"] == []


def test_verify_and_level_one_identity_report_alike(capsys):
    """verify and level_one_identity build the report of the identity in one
    place: on a level-one column spec its five fields agree."""
    code, out, _ = run(capsys, "verify", "--n", "3", "--level", "1", "--shapes", "1x1,2x1,1x1,2x1", "--Lambda", "L0")
    spec = CrystalSpec(3, (RectShape(1, 1), RectShape(2, 1)) * 2, level=1, lam=LevelWeight.vacuum(3, 1))
    report = pairing.level_one_identity(spec)
    fields = ("lhs_polynomial", "rhs_polynomial", "equal", "summand_count", "truncation_bound")
    payload = json.loads(out)
    assert code == 0 and payload["summand_count"] > 0 and report["path_exists"]
    assert {key: payload[key] for key in fields} == json.loads(json.dumps({key: report[key] for key in fields}))


def test_verify_widen_check_scans_each_fibre_once(capsys, monkeypatch):
    """One scan of each fibre read serves the base and the widened
    alternating sum: each content is scanned once, classically, and the
    direct count is the one affine scan."""
    calls = count_scans(monkeypatch)  # every scan runs through a plan, scan_paths' too
    code, out, _ = run(
        capsys, "verify", "--n", "3", "--level", "1", "--shapes", ",".join(["1x1"] * 9),
        "--Lambda", "L0", "--widen-check",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["equal"] and payload["widen_certificate"]["stable"]
    classical = [args[2] for args in calls if not args[4]]
    affine = [args[2] for args in calls if args[4]]
    assert affine == [(3, 3, 3)]
    assert len(classical) == len(set(classical)) > 1


def test_verify_and_kostka_check_their_spec_once(capsys, monkeypatch):
    """verify, kostka --Lambda and kostka --lambda each make one spec, which
    checks itself when it is made: one check of the local tables per
    command, where verify once checked its spec twice."""
    made, checked, init, check = [], [], CrystalSpec.__init__, kostka.check_tables

    def making(spec, *args, **kwargs):
        made.append(spec)
        return init(spec, *args, **kwargs)

    def checking(*args):
        checked.append(args)
        return check(*args)

    monkeypatch.setattr(CrystalSpec, "__init__", making)
    monkeypatch.setattr(kostka, "check_tables", checking)
    for argv in (["verify", "--n", "3", "--level", "2", "--shapes", "1x1,2x1", "--Lambda", "L0+L1", "--b0", "1x2",
                  "--widen-check"],
                 ["kostka", "--n", "3", "--level", "1", "--shapes", "1x1,2x1", "--Lambda", "L0"],
                 ["kostka", "--n", "3", "--shapes", "1x1,2x1", "--lambda", "2,1"]):
        made.clear()
        checked.clear()
        code, out, _ = run(capsys, *argv)
        assert code == 0 and json.loads(out), argv
        assert len(made) == len(checked) == 1, argv


def test_level_zero_spec_runs_the_formal_identity(capsys):
    """verify at --level 0 with --Lambda 0L0 runs the formal level-zero
    identity on column factors: both sides vanish on a nonempty product and
    are 1 on the empty one; a row factor exits 2."""
    argv = ["verify", "--n", "3", "--level", "0", "--Lambda", "0L0"]
    for shapes, value in (("1x1,1x1", []), ("", [[0, 1]])):
        code, out, err = run(capsys, *argv, "--shapes", shapes)
        payload = json.loads(out)
        assert (code, err) == (0, ""), shapes
        assert payload["lhs_polynomial"] == payload["rhs_polynomial"] == value, shapes
    assert run(capsys, *argv, "--shapes", "1x2") == (
        2, "", "validation error: level-zero identity needs column factors\n")
    assert run(capsys, "verify-zero", "--n", "1", "--shapes", "1x1") == (
        2, "", "validation error: rank must be at least 2, got 1\n")


def test_verify_zero_command(capsys):
    code, out, _ = run(capsys, "verify-zero", "--n", "2", "--shapes", "1x1,1x1,1x1")
    assert code == 0
    payload = json.loads(out)
    assert payload["lhs_polynomial"] == []
    assert payload["pairing_size"] * 2 == payload["pairing_summands"]
    code, out, _ = run(capsys, "verify-zero", "--n", "2", "--shapes", "")
    assert code == 0
    assert json.loads(out)["lhs_polynomial"] == [[0, 1]]


def test_output_determinism(capsys):
    args = ("verify", "--n", "2", "--level", "1", "--shapes", "1x1,1x1", "--Lambda", "L0")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_table_format(capsys):
    code, out, _ = run(
        capsys, "kostka", "--n", "2", "--shapes", "1x1,1x1", "--lambda", "1,1",
        "--format", "table",
    )
    assert code == 0
    assert "polynomial:" in out and "path_count" in out


def test_straighten_command(capsys):
    code, out, _ = run(capsys, "straighten", "n=2", "l=1", "alpha=2,-2")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == {"beta": [0, 0], "qpow": -2, "sign": -1}
    code, out, _ = run(capsys, "straighten", "n=2", "l=1", "alpha=1,2")
    assert json.loads(out)["result"] == "zero"
    code, _, err = run(capsys, "straighten", "n=2", "alpha=1,2")
    assert code == 2 and "missing l" in err


def test_straighten_unknown_key_refusal(capsys):
    """A key other than n, l and alpha exits 2 and names the key, where it
    was once ignored."""
    code, out, err = run(capsys, "straighten", "n=3", "l=2", "alpha=1,0,0", "beta=4")
    assert (code, out) == (2, "")
    assert "'beta'" in err


def test_straighten_repeated_key_refusal(capsys):
    """A key given twice exits 2 and names the key, where the last value
    once won."""
    code, out, err = run(capsys, "straighten", "n=3", "l=2", "alpha=1,0,0", "alpha=0,1,0")
    assert (code, out) == (2, "")
    assert "'alpha' is given twice" in err


@pytest.mark.parametrize("argv, paths", [
    (["--n", "3", "--level", "2", "--shapes", ",".join(["1x1"] * 24), "--Lambda", "L0+L1"],
     75025),
    (["--n", "4", "--level", "2", "--shapes", ",".join(["1x1,2x1"] * 5), "--Lambda", "L0+L2",
      "--LambdaPrime", "L0+L1"], 288),
], ids=["n3-24x1x1", "n4-5x(1x1,2x1)"])
def test_verify_at_paper_scale(capsys, tmp_path, argv, paths):
    """The identity on products of 24 and 10 factors (3^24 and 24^5 paths):
    both sides agree, the widened truncation is stable, and --jobs and
    --cache-dir change nothing: the output is byte-identical and the
    directory is never made."""
    code, out, _ = run(capsys, "verify", *argv, "--widen-check")
    payload = json.loads(out)
    assert code == 0 and payload["equal"] and payload["widen_certificate"]["stable"]
    assert sum(c for _, c in payload["rhs_polynomial"]) == paths
    ignored = ["--jobs", "2", "--cache-dir", str(tmp_path / "cache")]
    assert run(capsys, "verify", *argv, "--widen-check", *ignored) == (code, out, "")
    assert not (tmp_path / "cache").exists()


def test_jobs_flag(capsys):
    code, out, _ = run(
        capsys, "kostka", "--n", "2", "--shapes", "1x1,1x1,1x1", "--lambda", "2,1",
        "--jobs", "2",
    )
    assert code == 0
    assert json.loads(out)["path_count"] == 2


LAZY_MODULES = ("dataclasses", "inspect", "logging", "hashlib", "threading", "typing", "crystalpaths.straighten",
                "crystalpaths.pairing")


def test_cold_import_stays_lean():
    """Importing the CLI loads none of the modules that only a rarer path
    needs: see the start-up paragraph of the README."""
    code = ("import sys; lazy = %r; before = set(sys.modules); import crystalpaths.cli; "
            "print(' '.join(m for m in lazy if m in sys.modules and m not in before))"
            % (LAZY_MODULES,))
    out = cold("-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == ""


MOVED = {"bosonic_via_straightening": "straighten", "level_one_identity": "pairing",
         "level_zero_identity": "pairing", "level_zero_pairing": "pairing"}


def test_moved_names_resolve_to_one_object():
    """Each name that left bosonic is one object as crystalpaths.X, as
    bosonic.X and in its module; bosonic imports that module and binds the
    name on first use, not before, and other names stay missing."""
    code = """if True:
        import sys, crystalpaths, crystalpaths.bosonic as bosonic
        def check(ok, what):  # not assert, which python -O strips
            if not ok:
                raise SystemExit(what)
        moved = %r
        check(bosonic.MOVED == moved and set(moved) <= set(crystalpaths.__all__), "MOVED")
        check(not {"crystalpaths." + home for home in moved.values()} & set(sys.modules), "imported early")
        for name, home in moved.items():
            check(name not in vars(bosonic), name + " bound early")
            found = getattr(bosonic, name)
            check(vars(bosonic)[name] is found is getattr(crystalpaths, name), name + " differs")
            check(found is getattr(sys.modules["crystalpaths." + home], name), name + " not its module's")
        check(not hasattr(bosonic, "no_such_name") and not hasattr(crystalpaths, "no_such_name"), "shim")
    """ % (MOVED,)
    out = cold("-c", code)
    assert out.returncode == 0, out.stderr
