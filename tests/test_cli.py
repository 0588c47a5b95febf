import errno
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import confhad
from confhad import catalog, cli
from confhad.cli import main
from confhad.cyclotomic import cyclotomic_polynomial
from confhad.equivalence import DEFAULT_BUDGET
from confhad.formats import MAX_BUTSON_ORDER, emit_matrix, parse_butson, parse_matrix, parse_numeric


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_names_every_entry(capsys):
    code, out, _ = run(capsys, "--list")
    assert code == 0
    for name in catalog.names():
        assert name in out
    assert "repaired" in out


def test_build_round_trips(capsys, tmp_path):
    code, out, _ = run(capsys, "build", "C6c")
    assert code == 0
    assert parse_matrix(out) == catalog.build("C6c")
    target = tmp_path / "c6c.sym"
    code, _, _ = run(capsys, "build", "C6c", "--out", str(target))
    assert code == 0 and parse_matrix(target.read_text()) == catalog.build("C6c")


def test_build_family_at_zero_phases(capsys):
    code, out, _ = run(capsys, "build", "D12a")
    assert code == 0
    M = parse_numeric(out)
    base = catalog.family_matrix("D12a", {})
    assert np.array_equal(np.array(M.rows), np.array(base.rows))


def test_derive_output_parses(capsys):
    code, out, _ = run(capsys, "derive", "O12a")
    assert code == 0
    assert parse_matrix(out).n == 12


def test_verify_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "O12a")
    assert code == 0 and out.strip() == "pass"
    code, out, _ = run(capsys, "verify", "O12h")
    assert code == 1 and "fail at" in out
    code, out, _ = run(capsys, "verify", "O12h", "--verified")
    assert code == 0


def test_verify_family_numeric(capsys):
    code, out, _ = run(capsys, "verify", "D12c", "--numeric", "--seed", "5")
    assert code == 0
    # --tol is the bound the residuals are held to
    assert run(capsys, "verify", "D12c", "--numeric", "--seed", "5", "--tol", "1e-6") == (0, "pass\n", "")
    code, out, _ = run(capsys, "verify", "D12c", "--numeric", "--seed", "5", "--tol", "1e-300")
    assert code == 1 and out.startswith("fail at")
    # the printed seven-phase pattern fails; the verified overrides pass
    phases = "0.1,0.2,0.3,0.4,0.5,0.6,0.7"
    code, _, _ = run(capsys, "verify", "D12h", "--numeric", "--phases", phases)
    assert code == 1
    code, _, _ = run(
        capsys, "verify", "D12h", "--numeric", "--phases", phases, "--verified"
    )
    assert code == 0


def test_verify_file_target(capsys, tmp_path):
    good = tmp_path / "good.bh"
    good.write_text("BH 2 2\n0 0\n0 1\n")
    code, out, _ = run(capsys, "verify", str(good))
    assert code == 0
    bad = tmp_path / "bad.sym"
    bad.write_text("SYM 2\n1 1\n1 1\n")
    code, out, _ = run(capsys, "verify", str(bad))
    assert code == 1
    # non-finite floats fail with the first such cell as the witness
    for text, witness in (
        ("NUM 2\nnan,0 nan,0\nnan,0 nan,0\n", "fail at (0,0): (nan+0j) [not finite]"),
        ("NUM 2\n1,0 1,0\n1,0 inf,0\n", "fail at (1,1): (inf+0j) [not finite]"),
    ):
        bad = tmp_path / "bad.num"
        bad.write_text(text)
        code, out, _ = run(capsys, "verify", str(bad))
        assert (code, out) == (1, witness + "\n")


def test_long_butson_witness_is_cut(capsys, tmp_path):
    # a failing root sum over zeta_m prints 16 of its m counts, then the rest's number
    for text, head, rest in (
        ("BH 2 1024\n0 0\n0 1\n", "[1" + ", 0" * 15 + "]", 1008),
        ("BH 3 40\nz 0 0\n0 z 1\n0 5 z\n", "[0" + ", 0" * 15 + "]", 24),
        ("BH 2 17\n0 0\n0 1\n", "[1" + ", 0" * 15 + "]", 1),
    ):
        bad = tmp_path / "long.bh"
        bad.write_text(text)
        code, out, _ = run(capsys, "verify", str(bad))
        assert (code, out) == (1, f"fail at (0,1): {head} (+{rest} more) [off-diagonal root sum != 0]\n")
    bad.write_text("BH 2 16\n0 0\n0 1\n")
    code, out, _ = run(capsys, "verify", str(bad))
    assert (code, out) == (1, "fail at (0,1): [1" + ", 0" * 14 + ", 1] [off-diagonal root sum != 0]\n")


def test_verify_sym_zero_cell_reads_like_bh(capsys, tmp_path):
    # a zero cell off a full zero diagonal fails as on the same BH grid, not with a traceback
    for sym, bh, witness in (
        ("SYM 2\n1 0\n1 1\n", "BH 2 2\n0 z\n0 0\n", "fail at (0,1): zero cell [not unimodular]"),
        ("SYM 2\n0 1\n1 1\n", "BH 2 2\nz 0\n0 0\n", "fail at (0,0): zero cell [not unimodular]"),
        ("SYM 3\n1 1 1\n1 1 0\n1 1 1\n", "BH 3 2\n0 0 0\n0 0 z\n0 0 0\n",
         "fail at (1,2): zero cell [not unimodular]"),
    ):
        for name, text in (("zero.sym", sym), ("zero.bh", bh)):
            path = tmp_path / name
            path.write_text(text)
            assert run(capsys, "verify", str(path)) == (1, witness + "\n", "")


def test_derive_family_names_the_cli_route(capsys):
    for name in catalog.names():
        if catalog.kind(name) == "family":
            code, out, err = run(capsys, "derive", name)
            assert (code, out) == (64, "")
            assert f"use build {name} --phases" in err and "family_matrix" not in err


def test_equiv_exit_codes(capsys):
    code, out, _ = run(capsys, "equiv", "H12a", "H12c")
    assert code == 0 and out.startswith("equivalent")
    code, out, _ = run(capsys, "equiv", "H12a", "H12d")
    assert code == 2 and out.startswith("inequivalent")
    code, out, _ = run(capsys, "equiv", "H12f", "H12g", "--budget", "3")
    assert code == 3 and out.startswith("unknown")


def test_equiv_tiny_conference_files(capsys, tmp_path):
    # 1x1 and 2x2 conference matrices: a row sign maps "diag" onto "flip"
    files = {}
    texts = {"one": "BH 1 2\nz\n", "diag": "BH 2 2\nz 0\n0 z\n", "flip": "BH 2 2\nz 1\n0 z\n"}
    for name, text in texts.items():
        files[name] = tmp_path / f"{name}.bh"
        files[name].write_text(text)
        assert run(capsys, "verify", str(files[name]))[:2] == (0, "pass\n")
    for a, b in (("one", "one"), ("diag", "flip"), ("flip", "diag")):
        code, out, _ = run(capsys, "equiv", str(files[a]), str(files[b]))
        assert code == 0 and out.startswith("equivalent (witness found;")


def test_equiv_on_inputs_it_cannot_compare_is_a_usage_error(capsys, tmp_path):
    rows = tmp_path / "rows.bh"  # two zeros in row 0: no permutation pattern
    rows.write_text("BH 2 2\nz z\n0 0\n")
    diagonal = tmp_path / "diagonal.bh"
    diagonal.write_text("BH 2 2\nz 0\n0 z\n")
    for a, b, reason in (
        ("H12a", "C6a", "dimension mismatch"),
        (str(rows), str(diagonal), "zero cells must form a permutation pattern"),
        (str(diagonal), str(rows), "zero cells must form a permutation pattern"),
    ):
        assert run(capsys, "equiv", a, b) == (64, "", f"confhad: error: {reason}\n")


def test_equiv_coprime_order_files(capsys, tmp_path):
    # all-ones BH 12 files of orders 1021 and 1019: the search runs at their lcm
    files = []
    for m in (1021, 1019):
        files.append(tmp_path / f"ones{m}.bh")
        files[-1].write_text(f"BH 12 {m}\n" + (" ".join(["0"] * 12) + "\n") * 12)
    code, out, _ = run(capsys, "equiv", str(files[0]), str(files[1]))
    assert code == 0 and out.startswith("equivalent (witness found;")


def test_equiv_doubled_paley_image_files(capsys, tmp_path):
    # a +-1 Hadamard matrix of order 28 (the doubled Paley core of order 14)
    # against a signed, permuted copy, decided within 10^5 nodes
    from confhad.equivalence import MonomialTransform
    from confhad.formats import emit_matrix
    from confhad.matrices import bordered_circulant, double_orthogonal, to_butson
    from confhad.symbolic import ONE

    squares = {k * k % 13 for k in range(1, 13)}
    core = bordered_circulant([None] + [ONE if k in squares else -ONE for k in range(1, 13)])
    H = to_butson(double_orthogonal(core))
    n = H.n
    rows, cols = list(range(n)), list(range(n))
    rows.reverse()
    cols = cols[5:] + cols[:5]
    signs = tuple(int(k % 3 == 0) for k in range(n))
    image = MonomialTransform(2, tuple(rows), tuple(cols), signs, signs[::-1]).apply(H)
    a, b = tmp_path / "h28.bh", tmp_path / "h28_image.bh"
    a.write_text(emit_matrix(H))
    b.write_text(emit_matrix(image))
    code, out, _ = run(capsys, "equiv", str(a), str(b), "--budget", "100000")
    assert code == 0 and out.startswith("equivalent (witness found;")


def test_fingerprint_output(capsys):
    code, out, _ = run(capsys, "fingerprint", "H12a")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n=12 order=2 skipped=0"
    assert all(":" in line for line in lines[1:])
    code, out, _ = run(capsys, "fingerprint", "C6a")
    assert code == 0 and "skipped=540" in out


def test_search_output(capsys):
    code, out, _ = run(capsys, "search", "--bordered", "--n", "6", "--roots", "2")
    assert code == 0
    assert out.splitlines() == ["z 0 1 1 0", "z 1 0 0 1"]
    code, out, _ = run(
        capsys, "search", "--bordered", "--n", "6", "--roots", "2", "--reduce"
    )
    assert out.splitlines() == ["z 0 1 1 0"]


def test_search_butson_log_rows_parse_back(capsys, tmp_path):
    code, out, _ = run(capsys, "search", "--bordered", "--n", "6", "--roots", "4")
    rows = out.splitlines()
    assert len(rows) == 12
    text = "BH 5 4\n" + "\n".join(rows[:5]) + "\n"
    parse_butson(text)  # log-form lines are valid BH rows


def test_reconcile_single_and_all(capsys):
    code, out, _ = run(capsys, "reconcile", "O12h")
    assert code == 0
    assert "repairs:" in out and "fail at" in out
    code, out, _ = run(capsys, "reconcile", "--all")
    assert code == 0
    assert out.count("== ") == len(catalog.names())
    assert "9 with discrepancies" in out


def test_reconcile_determinism(capsys):
    _, first, _ = run(capsys, "reconcile", "--all")
    _, second, _ = run(capsys, "reconcile", "--all")
    assert first == second


def test_specialize(capsys):
    code, out, _ = run(capsys, "specialize", "O12a")
    assert code == 0
    assert "64 Hadamard specializations" in out
    assert "class 1: 64 members" in out


def test_specialize_exits_3_when_the_budget_leaves_classes_undecided(capsys):
    code, out, _ = run(capsys, "specialize", "O12h", "--budget", "1")
    assert code == 3
    assert out.startswith("O12h: 128 Hadamard specializations") and "(undecided bucket)" in out
    # a point the budget leaves unplaced joins the undecided bucket whose
    # sorted form certifies it, instead of opening one of its own
    assert out.count("32 members (undecided bucket)") == out.count("(undecided bucket)") == 3
    code, out, _ = run(capsys, "specialize", "O12a")
    assert code == 0 and "undecided" not in out


def _readme_commands() -> list[tuple[list[str], set[int]]]:
    """The ``confhad`` lines of README's "Command line" block, each with
    the exit codes its comment states (``exit 0/2/3``), or {0}."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        stated = re.search(r"\bexit (\d+(?:/\d+)*)", comment)
        codes = {int(c) for c in stated.group(1).split("/")} if stated else {0}
        commands.append((shlex.split(command), codes))
    return commands


def test_readme_command_block_runs_with_its_stated_exit_codes(capsys):
    commands = _readme_commands()
    assert ["confhad", "specialize", "O12h", "--budget", "1"] in [argv for argv, _ in commands]
    for argv, codes in commands:
        assert argv[0] == "confhad", argv
        code, out, err = run(capsys, *argv[1:])
        assert code in codes, (argv, code, err)
        assert out, argv


def test_specialize_family_is_a_usage_error(capsys):
    for name in catalog.names():
        if catalog.kind(name) == "family":
            code, out, err = run(capsys, "specialize", name)
            assert (code, out) == (64, "") and "continuous family" in err


def test_specialize_conference_entry_is_a_usage_error(capsys):
    code, out, err = run(capsys, "specialize", "C6pq")
    assert (code, out) == (64, "")
    assert err == "confhad: error: C6pq has zero cells; specialize takes an inverse orthogonal entry\n"


SWEEP = [
    ["build"],
    ["build", "--verified"],
    ["derive"],
    ["verify"],
    ["verify", "--numeric"],
    ["verify", "--verified"],
    ["fingerprint"],
    ["specialize"],
    ["reconcile"],
]


@pytest.mark.parametrize("name", catalog.names())
def test_every_command_on_every_catalog_name_exits_with_a_documented_code(capsys, name):
    """Each command taking a catalog name either runs or fails with a
    documented exit code, never with an exception."""
    for command in SWEEP + [["equiv", name]]:
        code, _, _ = run(capsys, command[0], name, *command[1:])
        assert code in (0, 1, 2, 3, 64), (command, code)


def test_usage_errors(capsys):
    assert run(capsys, "build", "NOPE")[0] == 64
    for command in ("derive", "reconcile", "specialize"):
        assert run(capsys, command, "NOPE") == (64, "", "confhad: error: unknown catalog name 'NOPE'\n")
    for n in ("0", "1"):
        assert run(capsys, "search", "--n", n, "--roots", "2") == (
            64, "", "confhad: error: need --n >= 2 and --roots >= 1\n"
        )
    assert run(capsys, "equiv", "O12a", "H12a")[0] == 64  # free symbols
    assert run(capsys, "verify", "/no/such/file")[0] == 64
    code, _, err = run(capsys, "verify", "R12_6")
    assert code == 64 and "family" in err  # exponent patterns verify via D12*
    code, out, err = run(capsys, "verify", "H12a", "--phases", "1,2")
    assert (code, out) == (64, "") and "--phases" in err  # family entries only, as in build
    with pytest.raises(SystemExit) as exc:
        main(["search", "--n", "6"])  # missing --roots
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main(["build", "C6a", "--frobnicate"])
    assert exc.value.code == 64
    for command in (["equiv", "H12a", "H12b"], ["specialize", "O12a"], ["search", "--n", "6", "--roots", "4"]):
        for budget in ("-5", "0", "x"):  # a search needs at least one node
            with pytest.raises(SystemExit) as exc:
                main([*command, "--budget", budget])
            assert exc.value.code == 64
            captured = capsys.readouterr()
            assert captured.out == "" and "--budget" in captured.err
    for tol in ("nan", "inf", "-inf", "-1", "0", "x"):  # a tolerance is finite and positive
        with pytest.raises(SystemExit) as exc:
            main(["verify", "H12a", "--numeric", "--tol", tol])
        assert exc.value.code == 64
        captured = capsys.readouterr()
        assert captured.out == "" and "--tol" in captured.err


def test_numeric_options_take_ascii_digits_only(capsys):
    # int() and float() take underscores and non-ASCII digits; the options
    # read numbers as strictly as the file formats do
    cases = [
        (["search", "--n", "\u0666", "--roots", "\u0664"], "--n"),
        (["equiv", "H12a", "H12b", "--budget", "1_0"], "--budget"),
        (["reconcile", "--all", "--seed", "\u0663"], "--seed"),
        (["verify", "H12a", "--numeric", "--tol", "1_0"], "--tol"),
    ]
    for argv, option in cases:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (64, "") and option in captured.err
    for phases in ("0,\u0663,0,0,0,0", "0,1_0,0,0,0,0"):
        for command in ("build", "verify"):
            code, out, err = run(capsys, command, "D12a", "--phases", phases)
            assert (code, out) == (64, "") and "phase" in err


def test_empty_phase_entries_are_usage_errors(capsys):
    for phases in ("0,,0,0,0,0,0", "0,0,0,0,0,0,"):
        for command in ("build", "verify"):
            code, out, err = run(capsys, command, "D12a", "--phases", phases)
            assert (code, out) == (64, "") and "phase" in err


def test_non_finite_phases_are_usage_errors(capsys):
    for value in ("nan", "inf", "-inf"):
        for command in ("build", "verify"):
            code, out, err = run(capsys, command, "D12a", "--phases", f"0,{value},0,0,0,0")
            assert (code, out) == (64, "") and "finite" in err


def test_search_past_its_budget_exits_3_with_no_rows(capsys):
    code, out, err = run(capsys, "search", "--bordered", "--n", "14", "--roots", "4", "--budget", "1000")
    assert (code, out) == (3, "") and err.startswith("confhad: unknown:")
    for bordered in ([], ["--bordered"]):  # refused before a node is tried
        t0 = time.monotonic()
        code, out, err = run(capsys, "search", "--n", "1000000000", "--roots", "4", *bordered)
        assert (code, out) == (3, "") and err.startswith("confhad: unknown:")
        assert time.monotonic() - t0 < 1


def test_bh_order_above_the_cap_is_a_usage_error(capsys, tmp_path):
    too_big = tmp_path / "big.bh"
    too_big.write_text(f"BH 2 {MAX_BUTSON_ORDER + 1}\n0 0\n0 1\n")
    cached = cyclotomic_polynomial.cache_info().currsize
    code, out, err = run(capsys, "verify", str(too_big))
    assert (code, out) == (64, "") and "above" in err
    assert cyclotomic_polynomial.cache_info().currsize == cached  # rejected before any polynomial is built


def test_file_errors_are_usage_errors(capsys, tmp_path):
    not_utf8 = tmp_path / "latin1.sym"
    not_utf8.write_bytes(b"SYM 1\n\xe9\n")
    cases = [
        (["verify", str(tmp_path)], "cannot read"),
        (["equiv", str(tmp_path), "H12a"], "cannot read"),
        (["verify", str(not_utf8)], "cannot read"),
        (["build", "H12a", "--out", str(tmp_path / "missing" / "x")], "cannot write"),
        (["derive", "O12d", "--out", str(tmp_path)], "cannot write"),
    ]
    for argv, reason in cases:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (64, "") and err.startswith(f"confhad: error: {reason} ")


def test_non_ascii_and_underscored_numbers_are_usage_errors(capsys, tmp_path):
    cases = {
        "dim.bh": "BH 1_0 2\n" + "0 " * 10 + "\n",
        "cell.bh": "BH 1 20\n\u0663\n",
        "exp.sym": "SYM 1\na^1_0\n",
        "pair.num": "NUM 1\n1_0,\u0663\n",
    }
    for name, text in cases.items():
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "verify", str(path))
        line = 1 if name == "dim.bh" else 2
        assert (code, out) == (64, "") and f"{path}: line {line}: " in err


def _record_namespaces(monkeypatch, command):
    """Wrap a command's handler so each call's parsed namespace is kept."""
    seen = []
    handler = getattr(cli, f"_cmd_{command}")

    def recording(args):
        seen.append(args)
        return handler(args)

    monkeypatch.setattr(cli, f"_cmd_{command}", recording)
    return seen


def test_repeated_calls_parse_into_fresh_namespaces(capsys, monkeypatch):
    # one process, one shared parser: no option value may carry over
    seen = _record_namespaces(monkeypatch, "equiv")
    assert run(capsys, "equiv", "H12a", "H12b", "--budget", "5") == (
        3, "unknown (budget exhausted; nodes=5)\n", ""
    )
    code, out, _ = run(capsys, "equiv", "H12a", "H12b")
    assert code == 0 and out.startswith("equivalent (witness found; ")
    assert [a.budget for a in seen] == [5, DEFAULT_BUDGET] and seen[0] is not seen[1]

    seen = _record_namespaces(monkeypatch, "build")
    assert run(capsys, "build", "O12h", "--verified")[:2] == (
        0, emit_matrix(catalog.build_verified("O12h"))
    )
    assert run(capsys, "build", "O12h")[:2] == (0, emit_matrix(catalog.build("O12h")))
    assert [a.verified for a in seen] == [True, False]

    seen = _record_namespaces(monkeypatch, "verify")
    assert run(capsys, "verify", "D12c", "--numeric", "--seed", "5") == (0, "pass\n", "")
    assert run(capsys, "verify", "D12c", "--numeric") == (0, "pass\n", "")
    assert [a.seed for a in seen] == [5, catalog.DEFAULT_SEED]


def _exit(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


def test_usage_errors_and_help_repeat_byte_identically(capsys):
    good = run(capsys, "fingerprint", "H12d")
    assert good[0] == 0
    bad = _exit(capsys, "equiv", "H12a", "H12b", "--budget", "0")
    assert bad[:2] == (64, "") and "--budget" in bad[2]
    assert run(capsys, "fingerprint", "H12d") == good
    assert _exit(capsys, "equiv", "H12a", "H12b", "--budget", "0") == bad
    for argv in (["--help"], ["verify", "--help"]):
        first = _exit(capsys, *argv)
        assert first[0] == 0 and first[1].startswith("usage: confhad") and first[2] == ""
        assert _exit(capsys, *argv) == first


PARSER_SCRIPT = """
import confhad.cli

assert confhad.cli._parser.cache_info().currsize == 0  # import builds nothing
for _ in range(2):
    assert confhad.cli.main(["--list"]) == 0
info = confhad.cli._parser.cache_info()
assert (info.currsize, info.misses, info.hits) == (1, 1, 1), info
"""


def test_import_does_not_build_the_parser():
    env = dict(os.environ, PYTHONPATH=str(Path(confhad.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", PARSER_SCRIPT], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr


def test_python_dash_m_runs_the_cli(capsys):
    env = dict(os.environ, PYTHONPATH=str(Path(confhad.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "confhad", "--list"], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == run(capsys, "--list")[1]


def _cli_env(buffered):
    env = dict(os.environ, PYTHONPATH=str(Path(confhad.__file__).resolve().parent.parent))
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"  # every print writes, so the write fails inside the command
    return env


def _assert_output_error(code, err):
    assert code == cli.OUTPUT_ERROR == 74
    assert err.count("\n") == 1 and err.startswith("confhad: error: cannot write output: ")
    assert "Traceback" not in err and "Exception ignored" not in err


@pytest.mark.parametrize("buffered", [True, False])
def test_full_stdout_exits_74_without_a_traceback(buffered):
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "confhad", "build", "H12a"],
            stdout=full,
            stderr=subprocess.PIPE,
            env=_cli_env(buffered),
            text=True,
            timeout=300,
        )
    _assert_output_error(proc.returncode, proc.stderr)
    assert "No space left" in proc.stderr


@pytest.mark.parametrize("buffered", [True, False])
def test_stdout_closed_after_the_first_line_exits_74(capsys, buffered):
    fcntl = pytest.importorskip("fcntl")
    expected = run(capsys, "reconcile", "--all")[1]
    read_end, write_end = os.pipe()
    # the pipe holds less than the output after its first line, so the
    # command is still writing when the reader goes away
    size = fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
    assert len(expected.encode()) > size + len(expected.splitlines()[0]) + 1
    proc = subprocess.Popen(
        [sys.executable, "-m", "confhad", "reconcile", "--all"],
        stdout=write_end,
        stderr=subprocess.PIPE,
        env=_cli_env(buffered),
        text=True,
    )
    os.close(write_end)
    first = b""
    while not first.endswith(b"\n"):
        first += os.read(read_end, 1)
    os.close(read_end)
    err = proc.stderr.read()
    proc.stderr.close()
    code = proc.wait(timeout=300)
    assert first.decode() == expected.splitlines(keepends=True)[0]
    _assert_output_error(code, err)
    assert "Broken pipe" in err


def _clear_catalog_caches():
    cached = (catalog._all_repairs, catalog._recipes, catalog.build, catalog.build_verified, catalog.derive)
    for function in cached:
        function.cache_clear()


def test_unreadable_data_file_exits_74_and_names_the_file(capsys, monkeypatch):
    def missing(filename):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), f"/pkg/data/{filename}")

    monkeypatch.setattr(catalog, "_data_text", missing)
    monkeypatch.setattr(cli, "_drop_stdout", lambda: pytest.fail("stdout was dropped"))
    _clear_catalog_caches()
    try:
        code, out, err = run(capsys, "reconcile", "--all")
    finally:
        monkeypatch.undo()
        _clear_catalog_caches()
    assert code == cli.OUTPUT_ERROR == 74 and out == ""
    assert err == "confhad: error: cannot read /pkg/data/repairs.txt: No such file or directory\n"
