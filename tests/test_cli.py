import dataclasses
import json
import logging
import random
import sys
import time
from math import gcd
from types import SimpleNamespace

import pytest

from gdsum import cli, dedekind, find_character, parse_character_spec
from gdsum.cli import main, run_verify
from gdsum.dedekind import load_context, naive_sum, precompute, save_context
from gdsum.modgroup import Mat2
from reference_tables import derived_mismatches
from test_oracle import floor_sum_oracle

CHI3 = "q=3;g=2;v=1/2"
PAIR = ["--chi1", CHI3, "--chi2", CHI3]


@pytest.fixture
def builds(monkeypatch):
    """The pairs the CLI passes to `_build`, which still runs."""
    calls, real = [], cli._build
    monkeypatch.setattr(cli, "_build", lambda *a, **k: calls.append(a) or real(*a, **k))
    return calls


def test_precompute_prints_its_summary(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for _ in range(2):  # nothing is kept between runs: each builds and prints its summary
        assert main(["precompute", *PAIR]) == 0
        out = capsys.readouterr().out
        assert "N=9" in out and "|T_g0|=6" in out and "|T_sl2|=72" in out
        # what the context stores: two Gamma0 generator sums per point of P^1
        assert "|T_sl2|=72 keys, 12 points of P^1, 24 stored generator sums," in out
        assert out.count("\n") == 1 and out.endswith(" s)\n")
    # the key count is N^2 prod(1 - 1/p^2), counted without building the keys
    for pair, keys in (
        (["--chi1", "q=5;g=2;v=1/4", "--chi2", "q=7;g=3;v=1/6"], 1152),
        (["--allow-large-n", "--chi1", "q=11;g=2;v=1/2", "--chi2", "q=13;g=2;v=1/12"], 20160),
    ):
        assert main(["precompute", *pair]) == 0
        assert f"|T_sl2|={keys} keys, " in capsys.readouterr().out
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [["sum", "--matrix", "149,108;189,137"], ["sum", "--matrix", "149,108;189,137", "--trace"], ["verify"]],
    ids=["sum", "sum-trace", "verify"],
)
def test_one_precompute_and_no_file(tmp_path, capsys, monkeypatch, builds, argv):
    """`sum`, `sum --trace` and `verify` build the pair's context once, in
    process, and leave their working directory empty."""
    monkeypatch.chdir(tmp_path)
    assert main([*argv, *PAIR]) == 0
    assert len(builds) == 1
    assert not any(tmp_path.iterdir())
    out = capsys.readouterr().out
    if argv[0] == "sum":
        assert out.splitlines()[-2] == "-2/3"
    else:
        assert "FAIL" not in out


def test_parity_warning_on_every_run(capsys):
    """A pair with chi1*chi2(-1) = -1: each `sum` run, also one by the
    double sum that builds no table, prints the one parity warning line,
    and the sum 0."""
    pair = ["--chi1", CHI3, "--chi2", "q=5;g=2;v=1/2"]
    for naive in ([], [], ["--naive"], ["--naive"]):
        assert main(["sum", *pair, "--matrix", "2,1;15,8", *naive]) == 0
        out, err = capsys.readouterr()
        assert err == (
            "warning: chi1*chi2(-1) != 1 for the pair mod (3, 5); "
            "the double sum vanishes for such a pair, so every sum is 0\n"
        )
        assert out.splitlines()[0] == "0"


@pytest.mark.parametrize(
    "argv",
    [
        ["precompute"],
        ["sum", "--matrix", "2,1;15,8"],
        ["sum", "--matrix", "2,1;15,8", "--naive"],
        ["sum", "--matrix", "2,1;15,8", "--trace"],
        ["sum", "--matrix", "2,1;15,8", "--naive", "--trace"],
        ["verify", "--trials", "2", "--cmax", "100"],
    ],
    ids=["precompute", "sum", "sum-naive", "sum-trace", "sum-naive-trace", "verify"],
)
def test_parity_warning_printed_once(capsys, monkeypatch, argv):
    """Every command on a pair with chi1*chi2(-1) = -1, with a table or
    without, checks the pair once and prints the parity warning once, and
    nothing else to stderr."""
    calls, real = [], dedekind._validate_pair
    for module in (cli, dedekind):
        monkeypatch.setattr(module, "_validate_pair", lambda *a: calls.append(a) or real(*a))
    assert main([*argv, "--chi1", CHI3, "--chi2", "q=5;g=2;v=1/2"]) == 0
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("warning: chi1*chi2(-1) != 1 for the pair mod (3, 5); ")
    assert len(calls) == 1


def test_precompute_reports_oracle_calls(capsys, monkeypatch):
    calls = []

    def oracle(chi1, chi2, gamma):
        calls.append(gamma)
        return naive_sum(chi1, chi2, gamma)

    monkeypatch.setattr(dedekind, "naive_sum", oracle)
    level = logging.getLogger("gdsum").level
    assert main(["precompute", *PAIR]) == 0
    out, err = capsys.readouterr()
    assert 0 < len(calls) < 72 and f"L=2, {len(calls)} oracle calls (" in out
    assert err == ""  # the DEBUG line is caught, not printed
    assert logging.getLogger("gdsum").level == level


@pytest.mark.parametrize(
    "argv",
    [["precompute"], ["sum", "--matrix", "149,108;189,137"], ["verify", "--trials", "2", "--cmax", "100"]],
    ids=["precompute", "sum", "verify"],
)
def test_cli_leaves_logging_alone(capsys, monkeypatch, argv):
    """The CLI reads the build's counts from its return value: it leaves the
    `gdsum` logger's level and handlers as they were, so its build times no
    phase."""
    clock = []
    monkeypatch.setattr(
        dedekind, "time", SimpleNamespace(perf_counter=lambda: clock.append(1) or time.perf_counter())
    )
    logger = logging.getLogger("gdsum")
    level, handlers = logger.level, list(logger.handlers)
    assert main([*argv, *PAIR]) == 0
    assert logger.level == level and logger.handlers == handlers
    assert not clock
    assert capsys.readouterr().err == ""


def test_sum_kernel_matrix(capsys):
    rc = main(["sum", *PAIR, "--matrix", "17,32;9,17"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "0"


def test_sum_naive_flag_matches(capsys):
    args = ["sum", *PAIR, "--matrix", "20,17;27,23"]
    assert main(args) == 0
    fast_out = capsys.readouterr().out
    assert main([*args, "--naive"]) == 0
    naive_out = capsys.readouterr().out
    assert fast_out == naive_out
    assert fast_out.splitlines()[0] == "2/3"


# The complete stdout of `gdsum sum --trace`: the nearest-integer word, the
# walk's end key and its member, one line per U-factor (a nonzero T-power
# or an S, at the slot key before it), the rows added with their
# multiplicities, the count of factors on a zero row, and the value.
TRACES = {
    # N = 9: a negated word, whose walk ends at (0, -50 mod 9) = (0, 4);
    # T^17 at (3, 8), at position 2 along its orbit of length 3, wraps
    # (2 + 17) // 3 = 6 times, and the other five factors add zero rows
    "101,33;153,50": """\
gamma = (101, 33; 153, 50) = -T^1 S T^3 S T^17 S T^-3 S T^0
the walk ends at key (0, 4), whose member is g = (7, 3; 9, 4)
rewritten factors:
  U((0, 1), T^1)
  U((0, 1), S)
  U((1, 0), T^3)
  U((1, 3), S)
  U((3, 8), T^17)
  U((3, 5), S)
  U((5, 6), T^-3)
  U((5, 0), S)
terms added to the Gamma0 transversal sum at d = 4:
  S-step row at (1, 3)
  6 * orbit total at (3, 8)
  S-step row at (3, 5)
5 of 8 factors add a zero row
-34/3
  ~ (-11.3333333333, 0)
""",
    # every factor of this word adds a zero row, so no term at all
    "17,32;9,17": """\
gamma = (17, 32; 9, 17) = T^2 S T^9 S T^2
the walk ends at key (0, 8), whose member is g = (8, 7; 9, 8)
rewritten factors:
  U((0, 1), T^2)
  U((0, 1), S)
  U((1, 0), T^9)
  U((1, 0), S)
  U((0, 8), T^2)
terms added to the Gamma0 transversal sum at d = 8:
  none
5 of 5 factors add a zero row
0
  ~ (0, 0)
""",
    # a Gamma0 transversal member, here negated: its factors add no term,
    # and its sum is G(7) = G(2)
    "5,1;9,2": """\
gamma = (5, 1; 9, 2) = -T^1 S T^2 S T^-4 S T^0
the walk ends at key (0, 7), whose member is g = (4, 3; 9, 7)
rewritten factors:
  U((0, 1), T^1)
  U((0, 1), S)
  U((1, 0), T^2)
  U((1, 2), S)
  U((2, 8), T^-4)
  U((2, 0), S)
terms added to the Gamma0 transversal sum at d = 7:
  none
6 of 6 factors add a zero row
-2/3
  ~ (-0.666666666667, 0)
""",
    # N = 35, L = 12: degree-4 rows; the first word is negated, so its walk
    # ends at (0, -d mod 35), a T-power wraps back once (-1 *), and the
    # third word adds no term
    "107,-42;1470,-577": """\
gamma = (107, -42; 1470, -577) = -T^0 S T^-14 S T^-4 S T^-6 S T^-3 S T^-2 S T^-1
the walk ends at key (0, 17), whose member is g = (33, 16; 35, 17)
rewritten factors:
  U((0, 1), S)
  U((1, 0), T^-14)
  U((1, 21), S)
  U((21, 34), T^-4)
  U((21, 20), S)
  U((20, 14), T^-6)
  U((20, 34), S)
  U((34, 15), T^-3)
  U((34, 18), S)
  U((18, 1), T^-2)
  U((18, 0), S)
  U((0, 17), T^-1)
terms added to the Gamma0 transversal sum at d = 17:
  S-step row at (1, 21)
  -1 * orbit total at (21, 34)
  S-step row at (21, 20)
  S-step row at (20, 34)
8 of 12 factors add a zero row
-22/5 - 36/5*z + 32/5*z^2
  ~ (-7.43538290725, 1.94256258422)
""",
    "743,-527;1400,-993": """\
gamma = (743, -527; 1400, -993) = T^1 S T^2 S T^-8 S T^-3 S T^-4 S T^2 S T^-3 S T^-1
the walk ends at key (0, 22), whose member is g = (8, 5; 35, 22)
rewritten factors:
  U((0, 1), T^1)
  U((0, 1), S)
  U((1, 0), T^2)
  U((1, 2), S)
  U((2, 34), T^-8)
  U((2, 18), S)
  U((18, 33), T^-3)
  U((18, 14), S)
  U((14, 17), T^-4)
  U((14, 31), S)
  U((31, 21), T^2)
  U((31, 13), S)
  U((13, 4), T^-3)
  U((13, 0), S)
  U((0, 22), T^-1)
terms added to the Gamma0 transversal sum at d = 22:
  S-step row at (2, 18)
  S-step row at (18, 14)
  -1 * orbit total at (14, 17)
  S-step row at (14, 31)
11 of 15 factors add a zero row
-4/5 - 28/5*z + 26/5*z^2 + 36/5*z^3
  ~ (-3.04974226119, 8.90333209968)
""",
    "67,42;595,373": """\
gamma = (67, 42; 595, 373) = T^0 S T^-9 S T^-8 S T^3 S T^3 S T^1
the walk ends at key (0, 23), whose member is g = (32, 21; 35, 23)
rewritten factors:
  U((0, 1), S)
  U((1, 0), T^-9)
  U((1, 26), S)
  U((26, 34), T^-8)
  U((26, 1), S)
  U((1, 9), T^3)
  U((1, 12), S)
  U((12, 34), T^3)
  U((12, 0), S)
  U((0, 23), T^1)
terms added to the Gamma0 transversal sum at d = 23:
  none
10 of 10 factors add a zero row
2/5 - 4/5*z - 2/5*z^2
  ~ (-0.492820323028, -0.746410161514)
""",
}


def test_sum_trace(capsys):
    """`--trace` on three N = 9 words prints exactly the pinned text."""
    for matrix in ("101,33;153,50", "17,32;9,17", "5,1;9,2"):
        assert main(["sum", *PAIR, "--matrix", matrix, "--trace"]) == 0
        assert capsys.readouterr().out == TRACES[matrix]


@pytest.mark.parametrize("matrix", ["107,-42;1470,-577", "743,-527;1400,-993", "67,42;595,373"])
def test_sum_trace_l12(capsys, matrix):
    """`--trace` at N = 35, L = 12 prints exactly the pinned text, which
    ends with what the double sum prints."""
    args = ["sum", "--chi1", "q=5;g=2;v=1/4", "--chi2", "q=7;g=3;v=1/6"]
    assert main([*args, "--matrix", matrix, "--naive"]) == 0
    naive = capsys.readouterr().out
    assert main([*args, "--matrix", matrix, "--trace"]) == 0
    out = capsys.readouterr().out
    assert out == TRACES[matrix] and out.endswith(" factors add a zero row\n" + naive)


@pytest.mark.parametrize("matrix", ["-1,0;0,-1", "-107,42;-1470,577"])
def test_sum_matrix_starting_with_minus(capsys, matrix):
    """A --matrix value that starts with "-" is read as spaced as after "=";
    a dash value for another option, or an option after --matrix, is
    still an error."""
    pair = ["--chi1", "q=5;g=2;v=1/4", "--chi2", "q=7;g=3;v=1/6"]
    assert main(["sum", *pair, f"--matrix={matrix}"]) == 0
    attached = capsys.readouterr().out
    assert main(["sum", *pair, "--matrix", matrix]) == 0
    assert capsys.readouterr().out == attached
    for argv in (["--matrix", "--naive"], ["--chi1", matrix, "--matrix", matrix]):
        assert main(["sum", *pair, *argv]) == 1
        assert "expected one argument" in capsys.readouterr().err


def test_sum_naive_rejects_huge_c(capsys, monkeypatch, builds):
    # a 60-digit c, of either sign: the double sum would never return, so
    # the one `cli` calls raises here, and a regressed cutoff fails at once
    def no_double_sum(*args):
        raise AssertionError("the double sum was called")

    monkeypatch.setattr(cli, "naive_sum", no_double_sum)
    c = 9 * 10**59
    for matrix in (f"1,0;{c},1", f"1,0;-{c},1"):
        rc = main(["sum", *PAIR, "--matrix", matrix, "--naive"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "cutoff" in err
        assert not builds  # rejected before any precompute
    # the table path takes the same matrix
    assert main(["sum", *PAIR, "--matrix", f"1,0;{c},1"]) == 0


def test_sum_naive_builds_no_table(capsys, monkeypatch):
    """--naive evaluates the double sum from the pair alone: without
    --trace no table is built; --naive --trace still builds the table it
    explains, so the stand-in build's error reaches main's internal-error
    line."""

    def no_table(*args, **kwargs):
        raise AssertionError("a table was built")

    monkeypatch.setattr(cli, "_build", no_table)
    pair = ["--chi1", "q=7;g=3;v=1/6", "--chi2", "q=11;g=2;v=1/2"]
    args = ["sum", *pair, "--matrix", "3,2;385,257", "--naive"]
    assert main(args) == 0
    chi1, chi2 = find_character(7, [(3, "1/6")]), find_character(11, [(2, "1/2")])
    value = naive_sum(chi1, chi2, Mat2(3, 2, 385, 257))
    assert capsys.readouterr().out.splitlines()[0] == str(value) == "4/7 + 2/7*z"
    assert main([*args, "--trace"]) == 1
    assert capsys.readouterr().err == "error: internal error: AssertionError: a table was built\n"


@pytest.mark.parametrize(
    "matrix", ["-1,0;0,-1", "1,-7;0,1", "-1,3;0,-1", "1,0;-70,1", "-107,42;-1470,577"]
)
def test_sum_naive_takes_nonpositive_c(capsys, monkeypatch, matrix):
    """--naive evaluates -I, the shears +-T^b and matrices with c < 0 by the
    double sum's closure, with no table built, and prints what the table
    path prints."""
    pair = ["--chi1", "q=5;g=2;v=1/4", "--chi2", "q=7;g=3;v=1/6"]
    assert main(["sum", *pair, "--matrix", matrix]) == 0
    fast = capsys.readouterr().out

    def no_table(*args, **kwargs):
        raise AssertionError("a table was built")

    monkeypatch.setattr(cli, "_build", no_table)
    assert main(["sum", *pair, "--matrix", matrix, "--naive"]) == 0
    assert capsys.readouterr().out == fast


def test_sum_off_gamma0_names_the_matrix_given(capsys):
    """A matrix with c < 0 off Gamma0(N) is refused with exit 1 by the
    double sum and by the table path alike, each naming the matrix as it
    was given, not its inverse or negation."""
    pair = ["--chi1", "q=4;g=3;v=1/2", "--chi2", "q=7;g=3;v=5/6"]
    for naive in ([], ["--naive"]):
        assert main(["sum", *pair, "--matrix", "-3,-1;-14,-5", *naive]) == 1
        err = capsys.readouterr().err
        assert err == "error: (-3, -1; -14, -5) is not in Gamma0(28)\n", naive


def test_cached_conductor_one_pair_exits_1(tmp_path, capsys, monkeypatch):
    """A table built for a pair `precompute` rejects (chi2 of conductor 1)
    and saved is refused by `load_context` like the pair itself, and the
    CLI refuses the pair with that one error line."""
    chi1, chi2 = find_character(5, [(2, "1/2")]), find_character(1, [])
    with monkeypatch.context() as m:
        m.setattr(dedekind, "_validate_pair", lambda *pair: None)
        ctx = precompute(chi1, chi2)
    cache = tmp_path / "ctx5.json"
    save_context(ctx, cache)
    with pytest.raises(ValueError, match="chi2 must have conductor > 1"):
        load_context(cache)
    pair = ["--chi1", "q=5;g=2;v=1/2", "--chi2", "q=1"]
    for command in (["sum", "--matrix", "2,1;5,3"], ["sum", "--matrix", "2,1;5,3", "--naive"], ["verify"]):
        assert main([*command, *pair]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: chi2 must have conductor > 1\n"


# A value of the wrong type for each stored field: the three top-level
# fields, and q1 and q2, the moduli written in the specs chi1 and chi2 (a
# deleted one drops its q= field).  chi1 takes the version-5 form of its own
# character.  L and sums_alphabet, which the cache no longer writes, are
# refused as fields the pair does not give.
MALFORMED = {
    "version": "1",
    "q1": "3.0",
    "q2": "[3]",
    "L": None,
    "chi1": {"q": 3, "gens": [{"g": 2, "v": "1/2"}]},
    "chi2": None,
    "sums_alphabet": [[]],
}
STORED = ("version", "q1", "q2", "chi1", "chi2")
MALFORMED_CASES = [(key, wrong) for key in sorted(MALFORMED) for wrong in (False, True) if wrong or key in STORED]


@pytest.mark.parametrize(
    "key, wrong_type",
    MALFORMED_CASES,
    ids=[f"{key}-{'wrong-type' if wrong else 'deleted'}" for key, wrong in MALFORMED_CASES],
)
def test_malformed_cache_exits_1(tmp_path, ctx9, key, wrong_type):
    cache = tmp_path / "ctx9.json"
    save_context(ctx9, cache)
    data = json.loads(cache.read_text())
    assert data == {"version": 6, "chi1": "q=3;g=2;v=1/2", "chi2": "q=3;g=2;v=1/2"}
    if key in ("q1", "q2"):
        chi = "chi" + key[1]
        data[chi] = data[chi].replace("q=3", f"q={MALFORMED[key]}" if wrong_type else "")
    elif wrong_type:
        data[key] = MALFORMED[key]
    else:
        del data[key]
    cache.write_text(json.dumps(data))
    with pytest.raises(ValueError):
        load_context(cache)


def test_load_refuses_a_level_above_the_guardrail(tmp_path, monkeypatch):
    """A cache of level N = 143 loads only with allow_large, and without it
    is refused before any character or transversal is built."""
    chi1, chi2 = find_character(11, [(2, "1/2")]), find_character(13, [(2, "1/12")])
    big = tmp_path / "big.json"
    save_context(precompute(chi1, chi2, allow_large=True), big)
    assert load_context(big, allow_large=True).N == 143
    with monkeypatch.context() as m:
        m.setattr(dedekind, "transversal_g0_in_sl2", lambda N: pytest.fail("a transversal was built"))
        m.setattr(dedekind, "_find_character", lambda *a: pytest.fail("a character was built"))
        with pytest.raises(ValueError, match=r"^level N = 11 \* 13 = 143 exceeds the guardrail 80; pass allow_large"):
            load_context(big)


@pytest.mark.parametrize("command", ["sum", "verify"])
def test_a_stored_level_above_the_guardrail_names_the_cli_flag(tmp_path, capsys, monkeypatch, command):
    """The N = 143 pair: `load_context` refuses its saved context with an
    error naming allow_large=True, the library's way to lift the guardrail,
    and the CLI, before it builds any character, exits 1 with an error line
    naming --allow-large-n, its own way."""
    chi1, chi2 = find_character(11, [(2, "1/2")]), find_character(13, [(2, "1/12")])
    cache = tmp_path / "ctx143.json"
    save_context(precompute(chi1, chi2, allow_large=True), cache)
    monkeypatch.setattr(dedekind, "_find_character", lambda *a: pytest.fail("a character was built"))
    with pytest.raises(ValueError, match="pass allow_large=True to lift it$"):
        load_context(cache)
    pair = ["--chi1", "q=11;g=2;v=1/2", "--chi2", "q=13;g=2;v=1/12"]
    assert main([command, *pair] + (["--matrix", "1,0;143,1"] if command == "sum" else [])) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: level N = 11 * 13 = 143 exceeds the guardrail 80; ")
    assert "--allow-large-n" in err and "allow_large" not in err


def test_sum_rejects_non_member(capsys):
    rc = main(["sum", *PAIR, "--matrix", "1,0;5,1"])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_sum_names_a_non_integer_matrix_entry(capsys):
    assert main(["sum", *PAIR, "--matrix", "a,b;c,d"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: matrix entry 'a' in 'a,b;c,d' is not an integer\n"


def _decimal(*entries) -> list[str]:
    """The entries in decimal, past CPython's int-to-str digit limit too."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return [str(x) for x in entries]
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def test_sum_takes_a_5000_digit_matrix(capsys):
    """A matrix in Gamma0(28) whose c has 5,000 digits, past the 4,300 that
    CPython's int() reads by default: `sum` prints its sum, the floor-sum
    oracle's value.  The same matrix with c + 1 (det != 1), its transpose
    (off Gamma0(28)) and the matrix under --naive (past the cutoff) exit 1
    with one short error line, each naming an entry by its bit length.
    Its a has 100 digits, so its word, and the oracle's recursion on a/c,
    are about 130 steps long."""
    chi1, chi2 = find_character(4, [(3, "1/2")]), find_character(7, [(3, "5/6")])
    pair = ["--chi1", "q=4;g=3;v=1/2", "--chi2", "q=7;g=3;v=5/6"]
    rng = random.Random(5000)
    c = 28 * rng.randrange(10**4999 // 28 + 1, 10**5000 // 28)
    while gcd(a := rng.randrange(10**99, 10**100), c) != 1:
        pass
    d = pow(a, -1, c)
    gamma = Mat2(a, (a * d - 1) // c, c, d)
    a, b, c, d, c1 = _decimal(*gamma.entries(), gamma.c + 1)
    assert len(c) == 5000 and gamma.b % 28
    assert main(["sum", *pair, "--matrix", f"{a},{b};{c},{d}"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == str(floor_sum_oracle(chi1, chi2, gamma))
    bits = f"<{gamma.c.bit_length():,}-bit integer>"
    for argv, message in [
        (["--matrix", f"{a},{b};{c1},{d}"], f"determinant of (<{gamma.a.bit_length():,}-bit integer>,"),
        (["--matrix", f"{a},{c};{b},{d}"], f"{bits}; <{gamma.b.bit_length():,}-bit integer>, "),
        (["--matrix", f"{a},{b};{c},{d}", "--naive"], f"O(|c|) terms; c = {bits} is beyond the cutoff"),
    ]:
        assert main(["sum", *pair, *argv]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
        assert len(err) < 200 and message in err, err
    if hasattr(sys, "get_int_max_str_digits"):  # main restored the limit it lifted
        with pytest.raises(ValueError, match="limit"):
            str(gamma.c)


def test_usage_errors_exit_1(capsys):
    assert main(["sum", "--chi1", CHI3]) == 1
    assert main(["bogus"]) == 1
    assert main(["sum", *PAIR, "--matrix", "1,2;3"]) == 1
    assert main(["precompute", "--chi1", "q=3;g=2", "--chi2", CHI3]) == 1


def test_conductor_one_rejected(capsys):
    rc = main(["precompute", "--chi1", "q=1", "--chi2", CHI3])
    assert rc == 1
    assert "conductor" in capsys.readouterr().err


def test_verify_passes(capsys):
    rc = main(["verify", *PAIR, "--trials", "8", "--seed", "3", "--cmax", "600"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines() == [
        "PASS  oracle-equivalence  (8 matrices)",
        "PASS  hecke  (p = 2, 5 and 7, 8 matrices, c up to 10^60)",
    ]


def test_verify_builds_the_pair_once(capsys, builds):
    """`gdsum verify` calls `_build` once per run, for the pair it names,
    and both suites read that one context: two `PASS` lines, the hecke
    one naming its three primes p."""
    for trials, seed in ((1, 0), (3, 1), (20, 0)):
        builds.clear()
        assert main(["verify", *PAIR, "--trials", str(trials), "--seed", str(seed), "--cmax", "300"]) == 0
        assert builds == [(parse_character_spec(CHI3), parse_character_spec(CHI3), False)]
        lines = capsys.readouterr().out.splitlines()
        assert [line.split("  ")[:2] for line in lines] == [["PASS", "oracle-equivalence"], ["PASS", "hecke"]]
        assert lines[1].endswith(f"  (p = 2, 5 and 7, {trials} matrices, c up to 10^60)")


def test_verify_checks_derived_rows(ctx9):
    """Every S-step row, or every orbit total, shifted in the slot tables of
    a copy whose generator sums are unchanged: the derived-row check of the
    tests flags that kind of row, and `verify` fails oracle-equivalence and
    hecke."""
    for slots, kind in (("s_slot", "S"), ("t_slot", "T")):
        ctx = dataclasses.replace(ctx9)  # rows derived afresh, not shared with ctx9
        table = getattr(ctx, slots)
        for i, entry in enumerate(table):
            if entry is not None:  # the S-step row, or (pos, length, total)
                row = entry if kind == "S" else entry[2]
                row = (row[0] + ctx.den, *row[1:])
                table[i] = row if kind == "S" else (*entry[:2], row)
        _, bad = derived_mismatches(ctx, cmax=2000)
        assert bad and {k for k, _, _ in bad} == {kind}, kind
        # 4 draws: the first 2 with c <= 300 wrap no T-orbit
        failed = [name for name, ok, _ in run_verify(ctx, trials=4, seed=0, cmax=300) if not ok]
        assert failed == ["oracle-equivalence", "hecke"], kind


@pytest.mark.parametrize(
    "cmax, rc", [("9", 0), ("100000", 0), ("100001", 1), ("100000000000", 1), ("8", 1), ("-5", 1)]
)
def test_verify_cmax_range(capsys, builds, cmax, rc):
    """--cmax runs from N, the smallest c of the level, to the double-sum
    cutoff: above it the double sum would run for O(c) steps, and below N
    every matrix would silently have c = N.  Both are rejected before any
    precompute."""
    assert main(["verify", *PAIR, "--trials", "1", "--cmax", cmax]) == rc
    out, err = capsys.readouterr()
    if rc:
        assert err.startswith("error:") and "--cmax" in err and "Traceback" not in err
        assert not builds
    else:
        assert "FAIL" not in out


def test_verify_deterministic(capsys):
    args = ["verify", *PAIR, "--trials", "5", "--seed", "11", "--cmax", "300"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_verify_detects_corruption(capsys, monkeypatch):
    def corrupted_build(*args, **kwargs):
        # a copy whose stored sum of U(I, S), which opens every word with an
        # S letter, is off by one; a G(lambda) off by one would change no sum
        ctx, *counts = dedekind._build(*args, **kwargs)
        key = ((0, 1), ("S", 1))
        ctx = dataclasses.replace(ctx, sums_alphabet={**ctx.sums_alphabet, key: ctx.sums_alphabet[key] + 1})
        return ctx, *counts

    monkeypatch.setattr(cli, "_build", corrupted_build)
    rc = main(["verify", *PAIR, "--trials", "4", "--seed", "0", "--cmax", "200"])
    assert rc == 2
    out = capsys.readouterr().out
    assert "FAIL  hecke  (g=" in out


def test_verify_catches_a_wrap_count_read_as_one(monkeypatch):
    """A `reduce_word` that adds an orbit total once where its T-power
    wraps around the orbit m >= 2 times: at N = 143 (L = 60) no draw of
    oracle-equivalence, c <= 2000, meets such a wrap, and hecke, c up to
    10^60, fails."""
    chi1, chi2 = find_character(11, [(2, "1/10")]), find_character(13, [(2, "1/12")])
    ctx = precompute(chi1, chi2, allow_large=True)
    real = dedekind.reduce_word

    def clamped(w, keys, ctx, terms=None):
        seen = []  # (kind, key, m) per row
        rows = real(w, keys, ctx, seen)
        return [ctx.t_slot[k][2] if kind == "T" and m >= 2 else row for row, (kind, k, m) in zip(rows, seen)]

    monkeypatch.setattr(dedekind, "reduce_word", clamped)
    lines = run_verify(ctx, trials=20, seed=0, cmax=2000)
    assert [name for name, ok, _ in lines if not ok] == ["hecke"]


# key -> the prime at which hecke breaks: p = 2 and 3 meet (7, 30) on these draws
S_STEP_FAULTS = {(32, 17): 3, (7, 15): 3, (10, 28): 3, (14, 15): 3, (26, 19): 3, (2, 23): 3, (7, 30): 11}


@pytest.mark.parametrize("key", list(S_STEP_FAULTS), ids="{0[0]}-{0[1]}".format)
def test_verify_catches_an_s_step_fault_the_build_accepts(monkeypatch, key):
    """An S-step key row raised by 1/den at N = 35 (L = 12), at a key the
    build's relations and G check do not read: oracle-equivalence passes
    the default `verify` draws (20, seed 0), and so does the Hecke
    relation at p = 2; hecke fails at p = 3, or, at key (7, 30), at
    p = 11, the third prime."""
    chi1, chi2 = find_character(5, [(2, "1/4")]), find_character(7, [(3, "1/6")])
    real = dedekind._key_rows

    def faulted(*args):
        t_rows, s_rows = real(*args)
        i = key[0] * 35 + key[1]
        s_rows[i] = (s_rows[i][0] + 1, *s_rows[i][1:])
        return t_rows, s_rows

    monkeypatch.setattr(dedekind, "_key_rows", faulted)
    ctx = precompute(chi1, chi2)
    lines = run_verify(ctx, trials=20, seed=0, cmax=2000)
    failures = [(name, detail.endswith(f"p = {S_STEP_FAULTS[key]} breaks")) for name, ok, detail in lines if not ok]
    assert failures == [("hecke", True)]


def test_run_verify_report_structure(ctx9):
    lines = run_verify(ctx9, trials=5, seed=2, cmax=300)
    assert all(ok for _, ok, _ in lines)
    names = [name for name, _, _ in lines]
    assert names == ["oracle-equivalence", "hecke"]


@pytest.mark.parametrize(
    "chi1, chi2, message",
    [
        ("q=5;g=2;v=1/0", CHI3, "divides by 0"),
        ("q=100003;g=2;v=1/2", CHI3, "guardrail"),
        ("q=1601;g=3;v=1/2", "q=0", "must be a positive integer"),
        ("q=abc", CHI3, "modulus 'abc' in character spec 'q=abc' is not an integer"),
        ("q=5;g=x;v=1/2", CHI3, "generator 'x' in character spec 'q=5;g=x;v=1/2' is not an integer"),
        ("q=7;q=5;g=2;v=1/4", CHI3, "character spec 'q=7;q=5;g=2;v=1/4' gives q= twice"),
        ("q=4;g=2;v=1/2", CHI3, "character spec 'q=4;g=2;v=1/2' matches 0 primitive characters, need exactly 1"),
        ("q=5;g=2;v=1e1000000000", CHI3, "value '1e1000000000' in character spec 'q=5;g=2;v=1e1000000000' is in "
         "exponent notation"),
        ("q=5;v=1/4", CHI3, "value without generator in character spec 'q=5;v=1/4'\n"),
        ("q=5;g=2;g=3;v=1/4", CHI3, "dangling generator in character spec 'q=5;g=2;g=3;v=1/4'\n"),
    ],
    ids=[
        "zero-denominator", "huge-modulus", "zero-modulus", "non-integer-modulus", "non-integer-generator",
        "repeated-modulus", "no-character", "exponent-notation", "value-without-generator", "generator-after-generator",
    ],
)
def test_bad_spec_exits_1(capsys, monkeypatch, chi1, chi2, message):
    """A zero denominator, a level far above the guardrail, a modulus below
    1, a modulus or generator that is not an integer, a second q= and a
    spec no primitive character matches are errors, each one line naming
    the spec as it was written; all but the first and the last are found
    before any character table is built, although q1 * q2 = 0 passes the
    guardrail."""

    def no_tables(*args):
        raise AssertionError("a character table was built")

    if message != "divides by 0" and "matches" not in message:
        monkeypatch.setattr(dedekind, "_find_character", no_tables)
    rc = main(["sum", "--chi1", chi1, "--chi2", chi2, "--matrix", "1,0;0,1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err and err.count("\n") == 1
    assert "Fraction(" not in err


@pytest.mark.parametrize("command", ["precompute", "sum", "verify"])
def test_an_unmatched_spec_is_named_as_typed(capsys, command):
    """A spec no primitive character matches is quoted as typed, spaces,
    leading zeros and decimals kept, not as its parsed values would spell
    it, whichever of the two it is."""
    spec = " q = 5 ; g=07; v=0.3"
    for pair in (["--chi1", spec, "--chi2", "q=7;g=3;v=1/6"], ["--chi1", "q=7;g=3;v=1/6", "--chi2", spec]):
        assert main([command, *pair] + (["--matrix", "1,0;0,1"] if command == "sum" else [])) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: character spec ' q = 5 ; g=07; v=0.3' matches 0 primitive characters, need exactly 1\n"
        )


def test_verify_applies_the_guardrail_before_the_cmax_range(capsys, monkeypatch, builds):
    """At N = 2021, above the guardrail and above the default --cmax,
    `verify` names the guardrail and --allow-large-n; with the flag it names
    the --cmax range.  Neither builds a character or a context."""
    monkeypatch.setattr(dedekind, "_find_character", lambda *a: pytest.fail("a character was built"))
    pair = ["--chi1", "q=43;g=3;v=1/2", "--chi2", "q=47;g=5;v=1/2"]
    for flags, message in [
        ([], "error: level N = 43 * 47 = 2021 exceeds the guardrail 80; pass --allow-large-n to lift it\n"),
        (["--allow-large-n"], "error: --cmax must lie between N = 2021 and the double-sum cutoff 100000\n"),
    ]:
        assert main(["verify", *flags, *pair]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == message
    assert not builds


@pytest.mark.parametrize("count", ["0", "-3"])
def test_nonpositive_counts_exit_1(capsys, count):
    assert main(["verify", *PAIR, "--trials", count]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--trials" in err


def test_an_unexpected_error_exits_1_with_one_line(capsys, caplog, monkeypatch):
    """An exception no known error covers still gives exit 1 and one
    `error: internal error:` line, never a raw traceback; the traceback is
    logged at DEBUG on `gdsum.cli`."""

    def broken_build(*args, **kwargs):
        raise KeyError(((11, 29), ("T", 1)))

    monkeypatch.setattr(cli, "_build", broken_build)
    with caplog.at_level(logging.DEBUG, logger="gdsum.cli"):
        assert main(["precompute", *PAIR]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: internal error: KeyError: ") and err.count("\n") == 1, err
    assert len(err) <= 201 and "Traceback" not in err
    (record,) = caplog.records
    assert record.name == "gdsum.cli" and record.levelno == logging.DEBUG and record.exc_info[0] is KeyError


def test_an_interrupt_still_propagates(monkeypatch):
    """main catches Exception only: a KeyboardInterrupt is not turned into an error line."""

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_build", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["precompute", *PAIR])
