"""CLI grammar, JSON/DOT output, exit codes, and the verify report."""

import argparse
import ast
import gc
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import mutant, run_cli
from hypothesis import example, given
from hypothesis import strategies as st

import triplet
from triplet import base, cli, fusion, kacmod, verify
from triplet.virasoro import Params, kac_k, simple_l


def test_weights_output():
    code, out, _ = run_cli(["weights", "--p", "2", "--q", "3", "--r", "7", "--s", "1"])
    assert code == 0
    assert json.loads(out) == {"c": "0", "h": "15", "canonical": [7, 1]}


def test_weights_preset():
    code, out, _ = run_cli(["weights", "--pq-preset", "2,5", "--r", "1", "--s", "1"])
    assert code == 0
    assert json.loads(out)["c"] == "-22/5"


def test_preset_conflicts_with_explicit():
    code, _, err = run_cli(["weights", "--pq-preset", "2,3", "--p", "2", "--r", "1", "--s", "1"])
    assert code == 2 and "conflicts" in err


def test_fuse_l_output_round_trips():
    code, out, _ = run_cli(["fuse-L", "--p", "2", "--q", "3", "--m", "3", "--n", "3"])
    assert code == 0
    entries = json.loads(out)["entries"]
    objs = [e["obj"] for e in entries]
    assert objs == [{"kind": "KacDualK11"}, {"kind": "SimpleL", "label": [7, 1]}]


def test_fuse_c_output():
    code, out, _ = run_cli(["fuse-C", "--m", "1", "--n", "1"])
    assert code == 0
    assert json.loads(out) == {
        "entries": [
            {"mult": 1, "obj": {"kind": "Ln", "n": 0}},
            {"mult": 1, "obj": {"kind": "Ln", "n": 2}},
        ]
    }


def test_kac_diagram_json():
    code, out, _ = run_cli(["kac-diagram", "--p", "2", "--q", "3", "--m", "2", "--n", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["module"] == {"kind": "KacK", "label": [3, 5]}
    assert len(payload["nodes"]) == 6
    assert len(payload["edges"]) == 8
    layers = {n["layer"] for n in payload["nodes"]}
    assert layers == {"top", "middle", "socle"}


def test_kac_diagram_dot():
    code, out, _ = run_cli(
        ["kac-diagram", "--p", "2", "--q", "3", "--m", "2", "--n", "2", "--format", "dot"]
    )
    assert code == 0
    assert out.startswith("digraph loewy {")
    assert '"L_3_1" [label="L_{3,1} (h=2)"];' in out


KAC_ARGV = ["kac-diagram", "--p", "2", "--q", "3", "--m", "2", "--n", "2"]


def _kac_run(extra=(), output=None) -> tuple[int, bytes, bytes]:
    """Run ``triplet kac-diagram`` in a child with TRIPLET_OUTPUT unset or set.

    No environment variable selects the format any more: TRIPLET_OUTPUT,
    which once did, must leave exit code and bytes unchanged.
    """
    env = {k: v for k, v in _child_env().items() if k != "TRIPLET_OUTPUT"}
    if output is not None:
        env["TRIPLET_OUTPUT"] = output
    argv = [sys.executable, "-m", "triplet", *KAC_ARGV, *extra]
    run = subprocess.run(argv, capture_output=True, env=env)
    return run.returncode, run.stdout, run.stderr


def test_kac_diagram_env_default():
    plain = _kac_run()
    assert plain[0] == 0 and plain[1].startswith(b"{")
    assert _kac_run(output="dot") == plain
    assert _kac_run(["--format", "json"], output="dot") == plain
    code, out, _ = _kac_run(["--format", "dot"], output="dot")
    assert code == 0 and out.startswith(b"digraph loewy {")


def test_invalid_env_format():
    plain = _kac_run()
    assert plain[0] == 0
    assert _kac_run(output="yaml") == plain


# Strings that need every kind of escape json.dumps makes, and ints past
# any fixed width, besides whatever Hypothesis draws.
_JSON_STRINGS = st.text() | st.text(st.sampled_from('"\\/\x00\x08\n\t\x1f\x7f aé€\U0001d400'))
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(min_value=2**64) | _JSON_STRINGS,
    lambda children: st.lists(children) | st.dictionaries(_JSON_STRINGS, children),
    max_leaves=30,
)


@given(_JSON_VALUES)
@example({"": [], "{}": {}, "x": [[], {}, [{}]]})
@example(["\"q\" \\ \x00\x1f\u2028 é \U0001d400", -1, -(2**64) - 1, 2**64, 2**200])
@example({"t": True, "f": False, "n": None, "nested": {"a": [True, None, 0]}})
def test_json_writer_matches_json_dumps(value):
    assert _streamed(value) == json.dumps(value, indent=2)


def _pieces(value) -> list[str]:
    """The pieces `cli._write_json` writes for `value`, in order."""
    pieces: list[str] = []
    cli._write_json(value, pieces.append)
    return pieces


def _streamed(value) -> str:
    """What `cli._write_json` writes for `value`."""
    return "".join(_pieces(value))


def test_json_piece_size_does_not_grow_with_the_payload():
    # Every list and dict goes out item by item, so a longer payload means
    # more pieces, never a longer one: its whole text is never held.
    def longest(count: int) -> int:
        return max(map(len, _pieces([{"mult": 1, "n": k % 7} for k in range(count)])))

    assert longest(10) == longest(10_000)


# Matrices of str cells, every row as long as the first; "0" often, since
# the streaming writer fills in the "0" cells a sparse matrix leaves out.
_CELLS = st.sampled_from(["0", "0", "1", "-3/4"]) | _JSON_STRINGS
_MATRICES = st.integers(0, 5).flatmap(
    lambda cols: st.lists(st.lists(_CELLS, min_size=cols, max_size=cols), max_size=5)
)


@given(_MATRICES, st.sampled_from([1, 2, 3, cli._PIECE_CELLS]))
@example([], cli._PIECE_CELLS)
@example([["0"]], 1)
@example([["-1"]], cli._PIECE_CELLS)
@example([[], []], 1)
@example([["0", "0", "0"], ["0", "0", "0"], ["0", "2", "0"], ["0", "0", "0"]], 2)
@example([["0", "0"]] * 5, 1)
def test_streamed_matrix_matches_json_dumps(matrix, piece):
    # The writer holds at most `piece` cells of text at once; small pieces
    # split runs of zero cells and of zero rows.  A "0" cell is left out or
    # written explicitly, and an all-zero row is left out or given empty.
    cols = len(matrix[0]) if matrix else 0
    rows = {}
    for r, row in enumerate(matrix):
        entries = {j: x for j, x in enumerate(row) if x != "0" or (r + j) % 3 == 0}
        if entries or r % 2:
            rows[r] = entries
    payload = {"n": 0, "M": cli._Sparse((len(matrix), cols), rows), "k": [1]}
    with mock.patch.object(cli, "_PIECE_CELLS", piece):
        assert _streamed(payload) == json.dumps({"n": 0, "M": matrix, "k": [1]}, indent=2)


def _sl2_dense(n: int, op: str) -> dict:
    """The `sl2 --op irrep` or `form` payload for V_n, built densely from
    the integral convention: E v_k = k(n-k+1) v_{k-1}, F v_k = v_{k+1},
    H v_k = (n-2k) v_k and B[k][n-k] = (-1)^k."""
    def matrix(cell) -> list:
        return [[str(cell(i, j)) for j in range(n + 1)] for i in range(n + 1)]

    if op == "form":
        return {"n": n, "B": matrix(lambda i, j: (-1) ** i if i + j == n else 0)}
    return {
        "n": n,
        "E": matrix(lambda i, j: j * (n - j + 1) if j == i + 1 else 0),
        "F": matrix(lambda i, j: 1 if i == j + 1 else 0),
        "H": matrix(lambda i, j: n - 2 * i if i == j else 0),
    }


@pytest.mark.parametrize("op", ["irrep", "form"])
@pytest.mark.parametrize("n", [0, 1, 4, 9])
def test_sl2_streams_the_json_dumps_bytes(n, op):
    code, out, err = run_cli(["sl2", "--n", str(n), "--op", op])
    assert (code, err) == (0, "")
    assert out == json.dumps(_sl2_dense(n, op), indent=2) + "\n"


@pytest.mark.parametrize("value", [0.5, [1, 2.0], {"h": float("nan")}, (1, 2), {1: "a"}])
def test_json_writer_refuses_what_json_dumps_would_change(value):
    # A float would print an inexact number; json.dumps would turn a tuple
    # into a list and an int key into a string.
    with pytest.raises(TypeError):
        _streamed(value)


# sha256 of `triplet --help` and of each `<sub> --help` at 80 columns.  They
# pin the parser's help bytes, which argparse lays out differently from
# one Python minor version to the next; these are Python 3.11's.
HELP_SHA256 = {
    None: "4446d7df6457fb1b6cf3ca93c6c51e038fa8a11b50b0a16cf305c6116e4ec3ca",
    "weights": "10a2c2bf40abac6ab0211b91a153a82e348150ae64f5ee7c7d9c90519a996b4c",
    "fuse-L": "339a345a8a9c83ef1e452f8404fc90cd3288a6fc051213c58cad3682e0e7ed55",
    "fuse-C": "65d1fecaaa569dfc7456f25e7b0d6a4fb7cd6fa9de4c0ad2c8bed90cbba5a52c",
    "kac-diagram": "dc23dc3c713c6c6add58478d72a75d7d26e82b484347a4e9df286d6c35f2ecce",
    "hexagon": "dc9f69d25a858771dfcebec0e55a1fbf5046fa61c002b13a5950d1bd55fe91dd",
    "braiding": "1ef22d77217cda3789f607cee7e5d54df6b487f62f76f6a846d4078ed406ba4e",
    "decompose": "c723071a222654d366c54e520439a5d1da2078b906fe33905f5666294a715cea",
    "o0-check": "a22bd734d77a7992eb1f385e39f602f270544abab0341bc87f220ce5a01b4dba",
    "sl2": "333cb5bba65a7ebd9dc6fd3f78b4d34825f819674c1cffaaaed6180d227d06fb",
    "verify": "0034cb854a4f2f747568a22a1ccece91c7c2a8abcfc913a5de0268a86bfd340b",
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="hashes are of Python 3.11's argparse")
@pytest.mark.parametrize("sub", list(HELP_SHA256), ids=[s or "triplet" for s in HELP_SHA256])
def test_help_bytes_are_pinned(sub, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    code, out, err = run_cli([sub, "--help"] if sub else ["--help"])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_SHA256[sub]


# sha256 of the stderr of `triplet decompose --p 2 --q 3`, a usage error, at
# 80 columns: argparse prints the usage line, wrapped, before the message.
USAGE_ERROR_SHA256 = "16e0ad770c6688647e41352d398b37857999a3905fa8ff53ecde2f326fc1bdd9"


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="hashes are of Python 3.11's argparse")
@pytest.mark.parametrize("columns", ["40", "200"])
def test_help_and_usage_bytes_ignore_the_terminal_width(columns, monkeypatch):
    monkeypatch.setenv("COLUMNS", columns)
    for sub, digest in HELP_SHA256.items():
        code, out, err = run_cli([sub, "--help"] if sub else ["--help"])
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest, sub
    code, out, err = run_cli(["decompose", "--p", "2", "--q", "3"])
    assert (code, out) == (2, "")
    assert hashlib.sha256(err.encode()).hexdigest() == USAGE_ERROR_SHA256


# Exit code and stderr sha256 of argv that stop in, or right after, the
# parser: the benchmark's error requests, each subcommand with no arguments,
# and argv where the subcommand is not the first token or a value names one.
PARSER_EDGE_CASES = [
    ("bogus", 2, "81d8e2ecbea09b4bb1e51cce01b2f92929b27f60d5578bbb8c7511223deb4809"),
    ("braiding --p 2 --q 3 --n -1", 2, "565871c44d2ece27f2b88e5335c07cccf037300ef98066809b1fdda4c3603046"),
    ("decompose --p 2 --q 3 --target wpq --nmax 0", 2, "9df3c00b7531914774b582d8dc9d117d0d9e1754b86c0067454c46340b47afc5"),
    ("fuse-L --p 2 --q 3 --m 1 --n 3", 2, "7934731983449b8f0f5c3112168a004c292c55c41cf0518891ce9d8ece466e14"),
    ("hexagon --p 2 --q 3 --t 0", 2, "4fd5f146fb8550df3473e8222a2cd3d7a894d8052b730a79dca98e79eb5ca29f"),
    ("hexagon --p 2 --q 3 --t 1/0", 2, "d6753e207e4a33370ae2ed39ef07da0af5d6eb6129fb4a93ba0ec49eb7f2645e"),
    ("kac-diagram --p 2 --q 3 --m 2 --n 3", 2, "f63e25c222313d8dca2667273c22ad5d1f53c17ef161ab226801d1484b54e7b9"),
    ("kac-diagram --p 2 --q 3 --r 4 --s 4", 3, "96637ecf7717d823fbd6579800159386d2e7a63bcb4781168c912d81a850e267"),
    ("sl2 --n -1 --op irrep", 2, "565871c44d2ece27f2b88e5335c07cccf037300ef98066809b1fdda4c3603046"),
    ("sl2 --n 2 --op cg --m 2 --k 1", 2, "4d2e3ea476c9c4d3529983f790d8f187b6c9a56e520a1053767e8663a742c38c"),
    ("weights --p 2 --q 4 --r 1 --s 1", 2, "32c87a976251a8d4e42a1313f1dd2505e7776af8a55d158da7733c417556442c"),
    ("weights --p 3 --q 3 --r 1 --s 1", 2, "8de5721d940117fedc89558b0204c7fecc2a26b7db350313d9f600cb547cede0"),
    ("weights", 2, "3d46642089ca0fac6bffc6e2730194bb620384334e81c23b425a63308e4b7788"),
    ("fuse-L", 2, "e5bfb6189b8763aab6e21cfbf977a3834ec3cd95cd5d48c70c910f351bc31930"),
    ("fuse-C", 2, "29c41ae9817023b1837ec15e186becc29bd914cc9684ae92db3063c1bd6495fa"),
    ("kac-diagram", 2, "a5d9eb433dfbe9149f1dbea1e603e22a7723f20e0aa13e39426a8a5628f1837b"),
    ("hexagon", 2, "a5d9eb433dfbe9149f1dbea1e603e22a7723f20e0aa13e39426a8a5628f1837b"),
    ("braiding", 2, "7c344e39ef7234d1f5fdd190b9bde96a64e8f78ed4b9b1228370b4df30d5bc31"),
    ("decompose", 2, "16e0ad770c6688647e41352d398b37857999a3905fa8ff53ecde2f326fc1bdd9"),
    ("o0-check", 2, "31de5700c83bb7e3cc02b6e8cab80946a32200695658276686b916316d92a208"),
    ("sl2", 2, "af664b29a2651257c630d77f9effa536c6f5afc054647096c49d8c87131a5749"),
    ("verify", 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("-x weights", 2, "3d46642089ca0fac6bffc6e2730194bb620384334e81c23b425a63308e4b7788"),
    ("-- weights", 2, "b377767c17d0ecf591733d8ca4ee390f38e50cd6d7501037398359e5c18a6d50"),
    ("bogus sl2", 2, "81d8e2ecbea09b4bb1e51cce01b2f92929b27f60d5578bbb8c7511223deb4809"),
    ("--help sl2", 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hexagon --p 2 --q 3 --t verify", 2, "040097b911bdbc6d356f9382c5a744f0c4d0253516c06e9426dfd80003abe1a7"),
]


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="hashes are of Python 3.11's argparse")
@pytest.mark.parametrize("request_line, code, stderr_sha256", PARSER_EDGE_CASES)
def test_parser_edge_cases_keep_exit_code_and_stderr(request_line, code, stderr_sha256, monkeypatch):
    # `verify` with no arguments runs every suite; what is pinned here is
    # only how the parser got there.
    monkeypatch.setattr(verify, "run_suites", lambda names: [])
    got, out, err = run_cli(request_line.split())
    assert (got, hashlib.sha256(err.encode()).hexdigest()) == (code, stderr_sha256)
    if request_line == "--help sl2":  # the top-level help; `sl2` is never read
        assert out == run_cli(["--help"])[1]


@pytest.mark.parametrize(
    "request_line",
    ["hexagon --p 2 --q 3 --t=--", "weights --p=-- --q 3 --r 1 --s 1", "verify --suite=--"],
)
def test_flag_equals_double_dash_fails_as_flag_double_dash(request_line):
    # argparse strips the value "--" of `--flag=--` to an empty list; it must
    # be refused as `--flag --` is, not reach the subcommand.
    code, out, err = run_cli(request_line.split())
    assert (code, out) == (2, "")
    assert (code, out, err) == run_cli(request_line.replace("=--", " --").split())
    flag = request_line.split("=")[0].split()[-1]
    assert err.endswith(f"error: argument {flag}: expected one argument\n")


def test_exit_2_on_m_less_than_n():
    code, _, err = run_cli(["kac-diagram", "--p", "2", "--q", "3", "--m", "2", "--n", "3"])
    assert code == 2 and "swap" in err


@pytest.mark.parametrize(
    "flags, message",
    [(["--r", "5"], "--r and --s must be given together"), (["--m", "3"], "missing --m/--n")],
    ids=["r-without-s", "m-without-n"],
)
def test_exit_2_on_a_half_given_kac_label(flags, message):
    code, out, err = run_cli(["kac-diagram", "--p", "2", "--q", "3", *flags])
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_exit_2_on_bad_params():
    code, _, err = run_cli(["weights", "--p", "2", "--q", "4", "--r", "1", "--s", "1"])
    assert code == 2 and "coprime" in err


def test_exit_2_on_unknown_subcommand():
    code, _, _ = run_cli(["frobnicate"])
    assert code == 2


def test_exit_3_on_general_kac_diagram():
    code, _, err = run_cli(["kac-diagram", "--p", "2", "--q", "3", "--r", "4", "--s", "4"])
    assert code == 3 and "K_{4,4}" in err
    # the mm-nn-shaped raw label is served instead of rejected
    code, out, _ = run_cli(["kac-diagram", "--p", "2", "--q", "3", "--r", "3", "--s", "5"])
    assert code == 0 and json.loads(out)["m"] == 2


def test_exit_2_on_kac_label_below_one():
    # Checked as a Kac label, like `weights`, before the family check.
    for label, pair in (("0", "(0,0)"), ("-1", "(-1,-1)")):
        argv = ["kac-diagram", "--p", "2", "--q", "3", "--r", label, "--s", label]
        assert run_cli(argv) == (2, "", f"error: Kac labels need r,s >= 1, got {pair}\n")


def test_any_other_exception_exits_5_with_one_line(monkeypatch):
    # A fault inside a command gives no traceback: empty stdout and one
    # stderr line, the exception's own lines joined.
    def broken(args):
        raise RuntimeError("first line\nsecond line")

    help, options, _, cost = cli.COMMANDS["weights"]
    monkeypatch.setitem(cli.COMMANDS, "weights", (help, options, broken, cost))
    code, out, err = run_cli(["weights", "--p", "2", "--q", "3", "--r", "1", "--s", "1"])
    assert (code, out) == (cli.EXIT_CODES["internal"], "") == (5, "")
    assert err == "error: internal error: RuntimeError: first line second line\n"


def test_readme_lists_every_exit_code_of_the_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n- Exit codes,", 1)[1].split("\n- ", 1)[0]
    listed = re.findall(r"^  - `(\d+)` \(`(\w+)`\): ", block, re.MULTILINE)
    assert [(name, int(code)) for code, name in listed] == list(cli.EXIT_CODES.items())
    assert len(set(cli.EXIT_CODES.values())) == len(cli.EXIT_CODES)


def test_unsupported_object_error_is_one_class(monkeypatch):
    assert kacmod.UnsupportedObjectError is base.UnsupportedObjectError
    assert fusion.UnsupportedObjectError is base.UnsupportedObjectError is cli.UnsupportedObjectError
    params = Params(2, 3)
    socle = fusion.decomp_from_pairs([(1, simple_l(3, 1))])
    k12 = fusion.decomp_from_pairs([(1, kac_k(1, 2))])
    message = "unsupported fusion entry L_{3,1} (x) K_{1,2}"
    with pytest.raises(cli.UnsupportedObjectError) as exc:
        fusion.fusion_ring_product(params, socle, k12)
    assert str(exc.value) == message
    # Raised inside fusion during a call, it is caught by main and exits 3.
    monkeypatch.setattr(
        fusion, "fuse_L_family", lambda params, m, n: fusion.fusion_ring_product(params, socle, k12)
    )
    argv = ["fuse-L", "--p", "2", "--q", "3", "--m", "2", "--n", "2"]
    assert run_cli(argv) == (3, "", f"error: {message}\n")


def test_hexagon_output():
    code, out, _ = run_cli(["hexagon", "--p", "2", "--q", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["epsilon"] == 1
    assert payload["residual_zero"] is True
    kinds = [sol["kind"] for sol in payload["solutions"]]
    assert kinds == ["Diagonal", "Parametrized"]
    dims = [sol["intrinsic_dimension"] for sol in payload["solutions"]]
    assert dims == ["1", "-2"]


def test_hexagon_with_t():
    code, out, _ = run_cli(["hexagon", "--p", "2", "--q", "3", "--t", "1/2"])
    assert code == 0
    payload = json.loads(out)
    param = payload["solutions"][1]
    assert param["F_at_t"] == [["-1/2", "1/2"], ["-3/2", "-1/2"]]
    code, _, err = run_cli(["hexagon", "--p", "2", "--q", "3", "--t", "0"])
    assert (code, err) == (2, "error: --t must be nonzero\n")
    for bad in ("1/0", "abc"):
        code, out, err = run_cli(["hexagon", "--p", "2", "--q", "3", "--t", bad])
        assert (code, out, err) == (2, "", f"error: --t is not a rational number: '{bad}'\n")
    # Size caps apply before Fraction builds the number.
    for bad in ("1e5000", "1E-101", "2.5e+1_000"):
        code, out, err = run_cli(["hexagon", "--p", "2", "--q", "3", "--t", bad])
        assert (code, out, err) == (2, "", f"error: --t exponent is outside [-100, 100]: '{bad}'\n")
    code, out, err = run_cli(["hexagon", "--p", "2", "--q", "3", "--t", "1" * 101])
    assert (code, out, err) == (2, "", "error: --t is longer than 100 characters\n")
    code, out, _ = run_cli(["hexagon", "--p", "2", "--q", "3", "--t", "1e-100"])
    assert code == 0 and json.loads(out)["t"] == "1/1" + "0" * 100


# The F-matrix entry c*t^e as `hexagon` prints it, for e = -1, 0, 1.
MONOMIAL_STRS = {
    0: ("0", "0", "0"),
    1: ("(1)/(t)", "1", "t"),
    -1: ("(-1)/(t)", "-1", "-t"),
    2: ("(2)/(t)", "2", "2*t"),
    Fraction(-3, 4): ("(-3/4)/(t)", "-3/4", "-3/4*t"),
    Fraction(-22, 5): ("(-22/5)/(t)", "-22/5", "-22/5*t"),
}


@pytest.mark.parametrize("c", MONOMIAL_STRS, ids=str)
def test_monomial_str_forms(c):
    for e, text in zip((-1, 0, 1), MONOMIAL_STRS[c]):
        assert cli._monomial_str(str(Fraction(c)), e) == text


# Integers on both sides of 2**64, so the big-int paths of gcd and // run.
_RATIO_INTS = st.one_of(st.integers(-50, 50), st.integers(-(2**80), 2**80))


@given(_RATIO_INTS, _RATIO_INTS.filter(bool))
@example(0, 1)
@example(0, -7)
@example(-6, 4)
@example(6, -4)
@example(-6, -4)
@example(2**64 + 1, -(2**64 + 1))
@example(3 * 2**70, -(2**65))
def test_ratio_str_writes_what_str_writes_of_the_fraction(num, den):
    # `sl2 --op cg` writes its cells through `base.ratio_str` from two
    # integers, without building a Fraction; `hexagon` and `braiding` write
    # theirs with `str`, and the two must agree.
    assert base.ratio_str(num, den) == str(Fraction(num, den))


@given(st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4))
def test_ratio_str_round_trip(a):
    assert Fraction(base.ratio_str(a.numerator, a.denominator)) == a


def test_ratio_str_format():
    assert base.ratio_str(3, 1) == "3"
    assert base.ratio_str(-22, 5) == "-22/5"
    assert base.ratio_str(22, -5) == "-22/5"
    assert base.ratio_str(-6, -4) == "3/2"


def test_ratio_str_refuses_a_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        base.ratio_str(1, 0)
    with pytest.raises(ZeroDivisionError):
        base.ratio_str(0, 0)


@pytest.mark.parametrize("digits", [4000, 5000])
@pytest.mark.parametrize(
    "argv, option",
    [
        (["weights", "--p", "2", "--q", "3", "--s", "1", "--r"], "--r"),
        (["sl2", "--op", "form", "--n"], "--n"),
    ],
)
def test_integer_options_are_capped_by_length(argv, option, digits):
    # 4,000 digits used to fail in int-to-str with a message naming no
    # option, and 5,000 digits were echoed back whole by argparse.
    code, out, err = run_cli(argv + ["7" * digits])
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].endswith(
        f"error: argument {option}: integer is longer than {cli.INT_MAX_CHARS} characters"
    )
    assert "7" * 20 not in err and "Traceback" not in err


def test_integer_option_cap_boundary_and_messages():
    base = ["weights", "--p", "2", "--q", "3", "--s", "1", "--r"]
    code, out, _ = run_cli(base + ["1" * cli.INT_MAX_CHARS])
    assert code == 0 and json.loads(out)["canonical"] == [int("1" * cli.INT_MAX_CHARS), 1]
    code, _, err = run_cli(base + ["1" * (cli.INT_MAX_CHARS + 1)])
    assert code == 2 and "argument --r: integer is longer than" in err
    # A malformed value keeps the message of argparse's plain int type.
    code, _, err = run_cli(base + ["abc"])
    assert code == 2 and err.splitlines()[-1].endswith("argument --r: invalid int value: 'abc'")


HUGE = "1" + "0" * 23  # 24 digits: past the platform's index size
# `fuse-L` at m = n = 10^18 asks for 10^18 - 1 channels: they fit the index
# size, but their list of 8e18 bytes cannot be allocated.  `fuse-C` refuses
# the same size by its cap.
BIG = str(10**18)


@pytest.mark.parametrize(
    "argv",
    [
        ["fuse-C", "--m", HUGE, "--n", HUGE],
        ["fuse-L", "--p", "2", "--q", "3", "--m", HUGE, "--n", HUGE],
        ["kac-diagram", "--p", "2", "--q", "3", "--m", HUGE, "--n", HUGE],
        ["braiding", "--p", "2", "--q", "3", "--n", HUGE],
        ["sl2", "--op", "irrep", "--n", HUGE],
        ["sl2", "--op", "form", "--n", HUGE],
        ["fuse-C", "--m", BIG, "--n", BIG],
        ["fuse-L", "--p", "2", "--q", "3", "--m", BIG, "--n", BIG],
    ],
    ids=[
        "fuse-C",
        "fuse-L",
        "kac-diagram",
        "braiding",
        "sl2-irrep",
        "sl2-form",
        "fuse-C-memory",
        "fuse-L-memory",
    ],
)
def test_overflowing_sizes_exit_2_with_one_line(argv):
    # Each of these used to end in an OverflowError or MemoryError traceback
    # and exit 1, the code of a failed verify property.
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert err[len("error: ") :].strip()  # str(MemoryError()) is empty


def _subparser(name: str) -> argparse.ArgumentParser:
    """`triplet NAME`'s parser, with its arguments, as `main` builds it."""
    parser = cli.build_parser(name)
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return subparsers.choices[name]


def test_every_integer_option_is_length_capped():
    # Each subcommand's parser is built on its own, as a call builds it.
    assert len(cli.COMMANDS) == 10
    typed = [
        (name, action.dest, action.type)
        for name in cli.COMMANDS
        for action in _subparser(name)._actions
        if action.type is not None
    ]
    # `hexagon --t` is a string with its own cap; every other typed option
    # is an integer.
    assert [(name, dest) for name, dest, kind in typed if kind is not cli._int_arg] == [
        ("hexagon", "t")
    ]


# sha256 of the stdout bytes; every preset has epsilon = 1, so the three
# presets print the same payload.
HEXAGON_STDOUT_SHA256 = {
    None: "bc2b903b9f8875b84c5ba635ccd8671bd80fc9f05dc97addf87978a232eb6907",
    "1/2": "238fb0f74f3ef45ba7704f78aeb75a8bacf26a5c31f03500528ff56cbd808994",
}


@pytest.mark.parametrize("t", [None, "1/2"])
@pytest.mark.parametrize("preset", ["2,3", "3,4", "2,5"])
def test_hexagon_stdout_bytes_are_pinned(preset, t):
    argv = ["hexagon", "--pq-preset", preset] + ([] if t is None else ["--t", t])
    code, out, err = run_cli(argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == HEXAGON_STDOUT_SHA256[t]


# The benchmark's byte contract: each request's exit code and stdout sha256,
# keyed by the space-joined argv.  `verify --suite all` is left to
# `test_verify_all_lists_registry_in_order`, `test_acceptance.py` and the
# one `python -OO` child of `test_verify_under_python_OO_prints_the_plain_bytes`.
BENCHMARK_GOLDENS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "goldens.json").read_text()
)["goldens"]
GOLDEN_REQUESTS = sorted(req for req in BENCHMARK_GOLDENS if req != "verify --suite all")


def _no_float(text: str):
    raise AssertionError(f"non-exact number in JSON output: {text}")


@pytest.mark.parametrize("request_line", GOLDEN_REQUESTS)
def test_cli_matches_benchmark_goldens(request_line):
    code, out, _ = run_cli(request_line.split())
    golden = BENCHMARK_GOLDENS[request_line]
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (
        golden["exit"],
        golden["stdout_sha256"],
    )
    # Exact values are printed as strings or integers; a float, NaN or
    # Infinity in the JSON would mean an inexact value reached the output.
    if out.startswith("{"):
        json.loads(out, parse_float=_no_float, parse_constant=_no_float)


# Values the strict grammar, a type or a choices list refuses, besides the
# good values each option draws: negative and empty values, "--", a bad
# choice, a 101-digit integer, and a subcommand name.
_ODD_VALUES = ["", "-1", "-3/7", "--", "-h", "bogus", "1" * 101, "verify", "2,3", "wpq"]
# Tokens that leave the strict grammar wherever they stand: help, "--",
# abbreviations, a flag of another subcommand, a stray word.
_ODD_TOKENS = ["-h", "--help", "--", "--pq", "--targ", "--for", "--su", "--nmax", "--op", "bogus"]


def _good_values(kwargs: dict):
    if "choices" in kwargs:
        return st.sampled_from(list(kwargs["choices"]))
    if kwargs.get("type") is cli._int_arg:
        return st.integers(-3, 12).map(str)
    return st.text(max_size=4) | st.sampled_from(["1/2", "-3/7", "2"])  # hexagon --t


@st.composite
def _argv(draw) -> list[str]:
    """argv drawn from the option table.  Half keep to the strict grammar:
    each option at most once and every required one, with good values.  The
    rest give each option zero to two times, a few odd values and tokens,
    the odd tokens anywhere, before the subcommand included.  Either way
    each option takes either form, in any order."""
    command = draw(st.sampled_from(list(cli.COMMANDS)))
    odd = draw(st.booleans())
    picked = []
    for flag, kwargs in cli.COMMANDS[command][1]:
        counts = [0, 1, 1, 2] if odd else [1] if kwargs.get("required") else [0, 1]
        picked += [(flag, kwargs)] * draw(st.sampled_from(counts))
    argv = [command]
    for flag, kwargs in draw(st.permutations(picked)):
        good = _good_values(kwargs)
        value = draw(st.one_of(good, good, st.sampled_from(_ODD_VALUES)) if odd else good)
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    for _ in range(draw(st.integers(0, 2)) if odd else 0):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(_ODD_TOKENS)))
    return argv


def _assert_fast_parse_agrees(argv: list[str]) -> None:
    """Where `_parse_known` reads argv, argparse reads the same namespace."""
    fast = cli._parse_known(argv)
    if fast is None:
        return
    err = io.StringIO()
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            slow = cli.build_parser(argv[0]).parse_args(argv)
    except SystemExit:
        raise AssertionError(f"argparse refuses {argv}: {err.getvalue()}") from None
    assert vars(fast) == vars(slow), argv


@given(_argv())
@example(["decompose", "--p", "2", "--q", "3", "--target", "bogus", "--nmax", "3"])
@example(["verify", "--suite", "wpq", "--suite=fusion"])
@example(["hexagon", "--p", "3", "--q", "4", "--t=-3/7"])
@example(["braiding", "--p", "2", "--q", "3", "--n", "-1"])
@example(["hexagon", "--p", "3", "--q", "4", "--t", "-3"])
@example(["hexagon", "--p", "3", "--q", "4", "--t", "-3/7"])
@example(["hexagon", "--t=--"])
@example(["hexagon", "--t="])
@example(["decompose", "--p", "2", "--q", "3", "--targ", "wpq", "--nmax", "3"])
@example(["weights", "--pq", "2,3", "--r", "1", "--s", "1"])
@example(["weights", "--p=-2", "--q", "3", "--r", "1", "--s", "1"])
@example(["weights", "--p", "2", "--q", "3", "--r", "1", "--s", "1", "--p", "3"])
@example(["weights", "--p", "2", "--q", "3", "--r", "1", "--s", "1" * 101])
@example(["sl2", "--n", "2", "--op", "irrep", "--nmax", "3"])
@example(["sl2", "--n", "2", "--op", "irrep", "-h"])
@example(["sl2", "--", "--n", "2", "--op", "irrep"])
@example(["-x", "sl2", "--n", "2", "--op", "irrep"])
@example(["sl2", "--n", "2"])
def test_fast_parser_equals_argparse(argv):
    _assert_fast_parse_agrees(argv)


# Values for the fuzzed calls: every size small, so that a call takes
# milliseconds, and `--t` both good and bad.  Every integer size option of
# a sized subcommand is also drawn from 10**6 to 10**30: such a call is
# refused by its cost before any work, or cheap because its other size is
# small.
_FUZZ_INTS = st.integers(-2, 12).map(str)
_FUZZ_SIZES = _FUZZ_INTS | st.integers(10**6, 10**30).map(str)
_FUZZ_T = st.sampled_from(["1/2", "0", "1/0", "x", "1e200"])
# The subcommands that a size option scales.
SIZED = ["fuse-L", "fuse-C", "kac-diagram", "braiding", "decompose", "o0-check", "sl2"]


@st.composite
def _well_formed_argv(draw, sizes=_FUZZ_SIZES) -> list[str]:
    """A well-formed call of any subcommand but `verify`: each option at
    most once, every required one, values of the right kind but not always
    in range.  (p, q) comes from 1-6, coprime or not, or from a preset."""
    command = draw(st.sampled_from([name for name in cli.COMMANDS if name != "verify"]))
    options = dict(cli.COMMANDS[command][1])
    argv = [command]
    if "--p" in options:
        if draw(st.booleans()):
            argv += ["--pq-preset", draw(st.sampled_from(sorted(cli.PQ_PRESETS)))]
        else:
            argv += ["--p", str(draw(st.integers(1, 6))), "--q", str(draw(st.integers(1, 6)))]
    # kac-diagram names its module by one pair, --m/--n or --r/--s.
    by, other = ((), ())
    if command == "kac-diagram":
        by, other = draw(st.permutations([("--m", "--n"), ("--r", "--s")]))
    for flag, kwargs in options.items():
        if flag in ("--p", "--q", "--pq-preset", *other):
            continue
        if flag in by or kwargs.get("required") or draw(st.booleans()):
            if "choices" in kwargs:
                value = draw(st.sampled_from(list(kwargs["choices"])))
            elif flag == "--t":
                value = draw(_FUZZ_T)
            else:
                value = draw(sizes if command in SIZED else _FUZZ_INTS)
            argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    return argv


@given(_well_formed_argv())
@example(["fuse-L", "--p", "4", "--q", "2", "--m", "2", "--n", "2"])
@example(["kac-diagram", "--pq-preset", "2,3", "--r", "4", "--s", "4"])
@example(["hexagon", "--p", "1", "--q", "1", "--t", "1e200"])
@example(["sl2", "--n", "12", "--op", "cg", "--m", "12", "--k", "0"])
@example(["fuse-L", "--p", "2", "--q", "3", "--m", "600000", "--n", "600000"])
@example(["kac-diagram", "--p", "2", "--q", "3", "--m", "100000", "--n", "100000"])
@example(["kac-diagram", "--p", "2", "--q", "3", "--r", "199999", "--s", "299999"])
@example(["fuse-C", "--m", "150001", "--n", "150001"])
@example(["braiding", "--pq-preset", "2,3", "--n", "100000"])
@example(["decompose", "--p", "2", "--q", "3", "--target", "wpq", "--nmax", "100000"])
@example(["o0-check", "--pq-preset", "3,4", "--nmax", "100000"])
@example(["sl2", "--n", "1000000", "--op", "cg", "--m", "1000000", "--k", "1000000"])
def test_fuzzed_calls_exit_with_a_code_of_the_table(argv):
    code, out, err = run_cli(argv)
    assert code in cli.EXIT_CODES.values(), (argv, code)
    assert code not in (cli.EXIT_CODES["internal"], cli.EXIT_CODES["failed"]), (argv, err)
    assert "Traceback" not in err, argv
    assert run_cli(argv)[1] == out, argv
    if code == 0 and not {"dot", "--format=dot"} & set(argv):  # JSON, not DOT
        assert json.dumps(json.loads(out), indent=2) + "\n" == out, argv


@pytest.mark.parametrize(
    "old, new",
    [
        ('if "choices" in kwargs and value not in kwargs["choices"]:', "if False:"),
        ("[*(values[flag] or ()), value]", "values[flag] or [value]"),
    ],
    ids=["choices-unchecked", "first-repeat-wins"],
)
def test_fast_parser_check_catches_a_wrong_parser(old, new, monkeypatch):
    monkeypatch.setattr(cli, "_parse_known", mutant(cli._parse_known, old, new))
    with pytest.raises(AssertionError):
        test_fast_parser_equals_argparse()


def test_golden_argv_take_the_fast_path():
    # All but the unknown subcommand: a separate negative integer, as in
    # `braiding --n -1`, is read as a value, as argparse reads it.
    declined = [req for req in BENCHMARK_GOLDENS if cli._parse_known(req.split()) is None]
    assert declined == ["bogus"]
    for request_line in BENCHMARK_GOLDENS:
        _assert_fast_parse_agrees(request_line.split())


def test_braiding_output():
    code, out, _ = run_cli(["braiding", "--p", "2", "--q", "3", "--n", "1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["channels"] == [0, 2]
    assert payload["table"] == {"0": {"exp": "1"}, "2": {"exp": "0"}}
    assert payload["formula"] == {"0": {"exp": "0"}, "2": {"exp": "1"}}
    assert payload["conventions_differ_by_sign"] is True
    assert payload["balancing"] == {"0": {"exp": "0"}, "2": {"exp": "0"}}
    code, out, _ = run_cli(["braiding", "--p", "2", "--q", "3", "--n", "2"])
    assert code == 0
    assert "table" not in json.loads(out)


def test_braiding_large_n_within_budget():
    # One R-scalar and one balancing phase per channel: linear in n.  A
    # channel check that rebuilds fuse_C(n, n) per channel is quadratic
    # (0.9 s at n=5000 on a 2-vCPU Xeon).  The layers the subcommand imports
    # are loaded first, so the clock times the call and not the imports, and
    # it reads this process's CPU time, which other processes on a shared
    # host do not inflate.
    import triplet.braidfmat  # noqa: F401
    import triplet.fusion  # noqa: F401

    start = time.process_time()
    code, out, _ = run_cli(["braiding", "--p", "2", "--q", "3", "--n", "5000"])
    assert time.process_time() - start < 0.5
    assert code == 0
    assert len(json.loads(out)["formula"]) == 5001


def test_decompose_targets():
    for target, first_kind in [
        ("wpq", "KacK"),
        ("wpq-equivariant", "KacK"),
        ("ideal", "SimpleL"),
        ("wprime", "KacDualK11"),
    ]:
        code, out, _ = run_cli(
            ["decompose", "--p", "2", "--q", "3", "--target", target, "--nmax", "3"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["entries"][0]["obj"]["kind"] == first_kind
    code, _, _ = run_cli(["decompose", "--p", "2", "--q", "3", "--target", "wpq", "--nmax", "1"])
    assert code == 2


def test_decompose_json_round_trips():
    code, out, _ = run_cli(
        ["decompose", "--p", "2", "--q", "3", "--target", "wpq-equivariant", "--nmax", "4"]
    )
    assert code == 0
    assert json.loads(out) == {
        "target": "wpq-equivariant",
        "n_max": 4,
        "entries": [
            {"psl2": 0, "mult": 1, "obj": {"kind": "KacK", "label": [1, 1]}, "h": "0"},
            {"psl2": 2, "mult": 3, "obj": {"kind": "SimpleL", "label": [7, 1]}, "h": "15"},
            {"psl2": 4, "mult": 5, "obj": {"kind": "SimpleL", "label": [11, 1]}, "h": "40"},
            {"psl2": 6, "mult": 7, "obj": {"kind": "SimpleL", "label": [15, 1]}, "h": "77"},
        ],
    }


def test_o0_check_output():
    code, out, _ = run_cli(["o0-check", "--p", "3", "--q", "4", "--nmax", "3"])
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows[0] == {"n": 2, "difference": "30", "integral": True}
    assert all(row["integral"] for row in rows)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--n", "-1", "--op", "form"], "error: --n must be >= 0, got -1\n"),
        (["--n", "2", "--op", "cg"], "error: --op cg requires --m and --k\n"),
        (["--n", "2", "--op", "cg", "--m", "3"], "error: --op cg requires --m and --k\n"),
        (["--n", "2", "--op", "cg", "--k", "1"], "error: --op cg requires --m and --k\n"),
        (["--n", "2", "--op", "cg", "--m", "3", "--k", "2"],
         "error: k=2 is not a channel of V_3 (x) V_2\n"),
        (["--n", "2", "--op", "cg", "--m", "3", "--k", "7"],
         "error: k=7 is not a channel of V_3 (x) V_2\n"),
        # One past each op's budget edge (see the budget tests below).
        (
            ["--n", "6028", "--op", "irrep"],
            "error: sl2 may build 379827 and write 1200126826 bytes, over its budgets of 9000000 built and 1200000000 written\n",
        ),
        (
            ["--n", "10443", "--op", "form"],
            "error: sl2 may build 229768 and write 1200214154 bytes, over its budgets of 9000000 built and 1200000000 written\n",
        ),
        (
            ["--n", "154", "--op", "cg", "--m", "154", "--k", "154"],
            "error: sl2 may build 9105475 and write 91345183 bytes, over its budgets of 9000000 built and 1200000000 written\n",
        ),
    ],
    ids=["n<0", "cg", "cg-m", "cg-k", "k-below", "k-above", "irrep-cap", "form-cap", "cg-cap"],
)
def test_sl2_errors_exit_2_with_empty_stdout(argv, message):
    # Every check runs before the first byte is written, budgets included.
    assert run_cli(["sl2", *argv]) == (2, "", message)


def _cost(argv: list[str]) -> tuple[int, int]:
    """The cost `main` reads for a well-formed argv, on either parser's path."""
    args = cli._parse_known(argv) or cli.build_parser(argv[0]).parse_args(argv)
    return cli.COMMANDS[argv[0]][3](args)


def _refusal(argv: list[str]) -> str:
    """The one line that refuses `argv` by its cost."""
    built, written = _cost(argv)
    return (
        f"error: {argv[0]} may build {built} and write {written} bytes, over its budgets of "
        f"{cli.MAX_BUILT_BYTES} built and {cli.MAX_OUTPUT_BYTES} written\n"
    )


def _admitted(argv: list[str]) -> bool:
    built, written = _cost(argv)
    return built <= cli.MAX_BUILT_BYTES and written <= cli.MAX_OUTPUT_BYTES


P100, Q100 = str(10**99 + 7), str(10**99 + 9)  # coprime, of INT_MAX_CHARS digits
# Each sized call as a function of one size, which its cost grows with.
BUDGET_EDGES = {
    "fuse-L": lambda v: ["fuse-L", "--p", "2", "--q", "3", "--m", v, "--n", v],
    "fuse-C": lambda v: ["fuse-C", "--m", v, "--n", v],
    "kac-diagram": lambda v: ["kac-diagram", "--p", "2", "--q", "3", "--m", v, "--n", v],
    "kac-diagram-rs": lambda v: [
        "kac-diagram", "--pq-preset", "2,3", "--r", str(2 * int(v) - 1), "--s", str(3 * int(v) - 1)
    ],
    "braiding": lambda v: ["braiding", "--pq-preset", "2,3", "--n", v],
    "braiding-100-digits": lambda v: ["braiding", "--p", P100, "--q", Q100, "--n", v],
    "decompose": lambda v: ["decompose", "--p", "2", "--q", "3", "--target", "ideal", "--nmax", v],
    "decompose-100-digits": lambda v: [
        "decompose", "--p", P100, "--q", Q100, "--target", "wpq-equivariant", "--nmax", v
    ],
    "o0-check": lambda v: ["o0-check", "--pq-preset", "3,4", "--nmax", v],
    "sl2-irrep": lambda v: ["sl2", "--n", v, "--op", "irrep"],
    "sl2-form": lambda v: ["sl2", "--n", v, "--op", "form"],
    "sl2-cg": lambda v: ["sl2", "--op", "cg", *(f"--{x}={2 * int(v)}" for x in "mnk")],
    "sl2-cg-k0": lambda v: ["sl2", "--n", v, "--op", "cg", "--m", v, "--k", "0"],
}


def _edge(make) -> int:
    """The largest size that `make` is admitted at, by bisection."""
    low, high = 2, 4
    while _admitted(make(str(high))):
        low, high = high, 2 * high
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (mid, high) if _admitted(make(str(mid))) else (low, mid)
    return low


@pytest.mark.parametrize("name", list(BUDGET_EDGES))
def test_budget_refuses_one_past_its_edge_and_admits_the_edge(name):
    make = BUDGET_EDGES[name]
    edge = _edge(make)
    over = make(str(edge + 1))
    assert run_cli(over) == (2, "", _refusal(over))
    # At the edge the call gets past the budget, to its handler: to the
    # parameters, or for the parameter-free calls to the writer.
    past = ValueError("past the budget")
    with mock.patch.object(cli, "_resolve_params", side_effect=past):
        with mock.patch.object(cli, "_emit", side_effect=past):
            assert run_cli(make(str(edge))) == (2, "", "error: past the budget\n")


def test_sl2_caps_admit_their_largest_calls():
    # At each op's budget edge the whole handler runs; only its output is skipped.
    for name in ["sl2-irrep", "sl2-form", "sl2-cg", "sl2-cg-k0"]:
        make = BUDGET_EDGES[name]
        with mock.patch.object(cli, "_emit", lambda payload: None):
            assert run_cli(make(str(_edge(make)))) == (0, "", ""), name


@pytest.mark.parametrize(
    "argv",
    [
        ["fuse-L", "--p", "2", "--q", "3", "--m", "600000", "--n", "600000"],
        ["kac-diagram", "--p", "2", "--q", "3", "--m", "100000", "--n", "100000"],
        ["kac-diagram", "--p", "2", "--q", "3", "--r", "199999", "--s", "299999"],
    ],
    ids=["fuse-L", "kac-diagram", "kac-diagram-rs"],
)
def test_formerly_uncapped_calls_are_refused_in_one_line(argv):
    code, out, err = run_cli(argv)
    assert (code, out, err) == (2, "", _refusal(argv))
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["sl2", "--n", "3000", "--op", "form"],
        ["sl2", "--op", "cg", "--m", "60", "--n", "60", "--k", "60"],
        ["braiding", "--p", "2", "--q", "3", "--n", "20000"],
    ],
    ids=["sl2-form", "sl2-cg", "braiding"],
)
def test_budgets_admit_the_streamed_and_the_mid_sized_calls(argv):
    assert _admitted(argv)


HUGE_SIZE = str(10**30)


# Huge sizes with arguments that the handler refuses itself: its own
# message is written, not the budget's.
@pytest.mark.parametrize(
    "argv, code, message",
    [
        (
            ["fuse-L", "--p", "4", "--q", "2", "--m", HUGE_SIZE, "--n", HUGE_SIZE],
            2,
            "p and q must be coprime, got (4,2)",
        ),
        (
            ["fuse-L", "--pq-preset", "2,3", "--p", "2", "--m", HUGE_SIZE, "--n", HUGE_SIZE],
            2,
            "--pq-preset conflicts with explicit --p/--q",
        ),
        (["braiding", "--q", "3", "--n", HUGE_SIZE], 2, "missing --p/--q (or use --pq-preset)"),
        (
            ["kac-diagram", "--pq-preset", "2,3", "--m", HUGE_SIZE, "--n", HUGE_SIZE, "--r", "5"],
            2,
            "give either --m/--n or --r/--s, not both",
        ),
        (
            ["kac-diagram", "--pq-preset", "2,3", "--r", HUGE_SIZE, "--s", HUGE_SIZE],
            3,
            f"no Loewy diagram available for the general Kac label K_{{{HUGE_SIZE},{HUGE_SIZE}}}",
        ),
        (
            ["kac-diagram", "--pq-preset", "2,3", "--m", "5", "--n", HUGE_SIZE],
            2,
            f"diagram needs m >= n (swap the arguments), got m=5 < n={HUGE_SIZE}",
        ),
        (
            ["decompose", "--p", "1", "--q", "3", "--target", "wpq", "--nmax", HUGE_SIZE],
            2,
            "p and q must be >= 2, got (1,3)",
        ),
        (
            ["o0-check", "--p", "6", "--q", "3", "--nmax", HUGE_SIZE],
            2,
            "p and q must be coprime, got (6,3)",
        ),
        (
            ["sl2", "--n", HUGE_SIZE, "--op", "cg", "--m", HUGE_SIZE, "--k", "1"],
            2,
            f"k=1 is not a channel of V_{HUGE_SIZE} (x) V_{HUGE_SIZE}",
        ),
        (["sl2", "--n", HUGE_SIZE, "--op", "cg"], 2, "--op cg requires --m and --k"),
    ],
)
def test_a_cost_is_within_budget_where_the_handler_refuses_the_arguments(argv, code, message):
    assert _admitted(argv), argv
    assert run_cli(argv) == (code, "", f"error: {message}\n")


# What a cost may overstate: written <= COST_K * len(stdout) + COST_C.
COST_K, COST_C = 4, 8192


@st.composite
def _small_argv(draw) -> list[str]:
    """A small well-formed call of any subcommand, `verify` included."""
    if draw(st.integers(0, 10)) == 0:
        return ["verify", "--suite", draw(st.sampled_from(["all", *sorted(verify.PROPERTIES)]))]
    return draw(_well_formed_argv(sizes=_FUZZ_INTS))


@given(_small_argv())
@example(["fuse-C", "--m", "12", "--n", "12"])
@example(["kac-diagram", "--pq-preset", "3,4", "--m", "12", "--n", "12", "--format", "dot"])
@example(["braiding", "--pq-preset", "2,5", "--n", "1"])
@example(["sl2", "--n", "12", "--op", "cg", "--m", "12", "--k", "12"])
@example(["verify", "--suite", "all"])
def test_cost_bounds_the_output_and_is_close_to_it(argv):
    built, written = _cost(argv)
    code, out, _ = run_cli(argv)
    if code == 0:
        assert len(out) <= written and built <= written, (argv, len(out), built, written)
        assert written <= COST_K * len(out) + COST_C, (argv, len(out), written)


@pytest.mark.parametrize(
    "argv",
    [
        ["braiding", "--p", P100, "--q", Q100, "--n", "300"],
        ["decompose", "--p", Q100, "--q", "2", "--target", "wpq-equivariant", "--nmax", "300"],
        ["o0-check", "--p", P100, "--q", Q100, "--nmax", "300"],
        ["fuse-L", "--p", P100, "--q", Q100, "--m", "300", "--n", "200"],
        ["kac-diagram", "--p", P100, "--q", Q100, "--m", "40", "--n", "30", "--format", "dot"],
        ["kac-diagram", "--p", Q100, "--q", "2", "--m", "40", "--n", "30"],
        ["sl2", "--n", "61", "--op", "cg", "--m", "60", "--k", "61"],
        ["sl2", "--n", "300", "--op", "cg", "--m", "1", "--k", "301"],
        ["sl2", "--n", "400", "--op", "irrep"],
    ],
)
def test_cost_bounds_the_output_at_large_digits_and_sizes(argv):
    built, written = _cost(argv)
    code, out, _ = run_cli(argv)
    assert code == 0 and len(out) <= written and built <= written


def _cg_argv(m: int, n: int, k: int) -> list[str]:
    return ["sl2", "--n", str(n), "--op", "cg", "--m", str(m), "--k", str(k)]


def _built_text(argv: list[str]) -> int:
    """What `built` counts of an `sl2 --op cg` call: the text of each nonzero
    cell it builds, and 12 bytes of layout each."""
    payloads = []
    with mock.patch.object(cli, "_emit", payloads.append):
        assert run_cli(argv) == (0, "", "")
    (payload,) = payloads
    rows = [*payload["projection"].rows.values(), *payload["inclusion"].rows.values()]
    return sum(12 + len(cell) for row in rows for cell in row.values())


def test_sl2_cg_cost_covers_the_text_of_its_nonzero_cells():
    # The cells are reduced fractions, whose digits the cost bounds through
    # the closed forms of their numerators and denominators.
    for m in range(13):
        for n in range(13):
            for k in range(abs(m - n), m + n + 1, 2):
                argv = _cg_argv(m, n, k)
                assert _built_text(argv) <= _cost(argv)[0], argv


@pytest.mark.parametrize(
    "m, n, k",
    [(60, 60, 60), (152, 152, 152), (100, 100, 0), (100, 200, 100), (150, 50, 100), (1, 300, 301)],
)
def test_sl2_cg_cost_covers_the_text_of_large_channels(m, n, k):
    argv = _cg_argv(m, n, k)
    assert _built_text(argv) <= _cost(argv)[0]


def test_sl2_subcommand():
    code, out, _ = run_cli(["sl2", "--n", "1", "--op", "irrep"])
    assert code == 0
    payload = json.loads(out)
    assert payload["H"] == [["1", "0"], ["0", "-1"]]
    code, out, _ = run_cli(["sl2", "--n", "1", "--op", "cg", "--m", "1", "--k", "0"])
    assert code == 0
    assert json.loads(out)["projection"] == [["0", "1/2", "-1/2", "0"]]
    code, _, err = run_cli(["sl2", "--n", "1", "--op", "cg"])
    assert code == 2 and "requires" in err
    code, _, _ = run_cli(["sl2", "--n", "2", "--op", "cg", "--m", "2", "--k", "1"])
    assert code == 2
    code, out, err = run_cli(["sl2", "--n", "1", "--op", "cg", "--m", "-1", "--k", "0"])
    assert (code, out, err) == (2, "", "error: highest weight must be >= 0, got -1\n")


def test_verify_single_suite():
    code, out, _ = run_cli(["verify", "--suite", "exactnum"])
    assert code == 0
    assert "ok   exactnum.rat_addition_exact" in out
    assert out.strip().endswith("properties passed")


VERIFY_ALL_PROPERTIES = [
    "exactnum.rat_addition_exact",
    "exactnum.phase_abelian_group",
    "exactnum.param_scalar_evaluation_hom",
    "virasoro.weight_translation_symmetry",
    "virasoro.canonical_label_idempotent_and_weight_preserving",
    "virasoro.family_weight_identities",
    "kacmod.diagram_node_counts_layers_distinct_weights",
    "kacmod.diagram_edges_respect_layers",
    "kacmod.diagram_vs_fusion_factor_multisets",
    "kacmod.simple_quotient_list_shapes",
    "fusion.fuse_C_equals_cg_oracle",
    "fusion.fusion_ring_commutative_associative",
    "fusion.dimension_grading",
    "fusion.even_subring_closed",
    "braidfmat.squared_r_scalars_equal_balancing",
    "braidfmat.balancing_n1_is_parity_sign",
    "braidfmat.hexagon_solutions_zero_residual",
    "braidfmat.hexagon_sign_flip_invariance",
    "braidfmat.intrinsic_dimensions",
    "sl2rep.bracket_relations",
    "sl2rep.invariant_form_unique_nondegenerate_symmetry",
    "sl2rep.cg_biorthogonality_and_completeness",
    "sl2rep.unit_channel_projection_is_bilinear_form",
    "sl2rep.simplicity_witnesses_exist",
    "wpq.truncations_are_prefixes",
    "wpq.equivariant_dimension_agreement",
    "wpq.ideal_and_quotient_bookkeeping",
    "wpq.multiplicity_totals_square",
    "wpq.o0_weight_identity_integral",
]


def test_verify_all_lists_registry_in_order(monkeypatch):
    # The properties themselves run in test_acceptance; here only the
    # names, their order and the report format are pinned.
    for props in verify.PROPERTIES.values():
        for name in props:
            monkeypatch.setitem(props, name, lambda: None)
    code, out, _ = run_cli(["verify", "--suite", "all"])
    expected = "".join(f"ok   {name}\n" for name in VERIFY_ALL_PROPERTIES)
    assert (code, out) == (0, expected + "29/29 properties passed\n")


def test_verify_reports_a_failed_property(monkeypatch):
    def broken():
        raise AssertionError("x != y")

    monkeypatch.setitem(verify.PROPERTIES["exactnum"], "phase_abelian_group", broken)
    code, out, _ = run_cli(["verify", "--suite", "exactnum"])
    assert code == 1
    assert out.splitlines()[1:] == [
        "FAIL exactnum.phase_abelian_group: AssertionError: x != y",
        "ok   exactnum.param_scalar_evaluation_hom",
        "2/3 properties passed, 1 failed",
    ]


def _child_env() -> dict:
    """The environment for a child interpreter that imports this checkout's
    triplet.  No other ``PYTHON*`` variable is passed on: ``PYTHONUNBUFFERED``,
    say, would keep the child's stdout from ever holding a buffer."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(Path(triplet.__file__).resolve().parents[1])
    return env


def test_child_env_passes_on_only_pythonpath(monkeypatch):
    monkeypatch.setenv("PYTHONUNBUFFERED", "1")
    env = _child_env()
    assert [k for k in env if k.startswith("PYTHON")] == ["PYTHONPATH"]


def test_verify_under_python_OO_prints_the_plain_bytes():
    # -OO strips what -O strips, and docstrings besides; the bytes are the
    # benchmark's golden ones.
    run = subprocess.run(
        [sys.executable, "-OO", "-m", "triplet", "verify", "--suite", "all"],
        capture_output=True,
        env=_child_env(),
    )
    golden = BENCHMARK_GOLDENS["verify --suite all"]
    assert (run.returncode, run.stderr, hashlib.sha256(run.stdout).hexdigest()) == (
        golden["exit"],
        b"",
        golden["stdout_sha256"],
    )


# A canonical_label whose second application moves (3,1) at (2,3).
NON_IDEMPOTENT_SCRIPT = """
import sys
from triplet import cli, verify
from triplet.virasoro import VirLabel, canonical_label

def wrong(params, lbl):
    if (lbl.r, lbl.s) == (3, 1):
        return VirLabel(3 + params.p, 1 + params.q)
    return canonical_label(params, lbl)

verify.canonical_label = wrong
sys.exit(cli.main(["verify", "--suite", "virasoro"]))
"""


def test_verify_under_python_O_still_fails_a_mutant():
    result = subprocess.run(
        [sys.executable, "-O", "-c", NON_IDEMPOTENT_SCRIPT],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert (result.returncode, result.stderr) == (1, "")
    assert result.stdout.splitlines()[1:] == [
        "FAIL virasoro.canonical_label_idempotent_and_weight_preserving: AssertionError: "
        "Params(p=2, q=3) canonical_label not idempotent: VirLabel(r=3, s=1) VirLabel(r=5, s=4)",
        "ok   virasoro.family_weight_identities",
        "2/3 properties passed, 1 failed",
    ]


def _closed_stdout_run(argv, flags=()) -> tuple[int, bytes]:
    """Exit code and stderr of a child whose reader closes stdout at once,
    before the child can write anything."""
    child = subprocess.Popen(
        [sys.executable, *flags, "-m", "triplet", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(),
    )
    child.stdout.close()
    stderr = child.stderr.read()
    child.stderr.close()
    return child.wait(), stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "exactnum"],  # a few lines, held in the buffer
        ["sl2", "--n", "200", "--op", "form"],  # far more than a pipe holds
        ["sl2", "--n", "3000", "--op", "form"],  # closed while it streams 99 MB
        ["fuse-C", "--m", "20000", "--n", "20000"],  # closed while it streams 1.9 MB of lists
    ],
)
def test_closed_stdout_exits_with_its_code_and_no_traceback(argv):
    assert _closed_stdout_run(argv) == (cli.EXIT_CODES["broken_pipe"], b"")  # no traceback
    assert cli.EXIT_CODES["broken_pipe"] == 4


@pytest.mark.parametrize("argv", [["--help"], ["weights", "--help"]], ids=["triplet", "weights"])
def test_help_into_a_closed_pipe_exits_with_its_code(argv):
    # Unbuffered, argparse's own write of the help meets the closed pipe;
    # argparse would drop that error and exit 0.
    assert _closed_stdout_run(argv, ["-u"]) == (cli.EXIT_CODES["broken_pipe"], b"")


def test_determinism_across_repeats():
    commands = [
        ["weights", "--p", "2", "--q", "3", "--r", "7", "--s", "1"],
        ["fuse-L", "--p", "3", "--q", "4", "--m", "4", "--n", "2"],
        ["fuse-C", "--m", "5", "--n", "3"],
        ["kac-diagram", "--p", "2", "--q", "5", "--m", "3", "--n", "2"],
        ["kac-diagram", "--p", "2", "--q", "3", "--m", "3", "--n", "3", "--format", "dot"],
        ["hexagon", "--p", "3", "--q", "4", "--t", "2/7"],
        ["braiding", "--p", "2", "--q", "5", "--n", "1"],
        ["decompose", "--p", "2", "--q", "3", "--target", "wpq-equivariant", "--nmax", "4"],
        ["o0-check", "--p", "2", "--q", "3", "--nmax", "5"],
        ["sl2", "--n", "3", "--op", "form"],
    ]
    for argv in commands:
        first = run_cli(argv)
        second = run_cli(argv)
        assert first == second
        assert first[0] == 0


WEIGHTS_ARGV = ["weights", "--p", "2", "--q", "3", "--r", "1", "--s", "1"]
# One argv per exit of `main`: 0, a usage error (2), an invalid value (2), an
# unsupported request (3), and argparse's `--help`, which raises SystemExit.
PROCESS_EXITS = [
    (WEIGHTS_ARGV, 0),
    (["weights", "--p", "2"], 2),
    (["sl2", "--n", "-1", "--op", "irrep"], 2),
    (["kac-diagram", "--p", "2", "--q", "3", "--r", "4", "--s", "4"], 3),
    (["--help"], 0),
]
PROCESS_EXIT_IDS = ["ok", "usage", "invalid", "unsupported", "help"]


def _child_run(args) -> tuple[int, bytes, bytes]:
    """Exit code, stdout and stderr of `python args` on this checkout."""
    run = subprocess.run([sys.executable, *args], capture_output=True, env=_child_env())
    return run.returncode, run.stdout, run.stderr


def _exit_calls(path: Path) -> list[str]:
    """The names f of the `sys.exit(f())` calls in a source file."""
    return [
        node.args[0].func.id
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and ast.unparse(node.func) == "sys.exit"
        and isinstance(node.args[0], ast.Call)
        and isinstance(node.args[0].func, ast.Name)
    ]


def test_console_entry_point():
    # `python -m triplet`, `python -m triplet.cli` and the `triplet` console
    # script all enter through one function of `cli`.  pyproject.toml is read
    # with a regex: tomllib needs Python 3.11.
    package = Path(triplet.__file__).resolve().parent
    pyproject = (package.parents[1] / "pyproject.toml").read_text()
    scripts = pyproject.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert re.findall(r'^(\w+) = "triplet\.cli:(\w+)"$', scripts, re.MULTILINE) == [("triplet", "run")]
    assert _exit_calls(package / "__main__.py") == ["run"]
    assert _exit_calls(package / "cli.py") == ["run"]
    # The console script's wrapper imports the function and exits with what
    # it returns, as the `-c` line here does.
    console = ["-c", "import sys; from triplet.cli import run; sys.exit(run())"]
    runs = {}
    for argv, code in PROCESS_EXITS[:2]:
        runs[code] = _child_run(["-m", "triplet", *argv])
        assert runs[code][0] == code
        assert _child_run(["-m", "triplet.cli", *argv]) == runs[code]
        assert _child_run([*console, *argv]) == runs[code]
    assert json.loads(runs[0][1]) == {"c": "0", "h": "0", "canonical": [1, 1]}


@pytest.mark.parametrize("argv, code", PROCESS_EXITS, ids=PROCESS_EXIT_IDS)
def test_main_in_process_never_freezes_the_heap(argv, code):
    # Only the process entry `cli.run` freezes the heap, after `main` has
    # returned; a caller of `main`, like this test process, keeps collecting.
    frozen = gc.get_freeze_count()
    assert run_cli(argv)[0] == code
    assert gc.get_freeze_count() == frozen


# The package run as `python -m` runs it, after an atexit handler that
# reports, on stdout, whether the heap was frozen by then.
ATEXIT_SCRIPT = """
import atexit, gc, runpy, sys
atexit.register(lambda: sys.stdout.write(f"atexit: frozen {gc.get_freeze_count() > 0}\\n"))
runpy.run_module("triplet", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize("argv, code", PROCESS_EXITS, ids=PROCESS_EXIT_IDS)
def test_process_exit_runs_atexit_and_keeps_the_exit_code(argv, code):
    # The process ends through the interpreter's own shutdown, not os._exit:
    # atexit handlers run, stdout is flushed after them, and the exit code
    # is main's.
    expected, out, err = _child_run(["-m", "triplet", *argv])
    assert expected == code
    assert _child_run(["-c", ATEXIT_SCRIPT, *argv]) == (code, out + b"atexit: frozen True\n", err)


# By row id: the triplet modules each call loads, besides triplet,
# triplet.cli and the fraction-free triplet.base that every call needs, and
# the call's exit code.  The label layer `virasoro` loads only with the
# subcommands that read it: `import triplet.cli` and every `sl2` call, an
# error included, run without it.
LOADED_LAYERS = [
    ("import", None, set(), 0),
    # The label and structure layers work on integer numerators: none of
    # these six subcommands loads the Fraction stack.
    ("weights", ["weights", "--p", "2", "--q", "3", "--r", "7", "--s", "1"], {"virasoro"}, 0),
    ("fuse-L", ["fuse-L", "--p", "2", "--q", "3", "--m", "3", "--n", "4"], {"virasoro", "fusion"}, 0),
    ("fuse-C", ["fuse-C", "--m", "1", "--n", "1"], {"virasoro", "fusion"}, 0),
    ("sl2", ["sl2", "--n", "2", "--op", "irrep"], {"sl2rep"}, 0),
    ("sl2-form", ["sl2", "--n", "3", "--op", "form"], {"sl2rep"}, 0),
    ("sl2-cg", ["sl2", "--n", "2", "--op", "cg", "--m", "3", "--k", "1"], {"sl2rep"}, 0),
    ("sl2-error", ["sl2", "--n", "-1", "--op", "irrep"], {"sl2rep"}, 2),
    # One call over its budget per sized subcommand: refused before any layer.
    ("fuse-L-cap", ["fuse-L", "--p", "2", "--q", "3", "--m", "600000", "--n", "600000"], set(), 2),
    ("fuse-C-cap", ["fuse-C", "--m", "150001", "--n", "150001"], set(), 2),
    ("kac-diagram-cap", ["kac-diagram", "--p", "2", "--q", "3", "--m", "100000", "--n", "100000"], set(), 2),
    ("kac-diagram-rs-cap", ["kac-diagram", "--p", "2", "--q", "3", "--r", "199999", "--s", "299999"], set(), 2),
    ("braiding-cap", ["braiding", "--p", "2", "--q", "3", "--n", "100000"], set(), 2),
    (
        "decompose-cap",
        ["decompose", "--p", "2", "--q", "3", "--target", "wpq", "--nmax", "100000"],
        set(),
        2,
    ),
    ("o0-check-cap", ["o0-check", "--p", "2", "--q", "3", "--nmax", "100000"], set(), 2),
    ("sl2-cap", ["sl2", "--n", "20000", "--op", "form"], set(), 2),
    ("sl2-cg-cap", ["sl2", "--n", "154", "--op", "cg", "--m", "154", "--k", "154"], set(), 2),
    (
        "kac-diagram",
        ["kac-diagram", "--p", "2", "--q", "3", "--m", "2", "--n", "2"],
        {"virasoro", "kacmod"},
        0,
    ),
    (
        "kac-diagram-dot",
        ["kac-diagram", "--p", "3", "--q", "4", "--r", "11", "--s", "7", "--format", "dot"],
        {"virasoro", "kacmod"},
        0,
    ),
    ("hexagon", ["hexagon", "--p", "2", "--q", "3"], {"virasoro", "braidfmat"}, 0),
    (
        "braiding",
        ["braiding", "--p", "2", "--q", "3", "--n", "1"],
        {"virasoro", "fusion", "braidfmat"},
        0,
    ),
    # Refused by their handlers, which check --n and --t before they load
    # `braidfmat`.
    ("braiding-error", ["braiding", "--p", "2", "--q", "3", "--n", "-1"], {"virasoro"}, 2),
    ("hexagon-t-zero", ["hexagon", "--p", "2", "--q", "3", "--t", "0"], {"virasoro"}, 2),
    ("hexagon-t-over-zero", ["hexagon", "--p", "2", "--q", "3", "--t", "1/0"], {"virasoro"}, 2),
    (
        "decompose",
        ["decompose", "--p", "2", "--q", "3", "--target", "wpq", "--nmax", "2"],
        {"virasoro", "wpq"},
        0,
    ),
    ("o0-check", ["o0-check", "--p", "3", "--q", "4", "--nmax", "3"], {"virasoro", "wpq"}, 0),
    (
        "verify",
        ["verify", "--suite", "wpq"],
        {"virasoro", "kacmod", "fusion", "wpq", "braidfmat", "linalg", "sl2rep", "verify"},
        0,
    ),
]
# The Fraction stack: `fractions` and the `decimal` and `numbers` it loads.
# Only `braidfmat` brings it in, `hexagon`'s `--t`, which is parsed as a
# Fraction, and `virasoro`'s `central_charge` and `conformal_weight` on their
# first call, which no subcommand above makes without `braidfmat`.
FRACTION_STACK = ["decimal", "fractions", "numbers"]
# What argparse loads, for argv that the fast parser declines.
ARGPARSE_STDLIB = ["argparse", "gettext", "locale"]

# argv follows "call"; "import" alone only imports the CLI.  `json` is
# imported for the report only after sys.modules has been read.
LOADED_MODULES_SCRIPT = """
import io, sys
from contextlib import redirect_stderr, redirect_stdout
import triplet.cli
code = 0
if sys.argv[1] == "call":
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = triplet.cli.main(sys.argv[2:])
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "triplet")
slow_stdlib = ("argparse", "dataclasses", "gettext", "inspect", "json", "locale")
slow = sorted(m for m in slow_stdlib if m in sys.modules)
fraction_stack = sorted(m for m in ("decimal", "fractions", "numbers") if m in sys.modules)
import json
print(json.dumps({"exit": code, "modules": loaded, "slow_stdlib": slow, "fractions": fraction_stack}))
"""


def _loaded_modules(argv) -> dict:
    # A fresh interpreter per call: what this one has imported says nothing.
    result = subprocess.run(
        [sys.executable, "-c", LOADED_MODULES_SCRIPT, *(["call", *argv] if argv else ["import"])],
        capture_output=True,
        text=True,
        check=True,
        env=_child_env(),
    )
    return json.loads(result.stdout)


@pytest.mark.parametrize(
    "argv, layers, code", [pytest.param(*row, id=name) for name, *row in LOADED_LAYERS]
)
def test_subcommand_loads_only_its_layers(argv, layers, code):
    base = {"triplet", "triplet.base", "triplet.cli"}
    # No layer builds its value classes with `dataclasses`, which would
    # also load `inspect`, `ast`, `dis` and `tokenize` on every call; the
    # CLI writes its JSON without the `json` package, and parses well-formed
    # argv without `argparse` and the `gettext` and `locale` it loads.
    declined = argv is not None and cli._parse_known(argv) is None
    assert _loaded_modules(argv) == {
        "exit": code,
        "modules": sorted(base | {f"triplet.{layer}" for layer in layers}),
        "slow_stdlib": ARGPARSE_STDLIB if declined else [],
        "fractions": FRACTION_STACK if "braidfmat" in layers or "--t" in (argv or ()) else [],
    }
