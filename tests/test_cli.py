"""CLI grammar, JSON/DOT output, exit codes, and the verify report."""

import hashlib
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import triplet
from triplet import cli, fusion, kacmod, verify, virasoro
from triplet.cli import main
from triplet.virasoro import ObjLabel, Params, kac_k, simple_l


def run_cli(argv, env_format=None, monkeypatch=None):
    out, err = io.StringIO(), io.StringIO()
    if env_format is not None:
        monkeypatch.setenv("TRIPLET_OUTPUT", env_format)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse errors
        code = exc.code
    return code, out.getvalue(), err.getvalue()


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
    objs = [ObjLabel.from_json(e["obj"]) for e in entries]
    assert [str(o) for o in objs] == ["K'_{1,1}", "L_{7,1}"]


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


def test_kac_diagram_env_default(monkeypatch):
    code, out, _ = run_cli(
        ["kac-diagram", "--p", "2", "--q", "3", "--m", "2", "--n", "2"],
        env_format="dot",
        monkeypatch=monkeypatch,
    )
    assert code == 0 and out.startswith("digraph loewy {")
    code, out, _ = run_cli(
        ["kac-diagram", "--p", "2", "--q", "3", "--m", "2", "--n", "2", "--format", "json"],
        env_format="dot",
        monkeypatch=monkeypatch,
    )
    assert code == 0 and out.startswith("{")


def test_invalid_env_format(monkeypatch):
    code, _, err = run_cli(
        ["kac-diagram", "--p", "2", "--q", "3", "--m", "2", "--n", "2"],
        env_format="yaml",
        monkeypatch=monkeypatch,
    )
    assert code == 2 and "TRIPLET_OUTPUT" in err


def test_exit_2_on_m_less_than_n():
    code, _, err = run_cli(["kac-diagram", "--p", "2", "--q", "3", "--m", "2", "--n", "3"])
    assert code == 2 and "swap" in err


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


def test_unsupported_object_error_is_one_class(monkeypatch):
    assert kacmod.UnsupportedObjectError is virasoro.UnsupportedObjectError
    assert cli.UnsupportedObjectError is virasoro.UnsupportedObjectError
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
    # (0.9 s at n=5000 on a 2-vCPU Xeon).
    start = time.perf_counter()
    code, out, _ = run_cli(["braiding", "--p", "2", "--q", "3", "--n", "5000"])
    assert time.perf_counter() - start < 0.5
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
    from fractions import Fraction

    from triplet.virasoro import Params
    from triplet.wpq import decompose_wpq_equivariant

    code, out, _ = run_cli(
        ["decompose", "--p", "2", "--q", "3", "--target", "wpq-equivariant", "--nmax", "4"]
    )
    assert code == 0
    payload = json.loads(out)
    decomp = decompose_wpq_equivariant(Params(2, 3), 4)
    assert payload["n_max"] == decomp.n_max
    for row, entry in zip(payload["entries"], decomp.entries):
        assert ObjLabel.from_json(row["obj"]) == entry.obj
        assert Fraction(row["h"]) == entry.lowest_weight
        assert row["mult"] == entry.mult
        assert row["psl2"] == entry.psl2


def test_o0_check_output():
    code, out, _ = run_cli(["o0-check", "--p", "3", "--q", "4", "--nmax", "3"])
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows[0] == {"n": 2, "difference": "30", "integral": True}
    assert all(row["integral"] for row in rows)


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


def test_verify_suite_choices_match_registry():
    assert cli.VERIFY_SUITES == tuple(sorted(verify.SUITES))


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
    """The environment for a child interpreter that imports this checkout's triplet."""
    src = str(Path(triplet.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=src)


def test_verify_refuses_to_run_under_python_O():
    result = subprocess.run(
        [sys.executable, "-O", "-m", "triplet", "verify", "--suite", "exactnum"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == (
        "error: verify cannot run under python -O, which strips its assert checks\n"
    )


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


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "triplet", "weights", "--p", "2", "--q", "3", "--r", "1", "--s", "1"],
        capture_output=True,
        text=True,
        check=True,
        env=_child_env(),
    )
    assert json.loads(result.stdout) == {"c": "0", "h": "0", "canonical": [1, 1]}


# The triplet modules each call loads, besides triplet, triplet.cli and the
# scalar and label layers (exactnum, virasoro) that every call needs.
LOADED_LAYERS = [
    (None, set()),
    (["weights", "--p", "2", "--q", "3", "--r", "7", "--s", "1"], set()),
    (["fuse-C", "--m", "1", "--n", "1"], {"fusion"}),
    (["sl2", "--n", "2", "--op", "irrep"], {"sl2rep"}),
    (["kac-diagram", "--p", "2", "--q", "3", "--m", "2", "--n", "2"], {"kacmod"}),
    (["hexagon", "--p", "2", "--q", "3"], {"fusion", "braidfmat"}),
    (["decompose", "--p", "2", "--q", "3", "--target", "wpq", "--nmax", "2"], {"wpq"}),
    (
        ["verify", "--suite", "wpq"],
        {"kacmod", "fusion", "wpq", "braidfmat", "linalg", "sl2rep", "verify"},
    ),
]

LOADED_MODULES_SCRIPT = """
import io, json, sys
from contextlib import redirect_stdout
import triplet.cli
argv = json.loads(sys.argv[1])
code = 0
if argv is not None:
    with redirect_stdout(io.StringIO()):
        code = triplet.cli.main(argv)
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "triplet")
slow = sorted(m for m in ("dataclasses", "inspect") if m in sys.modules)
print(json.dumps({"exit": code, "modules": loaded, "slow_stdlib": slow}))
"""


@pytest.mark.parametrize(
    "argv, layers", LOADED_LAYERS, ids=[a[0] if a else "import" for a, _ in LOADED_LAYERS]
)
def test_subcommand_loads_only_its_layers(argv, layers):
    # A fresh interpreter per call: what this one has imported says nothing.
    result = subprocess.run(
        [sys.executable, "-c", LOADED_MODULES_SCRIPT, json.dumps(argv)],
        capture_output=True,
        text=True,
        check=True,
        env=_child_env(),
    )
    base = {"triplet", "triplet.cli", "triplet.exactnum", "triplet.virasoro"}
    # No layer builds its value classes with `dataclasses`, which would
    # also load `inspect`, `ast`, `dis` and `tokenize` on every call.
    assert json.loads(result.stdout) == {
        "exit": 0,
        "modules": sorted(base | {f"triplet.{layer}" for layer in layers}),
        "slow_stdlib": [],
    }
