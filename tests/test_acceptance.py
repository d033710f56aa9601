"""Acceptance criteria: the verify registry's properties, as the registry runs them.

Each numbered criterion is one row of ``CRITERIA``: a label and the
registry properties (``suite.name``) it covers, and its test runs them.
Every property that no criterion names runs once as
``test_property[suite.name]``, so each registry property runs exactly once
in this module, with no arguments.  The registry's run as a whole is held
to one time budget in ``tests/test_exactnum.py``.  A property that tier-1
runs deeper also runs here under a mutant that only its deeper range can
see.
"""

import inspect
import time

import pytest
from conftest import run_cli, with_top_entry

from triplet import sl2rep, verify
from triplet.braidfmat import Phase
from triplet.verify import PROPERTIES

CRITERIA = {
    1: ("fuse_C equals cg_oracle, m,n <= 12", ["fusion.fuse_C_equals_cg_oracle"]),
    2: ("ring laws on L_0..L_10, exhaustive", ["fusion.fusion_ring_commutative_associative"]),
    3: (
        "weight identities and symmetries",
        [
            "virasoro.family_weight_identities",
            "wpq.o0_weight_identity_integral",
            "virasoro.weight_translation_symmetry",
        ],
    ),
    4: (
        "hexagon solution families",
        ["braidfmat.hexagon_solutions_zero_residual", "braidfmat.intrinsic_dimensions"],
    ),
    5: (
        "squared R-scalars equal balancing phases",
        ["braidfmat.squared_r_scalars_equal_balancing", "braidfmat.balancing_n1_is_parity_sign"],
    ),
    6: (
        "Loewy diagram structure and golden adjacency",
        ["kacmod.diagram_node_counts_layers_distinct_weights", "kacmod.diagram_edges_respect_layers"],
    ),
    7: ("diagram tops match fusion factor multisets", ["kacmod.diagram_vs_fusion_factor_multisets"]),
    8: (
        "sl2 brackets, forms, CG system, witnesses",
        [f"sl2rep.{name}" for name in PROPERTIES["sl2rep"]],
    ),
    9: (
        "multiplicity grading and ideal bookkeeping",
        ["wpq.equivariant_dimension_agreement", "wpq.ideal_and_quotient_bookkeeping"],
    ),
}

ALL_PROPERTIES = [f"{suite}.{name}" for suite, props in PROPERTIES.items() for name in props]
NAMED = [name for _, names in CRITERIA.values() for name in names]
UNNAMED = [name for name in ALL_PROPERTIES if name not in NAMED]


def _registered(qualified: str):
    suite, name = qualified.split(".")
    return PROPERTIES[suite][name]


def run_criterion(number: int) -> None:
    for name in CRITERIA[number][1]:
        _registered(name)()


def test_every_property_runs_exactly_once():
    assert sorted(NAMED + UNNAMED) == sorted(ALL_PROPERTIES)


def test_c01_fusion_oracle_equivalence():
    run_criterion(1)


def test_c02_fusion_ring_laws():
    run_criterion(2)


def test_c03_weight_identities():
    run_criterion(3)


def test_c04_hexagon_solver():
    run_criterion(4)


def test_c05_balancing():
    run_criterion(5)


def test_c06_kac_diagrams():
    run_criterion(6)


def test_c07_diagram_fusion_consistency():
    run_criterion(7)


def test_c08_sl2_suite():
    run_criterion(8)


def test_c09_decomposition_suite():
    run_criterion(9)


@pytest.mark.parametrize("name", UNNAMED)
def test_property(name):
    _registered(name)()


# Mutants that are wrong only past a ranged property's registry range.


def _flip_negated_at_10(monkeypatch):
    flip = verify._flip_sign
    monkeypatch.setattr(verify, "_flip_sign", lambda cg: flip(cg) * Phase(1 if cg.m == 10 else 0))


def _form_rescaled_at_11(monkeypatch):
    form = sl2rep.invariant_form

    def wrong(n):
        right = form(n)
        return sl2rep.BilinForm(n, tuple(2 * x for x in right.signs)) if n == 11 else right

    monkeypatch.setattr(sl2rep, "invariant_form", wrong)


def _cg_entry_changed_at_7_7(monkeypatch):
    system = sl2rep._cg_system

    def wrong(m, n):
        right = system(m, n)
        return {**right, 0: with_top_entry(right[0], 1)} if (m, n) == (7, 7) else right

    monkeypatch.setattr(sl2rep, "_cg_system", wrong)


def _weight_off_by_one_at_r_50(monkeypatch):
    weight = verify.conformal_weight
    off = lambda params, lbl: weight(params, lbl) + (1 if lbl.r == 50 else 0)
    monkeypatch.setattr(verify, "conformal_weight", off)


# Each property that tier-1 runs deeper than the registry: the keywords of
# its deeper test, and a mutant that only that depth reaches.
DEPTH_MUTANTS = {
    "braidfmat.squared_r_scalars_equal_balancing": (
        {"n_max": 12, "flip_max": 12},
        _flip_negated_at_10,
    ),
    "sl2rep.invariant_form_unique_nondegenerate_symmetry": (
        {"n_max": 12, "oracle_max": 12},
        _form_rescaled_at_11,
    ),
    "sl2rep.cg_biorthogonality_and_completeness": (
        {"n_max": 7, "oracle_max": 7},
        _cg_entry_changed_at_7_7,
    ),
    "virasoro.weight_translation_symmetry": ({"oracle_max": 79}, _weight_off_by_one_at_r_50),
}


def test_every_ranged_property_has_a_depth_mutant():
    ranged = [name for name in ALL_PROPERTIES if inspect.signature(_registered(name)).parameters]
    assert sorted(ranged) == sorted(DEPTH_MUTANTS)


@pytest.mark.parametrize("name", DEPTH_MUTANTS)
def test_depth_run_checks_past_the_registry_range(name, monkeypatch):
    depth, patch = DEPTH_MUTANTS[name]
    patch(monkeypatch)
    check = _registered(name)
    check()
    with pytest.raises(AssertionError):
        check(**depth)


PRESET_PAIRS = [(2, 3), (3, 4), (2, 5)]
PRESET_COMMANDS = [
    ["weights", "--r", "7", "--s", "1"],
    ["fuse-L", "--m", "3", "--n", "2"],
    ["kac-diagram", "--m", "3", "--n", "2"],
    ["kac-diagram", "--m", "2", "--n", "2", "--format", "dot"],
    ["hexagon"],
    ["braiding", "--n", "1"],
    ["decompose", "--target", "wpq-equivariant", "--nmax", "4"],
    ["o0-check", "--nmax", "5"],
]
FIXED_COMMANDS = [
    ["fuse-C", "--m", "2", "--n", "2"],
    ["sl2", "--n", "2", "--op", "form"],
    ["verify", "--suite", "exactnum"],
]


def test_c10_cli_determinism():
    commands = [
        [cmd[0], "--p", str(p), "--q", str(q), *cmd[1:]]
        for p, q in PRESET_PAIRS
        for cmd in PRESET_COMMANDS
    ] + FIXED_COMMANDS
    start = time.monotonic()
    for argv in commands:
        first = run_cli(argv)
        assert first[0] == 0, argv
        assert run_cli(argv) == first, f"non-deterministic output for {argv}"
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"CLI repeats took {elapsed:.2f}s, over their 30s budget"
