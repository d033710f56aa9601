"""Acceptance criteria: the verify registry's properties under time budgets.

Each numbered criterion is one row of ``CRITERIA``: a label, a budget in
seconds and the registry properties (``suite.name``) it covers.  Its test
runs them and prints a single pass line with the runtime.  Every property
that no criterion names runs once, unbudgeted, as ``test_property[suite.name]``,
so each registry property runs exactly once in this module.
"""

import time

import pytest
from conftest import run_cli

from triplet import sl2rep
from triplet.verify import PROPERTIES

CRITERIA = {
    1: ("fuse_C equals cg_oracle, m,n <= 12", 1.0, ["fusion.fuse_C_equals_cg_oracle"]),
    2: ("ring laws on L_0..L_10, exhaustive", 5.0, ["fusion.fusion_ring_commutative_associative"]),
    3: (
        "weight identities and symmetries",
        1.0,
        [
            "virasoro.family_weight_identities",
            "wpq.o0_weight_identity_integral",
            "virasoro.weight_translation_symmetry",
        ],
    ),
    4: (
        "hexagon solution families",
        1.0,
        ["braidfmat.hexagon_solutions_zero_residual", "braidfmat.intrinsic_dimensions"],
    ),
    5: (
        "squared R-scalars equal balancing phases",
        1.0,
        ["braidfmat.squared_r_scalars_equal_balancing", "braidfmat.balancing_n1_is_parity_sign"],
    ),
    6: (
        "Loewy diagram structure and golden adjacency",
        2.0,
        ["kacmod.diagram_node_counts_layers_distinct_weights", "kacmod.diagram_edges_respect_layers"],
    ),
    7: (
        "diagram tops match fusion factor multisets",
        1.0,
        ["kacmod.diagram_vs_fusion_factor_multisets"],
    ),
    8: (
        "sl2 brackets, forms, CG system, witnesses",
        10.0,
        [f"sl2rep.{name}" for name in PROPERTIES["sl2rep"]],
    ),
    9: (
        "multiplicity grading and ideal bookkeeping",
        1.0,
        ["wpq.equivariant_dimension_agreement", "wpq.ideal_and_quotient_bookkeeping"],
    ),
}

ALL_PROPERTIES = [f"{suite}.{name}" for suite, props in PROPERTIES.items() for name in props]
NAMED = [name for _, _, names in CRITERIA.values() for name in names]
UNBUDGETED = [name for name in ALL_PROPERTIES if name not in NAMED]


def _registered(qualified: str):
    suite, name = qualified.split(".")
    return PROPERTIES[suite][name]


class criterion:
    """Times a criterion and prints the one-line verdict."""

    def __init__(self, number: int, label: str, budget: float):
        self.number = number
        self.label = label
        self.budget = budget

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.number:2d} [{self.label}]: {verdict} in {elapsed:.2f}s")
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its {self.budget}s budget: {elapsed:.2f}s"
            )
        return False


def run_criterion(number: int) -> None:
    label, budget, names = CRITERIA[number]
    checks = [_registered(name) for name in names]
    with criterion(number, label, budget):
        for check in checks:
            check()


def test_every_property_runs_exactly_once():
    assert sorted(NAMED + UNBUDGETED) == sorted(ALL_PROPERTIES)


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
    # Cold caches, so that the budget covers building the sl2 systems.
    sl2rep.build_irrep.cache_clear()
    sl2rep.invariant_form.cache_clear()
    sl2rep._cg_system.cache_clear()
    run_criterion(8)


def test_c09_decomposition_suite():
    run_criterion(9)


@pytest.mark.parametrize("name", UNBUDGETED)
def test_property(name):
    _registered(name)()


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
    with criterion(10, "CLI output byte-identical across repeats", 30.0):
        for argv in commands:
            first = run_cli(argv)
            assert first[0] == 0, argv
            assert run_cli(argv) == first, f"non-deterministic output for {argv}"
