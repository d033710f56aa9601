"""Value semantics of the immutable classes every layer builds on.

Each class is a ``__slots__`` subclass of ``exactnum.Value``: equality only
within one class, the hash of the field tuple, a ``Name(field=value, ...)``
repr, read-only fields, and pickle/copy through ``__init__``.
"""

import copy
import importlib
import pickle
import pkgutil
from fractions import Fraction

import pytest

import triplet
from triplet.braidfmat import hexagon_solutions
from triplet.exactnum import ParamScalar, Phase, Value
from triplet.fusion import CharPoly, DecompEntry, DecompList, fuse_L_family
from triplet.kacmod import ExactSeq, FusionExpr, k12_fusion_seq, kac_mm_nn_diagram
from triplet.sl2rep import build_irrep, invariant_form
from triplet.virasoro import ObjLabel, Params, VirLabel, kac_dual_k11, kac_k, simple_l
from triplet.wpq import GradedEntry, decompose_wpq_equivariant

P23 = Params(2, 3)
DIAGRAM = kac_mm_nn_diagram(P23, 2, 2)
WPQ = decompose_wpq_equivariant(P23, 3)
PARAMETRIZED = hexagon_solutions(P23)[1]

# One instance of each value class, built the way the library builds it.
INSTANCES = [
    Phase(Fraction(1, 2)),
    ParamScalar.const(Fraction(-3, 4)) / ParamScalar.t(),
    P23,
    VirLabel(2, 3),
    simple_l(5, 1),
    DecompEntry(2, kac_k(1, 2)),
    fuse_L_family(P23, 2, 3),
    CharPoly.irrep(2),
    FusionExpr(kac_k(1, 2), kac_k(2, 1)),
    k12_fusion_seq(P23, 2, 2),
    DIAGRAM.nodes[0],
    DIAGRAM,
    WPQ.entries[-1],
    WPQ,
    PARAMETRIZED.matrix,
    PARAMETRIZED,
    build_irrep(2),
    invariant_form(2),
]
IDS = [type(x).__name__ for x in INSTANCES]


def fields(x) -> tuple:
    return tuple(getattr(x, name) for name in type(x).__slots__)


def test_instances_cover_every_value_class():
    for info in pkgutil.iter_modules(triplet.__path__):
        if not info.name.startswith("_"):
            importlib.import_module(f"triplet.{info.name}")
    classes = set()
    pending = [Value]
    while pending:
        for sub in pending.pop().__subclasses__():
            if sub.__module__.startswith("triplet."):
                classes.add(sub)
                pending.append(sub)
    assert classes == {type(x) for x in INSTANCES}
    assert len(INSTANCES) == 18


def test_equal_fields_of_different_classes_are_unequal():
    assert Params(2, 3) != VirLabel(2, 3)
    assert VirLabel(2, 3) != Params(2, 3)
    assert hash(Params(2, 3)) == hash(VirLabel(2, 3))
    assert len({Params(2, 3), VirLabel(2, 3)}) == 2


@pytest.mark.parametrize("x", INSTANCES, ids=IDS)
def test_value_semantics(x):
    cls = type(x)
    names = cls.__slots__
    assert hash(x) == hash(fields(x))
    assert x != fields(x)
    assert repr(x) == f"{cls.__name__}(" + ", ".join(f"{n}={getattr(x, n)!r}" for n in names) + ")"
    again = cls(**{n: getattr(x, n) for n in names})
    assert again == x and not again != x
    assert hash(again) == hash(x)
    for name in (*names, "extra"):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert not hasattr(x, "__dict__")


@pytest.mark.parametrize("x", INSTANCES, ids=IDS)
def test_pickle_and_copy_round_trip(x):
    for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert type(y) is type(x)
        assert y == x
        assert hash(y) == hash(x)


def test_pickle_load_reruns_the_checks():
    forged = object.__new__(VirLabel)
    object.__setattr__(forged, "r", 0)
    object.__setattr__(forged, "s", 1)
    data = pickle.dumps(forged)
    with pytest.raises(ValueError, match="Kac labels need r,s >= 1"):
        pickle.loads(data)


def test_pickle_load_rejects_a_non_monomial_denominator():
    forged = object.__new__(ParamScalar)
    object.__setattr__(forged, "num", (Fraction(1),))
    object.__setattr__(forged, "den", (Fraction(1), Fraction(1)))
    data = pickle.dumps(forged)
    with pytest.raises(ValueError, match="is not a monomial"):
        pickle.loads(data)


def test_reprs_read_like_the_constructor_call():
    assert repr(VirLabel(2, 3)) == "VirLabel(r=2, s=3)"
    assert repr(Phase(Fraction(5, 2))) == "Phase(exponent=Fraction(1, 2))"
    assert repr(kac_dual_k11()) == "ObjLabel(kind='KacDualK11', label=None)"
    assert repr(simple_l(1, 2)) == "ObjLabel(kind='SimpleL', label=VirLabel(r=1, s=2))"


def test_obj_label_default_and_keyword_construction():
    assert ObjLabel("KacDualK11") == ObjLabel(kind="KacDualK11", label=None) == kac_dual_k11()
    assert ObjLabel(kind="KacK", label=VirLabel(1, 2)) == kac_k(1, 2)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: ObjLabel("Simple", VirLabel(1, 1)), ValueError, "unknown ObjLabel kind 'Simple'"),
        (lambda: ObjLabel("KacDualK11", VirLabel(1, 1)), ValueError, "KacDualK11 carries no label"),
        (lambda: ObjLabel("SimpleL"), ValueError, "SimpleL requires a label"),
        (lambda: ObjLabel("KacK", None), ValueError, "KacK requires a label"),
        (lambda: VirLabel(0, 1), ValueError, r"Kac labels need r,s >= 1, got \(0,1\)"),
        (lambda: ParamScalar((1,), (0, 0)), ZeroDivisionError, "ParamScalar with zero denominator"),
        (lambda: DecompList((DecompEntry(0, kac_k(1, 1)),)), ValueError, "multiplicities must be >= 1"),
        (
            lambda: DecompList((DecompEntry(1, kac_k(1, 1)), DecompEntry(2, kac_k(1, 1)))),
            ValueError,
            "entries must be pairwise distinct",
        ),
        (
            lambda: ExactSeq(None, kac_k(1, 2), kac_k(1, 2), False),
            ValueError,
            "a sequence with zero submodule has no split question",
        ),
        (
            lambda: GradedEntry(3, 4, kac_k(1, 1), Fraction(0)),
            ValueError,
            "grading labels are even and >= 0, got 3",
        ),
        (
            lambda: GradedEntry(-2, -1, kac_k(1, 1), Fraction(0)),
            ValueError,
            "grading labels are even and >= 0, got -2",
        ),
        (
            lambda: GradedEntry(2, 1, kac_k(1, 1), Fraction(0)),
            ValueError,
            r"multiplicity 1 must equal dim V_2 = 3",
        ),
        (lambda: Params(1, 3), ValueError, r"p and q must be >= 2, got \(1,3\)"),
        (lambda: Params(4, 6), ValueError, r"p and q must be coprime, got \(4,6\)"),
    ],
    ids=[
        "objlabel-kind",
        "objlabel-dual-label",
        "objlabel-simple-no-label",
        "objlabel-kac-no-label",
        "virlabel-range",
        "paramscalar-zero-den",
        "decomplist-mult",
        "decomplist-distinct",
        "exactseq-split",
        "gradedentry-odd",
        "gradedentry-negative",
        "gradedentry-mult",
        "params-range",
        "params-coprime",
    ],
)
def test_constructor_checks(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_checks_pass_on_valid_edge_cases():
    # The boundary values each check admits.
    assert ExactSeq(None, kac_k(1, 2), kac_k(1, 2), None).splits is None
    assert GradedEntry(None, 7, kac_k(1, 1), Fraction(0)).mult == 7
    assert GradedEntry(0, 1, kac_k(1, 1), Fraction(0)).psl2 == 0
    assert ParamScalar((), (0, 5)) == ParamScalar.const(0)
    assert DecompList(()).is_zero()
