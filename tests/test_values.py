"""Value semantics of the immutable classes every layer builds on.

Each class is a ``__slots__`` subclass of ``base.Value``: equality only
within one class, the hash of the field tuple (``ObjLabel`` hashes its label
flat), a ``Name(field=value, ...)`` repr, read-only fields, and pickle/copy
through ``__init__``.
"""

import copy
import importlib
import pickle
import pkgutil
from fractions import Fraction

import pytest

import triplet
from triplet.base import Value
from triplet.braidfmat import Phase, hexagon_solutions
from triplet.fusion import DecompEntry, DecompList, fuse_L_family
from triplet.kacmod import kac_length2_seq, kac_mm_nn_diagram
from triplet.sl2rep import build_irrep, cg_maps, invariant_form
from triplet.virasoro import (
    ObjLabel,
    Params,
    VirLabel,
    _sl2_obj,
    canonical_obj,
    kac_dual_k11,
    kac_k,
    simple_l,
)
from triplet.wpq import GradedEntry, decompose_wpq_equivariant

P23 = Params(2, 3)
DIAGRAM = kac_mm_nn_diagram(P23, 2, 2)
WPQ = decompose_wpq_equivariant(P23, 3)
PARAMETRIZED = hexagon_solutions(P23)[1]

# One instance of each value class, built the way the library builds it.
INSTANCES = [
    Phase(Fraction(1, 2)),
    P23,
    VirLabel(2, 3),
    simple_l(5, 1),
    DecompEntry(2, kac_k(1, 2)),
    fuse_L_family(P23, 2, 3),
    kac_length2_seq(P23, kac_k(1, 1)),
    DIAGRAM.nodes[0],
    DIAGRAM,
    WPQ[-1],
    PARAMETRIZED.matrix,
    PARAMETRIZED,
    build_irrep(2),
    invariant_form(2),
    cg_maps(2, 1, 1),
]
IDS = [type(x).__name__ for x in INSTANCES]


def fields(x) -> tuple:
    return tuple(getattr(x, name) for name in type(x).__slots__)


def hashed(x) -> tuple:
    """The tuple x hashes as: its fields, except that an ObjLabel spells its
    label out flat, (kind, r, s), or is (kind,) for K'_{1,1}."""
    if type(x) is ObjLabel:
        return (x.kind,) if x.label is None else (x.kind, x.label.r, x.label.s)
    return fields(x)


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
    assert len(INSTANCES) == 15


def test_equal_fields_of_different_classes_are_unequal():
    assert Params(2, 3) != VirLabel(2, 3)
    assert VirLabel(2, 3) != Params(2, 3)
    assert hash(Params(2, 3)) == hash(VirLabel(2, 3))
    assert len({Params(2, 3), VirLabel(2, 3)}) == 2
    # Labels and entries built apart, down to their sub-objects, compare by
    # value: equal when every field is, unequal when one field differs.
    label, entry = simple_l(5, 1), DecompEntry(2, kac_k(1, 2))
    assert ObjLabel("SimpleL", VirLabel(5, 1)) == label
    assert DecompEntry(2, ObjLabel("KacK", VirLabel(1, 2))) == entry
    assert ObjLabel("KacK", VirLabel(5, 1)) != label != simple_l(5, 2)
    assert DecompEntry(3, kac_k(1, 2)) != entry != DecompEntry(2, simple_l(1, 2))
    assert len({label, simple_l(5, 1), entry, DecompEntry(2, kac_k(1, 2))}) == 2


@pytest.mark.parametrize("x", INSTANCES, ids=IDS)
def test_value_semantics(x):
    cls = type(x)
    names = cls.__slots__
    assert hash(x) == hash(hashed(x))
    assert x != fields(x)
    assert repr(x) == f"{cls.__name__}(" + ", ".join(f"{n}={getattr(x, n)!r}" for n in names) + ")"
    again = cls(**{n: getattr(x, n) for n in names})
    assert again == x and not again != x
    assert hash(again) == hash(x)
    # The same fields rebuilt as separate objects, down to nested values.
    apart = cls(**{n: copy.deepcopy(getattr(x, n)) for n in names})
    assert apart == x and not apart != x
    assert hash(apart) == hash(x)
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


def test_equal_obj_labels_hash_equal_however_they_are_built():
    # Freshly built, canonicalized, interned by the sl2 dictionary, and the
    # unlabelled K'_{1,1}: each pair is equal and hashes alike, also after a
    # pickle or copy round trip.
    p23 = Params(2, 3)
    groups = [
        [ObjLabel("SimpleL", VirLabel(7, 1)), simple_l(7, 1), _sl2_obj(2, 2)],
        # L_{1,5} is L_{3,1} at (2,3); canonical_obj builds a new label.
        [simple_l(3, 1), canonical_obj(p23, simple_l(1, 5)), canonical_obj(p23, simple_l(3, 1))],
        [ObjLabel("KacDualK11"), kac_dual_k11(), _sl2_obj(2, 0), _sl2_obj(5, 0)],
        [ObjLabel("KacK", VirLabel(1, 2)), kac_k(1, 2), canonical_obj(p23, kac_k(1, 2))],
    ]
    for group in groups:
        copies = [y for x in group for y in (pickle.loads(pickle.dumps(x)), copy.copy(x))]
        for x in group + copies:
            assert type(x) is ObjLabel
            assert x == group[0] and hash(x) == hash(group[0]), (x, group[0])
    # Distinct labels stay distinct as set members: a flat hash of
    # (kind, r, s) does not merge a kind with another's fields.
    assert len({group[0] for group in groups}) == len(groups)
    assert len({simple_l(7, 1), kac_k(7, 1), simple_l(1, 7)}) == 3


def test_pickle_load_reruns_the_checks():
    forged = object.__new__(VirLabel)
    object.__setattr__(forged, "r", 0)
    object.__setattr__(forged, "s", 1)
    data = pickle.dumps(forged)
    with pytest.raises(ValueError, match="Kac labels need r,s >= 1"):
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
        (lambda: DecompList((DecompEntry(0, kac_k(1, 1)),)), ValueError, "multiplicities must be >= 1"),
        (
            lambda: DecompList((DecompEntry(1, kac_k(1, 1)), DecompEntry(2, kac_k(1, 1)))),
            ValueError,
            "entries must be pairwise distinct",
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
        "decomplist-mult",
        "decomplist-distinct",
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
    assert GradedEntry(None, 7, kac_k(1, 1), Fraction(0)).mult == 7
    assert GradedEntry(0, 1, kac_k(1, 1), Fraction(0)).psl2 == 0
    assert DecompList(()).entries == ()
