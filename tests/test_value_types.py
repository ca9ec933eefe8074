"""Identity of the immutable value classes: equality, hash, immutability, repr, refused input.

Each class is built twice from the same arguments and once with one field
changed; the field names are listed here in their public order, so a
reordered or renamed field fails too.
"""

import ast
import copy
import importlib
import inspect
import os
import pickle
import pkgutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import MemberDescriptorType

import pytest

import htgroth
from htgroth.cohomology import (
    CohomologyTable,
    CongruenceConstraint,
    CongruenceRecord,
    ProfileEntry,
    SpectrumProfile,
    TorsionCertificate,
    torsion_detect,
)
from htgroth.diagrams import BlockContribution, DiagramSupport, LocalComponent
from htgroth.jl_red import Cut, Orientation, SignedCharacter, _label_in, _line_store, orientations
from htgroth.modl import FieldData, SupercuspidalData, TowerLevel
from htgroth.segments import (
    KIND_FORMAL,
    KIND_GENERIC,
    CuspidalLabel,
    GrothElement,
    IrreducibleLabel,
    Multisegment,
    OpaqueFactor,
    Partition,
    Segment,
    Value,
    label_of_multisegment,
    make_steinberg,
)
from htgroth.symbolic import atom

PI = CuspidalLabel("pi")
RHO = CuspidalLabel("rho")
FIELD = FieldData(2, 7)
SC = SupercuspidalData(RHO, FIELD, 3)
ENTRY = ProfileEntry(2, 1, PI, atom("m"), Fraction(1, 2))
CONSTRAINT = CongruenceConstraint(("k",), atom("a"), atom("a"), ((1, 1, frozenset()),), ())

# (class, field names in order, arguments, arguments with one field changed)
CASES = [
    (
        ProfileEntry,
        ("s", "t", "cuspidal", "mult", "xi", "tail", "markers"),
        (2, 1, PI, atom("m"), Fraction(1, 2)),
        (2, 1, PI, atom("m"), Fraction(-1, 2)),
    ),
    (SpectrumProfile, ("entries",), ((ENTRY,),), ((ENTRY, ENTRY),)),
    (
        TorsionCertificate,
        (
            "d", "u_prime", "r_prime", "g_base", "g_up", "emitted",
            "r", "s", "s_prime", "i0_lower_bound", "shriek_degree", "star_degree",
        ),
        (4, 1, 1, 1, 6, False),
        (4, 1, 2, 1, 6, False),
    ),
    (
        CongruenceConstraint,
        ("class_key", "lhs", "rhs", "lhs_entries", "rhs_entries"),
        (("k",), atom("a"), atom("a"), ((1, 1, frozenset()),), ()),
        (("k",), atom("a"), atom("b"), ((1, 1, frozenset()),), ()),
    ),
    (CongruenceRecord, ("constraint", "strength"), (CONSTRAINT, "weak"), (CONSTRAINT, "strong")),
    (
        DiagramSupport,
        ("kind", "s", "t", "points"),
        ("M", 1, 1, frozenset({(1, 0)})),
        ("N", 1, 1, frozenset({(1, 0)})),
    ),
    (LocalComponent, ("s", "blocks"), (2, ((PI, 1, Fraction(0)),)), (2, ((PI, 2, Fraction(0)),))),
    (BlockContribution, ("block", "source", "from_higher"), (0, (2, 0), True), (0, (2, 0), False)),
    (Orientation, ("t", "edges"), (2, (True,)), (2, (False,))),
    (SignedCharacter, ("sign", "k"), (-1, 3), (1, 3)),
    (
        Cut,
        ("ks", "sign", "center2", "a2"),
        ((1, 0), 1, 0, ((2, 1),)),
        ((1, 0), 1, 2, ((2, 1),)),
    ),
    (FieldData, ("q", "l"), (2, 7), (4, 7)),
    (SupercuspidalData, ("label", "field", "epsilon"), (RHO, FIELD, 3), (PI, FIELD, 3)),
    (TowerLevel, ("base", "u"), (SC, 0), (SC, 1)),
    (OpaqueFactor, ("name", "rank"), ("x", 2), ("x", 3)),
    (Partition, ("parts",), ((2, 1),), ((1, 1, 1),)),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, names, args, other", CASES, ids=IDS)
def test_equal_only_for_the_same_class_with_equal_fields(cls, names, args, other):
    x, twin = cls(*args), cls(*args)
    fields = tuple(getattr(x, name) for name in names)
    assert x == twin and not x != twin and hash(x) == hash(twin)
    assert x != cls(*other)
    assert x != fields and x.__eq__(fields) is NotImplemented
    subclass = type("Sub", (cls,), {"__slots__": ()})
    assert x != subclass(*args) and subclass(*args) != x


@pytest.mark.parametrize("cls, names, args, other", CASES, ids=IDS)
def test_hash_is_the_hash_of_the_field_tuple(cls, names, args, other):
    x = cls(*args)
    assert hash(x) == hash(tuple(getattr(x, name) for name in names))
    assert {x: 1}[cls(*args)] == 1


@pytest.mark.parametrize("cls, names, args, other", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, names, args, other):
    x = cls(*args)
    before = tuple(getattr(x, name) for name in names)
    for name in names + ("not_a_field",):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
    for name in names:
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert tuple(getattr(x, name) for name in names) == before


@pytest.mark.parametrize("cls, names, args, other", CASES, ids=IDS)
def test_repr_names_every_field(cls, names, args, other):
    x = cls(*args)
    inner = ", ".join(f"{name}={getattr(x, name)!r}" for name in names)
    assert repr(x) == f"{cls.__name__}({inner})"


@pytest.mark.parametrize("cls, names, args, other", CASES, ids=IDS)
def test_copy_and_pickle_rebuild_an_equal_value(cls, names, args, other):
    # as they did for the frozen dataclasses
    x = cls(*args)
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(y) is cls and y == x and hash(y) == hash(x)


def value_classes() -> list[type]:
    """Every subclass of ``Value`` the htgroth modules define, found by walking ``__subclasses__``."""
    for info in pkgutil.iter_modules(htgroth.__path__):
        importlib.import_module(f"htgroth.{info.name}")
    found, todo = [], [Value]
    while todo:
        for cls in todo.pop().__subclasses__():
            if cls.__module__.startswith("htgroth.") and cls not in found:
                found.append(cls)
                todo.append(cls)
    return sorted(found, key=lambda cls: cls.__name__)


# the arguments each value class is built from, by position
ARGS = {case[0]: case[2] for case in CASES}
ARGS[CuspidalLabel] = ("pi", 2, 3)
ARGS[Segment] = (PI, Fraction(-3, 2), 2)
VALUE_CLASSES = value_classes()
NO_CHECKS = {SignedCharacter, Cut, DiagramSupport, BlockContribution, CongruenceConstraint, CongruenceRecord}


def test_every_value_class_is_built_here():
    # a new value class joins the tests below by giving its arguments in ARGS
    assert set(VALUE_CLASSES) == set(ARGS) and len(VALUE_CLASSES) == 18


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda cls: cls.__name__)
def test_one_constructor_by_position_or_by_name(cls):
    x = cls(*ARGS[cls])
    named = dict(zip(cls._fields, x._astuple()))
    y = cls(**named)
    assert y == x and hash(y) == hash(x) and repr(y) == repr(x)
    for z in (copy.copy(x), pickle.loads(pickle.dumps(x))):
        assert type(z) is cls and z == x and hash(z) == hash(x) and repr(z) == repr(x)
    first = cls._fields[0]
    without_first = {name: value for name, value in named.items() if name != first}
    builds = [
        lambda: cls(*x._astuple(), None),  # one argument too many
        lambda: cls(**named, not_a_field=None),
        lambda: cls(**without_first),
        lambda: cls(**without_first, not_a_field=None),  # as many names as fields, one unknown
        lambda: cls(named[first], **named),  # the first field twice
    ]
    if "__init__" not in vars(cls):  # Value.__init__ has no defaults
        builds.append(lambda: cls(*x._astuple()[:-1]))
    for build in builds:
        with pytest.raises(TypeError):
            build()


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda cls: cls.__name__)
def test_only_a_class_with_more_than_its_slotted_fields_sets_them_itself(cls):
    slotted = all(isinstance(getattr(cls, name), MemberDescriptorType) for name in cls._fields)
    assert hasattr(cls, "_setters") == slotted
    if not slotted:  # a field stored in another form: the class converts it itself
        assert "__init__" in vars(cls)
    elif set(cls.__slots__) == set(cls._fields):  # no state beyond the fields
        assert "__init__" not in vars(cls) or "object.__setattr__" not in inspect.getsource(cls.__init__)
    assert ("__init__" in vars(cls)) == (cls not in NO_CHECKS)


def test_unequal_cuspidal_labels_print_apart():
    # e_pi sets the cohomology scalar and keys the caches apart: it prints when it is not 1
    labels = [CuspidalLabel("pi"), CuspidalLabel("pi", e_pi=2), CuspidalLabel("pi", g=2, e_pi=3)]
    assert [repr(pi) for pi in labels] == [
        "CuspidalLabel('pi', g=1)",
        "CuspidalLabel('pi', g=1, e_pi=2)",
        "CuspidalLabel('pi', g=2, e_pi=3)",
    ]
    assert [eval(repr(pi), {"CuspidalLabel": CuspidalLabel}) for pi in labels] == labels


def test_segment_pickles_through_its_constructor():
    seg = Segment(PI, Fraction(-3, 2), 2)
    assert seg._astuple() == (PI, Fraction(-3, 2), 2)
    assert pickle.loads(pickle.dumps(seg)) == seg == copy.deepcopy(seg)


def test_cuspidal_label_is_immutable_with_its_identity_kept():
    # a label keys the segment, label and cut caches: g = 3 set on a label
    # cached with g = 1 would leave them stale
    pi = CuspidalLabel("pi", g=2, e_pi=3)
    for name in ("id", "g", "e_pi", "_key", "_hash", "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(pi, name, 3)
    for name in ("id", "g", "e_pi", "_key", "_hash"):
        with pytest.raises(AttributeError):
            delattr(pi, name)
    assert (pi.id, pi.g, pi.e_pi) == ("pi", 2, 3) and hash(pi) == hash(("pi", 2, 3))
    assert repr(pi) == "CuspidalLabel('pi', g=2, e_pi=3)"
    for y in (copy.copy(pi), copy.deepcopy(pi), pickle.loads(pickle.dumps(pi))):
        assert type(y) is CuspidalLabel and (y.id, y.g, y.e_pi) == ("pi", 2, 3)


MULTISEGMENT = Multisegment([Segment(RHO, 0, 1), Segment(PI, Fraction(-1, 2), 2)])
LABEL = IrreducibleLabel((MULTISEGMENT, OpaqueFactor("x", 2)), KIND_FORMAL)
ELEMENT = GrothElement({(LABEL, Fraction(1, 2)): atom("m"), (IrreducibleLabel.unit(), 0): 3})
TABLE = CohomologyTable({0: ELEMENT, 3: -ELEMENT})
# (a value the caches may hand to many callers, its attributes)
SHARED = [
    (MULTISEGMENT, ("segments", "_key", "_hash")),
    (LABEL, ("factors", "kind", "_hash")),
    (ELEMENT, ("terms",)),
    (TABLE, ("rows",)),
]
SHARED_IDS = [type(x).__name__ for x, _ in SHARED]


@pytest.mark.parametrize("x, names", SHARED, ids=SHARED_IDS)
def test_shared_values_refuse_assignment_and_deletion(x, names):
    before = [getattr(x, name) for name in names]
    for name in names + ("not_a_field",):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
    for name in names:
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert [getattr(x, name) for name in names] == before


@pytest.mark.parametrize("x, names", SHARED, ids=SHARED_IDS)
def test_shared_values_copy_and_pickle_to_equal_values(x, names):
    protocols = range(pickle.HIGHEST_PROTOCOL + 1)
    pickled = [pickle.loads(pickle.dumps(x, protocol)) for protocol in protocols]
    for y in [copy.copy(x), copy.deepcopy(x)] + pickled:
        assert type(y) is type(x) and y == x and repr(y) == repr(x)
        assert [getattr(y, name) for name in names] == [getattr(x, name) for name in names]
        if x is TABLE:  # a table compares by value and is unhashable, as before
            with pytest.raises(TypeError):
                hash(y)
        else:
            assert hash(y) == hash(x) and {x: 1}[y] == 1


# (a class whose values key caches, the arguments of a value, arguments that each change one part
# of its identity, a label that holds such a value); a label's identity is its factors and kind
KEYED = [
    (CuspidalLabel, ("pi", 2, 3), [("pi", 2), ("pi", 3, 3), ("rho", 2, 3)], lambda pi: make_steinberg(pi, 2)),
    (
        Segment,
        (PI, Fraction(-3, 2), 2),
        [(PI, Fraction(-1, 2), 2), (PI, Fraction(-3, 2), 3), (CuspidalLabel("pi", g=2), Fraction(-3, 2), 2)],
        lambda seg: label_of_multisegment(Multisegment([seg.twist(1), seg, Segment(RHO, 0, 1)])),
    ),
    (
        Multisegment,
        (list(reversed(MULTISEGMENT.segments)),),
        [(MULTISEGMENT.segments[:1],)],
        label_of_multisegment,
    ),
    (OpaqueFactor, ("x", 2), [("x", 3), ("y", 2)], lambda factor: IrreducibleLabel((factor, MULTISEGMENT))),
    (
        SupercuspidalData,
        (RHO, FIELD, 3),
        [(PI, FIELD, 3), (RHO, FieldData(4, 7), 3)],
        lambda sc: make_steinberg(sc.label, 3),
    ),
    (
        IrreducibleLabel,
        ((OpaqueFactor("x", 2), MULTISEGMENT), KIND_FORMAL),
        [((OpaqueFactor("x", 2), MULTISEGMENT), KIND_GENERIC), ((MULTISEGMENT,), KIND_FORMAL)],
        lambda label: label,
    ),
]


def identity(x):
    return (x.factors, x.kind) if isinstance(x, IrreducibleLabel) else x._key


def factor_keys(label):
    return tuple(factor._key for factor in label.factors)


@pytest.mark.parametrize("cls, args, others, label_of", KEYED, ids=[case[0].__name__ for case in KEYED])
def test_values_that_key_caches_share_one_identity_rule(cls, args, others, label_of):
    # equal exactly when of one class with one identity, hashed alike when equal, and unequal to a subclass
    x, twin, ys = cls(*args), cls(*args), [cls(*other) for other in others]
    assert x == twin and not x != twin and identity(x) == identity(twin) and hash(x) == hash(twin)
    assert {x: 1}[twin] == 1
    for y in ys:
        assert x != y and not x == y and identity(x) != identity(y) and y not in {x: 1}
    for stranger in (identity(x), object(), None):
        assert x.__eq__(stranger) is NotImplemented and x != stranger
    sub = type("Sub", (cls,), {"__slots__": ()})(*args)
    assert identity(sub) == identity(x) and x != sub and sub != x and x.__eq__(sub) is NotImplemented
    # segments, factors and sorted terms come out in key order, whatever order built them
    labels = [label_of(value) for value in [x, *ys]]
    for label in labels:
        assert list(label.factors) == sorted(label.factors, key=lambda factor: factor._key)
        for ms in label.multisegments():
            assert list(ms.segments) == sorted(ms.segments, key=lambda seg: seg._key)
    element = GrothElement({(label, tw): 1 for label in reversed(labels) for tw in (1, Fraction(-1, 2))})
    keys = [key for key, _ in element.sorted_terms()]
    assert keys == sorted(element.terms, key=lambda key: (key[1], key[0].kind, factor_keys(key[0])))


def test_unit_label_is_one_shared_object():
    unit = IrreducibleLabel.unit()
    assert unit is IrreducibleLabel.unit() and repr(unit) == "<1>"
    assert unit == IrreducibleLabel(()) and hash(unit) == hash(IrreducibleLabel(()))
    assert label_of_multisegment(Multisegment()) is unit
    assert all(_label_in(_line_store(PI._key), (), shift2) is unit for shift2 in (-2, 0, 3))
    # an interned label can no longer be emptied for every later caller
    label = _label_in(_line_store(PI._key), ((0, 2),), 0)
    with pytest.raises(AttributeError):
        label.factors = ()
    assert repr(_label_in(_line_store(PI._key), ((0, 2),), 0)) == "{[0,1]_pi}"


def test_repr_keeps_the_dataclass_form():
    # both strings as the frozen dataclasses printed them
    assert repr(TowerLevel(SC, 0)) == (
        "TowerLevel(base=SupercuspidalData(label=CuspidalLabel('rho', g=1), "
        "field=FieldData(q=2, l=7), epsilon=3), u=0)"
    )
    assert repr(torsion_detect(4, SC, 0, 1)) == (
        "TorsionCertificate(d=4, u_prime=0, r_prime=1, g_base=1, g_up=3, emitted=True, "
        "r=3, s=4, s_prime=1, i0_lower_bound=1, shriek_degree=1, star_degree=0)"
    )


def test_defaults_and_keywords_are_kept():
    entry = ProfileEntry(s=2, t=1, cuspidal=PI, mult=atom("m"))
    assert (entry.xi, entry.tail, entry.markers) == (0, IrreducibleLabel.unit(), frozenset())
    assert type(entry.xi) is Fraction and ProfileEntry(2, 1, PI, atom("m"), xi=1).xi == 1
    cert = TorsionCertificate(d=4, u_prime=1, r_prime=1, g_base=1, g_up=6, emitted=False)
    assert (cert.r, cert.s, cert.s_prime, cert.i0_lower_bound) == (None,) * 4
    assert (cert.shriek_degree, cert.star_degree) == (None, None)
    assert OpaqueFactor("x").rank == 0


@pytest.mark.parametrize(
    "build",
    [
        lambda: ProfileEntry(0, 1, PI, atom("m")),
        lambda: ProfileEntry(1, 1, PI, atom("m"), Fraction(1, 3)),
        lambda: FieldData(6, 7),
        lambda: FieldData(2, 4),
        lambda: FieldData(9, 3),
        lambda: SupercuspidalData(RHO, FIELD, 0),
        lambda: SupercuspidalData(RHO, FIELD, 2),
        lambda: TowerLevel(SC, -2),
        lambda: LocalComponent(0, ()),
        lambda: LocalComponent(2, ((PI, 0, Fraction(0)),)),
        lambda: Orientation(0, ()),
        lambda: Orientation(3, (True,)),
        lambda: orientations(0),
        lambda: Partition((0,)),
        lambda: Partition((1, 2)),
    ],
)
def test_refused_fields_raise_value_error(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize(
    "build",
    [
        # each was once accepted; TowerLevel(SC, 0.5) gave a float tower rank
        lambda: TowerLevel(SC, 0.5),
        lambda: TowerLevel(SC, True),
        lambda: Partition((2.0, 1)),
        lambda: LocalComponent(2.0, ()),
        lambda: LocalComponent(2, ((PI, 1.0, Fraction(0)),)),
        lambda: Orientation(2.0, (True,)),
        lambda: orientations(True),
        lambda: orientations(2.0),
        lambda: OpaqueFactor("x", 1.5),
        lambda: OpaqueFactor("x", True),
        # Segment(PI, 0, 2.0) built and its repr raised later; True built length 1
        lambda: Segment(PI, 0, 2.0),
        lambda: Segment(PI, 0, True),
    ],
)
def test_floats_and_bools_are_refused_as_integer_fields(build):
    with pytest.raises(ValueError, match="must be an integer"):
        build()


# the labelled layers: ~55 % of the package's compile time, which a fresh process
# without cached bytecode pays in full
LABELLED = ("htgroth.cohomology", "htgroth.jl_red", "htgroth.jsonio", "htgroth.modl", "htgroth.segments")
SLOW_IMPORTS = ("argparse", "dataclasses", "inspect", *LABELLED)


def run_cli_counting_imports(argv):
    """stdout of a fresh ``htgroth.cli.main(argv)``, and the SLOW_IMPORTS it loaded at import and by its end."""
    # compared before and after, so site hooks do not matter
    code = (
        "import sys; before = set(sys.modules); import htgroth.cli; "
        "at_import = set(sys.modules) - before; code = htgroth.cli.main(sys.argv[1:]); "
        f"slow = set({SLOW_IMPORTS!r}); "
        "sys.stderr.write(repr((sorted(slow & at_import), sorted(slow & (set(sys.modules) - before)), code)))"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout, ast.literal_eval(out.stderr)


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # dataclasses and inspect cost a fresh process ~10 ms and argparse ~2 ms;
    # a plain verify argv loads none of them and no labelled layer, one the
    # plain reader refuses builds argparse and prints the same bytes, and a
    # plain diagram reads only the label-free layers too
    plain, loaded = run_cli_counting_imports(["verify", "--max", "2"])
    assert loaded == ([], [], 0)
    full, loaded = run_cli_counting_imports(["verify", "--max=2"])
    assert loaded == ([], ["argparse"], 0)
    assert full == plain and plain.startswith("PASS diagram-bullets-vs-hull\n")
    diagram, loaded = run_cli_counting_imports(["diagram", "--kind", "n", "--s", "3", "--t", "2"])
    assert loaded == ([], [], 0) and diagram.endswith("(r)\n")


def test_a_command_loads_the_labelled_layers_it_reads():
    # a superposition labels its blocks: segments alone; JSON output adds jsonio,
    # which reads modl; a transfer adds jl_red, and a table every layer
    assert run_cli_counting_imports(["diagram", "--kind", "m", "--s", "4", "--blocks", "1,3"])[1] == (
        [], ["htgroth.segments"], 0
    )
    argv = ["diagram", "--kind", "m", "--s", "4", "--blocks", "1,3", "--format", "json"]
    assert run_cli_counting_imports(argv)[1] == ([], ["htgroth.jsonio", "htgroth.modl", "htgroth.segments"], 0)
    red = ["red", "--s", "2", "--t", "2", "--r", "1"]
    assert run_cli_counting_imports(red)[1] == ([], sorted(set(LABELLED) - {"htgroth.cohomology"}), 0)
    table = ["cohomology", "--profile", '[{"s": 2, "t": 1, "cuspidal": "pi"}]', "--pi", "pi", "--r", "1"]
    assert run_cli_counting_imports(table)[1] == ([], list(LABELLED), 0)


# the values a child process builds: each keyed value, an element over them and an unbound shriek table
BUILD_KEYED_VALUES = """
from fractions import Fraction
from htgroth.cohomology import ProfileEntry, SpectrumProfile, coh_shriek
from htgroth.modl import FieldData, SupercuspidalData
from htgroth.segments import (
    CuspidalLabel, GrothElement, IrreducibleLabel, Multisegment, OpaqueFactor, Segment,
)
from htgroth.symbolic import atom

def build():
    pi = CuspidalLabel("pi", 2, 3)
    seg = Segment(pi, Fraction(-1, 2), 2)
    ms = Multisegment([Segment(CuspidalLabel("rho"), 0, 1), seg])
    opaque = OpaqueFactor("tail", 2)
    label = IrreducibleLabel((opaque, ms))
    element = GrothElement({(label, Fraction(1, 2)): atom("m"), (IrreducibleLabel((ms,)), 0): 3})
    entries = (ProfileEntry(2, 3, pi, atom("m"), 1), ProfileEntry(2, 3, pi, atom("n"), 0, label))
    profile = SpectrumProfile(entries)
    sc = SupercuspidalData(CuspidalLabel("rho"), FieldData(2, 7), 3)
    return [pi, seg, ms, opaque, sc, label, element, coh_shriek(profile, pi, 2)]
"""


def run_with_hash_seed(seed: str, code: str, *argv: str):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
    subprocess.run([sys.executable, "-c", BUILD_KEYED_VALUES + code, *argv], env=env, check=True)


def test_kept_hashes_are_rebuilt_in_a_process_of_another_hash_seed(tmp_path):
    # a value pickled with its kept hash would carry the string hashes of the process that built it
    path = str(tmp_path / "values.pickle")
    write = "import pathlib, pickle, sys\npathlib.Path(sys.argv[1]).write_bytes(pickle.dumps(build()))"
    run_with_hash_seed("0", write, path)
    check = """
import pathlib, pickle, sys
loaded, fresh = pickle.loads(pathlib.Path(sys.argv[1]).read_bytes()), build()
assert len(loaded) == len(fresh) == 8 and loaded == fresh
*values, table = loaded
assert table.degrees() and table.rows == fresh[-1].rows
for x, y in zip(values + list(table.rows.values()), fresh[:-1] + list(fresh[-1].rows.values())):
    assert type(x) is type(y) and hash(x) == hash(y) and {x: 1}[y] == 1, (x, y)
    assert all(x.terms[key] == c for key, c in getattr(y, "terms", {}).items())
"""
    run_with_hash_seed("12345", check, path)
