"""The immutable value records: expression nodes, verdicts, reports and
check results, and what importing the package loads."""

import copy
import math
import pickle
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from octsieve.algebra import Octonion
from octsieve.derivations import AntiassocReport, CrossAlgebraVerdict, RegimeReport
from octsieve.dsl import Add, Conj, Const, Expr, Mul, Neg, Sub, Var, parse
from octsieve.sieve import InvarianceWitness, SieveVerdict, is_invariant
from octsieve.verification import CheckResult

A, B = Var("a"), Var("b")
X = Octonion((0, 1, 2, 0, 0, 0, 0, -3))
WITNESS = InvarianceWitness({"a": Octonion.unit(1)}, 4, X)
REGIME = RegimeReport(False, {"algebra": 3})

# Each record, built twice by its factory, with its repr as a dataclass
# writes it and its fields in constructor order.
RECORDS = [
    pytest.param(lambda: Var("a"), "Var(name='a')", ("name",), id="Var"),
    pytest.param(lambda: Const(2.5), "Const(value=2.5)", ("value",), id="Const"),
    pytest.param(lambda: Add(A, B), "Add(left=Var(name='a'), right=Var(name='b'))", ("left", "right"), id="Add"),
    pytest.param(lambda: Sub(A, B), "Sub(left=Var(name='a'), right=Var(name='b'))", ("left", "right"), id="Sub"),
    pytest.param(lambda: Mul(A, B), "Mul(left=Var(name='a'), right=Var(name='b'))", ("left", "right"), id="Mul"),
    pytest.param(lambda: Neg(A), "Neg(operand=Var(name='a'))", ("operand",), id="Neg"),
    pytest.param(lambda: Conj(A), "Conj(operand=Var(name='a'))", ("operand",), id="Conj"),
    pytest.param(lambda: InvarianceWitness({"a": Octonion.unit(1)}, 4, X),
                 "InvarianceWitness(assignment={'a': Octonion([0, 1, 0, 0, 0, 0, 0, 0])}, index=4, "
                 "distance=Octonion([0, 1, 2, 0, 0, 0, 0, -3]))",
                 ("assignment", "index", "distance"), id="InvarianceWitness"),
    pytest.param(lambda: SieveVerdict(False, 64, WITNESS, trials_run=1),
                 "SieveVerdict(invariant=False, trials=64, witness=InvarianceWitness(assignment={'a': "
                 "Octonion([0, 1, 0, 0, 0, 0, 0, 0])}, index=4, distance=Octonion([0, 1, 2, 0, 0, 0, 0, -3])), "
                 "trials_run=1)",
                 ("invariant", "trials", "witness", "trials_run"), id="SieveVerdict"),
    pytest.param(lambda: AntiassocReport(X, -X, False),
                 "AntiassocReport(lhs=Octonion([0, 1, 2, 0, 0, 0, 0, -3]), "
                 "rhs=Octonion([0, -1, -2, 0, 0, 0, 0, 3]), equal=False)",
                 ("lhs", "rhs", "equal"), id="AntiassocReport"),
    pytest.param(lambda: RegimeReport(False, {"algebra": 3}), "RegimeReport(equal=False, witness={'algebra': 3})",
                 ("equal", "witness"), id="RegimeReport"),
    pytest.param(lambda: CrossAlgebraVerdict(RegimeReport(True), REGIME, 16),
                 "CrossAlgebraVerdict(in_span=RegimeReport(equal=True, witness=None), "
                 "out_of_span=RegimeReport(equal=False, witness={'algebra': 3}), trials=16)",
                 ("in_span", "out_of_span", "trials"), id="CrossAlgebraVerdict"),
    pytest.param(lambda: CheckResult("leibniz", True, "proved", 0.25),
                 "CheckResult(name='leibniz', passed=True, detail='proved', elapsed_s=0.25)",
                 ("name", "passed", "detail", "elapsed_s"), id="CheckResult"),
]


@pytest.mark.parametrize("make, text, fields", RECORDS)
def test_a_record_is_an_immutable_value(make, text, fields):
    record, twin = make(), make()
    cls = type(record)
    assert repr(record) == text
    assert cls.__match_args__ == tuple(name for name in fields if name != "trials_run")  # keyword-only
    values = tuple(getattr(record, name) for name in fields)
    assert cls(**dict(zip(fields, values))) == record  # every field by keyword

    assert record == twin and not record != twin and record is not twin
    try:
        expected = hash(values)
    except TypeError:  # a dict field makes the record unhashable, as a frozen dataclass was
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin) == expected
        assert len({record, twin}) == 1

    # equal only within one class: not a subclass, nor a tuple of the same values
    assert record != type("Other", (cls,), {})(**dict(zip(fields, values)))
    assert record != values

    for name in (*fields, "other"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == twin and repr(record) == text


def test_expr_is_the_union_of_the_seven_node_classes():
    nodes = (Var("a"), Const(2), Add(A, B), Sub(A, B), Neg(A), Mul(A, B), Conj(A))
    assert all(isinstance(node, Expr) for node in nodes)
    assert {type(node) for node in nodes} == set(Expr.__args__)
    assert not isinstance(X, Expr)


@pytest.mark.parametrize("left, right", [(Add(A, B), Sub(A, B)), (Add(A, B), Mul(A, B)), (Sub(A, B), Mul(A, B)),
                                         (Neg(A), Conj(A)), (Var("a"), Const("a"))])
def test_nodes_of_two_classes_with_equal_fields_differ(left, right):
    assert left != right and right != left


def test_defaults_and_the_keyword_only_trials_run():
    assert SieveVerdict(True, 3, trials_run=2).witness is None
    assert SieveVerdict(trials_run=2, trials=3, invariant=True) == SieveVerdict(True, 3, None, trials_run=2)
    with pytest.raises(TypeError):
        SieveVerdict(True, 3, None, 2)  # trials_run is keyword-only
    with pytest.raises(TypeError):
        SieveVerdict(True, 3)  # and has no default
    assert RegimeReport(True).witness is None
    assert CheckResult("x", True, "d").elapsed_s == 0.0
    with pytest.raises(TypeError):
        Mul(A)


def test_records_match_positionally():
    match parse("a*b - conj(c)"):
        case Sub(Mul(Var(x), Var(y)), Conj(Var(z))):
            assert (x, y, z) == ("a", "b", "c")
        case _:
            pytest.fail("no match")
    match is_invariant("a*b", 8, 3):
        case SieveVerdict(False, 8, InvarianceWitness(_, index, _)):
            assert index > 0
        case _:
            pytest.fail("no match")


# Each value with one of its fields.
COPIED = [
    pytest.param(lambda: Octonion.unit(1), "coeffs", id="octonion"),
    pytest.param(lambda: Octonion((1.5, 2**70, 0, 0, 0, 0, 0, -1)), "coeffs", id="octonion-mixed"),
    pytest.param(lambda: parse("(a*b)*c - 2*conj(a) + -b"), "right", id="parsed-tree"),
    pytest.param(lambda: is_invariant("a*b", 8, 3), "witness", id="refuted-verdict"),
    pytest.param(lambda: CheckResult("leibniz", True, "proved", 0.25), "passed", id="check-result"),
]


@pytest.mark.parametrize("make, field", COPIED)
def test_copy_deepcopy_and_pickle_rebuild_an_equal_value(make, field):
    value = make()
    for copied in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(copied) is type(value) and copied == value and repr(copied) == repr(value)


@pytest.mark.parametrize("make, field", COPIED)
def test_del_of_a_field_raises_and_leaves_the_value(make, field):
    value = make()
    text = repr(value)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert repr(value) == text


def test_the_shared_unit_survives_del():
    with pytest.raises(AttributeError, match="Octonion is immutable"):
        del Octonion.unit(1).coeffs
    assert Octonion.unit(1).coeffs == (0, 1, 0, 0, 0, 0, 0, 0)


def test_an_unpickled_record_is_checked():
    data = pickle.dumps(Octonion((1.5, 0, 0, 0, 0, 0, 0, 0)), protocol=2)
    one_and_a_half = b"G" + struct.pack(">d", 1.5)  # BINFLOAT 1.5, the real part
    assert data.count(one_and_a_half) == 1
    forged = data.replace(one_and_a_half, b"G" + struct.pack(">d", math.inf))
    with pytest.raises(ValueError, match="coefficients must be finite"):
        pickle.loads(forged)


# Every CLI call pays for `import octsieve, octsieve.cli`; none of these
# modules may be loaded by it, for the reason given.  CI's tier-1 job runs
# the test below on every supported Python.
NOT_AT_START_UP = {
    "dataclasses": "the records are __slots__ classes on algebra._Record",
    "inspect": "dataclasses pulls it in, with ast, dis and tokenize",
    "typing": "annotations are strings, Expr and AllRules are X | Y unions",
    "contextlib": "typing pulls it in",
    "fractions": "imported where a rational is first needed",
    "decimal": "fractions pulls it in",
    "octsieve.derivations": "imported by its callers; the CLI imports it in derive",
    "octsieve.verification": "imported by its callers; the CLI imports it in verify",
}


def test_importing_the_package_and_cli_loads_no_module_kept_out_of_start_up():
    # -S: site may preload modules (a .pth file can import typing), and
    # pytest itself imports dataclasses, so the child sees only what the
    # package imports
    src = Path(__file__).resolve().parents[1] / "src"
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import octsieve, octsieve.cli; "
             "print(' '.join(sorted(set(sys.argv[2:]) & set(sys.modules))))")
    out = subprocess.run([sys.executable, "-S", "-c", probe, str(src), *NOT_AT_START_UP],
                         check=True, capture_output=True, text=True, timeout=60)
    loaded = out.stdout.split()
    assert not loaded, {name: NOT_AT_START_UP[name] for name in loaded}
