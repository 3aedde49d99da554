"""The value classes: records compare, hash and print as frozen dataclasses
did, nothing can be assigned or deleted, and every value copies and
pickles."""

import copy
import pickle
from fractions import Fraction as Fr

import pytest

from hahnforge.exactnum import PrimeConfig
from hahnforge.hahn_eqchar import EqHahn
from hahnforge.hahn_padic import decompose, normalize
from hahnforge.indexcomb import Certificate
from hahnforge.newton import ExpandOptions, RootBranch, polygon_of
from hahnforge.ordinal import OMEGA, Ordinal

CFG = PrimeConfig.make(3, 2)


def records():
    """(record, its fields in declaration order, the same fields again as a
    fresh record, the repr the frozen dataclass printed, a record that
    differs in the last field only)."""
    half = Fr(-1, 2)
    branch = dict(cfg=CFG, ring=EqHahn, terms=((half, CFG.fq([1, 2])),),
                  residual_bound=Fr(-1, 4), field_degree=2)
    return [
        (CFG, (3, 2, (1, 0, 1), 128),
         PrimeConfig(p=3, r=2, modulus=(1, 0, 1)),
         "PrimeConfig(p=3, r=2, modulus=(1, 0, 1), l_max=128)",
         PrimeConfig(3, 2, (1, 0, 1), l_max=64)),
        (Certificate([1, 0, "2"], cap=1), ((1, 0, 2), Fr(1)),
         Certificate((1, 0, 2), Fr(1)),
         "Certificate(s=(1, 0, 2), cap=Fraction(1, 1))",
         Certificate((1, 0, 2), Fr(2))),
        (ExpandOptions(max_steps=10), (6, 3, 10), ExpandOptions(6, 3, 10),
         "ExpandOptions(max_field_degree=6, stall_limit=3, max_steps=10)",
         ExpandOptions(max_steps=11)),
        (RootBranch(**branch), tuple(branch.values()), RootBranch(*branch.values()),
         "RootBranch([2*g+1]*t^(-1/2); bound=-1/4)",
         RootBranch(**{**branch, "field_degree": 1})),
    ]


RECORD_IDS = ["PrimeConfig", "Certificate", "ExpandOptions", "RootBranch"]
FIRST_FIELDS = ["p", "s", "max_field_degree", "cfg"]


@pytest.mark.parametrize("index", range(4), ids=RECORD_IDS)
class TestRecords:
    def test_equality_is_field_wise_within_one_class(self, index):
        rec, fields, twin, _, changed = records()[index]
        assert rec == twin and not rec != twin and rec is not twin
        assert rec != changed and not rec == changed
        assert rec != fields and fields != rec
        for _, _, other, _, _ in records()[:index] + records()[index + 1:]:
            assert rec != other
        assert (rec == object()) is False

    def test_hash_is_the_hash_of_the_field_tuple(self, index):
        rec, fields, twin, _, _ = records()[index]
        assert hash(rec) == hash(fields) == hash(twin)
        assert len({rec, twin}) == 1

    def test_repr_is_the_dataclass_repr(self, index):
        rec, _, _, text, _ = records()[index]
        assert repr(rec) == text

    def test_fields_cannot_be_assigned_or_deleted(self, index):
        rec = records()[index][0]
        name = FIRST_FIELDS[index]
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
        with pytest.raises(AttributeError):
            delattr(rec, name)
        with pytest.raises(AttributeError):
            rec.extra = 1
        assert records()[index][0] == rec


@pytest.mark.parametrize("s,message", [
    ((1,), "^certificate needs at least s_0 and s_1$"),
    ((0, 1), r"^s_0 and s_\{n\+1\} must be nonzero$"),
    ((1, 2, 0), r"^s_0 and s_\{n\+1\} must be nonzero$"),
])
def test_certificate_checks_its_coefficients(s, message):
    with pytest.raises(ValueError, match=message):
        Certificate(s, cap=1)


def every_value():
    """One instance of every value class, by class name."""
    cfg2 = PrimeConfig.make(2)
    x = normalize(CFG, [(CFG.fq([1, 1]), Fr(-1, 2)), (CFG.fq(2), Fr(1, 3))],
                  Fr(3))
    return {type(rec).__name__: rec for rec, *_ in records()} | {
        "FqElem": CFG.fq([2, 1]),
        "WittElem": CFG.witt([5, 7], prec=3),
        "PHahn": x,
        "EqHahn": EqHahn(cfg2, [(Fr(-1, 2), 1), (Fr(3), 1)], Fr(7, 2)),
        "NewtonPolygon": polygon_of([EqHahn.monomial(cfg2, 1, Fr(-1)),
                                     EqHahn.one(cfg2), EqHahn.one(cfg2)]),
        "FracDecomp": decompose(x),
        "Ordinal": OMEGA * 2 + Ordinal.from_int(3),
    }


def same_value(a, b):
    if type(a).__name__ == "NewtonPolygon":  # compares by identity
        return (a.points, a.zero_multiplicity, a.den) == (
            b.points, b.zero_multiplicity, b.den)
    return a == b


@pytest.mark.parametrize("name", list(every_value()))
@pytest.mark.parametrize("how", ["pickle", "copy", "deepcopy"])
def test_every_value_round_trips(name, how):
    value = every_value()[name]
    twin = {"pickle": lambda v: pickle.loads(pickle.dumps(v)),
            "copy": copy.copy, "deepcopy": copy.deepcopy}[how](value)
    assert type(twin) is type(value)
    assert same_value(twin, value)


def test_a_copied_series_computes_as_the_original():
    x = every_value()["PHahn"]
    y = pickle.loads(pickle.dumps(x))
    assert y * y == x * x and y.terms == x.terms
