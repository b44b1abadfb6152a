"""The lab's records are immutable values: equal and hashed by their fields,
with no instance dict, and with their construction checks kept."""

from fractions import Fraction

import pytest

from sievelab.brun import GoodReductionCensus, RemainderAudit, SandwichReport
from sievelab.census import CensusRow, ClassSetReport
from sievelab.chebotarev import FFieldCensus
from sievelab.config import ExperimentConfig, default_elliptic_family, default_genus2_family
from sievelab.heights import ProjectivePoint
from sievelab.sieve import SieveSupport, SievingSet

from group_oracle import ClassTable, GroupSpec, Property1Report

# each record, built afresh by a call, and the constructions it must refuse
RECORDS = [
    (lambda: ExperimentConfig(default_elliptic_family(), (10,), (5, 7), 50), []),
    (default_genus2_family, []),
    (lambda: CensusRow(10, 7, {5: 3}, {5: 4}, 4, {5: [1, 0, 3, 0, 0]}), []),
    (lambda: ClassSetReport(5, (1, 1), 10, 50, (11, 31, 41), 3, 2.5), []),
    (lambda: SandwichReport(Fraction(7, 2), Fraction(3), Fraction(4), Fraction(1, 2),
                            Fraction(-1, 2), 3), []),
    (lambda: RemainderAudit(6, 10, 1, Fraction(1, 2), 3.0, True), []),
    (lambda: GoodReductionCensus(10, 3, 100, 12.5, 2, (2,)), []),
    (lambda: SieveSupport((2, 3), 5),
     [lambda: SieveSupport((3, 3), 10), lambda: SieveSupport((3, 11), 11),
      lambda: SieveSupport((2, 3), 5)._replace(Q=3)]),
    (lambda: SievingSet(3, 2, frozenset({(0, 0), (1, 2)})), []),
    (lambda: FFieldCensus(5, 1, 3, 3, {(0, 1): Fraction(1, 3)}, None, None), []),
    (lambda: GroupSpec(2, 3, "gsp", pm1_quotient=True),
     [lambda: GroupSpec(1, 5, "x"), lambda: GroupSpec(1, 2, "gsp"),
      lambda: GroupSpec(1, 5, "gsp")._replace(l=2)]),
    (lambda: ClassTable(GroupSpec(1, 3, "sp"), "charpoly", {(0, 1): 8}), []),
    (lambda: Property1Report(1, (3, 5), 4, 2, 0.5, 0.4, True), []),
    (lambda: ProjectivePoint((1, -2)), [lambda: ProjectivePoint((0, 0))]),
]


@pytest.mark.parametrize("make, bad", RECORDS, ids=[type(m()).__name__ for m, _ in RECORDS])
def test_record_semantics(make, bad):
    a, b = make(), make()
    names = getattr(type(a), "_fields", None) or type(a).__slots__
    assert a is not b and a == b
    assert not hasattr(a, "__dict__")
    for name in (names[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    with pytest.raises(AttributeError):
        delattr(a, names[0])
    try:
        hash(tuple(getattr(a, name) for name in names))
    except TypeError:  # a dict field
        pass
    else:
        assert hash(a) == hash(b) and len({a, b}) == 1
    for build in bad:
        with pytest.raises(ValueError):
            build()


def test_defaults():
    config = ExperimentConfig(default_elliptic_family(), (10,), (5,), 50)
    assert (config.out_dir, config.workers, config.seed) == (".", 1, 0)
    assert FFieldCensus(5, 1, 3, 3, {}, None, None).warnings == ()
    assert GroupSpec(1, 5, "gsp").pm1_quotient is False
