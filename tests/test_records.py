"""The contracts callers read from the record classes: equality and hash by
value, refused field assignment, validation errors and fresh mutable fields
per report."""

from fractions import Fraction as F

import pytest

from eulerstab.eulerian import FamilyId, zigzag
from eulerstab.lab import ThresholdBracket, VerificationReport
from eulerstab.polynomial import Polynomial as P
from eulerstab.stability import (
    IsolatedRoot,
    RootIsolation,
    hermite_biehler_weakly_stable,
    is_strictly_hurwitz_stable,
    sturm_chain,
)


def test_record_contracts():
    p = P([1, 4, 1])
    roots = (IsolatedRoot(F(-4), F(-3), 1), IsolatedRoot(F(-1, 2), F(0), 1))
    for make in (
        lambda: IsolatedRoot(F(-1), F(-1), 2),
        lambda: RootIsolation(roots),
        lambda: ThresholdBracket(3, F(-5), F(-4), F(-9, 2)),
        lambda: hermite_biehler_weakly_stable(p),
        lambda: is_strictly_hurwitz_stable(p),
        lambda: sturm_chain(p),
    ):
        a, b = make(), make()
        assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert IsolatedRoot(F(-1), F(-1), 2) != IsolatedRoot(F(-1), F(-1), 1)
    assert RootIsolation(roots) != RootIsolation(roots[:1])

    chain = sturm_chain(p)
    assert chain != sturm_chain(P([1, 5, 1]))

    weak, strict = hermite_biehler_weakly_stable(p), is_strictly_hurwitz_stable(p)
    frozen = [
        (FamilyId("A", 3), "rank"),
        (zigzag(3), "ratio"),
        (ThresholdBracket(3, F(-5), F(-4), F(-9, 2)), "upper"),
        (chain, "rows"),
        (roots[0], "lo"),
        (RootIsolation(roots), "total_multiplicity"),
        (weak.evidence, "detail"),
        (strict.evidence, "detail"),
        (weak, "verdict"),
    ]
    for record, name in frozen:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))

    with pytest.raises(ValueError, match=r"^unknown family 'Q'; expected one of \('A', 'B', "):
        FamilyId("Q", 3)
    with pytest.raises(ValueError, match=r"^family D needs rank >= 2, got 1$"):
        FamilyId("D", 1)

    a, b = VerificationReport("x", (1, 2)), VerificationReport("x", (1, 2))
    a.check(1, False, "boom")
    a.observations.append("note")
    assert (b.failures, b.observations) == ([], []) and a != b
    assert b == VerificationReport("x", (1, 2))
