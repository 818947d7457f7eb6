"""The immutable records: equality, hash, repr, pickling and immutability, as frozen dataclasses had them."""

import pickle
from fractions import Fraction

import pytest

from blockprod.bigreal import BigReal
from blockprod.gammafn import GammaExpr
from blockprod.identities import FiniteSupportFn, ProductSpec
from blockprod.products import VerifyReport, verify
from blockprod.words import Word

WORD = Word(2, (1, 0))
SPEC = ProductSpec(2, WORD, (1, 1), (0, 2))


def report(spec=SPEC, terms=1000) -> VerifyReport:
    return verify(spec, N=terms, precision_bits=128)


# (make, repr text) per class; make() builds a fresh instance each call
CASES = {
    "Word": (lambda: Word(2, [1, 0]), "Word(base=2, digits=(1, 0))"),
    "GammaExpr": (
        lambda: GammaExpr(8, (Fraction(1, 2),), (Fraction(1, 4),) * 2),
        "GammaExpr(prefactor=Fraction(8, 1), num=(Fraction(1, 2),), "
        "den=(Fraction(1, 4), Fraction(1, 4)))",
    ),
    "FiniteSupportFn": (
        lambda: FiniteSupportFn({5: Fraction(2, 3), 3: 1, 7: 0}, value_at_zero=2),
        "FiniteSupportFn(entries={5: Fraction(2, 3), 3: Fraction(1, 1)}, value_at_zero=Fraction(2, 1))",
    ),
    "ProductSpec": (
        lambda: ProductSpec(2, Word(2, (1, 0)), (1, 1), (0, 2)),
        "ProductSpec(base=2, word=Word(base=2, digits=(1, 0)), a=(Fraction(1, 1), Fraction(1, 1)), "
        "b=(Fraction(0, 1), Fraction(2, 1)))",
    ),
    "VerifyReport": (
        lambda: VerifyReport("rivoal_eq1", 10, 64, *(BigReal(k, -3, 64) for k in range(1, 6)),
                             Fraction(1, 1000), 4, True),
        "VerifyReport(spec='rivoal_eq1', terms_used=10, precision_bits=64, "
        "lhs_partial=BigReal('0.125000000000000000', prec=64), "
        "rhs_closed=BigReal('0.250000000000000000', prec=64), "
        "abs_gap=BigReal('0.375000000000000000', prec=64), "
        "rel_gap=BigReal('0.500000000000000000', prec=64), "
        "tail_estimate=BigReal('0.625000000000000000', prec=64), "
        "tolerance=Fraction(1, 1000), tail_factor=4, passed=True)",
    ),
}


def field_tuple(record) -> tuple:
    return tuple(getattr(record, name) for name in record._fields)


@pytest.mark.parametrize("name", CASES)
class TestRecord:
    def test_repr(self, name):
        make, text = CASES[name]
        assert repr(make()) == text

    def test_equality_by_class_and_fields(self, name):
        make, _ = CASES[name]
        x, y = make(), make()
        assert x == y and not x != y and x is not y
        assert x != field_tuple(x)  # a field tuple is not a record
        others = [make() for make, _ in CASES.values()]
        assert [o == x for o in others] == [type(o) is type(x) for o in others]

    def test_hash_is_the_field_tuple_hash(self, name):
        make, _ = CASES[name]
        x = make()
        try:
            want = hash(field_tuple(x))
        except TypeError:  # a dict or BigReal field: unhashable, as the record
            with pytest.raises(TypeError):
                hash(x)
        else:
            assert hash(x) == want == hash(make())

    def test_pickle_round_trip(self, name):
        make, text = CASES[name]
        x = make()
        y = pickle.loads(pickle.dumps(x))
        assert type(y) is type(x) and y == x and repr(y) == text
        assert vars(y) == vars(x)

    def test_fields_cannot_be_set_or_deleted(self, name):
        make, _ = CASES[name]
        x = make()
        for field in (*x._fields, "other"):
            before = vars(x).get(field)
            with pytest.raises(AttributeError):
                setattr(x, field, 1)
            with pytest.raises(AttributeError):
                delattr(x, field)
            assert vars(x).get(field) is before
        assert list(vars(x)) == list(x._fields)


class TestRecordFields:
    def test_fields_in_constructor_order(self):
        """``_fields`` lists the constructor's parameters, so keyword construction names them."""
        assert GammaExpr._fields == ("prefactor", "num", "den")
        assert FiniteSupportFn._fields == ("entries", "value_at_zero")
        assert ProductSpec._fields == ("base", "word", "a", "b")
        x = report()
        assert VerifyReport(**vars(x)) == x
        assert Word(digits=(1, 0), base=2) == WORD
        assert ProductSpec(b=(0, 2), a=(1, 1), word=WORD, base=2) == SPEC
        assert FiniteSupportFn(entries={1: 2}) == FiniteSupportFn({1: 2}, 0)

    def test_real_report_round_trips(self):
        x = report()
        y = pickle.loads(pickle.dumps(x))
        assert y == x and y.fields() == x.fields() and y.to_json_dict() == x.to_json_dict()
        assert x != report(terms=1001)

    def test_bigreal_round_trips_exactly(self):
        for x in (BigReal(0, 0, 64), BigReal(-(3**200), -7, 128), BigReal.from_fraction(Fraction(1, 3), 2048)):
            y = pickle.loads(pickle.dumps(x))
            assert (y.man, y.exp, y.prec) == (x.man, x.exp, x.prec)
