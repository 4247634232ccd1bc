"""Generic prime field and element-wrapper semantics."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.field import GenericPrimeField, OptimalPrimeField

P = 1009
residues = st.integers(min_value=0, max_value=P - 1)


@pytest.fixture(scope="module")
def field():
    return GenericPrimeField(P)


class TestConstruction:
    def test_rejects_tiny_modulus(self):
        with pytest.raises(ValueError):
            GenericPrimeField(2)

    def test_name_default(self, field):
        assert field.name == f"F_{P}"

    def test_repr(self, field):
        assert "GenericPrimeField" in repr(field)


class TestArithmetic:
    @given(residues, residues)
    def test_add_sub_mul(self, a_val, b_val):
        field = GenericPrimeField(P)
        a, b = field.from_int(a_val), field.from_int(b_val)
        assert (a + b).to_int() == (a_val + b_val) % P
        assert (a - b).to_int() == (a_val - b_val) % P
        assert (a * b).to_int() == (a_val * b_val) % P

    @given(residues)
    def test_negation(self, value):
        field = GenericPrimeField(P)
        assert (-field.from_int(value)).to_int() == (-value) % P

    @given(residues, st.integers(min_value=-5, max_value=20))
    def test_pow(self, base, exponent):
        field = GenericPrimeField(P)
        a = field.from_int(base)
        if base % P == 0 and exponent < 0:
            with pytest.raises(ZeroDivisionError):
                a ** exponent
        else:
            assert (a ** exponent).to_int() == pow(base, exponent, P)

    def test_division(self, field):
        a, b = field.from_int(7), field.from_int(13)
        assert ((a / b) * b) == a

    def test_sqrt(self, field):
        a = field.from_int(0x123 % P)
        square = a.square()
        root = square.sqrt()
        assert root == a or root == -a

    def test_sqrt_nonresidue_raises(self, field):
        nonresidue = next(
            v for v in range(2, P) if pow(v, (P - 1) // 2, P) == P - 1
        )
        with pytest.raises(ValueError):
            field.from_int(nonresidue).sqrt()

    def test_is_square(self, field):
        assert field.is_square(field.from_int(4))
        assert field.is_square(field.zero)


class TestElementSemantics:
    def test_int_coercion_in_operators(self, field):
        a = field.from_int(10)
        assert (a + 5).to_int() == 15
        assert (5 + a).to_int() == 15
        assert (a - 3).to_int() == 7
        assert (3 - a).to_int() == (3 - 10) % P
        assert (a * 2).to_int() == 20

    def test_equality_with_int(self, field):
        assert field.from_int(10) == 10
        assert field.from_int(10) == 10 + P

    def test_cross_field_mixing_rejected(self, field):
        other = GenericPrimeField(1013)
        with pytest.raises(ValueError):
            field.from_int(1) + other.from_int(1)

    def test_cross_field_equality_is_false(self, field):
        other = GenericPrimeField(1013)
        assert field.from_int(1) != other.from_int(1)

    def test_bool(self, field):
        assert not field.zero
        assert field.one

    def test_repr_contains_hex(self, field):
        assert "0xff" in repr(field.from_int(255))

    def test_all_elements_guard(self):
        big = GenericPrimeField((1 << 17) + 29)
        with pytest.raises(ValueError):
            big.all_elements()

    def test_random_element_in_range(self, field, ):
        import random
        rng = random.Random(1)
        for _ in range(20):
            assert 0 <= field.random_element(rng).to_int() < P


class TestAgreementWithOpf:
    """The generic field is the reference model for the OPF field."""

    @given(st.integers(min_value=0, max_value=36096),
           st.integers(min_value=0, max_value=36096))
    @settings(max_examples=200)
    def test_toy_opf_agrees(self, a, b):
        opf = OptimalPrimeField(141, 8, word_bits=8)
        ref = GenericPrimeField(36097)
        for op in ("__add__", "__sub__", "__mul__"):
            got = getattr(opf.from_int(a), op)(opf.from_int(b)).to_int()
            expect = getattr(ref.from_int(a), op)(ref.from_int(b)).to_int()
            assert got == expect, op
