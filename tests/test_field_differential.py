"""The integer field backends against the executed word-level routines.

``Secp160r1Field`` and ``OptimalPrimeField`` compute on Python integers and
charge ``counter.words`` a per-op delta; :mod:`repro.mpa` runs the word
loops the paper's assembly implements.  This is the contract between the
two: for every field and word size in use, each op returns exactly the
routine's output (the same incompletely reduced representative, not just
the same residue) and charges exactly the tally the routine fills.
"""

import random

import pytest

from repro.curves.params import make_glv, make_weierstrass
from repro.field import OptimalPrimeField, Secp160r1Field
from repro.mpa import (
    WordOpCounter,
    fips_montgomery_opf,
    from_words,
    modadd_incomplete,
    modsub_incomplete,
    mul_product_scanning,
    to_words,
)

SAMPLES = 150

FIELDS = {
    "secp160r1": Secp160r1Field,
    "opf160": lambda: make_weierstrass().field,
    "opf160-glv": lambda: make_glv().field,
    "toy-opf-w8": lambda: OptimalPrimeField(141, 8, word_bits=8),
    "toy-opf-w16": lambda: OptimalPrimeField(32787, 16, word_bits=16),
}


@pytest.fixture(params=sorted(FIELDS))
def field(request):
    return FIELDS[request.param]()


def internal_range(field):
    """Upper bound of internal values: R for OPFs, p for plain residues."""
    if isinstance(field, OptimalPrimeField):
        return 1 << field.radix_bits
    return field.p


def operands(field, seed):
    """Edge values of the internal range, then uniform draws from it."""
    top = internal_range(field)
    edges = [0, 1, field.p - 1, top - 1]
    if top > field.p:
        edges += [field.p, top - field.p, top - field.p - 1]
    rng = random.Random(seed)
    pairs = [(a, b) for a in edges for b in edges]
    pairs += [(rng.randrange(top), rng.randrange(top))
              for _ in range(SAMPLES)]
    return pairs


def charged(field, op, *args):
    """Run ``op`` and return (result, the word tally it charged)."""
    before = field.counter.words.copy()
    out = op(*args)
    return out, field.counter.words.delta(before)


def words(field, value):
    return to_words(value, field.num_words, field.word_bits)


def reference_mul(field, x, y):
    """The executed routine a field multiplication must agree with."""
    counter = WordOpCounter()
    if isinstance(field, OptimalPrimeField):
        out = fips_montgomery_opf(words(field, x), words(field, y),
                                  field.mont, counter)
        return from_words(out, field.word_bits), counter
    out = mul_product_scanning(words(field, x), words(field, y),
                               field.word_bits, counter)
    return field.reduce_product(from_words(out, field.word_bits)), counter


def reference_addsub(field, routine, plain, x, y):
    """OPFs run ``routine``; the secp160r1 field adds plainly, uncounted."""
    counter = WordOpCounter()
    if isinstance(field, OptimalPrimeField):
        out = routine(words(field, x), words(field, y),
                      field.mont.p_words, field.word_bits, counter)
        return from_words(out, field.word_bits), counter
    return plain(x, y) % field.p, counter


class TestAgainstExecutedRoutines:
    def test_mul(self, field):
        for x, y in operands(field, 1):
            assert charged(field, field._mul, x, y) \
                == reference_mul(field, x, y), (x, y)

    def test_sqr(self, field):
        for x, _ in operands(field, 2):
            assert charged(field, field._sqr, x) \
                == reference_mul(field, x, x), x

    def test_add(self, field):
        for x, y in operands(field, 3):
            expect = reference_addsub(field, modadd_incomplete,
                                      lambda a, b: a + b, x, y)
            assert charged(field, field._add, x, y) == expect, (x, y)

    def test_sub(self, field):
        for x, y in operands(field, 4):
            expect = reference_addsub(field, modsub_incomplete,
                                      lambda a, b: a - b, x, y)
            assert charged(field, field._sub, x, y) == expect, (x, y)

    def test_int_to_internal(self, field):
        rng = random.Random(5)
        values = [2, field.p - 1, field.p + 2, -7]
        values += [rng.randrange(-field.p, 2 * field.p)
                   for _ in range(SAMPLES)]
        for value in values:
            if isinstance(field, OptimalPrimeField):
                expect = reference_mul(field, value % field.p, field.mont.r2)
            else:
                expect = (value % field.p, WordOpCounter())
            mul_before = field.counter.mul
            assert charged(field, field.int_to_internal, value) == expect, \
                value
            assert field.counter.mul - mul_before == (
                1 if isinstance(field, OptimalPrimeField) else 0)


class TestTallies:
    def test_counter_is_updated_in_place(self, field):
        held = field.counter.words
        field._mul(3, 5)
        field._add(3, 5)
        assert field.counter.words is held
        assert held.mul > 0

    def test_iadd_mutates_and_returns_self(self):
        total = WordOpCounter(mul=1, add=2)
        held = total
        total += WordOpCounter(mul=3, sub=4, load=5, store=6, shift=7)
        assert total is held
        assert total == WordOpCounter(mul=4, add=2, sub=4, load=5, store=6,
                                      shift=7)

    def test_residual_borrow_still_fires(self):
        # Operands above R break the double-correction invariant; the
        # integer path must refuse them exactly as the word routine does.
        field = OptimalPrimeField(141, 8, word_bits=8)
        radix = 1 << field.radix_bits
        with pytest.raises(AssertionError, match="residual borrow"):
            field._sub(0, 3 * radix - 1)
        with pytest.raises(AssertionError, match="residual carry"):
            field._add(2 * radix, radix)
