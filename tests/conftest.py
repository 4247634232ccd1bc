"""Shared fixtures: toy fields and curves with brute-force ground truth."""

from __future__ import annotations

import random

import pytest

from repro.curves import (
    GLVCurve,
    MontgomeryCurve,
    TwistedEdwardsCurve,
    WeierstrassCurve,
)
from repro.field import GenericPrimeField, OptimalPrimeField

TOY_P = 1009  # prime, ≡ 1 mod 3, ≡ 1 mod 4


def pytest_addoption(parser):
    parser.addoption(
        "--run-bench", action="store_true", default=False,
        help="run the opt-in ISS throughput benchmarks (~30 s)",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-bench"):
        return
    skip_bench = pytest.mark.skip(reason="needs --run-bench")
    for item in items:
        if "bench" in item.keywords:
            item.add_marker(skip_bench)


@pytest.fixture
def rng():
    return random.Random(0xDEADBEEF)


@pytest.fixture
def toy_field():
    return GenericPrimeField(TOY_P, name="F1009")


@pytest.fixture
def toy_opf():
    """p = 141 * 2^8 + 1 = 36097 with 8-bit words: a genuine low-weight OPF
    that fills its two words (p > R/2, as incomplete reduction needs)."""
    return OptimalPrimeField(141, 8, word_bits=8, name="toy-opf")


@pytest.fixture
def toy_weierstrass(toy_field):
    return WeierstrassCurve(toy_field, 3, 7)


@pytest.fixture
def toy_weierstrass_j0(toy_field):
    return WeierstrassCurve(toy_field, 0, 11)


@pytest.fixture
def toy_edwards(toy_field):
    # a = -1 (square since 1009 ≡ 1 mod 4), d = 11 (non-square mod 1009).
    assert pow(11, (TOY_P - 1) // 2, TOY_P) == TOY_P - 1
    return TwistedEdwardsCurve(toy_field, TOY_P - 1, 11)


@pytest.fixture
def toy_montgomery(toy_field):
    return MontgomeryCurve(toy_field, 6, 1)


@pytest.fixture
def toy_glv(toy_field):
    """The toy GLV curve derived in the parameter-generation tests:
    y^2 = x^3 + 11 over F_1009 has prime-power structure with a base point
    of full order 967 and a verified (beta, lambda) pair."""
    return GLVCurve(toy_field, 11, beta=374, lam=824, n=967)
