"""Fixed-base comb tables: correctness across all five curve families,
cache behavior, and the memory budget."""

import random

import pytest

from repro.curves.params import make_suite
from repro.scalarmult.fixed_base import (
    DEFAULT_WIDTH,
    FixedBaseCache,
    FixedBaseTable,
    comb_table_ram_bytes,
    default_scalar_bits,
    scalar_mult_fixed_base,
)

CURVE_KEYS = ["secp160r1", "weierstrass", "edwards", "montgomery", "glv"]


@pytest.fixture(scope="module")
def suites():
    return {key: make_suite(key) for key in CURVE_KEYS}


@pytest.fixture(scope="module")
def tables(suites):
    """One table per family, built once (the expensive part)."""
    return {key: FixedBaseTable(s.curve, s.base)
            for key, s in suites.items()}


def _scalars(suite, bits):
    """Deterministic scalar set: edges plus random draws."""
    rng = random.Random(f"fixed-base:{suite.curve.name}")
    ks = [0, 1, 2, 3, (1 << bits) - 1]
    if suite.order is not None:
        ks += [suite.order - 1, suite.order, suite.order + 1]
    ks += [rng.getrandbits(bits) for _ in range(6)]
    return [k for k in ks if k.bit_length() <= bits]


class TestCorrectness:
    @pytest.mark.parametrize("key", CURVE_KEYS)
    def test_matches_affine_reference(self, key, suites, tables):
        """The comb evaluation equals plain affine double-and-add for
        every family, including edge scalars around the group order."""
        suite, table = suites[key], tables[key]
        for k in _scalars(suite, table.bits):
            expected = suite.curve.affine_scalar_mult(k, suite.base)
            assert table.multiply(k) == expected, f"k={k:#x} on {key}"

    def test_width_invariance(self, suites):
        """Different comb widths are different schedules of the same
        sum — results must agree bit for bit."""
        suite = suites["secp160r1"]
        k = 0x1234_5678_9ABC_DEF0_1111_2222_3333_4444_5555
        results = {w: FixedBaseTable(suite.curve, suite.base,
                                     width=w, bits=170).multiply(k)
                   for w in (1, 2, 3, 5)}
        reference = suite.curve.affine_scalar_mult(k, suite.base)
        for w, result in results.items():
            assert result == reference, f"width {w}"

    def test_oversized_scalar_rejected(self, suites, tables):
        table = tables["secp160r1"]
        with pytest.raises(ValueError, match="exceeds"):
            table.multiply(1 << (table.bits + 1))

    def test_negative_scalar_rejected(self, tables):
        with pytest.raises(ValueError):
            tables["secp160r1"].multiply(-1)

    def test_bad_base_rejected(self, suites):
        from repro.curves.point import AffinePoint

        suite = suites["secp160r1"]
        field = suite.curve.field
        off = AffinePoint(field.from_int(12345), field.from_int(67890))
        with pytest.raises(ValueError, match="not on the curve"):
            FixedBaseTable(suite.curve, off)

    def test_entry_point_matches_table(self, suites):
        suite = suites["weierstrass"]
        k = 0xDEAD_BEEF_CAFE
        via_fn = scalar_mult_fixed_base(suite.curve, suite.base, k,
                                        cache=None)
        assert via_fn == suite.curve.affine_scalar_mult(k, suite.base)


class TestSizing:
    def test_ram_estimate_bounds_actual(self, tables):
        """The analytic estimate upper-bounds the real footprint (rows
        may hold infinity placeholders that cost nothing)."""
        table = tables["secp160r1"]
        assert 0 < table.ram_bytes <= comb_table_ram_bytes(
            table.width, table.bits)

    def test_default_bits_covers_order(self, suites):
        for key in ("secp160r1", "glv"):
            suite = suites[key]
            assert (suite.order - 1).bit_length() <= \
                default_scalar_bits(suite.curve)

    def test_estimate_validates(self):
        with pytest.raises(ValueError):
            comb_table_ram_bytes(0, 160)
        with pytest.raises(ValueError):
            comb_table_ram_bytes(4, 0)


class TestCache:
    def test_hit_shares_one_table(self, suites):
        cache = FixedBaseCache()
        suite_a = suites["secp160r1"]
        suite_b = make_suite("secp160r1")  # fresh objects, same values
        t1 = cache.get(suite_a.curve, suite_a.base)
        t2 = cache.get(suite_b.curve, suite_b.base)
        assert t1 is t2 and len(cache) == 1

    def test_distinct_widths_are_distinct_entries(self, suites):
        cache = FixedBaseCache()
        suite = suites["weierstrass"]
        cache.get(suite.curve, suite.base, width=3)
        cache.get(suite.curve, suite.base, width=4)
        assert len(cache) == 2

    def test_lru_eviction_respects_budget(self, suites):
        suite = suites["weierstrass"]
        one = FixedBaseTable(suite.curve, suite.base, width=3)
        cache = FixedBaseCache(budget_bytes=int(one.ram_bytes * 1.5))
        cache.get(suite.curve, suite.base, width=3)
        cache.get(suite.curve, suite.base, width=2)  # evicts the first
        assert len(cache) == 1
        assert cache.ram_bytes <= cache.budget_bytes

    def test_over_budget_table_refused(self, suites):
        suite = suites["weierstrass"]
        cache = FixedBaseCache(budget_bytes=64)
        with pytest.raises(ValueError, match="budget"):
            cache.get(suite.curve, suite.base)

    def test_stats_shape(self, suites):
        cache = FixedBaseCache()
        suite = suites["weierstrass"]
        cache.get(suite.curve, suite.base, width=2)
        stats = cache.stats()
        assert stats["tables"] == 1
        assert stats["ram_bytes"] == cache.ram_bytes
        assert stats["budget_bytes"] == cache.budget_bytes


class TestRebind:
    """A table cached over one suite's field serves another suite of the
    same curve through a copy in that suite's own field."""

    def test_rebind_copies_into_the_callers_field(self, suites, tables):
        from repro.obs.metrics import METRICS

        key = "weierstrass"
        table = tables[key]
        other = make_suite(key)
        assert table.rebind(table.curve) is table
        built = METRICS.counter("fixed_base_tables_built").value
        before = (table.curve.field.counter.snapshot(),
                  other.field.counter.snapshot())
        moved = table.rebind(other.curve)
        assert METRICS.counter("fixed_base_tables_built").value == built
        assert (table.curve.field.counter.snapshot(),
                other.field.counter.snapshot()) == before
        assert moved.curve is other.curve
        for row, moved_row in zip(table.rows, moved.rows):
            for point, copy in zip(row, moved_row):
                assert copy.x.field is other.field
                assert (copy.x.internal, copy.y.internal) == \
                    (point.x.internal, point.y.internal)
        k = _scalars(other, moved.bits)[-1]
        assert moved.multiply(k).x.to_int() == table.multiply(k).x.to_int()

    def test_rebind_refuses_another_curve(self, tables, suites):
        with pytest.raises(ValueError, match="rebind"):
            tables["weierstrass"].rebind(suites["edwards"].curve)

    @pytest.mark.parametrize("key",
                             ["secp160r1", "weierstrass", "edwards", "glv"])
    def test_second_worker_state_uses_its_own_field(self, key):
        """Two worker states in one process: the second one's fixed-base
        public keys must combine with its own points (the process-wide
        cache holds the first state's table)."""
        from repro.serve.worker import WorkerState

        secrets = []
        for fixed_base in (True, True, False):
            state = WorkerState(fixed_base=fixed_base)
            ecdh = state.ecdh(key)
            rng = random.Random(f"rebind:{key}")
            own, peer = ecdh.generate_keypair(rng), ecdh.generate_keypair(rng)
            secret = ecdh.shared_secret(own, peer.public)
            secrets.append((secret.x.to_int(), secret.y.to_int()))
            if fixed_base:
                assert state.fixed_table(key).curve is state.suite(key).curve
        assert secrets[0] == secrets[1] == secrets[2]

    def test_fixed_base_ops_count_on_the_states_own_field(self):
        from repro.serve.worker import WorkerState

        deltas = []
        for _ in range(2):
            state = WorkerState()
            state.warm(["secp160r1"])
            state.field_ops_delta()
            state.fixed_table("secp160r1").multiply(12345678901234567)
            deltas.append(state.field_ops_delta())
        assert deltas[0] == deltas[1]
        assert deltas[0]["mul"] > 0
