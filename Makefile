PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-bench bench bench-smoke bench-check trace-smoke \
        profile-smoke faults-smoke ctcheck-smoke serve-smoke \
        shard-smoke keys-smoke obs-serve-smoke docs docs-check tables

test:
	$(PYTHON) -m pytest -x -q

test-bench:
	$(PYTHON) -m pytest -q --run-bench tests/test_analysis_bench.py

bench:
	$(PYTHON) -m repro bench

# Reduced ISS legs, gated by the ISS floors (fast/reference and
# trace/fast speedups); appends nothing to the committed BENCH_iss.json.
bench-smoke:
	$(PYTHON) -m repro bench --smoke --output none

# Fresh smoke run of each suite vs the last committed record of
# BENCH_iss.json / BENCH_serve.json; exits non-zero on a throughput
# regression beyond the suite's tolerance (30% / 50%) or a missed floor
# (writes nothing).
bench-check:
	$(PYTHON) -m repro bench --check
	$(PYTHON) -m repro bench serve --check

# Superblock trace-engine gate: the directed three-way parity suite
# (reference vs fast vs trace — bit- and cycle-exact on every kernel),
# the SREG dead-flag property tests and the forced mid-superblock
# fallback cases, plus the three-way differential fuzz harness.
trace-smoke:
	$(PYTHON) -m pytest -q tests/test_avr_trace.py
	$(PYTHON) -m pytest -q tests/test_avr_fuzz.py -k trace

# Fast profiling sanity pass: ISS group/hotspot/routine attribution plus
# the traced Python mirror op, on small inputs.
profile-smoke:
	$(PYTHON) -m repro profile --smoke
	$(PYTHON) -m repro profile ladder --smoke --format chrome --out /dev/null
	$(PYTHON) -m repro profile scalarmult --smoke --format jsonl > /dev/null

# Fault-campaign gate (DESIGN.md §7): each --check runs its campaign
# twice and fails unless the JSONL is byte-identical, the hardened build
# reports 0 silent corruptions and the baseline reports > 0.  The ladder
# leg is the acceptance campaign: 200 seeded faults on the CA-mode
# assembly ladder under the ISS.
faults-smoke:
	$(PYTHON) -m repro faults ladder --mode ca --n 200 --seed 7 --check
	$(PYTHON) -m repro faults ecdh --smoke --check
	$(PYTHON) -m repro faults ecdsa --smoke --check

# Constant-time gate (DESIGN.md §9): every leg runs the taint checker
# over all three timing modes, twice (JSONL must be byte-identical) and
# under both execution engines (verdicts must agree).  The field
# multiplication, the masked-swap ladder and DAAA exponentiation must
# come back clean; the NAF foil must stay flagged — if it ever reports
# clean, the checker has lost its teeth.
ctcheck-smoke:
	$(PYTHON) -m repro ctcheck mul --check --expect clean
	$(PYTHON) -m repro ctcheck ladder --check --expect clean
	$(PYTHON) -m repro ctcheck daaa --check --expect clean
	$(PYTHON) -m repro ctcheck naf --check --expect flagged

# Regenerate the docs/ API reference from docstrings; docs-check is the
# CI form (fails on stale pages or broken relative links, writes nothing).
docs:
	$(PYTHON) -m repro docs

docs-check:
	$(PYTHON) -m repro docs --check

# Serving gate (DESIGN.md §8): a 200-request deterministic loadgen mix
# against 1- and 2-worker in-process servers — zero errors and a
# byte-stable JSONL summary under the fixed seed (each --check runs the
# stream twice and compares bytes) — then the admission acceptance
# tests (direct path == server reply parity, overlong-line resync,
# pool rebuild after a worker SIGKILL), then the serve benchmark suite
# in smoke form, which enforces every serve floor (analysis/bench.py
# FLOORS) without touching the committed BENCH_serve.json.
serve-smoke:
	$(PYTHON) -m repro loadgen --workers 1 --n 200 --seed 7 --check \
	    --out /dev/null
	$(PYTHON) -m repro loadgen --workers 2 --n 200 --seed 7 --check \
	    --out /dev/null
	$(PYTHON) -m pytest -q tests/test_serve_admission.py \
	    -k "parity or overlong or pool_restart"
	$(PYTHON) -m repro bench serve --smoke --output none

# Scale-out gate (DESIGN.md §8 "Scale-out"): the deterministic --check
# stream against a fresh 2-shard cluster (port-per-shard ingress,
# deterministic round-robin over 8 connections, comb tables attached
# from the shared store) — zero errors and byte-identical summaries
# across two runs, whatever the shard topology.
shard-smoke:
	$(PYTHON) -m repro loadgen --shards 2 --connections 8 --workers 1 \
	    --n 200 --seed 7 --check --out /dev/null

# Named-key gate (DESIGN.md §8 "Named keys", docs/tenancy.md): the
# deterministic --check stream with secret-bearing ops rewritten onto
# server-resident keys over two tenants, against a fresh 2-shard
# cluster (key setup lands through shard 0, resolution rides the shared
# journal everywhere) — then the targeted acceptance tests: the
# create/rotate/use round-trip with generation pinning, and the
# cluster scenario (cross-shard visibility, per-tenant counters in
# cluster stats, no secret on the wire, keys surviving a forced shard
# respawn).
keys-smoke:
	$(PYTHON) -m repro loadgen --shards 2 --tenants 2 --workers 1 \
	    --n 100 --seed 7 --check --out /dev/null
	$(PYTHON) -m pytest -q tests/test_serve_keys.py \
	    -k "cluster or generation_pinning or quota_shed"

# Observability gate for the serving stack (DESIGN.md §4/§8): a traced
# loadgen run must join every reply's trace id into a cross-process span
# tree, pass the Chrome-trace schema check, dump a slowlog, and the
# Prometheus stats endpoint must answer through the wire with the serve
# counter families present.
obs-serve-smoke:
	$(PYTHON) -m repro loadgen --workers 2 --n 50 --seed 7 --trace \
	    --slowlog /tmp/repro_slowlog.json --scrape --out /dev/null \
	    | grep -q "serve_requests_total"
	$(PYTHON) -c "import json; from repro.obs.export import \
	    validate_chrome; \
	    validate_chrome(json.load(open('/tmp/repro_slowlog.json'))); \
	    print('slowlog chrome trace valid')"

tables:
	$(PYTHON) -m repro all
