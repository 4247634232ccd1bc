"""Analysis harnesses: tables, benchmarks, profiles, leakage and faults.

* ``tables`` — paper-vs-measured table regeneration (``python -m repro
  table1`` …), shared by benches and examples.
* ``bench`` — the benchmark harness (``python -m repro bench
  [iss|serve]``): ISS throughput and served throughput, one record
  schema, one floor table.
* ``profile`` — engine-speed profiling + span tracing CLI
  (``python -m repro profile``), per DESIGN.md §4 "Observability".
* ``leakage`` — the timing-leakage regularity report.
* ``ctcheck`` — ISS-level constant-time taint verification
  (``python -m repro ctcheck``), per DESIGN.md §9 "Constant-time
  verification"; cross-checked against ``leakage`` by the test-suite.
* ``faults`` — seeded fault-injection campaigns over the kernels and
  protocols (``python -m repro faults``), per DESIGN.md §7 "Fault model
  & countermeasures".
"""

from .bench import (
    CHECK_THRESHOLD,
    ENGINE_MIN_SPEEDUP,
    FLOORS,
    append_record,
    check_floors,
    compare_records,
    compute_speedups,
    measure_speedup,
    run_bench,
    validate_entry,
    validate_run_record,
)
from .ctcheck import check_target
from .profile import (
    profile_kernel,
    profile_scalarmult,
    render_text,
)
from .leakage import (
    TraceSample,
    collect_traces,
    fixed_vs_random_t,
    is_regular,
    leakage_report,
    random_traces,
    relative_spread,
    scalar_weight_correlation,
    welch_t,
)
from .faults import (
    CampaignResult,
    FaultRecord,
    run_campaign,
    run_ecdh_campaign,
    run_ecdsa_campaign,
    run_ladder_campaign,
    run_scalarmult_campaign,
)
from .tables import (
    TableResult,
    generate_table1,
    generate_table2,
    generate_table3,
    generate_table4,
    generate_table5,
    measure_kernel_cycles,
)

__all__ = [
    "CHECK_THRESHOLD",
    "ENGINE_MIN_SPEEDUP",
    "FLOORS",
    "append_record",
    "check_floors",
    "compare_records",
    "compute_speedups",
    "measure_speedup",
    "run_bench",
    "validate_entry",
    "validate_run_record",
    "check_target",
    "profile_kernel",
    "profile_scalarmult",
    "render_text",
    "TraceSample",
    "collect_traces",
    "fixed_vs_random_t",
    "is_regular",
    "leakage_report",
    "random_traces",
    "relative_spread",
    "scalar_weight_correlation",
    "welch_t",
    "CampaignResult",
    "FaultRecord",
    "run_campaign",
    "run_ecdh_campaign",
    "run_ecdsa_campaign",
    "run_ladder_campaign",
    "run_scalarmult_campaign",
    "TableResult",
    "generate_table1",
    "generate_table2",
    "generate_table3",
    "generate_table4",
    "generate_table5",
    "measure_kernel_cycles",
]
