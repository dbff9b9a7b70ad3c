"""What the benchmark measures: workloads, metrics, and each layer metric's target.

``BENCHMARK.json`` at the repository root lists the same names (its schema has
no room for definitions); ``perfbench/tests/test_perfbench_helpers.py`` keeps the two in
step.  Every run prints these definitions next to its numbers.
"""

from __future__ import annotations

#: Workload name -> why it is in the benchmark (one line).
WORKLOADS = {
    "shor13_clean": (
        "13q Shor N=15 checks on the statevector: the cold check is dense gate "
        "dispatch, the warm check is plan-cache and snapshot serving"
    ),
    "shor13_noisy": (
        "13q Shor under per-gate depolarizing noise, B=8 trajectories: every "
        "check is a full batched walk, so kernel gains show and cache gains must not"
    ),
    "clifford128": (
        "three 127-qubit Clifford scenarios on the tableau: no dense kernel runs "
        "(control), while tableau, sampling, evaluation and static analysis do work"
    ),
    "h2_service": (
        "H2 observable jobs in wire format through the job service, 2 outstanding, "
        "25% repeats: queueing, worker fork, IPC, QASM and report JSON dominate"
    ),
}

#: End-to-end metrics, reported by every workload with tracing off:
#: (name, unit, better, bound, definition).  The host's speed drifts by tens
#: of percent within a minute, so latencies and throughput are given in
#: "ref": multiples of the time of a fixed reference kernel
#: (``measure.reference_kernel``, about 10 ms) timed after each half second of
#: the same run, on both cores for h2_service, whose jobs use both.  Every run
#: also prints them in seconds.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25,
     "median over 5 set-ups of the time from workload start to its first timed "
     "operation (program construction, service start, one untimed warm-up "
     "operation), in ref and then given in seconds at 10 ms per ref"),
    ("cold_p50_ref", "ref", "lower", 0.25,
     "latency of a cold operation, as the mean over the workload's programs of "
     "each program's median: a check right after the plan cache is "
     "cleared (shor13_*, clifford128), or a job the result cache has not seen "
     "(h2_service, submit call to terminal wait)"),
    ("warm_p50_ref", "ref", "lower", 0.25,
     "latency of a warm operation, as the mean over programs of each program's "
     "median: a check of an already compiled program "
     "on a fresh same-seed session (shor13_*, clifford128), or a repeated payload "
     "answered from the result cache (h2_service)"),
    ("ops_per_ref", "1/ref", "higher", 0.25,
     "median over whole cycles of the operations (checks, analyzes or jobs) "
     "completed per ref of the cycle's wall time"),
    ("peak_rss_mb", "MiB", "lower", 0.2,
     "peak resident memory of the process that runs the workload"),
]

#: Per-layer metrics, reported by every workload with tracing on:
#: (name, unit, better, definition, end-to-end metric it should move).
#: Times are seconds per operation (total in the traced phase / operations),
#: counts are per operation, and a layer a workload never calls reads 0.
PER_LAYER = [
    ("lang.build_s", "s", "lower",
     "program construction in one set-up (median over set-ups)",
     "setup_s on every workload"),
    ("lang.qasm_parse_s", "s", "lower", "from_qasm (service submit)",
     "cold_p50_s on h2_service"),
    ("compiler.fingerprint_s", "s", "lower",
     "program_fingerprint (plan cache and result cache keys)",
     "warm_p50_s on shor13_clean; no move on shor13_noisy"),
    ("compiler.plan_build_s", "s", "lower", "build_execution_plan",
     "cold_p50_s on shor13_clean and clifford128"),
    ("compiler.walk_s", "s", "lower", "BreakpointExecutor.run_plan, inclusive",
     "cold_p50_s on clifford128"),
    ("compiler.walk_self_s", "s", "lower",
     "run_plan minus every traced child span: time no layer entry point accounts for",
     "cold_p50_s on clifford128"),
    ("compiler.plan_cache.hits", "count", "higher", "PlanCache.stats() hits",
     "warm_p50_s on shor13_clean"),
    ("compiler.plan_cache.misses", "count", "lower", "PlanCache.stats() misses",
     "cold_p50_s on shor13_clean"),
    ("compiler.snapshot.hits", "count", "higher", "PlanCache.stats() snapshot_hits",
     "warm_p50_s on shor13_clean"),
    ("compiler.snapshot.misses", "count", "lower", "PlanCache.stats() snapshot_misses",
     "cold_p50_s on shor13_clean"),
    ("compiler.snapshot.hit_ratio", "ratio", "higher",
     "snapshot hits / (hits + misses) over the traced phase",
     "warm_p50_s on shor13_clean"),
    ("compiler.gates_applied", "count", "lower",
     "executor gates_applied summed over run_plan calls",
     "cold_p50_s on shor13_*"),
    ("compiler.statevector_gates_applied", "count", "lower",
     "executor statevector_gates_applied summed over run_plan calls",
     "cold_p50_s on shor13_*"),
    ("compiler.gates_saved", "count", "higher", "PlanCache.stats() gates_saved",
     "warm_p50_s on shor13_clean"),
    ("sim.statevector.gate_s", "s", "lower",
     "StatevectorBackend.apply_matrix + apply_controlled",
     "cold_p50_s on shor13_clean"),
    ("sim.statevector.gate_calls", "count", "lower", "calls of the two above",
     "cold_p50_s on shor13_clean"),
    ("sim.trajectory.gate_s", "s", "lower",
     "TrajectoryNoiseBackend.apply_matrix + apply_controlled, inclusive",
     "cold_p50_s and warm_p50_s on shor13_noisy"),
    ("sim.kernels.batched_s", "s", "lower",
     "apply_matrix_batched + apply_controlled_batched",
     "cold_p50_s and warm_p50_s on shor13_noisy"),
    ("sim.kernels.pauli_s", "s", "lower", "apply_pauli_batched",
     "cold_p50_s and warm_p50_s on shor13_noisy"),
    ("sim.trajectory.noise_draw_s", "s", "lower",
     "derived: trajectory gate self time (validation and noise draws), "
     "gate_s - batched_s - pauli_s",
     "cold_p50_s and warm_p50_s on shor13_noisy"),
    ("sim.stabilizer.gate_s", "s", "lower",
     "StabilizerBackend.apply_matrix + apply_controlled",
     "cold_p50_s on clifford128"),
    ("sim.stabilizer.gate_calls", "count", "lower", "calls of the two above",
     "cold_p50_s on clifford128"),
    ("sim.sample_s", "s", "lower", "backend sample() on the three backends",
     "warm_p50_s on shor13_clean and clifford128"),
    ("sim.sample_calls", "count", "lower", "calls of sample()",
     "warm_p50_s on shor13_clean and clifford128"),
    ("sim.snapshot_s", "s", "lower", "backend snapshot() + restore()",
     "warm_p50_s on shor13_clean and clifford128"),
    ("sim.dense_bytes_computed", "count", "lower",
     "computed, not measured: dense gate calls x 2 x 16 B x batch x 2^n",
     "cold_p50_s on shor13_clean, cold/warm_p50_s on shor13_noisy"),
    ("analysis.analyze_s", "s", "lower", "PlanCache.analysis_for",
     "ops_per_s on clifford128"),
    ("analysis.decided_ratio", "ratio", "higher",
     "(PROVEN + REFUTED) / assertions over analyze calls",
     "ops_per_s on clifford128"),
    ("core.evaluate_s", "s", "lower", "evaluate() of the five assertion classes",
     "cold_p50_s and warm_p50_s on clifford128"),
    ("core.evaluate_calls", "count", "lower", "calls of evaluate()",
     "cold_p50_s and warm_p50_s on clifford128"),
    ("core.report_json_s", "s", "lower", "DebugReport.to_json + from_json",
     "cold_p50_s and warm_p50_s on h2_service"),
    ("core.correct_pass_ratio", "ratio", "higher",
     "checks of correct programs that passed; sampled verdicts, so not a failure",
     "none: a verdict statistic, it must not move with a perf change"),
    ("core.buggy_detect_ratio", "ratio", "higher",
     "checks of buggy programs that caught the bug; a run fails when a program's "
     "misses are unlikely (p < 0.001) at a 1% miss rate",
     "none: a verdict statistic, it must not move with a perf change"),
    ("observables.group_s", "s", "lower", "group_terms, in-process replay of one job cycle",
     "cold_p50_s on h2_service"),
    ("observables.estimate_s", "s", "lower",
     "estimate_observable, in-process replay of one job cycle",
     "cold_p50_s on h2_service"),
    ("observables.settings", "count", "lower", "measurement settings from group_terms",
     "cold_p50_s on h2_service"),
    ("observables.shots", "count", "lower", "shots aggregated by estimate_observable",
     "cold_p50_s on h2_service"),
    ("service.submit_s", "s", "lower", "LocalService.submit_payload",
     "cold_p50_s and warm_p50_s on h2_service"),
    ("service.queue_wait_s", "s", "lower", "submit return to run_attempt start",
     "cold_p50_s on h2_service"),
    ("service.attempt_s", "s", "lower", "repro.service.jobs.run_attempt",
     "ops_per_s on h2_service"),
    ("service.worker_overhead_s", "s", "lower",
     "per attempt: run_attempt time minus the in-process check time of the same job",
     "ops_per_s on h2_service"),
    ("service.result_cache.hit_ratio", "ratio", "higher",
     "result-cache hits / lookups; the job mix makes it exactly 0.25",
     "warm_p50_s on h2_service"),
    ("service.attempts", "count", "lower", "worker attempts per job",
     "ops_per_s on h2_service"),
    ("service.retries", "count", "lower", "attempts beyond the first, per job",
     "ops_per_s on h2_service"),
    *[
        (f"{layer}.self_s", "s", "lower",
         f"self time of every {layer} span (span minus traced children)",
         "the end-to-end metrics of the workloads that call the layer")
        for layer in ("lang", "compiler", "sim", "analysis", "core",
                      "observables", "service")
    ],
    ("trace.cold_overhead_s", "s", "lower",
     "tracing overhead: traced minus untraced cold median of the same run "
     "(compared in ref, given in seconds)",
     "none: a property of the benchmark"),
    ("trace.warm_overhead_s", "s", "lower",
     "tracing overhead: traced minus untraced warm median of the same run "
     "(compared in ref, given in seconds)",
     "none: a property of the benchmark"),
]

#: Counts that depend only on the seed and the work done, never on timing.
EXACT_COUNTS = [
    "compiler.plan_cache.hits",
    "compiler.plan_cache.misses",
    "compiler.snapshot.hits",
    "compiler.snapshot.misses",
    "compiler.snapshot.hit_ratio",
    "compiler.gates_applied",
    "compiler.statevector_gates_applied",
    "compiler.gates_saved",
]
