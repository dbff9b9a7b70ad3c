"""Turn recorded spans and counters into the per-layer metrics of ``spec.PER_LAYER``."""

from __future__ import annotations

import bisect
from collections import defaultdict

from .measure import median
from .spec import PER_LAYER

NS = 1e-9

#: Metric -> (span name, "inclusive" or "self"), in seconds.
SPAN_TIMES = {
    "lang.qasm_parse_s": ("lang.qasm_parse", "inclusive"),
    "compiler.fingerprint_s": ("compiler.fingerprint", "inclusive"),
    "compiler.plan_build_s": ("compiler.plan_build", "inclusive"),
    "compiler.walk_s": ("compiler.walk", "inclusive"),
    "compiler.walk_self_s": ("compiler.walk", "self"),
    "sim.statevector.gate_s": ("sim.statevector.gate", "inclusive"),
    "sim.trajectory.gate_s": ("sim.trajectory.gate", "inclusive"),
    "sim.kernels.batched_s": ("sim.kernels.batched", "inclusive"),
    "sim.kernels.pauli_s": ("sim.kernels.pauli", "inclusive"),
    "sim.trajectory.noise_draw_s": ("sim.trajectory.gate", "self"),
    "sim.stabilizer.gate_s": ("sim.stabilizer.gate", "inclusive"),
    "sim.sample_s": ("sim.sample", "inclusive"),
    "sim.snapshot_s": ("sim.snapshot", "inclusive"),
    "analysis.analyze_s": ("analysis.analyze", "inclusive"),
    "core.evaluate_s": ("core.evaluate", "inclusive"),
    "core.report_json_s": ("core.report_json", "inclusive"),
    "observables.group_s": ("observables.group", "inclusive"),
    "observables.estimate_s": ("observables.estimate", "inclusive"),
    "service.submit_s": ("service.submit", "inclusive"),
    "service.attempt_s": ("service.attempt", "inclusive"),
}

#: Metric -> span name whose calls it counts.
SPAN_CALLS = {
    "sim.statevector.gate_calls": "sim.statevector.gate",
    "sim.stabilizer.gate_calls": "sim.stabilizer.gate",
    "sim.sample_calls": "sim.sample",
    "core.evaluate_calls": "core.evaluate",
}

#: Metric -> span names whose recorded attributes it sums.
SPAN_ATTR_SUMS = {
    "sim.dense_bytes_computed": ("sim.statevector.gate", "sim.trajectory.gate"),
    "observables.settings": ("observables.group",),
    "observables.shots": ("observables.estimate",),
}

#: Plan-cache counters, per operation (the workloads record their deltas).
CACHE_METRICS = (
    "compiler.plan_cache.hits",
    "compiler.plan_cache.misses",
    "compiler.snapshot.hits",
    "compiler.snapshot.misses",
    "compiler.gates_saved",
)

LAYERS = ("lang", "compiler", "sim", "analysis", "core", "observables", "service")


def aggregate(spans) -> dict:
    """Per span name: inclusive ns, self ns, calls and attributes."""
    children = defaultdict(int)
    for span_id, name, start, end, parent, attr in spans:
        if parent >= 0:
            children[parent] += end - start
    totals = defaultdict(lambda: {"inclusive": 0, "self": 0, "calls": 0, "attrs": []})
    for span_id, name, start, end, parent, attr in spans:
        entry = totals[name]
        entry["inclusive"] += end - start
        entry["self"] += end - start - children.get(span_id, 0)
        entry["calls"] += 1
        if attr is not None:
            entry["attrs"].append(attr)
    return totals


def span_metrics(spans, ops: int) -> dict:
    """Span-derived metrics per operation (``ops`` operations produced ``spans``)."""
    totals = aggregate(spans)
    empty = {"inclusive": 0, "self": 0, "calls": 0, "attrs": []}
    values = {}
    for metric, (name, kind) in SPAN_TIMES.items():
        values[metric] = totals.get(name, empty)[kind] * NS / ops
    for metric, name in SPAN_CALLS.items():
        values[metric] = totals.get(name, empty)["calls"] / ops
    for metric, names in SPAN_ATTR_SUMS.items():
        values[metric] = sum(sum(totals.get(n, empty)["attrs"]) for n in names) / ops
    walks = totals.get("compiler.walk", empty)["attrs"]
    values["compiler.gates_applied"] = sum(w[0] for w in walks) / ops
    values["compiler.statevector_gates_applied"] = sum(w[1] for w in walks) / ops
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(
            entry["self"] for name, entry in totals.items()
            if name.startswith(layer + ".")
        ) * NS / ops
    return values


def decided(spans) -> "tuple[int, int]":
    """(PROVEN + REFUTED, assertions) over the analyze spans."""
    attrs = aggregate(spans).get("analysis.analyze", {"attrs": []})["attrs"]
    return sum(a[0] for a in attrs), sum(a[1] for a in attrs)


def _service_key(span, windows):
    """(burst, job index) of a service span; job indices restart each burst."""
    start = span[2]
    burst = bisect.bisect_right([w[0] for w in windows], start) - 1
    return burst, span[5]


def queue_waits(spans, windows) -> list:
    """Seconds from each submit's return to its job's first attempt start."""
    submitted = {}
    started = {}
    for span in spans:
        if span[1] == "service.submit":
            submitted[_service_key(span, windows)] = span[3]
        elif span[1] == "service.attempt":
            key = _service_key(span, windows)
            started[key] = min(span[2], started.get(key, span[2]))
    return [(started[k] - submitted[k]) * NS for k in started if k in submitted]


def attempt_seconds(spans, windows) -> dict:
    """(burst, job index) -> total seconds of its worker attempts."""
    seconds = defaultdict(float)
    for span in spans:
        if span[1] == "service.attempt":
            seconds[_service_key(span, windows)] += (span[3] - span[2]) * NS
    return seconds


def class_shares(spans, intervals) -> dict:
    """Operation class -> {span name: share of that class's wall time}.

    A span belongs to the operation whose interval holds its start; shares are
    inclusive, so nested spans overlap their parents.
    """
    starts = [interval[1] for interval in intervals]
    wall = defaultdict(int)
    for kind, start, end in intervals:
        wall[kind] += end - start
    inside = defaultdict(lambda: defaultdict(int))
    for span_id, name, start, end, parent, attr in spans:
        at = bisect.bisect_right(starts, start) - 1
        if at >= 0 and start <= intervals[at][2]:
            inside[intervals[at][0]][name] += end - start
    return {
        kind: {name: ns / wall[kind] for name, ns in names.items()}
        for kind, names in inside.items()
    }


def per_layer(untraced, traced, build_s, tracer) -> dict:
    """Every ``spec.PER_LAYER`` metric from one untraced and one traced phase."""
    replay = traced.extra.get("replay")
    phase_spans = tracer.spans[: replay["mark"]] if replay else tracer.spans
    values = span_metrics(phase_spans, traced.ops)
    for name, count in traced.counts.items():
        values[name] = count / traced.ops
    hits = traced.counts.get("compiler.snapshot.hits", 0)
    lookups = hits + traced.counts.get("compiler.snapshot.misses", 0)
    proven, verdicts = decided(phase_spans)
    if replay:
        replay_spans = tracer.spans[replay["mark"]:]
        for metric, value in span_metrics(replay_spans, replay["ops"]).items():
            values[metric] += value
        for name, count in replay["counts"].items():
            values[name] = values.get(name, 0.0) + count / replay["ops"]
        hits += replay["counts"]["compiler.snapshot.hits"]
        lookups += (replay["counts"]["compiler.snapshot.hits"]
                    + replay["counts"]["compiler.snapshot.misses"])
        attempts = attempt_seconds(phase_spans, traced.extra["bursts"])
        overheads = [attempts[i] - s for i, s in replay["check_s"].items() if i in attempts]
        values["service.worker_overhead_s"] = (
            sum(overheads) / len(overheads) if overheads else 0.0
        )
    else:
        values["service.worker_overhead_s"] = 0.0
    for name in CACHE_METRICS:
        values.setdefault(name, 0.0)
    values["compiler.snapshot.hit_ratio"] = hits / lookups if lookups else 0.0
    values["analysis.decided_ratio"] = proven / verdicts if verdicts else 0.0
    waits = queue_waits(phase_spans, traced.extra.get("bursts", []))
    values["service.queue_wait_s"] = sum(waits) / traced.ops
    values["service.result_cache.hit_ratio"] = traced.extra.get("hit_ratio", 0.0)
    values["service.attempts"] = traced.extra.get("attempts", 0) / traced.ops
    values["service.retries"] = traced.extra.get("retries", 0) / traced.ops
    verdicts_seen = untraced.correct_passed + traced.correct_passed
    values["core.correct_pass_ratio"] = (
        sum(verdicts_seen) / len(verdicts_seen) if verdicts_seen else 0.0
    )
    caught = [hit for phase in (untraced, traced)
              for hits in phase.detected.values() for hit in hits]
    values["core.buggy_detect_ratio"] = sum(caught) / len(caught) if caught else 0.0
    values["lang.build_s"] = median(build_s)
    # Compared in reference units, then scaled back, so host drift between the
    # two halves of the run does not read as overhead.
    ref = median(untraced.refs + traced.refs)
    for kind in ("cold", "warm"):
        values[f"trace.{kind}_overhead_s"] = ref * (
            traced.typical(kind) - untraced.typical(kind)
        )
    missing = {name for name, *_ in PER_LAYER} - set(values)
    if missing:
        raise KeyError(f"per-layer metrics not computed: {sorted(missing)}")
    return {name: values[name] for name, *_ in PER_LAYER}
