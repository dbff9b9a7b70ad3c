"""Tests of the benchmark's own helpers (run with ``PYTHONPATH=src``)."""

from __future__ import annotations

import json
import random
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from perfbench import spec
from perfbench.measure import Tally, binomial_tail, percentile
from perfbench.workloads import JobMix, Phase, closed_loop

ROOT = Path(__file__).resolve().parents[2]


# -- percentile rule -----------------------------------------------------------


def test_p90_needs_ten_samples_beyond_it():
    assert percentile(list(range(99)), 90.0) is None
    assert percentile(list(range(100)), 90.0) == 89


def test_p99_needs_a_thousand_samples():
    assert percentile(list(range(999)), 99.0) is None
    assert percentile(list(range(1000)), 99.0) == 989


def test_median_is_always_reported():
    assert percentile([3.0], 50.0) == 3.0
    assert percentile([4.0, 1.0, 2.0], 50.0) == 2.0
    assert percentile([], 50.0) is None


def test_percentile_rejects_out_of_range_q():
    with pytest.raises(ValueError):
        percentile([1.0], 100.0)


# -- failed_frac counting --------------------------------------------------------


def test_tally_counts_operations_not_problems():
    tally = Tally()
    assert tally.record([]) is True
    assert tally.record(["raised", "differs"]) is False
    assert tally.record([""]) is True
    assert (tally.attempted, tally.failed) == (3, 1)
    assert tally.failed_frac == pytest.approx(1 / 3)
    assert tally.reasons == ["raised", "differs"]


def test_empty_tally_has_no_failures():
    assert Tally().failed_frac == 0.0


def test_missed_detections_fail_only_when_implausible():
    phase = Phase()
    for n in range(100):
        phase.tally.record([])
        phase.verdict("rare", True, SimpleNamespace(passed=n == 0))
        phase.verdict("broken", True, SimpleNamespace(passed=n < 6))
    phase.finish()
    assert phase.tally.failed == 6
    assert phase.tally.reasons == ["broken: buggy variant caught in only 94/100 checks"]
    assert binomial_tail(4, 0, 0.5) == pytest.approx(1.0)
    assert binomial_tail(4, 4, 0.5) == pytest.approx(1 / 16)


# -- h2_service job mix and closed loop ------------------------------------------


JOBS = [(f"job{n}", n % 2 == 1, f"OPENQASM 2.0; // {n}") for n in range(6)]


def test_job_mix_repeats_every_fourth_submission_byte_for_byte():
    mix = JobMix(JOBS, seed=5)
    assert mix.cycle == 8
    payloads = [mix.payload(i) for i in range(3 * mix.cycle)]
    repeats = [i for i in range(len(payloads)) if mix.is_repeat(i)]
    assert len(repeats) == len(payloads) // 4
    for i in repeats:
        assert payloads[i] == payloads[mix.target(i)]
        assert not mix.is_repeat(mix.target(i))
    fresh = [payloads[i] for i in range(len(payloads)) if not mix.is_repeat(i)]
    assert len(set(fresh)) == len(fresh)
    # Each cycle sends every job once, with an explicit seed.
    for start in range(0, len(payloads), mix.cycle):
        programs = [json.loads(payloads[i])["program"]
                    for i in range(start, start + mix.cycle) if not mix.is_repeat(i)]
        assert sorted(programs) == sorted(qasm for _, _, qasm in JOBS)
    assert all("seed" in json.loads(p)["config"] for p in payloads)
    # Over three cycles the repeats re-send every job once.
    repeated = [json.loads(payloads[i])["program"] for i in repeats]
    assert sorted(repeated) == sorted(qasm for _, _, qasm in JOBS)
    assert JobMix(JOBS, seed=5).payload(9) == payloads[9]
    assert JobMix(JOBS, seed=6).payload(9) != payloads[9]


class FakeService:
    """Counts outstanding jobs and logs submit/done events in order."""

    def __init__(self, limit: int):
        self.limit = limit
        self.lock = threading.Lock()
        self.outstanding = 0
        self.max_outstanding = 0
        self.events = []
        self.payloads = []

    def submit(self, payload):
        with self.lock:
            self.outstanding += 1
            self.max_outstanding = max(self.max_outstanding, self.outstanding)
            job_id = len(self.payloads)
            self.payloads.append(payload)
            self.events.append(("submit", job_id))
        return job_id

    def wait(self, job_id):
        time.sleep(random.uniform(0.0, 0.003))
        with self.lock:
            self.outstanding -= 1
            self.events.append(("done", job_id))
        return SimpleNamespace(id=job_id)

    def stop(self):
        with self.lock:
            return len(self.payloads) >= self.limit


def test_closed_loop_keeps_two_outstanding_and_sends_25_percent_repeats():
    random.seed(3)
    mix = JobMix(JOBS, seed=1)
    service = FakeService(limit=50)
    records = closed_loop(service.submit, service.wait, mix, service.stop, clients=2)
    assert service.max_outstanding <= 2
    assert len(records) % mix.cycle == 0 and len(records) >= 50
    assert [r.index for r in records] == list(range(len(records)))
    assert sum(r.repeat for r in records) * 4 == len(records)
    order = {event: n for n, event in enumerate(service.events)}
    for record in records:
        assert not record.error
        assert service.payloads[record.job.id] == mix.payload(record.index)
        if record.repeat:
            target = records[mix.target(record.index)]
            # The original has finished before its repeat is sent.
            assert order[("done", target.job.id)] < order[("submit", record.job.id)]


def test_closed_loop_records_a_failed_submission():
    mix = JobMix(JOBS, seed=1)

    def submit(payload):
        raise RuntimeError("refused")

    records = closed_loop(submit, None, mix, lambda: True, clients=2)
    assert len(records) == mix.cycle
    assert all(r.error == "RuntimeError: refused" for r in records)


# -- BENCHMARK.json and spec agree ------------------------------------------------


def test_benchmark_json_lists_the_spec():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"]: w["why"] for w in doc["workloads"]} == spec.WORKLOADS
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] == [
        (name, unit, better, bound) for name, unit, better, bound, _ in spec.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        (name, unit, better) for name, unit, better, *_ in spec.PER_LAYER
    ]
    assert set(spec.EXACT_COUNTS) <= {m["name"] for m in doc["per_layer"]}
