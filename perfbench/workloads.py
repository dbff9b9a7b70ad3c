"""The four workloads.  Each runs whole cycles of operations in a closed loop.

A workload object is built by :func:`make` and used in three steps:
``setup()`` (timed by the caller as ``setup_s``), ``phase(seconds, tracer)``
any number of times, and ``close()``.  Inputs come only from the seed.  Every
operation is checked; a failed check is counted in the phase's
:class:`~perfbench.measure.Tally` with its reason.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.compiler.plan_cache import default_plan_cache
from repro.core.checker import check_program
from repro.core.config import RunConfig
from repro.core.session import Session
from repro.lang import qasm as qasm_module
from repro.service.jobs import JobState, LocalService
from repro.sim.noise import depolarizing
from repro.workloads import CLIFFORD_SCENARIOS, OBSERVABLE_SCENARIOS
from repro.workloads.noise import build_shor_noise_workload, noise_model_for_rate

from .measure import ReferenceTwin, Tally, binomial_tail, median, reference_seconds

#: The largest share of missed checks a buggy program may plausibly have.
MAX_MISS_RATE = 0.01

#: Plan-cache counters accumulated per operation, as (stats key, metric name).
CACHE_COUNTERS = [
    ("hits", "compiler.plan_cache.hits"),
    ("misses", "compiler.plan_cache.misses"),
    ("snapshot_hits", "compiler.snapshot.hits"),
    ("snapshot_misses", "compiler.snapshot.misses"),
    ("gates_saved", "compiler.gates_saved"),
]


@dataclass
class Phase:
    """Everything one measuring phase observed."""

    #: Seconds of the reference kernel now (see ``measure.reference_kernel``).
    reference: object = reference_seconds
    #: Latencies in seconds by operation class ("cold", "warm", "analyze").
    samples: dict = field(default_factory=lambda: {"cold": [], "warm": []})
    #: The program each sample ran, parallel to :attr:`samples`.
    labels: dict = field(default_factory=lambda: {"cold": [], "warm": []})
    #: (class, start_ns, end_ns) of every timed operation, in order.
    intervals: list = field(default_factory=list)
    tally: Tally = field(default_factory=Tally)
    #: Verdicts of checks on correct programs (statistical, never failures).
    correct_passed: list = field(default_factory=list)
    #: Buggy program name -> per check, whether the check caught the bug.
    detected: dict = field(default_factory=dict)
    #: Plan-cache counter deltas summed over the timed operations.
    counts: dict = field(default_factory=dict)
    elapsed: float = 0.0
    #: (program, latency / reference-kernel time of its segment), by class.
    normalized: dict = field(default_factory=dict)
    #: Operations per reference-kernel time, one entry per whole cycle.
    rates: list = field(default_factory=list)
    #: Reference-kernel seconds measured after each segment of the phase.
    refs: list = field(default_factory=list)
    #: Extra per-workload facts for the per-layer metrics.
    extra: dict = field(default_factory=dict)

    @property
    def ops(self) -> int:
        return sum(len(v) for v in self.samples.values())

    def add(self, kind: str, program: str, seconds: float) -> None:
        self.samples.setdefault(kind, []).append(seconds)
        self.labels.setdefault(kind, []).append(program)

    def typical(self, kind: str) -> float:
        """Mean over programs of each program's median normalized latency.

        Programs differ in cost several-fold, so a median pooled over them
        can sit between two modes and jump from run to run; the mean of
        per-program medians weighs each program equally and stays put.
        """
        by_program = {}
        for program, value in self.normalized[kind]:
            by_program.setdefault(program, []).append(value)
        return sum(median(v) for v in by_program.values()) / len(by_program)

    def marks(self) -> dict:
        """Where the current segment's samples start, by class."""
        return {kind: len(values) for kind, values in self.samples.items()}

    def end_segment(self, marks: dict) -> float:
        """Time the reference kernel and normalize the segment just measured.

        The host's speed drifts by tens of percent within a minute; dividing
        each latency by the reference time measured right after it halves
        the run-to-run spread.  Returns the reference time.
        """
        ref = self.reference()
        self.refs.append(ref)
        for kind, values in self.samples.items():
            start = marks.get(kind, 0)
            self.normalized.setdefault(kind, []).extend(
                (program, value / ref)
                for program, value in zip(self.labels[kind][start:], values[start:]))
        return ref

    def verdict(self, name: str, buggy: bool, report) -> None:
        if buggy:
            self.detected.setdefault(name, []).append(not report.passed)
        else:
            self.correct_passed.append(bool(report.passed))

    def finish(self) -> None:
        """Fail the missed checks of a buggy program that is caught too rarely.

        Observable assertions estimate from a finite sample, so a buggy
        program can pass now and then (the Trotter one, about 1 check in
        600).  A run fails when its misses would be unlikely (p < 0.001)
        even if one check in :data:`MAX_MISS_RATE` missed, so one stray miss
        passes while a broken detector fails within a few checks.
        """
        for name, caught in sorted(self.detected.items()):
            misses = caught.count(False)
            if misses and binomial_tail(len(caught), misses, MAX_MISS_RATE) < 0.001:
                self.tally.fail_recorded(
                    misses, f"{name}: buggy variant caught in only "
                            f"{len(caught) - misses}/{len(caught)} checks")


class _Sequential:
    """Shared loop for the workloads that run one operation at a time."""

    #: A segment closes, and the reference kernel runs, after the first
    #: operation that ends this long after the segment started.
    SEGMENT_SECONDS = 0.5

    def __init__(self, seed: int):
        self.seed = seed
        self._seeds = np.random.default_rng(seed)

    def next_seed(self) -> int:
        return int(self._seeds.integers(2**31))

    def reference(self) -> float:
        return reference_seconds()

    def phase(self, seconds: float, tracer=None) -> Phase:
        phase = Phase(reference=self.reference)
        self._tracer = tracer
        self._ref_seconds = 0.0
        start = time.perf_counter()
        deadline = start + seconds
        self._open_segment(phase)
        while True:
            ops, refs = phase.ops, len(phase.refs)
            cycle_start, ref_before = time.perf_counter(), self._ref_seconds
            self.cycle(phase)
            self._close_segment(phase)
            now = time.perf_counter()
            busy = now - cycle_start - (self._ref_seconds - ref_before)
            phase.rates.append((phase.ops - ops) * median(phase.refs[refs:]) / busy)
            if now >= deadline:
                break
        phase.elapsed = time.perf_counter() - start
        phase.finish()
        return phase

    def _open_segment(self, phase: Phase) -> None:
        self._marks = phase.marks()
        self._segment_start = time.perf_counter()

    def _close_segment(self, phase: Phase) -> None:
        start = time.perf_counter()
        phase.end_segment(self._marks)
        self._ref_seconds += time.perf_counter() - start
        self._open_segment(phase)

    def timed(self, phase: Phase, kind: str, program: str, operation):
        """Run and time one operation; ``None`` (and a failure) if it raised."""
        cache = default_plan_cache()
        before = cache.stats()
        tracer = self._tracer
        start = time.perf_counter_ns()
        try:
            if tracer is not None:
                tracer.active = True
            result = operation()
        except Exception as exc:  # an operation that raises is a failed operation
            phase.tally.record([f"{kind} operation raised {type(exc).__name__}: {exc}"])
            return None
        finally:
            if tracer is not None:
                tracer.active = False
        end = time.perf_counter_ns()
        phase.add(kind, program, (end - start) / 1e9)
        phase.intervals.append((kind, start, end))
        after = cache.stats()
        for key, name in CACHE_COUNTERS:
            phase.counts[name] = phase.counts.get(name, 0) + after[key] - before[key]
        if time.perf_counter() - self._segment_start >= self.SEGMENT_SECONDS:
            self._close_segment(phase)
        return result

    def setup(self) -> float:
        """Build the programs (returns that time), then one untimed warm-up check."""
        start = time.perf_counter()
        self.programs = self.build()
        build_s = time.perf_counter() - start
        default_plan_cache().clear()
        Session(self.CONFIG.replace(seed=self.seed)).check(self.programs[0][2])
        return build_s

    def cold_and_warm(self, phase: Phase, name: str, buggy: bool, program,
                      warm_checks: int = 1) -> None:
        """One check after the plan cache is cleared, then warm checks.

        The warm checks run on a fresh session with the cold check's seed,
        so the first one is served from the cached plan (and snapshots, when
        the walk allows them) and must return the cold report byte for byte.
        """
        seed = self.next_seed()
        default_plan_cache().clear()
        session = Session(self.CONFIG.replace(seed=seed))
        cold = self.timed(phase, "cold", name, lambda: session.check(program))
        if cold is None:
            return
        phase.verdict(name, buggy, cold)
        phase.tally.record([])
        session = Session(self.CONFIG.replace(seed=seed))
        for k in range(warm_checks):
            warm = self.timed(phase, "warm", name, lambda: session.check(program))
            if warm is None:
                continue
            phase.verdict(name, buggy, warm)
            same = k > 0 or warm.to_json() == cold.to_json()
            phase.tally.record([] if same else [f"{name}: same-seed warm report differs from cold"])

    def close(self) -> None:
        pass


def _shor_programs():
    return [
        (program.name, buggy, program)
        for buggy in (False, True)
        for program in [build_shor_noise_workload(buggy=buggy)]
    ]


class Shor13Clean(_Sequential):
    """Correct and buggy 13q Shor programs alternate; 1 cold + 9 warm checks each."""

    CONFIG = RunConfig(backend="statevector", ensemble_size=16)

    def build(self):
        return _shor_programs()

    def cycle(self, phase: Phase) -> None:
        for name, buggy, program in self.programs:
            self.cold_and_warm(phase, name, buggy, program, warm_checks=9)


class Shor13Noisy(_Sequential):
    """The same programs on B=8 depolarizing(1e-4) trajectories; cold + warm each."""

    CONFIG = RunConfig(
        backend="trajectory",
        ensemble_size=8,
        noise=noise_model_for_rate(depolarizing, 1e-4),
    )

    def build(self):
        return _shor_programs()

    def cycle(self, phase: Phase) -> None:
        for name, buggy, program in self.programs:
            self.cold_and_warm(phase, name, buggy, program)


class Clifford128(_Sequential):
    """Three 127q Clifford scenarios x correct/buggy: cold check, warm check, analyze."""

    CONFIG = RunConfig(backend="stabilizer", ensemble_size=32)
    WIDTH = 127

    def build(self):
        return [
            (name, buggy, scenario.build(self.WIDTH, buggy))
            for name, scenario in sorted(CLIFFORD_SCENARIOS.items())
            for buggy in (False, True)
        ]

    def cycle(self, phase: Phase) -> None:
        for name, buggy, program in self.programs:
            self.cold_and_warm(phase, name, buggy, program)
            default_plan_cache().clear()
            session = Session(self.CONFIG)
            analysis = self.timed(phase, "analyze", name, lambda: session.analyze(program))
            if analysis is None:
                continue
            if buggy:
                ok = analysis.num_refuted > 0
                problem = f"{name}: analyze refuted nothing on the buggy program"
            else:
                ok = analysis.num_proven == len(analysis.verdicts)
                problem = f"{name}: analyze did not prove every assertion"
            phase.tally.record([] if ok else [problem])


# -- h2_service ---------------------------------------------------------------


class JobMix:
    """Submission ``i`` of the job mix; every fourth re-sends submission ``i - 3``.

    Fresh submission ``k`` (counting fresh ones only) runs one of the jobs
    with a seed derived from ``(seed, k)``.  A cycle of :attr:`cycle`
    submissions sends every job exactly once plus two repeats, and the jobs
    rotate by one place per cycle so that, over three cycles, each job is
    repeated once.
    """

    REPEAT_EVERY = 4

    def __init__(self, jobs, seed: int, ensemble_size: int = 8):
        self.jobs = list(jobs)
        self.seed = seed
        self.ensemble_size = ensemble_size
        self.cycle = len(self.jobs) * self.REPEAT_EVERY // (self.REPEAT_EVERY - 1)

    def is_repeat(self, i: int) -> bool:
        return i % self.REPEAT_EVERY == self.REPEAT_EVERY - 1

    def target(self, i: int) -> int:
        """The submission a repeat re-sends (always a fresh one)."""
        return i - (self.REPEAT_EVERY - 1)

    def fresh(self, i: int) -> int:
        """The fresh submission whose payload submission ``i`` sends."""
        return self.target(i) if self.is_repeat(i) else i

    def job_for(self, i: int):
        """``(job, fresh index)`` of fresh submission ``i``."""
        k = i - i // self.REPEAT_EVERY
        rotation = k // len(self.jobs)
        return self.jobs[(k + rotation) % len(self.jobs)], k

    def payload(self, i: int) -> str:
        (name, buggy, qasm), k = self.job_for(self.fresh(i))
        seed = int(np.random.SeedSequence([self.seed, k]).generate_state(1)[0])
        config = {"backend": "auto", "ensemble_size": self.ensemble_size, "seed": seed}
        return json.dumps({"program": qasm, "config": config})


@dataclass
class Submission:
    index: int
    repeat: bool
    start: float = 0.0
    end: float = 0.0
    job: object = None
    error: str = ""


def closed_loop(submit, wait, mix: JobMix, stop, start_index: int = 0,
                clients: int = 2, join_timeout: float = 150.0) -> list:
    """Run ``clients`` clients, each with one job outstanding, until ``stop()``.

    Clients claim submission indices in order and stop claiming only at a
    cycle boundary once ``stop()`` is true, so a run holds at least one and
    always whole cycles.  A repeat first waits for the submission it re-sends
    to finish, so it is answered from the result cache.  Latency runs from
    the start of ``submit(payload)`` until ``wait(job_id)`` returns.
    """
    lock = threading.Lock()
    finished: "dict[int, threading.Event]" = {}
    records: "list[Submission]" = []
    state = {"next": start_index}

    def claim():
        with lock:
            i = state["next"]
            if i > start_index and (i - start_index) % mix.cycle == 0 and stop():
                return None
            state["next"] = i + 1
            finished[i] = threading.Event()
            return i

    def client():
        while (i := claim()) is not None:
            record = Submission(index=i, repeat=mix.is_repeat(i))
            try:
                if record.repeat:
                    finished[mix.target(i)].wait(join_timeout)
                payload = mix.payload(i)
                record.start = time.perf_counter()
                record.job = wait(submit(payload))
                record.end = time.perf_counter()
            except Exception as exc:  # a submission that raises is a failed job
                record.error = f"{type(exc).__name__}: {exc}"
            finally:
                with lock:
                    records.append(record)
                finished[i].set()

    threads = [threading.Thread(target=client, name=f"perfbench-client-{n}")
               for n in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(join_timeout)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("closed-loop clients did not finish")
    return sorted(records, key=lambda record: record.index)


class H2Service:
    """H2 observable jobs through ``LocalService`` in wire format, 2 outstanding."""

    WORKERS = 2
    WAIT_TIMEOUT = 60.0
    #: The closed loop pauses this often for the reference kernel.
    BURST_SECONDS = 2.0

    def __init__(self, seed: int):
        self.seed = seed
        self.service = None
        self._next_index = 0
        # The jobs keep both cores busy, so the reference runs on both too.
        self._twin = ReferenceTwin()

    def reference(self) -> float:
        return self._twin.seconds()

    def setup(self) -> float:
        start = time.perf_counter()
        jobs = []
        for name, scenario in sorted(OBSERVABLE_SCENARIOS.items()):
            for buggy in (False, True):
                jobs.append((name, buggy, qasm_module.to_qasm(scenario.build(buggy))))
        build_s = time.perf_counter() - start
        self.mix = JobMix(jobs, self.seed)
        self._close_service()
        self.service = self._start_service()
        warmup = json.dumps({"program": jobs[0][2],
                             "config": {"backend": "auto", "ensemble_size": 8}})
        self.service.wait(self.service.submit_payload(warmup), self.WAIT_TIMEOUT)
        return build_s

    def _start_service(self) -> LocalService:
        return LocalService(max_workers=self.WORKERS, root_seed=self.seed)

    def _close_service(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None

    def close(self) -> None:
        self._close_service()
        self._twin.close()

    def phase(self, seconds: float, tracer=None) -> Phase:
        """Closed-loop bursts of whole cycles, each followed by the reference kernel."""
        phase = Phase(reference=self.reference)
        start = time.perf_counter()
        deadline = start + seconds
        # Only counts outlive a burst: kept records (jobs with their reports)
        # would make peak memory grow with the jobs a run completes.
        first_cycle = None
        totals = {"jobs": 0, "cached": 0, "attempts": 0, "retries": 0}
        self._bursts = []
        while True:
            burst_end = min(time.perf_counter() + self.BURST_SECONDS, deadline)
            burst = self._burst(lambda: time.perf_counter() >= burst_end, tracer)
            marks = phase.marks()
            by_index = {record.index: record for record in burst}
            for record in burst:
                phase.tally.record(self._problems(record, by_index, phase))
                if not record.error:
                    (name, buggy, _), _ = self.mix.job_for(self.mix.fresh(record.index))
                    phase.add("warm" if record.repeat else "cold",
                              f"{name}/{'buggy' if buggy else 'correct'}",
                              record.end - record.start)
            ref = phase.end_segment(marks)
            for at in range(0, len(burst), self.mix.cycle):
                cycle = [r for r in burst[at: at + self.mix.cycle] if not r.error]
                if cycle:
                    span = max(r.end for r in cycle) - min(r.start for r in cycle)
                    phase.rates.append(len(cycle) * ref / span)
            if first_cycle is None:
                first_cycle = burst[: self.mix.cycle]
            for job in (record.job for record in burst if record.job is not None):
                totals["jobs"] += 1
                totals["cached"] += job.state == JobState.CACHED
                totals["attempts"] += job.attempts
                totals["retries"] += max(job.attempts - 1, 0)
            del burst, by_index
            if time.perf_counter() >= deadline:
                break
        phase.elapsed = time.perf_counter() - start
        phase.extra.update(
            bursts=self._bursts,
            hit_ratio=totals["cached"] / totals["jobs"] if totals["jobs"] else 0.0,
            attempts=totals["attempts"],
            retries=totals["retries"],
        )
        phase.finish()
        if tracer is not None:
            phase.extra["replay"] = self._replay(first_cycle, tracer)
        return phase

    def _burst(self, stop, tracer) -> list:
        """One closed-loop burst on a service that then closes.

        ``LocalService`` keeps every job it has seen, so one service for the
        whole run would make peak memory track throughput; each burst after
        the first starts a fresh one (repeats stay within their burst).
        """
        service = self.service or self._start_service()
        self.service = None
        start = time.perf_counter_ns()
        if tracer is not None:
            tracer.active = True
        try:
            records = closed_loop(
                service.submit_payload,
                lambda job_id: service.wait(job_id, self.WAIT_TIMEOUT),
                self.mix,
                stop,
                start_index=self._next_index,
                clients=self.WORKERS,
            )
        finally:
            if tracer is not None:
                tracer.active = False
            service.close()
        # Job indices restart with each service; spans are told apart by burst.
        self._bursts.append((start, time.perf_counter_ns()))
        if records:
            self._next_index = records[-1].index + 1
        return records

    def _problems(self, record: Submission, by_index: dict, phase: Phase) -> list:
        if record.error:
            return [f"job {record.index} raised {record.error}"]
        job = record.job
        if job.state not in (JobState.DONE, JobState.CACHED):
            return [f"job {record.index} ended {job.state}: {job.failure_chain}"]
        if record.repeat:
            target = by_index.get(self.mix.target(record.index))
            if job.state != JobState.CACHED:
                return [f"repeat {record.index} was not served from the result cache"]
            if target is None or target.job is None or target.job.report is None:
                return [f"repeat {record.index} has no original report"]
            if job.report.to_json() != target.job.report.to_json():
                return [f"CACHED report {record.index} differs from the report it repeats"]
            return []
        (name, buggy, _), _ = self.mix.job_for(record.index)
        phase.verdict(name, buggy, job.report)
        return []

    def _replay(self, first_cycle, tracer) -> dict:
        """Re-run the first cycle's fresh jobs in process, traced.

        Worker internals are invisible from the parent, so this measures the
        per-job compute (compiler, sim, core, observables) of the same mix.
        """
        cache = default_plan_cache()
        cache.clear()
        before = cache.stats()
        mark = len(tracer.spans)
        check_s = {}
        cycle = [r for r in first_cycle if not r.repeat and r.job is not None]
        for record in cycle:
            payload = json.loads(self.mix.payload(record.index))
            program = qasm_module.from_qasm(payload["program"], name=record.job.program.name)
            config = RunConfig.from_dict(payload["config"])
            start = time.perf_counter_ns()
            tracer.active = True
            try:
                check_program(program, config)
            finally:
                tracer.active = False
            # The first cycle ran in the first burst, under the job's own index.
            check_s[(0, record.job.index)] = (time.perf_counter_ns() - start) / 1e9
        after = cache.stats()
        return {
            "mark": mark,
            "ops": self.mix.cycle,
            "check_s": check_s,
            "counts": {name: after[key] - before[key] for key, name in CACHE_COUNTERS},
        }


WORKLOADS = {
    "shor13_clean": Shor13Clean,
    "shor13_noisy": Shor13Noisy,
    "clifford128": Clifford128,
    "h2_service": H2Service,
}


def make(name: str, seed: int):
    return WORKLOADS[name](seed)
