"""Outside-in tracing: wrap public callables of each layer, keep spans in memory.

Nothing here changes the program under test.  :class:`Tracer.install` patches
class methods on their class and module functions at the module attribute the
caller looks up (for example ``repro.sim.trajectory_backend.apply_matrix_batched``,
because the trajectory backend imported that name), records one span per call
while :attr:`Tracer.active` is set, and :meth:`Tracer.uninstall` restores every
original.  Spans are ``(id, name, start_ns, end_ns, parent_id, attr)`` tuples;
the parent is the innermost open span on the same thread.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time


def _dense_bytes(args, result, before):
    """Bytes a dense gate call reads and writes: 2 x 16 B x batch x 2^n."""
    backend = args[0]
    return 2 * 16 * backend.batch_size * (1 << backend.num_qubits)


def _executor_counters(args):
    executor = args[0]
    return (executor.gates_applied, executor.statevector_gates_applied)


def _executor_delta(args, result, before):
    after = _executor_counters(args)
    return (after[0] - before[0], after[1] - before[1])


def _settings(args, result, before):
    return len(result)


def _shots(args, result, before):
    return sum(len(e.samples) for e in args[2] if e is not None)


def _decided(args, result, before):
    return (result.num_proven + result.num_refuted, len(result.verdicts))


def _job_index_of_payload(args, result, before):
    return args[0]["job_index"]


def _job_index_of_id(args, result, before):
    return int(result.rsplit("-", 1)[1])


#: (module, class or None, attribute, span name, attr function, before function).
#: Span names are ``<layer>.<what>``; the layer is the ``repro`` subpackage.
PATCHES = [
    ("repro.lang.qasm", None, "from_qasm", "lang.qasm_parse", None, None),
    ("repro.service.jobs", None, "from_qasm", "lang.qasm_parse", None, None),
    ("repro.compiler.plan_cache", None, "program_fingerprint",
     "compiler.fingerprint", None, None),
    ("repro.service.result_cache", None, "program_fingerprint",
     "compiler.fingerprint", None, None),
    ("repro.compiler.plan_cache", None, "build_execution_plan",
     "compiler.plan_build", None, None),
    ("repro.compiler.executor", "BreakpointExecutor", "run_plan",
     "compiler.walk", _executor_delta, _executor_counters),
    ("repro.sim.backend", "StatevectorBackend", "apply_matrix",
     "sim.statevector.gate", _dense_bytes, None),
    ("repro.sim.backend", "StatevectorBackend", "apply_controlled",
     "sim.statevector.gate", _dense_bytes, None),
    ("repro.sim.trajectory_backend", "TrajectoryNoiseBackend", "apply_matrix",
     "sim.trajectory.gate", _dense_bytes, None),
    ("repro.sim.trajectory_backend", "TrajectoryNoiseBackend", "apply_controlled",
     "sim.trajectory.gate", _dense_bytes, None),
    ("repro.sim.trajectory_backend", None, "apply_matrix_batched",
     "sim.kernels.batched", None, None),
    ("repro.sim.trajectory_backend", None, "apply_controlled_batched",
     "sim.kernels.batched", None, None),
    ("repro.sim.trajectory_backend", None, "apply_pauli_batched",
     "sim.kernels.pauli", None, None),
    ("repro.sim.stabilizer_backend", "StabilizerBackend", "apply_matrix",
     "sim.stabilizer.gate", None, None),
    ("repro.sim.stabilizer_backend", "StabilizerBackend", "apply_controlled",
     "sim.stabilizer.gate", None, None),
    *[
        (module, cls, method, name, None, None)
        for module, cls in [
            ("repro.sim.backend", "StatevectorBackend"),
            ("repro.sim.trajectory_backend", "TrajectoryNoiseBackend"),
            ("repro.sim.stabilizer_backend", "StabilizerBackend"),
        ]
        for method, name in [
            ("sample", "sim.sample"),
            ("snapshot", "sim.snapshot"),
            ("restore", "sim.snapshot"),
        ]
    ],
    ("repro.compiler.plan_cache", "PlanCache", "analysis_for",
     "analysis.analyze", _decided, None),
    *[
        ("repro.core.assertions", cls, "evaluate", "core.evaluate", None, None)
        for cls in [
            "ClassicalAssertion",
            "SuperpositionAssertion",
            "EntanglementAssertion",
            "ProductStateAssertion",
            "ObservableAssertion",
        ]
    ],
    ("repro.core.report", "DebugReport", "to_json", "core.report_json", None, None),
    ("repro.core.report", "DebugReport", "from_json", "core.report_json", None, None),
    ("repro.compiler.executor", None, "group_terms", "observables.group",
     _settings, None),
    ("repro.core.checker", None, "estimate_observable", "observables.estimate",
     _shots, None),
    ("repro.service.jobs", "LocalService", "submit_payload", "service.submit",
     _job_index_of_id, None),
    ("repro.service.jobs", None, "run_attempt", "service.attempt",
     _job_index_of_payload, None),
]


class Tracer:
    """In-memory span recorder over patched layer entry points."""

    def __init__(self):
        self.spans: "list[tuple]" = []
        #: Spans are recorded only while this is set (the timed operations).
        self.active = False
        self._ids = itertools.count()
        self._local = threading.local()
        self._originals: "list[tuple]" = []

    # -- patching ----------------------------------------------------------

    def install(self, patches=PATCHES) -> None:
        # Service workers fork from a thread inside a span; their spans would
        # stay in the child, so tracing stops there.
        os.register_at_fork(after_in_child=self._stop)
        for module_name, class_name, attr, span, attr_fn, before_fn in patches:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
                original = owner.__dict__[attr]
            else:
                original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span, attr_fn, before_fn))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def _wrap(self, original, span, attr_fn, before_fn):
        is_classmethod = isinstance(original, classmethod)
        func = original.__func__ if is_classmethod else original
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else -1
            before = before_fn(args) if before_fn is not None else None
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                tracer.spans.append(
                    (span_id, span, start, time.perf_counter_ns(), parent, None)
                )
                raise
            finally:
                stack.pop()
            end = time.perf_counter_ns()
            attr = attr_fn(args, result, before) if attr_fn is not None else None
            tracer.spans.append((span_id, span, start, end, parent, attr))
            return result

        return classmethod(traced) if is_classmethod else traced

    def _stop(self) -> None:
        self.active = False

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def dump(self, path) -> None:
        """Write every span as one JSON list per line (written once, at the end)."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(list(span)) + "\n")
