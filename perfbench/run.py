"""Run one benchmark workload and print its metrics; the last line is JSON.

Usage, from the repository root::

    python3 perfbench/run.py --workload shor13_clean --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics of ``spec.END_TO_END`` with no
tracing installed.  ``--trace 1`` measures half the time untraced and half
traced, prints the per-layer metrics of ``spec.PER_LAYER`` plus each operation
class's largest span shares, and writes the spans to ``.perfbench_out/``.
The exit code is 0 only when every operation passed its checks.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: ``setup_s`` is given in seconds on a host whose reference kernel takes
#: this long, so that host drift between runs does not read as a change.
REF_SECONDS = 0.01
#: Span shares printed per operation class in a traced run.
TOP_SHARES = 6


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Put the checkout's ``src`` on the path; fail when the program is absent."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program to measure ({src / 'repro'} is missing)")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))


def timing_line(name: str, values, unit: str) -> str:
    from perfbench.measure import median, percentile

    p50 = median(values)
    p90 = percentile(values, 90.0)
    tail = (f"p90 {p90:.6g} {unit}" if p90 is not None
            else "p90 not reported (fewer than 10 samples beyond it)")
    return f"  {name}: p50 {p50:.6g} {unit}, {tail}, n={len(values)}"


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    from perfbench import layers, spec, workloads
    from perfbench.measure import host_fingerprint, median, peak_rss_mb
    from perfbench.tracing import Tracer

    if args.workload not in spec.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(spec.WORKLOADS)}")
    print(f"workload {args.workload} (seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}): {spec.WORKLOADS[args.workload]}")
    print("host " + json.dumps(host_fingerprint(), sort_keys=True))

    workload = workloads.make(args.workload, args.seed)
    try:
        setup_s, setup_refs, build_s = [], [], []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            build_s.append(workload.setup())
            setup_s.append(time.perf_counter() - start)
            setup_refs.append(workload.reference())
        if args.trace:
            untraced = workload.phase(args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                traced = workload.phase(args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            phases = [untraced, traced]
        else:
            phases = [workload.phase(args.seconds)]
    finally:
        workload.close()

    attempted = sum(p.tally.attempted for p in phases)
    failed = sum(p.tally.failed for p in phases)
    for phase in phases:
        for reason in phase.tally.reasons:
            print(f"FAILED: {reason}")
    print(f"operations: {attempted} attempted, {failed} failed, "
          f"failed_frac {failed / attempted if attempted else 1.0:.6g}")
    correct = [v for p in phases for v in p.correct_passed]
    if correct:
        print(f"correct programs passing (statistical, not a failure): "
              f"{sum(correct)}/{len(correct)}")
    caught = {}
    for phase in phases:
        for name, hits in phase.detected.items():
            caught.setdefault(name, []).extend(hits)
    for name, hits in sorted(caught.items()):
        print(f"buggy {name} caught in {sum(hits)}/{len(hits)} checks")

    if args.trace:
        values = layers.per_layer(untraced, traced, build_s, tracer)
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit, *_ in spec.PER_LAYER
        }
        print("per-layer metrics, per operation of the traced phase "
              f"({traced.ops} operations):")
        for name, unit, better, definition, target in spec.PER_LAYER:
            print(f"  {name} = {values[name]:.6g} {unit}  [{definition}; moves {target}]")
        for kind, shares in layers.class_shares(tracer.spans, traced.intervals).items():
            top = sorted(shares.items(), key=lambda item: -item[1])[:TOP_SHARES]
            print(f"span shares of {kind} wall time (inclusive, n="
                  f"{len(traced.samples[kind])}): "
                  + ", ".join(f"{name} {share:.1%}" for name, share in top))
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        spans_path = out / f"{args.workload}-seed{args.seed}-spans.jsonl"
        tracer.dump(spans_path)
        print(f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    else:
        phase = phases[0]
        values = {
            "setup_s": REF_SECONDS * median([s / r for s, r in zip(setup_s, setup_refs)]),
            "cold_p50_ref": phase.typical("cold"),
            "warm_p50_ref": phase.typical("warm"),
            "ops_per_ref": median(phase.rates),
            "peak_rss_mb": peak_rss_mb(),
        }
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit, *_ in spec.END_TO_END
        }
        print("end-to-end metrics:")
        print(f"  setup_s = {values['setup_s']:.6g} s at the reference speed; measured "
              f"{median(setup_s):.6g} s (median of {SETUP_REPEATS} set-ups)")
        print(f"  reference kernel: median {median(phase.refs):.6g} s over "
              f"{len(phase.refs)} segments (1 ref)")
        for kind in phase.samples:
            print(timing_line(f"{kind} latency", phase.samples[kind], "s"))
            print(timing_line(f"{kind} latency", [v for _, v in phase.normalized[kind]], "ref"))
            print(f"    mean of per-program medians {phase.typical(kind):.6g} ref")
        print(f"  ops_per_ref = {values['ops_per_ref']:.6g} 1/ref (median over "
              f"{len(phase.rates)} cycles; {phase.ops} operations in {phase.elapsed:.3f} s, "
              f"{phase.ops / phase.elapsed:.6g}/s)")
        print(f"  peak_rss_mb = {values['peak_rss_mb']:.6g} MiB")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
