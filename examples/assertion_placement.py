#!/usr/bin/env python3
"""Tooling tour: circuit drawing, automatic assertion placement, OpenQASM export.

Shows the developer-facing side of the framework on a small compute/uncompute
program: render it as a text circuit diagram, let the pattern scanner suggest
and place assertions (Section 5.1.1), check them, lower the program to the
{1-qubit, CNOT} basis and export it to OpenQASM 2.0 — the same artefacts the
paper's ScaffCC-based flow produces.

Run with:  python examples/assertion_placement.py
"""

import repro
from repro.compiler import build_execution_plan, lower_to_basis, resource_report
from repro.lang import Program, auto_place_assertions, compute, control, draw, to_qasm, uncompute


def build_demo_program() -> Program:
    """A toy 'controlled increment with a borrowed scratch qubit' program."""
    program = Program("controlled_increment")
    ctrl = program.qreg("ctrl", 1)
    data = program.qreg("data", 2)
    scratch = program.qreg("scratch", 1)

    program.prep_z(ctrl[0], 0)
    program.h(ctrl[0])
    program.prepare_int(data, 1)

    # Compute a helper value into the scratch qubit ...
    with compute(program, involved=[scratch[0]]):
        program.cnot(data[0], scratch[0])

    # ... use it inside a controlled block (the recursion pattern) ...
    with control(program, ctrl):
        program.cnot(scratch[0], data[1])

    # ... and mirror the computation to free the scratch qubit again.
    uncompute(program)
    program.measure(data, label="result")
    return program


def main() -> None:
    program = build_demo_program()

    print("Circuit diagram:")
    print(draw(program))
    print()

    suggestions = auto_place_assertions(program)
    print("Assertions suggested by the pattern scanner:")
    for suggestion in suggestions:
        group_a = ", ".join(repr(q) for q in suggestion.group_a)
        group_b = ", ".join(repr(q) for q in suggestion.group_b)
        print(f"  {suggestion.kind:<10} at instruction {suggestion.position:<3} "
              f"({suggestion.reason}): [{group_a}] vs [{group_b}]")
    print()

    print("Circuit diagram with the auto-placed assertions:")
    print(draw(program))
    print()

    report = repro.session(repro.RunConfig(ensemble_size=32, seed=1)).check(program)
    print(report.summary())
    print()

    print("Plan segments emitted by the splitter (one per ScaffCC breakpoint version):")
    for segment in build_execution_plan(program).segments:
        print(f"  - {segment.describe()}")
    print()

    lowered = lower_to_basis(program.without_assertions())
    stats = resource_report(lowered)
    print(f"After lowering to the basic gate set: {stats.num_gates} gates, depth {stats.depth}")
    print()
    print("OpenQASM 2.0 of the lowered program (first 15 lines):")
    for line in to_qasm(lowered).splitlines()[:15]:
        print("  " + line)


if __name__ == "__main__":
    main()
