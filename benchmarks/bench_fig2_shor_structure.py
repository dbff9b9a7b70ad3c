"""Figure 2: the structure and cost of the Shor's algorithm program.

Figure 2 is a block diagram (upper control register, lower target register,
controlled modular exponentiation built from multipliers and adders,
uncomputation of ancillae, inverse QFT, measurement).  This benchmark
regenerates the quantitative counterpart: the register inventory, the gate
and depth counts of the built program, and the placement of the assertions
the paper attaches to each structural boundary.
"""

from bench_helpers import print_table
from repro.algorithms.shor import build_shor_program
from repro.compiler import build_execution_plan, resource_report, validate_program


def test_fig2_shor_program_structure(benchmark):
    circuit = benchmark.pedantic(lambda: build_shor_program(), rounds=1, iterations=1)
    program = circuit.program

    print_table(
        "Figure 2: Shor register inventory (N=15, a=7, 3 output bits)",
        [
            {
                "register": register.name,
                "qubits": register.size,
                "role": {
                    "up": "upper control register (phase estimation)",
                    "x": "lower target register (holds a^j mod N)",
                    "b": "ancillary register (multiplier scratch)",
                    "anc": "modular-adder comparison ancilla",
                }[register.name],
            }
            for register in program.registers
        ],
    )

    report = resource_report(program)
    print_table(
        "Figure 2: program cost",
        [
            {
                "qubits": report.num_qubits,
                "gates": report.num_gates,
                "depth": report.depth,
                "assertions": report.num_assertions,
            }
        ],
    )

    breakpoints = build_execution_plan(program).segments
    print_table(
        "Figure 2: assertion placement along the program structure",
        [
            {
                "breakpoint": bp.index,
                "gates_before": bp.gates_before,
                "assertion": bp.name,
            }
            for bp in breakpoints
        ],
    )

    assert report.num_qubits == 13
    assert report.num_assertions == 4
    assert validate_program(program) == []
    assert [bp.gates_before for bp in breakpoints] == sorted(
        bp.gates_before for bp in breakpoints
    )


def test_fig2_modular_exponentiation_dominates_cost(benchmark):
    """The controlled modular multipliers account for almost all gates."""
    circuit = build_shor_program(with_assertions=False)
    total = circuit.program.num_gates()

    from repro.lang import Program
    from repro.algorithms.qft import append_iqft

    readout = Program("readout_only")
    readout.add_register(circuit.control_register)
    append_iqft(readout, circuit.control_register, swaps=True)
    readout_gates = readout.num_gates()

    rows = [
        {
            "component": "controlled modular exponentiation",
            "gates": total - readout_gates,
            "fraction": (total - readout_gates) / total,
        },
        {
            "component": "inverse QFT read-out",
            "gates": readout_gates,
            "fraction": readout_gates / total,
        },
    ]
    print_table("Figure 2: gate budget by component", rows)
    benchmark(lambda: circuit.program.simulate())
    assert rows[0]["fraction"] > 0.95
