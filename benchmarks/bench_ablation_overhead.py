"""Ablation: cost of assertion checking and robustness to readout noise.

Two follow-up questions to the paper's methodology:

* what does checking the assertions of each benchmark cost, in breakpoints and
  simulated gates (the paper ran each breakpoint ensemble on a cluster);
* how robust are the statistical verdicts when the ideal simulator is replaced
  by one with symmetric readout errors (the paper assumes ideal measurement).
"""

from bench_helpers import print_table
from repro import RunConfig
from repro.algorithms.arithmetic import build_cadd_test_harness
from repro.algorithms.modular import build_cmodmul_test_harness
from repro.algorithms.qft import build_qft_test_harness
from repro.algorithms.shor import build_shor_program
from repro.core import StatisticalAssertionChecker
from repro.sim import ReadoutErrorModel
from repro.workloads import assertion_cost


def test_ablation_assertion_cost(benchmark):
    programs = {
        "Listing 1 (QFT harness)": build_qft_test_harness(),
        "Listing 3 (adder harness)": build_cadd_test_harness(),
        "Listing 4 (multiplier harness)": build_cmodmul_test_harness(),
        "Shor N=15 (Figure 2)": build_shor_program().program,
    }

    config = RunConfig(ensemble_size=16)

    def collect():
        return [
            {"program": name, **{k: v for k, v in assertion_cost(program, config=config).items() if k != "program" and k != "gates_per_breakpoint"}}
            for name, program in programs.items()
        ]

    rows = benchmark.pedantic(collect, rounds=1, iterations=1)
    print_table("Ablation: assertion checking cost (ensemble size 16)", rows)
    assert all(row["num_assertions"] >= 2 for row in rows)
    shor_row = rows[-1]
    assert shor_row["total_prefix_gates"] > rows[0]["total_prefix_gates"]


def test_ablation_checking_wall_clock(benchmark):
    """Wall-clock of a full assertion-checking run on the multiplier harness."""
    program = build_cmodmul_test_harness()

    def check():
        checker = StatisticalAssertionChecker(program, RunConfig(ensemble_size=16, seed=0))
        return checker.run()

    report = benchmark(check)
    assert report.passed


def test_ablation_readout_noise_robustness(benchmark):
    """Verdicts under symmetric readout error (extension beyond the paper)."""
    program = build_cmodmul_test_harness()

    def run_with_noise(probability):
        checker = StatisticalAssertionChecker(
            program,
            RunConfig(
                ensemble_size=32,
                seed=5,
                readout_error=ReadoutErrorModel(p01=probability, p10=probability),
            ),
        )
        report = checker.run()
        return {
            "readout_error": probability,
            "entangled_p": next(
                r.p_value for r in report.records if r.outcome.assertion_type == "entangled"
            ),
            "product_p": next(
                r.p_value for r in report.records if r.outcome.assertion_type == "product"
            ),
            "classical_preconditions_pass": all(
                r.passed for r in report.records if r.outcome.assertion_type == "classical"
            ),
            "all_pass": report.passed,
        }

    rows = benchmark.pedantic(
        lambda: [run_with_noise(p) for p in (0.0, 0.01, 0.05, 0.2)],
        rounds=1,
        iterations=1,
    )
    print_table("Ablation: assertion verdicts vs readout error rate", rows)

    assert rows[0]["all_pass"]
    # Strong readout noise destroys the classical preconditions (every
    # measurement must read the exact integer), illustrating why the paper's
    # flow checks assertions in an ideal simulator.
    assert not rows[-1]["classical_preconditions_pass"]
