"""Tests for the pluggable simulation-backend layer."""

import re

import numpy as np
import pytest

from repro.lang import Program
from repro.sim import (
    SimulationBackend,
    Statevector,
    StatevectorBackend,
    gates,
    list_backends,
    make_backend,
    register_backend,
    unregister_backend,
)
from repro.sim.kernels import apply_controlled_batched, apply_matrix_batched


class TestRegistry:
    def test_default_is_statevector(self):
        backend = make_backend(None)
        assert isinstance(backend, StatevectorBackend)

    def test_lookup_by_name(self):
        assert isinstance(make_backend("statevector"), StatevectorBackend)

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown backend"):
            make_backend("tensor_network")

    def test_instance_passes_through(self):
        backend = StatevectorBackend(2)
        assert make_backend(backend) is backend

    def test_factory_is_called(self):
        assert isinstance(make_backend(StatevectorBackend), StatevectorBackend)

    def test_bad_spec_raises(self):
        with pytest.raises(TypeError):
            make_backend(42)

    def test_register_backend(self):
        class Custom(StatevectorBackend):
            name = "custom_test"

        register_backend("custom_test", Custom)
        try:
            assert isinstance(make_backend("custom_test"), Custom)
        finally:
            unregister_backend("custom_test")


class TestStatevectorBackend:
    def test_requires_initialisation(self):
        backend = StatevectorBackend()
        with pytest.raises(RuntimeError):
            backend.probabilities()

    def test_initialize_to_zero_state(self):
        backend = StatevectorBackend(3)
        assert backend.num_qubits == 3
        assert backend.probabilities()[0] == pytest.approx(1.0)

    def test_initialize_from_state(self):
        initial = Statevector.from_label("10")
        backend = StatevectorBackend().initialize(2, initial_state=initial)
        assert backend.probabilities()[2] == pytest.approx(1.0)
        # The backend copies: mutating it leaves the template untouched.
        backend.apply_gate("x", [0])
        assert initial.probabilities()[2] == pytest.approx(1.0)

    def test_initialize_wrong_size_raises(self):
        with pytest.raises(ValueError):
            StatevectorBackend().initialize(3, initial_state=Statevector(2))

    def test_apply_gate_named_and_parameterised(self):
        backend = StatevectorBackend(1)
        backend.apply_gate("h", [0])
        backend.apply_gate("rz", [0], np.pi)
        state = backend.to_statevector()
        expected = Statevector(1).apply_matrix(gates.H, [0]).apply_matrix(
            gates.rz(np.pi), [0]
        )
        assert state.equiv(expected)

    def test_apply_gate_validates(self):
        backend = StatevectorBackend(1)
        with pytest.raises(KeyError):
            backend.apply_gate("warp", [0])
        with pytest.raises(ValueError):
            backend.apply_gate("h", [0], 0.5)

    def test_gate_counter(self):
        backend = StatevectorBackend(2)
        backend.apply_gate("h", [0])
        backend.apply_controlled(gates.X, [0], [1])
        backend.apply_matrix(gates.SWAP, [0, 1])
        assert backend.gates_applied == 3

    def test_snapshot_restore_roundtrip(self, rng):
        backend = StatevectorBackend(2)
        backend.apply_gate("h", [0])
        backend.apply_controlled(gates.X, [0], [1])
        before = backend.probabilities().copy()
        token = backend.snapshot()
        backend.measure([0, 1], rng=rng)  # collapses the Bell state
        assert np.max(backend.probabilities()) == pytest.approx(1.0)
        backend.restore(token)
        assert np.allclose(backend.probabilities(), before)
        # The token survives multiple restores.
        backend.measure([0, 1], rng=rng)
        backend.restore(token)
        assert np.allclose(backend.probabilities(), before)

    def test_restore_wrong_size_raises(self):
        backend = StatevectorBackend(2)
        with pytest.raises(ValueError):
            backend.restore(np.zeros(2, dtype=complex))

    def test_sample_does_not_collapse(self, rng):
        backend = StatevectorBackend(2)
        backend.apply_gate("h", [0])
        probs = backend.probabilities().copy()
        outcomes = backend.sample([0], shots=64, rng=rng)
        assert set(int(v) for v in outcomes) == {0, 1}
        assert np.allclose(backend.probabilities(), probs)

    def test_to_statevector_copy_semantics(self):
        backend = StatevectorBackend(1)
        copied = backend.to_statevector(copy=True)
        copied.apply_matrix(gates.X, [0])
        assert backend.probabilities()[0] == pytest.approx(1.0)
        shared = backend.to_statevector(copy=False)
        shared.apply_matrix(gates.X, [0])
        assert backend.probabilities()[1] == pytest.approx(1.0)

    def test_abstract_to_statevector_is_optional(self):
        class Minimal(SimulationBackend):
            name = "minimal"

            def initialize(self, num_qubits, initial_state=None):
                return self

            @property
            def num_qubits(self):
                return 0

            def snapshot(self):
                return None

            def restore(self, token):
                return self

            def apply_matrix(self, matrix, qubits):
                return self

            def apply_controlled(self, matrix, controls, targets):
                return self

            def probabilities(self, qubits=None):
                return np.ones(1)

            def sample(self, qubits=None, shots=1, rng=None):
                return np.zeros(shots, dtype=int)

            def measure(self, qubits, rng=None):
                return 0

        with pytest.raises(NotImplementedError):
            Minimal().to_statevector()


def _reference_unitary(num_qubits, matrix, controls, targets):
    """The explicit ``2**n x 2**n`` unitary of a controlled gate.

    Built straight from the conventions (bit ``j`` of an index is qubit
    ``j``, ``targets[0]`` is the least significant operand of ``matrix``)
    so it shares no code with the kernels.
    """
    dim = 1 << num_qubits
    indices = np.arange(dim)
    active = np.ones(dim, dtype=bool)
    for control in controls:
        active &= ((indices >> control) & 1) == 1
    value = np.zeros(dim, dtype=np.int64)
    for bit, target in enumerate(targets):
        value |= ((indices >> target) & 1) << bit
    target_mask = sum(1 << target for target in targets)
    full = np.zeros((dim, dim), dtype=complex)
    full[indices[~active], indices[~active]] = 1.0
    columns = indices[active]
    for row_value in range(1 << len(targets)):
        rows = columns & ~target_mask
        for bit, target in enumerate(targets):
            rows = rows | (((row_value >> bit) & 1) << target)
        full[rows, columns] = matrix[row_value, value[active]]
    return full


def _structured_matrix(structure, num_targets, rng):
    dim = 1 << num_targets
    phases = np.exp(2j * np.pi * rng.random(dim))
    if structure == "diagonal":
        return np.diag(phases)
    if structure == "plus_minus_one":
        # Entries exactly +1 (skipped slices) and -1, on a permutation.
        signs = np.where(np.arange(dim) % 2 == 0, 1.0, -1.0)
        matrix = np.zeros((dim, dim), dtype=complex)
        matrix[rng.permutation(dim), np.arange(dim)] = signs
        return matrix
    if structure == "monomial":
        matrix = np.zeros((dim, dim), dtype=complex)
        matrix[rng.permutation(dim), np.arange(dim)] = phases
        return matrix
    if num_targets > 3:
        # A dense entangling unitary without a slow wide QR: phases times a
        # tensor product of random one-qubit unitaries.
        factors = [_structured_matrix("general", 1, rng) for _ in range(num_targets)]
        dense = factors[0]
        for factor in factors[1:]:
            dense = np.kron(factor, dense)
        return phases[:, None] * dense
    gaussian = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return np.linalg.qr(gaussian)[0]


def _operands(order, num_controls, num_targets, num_qubits, rng):
    qubits = list(range(num_qubits))
    if order == "reversed":
        qubits = qubits[::-1]
    elif order == "scattered":
        qubits = [int(q) for q in rng.permutation(num_qubits)]
    # Every other qubit first, so the leading operands are not adjacent.
    chosen = (qubits[::2] + qubits[1::2])[: num_controls + num_targets]
    return chosen[:num_controls], chosen[num_controls:]


def _check_against_reference(layout, matrix, controls, targets, num_qubits, rng):
    full = _reference_unitary(num_qubits, matrix, controls, targets)
    dim = 1 << num_qubits
    if layout == "density":
        # A density matrix is a (1, 4**n) view of a 2n-qubit state: U on the
        # row (ket) bits n..2n-1, conj(U) on the column (bra) bits 0..n-1.
        vectors = rng.normal(size=(dim, 2)) + 1j * rng.normal(size=(dim, 2))
        rho = vectors @ vectors.conj().T
        data = rho.reshape(1, -1).copy()
        ket_controls = [q + num_qubits for q in controls]
        ket_targets = [q + num_qubits for q in targets]
        apply_controlled_batched(data, 2 * num_qubits, matrix, ket_controls, ket_targets)
        apply_controlled_batched(data, 2 * num_qubits, matrix.conj(), controls, targets)
        expected = (full @ rho @ full.conj().T).reshape(1, -1)
    else:
        members = 1 if layout == "state" else 3
        states = rng.normal(size=(members, dim)) + 1j * rng.normal(size=(members, dim))
        data = states.copy()
        if controls:
            apply_controlled_batched(data, num_qubits, matrix, controls, targets)
        else:
            apply_matrix_batched(data, num_qubits, matrix, targets)
        expected = states @ full.T
    assert np.max(np.abs(data - expected)) < 1e-12


class TestKernels:
    """The batched view kernel on single states, batches and density matrices.

    The first tests use monomial base matrices (one entry of 1, i, -1 or -i
    per column), so every product is exact and the controlled and dense
    spellings must agree bit for bit.  The structure tests compare each
    kernel path — diagonal, +-1, monomial with phases, general 1-3 and 9
    targets — against an explicit dense unitary to 1e-12, with 0-3
    controls, ascending / reversed / scattered operand orders, and on a
    single state, a B=3 batch and the density matrix's 2n-qubit view.
    """

    @pytest.mark.parametrize("layout", ["state", "density"])
    @pytest.mark.parametrize("num_controls", [1, 2, 3])
    @pytest.mark.parametrize("num_targets", [1, 2])
    def test_controlled_matches_dense(self, num_controls, num_targets, layout, rng):
        num_qubits = num_controls + num_targets + 1
        order = rng.permutation(num_qubits)
        controls = [int(q) for q in order[:num_controls]]
        targets = [int(q) for q in order[num_controls : num_controls + num_targets]]
        dim = 1 << num_targets
        base = np.zeros((dim, dim), dtype=complex)
        phases = np.array([1, 1j, -1, -1j])[rng.integers(0, 4, dim)]
        base[rng.permutation(dim), np.arange(dim)] = phases
        full = gates.controlled(base, num_controls=num_controls)
        # A density matrix is a (1, 4**n) view of a 2n-qubit state: the gate
        # acts on the row (ket) bits n..2n-1 and, conjugated, on the column
        # (bra) bits 0..n-1.
        if layout == "state":
            width, sides = num_qubits, [(0, base, full)]
        else:
            width = 2 * num_qubits
            sides = [(num_qubits, base, full), (0, base.conj(), full.conj())]
        amplitudes = rng.normal(size=(1, 1 << width)) + 1j * rng.normal(
            size=(1, 1 << width)
        )

        masked = amplitudes.copy()
        dense = amplitudes.copy()
        for shift, matrix, full_matrix in sides:
            shifted_controls = [q + shift for q in controls]
            shifted_targets = [q + shift for q in targets]
            apply_controlled_batched(
                masked, width, matrix, shifted_controls, shifted_targets
            )
            apply_matrix_batched(
                dense, width, full_matrix, shifted_controls + shifted_targets
            )

        assert np.array_equal(masked, dense)
        assert not np.array_equal(masked, amplitudes)

    def test_untouched_amplitudes_are_bit_identical(self, rng):
        """The masked kernel must not even renormalise the identity subspace."""
        amplitudes = rng.normal(size=(1, 8)) + 1j * rng.normal(size=(1, 8))
        original = amplitudes.copy()
        apply_controlled_batched(amplitudes, 3, gates.X, [0], [1])
        untouched = [i for i in range(8) if (i & 1) == 0]
        assert np.array_equal(amplitudes[0, untouched], original[0, untouched])

    def test_single_qubit_fast_path(self, rng):
        amplitudes = rng.normal(size=16) + 1j * rng.normal(size=16)
        indices = np.arange(16)
        for qubit in range(4):
            single = amplitudes.copy().reshape(1, -1)
            apply_matrix_batched(single, 4, gates.H, [qubit])
            low = indices[((indices >> qubit) & 1) == 0]
            high = low | (1 << qubit)
            reference = amplitudes.copy()
            reference[low] = (
                gates.H[0, 0] * amplitudes[low] + gates.H[0, 1] * amplitudes[high]
            )
            reference[high] = (
                gates.H[1, 0] * amplitudes[low] + gates.H[1, 1] * amplitudes[high]
            )
            assert np.array_equal(single[0], reference)
            # A single state is a batch of one: every batch member gets the
            # same amplitudes.
            batch = np.tile(amplitudes, (3, 1))
            apply_matrix_batched(batch, 4, gates.H, [qubit])
            assert all(np.array_equal(row, single[0]) for row in batch)

    @pytest.mark.parametrize("layout", ["state", "batch", "density"])
    @pytest.mark.parametrize("order", ["ascending", "reversed", "scattered"])
    @pytest.mark.parametrize("num_controls", [0, 1, 2, 3])
    @pytest.mark.parametrize(
        "structure, num_targets",
        [
            ("diagonal", 1),
            ("diagonal", 2),
            ("plus_minus_one", 1),
            ("plus_minus_one", 2),
            ("monomial", 1),
            ("monomial", 3),
            ("general", 1),
            ("general", 2),
            ("general", 3),
        ],
    )
    def test_matches_reference_unitary(
        self, structure, num_targets, num_controls, order, layout, rng
    ):
        num_qubits = num_controls + num_targets + 2
        controls, targets = _operands(order, num_controls, num_targets, num_qubits, rng)
        matrix = _structured_matrix(structure, num_targets, rng)
        _check_against_reference(layout, matrix, controls, targets, num_qubits, rng)

    @pytest.mark.parametrize("layout", ["state", "batch"])
    @pytest.mark.parametrize("num_controls", [0, 1])
    @pytest.mark.parametrize("structure", ["monomial", "general"])
    def test_nine_targets(self, structure, num_controls, layout, rng):
        num_qubits = 10
        controls, targets = _operands("scattered", num_controls, 9, num_qubits, rng)
        matrix = _structured_matrix(structure, 9, rng)
        _check_against_reference(layout, matrix, controls, targets, num_qubits, rng)

    def test_entries_of_one_leave_slices_bit_identical(self, rng):
        """Diagonal and permutation gates do no arithmetic on unit entries."""
        amplitudes = rng.normal(size=(1, 16)) + 1j * rng.normal(size=(1, 16))
        indices = np.arange(16)
        before = amplitudes.copy()
        apply_controlled_batched(amplitudes, 4, gates.gate_matrix("p", [0.3]), [2], [0])
        phased = ((indices >> 2) & 1 == 1) & (indices & 1 == 1)
        assert np.array_equal(amplitudes[0, ~phased], before[0, ~phased])
        before = amplitudes.copy()
        apply_controlled_batched(amplitudes, 4, gates.X, [1, 3], [2])
        moved = ((indices >> 1) & 1 == 1) & ((indices >> 3) & 1 == 1)
        assert np.array_equal(amplitudes[0, ~moved], before[0, ~moved])
        assert np.array_equal(amplitudes[0, moved], before[0, indices[moved] ^ 4])


class TestSharedQubitValidator:
    """Every registered backend runs the one qubit validator."""

    @pytest.mark.parametrize("name", list_backends())
    def test_integer_spellings_accepted(self, name):
        backend = make_backend(name).initialize(3)
        backend.apply_matrix(gates.X, 0)
        backend.apply_matrix(gates.X, np.int64(1))
        backend.apply_controlled(gates.X, np.int64(1), [np.int32(2)])
        assert backend.probabilities([0, 1, 2])[0b111] == pytest.approx(1.0)

    @pytest.mark.parametrize("name", list_backends())
    @pytest.mark.parametrize(
        "index", [1.7, True, np.True_, "1", np.float64(1.0)], ids=repr
    )
    def test_non_integer_index_rejected(self, name, index):
        backend = make_backend(name).initialize(3)
        named = re.escape(repr(index))
        with pytest.raises(TypeError, match=named):
            backend.apply_matrix(gates.X, index)
        with pytest.raises(TypeError, match=named):
            backend.apply_matrix(gates.CNOT, [0, index])
        with pytest.raises(TypeError, match=named):
            backend.apply_controlled(gates.X, [index], [0])
        with pytest.raises(TypeError, match=named):
            backend.probabilities([index])
        assert backend.probabilities([0, 1, 2])[0] == pytest.approx(1.0)

    @pytest.mark.parametrize("name", list_backends())
    def test_overlap_duplicates_and_range_rejected(self, name):
        backend = make_backend(name).initialize(3)
        with pytest.raises(ValueError, match="overlap"):
            backend.apply_controlled(gates.X, [0], [0])
        with pytest.raises(ValueError, match="duplicate"):
            backend.apply_matrix(gates.CNOT, [1, 1])
        with pytest.raises(ValueError, match="out of range"):
            backend.apply_matrix(gates.X, 3)


class TestProgramBackendRouting:
    def test_simulate_accepts_backend_name(self):
        program = Program()
        q = program.qreg("q", 1)
        program.h(q[0])
        state = program.simulate(backend="statevector")
        assert state.probabilities()[0] == pytest.approx(0.5)

    def test_simulate_leaves_state_on_explicit_backend(self):
        program = Program()
        q = program.qreg("q", 2)
        program.h(q[0])
        program.cnot(q[0], q[1])
        backend = StatevectorBackend()
        state = program.simulate(backend=backend)
        assert backend.gates_applied == 2
        assert np.allclose(backend.probabilities(), state.probabilities())
        # The returned state is a copy, not an alias of the backend state.
        state.apply_matrix(gates.X, [0])
        assert not np.allclose(backend.probabilities(), state.probabilities())

    def test_simulate_unknown_backend_raises(self):
        program = Program()
        program.qreg("q", 1)
        with pytest.raises(KeyError):
            program.simulate(backend="density_matrix")

    def test_unitary_through_backend(self):
        program = Program()
        q = program.qreg("q", 1)
        program.h(q[0])
        assert np.allclose(program.unitary(backend="statevector"), gates.H)
