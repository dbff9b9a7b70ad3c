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


class TestKernels:
    """The batched kernels on a batch of one: a single state and a density matrix.

    Base matrices are monomial (one entry of 1, i, -1 or -i per column), so
    every product is exact and the masked and dense paths must agree bit for
    bit while still checking where each amplitude lands.
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
