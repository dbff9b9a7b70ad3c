"""Pluggable simulation backends.

The execution stack (``lang`` programs → compiler ``ExecutionPlan`` →
simulation → ``core`` checker) talks to the simulator exclusively through the
:class:`SimulationBackend` interface defined here.  The interface is the
extension point for alternative simulation strategies:
:class:`StatevectorBackend` below is the production implementation backing
every noiseless benchmark.  Five backends are registered:
``"statevector"`` (below), ``"density"``
(:class:`repro.sim.density_backend.DensityMatrixBackend`, Kraus-channel and
readout noise), ``"trajectory"``
(:class:`repro.sim.trajectory_backend.TrajectoryNoiseBackend`, batched Pauli
trajectories), ``"stabilizer"``
(:class:`repro.sim.stabilizer_backend.StabilizerBackend`, Clifford tableau)
and ``"auto"``/``"hybrid"``
(:class:`repro.sim.stabilizer_backend.HybridCliffordBackend`).  They share
one core: the qubit and matrix validators of :mod:`repro.sim.statevector`,
the noise set-up of :meth:`SimulationBackend._setup_noise` and one batched
kernel per gate operation in :mod:`repro.sim.kernels`.

Two capabilities distinguish the interface from a bare statevector:

* ``snapshot`` / ``restore`` — cheap checkpointing, which is what lets the
  incremental executor simulate a k-assertion program once instead of k
  times (each breakpoint draws its measurement ensemble from a snapshot and
  the walk continues from the restored state);
* ``gates_applied`` — an instrumented gate counter, so tests and benchmarks
  can verify the O(total_gates) work bound of the incremental engine rather
  than trusting wall-clock noise.
"""

from __future__ import annotations

import abc
from typing import Sequence

import numpy as np

from . import gates as _gates
from .measurement import ReadoutErrorModel
from .noise import (
    KrausChannel,
    NoiseModel,
    PauliChannelSampler,
    StreamPool,
    as_member_streams,
    spawn_trajectory_streams,
)
from .statevector import Statevector

__all__ = ["SimulationBackend", "StatevectorBackend"]


class SimulationBackend(abc.ABC):
    """Abstract interface every simulation backend implements.

    A backend owns one quantum state.  ``initialize`` (re)sets it; the
    ``apply_*`` methods evolve it; ``probabilities``/``sample``/``measure``
    read it out; ``snapshot``/``restore`` checkpoint it.  Gate applications
    are counted in :attr:`gates_applied` for cost accounting.
    """

    #: Registry name of the backend (subclasses override).
    name: str = "abstract"

    #: True when the backend applies readout error natively in its own
    #: readout path (``sample``/``measure``).  The executor then installs its
    #: readout model via :meth:`set_readout_error` instead of stochastically
    #: corrupting each drawn sample after the fact.
    supports_readout_noise: bool = False

    #: Readout channel of the native readout path (ideal unless installed).
    readout_error: ReadoutErrorModel = ReadoutErrorModel()

    #: Gate-noise model (``None`` = noiseless); see :meth:`_setup_noise`.
    noise: "NoiseModel | None" = None

    _batch_size = 1
    _weights: "np.ndarray | None" = None

    def __init__(self) -> None:
        self.gates_applied = 0

    def _setup_noise(
        self,
        noise: "NoiseModel | KrausChannel | Sequence[KrausChannel] | None",
        readout_error: ReadoutErrorModel | None = None,
        batch_size: int = 1,
        rng_streams: "Sequence[np.random.Generator] | StreamPool | None" = None,
        seed: "int | np.random.SeedSequence | None" = None,
        unravel: bool = True,
    ) -> None:
        """Noise set-up shared by every noise-carrying backend.

        Sets :attr:`noise` (a channel or iterable of channels is wrapped into
        a :class:`NoiseModel`), :attr:`readout_error` (the explicit model,
        else the noise model's, else ideal) and the batch width.  With
        ``unravel`` the gate channels are also prepared for Pauli
        trajectories: ``_samplers`` (one :class:`PauliChannelSampler` per
        channel, importance-boosted by the model), ``_weights`` (ones when
        any sampler is biased, else ``None``) and ``_pool``, the members'
        :class:`StreamPool`, built from ``rng_streams`` or spawned from
        ``seed`` whenever the backend carries noise or more than one member.
        """
        if noise is not None and not isinstance(noise, NoiseModel):
            noise = NoiseModel.from_channels(noise)
        self.noise = noise
        if readout_error is None and noise is not None:
            readout_error = noise.readout
        self.readout_error = readout_error or ReadoutErrorModel()
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self._batch_size = int(batch_size)
        if not unravel:
            return
        channels = noise.gate_channels if noise is not None else ()
        boost = noise.importance_boost if noise is not None else None
        try:
            self._samplers = tuple(
                PauliChannelSampler(
                    channel.pauli_decomposition(), importance_boost=boost
                )
                for channel in channels
            )
        except ValueError as exc:
            raise ValueError(
                f"backend {self.name!r} unravels gate noise into Pauli "
                f"trajectories; {exc}.  Non-Pauli channels (e.g. amplitude "
                "damping) need the density-matrix backend."
            ) from None
        self._biased = any(sampler.is_biased for sampler in self._samplers)
        self._weights = np.ones(self._batch_size) if self._biased else None
        self._pool = None
        if channels or self._batch_size > 1:
            if rng_streams is not None:
                self._pool = as_member_streams(rng_streams, self._batch_size)
            else:
                self._pool = StreamPool(
                    spawn_trajectory_streams(seed, self._batch_size)
                )

    @property
    def statevector_gates_applied(self) -> int:
        """Gate applications that ran on a *dense* state representation.

        Dense backends (statevector, density matrix) do all their gate work
        on exponentially sized arrays, so the default is simply
        :attr:`gates_applied`.  The stabilizer tableau overrides this to 0
        and the hybrid backend to its dense-stage count, which is what lets
        benchmarks show the hybrid engine applying strictly fewer
        statevector operations than a pure statevector walk.
        """
        return self.gates_applied

    @property
    def batch_size(self) -> int:
        """Number of simultaneously carried states (1 for single-state backends).

        Trajectory backends stack ``B`` ensemble members through one plan
        walk; everything else simulates a single state.
        """
        return self._batch_size

    def member_weights(self) -> "np.ndarray | None":
        """Per-member likelihood-ratio weights, or ``None`` when unbiased.

        Non-``None`` exactly when the noise model carries an
        ``importance_boost``: each entry is the running product of the
        likelihood ratios of that member's sampled noise events, and
        ensemble statistics must be weighted by them to stay unbiased.
        """
        return None if self._weights is None else self._weights.copy()

    def set_readout_error(self, model: ReadoutErrorModel | None) -> None:
        """Install a readout-error model (``None`` = ideal) as :attr:`readout_error`.

        Only backends with :attr:`supports_readout_noise` apply it.
        """
        self.readout_error = model or ReadoutErrorModel()

    def prep_qubit(
        self,
        qubit: int,
        value: int,
        rng: "np.random.Generator | int | None" = None,
    ) -> "SimulationBackend":
        """``PrepZ``: exact on basis-state qubits, measurement-based reset otherwise.

        This is the lowering point of ``PrepInstruction`` (the lang
        interpreter calls it for every prep).  The default applies to any
        single-state backend; batched trajectory backends override it to
        reset each ensemble member on its own measurement outcome.
        """
        qubit = int(qubit)
        probability_one = float(self.probabilities([qubit])[1])
        if probability_one < 1e-12 or probability_one > 1.0 - 1e-12:
            current = 1 if probability_one > 0.5 else 0
        else:
            current = self.measure([qubit], rng=rng)
        if current != int(value):
            self.apply_gate("x", [qubit])
        return self

    # -- state lifecycle ------------------------------------------------

    @abc.abstractmethod
    def initialize(
        self, num_qubits: int, initial_state: Statevector | None = None
    ) -> "SimulationBackend":
        """Reset to ``|0...0>`` on ``num_qubits`` (or to ``initial_state``)."""

    @property
    @abc.abstractmethod
    def num_qubits(self) -> int:
        """Number of qubits of the current state."""

    @abc.abstractmethod
    def snapshot(self) -> object:
        """Opaque checkpoint token for the current state."""

    @abc.abstractmethod
    def restore(self, token: object) -> "SimulationBackend":
        """Restore a state previously captured with :meth:`snapshot`.

        The token stays valid and may be restored again.
        """

    # -- evolution ------------------------------------------------------

    @abc.abstractmethod
    def apply_matrix(
        self, matrix: np.ndarray, qubits: Sequence[int]
    ) -> "SimulationBackend":
        """Apply a unitary matrix to the listed qubits (``qubits[0]`` = LSB)."""

    @abc.abstractmethod
    def apply_controlled(
        self,
        matrix: np.ndarray,
        controls: Sequence[int],
        targets: Sequence[int],
    ) -> "SimulationBackend":
        """Apply ``matrix`` on ``targets`` conditioned on all controls = 1."""

    def apply_gate(
        self, name: str, qubits: Sequence[int], *params: float
    ) -> "SimulationBackend":
        """Apply a named gate from the :mod:`repro.sim.gates` library."""
        return self.apply_matrix(_gates.gate_matrix(name, params), qubits)

    # -- readout --------------------------------------------------------

    @abc.abstractmethod
    def probabilities(self, qubits: Sequence[int] | None = None) -> np.ndarray:
        """Marginal outcome distribution over ``qubits`` (little-endian)."""

    @abc.abstractmethod
    def sample(
        self,
        qubits: Sequence[int] | None = None,
        shots: int = 1,
        rng: np.random.Generator | int | None = None,
    ) -> np.ndarray:
        """Draw ``shots`` measurement outcomes from the current state.

        Backends with a full state description (statevector, density matrix)
        sample without disturbing the state; backends with destructive
        readout may collapse it.  Callers that must keep the state — the
        incremental executor above all — bracket sampling in
        ``snapshot``/``restore`` rather than relying on non-destructive
        sampling, so either behaviour is conforming.
        """

    @abc.abstractmethod
    def measure(
        self,
        qubits: Sequence[int],
        rng: np.random.Generator | int | None = None,
    ) -> int:
        """Projectively measure ``qubits``, collapsing the state."""

    # -- conversion -----------------------------------------------------

    def to_statevector(self, copy: bool = True) -> Statevector:
        """Dense statevector view of the state, when the backend has one."""
        raise NotImplementedError(
            f"backend {self.name!r} cannot produce a statevector"
        )


class StatevectorBackend(SimulationBackend):
    """Dense statevector backend built on the kernels in :mod:`repro.sim.kernels`.

    Controlled gates apply their base matrix only on the control-satisfied
    subspace (the dense controlled unitary is never built), and diagonal and
    permutation gates cost only slice multiplies and copies.
    """

    name = "statevector"

    def __init__(self, num_qubits: int | None = None):
        super().__init__()
        self._state: Statevector | None = None
        if num_qubits is not None:
            self.initialize(num_qubits)

    # -- state lifecycle ------------------------------------------------

    def initialize(
        self, num_qubits: int, initial_state: Statevector | None = None
    ) -> "StatevectorBackend":
        if initial_state is not None:
            if initial_state.num_qubits != num_qubits:
                raise ValueError("initial state has the wrong number of qubits")
            self._state = initial_state.copy()
        else:
            self._state = Statevector(num_qubits)
        return self

    @property
    def num_qubits(self) -> int:
        return self._require_state().num_qubits

    def snapshot(self) -> np.ndarray:
        return self._require_state().data.copy()

    def restore(self, token: object) -> "StatevectorBackend":
        state = self._require_state()
        data = np.asarray(token)
        if data.shape != state.data.shape:
            raise ValueError("snapshot does not match the current register size")
        state.data = data.copy()
        return self

    # -- evolution ------------------------------------------------------

    def apply_matrix(
        self, matrix: np.ndarray, qubits: Sequence[int]
    ) -> "StatevectorBackend":
        self._require_state().apply_matrix(matrix, qubits)
        self.gates_applied += 1
        return self

    def apply_controlled(
        self,
        matrix: np.ndarray,
        controls: Sequence[int],
        targets: Sequence[int],
    ) -> "StatevectorBackend":
        self._require_state().apply_controlled(matrix, controls, targets)
        self.gates_applied += 1
        return self

    # -- readout --------------------------------------------------------

    def probabilities(self, qubits: Sequence[int] | None = None) -> np.ndarray:
        return self._require_state().probabilities(qubits)

    def sample(
        self,
        qubits: Sequence[int] | None = None,
        shots: int = 1,
        rng: np.random.Generator | int | None = None,
    ) -> np.ndarray:
        return self._require_state().sample(qubits, shots=shots, rng=rng)

    def measure(
        self,
        qubits: Sequence[int],
        rng: np.random.Generator | int | None = None,
    ) -> int:
        return self._require_state().measure(qubits, rng=rng)

    # -- conversion -----------------------------------------------------

    def to_statevector(self, copy: bool = True) -> Statevector:
        state = self._require_state()
        return state.copy() if copy else state

    def _require_state(self) -> Statevector:
        if self._state is None:
            raise RuntimeError("backend not initialised; call initialize() first")
        return self._state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        qubits = self._state.num_qubits if self._state is not None else None
        return f"StatevectorBackend(num_qubits={qubits})"
