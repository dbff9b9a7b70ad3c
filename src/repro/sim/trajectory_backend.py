"""Quantum-trajectory noise backend: batched Pauli sampling on statevectors.

The density-matrix backend densifies on the first Kraus application, which
puts per-gate noise on the 11–13 qubit Shor workloads out of reach (``4^n``
memory and work).  :class:`TrajectoryNoiseBackend` unravels **Pauli** noise
channels into Monte-Carlo trajectories instead: every channel application
samples one Pauli per trajectory member and applies it as a plain gate, so a
noisy ensemble costs ``B`` statevectors of ``2^n`` amplitudes — never a
density matrix.

Batching
--------
The backend carries all ``B`` trajectory members as one stacked ``(B, 2^n)``
C-contiguous array pushed through the batched kernels of
:mod:`repro.sim.kernels`; a single walk of an execution plan therefore
produces the whole noisy ensemble (the incremental executor sets
``batch_size = ensemble_size`` and draws one readout sample per member at
each breakpoint).  Unitary gates are identical across members — only the
sampled Pauli insertions differ — which is what makes the stacked layout
profitable: one vectorised kernel call per gate instead of ``B`` walks.

RNG-stream contract
-------------------
Each trajectory member owns an independent rng stream (spawned via
``np.random.SeedSequence.spawn``); one noise event consumes exactly one
uniform per member from that member's stream.  Trajectories are therefore
reproducible under any batch split: member ``m`` sees the same Pauli record
whether it runs in a batch of 1 or of 256, as long as it is handed the same
child stream.  Readout sampling draws from the *caller's* rng (the executor
stream), exactly like every other backend.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .backend import SimulationBackend
from .registry import BackendCapabilities, register_backend, resolve_streams
from .kernels import (
    apply_controlled_batched,
    apply_matrix_batched,
    apply_pauli_batched,
    marginal_probabilities,
    outcome_mask,
)
from .measurement import ReadoutErrorModel
from .noise import (
    KrausChannel,
    NoiseModel,
    PauliChannelSampler,
    StreamPool,
    as_member_streams,
    noise_events,
    spawn_trajectory_streams,
)
from .statevector import Statevector, _as_rng, _draw_outcomes
from .statevector import _validated_matrix, _validated_qubits

__all__ = ["TrajectoryNoiseBackend", "spawn_trajectory_streams"]


def iter_noise_events(
    samplers: Sequence[PauliChannelSampler],
    touched: Sequence[int],
    pool: StreamPool,
    batch_size: int,
    members: np.ndarray | None = None,
    weights: np.ndarray | None = None,
):
    """Yield ``(qubit, paulis)`` for one gate's noise events.

    This is the single implementation of the trajectory sampling contract,
    shared by the statevector batch and the tableau Pauli frames.  Channels
    fire by the touched-qubit contract of :func:`repro.sim.noise.noise_events`
    (the density backend places its Kraus channels by it too); each firing
    consumes exactly one uniform per member from that member's own stream —
    all of a gate's firings come from one :meth:`StreamPool.draw` — and a
    two-qubit channel yields one per-qubit event per tensor factor.

    ``members`` optionally restricts the event to a boolean mask (per-member
    prep corrections): only masked members draw and receive a Pauli, so a
    member's stream consumption depends solely on its own history — the
    batch-split reproducibility invariant.

    ``weights``, when given, is the per-member likelihood-ratio accumulator
    for importance-biased samplers: each biased event multiplies the drawing
    members' entries **in place** by the sampled component's ratio.
    """
    if not samplers:
        return
    active = None
    if members is not None:
        active = np.flatnonzero(members)
        if not active.size:
            return
    events = list(noise_events(samplers, touched))
    uniforms = pool.draw(active, len(events))
    for (sampler, qubits), row in zip(events, uniforms):
        positions = sampler.sample_positions(row)
        if weights is not None and sampler.ratios is not None:
            target = slice(None) if active is None else active
            weights[target] *= sampler.ratios[positions]
        for slot, qubit in enumerate(qubits):
            codes = sampler.codes[positions, slot]
            if active is None:
                yield qubit, codes
            else:
                paulis = np.zeros(batch_size, dtype=np.int64)
                paulis[active] = codes
                yield qubit, paulis


class TrajectoryNoiseBackend(SimulationBackend):
    """Batched Pauli-trajectory backend (registry name ``"trajectory"``).

    Parameters
    ----------
    num_qubits:
        Optional register size to initialise immediately.
    noise:
        A :class:`~repro.sim.noise.NoiseModel` (or channel/iterable wrapped
        into one) whose gate channels must all be Pauli mixtures — verified
        at construction via :meth:`KrausChannel.pauli_decomposition`.
    batch_size:
        Number of trajectory members carried in the stacked state.
    rng_streams:
        Per-member noise streams (one :class:`numpy.random.Generator` per
        member).  The executor passes children spawned from its seed; when
        omitted, fresh streams are spawned from ``seed``.
    readout_error:
        Native readout channel (applied to each member's outcome
        distribution before sampling); overrides the noise model's.
    """

    name = "trajectory"
    supports_readout_noise = True

    def __init__(
        self,
        num_qubits: int | None = None,
        noise: "NoiseModel | KrausChannel | Sequence[KrausChannel] | None" = None,
        batch_size: int = 1,
        rng_streams: Sequence[np.random.Generator] | None = None,
        seed: "int | np.random.SeedSequence | None" = None,
        readout_error: ReadoutErrorModel | None = None,
    ):
        super().__init__()
        self._setup_noise(noise, readout_error, batch_size, rng_streams, seed)
        self._batch: np.ndarray | None = None
        self._num_qubits: int | None = None
        if num_qubits is not None:
            self.initialize(num_qubits)

    # -- state lifecycle ------------------------------------------------

    def initialize(
        self, num_qubits: int, initial_state: Statevector | None = None
    ) -> "TrajectoryNoiseBackend":
        dim = 1 << int(num_qubits)
        batch = np.zeros((self._batch_size, dim), dtype=complex)
        if initial_state is not None:
            if initial_state.num_qubits != num_qubits:
                raise ValueError("initial state has the wrong number of qubits")
            batch[:] = initial_state.data
        else:
            batch[:, 0] = 1.0
        self._batch = batch
        self._num_qubits = int(num_qubits)
        if self._biased:
            self._weights = np.ones(self._batch_size)
        return self

    def initialize_from_members(
        self, members: np.ndarray
    ) -> "TrajectoryNoiseBackend":
        """Adopt explicit per-member states (the hybrid conversion path).

        ``members`` must be ``(batch_size, 2**n)``; the rows are the already
        diverged trajectory states (tableau state with each member's Pauli
        frame applied).
        """
        members = np.ascontiguousarray(np.asarray(members, dtype=complex))
        if members.ndim != 2 or members.shape[0] != self._batch_size:
            raise ValueError(
                f"expected a ({self._batch_size}, 2**n) member stack, "
                f"got shape {members.shape}"
            )
        num_qubits = members.shape[1].bit_length() - 1
        if (1 << num_qubits) != members.shape[1]:
            raise ValueError("member dimension is not a power of two")
        self._batch = members
        self._num_qubits = num_qubits
        return self

    @property
    def num_qubits(self) -> int:
        self._require_batch()
        return int(self._num_qubits)

    def set_rng_streams(
        self, streams: "Sequence[np.random.Generator] | StreamPool"
    ) -> None:
        """Install per-member noise streams (one Generator per member)."""
        self._pool = as_member_streams(streams, self._batch_size)

    def set_member_weights(self, weights: "np.ndarray | None") -> None:
        """Adopt accumulated weights (the hybrid conversion path)."""
        if weights is None:
            self._weights = np.ones(self._batch_size) if self._biased else None
            return
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (self._batch_size,):
            raise ValueError(
                f"expected {self._batch_size} member weights, got {weights.shape}"
            )
        self._weights = weights.copy()

    def snapshot(self) -> np.ndarray:
        return self._require_batch().copy()

    def restore(self, token: object) -> "TrajectoryNoiseBackend":
        batch = self._require_batch()
        data = np.asarray(token)
        if data.shape != batch.shape:
            raise ValueError("snapshot does not match the current batch shape")
        batch[:] = data
        return self

    # -- evolution ------------------------------------------------------

    def apply_matrix(
        self, matrix: np.ndarray, qubits: Sequence[int]
    ) -> "TrajectoryNoiseBackend":
        batch = self._require_batch()
        qubit_list = _validated_qubits(qubits, self._num_qubits)
        matrix = _validated_matrix(matrix, len(qubit_list))
        apply_matrix_batched(batch, self._num_qubits, matrix, qubit_list)
        self.gates_applied += 1
        self._apply_gate_noise(qubit_list)
        return self

    def apply_controlled(
        self,
        matrix: np.ndarray,
        controls: Sequence[int],
        targets: Sequence[int],
    ) -> "TrajectoryNoiseBackend":
        batch = self._require_batch()
        control_list = _validated_qubits(controls, self._num_qubits)
        target_list = _validated_qubits(targets, self._num_qubits, control_list)
        matrix = _validated_matrix(matrix, len(target_list))
        apply_controlled_batched(
            batch, self._num_qubits, matrix, control_list, target_list
        )
        self.gates_applied += 1
        self._apply_gate_noise(control_list + target_list)
        return self

    def _apply_gate_noise(
        self, touched: Sequence[int], members: np.ndarray | None = None
    ) -> None:
        """Sample and apply one Pauli per member per channel per touched qubit."""
        for qubit, paulis in iter_noise_events(
            self._samplers,
            touched,
            self._pool,
            self._batch_size,
            members,
            weights=self._weights,
        ):
            if np.any(paulis):
                apply_pauli_batched(self._batch, qubit, paulis)

    # -- readout --------------------------------------------------------

    def member_probabilities(
        self, qubits: Sequence[int] | None = None, readout: bool = False
    ) -> np.ndarray:
        """Per-member marginal distributions, shape ``(B, 2**k)``.

        With ``readout=True`` each member's ideal marginal is pushed through
        the readout confusion matrix, giving the exact noisy distribution of
        that trajectory.
        """
        batch = self._require_batch()
        weights = np.abs(batch) ** 2
        weights /= weights.sum(axis=1, keepdims=True)
        if qubits is None:
            rows = weights
        else:
            qubit_list = _validated_qubits(qubits, self._num_qubits)
            rows = np.stack(
                [
                    marginal_probabilities(row, self._num_qubits, qubit_list)
                    for row in weights
                ]
            )
        if readout and not self.readout_error.is_ideal:
            num_bits = rows.shape[1].bit_length() - 1
            rows = np.stack(
                [
                    self.readout_error.apply_to_distribution(row, num_bits)
                    for row in rows
                ]
            )
        return rows

    def probabilities(self, qubits: Sequence[int] | None = None) -> np.ndarray:
        """Trajectory-averaged ideal marginal (the density-matrix estimate)."""
        return self.member_probabilities(qubits).mean(axis=0)

    def readout_probabilities(
        self, qubits: Sequence[int] | None = None
    ) -> np.ndarray:
        """Trajectory-averaged noisy-readout marginal."""
        return self.member_probabilities(qubits, readout=True).mean(axis=0)

    def sample(
        self,
        qubits: Sequence[int] | None = None,
        shots: int = 1,
        rng: np.random.Generator | int | None = None,
    ) -> np.ndarray:
        """Draw measurement outcomes from the trajectory ensemble.

        With ``shots == batch_size`` (the executor's breakpoint readout) one
        outcome is drawn from **each member's own distribution** — the
        trajectory-ensemble semantics, in which member ``m``'s sample is one
        noisy execution.  Any other shot count draws i.i.d. from the
        batch-averaged mixture distribution instead.
        """
        rng = _as_rng(rng)
        member_probs = self.member_probabilities(qubits, readout=True)
        if shots == self._batch_size:
            cumulative = np.cumsum(member_probs, axis=1)
            cumulative[:, -1] = 1.0
            uniforms = rng.random(self._batch_size)
            outcomes = (cumulative < uniforms[:, None]).sum(axis=1)
            return np.minimum(outcomes, member_probs.shape[1] - 1)
        return _draw_outcomes(member_probs.mean(axis=0), rng, shots)

    def measure(
        self,
        qubits: Sequence[int],
        rng: np.random.Generator | int | None = None,
    ) -> int:
        """Ideal projective measurement; single-member batches only.

        A collapsing joint measurement of a whole trajectory batch is
        ill-defined (each member would collapse onto its own outcome yet one
        integer must be returned), so ``measure`` is restricted to
        ``batch_size == 1`` — which is exactly how the executor's faithful
        ``"rerun"`` mode instantiates the backend.
        """
        if self._batch_size != 1:
            raise RuntimeError(
                "collapsing measurement of a trajectory batch is per-member; "
                "use batch_size=1 (the executor's 'rerun' mode does)"
            )
        self._require_batch()
        qubit_list = _validated_qubits(qubits, self._num_qubits)
        outcome = int(_draw_outcomes(self.member_probabilities(qubit_list)[0], rng))
        self._project_member(0, qubit_list, outcome)
        return outcome

    def prep_qubit(
        self,
        qubit: int,
        value: int,
        rng: np.random.Generator | int | None = None,
    ) -> "TrajectoryNoiseBackend":
        """Per-member measurement-based reset of one qubit.

        Members whose qubit is already in a basis state are corrected
        exactly; members in superposition collapse on their own outcome
        (consuming draws from the caller's rng in member order).  The
        correcting X — when any member needs one — counts as one gate and
        triggers gate noise on the prepped qubit, mirroring the single-state
        backends, where the prep correction is an ordinary gate application.
        """
        batch = self._require_batch()
        (qubit,) = _validated_qubits([qubit], self._num_qubits)
        value = int(value)
        view = (np.abs(batch) ** 2).reshape(
            self._batch_size, -1, 2, 1 << qubit
        )
        totals = view.sum(axis=(1, 2, 3))
        probability_one = view[:, :, 1, :].sum(axis=(1, 2)) / totals
        current = (probability_one > 0.5).astype(np.int64)
        uncertain = (probability_one > 1e-12) & (probability_one < 1.0 - 1e-12)
        if np.any(uncertain):
            rng = _as_rng(rng)
            for member in np.flatnonzero(uncertain):
                p1 = float(probability_one[member])
                outcome = int(rng.choice(2, p=[1.0 - p1, p1]))
                self._project_member(int(member), [qubit], outcome)
                current[member] = outcome
        flips = current != value
        if np.any(flips):
            apply_pauli_batched(batch, qubit, flips.astype(np.int64))
            self.gates_applied += 1
            # Only the corrected members ran an X, so only they pick up the
            # correction's gate noise (and consume a stream draw).
            self._apply_gate_noise([qubit], members=flips)
        return self

    def _project_member(
        self, member: int, qubits: Sequence[int], outcome: int
    ) -> None:
        keep = outcome_mask(self._num_qubits, qubits, outcome)
        projected = np.where(keep, self._batch[member], 0.0)
        norm = np.linalg.norm(projected)
        if norm < 1e-15:
            raise ValueError(
                f"outcome {outcome} on qubits {list(qubits)} has zero "
                f"probability in trajectory member {member}"
            )
        self._batch[member] = projected / norm

    # -- conversion -----------------------------------------------------

    def member_statevector(self, member: int) -> Statevector:
        """Dense state of one trajectory member (always a copy — the member
        row stays owned by the batch)."""
        batch = self._require_batch()
        if not 0 <= member < self._batch_size:
            raise ValueError(f"member index {member} out of range")
        return Statevector(self._num_qubits, batch[member])

    def to_statevector(self, copy: bool = True) -> Statevector:
        if self._batch_size != 1:
            raise ValueError(
                "a trajectory batch is an ensemble, not one state; use "
                "member_statevector(m) for individual members"
            )
        return self.member_statevector(0)

    # -- helpers --------------------------------------------------------

    def _require_batch(self) -> np.ndarray:
        if self._batch is None:
            raise RuntimeError("backend not initialised; call initialize() first")
        return self._batch

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TrajectoryNoiseBackend(num_qubits={self._num_qubits}, "
            f"batch_size={self._batch_size}, "
            f"channels={len(self._samplers)})"
        )


def _noisy_trajectory_backend(
    noise=None, batch_size=1, rng_streams=None, readout_error=None
) -> "TrajectoryNoiseBackend":
    return TrajectoryNoiseBackend(
        noise=noise,
        batch_size=batch_size,
        rng_streams=resolve_streams(rng_streams),
        readout_error=readout_error,
    )


register_backend(
    TrajectoryNoiseBackend.name,
    TrajectoryNoiseBackend,
    BackendCapabilities(
        gate_noise=frozenset({"pauli"}),
        native_readout=True,
        dense=True,
        batched=True,
        description="batched Monte-Carlo Pauli-trajectory statevectors",
    ),
    noisy_factory=_noisy_trajectory_backend,
)
