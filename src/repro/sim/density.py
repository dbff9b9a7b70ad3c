"""Density-matrix utilities: partial trace, purity and exact entanglement checks.

The statistical assertions of the paper *infer* entanglement from measurement
samples.  For validating the assertion machinery itself we need ground truth:
given the simulated statevector, is a pair of registers exactly entangled or
exactly in a product state?  The reduced density matrix answers that — a
subsystem of a pure state is itself pure if and only if the state factorises
across that cut.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .statevector import Statevector, _validated_qubits

__all__ = [
    "DensityMatrix",
    "reduced_density_matrix",
    "purity",
    "entanglement_entropy",
    "is_product_state",
    "schmidt_coefficients",
]


class DensityMatrix:
    """A (possibly mixed) quantum state represented by its density matrix."""

    __slots__ = ("num_qubits", "data")

    def __init__(self, data: np.ndarray, num_qubits: int | None = None):
        data = np.asarray(data, dtype=complex)
        if data.ndim != 2 or data.shape[0] != data.shape[1]:
            raise ValueError("density matrix must be square")
        dim = data.shape[0]
        inferred = int(round(np.log2(dim)))
        if 1 << inferred != dim:
            raise ValueError("density matrix dimension is not a power of two")
        if num_qubits is not None and num_qubits != inferred:
            raise ValueError("num_qubits inconsistent with matrix dimension")
        self.num_qubits = inferred
        self.data = data.copy()

    @classmethod
    def from_statevector(cls, state: Statevector) -> "DensityMatrix":
        vec = state.data.reshape(-1, 1)
        return cls(vec @ vec.conj().T)

    def purity(self) -> float:
        return float(np.real(np.trace(self.data @ self.data)))

    def trace(self) -> complex:
        return complex(np.trace(self.data))

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.data)

    def probabilities(self) -> np.ndarray:
        return np.real(np.diag(self.data)).copy()

    def is_valid(self, atol: float = 1e-9) -> bool:
        """Hermitian, unit trace, positive semidefinite (within tolerance)."""
        hermitian = np.allclose(self.data, self.data.conj().T, atol=atol)
        unit_trace = abs(self.trace() - 1.0) <= atol
        positive = bool(np.all(self.eigenvalues() >= -atol))
        return bool(hermitian and unit_trace and positive)


def _axes_for_qubits(qubits: Sequence[int], num_qubits: int) -> list[int]:
    return [num_qubits - 1 - q for q in qubits]


def reduced_density_matrix(state: Statevector, keep: Sequence[int]) -> DensityMatrix:
    """Partial trace of a pure state down to the qubits in ``keep``.

    The returned density matrix is indexed little-endian in the order the
    qubits appear in ``keep``.
    """
    n = state.num_qubits
    keep = _validated_qubits(keep, n)
    traced = [q for q in range(n) if q not in keep]

    tensor = state.data.reshape([2] * n)
    # Order the axes so that the kept qubits (most significant first) come
    # before the traced qubits; then the matrix reshape below is direct.
    keep_axes = _axes_for_qubits(list(reversed(keep)), n)
    traced_axes = _axes_for_qubits(list(reversed(traced)), n)
    tensor = np.transpose(tensor, keep_axes + traced_axes)
    keep_dim = 1 << len(keep)
    traced_dim = 1 << len(traced)
    matrix = tensor.reshape(keep_dim, traced_dim)
    rho = matrix @ matrix.conj().T
    return DensityMatrix(rho)


def purity(state: Statevector, keep: Sequence[int]) -> float:
    """Purity of the reduced state on ``keep`` (1.0 iff unentangled with the rest)."""
    return reduced_density_matrix(state, keep).purity()


def schmidt_coefficients(state: Statevector, subsystem: Sequence[int]) -> np.ndarray:
    """Schmidt coefficients (singular values) across the given bipartition."""
    rho = reduced_density_matrix(state, subsystem)
    eigenvalues = np.clip(np.real(np.linalg.eigvalsh(rho.data)), 0.0, None)
    return np.sqrt(np.sort(eigenvalues)[::-1])


def entanglement_entropy(state: Statevector, subsystem: Sequence[int]) -> float:
    """Von Neumann entropy (in bits) of the reduced state on ``subsystem``."""
    rho = reduced_density_matrix(state, subsystem)
    eigenvalues = np.clip(np.real(np.linalg.eigvalsh(rho.data)), 0.0, 1.0)
    nonzero = eigenvalues[eigenvalues > 1e-12]
    return float(-(nonzero * np.log2(nonzero)).sum())


def is_product_state(
    state: Statevector,
    subsystem_a: Sequence[int],
    subsystem_b: Sequence[int] | None = None,
    atol: float = 1e-9,
) -> bool:
    """Exact check that ``subsystem_a`` is unentangled from the rest of the state.

    ``subsystem_b`` is accepted for symmetry with the assertion API but the
    check only needs one side of the bipartition: a pure global state
    factorises across a cut iff either reduced state is pure.
    """
    del subsystem_b  # the complement is implied for a pure global state
    return purity(state, subsystem_a) >= 1.0 - atol
