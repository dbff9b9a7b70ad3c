"""Vectorised gate-application kernels shared by the simulation backends.

Every dense gate goes through one kernel on strided views that touches
only the amplitudes the gate can change.  The state is viewed with one
axis of length 2 per qubit; a controlled gate acts as its *base* matrix
where every control is 1, so basic indexing pins the control axes to 1 (a
view, no index array) and the rest of the state is never read.  Pinning
the target axes too gives one slice view per target value, and the base
matrix's structure picks the update: diagonal gates multiply the slices
whose entry is not exactly 1, permutation gates move slices with a phase
multiply, general single-target gates run two vectorised 2x2 updates, and
anything else is one contraction over the target axes.

There is one batched kernel per gate operation, and a single state is a
batch of one: the gate kernels take a C-contiguous ``(B, 2**n)`` stack of
states, mutate it in place and return it.
:class:`~repro.sim.statevector.Statevector` passes its amplitudes as a
``(1, 2**n)`` view and the density-matrix backend its flattened ``rho`` as a
``(1, 4**n)`` view of a ``2n``-qubit state.
``batch[m, i]`` is the amplitude of basis state ``|i>`` of member ``m`` with
bit ``j`` of ``i`` holding the value of qubit ``j`` (little-endian), and
``qubits[0]`` is the least significant operand of ``matrix`` — the same
conventions as :mod:`repro.sim.gates`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "apply_matrix_batched",
    "apply_controlled_batched",
    "apply_pauli_batched",
    "pauli_mask_kernel",
    "marginal_probabilities",
    "outcome_mask",
    "popcount_u64",
    "pack_bits_to_words",
    "unpack_words_to_bits",
    "ints_to_bits",
    "bits_to_ints",
]

# ---------------------------------------------------------------------------
# Bit-packing kernels (shared by the packed tableau and Pauli frames)
# ---------------------------------------------------------------------------
#
# The packed stabilizer engine stores binary symplectic data as uint64 words
# (bit j of word w = entry 64 * w + j, little-endian throughout) and as
# arbitrary-precision Python ints (bit i = entry i).  The helpers below
# convert between the three spellings — 0/1 uint8 matrices, uint64 word
# arrays, and big-int bit-vectors — and give a vectorised popcount.

if hasattr(np, "bitwise_count"):

    def popcount_u64(words: np.ndarray) -> np.ndarray:
        """Per-element popcount of a uint64 array."""
        return np.bitwise_count(words)

else:  # pragma: no cover - NumPy < 2.0 fallback
    _POPCOUNT_TABLE = np.array(
        [bin(value).count("1") for value in range(256)], dtype=np.uint8
    )

    def popcount_u64(words: np.ndarray) -> np.ndarray:
        """Per-element popcount of a uint64 array (byte-table fallback)."""
        as_bytes = np.ascontiguousarray(words).view(np.uint8)
        return (
            _POPCOUNT_TABLE[as_bytes].reshape(words.shape + (8,)).sum(axis=-1)
        )


def pack_bits_to_words(bits: np.ndarray) -> np.ndarray:
    """Pack a ``(rows, n)`` 0/1 matrix into ``(rows, ceil(n/64))`` uint64 words.

    Bit ``j`` of word ``w`` in a row holds column ``64 * w + j``; padding bits
    beyond ``n`` are zero.
    """
    bits = np.ascontiguousarray(bits, dtype=np.uint8)
    rows, n = bits.shape
    num_words = max((n + 63) // 64, 1)
    padded = np.zeros((rows, num_words * 64), dtype=np.uint8)
    padded[:, :n] = bits
    return (
        np.packbits(padded, axis=1, bitorder="little")
        .view(np.dtype("<u8"))
        .astype(np.uint64, copy=False)
    )


def unpack_words_to_bits(words: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`pack_bits_to_words`: ``(rows, W)`` words -> ``(rows, n)`` bits."""
    as_bytes = np.ascontiguousarray(words.astype(np.dtype("<u8"), copy=False)).view(
        np.uint8
    )
    return np.unpackbits(as_bytes, axis=1, bitorder="little")[:, :n]


def ints_to_bits(values: Sequence[int], num_bits: int) -> np.ndarray:
    """Big-int bit-vectors -> a ``(len(values), num_bits)`` 0/1 uint8 matrix."""
    num_bytes = max((num_bits + 7) // 8, 1)
    buffer = b"".join(int(value).to_bytes(num_bytes, "little") for value in values)
    as_bytes = np.frombuffer(buffer, dtype=np.uint8).reshape(len(values), num_bytes)
    return np.unpackbits(as_bytes, axis=1, bitorder="little")[:, :num_bits]


def bits_to_ints(bits: np.ndarray) -> "list[int]":
    """Each row of a ``(rows, num_bits)`` 0/1 matrix -> one big-int bit-vector."""
    packed = np.packbits(
        np.ascontiguousarray(bits, dtype=np.uint8), axis=1, bitorder="little"
    )
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def marginal_probabilities(
    probabilities: np.ndarray,
    num_qubits: int,
    qubits: Sequence[int],
) -> np.ndarray:
    """Marginal distribution over ``qubits`` of a dense probability vector.

    ``probabilities[i]`` is the probability of basis state ``|i>`` (bit ``j``
    of ``i`` = qubit ``j``).  The returned array has length
    ``2 ** len(qubits)`` and index ``v`` holds the probability that the listed
    qubits, read little-endian in the given order, encode ``v``.  Both the
    statevector backend (on ``|amplitude|^2``) and the density-matrix backend
    (on the real diagonal of rho) reduce their readout to this kernel.
    ``qubits`` must already be validated (distinct and in range).
    """
    tensor = probabilities.reshape([2] * num_qubits)
    keep_axes = [num_qubits - 1 - q for q in reversed(qubits)]
    other_axes = tuple(a for a in range(num_qubits) if a not in keep_axes)
    if other_axes:
        tensor = tensor.sum(axis=other_axes)
    # Remaining axes are in ascending original order; re-order them so the
    # first axis is the most significant of the requested qubits.
    remaining = [a for a in range(num_qubits) if a in keep_axes]
    order = [remaining.index(a) for a in keep_axes]
    tensor = np.transpose(tensor, order)
    return tensor.reshape(-1)


def outcome_mask(num_qubits: int, qubits: Sequence[int], value: int) -> np.ndarray:
    """Boolean mask of the basis states on which ``qubits`` encode ``value``.

    ``value`` is read little-endian in the order of ``qubits``; this is the
    projector every collapsing measurement applies.
    """
    indices = np.arange(1 << num_qubits)
    mask = np.ones(1 << num_qubits, dtype=bool)
    for position, qubit in enumerate(qubits):
        mask &= ((indices >> qubit) & 1) == ((value >> position) & 1)
    return mask


def _monomial_structure(
    matrix: np.ndarray,
) -> "tuple[tuple[int, ...], tuple[complex, ...]] | None":
    """``(rows, factors)`` when ``matrix`` has one nonzero per row and column.

    Column ``w`` maps to row ``rows[w]`` scaled by ``factors[w]``: diagonal
    gates (P/S/T/Z/RZ) have ``rows[w] == w``, permutations (X/Y/SWAP) move
    slices.  2x2 matrices take an O(1) scalar test, exact for any entries
    (a zero factor, as in ``[[0, s], [0, 0]]``, is a scaled copy of zero).
    """
    if matrix.shape[0] == 2:
        m00, m01, m10, m11 = matrix.ravel().tolist()
        if m01 == 0 and m10 == 0:
            return (0, 1), (m00, m11)
        if m00 == 0 and m11 == 0:
            return (1, 0), (m10, m01)
        return None
    nonzero = matrix != 0
    if (nonzero.sum(axis=0) != 1).any() or (nonzero.sum(axis=1) != 1).any():
        return None
    rows = nonzero.argmax(axis=0)
    factors = matrix[rows, np.arange(rows.size)]
    return tuple(rows.tolist()), tuple(factors.tolist())


def _scaled_copy(destination: np.ndarray, source: np.ndarray, factor: complex) -> None:
    if factor == 1:
        destination[...] = source
    else:
        np.multiply(source, factor, out=destination)


def _apply_monomial(parts: list, rows: tuple, factors: tuple) -> None:
    """``new[rows[w]] = factors[w] * old[w]`` over disjoint slice views.

    Fixed points multiply in place (and are skipped when the factor is
    exactly 1); each permutation cycle saves one slice and shifts the rest.
    """
    source_of = {row: column for column, row in enumerate(rows)}
    done = [False] * len(rows)
    for start, row in enumerate(rows):
        if done[start]:
            continue
        done[start] = True
        if row == start:
            if factors[start] != 1:
                parts[start] *= factors[start]
            continue
        saved = parts[start].copy()
        target = start
        while source_of[target] != start:
            source = source_of[target]
            _scaled_copy(parts[target], parts[source], factors[source])
            done[source] = True
            target = source
        _scaled_copy(parts[target], saved, factors[start])


def _apply_2x2(lower: np.ndarray, upper: np.ndarray, matrix: np.ndarray) -> None:
    """A general single-target gate on its two slice views."""
    m00, m01, m10, m11 = matrix.ravel().tolist()
    new_lower = m00 * lower
    new_lower += m01 * upper
    new_upper = m10 * lower
    new_upper += m11 * upper
    lower[...] = new_lower
    upper[...] = new_upper


def _contract(
    view: np.ndarray, index: list, matrix: np.ndarray, axes: "list[int]"
) -> None:
    """A general gate as one contraction over the target ``axes`` (least
    significant operand first) of ``view[index]``: moved to the back, most
    significant first, each row of the reshaped copy is one amplitude group
    in the little-endian order of ``matrix``."""
    k = len(axes)
    moved = np.moveaxis(view[tuple(index)], axes[::-1], range(-k, 0))
    groups = moved.reshape(-1, 1 << k)
    moved[...] = (groups @ matrix.T).reshape(moved.shape)


def _apply_batched(
    batch: np.ndarray,
    num_qubits: int,
    matrix: np.ndarray,
    controls: Sequence[int],
    targets: Sequence[int],
) -> np.ndarray:
    """The one dense gate kernel: ``matrix`` on ``targets`` where all controls are 1.

    ``batch`` is viewed as ``(B,) + (2,) * n`` (qubit ``q`` is axis
    ``n - q``); basic indexing pins the control axes to 1 and the target
    axes to each value, giving views with no index array.  Monomial
    matrices cost only slice multiplies and copies, general single-target
    gates two vectorised 2x2 updates, and anything else one contraction.
    """
    view = batch.reshape((batch.shape[0],) + (2,) * num_qubits)
    index: list = [slice(None)] * (num_qubits + 1)
    for control in controls:
        index[num_qubits - control] = slice(1, 2)
    axes = [num_qubits - target for target in targets]
    structure = _monomial_structure(matrix)
    if structure is None and len(axes) != 1:
        _contract(view, index, matrix, axes)
        return batch
    parts = []
    for value in range(1 << len(axes)):
        for bit, axis in enumerate(axes):
            index[axis] = (value >> bit) & 1
        parts.append(view[tuple(index)])
    if structure is None:
        _apply_2x2(parts[0], parts[1], matrix)
    else:
        _apply_monomial(parts, *structure)
    return batch


def apply_matrix_batched(
    batch: np.ndarray,
    num_qubits: int,
    matrix: np.ndarray,
    qubits: Sequence[int],
) -> np.ndarray:
    """Apply one unitary to ``qubits`` of every member of a ``(B, 2**n)`` batch.

    This is the hot path of every dense engine: one trajectory plan walk
    carries the whole ensemble, so each gate is a single vectorised kernel
    call over all ``B`` members instead of ``B`` separate walks, and single
    states run as ``B = 1``.  ``batch`` must be C-contiguous; it is mutated
    in place and returned.
    """
    return _apply_batched(batch, num_qubits, matrix, (), qubits)


def apply_controlled_batched(
    batch: np.ndarray,
    num_qubits: int,
    matrix: np.ndarray,
    controls: Sequence[int],
    targets: Sequence[int],
) -> np.ndarray:
    """Apply ``matrix`` on ``targets`` where every control bit is 1, per member.

    The dense controlled unitary is never materialised: the control axes
    are pinned to 1, so amplitudes outside the control-satisfied subspace
    (the identity part of the controlled gate) are never read or written.
    """
    return _apply_batched(batch, num_qubits, matrix, controls, targets)


def apply_pauli_batched(
    batch: np.ndarray, qubit: int, paulis: np.ndarray
) -> np.ndarray:
    """Apply a per-member single-qubit Pauli (0=I, 1=X, 2=Y, 3=Z) to ``qubit``.

    One trajectory noise event: member ``m`` receives the sampled Pauli
    ``paulis[m]``.  ``Y`` is applied as ``i * X * Z`` so per-member global
    phases stay exact (they are unobservable but keep trajectory states
    bit-comparable with reference simulations).
    """
    paulis = np.asarray(paulis)
    view = batch.reshape(batch.shape[0], -1, 2, 1 << qubit)
    z_members = (paulis == 2) | (paulis == 3)
    if z_members.any():
        view[z_members, :, 1, :] *= -1.0
    x_members = (paulis == 1) | (paulis == 2)
    if x_members.any():
        view[x_members] = view[x_members][:, :, ::-1, :]
    y_members = paulis == 2
    if y_members.any():
        batch[y_members] *= 1j
    return batch


def _index_parity(values: np.ndarray) -> np.ndarray:
    """Parity of the set bits of each integer (vectorised popcount & 1)."""
    parity = values.astype(np.int64)
    for shift in (32, 16, 8, 4, 2, 1):
        parity = parity ^ (parity >> shift)
    return parity & 1


def pauli_mask_kernel(
    data: np.ndarray, x_mask: int, z_mask: int
) -> np.ndarray:
    """Apply the Pauli string with symplectic masks to a dense state.

    Returns a **new** array: ``out[j ^ x_mask] = i^y (-1)^parity(z & j)
    data[j]`` where ``y`` counts the qubits with both masks set (``Y = iXZ``
    per qubit).  The stabilizer backend uses it to project onto its
    stabilizers when densifying, and the hybrid backend to materialise
    per-member trajectory states from the tableau state plus each frame.
    """
    indices = np.arange(data.shape[0])
    signs = 1.0 - 2.0 * _index_parity(indices & np.int64(z_mask))
    y_count = int(bin(x_mask & z_mask).count("1"))
    out = np.empty_like(data)
    out[indices ^ x_mask] = (1j ** y_count) * signs * data
    return out
