"""CNOT syndrome-extraction circuits and Pauli-frame propagation.

Builds bare circuits straight from a parity-check matrix (one ancilla per
row) and Shor-style fault-tolerant circuits (one entangled ancilla block
per product stabilizer, each data qubit touching a single ancilla qubit),
then tracks X/Z error frames through the gates to obtain measurement
outcomes and residual data errors.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import gf2
from .gf2 import BitMatrix, GF2Error
from .product import ProductCode


@dataclass(frozen=True)
class AncillaBlock:
    size: int
    kind: str  # 'bare' | 'bell' | 'cat'


@dataclass(frozen=True)
class PauliFrame:
    """Packed X/Z error record over all circuit qubits (data first)."""

    x: int = 0
    z: int = 0


@dataclass(frozen=True)
class SyndromeCircuit:
    """Ordered CNOT list with ancilla blocks and parity measurements.

    Qubit ids: data qubits are 0..data_qubits-1, ancilla qubits follow in
    block order.  Each measurement combines the Z-basis outcomes of its
    ancilla ids ('single' for one ancilla, 'parity' for a block).
    """

    data_qubits: int
    ancilla_blocks: tuple[AncillaBlock, ...]
    gates: tuple[tuple[int, int], ...]  # (control, target)
    measurements: tuple[tuple[tuple[int, ...], str], ...]

    @property
    def ancilla_qubits(self) -> int:
        return sum(b.size for b in self.ancilla_blocks)

    @property
    def total_qubits(self) -> int:
        return self.data_qubits + self.ancilla_qubits

    def __post_init__(self):
        seen = set()
        for c, t in self.gates:
            if not (0 <= c < self.total_qubits and 0 <= t < self.total_qubits):
                raise GF2Error(f"gate ({c}, {t}) endpoint out of range")
            if (c, t) in seen:
                raise GF2Error(f"duplicate coupling ({c}, {t})")
            seen.add((c, t))


def build_circuit(h: BitMatrix) -> SyndromeCircuit:
    """Bare extraction circuit: one ancilla per parity row.

    A CNOT runs from data qubit j to the row's ancilla exactly when
    entry (i, j) of the matrix is 1; gates are emitted row-major.
    """
    gates = []
    measurements = []
    for i in range(h.rows):
        anc = h.cols + i
        for j in range(h.cols):
            if h.get(i, j):
                gates.append((j, anc))
        measurements.append(((anc,), "single"))
    return SyndromeCircuit(
        data_qubits=h.cols,
        ancilla_blocks=tuple(AncillaBlock(1, "bare") for _ in range(h.rows)),
        gates=tuple(gates),
        measurements=tuple(measurements),
    )


def propagate(c: SyndromeCircuit, frame: PauliFrame) -> tuple[list[int], PauliFrame]:
    """Push a Pauli frame through the circuit.

    CNOT conjugation copies X from control to target and Z from target to
    control.  Returns the Z-basis measurement outcomes (block parity of
    accumulated X on the ancillas) and the final frame.
    """
    x, z = frame.x, frame.z
    for ctrl, tgt in c.gates:
        if (x >> ctrl) & 1:
            x ^= 1 << tgt
        if (z >> tgt) & 1:
            z ^= 1 << ctrl
    outcomes = []
    for ids, _combine in c.measurements:
        parity = 0
        for a in ids:
            parity ^= (x >> a) & 1
        outcomes.append(parity)
    return outcomes, PauliFrame(x=x, z=z)


def data_frame(c: SyndromeCircuit, frame: PauliFrame) -> PauliFrame:
    """Restrict a frame to the data qubits (residual error after extraction)."""
    mask = (1 << c.data_qubits) - 1
    return PauliFrame(x=frame.x & mask, z=frame.z & mask)


def build_shor_ft_circuit(pc: ProductCode, stabilizer_row: int,
                          error_type: str = "X") -> SyndromeCircuit:
    """Fault-tolerant circuit for one row of the product parity check.

    Row indices follow the Kronecker row order (classical row major).  The
    single bare ancilla is replaced by a w-qubit entangled block, w being
    the quantum stabilizer's weight; the data qubit at position j of the
    stabilizer's support, within every coupled logical qubit, touches only
    ancilla qubit j.  The syndrome bit is the block's measurement parity.
    """
    hq = pc.q.check_matrix(error_type)
    s = hq.rows
    if not 0 <= stabilizer_row < pc.R * s:
        raise GF2Error(
            f"stabilizer_row {stabilizer_row} out of range for {pc.R * s} rows"
        )
    r, i = divmod(stabilizer_row, s)
    qsupp = gf2.support(hq.row(i))
    w = len(qsupp)
    n = pc.q.n
    data = n * pc.L
    gates = []
    for ell in gf2.support(pc.h_c.row(r)):
        for j, qpos in enumerate(qsupp):
            gates.append((ell * n + qpos, data + j))
    block_ids = tuple(range(data, data + w))
    return SyndromeCircuit(
        data_qubits=data,
        ancilla_blocks=(AncillaBlock(w, "bell" if w == 2 else "cat"),),
        gates=tuple(gates),
        measurements=((block_ids, "parity"),),
    )
