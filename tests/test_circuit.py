"""CNOT extraction circuits, Pauli propagation, Shor-style fault tolerance."""

import itertools

import pytest

from qproduct import circuit, classical, gf2, product, quantum
from qproduct.circuit import PauliFrame, SyndromeCircuit
from qproduct.gf2 import BitMatrix, GF2Error
from qproduct.product import ProductCode

from helpers import to_lists, verification_matrix


def desk_instance():
    return ProductCode(classical.hamming(3), quantum.rep3(), hc_mode="pt")


def desk_circuit():
    pc = desk_instance()
    return pc, circuit.build_circuit(product.product_parity_check(pc, "X"))


def test_build_circuit_structure():
    pc, c = desk_circuit()
    h = product.product_parity_check(pc, "X")
    assert c.data_qubits == 12
    assert len(c.ancilla_blocks) == 6 and c.ancilla_qubits == 6
    assert len(c.gates) == sum(h.row_weights())
    assert all(kind == "single" for _, kind in c.measurements)
    # every gate targets the ancilla of its own row
    for j, anc in c.gates:
        assert 0 <= j < 12 and 12 <= anc < 18


def test_circuit_validation():
    with pytest.raises(GF2Error, match="out of range"):
        SyndromeCircuit(data_qubits=2, ancilla_blocks=(),
                        gates=((0, 5),), measurements=())
    with pytest.raises(GF2Error, match="duplicate"):
        SyndromeCircuit(data_qubits=2,
                        ancilla_blocks=(circuit.AncillaBlock(1, "bare"),),
                        gates=((0, 2), (0, 2)), measurements=())


def test_propagate_worked_examples():
    _, c = desk_circuit()
    for bits, expect in [
        (1 << 1, [1, 0, 0, 0, 1, 0]),                 # X on qubit 2
        (1 << 6, [1, 1, 1, 1, 0, 0]),                 # X on qubit 7
        ((1 << 0) | (1 << 9), [1, 1, 1, 1, 0, 0]),    # its degenerate alias
    ]:
        out, final = circuit.propagate(c, PauliFrame(x=bits))
        assert out == expect
        # extraction leaves the data error untouched
        assert circuit.data_frame(c, final).x == bits


def test_propagate_is_linear():
    _, c = desk_circuit()
    a, b = PauliFrame(x=0b1010), PauliFrame(x=0b0100100)
    out_a, _ = circuit.propagate(c, a)
    out_b, _ = circuit.propagate(c, b)
    out_ab, _ = circuit.propagate(c, PauliFrame(x=a.x ^ b.x))
    assert out_ab == [u ^ v for u, v in zip(out_a, out_b)]


def test_data_z_errors_invisible_to_x_extraction():
    _, c = desk_circuit()
    out, final = circuit.propagate(c, PauliFrame(z=0b111))
    assert out == [0] * 6
    # Z propagates from the ancilla target back onto controls only
    assert circuit.data_frame(c, final).z == 0b111


@pytest.mark.parametrize("make_pc", [
    desk_instance,
    lambda: ProductCode(classical.hamming(4), quantum.steane()),
])
def test_circuit_matches_matrix_syndrome(make_pc):
    """Measured outcomes equal H (x) H_Q applied to the packed pattern for
    every weight-1 and a stride of weight-2 patterns."""
    pc = make_pc()
    h = product.product_parity_check(pc, "X")
    c = circuit.build_circuit(h)
    singles = [1 << i for i in range(pc.N)]
    pairs = [(1 << i) | (1 << j)
             for i, j in itertools.combinations(range(pc.N), 2)]
    for bits in singles + pairs[::7]:
        out, _ = circuit.propagate(c, PauliFrame(x=bits))
        flat = gf2.mul(h, BitMatrix([bits], pc.N).transpose())
        assert out == [flat.get(i, 0) for i in range(h.rows)]


# -- Shor-style fault-tolerant circuits --------------------------------------

def steane_instance():
    return ProductCode(classical.bch(4, 3), quantum.steane(), hc_mode="pt")


def test_shor_ft_structure():
    pc = steane_instance()
    c = circuit.build_shor_ft_circuit(pc, 0)
    # weight-4 stabilizer: four-qubit cat block, one parity measurement
    assert c.ancilla_blocks == (circuit.AncillaBlock(4, "cat"),)
    assert c.measurements[0][1] == "parity"
    # every data qubit in the circuit touches exactly one ancilla qubit
    touched = {}
    for d, a in c.gates:
        assert d not in touched
        touched[d] = a
    with pytest.raises(GF2Error, match="out of range"):
        circuit.build_shor_ft_circuit(pc, pc.R * 3)


def test_shor_ft_outcome_matches_product_row():
    pc = steane_instance()
    h = product.product_parity_check(pc, "X")
    s = pc.q.hz.rows
    for row in (0, 7, pc.R * s - 1):
        c = circuit.build_shor_ft_circuit(pc, row)
        r, i = divmod(row, s)
        kron_row = r * s + i
        for bits in [1 << 3, (1 << 0) | (1 << 40)]:
            out, _ = circuit.propagate(c, PauliFrame(x=bits))
            flat = gf2.mul(h, BitMatrix([bits], pc.N).transpose())
            assert out == [flat.get(kron_row, 0)]


def _inject_and_finish(c, k, frame):
    """Propagate a fault placed after gate k through the rest of the circuit."""
    rest = SyndromeCircuit(data_qubits=c.data_qubits,
                           ancilla_blocks=c.ancilla_blocks,
                           gates=c.gates[k:], measurements=c.measurements)
    return circuit.propagate(rest, frame)


def column_weights(pc, bits):
    mask = (1 << pc.q.n) - 1
    return [((bits >> (ell * pc.q.n)) & mask).bit_count() for ell in range(pc.L)]


def test_shor_ft_single_fault_bounded():
    """Any single X, Z or Y fault at any circuit location leaves residual
    data errors of weight at most one per logical qubit and type."""
    pc = steane_instance()
    c = circuit.build_shor_ft_circuit(pc, 0)
    for k in range(len(c.gates) + 1):
        for q in range(c.total_qubits):
            for fx, fz in ((1, 0), (0, 1), (1, 1)):
                frame = PauliFrame(x=fx << q, z=fz << q)
                _, final = _inject_and_finish(c, k, frame)
                data = circuit.data_frame(c, final)
                assert max(column_weights(pc, data.x), default=0) <= 1
                assert max(column_weights(pc, data.z), default=0) <= 1


def test_bare_circuit_y_fault_counterexample():
    """On the bare circuit a single ancilla Y fault mid-row spreads weight-2
    Z errors onto a logical qubit, which Shor-style blocks prevent."""
    pc = steane_instance()
    c = circuit.build_circuit(product.product_parity_check(pc, "X"))
    anc = c.data_qubits  # ancilla of the first parity row
    # fault after the first two of that ancilla's couplings
    k = [idx for idx, (_, a) in enumerate(c.gates) if a == anc][2]
    _, final = _inject_and_finish(c, k, PauliFrame(x=1 << anc, z=1 << anc))
    data = circuit.data_frame(c, final)
    assert max(column_weights(pc, data.z)) >= 2


def test_verification_matrix():
    v = verification_matrix(4)
    assert to_lists(v) == [[1, 0, 0, 1]]
    with pytest.raises(GF2Error):
        verification_matrix(1)
