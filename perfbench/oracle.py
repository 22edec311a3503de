"""Reference computations the benchmark checks qproduct against.

Nothing here imports qproduct: the codes are rebuilt from their
definitions (BCH generator polynomials, the Steane and [[17,1,5]] color
check matrices) so that a fault in the program's construction or decoding
shows up as a disagreement rather than being reproduced by the oracle.

Bit conventions follow the program's documented formats:
  * a classical parity check column is an int, bit i = row i;
  * an error pattern is one n-bit int per logical column;
  * a flattened product syndrome key has bit i*R + r = Xi[i, r];
  * a correction bit string has character l*n + q = entry (q, l).
"""

from __future__ import annotations

import json
import math

# Same primitive polynomials as the program documents for its BCH codes
# (bit i = coefficient of x^i); they fix the codeword bit patterns.
PRIMITIVE_POLYS = {3: 0b1011, 4: 0b10011, 7: 0b10001001, 10: 0b10000001001}


def _rows(bit_strings):
    """Check-matrix rows as ints; character j of a string is column j."""
    return tuple(int(s[::-1], 2) for s in bit_strings)


STEANE_H = _rows(["1001011", "0101101", "0011110"])
COLOR17_H = _rows([
    "11110000000000000", "10101100000000000", "00001100110000000",
    "00000011001100000", "00000000110011000", "00000000001100110",
    "00000001000100011", "00110110011001100",
])


# -- classical codes ----------------------------------------------------------

def _gf_tables(m: int) -> tuple[list[int], list[int]]:
    order = (1 << m) - 1
    exp = [0] * (2 * order)
    log = [0] * (1 << m)
    x = 1
    for i in range(order):
        exp[i] = exp[i + order] = x
        log[x] = i
        x <<= 1
        if x >> m:
            x ^= PRIMITIVE_POLYS[m]
    return exp, log


def bch_generator(m: int, t: int) -> int:
    """Generator polynomial of the narrow-sense binary BCH(2^m - 1, t) code:
    the product of the distinct minimal polynomials of alpha^1..alpha^(2t)."""
    exp, log = _gf_tables(m)
    order = (1 << m) - 1
    roots: set[int] = set()
    for i in range(1, 2 * t + 1):
        j = i % order
        while j not in roots:
            roots.add(j)
            j = 2 * j % order
    poly = [1]  # GF(2^m) coefficients, low degree first
    for j in sorted(roots):
        root = exp[j]
        nxt = [0] * (len(poly) + 1)
        for d, c in enumerate(poly):
            nxt[d + 1] ^= c
            if c:
                nxt[d] ^= exp[log[c] + log[root]]
        poly = nxt
    if any(c not in (0, 1) for c in poly):
        raise ValueError("generator polynomial is not binary")
    return sum(1 << d for d, c in enumerate(poly) if c)


def _polymod(a: int, g: int) -> int:
    dg = g.bit_length() - 1
    while a.bit_length() - 1 >= dg:
        a ^= g << (a.bit_length() - 1 - dg)
    return a


class BchCode:
    """Systematic BCH code: parity bits first, message bits last."""

    def __init__(self, m: int, t: int):
        self.n = (1 << m) - 1
        self.t = t
        g = bch_generator(m, t)
        self.r = g.bit_length() - 1
        self.k = self.n - self.r
        # parity[j] = x^(r+j) mod g: column j of P^T, row j of P
        self.parity = [_polymod(1 << (self.r + j), g) for j in range(self.k)]

    def hc_columns(self, mode: str) -> list[int]:
        """Columns of H_C: P^T in 'pt' mode, H = [I | P^T] in 'full' mode."""
        if mode == "pt":
            return list(self.parity)
        return [1 << i for i in range(self.r)] + list(self.parity)


# -- product syndromes ----------------------------------------------------------

def column_syndromes(check: tuple[int, ...], columns: list[int]) -> list[int]:
    """Quantum syndrome of each column pattern; bit i = check row i."""
    out = []
    for col in columns:
        s = 0
        for i, row in enumerate(check):
            s |= ((row & col).bit_count() & 1) << i
        out.append(s)
    return out


def product_rows(check: tuple[int, ...], hc_cols: list[int],
                 columns: list[int]) -> tuple[list[int], list[int]]:
    """(m_i, Xi_i) for every stabilizer row i.

    m_i is row i of H_Q eps (bit l set when column l's syndrome has bit
    i); Xi_i = sum over l in m_i of H_C column l, as an R-bit int.
    """
    syn = column_syndromes(check, columns)
    m_rows, xi_rows = [], []
    for i in range(len(check)):
        m = xi = 0
        for ell, s in enumerate(syn):
            if (s >> i) & 1:
                m |= 1 << ell
                xi ^= hc_cols[ell]
        m_rows.append(m)
        xi_rows.append(xi)
    return m_rows, xi_rows


def flatten_key(xi_rows: list[int], r: int) -> int:
    key = 0
    for i, row in enumerate(xi_rows):
        key |= row << (i * r)
    return key


def bits_to_str(value: int, width: int) -> str:
    return "".join(str((value >> i) & 1) for i in range(width))


def matrix_text(rows: list[int], cols: int) -> str:
    """The program's text matrix format: 'rows cols' then 0/1 rows."""
    lines = [f"{len(rows)} {cols}"] + [bits_to_str(r, cols) for r in rows]
    return "\n".join(lines) + "\n"


def support(value: int) -> list[int]:
    out = []
    while value:
        low = value & -value
        out.append(low.bit_length() - 1)
        value ^= low
    return out


def rowspace(rows: tuple[int, ...]) -> set[int]:
    space = {0}
    for b in rows:
        space |= {s ^ b for s in space}
    return space


# -- analytic models ------------------------------------------------------------

def binomial_tail(p: float, n: int, t: int) -> float:
    """P(X > t) for X ~ Binomial(n, p)."""
    return math.fsum(math.comb(n, w) * p ** w * (1 - p) ** (n - w)
                     for w in range(t + 1, n + 1))


def class_e_failure(p: float, n: int, L: int, t_q: int, t_c: int) -> float:
    """Exact P(pattern outside class E) for i.i.d. flips at rate p:
    class E = every column weight <= t_q and at most t_c columns hit."""
    hit_ok = math.fsum(math.comb(n, w) * p ** w * (1 - p) ** (n - w)
                       for w in range(1, t_q + 1))
    clean = (1 - p) ** n
    inside = math.fsum(math.comb(L, c) * hit_ok ** c * clean ** (L - c)
                       for c in range(t_c + 1))
    return 1.0 - inside


def class_e_size(n: int, L: int, t_q: int, max_cols: int) -> int:
    per_col = sum(math.comb(n, w) for w in range(1, t_q + 1))
    return sum(math.comb(L, c) * per_col ** c for c in range(max_cols + 1))


def pf_closed_form(p: float, n: int, t_q: int, L: int, t_c: int) -> float:
    """P_F = L P1 + P2 - L P1 P2 (the paper's class-E failure bound)."""
    p1 = binomial_tail(p, n, t_q)
    p2 = binomial_tail(1 - (1 - p) ** n, L, t_c)
    return L * p1 + p2 - L * p1 * p2


# -- per-operation checks (each returns a list of problems; empty = accepted) ---

def check_report(report, shots: int, lookup_mode: bool) -> list[str]:
    """Invariants of a sim TrialReport: every failure charged to one cause."""
    problems = []
    causes = {k: v for k, v in report.breakdown.items() if k != "degenerate_hits"}
    if report.shots != shots:
        problems.append(f"report.shots {report.shots} != requested {shots}")
    if any(v < 0 for v in report.breakdown.values()):
        problems.append(f"negative breakdown count {report.breakdown}")
    if sum(causes.values()) != report.failures:
        problems.append(f"causes {causes} do not sum to failures {report.failures}")
    if not 0 <= report.failures <= report.shots:
        problems.append(f"failures {report.failures} outside [0, {report.shots}]")
    if lookup_mode and report.failures != report.breakdown.get("class_misses", 0):
        # exact lookup restores every class-E pattern
        problems.append(f"lookup decode failed inside class E: {report.breakdown}")
    return problems


def check_rate(failures: int, shots: int, p_model: float, z: float = 6.0) -> list[str]:
    """Binomial consistency of an empirical failure count with the model."""
    mean = shots * p_model
    sd = math.sqrt(shots * p_model * (1 - p_model))
    if abs(failures - mean) > z * sd + 1:
        return [f"{failures} failures in {shots} shots; class-E model "
                f"expects {mean:.1f} +- {sd:.1f}"]
    return []


def check_localization(m_rows: list[int], flip_rows: list[int],
                       supports, flips=None) -> list[str]:
    """Per-row logical supports (and syndrome flips when reported) must
    equal the injected ones; only valid inside the decoding radius."""
    problems = []
    if len(supports) != len(m_rows):
        return [f"{len(supports)} rows decoded, expected {len(m_rows)}"]
    for i, (m, f) in enumerate(zip(m_rows, flip_rows)):
        if sorted(supports[i]) != support(m):
            problems.append(f"row {i}: support {sorted(supports[i])} != {support(m)}")
        if flips is not None and sorted(flips[i]) != support(f):
            problems.append(f"row {i}: flips {sorted(flips[i])} != {support(f)}")
    return problems


def within_radius(m_rows: list[int], flip_rows: list[int], t: int) -> bool:
    return all(m.bit_count() + f.bit_count() <= t
               for m, f in zip(m_rows, flip_rows))


def check_decode(stdout: str, query: int, injected: list[int],
                 check: tuple[int, ...], stab_space: set[int],
                 hc_cols: list[int], n: int, r: int) -> list[str]:
    """`qproduct decode` output: status ok, the correction reproduces the
    queried syndrome and is stabilizer-equivalent to the injected pattern."""
    out = json.loads(stdout)
    if out.get("status") != "ok":
        return [f"decode status {out.get('status')!r} for a class-E syndrome"]
    bits = out.get("correction", "")
    L = len(hc_cols)
    if len(bits) != n * L or set(bits) - {"0", "1"}:
        return [f"malformed correction {bits!r}"]
    value = int(bits[::-1], 2)
    mask = (1 << n) - 1
    columns = [(value >> (ell * n)) & mask for ell in range(L)]
    problems = []
    _, xi = product_rows(check, hc_cols, columns)
    if flatten_key(xi, r) != query:
        problems.append("correction syndrome differs from the query")
    if any((a ^ b) not in stab_space for a, b in zip(columns, injected)):
        problems.append("correction is not stabilizer-equivalent to the injected error")
    return problems


def check_build(stdout: str, path: str, entries: int, key_bits: int) -> list[str]:
    """`qproduct product build-table`: reported and stored sizes."""
    out = json.loads(stdout)
    problems = []
    if out != {"entries": entries, "key_bits": key_bits}:
        problems.append(f"build-table reported {out}, expected {entries} entries")
    with open(path, encoding="ascii") as fh:
        header = dict(tok.split("=", 1) for tok in fh.readline().split()[1:])
        lines = sum(1 for _ in fh)
    if header.get("entries") != str(entries) or lines != entries:
        problems.append(f"table file holds {lines} records, header {header.get('entries')}")
    return problems


def check_analyze(stdout: str, expected: dict, pf: float) -> list[str]:
    """`qproduct analyze overhead`: paper anchors and the closed-form P_F."""
    out = json.loads(stdout)
    problems = [f"{k}={out.get(k)!r}, expected {v!r}"
                for k, v in expected.items() if out.get(k) != v]
    got = out.get("failure_prob")
    if not isinstance(got, float) or not math.isclose(got, pf, rel_tol=1e-9):
        problems.append(f"failure_prob {got!r} != closed form {pf!r}")
    return problems
