"""Command-line interface.

Subcommands: codes, quantum, product, decode, localize, analyze, simulate,
circuit.  JSON for structured results, CSV for curve data, plain text for
matrices.  Every artifact-producing command writes a RunManifest JSON next
to its outputs with parameters and sha256 digests, so runs are replayable
byte-for-byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys

from . import (__version__, analytics, circuit, classical, decoder, gf2,
               product, quantum, sim)
from .gf2 import GF2Error


def _classical_from_id(code_id: str) -> tuple[classical.ClassicalCode, str]:
    """Resolve ids like hamming:3, hamming3pt, bch:15:3, golay23,
    repetition:3, spc:4; a trailing 'pt' selects P^T (noisy-syndrome) mode."""
    cid = code_id
    hc_mode = "full"
    if cid.endswith("pt"):
        hc_mode = "pt"
        cid = cid[:-2]
    parts = cid.split(":")
    name = parts[0]
    try:
        if name == "hamming" or (name.startswith("hamming") and len(parts) == 1):
            m = int(parts[1]) if len(parts) > 1 else int(name[len("hamming"):])
            return classical.hamming(m), hc_mode
        if name == "bch":
            n, t = int(parts[1]), int(parts[2])
            m = n.bit_length()
            if (1 << m) - 1 != n:
                raise GF2Error(f"bch length {n} is not 2^m - 1")
            return classical.bch(m, t), hc_mode
        if name in ("golay", "golay23"):
            return classical.golay23(), hc_mode
        if name in ("repetition", "rep"):
            return classical.repetition(int(parts[1])), hc_mode
        if name == "spc":
            return classical.single_parity_check(int(parts[1])), hc_mode
    except (IndexError, ValueError) as exc:
        raise GF2Error(f"bad classical code id {code_id!r}") from exc
    raise GF2Error(f"unknown classical code id {code_id!r}")


QUANTUM_REGISTRY = {
    "rep3": quantum.rep3,
    "steane": quantum.steane,
    "color17": quantum.color17,
    "golay": quantum.golay_css,
}


def _quantum_from_id(code_id: str) -> quantum.CssCode:
    ctor = QUANTUM_REGISTRY.get(code_id)
    if ctor is None:
        raise GF2Error(
            f"unknown quantum code id {code_id!r} "
            f"(known: {', '.join(sorted(QUANTUM_REGISTRY))})"
        )
    return ctor()


def _product_from_args(args) -> product.ProductCode:
    c, hc_mode = _classical_from_id(args.c)
    q = _quantum_from_id(args.q)
    return product.ProductCode(c=c, q=q, hc_mode=hc_mode, t_c=args.tc,
                               t_q=args.tq, t_src=args.tsrc)


def _sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _write_manifest(command: str, params: dict, outputs: list[str]) -> None:
    manifest = {
        "command": command,
        "parameters": params,
        "version": __version__,
        "outputs": {path: _sha256_file(path) for path in outputs},
    }
    for path in outputs:
        with open(path + ".manifest.json", "w", encoding="ascii") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")


# -- subcommand handlers ----------------------------------------------------

def cmd_codes(args) -> int:
    code, _ = _classical_from_id(args.code)
    if args.action == "build":
        if not args.out:
            raise GF2Error("codes build requires --out")
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(gf2.to_text(code.H))
        _write_manifest("codes build", {"code": args.code}, [args.out])
        return 0
    info = {"n": code.n, "k": code.k, "d": code.d, "t": code.t, "kind": code.kind}
    if code.k <= 16 and args.brute_force:
        info["brute_force_d"] = classical.minimum_distance(code.G)
    print(json.dumps(info, sort_keys=True))
    return 0


def cmd_quantum(args) -> int:
    q = _quantum_from_id(args.code)
    print(f"[[{q.n},{q.k},{q.d}]] {q.kind}")
    print("HX:")
    print(q.hx if q.hx.rows else "(none)")
    print("HZ:")
    print(q.hz if q.hz.rows else "(none)")
    for etype in ("X", "Z"):
        gens = quantum.normalizer_generators(q, etype)
        print(f"normalizer generators ({etype}-type): "
              + " ".join(str(g) for g in gens))
    return 0


def cmd_product(args) -> int:
    pc = _product_from_args(args)
    if args.action == "build-table":
        if not args.out:
            raise GF2Error("product build-table requires --out")
        table = product.build_lookup_table(pc, args.type,
                                           max_cols=args.max_cols)
        product.save_lookup_table(table, args.out)
        _write_manifest(
            "product build-table",
            {"c": args.c, "q": args.q, "tc": pc.t_c, "tq": pc.t_q,
             "type": args.type, "max_cols": table.max_cols},
            [args.out],
        )
        print(json.dumps({"entries": len(table.keys),
                          "key_bits": table.key_bits}))
        return 0
    info = {
        "L": pc.L, "R": pc.R, "N": pc.N, "t_c": pc.t_c, "t_q": pc.t_q,
        "t_src": pc.t_src, "hc_mode": pc.hc_mode,
        "key_bits": pc.key_bits("X"),
        "table_entries": product.class_E_size(pc),
    }
    print(json.dumps(info, sort_keys=True))
    return 0


def cmd_decode(args) -> int:
    pc = _product_from_args(args)
    table = product.load_lookup_table(args.table, pc)
    if len(args.syndrome) != table.key_bits:
        raise GF2Error(f"syndrome has {len(args.syndrome)} bits, "
                       f"the table's keys have {table.key_bits}")
    key = gf2.bitstring_to_int(args.syndrome)
    radius = 0
    if args.min_distance:  # default: the corruption budget t_C - t_src
        radius = pc.t_c - pc.t_src if args.radius is None else args.radius
        if radius < 0:
            raise GF2Error(f"--radius must be >= 0, got {radius}")
    elif args.radius is not None:
        raise GF2Error("--radius requires --min-distance")
    (status,), (distance,), (row,) = (a.tolist() for a in decoder.nearest_key(
        table, product.as_words([key], table.keys.shape[1]), radius))
    out = {"status": status, "distance": distance}
    if status == "ok":
        (correction,) = product.from_words(table.fixes[[row]])
        out["correction"] = gf2.int_to_bitstring(correction, pc.q.n * pc.L)
    print(json.dumps(out, sort_keys=True))
    return 0


def cmd_localize(args) -> int:
    pc = _product_from_args(args)
    with open(args.xi, encoding="ascii") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise GF2Error(f"{args.xi}: {exc}") from None
    xi = product.ProductSyndrome(gf2.from_text(text))
    res = decoder.localize_bm(pc, xi)
    out = {
        "logical_indices": sorted(res.logical_indices),
        "per_row_supports": [sorted(s) for s in res.per_row_supports],
        "confidence": res.confidence,
    }
    print(json.dumps(out, sort_keys=True))
    return 0


def cmd_analyze(args) -> int:
    if args.what == "table1":
        print(analytics.format_table1())
        return 0
    q = _quantum_from_id(args.q)

    def bch_product(p: float) -> product.ProductCode:  # P^T mode, t_C by choose_bch
        return product.ProductCode(c=analytics.choose_bch(args.L, p, q), q=q, hc_mode="pt")

    if args.what == "overhead":
        pc = bch_product(args.p)
        row = {
            "p": args.p, "L": args.L, "t_c": pc.c.t,
            "syndrome_qubits": analytics.overhead(pc, mode=args.mode),
            "canonical": analytics.canonical_overhead(args.L, q),
            "failure_prob": analytics.failure_probability(args.p, pc),
        }
        if args.csv:
            row["failure_prob"] = f"{row['failure_prob']:.3e}"
            print(",".join(row))
            print(",".join(map(str, row.values())))
        else:
            print(json.dumps(row, sort_keys=True))
        return 0
    lines = ["p,L,t_c,failure_prob"]
    for exp in range(args.pmin_exp, args.pmax_exp + 1):
        p = 10.0 ** -exp
        pc = bch_product(p)
        lines.append(f"{p},{args.L},{pc.c.t},{analytics.failure_probability(p, pc):.6e}")
    print("\n".join(lines))
    return 0


SIM_KEYS = {"c": str, "q": str, "p": (int, float), "shots": int, "seed": int,
            "t_c": int, "t_q": int, "t_src": int, "error_type": str,
            "syndrome_noise": bool, "p_e": (int, float), "decode_mode": str}


def cmd_simulate(args) -> int:
    with open(args.config, encoding="ascii") as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:  # malformed JSON or a non-ASCII byte
            raise GF2Error(f"{args.config}: not a JSON config: {exc}") from exc
    if not isinstance(raw, dict) or not {"c", "q", "p", "shots", "seed"} <= raw.keys():
        raise GF2Error(f"{args.config}: config must be an object with c, q, p, shots, seed")
    unknown = sorted(raw.keys() - SIM_KEYS.keys())
    if unknown:
        raise GF2Error(f"{args.config}: unknown config key(s) {', '.join(unknown)}")
    bad = [key for key, kind in SIM_KEYS.items() if key in raw and (
        not isinstance(raw[key], kind) or isinstance(raw[key], bool) != (kind is bool))]
    if bad:
        raise GF2Error(f"{args.config}: wrong JSON type for {', '.join(bad)}")
    c, hc_mode = _classical_from_id(raw["c"])
    q = _quantum_from_id(raw["q"])
    pc = product.ProductCode(c=c, q=q, hc_mode=hc_mode,
                             t_c=raw.get("t_c", -1), t_q=raw.get("t_q", -1),
                             t_src=raw.get("t_src", 0))
    cfg = sim.TrialConfig(
        pc=pc, p=raw["p"], shots=raw["shots"], seed=raw["seed"],
        error_type=raw.get("error_type", "X"),
        syndrome_noise=raw.get("syndrome_noise", False),
        p_e=raw.get("p_e", 0.0),
        decode_mode=raw.get("decode_mode", "lookup"),
    )
    report = sim.run_trials(cfg)
    blob = json.dumps(dataclasses.asdict(report), indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(blob + "\n")
        _write_manifest("simulate", raw, [args.out])
    print(blob)
    return 0


def cmd_circuit(args) -> int:
    pc = _product_from_args(args)
    if args.shor:
        circ = circuit.build_shor_ft_circuit(pc, args.row, args.type)
    else:
        h = product.product_parity_check(pc, args.type)
        circ = circuit.build_circuit(h)
    if args.format == "json":
        out = {
            "qubits": circ.total_qubits,
            "data_qubits": circ.data_qubits,
            "ancilla_blocks": [{"size": b.size, "kind": b.kind}
                               for b in circ.ancilla_blocks],
            "gates": [{"cx": [c, t]} for c, t in circ.gates],
            "measurements": [{"ancillas": list(ids), "combine": mode}
                             for ids, mode in circ.measurements],
        }
        print(json.dumps(out))
    else:  # dot
        lines = ["digraph circuit {"]
        for c, t in circ.gates:
            lines.append(f"  q{c} -> q{t};")
        lines.append("}")
        print("\n".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qproduct",
        description="classical-quantum product codes: build, decode, analyze",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # code selection shared by product, decode, localize and circuit;
    # -1 radii mean the codes' own (ProductCode's convention)
    code_args = argparse.ArgumentParser(add_help=False)
    code_args.add_argument("--c", required=True)
    code_args.add_argument("--q", required=True)
    code_args.add_argument("--tc", type=int, default=-1)
    code_args.add_argument("--tq", type=int, default=-1)
    code_args.add_argument("--tsrc", type=int, default=0)

    p_codes = sub.add_parser("codes", help="classical code constructors")
    p_codes.add_argument("action", choices=["build", "info"])
    p_codes.add_argument("--code", required=True)
    p_codes.add_argument("--out")
    p_codes.add_argument("--brute-force", action="store_true")
    p_codes.set_defaults(func=cmd_codes)

    p_q = sub.add_parser("quantum", help="CSS code info")
    p_q.add_argument("action", choices=["info"])
    p_q.add_argument("--code", required=True)
    p_q.set_defaults(func=cmd_quantum)

    p_prod = sub.add_parser("product", parents=[code_args],
                            help="product-code tables")
    p_prod.add_argument("action", choices=["build-table", "info"])
    p_prod.add_argument("--type", default="X", choices=["X", "Z"])
    p_prod.add_argument("--max-cols", type=int, default=None)
    p_prod.add_argument("--out")
    p_prod.set_defaults(func=cmd_product)

    p_dec = sub.add_parser("decode", parents=[code_args],
                           help="decode a flattened syndrome")
    p_dec.add_argument("--table", required=True)
    p_dec.add_argument("--syndrome", required=True)
    p_dec.add_argument("--min-distance", action="store_true")
    p_dec.add_argument("--radius", type=int, default=None)
    p_dec.set_defaults(func=cmd_decode)

    p_loc = sub.add_parser("localize", parents=[code_args],
                           help="locate logical qubits with errors")
    p_loc.add_argument("--xi", required=True, help="product syndrome matrix file")
    p_loc.set_defaults(func=cmd_localize)

    p_an = sub.add_parser("analyze", help="closed-form tables and curves")
    p_an.add_argument("what", choices=["table1", "overhead", "failure"])
    p_an.add_argument("--L", type=int, default=127)
    p_an.add_argument("--q", default="color17")
    p_an.add_argument("--p", type=float, default=1e-4)
    p_an.add_argument("--mode", default="plain", choices=["plain", "shor_ft"])
    p_an.add_argument("--csv", action="store_true")
    p_an.add_argument("--pmin-exp", type=int, default=3)
    p_an.add_argument("--pmax-exp", type=int, default=5)
    p_an.set_defaults(func=cmd_analyze)

    p_sim = sub.add_parser("simulate", help="Monte Carlo trials")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out")
    p_sim.set_defaults(func=cmd_simulate)

    p_circ = sub.add_parser("circuit", parents=[code_args],
                            help="emit syndrome-extraction circuits")
    p_circ.add_argument("action", choices=["emit"])
    p_circ.add_argument("--type", default="X", choices=["X", "Z"])
    p_circ.add_argument("--shor", action="store_true")
    p_circ.add_argument("--row", type=int, default=0)
    p_circ.add_argument("--format", default="json", choices=["json", "dot"])
    p_circ.set_defaults(func=cmd_circuit)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (GF2Error, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
