"""End-to-end command-line interface behavior via main()."""

import json

import pytest

from qproduct import cli, classical, gf2, product, quantum
from qproduct.gf2 import GF2Error

from helpers import extract_syndrome, pattern_from_columns, pattern_from_packed, syndrome_key


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classical_id_resolution():
    code, mode = cli._classical_from_id("hamming:3")
    assert (code.n, mode) == (7, "full")
    code, mode = cli._classical_from_id("hamming3pt")
    assert (code.n, mode) == (7, "pt")
    code, mode = cli._classical_from_id("bch:15:3")
    assert (code.n, code.k, code.d) == (15, 5, 7)
    code, mode = cli._classical_from_id("bch:127:6pt")
    assert (code.n, mode) == (127, "pt")
    assert cli._classical_from_id("golay23")[0].n == 23
    assert cli._classical_from_id("rep:3")[0].n == 3
    assert cli._classical_from_id("spc:4")[0].k == 3
    for bad in ("bch:14:3", "foo:1", "hamming:x"):
        with pytest.raises(GF2Error):
            cli._classical_from_id(bad)


def test_quantum_id_resolution():
    assert cli._quantum_from_id("steane").n == 7
    with pytest.raises(GF2Error, match="known:"):
        cli._quantum_from_id("surface")


def test_no_arguments_usage_error(capsys):
    assert cli.main([]) == 2
    assert cli.main(["codes"]) == 2  # missing required --code


def test_codes_info_json(capsys):
    code, out, _ = run(capsys, "codes", "info", "--code", "bch:15:3")
    assert code == 0
    info = json.loads(out)
    assert (info["n"], info["k"], info["d"]) == (15, 5, 7)


def test_codes_info_brute_force(capsys):
    code, out, _ = run(capsys, "codes", "info", "--code", "hamming:3",
                       "--brute-force")
    assert code == 0
    assert json.loads(out)["brute_force_d"] == 3


def test_codes_build_writes_matrix_and_manifest(capsys, tmp_path):
    out_path = tmp_path / "h.txt"
    code, _, _ = run(capsys, "codes", "build", "--code", "hamming:3",
                     "--out", str(out_path))
    assert code == 0
    assert gf2.from_text(out_path.read_text()) == classical.hamming(3).H
    manifest = json.loads((tmp_path / "h.txt.manifest.json").read_text())
    assert manifest["command"] == "codes build"
    assert str(out_path) in manifest["outputs"]


def test_codes_build_requires_out(capsys):
    code, _, err = run(capsys, "codes", "build", "--code", "hamming:3")
    assert code == 1 and "--out" in err


def test_quantum_info(capsys):
    code, out, _ = run(capsys, "quantum", "info", "--code", "steane")
    assert code == 0
    assert "[[7,1,3]] steane" in out
    assert "normalizer generators" in out


def test_product_info(capsys):
    code, out, _ = run(capsys, "product", "info", "--c", "hamming3pt",
                       "--q", "rep3")
    assert code == 0
    info = json.loads(out)
    assert info["L"] == 4 and info["N"] == 12
    assert info["hc_mode"] == "pt" and info["table_entries"] == 13


@pytest.mark.parametrize("c,q", [("hamming3pt", "rep3"), ("rep:5pt", "color17"),
                                 ("bch:15:3", "steane")])
def test_product_info_counts_the_entries_build_table_writes(capsys, tmp_path, c, q):
    """info's table_entries counts the syndrome classes the table is keyed
    by: rep:5pt x color17 has 154 patterns of one column but 116 keys."""
    code, out, _ = run(capsys, "product", "info", "--c", c, "--q", q)
    assert code == 0
    entries = json.loads(out)["table_entries"]
    code, out, _ = run(capsys, "product", "build-table", "--c", c, "--q", q,
                       "--out", str(tmp_path / "t.lut"))
    assert code == 0 and json.loads(out)["entries"] == entries


def test_product_build_decode_roundtrip(capsys, tmp_path):
    table_path = str(tmp_path / "desk.lut")
    code, out, _ = run(capsys, "product", "build-table", "--c", "hamming3pt",
                       "--q", "rep3", "--out", table_path)
    assert code == 0
    assert json.loads(out)["entries"] == 13
    # syndrome of an X error on qubit 2, stabilizer-major bit order
    pc = product.ProductCode(classical.hamming(3), quantum.rep3(), hc_mode="pt")
    e = pattern_from_packed(1 << 1, 3, 4)
    syndrome = gf2.int_to_bitstring(syndrome_key(extract_syndrome(pc, e)), 6)
    code, out, _ = run(capsys, "decode", "--table", table_path,
                       "--c", "hamming3pt", "--q", "rep3",
                       "--syndrome", syndrome)
    assert code == 0
    result = json.loads(out)
    assert result["status"] == "ok"
    assert result["correction"] == "010000000000"


def test_decode_min_distance_flag(capsys, tmp_path):
    table_path = str(tmp_path / "noisy.lut")
    run(capsys, "product", "build-table", "--c", "bch:15:3pt", "--q", "steane",
        "--tsrc", "1", "--max-cols", "1", "--out", table_path)
    pc = product.ProductCode(classical.bch(4, 3), quantum.steane(),
                             hc_mode="pt", t_src=1)
    e = pattern_from_packed(1 << 0, 7, 5)
    key = syndrome_key(extract_syndrome(pc, e)) ^ 0b11  # two flipped bits
    code, out, _ = run(capsys, "decode", "--table", table_path,
                       "--c", "bch:15:3pt", "--q", "steane", "--tsrc", "1",
                       "--syndrome", gf2.int_to_bitstring(key, 30),
                       "--min-distance")
    assert code == 0
    result = json.loads(out)
    assert result["status"] == "ok" and result["distance"] == 2


@pytest.mark.parametrize("max_cols", ["2", "-2"])
def test_build_table_rejects_max_cols_outside_budget(capsys, tmp_path, max_cols):
    path = tmp_path / "t.lut"
    code, out, err = run(capsys, "product", "build-table", "--c", "bch:15:3pt",
                         "--q", "steane", "--tc", "1", "--max-cols", max_cols,
                         "--out", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "max_cols" in err
    assert not path.exists()


def test_localize_rows_command(capsys, tmp_path):
    """A full-H code id alone selects row decoding from position 0."""
    pc = product.ProductCode(classical.bch(4, 3), quantum.steane())
    cols = [0] * pc.L
    cols[4], cols[9], cols[14] = 1, 1, 1
    e = pattern_from_columns(cols, 7, "X")
    xi = extract_syndrome(pc, e)
    xi_path = tmp_path / "xi.txt"
    xi_path.write_text(gf2.to_text(xi.matrix))
    code, out, _ = run(capsys, "localize", "--c", "bch:15:3", "--q", "steane",
                       "--xi", str(xi_path))
    assert code == 0
    assert json.loads(out)["logical_indices"] == [4, 9, 14]


def test_localize_reads_rows_wider_than_64_bits(capsys, tmp_path):
    """bch:1023:11pt rows are R = 110 bits wide: syndrome-bit flips at bits
    62, 63, 64 and 109 of a row that also sees both logical errors leave
    every row's logical support as injected."""
    pc = product.ProductCode(classical.bch(10, 11), quantum.color17(), hc_mode="pt")
    cols = [0] * pc.L
    cols[0], cols[912] = 1 << 0, 1 << 4  # X1 in column 0, X5 in column 912
    xi = extract_syndrome(pc, pattern_from_columns(cols, 17, "X")).matrix
    assert xi.cols == 110
    rows = list(xi.row_data)
    rows[1] ^= (1 << 62) | (1 << 63) | (1 << 64) | (1 << 109)
    xi_path = tmp_path / "xi.txt"
    xi_path.write_text(gf2.to_text(gf2.BitMatrix(rows, xi.cols)))
    code, out, err = run(capsys, "localize", "--c", "bch:1023:11pt", "--q", "color17",
                         "--xi", str(xi_path))
    assert (code, err) == (0, "")
    assert json.loads(out)["per_row_supports"] == [[0], [0, 912], [912], [], [], [], [], []]


@pytest.mark.parametrize("c,extra,text", [
    ("bch:15:2pt", (), "1 10\n0000000001\n"),            # the code's Xi is 3 x 8
    ("bch:15:2pt", (), "2 8\n00000001\n00000000\n"),
    ("bch:15:3", (), "2 10\n" + "0000000001\n" * 2),  # 3 x 10 here
])
def test_localize_rejects_a_wrong_shape(capsys, tmp_path, c, extra, text):
    xi_path = tmp_path / "xi.txt"
    xi_path.write_text(text)
    code, out, err = run(capsys, "localize", "--c", c, "--q", "steane",
                         "--xi", str(xi_path), *extra)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "Xi is" in err


def test_localize_rejects_a_non_ascii_file(capsys, tmp_path):
    """A 0xff byte in the Xi file used to end in a UnicodeDecodeError traceback."""
    xi_path = tmp_path / "xi.txt"
    xi_path.write_bytes(b"8 42\n\xff" + b"0" * 41 + b"\n")
    code, out, err = run(capsys, "localize", "--c", "bch:127:6pt", "--q", "color17",
                         "--xi", str(xi_path))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "decode byte 0xff" in err
    assert str(xi_path) in err


def test_analyze_table1(capsys):
    code, out, _ = run(capsys, "analyze", "table1")
    assert code == 0
    assert "2e-05 (3e-08)" in out


def test_analyze_overhead(capsys):
    code, out, _ = run(capsys, "analyze", "overhead", "--L", "127",
                       "--q", "color17", "--p", "1e-4")
    assert code == 0
    row = json.loads(out)
    assert row["syndrome_qubits"] == 672 and row["canonical"] == 2032


def test_analyze_overhead_csv(capsys):
    code, out, _ = run(capsys, "analyze", "overhead", "--csv")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.startswith("p,L,t_c")
    assert ",672," in row


def test_analyze_failure_curve(capsys):
    code, out, _ = run(capsys, "analyze", "failure", "--L", "127",
                       "--q", "color17", "--pmin-exp", "4", "--pmax-exp", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,L,t_c,failure_prob"
    assert len(lines) == 3


@pytest.mark.parametrize("argv", [
    ("overhead", "--p", "2"),         # printed "failure_prob": 512.0
    ("overhead", "--p", "-0.5"),
    ("failure", "--pmin-exp", "-1"),  # p = 10 raised an OverflowError
])
def test_analyze_rejects_probability_outside_unit_interval(capsys, argv):
    code, out, err = run(capsys, "analyze", *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "outside [0, 1]" in err


def test_simulate_command(capsys, tmp_path):
    cfg = {"c": "hamming3pt", "q": "rep3", "p": 0.01, "shots": 2000,
           "seed": 42}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "simulate", "--config", str(cfg_path),
                       "--out", str(out_path))
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["shots"] == 2000
    assert report["failures"] == report["breakdown"]["class_misses"]
    assert (tmp_path / "report.json.manifest.json").exists()


@pytest.mark.parametrize("text,message", [
    ('{"c": "hamming3pt", "q": "rep3", "p": 0.01, "seed": 1}', "object with c, q, p, shots, seed"),
    ('{"c": "hamming3pt", "q": "rep3", "p": 0.01, "shots": 20', "not a JSON config"),
    ('{"c": "hamming3pt", "q": "rep3", "p": 0.01, "shots": "20", "seed": 1}',
     "wrong JSON type for shots"),
    ('{"c": "hamming3pt", "q": "rep3", "p": 0.01, "shots": 20, "seed": 1,'
     ' "syndrome_noise": 1}', "wrong JSON type for syndrome_noise"),
    ('[1, 2]', "object with c, q, p, shots, seed"),
    ('{"c": "bch:15:3pt", "q": "steane", "p": 0.01, "shots": 20, "seed": 1,'
     ' "t_src": 1, "decode_mode": "min_distance", "syndrome_noise": true,'
     ' "p_e": 1.5}', "p_e=1.5 outside"),
    ('{"c": "hamming3pt", "q": "rep3", "p": 0.01, "shots": 20, "seed": -1}',
     "seed must be >= 0"),
    # a misspelled key used to be ignored: a noiseless lookup-mode run, exit 0
    ('{"c": "bch:15:3pt", "q": "steane", "p": 0.01, "shots": 20, "seed": 1,'
     ' "decode-mode": "min_distance", "syndrome_nose": true}',
     "unknown config key(s) decode-mode, syndrome_nose"),
    # p_e without syndrome_noise used to be ignored: the same report as p_e = 0
    ('{"c": "bch:15:3pt", "q": "steane", "t_src": 1, "p": 0.003, "shots": 20000,'
     ' "seed": 5, "decode_mode": "min_distance", "p_e": 0.05}',
     "p_e=0.05 needs syndrome_noise"),
], ids=["no-shots", "truncated", "shots-string", "noise-int", "json-list", "p_e-above-1",
        "negative-seed", "p_e-without-noise", "unknown-keys"])
def test_simulate_bad_config_is_an_error_line(capsys, tmp_path, text, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    code, out, err = run(capsys, "simulate", "--config", str(cfg_path))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and message in err


def test_circuit_emit_json(capsys):
    code, out, _ = run(capsys, "circuit", "emit", "--c", "hamming3pt",
                       "--q", "rep3")
    assert code == 0
    circ = json.loads(out)
    assert circ["data_qubits"] == 12 and circ["qubits"] == 18
    assert all(b["kind"] == "bare" for b in circ["ancilla_blocks"])


def test_circuit_emit_shor_dot(capsys):
    code, out, _ = run(capsys, "circuit", "emit", "--c", "bch:15:3pt",
                       "--q", "steane", "--shor", "--row", "0",
                       "--format", "dot")
    assert code == 0
    assert out.startswith("digraph") and "->" in out


def test_domain_error_exit_code(capsys):
    code, _, err = run(capsys, "product", "info", "--c", "hamming:3",
                       "--q", "golay")
    assert code == 1 and "error:" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "decode", "--table", "/nonexistent.lut",
                       "--c", "hamming3pt", "--q", "rep3", "--syndrome", "0")
    assert code == 1 and "error:" in err


@pytest.fixture
def desk_table(capsys, tmp_path):
    """hamming3pt x rep3 table file (t_C=1, 6-bit keys, 13 entries)."""
    path = tmp_path / "desk.lut"
    assert run(capsys, "product", "build-table", "--c", "hamming3pt",
               "--q", "rep3", "--out", str(path))[0] == 0
    return path


def _decode_desk(capsys, path, *extra, syndrome="000000"):
    """decode against the table; ``extra`` replaces the table's own --c."""
    return run(capsys, "decode", "--table", str(path), "--q", "rep3",
               "--syndrome", syndrome, *(extra or ("--c", "hamming3pt")))


@pytest.mark.parametrize("extra", [
    ("--c", "hamming3pt", "--tc", "0"),  # table built with tc=1
    ("--c", "hamming:3"),                # full mode, same key width
])
def test_decode_rejects_table_of_another_code(capsys, desk_table, extra):
    assert _decode_desk(capsys, desk_table)[0] == 0
    code, out, err = _decode_desk(capsys, desk_table, *extra)
    assert code == 1 and err.startswith("error:") and out == ""


def test_decode_rejects_malformed_row(capsys, desk_table):
    desk_table.write_text(desk_table.read_text() + "zz\n")
    code, _, err = _decode_desk(capsys, desk_table)
    assert code == 1 and err.startswith("error:") and "malformed" in err


def test_decode_rejects_repeated_key(capsys, desk_table):
    """A second record for key 5, its header's entries raised to match, used
    to decode 101000 to the later record's correction, exit 0."""
    text = desk_table.read_text()
    assert "\n05 002\n" in text and " entries=13" in text
    desk_table.write_text(text.replace("\n05 002\n", "\n05 002\n05 007\n", 1)
                          .replace(" entries=13", " entries=14", 1))
    code, out, err = _decode_desk(capsys, desk_table, syndrome="101000")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "1 repeated key(s)" in err
    assert str(desk_table) in err


def test_decode_rejects_header_without_key_bits(capsys, desk_table):
    desk_table.write_text(desk_table.read_text().replace(" key_bits=6", "", 1))
    code, _, err = _decode_desk(capsys, desk_table)
    assert code == 1 and err.startswith("error:") and "lacks key_bits" in err


def test_decode_rejects_table_over_column_budget(capsys, desk_table):
    text = desk_table.read_text()
    desk_table.write_text(text.replace(" mc=1 ", " mc=2 ", 1))
    code, _, err = _decode_desk(capsys, desk_table)
    assert code == 1 and "mc=2 outside [0, t_c=1]" in err


def test_decode_rejects_table_with_negative_column_budget(capsys, desk_table):
    desk_table.write_text(desk_table.read_text().replace(" mc=1 ", " mc=-2 ", 1))
    code, out, err = _decode_desk(capsys, desk_table)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "mc=-2 outside [0, t_c=1]" in err


def test_decode_rejects_non_ascii_table_header(capsys, desk_table):
    """A 0xff byte in the header line used to end in a UnicodeDecodeError
    traceback from the loader's readline."""
    desk_table.write_bytes(b"\xff" + desk_table.read_bytes())
    code, out, err = _decode_desk(capsys, desk_table)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "decode byte 0xff" in err
    assert str(desk_table) in err


def test_decode_rejects_wrong_syndrome_length(capsys, desk_table):
    code, out, err = _decode_desk(capsys, desk_table, syndrome="0" * 10)
    assert code == 1 and err.startswith("error:") and out == ""
    assert "10 bits" in err


@pytest.mark.parametrize("radius", ["-1", "-3"])
def test_decode_rejects_negative_radius(capsys, desk_table, radius):
    """Key 0 is stored, so only the radius can make this decode fail."""
    code, out, _ = _decode_desk(capsys, desk_table, "--c", "hamming3pt", "--min-distance")
    assert code == 0 and json.loads(out)["status"] == "ok"
    code, out, err = _decode_desk(capsys, desk_table, "--c", "hamming3pt",
                                  "--min-distance", "--radius", radius)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "--radius" in err


def test_decode_radius_requires_min_distance(capsys, desk_table):
    """--radius alone used to run an exact lookup silently."""
    code, out, err = _decode_desk(capsys, desk_table, "--c", "hamming3pt", "--radius", "2")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "--radius requires --min-distance" in err


NOISY = ("--c", "bch:15:3pt", "--q", "steane", "--tsrc", "1")


@pytest.mark.parametrize("edit,flags,message", [
    # 30-bit keys: a leading digit above 3 needs bit 30 or higher
    (lambda k, v: f"4{k[1:]} {v}", ["--min-distance"], "key is outside [0, 2^30)"),
    (lambda k, v: f"4{k[1:]} {v}", [], "key is outside [0, 2^30)"),
    # 35-bit corrections: a leading digit above 7 needs bit 35 or higher
    (lambda k, v: f"{k} 8{v[1:]}", [], "correction is outside [0, 2^35)"),
    (lambda k, v: f"-{k[1:]} {v}", ["--min-distance"], "a record is not 8 lowercase hex"),
], ids=["wide-key-nearest", "wide-key-exact", "wide-correction", "negative-key"])
def test_decode_rejects_a_record_outside_its_width(capsys, tmp_path, edit, flags, message):
    """One record of the 30-bit bch:15:3pt x steane table (35-bit corrections)
    holds a key or correction past its bit width, or a minus sign.  In the
    variable-width format these were an OverflowError traceback, a silent
    not_found, a truncated correction with status ok, and an error line."""
    path = tmp_path / "noisy.lut"
    assert run(capsys, "product", "build-table", *NOISY, "--max-cols", "1",
               "--out", str(path))[0] == 0
    header, first, second, *rest = path.read_text().splitlines()
    k, v = second.split()
    path.write_text("\n".join([header, first, edit(k, v), *rest]) + "\n")
    code, out, err = run(capsys, "decode", "--table", str(path), *NOISY, *flags,
                         "--syndrome", gf2.int_to_bitstring(int(k, 16), 30))
    assert code == 1 and out == ""
    assert err.startswith(f"error: {path}") and message in err


def _old_format(text: str) -> str:
    """A table file as versions before fixed-width records wrote it."""
    header, *records = text.splitlines()
    old = [" ".join(f"{int(field, 16):x}" for field in record.split()) for record in records]
    return "\n".join([header.replace("qproduct-lut2 ", "qproduct-lut ", 1), *old]) + "\n"


def _edit_records(*changes):
    """An edit of a table file's text: each (i, change) pair replaces record
    i, counted from 1, by change(record)."""
    def edit(text):
        lines = text.split("\n")
        for i, change in changes:
            lines[i] = change(lines[i])
        return "\n".join(lines)
    return edit


def _swap_records_2_and_3(text: str) -> str:
    lines = text.split("\n")
    lines[2], lines[3] = lines[3], lines[2]
    return "\n".join(lines)


@pytest.mark.parametrize("edit,message", [
    (lambda text: text[:-5], "not the 36 records of 19 bytes"),
    (_edit_records((2, lambda r: r[1:])), "not the 36 records of 19 bytes"),
    (_edit_records((2, lambda r: "0" + r)), "not the 36 records of 19 bytes"),
    (_edit_records((2, lambda r: r[1:]), (3, lambda r: r + "0")),
     "a record is not 8 lowercase hex digits, a space, 9 digits and a newline"),
    (_edit_records((3, str.upper)), "a record is not 8 lowercase hex digits"),
    (_edit_records((2, lambda r: "g" + r[1:])), "a record is not 8 lowercase hex digits"),
    (_edit_records((2, lambda r: r.replace(" ", "\t"))), "a record is not 8 lowercase hex"),
    (lambda text: text.replace("\n", "\r\n"), "not the 36 records of 19 bytes"),
    (_swap_records_2_and_3, "keys out of order at record 3"),
    (lambda text: text.replace(" entries=36", " entries=35", 1),
     "not the 35 records of 19 bytes its header declares"),
    (_old_format, "variable-width records, a format this version does not read; "
                  "rebuild it with qproduct product build-table"),
], ids=["truncated-last-record", "record-one-byte-short", "record-one-byte-long",
        "short-then-long-record", "uppercase-digit", "non-hex-digit", "wrong-separator",
        "crlf-line-ends", "keys-out-of-order", "entries-differ-from-records", "old-format"])
def test_decode_refuses_a_malformed_table_file(capsys, tmp_path, edit, message):
    """Each departure from the fixed-width record format of the 36-record
    bch:15:3pt x steane table (8 + 9 hex digits a record) ends in exit 1
    and an error line that names the file, before any decode."""
    path = tmp_path / "noisy.lut"
    assert run(capsys, "product", "build-table", *NOISY, "--max-cols", "1",
               "--out", str(path))[0] == 0
    path.write_bytes(edit(path.read_text()).encode("ascii"))
    code, out, err = run(capsys, "decode", "--table", str(path), *NOISY,
                         "--syndrome", "0" * 30)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {path}") and message in err


@pytest.mark.parametrize("args,entries", [
    (["--c", "hamming3pt", "--q", "rep3"], 13),
    ([*NOISY, "--max-cols", "1"], 36),
    (["--c", "bch:15:3", "--q", "color17", "--max-cols", "1"], 1726),
], ids=["desk", "bch15pt-tsrc1", "bch15-color17-one-column"])
def test_table_file_keeps_the_benchmark_contract(capsys, tmp_path, args, entries):
    """The benchmark's build check (perfbench oracle.check_build) reads a table
    file as ASCII: a first line holding a magic token and then only
    name=value tokens, entries=N among them, then exactly N records, each
    ended by a newline."""
    path = tmp_path / "t.lut"
    code, out, _ = run(capsys, "product", "build-table", *args, "--out", str(path))
    assert code == 0 and json.loads(out)["entries"] == entries
    head, *records = path.read_bytes().decode("ascii").split("\n")
    magic, *tokens = head.split(" ")
    assert magic and "=" not in magic
    fields = dict(tok.split("=", 1) for tok in tokens)
    assert all(len(tok.split("=")) == 2 and all(tok.split("=")) for tok in tokens)
    assert fields["entries"] == str(entries)
    assert records.pop() == "" and len(records) == entries
