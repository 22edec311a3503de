"""Artifacts pinned to their sha256 digests: tables, simulate reports and
decode output must stay byte-identical across refactors of the code that
produces them."""

import hashlib
import json

import pytest

from qproduct import cli, gf2
from qproduct.gf2 import BitMatrix

TABLES = [
    (["--c", "hamming3pt", "--q", "rep3"],
     "dfd1df4e8a2d98508d3d7af947a4534e9acb3ca3852a90081961829aa1862d05"),
    (["--c", "bch:15:3pt", "--q", "steane", "--tsrc", "1", "--max-cols", "1"],
     "d4e1bfd6180d4ecc2cd5c424dbf812003aecb860c2106948b2eb92debf85aec2"),
    (["--c", "bch:15:3", "--q", "steane"],  # 161,316 entries
     "befc3e480cd0d926beddd5a6f73fdfa42e958ffe0470332e4389b376ad1c3385"),
]

REPORTS = [
    ({"c": "hamming3pt", "q": "rep3", "p": 0.05, "shots": 100000, "seed": 5},
     "56610869f2c69c40be9df5b0626357029174d08c1fcaab2549c13dade3e258ae"),
    ({"c": "bch:15:3pt", "q": "steane", "t_src": 1, "p": 0.003, "shots": 20000,
      "seed": 5, "syndrome_noise": True, "p_e": 0.003,
      "decode_mode": "min_distance"},
     "946447840f3f266bf0488c50812c6f92430380fafa50ccbfe73cd1b6811e0355"),
    # lookup mode against a table whose entries hit up to t_C = 3 columns
    ({"c": "bch:15:3pt", "q": "steane", "p": 0.01, "shots": 20000, "seed": 5},
     "fe87ab1209c58a77bf3681f73149fe1d0f2e8486f912d28e31c298b7565f1961"),
]


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("args,digest", TABLES,
                         ids=["desk", "bch15pt-tsrc1", "bch15-full"])
def test_table_file_digest(capsys, tmp_path, args, digest):
    out = tmp_path / "t.lut"
    assert cli.main(["product", "build-table", *args, "--out", str(out)]) == 0
    capsys.readouterr()
    assert _sha256(out) == digest


@pytest.mark.parametrize("config,digest", REPORTS,
                         ids=["desk-lookup", "bch15pt-noisy", "bch15pt-lookup"])
def test_simulate_report_digest(capsys, tmp_path, config, digest):
    cfg, out = tmp_path / "cfg.json", tmp_path / "report.json"
    cfg.write_text(json.dumps(config))
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    assert _sha256(out) == digest


DESK = ["--c", "hamming3pt", "--q", "rep3"]
NOISY = ["--c", "bch:15:3pt", "--q", "steane", "--tsrc", "1"]
# 0-3-bit flips XORed onto every stored key of the NOISY table; its keys are
# 5 apart, so at the default radius 2 a flip gives 'ok' or 'not_found' (and
# 1<<0|1<<7|1<<9 moves four keys within 2 of another); the desk table's
# nearest-key pass supplies 'ambiguous'
FLIPS = [0, 1 << 0, 1 << 17, 1 << 29, 0b11, 0b101 << 5, 1 << 4 | 1 << 25,
         1 << 0 | 1 << 7 | 1 << 9, 0b111 << 20, 1 << 2 | 1 << 12 | 1 << 22]
DECODE_DIGEST = "23fb6dc098ad81158d14082d7af3125770c28048a00426010375f0f670e2ab21"


def test_decode_output_digest(capsys, tmp_path):
    """stdout of exact and nearest-key decodes of every desk syndrome, then of
    nearest-key decodes of each stored NOISY key under each of FLIPS."""
    desk, noisy = tmp_path / "desk.lut", tmp_path / "noisy.lut"
    assert cli.main(["product", "build-table", *DESK, "--out", str(desk)]) == 0
    assert cli.main(["product", "build-table", *NOISY, "--max-cols", "1",
                     "--out", str(noisy)]) == 0
    stored = [int(line.split()[0], 16) for line in noisy.read_text().splitlines()[1:]]
    capsys.readouterr()
    runs = [(DESK, desk, key, 6, flags) for flags in ([], ["--min-distance"])
            for key in range(64)]
    runs += [(NOISY, noisy, key ^ flip, 30, ["--min-distance"])
             for key in stored for flip in FLIPS]
    for code, path, key, bits, flags in runs:
        assert cli.main(["decode", *code, "--table", str(path), *flags,
                         "--syndrome", gf2.int_to_bitstring(key, bits)]) == 0
    out = capsys.readouterr().out
    statuses = {json.loads(line)["status"] for line in out.splitlines()}
    assert statuses == {"ok", "ambiguous", "not_found"}
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == DECODE_DIGEST


LOCALIZE_DIGEST = "005da29226ed352f2741aa716c5885d2855f9645914a080bede59b4e6da0ced4"


def test_localize_output_digest(capsys, tmp_path):
    """stdout and exit code of localize on bch:15:2pt x steane (a 3 x 8 Xi)
    for every value of each row, the other rows zero.  stderr is not pinned:
    only the exit code of a failed decode is."""
    path = tmp_path / "xi.txt"
    digest = hashlib.sha256()
    codes = set()
    for i in range(3):
        for value in range(1 << 8):
            rows = [0, 0, 0]
            rows[i] = value
            path.write_text(gf2.to_text(BitMatrix(rows, 8)))
            code = cli.main(["localize", "--c", "bch:15:2pt", "--q", "steane",
                             "--xi", str(path)])
            codes.add(code)
            digest.update(f"{code}\n{capsys.readouterr().out}".encode("ascii"))
    assert codes == {0, 1}
    assert digest.hexdigest() == LOCALIZE_DIGEST


ANALYZE_RUNS = [["table1"]]
ANALYZE_RUNS += [["overhead", "--L", L, "--mode", mode, *csv]
                 for L in ("127", "1023") for mode in ("plain", "shor_ft")
                 for csv in ([], ["--csv"])]
ANALYZE_RUNS += [["failure"],
                 ["failure", "--L", "255", "--q", "steane", "--pmin-exp", "2",
                  "--pmax-exp", "6"]]
ANALYZE_DIGEST = "a7309e9fefce83a7f0e94c5cf1f0dcaafe085fe3148dfa70ba467744167aa6c3"


def test_analyze_output_digest(capsys):
    """stdout and exit code of table1, overhead at L = 127 and 1023 in both
    modes with and without --csv, and two failure sweeps."""
    digest = hashlib.sha256()
    for argv in ANALYZE_RUNS:
        code = cli.main(["analyze", *argv])
        assert code == 0
        digest.update(f"{code}\n{capsys.readouterr().out}".encode("ascii"))
    assert digest.hexdigest() == ANALYZE_DIGEST
