"""Subcommand behavior, wire formats, exit codes, and round-trips."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import semilat as sl
from semilat import enumeration, formats
from semilat.cli import _ARGUMENTS, _COMMANDS, build_parser, main

ET30_TEXT = "n=3 t=0 size=4\n0 0 0\n0 0 2\n0 1 0\n0 1 2\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_et_text(capsys):
    code, out, _ = run(capsys, "et", "--n", "3", "--t", "0")
    assert code == 0
    assert out == ET30_TEXT


def test_et_rejects_bad_sink(capsys):
    code, _, err = run(capsys, "et", "--n", "3", "--t", "3")
    assert code == 2
    assert "t=3" in err


def test_idempotents_text(capsys):
    code, out, _ = run(capsys, "idempotents", "--n", "2")
    assert code == 0
    assert out == "n=2 count=3\n0 0\n0 1\n1 1\n"


def test_verify_roundtrip_via_file(tmp_path, capsys):
    path = tmp_path / "et.txt"
    code, _, _ = run(capsys, "et", "--n", "3", "--t", "0", "--out", str(path))
    assert code == 0
    code, out, _ = run(capsys, "verify", "--in", str(path))
    assert code == 0
    assert out == "VALID n=3 size=4\n"
    code, out, _ = run(capsys, "maximal", "--in", str(path))
    assert code == 0
    assert out == "MAXIMAL n=3 size=4\n"


def test_verify_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(ET30_TEXT))
    code, out, _ = run(capsys, "verify", "--in", "-")
    assert code == 0
    assert "VALID" in out


def test_verify_reports_violation(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("0 0 0\n1 1 1\n")
    code, out, _ = run(capsys, "verify", "--in", str(path))
    assert code == 1
    assert "INVALID commutativity" in out
    code, out, _ = run(capsys, "verify", "--in", str(path), "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["valid"] is False
    assert payload["axiom"] == "commutativity"


def test_verify_accepts_comments_and_blank_lines(tmp_path, capsys):
    path = tmp_path / "in.txt"
    path.write_text("# a comment\n\n0 1 2  # identity\n0 1 0\n")
    code, out, _ = run(capsys, "verify", "--in", str(path))
    assert code == 0
    assert out == "VALID n=3 size=2\n"


def test_parse_errors_carry_line_numbers(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("0 1 2\n0 9 0\n")
    code, _, err = run(capsys, "verify", "--in", str(path))
    assert code == 2
    assert "line 2" in err

    path.write_text("0 1 2\n0 1\n")
    code, _, err = run(capsys, "verify", "--in", str(path))
    assert code == 2
    assert "line 2" in err and "expected 3 entries" in err

    path.write_text("n=3 t=0 size=9\n0 1 2\n")
    code, _, err = run(capsys, "verify", "--in", str(path))
    assert code == 2
    assert "size=9" in err

    # a header t outside [0, n), reported on the header's own line
    bad_sinks = [("n=3 t=99 size=1\n", 1, 99), ("# c\nn=3 t=3 size=1\n", 2, 3)]
    for text, lineno, t in bad_sinks:
        path.write_text(text + "0 1 2\n")
        assert run(capsys, "verify", "--in", str(path)) == (
            2, "", f"error: line {lineno}: t={t} outside [0, 3)\n"
        )

    path.write_text("# nothing here\n")
    code, _, err = run(capsys, "verify", "--in", str(path))
    assert code == 2
    assert "no transformations" in err

    code, _, err = run(capsys, "verify", "--in", str(tmp_path / "missing.txt"))
    assert code == 2


def test_maximal_negative_verdict(tmp_path, capsys):
    path = tmp_path / "small.txt"
    path.write_text("0 1\n")
    code, out, _ = run(capsys, "maximal", "--in", str(path))
    assert code == 1
    assert out == "NOT-MAXIMAL extend-with: 0 0\n"


def test_maximal_rejects_non_semilattice(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("0 0 0\n1 1 1\n")
    code, _, err = run(capsys, "maximal", "--in", str(path))
    assert code == 2
    assert "commutativity" in err


def test_reduce_json_schema(tmp_path, capsys):
    path = tmp_path / "et.txt"
    path.write_text(ET30_TEXT)
    code, out, _ = run(capsys, "reduce", "--in", str(path), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["anchor"] == {"t": 0, "u": 1}
    assert payload["sizes"] == {"S": 4, "S_star": 2, "S_star_u": 2}
    assert payload["star"]["elements"] == [[0, 0, 0], [0, 0, 2]]
    assert payload["restricted"] == {"n": 2, "elements": [[0, 0], [0, 1]]}


def test_order_natural_and_transitivity(tmp_path, capsys):
    path = tmp_path / "et.txt"
    path.write_text(ET30_TEXT)
    code, out, _ = run(capsys, "order", "--in", str(path), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == "natural"
    assert payload["carrier"][0] == [0, 0, 0]
    assert payload["leq"][0] == [True, True, True, True]

    code, out, _ = run(
        capsys, "order", "--in", str(path), "--transitivity", "--format", "json"
    )
    payload = json.loads(out)
    assert payload["order"] == "transitivity"
    assert payload["carrier"] == [0, 1, 2]
    assert payload["leq"][0] == [True, True, True]
    assert payload["leq"][1] == [False, True, False]


def test_enumerate_text_and_json(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "2")
    assert code == 0
    assert out == "n=2 count=2\n\nn=2 size=2\n0 0\n0 1\n\nn=2 size=2\n0 1\n1 1\n"
    code, out, _ = run(capsys, "enumerate", "--n", "2", "--format", "json")
    payload = json.loads(out)
    assert payload["count"] == 2
    assert payload["semilattices"][0]["elements"] == [[0, 0], [0, 1]]


def _assert_same_text(rendered, expected):
    # compare an 80-character window around the first differing offset, so
    # a mismatch reports in seconds instead of diffing the whole listing
    at = max(len(os.path.commonprefix([rendered, expected])) - 40, 0)
    assert rendered[at : at + 80] == expected[at : at + 80]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_listing_renderer_equals_dumps_of_the_dicts(n):
    semis = sl.enumerate_maximal_semilattices(n)
    listing = {
        "n": n,
        "count": len(semis),
        "semilattices": [formats.semilattice_to_dict(s) for s in semis],
    }
    _assert_same_text("".join(formats.listing_to_json(semis)), formats.dumps(listing))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_text_listing_renderer_equals_the_per_family_rendering(n):
    # chunk by chunk, so the joined listing is equal too, and a mismatch
    # reports one family instead of diffing the whole listing
    semis = sl.enumerate_maximal_semilattices(n)
    reference = [f"n={n} count={len(semis)}\n"] + [
        "\n" + formats.format_semilattice_text(s) for s in semis
    ]
    chunks = list(formats.listing_to_text(semis))
    assert len(chunks) == len(reference)
    for chunk, expected in zip(chunks, reference):
        assert chunk == expected


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_idempotent_listing_renderer_equals_dumps_of_the_dict(n):
    idems = sl.enumerate_idempotents(n)
    listing = {"n": n, "count": len(idems), "idempotents": [list(e.images) for e in idems]}
    chunks = list(formats.idempotents_to_json(n, idems))
    assert len(chunks) == len(idems) + 2
    _assert_same_text("".join(chunks), formats.dumps(listing))


ENUMERATE_N6_JSON_SHA256 = (
    "d913ce657fde72acdee960080a205a05a7590163178ce3b97e42a165dd3d84c7"
)
ENUMERATE_N6_TEXT_SHA256 = (
    "5e62fa198953b60f5a297943018ec280929d8d7a2960f4385b52744a8c14180a"
)


def test_enumerate_n6_json_bytes(tmp_path, capsys):
    argv = ("enumerate", "--n", "6", "--cap", "6", "--format", "json")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATE_N6_JSON_SHA256
    path = tmp_path / "enumerate6.json"
    assert run(capsys, *argv, "--out", str(path)) == (0, "", "")
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == ENUMERATE_N6_JSON_SHA256


def test_enumerate_n6_text_bytes_through_out(tmp_path, capsys):
    path = tmp_path / "enumerate6.txt"
    argv = ("enumerate", "--n", "6", "--cap", "6", "--out", str(path))
    assert run(capsys, *argv) == (0, "", "")
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == ENUMERATE_N6_TEXT_SHA256


# Runs ARGV in a grandchild and prints its exit status and peak RSS.  Linux
# folds the address space a process replaces at exec into its peak, and a
# child spawned straight from the test shares the test's, so a small
# interpreter stands between them.
_PEAK_RSS = """
import os, sys
out = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ, file_actions=out)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _cli_env():
    """The environment for a child that imports this checkout's semilat."""
    env = dict(os.environ)
    src = str(Path(sl.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def _peak_rss(*argv):
    done = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS, sys.executable, "-m", "semilat.cli", *argv],
        env=_cli_env(), capture_output=True, text=True, check=True,
    )
    code, peak = map(int, done.stdout.split())
    assert code == 0
    return peak


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_enumerate_listing_peak_rss_is_below_twice_the_spectrum(tmp_path):
    # the listing is written family by family, so its peak is the search's
    # plus the listed families, not the whole 21 MB text held in memory
    path = tmp_path / "enumerate6.json"
    listing = _peak_rss("enumerate", "--n", "6", "--cap", "6", "--format", "json",
                        "--out", str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == ENUMERATE_N6_JSON_SHA256
    histogram = _peak_rss("spectrum", "--n", "6", "--cap", "6")
    assert listing < 2 * histogram, (listing, histogram)


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_idempotent_json_listing_peaks_near_the_text_listing():
    # both are written map by map, so JSON holds no dict and no whole text
    as_json = _peak_rss("idempotents", "--n", "8", "--format", "json")
    as_text = _peak_rss("idempotents", "--n", "8")
    assert as_json < as_text + 5 * 1024, (as_json, as_text)


# Runs `semilat.cli.main(ARGV)` in an interpreter started without `site`,
# which would load modules of its own, and names on stderr which of the
# modules that semilat does without were loaded.
_MODULES_LOADED = """
import sys
sys.path.insert(0, sys.argv[1])
import semilat.cli
if sys.argv[2:]:
    semilat.cli.main(sys.argv[2:])
unused = ("dataclasses", "inspect", "json", "typing")
print(*[m for m in unused if m in sys.modules], file=sys.stderr)
"""


@pytest.mark.parametrize("argv, loaded", [
    ((), ""),
    (("spectrum", "--n", "4"), ""),
    (("spectrum", "--n", "4", "--format", "json"), "json"),
])
def test_the_cli_loads_json_only_to_write_json(argv, loaded):
    src = str(Path(sl.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-S", "-c", _MODULES_LOADED, src, *argv],
        capture_output=True, text=True, check=True,
    )
    assert done.stderr.strip() == loaded


def test_a_closed_pipe_ends_the_listing_quietly_with_141():
    # the n = 5 listing (685 KB) overfills the pipe, so a write meets the
    # closed end; 141 is 128 + SIGPIPE, as a shell reports a process that
    # the signal ended
    proc = subprocess.Popen(
        [sys.executable, "-m", "semilat.cli", "enumerate", "--n", "5",
         "--format", "json"],
        env=_cli_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert (proc.returncode, err) == (141, b"")


def test_the_cli_listings_build_no_semilattice(capsys, monkeypatch):
    built = []

    def record(self):
        built.append(self)

    monkeypatch.setattr(sl.Semilattice, "__post_init__", record)
    for argv, head in (
        ("enumerate --n 5 --format json", '{\n  "count": 1065,\n  "n": 5,\n'),
        ("enumerate --n 5", "n=5 count=1065\n\nn=5 size=16\n"),
    ):
        code, out, err = run(capsys, *argv.split())
        assert (code, err, out[: len(head)]) == (0, "", head)
    assert built == []


def test_a_rejected_family_stops_enumerate_before_any_output(
    tmp_path, capsys, monkeypatch
):
    # the handler verifies every sink-0 family, here an expanded image that
    # the search did not find itself, before main writes or opens anything
    search = enumeration._sink_zero_orbits(4, None)
    target = next(c for c in search.families() if c not in search.cliques)
    real = enumeration._CliqueVerifier.violation

    def reject(self, clique):
        return "closure" if clique == target else real(self, clique)

    monkeypatch.setattr(enumeration._CliqueVerifier, "violation", reject)
    path = tmp_path / "enumerate4.txt"
    for out in ([], ["--out", str(path)]):
        with pytest.raises(RuntimeError, match="disagree at n=4 on the clique"):
            main(["enumerate", "--n", "4", *out])
        assert capsys.readouterr() == ("", "")
        assert not path.exists()


def test_spectrum_formats(capsys):
    code, out, _ = run(capsys, "spectrum", "--n", "2", "--format", "csv")
    assert code == 0
    assert out == "n,size,count\n2,2,2\n"
    code, out, _ = run(capsys, "spectrum", "--n", "3", "--format", "json")
    payload = json.loads(out)
    assert payload["max_size"] == 4
    assert {"size": 4, "count": 3} in payload["histogram"]
    assert payload["witnesses"]["4"]["n"] == 3


def test_json_output_is_byte_identical_across_runs(capsys):
    _, first, _ = run(capsys, "spectrum", "--n", "3", "--format", "json")
    _, second, _ = run(capsys, "spectrum", "--n", "3", "--format", "json")
    assert first == second


def test_spectrum_cap_enforcement(capsys):
    code, _, err = run(capsys, "spectrum", "--n", "7")
    assert code == 2
    assert "cap" in err and "7" in err


def test_cap_env_var(capsys, monkeypatch):
    # SEMILAT_CAP is not read: --cap is the only way to set the cap.
    monkeypatch.setenv("SEMILAT_CAP", "6")
    code, _, err = run(capsys, "spectrum", "--n", "6")
    assert code == 2
    assert "cap 5" in err

    monkeypatch.setenv("SEMILAT_CAP", "not-a-number")
    code, out, _ = run(capsys, "spectrum", "--n", "3")
    assert code == 0
    assert "max_size=4" in out


def test_cap_flag_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("SEMILAT_CAP", "2")  # ignored
    code, _, err = run(capsys, "spectrum", "--n", "4", "--cap", "3")
    assert code == 2
    assert "cap 3" in err

    code, _, err = run(capsys, "spectrum", "--n", "7", "--cap", "99")
    assert code == 2
    assert "hard maximum" in err  # still hard-limited

    code, out, _ = run(capsys, "spectrum", "--n", "3", "--cap", "3")
    assert code == 0
    assert "max_size=4" in out


def test_make_size(capsys):
    code, out, _ = run(capsys, "make-size", "--n", "3", "--t", "0", "--m", "3")
    assert code == 0
    assert out == "n=3 t=0 size=3\n0 0 0\n0 0 2\n0 1 0\n"
    code, _, err = run(capsys, "make-size", "--n", "3", "--t", "0", "--m", "5")
    assert code == 2
    assert "m=5" in err


def test_make_size_above_max_points_exits_2(capsys):
    code, out, err = run(capsys, "make-size", "--n", "40", "--t", "0", "--m", "1")
    assert (code, out) == (2, "")
    assert err == "error: ground-set size must be in [1, 16], got 40\n"


def test_annotated_json(capsys):
    code, out, _ = run(
        capsys, "et", "--n", "3", "--t", "1", "--format", "json", "--annotate"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["annotations"]["is_maximal"] is True
    assert payload["annotations"]["is_boolean"] is True
    assert len(payload["annotations"]["atoms"]) == 2


def test_verify_theorem(capsys):
    for n in (1, 2, 3):
        code, out, _ = run(capsys, "verify-theorem", "--n", str(n))
        assert code == 0
        assert out.count("PASS") == 5
        assert f"RESULT PASS n={n}" in out


VERIFY_THEOREM_N3 = (
    "PASS max-size: 4 == 2^(n-1) = 4\n"
    "PASS count: 3 maximum-size semilattices, expected n = 3\n"
    "PASS set-equality: maximum-size semilattices are exactly the 3 collapse "
    "semilattices\n"
    "PASS boolean: every maximum-size semilattice is a power-set lattice with "
    "2 atoms\n"
    "RESULT PASS n=3\n"
)


def test_verify_theorem_bytes(capsys):
    assert run(capsys, "verify-theorem", "--n", "3") == (0, VERIFY_THEOREM_N3, "")


VERIFY_THEOREM_N6 = (
    "PASS max-size: 32 == 2^(n-1) = 32\n"
    "PASS count: 6 maximum-size semilattices, expected n = 6\n"
    "PASS set-equality: maximum-size semilattices are exactly the 6 collapse "
    "semilattices\n"
    "PASS boolean: every maximum-size semilattice is a power-set lattice with "
    "5 atoms\n"
    "RESULT PASS n=6\n"
)


def test_verify_theorem_n6_bytes(capsys):
    # the paper's row at the hard cap, from the largest sink-0 families alone
    result = run(capsys, "verify-theorem", "--n", "6", "--cap", "6")
    assert result == (0, VERIFY_THEOREM_N6, "")


def test_verify_theorem_fails_without_a_collapse_family(capsys, monkeypatch):
    n = 4
    missing = sl.collapse_semilattice(n, 0)
    semis = tuple(s for s in sl.max_size_semilattices(n) if s != missing)
    monkeypatch.setattr("semilat.cli.max_size_semilattices", lambda n, cap=None: semis)
    code, out, _ = run(capsys, "verify-theorem", "--n", str(n))
    assert code == 1
    assert out.splitlines() == [
        "PASS max-size: 8 == 2^(n-1) = 8",
        "FAIL count: 3 maximum-size semilattices, expected n = 4",
        "FAIL set-equality: maximum-size semilattices are exactly the 4 collapse "
        "semilattices",
        "PASS boolean: every maximum-size semilattice is a power-set lattice with "
        "3 atoms",
        "RESULT FAIL n=4",
    ]


@pytest.mark.parametrize(
    "argv, stdin",
    [
        (["idempotents", "--n", "9"], None),
        (["maximal", "--in", "-"], "0 1 2 3 4 5 6 7 8\n"),
        (["et", "--n", "9", "--t", "0", "--format", "json", "--annotate"], None),
    ],
    ids=["idempotents", "maximal", "et-annotate"],
)
def test_idempotent_listing_above_n8_exits_2(capsys, monkeypatch, argv, stdin):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == (
        "error: T(9) has 293608 idempotents, too many to list "
        "(n must be at most 8)\n"
    )


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "et", "--n", "3")[0] == 2  # missing --t
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys)[0] == 2
    assert run(capsys, "enumerate", "--n", "3", "--workers", "0")[0] == 2


def test_library_formats_match_cli(capsys):
    s = sl.collapse_semilattice(3, 0)
    assert formats.format_semilattice_text(s, 0) == ET30_TEXT
    report = sl.spectrum(2)
    assert formats.spectrum_to_csv(report) == "n,size,count\n2,2,2\n"


def _n_error(n):
    return f"error: ground-set size must be in [1, 16], got {n}\n"


# Every bad n, t and m is rejected by the library, never by the CLI: each
# case exits 2, writes nothing to stdout and names the bad value.  A bad n is
# reported before a bad t, and a bad t before a bad m.
BAD_ARGUMENTS = [
    ("et --n 0 --t 0", _n_error(0)),
    ("et --n -2 --t 0", _n_error(-2)),
    ("et --n 40 --t 0", _n_error(40)),
    ("et --n 3 --t 5", "error: t=5 outside [0, 3)\n"),
    ("et --n 3 --t 99", "error: t=99 outside [0, 3)\n"),
    ("et --n 40 --t 99", _n_error(40)),
    ("make-size --n 3 --t 5 --m 1", "error: t=5 outside [0, 3)\n"),
    ("make-size --n 3 --t 5 --m 0", "error: t=5 outside [0, 3)\n"),
    ("make-size --n 3 --t 0 --m 0", "error: m=0 outside [1, 4]\n"),
    ("make-size --n 3 --t 0 --m 5", "error: m=5 outside [1, 4]\n"),
    ("make-size --n 0 --t 0 --m 1", _n_error(0)),
    ("make-size --n 40 --t 99 --m 1", _n_error(40)),
    ("idempotents --n 0", _n_error(0)),
    ("idempotents --n 17", _n_error(17)),
    ("enumerate --n 0", _n_error(0)),
    ("spectrum --n -1", _n_error(-1)),
    ("verify-theorem --n 0", _n_error(0)),
    ("spectrum --n 7", "error: n=7 exceeds the enumeration cap 5 (hard maximum 6)\n"),
]


@pytest.mark.parametrize(
    "argv, err", BAD_ARGUMENTS, ids=[argv for argv, _ in BAD_ARGUMENTS]
)
def test_bad_arguments_exit_2_with_the_library_message(capsys, argv, err):
    assert run(capsys, *argv.split()) == (2, "", err)


def _json(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


IDEMPOTENTS_N3 = [
    [0, 0, 0], [0, 0, 2], [0, 1, 0], [0, 1, 1], [0, 1, 2],
    [0, 2, 2], [1, 1, 1], [1, 1, 2], [2, 1, 2], [2, 2, 2],
]
CLOSURE_GAP = "0 0 2\n0 1 0\n"  # their product 0 0 0 is missing
ET30_LESS_TOP = "0 0 0\n0 0 2\n0 1 0\n"  # extended by the identity

ET31_ANNOTATED = {
    "annotations": {
        "atoms": [[0, 1, 1], [1, 1, 2]], "is_boolean": True, "is_maximal": True,
    },
    "elements": [[0, 1, 1], [0, 1, 2], [1, 1, 1], [1, 1, 2]],
    "n": 3,
}
SIZE3_ANNOTATED = {
    "annotations": {
        "atoms": [[0, 0, 2], [0, 1, 0]], "is_boolean": False, "is_maximal": False,
    },
    "elements": [[0, 0, 0], [0, 0, 2], [0, 1, 0]],
    "n": 3,
}
# the maximal subsemilattices of T(3), in listing order
ENUMERATE_N3 = [
    [[0, 0, 0], [0, 0, 2], [0, 1, 0], [0, 1, 2]],
    [[0, 1, 1], [0, 1, 2], [1, 1, 1], [1, 1, 2]],
    [[0, 1, 2], [0, 2, 2], [2, 1, 2], [2, 2, 2]],
    [[0, 0, 0], [0, 1, 1], [0, 1, 2]],
    [[0, 0, 0], [0, 1, 2], [0, 2, 2]],
    [[0, 0, 2], [0, 1, 2], [2, 2, 2]],
    [[0, 1, 0], [0, 1, 2], [1, 1, 1]],
    [[0, 1, 2], [1, 1, 1], [2, 1, 2]],
    [[0, 1, 2], [1, 1, 2], [2, 2, 2]],
]
ENUMERATE_N3_TEXT = (
    "n=3 count=9\n"
    "\nn=3 size=4\n0 0 0\n0 0 2\n0 1 0\n0 1 2\n"
    "\nn=3 size=4\n0 1 1\n0 1 2\n1 1 1\n1 1 2\n"
    "\nn=3 size=4\n0 1 2\n0 2 2\n2 1 2\n2 2 2\n"
    "\nn=3 size=3\n0 0 0\n0 1 1\n0 1 2\n"
    "\nn=3 size=3\n0 0 0\n0 1 2\n0 2 2\n"
    "\nn=3 size=3\n0 0 2\n0 1 2\n2 2 2\n"
    "\nn=3 size=3\n0 1 0\n0 1 2\n1 1 1\n"
    "\nn=3 size=3\n0 1 2\n1 1 1\n2 1 2\n"
    "\nn=3 size=3\n0 1 2\n1 1 2\n2 2 2\n"
)

# id -> (argv, stdin, exit code, stdout): every (subcommand, format) at n = 3.
OUTPUTS_N3 = {
    "reduce": ("reduce --in -", ET30_TEXT, 0,
               "anchor: t=0 u=1\nsizes: S=4 S_star=2 S_star_u=2\n"
               "star:\nn=3 size=2\n0 0 0\n0 0 2\n"
               "restricted:\nn=2 size=2\n0 0\n0 1\n"),
    "reduce-json": ("reduce --in - --format json", ET30_TEXT, 0,
                    _json({"anchor": {"t": 0, "u": 1},
                           "restricted": {"elements": [[0, 0], [0, 1]], "n": 2},
                           "sizes": {"S": 4, "S_star": 2, "S_star_u": 2},
                           "star": {"elements": [[0, 0, 0], [0, 0, 2]], "n": 3}})),
    "order": ("order --in -", ET30_TEXT, 0,
              "order=natural n=3 size=4\ncarrier:\n0: 0 0 0\n1: 0 0 2\n2: 0 1 0\n"
              "3: 0 1 2\nleq:\n1 1 1 1\n0 1 0 1\n0 0 1 1\n0 0 0 1\n"),
    "order-json": ("order --in - --format json", ET30_TEXT, 0,
                   _json({"carrier": [[0, 0, 0], [0, 0, 2], [0, 1, 0], [0, 1, 2]],
                          "leq": [[True, True, True, True], [False, True, False, True],
                                  [False, False, True, True],
                                  [False, False, False, True]],
                          "n": 3, "order": "natural"})),
    "order-transitivity": ("order --in - --transitivity", ET30_TEXT, 0,
                           "order=transitivity n=3 size=3\ncarrier:\n0: 0\n1: 1\n"
                           "2: 2\nleq:\n1 1 1\n0 1 0\n0 0 1\n"),
    "order-transitivity-json": (
        "order --in - --transitivity --format json", ET30_TEXT, 0,
        _json({"carrier": [0, 1, 2],
               "leq": [[True, True, True], [False, True, False], [False, False, True]],
               "n": 3, "order": "transitivity"})),
    "idempotents": ("idempotents --n 3", None, 0,
                    "n=3 count=10\n0 0 0\n0 0 2\n0 1 0\n0 1 1\n0 1 2\n0 2 2\n"
                    "1 1 1\n1 1 2\n2 1 2\n2 2 2\n"),
    "idempotents-json": ("idempotents --n 3 --format json", None, 0,
                         _json({"count": 10, "idempotents": IDEMPOTENTS_N3, "n": 3})),
    "verify-valid": ("verify --in -", ET30_TEXT, 0, "VALID n=3 size=4\n"),
    "verify-closure": ("verify --in -", CLOSURE_GAP, 1,
                       "INVALID closure fails for the pair [0 0 2, 0 1 0]: "
                       "product [0 0 0] is missing\n"),
    "verify-json-valid": ("verify --in - --format json", ET30_TEXT, 0,
                          _json({"n": 3, "size": 4, "valid": True})),
    "verify-json-closure": ("verify --in - --format json", CLOSURE_GAP, 1,
                            _json({"axiom": "closure",
                                   "elements": [[0, 0, 2], [0, 1, 0]],
                                   "missing_product": [0, 0, 0], "valid": False})),
    "maximal-yes": ("maximal --in -", ET30_TEXT, 0, "MAXIMAL n=3 size=4\n"),
    "maximal-no": ("maximal --in -", ET30_LESS_TOP, 1,
                   "NOT-MAXIMAL extend-with: 0 1 2\n"),
    "maximal-json-yes": ("maximal --in - --format json", ET30_TEXT, 0,
                         _json({"maximal": True, "n": 3, "size": 4, "witness": None})),
    "maximal-json-no": ("maximal --in - --format json", ET30_LESS_TOP, 1,
                        _json({"maximal": False, "n": 3, "size": 3,
                               "witness": [0, 1, 2]})),
    "et": ("et --n 3 --t 0", None, 0, ET30_TEXT),
    "et-json-annotate": ("et --n 3 --t 1 --format json --annotate", None, 0,
                         _json(ET31_ANNOTATED)),
    "make-size": ("make-size --n 3 --t 0 --m 3", None, 0,
                  "n=3 t=0 size=3\n" + ET30_LESS_TOP),
    "make-size-json-annotate": ("make-size --n 3 --t 0 --m 3 --format json --annotate",
                                None, 0, _json(SIZE3_ANNOTATED)),
    "enumerate": ("enumerate --n 3", None, 0, ENUMERATE_N3_TEXT),
    "enumerate-json": ("enumerate --n 3 --format json", None, 0,
                       _json({"count": 9, "n": 3, "semilattices": [
                           {"elements": f, "n": 3} for f in ENUMERATE_N3]})),
    "spectrum": ("spectrum --n 3", None, 0,
                 "n=3 total_maximal=9 max_size=4\nsize count\n   3     6\n   4     3\n"),
    "spectrum-json": ("spectrum --n 3 --format json", None, 0,
                      _json({"histogram": [{"count": 6, "size": 3},
                                           {"count": 3, "size": 4}],
                             "max_size": 4, "n": 3, "total_maximal": 9,
                             "witnesses": {
                                 "3": {"elements": ENUMERATE_N3[3], "n": 3},
                                 "4": {"elements": ENUMERATE_N3[0], "n": 3}}})),
    "spectrum-csv": ("spectrum --n 3 --format csv", None, 0,
                     "n,size,count\n3,3,6\n3,4,3\n"),
    "verify-theorem": ("verify-theorem --n 3", None, 0, VERIFY_THEOREM_N3),
}


def _command_and_format(argv):
    words = argv.split()
    return words[0], words[words.index("--format") + 1] if "--format" in words else "text"


def test_output_cases_cover_every_subcommand_and_format():
    expected = set()
    for command, (_, names, _) in _COMMANDS.items():
        flag = next((name for name in names.split() if name.startswith("format")), None)
        choices = _ARGUMENTS[flag][1]["choices"] if flag else ("text",)
        expected |= {(command, choice) for choice in choices}
    assert {_command_and_format(argv) for argv, *_ in OUTPUTS_N3.values()} == expected


@pytest.mark.parametrize(
    "argv, stdin, code, out", list(OUTPUTS_N3.values()), ids=list(OUTPUTS_N3)
)
def test_output_bytes_n3(capsys, monkeypatch, argv, stdin, code, out):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    assert run(capsys, *argv.split()) == (code, out, "")


@pytest.mark.parametrize(
    "argv, stdin, code, out", list(OUTPUTS_N3.values()), ids=list(OUTPUTS_N3)
)
def test_output_bytes_n3_through_out(tmp_path, capsys, monkeypatch, argv, stdin,
                                     code, out):
    # the same bytes and exit status, written to the --out file and not stdout
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    path = tmp_path / "out.txt"
    assert run(capsys, *argv.split(), "--out", str(path)) == (code, "", "")
    assert path.read_text(encoding="utf-8") == out


def test_failed_command_leaves_no_out_file(tmp_path, capsys):
    cases = [
        ("et --n 3 --t 5", "error: t=5 outside [0, 3)\n"),
        # the listings come back as chunks, written only after the search
        # and its checks have run in the handler
        ("enumerate --n 6 --format json",
         "error: n=6 exceeds the enumeration cap 5 (hard maximum 6)\n"),
        ("enumerate --n 6",
         "error: n=6 exceeds the enumeration cap 5 (hard maximum 6)\n"),
    ]
    for argv, err in cases:
        path = tmp_path / "out.txt"
        assert run(capsys, *argv.split(), "--out", str(path)) == (2, "", err)
        assert not path.exists()


@pytest.mark.parametrize(
    "argv",
    [
        "et --n 3 --t 0 --annotate",
        "make-size --n 3 --t 0 --m 2 --annotate",
        "et --n 3 --t 0 --annotate --format text",
        "et --n 40 --t 99 --annotate",  # checked before the library's n and t
    ],
)
def test_annotate_without_json_exits_2(tmp_path, capsys, argv):
    err = "error: --annotate needs --format json\n"
    assert run(capsys, *argv.split()) == (2, "", err)
    path = tmp_path / "out.txt"
    assert run(capsys, *argv.split(), "--out", str(path)) == (2, "", err)
    assert not path.exists()


def test_parse_error_names_a_non_integer_word(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("0 1 2\n0 x 0\n"))
    assert run(capsys, "verify", "--in", "-") == (
        2, "", "error: line 2: not an image word: '0 x 0'\n"
    )


@pytest.mark.parametrize(
    "stdin, line",
    [
        ("0 +1 2\n", "0 +1 2"),
        ("0 \u0662 2\n", "0 \u0662 2"),
        ("0 1 2 3 4 5 6 7 8 9 1_0\n", "0 1 2 3 4 5 6 7 8 9 1_0"),
        ("n=\u0663 size=1\n0 1 2\n", "n=\u0663 size=1"),
    ],
    ids=["sign", "arabic-indic-digit", "underscore", "header-digit"],
)
def test_parse_accepts_only_ascii_digits(capsys, monkeypatch, stdin, line):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    assert run(capsys, "verify", "--in", "-") == (
        2, "", f"error: line 1: not an image word: {line!r}\n"
    )


def _token_word_error(text):
    """The first content line that is not a word of ASCII digit tokens, by
    the per-token predicate: (line number, error text), or None."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line and not all(t.isascii() and t.isdigit() for t in line.split()):
            return lineno, f"line {lineno}: not an image word: {line!r}"
    return None


@settings(max_examples=500)
@given(st.lists(st.text("0123456789 \t\u00a0\u2003\x1c+-_\u0663#", max_size=10),
                min_size=1, max_size=4))
def test_parse_rejects_the_words_the_token_predicate_rejects(lines):
    text = "\n".join(lines)
    expected = _token_word_error(text)
    try:
        formats.parse_transformations(text)
    except formats.ParseError as exc:
        if "not an image word" in str(exc):
            assert (exc.lineno, str(exc)) == expected
        else:  # an entry count or range error, on a line both accept
            assert expected is None or expected[0] > exc.lineno
    else:
        assert expected is None


@pytest.mark.parametrize(
    "stdin, code, out, err",
    [
        ("n=3 size=2\n0 1 2\n0 1 2\n", 2, "",
         "error: line 1: header announces size=2 but file has 1 maps\n"),
        ("n=3 size=1\n0 1 2\n0 1 2\n", 0, "VALID n=3 size=1\n", ""),
        ("0 1 2\n0 1 2\n", 0, "VALID n=3 size=1\n", ""),
    ],
    ids=["header-counts-lines", "header-counts-maps", "headerless"],
)
def test_header_size_counts_distinct_maps(capsys, monkeypatch, stdin, code, out,
                                          err):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    assert run(capsys, "verify", "--in", "-") == (code, out, err)


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def _call(argv):
    """One ``main`` call with its own stdout and stderr, swapped in the way
    a batch of calls in one process swaps them."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_cached_parser_binds_no_stream(tmp_path):
    path = tmp_path / "et.txt"
    path.write_text(ET30_TEXT)
    good = ["verify", "--in", str(path)]
    build_parser.cache_clear()
    first = _call(good)
    assert first == (0, "VALID n=3 size=4\n", "")
    build_parser.cache_clear()
    bad = _call(["verify"])
    code, out, err = bad
    assert (code, out) == (2, "")
    assert err.startswith("usage: semilat verify [-h] --in FILE")
    assert err.endswith("error: the following arguments are required: --in\n")
    assert _call(good) == first
    assert _call(["verify"]) == bad


# sha256 of each --help text at 80 columns, recorded before the parser was
# cached; None is the top-level parser.
HELP_SHA256 = {
    None: "c37c916ac786ac866e7f6a91b0c074ad4e10e97568cf16379c925a552eab66ae",
    "idempotents": "faa4ed879238ba4e6e39a934d781b3706f717e8f9fbbf9650d31b148593c38bd",
    "et": "40a5d4526680421c9e727b37b39ee97675adc168f5eff24fdcf03435130ef4a9",
    "verify": "8d903b581b735b80e49770fc7dc26545356afffdbdee83b2dc9d6b9adc086c5f",
    "maximal": "9446c07d6c34833d16c42b0eb27a83d3972a278bca74935088c0df790a22162c",
    "reduce": "171da2a12b69997497fd1fba1c0faf7e75f95f04de7262343fe8f4d6219a63d4",
    "order": "f06e7c27a589229d98ea99299072eb8d220dc45b9595f98e595ec59e0aafa714",
    "enumerate": "8d3ec1b689843ad7845f36f591e09706fd85e4948963f05f80fa12f67dd89a70",
    "spectrum": "53713a365020124d9667990d8a4628d58b0b245223edf0e386ed1e07b1077c45",
    "make-size": "1a1aff696abeaaea688fc083f6be03892a619b35be996b387d43aae580ae057b",
    "verify-theorem": "99a5167715c10e2f8d52e26b3f40327d255ea7880fe061d3fb2419e6ac393aeb",
}


def test_help_digests_cover_every_subcommand():
    assert set(HELP_SHA256) == {None, *_COMMANDS}


@pytest.mark.parametrize("command", list(HELP_SHA256), ids=lambda c: c or "semilat")
def test_help_bytes_are_unchanged(monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    argv = ["--help"] if command is None else [command, "--help"]
    code, out, err = _call(argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_SHA256[command]
