import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import count_calls, random_bipartite
from critset import cli, corpus, critical, matching, oracle, props
from critset.fixtures import load
from critset.graphs import read_graph_file

FIXDIR = Path(__file__).resolve().parent.parent / "src/critset/fixtures"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_text_output(capsys):
    code, out, _ = run_cli(capsys, "analyze", str(FIXDIR / "fig511.edges"))
    assert code == 0
    assert "n=13 m=15" in out and "d=1" in out
    assert "ker     = v1 v2" in out
    assert "core    = v1 v2 v6 v10" in out


def test_analyze_json_output(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--json",
                           str(FIXDIR / "fig511.edges"))
    assert code == 0
    rep = json.loads(out)
    assert rep["schema"] == 1 and rep["kind"] == "analysis"
    assert rep["d"] == 1 and rep["alpha"] == 7 and rep["mu"] == 6
    assert rep["ker"] == ["v1", "v2"]
    assert rep["diadem"] == ["v1", "v2", "v3", "v4", "v6", "v7", "v8",
                             "v10", "v11", "v13"]
    assert rep["skipped"] == {}
    assert set(rep["methods"]) == {"polynomial", "search", "oracle"}


def test_analyze_bipartite_block(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--json",
                           str(FIXDIR / "fig233.edges"))
    rep = json.loads(out)
    assert code == 0
    assert rep["bipartite"] and rep["ore"]["delta0_a"] == 1
    assert rep["ore"]["ker_b"] == ["b5", "b6", "b7"]
    assert rep["ke"] and all(c["holds"] for c in rep["ke_identities"])
    code, out, _ = run_cli(capsys, "analyze", str(FIXDIR / "fig233.edges"))
    assert code == 0
    assert out.splitlines()[-6:] == [
        "  sides: A = a1 a2 a3 a4 a5 a6 | B = b1 b2 b3 b4 b5 b6 b7",
        "  delta0(A)=1 delta0(B)=2",
        "  ker_A    = a1 a2",
        "  ker_B    = b5 b6 b7",
        "  diadem_A = a1 a2 a3 a4 a5",
        "  diadem_B = b2 b3 b4 b5 b6 b7"]


def test_bipartite_analyze_runs_one_hopcroft_karp(monkeypatch):
    # the Ore side profile is read off the double cover's memoised matching,
    # and the kernel's final BFS is its alternating reach, so a bipartite
    # analyze runs Hopcroft-Karp once, on the cover, and no separate reach,
    # besides the blossom matching behind mu; every Hall query and side
    # matching runs the kernel too, so the one call rules them out
    calls = count_calls(monkeypatch, matching._max_matching_lists,
                        matching.maximum_matching_general)
    # random_bipartite(10, 12, 0.1, 4) has six components with an edge
    for g in (load("fig233").graph, random_bipartite(10, 12, 0.1, 4)):
        calls.clear()
        report = cli.analyze_graph(props.Facts(g))
        assert "ore" in report
        assert calls == {"_max_matching_lists": 1,
                         "maximum_matching_general": 1}


def test_analyze_no_oracle_strict_exits_3(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--no-oracle", "--strict",
                           str(FIXDIR / "fig511.edges"))
    assert code == 3
    assert "skipped core: oracle disabled" in out


def test_check_applicability_line(capsys):
    code, out, _ = run_cli(capsys, "check", str(FIXDIR / "fig22_g1.edges"),
                           "--property", "ke.is_ke")
    assert code == 0
    assert out.strip() == "ke.is_ke: fails applicability: not KE"


def test_check_holds_line(capsys):
    code, out, _ = run_cli(capsys, "check", str(FIXDIR / "fig511.edges"),
                           "--property", "zhang.d_eq_id")
    assert code == 0
    assert out.strip() == "zhang.d_eq_id: holds"


def test_check_failure_prints_witness_and_exits_1(capsys, tmp_path):
    f = tmp_path / "three.edges"
    f.write_text("vertex a\nvertex b\nvertex c\n")
    code, out, _ = run_cli(capsys, "check", str(f),
                           "--property", "selftest.alpha_le_two")
    assert code == 1
    assert "selftest.alpha_le_two: fails  witness:" in out
    assert '"alpha": 3' in out


def test_check_all_runs_whole_registry(capsys):
    code, out, _ = run_cli(capsys, "check", "--all",
                           str(FIXDIR / "fig101.edges"))
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 26
    assert not any("fails  witness:" in l for l in lines)


E, R = {"kind": "exhaustive"}, {
    "kind": "random", "n": [3, 4], "p": 0.3, "count": 2, "seed": 1}
# Corpus sources a spec refuses, with the line. parse_corpus_spec checks the
# JSON typing: a float or bool in an integer field is not truncated to some
# other corpus, a string or list there is no number, n holds two bounds, and
# a field the kind does not take is no silent no-op. The source constructors
# check the bounds: an order past the stream's reach, a negative count or
# order, p outside [0, 1] with no graph drawn, a path string that is not
# read letter by letter and a path that is no string.
SOURCES = [
    ({**E, "n": 2.7}, "exhaustive source needs an integer n, got 2.7"),
    ({**E, "n": True}, "exhaustive source needs an integer n, got true"),
    ({**E, "n": "3"}, 'exhaustive source needs an integer n, got "3"'),
    ({**E, "n": [3]}, "exhaustive source needs an integer n, got [3]"),
    ({**R, "n": [3, 4.5]}, "random source needs an integer n, got 4.5"),
    ({**R, "n": [False, 4]}, "random source needs an integer n, got false"),
    ({**R, "count": 2.5}, "random source needs an integer count, got 2.5"),
    ({**R, "count": True}, "random source needs an integer count, got true"),
    ({**R, "count": "2", "seed": 7},
     'random source needs an integer count, got "2"'),
    ({**R, "seed": 1.0}, "random source needs an integer seed, got 1.0"),
    ({**R, "seed": False}, "random source needs an integer seed, got false"),
    ({**R, "seed": "7"}, 'random source needs an integer seed, got "7"'),
    ({**R, "p": True}, "random source needs a number p, got true"),
    ({**R, "p": "0.3", "seed": 7}, 'random source needs a number p, got "0.3"'),
    ({**R, "p": None, "seed": 7}, "random source needs a number p, got null"),
    ({**R, "n": "34"}, 'random source needs n = [lo, hi], got "34"'),
    ({**R, "n": [3]}, "random source needs n = [lo, hi], got [3]"),
    ({**R, "n": [3, 4, 5]}, "random source needs n = [lo, hi], got [3, 4, 5]"),
    ({**R, "seed": 7, "extra": 1}, 'random source has no field "extra"'),
    ({"kind": "fixtures", "n": 4}, 'fixtures source has no field "n"'),
    ({**E, "n": 8}, "exhaustive source supports n <= 7, got 8"),
    ({**E, "n": -1}, "exhaustive source needs n >= 0, got -1"),
    ({**R, "count": -2}, "random source needs count >= 0, got -2"),
    ({**R, "n": [-2, 3]}, "random source needs 0 <= lo <= hi, got n = [-2, 3]"),
    ({**R, "n": [5, 6], "p": 1.5, "count": 0},
     "random source needs 0 <= p <= 1, got p = 1.5"),
    ({**R, "n": [5, 6], "p": float("nan"), "count": 0},
     "random source needs 0 <= p <= 1, got p = nan"),
    ({"kind": "files", "paths": "ab"},
     "files source needs a list of paths, got 'ab'"),
    ({"kind": "files", "paths": [1]},
     "files source needs a path string in paths, got 1"),
    ({"kind": "files", "paths": [None]},
     "files source needs a path string in paths, got null"),
]


def _spec(source, **files):
    """argv and files of `conjecture --corpus` over one source or a text."""
    text = json.dumps({"sources": [source]}) if type(source) is dict else source
    return "conjecture --corpus c.json", {"c.json": text, **files}


GRAPH = {"g.edges": "a b\n"}
# Every input refused with exit 2: argv, the files it reads, written to the
# working directory first, and the one stderr line after "error: ". A bound
# is checked where its source is built, so argv and a spec get one line.
USAGE_ERRORS = [
    ("fuzz --n 3", {},
     "the following arguments are required: --p, --count, --seed"),
    ("bogus", {}, "argument command: invalid choice: 'bogus' (choose from "
     "'analyze', 'check', 'fuzz', 'exhaustive', 'conjecture', 'fixtures')"),
    ("exhaustive --n x", {}, "argument --n: invalid int value: 'x'"),
    ("fuzz --n a..b --p 0.3 --count 2 --seed 1", {},
     "bad range 'a..b'; expected a..b"),
    # an order below 1 would scan no graph and read as a clean run
    *((f"conjecture --max-n {k}", {}, f"--max-n supports 1..7, got {k}")
      for k in ("0", "-3", "8")),
    # no clean run with every oracle field skipped, nor a serial one
    ("analyze g.edges --oracle-limit -1", GRAPH,
     "--oracle-limit needs N >= 0, got -1"),
    ("exhaustive --n 3 --oracle-limit -5", {},
     "--oracle-limit needs N >= 0, got -5"),
    *((f"fuzz --n 3..3 --p 0.3 --count 1 --seed 1 --workers {k}", {},
       f"--workers needs K >= 1, got {k}") for k in ("0", "-3")),
    ("check g.edges --property no.such.thing", GRAPH,
     "unknown property 'no.such.thing'"),
    ("analyze /nonexistent/g.edges", {},
     "[Errno 2] No such file or directory: '/nonexistent/g.edges'"),
    ("analyze bad.edges", {"bad.edges": "a b\nc c\n"},
     "bad.edges:2: self-loop at 'c'"),
    ("analyze latin1.edges", {"latin1.edges": "a b\ncafé b\n".encode(
        "latin-1")}, "latin1.edges:2: not UTF-8: byte 0xe9 "
     "(invalid continuation byte)"),
    (*_spec({"kind": "files", "paths": ["bad.edges"]},
            **{"bad.edges": "a b c\n"}),
     "bad.edges:1: expected two tokens, got 3"),
    (*_spec('{"sources": ["café"]}'.encode("latin-1")),
     "c.json:1: not UTF-8: byte 0xe9 (invalid continuation byte)"),
    (*_spec("not json"), "corpus spec is not valid JSON: "
     "Expecting value: line 1 column 1 (char 0)"),
    *((*_spec(text), "corpus spec must be an object with a 'sources' list")
      for text in ("[1, 2]", '{"sources": 5}')),
    (*_spec('{"sources": [{"n": 3}]}'),
     "corpus source needs a 'kind': {'n': 3}"),
    (*_spec({"kind": "martian"}), "unknown corpus source kind 'martian'"),
    (*_spec({"kind": "random", "n": [3, 5]}),
     "bad corpus source {'kind': 'random', 'n': [3, 5]}: 'p'"),
    *((*_spec(source), line) for source, line in SOURCES),
    ("exhaustive --n 9", {}, "exhaustive source supports n <= 7, got 9"),
    ("exhaustive --n -1", {}, "exhaustive source needs n >= 0, got -1"),
    ("fuzz --n 3..4 --p 0.3 --count -1 --seed 1", {},
     "random source needs count >= 0, got -1"),
    ("fuzz --n 9..6 --p 0.3 --count 2 --seed 1", {},
     "random source needs 0 <= lo <= hi, got n = [9, 6]"),
    *((f"fuzz --n 5..6 --p {p} --count 0 --seed 1 --json", {},
       f"random source needs 0 <= p <= 1, got p = {float(p)}")
      for p in ("1.5", "-0.25", "nan")),
]


@pytest.mark.parametrize("argv,files,line", USAGE_ERRORS, ids=[
    f"spec: {line}" if "c.json" in files else argv
    for argv, files, line in USAGE_ERRORS])
def test_bad_input_exits_2(capsys, tmp_path, monkeypatch, argv, files, line):
    monkeypatch.chdir(tmp_path)
    for name, data in files.items():
        (tmp_path / name).write_bytes(
            data if type(data) is bytes else data.encode())
    assert run_cli(capsys, *argv.split()) == (2, "", f"error: {line}\n")


def analyze_cafe_under_the_c_locale(tmp_path, *flags) -> bytes:
    """The stdout of critset analyze on a graph labelled café, run with
    ASCII stdio, which exits 0 with nothing on stderr."""
    f = tmp_path / "cafe.edges"
    f.write_bytes("vertex café\n".encode())
    env = dict(os.environ, PYTHONPATH=str(FIXDIR.parents[1]), LC_ALL="C",
               PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    done = subprocess.run(
        [sys.executable, "-m", "critset.cli", "analyze", *flags, str(f)],
        env=env, capture_output=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, b"")
    return done.stdout


def test_graph_files_are_read_as_utf8_under_the_c_locale(tmp_path):
    # the locale's ASCII refused the label, naming neither file nor line
    stdout = analyze_cafe_under_the_c_locale(tmp_path, "--json")
    assert json.loads(stdout)["ker"] == ["café"]


def test_text_report_escapes_what_stdout_cannot_encode(tmp_path):
    # an ASCII stdout refused the label, and the report exited 2 as if its
    # input were bad
    stdout = analyze_cafe_under_the_c_locale(tmp_path)
    assert b"  ker     = caf\\xe9\n" in stdout


def test_a_byte_order_mark_is_not_read_as_text(capsys, tmp_path):
    # a leading UTF-8 byte-order mark is not text: kept, it would join the
    # first label and spoil the DIMACS line type and the JSON spec
    edges, dimacs, spec = (tmp_path / "k3.edges", tmp_path / "k3.col",
                           tmp_path / "c.json")
    files = {"sources": [{"kind": "files", "paths": [str(edges)]}]}
    for path, text in [(edges, "a b\nb c\nc a\n"),
                       (dimacs, "p edge 3 3\ne 1 2\ne 2 3\ne 3 1\n"),
                       (spec, json.dumps(files))]:
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
    triangle = [(0, 1), (0, 2), (1, 2)]
    g = read_graph_file(str(edges))
    assert (g.labels, g.edge_pairs()) == (("a", "b", "c"), triangle)
    assert read_graph_file(str(dimacs)).edge_pairs() == triangle
    code, out, err = run_cli(capsys, "conjecture", "--corpus", str(spec))
    assert (code, out.splitlines()[0], err) == (
        0, "graphs: 1  checked: 1  skipped: 0  violations: 0", "")


def critset_process(*argv, **kwargs) -> subprocess.Popen:
    """critset argv in a fresh interpreter, its stderr piped and its stdout
    block-buffered, as run from a shell, whatever PYTHONUNBUFFERED says."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(FIXDIR.parents[1])
    return subprocess.Popen([sys.executable, "-m", "critset.cli", *argv],
                            env=env, stderr=subprocess.PIPE, **kwargs)


def test_a_closed_pipe_exits_4_with_one_line():
    # `exhaustive --n 4 --json | head -c 100`: the 190 kB report outgrows
    # the pipe, and a report that cannot be written is no input error (2)
    proc = critset_process("exhaustive", "--n", "4", "--json",
                           stdout=subprocess.PIPE)
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    assert (proc.communicate(timeout=60)[1], proc.returncode) == (
        b"error: cannot write output: [Errno 32] Broken pipe\n", 4)


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="no /dev/full to write to")
@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_a_full_device_exits_4_with_one_line(flags):
    # `analyze [--json] > /dev/full`: the report fits stdout's buffer, so
    # the error comes from main's final flush, and the interpreter's own
    # flush at exit must not fail again
    with open("/dev/full", "wb") as full:
        proc = critset_process("analyze", str(FIXDIR / "fig511.edges"),
                               *flags, stdout=full)
        assert (proc.communicate(timeout=60)[1], proc.returncode) == (
            b"error: cannot write output: [Errno 28] No space left on "
            b"device\n", 4)


def test_a_closed_stdout_exits_4_with_one_line():
    # `analyze --json >&-`: Python sets sys.stdout to None, to which print
    # writes nothing without a word
    proc = critset_process("analyze", str(FIXDIR / "fig511.edges"), "--json",
                           preexec_fn=lambda: os.close(1))
    assert (proc.communicate(timeout=60)[1], proc.returncode) == (
        b"error: cannot write output: stdout is closed\n", 4)


def test_a_closed_stream_exits_4_in_process(capsys, monkeypatch):
    # a stream an in-process caller closed raises ValueError on write,
    # which is no input error either
    closed = io.StringIO()
    closed.close()
    monkeypatch.setattr(sys, "stdout", closed)
    assert cli.main(["analyze", str(FIXDIR / "fig511.edges")]) == 4
    assert capsys.readouterr().err == (
        "error: cannot write output: I/O operation on closed file\n")


def test_internal_error_exits_4_with_one_line(capsys, monkeypatch):
    def deep(*args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(critical, "_max_matching_lists", deep)
    code, out, err = run_cli(capsys, "analyze", str(FIXDIR / "fig511.edges"))
    assert code == cli.EXIT_INTERNAL == 4
    assert out == ""
    assert err.splitlines() == [
        "internal error: RecursionError('maximum recursion depth exceeded')"]


@pytest.mark.parametrize("argv", [
    ["check", str(FIXDIR / "fig511.edges"), "--all", "--json"],
    ["fuzz", "--n", "6..8", "--p", "0.3", "--count", "3", "--seed", "1",
     "--json"]], ids=["check", "fuzz"])
def test_memory_exhaustion_in_the_oracle_tier_exits_4(capsys, monkeypatch,
                                                      argv):
    # a raised --oracle-limit can ask the subset lanes for more memory than
    # there is; that is an internal error, never a failed property (exit 1)
    def exhausted(n):
        raise MemoryError()

    monkeypatch.setattr(oracle, "_subset_lanes", exhausted)
    assert run_cli(capsys, *argv) == (
        cli.EXIT_INTERNAL, "", "internal error: MemoryError()\n")


def test_internal_error_mid_sweep_exits_4_with_a_truncated_report(
        capsys, monkeypatch):
    # the report is written graph by graph, so a check that breaks on the
    # second graph leaves the first one's part of the report on stdout
    code, full, _ = run_cli(capsys, "exhaustive", "--n", "3", "--json")
    assert code == 0
    first = props.registry()[0]

    def broken(f):
        if f.g.m:
            raise RuntimeError("check broke")
        return first.check(f)

    monkeypatch.setattr(props, "_PROPERTIES",
                        [first._replace(check=broken), *props.registry()[1:]])
    code, out, err = run_cli(capsys, "exhaustive", "--n", "3", "--json")
    assert code == cli.EXIT_INTERNAL == 4
    assert err.splitlines() == ["internal error: RuntimeError('check broke')"]
    assert '"key": "exhaustive:n=3:0"' in out
    assert full.startswith(out) and len(out) < len(full)


class _Discard(io.TextIOBase):
    def write(self, text):
        return len(text)


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_corpus_run_memory_does_not_grow_with_the_corpus(monkeypatch, flags):
    # the 1,024 per-graph reports of the n = 5 sweep are rendered and
    # dropped one by one; holding them all took 6 MB as text, 11 MB as JSON
    monkeypatch.setattr(sys, "stdout", _Discard())
    assert cli.main(["exhaustive", "--n", "2", *flags]) == 0
    tracemalloc.start()
    try:
        code = cli.main(["exhaustive", "--n", "5", *flags])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 1 << 20, peak


def test_workers_flag_alone_sets_the_worker_count(capsys, monkeypatch):
    # the environment sets no default: without --workers a run gets 1
    seen = []

    def fake_stream_run(corpus, names, config):
        seen.append(config.workers)
        return {}, iter(()), {"fails": 0, "limit_skips": 0}

    monkeypatch.setattr(props, "stream_run", fake_stream_run)
    monkeypatch.setenv("CRITSET_WORKERS", "3")
    assert run_cli(capsys, "exhaustive", "--n", "1", "--json")[0] == 0
    assert run_cli(capsys, "exhaustive", "--n", "1", "--json",
                   "--workers", "5")[0] == 0
    assert seen == [1, 5]


def test_exhaustive_small_sweep(capsys):
    code, out, _ = run_cli(capsys, "exhaustive", "--n", "5",
                           "--properties", "zhang.d_eq_id", "th6.ker_subset_core")
    assert code == 0
    assert out.startswith("graphs: 1024 ")
    assert "fails: 0" in out


def test_fuzz_output_is_byte_stable(capsys):
    argv = ["fuzz", "--n", "6..9", "--p", "0.3", "--count", "8", "--seed",
            "42", "--json"]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    code3, out3, _ = run_cli(capsys, *argv, "--workers", "2")
    assert code3 == 0 and out3 == out1


def test_reports_do_not_depend_on_the_hash_seed():
    # str hashes are salted per process, so a report that iterated a set or
    # a dict keyed by labels, or a renderer memo keyed by dict items, would
    # change with PYTHONHASHSEED: each command runs in a fresh interpreter
    # under four salts; about 2 s on 2 CPUs
    commands = [
        ["exhaustive", "--n", "4", "--json"],
        ["fuzz", "--n", "8..12", "--p", "0.3", "--count", "12", "--seed",
         "5", "--json"],
        ["check", "--all", "--json", str(FIXDIR / "fig511.edges")],
        ["check", "--all", "--json", str(FIXDIR / "fig233.edges")],
        ["analyze", "--json", str(FIXDIR / "fig1777.edges")],
        ["analyze", "--json", str(FIXDIR / "fig333_g2.edges")],
        ["conjecture", "--max-n", "5", "--json"]]
    started = time.perf_counter()
    for argv in commands:
        outs = []
        for salt in range(4):
            env = dict(os.environ, PYTHONPATH=str(FIXDIR.parents[1]),
                       PYTHONHASHSEED=str(salt))
            done = subprocess.run(
                [sys.executable, "-m", "critset.cli", *argv], env=env,
                capture_output=True, timeout=120)
            assert (done.returncode, done.stderr) == (0, b""), argv
            outs.append(done.stdout)
        assert outs[0] and outs[1:] == outs[:1] * 3, argv
    assert time.perf_counter() - started < 20


def test_fuzz_takes_a_one_number_range(capsys):
    code, out, _ = run_cli(capsys, "fuzz", "--n", "8", "--p", "0.3",
                           "--count", "3", "--seed", "2", "--json")
    assert code == 0
    assert json.loads(out)["corpus"]["sources"] == [
        {"kind": "random", "n": [8, 8], "p": 0.3, "count": 3, "seed": 2}]
    assert [g["n"] for g in json.loads(out)["graphs"]] == [8, 8, 8]


def test_fuzz_failures_are_listed_and_exit_1(capsys):
    # with p = 0 both graphs are edgeless on 4 vertices, so alpha = 4 and
    # the deliberately false selftest property fails on each
    argv = ["fuzz", "--n", "4..4", "--p", "0", "--count", "2", "--seed", "1",
            "--properties", "selftest.alpha_le_two"]
    code, out, _ = run_cli(capsys, *argv)
    witness = ('witness: {"alpha": 4, "independent_triple": '
               '["0", "1", "2"]}')
    assert code == 1
    assert out.splitlines()[1:] == [
        "failures:",
        f"  random:seed=1:0  selftest.alpha_le_two  {witness}",
        f"  random:seed=1:1  selftest.alpha_le_two  {witness}"]
    code, out, _ = run_cli(capsys, *argv, "--json")
    summary = json.loads(out)["summary"]
    assert code == 1 and summary["fails"] == 2
    assert [f["graph"] for f in summary["failures"]] == [
        "random:seed=1:0", "random:seed=1:1"]


def test_strict_limit_skips_exit_3(capsys):
    code, out, _ = run_cli(capsys, "exhaustive", "--n", "3", "--oracle-limit",
                           "2", "--strict", "--properties", "th4.supermodular")
    assert code == 3
    assert out.splitlines()[1:] == [
        "skip reasons:", "  n=3 exceeds oracle limit 2: 8"]
    assert run_cli(capsys, "check", str(FIXDIR / "fig511.edges"),
                   "--property", "zhang.d_eq_id", "--oracle-limit", "2",
                   "--strict") == (
        3, "zhang.d_eq_id: skipped: n=13 exceeds oracle limit 2\n", "")


def test_conjecture_sweep(capsys):
    code, out, _ = run_cli(capsys, "conjecture", "--max-n", "4")
    assert code == 0
    assert "violations: 0" in out
    assert "n=4: graphs=64 min_slack=0" in out


def test_conjecture_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "conjecture", "--max-n", "3", "--json")
    rep = json.loads(out)
    assert code == 0
    assert rep["kind"] == "conjecture-scan"
    assert rep["summary"]["min_slack"] == 0


@pytest.mark.parametrize("flags", [["--no-oracle"], ["--oracle-limit", "2"]])
def test_conjecture_strict_exits_3_when_a_limit_cut_the_upper_bound(
        capsys, flags):
    # the upper slack is skipped for a whole order n at once, so no graph is
    # listed as skipped; the order's min_slack_upper stays unset
    code, out, _ = run_cli(capsys, "conjecture", "--max-n", "3", *flags)
    assert code == 0
    assert "  n=3: graphs=8 min_slack=0 min_slack_upper=-\n" in out
    assert run_cli(capsys, "conjecture", "--max-n", "3", "--strict",
                   *flags) == (3, out, "")


def test_conjecture_lists_files_past_the_alpha_limit(capsys, tmp_path):
    f = tmp_path / "p42.edges"
    f.write_text("".join(f"{v} {v + 1}\n" for v in range(41)))
    spec = tmp_path / "corpus.json"
    spec.write_text(json.dumps(
        {"sources": [{"kind": "files", "paths": [str(f)]}]}))
    code, out, _ = run_cli(capsys, "conjecture", "--corpus", str(spec))
    assert code == 0
    assert out.splitlines()[0] == (
        "graphs: 1  checked: 0  skipped: 1  violations: 0")
    assert f"  skipped file:{f}: n=42 exceeds alpha limit 40" in out
    assert run_cli(capsys, "conjecture", "--corpus", str(spec),
                   "--strict") == (3, out, "")


def test_conjecture_violation_exits_1(capsys, monkeypatch):
    fake = {
        "schema": 1, "kind": "conjecture-scan", "corpus": {"sources": []},
        "per_n": {"4": {"graphs": 1, "min_slack": -2, "min_slack_upper": 0}},
        "summary": {"graphs": 1, "checked": 1, "skipped": [],
                    "min_slack": -2, "min_slack_upper": 0,
                    "violations": [{
                        "graph": "exhaustive:n=4:7", "kind": "ker-diadem",
                        "n": 4, "edges": [[0, 1]], "lhs": 10, "rhs": 8,
                        "shrunk": {"n": 2, "edges": [[0, 1]],
                                   "lhs": 5, "rhs": 4}}]},
    }
    monkeypatch.setattr(corpus, "conjecture_scan",
                        lambda spec, config: fake)
    code, out, _ = run_cli(capsys, "conjecture", "--max-n", "4")
    assert code == 1
    assert "VIOLATION (ker-diadem)" in out and "shrunk witness: n=2" in out


def test_conjecture_corpus_file(capsys, tmp_path):
    spec = tmp_path / "corpus.json"
    spec.write_text(json.dumps({"sources": [{"kind": "fixtures"}]}))
    code, out, _ = run_cli(capsys, "conjecture", "--corpus", str(spec),
                           "--json")
    rep = json.loads(out)
    assert code == 0
    assert rep["summary"]["graphs"] == 16
    assert rep["summary"]["violations"] == []


def test_fixtures_list(capsys):
    code, out, _ = run_cli(capsys, "fixtures")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 16
    assert lines[0].startswith("fig511")


def test_fixtures_verify_reports_notes(capsys):
    code, out, _ = run_cli(capsys, "fixtures", "verify")
    assert code == 0
    assert out.count(" ok ") == 16
    assert "FAIL" not in out
    assert "note on ker_b" in out
    assert "note on diadem" in out


def test_fixtures_verify_prints_a_wrong_expectation_and_exits_1(
        capsys, monkeypatch):
    from critset import fixtures
    load = fixtures.load

    def wrong_d(name):
        fx = load(name)
        if name == "fig511":
            fx = fx._replace(expected={**fx.expected, "d": 5})
        return fx

    monkeypatch.setattr(fixtures, "load", wrong_d)
    code, out, _ = run_cli(capsys, "fixtures", "verify")
    assert code == 1
    assert out.startswith("fig511         FAIL  (")
    assert "    d: expected 5, got 1\n" in out
    assert out.count(" ok ") == 15


@pytest.mark.parametrize("flags,code", [
    (["--no-oracle"], 0), (["--no-oracle", "--strict"], 3),
    (["--oracle-limit", "5"], 0)])
def test_fixtures_verify_reports_limits_as_skipped(capsys, flags, code):
    got, out, err = run_cli(capsys, "fixtures", "verify", *flags)
    assert (got, err) == (code, "")
    assert "FAIL" not in out
    assert "fig101         ok  (10 values checked, 4 skipped)\n" in out
    reason = "oracle disabled" if "--no-oracle" in flags else \
        "n=10 exceeds enumeration limit 5"
    assert f"    skipped corona_is_critical: {reason}\n" in out

    got, out, _ = run_cli(capsys, "fixtures", "verify", "--json", *flags)
    fig101 = json.loads(out)["reports"][1]
    assert got == code and fig101["holds"]
    skipped = {c["key"]: c["skipped"] for c in fig101["checks"]
               if "skipped" in c}
    assert skipped == dict.fromkeys(
        ["core", "corona", "corona_is_critical", "v_minus_corona"], reason)
    assert all("holds" not in c for c in fig101["checks"] if "skipped" in c)


def test_check_all_skips_the_ker_search_past_the_limit(capsys, tmp_path):
    # 25 disjoint P3s: the tight-set search over N(ker) would range over 25
    # vertices, past the oracle limit, so th9 is a limit skip, not a failure
    f = tmp_path / "p3x25.edges"
    f.write_text("".join(f"a{i} b{i}\nb{i} c{i}\n" for i in range(25)))
    code, out, _ = run_cli(capsys, "check", "--all", str(f))
    assert code == 0
    assert ("th9.ker_characterization: skipped: neighborhood too large for "
            "the tight-set search\n") in out
    assert "fails" not in out


def test_dimacs_format_flag(capsys, tmp_path):
    f = tmp_path / "c4.col"
    f.write_text("p edge 4 4\ne 1 2\ne 2 3\ne 3 4\ne 4 1\n")
    code, out, _ = run_cli(capsys, "analyze", "--json", str(f))
    rep = json.loads(out)
    assert code == 0
    assert rep["n"] == 4 and rep["m"] == 4 and rep["bipartite"]


# sha256 of stdout and the exit code, computed before the oracle families
# were read off the subset tables and before the JSON renderer replaced
# json.dumps; the fuzz call spanned both routes the families had then
PINNED_OUTPUTS = [
    (("exhaustive", "--n", "4", "--json"), 0,
     "7a981e5e7b8c304efc0755d9061a150f51d70a6dd50964c9a087f66d93423024"),
    (("exhaustive", "--n", "5", "--json"), 0,
     "935cece80b2f56aea7f476ea2a79fc6fdeae918845a5e91957e3ac969e24f114"),
    # the same two sweeps through the process pool's windows
    (("exhaustive", "--n", "4", "--json", "--workers", "2"), 0,
     "7a981e5e7b8c304efc0755d9061a150f51d70a6dd50964c9a087f66d93423024"),
    (("exhaustive", "--n", "5", "--json", "--workers", "2"), 0,
     "935cece80b2f56aea7f476ea2a79fc6fdeae918845a5e91957e3ac969e24f114"),
    (("exhaustive", "--n", "5", "--json", "--no-oracle"), 0,
     "a8244b3ce90a2fc2d63a8a4e0a6913989e85d041a7fe821239f6b4c383feb896"),
    (("exhaustive", "--n", "5", "--json", "--oracle-limit", "4"), 0,
     "6b63c2b3fd6e2ff38ef2cb062dd16596df50a41862c237080df8b4e068d2f501"),
    (("fuzz", "--n", "6..14", "--p", "0.3", "--count", "24", "--seed", "9",
      "--json"), 0,
     "f38de77132ea58c17a3eadea5b8dee73f4a55e19c79e58fb4b72b19f01b1ddc3"),
    (("conjecture", "--max-n", "5", "--json"), 0,
     "e857dbd6ceefefa703a6345bab7d741a7ee97ff2f01ccee72f78d5ccfde751c0"),
    # computed before the exhaustive scan evaluated one graph per
    # isomorphism class
    (("conjecture", "--max-n", "6", "--json"), 0,
     "6b766934998496a51c5f66e2df0553d97556e2eb26785062a9486f2ba49a3d20"),
    # computed before the exhaustive scan counted each class's members at
    # once instead of one by one
    (("conjecture", "--max-n", "7", "--json"), 0,
     "78c78dba5e52d3daf0ec198cc1af8bc4d60d6cc182e441104b4a378c8af700b1"),
    (("conjecture", "--max-n", "5", "--json", "--no-oracle"), 0,
     "747dcd4483426f4bd64519462a0c88305b7de8bc6d5a30a93fffb024341e09c8"),
    (("conjecture", "--max-n", "5", "--json", "--oracle-limit", "3"), 0,
     "57a61727fcaab55aa3ef34d0e5bab2f8f1a9c4968e82a3c29fd370bfb6c5559c"),
    # computed before the d table was built in byte lanes and the table
    # route moved up to n <= 18: n = 13..17 on the table route, the same
    # with the oracle limit cutting it off at 15, and n = 17..20 across the
    # route boundary
    (("fuzz", "--n", "13..17", "--p", "0.3", "--count", "10", "--seed", "4",
      "--json"), 0,
     "4c47e99b9d39b6ca25ca8b879385869f77192cf4d722ee1eb8e9360f5605b237"),
    (("fuzz", "--n", "13..17", "--p", "0.3", "--count", "10", "--seed", "4",
      "--json", "--oracle-limit", "15"), 0,
     "bb1751183dd67129003617821a6ab01b851ea9212b11a648c34b68d792e3fc34"),
    (("fuzz", "--n", "17..20", "--p", "0.3", "--count", "6", "--seed", "4",
      "--json"), 0,
     "d158375d2c3d68090cdbbd3dd4cc71b5329dc6d49a93972bad7bd03b8200313f"),
    # computed before the critical and minimal positive families came off
    # the subset tables above n = 18: sparse graphs, with large families
    (("fuzz", "--n", "19..20", "--p", "0.1", "--count", "4", "--seed", "6",
      "--json"), 0,
     "1264784749c1c62eae726d002b027e28c3ad4687f535509a71b0e15cde61196d"),
    # computed before the d table was kept as bytes: sparse graphs, with
    # dozens to hundreds of critical masks for the closure's pair scan, and
    # dense ones
    (("fuzz", "--n", "12..14", "--p", "0.15", "--count", "12", "--seed", "5",
      "--json"), 0,
     "60fd4a1bf894ece73dfa566eda3c88254e2c1e72c2ab40e89fd22a5aa443c914"),
    (("fuzz", "--n", "12..14", "--p", "0.5", "--count", "12", "--seed", "5",
      "--json"), 0,
     "adfc0ab34d192bd1b442400ee7c133781c670372a1570cc1bd26160b32525b91"),
    # computed before th5 and ke.is_ke read the KE-via-critical route off
    # Facts: sparse graphs past the table route's reach, where the critical
    # pass runs its DFS, under --no-oracle and with the two checks alone
    (("fuzz", "--n", "17..20", "--p", "0.15", "--count", "6", "--seed", "3",
      "--json", "--no-oracle"), 0,
     "ab56f95baaec23c001cda960ef3e19f02550ed43c032005cd98feb47038e482d"),
    (("fuzz", "--n", "17..20", "--p", "0.15", "--count", "6", "--seed", "3",
      "--json", "--properties", "th5.ke_iff_every_mis_critical", "ke.is_ke"),
     0, "888fffb2cd735d6f0ee03ec240f5a2b7f39457d7f2111f82af84159baeec1b1b"),
    # computed before `fixtures verify` read the analyze report
    (("fixtures", "verify"), 0,
     "c417bd2ab03814f8c5674a24f5905d91f567e53942d707e4fd97d57ed18cf0a6"),
    (("fixtures", "verify", "--json"), 0,
     "dec5a5b92bbb1078e2e7c8c1db71b362237e24d82c769ccf1c6f757c8436af0a"),
]


# sha256 of `analyze --json` on each fixture, computed before the KE
# identities were built as report dicts in one place; the report holds no
# path, so the digests do not depend on where the fixtures live
ANALYZE_DIGESTS = [
    ("fig101",
     "ec0376dae4ce8ee99550ab0b41137065fbef73014cd0359f26c897d0fc6d645f"),
    ("fig14_g1",
     "e5816eab0acbaa31199384269fcaf7508f63194fbd63162e15cfe1a65522489a"),
    ("fig14_g2",
     "5042394c01619ff15bb5f5a8189703b86dd1333b59bcddcf828ee9ad67e05e1b"),
    ("fig177",
     "c739a477b0f8e7993361a30c07b74771237c7e049b24cb9aebb8071cd7ce1e4e"),
    ("fig1777",
     "9a535eef21469ae0523893a127bddc142a06387c903f881b57550a3d83a7bee3"),
    ("fig17888_g1",
     "1700a9d32a3d0b373b0e8a44b6c354d0df6745ecbeeb4ccec1c803a610cfd759"),
    ("fig17888_g2",
     "ba85caac989aebc9fa731d718d3e94148b3b41b50fefec882c0ba0ff1d04fd16"),
    ("fig222_g1",
     "dea2b4b5353c707218de0ea5212d7c58de006ddf3e5714e5432d1e765fa24a64"),
    ("fig222_g2",
     "a6887809e2d61fb98d177c074fb516b841443d7125d363a12473f6e0b0f0eff2"),
    ("fig22_g1",
     "37602c72a4a1bf122cd6940462a700e7ca1d41b126924c611af458b16bdaecbc"),
    ("fig22_g2",
     "5e79521486e96c1c7ca2226fd6e8a719f96a27ed21799e424f4093c24f696588"),
    ("fig233",
     "08341344b5884fe7709f18177c773384e167f522c535b133443cfe07f08532c3"),
    ("fig333_g1",
     "6056c98aa48b7de2ecbfd1a03831fe06f9680fd831eca6b6d75249946b5b6087"),
    ("fig333_g2",
     "8d6b04618d10966e6652f019b6567b98deee74fc8140c0984116921512b99630"),
    ("fig333_g3",
     "a62b336ca4e9071e17674fd409660854beb24436d0c69bb2688361bbff858387"),
    ("fig511",
     "f072914e6b16eab5e2ada4a72182e60bccfd4bcef2a76c2c1fac335057d6d911"),
]
PINNED_OUTPUTS += [(("analyze", "--json", str(FIXDIR / f"{stem}.edges")), 0,
                    digest) for stem, digest in ANALYZE_DIGESTS]


# a file argument appears in the test id by its name alone
@pytest.mark.parametrize("argv,code,digest", PINNED_OUTPUTS,
                         ids=[" ".join(Path(a).name for a in argv)
                              for argv, _, _ in PINNED_OUTPUTS])
def test_output_bytes_are_pinned(capsys, argv, code, digest):
    got, out, _ = run_cli(capsys, *argv)
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


@pytest.mark.parametrize("argv", [
    ["analyze", "--json", str(FIXDIR / "fig233.edges")],
    ["check", "--json", "--property", "selftest.alpha_le_two",
     str(FIXDIR / "fig511.edges")],
    ["fuzz", "--n", "4..9", "--p", "0.4", "--count", "6", "--seed", "3",
     "--json"],
    ["conjecture", "--max-n", "4", "--json"],
    ["fixtures", "list", "--json"],
    ["fixtures", "verify", "--json"],
    # the one float a report holds is a random source's p, within [0, 1]
    *(["fuzz", "--n", "3..5", "--p", p, "--count", "2", "--seed", "1",
       "--json"] for p in ("1e-05", "0.1", "1.0"))],
    ids=["analyze", "check", "run", "conjecture", "fixtures-list",
         "fixtures-verify", "run-p-1e-05", "run-p-0.1", "run-p-1.0"])
def test_every_report_kind_renders_as_json_dumps(capsys, argv):
    _, out, _ = run_cli(capsys, *argv)
    doc = json.loads(out)
    if argv[0] == "analyze":
        assert doc["bipartite"] and doc["ke_identities"]
    if argv[0] == "check":
        assert doc["results"][0]["witness"]["independent_triple"]
    if argv[0] == "fuzz":
        p = doc["corpus"]["sources"][0]["p"]
        assert type(p) is float and p == float(argv[4])
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"


# no report holds NaN or an infinity (see above), and _dump renders
# neither as json.dumps does
_scalars = (st.none() | st.booleans() | st.integers()
            | st.integers(min_value=2 ** 64, max_value=2 ** 200)
            | st.floats(allow_nan=False, allow_infinity=False)
            | st.sampled_from([0.1, 1e-7, 1e16, -0.0])
            | st.text()
            | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "é ∅ 😀"]))
_values = st.recursive(
    _scalars,
    lambda kids: (st.lists(kids, max_size=4)
                  | st.lists(kids, max_size=3).map(tuple)
                  | st.dictionaries(st.text(max_size=6), kids, max_size=4)),
    max_leaves=24)


# 300 labels holding quotes, backslashes, control characters and non-ASCII,
# as a label array of an analyze report would if the input used them
_LABELS = [str(i) + '"\\\n\x00\x1f\x7f é∅😀'[i % 11:] for i in range(300)]


@given(_values)
@example(_LABELS)
@example(tuple(_LABELS))
@example({"ore": [[_LABELS[:5], ["é", '"']], [[]]], "ker": [[_LABELS]]})
@example(["a", 1, None, "b", ["c"], ("d",), True])
@example([{"x": "1"}, {"x": "1"}, {"x": 1}, {"x": True}, {"x": 1.0},
          {"y": {"x": "1"}}, {}, [], [[]], {"e": {}}])
@example({"a": [{"p": "x"}], "b": {"c": [{"p": "x"}]}, "d": [{"q": "x"}],
          "e": [[{"p": "x"}], [{"p": "x"}, {}], ({"p": "x"},)]})
def test_renderer_matches_json_dumps(doc):
    assert cli._dump(doc) == json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize("doc", [{"ker": {"a"}}, [1, b"x"], {"p": [object()]}])
def test_renderer_refuses_what_json_dumps_refuses(doc):
    with pytest.raises(TypeError) as want:
        json.dumps(doc, indent=2, sort_keys=True)
    with pytest.raises(TypeError, match=f"^{re.escape(str(want.value))}$"):
        cli._dump(doc)


def test_label_arrays_render_without_a_call_per_label(monkeypatch):
    calls = []
    render = cli._render

    def counted(o, nl, memo):
        calls.append(o)
        return render(o, nl, memo)

    monkeypatch.setattr(cli, "_render", counted)
    for labels in _LABELS, tuple(_LABELS):
        calls.clear()
        assert cli._dump({"ker": labels}) == json.dumps(
            {"ker": labels}, indent=2, sort_keys=True)
        assert calls == [{"ker": labels}, labels]
