"""Command-line surface for the library.

Subcommands: analyze one graph, check properties on one graph, fuzz random
corpora, sweep all labeled graphs at a fixed order, scan the conjecture
sandwich, and list or verify the bundled fixtures. Exit codes: 0 everything
held, 1 a property failed or a scan found a violation, 2 usage or input
error, 3 a limit was hit while --strict was on, 4 an internal error (any
other exception) or a report that could not be written, each reported on
one stderr line. All JSON output carries "schema": 1, sorts its keys, and
serializes vertex sets as arrays of the original labels in vertex-id
order. A command imports the property registry (props) and the corpora
(corpus) only when it runs and needs them, so a fresh `critset analyze`
compiles neither.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from itertools import chain
from typing import TYPE_CHECKING

from .graphs import (EXHAUSTIVE_MAX_N, LimitExceeded, read_graph_file,
                     read_utf8)
from .oracle import ORACLE_LIMIT, Config, Facts

if TYPE_CHECKING:  # annotations only: the commands import it when they run
    from .corpus import CorpusSpec

EXIT_OK, EXIT_FAIL, EXIT_USAGE, EXIT_LIMIT, EXIT_INTERNAL = 0, 1, 2, 3, 4


class _OutputError(Exception):
    """The report could not be written."""


class _Report:
    """sys.stdout while main runs a command: the real stream, with a write
    or flush that fails, or a stdout that is closed (None), raised as an
    _OutputError, so that main tells output it cannot write from input it
    cannot read."""

    def __init__(self, stream):
        self.stream = stream

    def write(self, text: str) -> int:
        return self._call("write", text)

    def flush(self) -> None:
        self._call("flush")

    def _call(self, method: str, *args):
        if self.stream is None:
            raise _OutputError("stdout is closed")
        try:
            return getattr(self.stream, method)(*args)
        except OSError as exc:
            self._discard_rest()
            raise _OutputError(exc) from None
        except ValueError as exc:  # a closed or unencodable stream
            raise _OutputError(exc) from None

    def _discard_rest(self) -> None:
        """Point the stream's file descriptor, if it has one, at os.devnull,
        so the interpreter's flush at exit does not fail again (see
        https://docs.python.org/3/library/signal.html#note-on-sigpipe)."""
        try:
            fd = self.stream.fileno()
        except (OSError, ValueError):
            return
        with open(os.devnull, "w", encoding="utf-8") as devnull:
            os.dup2(devnull.fileno(), fd)


def _dump(doc: dict) -> str:
    """json.dumps(doc, indent=2, sort_keys=True), byte for byte.

    With indent set, json takes its pure-Python encoder; this renderer joins
    strings instead, and encodes every string with json's C escaper, a label
    array in one pass. A run report repeats a few result entries thousands
    of times, so a dict whose values are all strings, and a list of such
    dicts, such as a graph's results when none fails, is rendered once per
    indentation.
    """
    return _render(doc, "\n", {})


_encode_str = json.encoder.encode_basestring_ascii
_STR_ONLY, _DICT_ONLY = {str}, {dict}


def _render(o, nl: str, memo: dict) -> str:
    """o as json.dumps renders it with indent=2 and sorted keys, where nl is
    a newline and the indentation of o's own line. A list or tuple of
    strings only, such as a vertex set's labels, is escaped and joined in
    one pass, without a call per item. Keys must be strings and floats
    finite: the one float a report holds is a random source's p, which
    random_corpus confines to [0, 1]."""
    if type(o) is str:
        return _encode_str(o)
    if isinstance(o, dict):
        if not o:
            return "{}"
        key = None
        if set(map(type, o.values())) == _STR_ONLY:
            key = (nl, *o.items())
            text = memo.get(key)
            if text is not None:
                return text
        inner = nl + "  "
        text = "{" + inner + ("," + inner).join([
            _encode_str(k) + ": " + _render(o[k], inner, memo)
            for k in sorted(o)]) + nl + "}"
        if key is not None:
            memo[key] = text
        return text
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = nl + "  "
        types = set(map(type, o))
        if types == _STR_ONLY:
            return "[" + inner + ("," + inner).join(
                map(_encode_str, o)) + nl + "]"
        key = None
        if types == _DICT_ONLY and set(
                map(type, chain.from_iterable(map(dict.values, o)))
        ) == _STR_ONLY:
            key = (nl, *map(tuple, map(dict.items, o)))
            text = memo.get(key)
            if text is not None:
                return text
        text = "[" + inner + ("," + inner).join([
            _render(x, inner, memo) for x in o]) + nl + "]"
        if key is not None:
            memo[key] = text
        return text
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return float.__repr__(o)
    raise TypeError(f"Object of type {o.__class__.__name__} "
                    f"is not JSON serializable")


def _config(args: argparse.Namespace) -> Config:
    if args.oracle_limit < 0:
        raise ValueError(
            f"--oracle-limit needs N >= 0, got {args.oracle_limit}")
    if args.workers < 1:
        raise ValueError(f"--workers needs K >= 1, got {args.workers}")
    return Config(oracle_limit=args.oracle_limit,
                  use_oracle=not args.no_oracle,
                  workers=args.workers)


def _exit_code(args, failed, limited) -> int:
    """EXIT_FAIL on a failure, else EXIT_LIMIT if a limit was hit under
    --strict, else EXIT_OK: every command's rule."""
    if failed:
        return EXIT_FAIL
    return EXIT_LIMIT if args.strict and limited else EXIT_OK


# -- analyze -----------------------------------------------------------------

# which machinery produces each report field; "oracle" fields rest on bounded
# enumeration, "search" on exact branch and reduce, the rest on matchings
_METHODS = {
    "polynomial": ["bipartite", "d", "deficiency", "diadem", "ker", "mu",
                   "ore", "witness"],
    "search": ["alpha", "ke"],
    "oracle": ["core", "corona", "ke_identities"],
}


def analyze_graph(facts: Facts) -> dict:
    g = facts.g
    skipped: dict[str, str] = {}

    def attempt(field: str, compute):
        try:
            return compute()
        except LimitExceeded as exc:
            skipped[field] = str(exc)
            return None

    labels = g.label_list
    alpha = attempt("alpha", facts.alpha)
    mu = facts.mu()
    is_ke = attempt("ke", facts.is_ke)
    report: dict = {
        "schema": 1,
        "kind": "analysis",
        "n": g.n,
        "m": g.m,
        "bipartite": facts.parts() is not None,
        "ke": is_ke,
        "d": facts.d(),
        "alpha": alpha,
        "mu": mu,
        "deficiency": g.n - 2 * mu,
        "witness": labels(facts.ker()),
        "ker": labels(facts.ker()),
        "diadem": labels(facts.diadem()),
        "core": attempt("core", lambda: labels(facts.core())),
        "corona": attempt("corona", lambda: labels(facts.corona())),
    }
    if is_ke:
        report["ke_identities"] = attempt("ke_identities",
                                          facts.ke_identity_checks)
    if facts.parts() is not None:
        p = facts.ore_profile()
        report["ore"] = {
            "side_a": labels(facts.parts().side_a),
            "side_b": labels(facts.parts().side_b),
            "delta0_a": p.delta0_a, "delta0_b": p.delta0_b,
            "ker_a": labels(p.ker_a), "ker_b": labels(p.ker_b),
            "diadem_a": labels(p.diadem_a), "diadem_b": labels(p.diadem_b)}
    report["methods"] = _METHODS
    report["skipped"] = skipped
    return report


def _render_analysis(path: str, rep: dict) -> str:
    def setline(name):
        val = rep.get(name)
        return "-" if val is None else (" ".join(val) if val else "(empty)")
    lines = [
        f"{path}: n={rep['n']} m={rep['m']}"
        f" bipartite={'yes' if rep['bipartite'] else 'no'}"
        f" KE={'yes' if rep['ke'] else 'unknown' if rep['ke'] is None else 'no'}",
        f"  d={rep['d']}"
        f" alpha={'-' if rep['alpha'] is None else rep['alpha']}"
        f" mu={rep['mu']} deficiency={rep['deficiency']}",
        f"  witness = {setline('witness')}",
        f"  ker     = {setline('ker')}",
        f"  diadem  = {setline('diadem')}",
        f"  core    = {setline('core')}",
        f"  corona  = {setline('corona')}",
    ]
    if "ke_identities" in rep and rep["ke_identities"] is not None:
        bad = [c for c in rep["ke_identities"] if not c["holds"]]
        lines.append(f"  KE identities: {len(rep['ke_identities'])} checked, "
                     f"{len(bad)} failing")
        for c in bad:
            lines.append(f"    {c['name']}: {c['lhs']} != {c['rhs']}")
    if "ore" in rep:
        o = rep["ore"]
        lines.append(f"  sides: A = {' '.join(o['side_a'])} |"
                     f" B = {' '.join(o['side_b'])}")
        lines.append(f"  delta0(A)={o['delta0_a']} delta0(B)={o['delta0_b']}")
        lines.append(f"  ker_A    = {' '.join(o['ker_a']) or '(empty)'}")
        lines.append(f"  ker_B    = {' '.join(o['ker_b']) or '(empty)'}")
        lines.append(f"  diadem_A = {' '.join(o['diadem_a']) or '(empty)'}")
        lines.append(f"  diadem_B = {' '.join(o['diadem_b']) or '(empty)'}")
    for field, reason in sorted(rep["skipped"].items()):
        lines.append(f"  skipped {field}: {reason}")
    return "\n".join(lines)


def _cmd_analyze(args) -> int:
    config = _config(args)
    g = read_graph_file(args.file, args.format)
    rep = analyze_graph(Facts(g, config))
    if args.json:
        print(_dump(rep))
    else:
        print(_render_analysis(args.file, rep))
    return _exit_code(args, False, rep["skipped"])


# -- check -------------------------------------------------------------------

def _cmd_check(args) -> int:
    from .props import evaluate, select_properties
    config = _config(args)
    g = read_graph_file(args.file, args.format)
    names = None if args.all else [args.property]
    props = select_properties(names)
    facts = Facts(g, config)
    results = [evaluate(p, facts) for p in props]
    if args.json:
        print(_dump({
            "schema": 1, "kind": "check", "file": args.file,
            "results": [r.as_dict() for r in results]}))
    else:
        for r in results:
            if r.verdict == "holds":
                print(f"{r.prop}: holds")
            elif r.verdict == "fails":
                print(f"{r.prop}: fails  witness: "
                      f"{json.dumps(r.witness, sort_keys=True)}")
            elif r.limit:
                print(f"{r.prop}: skipped: {r.reason}")
            else:
                print(f"{r.prop}: fails applicability: {r.reason}")
    return _exit_code(args, any(r.verdict == "fails" for r in results),
                      any(r.limit for r in results))


# -- corpus runs (fuzz, exhaustive) --------------------------------------------

def _render_run(s: dict) -> str:
    lines = [f"graphs: {s['graphs']}  checks: {s['checks']}  "
             f"holds: {s['holds']}  fails: {s['fails']}  "
             f"skipped: {s['skipped']} (limit: {s['limit_skips']})"]
    if s["skip_reasons"]:
        lines.append("skip reasons:")
        for reason, count in s["skip_reasons"].items():
            lines.append(f"  {reason}: {count}")
    if s["failures"]:
        lines.append("failures:")
        for f in s["failures"]:
            lines.append(f"  {f['graph']}  {f['property']}  witness: "
                         f"{json.dumps(f['witness'], sort_keys=True)}")
    return "\n".join(lines)


def _write_run(head: dict, graphs, summary: dict) -> None:
    """Write print(_dump(run(...))) of the run that stream_run split into
    head, graphs and summary, rendering each per-graph report as it arrives
    and dropping it, so memory does not grow with the corpus. The keys go
    out sorted; "summary" sorts after "graphs", so it is filled in when
    written.

    The first graph is evaluated before anything is written, so a corpus
    error there leaves stdout empty; an error on a later graph leaves a
    truncated report."""
    memo: dict = {}
    entries = (_render(entry, "\n    ", memo) for entry in graphs)
    first = next(entries, None)
    doc = {**head, "graphs": None, "summary": summary}
    write = sys.stdout.write
    sep = "{"
    for key in sorted(doc):
        write(sep + "\n  " + _encode_str(key) + ": ")
        sep = ","
        if key != "graphs":
            write(_render(doc[key], "\n  ", memo))
            continue
        if first is not None:
            write("[\n    " + first)
            for text in entries:
                write(",\n    " + text)
        write("[]" if first is None else "\n  ]")
    write("\n}\n")


def _corpus_run(corpus: CorpusSpec, args: argparse.Namespace) -> int:
    from .props import stream_run
    config = _config(args)
    head, graphs, summary = stream_run(corpus, args.properties, config)
    if args.json:
        _write_run(head, graphs, summary)
    else:
        for _ in graphs:
            pass
        print(_render_run(summary))
    return _exit_code(args, summary["fails"], summary["limit_skips"])


def _parse_range(text: str) -> tuple[int, int]:
    """The bounds of "a..b", or of "a" as a..a; random_corpus checks them."""
    lo, sep, hi = text.partition("..")
    try:
        return int(lo), int(hi if sep else lo)
    except ValueError:
        raise ValueError(f"bad range {text!r}; expected a..b")


def _cmd_fuzz(args) -> int:
    from .corpus import random_corpus
    lo, hi = _parse_range(args.n)
    return _corpus_run(random_corpus(lo, hi, args.p, args.count, args.seed),
                       args)


def _cmd_exhaustive(args) -> int:
    from .corpus import exhaustive_corpus
    return _corpus_run(exhaustive_corpus(args.n), args)


# -- conjecture ----------------------------------------------------------------

def _render_scan(rep: dict) -> str:
    s = rep["summary"]
    lines = [f"graphs: {s['graphs']}  checked: {s['checked']}  "
             f"skipped: {len(s['skipped'])}  violations: "
             f"{len(s['violations'])}"]
    lines.append("minimum slack by n  (2*alpha - |ker| - |diadem|, "
                 "then |core| + |corona| - 2*alpha):")
    for n, slot in rep["per_n"].items():
        upper = slot["min_slack_upper"]
        lines.append(f"  n={n}: graphs={slot['graphs']} "
                     f"min_slack={slot['min_slack']} "
                     f"min_slack_upper={'-' if upper is None else upper}")
    for entry in s["skipped"]:
        lines.append(f"  skipped {entry['graph']}: {entry['reason']}")
    for v in s["violations"]:
        lines.append(f"VIOLATION ({v['kind']}) on {v['graph']}: "
                     f"lhs={v['lhs']} > rhs={v['rhs']}")
        lines.append(f"  edges: {v['edges']}")
        lines.append(f"  shrunk witness: n={v['shrunk']['n']} "
                     f"edges={v['shrunk']['edges']}")
    return "\n".join(lines)


def _cmd_conjecture(args) -> int:
    from .corpus import conjecture_scan, exhaustive_corpus, parse_corpus_spec
    config = _config(args)
    if args.corpus is not None:
        corpus = parse_corpus_spec(read_utf8(args.corpus))
    else:
        if not 1 <= args.max_n <= EXHAUSTIVE_MAX_N:
            raise ValueError(f"--max-n supports 1..{EXHAUSTIVE_MAX_N}, "
                             f"got {args.max_n}")
        corpus = exhaustive_corpus(*range(1, args.max_n + 1))
    rep = conjecture_scan(corpus, config)
    if args.json:
        print(_dump(rep))
    else:
        print(_render_scan(rep))
    # the oracle switch and limit skip the upper slack for a whole order n
    # at once, leaving that order's min_slack_upper None
    return _exit_code(args, rep["summary"]["violations"],
                      rep["summary"]["skipped"] or any(
                          slot["min_slack_upper"] is None
                          for slot in rep["per_n"].values()))


# -- fixtures --------------------------------------------------------------------

def _cmd_fixtures(args) -> int:
    # only this command reads the bundled fixtures
    from . import fixtures as fixture_registry
    config = _config(args)
    if args.action == "list":
        if args.json:
            print(_dump({"schema": 1, "kind": "fixtures",
                         "names": fixture_registry.fixture_names()}))
        else:
            for name in fixture_registry.fixture_names():
                fx = fixture_registry.load(name)
                print(f"{name:14s} {fx.file:22s} n={fx.graph.n:3d} "
                      f"m={fx.graph.m:3d}")
        return EXIT_OK
    reports = fixture_registry.verify_all(config)
    if args.json:
        print(_dump({"schema": 1, "kind": "fixtures-verify",
                     "reports": reports}))
    else:
        for rep in reports:
            status = "ok" if rep["holds"] else "FAIL"
            skips = sum("skipped" in check for check in rep["checks"])
            tally = f"{len(rep['checks']) - skips} values checked"
            if skips:
                tally += f", {skips} skipped"
            print(f"{rep['name']:14s} {status}  ({tally})")
            for check in rep["checks"]:
                if "skipped" in check:
                    print(f"    skipped {check['key']}: {check['skipped']}")
                elif not check["holds"]:
                    print(f"    {check['key']}: expected "
                          f"{check['expected']!r}, got {check['actual']!r}")
                if "note" in check:
                    print(f"    note on {check['key']}: {check['note']}")
    return _exit_code(args, not all(r["holds"] for r in reports),
                      any("skipped" in check for r in reports
                          for check in r["checks"]))


# -- argument plumbing -------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ValueError, so main
    reports them on one line as it does every other input error; the
    subcommand parsers are of this class too."""

    def error(self, message: str):
        raise ValueError(message)


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls;
    parsing leaves it unchanged, and no default depends on the environment."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--oracle-limit", type=int, default=ORACLE_LIMIT,
                        metavar="N",
                        help="largest n the exhaustive oracles accept "
                             f"(default {ORACLE_LIMIT})")
    common.add_argument("--no-oracle", action="store_true",
                        help="polynomial routines only; enumeration-backed "
                             "fields and checks report as skipped")
    common.add_argument("--strict", action="store_true",
                        help="exit 3 when any limit was hit")
    common.add_argument("--workers", type=int, default=1, metavar="K",
                        help="worker processes for corpus runs (default 1)")
    common.add_argument("--json", action="store_true",
                        help="machine-readable output")

    fileargs = argparse.ArgumentParser(add_help=False)
    fileargs.add_argument("file", help="graph file")
    fileargs.add_argument("--format", choices=["edge-list", "dimacs"],
                          help="input format (default: by file extension)")

    parser = _Parser(
        prog="critset",
        description="Critical-set invariants of finite simple graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[common, fileargs],
                       help="full invariant report for one graph")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("check", parents=[common, fileargs],
                       help="evaluate registered properties on one graph")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--property", metavar="NAME",
                       help="one registered property name")
    group.add_argument("--all", action="store_true",
                       help="every registered property")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("fuzz", parents=[common],
                       help="run properties over a seeded random corpus")
    p.add_argument("--n", required=True, metavar="A..B",
                   help="vertex-count range, e.g. 8..14")
    p.add_argument("--p", type=float, required=True, help="edge probability")
    p.add_argument("--count", type=int, required=True, help="graph count")
    p.add_argument("--seed", type=int, required=True, help="corpus seed")
    p.add_argument("--properties", nargs="+", metavar="NAME",
                   help="subset of properties (default: all)")
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser("exhaustive", parents=[common],
                       help="run properties over every labeled graph at n")
    p.add_argument("--n", type=int, required=True, help="vertex count")
    p.add_argument("--properties", nargs="+", metavar="NAME",
                   help="subset of properties (default: all)")
    p.set_defaults(func=_cmd_exhaustive)

    p = sub.add_parser("conjecture", parents=[common],
                       help="scan |ker| + |diadem| <= 2*alpha <= "
                            "|core| + |corona|")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--max-n", type=int, metavar="K",
                       help="all labeled graphs with 1 <= n <= K")
    group.add_argument("--corpus", metavar="FILE",
                       help="JSON corpus description")
    p.set_defaults(func=_cmd_conjecture)

    p = sub.add_parser("fixtures", parents=[common],
                       help="list or verify the bundled example graphs")
    p.add_argument("action", nargs="?", choices=["list", "verify"],
                   default="list")
    p.set_defaults(func=_cmd_fixtures)

    return parser


def main(argv: list[str] | None = None) -> int:
    # a label stdout's encoding lacks is written as a backslash escape, as
    # the --json reports escape every non-ASCII character
    stdout = sys.stdout
    reconfigure = getattr(stdout, "reconfigure", None)
    if reconfigure is not None:  # not a StringIO a caller swapped in
        reconfigure(errors="backslashreplace")
    sys.stdout = _Report(stdout)
    try:
        args = _build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except _OutputError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        sys.stdout = stdout


if __name__ == "__main__":
    sys.exit(main())
