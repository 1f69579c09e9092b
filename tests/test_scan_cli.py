"""Scan rows, CSV schema, tree enumeration, and the CLI surface."""

import json
import subprocess
import sys

import pytest

from lssrings import cli, reports, scan
from lssrings.cli import main as cli_main
from lssrings.graphs import encode_graph6, gapped, max_degree, parse_graph6
from lssrings.pmd import PmdResult, pmd
from lssrings.reports import (PROPERTIES, VERIFY_SUITES, invariants_of,
                              threshold_table)
from lssrings.scan import (CSV_HEADER, CSV_SCHEMA_VERSION, check_forest_pmd,
                           enumerate_trees, iter_corpus_lines, pruefer_decode,
                           rows_to_csv, scan_corpus, scan_graph)


def run_cli(*args, capsys=None):
    return cli_main(list(args))


def test_csv_schema_version_pinned():
    assert CSV_SCHEMA_VERSION == 1
    assert len(CSV_HEADER) == 14
    assert ",".join(CSV_HEADER) == ("id,n,m,bipartite,delta,k,alpha,pmd,status,"
                                    "gap,ok_upper,ok_bipartite,ok_conjecture,ms")


def test_csv_schema_and_single_edge_row():
    rows, summary = scan_corpus(["A_"], stable_ms=True)
    csv_text = rows_to_csv(rows)
    lines = csv_text.strip().split("\n")
    assert lines[0] == ",".join(CSV_HEADER)
    assert lines[1] == "A_,2,1,1,1,1,1,1,exact,0,1,1,1,0"
    assert summary.violations == 0 and summary.total == 1


def test_csv_golden_block():
    """Frozen rows for a tiny corpus; pmd values cross-checked against the
    brute-force oracle when the block was recorded."""
    corpus = ["@", "A_", "Bg", "Cl", "C~"]     # K1, K2, P3, C4, K4
    rows, _ = scan_corpus(corpus, stable_ms=True)
    golden = "\n".join([
        ",".join(CSV_HEADER),
        "@,1,0,1,0,0,-1,0,exact,,1,1,1,0",
        "A_,2,1,1,1,1,1,1,exact,0,1,1,1,0",
        "Bg,3,2,1,2,1,2,2,exact,0,1,1,1,0",
        "Cl,4,4,1,2,2,3,3,exact,0,1,1,1,0",
        "C~,4,6,0,3,3,5,5,exact,0,1,,1,0",
    ]) + "\n"
    assert rows_to_csv(rows) == golden


def test_gapped_family_row():
    g = gapped(4)
    row = scan_graph(g, "gapped4", stable_ms=True)
    assert (row.delta, row.k, row.alpha, row.pmd) == (5, 3, 7, 5)
    assert row.gap == 2 and row.ok_conjecture


def test_scan_handles_malformed_lines():
    rows, summary = scan_corpus(["A_", "not graph6 at all!", "C~"], stable_ms=True)
    assert summary.total == 3 and summary.parse_errors == 1
    assert rows[1].status.startswith("parse_error")
    assert rows[0].status == "exact" and rows[2].status == "exact"


def test_corpus_lines_end_only_at_ascii_line_breaks():
    """A character that str.splitlines() takes for a line break stays in
    its line, so the line is refused rather than read as K4."""
    assert list(iter_corpus_lines("A_\r\nBw\rC~\n\n# c\n")) == ["A_", "Bw", "C~"]
    lines = list(iter_corpus_lines("C~\x85\n"))
    assert lines == ["C~\x85"]
    rows, summary = scan_corpus(lines, stable_ms=True)
    assert [r.status for r in rows] == ["parse_error: byte 2: trailing garbage"]
    assert summary.total == 1 and summary.parse_errors == 1


def test_scan_survives_a_header_only_line():
    rows, summary = scan_corpus(["Bw", ">>graph6<<", "Cw"], stable_ms=True)
    assert len(rows) == 3 and summary.parse_errors == 1
    assert rows[1].status == "parse_error: empty graph6 line"
    assert rows[0].status == "exact" and rows[2].status == "exact"


def test_scan_survives_a_solver_error(monkeypatch):
    real = scan.solve_pmd

    def flaky(g, **kwargs):
        if g.m == 4:
            raise RuntimeError("boom")
        return real(g, **kwargs)

    monkeypatch.setattr(scan, "solve_pmd", flaky)
    rows, summary = scan_corpus(["A_", "Cl", "C~"], stable_ms=True)
    assert [r.status for r in rows] == ["exact", "solver_error: RuntimeError: boom", "exact"]
    assert (summary.total, summary.exact, summary.solver_errors, summary.parse_errors) == (3, 2, 1, 0)
    assert summary.to_json()["solver_errors"] == 1
    assert rows_to_csv(rows).splitlines()[2] == "Cl,,,,,,,,solver_error: RuntimeError: boom,,,,,0"


def test_scan_serial_deterministic():
    lines = ["A_", "C~", "Bw"]
    a = rows_to_csv(scan_corpus(lines, stable_ms=True)[0])
    b = rows_to_csv(scan_corpus(lines, stable_ms=True)[0])
    assert a == b


def test_parallel_scan_matches_serial_as_multiset():
    lines = [encode_graph6(g) for g in enumerate_trees(5)][:20]
    serial, _ = scan_corpus(lines, stable_ms=True)
    parallel, _ = scan_corpus(lines, jobs=2, stable_ms=True)
    key = lambda r: (r.id, r.pmd, r.status, r.gap)
    assert sorted(map(key, serial)) == sorted(map(key, parallel))


def test_scan_pool_never_outnumbers_the_corpus(monkeypatch):
    """The pool is faked and maps serially, so no process is started."""
    import multiprocessing

    sizes = []

    class SerialPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return list(map(fn, items))

    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    rows, _ = scan_corpus(["A_", "C~"], jobs=64, stable_ms=True)
    assert sizes == [2] and len(rows) == 2


def test_budget_exhausted_rows_not_counted_as_violations():
    from lssrings.graphs import complete
    k6 = encode_graph6(complete(6))
    rows, summary = scan_corpus([k6], node_budget=2, stable_ms=True)
    assert rows[0].status == "upper_bound_only"
    assert rows[0].ok_conjecture is None
    assert summary.violations == 0 and summary.budget_exhausted == 1


def test_explicit_node_budget_below_one_is_rejected():
    from lssrings.graphs import complete
    for budget in (0, -5, True):
        with pytest.raises(ValueError, match="node_budget must be a positive integer"):
            scan_graph(complete(5), "K5", node_budget=budget)
        with pytest.raises(ValueError, match="node_budget must be a positive integer"):
            scan_corpus([encode_graph6(complete(5))], node_budget=budget)


def test_the_environment_does_not_set_the_budget(tmp_path, capsys, monkeypatch):
    """The node budget is only an argument: LSS_BUDGET_NODES, a small
    value or not a number, changes neither a solve nor a scan."""
    from lssrings.graphs import complete
    corpus = tmp_path / "corpus.g6"
    corpus.write_text(f"A_\nC~\n{encode_graph6(complete(6))}\n", encoding="utf-8")

    def run():
        res = pmd(complete(6))
        code = cli_main(["scan", str(corpus), "--stable"])
        return (res.value, res.status, res.nodes), code, capsys.readouterr()

    monkeypatch.delenv("LSS_BUDGET_NODES", raising=False)
    unset = run()
    assert unset[0][:2] == (9, "exact") and unset[1] == 0
    for value in ("2", "abc"):
        monkeypatch.setenv("LSS_BUDGET_NODES", value)
        assert run() == unset


def test_tree_counts():
    assert sum(1 for _ in enumerate_trees(2)) == 1
    assert sum(1 for _ in enumerate_trees(3)) == 3
    assert sum(1 for _ in enumerate_trees(4)) == 16
    g = pruefer_decode(4, (2, 2))
    assert g.n == 4 and g.m == 3 and max_degree(g) == 3


def test_check_forest_pmd_small():
    summary = check_forest_pmd(5)
    assert summary["ok"] and summary["checked"] == 1 + 1 + 3 + 16 + 125


def test_cli_invariants_json(capsys):
    assert cli_main(["invariants", "example", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert (data["delta"], data["k"], data["alpha"]) == (3, 2, 4)


def test_cli_invariants_of_graphs_graph6_cannot_encode(capsys):
    """graph6 covers 1 <= n <= 62; outside that range the graph6 field is
    null and every other field is reported as usual."""
    for spec, n, m, delta in (("complete:0", 0, 0, 0), ("path:63", 63, 62, 2)):
        assert cli_main(["invariants", spec, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["graph6"] is None
        assert (data["n"], data["m"], data["delta"]) == (n, m, delta)
        assert data["elimination_order"] == list(range(1, n + 1))
        assert cli_main(["invariants", spec]) == 0
        out = capsys.readouterr().out
        assert out.startswith("graph6: None\n") and f"\nn: {n}\nm: {m}\n" in out
    assert cli_main(["invariants", "path:62", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["graph6"][0] == chr(63 + 62)


def test_cli_pmd_certificate(capsys):
    assert cli_main(["pmd", "example", "--certificate"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["value"] == 3 and data["status"] == "exact"
    assert len(data["certificates"]) == 3


def test_cli_pmd_of_k8_is_exact(capsys):
    assert cli_main(["pmd", "complete:8"]) == 0
    assert "pmd = 13 (exact)" in capsys.readouterr().out


def test_cli_family_spec_with_wrong_parameter_count(capsys):
    for spec, message in [
        ("complete:", "'complete' takes 1 parameter, got 0"),
        ("complete_bipartite:3", "'complete_bipartite' takes 2 parameters, got 1"),
        ("star:3,4", "'star' takes 1 parameter, got 2"),
        ("complete_bipartite:2,,3", "'complete_bipartite' takes 2 parameters, got 3"),
        ("star:,4", "'star' takes 1 parameter, got 2"),
    ]:
        assert cli_main(["pmd", spec]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: family {message}\n" and not captured.out


def test_cli_thresholds(capsys):
    assert cli_main(["thresholds", "star:3", "--d", "5"]) == 0
    out = capsys.readouterr().out
    assert "ufd" in out and "guaranteed" in out


def test_cli_thresholds_cites_the_six_cycle_rule_under_prime(capsys):
    assert cli_main(["thresholds", "cycle:6", "--d", "3"]) == 0
    out = capsys.readouterr().out
    prime = out.split("\nprime")[1].split("\nirreducible")[0]
    assert prime.split("\n")[0].split() == ["guaranteed"]
    assert "[six-cycle] d >= 3 (fires)" in prime
    assert "[pmd-prime] d >= 4 (needs)" in prime


def test_cli_thresholds_lines_are_the_threshold_table(all_n5, capsys):
    """On every graph with n <= 5 and every d in 1..8, each property lists as
    "fires" the rows of threshold_table with threshold <= d (None: any d)
    and as "needs" the rows with threshold > d, and is guaranteed exactly
    when some row fires. The --json verdicts are the same lines, less the
    "needs" ones."""
    for g in all_n5:
        table = threshold_table(g, invariants_of(g))
        for d in range(1, 9):
            assert cli_main(["thresholds", encode_graph6(g), "--d", str(d)]) == 0
            lines = capsys.readouterr().out.splitlines()[1:]
            want = []
            for p in PROPERTIES:
                fires = [rf for rf in table[p] if rf.threshold is None or rf.threshold <= d]
                needs = [rf for rf in table[p] if rf.threshold is not None and rf.threshold > d]
                want.append(f"{p:22s} {'guaranteed' if fires else 'unknown'}")
                for state, rows in (("fires", fires), ("needs", needs)):
                    for rf in rows:
                        when = "any d" if rf.threshold is None else f"d >= {rf.threshold}"
                        want.append(f"    [{rf.rule}] {when} ({state}) :: {rf.statement}")
            assert lines == want, (encode_graph6(g), d)
            assert cli_main(["thresholds", encode_graph6(g), "--d", str(d), "--json"]) == 0
            doc = json.loads(capsys.readouterr().out)
            from_json = []
            for p, v in doc["verdicts"].items():
                from_json.append(f"{p:22s} {v['verdict']}")
                for r in v["rules"]:
                    when = "any d" if r["threshold"] is None else f"d >= {r['threshold']}"
                    from_json.append(f"    [{r['rule']}] {when} (fires) :: {r['citation']}")
            assert doc["d"] == d
            assert from_json == [ln for ln in want if " (needs) :: " not in ln]


def test_cli_thresholds_of_an_edgeless_graph_fire_at_any_d(capsys):
    assert cli_main(["thresholds", "A?", "--d", "1"]) == 0
    out = capsys.readouterr().out
    line = ("    [polynomial-ring] any d (fires) :: "
            "no edges: the quotient is the polynomial ring itself")
    assert out.count(f"\n{line}\n") == len(PROPERTIES)
    assert "(needs)" not in out and "unknown" not in out


def test_cli_verify_choices_are_the_suite_table(capsys):
    """Every verify target has a suite; the suites without a size refuse --n."""
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    target = next(a for a in sub.choices["verify"]._actions if a.dest == "target")
    assert list(target.choices) == list(VERIFY_SUITES) == ["star", "path", "D", "example"]
    unsized = [t for t, (_, size) in VERIFY_SUITES.items() if size is None]
    assert unsized == ["D", "example"]
    for t in unsized:
        assert cli_main(["verify", t, "--n", "4"]) == 1
        assert capsys.readouterr().err == f"error: --n applies to star and path only, not {t}\n"


def test_cli_verify_star_path_d_example(capsys):
    for target in ("star", "D", "example"):
        assert cli_main(["verify", target]) == 0, target
        capsys.readouterr()
    assert cli_main(["verify", "path", "--n", "4"]) == 0


def test_cli_verify_json_on_every_target(capsys, monkeypatch):
    """Each target prints one JSON suite document with --json, and the same
    checks as PASS/FAIL lines without it; the exit code follows the suite."""
    text = {}
    for target in ("star", "path", "D", "example"):
        assert cli_main(["verify", target, "--json"]) == 0, target
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True and doc["checks"], target
        assert cli_main(["verify", target]) == 0, target
        text[target] = capsys.readouterr().out.splitlines()
        assert text[target] == [f"PASS {c['name']}" + (f" ({c['detail']})" if c["detail"] else "")
                                for c in doc["checks"]] + [f"PASS {doc['suite']}"], target
    assert text["example"][0].startswith("PASS pmd(example) = 3")
    monkeypatch.setattr(reports, "verify_D_nonzero", lambda g, v, d: False)
    assert cli_main(["verify", "D", "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["passed"] is False


def test_cli_verify_n_applies_to_star_and_path_only(capsys):
    for target in ("D", "example"):
        assert cli_main(["verify", target, "--n", "3"]) == 1
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err == ("error: --n applies to star and path only, "
                                f"not {target}\n")


def test_cli_verify_n_zero_trips_the_desk_scale_guard(capsys):
    """--n 0 is an explicit size, not a missing one: no default suite runs."""
    assert cli_main(["verify", "path", "--n", "0"]) == 2
    assert cli_main(["verify", "star", "--n", "0"]) == 2
    assert "PASS" not in capsys.readouterr().out


def test_cli_thresholds_rejects_a_nonpositive_d(capsys):
    for d in ("-3", "0"):
        with pytest.raises(SystemExit) as exc:
            cli_main(["thresholds", "example", "--d", d])
        assert exc.value.code == 1
    assert capsys.readouterr().out == ""


def test_cli_scan_stable_and_finding_free(tmp_path, capsys):
    corpus = tmp_path / "corpus.g6"
    corpus.write_text("# comment line\nA_\nC~\n", encoding="utf-8")
    out = tmp_path / "rows.csv"
    assert cli_main(["scan", str(corpus), "--stable", "--csv", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert text.splitlines()[0] == ",".join(CSV_HEADER)
    assert len(text.splitlines()) == 3


def test_cli_error_exit_codes(tmp_path, capsys):
    assert cli_main(["invariants", "definitely-not-a-graph!!"]) == 1
    assert cli_main(["scan", str(tmp_path / "missing.g6")]) == 1
    assert cli_main(["verify", "path", "--n", "9"]) == 2   # desk-scale guard
    with pytest.raises(SystemExit) as exc:                  # usage error
        cli_main(["pmd"])
    assert exc.value.code == 1


def test_invalid_node_budget_stops_the_scan(tmp_path, capsys):
    corpus = tmp_path / "corpus.g6"
    corpus.write_text("A_\nC~\n", encoding="utf-8")
    for flag, value in (("--budget", "-5"), ("--budget", "abc"), ("--jobs", "0")):
        with pytest.raises(SystemExit) as exc:
            cli_main(["scan", str(corpus), flag, value])
        assert exc.value.code == 1
        assert flag in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["pmd", "complete:5", "--budget", "1_0"],
     "lssrings pmd: error: argument --budget: invalid positive_int value: '1_0'"),
    (["pmd", "complete:5", "--budget", "\u0663"],
     "lssrings pmd: error: argument --budget: invalid positive_int value: '\u0663'"),
    (["thresholds", "star:3", "--d", "\uff13"],
     "lssrings thresholds: error: argument --d: invalid positive_int value: '\uff13'"),
    (["trees", "--n", " 3"],
     "lssrings trees: error: argument --n: invalid positive_int value: ' 3'"),
    (["verify", "path", "--n", "\u0664"],
     "lssrings verify: error: argument --n: invalid ascii_int value: '\u0664'"),
    (["verify", "path", "--n", "4_0"],
     "lssrings verify: error: argument --n: invalid ascii_int value: '4_0'"),
], ids=["budget-underscore", "budget-arabic", "d-fullwidth", "trees-blank",
        "verify-arabic", "verify-underscore"])
def test_cli_integers_are_ascii_digits_only(argv, message, capsys):
    """Every integer option reads an optional sign and ASCII digits, as
    edge lists do; int() also took '1_0', Unicode digits and blanks."""
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert not captured.out and captured.err.endswith(message + "\n")


def test_cli_family_parameters_are_ascii_digits_only(capsys):
    for spec, shown in (("star:\u0663", "'\u0663'"), ("star:\u20033", "'\\u20033'")):
        assert cli_main(["invariants", spec]) == 1
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err == (f"error: family 'star': parameter {shown} "
                                "is not a nonnegative integer\n")


def test_trees_take_no_node_budget(capsys):
    """A forest never reaches the search, so ``trees`` has no --budget and
    check_forest_pmd no node_budget=."""
    with pytest.raises(SystemExit) as exc:
        cli_main(["trees", "--n", "6", "--check", "--budget", "1"])
    assert exc.value.code == 1
    assert capsys.readouterr().err.endswith(
        "lssrings: error: unrecognized arguments: --budget 1\n")
    with pytest.raises(TypeError):
        check_forest_pmd(3, node_budget=1)


def test_cli_trees_roundtrip(capsys):
    assert cli_main(["trees", "--n", "3"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 3
    for line in out:
        g = parse_graph6(line)
        assert g.n == 3 and g.m == 2


def test_cli_graph_files_skip_comments_and_report_physical_lines(tmp_path, capsys):
    edges = tmp_path / "g.txt"
    edges.write_text("# the example\n\n4\n1 2\n2 3\n2 4\n# last edge\n3 4\n",
                     encoding="utf-8")
    g6 = tmp_path / "g.g6"
    g6.write_text("  # header\n\nC~\n", encoding="utf-8")
    for path, delta in ((edges, 3), (g6, 3)):
        assert cli_main(["invariants", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["delta"] == delta
    edges.write_text("# h\n\n3\n1 2\n# c\n2 x\n", encoding="utf-8")
    assert cli_main(["invariants", str(edges)]) == 1
    assert capsys.readouterr().err == "error: line 6: non-integer endpoint in '2 x'\n"
    edges.write_text("# only a comment\n\n", encoding="utf-8")
    assert cli_main(["invariants", str(edges)]) == 1
    assert capsys.readouterr().err == f"error: {edges}: empty graph file\n"


def test_cli_graph6_file_with_several_graphs_is_refused(tmp_path, capsys):
    """A graph file holds one graph; a corpus goes to `scan`, not to the
    first line of it."""
    corpus = tmp_path / "three.g6"
    corpus.write_text("A_\nBw\nC~\n", encoding="utf-8")
    for argv in (["pmd", str(corpus)], ["invariants", str(corpus)],
                 ["thresholds", str(corpus), "--d", "3"]):
        assert cli_main(argv) == 1, argv
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err == (f"error: {corpus}: holds 3 graphs, not one; "
                                "use `lssrings scan` for a corpus\n")
    assert cli_main(["scan", str(corpus), "--stable"]) == 0


def test_cli_family_specs_name_the_family_on_bad_parameters(capsys):
    for spec, bad in (("star:x", "'x'"), ("star:-1", "'-1'"), ("path:-3", "'-3'"),
                      ("complete_bipartite:-1,3", "'-1'")):
        assert cli_main(["pmd", spec]) == 1, spec
        captured = capsys.readouterr()
        kind = spec.partition(":")[0]
        assert not captured.out
        assert captured.err == (f"error: family '{kind}': parameter {bad} "
                                "is not a nonnegative integer\n")
    for spec, message in (("cycle:2", "cycle needs n >= 3"),
                          ("gapped:2", "gapped family needs n >= 3")):
        assert cli_main(["pmd", spec]) == 1, spec
        assert capsys.readouterr().err == f"error: {message}\n"
    assert cli_main(["pmd", "complete_bipartite:2,3"]) == 0
    assert capsys.readouterr().out.startswith("pmd = 4 (exact)")


def test_scan_max_n_parses_each_line_once(monkeypatch):
    """Oversized graphs yield no row, parse errors stay rows in input
    order, and each line goes through the parser exactly once."""
    parsed = []

    def counting_parse(line):
        parsed.append(line)
        return parse_graph6(line)
    monkeypatch.setattr(scan, "parse_graph6", counting_parse)
    lines = ["A_", "E~~w", "not graph6!", "Bw", "C~"]
    rows, summary = scan_corpus(lines, max_n=4, stable_ms=True)
    assert parsed == lines
    assert [r.id for r in rows] == ["A_", "not graph6!", "Bw", "C~"]
    assert rows[1].status.startswith("parse_error")
    assert summary.total == 4 and summary.parse_errors == 1
    assert rows_to_csv(scan_corpus(lines, max_n=4, stable_ms=True, jobs=2)[0]) \
        == rows_to_csv(rows)


def test_cli_trees_n_and_scan_max_n_reject_values_below_one(tmp_path, capsys):
    corpus = tmp_path / "c.g6"
    corpus.write_text("A_\n", encoding="utf-8")
    for argv in (["trees", "--n", "0", "--check"], ["trees", "--n", "-1"],
                 ["scan", str(corpus), "--max-n", "0"]):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert not captured.out and "must be at least 1" in captured.err


def test_cli_trees_check(capsys, monkeypatch):
    assert cli_main(["trees", "--n", "4", "--check"]) == 0
    assert "PASS" in capsys.readouterr().out
    # a solve that answers pmd = degree + 1 fails the check
    monkeypatch.setattr(scan, "solve_pmd", lambda g, node_budget=None:
                        PmdResult(max_degree(g) + 1, None, "exact", 0, 0.0))
    assert cli_main(["trees", "--n", "3", "--check"]) == 1
    captured = capsys.readouterr()
    assert "PASS" not in captured.out and "FAIL pmd != delta" in captured.err


def test_cli_entrypoint_subprocess():
    proc = subprocess.run([sys.executable, "-m", "lssrings.cli", "pmd", "example"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "pmd = 3" in proc.stdout


def test_cli_scan_json_document(tmp_path, capsys):
    corpus = tmp_path / "c.g6"
    corpus.write_text("A_\n", encoding="utf-8")
    assert cli_main(["scan", str(corpus), "--json", "--stable"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"]["total"] == 1
    assert doc["rows"][0]["pmd"] == 1 and doc["rows"][0]["gap"] == 0
