"""The CLI tests that need the process's internals: spies on the engine,
a forged engine value or certificate, and the timestamp.  Every test that
only runs argv and checks stdout, the exit code or the files written is
a row of `tests/corpus/` (see test_corpus.py).  The classes below keep
the ids those tests had here, each an alias for the rows that now hold
its assertions."""

import os
import subprocess
import sys

import pytest

from rgcost.cli import main
from test_corpus import alias_cases, aliases, honeycomb


def run_cli(args, capsys):
    code = main(["--no-timestamp"] + args)
    return code, capsys.readouterr().out


class TestArtinCommand:
    test_braid_graph = aliases("artin/b4")
    test_two_isolated_vertices = aliases("artin/two-vertices")
    test_malformed_exits_2 = aliases("artin/self-loop")
    test_certify_flag_writes_valid_certificate = aliases("artin/b4-certify")


class TestCoxeterCommand:
    test_hexagon = aliases("coxeter/hexagon")
    test_k4_fails_hypothesis_exit_3 = aliases("coxeter/k4")
    test_single_edge_label_4 = aliases("coxeter/edge-4")
    test_trace_flag = aliases("coxeter/hexagon-trace")


class TestExprCommand:
    test_sl2z_amalgam = aliases("expr/sl2z")
    test_psl2z = aliases("expr/psl2z")
    test_generation_unknown = aliases("expr/generation-unknown")
    test_parse_error_exit_2 = aliases("expr/cyclic-1")
    test_digests_graph_files_in_read_order = aliases("expr/graph-digests",
                                                     "expr/graph-digests-edited")

    def test_reads_input_once(self, tmp_path, capsys, monkeypatch):
        # one read gives both the "# input" digest and the parsed text
        import builtins

        path = tmp_path / "e.expr"
        path.write_text("(amalgam-finite (cyclic 6) (cyclic 4) 2)\n")
        opened = []
        real_open = builtins.open

        def spy(file, *args, **kwargs):
            opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", spy)
        code, _ = run_cli(["expr", str(path)], capsys)
        monkeypatch.undo()
        assert code == 0
        assert opened.count(str(path)) == 1


class TestCertifyCommand:
    test_sl2z = aliases("certify/sl2z")
    test_mcg_2 = aliases("certify/mcg-2-out")
    test_disconnected_graph_redirects = aliases("certify/two-components")
    test_connected_graph_certificate = aliases("certify/b4-out")
    test_out_of_range_param = aliases("certify/mcg-1")


class TestVerifyCommand:
    test_sl2z_chain = aliases("verify/sl2z-mod-3-4-5")
    test_braid3_abelian_kill = aliases("verify/braid3-abelian-kill-2-6-24")
    test_low_index = aliases("verify/dihedral-inf-low-index-4")
    test_dump_presentation = aliases("verify/sl2z-dump-presentation")
    test_requires_exactly_one_chain_flag = aliases("verify/no-chain-flag",
                                                   "verify/two-chain-flags")
    test_low_index_zero_is_a_given_flag = aliases("verify/low-index-0")
    test_mod_rejected_for_other_targets = aliases("verify/braid3-mod")
    test_coset_limit_exceeded_exits_5 = aliases("verify/sl2z-mod-5-limit-50")
    test_large_level_exits_5_before_enumerating = aliases("verify/sl2z-mod-400-limit-1000")
    test_level_bound_is_the_quotient_order = alias_cases({
        "SL2Z-6-144": ("verify/sl2z-mod-6-limit-144", "verify/sl2z-mod-6-limit-143"),
        "PSL2Z-6-72": ("verify/psl2z-mod-6-limit-72", "verify/psl2z-mod-6-limit-71"),
    })
    test_levels_need_no_order = aliases("verify/sl2z-mod-11-12")
    test_trend_reads_index_order = alias_cases({
        "mod": "verify/sl2z-mod-5-3", "abelian-kill": "verify/braid3-abelian-kill-3-2"})
    test_low_index_search_limit_exits_5 = aliases("verify/braid5-low-index-8-limit-100")
    test_presentation_file_target = aliases("verify/b3-presentation-file")
    test_csv_file_round_trips = aliases("verify/sl2z-mod-3-csv")

    def test_row_below_symbolic_value_exits_3(self, capsys, monkeypatch):
        # d(H) - 1 >= [G:H](cost - 1), so a forged d_upper of 4 at index 48
        # (r_upper 1/16 < 1/12) refutes the engine or the symbolic value
        import rgcost.cli as cli_mod
        from rgcost.fpgroup.chains import RGSample

        real = cli_mod.rg_sequence

        def forged(pres, tables):
            rows = real(pres, tables)
            return rows[:-1] + [RGSample(rows[-1].index, 4, 4)]

        monkeypatch.setattr(cli_mod, "rg_sequence", forged)
        code, out = run_cli(["verify", "SL2Z", "--mod", "3,4"], capsys)
        assert code == 3
        assert ("error: row at index 48 has r_upper 1/16 below the symbolic "
                "rank gradient 1/12") in out
        assert "matches symbolic" not in out

    def test_abelian_kill_past_the_limit_builds_no_image(self, capsys, monkeypatch):
        # a level-k image has degree k, so level 200 is refused before the
        # image of level 3 is built (the refusal's text is the corpus row
        # verify/braid3-abelian-kill-3-200-limit-100)
        import rgcost.fpgroup.chains as chains

        calls = []
        monkeypatch.setattr(chains, "mod_cycle_images", lambda *args: calls.append(args))
        code, _ = run_cli(
            ["verify", "braid3", "--abelian-kill", "3,200", "--coset-limit", "100"], capsys)
        assert code == 5 and calls == []


class TestErrorExits:
    """main maps what a command raises to an exit code and a line prefix,
    the same way for every command, and never prints a traceback: one row
    per row of main's table, the ValueError row has several."""

    test_exit_code_and_line = alias_cases({
        "hypothesis": "coxeter/k4",
        "extra-argument": "expr/amalgam-amenable-six-arguments",
        "limit": "verify/braid3-abelian-kill-30-limit-20",
        "decreasing-mod": "verify/sl2z-mod-5-3",
        "decreasing-abelian-kill": "verify/braid3-abelian-kill-3-2",
        "empty-mod": "verify/mod-empty",
        "empty-abelian-kill": "verify/abelian-kill-empty",
        "missing-file": "expr/missing-file",
        "braid1": "verify/braid1",
        "certificate-cap": "certify/mcg-cap-11-digits",
        "braid-cap": "verify/braid-cap-11-digits",
        "negative-coset-limit-abelian-kill": "verify/coset-limit-negative-abelian-kill",
        "negative-coset-limit-mod": "verify/coset-limit-negative-mod",
        "zero-low-index": "verify/low-index-0",
        "low-index-cap": "verify/low-index-65",
        "zero-abelian-kill": "verify/abelian-kill-level-0",
        "mod-one": "verify/mod-level-1",
        "no-chain-flag": "verify/no-chain-flag",
        "two-chain-flags": "verify/two-chain-flags",
        "non-integer-mod": "verify/mod-not-integer",
        "non-integer-abelian-kill": "verify/abelian-kill-not-integer",
        "overlong-mod": "verify/mod-5000-digits",
        "overlong-abelian-kill": "verify/abelian-kill-5000-digits",
        "chain-flags-before-file": "verify/missing-file-two-chain-flags",
        "mod-target-before-file": "verify/missing-file-mod",
        "graph-file-param": "certify/graph-file-param",
        "builtin-param": "certify/sl2z-param",
        "overlong-certificate-param": "certify/mcg-cap-5000-digits",
        "overlong-braid": "verify/braid-cap-5000-digits",
        "overlong-low-index": "verify/low-index-5000-digits",
        "overlong-coset-limit": "verify/coset-limit-5000-digits",
        "non-integer-low-index": "verify/low-index-not-integer",
        "non-integer-coset-limit": "verify/coset-limit-not-integer",
        "non-ascii-mod": "verify/mod-arabic-digit",
        "underscore-abelian-kill": "verify/abelian-kill-underscore",
        "underscore-low-index": "verify/low-index-underscore",
        "non-ascii-certificate-param": "certify/mcg-arabic-digit",
        **{f"{command}-long-name-{key}": f"{command}/long-name-{key}"
           for command in ("artin", "coxeter")
           for key in ("invalid", "duplicate-vertex", "undeclared", "self-loop",
                       "duplicate-edge")},
        "long-missing-graph-path": "expr/long-missing-graph-path",
        "expr-long-missing-path": "expr/long-missing-path",
        "artin-long-missing-path": "artin/long-missing-path",
        "verify-long-csv-path": "verify/long-csv-path",
    })
    test_reader_closes_stdout = aliases("expr/finite-nest-2000-closed-pipe")


# Defines `forged`, a stand-in for rgcost.certificate.rg_artin that gives
# every edge leaf under the root a label one too large.  On the path a-b-c
# the root is a generation node over the two edge leaves, so the checker
# must report two violations against the graph.
FORGED_RG_ARTIN = """\
from dataclasses import replace

import rgcost.certificate

real = rgcost.certificate.rg_artin


def forged(g):
    price, cert = real(g)
    leaves = tuple(replace(c, label=c.label + 1) for c in cert.root.children)
    return price, replace(cert, root=replace(cert.root, children=leaves))
"""
PATH_GRAPH = "vertex a\nvertex b\nvertex c\nedge a b 3\nedge b c 4\n"
VIOLATIONS = [
    "violation: node 0 [InfiniteCenterLeaf]: label 4 != graph label 3",
    "violation: node 1 [InfiniteCenterLeaf]: label 5 != graph label 4",
]


class TestCheckerRejects:
    """A certificate the checker rejects exits 4 through main's table: one
    `violation:` line per violation ends the report, and no traceback."""

    COMMANDS = [["artin", "GRAPH", "--certify", "OUT"], ["certify", "GRAPH", "--out", "OUT"]]

    @staticmethod
    def _argv(command, tmp_path):
        graph = tmp_path / "path.graph"
        graph.write_text(PATH_GRAPH)
        paths = {"GRAPH": str(graph), "OUT": str(tmp_path / "path.cert.json")}
        return [paths.get(a, a) for a in command]

    @pytest.mark.parametrize("command", COMMANDS, ids=["artin", "certify"])
    def test_in_process(self, command, tmp_path, capsys, monkeypatch):
        import rgcost.certificate

        namespace = {}
        exec(FORGED_RG_ARTIN, namespace)
        monkeypatch.setattr(rgcost.certificate, "rg_artin", namespace["forged"])
        code, out = run_cli(self._argv(command, tmp_path), capsys)
        assert code == 4
        assert out.split("\n")[-3:-1] == VIOLATIONS
        assert "valid" not in out

    @pytest.mark.parametrize("command", COMMANDS, ids=["artin", "certify"])
    def test_console_module(self, command, tmp_path):
        (tmp_path / "sitecustomize.py").write_text(
            FORGED_RG_ARTIN + "\n\nrgcost.certificate.rg_artin = forged\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(tmp_path), env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "rgcost.cli", "--no-timestamp",
             *self._argv(command, tmp_path)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 4
        assert proc.stdout.split("\n")[-3:-1] == VIOLATIONS
        assert "Traceback" not in proc.stderr


class TestFileErrors:
    """Unreadable input and unwritable output are input errors (exit 2),
    never tracebacks, and an unwritable path makes no directory."""

    test_non_utf8_input_exits_2 = alias_cases(
        {command: f"{command}/non-utf8"
         for command in ("artin", "coxeter", "certify", "verify", "expr")})
    test_unwritable_output_exits_2 = alias_cases({
        "artin": "artin/certify-unwritable", "coxeter": "coxeter/trace-unwritable",
        "certify": "certify/out-unwritable", "verify": "verify/csv-unwritable"})


class TestGoldenVerify:
    test_rows_unchanged = alias_cases({
        "verify SL2Z --mod 3,4,5,6,7,8": "verify/sl2z-mod-3-to-8",
        "verify PSL2Z --mod 3,4,5,6,7,8": "verify/psl2z-mod-3-to-8",
        "verify braid5 --abelian-kill 2,4,8": "verify/braid5-abelian-kill-2-4-8",
        "verify braid3 --abelian-kill 32,64": "verify/braid3-abelian-kill-32-64",
        "verify braid3 --low-index 10": "verify/braid3-low-index-10",
        "verify braid3 --low-index 14": "verify/braid3-low-index-14",
        "verify SL2Z --mod 3,4,5,6,7,8,9,10,12,11,14,13,15,16": "verify/sl2z-mod-3-to-16",
        "verify PSL2Z --mod 3,4,5,6,7,8,9,10,12,11,14,13,16": "verify/psl2z-mod-3-to-16",
    })
    # Ids: the builtin and the digest of its presentation text.
    test_builtin_digest_unchanged = alias_cases({
        "SL2Z-e454d562fc24f21aa8f70c0df4f1417b0cfe35866dc0dcfc1c3e147cd856beac":
            "verify/sl2z-dump-presentation",
        "PSL2Z-f01366f186ea3d78d18e5b3d836fc794471a0518bcbcbf6c3845002e910bdca6":
            "verify/psl2z-dump-presentation",
        "dihedral-inf-51cd6c171ab3f512a4dc102e8f37f085f01febd188e175aeafb636cde9670d2e":
            "verify/dihedral-inf-dump-presentation",
        "braid3-a5b0355bf0481be81892ab8faadab9264a1becc62cb77fcc47a1f2465ae0ea69":
            "verify/braid3-dump-presentation",
        "braid5-cd5b1b34fd7105409989df952933715d4162f2d704f261d3f8ce9e7e0e4c4861":
            "verify/braid5-dump-presentation",
    })
    test_limit_text_unchanged = aliases("verify/braid3-abelian-kill-3-200-limit-100")


class TestGoldenCoxeter:
    test_output_unchanged = alias_cases({
        "hex": "coxeter/honeycomb-6x9-trace", "tree": "coxeter/tree-trace",
        "vertex": "coxeter/vertex-trace", "edge": "coxeter/edge-trace",
        "square": "coxeter/square-trace"})


class TestHypothesesOnce:
    """One command computes girth and planarity once per graph: the
    hypothesis line, the hypothesis check and the order inference all read
    the values memoised on the graph."""

    @pytest.fixture
    def spies(self, monkeypatch):
        import rgcost.lgraph as lgraph
        import rgcost.planarity as planarity

        calls = {"girth": [], "planar": []}
        shortest_cycle, left_right_planar = lgraph._shortest_cycle, planarity.left_right_planar

        def girth_spy(g):
            calls["girth"].append(id(g))
            return shortest_cycle(g)

        def planar_spy(adj):
            calls["planar"].append(len(adj))
            return left_right_planar(adj)

        monkeypatch.setattr(lgraph, "_shortest_cycle", girth_spy)
        monkeypatch.setattr(planarity, "left_right_planar", planar_spy)
        return calls

    def test_coxeter_command(self, spies, tmp_path, capsys):
        path = tmp_path / "hex.graph"
        path.write_text(honeycomb(4, 6))
        code, out = run_cli(["coxeter", str(path), "--trace", str(tmp_path / "t.json")],
                            capsys)
        assert code == 0 and "hypotheses: girth=6 planar=true OK" in out
        assert len(spies["girth"]) == 1
        assert spies["planar"] == [35]

    def test_expr_with_coxeter_leaves(self, spies, tmp_path, capsys):
        (tmp_path / "hex.graph").write_text(honeycomb(4, 6))
        (tmp_path / "edge.graph").write_text("vertex a\nvertex b\nedge a b 3\n")
        expr = tmp_path / "e.expr"
        expr.write_text('(amalgam-finite (coxeter "edge.graph") '
                        '(amalgam-finite (coxeter "hex.graph") (cyclic 4) 2) 2)\n')
        code, out = run_cli(["expr", str(expr)], capsys)
        assert code == 0 and "coxeter-planar-girth6" in out
        # two graphs, each searched and tested once
        assert len(spies["girth"]) == len(set(spies["girth"])) == 2
        assert sorted(spies["planar"]) == [2, 35]

    def test_expr_naming_one_graph_twice(self, spies, tmp_path, capsys, monkeypatch):
        # both leaves share one graph: one read, one parse, one "# input"
        # line, one girth search and one planarity test
        import rgcost.exprparse as exprparse

        parsed, parse_graph = [], exprparse.parse_graph
        monkeypatch.setattr(exprparse, "parse_graph",
                            lambda text: parsed.append(text) or parse_graph(text))
        (tmp_path / "hex.graph").write_text(honeycomb(4, 6))
        expr = tmp_path / "e.expr"
        expr.write_text('(amalgam-finite (coxeter "hex.graph") (coxeter "hex.graph") 2)\n')
        code, out = run_cli(["expr", str(expr)], capsys)
        assert code == 0 and "coxeter-planar-girth6" in out
        assert len(parsed) == 1 and len(spies["girth"]) == 1 and spies["planar"] == [35]
        inputs = [line for line in out.split("\n") if line.startswith("# input")]
        assert len(inputs) == 2 and inputs[1].startswith(f"# input {tmp_path / 'hex.graph'} ")


class TestDeterminism:
    test_verify_deterministic = aliases("verify/psl2z-mod-3-5")

    def test_timestamp_only_difference(self, tmp_path, capsys):
        path = tmp_path / "b4.graph"
        path.write_text("vertex a\nvertex b\nvertex c\nedge a b 3\nedge b c 3\n")
        code1 = main(["artin", str(path)])
        out1 = capsys.readouterr().out
        code2 = main(["--no-timestamp", "artin", str(path)])
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert any(l.startswith("# generated") for l in out1.split("\n"))
        results1 = [l for l in out1.split("\n") if not l.startswith("#")]
        results2 = [l for l in out2.split("\n") if not l.startswith("#")]
        assert results1 == results2
