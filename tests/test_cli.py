import hashlib
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from conftest import trace_from_json
from rgcost.certificate import certificate_from_json, check_certificate
from rgcost.cli import main

B4_GRAPH = "vertex a\nvertex b\nvertex c\nedge a b 3\nedge b c 3\n"
HEX_GRAPH = "".join(f"vertex v{i}\n" for i in range(6)) + "".join(
    f"edge v{i} v{(i + 1) % 6} 2\n" for i in range(6))
K4_GRAPH = ("vertex a\nvertex b\nvertex c\nvertex d\n"
            "edge a b 2\nedge a c 2\nedge a d 2\nedge b c 2\nedge b d 2\nedge c d 2\n")


def run_cli(args, capsys):
    code = main(["--no-timestamp"] + args)
    return code, capsys.readouterr().out


class TestArtinCommand:
    def test_braid_graph(self, tmp_path, capsys):
        path = tmp_path / "b4.graph"
        path.write_text(B4_GRAPH)
        code, out = run_cli(["artin", str(path)], capsys)
        assert code == 0
        assert "components=1 cost=1 rg=0 betti1=0" in out

    def test_two_isolated_vertices(self, tmp_path, capsys):
        path = tmp_path / "f2.graph"
        path.write_text("vertex a\nvertex b\n")
        code, out = run_cli(["artin", str(path)], capsys)
        assert code == 0
        assert "components=2" in out and "rg=1" in out

    def test_malformed_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.graph"
        path.write_text("vertex a\nedge a a 2\n")
        code, out = run_cli(["artin", str(path)], capsys)
        assert code == 2
        assert "line 2" in out

    def test_certify_flag_writes_valid_certificate(self, tmp_path, capsys):
        path = tmp_path / "b4.graph"
        path.write_text(B4_GRAPH)
        out_path = tmp_path / "b4.cert.json"
        code, out = run_cli(["artin", str(path), "--certify", str(out_path)], capsys)
        assert code == 0
        cert = certificate_from_json(out_path.read_text())
        assert check_certificate(cert).valid


class TestCoxeterCommand:
    def test_hexagon(self, tmp_path, capsys):
        path = tmp_path / "hex.graph"
        path.write_text(HEX_GRAPH)
        code, out = run_cli(["coxeter", str(path)], capsys)
        assert code == 0
        assert "rg=1/2 betti1=1/2 trace_sum=1/2 OK" in out

    def test_k4_fails_hypothesis_exit_3(self, tmp_path, capsys):
        path = tmp_path / "k4.graph"
        path.write_text(K4_GRAPH)
        code, out = run_cli(["coxeter", str(path)], capsys)
        assert code == 3
        assert "girth(3) < 6; nonplanar=false" in out

    def test_single_edge_label_4(self, tmp_path, capsys):
        path = tmp_path / "edge.graph"
        path.write_text("vertex a\nvertex b\nedge a b 4\n")
        code, out = run_cli(["coxeter", str(path)], capsys)
        assert code == 0
        assert "rg=-1/8" in out

    def test_trace_flag(self, tmp_path, capsys):
        path = tmp_path / "hex.graph"
        path.write_text(HEX_GRAPH)
        trace_path = tmp_path / "trace.json"
        code, _ = run_cli(["coxeter", str(path), "--trace", str(trace_path)], capsys)
        assert code == 0
        trace = trace_from_json(trace_path.read_text())
        assert trace.total() == Fraction(1, 2)


class TestExprCommand:
    def test_sl2z_amalgam(self, tmp_path, capsys):
        path = tmp_path / "e.expr"
        path.write_text("(amalgam-finite (cyclic 6) (cyclic 4) 2)\n")
        code, out = run_cli(["expr", str(path)], capsys)
        assert code == 0
        assert "cost=13/12 rg=1/12 betti1=1/12" in out

    def test_psl2z(self, tmp_path, capsys):
        path = tmp_path / "e.expr"
        path.write_text("(amalgam-finite (cyclic 2) (cyclic 3) 1)\n")
        code, out = run_cli(["expr", str(path)], capsys)
        assert code == 0
        assert "rg=1/6" in out

    def test_generation_unknown(self, tmp_path, capsys):
        path = tmp_path / "e.expr"
        path.write_text('(generation (free 2) (free 3) "declared")\n')
        code, out = run_cli(["expr", str(path)], capsys)
        assert code == 0
        assert "cost=unknown(" in out and "price 1" in out

    def test_parse_error_exit_2(self, tmp_path, capsys):
        path = tmp_path / "e.expr"
        path.write_text("(cyclic 1)\n")
        code, out = run_cli(["expr", str(path)], capsys)
        assert code == 2

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

    def test_digests_graph_files_in_read_order(self, tmp_path, capsys):
        # a graph file the expression names gets its own "# input" line,
        # so editing it changes the report
        edge, vertex = tmp_path / "edge.graph", tmp_path / "vertex.graph"
        edge.write_text("vertex a\nvertex b\nedge a b 3\n")
        vertex.write_text("vertex x\n")
        path = tmp_path / "e.expr"
        path.write_text('(amalgam-finite (artin "vertex.graph") (coxeter "edge.graph") 1)\n')

        def report():
            code, out = run_cli(["expr", str(path)], capsys)
            assert code == 0
            return out

        def digest(p):
            return f"# input {p} sha256={hashlib.sha256(p.read_bytes()).hexdigest()}"

        before, old = report(), digest(edge)
        assert [line for line in before.split("\n") if line.startswith("# input")] == \
            [digest(path), digest(vertex), old]
        edge.write_text("vertex a\nvertex b\nedge a b 3\n# edited\n")
        after = report()
        assert after != before and after == before.replace(old, digest(edge))


class TestCertifyCommand:
    def test_sl2z(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out = run_cli(["certify", "SL2Z"], capsys)
        assert code == 0
        assert "valid=true assumptions=0 cost=13/12" in out

    def test_mcg_2(self, tmp_path, capsys):
        out_path = tmp_path / "mcg2.json"
        code, out = run_cli(["certify", "MCG", "2", "--out", str(out_path)], capsys)
        assert code == 0
        assert "valid=true assumptions=4" in out

    def test_disconnected_graph_redirects(self, tmp_path, capsys):
        path = tmp_path / "two.graph"
        path.write_text("vertex a\nvertex b\n")
        code, out = run_cli(["certify", str(path)], capsys)
        assert code == 2
        assert "use the artin command for multi-component graphs" in out

    def test_connected_graph_certificate(self, tmp_path, capsys):
        path = tmp_path / "b4.graph"
        path.write_text(B4_GRAPH)
        out_path = tmp_path / "b4.json"
        code, out = run_cli(["certify", str(path), "--out", str(out_path)], capsys)
        assert code == 0
        assert "valid=true assumptions=0 cost=1" in out

    def test_out_of_range_param(self, capsys):
        code, out = run_cli(["certify", "MCG", "1"], capsys)
        assert code == 2


class TestVerifyCommand:
    def test_sl2z_chain(self, capsys):
        code, out = run_cli(["verify", "SL2Z", "--mod", "3,4,5"], capsys)
        assert code == 0
        assert "24,3,3,1/12,1/12" in out
        assert "48,5,5,1/12,1/12" in out
        assert "120,11,11,1/12,1/12" in out
        assert "matches symbolic 1/12" in out

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

    def test_braid3_abelian_kill(self, capsys):
        code, out = run_cli(["verify", "braid3", "--abelian-kill", "2,6,24"], capsys)
        assert code == 0
        assert "symbolic target 0" in out

    def test_low_index(self, capsys):
        code, out = run_cli(["verify", "dihedral-inf", "--low-index", "4"], capsys)
        assert code == 0
        assert "symbolic" in out

    def test_dump_presentation(self, capsys):
        code, out = run_cli(["verify", "SL2Z", "--dump-presentation"], capsys)
        assert code == 0
        assert "gens: a b" in out
        assert "rel: a a B B B" in out

    def test_requires_exactly_one_chain_flag(self, capsys):
        code, out = run_cli(["verify", "SL2Z"], capsys)
        assert code == 2
        code, out = run_cli(["verify", "SL2Z", "--mod", "3", "--low-index", "2"], capsys)
        assert code == 2

    def test_low_index_zero_is_a_given_flag(self, capsys):
        code, out = run_cli(["verify", "braid3", "--low-index", "0"], capsys)
        assert code == 2
        assert "error: --low-index must be >= 1" in out.split("\n")

    def test_mod_rejected_for_other_targets(self, capsys):
        code, out = run_cli(["verify", "braid3", "--mod", "3"], capsys)
        assert code == 2

    def test_coset_limit_exceeded_exits_5(self, capsys):
        code, out = run_cli(
            ["verify", "SL2Z", "--mod", "5", "--coset-limit", "50"], capsys)
        assert code == 5
        assert "inconclusive" in out

    def test_large_level_exits_5_before_enumerating(self, capsys):
        # |SL(2,Z/400)| = 46,080,000 is known without enumerating the
        # 400^4 matrices, which would take hours
        start = time.perf_counter()
        code, out = run_cli(
            ["verify", "SL2Z", "--mod", "400", "--coset-limit", "1000"], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 5
        assert ("inconclusive: --mod level 400: SL(2,Z/400) has more elements than the "
                "coset limit 1000") in out

    def test_abelian_kill_past_the_limit_builds_no_image(self, capsys, monkeypatch):
        # a level-k image has degree k, so level 200 is refused before the
        # image of level 3 is built
        import rgcost.fpgroup.chains as chains

        calls = []
        monkeypatch.setattr(chains, "mod_cycle_images", lambda *args: calls.append(args))
        code, out = run_cli(
            ["verify", "braid3", "--abelian-kill", "3,200", "--coset-limit", "100"], capsys)
        assert code == 5 and calls == []
        assert out.split("\n")[-2] == (
            "inconclusive: coset limit exceeded: 200 cosets needed by --abelian-kill "
            "level 200 (limit 100)")

    @pytest.mark.parametrize("target,level,order", [("SL2Z", 6, 144), ("PSL2Z", 6, 72)])
    def test_level_bound_is_the_quotient_order(self, target, level, order, capsys):
        code, _ = run_cli(["verify", target, "--mod", str(level),
                           "--coset-limit", str(order)], capsys)
        assert code == 0
        code, out = run_cli(["verify", target, "--mod", str(level),
                             "--coset-limit", str(order - 1)], capsys)
        assert code == 5
        group = "PSL" if target == "PSL2Z" else "SL"
        assert (f"--mod level {level}: {group}(2,Z/{level}) has more elements than the "
                f"coset limit {order - 1}") in out

    def test_levels_need_no_order(self, capsys):
        # |SL(2,Z/12)| = 1152 is less than |SL(2,Z/11)| = 1320; the rows
        # follow the listed levels
        code, out = run_cli(["verify", "SL2Z", "--mod", "11,12"], capsys)
        assert code == 0
        lines = out.split("\n")
        rows = ["1320,111,111,1/12,1/12", "1152,97,97,1/12,1/12", "matches symbolic 1/12"]
        assert sorted(map(lines.index, rows)) == list(map(lines.index, rows))

    @pytest.mark.parametrize("argv,trend", [
        (["verify", "SL2Z", "--mod", "5,3"],
         "trend: r_upper non-increasing; final interval [1/12, 1/12] at index 120"),
        (["verify", "braid3", "--abelian-kill", "3,2"],
         "trend: r_upper not monotone; final interval [2/3, 2/3] at index 3"),
    ], ids=["mod", "abelian-kill"])
    def test_trend_reads_index_order(self, argv, trend, capsys):
        # the rows print in listed order; the trend reads them by index
        code, out = run_cli(argv, capsys)
        assert code == 0
        assert trend in out.split("\n")

    def test_low_index_search_limit_exits_5(self, capsys):
        start = time.perf_counter()
        code, out = run_cli(
            ["verify", "braid5", "--low-index", "8", "--coset-limit", "100"], capsys)
        assert time.perf_counter() - start < 2.0
        assert code == 5
        assert ("inconclusive: coset limit exceeded: 101 low-index search nodes "
                "(limit 100)") in out

    def test_presentation_file_target(self, tmp_path, capsys):
        path = tmp_path / "b3.pres"
        path.write_text("gens: x y\nrel: x y x Y X Y\n")
        code, out = run_cli(["verify", str(path), "--abelian-kill", "1,2"], capsys)
        assert code == 0
        assert "symbolic value unknown" in out

    def test_csv_file_round_trips(self, tmp_path, capsys):
        csv_path = tmp_path / "out.csv"
        code, out = run_cli(
            ["verify", "SL2Z", "--mod", "3", "--csv", str(csv_path)], capsys)
        assert code == 0
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == "index,d_lower,d_upper,r_lower,r_upper"
        index, dl, du, rl, ru = lines[1].split(",")
        assert Fraction(rl) == Fraction(1, 12) and Fraction(ru) == Fraction(1, 12)


# Graph files whose error names a 3,000-letter vertex, cut to 20 letters:
# (text, line of the error, message).
LONG_NAME = "A" * 3000
LONG_NAME_CUT = "'" + "A" * 20 + "...'"
LONG_NAME_GRAPHS = [
    (f"vertex {LONG_NAME}-\n", 1, f"invalid vertex name {LONG_NAME_CUT}"),
    (f"vertex {LONG_NAME}\nvertex {LONG_NAME}\n", 2, f"duplicate vertex {LONG_NAME_CUT}"),
    (f"vertex a\nedge a {LONG_NAME} 2\n", 2, f"undeclared endpoint {LONG_NAME_CUT}"),
    (f"vertex {LONG_NAME}\nedge {LONG_NAME} {LONG_NAME} 2\n", 2, f"self-loop at {LONG_NAME_CUT}"),
    (f"vertex {LONG_NAME}\nvertex b\nedge {LONG_NAME} b 2\nedge b {LONG_NAME} 3\n",
     4, f"duplicate edge 'b' {LONG_NAME_CUT}"),
]


class TestErrorExits:
    """main maps what a command raises to an exit code and a line prefix,
    the same way for every command, and never prints a traceback.  One
    input per row of main's table; the ValueError row has several.  The
    decreasing-level rows were refusals once and now exit 0: levels need
    no order.  Every refusal is one stdout line of at most 200 bytes, with
    nothing on stderr, however long the count or vertex name it quotes."""

    @pytest.mark.parametrize("argv,text,code,line", [
        (["coxeter", "FILE"], K4_GRAPH, 3, "hypothesis failed: girth(3) < 6; nonplanar=false"),
        (["expr", "FILE"], "(amalgam-amenable (cyclic 2) (cyclic 2) (trivial) inf inf 1)",
         3, "error: inconsistent values at root: "),
        (["verify", "braid3", "--abelian-kill", "30", "--coset-limit", "20"], None,
         5, "inconclusive: coset limit exceeded: "),
        (["verify", "SL2Z", "--mod", "5,3"], None, 0, "matches symbolic 1/12"),
        (["verify", "braid3", "--abelian-kill", "3,2"], None, 0, "symbolic target 0"),
        (["verify", "SL2Z", "--mod", ","], None, 2, "error: --mod lists no levels"),
        (["verify", "braid3", "--abelian-kill", ","], None,
         2, "error: --abelian-kill lists no levels"),
        (["expr", "FILE"], None, 2, "error: cannot read "),
        (["verify", "braid1", "--abelian-kill", "2"], None,
         2, "error: braidN strand count must be >= 2"),
        (["certify", "MCG", "99999999999"], None,
         5, "inconclusive: MCG genus 99999999999 exceeds the cap 1000"),
        (["verify", "braid99999999999", "--low-index", "2"], None,
         5, "inconclusive: braidN strand count 99999999999 exceeds the cap 1000"),
        (["verify", "braid3", "--abelian-kill", "3", "--coset-limit", "-1"], None,
         2, "error: --coset-limit must be >= 1"),
        (["verify", "SL2Z", "--mod", "3", "--coset-limit", "-7"], None,
         2, "error: --coset-limit must be >= 1"),
        (["verify", "braid3", "--low-index", "0"], None, 2, "error: --low-index must be >= 1"),
        (["verify", "braid3", "--low-index", "65"], None,
         5, "inconclusive: --low-index 65 exceeds the cap 64"),
        (["verify", "braid3", "--abelian-kill", "2,0"], None,
         2, "error: --abelian-kill level must be >= 1"),
        (["verify", "SL2Z", "--mod", "1"], None, 2, "error: --mod level must be >= 2"),
        (["verify", "SL2Z"], None,
         2, "error: choose exactly one of --mod, --abelian-kill, --low-index"),
        (["verify", "SL2Z", "--mod", "3", "--low-index", "2"], None,
         2, "error: choose exactly one of --mod, --abelian-kill, --low-index"),
        (["verify", "SL2Z", "--mod", "x"], None,
         2, "error: --mod level must be an integer, not 'x'"),
        (["verify", "braid3", "--abelian-kill", "2,y"], None,
         2, "error: --abelian-kill level must be an integer, not 'y'"),
        (["verify", "SL2Z", "--mod", "1" * 5000], None,
         5, "inconclusive: --mod level of 5000 digits is past every limit"),
        (["verify", "braid3", "--abelian-kill", "2,+" + "0" * 9 + "1" * 5000], None,
         5, "inconclusive: --abelian-kill level of 5000 digits is past every limit"),
        (["verify", "FILE", "--mod", "3", "--low-index", "2"], None,
         2, "error: choose exactly one of --mod, --abelian-kill, --low-index"),
        (["verify", "FILE", "--mod", "3"], None,
         2, "error: --mod congruence chains exist only for SL2Z and PSL2Z"),
        (["certify", "FILE", "3"], B4_GRAPH, 2, "error: graph-file targets take no parameter"),
        (["certify", "SL2Z", "3"], None, 2, "error: SL2Z takes no parameter"),
        (["certify", "MCG", "9" * 5000], None,
         5, "inconclusive: MCG genus of 5000 digits exceeds the cap 1000"),
        (["verify", "braid" + "9" * 5000, "--low-index", "2"], None,
         5, "inconclusive: braidN strand count of 5000 digits exceeds the cap 1000"),
        (["verify", "braid3", "--low-index", "9" * 5000], None,
         5, "inconclusive: --low-index of 5000 digits exceeds the cap 64"),
        (["verify", "braid3", "--abelian-kill", "3", "--coset-limit", "9" * 5000], None,
         5, "inconclusive: --coset-limit of 5000 digits is past every limit"),
        (["verify", "braid3", "--low-index", "x"], None,
         2, "error: --low-index must be an integer, not 'x'"),
        (["verify", "braid3", "--abelian-kill", "3", "--coset-limit", "x" * 5000], None,
         2, "error: --coset-limit must be an integer, not 'xxxxxxxxxxxxxxxxxxxx...'"),
        (["verify", "SL2Z", "--mod", "\u0663"], None,
         2, "error: --mod level must be an integer, not '\u0663'"),
        (["verify", "braid3", "--abelian-kill", "1_0"], None,
         2, "error: --abelian-kill level must be an integer, not '1_0'"),
        (["verify", "braid3", "--low-index", "1_0"], None,
         2, "error: --low-index must be an integer, not '1_0'"),
        (["certify", "MCG", "\u0663"], None,
         2, "error: MCG genus must be an integer, not '\u0663'"),
        *[([command, "FILE"], text, 2, f"error: line {line}: {message}")
          for command in ("artin", "coxeter") for text, line, message in LONG_NAME_GRAPHS],
        (["expr", "FILE"], f'(artin "{"/".join(["a" * 98] * 3)}.graph")', 2,
         "error: line 1, col 8: cannot read graph file 'aaaaaaaaaaaaaaaaaaaa...': "
         "No such file or directory"),
    ], ids=["hypothesis", "invariant", "limit", "decreasing-mod", "decreasing-abelian-kill",
            "empty-mod", "empty-abelian-kill", "missing-file", "braid1", "certificate-cap",
            "braid-cap", "negative-coset-limit-abelian-kill", "negative-coset-limit-mod",
            "zero-low-index", "low-index-cap", "zero-abelian-kill", "mod-one",
            "no-chain-flag", "two-chain-flags", "non-integer-mod",
            "non-integer-abelian-kill", "overlong-mod", "overlong-abelian-kill",
            "chain-flags-before-file", "mod-target-before-file",
            "graph-file-param", "builtin-param", "overlong-certificate-param",
            "overlong-braid", "overlong-low-index", "overlong-coset-limit",
            "non-integer-low-index", "non-integer-coset-limit", "non-ascii-mod",
            "underscore-abelian-kill", "underscore-low-index", "non-ascii-certificate-param",
            *[f"{command}-long-name-{key}" for command in ("artin", "coxeter")
              for key in ("invalid", "duplicate-vertex", "undeclared", "self-loop",
                          "duplicate-edge")], "long-missing-graph-path"])
    def test_exit_code_and_line(self, argv, text, code, line, tmp_path):
        path = tmp_path / "input"
        if text is not None:
            path.write_text(text)
        proc = subprocess.run(
            [sys.executable, "-m", "rgcost.cli", "--no-timestamp",
             *(str(path) if a == "FILE" else a for a in argv)],
            capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (code, "")
        last = proc.stdout.split("\n")[-2]
        assert last.startswith(line) and len(last.encode()) <= 200

    def test_reader_closes_stdout(self, tmp_path):
        """`rgcost expr nest.expr | head -n 1`: the report (about 0.7 MB)
        outgrows the pipe, so writing hits a closed pipe; exit 1, and
        nothing on stderr."""
        text = "(cyclic 4)"
        for _ in range(1999):
            text = f"(amalgam-finite {text} (cyclic 6) 2)"
        path = tmp_path / "nest.expr"
        path.write_text(text + "\n")
        proc = subprocess.Popen(
            [sys.executable, "-m", "rgcost.cli", "--no-timestamp", "expr", str(path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        first = proc.stdout.readline()
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert first == f"# rgcost --no-timestamp expr {path}\n".encode()
        assert stderr == b""


# Defines `forged`, a stand-in for rgcost.certificate.rg_artin that gives
# every edge leaf under the root a centre exponent one too large.  On the
# path a-b-c the root is a generation node over the two edge leaves, so the
# checker must report two violations.
FORGED_RG_ARTIN = """\
from dataclasses import replace

import rgcost.certificate

real = rgcost.certificate.rg_artin


def forged(g):
    price, cert = real(g)
    leaves = tuple(replace(c, exponent=c.exponent + 1) for c in cert.root.children)
    return price, replace(cert, root=replace(cert.root, children=leaves))
"""
PATH_GRAPH = "vertex a\nvertex b\nvertex c\nedge a b 3\nedge b c 4\n"
VIOLATIONS = [
    "violation: node 0 [InfiniteCenterLeaf]: centre witness exponent 4 != 3 for label 3",
    "violation: node 1 [InfiniteCenterLeaf]: centre witness exponent 3 != 2 for label 4",
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
    never tracebacks."""

    @pytest.mark.parametrize("command", [["artin"], ["coxeter"], ["certify"],
                                         ["verify", "--low-index", "2"], ["expr"]],
                             ids=["artin", "coxeter", "certify", "verify", "expr"])
    def test_non_utf8_input_exits_2(self, command, tmp_path, capsys):
        path = tmp_path / "bad.graph"
        path.write_bytes(b"vertex a\nvertex \xff\n")
        code, out = run_cli([command[0], str(path), *command[1:]], capsys)
        assert code == 2
        assert f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xff" in out

    @pytest.mark.parametrize("command,flag", [
        (["artin", "GRAPH"], "--certify"),
        (["coxeter", "GRAPH"], "--trace"),
        (["certify", "GRAPH"], "--out"),
        (["verify", "SL2Z", "--mod", "3"], "--csv"),
    ], ids=["artin", "coxeter", "certify", "verify"])
    def test_unwritable_output_exits_2(self, command, flag, tmp_path, capsys):
        graph = tmp_path / "edge.graph"
        graph.write_text("vertex a\nvertex b\nedge a b 3\n")
        target = tmp_path / "no-such-dir" / "x"
        argv = [str(graph) if a == "GRAPH" else a for a in command]
        code, out = run_cli([*argv, flag, str(target)], capsys)
        assert code == 2
        assert out.split("\n")[-2].startswith(f"error: cannot write {target}: ")
        assert not target.parent.exists()


# Pinned `verify` output after the two header lines.  d_upper depends on the
# exact order of Tietze eliminations and d_lower on the abelianization, so a
# rewrite of either that moves any row fails here.
GOLDEN_VERIFY = [
    ("verify SL2Z --mod 3,4,5,6,7,8",
     """\
index,d_lower,d_upper,r_lower,r_upper
24,3,3,1/12,1/12
48,5,5,1/12,1/12
120,11,11,1/12,1/12
144,13,13,1/12,1/12
336,29,29,1/12,1/12
384,33,33,1/12,1/12
trend: r_upper non-increasing; final interval [1/12, 1/12] at index 384
matches symbolic 1/12
"""),
    ("verify PSL2Z --mod 3,4,5,6,7,8",
     """\
index,d_lower,d_upper,r_lower,r_upper
12,3,3,1/6,1/6
24,5,5,1/6,1/6
60,11,11,1/6,1/6
72,13,13,1/6,1/6
168,29,29,1/6,1/6
192,33,33,1/6,1/6
trend: r_upper non-increasing; final interval [1/6, 1/6] at index 192
matches symbolic 1/6
"""),
    ("verify braid5 --abelian-kill 2,4,8",
     """\
index,d_lower,d_upper,r_lower,r_upper
2,4,4,3/2,3/2
4,4,6,3/4,5/4
8,4,7,3/8,3/4
trend: r_upper non-increasing; final interval [3/8, 3/4] at index 8
symbolic target 0
"""),
    ("verify braid3 --abelian-kill 32,64",
     """\
index,d_lower,d_upper,r_lower,r_upper
32,2,3,1/32,1/16
64,2,3,1/64,1/32
trend: r_upper non-increasing; final interval [1/64, 1/32] at index 64
symbolic target 0
"""),
    ("verify braid3 --low-index 10",
     """\
index,d_lower,d_upper,r_lower,r_upper
1,1,2,0,1
2,2,2,1/2,1/2
3,3,3,2/3,2/3
4,2,2,1/4,1/4
5,1,3,0,2/5
6,3,3,1/3,1/3
6,3,3,1/3,1/3
7,1,3,0,2/7
8,2,3,1/8,1/4
9,3,3,2/9,2/9
10,2,3,1/10,1/5
trend: r_upper not monotone; final interval [1/10, 1/5] at index 10
symbolic target 0
"""),
    ("verify braid3 --low-index 14",
     """\
index,d_lower,d_upper,r_lower,r_upper
1,1,2,0,1
2,2,2,1/2,1/2
3,3,3,2/3,2/3
4,2,2,1/4,1/4
5,1,3,0,2/5
6,3,3,1/3,1/3
6,3,3,1/3,1/3
7,1,3,0,2/7
8,2,3,1/8,1/4
9,3,3,2/9,2/9
10,2,3,1/10,1/5
11,1,3,0,2/11
12,3,3,1/6,1/6
12,4,4,1/4,1/4
12,3,3,1/6,1/6
13,1,3,0,2/13
14,2,3,1/14,1/7
trend: r_upper not monotone; final interval [1/14, 1/7] at index 14
symbolic target 0
"""),
    ("verify SL2Z --mod 3,4,5,6,7,8,9,10,12,11,14,13,15,16",
     """\
index,d_lower,d_upper,r_lower,r_upper
24,3,3,1/12,1/12
48,5,5,1/12,1/12
120,11,11,1/12,1/12
144,13,13,1/12,1/12
336,29,29,1/12,1/12
384,33,33,1/12,1/12
648,55,55,1/12,1/12
720,61,61,1/12,1/12
1152,97,97,1/12,1/12
1320,111,111,1/12,1/12
2016,169,169,1/12,1/12
2184,183,183,1/12,1/12
2880,241,241,1/12,1/12
3072,257,257,1/12,1/12
trend: r_upper non-increasing; final interval [1/12, 1/12] at index 3072
matches symbolic 1/12
"""),
    ("verify PSL2Z --mod 3,4,5,6,7,8,9,10,12,11,14,13,16",
     """\
index,d_lower,d_upper,r_lower,r_upper
12,3,3,1/6,1/6
24,5,5,1/6,1/6
60,11,11,1/6,1/6
72,13,13,1/6,1/6
168,29,29,1/6,1/6
192,33,33,1/6,1/6
324,55,55,1/6,1/6
360,61,61,1/6,1/6
576,97,97,1/6,1/6
660,111,111,1/6,1/6
1008,169,169,1/6,1/6
1092,183,183,1/6,1/6
1536,257,257,1/6,1/6
trend: r_upper non-increasing; final interval [1/6, 1/6] at index 1536
matches symbolic 1/6
"""),
]


class TestGoldenVerify:
    @pytest.mark.parametrize("command,expected", GOLDEN_VERIFY,
                             ids=[c for c, _ in GOLDEN_VERIFY])
    def test_rows_unchanged(self, command, expected, capsys):
        code, out = run_cli(command.split(), capsys)
        assert code == 0
        echo, digest, rows = out.split("\n", 2)
        assert echo == "# rgcost --no-timestamp " + command
        assert digest.startswith("# input builtin:")
        assert rows == expected

    # The digest of each builtin's presentation text, derived from its
    # expression; a changed generator order or relator changes it.
    @pytest.mark.parametrize("target,digest", [
        ("SL2Z", "e454d562fc24f21aa8f70c0df4f1417b0cfe35866dc0dcfc1c3e147cd856beac"),
        ("PSL2Z", "f01366f186ea3d78d18e5b3d836fc794471a0518bcbcbf6c3845002e910bdca6"),
        ("dihedral-inf", "51cd6c171ab3f512a4dc102e8f37f085f01febd188e175aeafb636cde9670d2e"),
        ("braid3", "a5b0355bf0481be81892ab8faadab9264a1becc62cb77fcc47a1f2465ae0ea69"),
        ("braid5", "cd5b1b34fd7105409989df952933715d4162f2d704f261d3f8ce9e7e0e4c4861"),
    ])
    def test_builtin_digest_unchanged(self, target, digest, capsys):
        code, out = run_cli(["verify", target, "--dump-presentation"], capsys)
        assert code == 0
        line, text = out.split("\n", 2)[1:]
        assert line == f"# input builtin:{target} sha256={digest}"
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest

    def test_limit_text_unchanged(self, capsys):
        command = "verify braid3 --abelian-kill 3,200 --coset-limit 100"
        code, out = run_cli(command.split(), capsys)
        assert code == 5
        assert out.split("\n", 2)[2] == (
            "inconclusive: coset limit exceeded: 200 cosets needed by --abelian-kill "
            "level 200 (limit 100)\n")


# Graph inputs of the golden certificate rows.
G12_GRAPH = "".join(f"vertex {v}\n" for v in "abcdefghijkl") + "".join(
    f"edge {e}\n" for e in ("a b 3", "b c 4", "c d 2", "d a 5", "c e 3", "e f 6", "f g 2",
                            "g e 3", "g h 7", "h i 3", "i j 2", "j k 4", "k l 3", "l i 5",
                            "b h 2"))
THREE_COMPONENT_GRAPH = "".join(f"vertex {v}\n" for v in "abcdef") + (
    "edge a b 3\nedge b c 4\nedge a c 2\nedge d e 5\n")

# Pinned `certify` and `artin --certify` output after the command echo,
# captured before certificates were written in the flat post-order format,
# and the sha256 of the certificate file each command writes in that format.
GOLDEN_CERTIFY = [
    ("certify SL2Z",
     """\
certificate: SL2Z.cert.json
valid=true assumptions=0 cost=13/12
""", "0ea93dbc0d56858e215d33171e3d89a686748f9c43bc42ccea2993fd00a091da"),
    ("certify MCG 3",
     """\
certificate: MCG3.cert.json
valid=true assumptions=7 cost=1
  assumes: the Dehn twists m1 and a1 are defined along simple closed non-separating curves with intersection number one, so <m1,a1> is a copy of the braid group on three strands; a connected one-edge Artin group has fixed price 1 [BH]
  assumes: the Dehn twists a1 and c1 are defined along simple closed non-separating curves with intersection number one, so <a1,c1> is a copy of the braid group on three strands; a connected one-edge Artin group has fixed price 1 [BH]
  assumes: the Dehn twists c1 and a2 are defined along simple closed non-separating curves with intersection number one, so <c1,a2> is a copy of the braid group on three strands; a connected one-edge Artin group has fixed price 1 [BH]
  assumes: the Dehn twists a2 and m2 are defined along simple closed non-separating curves with intersection number one, so <a2,m2> is a copy of the braid group on three strands; a connected one-edge Artin group has fixed price 1 [BH]
  assumes: the Dehn twists a2 and c2 are defined along simple closed non-separating curves with intersection number one, so <a2,c2> is a copy of the braid group on three strands; a connected one-edge Artin group has fixed price 1 [BH]
  assumes: the Dehn twists c2 and a3 are defined along simple closed non-separating curves with intersection number one, so <c2,a3> is a copy of the braid group on three strands; a connected one-edge Artin group has fixed price 1 [BH]
  assumes: the Dehn twists a3 and m3 are defined along simple closed non-separating curves with intersection number one, so <a3,m3> is a copy of the braid group on three strands; a connected one-edge Artin group has fixed price 1 [BH]
""", "2a4ff60f8d249328ac1a9336b88ecc8708fd8fb0766688f3604602ba7d7f6f17"),
    ("certify AutFn 4",
     """\
certificate: AutFn4.cert.json
valid=true assumptions=4 cost=1
  assumes: the automorphisms f_1,...,f_3 with f_i: x_i -> x_i x_(i+1) x_i^-1, x_(i+1) -> x_i generate a copy of the braid group on 4 strands inside Aut(F_4); a connected-path Artin group has fixed price 1 [classical]
  assumes: A_1, the copy of Aut(F_2) acting on <x_1,x_2> and fixing the other free generators, has fixed price 1 (AutFn(2) certificate) [DF]
  assumes: A_2, the copy of Aut(F_2) acting on <x_2,x_3> and fixing the other free generators, has fixed price 1 (AutFn(2) certificate) [DF]
  assumes: A_3, the copy of Aut(F_2) acting on <x_3,x_4> and fixing the other free generators, has fixed price 1 (AutFn(2) certificate) [DF]
""", "ee3533c41e2a780b34b81427f88b2338f82be40911cba1fec9b29d14c511d1f0"),
    ("certify OutFn 3",
     """\
certificate: OutFn3.cert.json
valid=true assumptions=3 cost=1
  assumes: Xbar, the image in Out(F_3) of the copy X of Aut(F_2) acting on <x_1,x_2> and fixing x_3, is isomorphic to Aut(F_2) and has fixed price 1 [DF]
  assumes: Zbar, the image of the copy Z of Aut(F_2) acting on <x_1,x_2> and fixing x_1x_3, is isomorphic to Aut(F_2) and has fixed price 1; the intersection Xbar n Zbar >= <alphabar> is infinite, where alpha: x_1 -> x_1, x_2 -> x_1x_2, x_3 -> x_3 [DF]
  assumes: Ybar, the image of the copy Y of Aut(F_2) acting on <x_2,x_3> and fixing x_1, is isomorphic to Aut(F_2) and has fixed price 1; <Xbar,Zbar> n Ybar contains the class of gamma o beta (fixing x_1 and x_2, sending x_3 to x_2^-1 x_3), of infinite order [DF]
""", "08f6f75d9fc0b404e9ff0564ad023d734eeb72a40110f9a12b39493d37be9c8a"),
    ("certify BnModCenter 5",
     """\
certificate: BnModCenter5.cert.json
valid=true assumptions=2 cost=1
  assumes: the parabolic subgroup <sigma_1,...,sigma_3> of the braid group on 5 strands is a copy of the braid group on 4 strands meeting the centre trivially (Garside-element description of the centre), so its image modulo the centre is again that braid group; a connected-path Artin group has fixed price 1 [Garside]
  assumes: the parabolic subgroup <sigma_2,...,sigma_4> of the braid group on 5 strands is a copy of the braid group on 4 strands meeting the centre trivially (Garside-element description of the centre), so its image modulo the centre is again that braid group; a connected-path Artin group has fixed price 1 [Garside]
""", "9a0dda747687820d5336e997c1645af9a5e1c1bb23dffded0591bfc8ba341e76"),
    ("certify g12.graph",
     """\
# input g12.graph sha256=1eb1c5446ad992ce4f16b2525a6cdcc3cb0bf10931746c75aa7a69efd2720b2e
certificate: g12.graph.cert.json
valid=true assumptions=0 cost=1
""", "34b691df64db46b1dd27380045f630a9a538897a47251fa788853f476c3bbb96"),
    ("artin three.graph --certify three.cert.json",
     """\
# input three.graph sha256=9b805a62b7e862fe25585b481f28c7bbb8dfeb2f1b6124e026bea065b92d91ff
components=3 cost=3 rg=2 betti1=2
certificate: three.cert.json (assumptions=0, valid)
""", "cebb9419aec758b928b3311ead3aff6fcf382ac8d151423d1d308e9654e030c2"),
]


class TestGoldenCertify:
    @pytest.mark.parametrize("command,expected,cert_sha256", GOLDEN_CERTIFY,
                             ids=[c[0] for c in GOLDEN_CERTIFY])
    def test_output_unchanged(self, command, expected, cert_sha256, tmp_path, capsys,
                              monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "g12.graph").write_text(G12_GRAPH)
        (tmp_path / "three.graph").write_text(THREE_COMPONENT_GRAPH)
        code, out = run_cli(command.split(), capsys)
        assert code == 0
        assert out == f"# rgcost --no-timestamp {command}\n{expected}"
        written = next(line.split()[1] for line in expected.splitlines()
                       if line.startswith("certificate: "))
        assert hashlib.sha256((tmp_path / written).read_bytes()).hexdigest() == cert_sha256

    def test_certify_800_vertex_path(self, tmp_path, capsys):
        path = tmp_path / "path800.graph"
        path.write_text("".join(f"vertex v{i}\n" for i in range(800))
                        + "".join(f"edge v{i} v{i + 1} {2 + i % 6}\n" for i in range(799)))
        code, out = run_cli(["certify", str(path)], capsys)
        assert code == 0
        assert "valid=true assumptions=0 cost=1" in out.split("\n")


def hex_grid_text(rows, cols):
    """Brick-wall drawing of the honeycomb, (rows + 1) x (cols + 1)
    vertices, labels cycling through 2..6: planar with girth 6."""
    def name(i, j):
        return f"v{i}_{j}"

    lines = [f"vertex {name(i, j)}" for i in range(rows + 1) for j in range(cols + 1)]
    ends = []
    for i in range(rows + 1):
        for j in range(cols + 1):
            if j < cols:
                ends.append((name(i, j), name(i, j + 1)))
            if i < rows and (i + j) % 2 == 0:
                ends.append((name(i, j), name(i + 1, j)))
    lines += [f"edge {u} {v} {2 + k % 5}" for k, (u, v) in enumerate(ends)]
    return "\n".join(lines) + "\n"


GOLDEN_COXETER_GRAPHS = {
    "hex.graph": hex_grid_text(6, 9),
    "tree.graph": "".join(f"vertex t{i}\n" for i in range(7)) + "".join(
        f"edge t{(i - 1) // 2} t{i} {2 + i % 4}\n" for i in range(1, 7)),
    "vertex.graph": "vertex a\n",
    "edge.graph": "vertex a\nvertex b\nedge a b 5\n",
    "square.graph": ("vertex a\nvertex b\nvertex c\nvertex d\n"
                     "edge a b 2\nedge b c 3\nedge c d 4\nedge d a 5\n"),
}

# Pinned `coxeter --trace` stdout and the sha256 of the trace file,
# captured before girth and planarity were memoised on the graph and the
# girth search went per root.
GOLDEN_COXETER = [
    ("hex", 0, """\
# input hex.graph sha256=24e62d36886b0ae70c0c96feb9e8eba5264d245f38d4dccfc937a8dae8d2a412
hypotheses: girth=6 planar=true OK
rg=2449/120 betti1=2449/120 trace_sum=2449/120 OK
trace: hex.trace.json (70 steps)
""", "2008f24dd7c538cd8f303bd79a329ccf76f368019d1ab7c044d5daa02ded99ce"),
    ("tree", 0, """\
# input tree.graph sha256=dfb6a953153a67f34d2a3761bd77e6f8ae9c1fc9ba7b80a1290482e50ef815be
hypotheses: girth=inf planar=true OK
rg=47/30 betti1=47/30 trace_sum=47/30 OK
trace: tree.trace.json (7 steps)
""", "18f4a3f92e37f09d51f3cd7ffdd9d5b285824c346d2c3e153080d2b2b101bfce"),
    ("vertex", 0, """\
# input vertex.graph sha256=46583fc97562aa8c34ade5656b42d6aa8aaeb0c5dd49c980c0f57906e2032a21
hypotheses: girth=inf planar=true OK
rg=-1/2 betti1=0 trace_sum=-1/2 OK
trace: vertex.trace.json (1 steps)
""", "d90915e68d9fb2eccaa0969f9044f41ce823fcbeaeb2bd47a4a462dd7ad201a8"),
    ("edge", 0, """\
# input edge.graph sha256=f46520e02dc4a9e0f7d4d75ca42cd5523eb752160ecdd180025d0e1131e46d38
hypotheses: girth=inf planar=true OK
rg=-1/10 betti1=0 trace_sum=-1/10 OK
trace: edge.trace.json (2 steps)
""", "8e2c5a9a51c8b0bcb68b40414e2a9ab241f9fba92d20dd602f60a47f3b2adb28"),
    ("square", 3, """\
# input square.graph sha256=37115cd3303aa8bdaa04c9eb99c08e02dcb12c50c3194499eb6d3edff33e5f7f
hypothesis failed: girth(4) < 6; nonplanar=false
""", None),
]


class TestGoldenCoxeter:
    @pytest.mark.parametrize("name,exit_code,expected,trace_sha256", GOLDEN_COXETER,
                             ids=[c[0] for c in GOLDEN_COXETER])
    def test_output_unchanged(self, name, exit_code, expected, trace_sha256,
                              tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for file_name, text in GOLDEN_COXETER_GRAPHS.items():
            (tmp_path / file_name).write_text(text)
        command = f"coxeter {name}.graph --trace {name}.trace.json"
        code, out = run_cli(command.split(), capsys)
        assert code == exit_code
        assert out == f"# rgcost --no-timestamp {command}\n{expected}"
        trace = tmp_path / f"{name}.trace.json"
        if trace_sha256 is None:
            assert not trace.exists()
        else:
            assert hashlib.sha256(trace.read_bytes()).hexdigest() == trace_sha256


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
        path.write_text(hex_grid_text(4, 6))
        code, out = run_cli(["coxeter", str(path), "--trace", str(tmp_path / "t.json")],
                            capsys)
        assert code == 0 and "hypotheses: girth=6 planar=true OK" in out
        assert len(spies["girth"]) == 1
        assert spies["planar"] == [35]

    def test_expr_with_coxeter_leaves(self, spies, tmp_path, capsys):
        (tmp_path / "hex.graph").write_text(hex_grid_text(4, 6))
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
        (tmp_path / "hex.graph").write_text(hex_grid_text(4, 6))
        expr = tmp_path / "e.expr"
        expr.write_text('(amalgam-finite (coxeter "hex.graph") (coxeter "hex.graph") 2)\n')
        code, out = run_cli(["expr", str(expr)], capsys)
        assert code == 0 and "coxeter-planar-girth6" in out
        assert len(parsed) == 1 and len(spies["girth"]) == 1 and spies["planar"] == [35]
        inputs = [line for line in out.split("\n") if line.startswith("# input")]
        assert len(inputs) == 2 and inputs[1].startswith(f"# input {tmp_path / 'hex.graph'} ")


class TestDeterminism:
    def test_byte_identical_across_processes(self, tmp_path):
        path = tmp_path / "b4.graph"
        path.write_text(B4_GRAPH)
        outs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            proc = subprocess.run(
                [sys.executable, "-m", "rgcost.cli", "--no-timestamp",
                 "artin", str(path)],
                capture_output=True, text=True, env=env, check=True)
            outs.append(proc.stdout)
        assert outs[0] == outs[1]

    def test_commands_run_without_networkx(self, tmp_path):
        """`coxeter` on a honeycomb and `expr` with a `coxeter` leaf print
        the same report when networkx cannot be imported."""
        (tmp_path / "hex.graph").write_text(hex_grid_text(4, 6))
        (tmp_path / "e.expr").write_text('(amalgam-finite (coxeter "hex.graph") (cyclic 4) 2)\n')
        outs = []
        for block in ("", "sys.modules['networkx'] = None; "):
            code = f"import sys; {block}from rgcost.cli import entry; entry()"
            runs = [subprocess.run([sys.executable, "-c", code, "--no-timestamp", command,
                                    str(tmp_path / name)], capture_output=True, text=True)
                    for command, name in (("coxeter", "hex.graph"), ("expr", "e.expr"))]
            assert [(p.returncode, p.stderr) for p in runs] == [(0, "")] * 2
            outs.append([p.stdout for p in runs])
        assert outs[0] == outs[1]
        assert "hypotheses: girth=6 planar=true OK" in outs[1][0]
        assert "coxeter-planar-girth6" in outs[1][1]

    def test_verify_deterministic(self, capsys):
        _, out1 = run_cli(["verify", "PSL2Z", "--mod", "3,5"], capsys)
        _, out2 = run_cli(["verify", "PSL2Z", "--mod", "3,5"], capsys)
        assert out1 == out2

    def test_timestamp_only_difference(self, tmp_path, capsys):
        path = tmp_path / "b4.graph"
        path.write_text(B4_GRAPH)
        code1 = main(["artin", str(path)])
        out1 = capsys.readouterr().out
        code2 = main(["--no-timestamp", "artin", str(path)])
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert any(l.startswith("# generated") for l in out1.split("\n"))
        results1 = [l for l in out1.split("\n") if not l.startswith("#")]
        results2 = [l for l in out2.split("\n") if not l.startswith("#")]
        assert results1 == results2
