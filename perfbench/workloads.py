"""Workload inputs, operations and oracles.

Every operation drives a public entry point: ``rgcost.cli.main`` in
process, or the certificate API for the read side.  Each carries an oracle
that does not call the code under test: congruence indices come from
|SL(2,Z/n)| = n^3 prod(1 - 1/p^2), symbolic answers from the paper's
formulas evaluated here, and the braid chains from a closed form where one
is known and rows recorded at the seed commit otherwise; a chain's d_upper
is only held to the seed's value as a ceiling.  Rule-trace lines and
certificate JSON are never compared byte for byte.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable


@dataclass
class Op:
    """One timed operation: ``run`` is timed, ``check`` (the oracle) is
    not.  ``check`` returns None when the output is right, else a reason."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass
class Workload:
    writes: list[Op]
    reads: list[Op]
    probes: list[Op]
    outputs: list[str]

    def pass_order(self, rng: random.Random) -> list[Op]:
        """Writes in a seeded order, then the reads of what they wrote."""
        writes, reads = self.writes[:], self.reads[:]
        rng.shuffle(writes)
        rng.shuffle(reads)
        return writes + reads

    def clear_outputs(self) -> None:
        """Remove last pass's files so a read never sees a stale one."""
        for path in self.outputs:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)


def cli(*argv: str) -> tuple[int, str]:
    """Run ``rgcost --no-timestamp <argv>`` in process; (exit code, stdout).

    ``main`` is looked up on the module at every call, so a traced pass
    goes through the tracer's wrapper.
    """
    import rgcost.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = rgcost.cli.main(["--no-timestamp", *argv])
    return code, buf.getvalue()


def _line(out: str, prefix: str) -> str | None:
    return next((ln for ln in out.splitlines() if ln.startswith(prefix)), None)


def _csv_rows(out: str) -> list[tuple[int, int, int, Fraction, Fraction]]:
    lines = out.splitlines()
    start = lines.index("index,d_lower,d_upper,r_lower,r_upper") + 1
    rows = []
    for ln in lines[start:]:
        if ln.startswith("trend:"):
            break
        i, lo, hi, rlo, rhi = ln.split(",")
        rows.append((int(i), int(lo), int(hi), Fraction(rlo), Fraction(rhi)))
    return rows


def _expect_code_zero(result) -> str | None:
    code, _ = result
    return None if code == 0 else f"exit code {code}"


# ---------------------------------------------------------------------------
# congruence


def _primes_dividing(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def sl2_order(n: int) -> int:
    """|SL(2, Z/n)| = n^3 prod over primes p | n of (1 - 1/p^2)."""
    order = Fraction(n ** 3)
    for p in _primes_dividing(n):
        order *= 1 - Fraction(1, p * p)
    return int(order)


def psl2_order(n: int) -> int:
    """|PSL(2, Z/n)|: -1 is a distinct central element exactly when n > 2."""
    return sl2_order(n) // 2 if n > 2 else sl2_order(n)


def _congruence_op(target: str, levels, order, rg: Fraction) -> Op:
    def check(result):
        err = _expect_code_zero(result)
        if err:
            return err
        out = result[1]
        rows = _csv_rows(out)
        want = [order(n) for n in levels]
        if [r[0] for r in rows] != want:
            return f"indices {[r[0] for r in rows]} != |image group| {want}"
        for i, lo, hi, rlo, rhi in rows:
            d = i * rg + 1
            if not lo == hi == d or not rlo == rhi == rg:
                return f"index {i}: d in [{lo}, {hi}], expected index*rg + 1 = {d}"
        if _line(out, f"matches symbolic {rg}") is None:
            return f"no 'matches symbolic {rg}' line"
        return None

    levels_text = ",".join(map(str, levels))
    return Op(f"verify {target} --mod {levels_text}",
              lambda: cli("verify", target, "--mod", levels_text), check)


def congruence(rng: random.Random, work: str) -> Workload:
    """Virtually free targets: many short Reidemeister-Schreier relators,
    so SNF, then Tietze, carry the time."""
    return Workload(
        writes=[
            _congruence_op("SL2Z", (3, 4, 5, 6, 7), sl2_order, Fraction(1, 12)),
            _congruence_op("PSL2Z", (3, 4, 5, 6, 7, 8), psl2_order, Fraction(1, 6)),
        ],
        reads=[], probes=[], outputs=[],
    )


# ---------------------------------------------------------------------------
# braid chains


def braid3_kernel_d_lower(k: int) -> int:
    """Minimal generators of H1 of ker(B3 -> Z/k).

    B3 = F2 x| Z with the trefoil monodromy M (characteristic polynomial
    t^2 - t + 1, order 6) acting on H1(F2) = Z^2, so H1 of the kernel is
    Z + coker(M^k - I).  Counted from the 2x2 Smith form: gcd of entries
    d1, and d1*d2 = |det|.
    """
    m = [[1, 0], [0, 1]]
    step = [[0, -1], [1, 1]]
    for _ in range(k % 6):
        m = [[sum(m[i][t] * step[t][j] for t in range(2)) for j in range(2)]
             for i in range(2)]
    a = [[m[0][0] - 1, m[0][1]], [m[1][0], m[1][1] - 1]]
    det = abs(a[0][0] * a[1][1] - a[0][1] * a[1][0])
    g = math.gcd(a[0][0], a[0][1], a[1][0], a[1][1])
    if g == 0:
        return 3  # coker = Z^2
    factors = [g, det // g] if det else [g, 0]
    return 1 + sum(1 for d in factors if d != 1)


# (index, d_lower, d_upper) per sample.  index and d_lower are answers and
# must match exactly; d_upper is only what Tietze simplification leaves, so
# the seed's value is a ceiling, not an answer.  braid3's d_lower comes from
# the closed form above; the other rows were recorded at the seed commit.
BRAID_ABELIAN_ROWS = {
    ("braid5", (2, 4, 8, 16, 32)): [
        (2, 4, 4), (4, 4, 6), (8, 4, 7), (16, 4, 7), (32, 4, 7)],
    ("braid3", (32, 64, 128, 256)): [
        (k, braid3_kernel_d_lower(k), 3) for k in (32, 64, 128, 256)],
}

LOW_INDEX_ROWS = {
    ("braid3", 14): [
        (1, 1, 2), (2, 2, 2), (3, 3, 3), (4, 2, 2), (5, 1, 3), (6, 3, 3),
        (6, 3, 3), (7, 1, 3), (8, 2, 3), (9, 3, 3), (10, 2, 3), (11, 1, 3),
        (12, 3, 3), (12, 4, 4), (12, 3, 3), (13, 1, 3), (14, 2, 3)],
}


def _braid_chain_check(golden):
    """index and d_lower equal the seed rows, d_lower <= d_upper <= the
    seed's d_upper, r = (d - 1)/index, and the symbolic target is 0.

    Rows are compared in (index, d_lower) order, so a search that finds
    subgroups of equal index in another order still passes.
    """
    want = sorted(golden, key=lambda r: r[:2])

    def check(result):
        err = _expect_code_zero(result)
        if err:
            return err
        out = result[1]
        rows = sorted(_csv_rows(out), key=lambda r: r[:2])
        if [r[:2] for r in rows] != [w[:2] for w in want]:
            return (f"(index, d_lower) rows {[r[:2] for r in rows]} differ from "
                    f"{[w[:2] for w in want]}")
        for (i, lo, hi, rlo, rhi), (_, _, ceiling) in zip(rows, want):
            if not lo <= hi <= ceiling:
                return f"index {i}: d_upper {hi} outside [{lo}, {ceiling}]"
            if rlo != Fraction(lo - 1, i) or rhi != Fraction(hi - 1, i):
                return f"index {i}: r values disagree with (d-1)/index"
        if _line(out, "symbolic target 0") is None and _line(out, "matches symbolic 0") is None:
            return "symbolic target is not 0"
        return None

    return check


def braid_abelian(rng: random.Random, work: str) -> Workload:
    """Few, long relators: Tietze carries the time and SNF is small."""
    ops = []
    for (target, ks), golden in BRAID_ABELIAN_ROWS.items():
        ks_text = ",".join(map(str, ks))
        ops.append(Op(f"verify {target} --abelian-kill {ks_text}",
                      lambda t=target, k=ks_text: cli("verify", t, "--abelian-kill", k),
                      _braid_chain_check(golden)))
    return Workload(writes=ops, reads=[], probes=[], outputs=[])


def low_index(rng: random.Random, work: str) -> Workload:
    """Backtracking search carries the time; rewrite and SNF are tiny."""
    ops = []
    for (target, n), golden in LOW_INDEX_ROWS.items():
        ops.append(Op(f"verify {target} --low-index {n}",
                      lambda t=target, n=n: cli("verify", t, "--low-index", str(n)),
                      _braid_chain_check(golden)))
    return Workload(writes=ops, reads=[], probes=[], outputs=[])


# ---------------------------------------------------------------------------
# symbolic


# The random graph's shape is drawn once from this fixed seed; ``--seed``
# draws its vertex names and edge labels, so every seed gives the same
# cut-vertex structure and certificate size.
RANDOM200_SHAPE_SEED = 200600


def _names(rng: random.Random, n: int) -> list[str]:
    """n distinct fixed-width vertex names in a seeded order."""
    ids = list(range(n))
    rng.shuffle(ids)
    return [f"v{i:04d}" for i in ids]


def _write_graph(path: str, vertices, edges) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for v in vertices:
            fh.write(f"vertex {v}\n")
        for u, v, lab in edges:
            fh.write(f"edge {u} {v} {lab}\n")


def _random_connected(rng: random.Random, n: int, m: int):
    """Random recursive spanning tree plus uniformly random extra edges."""
    pairs = {(rng.randrange(i), i) for i in range(1, n)}
    while len(pairs) < m:
        a, b = sorted(rng.sample(range(n), 2))
        pairs.add((a, b))
    return sorted(pairs)


def _component_count(n: int, pairs) -> int:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        parent[find(a)] = find(b)
    return len({find(x) for x in range(n)})


def _hex_grid(rng: random.Random, rows: int, cols: int):
    """Brick-wall drawing of the honeycomb: planar with girth 6."""
    names = _names(rng, (rows + 1) * (cols + 1))

    def at(i, j):
        return names[i * (cols + 1) + j]

    edges = []
    for i in range(rows + 1):
        for j in range(cols + 1):
            if j < cols:
                edges.append((at(i, j), at(i, j + 1), rng.randint(2, 6)))
            if i < rows and (i + j) % 2 == 0:
                edges.append((at(i, j), at(i + 1, j), rng.randint(2, 6)))
    return names, edges


def coxeter_gradient(num_vertices: int, labels) -> Fraction:
    """Planar girth >= 6: rg = betti1 = |V|/2 - 1 - sum 1/(2*label)."""
    return Fraction(num_vertices, 2) - 1 - sum(Fraction(1, 2 * lab) for lab in labels)


def _amalgam_nest(rng: random.Random, depth: int) -> tuple[str, Fraction, Fraction]:
    """Left-nested amalgams of cyclic groups over proper cyclic subgroups.

    Returns the expression text with its cost and betti1 from the
    amalgam sum formulas: cost(A *_C B) = cost(A) + cost(B) - (1 - 1/|C|),
    and, over a finite C, betti1 = b(A) - 1/|A| + b(B) - 1/|B| + 1/|C|.
    """
    def factor():
        n = rng.choice((4, 6))
        return n, rng.choice((2,) if n == 4 else (2, 3))

    a, _ = factor()
    b, m = factor()
    text = f"(amalgam-finite (cyclic {a}) (cyclic {b}) {m})"
    cost = (1 - Fraction(1, a)) + (1 - Fraction(1, b)) - (1 - Fraction(1, m))
    betti = -Fraction(1, a) - Fraction(1, b) + Fraction(1, m)
    for _ in range(depth - 1):
        n, m = factor()
        text = f"(amalgam-finite {text} (cyclic {n}) {m})"
        cost += (1 - Fraction(1, n)) - (1 - Fraction(1, m))
        betti += -Fraction(1, n) + Fraction(1, m)  # the nest is infinite: 1/|A| = 0
    return text + "\n", cost, betti


def _expr_check(cost: Fraction, betti: Fraction):
    want = f"cost={cost} rg={cost - 1} betti1={betti} fixed_price=true"

    def check(result):
        err = _expect_code_zero(result)
        if err:
            return err
        got = _line(result[1], "cost=")
        return None if got == want else f"got {got!r}, expected {want!r}"

    return check


def _certify_check(cost: int):
    def check(result):
        err = _expect_code_zero(result)
        if err:
            return err
        got = _line(result[1], "valid=")
        return None if got == f"valid=true assumptions=0 cost={cost}" else f"got {got!r}"

    return check


def _artin_check(components: int):
    want = f"components={components} cost={components} rg={components - 1} betti1={components - 1}"

    def check(result):
        err = _expect_code_zero(result)
        if err:
            return err
        out = result[1]
        if _line(out, "components=") != want:
            return f"got {_line(out, 'components=')!r}, expected {want!r}"
        cert = _line(out, "certificate:")
        if cert is None or not cert.endswith("(assumptions=0, valid)"):
            return f"certificate line {cert!r}"
        return None

    return check


def _read_op(path: str, num_vertices: int, cost: int) -> Op:
    """Read side: parse and check a certificate the write side produced."""
    def run():
        import rgcost.certificate as cert

        with open(path, encoding="utf-8") as fh:
            parsed = cert.certificate_from_json(fh.read())
        return parsed, cert.check_certificate(parsed)

    def check(result):
        parsed, report = result
        if not report.valid:
            return f"checker violations: {report.violations[:3]}"
        if report.assumptions:
            return f"unexpected assumptions {report.assumptions}"
        if parsed.root.cost != cost:
            return f"root cost {parsed.root.cost} != {cost}"
        if parsed.graph is None or parsed.graph.num_vertices != num_vertices:
            return "certificate graph does not match the input"
        return None

    return Op(f"read {os.path.basename(path)}", run, check)


def _artin_api_probe(n: int, labels) -> Op:
    """rg_artin + check_certificate through the API on an n-vertex path."""
    def run():
        from rgcost import certificate as cert
        from rgcost.lgraph import LabelledGraph

        vs = [f"v{i:04d}" for i in range(n)]
        g = LabelledGraph(vs, [(vs[i], vs[i + 1], labels[i]) for i in range(n - 1)])
        price, certificate = cert.rg_artin(g)
        return price, cert.check_certificate(certificate)

    def check(result):
        price, report = result
        if price.cost != 1 or not report.valid:
            return f"cost {price.cost}, valid={report.valid}"
        return None

    return Op(f"probe rg_artin path-{n}", run, check)


def symbolic(rng: random.Random, work: str) -> Workload:
    """Write side through the CLI, read side through the certificate API."""
    join = lambda name: os.path.join(work, name)  # noqa: E731

    vs = _names(rng, 200)
    _write_graph(join("cycle200.graph"), vs,
                 [(vs[i], vs[(i + 1) % 200], rng.randint(2, 7)) for i in range(200)])
    vs = _names(rng, 300)
    _write_graph(join("path300.graph"), vs,
                 [(vs[i], vs[i + 1], rng.randint(2, 7)) for i in range(299)])
    vs = _names(rng, 200)
    pairs = _random_connected(random.Random(RANDOM200_SHAPE_SEED), 200, 600)
    _write_graph(join("random200.graph"), vs,
                 [(vs[a], vs[b], rng.randint(2, 7)) for a, b in pairs])
    hex_vs, hex_edges = _hex_grid(rng, 14, 22)
    _write_graph(join("hex.graph"), hex_vs, hex_edges)
    rg_hex = coxeter_gradient(len(hex_vs), [lab for _, _, lab in hex_edges])
    text, nest_cost, nest_betti = _amalgam_nest(rng, 300)
    with open(join("nest300.expr"), "w", encoding="utf-8") as fh:
        fh.write(text)
    text, deep_cost, deep_betti = _amalgam_nest(rng, 800)
    with open(join("nest800.expr"), "w", encoding="utf-8") as fh:
        fh.write(text)
    probe_labels = [rng.randint(2, 7) for _ in range(799)]

    def coxeter_check(result):
        err = _expect_code_zero(result)
        if err:
            return err
        out = result[1]
        want = f"rg={rg_hex} betti1={rg_hex} trace_sum={rg_hex} OK"
        if _line(out, "hypotheses:") != "hypotheses: girth=6 planar=true OK":
            return f"hypotheses line {_line(out, 'hypotheses:')!r}"
        return None if _line(out, "rg=") == want else f"got {_line(out, 'rg=')!r}, expected {want!r}"

    certs = {name: join(name + ".cert.json") for name in ("cycle200", "path300", "random200")}
    writes = [
        Op("certify cycle200", lambda: cli("certify", join("cycle200.graph"),
                                           "--out", certs["cycle200"]), _certify_check(1)),
        Op("certify path300", lambda: cli("certify", join("path300.graph"),
                                          "--out", certs["path300"]), _certify_check(1)),
        Op("artin --certify random200",
           lambda: cli("artin", join("random200.graph"), "--certify", certs["random200"]),
           _artin_check(_component_count(200, pairs))),
        Op("expr nest300", lambda: cli("expr", join("nest300.expr")),
           _expr_check(nest_cost, nest_betti)),
        Op("coxeter hex", lambda: cli("coxeter", join("hex.graph")), coxeter_check),
    ]
    reads = [
        _read_op(certs["cycle200"], 200, 1),
        _read_op(certs["path300"], 300, 1),
        _read_op(certs["random200"], 200, 1),
    ]
    probes = [
        _artin_api_probe(800, probe_labels),
        Op("probe expr nest800", lambda: cli("expr", join("nest800.expr")),
           _expr_check(deep_cost, deep_betti)),
    ]
    return Workload(writes, reads, probes, outputs=list(certs.values()))


WORKLOADS = {
    "congruence": congruence,
    "braid-abelian": braid_abelian,
    "low-index": low_index,
    "symbolic": symbolic,
}

COLD_START_EXPR = "(amalgam-finite (cyclic 6) (cyclic 4) 2)\n"
COLD_START_LINE = "cost=13/12 rg=1/12 betti1=1/12 fixed_price=true"
