"""Todd-Coxeter coset enumeration, relator-based (HLT) with lookahead.

The scan/define/coincidence machinery follows the classical description in
Holt, Eick, O'Brien, "Handbook of Computational Group Theory", ch. 5.
Enumeration is deterministic: cosets are processed in increasing order,
relators in declaration order, and the finished table is standardized by
breadth-first renumbering from the subgroup coset, so equal inputs always
produce byte-identical tables.
"""

from __future__ import annotations

from dataclasses import dataclass

from .presentation import Presentation, Word, free_reduce


class EnumerationLimit(RuntimeError):
    """The live-coset limit was reached; explicitly inconclusive (this is
    never a proof that the index is infinite)."""

    def __init__(self, live: int, limit: int, what: str = "live cosets"):
        super().__init__(f"coset limit exceeded: {live} {what} (limit {limit})")
        self.live = live
        self.limit = limit


def letter_to_col(x: int) -> int:
    return 2 * (x - 1) if x > 0 else 2 * (-x - 1) + 1


def inv_col(col: int) -> int:
    return col ^ 1


def word_to_cols(word) -> tuple[int, ...]:
    return tuple(letter_to_col(x) for x in word)


@dataclass(frozen=True)
class CosetTable:
    """Complete coset table: one row per coset, columns alternating
    generator / inverse; coset 0 is the subgroup itself."""

    generators: tuple[str, ...]
    rows: tuple[tuple[int, ...], ...]
    subgroup_words: tuple[Word, ...] = ()

    @property
    def index(self) -> int:
        return len(self.rows)

    def act(self, coset: int, letter: int) -> int:
        return self.rows[coset][letter_to_col(letter)]

    def trace(self, coset: int, word) -> int:
        for x in word:
            coset = self.rows[coset][letter_to_col(x)]
        return coset

    def perm(self, gen: int) -> tuple[int, ...]:
        """Permutation of cosets induced by the 1-based generator."""
        col = letter_to_col(gen)
        return tuple(row[col] for row in self.rows)

    def validate(self, pres: Presentation) -> None:
        """Assert completeness, inverse consistency, transitivity, that all
        relators trace to the identity everywhere, and that the subgroup
        words fix the subgroup coset."""
        n = len(self.rows)
        ncols = 2 * len(self.generators)
        for i, row in enumerate(self.rows):
            if len(row) != ncols:
                raise ValueError(f"row {i} has {len(row)} columns, expected {ncols}")
            for col, entry in enumerate(row):
                if not isinstance(entry, int) or not 0 <= entry < n:
                    raise ValueError(f"row {i} col {col}: bad entry {entry!r}")
                if self.rows[entry][inv_col(col)] != i:
                    raise ValueError(f"inverse columns inconsistent at ({i}, {col})")
        seen = {0}
        queue = [0]
        while queue:
            a = queue.pop()
            for col in range(ncols):
                b = self.rows[a][col]
                if b not in seen:
                    seen.add(b)
                    queue.append(b)
        if len(seen) != n:
            raise ValueError("coset action is not transitive")
        for rel in pres.relators:
            for a in range(n):
                if self.trace(a, rel) != a:
                    raise ValueError(
                        f"relator {pres.word_to_text(rel)} does not fix coset {a}"
                    )
        for w in self.subgroup_words:
            if self.trace(0, w) != 0:
                raise ValueError("subgroup generator word moves the subgroup coset")


def standardize_rows(rows: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    """Renumber cosets in breadth-first discovery order from coset 0.

    This is the canonical form used for byte-identical output and for
    duplicate elimination across enumerations.
    """
    n = len(rows)
    ncols = len(rows[0]) if rows else 0
    new_of_old = {0: 0}
    order = [0]
    for a in order:
        for col in range(ncols):
            b = rows[a][col]
            if b not in new_of_old:
                new_of_old[b] = len(new_of_old)
                order.append(b)
    if len(new_of_old) != n:
        raise ValueError("table is not transitive; cannot standardize")
    out = [[0] * ncols for _ in range(n)]
    for a in range(n):
        for col in range(ncols):
            out[new_of_old[a]][col] = new_of_old[rows[a][col]]
    return tuple(tuple(r) for r in out)


class _LimitHit(Exception):
    pass


class _Enumerator:
    def __init__(self, pres: Presentation, subgroup_cols, coset_limit: int):
        self.pres = pres
        self.ncols = 2 * pres.num_generators
        self.relator_cols = [word_to_cols(r) for r in pres.relators]
        self.subgroup_cols = list(subgroup_cols)
        self.limit = coset_limit
        self.table: list[list[int | None]] = [[None] * self.ncols]
        self.p = [0]
        self.live = 1

    # -- union-find ---------------------------------------------------

    def rep(self, k: int) -> int:
        l = k
        p = self.p
        while p[l] != l:
            l = p[l]
        while k != l:
            p[k], k = l, p[k]
        return l

    def _merge(self, k: int, l: int, queue: list[int]) -> None:
        k, l = self.rep(k), self.rep(l)
        if k != l:
            mu, nu = min(k, l), max(k, l)
            self.p[nu] = mu
            self.live -= 1
            queue.append(nu)

    def coincidence(self, a: int, b: int) -> None:
        queue: list[int] = []
        self._merge(a, b, queue)
        i = 0
        while i < len(queue):
            gamma = queue[i]
            i += 1
            for col in range(self.ncols):
                delta = self.table[gamma][col]
                if delta is None:
                    continue
                self.table[delta][inv_col(col)] = None
                mu, nu = self.rep(gamma), self.rep(delta)
                if self.table[mu][col] is not None:
                    self._merge(nu, self.table[mu][col], queue)
                elif self.table[nu][inv_col(col)] is not None:
                    self._merge(mu, self.table[nu][inv_col(col)], queue)
                else:
                    self.table[mu][col] = nu
                    self.table[nu][inv_col(col)] = mu

    # -- definitions and scanning --------------------------------------

    def define(self, alpha: int, col: int) -> None:
        if self.live >= self.limit:
            raise _LimitHit
        beta = len(self.table)
        self.table.append([None] * self.ncols)
        self.p.append(beta)
        self.live += 1
        self.table[alpha][col] = beta
        self.table[beta][inv_col(col)] = alpha

    def scan(self, alpha: int, cols, fill: bool) -> None:
        table = self.table
        f, i = alpha, 0
        b, j = alpha, len(cols) - 1
        while True:
            while i <= j and table[f][cols[i]] is not None:
                f = table[f][cols[i]]
                i += 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return
            while j >= i and table[b][inv_col(cols[j])] is not None:
                b = table[b][inv_col(cols[j])]
                j -= 1
            if j < i:
                self.coincidence(f, b)
                return
            if j == i:
                # deduction closing the gap
                table[f][cols[i]] = b
                table[b][inv_col(cols[i])] = f
                return
            if not fill:
                return
            self.define(f, cols[i])

    def lookahead(self) -> None:
        for alpha in range(len(self.table)):
            if self.p[alpha] != alpha:
                continue
            for cols in self.relator_cols:
                if self.p[alpha] != alpha:
                    break
                self.scan(alpha, cols, fill=False)

    # -- main loop ------------------------------------------------------

    def run(self) -> list[list[int]]:
        for cols in self.subgroup_cols:
            self._guarded(0, cols)
        alpha = 0
        while alpha < len(self.table):
            if self.p[alpha] != alpha:
                alpha += 1
                continue
            try:
                for cols in self.relator_cols:
                    if self.p[alpha] != alpha:
                        break
                    self.scan(alpha, cols, fill=True)
                if self.p[alpha] == alpha:
                    for col in range(self.ncols):
                        if self.table[alpha][col] is None:
                            self.define(alpha, col)
                alpha += 1
            except _LimitHit:
                before = self.live
                self.lookahead()
                if self.live >= self.limit or self.live >= before:
                    raise EnumerationLimit(self.live, self.limit) from None
                # retry the same coset after the lookahead freed space
        return self._compressed()

    def _guarded(self, alpha: int, cols) -> None:
        while True:
            try:
                self.scan(alpha, cols, fill=True)
                return
            except _LimitHit:
                before = self.live
                self.lookahead()
                if self.live >= self.limit or self.live >= before:
                    raise EnumerationLimit(self.live, self.limit) from None

    def _compressed(self) -> list[list[int]]:
        live = [k for k in range(len(self.table)) if self.p[k] == k]
        new_of_old = {old: new for new, old in enumerate(live)}
        rows = []
        for old in live:
            row = []
            for col in range(self.ncols):
                entry = self.table[old][col]
                if entry is None:
                    raise RuntimeError("internal error: incomplete table after enumeration")
                row.append(new_of_old[self.rep(entry)])
            rows.append(row)
        return rows


def todd_coxeter(pres: Presentation, subgroup=(), coset_limit: int = 100_000) -> CosetTable:
    """Enumerate the cosets of the subgroup generated by the given words.

    Returns the standardized complete table, or raises EnumerationLimit
    (inconclusive) when more than coset_limit live cosets would be needed.
    Subgroup generators may be words (tuples of signed indices) or strings
    in the presentation's token format.
    """
    if coset_limit < 1:
        raise ValueError("coset_limit must be >= 1")
    words = []
    for w in subgroup:
        if isinstance(w, str):
            w = pres.word_from_text(w)
        else:
            w = free_reduce(w)
        for x in w:
            if not 1 <= abs(x) <= pres.num_generators:
                raise ValueError(f"subgroup word letter {x} out of range")
        words.append(w)
    enum = _Enumerator(pres, [word_to_cols(w) for w in words], coset_limit)
    rows = enum.run()
    table = CosetTable(
        generators=pres.generators,
        rows=standardize_rows(rows),
        subgroup_words=tuple(words),
    )
    table.validate(pres)
    return table
