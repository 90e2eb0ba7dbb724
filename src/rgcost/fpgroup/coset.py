"""Complete coset tables and their canonical form.

A table has one row per coset and columns alternating generator /
inverse; coset 0 is the subgroup itself.  Tables are standardized by
breadth-first renumbering from coset 0, so equal subgroups always give
byte-identical tables.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..numread import LimitExceeded
from .presentation import Presentation


class EnumerationLimit(LimitExceeded):
    """A coset limit was reached; explicitly inconclusive (this is never a
    proof that the index is infinite).  `what` names what `count` counted."""

    def __init__(self, count: int, limit: int, what: str):
        super().__init__(f"coset limit exceeded: {count} {what} (limit {limit})")
        self.count = count
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

    @property
    def index(self) -> int:
        return len(self.rows)

    def trace(self, coset: int, word) -> int:
        for x in word:
            coset = self.rows[coset][letter_to_col(x)]
        return coset

    def validate(self, pres: Presentation) -> None:
        """Assert completeness, inverse consistency, transitivity, and that
        all relators trace to the identity everywhere."""
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
