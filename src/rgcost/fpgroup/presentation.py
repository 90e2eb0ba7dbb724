"""Group presentations and words.

A word is a tuple of nonzero signed 1-based generator indices (+i for the
i-th generator, -i for its inverse), always stored freely reduced.  The
text format follows the package's presentation files:

    gens: a b
    rel: a b a B A B          # uppercase = inverse, '#' starts a comment

Generator names must be distinct and must stay distinct after swapping
case, since the inverse token of a name is its swapcase.
"""

from __future__ import annotations

from operator import neg

from ..lgraph import LabelledGraph

Word = tuple[int, ...]


class PresentationError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def free_reduce(letters) -> Word:
    out: list[int] = []
    for x in letters:
        if x == 0:
            raise ValueError("word letters must be nonzero")
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def invert_word(word) -> Word:
    return tuple(map(neg, reversed(word)))


def cyclic_reduce(word) -> Word:
    w = free_reduce(word)
    n, k = len(w), 0
    while n - 2 * k >= 2 and w[k] == -w[n - 1 - k]:
        k += 1
    return w[k:n - k]


def _generator_index(gens) -> dict[str, int]:
    """Each generator name to its 1-based index; raises PresentationError
    on an invalid name or one that collides under case swap."""
    index: dict[str, int] = {}
    for name in gens:
        if not name or not name[0].isalpha():
            raise PresentationError(f"invalid generator name {name!r}")
        if name in index or name.swapcase() in index:
            raise PresentationError(f"generator name {name!r} collides under case swap")
        index[name] = len(index) + 1
    return index


class Presentation:
    """Finitely presented group: ordered generators plus relator words."""

    def __init__(self, generators, relators):
        gens = tuple(generators)
        _generator_index(gens)
        rels = []
        for rel in relators:
            word = free_reduce(rel)
            for x in word:
                if not 1 <= abs(x) <= len(gens):
                    raise PresentationError(f"relator letter {x} out of range")
            if word:
                rels.append(word)
        self.generators = gens
        self.relators = tuple(rels)

    @property
    def num_generators(self) -> int:
        return len(self.generators)

    def word_to_text(self, word) -> str:
        out = []
        for x in word:
            name = self.generators[abs(x) - 1]
            out.append(name if x > 0 else name.swapcase())
        return " ".join(out)

    def to_text(self) -> str:
        lines = ["gens: " + " ".join(self.generators)]
        for rel in self.relators:
            lines.append("rel: " + self.word_to_text(rel))
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return f"Presentation({len(self.generators)} generators, {len(self.relators)} relators)"


def parse_presentation(text: str) -> Presentation:
    gens: list[str] | None = None
    relator_tokens: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("gens:"):
            if gens is not None:
                raise PresentationError("duplicate gens: line", lineno)
            gens = line[len("gens:"):].split()
            if not gens:
                raise PresentationError("gens: line declares no generators", lineno)
        elif line.startswith("rel:"):
            if gens is None:
                raise PresentationError("rel: before gens:", lineno)
            relator_tokens.append((lineno, line[len("rel:"):].split()))
        else:
            raise PresentationError(f"malformed line {line!r}", lineno)
    if gens is None:
        raise PresentationError("missing gens: line")
    index = _generator_index(gens)
    relators = []
    for line, tokens in relator_tokens:
        letters = []
        for tok in tokens:
            if tok in index:
                letters.append(index[tok])
            elif tok.swapcase() in index:
                letters.append(-index[tok.swapcase()])
            else:
                raise PresentationError(f"unknown generator token {tok!r}", line)
        relators.append(letters)
    return Presentation(gens, relators)


def _alternating(a: int, b: int, length: int) -> list[int]:
    return [a if k % 2 == 0 else b for k in range(length)]


def artin_presentation(g: LabelledGraph) -> Presentation:
    """One generator per vertex; per edge labelled n the relator equating
    the two alternating products of length n in the endpoint generators."""
    index = {v: i + 1 for i, v in enumerate(g.vertices)}
    relators = []
    for u, v, lab in g.edges():
        a, b = index[u], index[v]
        relators.append(_alternating(a, b, lab) + [-x for x in reversed(_alternating(b, a, lab))])
    return Presentation(g.vertices, relators)
