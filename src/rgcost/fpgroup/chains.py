"""Kernel coset tables from finite quotients, and gradient sampling.

Given the regular action of a finite quotient as permutation images of the
generators, the kernel of the induced homomorphism has coset table equal
to the Schreier graph of point 0 under that action.  Sampling a chain of
such kernels through Reidemeister-Schreier and the generator bounds yields
the (d-1)/index data that approaches the rank gradient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .coset import CosetTable, standardize_rows
from .lowindex import _has_translations
from .presentation import Presentation
from .rewrite import d_bounds, reidemeister_schreier

Perm = tuple[int, ...]


class NotHomomorphism(ValueError):
    """The declared images do not kill some relator."""

    def __init__(self, relator_text: str):
        super().__init__(f"images do not define a homomorphism: relator {relator_text} "
                         f"does not map to the identity")


@dataclass(frozen=True)
class RGSample:
    """One gradient sample: (d(H)-1)/[G:H] bracketed by the d bounds."""

    index: int
    d_lower: int
    d_upper: int

    def __post_init__(self):
        if self.d_lower > self.d_upper:
            raise ValueError(f"d_lower {self.d_lower} > d_upper {self.d_upper}")

    @property
    def r_lower(self) -> Fraction:
        return Fraction(self.d_lower - 1, self.index)

    @property
    def r_upper(self) -> Fraction:
        return Fraction(self.d_upper - 1, self.index)


def _compose(p: Perm, q: Perm) -> Perm:
    """Right-to-left: apply p first, then q."""
    return tuple(q[x] for x in p)


def _invert(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def cayley_table(pres: Presentation, images: dict[str, Perm]) -> CosetTable:
    """Coset table of the kernel of the map sending generators to the given
    permutations.

    The images must be the regular action of the quotient on itself, as
    every image builder below gives.  The kernel's table is then the
    Schreier graph of point 0: row a holds a.p and a.p^-1 for each
    generator image p.  Checks first that every relator maps to the
    identity permutation (NotHomomorphism otherwise); an action that is not
    transitive, or transitive but not regular, raises ValueError.
    Needs a generator, and images of exactly `pres.generators` that all
    permute one range(d), as the builders below give; the caller bounds d.
    """
    gen_perms = [images[name] for name in pres.generators]
    degree = len(gen_perms[0])
    identity = tuple(range(degree))
    inv_perms = [_invert(p) for p in gen_perms]

    for rel in pres.relators:
        img = identity
        for x in rel:
            img = _compose(img, gen_perms[x - 1] if x > 0 else inv_perms[-x - 1])
        if img != identity:
            raise NotHomomorphism(pres.word_to_text(rel))

    cols = [q for p, p_inv in zip(gen_perms, inv_perms) for q in (p, p_inv)]
    rows = standardize_rows([[q[a] for q in cols] for a in range(degree)])
    # A translation of a complete transitive table commutes with the action,
    # so the points reached by one are closed under every column once the
    # neighbours of 0 are: testing those proves the action regular.
    if not _has_translations(rows, set(rows[0]) - {0}):
        raise ValueError("images do not give a regular action, so the point-0 "
                         "table is not the kernel's")
    # Relators were proved on the permutations above and inverse columns
    # hold by construction, so CosetTable.validate would only repeat them.
    return CosetTable(generators=pres.generators, rows=rows)


def kernel_chain_cayley(pres: Presentation, image_levels) -> list[CosetTable]:
    """One kernel coset table per level of declared generator images, in
    the order given.  The caller bounds each level's degree."""
    return [cayley_table(pres, images) for images in image_levels]


def rg_sequence(pres: Presentation, tables) -> list[RGSample]:
    """Sample (d-1)/index along a list of complete coset tables, one row
    per table in the order given.  Each subgroup runs through
    Reidemeister-Schreier and the generator bounds.
    """
    samples = []
    for table in tables:
        sub = reidemeister_schreier(pres, table)
        lo, hi = d_bounds(sub)
        samples.append(RGSample(table.index, lo, hi))
    return samples


def trend_summary(samples) -> str:
    """The r_upper trend and the last interval, reading the samples in
    index order (a stable sort), not in the order listed.  Needs at least
    one sample."""
    chain = sorted(samples, key=lambda s: s.index)
    non_increasing = all(a.r_upper >= b.r_upper for a, b in zip(chain, chain[1:]))
    last = chain[-1]
    return (
        f"r_upper {'non-increasing' if non_increasing else 'not monotone'}; "
        f"final interval [{last.r_lower}, {last.r_upper}] at index {last.index}"
    )


CSV_HEADER = "index,d_lower,d_upper,r_lower,r_upper"


def samples_to_csv(samples) -> str:
    lines = [CSV_HEADER]
    for s in samples:
        lines.append(f"{s.index},{s.d_lower},{s.d_upper},{s.r_lower},{s.r_upper}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Image builders for the shipped presentations


def sl2_order(n: int, projective: bool = False) -> int:
    """|SL(2, Z/n)| = n^3 prod_{p | n} (1 - 1/p^2), computed without
    enumerating.  With projective, |PSL(2, Z/n)|: half of that when n > 2,
    where m and -m are always distinct.  Needs n >= 2."""
    order, m, p = n ** 3, n, 2
    while p * p <= m:
        if m % p == 0:
            order = order // (p * p) * (p * p - 1)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        order = order // (m * m) * (m * m - 1)
    return order // 2 if projective and n > 2 else order


def _mat_mul(x, y, n: int):
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % n, (a * f + b * h) % n,
            (c * e + d * g) % n, (c * f + d * h) % n)


# Generator matrices for the shipped two-generator presentation of SL(2,Z):
# a has order 4, b has order 6, and a^2 = b^3 = -identity.
_SL2_A = (0, -1, 1, 0)
_SL2_B = (0, -1, 1, 1)


def _sl2_images(n: int, projective: bool) -> dict[str, Perm]:
    """Right multiplication by a and b on SL(2, Z/n), or on PSL(2, Z/n)
    when projective, with the elements listed breadth-first from the
    identity.  a and b generate the quotient because SL(2, Z) maps onto
    SL(2, Z/n).  In PSL each class {m, -m} is named by its smaller matrix.
    Needs n >= 2."""

    def name(m):
        return min(m, tuple((-x) % n for x in m)) if projective else m

    gens = [tuple(x % n for x in m) for m in (_SL2_A, _SL2_B)]
    elements = [name((1, 0, 0, 1))]
    index_of = {elements[0]: 0}
    perms: tuple[list[int], list[int]] = ([], [])
    for e in elements:
        for g, perm in zip(gens, perms):
            m = name(_mat_mul(e, g, n))
            if m not in index_of:
                index_of[m] = len(elements)
                elements.append(m)
            perm.append(index_of[m])
    return {"a": tuple(perms[0]), "b": tuple(perms[1])}


def sl2z_images(n: int) -> dict[str, Perm]:
    """Right-multiplication permutations of SL(2, Z/n) for the generators
    a, b of the shipped SL2Z presentation (the mod-n congruence kernel)."""
    return _sl2_images(n, projective=False)


def psl2z_images(n: int) -> dict[str, Perm]:
    """Right-multiplication permutations of PSL(2, Z/n) for the generators
    a, b of the shipped PSL2Z presentation."""
    return _sl2_images(n, projective=True)


def mod_cycle_images(pres: Presentation, k: int) -> dict[str, Perm]:
    """Images for the total-exponent map to Z/k: every generator goes to
    the same k-cycle.  The kernel has index k when the relators have zero
    total exponent (checked downstream by the homomorphism test).  Needs
    k >= 1."""
    cycle = tuple((i + 1) % k for i in range(k))
    return {name: cycle for name in pres.generators}
