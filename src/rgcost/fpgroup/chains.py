"""Kernel coset tables from finite quotients, and gradient sampling.

Given permutation images of the generators, the kernel of the induced
homomorphism has coset table equal to the right-multiplication (Cayley)
action of the image group on itself.  Sampling a chain of such kernels
through Reidemeister-Schreier and the generator bounds yields the
(d-1)/index data that approaches the rank gradient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .coset import CosetTable, standardize_rows
from .presentation import Presentation
from .rewrite import d_bounds, reidemeister_schreier

Perm = tuple[int, ...]


class NotHomomorphism(ValueError):
    """The declared images do not kill some relator."""

    def __init__(self, relator_text: str):
        super().__init__(f"images do not define a homomorphism: relator {relator_text} "
                         f"does not map to the identity")
        self.relator_text = relator_text


@dataclass(frozen=True)
class RGSample:
    """One gradient sample: (d(H)-1)/[G:H] bracketed by the d bounds."""

    index: int
    d_lower: int
    d_upper: int
    r_lower: Fraction
    r_upper: Fraction


def make_sample(index: int, d_lower: int, d_upper: int) -> RGSample:
    if d_lower > d_upper:
        raise ValueError(f"d_lower {d_lower} > d_upper {d_upper}")
    return RGSample(
        index=index,
        d_lower=d_lower,
        d_upper=d_upper,
        r_lower=Fraction(d_lower - 1, index),
        r_upper=Fraction(d_upper - 1, index),
    )


def _compose(p: Perm, q: Perm) -> Perm:
    """Right-to-left: apply p first, then q."""
    return tuple(q[x] for x in p)


def _invert(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def _check_perm(p, degree) -> Perm:
    p = tuple(p)
    if sorted(p) != list(range(degree)):
        raise ValueError(f"not a permutation of degree {degree}: {p!r}")
    return p


def cayley_table(pres: Presentation, images: dict[str, Perm],
                 limit: int | None = None) -> CosetTable:
    """Coset table of the kernel of the map sending generators to the given
    permutations: the right-multiplication action on the image group.

    Checks first that every relator maps to the identity permutation.
    With a limit, closure enumeration past that many image elements raises
    EnumerationLimit (inconclusive) instead of growing without bound.
    """
    if set(images) != set(pres.generators):
        raise ValueError("images must cover exactly the presentation's generators")
    if not pres.generators:
        return CosetTable(generators=(), rows=((),), subgroup_words=())
    degree = len(next(iter(images.values())))
    gen_perms = [_check_perm(images[name], degree) for name in pres.generators]
    identity = tuple(range(degree))
    inv_perms = [_invert(p) for p in gen_perms]

    for rel in pres.relators:
        img = identity
        for x in rel:
            img = _compose(img, gen_perms[x - 1] if x > 0 else inv_perms[-x - 1])
        if img != identity:
            raise NotHomomorphism(pres.word_to_text(rel))

    elements: list[Perm] = [identity]
    index_of: dict[Perm, int] = {identity: 0}
    rows: list[list[int]] = []
    i = 0
    while i < len(elements):
        q = elements[i]
        row = []
        for g in range(len(gen_perms)):
            for p in (gen_perms[g], inv_perms[g]):
                target = _compose(q, p)
                if target not in index_of:
                    if limit is not None and len(elements) >= limit:
                        from .coset import EnumerationLimit

                        raise EnumerationLimit(len(elements), limit)
                    index_of[target] = len(elements)
                    elements.append(target)
                row.append(index_of[target])
        rows.append(row)
        i += 1

    table = CosetTable(
        generators=pres.generators,
        rows=standardize_rows(rows),
        subgroup_words=(),
    )
    table.validate(pres)
    return table


def kernel_chain_cayley(pres: Presentation, image_levels,
                        limit: int | None = None) -> list[CosetTable]:
    """One kernel coset table per level of declared generator images."""
    return [cayley_table(pres, images, limit=limit) for images in image_levels]


def rg_sequence(pres: Presentation, tables) -> list[RGSample]:
    """Sample (d-1)/index along a list of complete coset tables.

    Indices must be non-decreasing (chain order).  Each subgroup runs
    through Reidemeister-Schreier and the generator bounds.
    """
    indices = [t.index for t in tables]
    if indices != sorted(indices):
        raise ValueError("chain tables must have non-decreasing indices")
    samples = []
    for table in tables:
        sub = reidemeister_schreier(pres, table)
        lo, hi = d_bounds(sub)
        samples.append(make_sample(table.index, lo, hi))
    return samples


def trend_summary(samples) -> str:
    if not samples:
        return "no samples"
    non_increasing = all(a.r_upper >= b.r_upper for a, b in zip(samples, samples[1:]))
    last = samples[-1]
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
    where m and -m are always distinct."""
    if n < 2:
        raise ValueError("modulus must be >= 2")
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


def _sl2_elements(n: int) -> list[tuple[int, int, int, int]]:
    """All of SL(2, Z/n) as tuples (a, b, c, d), lexicographically sorted."""
    out = []
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    if (a * d - b * c) % n == 1 % n:
                        out.append((a, b, c, d))
    return out


def _mat_mul(x, y, n: int):
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % n, (a * f + b * h) % n,
            (c * e + d * g) % n, (c * f + d * h) % n)


# Generator matrices for the shipped two-generator presentation of SL(2,Z):
# a has order 4, b has order 6, and a^2 = b^3 = -identity.
_SL2_A = (0, -1, 1, 0)
_SL2_B = (0, -1, 1, 1)


def _right_mult_perm(elements, index_of, m, n: int) -> Perm:
    return tuple(index_of[_mat_mul(e, m, n)] for e in elements)


def sl2z_images(n: int) -> dict[str, Perm]:
    """Right-multiplication permutations of SL(2, Z/n) for the generators
    a, b of the shipped SL2Z presentation (the mod-n congruence kernel)."""
    if n < 2:
        raise ValueError("modulus must be >= 2")
    elements = _sl2_elements(n)
    index_of = {e: i for i, e in enumerate(elements)}
    a = tuple(x % n for x in _SL2_A)
    b = tuple(x % n for x in _SL2_B)
    return {
        "a": _right_mult_perm(elements, index_of, a, n),
        "b": _right_mult_perm(elements, index_of, b, n),
    }


def _psl2_elements(n: int):
    """PSL(2, Z/n): classes {m, -m}, represented by the lexicographically
    smaller matrix of each pair, sorted."""
    reps = set()
    for m in _sl2_elements(n):
        neg = tuple((-x) % n for x in m)
        reps.add(min(m, neg))
    return sorted(reps)


def psl2z_images(n: int) -> dict[str, Perm]:
    """Right-multiplication permutations of PSL(2, Z/n) for the generators
    a, b of the shipped PSL2Z presentation."""
    if n < 2:
        raise ValueError("modulus must be >= 2")
    elements = _psl2_elements(n)
    index_of = {e: i for i, e in enumerate(elements)}

    def mult(e, m):
        prod = _mat_mul(e, m, n)
        neg = tuple((-x) % n for x in prod)
        return min(prod, neg)

    a = tuple(x % n for x in _SL2_A)
    b = tuple(x % n for x in _SL2_B)
    return {
        "a": tuple(index_of[mult(e, a)] for e in elements),
        "b": tuple(index_of[mult(e, b)] for e in elements),
    }


def mod_cycle_images(pres: Presentation, k: int) -> dict[str, Perm]:
    """Images for the total-exponent map to Z/k: every generator goes to
    the same k-cycle.  The kernel has index k when the relators have zero
    total exponent (checked downstream by the homomorphism test)."""
    if k < 1:
        raise ValueError("modulus must be >= 1")
    cycle = tuple((i + 1) % k for i in range(k))
    return {name: cycle for name in pres.generators}
