import functools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    _rotation_key,
    reference_reidemeister_schreier,
    reference_tietze_simplify,
    reference_tree,
    schreier_words,
    todd_coxeter,
    word_from_tokens,
)
from rgcost.fpgroup.builtins import builtin_target
from rgcost.fpgroup.chains import cayley_table, mod_cycle_images, psl2z_images, sl2z_images
from rgcost.fpgroup.coset import CosetTable, EnumerationLimit
from rgcost.fpgroup.cover import OddTreeCover
from rgcost.fpgroup.lowindex import low_index_normal
from rgcost.fpgroup.presentation import (
    Presentation,
    cyclic_reduce,
    free_reduce,
    invert_word,
    parse_presentation,
)
from rgcost.fpgroup.rewrite import (
    _rotation_key as library_rotation_key,
    abelian_invariants,
    d_bounds,
    reidemeister_schreier,
    tietze_simplify,
)


def stabilizer_table(gen_perms, generators):
    """Coset table of the point stabilizer of 0 under a transitive action,
    built directly from the permutations."""
    k = len(gen_perms[0])
    rows = []
    inv = []
    for p in gen_perms:
        q = [0] * k
        for i, x in enumerate(p):
            q[x] = i
        inv.append(tuple(q))
    for c in range(k):
        row = []
        for g in range(len(gen_perms)):
            row.append(gen_perms[g][c])
            row.append(inv[g][c])
        rows.append(tuple(row))
    return CosetTable(generators=tuple(generators), rows=tuple(rows))


def random_transitive_perms(rng, ngens, k):
    while True:
        perms = []
        for _ in range(ngens):
            p = list(range(k))
            rng.shuffle(p)
            perms.append(tuple(p))
        seen = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for c in frontier:
                for p in perms:
                    if p[c] not in seen:
                        seen.add(p[c])
                        nxt.append(p[c])
            frontier = nxt
        if len(seen) == k:
            return perms


class TestNielsenSchreier:
    def test_f2_index_2_has_rank_3(self):
        f2 = parse_presentation("gens: x y\n")
        t = todd_coxeter(f2, subgroup=["x", "y y", "y x Y"], coset_limit=100)
        sub = reidemeister_schreier(f2, t)
        assert sub.num_generators == 3
        assert sub.relators == ()

    def test_rank_formula_over_random_actions(self):
        # free groups of rank r <= 3, index k <= 12: subgroup of a free
        # group is free of rank 1 + k(r-1); no relators survive reduction
        rng = random.Random(89)
        for r in (2, 3):
            free = parse_presentation("gens: " + " ".join(f"g{i}" for i in range(r)) + "\n")
            for k in (2, 3, 5, 8, 12):
                perms = random_transitive_perms(rng, r, k)
                table = stabilizer_table(perms, free.generators)
                table.validate(free)
                sub = reidemeister_schreier(free, table)
                assert sub.num_generators == 1 + k * (r - 1)
                assert sub.relators == ()


class TestReidemeisterSchreier:
    def test_trivial_subgroup_of_s3_presents_trivial_group(self):
        s3 = parse_presentation("gens: a b\nrel: a a\nrel: b b\nrel: a b a b a b\n")
        t = todd_coxeter(s3, coset_limit=100)
        sub = reidemeister_schreier(s3, t)
        inv = abelian_invariants(sub)
        assert inv.free_rank == 0 and inv.factors == ()
        lo, hi = d_bounds(sub)
        assert lo == 0 and hi == 0

    def test_congruence_kernel_mod3_abelianization(self):
        # the mod-3 congruence kernel (index 24) is free of rank
        # 1 + 24/12 = 3, so its abelianization is Z^3
        sl2z = builtin_target("SL2Z").presentation
        table = cayley_table(sl2z, sl2z_images(3))
        assert table.index == 24
        sub = reidemeister_schreier(sl2z, table)
        simplified = tietze_simplify(sub)
        inv = abelian_invariants(simplified)
        assert inv.free_rank == 3 and inv.factors == ()

    def test_transversal_policy_independence(self):
        # abelian invariants of the subgroup cannot depend on the spanning
        # tree: the library's against the reference's reverse-column one
        rng = random.Random(97)
        pool = [
            "gens: a b\nrel: a a\nrel: b b\nrel: a b a b a b\n",
            "gens: a b\nrel: a a\nrel: b b\nrel: a b a b a b a b\n",
            "gens: a b\nrel: a a a a\nrel: b b\nrel: a b A b\n",
            "gens: a b\nrel: a a a a\nrel: a a B B\nrel: B a b a\n",  # quaternion
            "gens: a\nrel: a a a a a a a a a a a a\n",
        ]
        done = 0
        while done < 50:
            p = parse_presentation(pool[done % len(pool)])
            words = []
            for _ in range(rng.randint(0, 2)):
                words.append(tuple(rng.choice((1, -1)) * rng.randint(1, p.num_generators)
                                   for _ in range(rng.randint(1, 4))))
            try:
                t = todd_coxeter(p, subgroup=words, coset_limit=4000)
            except EnumerationLimit:
                continue
            a = abelian_invariants(reidemeister_schreier(p, t))
            b = abelian_invariants(reference_reidemeister_schreier(p, t, reverse=True))
            assert a == b
            done += 1


def _kernel_cases():
    """(presentation, kernel table) pairs from every table builder verify
    uses: congruence quotients, exponent kernels and low-index search."""
    sl2z = builtin_target("SL2Z").presentation
    psl2z = builtin_target("PSL2Z").presentation
    b3 = builtin_target("braid3").presentation
    cases = [(sl2z, cayley_table(sl2z, sl2z_images(n))) for n in (2, 3, 4)]
    cases.append((psl2z, cayley_table(psl2z, psl2z_images(5))))
    cases += [(b3, cayley_table(b3, mod_cycle_images(b3, k))) for k in (1, 2, 5)]
    cases += [(b3, t) for t in low_index_normal(b3, 6)]
    return cases


class TestSchreierGenerators:
    """The library's s_k is the Schreier word u_a g u_b^-1 of the k-th
    non-tree edge of the reference's forward tree."""

    def test_relators_are_conjugated_relators(self):
        # substituting the words telescopes the rewrite of r from coset c
        # to u_c r u_c^-1, freely
        for pres, table in _kernel_cases():
            words = schreier_words(table)
            sub = reidemeister_schreier(pres, table)
            assert sub.num_generators == len(words)
            _, transversal, _ = reference_tree(table)
            conjugates = {free_reduce(u + r + invert_word(u))
                          for u in transversal for r in pres.relators}
            for rel in sub.relators:
                image = free_reduce(x for s in rel
                                    for x in (words[s - 1] if s > 0
                                              else invert_word(words[-s - 1])))
                assert image in conjugates

    def test_enumeration_over_the_words_rebuilds_the_table(self):
        for pres, table in _kernel_cases():
            rebuilt = todd_coxeter(pres, subgroup=schreier_words(table), coset_limit=5000)
            assert rebuilt.rows == table.rows


class TestAbelianInvariants:
    def test_braid3(self):
        b3 = parse_presentation("gens: x y\nrel: x y x Y X Y\n")
        inv = abelian_invariants(b3)
        assert inv.free_rank == 1 and inv.factors == ()

    def test_free_rank_3(self):
        f3 = parse_presentation("gens: x y z\n")
        inv = abelian_invariants(f3)
        assert inv.free_rank == 3

    def test_s3_coxeter(self):
        p = parse_presentation("gens: a b\nrel: a a\nrel: b b\nrel: a b a b a b\n")
        inv = abelian_invariants(p)
        assert inv.free_rank == 0 and inv.factors == (2,)


    # Z/n *_{Z/k} Z/m has H1 of order n*m/k.
    @pytest.mark.parametrize("name,factors", [
        ("SL2Z", (12,)), ("PSL2Z", (6,)), ("dihedral-inf", (2, 2)),
    ])
    def test_cyclic_amalgam_builtins(self, name, factors):
        target = builtin_target(name)
        expr = target.expr
        inv = abelian_invariants(target.presentation)
        assert inv.free_rank == 0 and inv.factors == factors
        assert math.prod(factors) == expr.left.n * expr.right.n // expr.amalgam_order


class TestTietzeAndBounds:
    def test_braid3_bounds(self):
        b3 = parse_presentation("gens: x y\nrel: x y x Y X Y\n")
        assert d_bounds(b3) == (1, 2)

    def test_trivial_presentation(self):
        p = parse_presentation("gens: a\nrel: a\n")
        assert d_bounds(p) == (0, 0)

    def test_free_presentation_bounds_coincide(self):
        f3 = parse_presentation("gens: x y z\n")
        assert d_bounds(f3) == (3, 3)

    def test_eliminates_chain(self):
        # b = a^2 and c = b a are removable; one generator remains
        p = parse_presentation("gens: a b c\nrel: B a a\nrel: C b a\n")
        simplified = tietze_simplify(p)
        assert simplified.num_generators == 1
        assert simplified.relators == ()

    def test_keeps_generators_without_single_occurrences(self):
        p = parse_presentation("gens: x y\nrel: x y x Y X Y\n")
        simplified = tietze_simplify(p)
        assert simplified.num_generators == 2

    def test_drops_duplicate_and_rotated_relators(self):
        p = parse_presentation("gens: x y\nrel: x y X Y\nrel: y X Y x\nrel: x y X Y\n")
        simplified = tietze_simplify(p)
        assert len(simplified.relators) == 1


# ---------------------------------------------------------------------------
# Tietze against the reference pass, and abelianization before and after

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def _letters(ngens):
    return st.integers(1, ngens).flatmap(lambda g: st.sampled_from((g, -g)))


@st.composite
def random_presentations(draw):
    ngens = draw(st.integers(1, 5))
    relators = draw(st.lists(st.lists(_letters(ngens), min_size=1, max_size=9), max_size=7))
    return Presentation([f"g{i}" for i in range(ngens)], relators)


# (group, extra relator or None): with the extra relator the group has a
# finite quotient (SL(2,Z/k), PSL(2,Z/k), B3/<<s1^k>>), so coset
# enumeration over it always completes, and its coset table is a complete,
# valid table for a finite-index subgroup of the group itself.
SUBGROUP_SOURCES = [
    ("SL2Z", "a b a b a b"),
    ("SL2Z", "a b a b a b a b"),
    ("SL2Z", "a b a b a b a b a b"),
    ("PSL2Z", "a b a b a b a b"),
    ("PSL2Z", "a b a b a b a b a b"),
    ("braid3", "s1 s1 s1"),
    ("braid3", "s1 s1 s1 s1"),
    ("gens: a b\nrel: a a\nrel: b b\nrel: a b a b a b\n", None),  # S3
    ("gens: a b\nrel: a a a a\nrel: a a B B\nrel: B a b a\n", None),  # quaternion
]


@st.composite
def finite_index_subgroups(draw):
    """Reidemeister-Schreier presentation of a random finite-index subgroup:
    a random subgroup of a finite quotient, or a braid3 exponent kernel."""
    if draw(st.booleans()):
        b3 = builtin_target("braid3").presentation
        k = draw(st.integers(1, 40))
        return reidemeister_schreier(b3, cayley_table(b3, mod_cycle_images(b3, k)))
    source, extra = draw(st.sampled_from(SUBGROUP_SOURCES))
    if extra is None:
        pres = quotient = parse_presentation(source)
    else:
        pres = builtin_target(source).presentation
        quotient = Presentation(pres.generators,
                                pres.relators + (word_from_tokens(pres, extra.split()),))
    words = draw(st.lists(st.lists(_letters(pres.num_generators), min_size=1, max_size=4),
                          max_size=2))
    table = todd_coxeter(quotient, subgroup=words, coset_limit=5000)
    table.validate(pres)
    return reidemeister_schreier(pres, table)


@functools.cache
def _braid_kernel(name: str, k: int) -> Presentation:
    """Reidemeister-Schreier presentation of the exponent-mod-k kernel of a
    path-graph braid group: a few long relators by the end of Tietze."""
    pres = builtin_target(name).presentation
    return reidemeister_schreier(pres, cayley_table(pres, mod_cycle_images(pres, k)))


@st.composite
def planted_cancellations(draw):
    """Relators whose rewriting cancels across junctions.  Relator 0,
    g1^-1 w, is the shortest in most draws, so Tietze usually eliminates g1
    first, with image w.  Each planted relator strings segments
    P g1^e (P')^-1, with P' the reduced rewrite of P g1^e: after
    substitution a segment cancels to nothing, its closing run consuming
    the images and runs before it, so an image cancels whole and
    cancellation crosses several junctions.  P ends with a suffix of
    (w^e)^-1, which the image of g1^e cancels, whole when the suffix is.
    Random chunks, pieces of w^+-1 and lone g1^+-1 go inside P and between
    the segments."""
    ngens = draw(st.integers(2, 4))
    others = st.integers(2, ngens).flatmap(lambda g: st.sampled_from((g, -g)))
    image = free_reduce(draw(st.lists(others, min_size=1, max_size=4))) or (2,)
    inverse = invert_word(image)
    pieces = st.one_of(
        st.lists(others, max_size=3).map(tuple),
        st.sampled_from(((1,), (-1,))),
        st.sampled_from((image, inverse)).flatmap(
            lambda w: st.integers(0, len(w)).flatmap(
                lambda k: st.sampled_from((w[:k], w[k:])))),
    )
    relators = [(-1,) + image]
    for _ in range(draw(st.integers(1, 5))):
        word = []
        for _ in range(draw(st.integers(1, 4))):
            head = [x for piece in draw(st.lists(pieces, max_size=4)) for x in piece]
            # a suffix of the next image's inverse, for that image's head
            # to cancel against
            e = draw(st.sampled_from((1, -1)))
            head += invert_word(image if e == 1 else inverse)[draw(st.integers(0, len(image))):]
            head.append(e)
            rewritten = free_reduce(y for x in head for y in (
                image if x == 1 else inverse if x == -1 else (x,)))
            word += head + list(invert_word(rewritten))
            word += draw(pieces)
        relators.append(word)
    return Presentation([f"g{i}" for i in range(ngens)], relators)


class TestTietzeMatchesReference:
    @PROPERTY
    @given(random_presentations())
    def test_random_presentations(self, pres):
        out, ref = tietze_simplify(pres), reference_tietze_simplify(pres)
        assert (out.generators, out.relators) == (ref.generators, ref.relators)

    @PROPERTY
    @given(finite_index_subgroups())
    def test_subgroup_presentations(self, sub):
        out, ref = tietze_simplify(sub), reference_tietze_simplify(sub)
        assert (out.generators, out.relators) == (ref.generators, ref.relators)

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(("braid4", "braid5")), st.integers(1, 16))
    def test_long_braid_kernels(self, name, k):
        # relators pass 200 letters mid-run (braid5, k = 16), with the
        # eliminated generator up to 14 times in one relator
        sub = _braid_kernel(name, k)
        out, ref = tietze_simplify(sub), reference_tietze_simplify(sub)
        assert (out.generators, out.relators) == (ref.generators, ref.relators)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(planted_cancellations())
    def test_planted_cancellations(self, pres):
        out, ref = tietze_simplify(pres), reference_tietze_simplify(pres)
        assert (out.generators, out.relators) == (ref.generators, ref.relators)

    def test_braid5_kernel_32(self):
        sub = _braid_kernel("braid5", 32)
        out, ref = tietze_simplify(sub), reference_tietze_simplify(sub)
        assert (out.generators, out.relators) == (ref.generators, ref.relators)

    def test_benchmark_kernels(self):
        # the short relators of the congruence kernels (1,392 relators of
        # 1-4 letters) and the long ones of the infinite-cyclic-cover
        # kernels (up to 680 letters): both sides of the count Tietze
        # chooses by word length
        kernels = []
        for name, images, levels in (("SL2Z", sl2z_images, range(3, 8)),
                                     ("PSL2Z", psl2z_images, range(3, 9))):
            pres = builtin_target(name).presentation
            kernels += [reidemeister_schreier(pres, cayley_table(pres, images(n)))
                        for n in levels]
        for name, levels in (("braid5", (16, 32)), ("braid3", (32, 64, 128, 256))):
            cover = OddTreeCover.of(builtin_target(name).presentation)
            kernels += [cover.kernel(k) for k in levels]
        for sub in kernels:
            out, ref = tietze_simplify(sub), reference_tietze_simplify(sub)
            assert (out.generators, out.relators) == (ref.generators, ref.relators)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.integers(-4, 4).filter(bool), min_size=1, max_size=16))
    def test_rotation_key_is_least_rotation(self, letters):
        word = tuple(letters)
        assert library_rotation_key(word) == _rotation_key(word)

    def test_short_rotation_keys_are_least_rotations(self):
        # every word of one or two letters on four generators, reduced or
        # not: the closed form Tietze keys such relators by
        letters = [x for g in range(1, 5) for x in (g, -g)]
        words = [(x,) for x in letters] + [(x, y) for x in letters for y in letters]
        for word in words:
            assert library_rotation_key(word) == _rotation_key(word), word


# ---------------------------------------------------------------------------
# Proper-power relators: one rewrite per coset orbit of the root


# Finite groups on 1-3 generators whose defining relators include proper
# powers; random extra relators w^(k.|w|) hold in the group, so coset
# enumeration over any subgroup finishes.
FINITE_GROUPS = [
    (1, [(1,) * 6]),
    (1, [(1,) * 12]),
    (2, [(1, 1), (2, 2), (1, 2) * 3]),  # S3
    (2, [(1,) * 4, (1, 1, -2, -2), (-2, 1, 2, 1)]),  # quaternion
    (2, [(1,) * 4, (2,) * 6, (1, 1, -2, -2, -2), (1, 2) * 3]),  # SL(2,3)
    (3, [(1, 1), (2, 2), (3, 3), (1, 2) * 3, (2, 3) * 3, (1, 3) * 2]),  # S4
    (3, [(1, 1), (2, 2), (3, 3), (1, 2) * 2, (2, 3) * 2, (1, 3) * 2]),  # (Z/2)^3
]


@functools.cache
def _regular_table(source: int) -> CosetTable:
    ngens, rels = FINITE_GROUPS[source]
    return todd_coxeter(Presentation([f"g{i}" for i in range(ngens)], rels), coset_limit=100)


def _element_order(source: int, word) -> int:
    """Order in the finite group of the word, read off its regular table."""
    table = _regular_table(source)
    k, coset = 1, table.trace(0, word)
    while coset:
        k, coset = k + 1, table.trace(coset, word)
    return k


def _root(word) -> tuple:
    """Primitive root, by brute force: the shortest prefix that repeats
    into the word."""
    n = len(word)
    for p in range(1, n + 1):
        if n % p == 0 and tuple(word[:p]) * (n // p) == tuple(word):
            return tuple(word[:p])


@st.composite
def power_relator_subgroups(draw):
    """(P, T): a presentation of a finite group carrying extra proper powers
    of 1-3-letter words and products of two powers, and the coset table of a
    random subgroup."""
    source = draw(st.integers(0, len(FINITE_GROUPS) - 1))
    ngens, rels = FINITE_GROUPS[source]
    extra = []
    for _ in range(draw(st.integers(1, 3))):
        w = cyclic_reduce(draw(st.lists(_letters(ngens), min_size=1, max_size=3)))
        if w:
            j = _element_order(source, w) * draw(st.integers(1, 2))
            extra.append(w * max(j, 2))
    if draw(st.booleans()):
        u, v = (free_reduce(draw(st.lists(_letters(ngens), min_size=1, max_size=2)))
                for _ in range(2))
        extra.append(u * _element_order(source, u) + v * _element_order(source, v))
    relators = draw(st.permutations(rels + extra))
    pres = Presentation([f"g{i}" for i in range(ngens)], relators)
    words = draw(st.lists(st.lists(_letters(ngens), min_size=1, max_size=4), max_size=2))
    return pres, todd_coxeter(pres, subgroup=words, coset_limit=100)


def _rotations(word) -> set:
    w = cyclic_reduce(word)
    return {w[k:] + w[:k] for k in range(len(w))}


class TestPowerRelatorOrbits:
    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(power_relator_subgroups())
    def test_one_rewrite_per_orbit(self, case):
        pres, table = case
        assert any(len(_root(r)) < len(r) for r in pres.relators)

        def first(c, rel):
            # c is the smallest coset of its orbit under the root
            root = _root(rel)
            d = table.trace(c, root)
            while d != c:
                if d < c:
                    return False
                d = table.trace(d, root)
            return True

        pairs = [(c, r) for c in range(table.index) for r in pres.relators]
        sub = reidemeister_schreier(pres, table)
        ref = reference_reidemeister_schreier(pres, table)
        assert sub.generators == ref.generators
        # a reduced relator never rewrites to the empty word, so the
        # reference holds exactly one rewrite per (coset, relator)
        assert len(ref.relators) == len(pairs)
        expected = [w for (c, r), w in zip(pairs, ref.relators) if first(c, r)]
        assert list(sub.relators) == expected
        rest = iter(ref.relators)  # a subsequence of the reference
        assert all(any(w == r for r in rest) for w in sub.relators)
        kept = set(sub.relators)
        rotations = set().union(*(_rotations(w) for w in kept))
        for w in ref.relators:
            if w not in kept:
                assert cyclic_reduce(w) in rotations
        out = tietze_simplify(sub)
        want = reference_tietze_simplify(ref)
        assert (out.generators, out.relators) == (want.generators, want.relators)


@st.composite
def presentations_with_planted_copies(draw):
    """Random relators, then later copies of earlier ones (rotated,
    inverted or both) and distinct words in the same (length, sum |x|)
    bucket: the same letters in another order, or with signs flipped."""
    ngens = draw(st.integers(1, 4))
    relators = draw(st.lists(st.lists(_letters(ngens), min_size=1, max_size=7),
                             min_size=1, max_size=6))
    for _ in range(draw(st.integers(1, 6))):
        w = list(cyclic_reduce(draw(st.sampled_from(relators))) or (1,))
        k = draw(st.integers(0, len(w) - 1))
        kind = draw(st.sampled_from(("rotate", "invert", "both", "shuffle", "flip")))
        if kind in ("rotate", "both"):
            w = w[k:] + w[:k]
        if kind in ("invert", "both"):
            w = list(invert_word(w))
        if kind == "shuffle":
            w = draw(st.permutations(w))
        if kind == "flip":
            w[k] = -w[k]
        relators.insert(draw(st.integers(0, len(relators))), w)
    return Presentation([f"g{i}" for i in range(ngens)], relators)


class TestTietzeBuckets:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(presentations_with_planted_copies())
    def test_planted_copies_and_bucket_twins(self, pres):
        out, ref = tietze_simplify(pres), reference_tietze_simplify(pres)
        assert (out.generators, out.relators) == (ref.generators, ref.relators)

    def test_bucket_twins_are_kept(self):
        # x x Y Y and x Y x Y share length and letter sum but are not
        # rotations or inverses of each other; y y X X inverts the first
        p = parse_presentation("gens: x y\nrel: x x Y Y\nrel: x Y x Y\nrel: y y X X\n")
        assert tietze_simplify(p).relators == ((1, 1, -2, -2), (1, -2, 1, -2))


class TestSimplifiedAbelianization:
    @PROPERTY
    @given(finite_index_subgroups())
    def test_invariants_survive_tietze(self, sub):
        assert abelian_invariants(sub) == abelian_invariants(tietze_simplify(sub))


class TestDBounds:
    """RGSample's d_lower <= d_upper holds for every presentation."""

    @PROPERTY
    @given(st.one_of(random_presentations(), finite_index_subgroups(),
                     power_relator_subgroups().map(
                         lambda case: reidemeister_schreier(*case))))
    def test_lower_at_most_upper(self, pres):
        lo, hi = d_bounds(pres)
        assert 0 <= lo <= hi
