import random

from conftest import det_int, minors_gcd
from rgcost.fpgroup.snf import smith_normal_form


class TestKnownForms:
    def test_diag_2_3(self):
        # oracle: unimodular equivalence preserves minor gcds, so the
        # invariant factors of diag(2,3) are g1 = gcd(2,3) = 1 and
        # g2/g1 = 6/1 = 6
        m = [[2, 0], [0, 3]]
        assert minors_gcd(m, 1) == 1 and minors_gcd(m, 2) == 6
        assert smith_normal_form(m).factors == (1, 6)

    def test_zero_matrix(self):
        s = smith_normal_form([[0, 0, 0], [0, 0, 0]])
        assert s.factors == ()
        assert s.rank == 0
        assert min(s.nrows, s.ncols) - s.rank == 2

    def test_identity(self):
        s = smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert s.factors == (1, 1, 1)
        assert min(s.nrows, s.ncols) - s.rank == 0

    def test_empty(self):
        s = smith_normal_form([])
        assert s.factors == () and s.nrows == 0

    def test_divisibility_chain(self):
        s = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        for a, b in zip(s.factors, s.factors[1:]):
            assert b % a == 0


class TestMinorGcdIdentity:
    def test_bareiss_det_oracle_sanity(self):
        assert det_int([[2, 0], [0, 3]]) == 6
        assert det_int([[1, 2], [3, 4]]) == -2
        assert det_int([[0, 1], [1, 0]]) == -1

    def test_random_matrices(self):
        rng = random.Random(83)
        for _ in range(200):
            nrows = rng.randint(1, 6)
            ncols = rng.randint(1, 6)
            m = [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(nrows)]
            s = smith_normal_form(m)
            prod = 1
            for k in range(1, min(nrows, ncols) + 1):
                g = minors_gcd(m, k)
                if k <= s.rank:
                    prod *= s.factors[k - 1]
                    assert g == prod, (m, s.factors)
                else:
                    assert g == 0, (m, s.factors)
