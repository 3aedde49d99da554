import itertools
import random

import pytest

from hahnforge.errors import ZeroOrderType
from hahnforge.ordinal import (
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    prediction_filter,
    replication_order_type,
)


def random_ordinal(rng, depth=2, max_terms=3, max_coeff=4):
    if depth == 0 or rng.random() < 0.3:
        return Ordinal.from_int(rng.randrange(0, max_coeff + 1))
    n_terms = rng.randrange(1, max_terms + 1)
    exps = set()
    while len(exps) < n_terms:
        exps.add(random_ordinal(rng, depth - 1, max_terms, max_coeff))
    terms = tuple((e, rng.randrange(1, max_coeff + 1))
                  for e in sorted(exps, reverse=True))
    return Ordinal(terms)


def piecewise_product(a, b):
    """Independent oracle: a * b as the left-to-right sum of the pieces
    a * w^gamma * c over b's terms, each added by Ordinal.__add__."""
    if a.is_zero() or b.is_zero():
        return ZERO
    alpha1, c1 = a.terms[0]
    total = ZERO
    for gamma, c in b.terms:
        if gamma.is_zero():
            piece = Ordinal(((alpha1, c1 * c),) + a.terms[1:])
        else:
            piece = Ordinal(((alpha1 + gamma, c),))
        total = total + piece
    return total


def triple_to_ordinal(t):
    """(a, b, c) -> w^2*a + w*b + c (coefficients multiply on the right)."""
    a, b, c = t
    return OMEGA * OMEGA * Ordinal.from_int(a) + OMEGA * Ordinal.from_int(b) \
        + Ordinal.from_int(c)


class TestCompare:
    def test_omega_exceeds_finite(self):
        assert Ordinal.from_int(5) < OMEGA and 5 < OMEGA
        assert not OMEGA < Ordinal.from_int(5) and not OMEGA < 5

    def test_equal(self):
        a = OMEGA * OMEGA + OMEGA
        b = OMEGA * OMEGA + OMEGA
        assert a == b and not a < b

    def test_omega2_vs_omega_plus_7(self):
        assert OMEGA + Ordinal.from_int(7) < OMEGA * 2

    def test_finite_ordinal_hashes_as_its_int(self):
        # equal values hash equal, so a set or dict finds either one
        for n in (0, 1, 3, 10 ** 20):
            assert Ordinal.from_int(n) == n and hash(Ordinal.from_int(n)) == hash(n)
            assert n in {Ordinal.from_int(n)} and Ordinal.from_int(n) in {n}
        assert OMEGA not in {1, 0} and len({OMEGA, OMEGA * 2, ONE, 1}) == 3

    def test_negative_int_is_unequal(self):
        for a in (ZERO, ONE, OMEGA):
            assert not a == -1 and a != -1 and not -1 == a and -1 != a
        assert OMEGA in [-1, OMEGA] and ZERO not in [-1, -2]

    def test_total_order_on_triples(self):
        triples = list(itertools.product(range(3), repeat=3))
        ords = [triple_to_ordinal(t) for t in triples]
        for t1, o1 in zip(triples, ords):
            for t2, o2 in zip(triples, ords):
                assert (t1 < t2) == (o1 < o2)


class TestAddMul:
    def test_finite_times_omega_absorbs(self):
        for n in (1, 2, 9):
            assert Ordinal.from_int(n) * OMEGA == OMEGA == n * OMEGA

    def test_leading_exponent_bump(self):
        a = OMEGA * OMEGA * 3 + OMEGA * 5 + 7
        assert a * OMEGA == OMEGA ** 3

    def test_addition_noncommutative_witness(self):
        assert OMEGA + 1 != 1 + OMEGA
        assert 1 + OMEGA == OMEGA

    def test_left_absorption(self):
        assert Ordinal.from_int(3) + OMEGA == OMEGA
        assert OMEGA + OMEGA * OMEGA == OMEGA * OMEGA

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_associativity_and_distributivity(self, seed):
        rng = random.Random(seed)
        for _ in range(150):
            a, b, c = (random_ordinal(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_cnf_well_formed_after_ops(self):
        rng = random.Random(11)
        for _ in range(200):
            a, b = random_ordinal(rng), random_ordinal(rng)
            for x in (a + b, a * b):
                exps = [e for e, c in x.terms]
                coeffs = [c for e, c in x.terms]
                assert all(c >= 1 for c in coeffs)
                assert all(e2 < e1 for e1, e2 in zip(exps, exps[1:]))


class TestProductOracle:
    @pytest.mark.parametrize("seed", range(4))
    def test_product_matches_the_piecewise_sum(self, seed):
        rng = random.Random(seed)
        for _ in range(300):
            a, b = (random_ordinal(rng, max_terms=4) for _ in range(2))
            assert a * b == piecewise_product(a, b)

    @pytest.mark.parametrize("seed", range(4))
    def test_power_matches_repeated_piecewise_products(self, seed):
        rng = random.Random(100 + seed)
        for _ in range(12):
            a = random_ordinal(rng, max_terms=4)
            want = ONE
            for n in range(13):
                assert a ** n == want
                want = piecewise_product(want, a)

    def test_large_powers_take_log_many_products(self, monkeypatch):
        calls, mul = [], Ordinal.__mul__
        monkeypatch.setattr(Ordinal, "__mul__",
                            lambda a, b: calls.append(1) or mul(a, b))
        assert OMEGA ** 100_000 == Ordinal(((Ordinal.from_int(100_000), 1),))
        # 16 squarings and 5 products: 100,000 has 17 bits, 6 of them set
        assert len(calls) == 21
        monkeypatch.undo()
        # (w*2 + 3)^n = w^n*2 + w^(n-1)*6 + ... + w*6 + 3
        want = ([(Ordinal.from_int(2000), 2)]
                + [(Ordinal.from_int(k), 6) for k in range(1999, 0, -1)] + [(ZERO, 3)])
        assert (OMEGA * 2 + 3) ** 2000 == Ordinal(want)


class TestRankEmbeddingOracle:
    """Initial-segment oracle: ordinal arithmetic vs concrete product orders.

    For x < A, y < B the rank of (x, y) in the anti-lexicographic well-order
    on A x B is A * rank(y) + rank(x); computing that formula with cnf_add /
    cnf_mul and sorting 10^4 sampled pairs must reproduce the concrete order
    exactly.
    """

    def test_product_rank_embedding(self):
        rng = random.Random(23)
        bound = 6
        A = triple_to_ordinal((2, 3, 1))
        pairs = set()
        while len(pairs) < 10_000:
            x = (rng.randrange(2), rng.randrange(bound), rng.randrange(bound))
            y = (rng.randrange(bound), rng.randrange(bound), rng.randrange(bound))
            if triple_to_ordinal(x) < A:
                pairs.add((x, y))
        ordered = sorted(pairs, key=lambda xy: (xy[1], xy[0]))  # anti-lex
        ranks = [A * triple_to_ordinal(y) + triple_to_ordinal(x)
                 for x, y in ordered]
        for r1, r2 in zip(ranks, ranks[1:]):
            assert r1 < r2

    def test_sum_rank_embedding(self):
        A = triple_to_ordinal((1, 4, 2))
        tagged = []
        for t in itertools.product(range(2), range(2), range(6), range(6)):
            if t[0] == 0 and not triple_to_ordinal(t[1:]) < A:
                continue
            tagged.append(t)
        ordered = sorted(tagged)  # tag-major = concatenated order
        ranks = [triple_to_ordinal(t[1:]) if t[0] == 0
                 else A + triple_to_ordinal(t[1:]) for t in ordered]
        assert len(ranks) > 100
        for r1, r2 in zip(ranks, ranks[1:]):
            assert r1 < r2


class TestReplication:
    def test_finite_gives_omega(self):
        for k in (1, 2, 17):
            assert replication_order_type(Ordinal.from_int(k)) == OMEGA

    def test_omega_gives_omega_squared(self):
        assert replication_order_type(OMEGA) == OMEGA * OMEGA

    def test_omega_to_omega(self):
        w_w = Ordinal(((OMEGA, 1),))
        expected = Ordinal(((OMEGA + 1, 1),))
        assert replication_order_type(w_w) == expected

    def test_zero_raises(self):
        with pytest.raises(ZeroOrderType):
            replication_order_type(ZERO)

    def test_single_term_coefficient_one(self):
        rng = random.Random(31)
        for _ in range(100):
            a = random_ordinal(rng)
            if a.is_zero():
                continue
            r = replication_order_type(a)
            assert len(r.terms) == 1
            assert r.terms[0][1] == 1
            assert r.terms[0][0] == a.leading_exponent() + ONE


class TestPredictionFilter:
    def test_finite_is_consistent(self):
        assert prediction_filter(Ordinal.from_int(3)) == "consistent"
        assert prediction_filter(ZERO) == "consistent"

    def test_omega_contradicts(self):
        assert prediction_filter(OMEGA) == "contradicts"

    def test_omega_omega_contradicts(self):
        assert prediction_filter(Ordinal(((OMEGA, 1),))) == "contradicts"
