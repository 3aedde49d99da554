import math
import random
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings, strategies as st

from hahnforge.errors import PrecisionLoss
from hahnforge.exactnum import PrimeConfig, digit_decompose, teichmueller
from hahnforge.hahn_eqchar import EqHahn
from hahnforge.hahn_padic import (
    PHahn,
    decompose,
    frak_a,
    from_integer,
    mul_via_decomposition,
    normalize,
    recompose,
)

INF = math.inf


EXP_POOL = sorted({Fr(n, d) for n in range(-6, 7) for d in (1, 2, 3, 4)})


def random_phahn(cfg, rng, cap=None, allow_exact=False):
    if cap is None:
        cap = Fr(rng.randrange(1, 5))
    exps = sorted(rng.sample(EXP_POOL, rng.randrange(0, 5)))
    digits = []
    for e in exps:
        if e >= cap:
            continue
        n = rng.randrange(1, cfg.q)
        vec = []
        for _ in range(cfg.r):
            vec.append(n % cfg.p)
            n //= cfg.p
        d = cfg.fq(vec)
        if not d.is_zero():
            digits.append((e, d))
    if allow_exact and rng.random() < 0.3:
        return PHahn(cfg, tuple(digits), INF)
    return PHahn(cfg, tuple(digits), cap)


class TestNormalize:
    def test_empty_bag_is_zero(self):
        cfg = PrimeConfig.make(3)
        z = normalize(cfg, [], Fr(2))
        assert z.digits == () and z.cap == Fr(2)

    def test_char2_double_term_carries_one_level_up(self):
        cfg = PrimeConfig.make(2)
        one = cfg.fq(1)
        out = normalize(cfg, [(one, Fr(-1, 2)), (one, Fr(-1, 2))], Fr(3))
        # 2 * p^(-1/2) = p^(1/2) exactly
        assert out.digits == ((Fr(1, 2), one),)

    def test_p3_one_plus_one(self):
        cfg = PrimeConfig.make(3)
        one = cfg.fq(1)
        out = normalize(cfg, [(one, Fr(0)), (one, Fr(0))], Fr(4))
        assert out.digits == ((Fr(0), cfg.fq(2)), (Fr(1), cfg.fq(1)))

    def test_idempotent_on_standard_expansions(self):
        cfg = PrimeConfig.make(3, r=2)
        rng = random.Random(5)
        for _ in range(200):
            x = random_phahn(cfg, rng)
            again = normalize(cfg, x.digit_bag(), x.cap)
            assert again == x

    def test_exact_mode_terminating(self):
        cfg = PrimeConfig.make(3)
        one = cfg.fq(1)
        out = normalize(cfg, [(one, Fr(0)), (one, Fr(0))], INF)
        # digit_decompose(2) = (2, 1): [2] = -1, 2 = [2] + [1]*3
        assert out.digits == ((Fr(0), cfg.fq(2)), (Fr(1), cfg.fq(1)))
        assert out.is_exact()

    def test_exact_mode_nonterminating_raises(self):
        cfg = PrimeConfig.make(2)
        with pytest.raises(PrecisionLoss):
            normalize(cfg, [(-1, Fr(0))], INF)

    def test_exact_mode_unliftable_digit_raises(self):
        cfg = PrimeConfig.make(5)
        two = cfg.fq(2)
        with pytest.raises(PrecisionLoss):
            normalize(cfg, [(two, Fr(0)), (two, Fr(0))], INF)

    def test_bucket_length_bounded_by_l_max(self):
        cfg = PrimeConfig.make(2, l_max=4)
        one = cfg.fq(1)
        with pytest.raises(PrecisionLoss):
            normalize(cfg, [(one, Fr(0)), (one, Fr(0))], Fr(40))

    def test_fractional_buckets_do_not_interact(self):
        cfg = PrimeConfig.make(2)
        one = cfg.fq(1)
        bag = [(one, Fr(-1, 2)), (one, Fr(-1, 2)), (one, Fr(-1, 3)), (one, Fr(0))]
        out = normalize(cfg, bag, Fr(3))
        assert out.digit_at(Fr(-1, 3)) == one
        assert out.digit_at(Fr(1, 2)) == one
        assert out.digit_at(Fr(0)) == one


FIELDS = [(p, r) for p in (2, 3, 5, 7) for r in (1, 2)]


def _outcome(cfg, bag, cap, **kw):
    """normalize's result, or the message of the PrecisionLoss it raises."""
    try:
        return normalize(cfg, bag, cap, **kw)
    except PrecisionLoss as exc:
        return str(exc)


class TestCoefficientForms:
    """An int n is (n, [1]), a digit d is (1, d) and (k, d) is k copies of d."""

    @pytest.mark.parametrize("cap", [INF, Fr(5, 2)], ids=["exact", "capped"])
    @pytest.mark.parametrize("p,r", FIELDS)
    def test_forms_agree(self, p, r, cap):
        cfg = PrimeConfig.make(p, r)
        one = cfg.fq(1)
        rest = [(one, Fr(1, 2)), (-1, Fr(1))]  # a second term in each bucket
        for e in (Fr(0), Fr(-3, 2)):
            for tail in ([], rest):
                for n in range(-3, 4):
                    assert (_outcome(cfg, [(n, e)] + tail, cap)
                            == _outcome(cfg, [((n, one), e)] + tail, cap))
                for d in cfg.fq_elements():
                    single = _outcome(cfg, [(d, e)] + tail, cap)
                    assert _outcome(cfg, [((1, d), e)] + tail, cap) == single
                    for k in (2, 3):
                        assert (_outcome(cfg, [((k, d), e)] + tail, cap)
                                == _outcome(cfg, [(d, e)] * k + tail, cap))

    def test_witt_coefficient_is_rejected(self):
        cfg = PrimeConfig.make(3)
        with pytest.raises(TypeError, match="unsupported bag coefficient"):
            normalize(cfg, [(cfg.witt(1, prec=4), Fr(0))], Fr(3))

    def test_l_max_bounds_the_exact_path(self):
        # 1023 = 1 + 2 + ... + 2^9 terminates after ten digits
        assert len(normalize(PrimeConfig.make(2), [(1023, Fr(0))], INF).digits) == 10
        with pytest.raises(PrecisionLoss, match="within l_max=4"):
            normalize(PrimeConfig.make(2, l_max=4), [(1023, Fr(0))], INF)

    def test_l_max_boundary_on_the_exact_path(self):
        # 15 = 1111 and 31 = 11111 in base 2: l_max digits pass, one more fails
        cfg = PrimeConfig.make(2, l_max=4)
        assert len(normalize(cfg, [(15, Fr(0))], INF).digits) == 4
        with pytest.raises(PrecisionLoss, match="within l_max=4"):
            normalize(cfg, [(31, Fr(0))], INF)


def coeffs(cfg):
    """Bag coefficients of all three forms."""
    p, r = cfg.p, cfg.r
    digit = st.lists(st.integers(0, p - 1), min_size=r, max_size=r).map(cfg.fq)
    return st.one_of(st.integers(-9, 9), digit,
                     st.tuples(st.integers(-4, 4), digit))


@st.composite
def bags(draw):
    """A field and a raw bag mixing all three coefficient forms."""
    p, r = draw(st.sampled_from(FIELDS))
    cfg = PrimeConfig.make(p, r)
    exp = st.builds(Fr, st.integers(-6, 6), st.sampled_from([1, 2, 3, p]))
    return cfg, draw(st.lists(st.tuples(coeffs(cfg), exp), max_size=8))


@st.composite
def int_bags(draw):
    """A field, a den (some not coprime to p) and a bag of int exponents."""
    p, r = draw(st.sampled_from(FIELDS))
    cfg = PrimeConfig.make(p, r)
    den = draw(st.sampled_from([1, 2, 3, 6, p, p * p, 2 * p]))
    exp = st.integers(-6 * den, 6 * den)
    return cfg, den, draw(st.lists(st.tuples(coeffs(cfg), exp), max_size=8))


finite_caps = st.builds(Fr, st.integers(-4, 12), st.sampled_from([1, 2, 3]))
hypothesis_settings = settings(max_examples=80, derandomize=True,
                               database=None, deadline=None)


class TestNormalizeProperties:
    @hypothesis_settings
    @given(bags(), finite_caps, finite_caps)
    def test_cap_monotone(self, cfg_bag, c1, c2):
        cfg, bag = cfg_bag
        c1, c2 = min(c1, c2), max(c1, c2)
        assert normalize(cfg, bag, c2).truncate(c1) == normalize(cfg, bag, c1)

    @hypothesis_settings
    @given(bags(), finite_caps)
    def test_exact_result_agrees_with_every_cap(self, cfg_bag, cap):
        cfg, bag = cfg_bag
        try:
            exact = normalize(cfg, bag, INF)
        except PrecisionLoss:
            return
        assert exact.truncate(cap) == normalize(cfg, bag, cap)

    @hypothesis_settings
    @given(bags(), st.one_of(finite_caps, st.just(INF)), st.randoms())
    def test_bag_order_is_irrelevant(self, cfg_bag, cap, rnd):
        cfg, bag = cfg_bag
        shuffled = list(bag)
        rnd.shuffle(shuffled)
        a, b = _outcome(cfg, bag, cap), _outcome(cfg, shuffled, cap)
        # an exact bag names the first digit it cannot lift
        assert a == b or (isinstance(a, str) and isinstance(b, str))

    @hypothesis_settings
    @given(bags(), st.one_of(finite_caps, st.just(INF)))
    def test_idempotent_on_normalized_bags(self, cfg_bag, cap):
        cfg, bag = cfg_bag
        x = _outcome(cfg, bag, cap)
        if isinstance(x, PHahn):
            assert normalize(cfg, x.digit_bag(), x.cap) == x


class TestExponentDenominator:
    """normalize(bag, cap, den=den) reads every exponent x as x/den."""

    @hypothesis_settings
    @given(int_bags(), st.one_of(finite_caps, st.just(INF)))
    def test_int_exponents_match_fractions(self, cfg_den_bag, cap):
        cfg, den, bag = cfg_den_bag
        fractions = [(c, Fr(x, den)) for c, x in bag]
        # equal results, or the same PrecisionLoss message on the exact path
        assert _outcome(cfg, bag, cap, den=den) == _outcome(cfg, fractions, cap)

    @hypothesis_settings
    @given(bags(), st.sampled_from([2, 3, 4, 9]),
           st.one_of(finite_caps, st.just(INF)))
    def test_mixed_exponents_over_den(self, cfg_bag, den, cap):
        cfg, bag = cfg_bag
        mixed = [(c, int(e) if e.denominator == 1 else e) for c, e in bag]
        scaled = [(c, e / den) for c, e in bag]
        assert _outcome(cfg, mixed, cap, den=den) == _outcome(cfg, scaled, cap)

    def test_output_exponents_are_reduced_fractions(self):
        cfg = PrimeConfig.make(3)
        out = normalize(cfg, [(1, 6), (1, 2), (1, -3)], Fr(5), den=6)
        assert out.digits == ((Fr(-1, 2), cfg.fq(1)), (Fr(1, 3), cfg.fq(1)),
                              (Fr(1), cfg.fq(1)))
        assert all(type(e) is Fr for e, _ in out.digits)


def _oracle_mul(a, b, cfg, pk):
    """a * b in Z[g]/(pk, modulus) by schoolbook product and reduction."""
    r = cfg.r
    out = [0] * (2 * r - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    for i in range(len(out) - 1, r - 1, -1):   # g^r = -(m_0 + ... + m_(r-1) g^(r-1))
        for j in range(r):
            out[i - r + j] -= out[i] * cfg.modulus[j]
    return [x % pk for x in out[:r]]


def _oracle_lift(cfg, digit, prec):
    """The Teichmüller lift of `digit` mod p^prec: the fixpoint of x -> x^q,
    each power by q schoolbook products."""
    pk = cfg.p ** prec
    x = [c % pk for c in digit]
    while True:
        y = [1] + [0] * (cfg.r - 1)
        for _ in range(cfg.q):
            y = _oracle_mul(y, x, cfg, pk)
        if y == x:
            return x
        x = y


def capped_oracle(cfg, bag, cap):
    """normalize(cfg, bag, cap) for (k, digit) coefficients and a finite cap,
    without the package's lift table or digit reader: each fractional-part
    bucket is summed in the WittElem ring from the oracle's own lifts, at
    exactly as many digits as lie below the cap, and its digits are read off
    greedily."""
    p = cfg.p
    buckets = {}
    for (k, d), e in bag:
        n = math.floor(e)
        buckets.setdefault(e - n, []).append((n, k, d))
    digits = []
    for q, items in buckets.items():
        n_min = min(n for n, _, _ in items)
        prec = math.ceil(cap - q) - n_min
        if prec <= 0:
            continue
        total = cfg.witt(0, prec=prec)
        for n, k, d in items:
            lift = cfg.witt(_oracle_lift(cfg, d.coeffs, prec), prec=prec)
            total = total + lift * (k * p ** (n - n_min))
        c = list(total.coeffs)
        for i in range(prec):
            pk = p ** (prec - i)
            d = [x % p for x in c]
            if any(d):
                digits.append((q + n_min + i, cfg.fq(d)))
            c = [(x - y) % pk // p for x, y in zip(c, _oracle_lift(cfg, d, prec - i))]
    return PHahn(cfg, tuple(sorted(digits, key=lambda t: t[0])), cap)


ORACLE_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (2, 3)]


@st.composite
def capped_bags(draw):
    """A field, a bag of (k, digit) terms and a finite cap.

    Digits come from a pool of at most three (so they repeat); multipliers
    are small, negative or large; the terms fall into up to three
    fractional parts; the cap lies 1/4 to 3 above the exponent of a term,
    often just above its bucket's offset."""
    p, r = draw(st.sampled_from(ORACLE_FIELDS))
    cfg = PrimeConfig.make(p, r)
    digit = st.lists(st.integers(0, p - 1), min_size=r, max_size=r).map(cfg.fq)
    pool = draw(st.lists(digit, min_size=1, max_size=3))
    fracs = draw(st.lists(st.sampled_from([Fr(0), Fr(1, 2), Fr(1, 3), Fr(2, 3),
                                           Fr(1, p), Fr(p - 1, p)]),
                          min_size=1, max_size=3))
    k = st.one_of(st.integers(-5, 5), st.integers(-10 ** 9, 10 ** 9),
                  st.builds(lambda s, j, c: s * p ** j + c, st.sampled_from([-1, 1]),
                            st.integers(1, 12), st.integers(-1, 1)))
    term = st.tuples(st.tuples(k, st.sampled_from(pool)),
                     st.builds(lambda n, q: n + q, st.integers(-3, 3),
                               st.sampled_from(fracs)))
    bag = draw(st.lists(term, min_size=1, max_size=10))
    low = draw(st.sampled_from(bag))[1]
    return cfg, bag, low + Fr(draw(st.integers(1, 12)), 4)


class TestCappedOracle:
    """Capped normalize against capped_oracle, which shares no code with
    the kernel's lift table or digit reader."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(capped_bags())
    def test_matches_witt_ring_sum(self, cfg_bag_cap):
        cfg, bag, cap = cfg_bag_cap
        assert normalize(cfg, bag, cap) == capped_oracle(cfg, bag, cap)

    @pytest.mark.parametrize("p,r,digit,k,cap,expected", [
        # 1 + 1 = 2 = [2] + [1]*3 at p = 3 (see test_p3_one_plus_one)
        (3, 1, [1], 2, 4, [(0, [2]), (1, [1])]),
        # [2] in F_9 is one digit: its lift is -1, not 2, and all of it goes
        (3, 2, [2, 0], 1, 3, [(0, [2, 0])]),
    ], ids=["carry", "prime-field-digit"])
    def test_known_buckets(self, p, r, digit, k, cap, expected):
        cfg = PrimeConfig.make(p, r)
        bag = [((k, cfg.fq(digit)), Fr(0))]
        want = tuple((Fr(e), cfg.fq(d)) for e, d in expected)
        assert capped_oracle(cfg, bag, Fr(cap)).digits == want
        assert normalize(cfg, bag, Fr(cap)).digits == want


class TestAddMul:
    def test_identities(self):
        cfg = PrimeConfig.make(3)
        rng = random.Random(6)
        for _ in range(30):
            a = random_phahn(cfg, rng)
            z = PHahn.zero(cfg, cap=a.cap)
            assert (a + z).digits == a.digits
            prod = a * PHahn.one(cfg)
            assert prod.digits == a.digits

    def test_single_digit_product(self):
        cfg = PrimeConfig.make(3)
        a = PHahn.monomial(cfg, 1, Fr(1, 3), cap=Fr(3))
        b = PHahn.monomial(cfg, 1, Fr(2, 3), cap=Fr(3))
        prod = a * b
        assert prod.digit_at(Fr(1)) == cfg.fq(1)

    def test_frakA_square_cross_oracle(self):
        cfg = PrimeConfig.make(2)
        a2 = frak_a(cfg, Fr(2), terms=2)  # [1]p^(-1/2) + [1]p^(-1/4), cap 2
        by_digits = a2 * a2
        by_decomp = mul_via_decomposition(a2, a2)
        assert by_digits == by_decomp
        # hand derivation: p^-1 + 2 p^(-3/4) + p^(-1/2)
        #                = p^-1 + p^(-1/2) + p^(1/4)
        assert by_digits.digit_at(Fr(-1)) == cfg.fq(1)
        assert by_digits.digit_at(Fr(-1, 2)) == cfg.fq(1)
        assert by_digits.digit_at(Fr(1, 4)) == cfg.fq(1)
        assert len([e for e, _ in by_digits.digits if e < Fr(1)]) == 3

    @pytest.mark.parametrize("p,r", [(2, 1), (3, 1), (2, 2), (3, 2)])
    def test_ring_axioms_random(self, p, r):
        cfg = PrimeConfig.make(p, r)
        rng = random.Random(p * 10 + r)
        for _ in range(40):
            a, b, c = (random_phahn(cfg, rng) for _ in range(3))
            lhs = a * (b + c)
            rhs = a * b + a * c
            assert lhs.agree_below(rhs, min(lhs.cap, rhs.cap))
            lhs2 = (a * b) * c
            rhs2 = a * (b * c)
            assert lhs2.agree_below(rhs2, min(lhs2.cap, rhs2.cap))
            assert a + b == b + a
            assert a * b == b * a

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_val_additive(self, p):
        cfg = PrimeConfig.make(p)
        rng = random.Random(p)
        for _ in range(60):
            a, b = random_phahn(cfg, rng), random_phahn(cfg, rng)
            if a.digits and b.digits:
                assert (a * b).valuation() == a.valuation() + b.valuation()

    def test_sub_cancels_exactly(self):
        cfg = PrimeConfig.make(2)
        a = frak_a(cfg, Fr(1), terms=3)
        d = a - a
        assert d.is_zero_below_cap()

    def test_monomial_drops_digit_at_or_above_cap(self):
        cfg = PrimeConfig.make(2)
        for exp in (Fr(3), Fr(5)):
            m = PHahn.monomial(cfg, 1, exp, cap=Fr(3))
            assert m.digits == () and m.cap == Fr(3)
        assert PHahn.monomial(cfg, 1, Fr(2), cap=Fr(3)).digits == ((Fr(2), cfg.fq(1)),)

    @pytest.mark.parametrize("p,r", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)])
    def test_pow_matches_repeated_decomposition_product(self, p, r):
        cfg = PrimeConfig.make(p, r)
        rng = random.Random(11 * p + r)
        for _ in range(12):
            x = random_phahn(cfg, rng)
            assert x ** 0 == PHahn.one(cfg)
            expected = x
            for n in range(1, 9):
                if n > 1:
                    expected = mul_via_decomposition(expected, x)
                assert x ** n == expected

    def test_neg_odd_p_is_exact(self):
        cfg = PrimeConfig.make(5)
        a = PHahn.monomial(cfg, 2, Fr(1, 2))
        n = -a
        assert n.is_exact()
        s = a + n.truncate(Fr(3))
        assert s.is_zero_below_cap()


RING_FIELDS = [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 3)]


@st.composite
def phahn_triples(draw):
    """Three values over one field, up to 4 digits each, capped or exact."""
    cfg = PrimeConfig.make(*draw(st.sampled_from(RING_FIELDS)))
    digit = st.sampled_from(list(cfg.fq_elements())[1:])

    def value():
        cap = draw(st.one_of(
            st.builds(Fr, st.integers(1, 8), st.sampled_from([1, 2])),
            st.just(INF)))
        terms = draw(st.dictionaries(st.sampled_from(EXP_POOL), digit, max_size=4))
        return PHahn(cfg, sorted((e, d) for e, d in terms.items() if e < cap), cap)

    return value(), value(), value()


def _or_loss(compute, *operands):
    """compute(), or None when an exact operand makes it combine digits that
    have no integer Teichmüller lift."""
    try:
        return compute()
    except PrecisionLoss:
        assert any(x.is_exact() for x in operands)
        return None


class TestRingAxiomProperties:
    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(phahn_triples())
    def test_ring_axioms(self, abc):
        a, b, c = abc
        assert _or_loss(lambda: a + b, a, b) == _or_loss(lambda: b + a, a, b)
        assert _or_loss(lambda: a * b, a, b) == _or_loss(lambda: b * a, a, b)
        if a.is_exact() and b.is_exact() and not {e for e, _ in a.terms} & {
                e for e, _ in b.terms}:
            # disjoint exact supports: nothing combines, nothing is lifted
            assert a + b == PHahn(a.cfg, sorted(a.terms + b.terms), INF)
        for lhs, rhs in ((lambda: (a + b) + c, lambda: a + (b + c)),
                         (lambda: a * (b + c), lambda: a * b + a * c),
                         (lambda: (a * b) * c, lambda: a * (b * c))):
            lhs, rhs = _or_loss(lhs, a, b, c), _or_loss(rhs, a, b, c)
            if lhs is not None and rhs is not None:
                assert lhs.agree_below(rhs, min(lhs.cap, rhs.cap))


class TestCrossRing:
    def test_agree_below_rejects_the_other_ring(self):
        cfg = PrimeConfig.make(2)
        t = EqHahn.monomial(cfg, 1, Fr(1), cap=Fr(2))
        p = PHahn.monomial(cfg, 1, Fr(1), cap=Fr(2))
        with pytest.raises(TypeError):
            t.agree_below(p, Fr(1))
        with pytest.raises(TypeError):
            p.agree_below(t, Fr(1))

    def test_equal_terms_in_different_rings_are_unequal(self):
        cfg = PrimeConfig.make(2)
        t = EqHahn.monomial(cfg, 1, Fr(1), cap=Fr(2))
        p = PHahn.monomial(cfg, 1, Fr(1), cap=Fr(2))
        assert t.terms == p.terms and t.cap == p.cap
        assert t != p and p != t


class TestVal:
    def test_examples(self):
        cfg = PrimeConfig.make(2)
        a = frak_a(cfg, Fr(-1, 8))
        assert a.digits == ((Fr(-1, 2), cfg.fq(1)), (Fr(-1, 4), cfg.fq(1)))
        assert a.valuation() == Fr(-1, 2)
        assert PHahn.zero(cfg).valuation() == INF

    def test_capped_zero_raises(self):
        cfg = PrimeConfig.make(3)
        with pytest.raises(PrecisionLoss):
            PHahn.zero(cfg, cap=Fr(1)).valuation()

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_shift_by_one(self, p):
        cfg = PrimeConfig.make(p)
        a = frak_a(cfg, Fr(0), terms=4)
        assert a.shift(1).valuation() == 1 - Fr(1, p)


class TestFrakA:
    def test_boundary_exponent_excluded(self):
        for p in (2, 3, 5):
            cfg = PrimeConfig.make(p)
            assert frak_a(cfg, Fr(-1, 2)).digits == ()

    def test_cap_zero_requires_terms(self):
        cfg = PrimeConfig.make(3)
        with pytest.raises(ValueError):
            frak_a(cfg, Fr(0))
        assert len(frak_a(cfg, Fr(0), terms=3).digits) == 3

    def test_negative_cap_enumeration(self):
        cfg = PrimeConfig.make(2)
        a = frak_a(cfg, Fr(-1, 8))
        assert [e for e, _ in a.digits] == [Fr(-1, 2), Fr(-1, 4)]


class TestFromInteger:
    def test_binary_three(self):
        cfg = PrimeConfig.make(2)
        x = from_integer(cfg, 3, Fr(5))
        assert [e for e, _ in x.digits] == [Fr(0), Fr(1)]

    def test_p3_two_matches_digit_oracle(self):
        cfg = PrimeConfig.make(3)
        x = from_integer(cfg, 2, Fr(6))
        oracle = digit_decompose(cfg.witt(2, prec=6))
        expected = tuple((Fr(i), d) for i, d in enumerate(oracle) if not d.is_zero())
        assert x.digits == expected

    def test_zero(self):
        for p in (2, 3, 5):
            cfg = PrimeConfig.make(p)
            assert from_integer(cfg, 0, Fr(4)).is_zero_below_cap()

    @pytest.mark.parametrize("p,n", [(2, -1), (2, -7), (3, -2), (5, -9)])
    def test_negative_complement(self, p, n):
        cfg = PrimeConfig.make(p)
        cap = Fr(5)
        x = from_integer(cfg, n, cap)
        # recompose digits in W and compare with n mod p^5
        acc = cfg.witt(0, prec=5)
        for e, d in x.digits:
            acc = acc + teichmueller(d, prec=5) * cfg.witt(p ** int(e), prec=5)
        assert acc == cfg.witt(n, prec=5)

    @pytest.mark.parametrize("p,n", [(2, 13), (3, 25), (5, 7)])
    def test_positive_roundtrip(self, p, n):
        cfg = PrimeConfig.make(p)
        x = from_integer(cfg, n, Fr(8))
        acc = cfg.witt(0, prec=8)
        for e, d in x.digits:
            acc = acc + teichmueller(d, prec=8) * cfg.witt(p ** int(e), prec=8)
        assert acc == cfg.witt(n, prec=8)


class TestDecompose:
    def test_single_negative_digit(self):
        cfg = PrimeConfig.make(2)
        x = PHahn.monomial(cfg, 1, Fr(-1, 2), cap=Fr(1, 2))
        fd = decompose(x)
        assert len(fd.entries) == 1
        q, off, unit = fd.entries[0]
        assert q == Fr(1, 2) and off == -1
        assert unit.residue() == cfg.fq(1)

    def test_zero(self):
        cfg = PrimeConfig.make(3)
        assert decompose(PHahn.zero(cfg, cap=Fr(1))).entries == ()

    def test_integer_class_merges(self):
        cfg = PrimeConfig.make(3)
        x = normalize(cfg, [(cfg.fq(2), Fr(0)), (cfg.fq(1), Fr(1))], Fr(3))
        fd = decompose(x)
        assert len(fd.entries) == 1
        q, off, unit = fd.entries[0]
        assert q == 0 and off == 0
        # [2] + [1]*3 = -1 + 3 = 2 in Z/27
        assert unit == cfg.witt(2, prec=unit.prec)

    @pytest.mark.parametrize("p,r", [(2, 1), (2, 2), (3, 1), (3, 2)])
    def test_roundtrip_random(self, p, r):
        cfg = PrimeConfig.make(p, r)
        rng = random.Random(100 + p + r)
        for _ in range(250):
            x = random_phahn(cfg, rng)
            assert recompose(decompose(x)) == x


class TestCrossOracle:
    @pytest.mark.parametrize("p,r", [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (5, 2)])
    def test_mul_matches_decomposition_route(self, p, r):
        cfg = PrimeConfig.make(p, r)
        rng = random.Random(7 * p + r)
        for _ in range(60):
            a, b = random_phahn(cfg, rng), random_phahn(cfg, rng)
            by_digits = a * b
            by_decomp = mul_via_decomposition(a, b)
            assert by_digits == by_decomp

    def test_known_carry_case(self):
        cfg = PrimeConfig.make(3)
        # ([1]p^(1/3) + [2]p^(2/3))^2: the [2]*[2] = [4]=[1] term at 4/3 and
        # cross terms 2*[2] at p^1 exercise both carry paths
        x = PHahn(cfg, ((Fr(1, 3), cfg.fq(1)), (Fr(2, 3), cfg.fq(2))), Fr(4))
        assert x * x == mul_via_decomposition(x, x)


class TestReplicationIdentity:
    @pytest.mark.parametrize("p,N", [(2, 1), (3, 1), (2, 2)])
    def test_one_minus_pN_times_replication(self, p, N):
        cfg = PrimeConfig.make(p)
        rng = random.Random(19 + p + N)
        for _ in range(10):
            x = random_phahn(cfg, rng, cap=Fr(2))
            if not x.digits:
                continue
            cap = Fr(2)
            T = 8
            repl = PHahn.zero(cfg, cap=cap + 1)
            for t in range(T):
                repl = repl + x.shift(N * t)
            lhs = from_integer(cfg, 1 - p ** N, cap + 1 - x.valuation()) * repl
            assert lhs.agree_below(x, min(cap, x.valuation() + N * T))
