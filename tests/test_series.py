"""The shared truncated-series core: int exponents over one canonical den.

A value stores `den`, the lcm of its reduced exponent denominators, and its
terms as (int numerator, coefficient) pairs over it; `.terms` is the
Fraction view.  Values built over different denominators must still be equal
and hash equal, and `den` must be minimal.
"""

import math
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings, strategies as st

from hahnforge import hahn_padic
from hahnforge.exactnum import FqElem, PrimeConfig
from hahnforge.hahn_eqchar import EqHahn
from hahnforge.hahn_padic import PHahn, normalize
from hahnforge.newton import _taylor_shift
from hahnforge.parsing import format_series

INF = math.inf
FIELDS = [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)]


@st.composite
def values_over_two_dens(draw):
    """A ring value built from Fraction exponents, and the same value built
    from int exponents over a multiple of their denominator."""
    ring = draw(st.sampled_from([EqHahn, PHahn]))
    p, r = draw(st.sampled_from(FIELDS))
    cfg = PrimeConfig.make(p, r)
    den = draw(st.sampled_from([1, 2, 4, 6, p, p * p]))
    scale = draw(st.sampled_from([1, 2, 3, p]))
    digit = st.lists(st.integers(0, p - 1), min_size=r, max_size=r).map(cfg.fq)
    terms = draw(st.lists(st.tuples(digit, st.integers(-3 * den, 3 * den)),
                          max_size=6))
    cap = draw(st.one_of(st.just(INF), st.builds(Fr, st.integers(-4, 8),
                                                  st.sampled_from([1, 2, 3]))))
    if ring is PHahn:
        if cap == INF:  # exact sums need integer lifts: one digit per exponent
            terms = list({x: (d, x) for d, x in terms}.values())
        a = normalize(cfg, [(d, Fr(x, den)) for d, x in terms], cap)
        b = normalize(cfg, [(d, x * scale) for d, x in terms], cap,
                      den=den * scale)
        return a, b
    merged = {}
    for d, x in terms:
        merged[x] = merged[x] + d if x in merged else d
    ints = sorted((x * scale, d.coeffs) for x, d in merged.items()
                  if not d.is_zero() and Fr(x, den) < cap)
    a = EqHahn(cfg, [(Fr(x, den), d) for d, x in terms], cap)
    return a, EqHahn._trusted(cfg, den * scale, ints, cap)


def _minimal_den(value):
    return math.lcm(*(e.denominator for e, _ in value.terms))


class TestCanonicalDen:
    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(values_over_two_dens())
    def test_values_over_two_dens_agree(self, ab):
        a, b = ab
        assert a == b and hash(a) == hash(b)
        assert a.den == b.den == _minimal_den(a)
        assert a.terms == b.terms
        assert a.terms == tuple((Fr(n, a.den), FqElem(a.cfg, c)) for n, c in a.ints)
        assert format_series(a, type(a).BASE) == format_series(b, type(b).BASE)
        again = type(a)(a.cfg, a.terms, a.cap)
        assert again == a and hash(again) == hash(a) and again.den == a.den
        step = Fr(1, 2 * a.cfg.p)
        assert a.shift(step).shift(-step) == a
        for bound in (Fr(0), Fr(1, 2)):
            cut = a.truncate(bound)
            assert cut.den == _minimal_den(cut)

    def test_quarters_equal_halves(self):
        cfg = PrimeConfig.make(3)
        one = cfg.fq(1)
        halves = EqHahn(cfg, [(Fr(1, 2), one)])
        quarters = EqHahn._trusted(cfg, 4, [(2, one.coeffs)], INF)
        assert quarters == halves and hash(quarters) == hash(halves)
        assert quarters.den == 2
        fractions = normalize(cfg, [(1, Fr(1, 2)), (2, Fr(3, 2))], Fr(4))
        ints = normalize(cfg, [(1, 2), (2, 6)], Fr(4), den=4)
        assert ints == fractions and hash(ints) == hash(fractions)
        assert ints.den == 2

    @pytest.mark.parametrize("ring", [EqHahn, PHahn])
    def test_cancelled_terms_leave_den_one(self, ring):
        cfg = PrimeConfig.make(3)
        a = ring.monomial(cfg, 1, Fr(1, 2)) + ring.monomial(cfg, 1, 1)
        b = ring.monomial(cfg, 1, Fr(1, 2))
        assert (a - b).den == 1
        assert (a - b) == ring.monomial(cfg, 1, 1)
        assert (b - b).den == 1 and (b - b) == ring.zero(cfg)

    def test_terms_view_is_built_once(self):
        cfg = PrimeConfig.make(2)
        x = normalize(cfg, [(1, 3), (1, 5)], Fr(4), den=8)
        assert x.terms is x.terms
        assert x.digits == ((Fr(3, 8), cfg.fq(1)), (Fr(5, 8), cfg.fq(1)))


def test_normalize_builds_no_fraction_and_one_fq_per_digit(monkeypatch):
    """A capped certificate-like bag over den = 27 with repeated digits: no
    Fraction is built, and an FqElem only as a `teichmueller` argument, once
    per (digit, Witt length)."""
    cfg = PrimeConfig.make(3, 2)
    digits = [cfg.fq([1, 1]), cfg.fq([2, 0]), cfg.fq([0, 1])]
    bag = [((k, digits[k % 3]), 5 * k - 40) for k in range(1, 40)]
    bag += [(k, 9 * k - 27) for k in range(-4, 5)]
    cap, fractions, built, asked = Fr(3), [], [], []
    new, init, lift = Fr.__new__, FqElem.__init__, hahn_padic.teichmueller

    def counting_new(cls, *args, **kwargs):
        fractions.append(args)
        return new(cls, *args, **kwargs)

    def counting_init(self, cfg, coeffs):
        built.append(self)
        init(self, cfg, coeffs)

    def counting_lift(a, prec):
        asked.append((a, prec))
        return lift(a, prec)

    monkeypatch.setattr(Fr, "__new__", counting_new)
    monkeypatch.setattr(FqElem, "__init__", counting_init)
    monkeypatch.setattr(hahn_padic, "teichmueller", counting_lift)
    x = normalize(cfg, bag, cap, den=27)
    monkeypatch.undo()
    assert fractions == []
    assert asked and len(built) == len(asked)
    assert all(d is a for d, (a, _) in zip(built, asked))
    keys = [(a.coeffs, prec) for a, prec in asked]
    assert len(keys) == len(set(keys))
    assert x.ints and all(type(c) is tuple for _, c in x.ints)


def _assert_tuple_coeffs(value):
    """Every stored coefficient is an r-tuple of ints in [0, p), and the
    `.terms` view holds the matching FqElems."""
    cfg = value.cfg
    for _, c in value.ints:
        assert type(c) is tuple and len(c) == cfg.r
        assert all(type(x) is int and 0 <= x < cfg.p for x in c)
    assert [c for _, c in value.terms] == [FqElem(cfg, c) for _, c in value.ints]


@pytest.mark.parametrize("p,r", [(2, 1), (3, 1), (2, 2), (3, 2)],
                         ids=["F2", "F3", "F4", "F9"])
def test_every_operation_stores_coefficient_tuples(p, r):
    cfg, big = PrimeConfig.make(p, r), PrimeConfig.make(p, 2 * r)
    g, one, cap = cfg.fq([0, 1] if r > 1 else p - 1), cfg.fq(1), Fr(3)
    e = EqHahn(cfg, [(Fr(-1, 2), g), (0, one), (Fr(1, 3), g + one)], Fr(4))
    f = EqHahn.monomial(cfg, g, Fr(-1, 3)) + EqHahn.monomial(cfg, one, 1)
    a = normalize(cfg, [(g, Fr(-1, 2)), ((2, g), 0), (3, Fr(1, 3))], cap)
    b = PHahn(cfg, [(Fr(-1, 3), g), (Fr(1), one)], cap)
    values = [e, f, e + f, e - f, e * f, -e, e.shift(Fr(1, 5)), e.truncate(1),
              e.embed(big), e.frobenius(), e.inverse(Fr(2)),
              a, b, PHahn.monomial(cfg, g, Fr(1, 2), cap), a + b, a - b, a * b,
              -a, a.shift(Fr(1, 5)), a.truncate(1), a.embed(big),
              *_taylor_shift([e, f, EqHahn.one(cfg)],
                             EqHahn.monomial(cfg, g, Fr(-1, 6))),
              *_taylor_shift([a, b, PHahn.one(cfg, cap)],
                             PHahn.monomial(cfg, g, Fr(-1, 6), cap))]
    assert all(v.ints for v in values)
    for v in values:
        _assert_tuple_coeffs(v)


# ---------------------------------------------------------------------------
# sum, difference, product and negation, written once for both rings
# ---------------------------------------------------------------------------

ARITH_FIELDS = [(2, 1), (3, 1), (2, 2), (3, 2)]


@st.composite
def operand_pairs(draw, ring):
    """Two values of `ring` over F_2, F_3, F_4 or F_9 on a small exponent
    grid, so that products share exponents; p-adic values are capped, since
    an exact p-adic sum needs digits with integer lifts."""
    cfg = PrimeConfig.make(*draw(st.sampled_from(ARITH_FIELDS)))
    digit = st.sampled_from(list(cfg.fq_elements())[1:])
    exps = st.builds(Fr, st.integers(-3, 6), st.sampled_from([1, 2, 3]))
    caps = st.builds(Fr, st.integers(2, 10), st.sampled_from([1, 2]))
    pair = []
    for _ in range(2):
        terms = draw(st.lists(st.tuples(exps, digit), max_size=5))
        if ring is PHahn:
            pair.append(normalize(cfg, [(d, e) for e, d in terms], draw(caps)))
        else:
            pair.append(EqHahn(cfg, terms, draw(st.one_of(st.just(INF), caps))))
    return tuple(pair)


def schoolbook_product(a, b):
    """(terms, cap) of a * b from the FqElem views: every pairwise product
    summed by exponent, without merged_terms or the series core's bag."""
    if a.is_exact_zero() or b.is_exact_zero():
        return (), INF
    cap = min(a.cap + b.val_lower_bound(), b.cap + a.val_lower_bound())
    sums = {}
    for ea, ca in a.terms:
        for eb, cb in b.terms:
            sums[ea + eb] = sums.get(ea + eb, a.cfg.fq(0)) + ca * cb
    terms = sorted((e, c) for e, c in sums.items() if e < cap and not c.is_zero())
    return tuple(terms), cap


class TestSharedArithmetic:
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(operand_pairs(EqHahn))
    def test_eq_product_matches_schoolbook(self, ab):
        a, b = ab
        product = a * b
        assert (product.terms, product.cap) == schoolbook_product(a, b)

    @pytest.mark.parametrize("p", [2, 3], ids=["F4", "F9"])
    def test_repeated_products_enter_the_bag_with_a_count(self, p,
                                                          monkeypatch):
        # (g, h) lands at t^1 twice and (g, g + 1) at t^2 twice
        cfg = PrimeConfig.make(p, 2)
        g, one = cfg.fq([0, 1]), cfg.fq(1)
        a = EqHahn(cfg, [(0, g), (1, g), (2, g)])
        b = EqHahn(cfg, [(0, g + one), (1, g + one), (Fr(1, 2), one)])
        canonical, counts = EqHahn._canonical, []

        def recording(cls, cfg, bag, cap, den):
            counts.extend(k for (k, _), _ in bag)
            return canonical(cfg, bag, cap, den)

        monkeypatch.setattr(EqHahn, "_canonical", classmethod(recording))
        product = a * b
        assert max(counts) == 2
        assert (product.terms, product.cap) == schoolbook_product(a, b)

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(st.sampled_from([EqHahn, PHahn]).flatmap(operand_pairs))
    def test_difference_and_negation(self, ab):
        a, b = ab
        assert a - b == a + (-b)
        assert -(-a) == a
        assert (a + (-a)).is_zero_below_cap()

    @pytest.mark.parametrize("r", [1, 2], ids=["F2", "F4"])
    def test_padic_negation_at_2_carries_below_the_cap(self, r):
        # -1 = 1 + 2 + 4 + ... and digits are multiplicative: -[d] = sum [d] p^i
        cfg = PrimeConfig.make(2, r)
        d = cfg.fq([0, 1] if r > 1 else 1)
        a = PHahn.monomial(cfg, d, Fr(1, 2), cap=Fr(7, 2))
        assert -a == PHahn(cfg, [(Fr(1, 2), d), (Fr(3, 2), d), (Fr(5, 2), d)],
                           Fr(7, 2))
        assert -EqHahn.monomial(cfg, d, Fr(1, 2)) == EqHahn.monomial(cfg, d, Fr(1, 2))
