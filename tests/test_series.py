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

from hahnforge.exactnum import FqElem, PrimeConfig
from hahnforge.hahn_eqchar import EqHahn
from hahnforge.hahn_padic import PHahn, normalize
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
    ints = sorted((x * scale, d) for x, d in merged.items()
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
        assert a.terms == tuple((Fr(n, a.den), c) for n, c in a.ints)
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
        quarters = EqHahn._trusted(cfg, 4, [(2, one)], INF)
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
    """A capped certificate-like bag over den = 27 with repeated digits."""
    cfg = PrimeConfig.make(3, 2)
    digits = [cfg.fq([1, 1]), cfg.fq([2, 0]), cfg.fq([0, 1])]
    bag = [((k, digits[k % 3]), 5 * k - 40) for k in range(1, 40)]
    bag += [(k, 9 * k - 27) for k in range(-4, 5)]
    cap, fractions, built = Fr(3), [], []
    new, init = Fr.__new__, FqElem.__init__

    def counting_new(cls, *args, **kwargs):
        fractions.append(args)
        return new(cls, *args, **kwargs)

    def counting_init(self, cfg, coeffs):
        built.append(coeffs)
        init(self, cfg, coeffs)

    monkeypatch.setattr(Fr, "__new__", counting_new)
    monkeypatch.setattr(FqElem, "__init__", counting_init)
    x = normalize(cfg, bag, cap, den=27)
    monkeypatch.undo()
    assert fractions == []
    assert len(built) == len(set(built))
    assert len(x.ints) > len(built)
