import functools
import itertools
import io
import random
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings, strategies as st

from hahnforge import exactnum
from hahnforge.errors import DivisionByZero, NotAUnit, ZeroPolynomial
from hahnforge.exactnum import (
    PrimeConfig,
    digit_decompose,
    find_modulus,
    fq_poly_roots,
    is_prime,
    rational_p_val,
    subfield_embedding,
    teichmueller,
)


def naive_mul_mod(a, b, modulus, q):
    """Independent oracle: schoolbook convolution plus long division."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    deg = len(modulus) - 1
    for i in range(len(out) - 1, deg - 1, -1):
        t = out[i] % q
        out[i] = 0
        for j in range(deg):
            out[i - deg + j] -= t * modulus[j]
    return [x % q for x in out[:deg]] + [0] * max(0, deg - len(out))


def fixpoint_lift(a, prec):
    """Independent oracle: iterate x -> x^q mod (p^prec, modulus) to its
    fixpoint, each power by q schoolbook multiplications."""
    cfg = a.cfg
    pk = cfg.p ** prec
    x = [c % pk for c in a.coeffs]
    while True:
        y = [1] + [0] * (cfg.r - 1)
        for _ in range(cfg.q):
            y = naive_mul_mod(y, x, cfg.modulus, pk)
        if y == x:
            return tuple(x)
        x = y


def horner(coeffs, x):
    acc = x.cfg.fq(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def exhaustive_roots(coeffs):
    """Independent oracle: evaluate the polynomial at every field element."""
    return {x for x in coeffs[0].cfg.fq_elements() if horner(coeffs, x).is_zero()}


def base_p_digits(n, p, width):
    return [n // p ** i % p for i in range(width)]


def naive_rem(c, divisor, p):
    """Independent oracle: remainder of c by a monic divisor over F_p."""
    c, d = list(c), len(divisor) - 1
    for i in range(len(c) - 1, d - 1, -1):
        t = c[i] % p
        for j in range(d + 1):
            c[i - d + j] -= t * divisor[j]
    return [x % p for x in c[:d]]


def trial_division_irreducible(coeffs, p):
    """Independent oracle: no monic divisor of degree 1 .. deg/2 over F_p."""
    deg = len(coeffs) - 1
    return all(any(naive_rem(coeffs, base_p_digits(n, p, d) + [1], p))
               for d in range(1, deg // 2 + 1) for n in range(p ** d))


def trial_division_least_degree(coeffs, p):
    """Independent oracle: the least degree of a monic divisor over F_p of
    degree 1 .. deg/2, else the degree."""
    deg = len(coeffs) - 1
    return next((d for d in range(1, deg // 2 + 1) for n in range(p ** d)
                 if not any(naive_rem(coeffs, base_p_digits(n, p, d) + [1], p))),
                deg)


def first_irreducible(p, r):
    """Independent oracle for find_modulus: the same base-p scan, tested by
    trial division."""
    for n in range(p ** r):
        coeffs = tuple(base_p_digits(n, p, r) + [1])
        if trial_division_irreducible(coeffs, p):
            return coeffs


class TestFindModulus:
    def test_degree_one_is_x(self):
        assert find_modulus(2, 1) == (0, 1)
        assert find_modulus(5, 1) == (0, 1)

    def test_f4(self):
        assert find_modulus(2, 2) == (1, 1, 1)  # x^2+x+1

    def test_f9(self):
        assert find_modulus(3, 2) == (1, 0, 1)  # x^2+1, rootless mod 3

    def test_reductions_are_irreducible(self):
        for p, r in [(2, 3), (3, 3), (5, 2), (2, 4)]:
            m = find_modulus(p, r)
            assert len(m) == r + 1 and m[-1] == 1
            # no roots when r <= 3 would not prove irreducibility for r=4;
            # spot-check by trial multiplication of all lower-degree pairs
            cfg = PrimeConfig.make(p, r)
            assert cfg.modulus == m

    def test_custom_modulus_validation(self):
        # x^2 + 1 is irreducible mod 3 but splits mod 2 as (x+1)^2
        cfg = PrimeConfig.make(3, r=2, modulus=(1, 0, 1))
        assert cfg.modulus == (1, 0, 1)
        with pytest.raises(ValueError):
            PrimeConfig.make(2, r=2, modulus=(1, 0, 1))
        with pytest.raises(ValueError):
            PrimeConfig.make(3, r=2, modulus=(1, 0, 2))  # not monic

    def test_scan_matches_trial_division_up_to_2_16(self):
        # every (p, r) with p^r <= 2^16; __wrapped__ bypasses the cache
        fields = [(p, r) for p in range(2, 2 ** 16 + 1) if is_prime(p)
                  for r in range(1, 17) if p ** r <= 2 ** 16]
        assert len(fields) == 6635
        for p, r in fields:
            assert find_modulus.__wrapped__(p, r) == first_irreducible(p, r)

    @pytest.mark.parametrize("p,degree", [(2, 8), (3, 5), (5, 4), (7, 3)])
    def test_rabin_matches_trial_division_on_every_monic(self, p, degree):
        # the distinct-degree ladder's least factor degree, and the
        # irreducibility test read from it
        F = exactnum._FpPolys(p)
        for d in range(1, degree + 1):
            for n in range(p ** d):
                coeffs = tuple(base_p_digits(n, p, d) + [1])
                least = trial_division_least_degree(coeffs, p)
                assert F.least_degree(list(coeffs)) == least, coeffs
                assert exactnum._fp_irreducible(coeffs, p) == (least == d), coeffs

    @pytest.mark.parametrize("p,r,degree", [(2, 2, 4), (3, 2, 2)])
    def test_ladder_degree_is_the_least_field_with_a_root(self, p, r, degree):
        # over F_q, q = p^r, the least factor degree of a monic f is the
        # least k for which f has a root in F_(q^k), found by evaluation
        cfg = PrimeConfig.make(p, r)
        F, elems = exactnum._FqPolys(cfg), list(cfg.fq_elements())
        fields = [PrimeConfig.make(p, r * k) for k in range(1, degree + 1)]
        for d in range(1, degree + 1):
            for n in range(cfg.q ** d):
                poly = [elems[n // cfg.q ** i % cfg.q] for i in range(d)] + [cfg.fq(1)]
                k = next(k for k, big in enumerate(fields, 1) if exhaustive_roots(
                    [subfield_embedding(c, big) for c in poly]))
                assert F.least_degree([c.coeffs for c in poly]) == k, poly

    def test_degree_30_modulus(self):
        assert find_modulus(2, 30) == (1, 1) + (0,) * 28 + (1,)  # x^30+x+1

    @pytest.mark.parametrize("kwargs,message", [
        ({"r": 0}, "r must be >= 1"),
        ({"r": -2}, "r must be >= 1"),
        ({"l_max": 0}, "l_max must be >= 1"),
        ({"l_max": -3}, "l_max must be >= 1"),
    ])
    def test_sizes_below_one_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            PrimeConfig.make(2, **kwargs)


class TestPowMod:
    @pytest.mark.parametrize("p,r", [(2, 2), (3, 2), (2, 3), (5, 3)])
    def test_matches_repeated_multiplication(self, p, r):
        cfg = PrimeConfig.make(p, r)
        rng = random.Random(p * r)
        for _ in range(3):
            a = [rng.randrange(p) for _ in range(r)]
            want = [1] + [0] * (r - 1)
            for e in range(65):
                assert exactnum._poly_powmod(a, e, cfg.modulus, p) == want
                want = naive_mul_mod(want, a, cfg.modulus, p)

    def test_power_zero_is_one(self):
        cfg = PrimeConfig.make(3, 2)
        assert exactnum._poly_powmod([0, 0], 0, cfg.modulus, 3) == [1, 0]
        assert cfg.fq([2, 1]) ** 0 == cfg.fq(1)

    def test_inverse_at_q_961_makes_no_products(self, monkeypatch):
        # extended Euclid on a and the field modulus works on ints alone
        cfg = PrimeConfig.make(31, 2)
        a = cfg.fq([3, 5])
        calls = []
        mulmod = exactnum._poly_mulmod
        monkeypatch.setattr(exactnum, "_poly_mulmod",
                            lambda *args: calls.append(1) or mulmod(*args))
        inv = a.inv()
        assert len(calls) == 0
        monkeypatch.undo()
        assert a * inv == cfg.fq(1)


def power_inverse(cfg, a):
    """Independent oracle: a^(q-2) by schoolbook square-and-multiply."""
    out, base, e = [1] + [0] * (cfg.r - 1), list(a), cfg.q - 2
    while e:
        if e & 1:
            out = naive_mul_mod(out, base, cfg.modulus, cfg.p)
        base = naive_mul_mod(base, base, cfg.modulus, cfg.p)
        e >>= 1
    return tuple(out)


class TestFqInverse:
    # every field with q <= 256: 54 prime fields and 16 extensions
    FIELDS = [(p, r) for p in range(2, 257) if is_prime(p)
              for r in range(1, 9) if p ** r <= 256]

    @pytest.mark.parametrize("p,r", FIELDS, ids=[f"{p}^{r}" for p, r in FIELDS])
    def test_every_nonzero_element_matches_the_power(self, p, r):
        cfg = PrimeConfig.make(p, r)
        polys = exactnum._FqPolys(cfg)
        for a in cfg.fq_elements():
            if a.is_zero():
                continue
            want = power_inverse(cfg, a.coeffs)
            assert a.inv().coeffs == want
            assert polys.inv(a.coeffs) == want

    @pytest.mark.parametrize("p,r", [(7, 11), (2, 16)])
    def test_sampled_elements_of_large_fields_match_the_power(self, p, r):
        cfg = PrimeConfig.make(p, r)
        polys = exactnum._FqPolys(cfg)
        rng = random.Random(p ** r)
        samples = [cfg.fq(1), cfg.fq(p - 1), cfg.fq_gen(), cfg.fq([0] * (r - 1) + [1])]
        samples += [cfg.fq([rng.randrange(p) for _ in range(r)]) for _ in range(40)]
        for a in samples:
            if a.is_zero():
                continue
            want = power_inverse(cfg, a.coeffs)
            assert a.inv().coeffs == want
            assert polys.inv(a.coeffs) == want
            assert a * a.inv() == cfg.fq(1)


class TestFqArithmetic:
    def test_char_2_add(self):
        cfg = PrimeConfig.make(2)
        assert (cfg.fq(1) + cfg.fq(1)).is_zero()

    def test_inv_mod_3(self):
        cfg = PrimeConfig.make(3)
        assert cfg.fq(2).inv() == cfg.fq(2)  # 2*2 = 4 = 1 mod 3

    def test_f4_generator_square(self):
        cfg = PrimeConfig.make(2, r=2)
        g = cfg.fq_gen()
        expected = naive_mul_mod([0, 1], [0, 1], cfg.modulus, 2)
        assert (g * g).coeffs == tuple(expected)
        assert g * g == g + cfg.fq(1)

    def test_inv_zero_raises(self):
        cfg = PrimeConfig.make(3)
        with pytest.raises(DivisionByZero):
            cfg.fq(0).inv()

    def test_equality_with_an_int_raises(self):
        # fq(1) would equal both 1 and p + 1, which no hash can agree with
        cfg = PrimeConfig.make(3)
        for op in (lambda x: x == 1, lambda x: 1 == x, lambda x: x != 0):
            with pytest.raises(TypeError, match=r"cfg\.fq\(n\)"):
                op(cfg.fq(1))
        assert cfg.fq(1) == cfg.fq(4) and cfg.fq(1) != "1"

    @pytest.mark.parametrize("p,r", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (2, 3)])
    def test_field_axioms_exhaustive(self, p, r):
        cfg = PrimeConfig.make(p, r)
        elems = list(cfg.fq_elements())
        one = cfg.fq(1)
        for a in elems:
            assert a * one == a
            if not a.is_zero():
                assert a * a.inv() == one
        rng = random.Random(7)
        for _ in range(200):
            a, b, c = (rng.choice(elems) for _ in range(3))
            assert a * (b + c) == a * b + a * c
            assert (a * b) * c == a * (b * c)
            assert a + b == b + a

    @pytest.mark.parametrize("p,r", [(2, 2), (3, 2), (2, 3), (5, 2)])
    def test_frobenius_order_exactly_r(self, p, r):
        cfg = PrimeConfig.make(p, r)
        for a in cfg.fq_elements():
            x = a
            for _ in range(r):
                x = x.frobenius()
            assert x == a
        # some element must have full orbit length r
        full = False
        for a in cfg.fq_elements():
            x, n = a.frobenius(), 1
            while x != a:
                x, n = x.frobenius(), n + 1
            full = full or n == r
        assert full

    def test_pth_root_inverts_frobenius(self):
        cfg = PrimeConfig.make(3, r=2)
        for a in cfg.fq_elements():
            assert a.frobenius().pth_root() == a

    def test_sub_and_pow(self):
        cfg = PrimeConfig.make(5)
        assert cfg.fq(2) - cfg.fq(4) == cfg.fq(3)
        assert cfg.fq(2) ** 4 == cfg.fq(16 % 5)
        assert cfg.fq(2) ** -1 == cfg.fq(3)  # 2*3 = 6 = 1 mod 5


class TestWittArithmetic:
    def test_add_small(self):
        cfg = PrimeConfig.make(3)
        assert cfg.witt(1, prec=3) + cfg.witt(1, prec=3) == cfg.witt(2, prec=3)

    def test_mul_is_integer_arith_for_r1(self):
        cfg = PrimeConfig.make(2)
        assert cfg.witt(3, prec=4) * cfg.witt(5, prec=4) == cfg.witt(15, prec=4)

    def test_inv_mod_125(self):
        cfg = PrimeConfig.make(5)
        expected = pow(2, -1, 125)  # extended Euclid oracle
        assert expected == 63
        assert cfg.witt(2, prec=3).inv() == cfg.witt(63, prec=3)

    def test_inv_non_unit_raises(self):
        cfg = PrimeConfig.make(3)
        with pytest.raises(NotAUnit):
            cfg.witt(3, prec=3).inv()

    @pytest.mark.parametrize("p,r,L", [(2, 1, 5), (3, 1, 4), (2, 2, 4), (3, 2, 3)])
    def test_ring_axioms_random(self, p, r, L):
        cfg = PrimeConfig.make(p, r)
        rng = random.Random(11)
        pk = p ** L
        rand = lambda: cfg.witt([rng.randrange(pk) for _ in range(r)], prec=L)
        for _ in range(150):
            a, b, c = rand(), rand(), rand()
            assert a * (b + c) == a * b + a * c
            assert (a * b) * c == a * (b * c)
            assert a + b == b + a
        for _ in range(100):
            a = rand()
            if not a.residue().is_zero():
                assert a * a.inv() == cfg.witt(1, prec=L)

    def test_precision_mixing(self):
        cfg = PrimeConfig.make(3)
        a = cfg.witt(7, prec=5)
        b = cfg.witt(7, prec=2)
        assert (a + b).prec == 2
        assert (a * b) == cfg.witt(49, prec=2)

    def test_sub_wraps(self):
        cfg = PrimeConfig.make(2)
        diff = cfg.witt(3, prec=4) - cfg.witt(5, prec=4)
        assert diff == cfg.witt(-2, prec=4) == cfg.witt(14, prec=4)

    def test_witt_of_a_witt_element_changes_precision(self):
        cfg = PrimeConfig.make(3, r=2)
        w = cfg.witt([26, 10], prec=3)
        assert cfg.witt(w, prec=3) is w
        assert cfg.witt(w, prec=2) == w.at_prec(2)
        assert cfg.witt(w.at_prec(1), prec=3).coeffs == (2, 1)
        with pytest.raises(ValueError, match="^cannot raise Witt precision$"):
            w.at_prec(4)


# both element kinds of one F_9 config; a WittElem at precision 3
CORE_CFG = PrimeConfig.make(3, r=2)


def core_maker(cfg, kind):
    """The element constructor of `kind` over cfg; Witt elements at precision 3."""
    return cfg.fq if kind == "fq" else functools.partial(cfg.witt, prec=3)


CORE_KINDS = {kind: core_maker(CORE_CFG, kind) for kind in ("fq", "witt")}


@pytest.mark.parametrize("kind", sorted(CORE_KINDS))
class TestElementCore:
    """What FqElem and WittElem share: coercion, ints, printing, immutability."""

    def test_long_sequence_reduces_by_the_modulus(self, kind):
        make = CORE_KINDS[kind]
        g = make([0, 1])
        assert make([1, 2, 1]) == make([1, 2]) + g * g
        assert make([-1, 5, 4, 7]) == make(-1) + 5 * g + 4 * g ** 2 + 7 * g ** 3

    def test_ints_on_either_side(self, kind):
        make = CORE_KINDS[kind]
        x = make([2, 1])
        assert x + 1 == 1 + x == x + make(1)
        assert x * 2 == 2 * x == x + x
        assert x - 1 == x + -make(1)
        assert x ** -2 == x.inv() ** 2

    def test_str_repr_and_bool(self, kind):
        make = CORE_KINDS[kind]
        assert str(make([1, 2])) == "2*g+1"
        assert repr(make([0, 1])) == {"fq": "FqElem(g)",
                                      "witt": "WittElem(g, prec=3)"}[kind]
        assert str(make(0)) == "0" and not make(0) and make(1)

    def test_immutable(self, kind):
        x = CORE_KINDS[kind](1)
        with pytest.raises(AttributeError,
                           match=f"^{type(x).__name__} is immutable$"):
            x.coeffs = (0, 0)

    def test_other_field_rejected(self, kind):
        x = CORE_KINDS[kind](1)
        other = core_maker(PrimeConfig.make(3, r=3), kind)(1)
        for op in (lambda: x + other, lambda: x * other,
                   lambda: CORE_KINDS[kind](other)):
            with pytest.raises(ValueError, match="^field mismatch$"):
                op()

    def test_equal_values_hash_alike(self, kind):
        make = CORE_KINDS[kind]
        assert {make(7), make([7, 0]), make([1, 2, 0])} == {make(7), make([1, 2])}


class TestTeichmueller:
    def test_zero_and_one(self):
        cfg = PrimeConfig.make(2)
        assert teichmueller(cfg.fq(0), prec=6).is_zero()
        assert teichmueller(cfg.fq(1), prec=6) == cfg.witt(1, prec=6)

    def test_minus_one_mod_9(self):
        cfg = PrimeConfig.make(3)
        # iterate x -> x^3 mod 9 from 2: 8 is the fixpoint (= -1 mod 9)
        assert teichmueller(cfg.fq(2), prec=2) == cfg.witt(8, prec=2)

    @pytest.mark.parametrize("p,r", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)])
    def test_multiplicative_exhaustive(self, p, r):
        cfg = PrimeConfig.make(p, r)
        lift = functools.partial(teichmueller, prec=5)
        elems = list(cfg.fq_elements())
        for a in elems:
            for b in elems:
                assert lift(a) * lift(b) == lift(a * b)

    @pytest.mark.parametrize("p,r", [(3, 1), (2, 2), (5, 1)])
    def test_fixpoint_of_qth_power(self, p, r):
        cfg = PrimeConfig.make(p, r)
        for a in cfg.fq_elements():
            t = teichmueller(a, prec=6)
            assert t ** cfg.q == t

    def test_residue_recovers_input(self):
        cfg = PrimeConfig.make(5)
        for a in cfg.fq_elements():
            assert teichmueller(a, prec=4).residue() == a


class TestLiftTable:
    @pytest.fixture
    def empty_table(self, monkeypatch):
        table = {}
        monkeypatch.setattr(exactnum, "_LIFTS", table)
        return table

    @pytest.mark.parametrize("p,r", [(3, 1), (7, 1), (2, 2), (5, 2)])
    def test_lower_precision_after_higher(self, empty_table, p, r):
        cfg = PrimeConfig.make(p, r)
        for a in cfg.fq_elements():
            for prec in (3, 8, 3):
                t = teichmueller(a, prec=prec)
                assert t.prec == prec
                assert t.coeffs == fixpoint_lift(a, prec)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_closed_form_for_prime_fields(self, empty_table, p):
        cfg = PrimeConfig.make(p)
        for prec in range(1, 7):
            for a in cfg.fq_elements():
                assert teichmueller(a, prec=prec).coeffs == fixpoint_lift(a, prec)
                # each precision is new, so the lift was computed, not reduced
                assert empty_table[p, cfg.modulus, a.coeffs][0] == prec

    @pytest.mark.parametrize("p,r", [(3, 1), (5, 1), (2, 2), (3, 2)])
    def test_digit_decompose_from_an_empty_table(self, empty_table, p, r):
        # digit i is read at precision prec - i, below every earlier entry
        cfg = PrimeConfig.make(p, r)
        pk = p ** 5
        rng = random.Random(17)
        for _ in range(40):
            w = cfg.witt([rng.randrange(pk) for _ in range(r)], prec=5)
            acc = [0] * r
            for i, d in enumerate(digit_decompose(w)):
                lift = fixpoint_lift(d, 5)
                acc = [(x + y * p ** i) % pk for x, y in zip(acc, lift)]
            assert tuple(acc) == w.coeffs

    @pytest.mark.parametrize("p,r", [(3, 1), (5, 1), (3, 2), (5, 2)])
    def test_integer_lifts_take_no_power(self, empty_table, monkeypatch, p, r):
        # [0], [1] and [p-1] lift to 0, 1 and -1 in closed form, so even a
        # long lift takes no power and no fixpoint iteration
        def no_power(*args):
            raise AssertionError("power computed for an integer lift")

        cfg, pk, zeros = PrimeConfig.make(p, r), p ** 5002, (0,) * (r - 1)
        monkeypatch.setattr(exactnum, "pow", no_power, raising=False)
        monkeypatch.setattr(exactnum, "_poly_powmod", no_power)
        for c, lift in [(0, 0), (1, 1), (p - 1, pk - 1)]:
            assert teichmueller(cfg.fq(c), prec=5002).coeffs == (lift,) + zeros

    def test_at_most_one_entry_per_digit(self):
        cfg = PrimeConfig.make(3, r=2)
        for prec in (2, 6, 4, 9, 1):
            for a in cfg.fq_elements():
                teichmueller(a, prec=prec)
        field = [key for key in exactnum._LIFTS if key[:2] == (3, cfg.modulus)]
        assert len(field) == cfg.q


class TestDigitDecompose:
    def test_zero(self):
        cfg = PrimeConfig.make(3)
        assert digit_decompose(cfg.witt(0, prec=3)) == (cfg.fq(0),) * 3

    def test_two_mod_27(self):
        cfg = PrimeConfig.make(3)
        digits = [d.coeffs[0] for d in digit_decompose(cfg.witt(2, prec=3))]
        # [2] = -1 exactly in Z_3, so 2 = [2] + [1]*3
        assert digits == [2, 1, 0]

    def test_two_mod_8(self):
        cfg = PrimeConfig.make(2)
        digits = [d.coeffs[0] for d in digit_decompose(cfg.witt(2, prec=3))]
        assert digits == [0, 1, 0]

    @pytest.mark.parametrize("p,r,L", [(2, 1, 6), (3, 1, 5), (5, 1, 4), (2, 2, 5), (3, 2, 4)])
    def test_recompose_roundtrip_random(self, p, r, L):
        cfg = PrimeConfig.make(p, r)
        rng = random.Random(13)
        pk = p ** L
        for _ in range(250):
            w = cfg.witt([rng.randrange(pk) for _ in range(r)], prec=L)
            digits = digit_decompose(w)
            acc = cfg.witt(0, prec=L)
            for i, d in enumerate(digits):
                acc = acc + teichmueller(d, prec=L) * cfg.witt(p ** i, prec=L)
            assert acc == w

    def test_digits_unique_under_recompose(self):
        cfg = PrimeConfig.make(3)
        seen = {}
        for n in range(81):
            digits = tuple(d.coeffs for d in digit_decompose(cfg.witt(n, prec=4)))
            assert digits not in seen
            seen[digits] = n


class TestDigitRuns:
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    @pytest.mark.parametrize("r", [1, 2])
    def test_repeated_runs_read_as_one_call_per_run(self, p, r):
        # a run's digits are read once per call and re-based at each later
        # run with the same value, precision and count
        cfg, rng = PrimeConfig.make(p, r), random.Random(10 * p + r)
        shapes = [(prec, rng.randint(1, prec)) for prec in (1, 3, 5)]
        pool = [[rng.randrange(-p ** 6, p ** 6) for _ in range(r)] for _ in range(6)]
        pool.append([0] * r)
        for step in (1, 2, 7):
            runs = []
            for _ in range(60):
                prec, count = rng.choice(shapes)
                x = list(rng.choice(pool))
                # the same value mod p^prec, given unreduced
                x[0] += rng.randint(-2, 2) * p ** prec
                runs.append((rng.randint(-50, 50), x if r > 1 else x[0], prec, count))
            want = [t for run in runs for t in exactnum.digit_runs(cfg, [run], step)]
            assert exactnum.digit_runs(cfg, runs, step) == want


# fields with q <= 64, characteristic 2 and odd
SMALL_FIELDS = [(p, r) for p in range(2, 65) if is_prime(p)
                for r in range(1, 7) if p ** r <= 64]


@st.composite
def small_polys(draw):
    """A nonzero polynomial of degree <= 4 over a field with q <= 64: linear
    factors x - a (a may repeat or be 0) times a nonzero cofactor, with up to
    two zero high coefficients appended."""
    p, r = draw(st.sampled_from(SMALL_FIELDS))
    cfg = PrimeConfig.make(p, r)
    elem = st.lists(st.integers(0, p - 1), min_size=r, max_size=r).map(cfg.fq)
    roots = draw(st.lists(elem, max_size=4))
    poly = draw(st.lists(elem, min_size=1, max_size=5 - len(roots)).filter(any))
    for a in roots:
        poly = [x - a * y for x, y in zip([cfg.fq(0)] + poly, poly + [cfg.fq(0)])]
    return poly + [cfg.fq(0)] * draw(st.integers(0, 2))


class TestFqPolyRoots:
    def test_x2_plus_x_char2(self):
        cfg = PrimeConfig.make(2)
        roots = fq_poly_roots([cfg.fq(0), cfg.fq(1), cfg.fq(1)])
        assert roots == {cfg.fq(0), cfg.fq(1)}

    def test_x2_plus_1_mod3_rootless(self):
        cfg = PrimeConfig.make(3)
        assert fq_poly_roots([cfg.fq(1), cfg.fq(0), cfg.fq(1)]) == set()

    def test_irreducible_quadratic_char2(self):
        cfg = PrimeConfig.make(2)
        assert fq_poly_roots([cfg.fq(1), cfg.fq(1), cfg.fq(1)]) == set()

    def test_zero_polynomial_raises(self):
        cfg = PrimeConfig.make(2)
        with pytest.raises(ZeroPolynomial):
            fq_poly_roots([cfg.fq(0), cfg.fq(0)])

    @pytest.mark.parametrize("values", [[], [0], [0, 0, 0, 0]])
    def test_zero_polynomial_of_any_length_raises(self, values):
        cfg = PrimeConfig.make(2, r=2)
        with pytest.raises(ZeroPolynomial, match="^all coefficients are zero$"):
            fq_poly_roots([cfg.fq(v) for v in values])

    def test_splits_in_extension(self):
        small = PrimeConfig.make(2, r=1)
        big = PrimeConfig.make(2, r=2)
        poly = [big.fq(c) for c in (1, 1, 1)]  # x^2+x+1 splits in F_4
        roots = fq_poly_roots(poly)
        assert len(roots) == 2

    @pytest.mark.parametrize("p,r,values,want", [
        (5, 1, [4, 3, 2, 1], [[1]]),                  # (x-1)^3
        (3, 2, [0, 2, [0, 1], 1], [[0], [0, 1]]),     # x (x-g)^2 over F_9
        (2, 3, [0, 0, 0, 1], [[0]]),                  # x^3
        (7, 1, [0, 0, 6, 1], [[0], [1]]),             # x^2 (x-1)
        (3, 1, [1, 1, 0, 0], [[2]]),                  # x+1, zero high terms
        (2, 2, [0, 0, 1, 0, 0], [[0]]),               # x^2, zero high terms
        (3, 2, [[1, 2]], []),                         # a nonzero constant
        (5, 1, [3, 0, 0], []),                        # the same, zero-padded
    ], ids=["repeated", "repeated-with-zero", "zero-only", "zero-and-one",
            "zero-high-terms", "zero-root-padded", "constant",
            "constant-padded"])
    def test_named_cases(self, p, r, values, want):
        cfg = PrimeConfig.make(p, r)
        poly = [cfg.fq(v) for v in values]
        assert fq_poly_roots(poly) == {cfg.fq(v) for v in want}
        assert fq_poly_roots(poly) == exhaustive_roots(poly)

    @pytest.mark.parametrize("p,r,length", [(2, 1, 5), (3, 1, 5), (2, 2, 5),
                                            (5, 1, 4), (3, 2, 3)])
    def test_every_polynomial_of_a_small_field(self, p, r, length):
        cfg = PrimeConfig.make(p, r)
        elems = list(cfg.fq_elements())
        for n in range(1, len(elems) ** length):
            poly = [elems[n // len(elems) ** i % len(elems)] for i in range(length)]
            assert fq_poly_roots(poly) == exhaustive_roots(poly), poly

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(small_polys())
    def test_matches_exhaustive_search(self, poly):
        assert fq_poly_roots(poly) == exhaustive_roots(poly)

    @pytest.mark.parametrize("p,r", [(31, 2), (2, 16), (101, 2), (3, 9)])
    def test_large_fields_root_count(self, p, r):
        # X^2 + X + c (c = -u^2 - u, so u is a root) and X^p - X - c (a
        # translate of its roots by F_p, all or none) have their roots in F_q
        cfg = PrimeConfig.make(p, r)
        rng = random.Random(p * r)
        for _ in range(5):
            u = cfg.fq([rng.randrange(p) for _ in range(r)])
            quad = [-(u * u) - u, cfg.fq(1), cfg.fq(1)]
            roots = fq_poly_roots(quad)
            assert u in roots and len(roots) == (1 if (u + u + 1).is_zero() else 2)
            assert all(horner(quad, x).is_zero() for x in roots)
            c = u ** p - u
            artin = [-c, cfg.fq(-1)] + [cfg.fq(0)] * (p - 2) + [cfg.fq(1)]
            assert fq_poly_roots(artin) == {u + k for k in range(p)}

    def test_mixed_fields_rejected(self):
        f9, f27 = PrimeConfig.make(3, r=2), PrimeConfig.make(3, r=3)
        with pytest.raises(ValueError, match="^field mismatch$"):
            fq_poly_roots([f9.fq(1), f27.fq(1)])

    def test_eleven_roots_in_f_7_11_take_10881_products(self, monkeypatch):
        # X^11+X+3 has its residue roots in F_{7^11}: the split raises x to
        # x^(7^i) once for the whole search and reduces those for each factor
        # (20,943 products when each factor raised its own traces); counted
        # from cold caches, as a fresh process runs it, whatever ran before.
        # 20 of them are the ladder that finds the extension degree over F_7,
        # which runs on `_FpPolys` ints and so on `_poly_mulmod`
        from hahnforge import cli
        exactnum.find_modulus.cache_clear()
        exactnum._embedding_image.cache_clear()
        calls = []
        mulmod = exactnum._poly_mulmod
        monkeypatch.setattr(exactnum, "_poly_mulmod",
                            lambda *args: calls.append(1) or mulmod(*args))
        out = io.StringIO()
        argv = ["-p", "7", "--max-degree", "12", "newton-solve", "--ring", "eq",
                "--poly", "X^11+X+3", "--terms", "1"]
        assert cli.run(argv, out=out) == 0
        assert len(calls) == 10881
        lines = out.getvalue().splitlines()
        assert len(lines) == 11
        assert all(line.endswith(", field degree 11)") for line in lines)


class TestRationalPVal:
    @pytest.mark.parametrize("x,p,want", [
        (Fr(12, 5), 2, 2), (Fr(3, 8), 2, -3), (Fr(-5, 18), 3, -2),
        (Fr(7, 250), 5, -3), (Fr(49, 50), 7, 2), (Fr(1), 3, 0)])
    def test_named_values(self, x, p, want):
        assert rational_p_val(x, p) == want

    def test_zero_is_infinite(self):
        assert rational_p_val(Fr(0), 5) == float("inf")

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_removing_p_to_the_valuation_leaves_a_unit(self, p):
        # independent of the loops: x / p^v has numerator and denominator
        # prime to p exactly when v is the valuation
        rng = random.Random(p)
        for _ in range(200):
            x = Fr(rng.randint(-10**6, 10**6) or 1, rng.randint(1, 10**6))
            x *= Fr(p) ** rng.randint(-6, 6)
            unit = x / Fr(p) ** rational_p_val(x, p)
            assert unit.numerator % p and unit.denominator % p


class TestSubfieldEmbedding:
    def test_identity_on_same_field(self):
        cfg = PrimeConfig.make(3, r=2)
        g = cfg.fq_gen()
        assert subfield_embedding(g, cfg) == g

    @pytest.mark.parametrize("p,r,m", [(2, 1, 2), (2, 2, 2), (3, 1, 2), (2, 1, 3)])
    def test_is_ring_homomorphism(self, p, r, m):
        small = PrimeConfig.make(p, r)
        big = PrimeConfig.make(p, r * m)
        elems = list(small.fq_elements())
        for a in elems:
            for b in elems:
                assert (subfield_embedding(a, big) * subfield_embedding(b, big)
                        == subfield_embedding(a * b, big))
                assert (subfield_embedding(a, big) + subfield_embedding(b, big)
                        == subfield_embedding(a + b, big))
        images = {subfield_embedding(a, big) for a in elems}
        assert len(images) == len(elems)
