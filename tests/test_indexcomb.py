import functools
import io
import itertools
import math
import random
import time
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings, strategies as st

from hahnforge import indexcomb
from hahnforge.errors import PrecisionLoss, SigmaMismatch
from hahnforge.exactnum import PrimeConfig
from hahnforge.hahn_padic import INF, frak_a, normalize
from hahnforge.series import is_inf
from hahnforge.indexcomb import (
    Certificate,
    certificate_residual,
    certificate_residual_by_powers,
    class_position_bound,
    enumerate_class,
    equivalent,
    frak_a_power,
    grouped_sum,
    index_vec,
    is_reduced,
    kappa_of,
    lambda_of,
    multinomial,
    reduce_index,
    sigma_of,
)


def oracle_reduce(a, p):
    """Independent oracle: base-p digits of lambda(a) mod 1 taken in (-1, 0]."""
    lam = lambda_of(a, p)
    frac = lam - math.ceil(lam)  # representative in (-1, 0]
    x = -frac                    # in [0, 1), denominator a p-power
    digits = []
    while x:
        x *= p
        d = math.floor(x)
        digits.append(d)
        x -= d
    return index_vec(digits)


def top_carry_reduce(a, p):
    """Independent oracle: carry at the top over-full position until no
    position is over-full."""
    work = list(a)
    while True:
        over = [k for k, x in enumerate(work) if x > p - 1]
        if not over:
            return index_vec(work)
        k = over[-1]
        d, work[k] = divmod(work[k], p)
        if k:
            work[k - 1] += d


def integer_reduce(a, p):
    """Independent oracle for long vectors: the reduced b has lam(b) in
    (-1, 0] and lam(b) = lam(a) mod 1, so its n entries are the base-p
    digits of sum a_k p^(n-k) mod p^n, position 1 most significant."""
    n, m = len(a), 0
    for x in a:
        m = m * p + x
    m %= p ** n
    digits = []
    for _ in range(n):
        m, d = divmod(m, p)
        digits.append(d)
    return index_vec(digits[::-1])


def all_vectors(max_pos, max_entry):
    for v in itertools.product(range(max_entry + 1), repeat=max_pos):
        yield index_vec(v)


def compositions(positions, total):
    """Every vector of `positions` naturals summing to `total`."""
    if positions == 0:
        if total == 0:
            yield ()
        return
    for head in range(total + 1):
        for rest in compositions(positions - 1, total - head):
            yield (head,) + rest


@functools.lru_cache(maxsize=None)
def multinomial_terms(p, positions, i):
    """(multinomial(i, k), lam(k)) for every k of sigma i on `positions` positions."""
    return [(multinomial(i, index_vec(v)), lambda_of(v, p))
            for v in compositions(positions, i)]


def residual_by_multinomials(cfg, cert, terms=None):
    """Oracle: one bag term s_i * multinomial(i, k) * p^lam(k) per index vector k."""
    if terms is None:
        terms = cert.degree + 2
    bag = [(si * m, lam)
           for i, si in enumerate(cert.s) if si
           for m, lam in multinomial_terms(cfg.p, terms, i)]
    return normalize(cfg, bag, cert.cap)


class ClassFilter:
    """Oracle: a class is every vector within the position bound whose
    reduction is k_red.  Reductions are computed once per bound for all
    vectors of sigma <= sigma_top and shared across classes."""

    def __init__(self, p, sigma_top):
        self.p, self.sigma_top, self.by_bound = p, sigma_top, {}

    def members(self, k_red, sigma_max, position_bound):
        by_red = self.by_bound.get(position_bound)
        if by_red is None:
            by_red = self.by_bound[position_bound] = {}
            for total in range(self.sigma_top + 1):
                for v in compositions(position_bound, total):
                    by_red.setdefault(reduce_index(v, self.p), []).append(index_vec(v))
        if sigma_of(k_red) > sigma_max:
            return []
        return sorted((k for k in by_red.get(k_red, ()) if sigma_of(k) <= sigma_max),
                      key=lambda k: (sigma_of(k), k))


class TestStatistics:
    def test_lambda_examples(self):
        assert lambda_of((1,), 2) == Fr(-1, 2)
        assert lambda_of((2, 1), 3) == Fr(-7, 9)
        assert lambda_of((), 5) == 0

    def test_sigma_kappa_examples(self):
        assert sigma_of((0, 1, 2)) == 3
        assert kappa_of((0, 1, 2), 2) == 3
        assert kappa_of((), 7) == 0
        assert kappa_of((2, 2, 2), 3) == 0
        assert is_reduced((2, 2, 2), 3)

    def test_index_vec_strips_trailing_zeros(self):
        assert index_vec([1, 0, 2, 0, 0]) == (1, 0, 2)
        with pytest.raises(ValueError):
            index_vec([1, -1])


class TestReduce:
    def test_spec_examples(self):
        assert reduce_index((2,), 2) == ()
        assert reduce_index((0, 2), 2) == (1,)
        assert reduce_index((5,), 3) == (2,)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_matches_digit_oracle(self, p):
        for v in all_vectors(4, 2 * p):
            assert reduce_index(v, p) == oracle_reduce(v, p)

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(st.sampled_from([2, 3, 5, 7]),
           st.lists(st.integers(0, 60), max_size=14))
    def test_matches_top_carry(self, p, vec):
        assert reduce_index(vec, p) == top_carry_reduce(vec, p)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_matches_integer_oracle_on_long_vectors(self, p):
        rng = random.Random(p)
        for n in (50, 300):
            vec = [rng.randrange(3 * p) for _ in range(n)]
            assert reduce_index(vec, p) == integer_reduce(vec, p)

    def test_20000_entries_reduce_in_one_pass(self):
        vec = (3,) * 20000
        start = time.perf_counter()
        red = reduce_index(vec, 2)
        assert time.perf_counter() - start < 2
        assert red == integer_reduce(vec, 2)

    @pytest.mark.parametrize("p", [2, 3])
    def test_reduction_invariants_exhaustive(self, p):
        for v in all_vectors(4, 2 * p):
            red = reduce_index(v, p)
            assert reduce_index(red, p) == red
            diff = lambda_of(v, p) - lambda_of(red, p)
            assert diff.denominator == 1
            assert Fr(-1) < lambda_of(red, p) <= 0
            assert sigma_of(red) <= sigma_of(v)
            assert (sigma_of(red) == sigma_of(v)) == is_reduced(v, p)

    @pytest.mark.parametrize("p", [2, 3])
    def test_distinct_reduced_distinct_lambda(self, p):
        lams = {}
        for v in all_vectors(5, p - 1):
            lam = lambda_of(v, p)
            assert lam not in lams or lams[lam] == v
            lams[lam] = v


class TestEquivalent:
    def test_examples(self):
        assert equivalent((2,), (), 2)
        assert not equivalent((1,), (0, 1), 2)
        assert equivalent((1, 2), (1, 2), 5)

    @pytest.mark.parametrize("p", [2, 3])
    def test_iff_equal_reductions_exhaustive(self, p):
        vectors = list(all_vectors(4, 2 * p))
        by_red = {}
        for v in vectors:
            by_red.setdefault(reduce_index(v, p), []).append(v)
        # same reduction => lambda difference integral
        for members in by_red.values():
            base = members[0]
            for v in members[1:]:
                assert equivalent(base, v, p)
        # distinct reductions => distinct lambda classes
        reps = {red: lambda_of(members[0], p) - math.floor(lambda_of(members[0], p))
                for red, members in by_red.items()}
        assert len(set(reps.values())) == len(reps)


class TestEnumerateClass:
    def test_kstar_singleton(self):
        assert enumerate_class((1, 1), 2, 2) == [(1, 1)]

    def test_spec_class_of_one(self):
        got = enumerate_class((1,), 3, 2)
        assert set(got) == {(1,), (3,), (0, 2), (0, 1, 2)}

    def test_empty_class_sigma_zero(self):
        assert enumerate_class((), 0, 5) == [()]

    @pytest.mark.parametrize("p,n_plus_1", [(2, 2), (2, 3), (2, 4), (2, 5),
                                            (3, 2), (3, 3), (3, 4), (3, 5),
                                            (5, 2), (5, 3), (5, 4), (5, 5)])
    def test_all_ones_class_is_singleton(self, p, n_plus_1):
        k_star = (1,) * n_plus_1
        assert enumerate_class(k_star, n_plus_1, p) == [k_star]

    @pytest.mark.parametrize("p", [2, 3])
    def test_position_bound_sane_against_wider_search(self, p):
        # widen the position bound by 3: nothing new may appear
        for k_red in [(), (1,), (1, 1), (0, 1)]:
            for sigma_max in range(0, 6):
                if sigma_of(k_red) > sigma_max:
                    continue
                bound = class_position_bound(k_red, sigma_max, p)
                assert (enumerate_class(k_red, sigma_max, p)
                        == enumerate_class(k_red, sigma_max, p,
                                           position_bound=bound + 3))


    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_matches_brute_force_filter(self, p):
        oracle = ClassFilter(p, sigma_top=7)
        for k_red in sorted(set(all_vectors(3, p - 1))):
            for sigma_max in range(8):
                bound = class_position_bound(k_red, sigma_max, p)
                assert (enumerate_class(k_red, sigma_max, p)
                        == oracle.members(k_red, sigma_max, bound))
                for position_bound in (max(bound - 1, 0), bound + 2):
                    assert (enumerate_class(k_red, sigma_max, p, position_bound)
                            == oracle.members(k_red, sigma_max, position_bound))

    def test_generation_calls_no_reduction(self, monkeypatch):
        calls = []
        reduce = indexcomb.reduce_index

        def counting_reduce(a, p):
            calls.append(a)
            return reduce(a, p)

        monkeypatch.setattr(indexcomb, "reduce_index", counting_reduce)
        assert enumerate_class((1,) * 7, 7, 2) == [(1,) * 7]
        assert calls == []

    def test_wider_position_bound_adds_nothing_at_sigma_14(self):
        bound = class_position_bound((), 14, 2)
        members = enumerate_class((), 14, 2)
        assert members == enumerate_class((), 14, 2, position_bound=bound + 3)
        assert len(members) == len(set(members))


class TestMultinomial:
    def test_examples(self):
        assert multinomial(2, (1, 1)) == 2
        assert multinomial(3, (3,)) == 1
        assert multinomial(4, (2, 2)) == 6

    def test_mismatch_raises(self):
        with pytest.raises(SigmaMismatch):
            multinomial(3, (1, 1))

    def test_row_sums(self):
        # sum over 3-position compositions of i of multinomial = 3^i
        for i in range(6):
            total = 0
            for v in itertools.product(range(i + 1), repeat=3):
                if sum(v) == i:
                    total += multinomial(i, index_vec(v))
            assert total == 3 ** i


class TestFrakAPower:
    def test_power_zero_and_one(self):
        cfg = PrimeConfig.make(2)
        assert frak_a_power(cfg, 0, terms=3) == frak_a(cfg, INF, terms=3) ** 0
        assert frak_a_power(cfg, 1, terms=3) == frak_a(cfg, INF, terms=3)

    @pytest.mark.parametrize("p,i", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4)])
    def test_matches_repeated_product(self, p, i):
        cfg = PrimeConfig.make(p)
        a = frak_a(cfg, INF, terms=4)
        assert frak_a_power(cfg, i, terms=4) == a ** i

    def test_square_cross_oracle_below_cap(self):
        cfg = PrimeConfig.make(2)
        by_multinomial = frak_a_power(cfg, 2, terms=3, cap=Fr(0))
        by_product = (frak_a(cfg, INF, terms=3) ** 2).truncate(Fr(0))
        assert by_multinomial == by_product

    def test_negative_terms_rejected(self):
        cfg = PrimeConfig.make(2)
        with pytest.raises(ValueError, match="terms must be >= 0, got -1"):
            frak_a_power(cfg, 2, terms=-1)


class TestGroupedSum:
    def test_all_ones_class_coefficient(self):
        cert = Certificate((1, 0, 1), cap=Fr(1))
        assert grouped_sum((1, 1), cert, 2) == 2  # s_2 * 2!

    def test_empty_class_gives_s0(self):
        cert = Certificate((7, 0, 0, 1), cap=Fr(1))
        # class of () with sigma_max = 3 at p = 5: only () and (5,) needs
        # sigma 5 > 3, so the sum is s_0
        assert grouped_sum((), cert, 5) == 7

    def test_spec_third_example(self):
        cert = Certificate((1, 1, 1), cap=Fr(1))
        # class of (1) with sigma <= 2 at p=2: members (1) and (0,2)
        assert enumerate_class((1,), 2, 2) == [(1,), (0, 2)]
        assert grouped_sum((1,), cert, 2) == 1 * 1 + 1 * 1

    def test_negative_offsets_enter_as_p_inverse(self):
        cert = Certificate((1, 0, 1), cap=Fr(1))
        # class of () with sigma <= 2 at p=2 contains (2): lambda = -1
        assert enumerate_class((), 2, 2) == [(), (2,)]
        assert grouped_sum((), cert, 2) == 1 + Fr(1, 2)

    @pytest.mark.parametrize("p,n_plus_1", [(2, 2), (2, 4), (3, 3), (5, 2), (5, 5)])
    def test_kstar_value_and_valuation(self, p, n_plus_1):
        rng = random.Random(p * n_plus_1)
        s = [rng.randrange(1, 50) for _ in range(n_plus_1 + 1)]
        cert = Certificate(tuple(s), cap=Fr(1))
        val = grouped_sum((1,) * n_plus_1, cert, p)
        assert val == s[-1] * math.factorial(n_plus_1)


class TestCertificateResidual:
    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            Certificate((0, 1), cap=Fr(1))
        with pytest.raises(ValueError):
            Certificate((1, 0), cap=Fr(1))

    def test_linear_certificate_valuation(self):
        cfg = PrimeConfig.make(2)
        cert = Certificate((1, 1), cap=Fr(0))
        res = certificate_residual(cfg, cert)
        assert res.valuation() == Fr(-1, 2)

    @pytest.mark.parametrize("p", [2, 3])
    def test_quadratic_certificate_nonzero(self, p):
        cfg = PrimeConfig.make(p)
        cert = Certificate((1, 0, 1), cap=Fr(1))
        res = certificate_residual(cfg, cert)
        assert not res.is_zero_below_cap()

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_routes_agree(self, p):
        cfg = PrimeConfig.make(p)
        rng = random.Random(31 + p)
        for _ in range(8):
            n_plus_1 = rng.randrange(1, 4)
            s = [rng.randrange(-9, 10) for _ in range(n_plus_1 + 1)]
            s[0] = s[0] or 1
            s[-1] = s[-1] or 1
            cert = Certificate(tuple(s), cap=Fr(1))
            a = certificate_residual(cfg, cert)
            b = certificate_residual_by_powers(cfg, cert)
            assert a.agree_below(b, min(a.cap, b.cap))

    @pytest.mark.parametrize("p,degree", [
        (2, 4), (2, 5), (2, 6), (2, 7), (3, 2), (3, 3), (3, 4), (3, 5), (3, 6),
        (5, 2), (5, 3), (5, 4), (5, 5)])
    def test_routes_agree_on_benchmark_rungs(self, p, degree):
        # perfbench's certificate_ladder rungs: cap 1 + degree % 3, all-ones
        # at p = 2 and random signs at p = 3 and 5
        cfg = PrimeConfig.make(p)
        rng = random.Random(degree)
        signs = [[1] * (degree + 1)] + [
            [rng.choice((-1, 1)) for _ in range(degree + 1)] for _ in range(2)]
        for s in signs:
            cert = Certificate(tuple(s), cap=Fr(1 + degree % 3))
            a = certificate_residual(cfg, cert)
            b = certificate_residual_by_powers(cfg, cert)
            assert a.digits == b.digits and a.cap == b.cap

    @pytest.mark.parametrize("p,max_degree", [(2, 6), (3, 5), (5, 4), (7, 3)])
    def test_matches_multinomial_expansion(self, p, max_degree):
        cfg = PrimeConfig.make(p)
        rng = random.Random(97 + p)
        for degree in range(1, max_degree + 1):
            for cap in (Fr(-1), Fr(0), Fr(1), Fr(5, 2)):
                s = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(degree + 1)]
                s[1:-1] = [x * rng.randrange(2) for x in s[1:-1]]  # some zeros
                cert = Certificate(tuple(s), cap=cap)
                for terms in (None, 0, 1, degree + 3):
                    got = certificate_residual(cfg, cert, terms=terms)
                    want = residual_by_multinomials(cfg, cert, terms=terms)
                    assert got == want
                    assert got.digits == want.digits and got.cap == want.cap

    @pytest.mark.parametrize("p", [2, 3])
    def test_matches_multinomial_expansion_exact(self, p):
        cfg = PrimeConfig.make(p)
        for s in [(1, 1), (1, 0, 1), (2, 1, 1), (3, 0, 2, 1), (1, 1, 1, 1, 1)]:
            cert = Certificate(s, cap=INF)
            got = certificate_residual(cfg, cert)
            want = residual_by_multinomials(cfg, cert)
            assert got.digits == want.digits and got.cap == want.cap == INF

    def test_exact_residual_needs_cap_at_p5(self):
        cfg = PrimeConfig.make(5)
        cert = Certificate((1, 0, 1), cap=INF)
        with pytest.raises(PrecisionLoss):
            residual_by_multinomials(cfg, cert)
        with pytest.raises(PrecisionLoss):
            certificate_residual(cfg, cert)

    def test_negative_terms_rejected(self):
        cfg = PrimeConfig.make(2)
        cert = Certificate((1, 1), cap=Fr(1))
        with pytest.raises(ValueError, match="terms must be >= 0, got -3"):
            certificate_residual(cfg, cert, terms=-3)


def _outcome(make):
    """(digits, cap) of the residual `make` returns, or the error it raises."""
    try:
        res = make()
    except PrecisionLoss as exc:
        return type(exc), str(exc)
    return res.digits, res.cap


class TestPackedResidual:
    """At p = 2 and the default K, certificate_residual takes its powers as
    packed big ints from degree 3 up.  The packed terms, the dict terms and
    the ring-operation route certificate_residual_by_powers must agree."""

    CAPS = (Fr(-1), Fr(0), Fr(1), Fr(5, 2), INF)

    @staticmethod
    def draws(degree):
        """A signed s with zero interior entries, and a copy with one entry
        beyond 2^64, whose slots are wider than 64 bits; past degree 8, where
        a residual costs tenths of a second, only the copy."""
        rng = random.Random(700 + degree)
        s = [rng.choice((-3, -1, 1, 2, 5)) * rng.randrange(2)
             for _ in range(degree + 1)]
        s[0], s[-1] = s[0] or 1, s[-1] or -2
        wide = list(s)
        wide[rng.randrange(degree + 1)] = -(2 ** 64 + rng.randrange(2 ** 70))
        return [s, wide] if degree <= 8 else [wide]

    @staticmethod
    def terms_for(degree):
        # K = 0, 1, the default and degree + 4; degree 12 is one case
        return (0, 1, None, degree + 4) if degree <= 10 else (None,)

    def caps_for(self, degree):
        # an exact normalize past degree 8 costs seconds
        return self.CAPS if degree <= 8 else \
            (Fr(-1), Fr(5, 2)) if degree <= 10 else (Fr(1),)

    @pytest.mark.parametrize("degree", list(range(11)) + [12])
    def test_packed_terms_equal_dict_terms(self, degree):
        for s in self.draws(degree):
            for terms in self.terms_for(degree):
                k = degree + 2 if terms is None else terms
                if k == 0:              # the packed route needs K >= 1
                    continue
                packed = indexcomb._residual_bag_packed(2, s, k)
                assert sorted(packed, key=lambda t: t[1]) == \
                    sorted(indexcomb._residual_bag_dict(2, s, k), key=lambda t: t[1])

    @pytest.mark.parametrize("bits", [8, 16, 32, 64])
    def test_slots_keep_a_sign_bit(self, bits):
        # at K = 1 a slot holds s_i itself, which can reach the bound
        for c in (2 ** (bits - 1), 2 ** bits - 1):
            for s in ([c], [-c], [0, c], [c, 0, -c]):
                assert sorted(indexcomb._residual_bag_packed(2, s, 1)) == \
                    sorted(indexcomb._residual_bag_dict(2, s, 1))

    @pytest.mark.parametrize("degree", list(range(1, 11)) + [12])
    def test_residual_equals_normalized_dict_terms(self, degree):
        cfg = PrimeConfig.make(2)
        for s in self.draws(degree):
            for cap in self.caps_for(degree):
                cert = Certificate(s, cap=cap)
                for terms in self.terms_for(degree):
                    k = degree + 2 if terms is None else terms
                    got = _outcome(lambda: certificate_residual(cfg, cert, terms))
                    want = _outcome(lambda: normalize(
                        cfg, indexcomb._residual_bag_dict(2, s, k), cap, den=2 ** k))
                    assert got == want, (s, cap, terms)

    @pytest.mark.parametrize("degree", list(range(1, 11)) + [12])
    def test_ring_route_agrees(self, degree):
        # the ring route's cost grows fast with degree and K: it runs every
        # cap and K up to degree 6, and fewer of them beyond
        cfg = PrimeConfig.make(2)
        caps = self.CAPS if degree <= 6 else (Fr(-1),)
        terms_all = (1, None, degree + 4) if degree <= 6 else \
            ((1, None) if degree <= 10 else (1,))
        for s in self.draws(degree):
            for cap in caps:
                # an exact residual at p = 2 needs s >= 0
                cert = Certificate([abs(x) for x in s] if is_inf(cap) else s, cap=cap)
                for terms in terms_all:
                    a = certificate_residual(cfg, cert, terms)
                    b = certificate_residual_by_powers(cfg, cert, terms)
                    assert a.digits == b.digits and a.cap == b.cap, (cert.s, cap, terms)

    def test_route_follows_p_degree_and_terms(self, monkeypatch):
        taken = []                      # which route ran; it returns no terms
        for name in ("_residual_bag_packed", "_residual_bag_dict"):
            monkeypatch.setattr(indexcomb, name, lambda *a, name=name:
                                taken.append(name.rsplit("_", 1)[1]) or [])

        def route(p, degree, terms=None):
            taken.clear()
            certificate_residual(PrimeConfig.make(p), Certificate(
                (1,) * (degree + 1), cap=Fr(1)), terms)
            return taken[0]

        assert [route(2, d) for d in range(1, 9)] == ["dict"] * 2 + ["packed"] * 6
        assert {route(p, d) for p in (3, 5) for d in range(1, 6)} == {"dict"}
        assert [route(2, 6, t) for t in (0, 1, 2, 8, 40)] == \
            ["dict", "dict", "packed", "packed", "dict"]

    def test_far_terms_take_the_dict_route(self, monkeypatch):
        # packed, K = 40 at degree 2 would need 2 * 2^39 + 1 slots
        monkeypatch.setattr(indexcomb, "_residual_bag_packed", None)
        cfg = PrimeConfig.make(2)
        cert = Certificate((1, 1, 1), cap=Fr(1))
        got = certificate_residual(cfg, cert, terms=40)
        assert got == residual_by_multinomials(cfg, cert, terms=40)

    @pytest.mark.parametrize("s", ["1,0,0,0,4", "1,0,0,0,-4", "3,0,0,0,4"])
    def test_primitive_certificates_that_vanish_below_cap_1(self, s):
        # gcd 1, yet every class total sits at or above cap 1 at p = 2
        # (the kstar total ±96 = ±2^5 * 3 among them); cap 5 shows them nonzero
        from hahnforge.cli import run
        for cap, nonzero in (("1", "false"), ("5", "true")):
            out = io.StringIO()
            assert run(["-p", "2", "certificate-check", s, "--cap", cap], out=out) == 0
            lines = out.getvalue().splitlines()
            assert lines[1] == f"nonzero below cap: {nonzero}"
            assert (lines[0] == "residual: O(p^(1))") == (cap == "1")
