import math
import random
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings, strategies as st

from hahnforge import hahn_padic, newton
from hahnforge.errors import (BoundViolation, FieldExtensionExceeded,
                               PrecisionLoss)
from hahnforge.exactnum import FqElem, PrimeConfig, subfield_embedding
from hahnforge.hahn_eqchar import EqHahn
from hahnforge.hahn_padic import PHahn, frak_a, from_integer, normalize
from hahnforge.newton import (
    ExpandOptions,
    _taylor_shift,
    expand_root_padic,
    expand_roots_eq,
    polygon_of,
    verify_root,
)
from hahnforge.parsing import parse_poly, poly_to_coeffs
from hahnforge.series import TruncatedSeries, eval_poly

INF = math.inf


def eq_artin_schreier(cfg):
    """X^p - X - t^(-1) (signs collapse in char p)."""
    coeffs = [EqHahn.zero(cfg) for _ in range(cfg.p + 1)]
    coeffs[0] = EqHahn.monomial(cfg, -1, Fr(-1))
    coeffs[1] = EqHahn.from_int(cfg, -1)
    coeffs[cfg.p] = EqHahn.one(cfg)
    return coeffs


def eq_prop33(cfg):
    p = cfg.p
    coeffs = [EqHahn.zero(cfg) for _ in range(p + 1)]
    coeffs[0] = EqHahn.monomial(cfg, -1, Fr(p - 1))
    coeffs[1] = EqHahn.monomial(cfg, -1, Fr(p - 1))
    coeffs[p] = EqHahn.one(cfg)
    return coeffs


def padic_artin_schreier(cfg, coeff_cap):
    """X^p - X - p^(-1) over PHahn coefficients known below coeff_cap."""
    coeffs = [PHahn.zero(cfg) for _ in range(cfg.p + 1)]
    coeffs[0] = normalize(cfg, [(-1, Fr(-1))], coeff_cap)
    coeffs[1] = from_integer(cfg, -1, coeff_cap)
    coeffs[cfg.p] = PHahn.one(cfg)
    return coeffs


class TestPolygon:
    def test_artin_schreier_hull(self):
        cfg = PrimeConfig.make(2)
        poly = polygon_of(eq_artin_schreier(cfg))
        assert poly.vertices == ((0, Fr(-1)), (2, Fr(0)))
        assert poly.root_valuations() == [(Fr(-1, 2), 2)]

    def test_monomial_x(self):
        cfg = PrimeConfig.make(2)
        poly = polygon_of([EqHahn.zero(cfg), EqHahn.one(cfg)])
        assert poly.vertices == ((1, Fr(0)),)
        assert poly.root_valuations() == [(INF, 1)]

    def test_cubic_p3(self):
        cfg = PrimeConfig.make(3)
        poly = polygon_of(eq_artin_schreier(cfg))
        assert poly.vertices == ((0, Fr(-1)), (3, Fr(0)))
        assert poly.root_valuations() == [(Fr(-1, 3), 3)]

    def test_hull_invariants_random(self):
        cfg = PrimeConfig.make(3)
        rng = random.Random(3)
        pool = sorted({Fr(n, d) for n in range(-6, 7) for d in (1, 2, 3)})
        for _ in range(200):
            coeffs = []
            for _i in range(rng.randrange(2, 7)):
                if rng.random() < 0.25:
                    coeffs.append(EqHahn.zero(cfg))
                else:
                    coeffs.append(EqHahn.monomial(cfg, 1, rng.choice(pool)))
            if all(c.is_exact_zero() for c in coeffs):
                continue
            poly = polygon_of(coeffs)
            hull = list(poly.vertices)
            # every point on or above the hull
            for i, c in enumerate(coeffs):
                if c.leading() is not None:
                    level = c.leading()[0]
                    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
                        if x1 <= i <= x2:
                            chord = y1 + Fr(y2 - y1, x2 - x1) * (i - x1)
                            assert level >= chord
            # slopes strictly increase
            slopes = [s for *_rest, s in poly.segments()]
            assert slopes == sorted(slopes) and len(set(slopes)) == len(slopes)
            # horizontal lengths sum to degree span
            nonzero = [i for i, c in enumerate(coeffs) if c.leading() is not None]
            assert sum(i2 - i1 for i1, _, i2, _, _ in poly.segments()) == \
                nonzero[-1] - nonzero[0]


def _fraction_hull(coeffs):
    """(vertices, zero multiplicity) of the lower hull of the points
    (i, v(a_i)), or PrecisionLoss when no valuation is resolved or an
    unresolved coefficient's cap is at or below the hull.

    Brute force on Fraction points, independent of polygon_of: a point is a
    vertex when every chord over two points on either side of it passes
    strictly below it, and the hull's value at x is the least chord value
    there (flat beyond the end points).
    """
    pts = [(i, c.terms[0][0]) for i, c in enumerate(coeffs) if c.terms]
    if not pts:
        return PrecisionLoss

    def chord(a, b, x):
        (xa, ya), (xb, yb) = a, b
        return ya if xa == xb else ya + (yb - ya) * Fr(x - xa, xb - xa)

    def hull_at(x):
        x = min(max(x, pts[0][0]), pts[-1][0])
        return min(chord(a, b, x) for a in pts for b in pts if a[0] <= x <= b[0])

    for i, c in enumerate(coeffs):
        if not c.terms and not c.is_exact_zero() and c.cap <= hull_at(i):
            return PrecisionLoss
    vertices = tuple(pt for k, pt in enumerate(pts)
                     if all(chord(a, b, pt[0]) > pt[1]
                            for a in pts[:k] for b in pts[k + 1:]))
    return vertices, pts[0][0]


class TestPolygonOracle:
    """polygon_of's int hull against the Fraction brute force."""

    @pytest.mark.parametrize("ring", [EqHahn, PHahn])
    def test_matches_fraction_hull(self, ring):
        cfg = PrimeConfig.make(3)
        rng = random.Random(16)
        pool = sorted({Fr(n, d) for n in range(-12, 13) for d in range(1, 7)})
        slack = [e for e in pool if e > 0]
        outcomes = []
        for _ in range(400):
            coeffs = []
            for _i in range(rng.randrange(1, 8)):
                kind = rng.random()
                if kind < 0.15:
                    coeffs.append(ring.zero(cfg))
                elif kind < 0.35:  # unresolved below a finite cap
                    coeffs.append(ring.zero(cfg, cap=rng.choice(pool)))
                else:
                    exps = sorted(rng.sample(pool, rng.randrange(1, 4)))
                    cap = rng.choice([INF, exps[-1] + rng.choice(slack)])
                    coeffs.append(ring(cfg, [(e, cfg.fq(rng.randrange(1, 3)))
                                             for e in exps], cap))
            want = _fraction_hull(coeffs)
            if want is PrecisionLoss:
                with pytest.raises(PrecisionLoss):
                    polygon_of(coeffs)
            else:
                poly = polygon_of(coeffs)
                assert (poly.vertices, poly.zero_multiplicity) == want
            outcomes.append(want is PrecisionLoss)
        # both outcomes are well represented
        assert 50 < sum(outcomes) < 350

    @pytest.mark.parametrize("cap,raises", [(Fr(-2, 5), True), (Fr(-1, 3), True),
                                            (Fr(-1, 4), False)])
    def test_unresolved_cap_at_the_hull_raises(self, cap, raises):
        # the hull from (0, -1) to (2, 1/3) is at -1/3 over index 1
        cfg = PrimeConfig.make(2)
        coeffs = [EqHahn.monomial(cfg, 1, Fr(-1)), EqHahn.zero(cfg, cap=cap),
                  EqHahn.monomial(cfg, 1, Fr(1, 3))]
        assert (_fraction_hull(coeffs) is PrecisionLoss) == raises
        if raises:
            with pytest.raises(PrecisionLoss):
                polygon_of(coeffs)
        else:
            assert polygon_of(coeffs).vertices == ((0, Fr(-1)), (2, Fr(1, 3)))


class TestStepPath:
    """Newton's steps read int exponents and multiply coefficient tuples."""

    @staticmethod
    def padic_deviation():
        cfg = PrimeConfig.make(3)
        coeffs = padic_artin_schreier(cfg, Fr(1))
        return coeffs, lambda: expand_root_padic(coeffs, cap=Fr(1, 3))

    @staticmethod
    def eq_over_f4():
        # X^2 + X + g t^(-1): the shift digits are powers of g^2 = sqrt(g)
        cfg = PrimeConfig.make(2, 2)
        coeffs = [EqHahn.monomial(cfg, cfg.fq_gen(), Fr(-1)), EqHahn.one(cfg),
                  EqHahn.one(cfg)]
        return coeffs, lambda: expand_roots_eq(coeffs, max_terms=4)

    @pytest.mark.parametrize("case", ["padic_deviation", "eq_over_f4"])
    def test_no_terms_view_and_no_field_product(self, case, monkeypatch):
        coeffs, expand = getattr(self, case)()
        views, products = [], []
        terms, mul = TruncatedSeries.terms, FqElem.__mul__

        def counting_terms(self):
            views.append(self)
            return terms.fget(self)

        def counting_mul(self, other):
            products.append((self, other))
            return mul(self, other)

        for cls, name in [(TruncatedSeries, "terms"), (PHahn, "digits")]:
            monkeypatch.setattr(cls, name, property(counting_terms))
        for name in ("__mul__", "__rmul__"):
            monkeypatch.setattr(FqElem, name, counting_mul)
        branches = expand()
        monkeypatch.undo()
        assert (views, products) == ([], [])
        assert len(branches) == coeffs[0].cfg.p
        for b in branches:
            big = [c.embed(b.cfg) for c in coeffs]
            verify_root(big, b.value().truncate(Fr(1)), b.residual_bound)


class TestExpandEq:
    def test_abhyankar_two_branches(self):
        cfg = PrimeConfig.make(2)
        branches = expand_roots_eq(eq_artin_schreier(cfg), max_terms=3)
        assert len(branches) == 2
        negss = [Fr(-1, 2), Fr(-1, 4), Fr(-1, 8)]
        main = [b for b in branches if b.term_at(Fr(0)) is None][0]
        shifted = [b for b in branches if b.term_at(Fr(0)) is not None][0]
        assert main.exponents() == negss
        assert shifted.exponents() == negss + [Fr(0)]
        assert all(c == cfg.fq(1) for _, c in main.terms)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_artin_schreier_branches_differ_by_prime_field(self, p):
        cfg = PrimeConfig.make(p)
        branches = expand_roots_eq(eq_artin_schreier(cfg), max_terms=3)
        assert len(branches) == p
        consts = sorted(
            (b.term_at(Fr(0)) or cfg.fq(0)).coeffs[0] for b in branches)
        assert consts == list(range(p))
        # all branches share the same fractional prefix
        prefixes = {tuple(t for t in b.terms if t[0] < 0) for b in branches}
        assert len(prefixes) == 1

    def test_square_root_of_t(self):
        cfg = PrimeConfig.make(5)
        coeffs = [EqHahn.monomial(cfg, -1, Fr(1)), EqHahn.zero(cfg), EqHahn.one(cfg)]
        branches = expand_roots_eq(coeffs, max_terms=1)
        assert len(branches) == 2
        leads = sorted(c.coeffs[0] for b in branches for e, c in b.terms)
        assert leads == [1, 4]  # +-1
        assert all(b.exponents() == [Fr(1, 2)] for b in branches)

    def test_prop33_branch(self):
        cfg = PrimeConfig.make(2)
        branches = expand_roots_eq(eq_prop33(cfg), max_terms=3)
        mains = [b for b in branches
                 if b.exponents()[:3] == [Fr(1, 2), Fr(3, 4), Fr(7, 8)]
                 and len(b.terms) == 3]
        assert len(mains) == 1

    def test_every_branch_verifies_declared_bound(self):
        for p in (2, 3):
            cfg = PrimeConfig.make(p)
            for coeffs in (eq_artin_schreier(cfg), eq_prop33(cfg)):
                for b in expand_roots_eq(coeffs, max_terms=4):
                    big = [c.embed(b.cfg) for c in coeffs]
                    verify_root(big, b.value(), b.residual_bound)

    def test_field_extension_for_irreducible_residue(self):
        cfg = PrimeConfig.make(2)
        # X^2 + X + 1: residue equation needs F_4
        coeffs = [EqHahn.one(cfg), EqHahn.one(cfg), EqHahn.one(cfg)]
        branches = expand_roots_eq(coeffs, max_terms=2)
        assert len(branches) == 2
        assert all(b.field_degree == 2 for b in branches)
        for b in branches:
            assert b.residual_bound == INF
            assert eval_poly([c.embed(b.cfg) for c in coeffs],
                             b.value()).is_exact_zero()

    def test_field_extension_budget_exceeded(self):
        cfg = PrimeConfig.make(2)
        coeffs = [EqHahn.one(cfg), EqHahn.one(cfg), EqHahn.one(cfg)]
        with pytest.raises(FieldExtensionExceeded):
            expand_roots_eq(coeffs, max_terms=2,
                            opts=ExpandOptions(max_field_degree=1))

    def test_field_extension_past_degree_two(self):
        cfg = PrimeConfig.make(2)
        # X^3 + X + 1 has no root in F_2 or F_4: the search reaches F_8
        coeffs = [EqHahn.one(cfg), EqHahn.one(cfg), EqHahn.zero(cfg),
                  EqHahn.one(cfg)]
        branches = expand_roots_eq(coeffs, max_terms=1)
        assert [str(c) for b in branches for _, c in b.terms] == [
            "g", "g^2", "g^2+g"]
        for b in branches:
            assert (b.exponents(), b.residual_bound, b.field_degree) == (
                [0], INF, 3)
            assert eval_poly([c.embed(b.cfg) for c in coeffs],
                             b.value()).is_exact_zero()
        with pytest.raises(FieldExtensionExceeded,
                           match="^no residue root within extension degree 2$"):
            expand_roots_eq(coeffs, max_terms=1,
                            opts=ExpandOptions(max_field_degree=2))

    def test_field_extension_over_f4_reaches_degree_six(self):
        cfg = PrimeConfig.make(2, r=2)
        # X^3 + X + 1 stays irreducible over F_4: its roots lie in F_64
        coeffs = [EqHahn.one(cfg), EqHahn.one(cfg), EqHahn.zero(cfg),
                  EqHahn.one(cfg)]
        branches = expand_roots_eq(coeffs, max_terms=1)
        assert len(branches) == 3
        for b in branches:
            assert (b.exponents(), b.residual_bound, b.field_degree) == (
                [0], INF, 6)
            assert eval_poly([c.embed(b.cfg) for c in coeffs],
                             b.value()).is_exact_zero()
        with pytest.raises(FieldExtensionExceeded,
                           match="^no residue root within extension degree 5$"):
            expand_roots_eq(coeffs, max_terms=1,
                            opts=ExpandOptions(max_field_degree=5))

    def test_field_extension_takes_the_least_factor_degree(self):
        cfg = PrimeConfig.make(2)
        # X^5 + X^4 + 1 = (X^2 + X + 1)(X^3 + X + 1): F_4 holds the roots of
        # the quadratic factor, so no branch goes on to F_8 or F_64
        one, zero = EqHahn.one(cfg), EqHahn.zero(cfg)
        coeffs = [one, zero, zero, zero, one, one]
        branches = expand_roots_eq(coeffs, max_terms=1)
        assert [(b.field_degree, str(b.terms[0][1])) for b in branches] == [
            (2, "g"), (2, "g+1")]
        for b in branches:
            assert eval_poly([c.embed(b.cfg) for c in coeffs],
                             b.value()).is_exact_zero()

    def test_field_extension_builds_one_field(self, monkeypatch):
        # the extension degree is read from the residue polynomial's least
        # factor degree, not found by building every field below it
        cfg = PrimeConfig.make(2)
        built, make = [], PrimeConfig.make

        def counted(p, r=1, **kwargs):
            built.append((p, r))
            return make(p, r, **kwargs)

        monkeypatch.setattr(PrimeConfig, "make", staticmethod(counted))
        one, zero = EqHahn.one(cfg), EqHahn.zero(cfg)
        coeffs = [one, zero, one, zero, zero, one]        # X^5 + X^2 + 1
        branches = expand_roots_eq(coeffs, max_terms=1)
        assert built == [(2, 5)]
        assert len(branches) == 5 and all(b.field_degree == 5 for b in branches)

    @pytest.mark.parametrize("max_terms", [10, 12, 2000])
    def test_term_budget_at_the_step_budget_is_named(self, max_terms):
        from hahnforge.errors import NoProgress
        cfg = PrimeConfig.make(2)
        message = (f"^max_terms={max_terms} reaches the step budget "
                   f"max_steps=10$")
        with pytest.raises(NoProgress, match=message):
            expand_roots_eq(eq_artin_schreier(cfg), max_terms=max_terms,
                            opts=ExpandOptions(max_steps=10))

    def test_deeper_truncations(self):
        cfg = PrimeConfig.make(2)
        branches = expand_roots_eq(eq_artin_schreier(cfg), max_terms=6)
        main = [b for b in branches if b.term_at(Fr(0)) is None][0]
        assert main.exponents() == [Fr(-1, 2 ** k) for k in range(1, 7)]
        assert main.residual_bound == Fr(-1, 64)


class TestExpandPadic:
    def test_linear_polynomial_returns_constant(self):
        cfg = PrimeConfig.make(3)
        c = normalize(cfg, [(7, Fr(0)), (2, Fr(1, 3))], Fr(3))
        coeffs = [-c, PHahn.one(cfg)]
        branches = expand_root_padic(coeffs, cap=Fr(3))
        assert len(branches) == 1
        assert branches[0].value().digits == c.digits

    def test_square_root_of_p(self):
        cfg = PrimeConfig.make(5)
        coeffs = [from_integer(cfg, -5, Fr(4)), PHahn.zero(cfg), PHahn.one(cfg)]
        branches = expand_root_padic(coeffs, cap=Fr(2))
        assert len(branches) == 2
        leads = sorted(b.terms[0][1].coeffs[0] for b in branches)
        assert leads == [1, 4]
        assert all(b.terms[0][0] == Fr(1, 2) for b in branches)

    @pytest.mark.parametrize("p", [2, 3])
    def test_deviation_from_frak_a(self, p):
        cfg = PrimeConfig.make(p)
        cap = Fr(1, 2) if p == 2 else Fr(1, 3)
        branches = expand_root_padic(padic_artin_schreier(cfg, Fr(1)), cap=cap)
        alpha = [b for b in branches if b.term_at(Fr(0)) is None]
        assert len(alpha) == 1
        alpha = alpha[0]
        deviation = Fr(1, p) - Fr(1, p * p)
        neg = [(e, c) for e, c in alpha.terms if e < 0]
        pos = [(e, c) for e, c in alpha.terms if e >= 0]
        # negative part is exactly a truncation of the headline series
        ref = frak_a(cfg, Fr(0), terms=len(neg))
        assert tuple(neg) == ref.digits
        # all digits below the deviation exponent agree; the first extra digit
        # sits at exactly 1/p - 1/p^2 with coefficient [1]
        assert pos[0][0] == deviation
        assert pos[0][1] == cfg.fq(1)

    def test_deviation_on_every_branch_at_p5_r2(self):
        cfg = PrimeConfig.make(5, 2)
        cap = Fr(1, 5)
        coeffs = padic_artin_schreier(cfg, cap + 4)
        branches = expand_root_padic(coeffs, cap=cap)
        assert len(branches) == 5
        deviation = Fr(1, 5) - Fr(1, 25)
        for b in branches:
            assert b.term_at(deviation) == cfg.fq(1)
            # digits such as [3] have no integer lift, so exact powers of the
            # prefix cannot be summed; known below O(p) it certifies the bound
            verify_root(coeffs, b.value().truncate(Fr(1)), b.residual_bound)
        alpha, = [b for b in branches if b.term_at(Fr(0)) is None]
        neg = tuple((e, c) for e, c in alpha.terms if e < 0)
        assert neg == frak_a(cfg, Fr(0), terms=len(neg)).digits
        assert [e for e, _ in alpha.terms if 0 <= e < deviation] == []

    @pytest.mark.parametrize("p", [2, 3])
    def test_branch_count_matches_artin_schreier(self, p):
        cfg = PrimeConfig.make(p)
        cap = Fr(1, 2) if p == 2 else Fr(1, 3)
        branches = expand_root_padic(padic_artin_schreier(cfg, Fr(1)), cap=cap)
        assert len(branches) == p

    def test_branches_verify_their_bounds(self):
        for p in (2, 3):
            cfg = PrimeConfig.make(p)
            cap = Fr(1, 2) if p == 2 else Fr(1, 3)
            coeffs = padic_artin_schreier(cfg, Fr(1))
            for b in expand_root_padic(coeffs, cap=cap):
                verify_root(coeffs, b.value().truncate(INF), b.residual_bound)

    def test_field_extension_in_padic_expansion(self):
        cfg = PrimeConfig.make(3)
        # X^2 - [2]p: the residue equation Y^2 = 2 is rootless over F_3
        c0 = normalize(cfg, [((-1, cfg.fq(2)), Fr(1))], Fr(4))
        coeffs = [c0, PHahn.zero(cfg), PHahn.one(cfg)]
        branches = expand_root_padic(coeffs, cap=Fr(2))
        assert len(branches) == 2
        assert all(b.field_degree == 2 for b in branches)
        assert all(b.terms[0][0] == Fr(1, 2) for b in branches)
        big = branches[0].cfg
        for b in branches:
            lead = b.terms[0][1]
            assert lead * lead == subfield_embedding(cfg.fq(2), big)

    def test_step_budget_raises_no_progress(self):
        from hahnforge.errors import NoProgress
        cfg = PrimeConfig.make(2)
        # the root has ~40 digits below the cap, far beyond the tiny budget
        c = from_integer(cfg, (2 ** 41 - 1) // 1, Fr(40))
        coeffs = [normalize(cfg, [((-1, d), e) for e, d in c.digits], Fr(40)),
                  PHahn.one(cfg)]
        with pytest.raises(NoProgress):
            expand_root_padic(coeffs, cap=Fr(40),
                              opts=ExpandOptions(max_steps=10))


# polynomials whose p-adic branches are compared across the caps of one sweep
CAP_SWEEP = [(2, "X^2-X-p^(-1)"), (3, "X^3-X-p^(-1)"), (5, "X^5-X-p^(-1)"),
             (2, "X^2+X+p^(-1)"), (5, "X^2-[2]*p^(1)"), (7, "X^2-[3]*p^(2)")]
SWEEP_CAPS = [Fr(1, 4), Fr(1, 2), Fr(1), Fr(2), Fr(3)]


class TestCapSweep:
    """Raising the cap only adds digits: a branch printed at one cap comes
    back in some branch at every larger cap, and each reported bound holds.
    The sweep is fixed (no random draws), so every run sees the same 30
    expansions."""

    @pytest.mark.parametrize("p,poly", CAP_SWEEP,
                             ids=[f"p{p}:{f}" for p, f in CAP_SWEEP])
    def test_digits_below_a_cap_come_back_at_every_larger_cap(self, p, poly):
        cfg = PrimeConfig.make(p)
        runs = []
        for cap in SWEEP_CAPS:
            coeffs = poly_to_coeffs(parse_poly(poly), cfg, PHahn, coeff_cap=cap + 4)
            branches = expand_root_padic(coeffs, cap=cap)
            assert branches
            for b in branches:
                big = [c.embed(b.cfg) for c in coeffs]
                verify_root(big, b.value(), b.residual_bound)
            runs.append((cap, branches))
        for i, (cap, small) in enumerate(runs):
            for _, large in runs[i + 1:]:
                for b in small:
                    below = [(e, c) for e, c in b.terms if e < cap]
                    assert any(all(big.term_at(e) == subfield_embedding(c, big.cfg)
                                   for e, c in below) for big in large), (cap, b)


class TestVerifyRoot:
    @pytest.mark.parametrize("p,K", [(2, 1), (2, 4), (3, 3), (5, 2)])
    def test_abhyankar_partial_valuation(self, p, K):
        cfg = PrimeConfig.make(p)
        prefix = EqHahn(cfg, [(Fr(-1, p ** k), cfg.fq(1)) for k in range(1, K + 1)])
        val = verify_root(eq_artin_schreier(cfg), prefix, Fr(-1, p ** K))
        assert val == Fr(-1, p ** K)

    @pytest.mark.parametrize("p,K", [(2, 2), (3, 2), (5, 1)])
    def test_prop33_partial_valuation(self, p, K):
        cfg = PrimeConfig.make(p)
        prefix = EqHahn(cfg, [(1 - Fr(1, p ** k), cfg.fq(1)) for k in range(1, K + 1)])
        val = verify_root(eq_prop33(cfg), prefix, p - Fr(1, p ** K))
        assert val == p - Fr(1, p ** K)

    def test_exact_root_gives_infinity(self):
        cfg = PrimeConfig.make(2)
        coeffs = [EqHahn.zero(cfg), EqHahn.one(cfg)]
        assert verify_root(coeffs, EqHahn.zero(cfg), Fr(100)) == INF

    def test_bound_violation_carries_valuation(self):
        cfg = PrimeConfig.make(2)
        prefix = EqHahn(cfg, [(Fr(-1, 2), cfg.fq(1))])
        with pytest.raises(BoundViolation) as err:
            verify_root(eq_artin_schreier(cfg), prefix, Fr(0))
        assert err.value.valuation == Fr(-1, 2)


def _taylor_shift_synthetic(coeffs, tau):
    """Coefficients of f(X + tau) by repeated synthetic division: the
    n(n-1)/2 ring updates a_j += a_(j+1) * tau, each one canonicalised."""
    a = list(coeffs)
    n = len(a)
    for k in range(n - 1):
        for j in range(n - 2, k - 1, -1):
            a[j] = a[j] + a[j + 1] * tau
    return a


# the cubic fields reduce tuple products by a degree-3 modulus
SHIFT_FIELDS = [(p, r) for p in (2, 3, 5, 7) for r in (1, 2)] + [(2, 3), (3, 3)]
SHIFT_EXPS = sorted({Fr(n, d) for n in range(-4, 5) for d in (1, 2, 3)})


@st.composite
def shift_cases(draw):
    """A polynomial of degree 1-5 and a monomial tau over one ring and field.

    Coefficients are exact zeros, exact or capped; tau's cap is finite and
    close above its exponent, so it binds (the p-adic expander never shifts
    by an exact tau; the equal-characteristic one always does)."""
    ring = draw(st.sampled_from([EqHahn, PHahn]))
    cfg = PrimeConfig.make(*draw(st.sampled_from(SHIFT_FIELDS)))
    digit = st.sampled_from(list(cfg.fq_elements())[1:])
    caps = st.builds(Fr, st.integers(-3, 8), st.sampled_from([1, 2, 3]))

    def coeff():
        if draw(st.integers(0, 3)) == 0:
            return ring.zero(cfg)
        cap = draw(st.one_of(caps, st.just(INF)))
        terms = draw(st.dictionaries(st.sampled_from(SHIFT_EXPS), digit,
                                     max_size=3))
        return ring(cfg, sorted((e, d) for e, d in terms.items() if e < cap),
                    cap)

    coeffs = [coeff() for _ in range(draw(st.integers(2, 6)))]
    e = draw(st.sampled_from(SHIFT_EXPS))
    slack = st.sampled_from([Fr(1, 3), Fr(1, 2), Fr(1), Fr(2)])
    tau_cap = e + draw(slack if ring is PHahn
                       else st.one_of(slack, st.just(INF)))
    return coeffs, ring.monomial(cfg, draw(digit), e, cap=tau_cap)


class TestTaylorShift:
    """The closed form against repeated synthetic division."""

    @settings(max_examples=400, derandomize=True, database=None,
              deadline=None)
    @given(shift_cases())
    def test_matches_synthetic_division(self, case):
        coeffs, tau = case
        shifted = _taylor_shift(coeffs, tau)
        oracle = _taylor_shift_synthetic(coeffs, tau)
        assert [b.terms for b in shifted] == [b.terms for b in oracle]
        assert [b.cap for b in shifted] == [b.cap for b in oracle]

    def test_cap_of_a_term_whose_binomial_vanishes_mod_p(self):
        # b_1 = a_1 + C(2,1) a_2 tau: C(2,1) = 0 in characteristic 2, but
        # a_2 = 1 + O(t) still bounds b_1 below O(t^(1 + e)) with e = -1
        cfg = PrimeConfig.make(2)
        coeffs = [EqHahn.zero(cfg), EqHahn.monomial(cfg, 1, Fr(1)),
                  EqHahn.one(cfg, cap=Fr(1))]
        tau = EqHahn.monomial(cfg, 1, Fr(-1))
        shifted = _taylor_shift(coeffs, tau)
        assert shifted == _taylor_shift_synthetic(coeffs, tau)
        assert shifted[1] == EqHahn.zero(cfg, cap=Fr(0))
        assert shifted[0] == EqHahn(cfg, [(Fr(-2), 1)], Fr(-1))
        assert shifted[2] == coeffs[2]

    @pytest.mark.parametrize("p", [2, 3])
    def test_eq_shift_multiplies_no_term_whose_binomial_vanishes(
            self, p, monkeypatch):
        # X^p - X - t^(-1) shifted by [g]*t^(-1/p) over F_(p^2): the powers
        # g^2 .. g^p are p - 1 products, and then only the terms of a_1 and
        # a_p into b_0 are multiplied, since C(p, k) = 0 mod p for 0 < k < p
        cfg = PrimeConfig.make(p, 2)
        coeffs = [EqHahn.monomial(cfg, -1, Fr(-1)), EqHahn.monomial(cfg, -1, 0)]
        coeffs += [EqHahn.zero(cfg)] * (p - 2) + [EqHahn.one(cfg)]
        tau = EqHahn.monomial(cfg, cfg.fq_gen(), Fr(-1, p))
        calls, mul = [], newton.fq_mul

        def counting(*args):
            calls.append(args)
            return mul(*args)

        monkeypatch.setattr(newton, "fq_mul", counting)
        shifted = _taylor_shift(coeffs, tau)
        monkeypatch.undo()
        assert shifted == _taylor_shift_synthetic(coeffs, tau)
        assert len(calls) == (p - 1) + 2

    @pytest.mark.parametrize("degree", [1, 2, 3, 5])
    def test_padic_shift_normalizes_once_per_coefficient(self, degree,
                                                          monkeypatch):
        cfg = PrimeConfig.make(3)
        coeffs = [normalize(cfg, [(i + 1, Fr(-1, 3)), (2, Fr(i, 2))], Fr(3))
                  for i in range(degree + 1)]
        tau = PHahn.monomial(cfg, 2, Fr(-1, 9), cap=Fr(4))
        oracle = _taylor_shift_synthetic(coeffs, tau)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return normalize(*args, **kwargs)

        # the one name PHahn's canonicalizer, and so the shift, calls
        monkeypatch.setattr(hahn_padic, "normalize", counting)
        assert _taylor_shift(coeffs, tau) == oracle
        assert len(calls) <= degree + 1

    @pytest.mark.parametrize("degree", [1, 2, 3, 5])
    def test_eq_shift_canonicalizes_once_per_coefficient(self, degree,
                                                         monkeypatch):
        cfg = PrimeConfig.make(3)
        coeffs = [EqHahn(cfg, [(Fr(-1, 3), i + 1), (Fr(i, 2), 2)], Fr(3))
                  for i in range(degree + 1)]
        tau = EqHahn.monomial(cfg, 2, Fr(-1, 9), cap=Fr(4))
        oracle = _taylor_shift_synthetic(coeffs, tau)
        canonical, calls = EqHahn._canonical, []

        def counting(cls, *args):
            calls.append(args)
            return canonical(*args)

        monkeypatch.setattr(EqHahn, "_canonical", classmethod(counting))
        assert _taylor_shift(coeffs, tau) == oracle
        assert len(calls) <= degree + 1
