"""Newton-polygon root expansion over Hahn-series coefficients.

The expander runs the classical successive-approximation loop for both
coefficient rings (equal characteristic and p-adic):

    1. take the lower convex hull of (i, v(a_i)) for the shifted polynomial
       f(prefix + X); each hull segment of slope -e with e above the previous
       increment offers a candidate next exponent;
    2. the segment's residue polynomial (leading digits of the on-segment
       coefficients) without its zero roots is solved over F_{p^r} by
       exactnum.fq_poly_roots, or if rootless over F_{p^(rd)}, d the least
       degree of its irreducible factors (exactnum's distinct-degree ladder);
    3. every nonzero residue root appends a term and the polynomial is
       Taylor-shifted by it, in closed form: the shift monomial's powers
       are monomials, so each shifted coefficient is one bag of terms,
       canonicalised once by its ring (see _taylor_shift).

Exponent accumulation.  Families like X^p - X - u produce increments whose
consecutive differences shrink by exactly 1/p, so the plain loop would walk
forever toward an accumulation point without crossing it.  The expander
detects that geometric pattern and strips the residual's leading (vanishing)
term: if what remains is exactly zero the jump is immediate (the equal
characteristic telescopes); otherwise stepping continues until two
consecutive stripped residuals agree below a usable exponent, and that
stabilized value is adopted as the residual past the accumulation point.
No ordinal bookkeeping is materialized.  The jump is also where
Artin-Schreier branches separate: the post-jump polygon exposes the
Y^p - Y segment whose nonzero residue roots shift the branch by constants.

Branch ends.  A state is finished as a branch at one place, with the bound
a0.val_lower_bound() of its residual a0 = f(prefix): when a0 has no term
below its cap, when no hull segment continues it (below the cap, within
the term budget), or when a segment at or above the cap was dropped -- a
root then agrees with the prefix below the cap, as the constant-free root
of X^2 - X - p^(-1) does at cap 1/4.  A finished state still pushes the
children of its remaining segments.

A jumped branch's reported residual bound stays at the valuation the finite
prefix actually achieves (the stripped head), never at what the untruncated
limit would achieve; verify_root against the returned prefix therefore
always passes at the declared bound.

Representation.  The step path runs on ints and coefficient tuples: the
polygon's valuations are int numerators over one common denominator, the
state's exponents are reduced (numerator, denominator) pairs, and the shift
multiplies digits as raw coefficient values.  The shift builds its bags
without asking which ring it is in: the ring's canonicalizer `_canonical`,
the one the series core's sums and products call, turns each into a value.
Fractions are built only for RootBranch terms and bounds and for
NewtonPolygon's public view; FqElems only as residue roots and their
polynomial's coefficients.

Branch order is deterministic: slopes increasing, residue roots in
lexicographic coefficient order.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest
from types import SimpleNamespace

from .errors import (
    BoundViolation,
    FieldExtensionExceeded,
    NoProgress,
    PrecisionLoss,
)
from .exactnum import (FqElem, PrimeConfig, _Frozen, _Record, _poly_ring,
                       fq_mul, fq_poly_roots, subfield_embedding)
from .hahn_eqchar import EqHahn
from .hahn_padic import PHahn
from .series import INF, as_frac, eval_poly, int_cap, is_inf

GEO_WINDOW = 3   # geometric increments required before acceleration

__all__ = [
    "NewtonPolygon",
    "RootBranch",
    "ExpandOptions",
    "polygon_of",
    "expand_roots_eq",
    "expand_root_padic",
    "verify_root",
]


class ExpandOptions(_Record):
    __slots__ = ("max_field_degree", "stall_limit", "max_steps")

    def __init__(self, max_field_degree=6, stall_limit=3, max_steps=120):
        self._set(max_field_degree=max_field_degree, stall_limit=stall_limit,
                  max_steps=max_steps)


# ---------------------------------------------------------------------------
# polygons
# ---------------------------------------------------------------------------

class NewtonPolygon(_Frozen):
    """Lower convex hull of (index, valuation) points, slopes increasing:
    int `points` (i, y) for the valuation y/den, with a Fraction view."""

    __slots__ = ("points", "zero_multiplicity", "den")

    def __init__(self, points, zero_multiplicity=0, den=1):
        self._set(points=tuple(points), zero_multiplicity=zero_multiplicity, den=den)

    @property
    def vertices(self):
        return tuple((i, Fraction(y, self.den)) for i, y in self.points)

    def segments(self):
        """(i_left, v_left, i_right, v_right, slope) per hull edge."""
        out = []
        for (i1, v1), (i2, v2) in zip(self.vertices, self.vertices[1:]):
            out.append((i1, v1, i2, v2, Fraction(v2 - v1, i2 - i1)))
        return out

    def root_valuations(self):
        """(valuation, multiplicity) pairs: negated slopes; zero roots as +inf."""
        out = []
        if self.zero_multiplicity:
            out.append((INF, self.zero_multiplicity))
        for i1, _v1, i2, _v2, slope in self.segments():
            out.append((-slope, i2 - i1))
        return out

    def __repr__(self):
        return f"NewtonPolygon(vertices={list(self.vertices)})"


def _lower_hull(points):
    hull = []
    for pt in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # pop while the middle point lies on or above the chord
            if (x2 - x1) * (pt[1] - y1) - (y2 - y1) * (pt[0] - x1) <= 0:
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


def _on_or_below_hull(hull, x, y):
    """(x, y) lies on or below the hull, which is flat beyond its ends."""
    if x <= hull[0][0]:
        return y <= hull[0][1]
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        if x1 <= x <= x2:
            return y * (x2 - x1) <= y1 * (x2 - x1) + (y2 - y1) * (x - x1)
    return y <= hull[-1][1]


def polygon_of(coeffs) -> NewtonPolygon:
    """Newton polygon of a polynomial given as a list of ring elements.

    Exact-zero coefficients are skipped.  A coefficient that merely vanishes
    below a finite cap raises PrecisionLoss when its unresolved region could
    cut the hull; otherwise it is irrelevant and ignored.  Valuations and
    caps are ints over the lcm of their denominators, the polygon's den.
    """
    resolved = []
    unresolved = []
    for i, c in enumerate(coeffs):
        if c.ints:
            resolved.append((i, c))
        elif not c.is_exact_zero():
            unresolved.append((i, c.cap))
    if not resolved:
        raise PrecisionLoss("no coefficient valuation is resolved")
    den = math.lcm(*(c.den for _, c in resolved),
                   *(cap.denominator for _, cap in unresolved))
    hull = _lower_hull([(i, c.ints[0][0] * (den // c.den)) for i, c in resolved])
    for i, cap in unresolved:
        if _on_or_below_hull(hull, i, cap.numerator * (den // cap.denominator)):
            raise PrecisionLoss(
                f"coefficient {i} unresolved below O({cap}); hull uncertain")
    return NewtonPolygon(hull, zero_multiplicity=hull[0][0], den=den)


# ---------------------------------------------------------------------------
# generic ring plumbing
# ---------------------------------------------------------------------------

def _taylor_shift(coeffs, tau):
    """Coefficients b_k = sum_{j >= k} C(j, k) a_j tau^(j-k) of f(X + tau).

    tau = [c]*base^e is one monomial and Teichmüller lifts are
    multiplicative, so tau^i = [c^i]*base^(ie) exactly and each b_k is one
    bag of terms C(j, k)*[d c^(j-k)] at x + (j-k)e over the terms [d]*base^x
    of a_j, canonicalised once by the ring's `_canonical`, which reads the
    bag as sums and products do.  C(j, k) enters as the ring's image of an
    int, `_int_image` (C(j, k) mod p in characteristic p), and a binomial
    whose image is 0 puts no term in the bag and asks for no product.

    Caps are those of repeated synthetic division.  The product rule
    min(cap_a + v(tau), cap_tau + v(a)), applied i >= 1 times, knows
    a_j tau^i below min(cap(a_j) + ie, cap_tau + v(a_j) + (i-1)e); cap(b_k)
    is the min of cap(a_k) and of that bound over every j > k with a_j not
    an exact zero, also where C(j, k) vanishes mod p.  Exponents and caps
    are ints over one common denominator and digits coefficient tuples, so
    d c^i is one `fq_mul`, and no FqElem is built.
    """
    (x_tau, c), = tau.ints
    cfg, n = tau.cfg, len(coeffs)
    den = math.lcm(tau.den, *(a.den for a in coeffs),
                   *(x.denominator for x in [tau.cap] + [a.cap for a in coeffs]
                     if not is_inf(x)))
    step, tau_cap = x_tau * (den // tau.den), int_cap(tau.cap, den)
    rows = [(a.ints_over(den), int_cap(a.cap, den), a.is_exact_zero()) for a in coeffs]
    int_image = type(tau)._int_image
    cpow = [None, c]  # cpow[i] = c^i for i >= 1
    for _ in range(n - 2):
        cpow.append(fq_mul(cfg, cpow[-1], c))
    out = []
    for k in range(n):
        cap, moved = rows[k][1], False
        for j in range(k + 1, n):
            terms, cap_j, zero = rows[j]
            if not zero:
                i, moved = j - k, True
                v = terms[0][0] if terms else cap_j
                cap = min(cap, cap_j + i * step, tau_cap + v + (i - 1) * step)
        if not moved:  # only exact zeros above: b_k = a_k
            out.append(coeffs[k])
            continue
        bag = []
        for j in range(k, n):
            i, binom = j - k, int_image(cfg, math.comb(j, k))
            if binom:
                bag.extend(((binom, fq_mul(cfg, d, cpow[i]) if i else d),
                            x + i * step)
                           for x, d in rows[j][0] if x + i * step < cap)
        frac_cap = cap if is_inf(cap) else Fraction(cap, den)
        out.append(type(tau)._canonical(cfg, bag, frac_cap, den))
    return out


class RootBranch(_Record):
    """One expanded root: term list, achieved residual bound, field used."""

    __slots__ = ("cfg", "ring", "terms", "residual_bound", "field_degree")

    def __init__(self, cfg, ring, terms, residual_bound, field_degree):
        self._set(cfg=cfg, ring=ring, terms=terms,
                  residual_bound=residual_bound, field_degree=field_degree)

    def value(self):
        """The prefix as an exact ring element (finite term map)."""
        return self.ring(self.cfg, tuple(self.terms), INF)

    def sort_key(self):
        return tuple((e, c.sort_key()) for e, c in self.terms)

    def exponents(self):
        return [e for e, _ in self.terms]

    def term_at(self, exp):
        for e, c in self.terms:
            if e == exp:
                return c
        return None

    def __repr__(self):
        return f"RootBranch({self.value()!r}; bound={self.residual_bound})"


def _state(cfg, coeffs):
    """A branch's mutable state: the shifted polynomial (low degree first),
    the committed ((n, d), digit) terms, the stripped residual and the head
    valuation (n, d) one step ago, the head valuation at the jump once
    jumped, and the stall count.  A child is a copy with fields replaced."""
    return SimpleNamespace(cfg=cfg, coeffs=coeffs, terms=[], prev_strip=None,
                           last_val=None, jump_bound=None, stall_count=0)


def _geo_chain(terms, p):
    """Last GEO_WINDOW exponents have consecutive differences of ratio 1/p.
    Committed exponents strictly increase (`_candidates` skips any at or
    below the last term), so no difference is 0."""
    if len(terms) < GEO_WINDOW:
        return False
    window = [e for e, _ in terms[-GEO_WINDOW:]]
    den = math.lcm(*(d for _, d in window))
    xs = [n * (den // d) for n, d in window]
    diffs = [b - a for a, b in zip(xs, xs[1:])]
    return all(d2 * p == d1 for d1, d2 in zip(diffs, diffs[1:]))


def _agreement_bound(a, b):
    """First exponent where the term lists differ, else the smaller cap."""
    den = math.lcm(a.den, b.den)
    for s, t in zip_longest(a.ints_over(den), b.ints_over(den)):
        if s != t:  # a missing term is None
            return Fraction(min(u[0] for u in (s, t) if u), den)
    return min(a.cap, b.cap)


def _stable_pair(stripped, prev):
    """Consecutive stripped residuals agree below a usable exponent."""
    if prev is None or bool(stripped.ints) != bool(prev.ints):
        return False, None
    if not stripped.ints:
        return True, min(stripped.cap, prev.cap)
    bound = _agreement_bound(stripped, prev)
    if bound > stripped.valuation():
        return True, bound
    return False, None


def _candidates(st, upper):
    """(cands, dropped): the (exponent, members) of each hull segment that
    may give the next term, by increasing exponent -- -slope as a reduced
    (n, d) pair, and the indices of the coefficients whose leading point lies
    on the segment -- and whether a segment at or above `upper` was dropped:
    a root then agrees with the prefix below `upper`."""
    try:
        poly = polygon_of(st.coeffs)
    except PrecisionLoss:
        return [], False
    den, coeffs = poly.den, st.coeffs
    a0 = coeffs[0]
    cap0 = None  # an unresolved constant term's cap, over den
    if not a0.ints and not a0.is_exact_zero():
        cap0 = a0.cap.numerator * (den // a0.cap.denominator)
    last = st.terms[-1][0] if st.terms else None
    cands, dropped = [], False
    for (i1, y1), (i2, y2) in zip(poly.points, poly.points[1:]):
        w, en = i2 - i1, y1 - y2        # the exponent is en / (w * den)
        ed = w * den
        if last is not None and en * last[1] <= last[0] * ed:
            continue
        if upper is not None and en * upper.denominator >= upper.numerator * ed:
            dropped = True
            continue
        level = y1 * w + i1 * en        # the segment's level, over ed
        if cap0 is not None and level >= cap0 * w:
            # the unresolved part of the constant term could disturb this
            continue
        members = [i for i in range(i1, i2 + 1) if coeffs[i].ints and
                   coeffs[i].ints[0][0] * (den // coeffs[i].den) * w + i * en
                   == level]
        g = math.gcd(en, ed)
        cands.append(((en // g, ed // g), members))
    cands.reverse()  # slopes increase along the hull, so exponents decrease
    return cands, dropped


def _children_for_segment(ring, st, e, members, opts, upper):
    phi = [st.cfg.fq(0)] * (members[-1] + 1 - members[0])
    for i in members:
        phi[i - members[0]] = FqElem(st.cfg, st.coeffs[i].ints[0][1])
    roots = fq_poly_roots(phi)
    if not roots:
        st, roots = _extend_field(st, phi, opts)
    # p-adic shifts work at a finite cap: sums of exact Teichmüller terms can
    # have infinite digit expansions (no integer lift for p >= 5), so the
    # shift monomial carries enough cap to cover all digits below `upper`
    tau_cap = INF
    if upper is not None:
        tau_cap = upper + Fraction((len(st.coeffs) - 1) * max(0, -e[0]), e[1]) + 4
    out = []
    for c in sorted(roots, key=lambda c: c.sort_key()):
        tau = ring._trusted(st.cfg, e[1], ((e[0], c.coeffs),), tau_cap)
        out.append(SimpleNamespace(**{**vars(st),
                                      "coeffs": _taylor_shift(st.coeffs, tau),
                                      "terms": st.terms + [(e, c)]}))
    return out


def _extend_field(st, phi, opts):
    """State and roots of phi over the least extension that has any: of
    degree r*d for the least degree d of an irreducible factor of phi."""
    F, values = _poly_ring(st.cfg, phi)
    r = st.cfg.r * F.least_degree(F.monic(values))
    if r > opts.max_field_degree:
        raise FieldExtensionExceeded(
            f"no residue root within extension degree {opts.max_field_degree}")
    big = PrimeConfig.make(st.cfg.p, r, l_max=st.cfg.l_max)
    roots = fq_poly_roots([subfield_embedding(c, big) for c in phi])
    terms = [(e, subfield_embedding(c, big)) for e, c in st.terms]
    coeffs = [c.embed(big) for c in st.coeffs]
    return SimpleNamespace(**{**vars(st), "cfg": big, "coeffs": coeffs,
                              "terms": terms}), roots


def _finish(ring, st, branches, bound):
    if st.jump_bound is not None:
        bound = min(bound, st.jump_bound)
    branches.append(RootBranch(
        cfg=st.cfg, ring=ring, terms=tuple((Fraction(*e), c) for e, c in st.terms),
        residual_bound=bound, field_degree=st.cfg.r))


def _advance(ring, st, stack, branches, upper, max_terms, opts):
    """Process one state to its next branching point, pushing children and
    finishing it as a branch where the module docstring's branch ends say."""
    while True:
        if len(st.terms) > opts.max_steps:
            if max_terms is not None and max_terms >= opts.max_steps:
                raise NoProgress(f"max_terms={max_terms} reaches the step "
                                 f"budget max_steps={opts.max_steps}")
            raise NoProgress(f"no convergence within {opts.max_steps} steps")
        a0 = st.coeffs[0]
        jumped = st.jump_bound is not None

        if a0.ints:
            # stall detection: the residual valuation must keep increasing
            val, last = (a0.ints[0][0], a0.den), st.last_val
            if last is not None and val[0] * last[1] <= last[0] * val[1]:
                st.stall_count += 1
                if st.stall_count >= opts.stall_limit:
                    raise NoProgress(
                        f"residual valuation stalled at {a0.valuation()} after "
                        f"{st.stall_count} steps")
            else:
                st.stall_count = 0
            st.last_val = val

            # acceleration past an exponent accumulation point
            if (not jumped and _geo_chain(st.terms, st.cfg.p)
                    and (max_terms is None or len(st.terms) >= max_terms)):
                stripped = a0.strip_leading()
                if stripped.is_exact_zero():
                    accept, bound = True, INF
                else:
                    accept, bound = _stable_pair(stripped, st.prev_strip)
                if accept:
                    st.jump_bound = a0.valuation()
                    st.coeffs = [stripped.truncate(bound)] + st.coeffs[1:]
                    st.prev_strip = None
                    st.last_val = None
                    st.stall_count = 0
                    continue
                st.prev_strip = stripped
            else:
                st.prev_strip = None

        # depth budget (equal characteristic); pending acceleration may run on
        accel_pending = st.prev_strip is not None and not jumped
        spent = (max_terms is not None and not accel_pending
                 and len(st.terms) >= (max_terms if not jumped
                                       else 2 * max_terms + 2))
        cands, dropped = ([], False) if spent else _candidates(st, upper)
        if not a0.ints or not cands or dropped:
            _finish(ring, st, branches, a0.val_lower_bound())

        # every segment has a root, over an extension if need be
        # (_extend_field raises otherwise), so there is at least one child
        children = []
        for e, members in cands:
            children.extend(_children_for_segment(ring, st, e, members, opts,
                                                  upper))
        for child in reversed(children):
            stack.append(child)
        return


def _expand(ring, cfg, coeffs, *, upper=None, max_terms=None, opts=None):
    opts = opts or ExpandOptions()
    coeffs = list(coeffs)
    while len(coeffs) > 1 and coeffs[-1].is_exact_zero():
        coeffs.pop()
    if len(coeffs) <= 1:
        raise ValueError("polynomial must have positive degree")
    branches = []
    stack = [_state(cfg, coeffs)]
    while stack:
        st = stack.pop()
        _advance(ring, st, stack, branches, upper, max_terms, opts)
    branches.sort(key=lambda b: b.sort_key())
    return branches


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------

def expand_roots_eq(coeffs, max_terms: int,
                    opts: ExpandOptions | None = None):
    """Newton-Puiseux branches of a polynomial over EqHahn coefficients.

    Each branch carries up to max_terms pre-accumulation terms; once the
    increments accumulate geometrically and the telescoped residual is
    exactly zero, expansion resumes past the accumulation point (where
    Artin-Schreier style branches split by residue constants).
    """
    coeffs = list(coeffs)
    if max_terms < 1:
        raise ValueError("max_terms must be >= 1")
    cfg = coeffs[0].cfg
    return _expand(EqHahn, cfg, coeffs, max_terms=max_terms, opts=opts)


def expand_root_padic(coeffs, cap, opts: ExpandOptions | None = None):
    """Root branches over PHahn coefficients with digit exponents below cap."""
    coeffs, cap = list(coeffs), as_frac(cap)
    return _expand(PHahn, coeffs[0].cfg, coeffs,
                   upper=None if is_inf(cap) else cap, opts=opts)


def verify_root(coeffs, prefix, expected_bound):
    """Exact valuation of f(prefix), checked against expected_bound.

    When the residual vanishes below a finite cap, that cap is returned as a
    certified lower bound, provided it reaches expected_bound.  Raises
    BoundViolation (carrying the valuation) when the bound fails and
    PrecisionLoss when the truncation cannot decide.
    """
    residual = eval_poly(coeffs, prefix)
    val = residual.val_lower_bound()
    if val >= expected_bound:
        return val
    if not residual.ints:
        raise PrecisionLoss(
            f"residual unresolved below O({residual.cap}) < bound {expected_bound}")
    raise BoundViolation(
        f"valuation {val} below expected bound {expected_bound}", valuation=val)
