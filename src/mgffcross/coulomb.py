"""Exact algebra of products of pairwise differences with half-integer powers.

Objects here are finite sums of monomials

    c * prod_{a<b} (x_b - x_a)^{e(a,b)},   e(a,b) in (1/2) Z,

with rational coefficients.  Exponents are stored doubled as integers,
so the arithmetic is exact end to end.  Variables are integer labels;
a pair key (a, b) always has a < b and the base is x_b - x_a, which is
positive on ordered configurations x_a < x_b.

Every operation that builds a combo from terms (`+`, `*`, `rename`,
`series_coefficient`, and the callers' sums through `combo_sum`) goes
through one accumulator, `collect`: equal keys add up and zero sums
drop out.

The main nontrivial operation is `fuse_pair`: substitute
x_v = x_u + eps and extract the coefficient of eps^r as eps -> 0+,
verifying that every lower order cancels exactly.  Since only the
(u, v) factor is singular at eps = 0, each monomial contributes a
generalized binomial expansion of its regular factors, and everything
stays inside the same monomial class.

Evaluation goes through `Compiled`, a table of one or more combos over
the union of their pairs: one difference per pair, one `pow` per (pair,
power), a gather, one product per row in pair order and one `math.fsum`
per combo.  `evaluate` and `condition` use the one-combo table cached on
a combo; a caller that needs several combos at the same point builds
one table over all of them and gets each combo's bits unchanged.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from numbers import Rational

import numpy as np

from .errors import DivergenceError, TruncationLimitError

# Hard cap on how deep a series is developed past its leading order.
SERIES_ORDER_CAP = 16

# Terms of a compiled table gathered at once: bounds the temporary.
GATHER_ROWS = 4096

Pair = tuple[int, int]
ExpKey = tuple[tuple[Pair, int], ...]


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, Rational):
        return Fraction(x)
    raise TypeError(f"expected a rational number, got {type(x).__name__}")


def half_binomial(e2: int, k: int) -> Fraction:
    """Generalized binomial coefficient C(e2/2, k) for integer e2."""
    num = Fraction(1)
    for t in range(k):
        num *= Fraction(e2 - 2 * t, 2)
    return num / math.factorial(k)


def _canon_exponents(exps) -> ExpKey:
    """Merge and sort exponent items; drop zeros.  Input items may repeat."""
    acc: dict[Pair, int] = {}
    for pair, e2 in exps:
        a, b = pair
        if not a < b:
            raise ValueError(f"pair {pair} not ordered")
        acc[pair] = acc.get(pair, 0) + e2
    return tuple(sorted((p, e) for p, e in acc.items() if e != 0))


class MonomialCombo:
    """Finite rational combination of difference-product monomials.

    Internally a dict from canonical exponent keys to nonzero Fractions;
    supports +, -, scalar and combo multiplication, exact equality.  The
    first evaluation caches a compiled table in `_compiled`, so a combo
    must not be mutated once built; the operations all return new ones.
    """

    __slots__ = ("terms", "_compiled")

    def __init__(self, terms: dict[ExpKey, Fraction] | None = None):
        self.terms: dict[ExpKey, Fraction] = {}
        if terms:
            for key, c in terms.items():
                if c != 0:
                    self.terms[key] = _as_fraction(c)

    # -- constructors

    @staticmethod
    def zero() -> "MonomialCombo":
        return MonomialCombo()

    @staticmethod
    def constant(c) -> "MonomialCombo":
        c = _as_fraction(c)
        return MonomialCombo({(): c} if c else None)

    @staticmethod
    def monomial(coeff, exponents) -> "MonomialCombo":
        """exponents: mapping or iterable of ((a, b), e), e in (1/2)Z."""
        items = exponents.items() if hasattr(exponents, "items") else exponents
        doubled = []
        for pair, e in items:
            e = _as_fraction(e) * 2
            if e.denominator != 1:
                raise ValueError("exponents must be half-integers")
            doubled.append((tuple(pair), int(e)))
        return MonomialCombo.from_doubled(coeff, doubled)

    @staticmethod
    def from_doubled(coeff, doubled_exponents) -> "MonomialCombo":
        c = _as_fraction(coeff)
        if c == 0:
            return MonomialCombo()
        return MonomialCombo({_canon_exponents(doubled_exponents): c})

    # -- inspection

    def variables(self) -> tuple[int, ...]:
        vs: set[int] = set()
        for key in self.terms:
            for (a, b), _ in key:
                vs.add(a)
                vs.add(b)
        return tuple(sorted(vs))

    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MonomialCombo):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "<combo 0>"
        parts = []
        for key, c in sorted(self.terms.items())[:4]:
            fac = "*".join(f"d({a},{b})^{e2}/2" for (a, b), e2 in key) or "1"
            parts.append(f"{c}*{fac}")
        more = "" if len(self.terms) <= 4 else f" +{len(self.terms) - 4} terms"
        return f"<combo {' + '.join(parts)}{more}>"

    # -- ring operations

    def __add__(self, other: "MonomialCombo") -> "MonomialCombo":
        return combo_sum((self, other))

    def __neg__(self) -> "MonomialCombo":
        res = MonomialCombo()
        res.terms = {k: -c for k, c in self.terms.items()}
        return res

    def __sub__(self, other: "MonomialCombo") -> "MonomialCombo":
        return self + (-other)

    def scale(self, c) -> "MonomialCombo":
        c = _as_fraction(c)
        if c == 0:
            return MonomialCombo()
        res = MonomialCombo()
        res.terms = {k: c * v for k, v in self.terms.items()}
        return res

    def __mul__(self, other):
        if isinstance(other, MonomialCombo):
            return collect(
                (_canon_exponents(k1 + k2), c1 * c2)
                for k1, c1 in self.terms.items()
                for k2, c2 in other.terms.items()
            )
        return self.scale(other)

    __rmul__ = __mul__

    # -- relabeling

    def rename(self, mapping: dict[int, int]) -> "MonomialCombo":
        """Relabel variables.  A pair whose orientation flips picks up
        (-1)^e; that is only legal for integer exponents (even e2)."""
        img = {v: mapping.get(v, v) for v in self.variables()}
        if len(set(img.values())) != len(img):
            raise ValueError("relabeling must be injective on the variables")

        def renamed(key, c):
            items = []
            sign = 1
            for (a, b), e2 in key:
                na, nb = img[a], img[b]
                if na == nb:
                    raise ValueError("relabeling collapses a pair")
                if na > nb:
                    if e2 % 2:
                        raise ValueError(
                            f"orientation flip of pair ({a},{b}) with half-integer power"
                        )
                    na, nb = nb, na
                    if (e2 // 2) % 2:
                        sign = -sign
                items.append(((na, nb), e2))
            return _canon_exponents(items), sign * c

        return collect(renamed(key, c) for key, c in self.terms.items())


def collect(items) -> MonomialCombo:
    """The combo summing (exp_key, coeff) items: coefficients of equal
    keys add up, and a key whose sum is zero is dropped."""
    out: dict[ExpKey, Fraction] = {}
    for key, c in items:
        if key not in out:
            if c:
                out[key] = c
        elif s := out[key] + c:
            out[key] = s
        else:
            del out[key]
    res = MonomialCombo()
    res.terms = out
    return res


def combo_sum(combos) -> MonomialCombo:
    """The sum of an iterable of combos, accumulated once."""
    return collect(item for c in combos for item in c.terms.items())


# ---------------------------------------------------------------------------
# Evaluation


class Compiled:
    """Combos as one table over the union of their pairs.  Term t is
    coef[t] * prod_j d_j^(e2[t, j]/2) and combo i owns the terms spans[i].
    Each evaluation fills a (pairs x powers) table with one `pow` apiece;
    slots holds, pair-major in blocks of GATHER_ROWS terms, where each
    factor sits in it.  A pair a combo lacks has e2 = 0 and gathers d^0 =
    1.0, an exact factor, so a combo's sums keep their bits in any table
    that holds it; one combo is the one-span case.

    The float pass converts each variable's value once.  It enters
    `np.errstate` only when some difference lies outside `safe`, the
    range in which no power, partial product or coefficient multiple of
    the table can overflow or underflow; outside it lie negative bases,
    whose half powers are NaN (never gathered), and differences whose
    powers may leave float range.  Finiteness is checked on each combo's
    `fsum`, which is non-finite exactly when one of its terms is."""

    __slots__ = (
        "pairs", "labels", "index", "low", "powers", "odd", "slots", "coef", "exact",
        "spans", "safe",
    )

    def __init__(self, combos):
        terms = [c.terms for c in combos]
        ends = list(itertools.accumulate(map(len, terms)))
        self.spans = tuple(zip([0] + ends[:-1], ends))
        self.pairs = tuple(sorted({pair for t in terms for key in t for pair, _ in key}))
        self.labels = tuple(sorted({v for pair in self.pairs for v in pair}))
        at = {v: i for i, v in enumerate(self.labels)}
        self.index = tuple((at[a], at[b]) for a, b in self.pairs)
        col = {pair: j for j, pair in enumerate(self.pairs)}
        # terms in dict order: each term's product and the exact fsum do
        # not depend on it, so equal combos still evaluate to equal bits
        keys = [key for t in terms for key in t]
        blocks = []
        for i in range(0, len(keys), GATHER_ROWS):
            chunk = keys[i : i + GATHER_ROWS]
            e2 = np.zeros((len(self.pairs), len(chunk)), dtype=np.int64)
            e2.ravel()[[col[p] * len(chunk) + r for r, key in enumerate(chunk) for p, _ in key]] = [
                e for key in chunk for _, e in key
            ]
            blocks.append(e2)
        self.low = min((int(b.min(initial=0)) for b in blocks), default=0)
        high = max((int(b.max(initial=0)) for b in blocks), default=0)
        self.powers = np.arange(self.low, high + 1) / 2
        # the largest sum of |e2| over a term's pairs
        degree = max((int(np.abs(b).sum(axis=0).max(initial=0)) for b in blocks), default=0)
        # half-integer powers: a pair with any odd exponent
        odd = np.zeros(len(self.pairs), dtype=np.int64)
        for e2 in blocks:
            odd |= np.bitwise_or.reduce(e2, axis=1)
        self.odd = tuple(np.flatnonzero(odd & 1).tolist())
        shift = len(self.powers) * np.arange(len(self.pairs))[:, None] - self.low
        for e2 in blocks:
            e2 += shift
        self.slots = tuple(blocks)
        self.exact = tuple(c for t in terms for c in t.values())
        self.coef = np.fromiter(map(float, self.exact), float, len(self.exact))
        # with every difference in [2^-r, 2^r], a table entry or partial
        # product lies within 2^(+-r degree/2) and a term within a further
        # factor |coef|: all stay between 2^-1000 and 2^1000
        scale = float(np.abs(np.log2(np.abs(self.coef))).max(initial=0.0))
        r = (1000.0 - scale) / max(degree, 1) if scale < 1000.0 else 0.0
        self.safe = (2.0**-r, 2.0**r)

    def differences(self, values, conv) -> list:
        """x_b - x_a for every pair, each value converted by conv once:
        values maps labels to numbers, or a sequence holds labels 1, 2, ..."""
        try:
            if hasattr(values, "keys"):
                x = [conv(values[v]) for v in self.labels]
            else:  # a sequence holds labels 1, 2, ... at positions 0, 1, ...
                x = [conv(values[v - 1]) for v in self.labels if v > 0]
        except KeyError as exc:
            raise ValueError(f"no value for variable {exc.args[0]}") from None
        except IndexError:
            x = []
        if len(x) < len(self.labels):  # a label the sequence cannot hold
            missing = next(v for v in self.labels if not 0 < v <= len(values))
            raise ValueError(f"no value for variable {missing}")
        d = [x[b] - x[a] for a, b in self.index]
        if 0 in d:
            raise ValueError(f"coincident points for pair {self.pairs[d.index(0)]}")
        for j in self.odd:
            if d[j] < 0:
                raise ValueError(f"negative base for half-integer power on pair {self.pairs[j]}")
        return d

    def float_terms(self, values) -> np.ndarray:
        d = self.differences(values, float)
        lo, hi = self.safe
        if d and lo <= min(d) and max(d) <= hi:
            return self._products(np.array(d))
        # NaN half powers of negative bases are never gathered, and a term
        # that overflows fails the finiteness check of the sums
        with np.errstate(all="ignore"):
            return self._products(np.array(d))

    def _products(self, d: np.ndarray) -> np.ndarray:
        pw = np.power(d[:, None], self.powers).ravel()
        # each term multiplies its factors in pair order, so equal combos
        # give equal bits; a block at a time keeps the temporary small
        if len(self.slots) == 1:
            terms = np.multiply.reduce(pw[self.slots[0]])
        else:
            terms = np.empty(len(self.coef))
            for i, block in zip(range(0, len(terms), GATHER_ROWS), self.slots):
                np.multiply.reduce(pw[block], axis=0, out=terms[i : i + GATHER_ROWS])
        terms *= self.coef
        return terms

    def _fsums(self, terms: np.ndarray) -> list:
        """Each span's `math.fsum`; OverflowError when one is not finite,
        which is when one of its terms is not."""
        terms = memoryview(terms)  # floats made one at a time, not as one list
        try:
            out = [math.fsum(terms[a:b]) for a, b in self.spans]
            if all(map(math.isfinite, out)):
                return out
        except ValueError:  # inf - inf within a span
            pass
        raise OverflowError("a term leaves the float range")

    def sums(self, values, dps: int | None = None) -> list:
        """Each combo's value at x = values: floats summed by `math.fsum`,
        or mpf with dps set."""
        if dps is not None:
            return self.mp_sums(values, dps)
        return self._fsums(self.float_terms(values))

    def conditions(self, values) -> list[float]:
        """Each combo's summation condition number sum|t_i| / |sum t_i|."""
        terms = self.float_terms(values)
        size = memoryview(np.abs(terms))
        return [
            math.fsum(size[a:b]) / abs(s) if s else math.inf
            for s, (a, b) in zip(self._fsums(terms), self.spans)
        ]

    def mp_sums(self, values, dps: int) -> list:
        import mpmath

        with mpmath.workdps(dps):
            # mpf, int and float values enter exactly; others (numpy
            # integers, fractions) as their float, since mpf refuses them
            keep = lambda v: v if isinstance(v, mpmath.mpf) else mpmath.mpf(
                v if isinstance(v, (int, float)) else float(v)
            )
            d = self.differences(values, keep)
            W, pw, sums = len(self.powers), {}, []
            rows = (row for block in self.slots for row in block.T.tolist())
            for a, b in self.spans:
                terms = []
                for c, row in zip(self.exact[a:b], itertools.islice(rows, b - a)):
                    t = mpmath.mpf(c.numerator) / c.denominator
                    for s in row:
                        e2 = s % W + self.low
                        if not e2:
                            continue
                        if s not in pw:
                            q, half = divmod(e2, 2)
                            pw[s] = d[s // W] ** q * (mpmath.sqrt(d[s // W]) if half else 1)
                        t *= pw[s]
                    terms.append(t)
                sums.append(mpmath.fsum(terms))
            return sums


def _compiled(c: MonomialCombo) -> Compiled:
    if getattr(c, "_compiled", None) is None:
        c._compiled = Compiled((c,))
    return c._compiled


def evaluate(c: MonomialCombo, values, dps: int | None = None):
    """Evaluate at x = values (mapping label -> number, or a sequence taken
    as labels 1..len) in float, or with dps set in mpmath (an mpf).
    Requires x_b - x_a nonzero on every used pair, and positive whenever
    the exponent is a strict half-integer."""
    (value,) = _compiled(c).sums(values, dps)
    return value


def condition(c: MonomialCombo, values) -> float:
    """Summation condition number sum|t_i| / |sum t_i| of c at values, in
    float: the factor by which the sum can amplify the terms' rounding."""
    (cond,) = _compiled(c).conditions(values)
    return cond


# ---------------------------------------------------------------------------
# Fusion: x_v -> x_u + eps


def _check_adjacent(c: MonomialCombo, u: int, v: int) -> None:
    if not u < v:
        raise ValueError("need u < v")
    between = [w for w in c.variables() if u < w < v]
    if between:
        raise ValueError(f"variables {between} lie strictly between fused pair ({u},{v})")


def _term_series(key: ExpKey, coeff: Fraction, u: int, v: int, r2: int):
    """Contribution of one monomial to the eps^(r2/2) coefficient after
    substituting x_v = x_u + eps.  Yields (exp_key, coeff) pieces."""
    e2uv = 0
    others: list[tuple[int, int]] = []  # (i, e2 of pair with v)
    base: list[tuple[Pair, int]] = []
    for (a, b), e2 in key:
        if (a, b) == (u, v):
            e2uv = e2
        elif b == v:
            others.append((a, e2))
            base.append(((min(a, u), max(a, u)), e2))
        elif a == v:
            others.append((b, e2))
            base.append(((min(b, u), max(b, u)), e2))
        else:
            base.append(((a, b), e2))
    k2 = r2 - e2uv
    if k2 < 0 or k2 % 2:
        return
    k = k2 // 2
    if k > SERIES_ORDER_CAP:
        raise TruncationLimitError(f"series depth {k} exceeds cap {SERIES_ORDER_CAP}")
    if k == 0:
        yield _canon_exponents(base), coeff
        return

    # distribute k among the regular factors (x_i - x_v)^(e2/2):
    #   i < u: (x_u - x_i) + eps, expansion sign +1
    #   i > v: (x_i - x_u) - eps, expansion sign -1
    def distribute(idx: int, left: int, extra: list, factor: Fraction):
        if idx == len(others):
            if left == 0:
                yield _canon_exponents(base + extra), coeff * factor
            return
        i, e2 = others[idx]
        pair = (min(i, u), max(i, u))
        for ki in range(left + 1):
            f = half_binomial(e2, ki)
            if f == 0:
                continue
            if ki % 2 and i > v:
                f = -f
            piece = extra + [(pair, -2 * ki)] if ki else extra
            yield from distribute(idx + 1, left - ki, piece, factor * f)

    yield from distribute(0, k, [], Fraction(1))


def series_coefficient(c: MonomialCombo, u: int, v: int, order) -> MonomialCombo:
    """Coefficient of eps^order in c after x_v = x_u + eps, exact.

    The result keeps label u for the fusion point and drops v.  Requires
    no other variable of c between u and v, so that all non-fused factors
    stay bounded away from zero as eps -> 0+.
    """
    _check_adjacent(c, u, v)
    order = _as_fraction(order)
    r2 = order * 2
    if r2.denominator != 1:
        raise ValueError("order must be a half-integer")
    r2 = int(r2)
    return collect(
        piece for key, coeff in c.terms.items() for piece in _term_series(key, coeff, u, v, r2)
    )


def fuse_pair(c: MonomialCombo, u: int, v: int, target: int, r) -> MonomialCombo:
    """Normalized fusion limit lim eps^-r [c at x_v = x_u + eps].

    Every series order below r must cancel exactly across the combo,
    otherwise DivergenceError reports the first surviving order.  The
    fused point is relabeled u -> target.
    """
    _check_adjacent(c, u, v)
    r = _as_fraction(r)
    r2 = r * 2
    if r2.denominator != 1:
        raise ValueError("fusion order must be a half-integer")
    r2 = int(r2)
    if c.is_zero():
        return MonomialCombo()
    min_e2 = min(
        (dict(key).get((u, v), 0) for key in c.terms),
        default=0,
    )
    if r2 - min_e2 > 2 * SERIES_ORDER_CAP:
        raise TruncationLimitError(
            f"{(r2 - min_e2) / 2} orders from leading exceeds cap {SERIES_ORDER_CAP}"
        )
    for o2 in range(min_e2, r2):
        low = series_coefficient(c, u, v, Fraction(o2, 2))
        if not low.is_zero():
            raise DivergenceError(
                f"order {Fraction(o2, 2)} below requested {r} has nonzero coefficient"
            )
    res = series_coefficient(c, u, v, r)
    if target != u:
        res = res.rename({u: target})
    return res
