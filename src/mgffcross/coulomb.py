"""Exact algebra of products of pairwise differences with half-integer powers.

Objects here are finite sums of monomials

    c * prod_{a<b} (x_b - x_a)^{e(a,b)},   e(a,b) in (1/2) Z,

with rational coefficients.  Exponents are stored doubled as integers,
so the arithmetic is exact end to end.  Variables are integer labels;
a pair key (a, b) always has a < b and the base is x_b - x_a, which is
positive on ordered configurations x_a < x_b.

Every combo built from terms, by `+` or by a caller's stream of (key,
coefficient) terms, goes through one accumulator, `collect`: equal keys
add up and zero sums drop out.  There is no product and no relabelling:
`partition_fn` writes each partition function and fusion limit it needs
as terms in closed form from the inverse-incidence row.

Evaluation goes through `Compiled`, a table of one or more combos over
the union of their pairs: one difference per pair, one `pow` per (pair,
power) factor that some term gathers, a gather, one product in pair
order per distinct exponent key, one coefficient multiple per term and
one `math.fsum` per combo.  The float bits are those of this numpy
build's `np.power`, which on some machines differs from libm `pow` in
the last place; so the powers stay one array call.  `evaluate` and
`condition` use the one-combo table cached on a combo; a caller that
needs several combos at the same point builds one table over all of them
and gets each combo's bits unchanged.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from numbers import Rational

import numpy as np

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
    supports +, scaling by a rational and exact equality.  The
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

    # -- arithmetic

    def __add__(self, other: "MonomialCombo") -> "MonomialCombo":
        return collect(itertools.chain(self.terms.items(), other.terms.items()))

    def scale(self, c) -> "MonomialCombo":
        c = _as_fraction(c)
        if c == 0:
            return MonomialCombo()
        res = MonomialCombo()
        res.terms = {k: c * v for k, v in self.terms.items()}
        return res


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


# ---------------------------------------------------------------------------
# Evaluation


class Compiled:
    """Combos as one table over the union of their pairs.  Term t is
    coef[t] * prod_j d_j^(e2[k, j]/2) for its key k = key_of[t], and combo
    i owns the terms spans[i].  Combos share keys (the 6-point table has
    983 terms over 184 keys, the 8-point one 139,038 over 8,642), so the
    product of each distinct key is formed once, in pair order, and each
    term is its key's product times its coefficient: the bits of forming
    the product per term.  The factors some key gathers are
    d_base[f]^(e2[f]/2), each computed by one `pow` per evaluation, all in
    one array call, whose bits are those of this numpy build's
    `np.power`; slots holds, pair-major in blocks of GATHER_ROWS keys in
    first-seen order, which factor each key takes in each pair.  A pair a
    combo lacks has e2 = 0 and gathers d^0 = 1.0, an exact factor, so a
    combo's sums keep their bits in any table that holds it; one combo is
    the one-span case.  The `dps` route reads each term's factor row
    through the same key_of.

    The float pass converts each variable's value once.  It enters
    `np.errstate` only when some difference lies outside `safe`, the
    range in which no power, partial product or coefficient multiple of
    the table can overflow or underflow; outside it lie negative bases
    (only ever raised to integer powers) and differences whose powers may
    leave float range.  Finiteness is checked on each combo's `fsum`,
    which is non-finite exactly when one of its terms is."""

    __slots__ = (
        "pairs", "labels", "index", "base", "e2", "power", "odd", "slots", "key_of", "coef",
        "exact", "spans", "safe",
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
        # terms in dict order, each pointing at its key's product, the keys
        # in first-seen order: a product and the exact fsum do not depend
        # on either order, so equal combos still evaluate to equal bits
        first: dict[ExpKey, int] = {}
        self.key_of = np.fromiter(
            (first.setdefault(key, len(first)) for t in terms for key in t), np.intp
        )
        keys = list(first)
        blocks = []
        for i in range(0, len(keys), GATHER_ROWS):
            chunk = keys[i : i + GATHER_ROWS]
            e2 = np.zeros((len(self.pairs), len(chunk)), dtype=np.int64)
            e2.ravel()[[col[p] * len(chunk) + r for r, key in enumerate(chunk) for p, _ in key]] = [
                e for key in chunk for _, e in key
            ]
            blocks.append(e2)
        low = min((int(b.min(initial=0)) for b in blocks), default=0)
        width = max((int(b.max(initial=0)) for b in blocks), default=0) - low + 1
        # the largest sum of |e2| over a term's pairs
        degree = max((int(np.abs(b).sum(axis=0).max(initial=0)) for b in blocks), default=0)
        # code each (pair, e2) factor as pair * width + e2 - low, mark the
        # codes that occur, and point the slots at the used ones in order
        shift = width * np.arange(len(self.pairs))[:, None] - low
        seen = np.zeros(len(self.pairs) * width, dtype=bool)
        for e2 in blocks:
            e2 += shift
            seen[e2] = True
        used = np.flatnonzero(seen)
        self.base = used // width
        self.e2 = used % width + low
        self.power = self.e2 / 2
        # half-integer powers: a pair with any odd exponent
        self.odd = tuple(sorted(set(self.base[self.e2 % 2 == 1].tolist())))
        self.slots = tuple(np.searchsorted(used, e2) for e2 in blocks)
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
        # a term that overflows fails the finiteness check of the sums
        with np.errstate(all="ignore"):
            return self._products(np.array(d))

    def _products(self, d: np.ndarray) -> np.ndarray:
        pw = np.power(d[self.base], self.power)
        # each key multiplies its factors in pair order, so equal combos
        # give equal bits; a block at a time keeps the temporary small
        if len(self.slots) == 1:
            products = np.multiply.reduce(pw[self.slots[0]])
        else:
            products = np.empty(sum(block.shape[1] for block in self.slots))
            for i, block in zip(range(0, len(products), GATHER_ROWS), self.slots):
                np.multiply.reduce(pw[block], axis=0, out=products[i : i + GATHER_ROWS])
        terms = products[self.key_of]
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
            # every factor some term gathers, once; d^0 is skipped, not multiplied
            pw = [
                d[j] ** (e2 // 2) * (mpmath.sqrt(d[j]) if e2 % 2 else 1) if e2 else None
                for j, e2 in zip(self.base.tolist(), self.e2.tolist())
            ]
            sums = []
            rows = [row for block in self.slots for row in block.T.tolist()]
            key_of = self.key_of.tolist()
            for a, b in self.spans:
                terms = []
                for c, k in zip(self.exact[a:b], key_of[a:b]):
                    t = mpmath.mpf(c.numerator) / c.denominator
                    for f in rows[k]:
                        if pw[f] is not None:
                            t *= pw[f]
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
