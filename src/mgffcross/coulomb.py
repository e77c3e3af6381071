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
power) factor that some key takes, one `np.multiply.reduceat` that
multiplies each distinct exponent key's own factors in pair order, one
coefficient multiple per term and one `np.add.reduceat` that sums each
combo's terms, and on request a second over their absolute values for
the condition numbers; with `dps` set, the same pass in mpf.  The float
bits are those of this numpy build's `np.power`, which on some machines
differs from libm `pow` in the last place; so the powers stay one array
call.  The float sums are not correctly rounded, but each combo sums its
own terms in an order fixed by the combo alone.  `evaluate` uses the one-combo table cached on a
combo; a caller that needs several combos at the same point builds one
table over all of them and gets each combo's bits unchanged.  `to_mpf` is the
one conversion of a caller's number into mpmath, here and in the
`dps` routes of `probability` and `verify`.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from fractions import Fraction
from numbers import Rational

import numpy as np

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
    coef[t] times the product of its key's factors d_j^(e2/2), key
    k = key_of[t], and combo i owns the terms spans[i], sorted by key.
    Combos share keys (the 6-point table has 983 terms over 184 keys, the
    8-point one 139,038 over 8,642), so the product of each distinct key is
    formed once, in pair order, and each term is its key's product times
    its coefficient: the bits of forming the product per term.  The
    factors some key takes are d_base[f]^(e2[f]/2), each computed by one
    `pow` per evaluation, all in one array call, whose bits are those of
    this numpy build's `np.power`.  `flat` lists each key's factors in pair
    order, the keys one after another in first-seen order from `firsts`
    on, and one `np.multiply.reduceat` multiplies each key's run of it
    from left to right.  A pair the key lacks would only multiply in
    d^0 = 1.0, which changes no bit, so it is left out: the 8-point flat
    index holds 94,820 factors, 0.72 MB, where a dense (pairs x keys)
    gather would take 28 x 8,642.  The key (), which takes no factor, has
    product 1 (`unit`).  All spans are summed by one
    `np.add.reduceat`, whose sum of a segment, its first term plus numpy's
    pairwise sum of the rest, does not depend on where the segment lies.
    So a combo's sums keep their bits in any table that holds it, one
    combo being the one-span case, and with the terms sorted by key equal
    combos give equal bits whatever order their terms were inserted in.
    The `dps` route is the same pass over an object array of mpf
    differences, each span summed by `mpmath.fsum`; it multiplies by the
    coefficients as Python ints (`ints`) when they are all integers, as at
    4, 6 and 8 points, and otherwise by their mpf at the working
    precision.

    The float pass converts each variable's value once, a tuple of the
    labels 1..n by one `map`.  It checks the differences and enters
    `np.errstate` only when some difference lies outside `safe`, the
    range in which no power, partial product or coefficient multiple of
    the table can overflow or underflow and every base is positive;
    outside it lie zero and negative bases (the latter only ever raised
    to integer powers) and differences whose powers may leave float
    range.  There the products and sums run under
    `np.errstate(all="raise")` (`_raising`): a term that overflows, or
    underflows and would drop out of its sum unseen, raises
    OverflowError, as a non-finite span sum does.  `sums_and_conditions`
    also sums |t| over each span in the same pass, for a caller that must
    know how far the sums amplify rounding; `sums` skips that second
    reduction."""

    __slots__ = (
        "pairs", "labels", "index", "base", "e2", "power", "odd", "flat", "firsts", "unit",
        "key_of", "coef", "exact", "ints", "spans", "starts", "filled", "safe", "dense",
    )

    def __init__(self, combos):
        # each combo's terms in canonical order, sorted by key, so that equal
        # combos sum the same terms in the same order to the same bits
        terms = [{key: c.terms[key] for key in sorted(c.terms)} for c in combos]
        ends = list(itertools.accumulate(map(len, terms)))
        self.spans = tuple(zip([0] + ends[:-1], ends))
        # np.add.reduceat sums from each start to the next, so it reads the
        # starts of the spans that hold terms; an empty span sums to 0.0
        filled = [i for i, (a, b) in enumerate(self.spans) if a < b]
        self.starts = np.array([self.spans[i][0] for i in filled], np.intp)
        self.filled = None if len(filled) == len(self.spans) else np.array(filled, np.intp)
        self.pairs = tuple(sorted({pair for t in terms for key in t for pair, _ in key}))
        self.labels = tuple(sorted({v for pair in self.pairs for v in pair}))
        at = {v: i for i, v in enumerate(self.labels)}
        self.index = tuple((at[a], at[b]) for a, b in self.pairs)
        # n when the labels are exactly 1..n, so that a tuple of n values
        # holds them in order; else -1
        n = len(self.labels)
        self.dense = n if self.labels == tuple(range(1, n + 1)) else -1
        col = {pair: j for j, pair in enumerate(self.pairs)}
        # each term points at its key's product, the keys in first-seen
        # order, which a key's product does not depend on; the key (), which
        # takes no factor, points at -1: its product 1 is appended last
        first: dict[ExpKey, int] = {(): -1}
        self.key_of = np.fromiter(
            (first.setdefault(key, len(first) - 1) for t in terms for key in t), np.intp
        )
        self.unit = -1 in self.key_of
        keys = list(first)[1:]
        # every key's (pair, e2) factors in pair order, coded as
        # pair * width + e2 - low; the codes that occur are the factors
        pair_of = np.fromiter((col[p] for key in keys for p, _ in key), np.intp)
        e2 = np.fromiter((e for key in keys for _, e in key), np.int64, len(pair_of))
        low = int(e2.min(initial=0))
        width = int(e2.max(initial=0)) - low + 1
        # where each key's run of factors starts, and the largest sum of
        # |e2| over a key's pairs
        self.firsts = np.cumsum([0, *map(len, keys)])[:-1]
        degree = int(np.add.reduceat(np.abs(e2), self.firsts).max(initial=0))
        codes = pair_of * width + e2 - low
        used = np.unique(codes)
        self.base = used // width
        self.e2 = used % width + low
        self.power = self.e2 / 2
        # half-integer powers: a pair with any odd exponent
        self.odd = tuple(sorted(set(self.base[self.e2 % 2 == 1].tolist())))
        # each key's factors, one key after another
        self.flat = np.searchsorted(used, codes)
        self.exact = tuple(c for t in terms for c in t.values())
        self.coef = np.fromiter(map(float, self.exact), float, len(self.exact))
        integral = all(c.denominator == 1 for c in self.exact)
        self.ints = np.array([c.numerator for c in self.exact], object) if integral else None
        # with every difference in [2^-r, 2^r], a table entry or partial
        # product lies within 2^(+-r degree/2) and a term within a further
        # factor |coef|: all stay between 2^-1000 and 2^1000, and a span
        # sum of fewer than 2^23 terms stays finite
        scale = float(np.abs(np.log2(np.abs(self.coef))).max(initial=0.0))
        r = (1000.0 - scale) / max(degree, 1) if scale < 1000.0 else 0.0
        self.safe = (2.0**-r, 2.0**r)

    def _read(self, values, conv) -> list:
        """Each label's value, converted by conv once: values maps labels to
        numbers, or a sequence holds labels 1, 2, ... at positions 0, 1, ..."""
        try:
            if hasattr(values, "keys"):
                x = [conv(values[v]) for v in self.labels]
            else:
                x = [conv(values[v - 1]) for v in self.labels if v > 0]
        except KeyError as exc:
            raise ValueError(f"no value for variable {exc.args[0]}") from None
        except IndexError:
            x = []
        if len(x) < len(self.labels):  # a label the sequence cannot hold
            missing = next(v for v in self.labels if not 0 < v <= len(values))
            raise ValueError(f"no value for variable {missing}")
        return x

    def _check(self, d: list) -> None:
        """ValueError unless every difference is nonzero and every pair with
        a half-integer power has a positive one."""
        if 0 in d:
            raise ValueError(f"coincident points for pair {self.pairs[d.index(0)]}")
        for j in self.odd:
            if d[j] < 0:
                raise ValueError(f"negative base for half-integer power on pair {self.pairs[j]}")

    def _float_differences(self, values) -> tuple[np.ndarray, bool]:
        """Every pair's float difference at x = values, and whether all lie
        within safe; outside it, after `_check`.  A tuple of exactly the
        labels 1..n is read by one `map`; other values go through `_read`."""
        if type(values) is tuple and len(values) == self.dense:
            x = list(map(float, values))
        else:
            x = self._read(values, float)
        d = [x[b] - x[a] for a, b in self.index]
        lo, hi = self.safe
        # within safe every difference is positive, so the checks pass, and
        # every term and span sum is finite
        if d and lo <= min(d) and max(d) <= hi:
            return np.array(d), True
        self._check(d)
        # a NaN difference passes here and fails the finiteness check
        return np.array(d), False

    def _products(self, d: np.ndarray, coef: np.ndarray) -> np.ndarray:
        """Every term at differences d: floats, or mpf in an object array."""
        pw = np.power(d[self.base], self.power)
        # each key multiplies its own factors in pair order, so equal combos
        # give equal bits; the factors d^0 = 1.0 of the pairs it lacks would
        # change no bit, and are left out
        products = np.multiply.reduceat(pw[self.flat], self.firsts)
        if self.unit:
            products = np.append(products, pw.dtype.type(1))
        terms = products[self.key_of]
        terms *= coef
        return terms

    def _reduce(self, terms: np.ndarray) -> list:
        """Each span's float sum of terms, by one `np.add.reduceat`;
        OverflowError when one is not finite, which is when one of its
        terms is not or the sum leaves the float range."""
        out = np.add.reduceat(terms, self.starts)
        if self.filled is not None:
            out, sums = np.zeros(len(self.spans)), out
            out[self.filled] = sums
        out = out.tolist()
        if all(map(math.isfinite, out)):
            return out
        raise OverflowError("a term leaves the float range")

    def sums(self, values, dps: int | None = None) -> list:
        """Each combo's value at x = values: floats summed span by span in
        `_reduce`, or mpf with dps set."""
        if dps is not None:
            return self.mp_sums(values, dps)
        d, inside = self._float_differences(values)
        if inside:  # the warm path enters no context manager
            return self._reduce(self._products(d, self.coef))
        with _raising():
            return self._reduce(self._products(d, self.coef))

    def sums_and_conditions(self, values) -> tuple[list, list[float]]:
        """From one float pass, each combo's sum, with the bits of `sums`,
        and its summation condition number sum|t_i| / |sum t_i|, inf for a
        zero sum; OverflowError also where a sum of |t_i| is not finite."""
        d, inside = self._float_differences(values)
        with contextlib.nullcontext() if inside else _raising():
            terms = self._products(d, self.coef)
            sums, sizes = self._reduce(terms), self._reduce(np.abs(terms))
        return sums, [size / abs(s) if s else math.inf for s, size in zip(sums, sizes)]

    def mp_sums(self, values, dps: int) -> list:
        """Each combo's mpf value at dps digits: the float pass's products
        over an object array of mpf, each span summed by `mpmath.fsum`."""
        import mpmath

        with mpmath.workdps(dps):
            x = self._read(values, to_mpf)
            d = [x[b] - x[a] for a, b in self.index]
            self._check(d)
            coef = self.ints
            if coef is None:
                coef = np.array(list(map(to_mpf, self.exact)), object)
            terms = self._products(np.array(d, object), coef)
            return [mpmath.fsum(terms[a:b]) for a, b in self.spans]


@contextlib.contextmanager
def _raising():
    """numpy raises on every float exception within, as OverflowError: a
    term or sum that overflows, or underflows and would drop out of its
    sum unseen."""
    try:
        with np.errstate(all="raise"):
            yield
    except FloatingPointError:
        raise OverflowError("a term leaves the float range") from None


def to_mpf(v):
    """v as an mpf at the working precision: an mpf as it is, a rational
    (int, Fraction, numpy integer) as numerator over denominator, anything
    else through float, since mpf refuses numpy floats other than float64.
    Every `dps` route reads its caller's numbers through this."""
    import mpmath

    if isinstance(v, mpmath.mpf):
        return v
    if isinstance(v, Rational):
        return mpmath.mpf(int(v.numerator)) / int(v.denominator)
    return mpmath.mpf(float(v))


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

