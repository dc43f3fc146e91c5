"""Exact arithmetic support: factorial ratios, p-adic valuations and
majorisation.

Everything that feeds a theorem gate is computed with `fractions.Fraction`;
floats appear only in the gamma-function bound and carry a stated tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Sequence

from .errors import BudgetError, ParameterError, PreconditionError

PROD_SCAN_MAX_SUM = 40
# the relative tolerance of every float comparison: the gamma-function
# bounds and the Schur check on non-integer vectors
GAMMA_REL_TOL = 1e-9

# Vectors for the majorisation and product-comparison operations: any sequence
# of non-negative reals; exact arithmetic kicks in when every entry is an
# int or Fraction.
RealVector = Sequence[Fraction | int | float]


@lru_cache(maxsize=None)
def factorial_ratio(t: int) -> Fraction:
    """Exact t!/t^t, reduced. Strictly decreasing in t; equals 1 only at t=1."""
    if t < 1:
        raise ParameterError(f"factorial_ratio needs t >= 1, got {t}")
    return Fraction(math.factorial(t), t**t)


def product_of_ratios(entries: Sequence[int]) -> Fraction:
    """Exact product of t!/t^t over the given positive integers, multiplied
    as ints and reduced once; t = 1 contributes 1."""
    num = den = 1
    for t in entries:
        if t != 1:
            ratio = factorial_ratio(t)
            num *= ratio.numerator
            den *= ratio.denominator
    return Fraction(num, den)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def next_prime(n: int) -> int:
    """Smallest prime > n; for n >= 2 the result is checked to lie below 2n."""
    if n < 1:
        raise ParameterError("next_prime needs n >= 1")
    k = n + 1
    while not is_prime(k):
        k += 1
    if n >= 2 and k >= 2 * n:
        raise AssertionError(f"Bertrand check failed: next prime after {n} is {k}")
    return k


def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending (empty for n = 1)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _int_valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def padic_valuation(x: Fraction | int, p: int) -> int:
    """v_p(x) for nonzero rational x and prime p."""
    if not is_prime(p):
        raise ParameterError(f"{p} is not prime")
    x = Fraction(x)
    if x == 0:
        raise ParameterError("p-adic valuation of zero is undefined")
    return _int_valuation(abs(x.numerator), p) - _int_valuation(x.denominator, p)


# ---------------------------------------------------------------------------
# Multiset scan: which products of t!/t^t collide?
# ---------------------------------------------------------------------------

def _partitions_min2(total: int, max_part: int) -> Iterator[tuple[int, ...]]:
    """Multisets (decreasing tuples) of integers >= 2 summing to `total`."""
    if total == 0:
        yield ()
        return
    for part in range(min(total, max_part), 1, -1):
        if total - part == 1:
            continue  # a remainder of 1 cannot be split into parts >= 2
        for rest in _partitions_min2(total - part, part):
            yield (part,) + rest


@dataclass(frozen=True)
class CollisionReport:
    max_sum: int
    multisets_checked: int
    prime_set_collisions: tuple[tuple[tuple[int, ...], ...], ...]
    other_collisions: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def prime_uniqueness_holds(self) -> bool:
        return not self.prime_set_collisions


def prodpi_collision_scan(max_sum: int) -> CollisionReport:
    """Enumerate all multisets {t_i >= 2} with sum <= max_sum, group them by the
    exact value of the product of t!/t^t, and flag any group that contains a set
    of distinct primes together with a different multiset.

    Collisions between two non-prime multisets are reported separately; they are
    informative only.
    """
    if max_sum < 2:
        raise ParameterError(f"max_sum must be at least 2, got {max_sum}")
    if max_sum > PROD_SCAN_MAX_SUM:
        raise BudgetError(f"max_sum {max_sum} exceeds scan budget {PROD_SCAN_MAX_SUM}")
    by_value: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    checked = 0
    for total in range(2, max_sum + 1):
        for ms in _partitions_min2(total, total):
            checked += 1
            v = product_of_ratios(ms)
            by_value.setdefault((v.numerator, v.denominator), []).append(ms)

    def is_distinct_prime_set(ms: tuple[int, ...]) -> bool:
        return len(set(ms)) == len(ms) and all(is_prime(t) for t in ms)

    prime_collisions = []
    other_collisions = []
    for group in by_value.values():
        if len(group) < 2:
            continue
        if any(is_distinct_prime_set(ms) for ms in group):
            prime_collisions.append(tuple(sorted(group)))
        else:
            other_collisions.append(tuple(sorted(group)))
    return CollisionReport(
        max_sum=max_sum,
        multisets_checked=checked,
        prime_set_collisions=tuple(prime_collisions),
        other_collisions=tuple(other_collisions),
    )


# ---------------------------------------------------------------------------
# Majorisation and Schur-concavity of prod f(x_i)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MajorisationResult:
    prec: bool
    prec_w: bool


def _decreasing(x: Sequence) -> list:
    return sorted(x, reverse=True)


def majorisation(x: RealVector, y: RealVector) -> MajorisationResult:
    """Decide x majorised-by y and weakly-majorised-by y on the decreasing
    rearrangements. Exact when the inputs are ints/Fractions."""
    if len(x) != len(y):
        raise PreconditionError("majorisation needs equal-length vectors")
    xs, ys = _decreasing(x), _decreasing(y)
    sx = sy = 0
    weak = True
    for a, b in zip(xs, ys):
        sx += a
        sy += b
        if sx > sy:
            weak = False
            break
    return MajorisationResult(prec=weak and sx == sy, prec_w=weak)


@dataclass(frozen=True)
class SchurVerdict:
    hypotheses_hold: bool
    failed_hypotheses: tuple[str, ...]
    exact: bool
    h_x: Fraction | float
    h_y: Fraction | float
    holds: bool | None


def _h_value(x: Sequence) -> tuple[Fraction | float, bool]:
    if all(isinstance(v, int) or (isinstance(v, Fraction) and v.denominator == 1) for v in x):
        return product_of_ratios([int(v) for v in x]), True
    return math.exp(sum(log_f(float(v)) for v in x)), False


def schur_strict_check(x: RealVector, y: RealVector) -> SchurVerdict:
    """Check the strict product comparison h(x) > h(y) for h = prod f(.) under
    the hypotheses: x, y decreasing, x weakly majorised by y, x has pairwise
    distinct coordinates, and the partial-sum inequality is strict from some
    index onward. Hypothesis failures are reported, not raised."""
    failed = []
    if len(x) != len(y):
        raise PreconditionError("vectors must have equal length")
    if list(x) != _decreasing(x):
        failed.append("x not decreasing")
    if list(y) != _decreasing(y):
        failed.append("y not decreasing")
    if len(set(x)) != len(x):
        failed.append("x has repeated coordinates")
    sx = sy = 0
    strict_from = None
    weak = True
    for i, (a, b) in enumerate(zip(x, y)):
        sx += a
        sy += b
        if sx > sy:
            weak = False
        if sx < sy:
            if strict_from is None:
                strict_from = i
        else:
            strict_from = None
    if not weak:
        failed.append("x not weakly majorised by y")
    if strict_from is None:
        failed.append("no strict tail in the partial sums")
    h_x, exact_x = _h_value(x)
    h_y, exact_y = _h_value(y)
    exact = exact_x and exact_y
    if failed:
        return SchurVerdict(False, tuple(failed), exact, h_x, h_y, None)
    if exact:
        holds = h_x > h_y
    else:
        holds = float(h_x) > float(h_y) * (1 - GAMMA_REL_TOL)
    return SchurVerdict(True, (), exact, h_x, h_y, holds)


# ---------------------------------------------------------------------------
# log f and the Jensen bound f(n/s)^s
# ---------------------------------------------------------------------------

def log_f(x: float) -> float:
    """log of f(x) = Gamma(x+1)/x^x for x > 0."""
    if x <= 0:
        raise ParameterError("log_f needs x > 0")
    return math.lgamma(x + 1.0) - x * math.log(x)


def jensen_power_bound(n: int, s: int) -> float:
    """The concavity bound f(n/s)^s on products of s ratios summing to n."""
    if n < 1 or s < 1:
        raise ParameterError("jensen_power_bound needs n, s >= 1")
    return math.exp(s * log_f(n / s))


@lru_cache(maxsize=1)
def bound_constant_c() -> float:
    """The comparison constant (8/7) f(4/3)^(3/4) = 0.976986..."""
    return (8.0 / 7.0) * math.exp(0.75 * log_f(4.0 / 3.0))


def factorial_lower_bound(n: int) -> Fraction:
    """Exact n!/n^n, the floor for any product of ratios with entries summing to n."""
    return factorial_ratio(n) if n >= 1 else Fraction(1)


def amgm_upper_bound(n: int, s: int) -> Fraction:
    """Exact ((n+s)/2n)^n, the AM-GM ceiling for s parts summing to n."""
    return Fraction(n + s, 2 * n) ** n


def amgm_sandwich_holds(entries: Sequence[int]) -> bool:
    """Exact check n!/n^n <= prod t!/t^t <= ((n+s)/2n)^n for one composition."""
    n = sum(entries)
    s = len(entries)
    value = product_of_ratios(entries)
    return factorial_lower_bound(n) <= value <= amgm_upper_bound(n, s)


def prop_gamma_vs_amgm_holds(n: int, s: int) -> bool:
    """f(n/s)^s <= c^n ((n+s)/2n)^n for s <= 3n/4, within float tolerance.

    Equality occurs exactly at n = (4/3) s, so the comparison allows
    GAMMA_REL_TOL.
    """
    if 4 * s > 3 * n:
        raise PreconditionError("bound requires s <= 3n/4")
    lhs = s * log_f(n / s)
    rhs = n * math.log(bound_constant_c()) + n * math.log((n + s) / (2.0 * n))
    return lhs <= rhs + GAMMA_REL_TOL * abs(rhs) + 1e-15
