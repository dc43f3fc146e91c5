import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpcalc import arith_nt as nt
from tpcalc.errors import BudgetError, ParameterError, PreconditionError


def legendre_valuation(t: int, p: int) -> int:
    """Independent oracle: v_p(t!) by Legendre's formula."""
    v = 0
    q = p
    while q <= t:
        v += t // q
        q *= p
    return v


class TestFactorialRatio:
    def test_known_values(self):
        assert nt.factorial_ratio(1) == 1
        assert nt.factorial_ratio(3) == Fraction(2, 9)
        assert nt.factorial_ratio(5) == Fraction(24, 625)
        assert nt.factorial_ratio(4) == Fraction(3, 32)

    def test_rejects_zero(self):
        with pytest.raises(ParameterError):
            nt.factorial_ratio(0)

    def test_strictly_decreasing_up_to_200(self):
        values = [nt.factorial_ratio(t) for t in range(1, 201)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(v <= 1 for v in values)
        assert values[0] == 1 and all(v < 1 for v in values[1:])


class TestProductOfRatios:
    @settings(deadline=None, max_examples=200, derandomize=True)
    @given(st.lists(st.one_of(st.just(1), st.integers(1, 30)), max_size=40))
    def test_equals_the_entry_by_entry_product(self, entries):
        # oracle: one reduced Fraction multiply per entry, t = 1 included
        want = Fraction(1)
        for t in entries:
            want *= Fraction(math.factorial(t), t**t)
        assert nt.product_of_ratios(entries) == want

    def test_empty_product_is_one(self):
        assert nt.product_of_ratios([]) == 1

    @pytest.mark.parametrize("t", [0, -1])
    def test_rejects_nonpositive_entries(self, t):
        with pytest.raises(ParameterError):
            nt.product_of_ratios([1, 2, t, 1])


class TestPadicValuation:
    def test_simple_values(self):
        assert nt.padic_valuation(Fraction(1, 2), 2) == -1
        assert nt.padic_valuation(Fraction(2, 9), 3) == -2
        assert nt.padic_valuation(12, 2) == 2

    def test_errors(self):
        with pytest.raises(ParameterError):
            nt.padic_valuation(Fraction(0), 2)
        with pytest.raises(ParameterError):
            nt.padic_valuation(Fraction(1, 2), 4)

    def test_against_legendre_oracle(self):
        for t in range(1, 41):
            for p in [q for q in range(2, 38) if nt.is_prime(q)]:
                want = legendre_valuation(t, p) - t * nt.padic_valuation(t, p) \
                    if t % p == 0 else legendre_valuation(t, p)
                got = nt.padic_valuation(nt.factorial_ratio(t), p)
                assert got == want

    def test_negative_iff_p_divides_t(self):
        for t in range(2, 41):
            for p in [q for q in range(2, 38) if nt.is_prime(q)]:
                assert (nt.padic_valuation(nt.factorial_ratio(t), p) < 0) == (t % p == 0)


class TestPrimes:
    def test_next_prime(self):
        assert nt.next_prime(1) == 2
        assert nt.next_prime(7) == 11
        assert nt.next_prime(13) == 17

    def test_bertrand_window_holds(self):
        for n in range(2, 500):
            p = nt.next_prime(n)
            assert n < p < 2 * n

    def test_rejects_zero(self):
        with pytest.raises(ParameterError):
            nt.next_prime(0)

    def test_prime_factors(self):
        assert nt.prime_factors(1) == []
        assert nt.prime_factors(97) == [97]
        assert nt.prime_factors(360) == [2, 3, 5]
        for n in range(2, 200):
            want = [p for p in range(2, n + 1) if n % p == 0 and nt.is_prime(p)]
            assert nt.prime_factors(n) == want


class TestCollisionScan:
    def test_prime_uniqueness_small(self):
        report = nt.prodpi_collision_scan(20)
        assert report.prime_uniqueness_holds
        assert report.multisets_checked > 100

    def test_one_ninth_only_from_2_3(self):
        # 1/9 = f(2) f(3); confirm no other multiset with sum <= 28 reaches it
        report = nt.prodpi_collision_scan(28)
        assert report.prime_uniqueness_holds
        hits = [ms for ms in _all_multisets(28) if nt.product_of_ratios(ms) == Fraction(1, 9)]
        assert hits == [(3, 2)]

    def test_single_four_is_not_a_prime_product(self):
        value = nt.factorial_ratio(4)
        assert value == Fraction(3, 32)
        for p in (2, 3, 5, 7):
            assert value != nt.factorial_ratio(p)
        assert value != nt.factorial_ratio(2) * nt.factorial_ratio(3)

    def test_budget(self):
        with pytest.raises(BudgetError):
            nt.prodpi_collision_scan(41)

    @pytest.mark.parametrize("max_sum", [1, -3])
    def test_refuses_a_scan_that_checks_nothing(self, max_sum):
        # below 2 there is no multiset to check, so "holds" would be vacuous
        with pytest.raises(ParameterError, match="max_sum must be at least 2"):
            nt.prodpi_collision_scan(max_sum)


def _all_multisets(max_sum):
    for total in range(2, max_sum + 1):
        yield from nt._partitions_min2(total, total)


class TestMajorisation:
    def test_reflexive(self):
        r = nt.majorisation([3, 1], [1, 3])
        assert r.prec and r.prec_w

    def test_classic_pair(self):
        r = nt.majorisation([2, 2], [3, 1])
        assert r.prec and r.prec_w

    def test_weak_but_not_strong(self):
        r = nt.majorisation([5, 3, 1], [5, 4, 1])
        assert r.prec_w and not r.prec

    def test_length_mismatch(self):
        with pytest.raises(PreconditionError):
            nt.majorisation([1], [1, 2])

    @settings(deadline=None, max_examples=60, derandomize=True)
    @given(st.lists(st.integers(0, 30), min_size=1, max_size=6))
    def test_self_majorisation(self, xs):
        r = nt.majorisation(xs, list(reversed(sorted(xs))))
        assert r.prec and r.prec_w


class TestSchurCheck:
    def test_strict_weak_example(self):
        v = nt.schur_strict_check([3, 2], [4, 2])
        assert v.hypotheses_hold and v.exact
        assert v.h_x == Fraction(2, 9) * Fraction(1, 2)
        assert v.h_y == Fraction(3, 32) * Fraction(1, 2)
        assert v.holds

    def test_plain_schur_concavity_pair(self):
        # (2,2) majorised by (3,1): product is larger on the flatter vector
        v = nt.schur_strict_check([2, 2], [3, 1])
        assert not v.hypotheses_hold  # repeated coordinates violate strictness
        assert nt.product_of_ratios([2, 2]) > nt.product_of_ratios([3, 1])

    def test_permutation_gives_equal_h(self):
        a = nt.product_of_ratios([4, 2, 1])
        b = nt.product_of_ratios([2, 1, 4])
        assert a == b

    def test_hypothesis_violation_reported(self):
        v = nt.schur_strict_check([2, 3], [4, 2])
        assert not v.hypotheses_hold
        assert "x not decreasing" in v.failed_hypotheses
        assert v.holds is None

    @settings(deadline=None, max_examples=40, derandomize=True)
    @given(st.lists(st.integers(1, 9), min_size=2, max_size=5),
           st.data())
    def test_schur_concavity_random_transfers(self, xs, data):
        # Robin Hood transfer produces a majorised vector; h must not decrease.
        xs = sorted(xs, reverse=True)
        i = data.draw(st.integers(0, len(xs) - 2))
        if xs[i] - xs[i + 1] < 2:
            return
        ys = list(xs)
        ys[i] -= 1
        ys[i + 1] += 1
        ys = sorted(ys, reverse=True)
        assert nt.majorisation(ys, xs).prec
        assert nt.product_of_ratios(ys) >= nt.product_of_ratios(xs)


class TestLogGamma:
    def test_log_f_at_one(self):
        assert abs(nt.log_f(1.0)) < 1e-12

    def test_integer_agreement_with_exact_ratio(self):
        for t in range(1, 31):
            exact = math.log(nt.factorial_ratio(t))
            assert math.isclose(nt.log_f(float(t)), exact, rel_tol=1e-10, abs_tol=1e-10)

    def test_constant_c(self):
        assert abs(nt.bound_constant_c() - 0.976986) < 1e-6

    def test_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            nt.log_f(0.0)

    def test_strict_concavity_on_grid(self):
        # negative second central differences of log f on [0.5, 50]
        h = 1e-3
        x = 0.5
        while x <= 50:
            second = nt.log_f(x + h) - 2 * nt.log_f(x) + nt.log_f(x - h) if x > h else -1
            assert second < 0
            x += 0.5


class TestSandwichBounds:
    def test_fixed_compositions(self):
        for entries in [(1,), (2, 1), (3, 3, 3), (5, 4, 2, 1), (10, 10, 10)]:
            assert nt.amgm_sandwich_holds(entries)

    @settings(deadline=None, max_examples=100, derandomize=True)
    @given(st.lists(st.integers(1, 30), min_size=1, max_size=10))
    def test_hypothesis_compositions(self, entries):
        if sum(entries) <= 30:
            assert nt.amgm_sandwich_holds(entries)

    def test_five_hundred_random_compositions(self):
        import random
        rng = random.Random(1789)
        for _ in range(500):
            n = rng.randint(1, 30)
            entries = []
            left = n
            while left:
                part = rng.randint(1, left)
                entries.append(part)
                left -= part
            assert nt.amgm_sandwich_holds(entries), entries

    def test_gamma_vs_amgm_spot(self):
        assert nt.prop_gamma_vs_amgm_holds(12, 9)   # boundary s = 3n/4
        assert nt.prop_gamma_vs_amgm_holds(40, 11)
        with pytest.raises(PreconditionError):
            nt.prop_gamma_vs_amgm_holds(10, 9)

    def test_equality_only_at_four_thirds(self):
        # at n = 4s/3 the two sides agree to float precision; off it, strict gap
        lhs = 3 * nt.log_f(4 / 3)
        rhs = 4 * math.log(nt.bound_constant_c()) + 4 * math.log((4 + 3) / 8.0)
        assert abs(lhs - rhs) < 1e-12
        lhs2 = 2 * nt.log_f(8 / 2)
        rhs2 = 8 * math.log(nt.bound_constant_c()) + 8 * math.log((8 + 2) / 16.0)
        assert lhs2 < rhs2 - 1e-6
