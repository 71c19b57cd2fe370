"""Symbolic exponent system: parameter choices, assumption tags, psi
requirements and theorem-scale checks."""

from decimal import ROUND_HALF_UP, Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cubiclab import (ExponentSystem, paper_exponents, psi_requirement,
                      solve_parameters, theorem_exponent_check)
from cubiclab.exponents import _frac, present, unprintable


T84 = Fraction(84)


class TestPresent:
    def test_round_half_up(self):
        assert present(Fraction(5212, 17)) == "306.59"
        assert present(Fraction(1, 8)) == "0.13"
        assert present(Fraction(5, 200)) == "0.03"
        # away from zero, and the sign kept where it rounds to zero
        assert present(Fraction(-5, 200)) == "-0.03"
        assert present(Fraction(-1, 1000)) == "-0.00"
        assert present(Fraction(0)) == "0.00"

    def test_any_size(self):
        # 28 digits and more: past the default Decimal context
        assert present(Fraction(10**40 + 1, 2)) == "5" + "0" * 38 + "0.50"

    @given(st.fractions())
    @example(Fraction(-1, 1000)).via("rounds to -0.00")
    @example(Fraction(-1, 300)).via("rounds to -0.00 from a third")
    @example(Fraction(-5, 200)).via("a half, away from zero")
    def test_matches_decimal_holding_every_digit(self, x):
        # every digit of the integer part and the denominator's worth past
        # the last place: a quotient that exact neither creates nor hides a
        # half, so Decimal's one rounding is the exact one
        prec = len(str(abs(x.numerator))) + len(str(x.denominator)) + 12
        with localcontext(prec=prec, rounding=ROUND_HALF_UP):
            d = Decimal(x.numerator) / Decimal(x.denominator)
            expect = str(d.quantize(Decimal("0.01")))
        assert present(x) == expect


class TestFrac:
    @pytest.mark.parametrize("x,value", [
        (3, Fraction(3)), (Fraction(-7, 3), Fraction(-7, 3)),
        (2.23, Fraction("2.23")), ("1454.8", Fraction(7274, 5)),
        ("1e27", Fraction(10**27))])
    def test_one_path_for_every_input(self, x, value):
        assert _frac(x) == value

    def test_zero_denominator_is_a_value_error(self):
        with pytest.raises(ValueError, match="zero denominator in '1/0'"):
            _frac("1/0")


class TestParameterChoices:
    def test_headline_exponents(self):
        p = paper_exponents(T84)
        assert p["u"] == Fraction(5212, 17)
        assert p["P0"] == Fraction(9346, 17)
        assert p["P"] == Fraction(69645, 34)
        assert present(p["u"]) == "306.59"
        assert present(p["P0"]) == "549.76"
        assert present(p["P"]) == "2048.38"

    def test_ceiling(self):
        p = paper_exponents(T84)["P"]
        assert -((-p.numerator) // p.denominator) == 2049

    def test_q_linked_to_p(self):
        p = paper_exponents(T84)
        assert p["Q"] == Fraction(11, 9) * p["P"] - Fraction(2 * 84 + 16, 9)


class TestSolveParameters:
    def test_psi_free_chain_passes(self):
        sys_ = solve_parameters(T84)
        assert isinstance(sys_, ExponentSystem)
        assert len(sys_.tags) == 21
        assert sys_.all_pass

    def test_equality_tags_have_zero_slack(self):
        sys_ = solve_parameters(T84)
        by_tag = {t.tag: t for t in sys_.tags}
        for tag in ("M3", "m6", "m10", "m13"):
            assert by_tag[tag].slack == 0

    def test_full_suite_binding_failure(self):
        # with the published (T, psi, delta) one series-cutoff inequality
        # is genuinely infeasible at epsilon = 0: the required P0 exponent
        # exceeds the chosen one by ~34.4.  Everything else passes.
        sys_ = solve_parameters(T84, psi=Fraction("1454.8"),
                                delta=Fraction("2.23"))
        assert sys_.failed() == ["S4"]
        s4 = next(t for t in sys_.tags if t.tag == "S4")
        assert s4.lhs > s4.rhs
        assert Fraction(34) < s4.lhs - s4.rhs < Fraction(35)

    def test_psi_dependent_tags_vacuous_at_infinity(self):
        sys_ = solve_parameters(T84)
        vac = {t.tag for t in sys_.tags if t.lhs is None and t.passes}
        assert {"S1", "S2", "S3", "m4", "m5", "m9", "m12"} == vac

    def test_delta_needed_for_s4(self):
        sys_ = solve_parameters(T84, psi=Fraction("1454.8"))
        s4 = next(t for t in sys_.tags if t.tag == "S4")
        assert s4.passes and "not evaluated" in s4.note

    def test_delta_must_exceed_two(self):
        sys_ = solve_parameters(T84, psi=Fraction("1454.8"), delta=2)
        s4 = next(t for t in sys_.tags if t.tag == "S4")
        assert not s4.passes

    def test_delta_seven_thirds_fails_without_dividing(self):
        # 14 - 6 delta = 0: S1's 14/(14 - 6 delta) and S4's requirement
        # are undefined, and both tags fail
        sys_ = solve_parameters(T84, psi=100, delta=Fraction(7, 3))
        by_tag = {t.tag: t for t in sys_.tags}
        for tag in ("S1", "S4"):
            assert not by_tag[tag].passes and by_tag[tag].slack is None
            assert "delta = 7/3" in by_tag[tag].note

    def test_theorem_scale_psi_free(self):
        n = 15
        sys_ = solve_parameters(292 * (n * n - 1), n=n)
        assert sys_.all_pass


class TestPsiRequirement:
    def test_headline_value(self):
        req = psi_requirement(T84)
        assert req["binding"] == "m9"
        assert abs(req["psi_min"] - Fraction("1454.8")) < Fraction(1, 10)
        # closed form of the binding constraint
        e_P = paper_exponents(T84)["P"]
        B = 2 * 84 + 17
        assert req["psi_min"] == (116 * e_P + 91 * B + 130) / 175

    def test_all_minima_below_binding(self):
        req = psi_requirement(T84)
        assert all(v <= req["psi_min"] for v in req["per_tag"].values())

    @pytest.mark.parametrize("T", [0, 1, 84, Fraction(169, 2), 500,
                                   292 * (15 * 15 - 1)])
    def test_matches_hand_formulas(self, T):
        # the minima solved by hand from each tag of solve_parameters
        p = paper_exponents(T)
        e_P0, e_P, e_Q = p["P0"], p["P"], p["Q"]
        B = 2 * Fraction(T) + 17
        for d in [None, 2, Fraction(21, 10), Fraction("2.23"),
                  Fraction(7, 3) - Fraction(1, 1000), Fraction(7, 3), 3]:
            want = {
                "m9": (116 * e_P + 91 * B + 130) / 175,
                "m4": (5 * e_P + 2 * T + 17) / 13,
                "m5": (3 * e_P + 2 * e_Q + 2 * T + 16) / 14,
                "m12": Fraction(2, 7) * (3 * e_P - e_Q
                                         + (117 * B + 192) / 17),
                "S2": (e_P0 - 1) / 3,
                "S3": Fraction(23),
            }
            if d is not None and 2 < d < Fraction(7, 3):
                want["S1"] = (14 / (14 - 6 * Fraction(d)) - 1) / 3
            req = psi_requirement(T, delta=d)
            assert list(req["per_tag"].items()) == list(want.items())
            binding = max(want, key=lambda k: want[k])
            assert (req["binding"], req["psi_min"]) == (binding,
                                                       want[binding])


def height_digits(x: Fraction) -> int:
    return len(str(max(abs(x.numerator), x.denominator)))


@st.composite
def with_digits(draw, room: int, near=None):
    """A Fraction whose larger of numerator and denominator has at most
    `room` digits, often exactly: drawn whole, or for `near` (2 or 7/3)
    one time in two near + 1/(3m) or near - 1/(3m), inside (2, 7/3)."""
    digits = draw(st.one_of(st.just(room), st.integers(1, room)))
    if near is not None and draw(st.booleans()):
        m = draw(st.integers(1, max(1, 10 ** max(0, digits - 2) - 1)))
        return near + Fraction(1 if near == 2 else -1, 3 * m)
    big = draw(st.integers(10 ** (digits - 1), 10 ** digits - 1))
    small = draw(st.integers(1, 10 ** digits - 1))
    x = Fraction(*draw(st.permutations([big, small])))
    return x if draw(st.booleans()) else -x


class TestUnprintable:
    @settings(max_examples=300)
    @given(st.data(), st.integers(40, 400))
    def test_every_value_fits_at_the_rooms(self, data, limit):
        # inputs drawn up to the rooms unprintable grants (read off by
        # passing it a value past every room) give exponents, tags, slacks
        # and psi minima of at most `limit` digits
        past = Fraction(10 ** limit)

        def within(*args, near=None):
            room = unprintable(limit, *args, past)[1]
            return data.draw(with_digits(room, near)) if room else None

        T = within()
        psi = within(T)
        delta = psi and within(T, psi, near=data.draw(
            st.sampled_from([2, Fraction(7, 3)])))
        assert unprintable(limit, T, psi, delta) is None
        system = solve_parameters(T, psi=psi, delta=delta)
        values = list(system.params.values()) + [
            v for t in system.tags for v in (t.lhs, t.rhs, t.slack)]
        if psi is not None:
            req = psi_requirement(T, delta=delta)
            values += list(req["per_tag"].values())
        assert max(height_digits(v) for v in values if v is not None) <= limit

    def test_first_past_its_room_is_named(self):
        assert unprintable(100, Fraction(10**92)) == ("T", 92)
        assert unprintable(100, Fraction(10**92 - 1)) is None
        assert unprintable(100, Fraction(84), psi="1e82") == ("psi", 82)
        assert unprintable(100, Fraction(84), "30", "1e41") == ("delta", 41)
        assert unprintable(100, Fraction(84), "30", "1e40") is None
        # delta without psi is read by no tag
        assert unprintable(100, Fraction(84), None, "1e500") is None


class TestTheoremExponent:
    def test_all_n(self):
        for n in range(14, 101):
            out = theorem_exponent_check(n)
            assert out["ok"]
            assert out["exp_P"] <= Fraction(6407) * n * n

    def test_explicit_value(self):
        out = theorem_exponent_check(14)
        T = Fraction(292) * (14 * 14 - 1)
        assert out["exp_P"] == (373 * (2 * T + 17) + 640) / Fraction(34)
