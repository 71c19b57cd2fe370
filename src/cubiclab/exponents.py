"""Symbolic bookkeeping for the parameter system of the solubility bound.

Every quantity is tracked as the exact rational exponent of M (the
coefficient height): the arc parameters u, P0, P, Q, the scalars T, psi,
delta, n, and the 21 assumption inequalities (M1-M3, S1-S4, I1, m1-m13).
Inequalities with an epsilon or an implicit constant are evaluated at
epsilon = 0: a tag passes iff its slack is >= 0 (equality-by-choice tags
have slack exactly 0).  |z| is modeled by its exponent 3.75, an explicit
assumption of the model.

psi may be infinite (psi=None): the psi-dependent tags then pass vacuously
and the series cutoff is checked against the psi-free replacement bound
instead (P0 >> M^259 for the T=84 chain, P0 >> M^(876(n^2-1)+7) for
T = 292(n^2-1)).
"""

import sys
from dataclasses import dataclass
from fractions import Fraction

Z_EXP = Fraction(15, 4)  # modeled exponent of |z| (= 3.75)


def _frac(x) -> Fraction:
    """x read exactly from its str (a float as it prints); a zero
    denominator is a ValueError."""
    try:
        return Fraction(str(x))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {x!r}") from None


def present(x: Fraction) -> str:
    """Exact rational to fixed-point string with 2 decimals, a half rounded
    away from zero, in exact integers with no precision context; a negative
    x keeps its sign even where it rounds to zero (-0.00)."""
    num, den = abs(x.numerator), x.denominator
    digits = str((200 * num + den) // (2 * den)).zfill(3)
    return ("-" if x < 0 else "") + digits[:-2] + "." + digits[-2:]


@dataclass(frozen=True)
class TagResult:
    tag: str
    lhs: Fraction | None
    rhs: Fraction | None
    slack: Fraction | None
    passes: bool
    note: str = ""

    def as_dict(self) -> dict:
        return {"tag": self.tag,
                "lhs": str(self.lhs) if self.lhs is not None else None,
                "rhs": str(self.rhs) if self.rhs is not None else None,
                "slack": str(self.slack) if self.slack is not None else None,
                "pass": self.passes, "note": self.note}


@dataclass(frozen=True)
class ExponentSystem:
    T: Fraction
    psi: Fraction | None          # None encodes psi = infinity
    delta: Fraction | None
    n: int
    params: dict                  # name -> Fraction exponent of M
    tags: tuple = ()              # TagResult per assumption

    @property
    def all_pass(self) -> bool:
        return all(t.passes for t in self.tags)

    def failed(self) -> list:
        return [t.tag for t in self.tags if not t.passes]


def paper_exponents(T) -> dict:
    """The article's parameter choices as exact exponents of M."""
    T = _frac(T)
    B = 2 * T + 17
    e_u = (28 * B + 32) / 17
    e_P0 = (50 * B + 96) / 17
    e_P = (373 * B + 640) / 34
    e_Q = Fraction(11, 9) * e_P - (2 * T + 16) / 9
    return {"u": e_u, "P0": e_P0, "P": e_P, "Q": e_Q}


def _le(tag, lhs, rhs, note="") -> TagResult:
    slack = rhs - lhs
    return TagResult(tag, lhs, rhs, slack, slack >= 0, note)


def _vacuous(tag, note) -> TagResult:
    return TagResult(tag, None, None, None, True, note)


def solve_parameters(T, psi=None, delta=None, n: int = 14) -> ExponentSystem:
    """Evaluate all 21 assumption tags at the paper's exponent choices.

    psi=None means psi = infinity.  delta is only needed by S1/S4 (the
    general-form series chain); without it those tags are skipped with a
    note rather than guessed.

    At the published P0 exponent 9346/17 (~549.76, T = 84) S4 fails for
    every delta in (2, 7/3), the range S1 allows: the requirement
    (84 + 14 delta/(14 - 6 delta))/(delta - 2) has its minimum ~583.05 at
    delta ~2.237.  Clearing the positive denominators, S4 holds iff
    -6 P0 delta^2 + (26 P0 + 490) delta - (28 P0 + 1176) >= 0, whose
    discriminant at P0 = 9346/17 is -17192444/289 < 0.  At delta = 2.23
    the gap is 416802/12121 (~34.39).
    """
    T = _frac(T)
    psi = _frac(psi) if psi is not None else None
    delta = _frac(delta) if delta is not None else None
    p = paper_exponents(T)
    e_u, e_P0, e_P, e_Q = p["u"], p["P0"], p["P"], p["Q"]
    B = 2 * T + 17
    tags = [
        _le("M1", 2 * e_P0 + e_u, 3 * e_P),
        _le("M2", e_u + e_P0 + 1 + 2 * Z_EXP, e_P,
            note=f"|z| modeled as M^{Z_EXP}"),
        _le("M3", 3 * e_P0 + e_u, e_P - (Fraction(17, 2) + T),
            note="equality by construction"),
        _le("I1", 2 * e_u + 17, e_P),
        _le("m1", 2 * e_Q, (n - 3) * e_P - (Fraction(17, 2) + T)),
        _le("m2", 2 * T + 17, 8 * e_P),
        _le("m3", (2 * T + 16) + 2 * e_Q, 11 * e_P),
        _le("m6", e_Q, Fraction(11, 9) * e_P - (2 * T + 16) / 9,
            note="equality by choice of Q"),
        _le("m7", Fraction(15, 13) * e_P + (6 * T + 64) / 13, e_Q),
        _le("m8", Fraction(91, 9) * B + Fraction(440, 27), e_P),
        _le("m10", Fraction(50, 17) * B + Fraction(96, 17), e_P0,
            note="equality by choice of P0"),
        _le("m11", Fraction(12, 11) * e_P + (234 * B + 503) / 187, e_Q),
        _le("m13", (28 * B + 32) / 17, e_u, note="equality by choice of u"),
    ]
    if psi is None:
        # every psi-dependent tag passes vacuously, and S4 checks the
        # replacement series cutoff of the psi-free chain
        tags += [_vacuous(t, "psi = infinity: vacuous")
                 for t in ("S1", "S2", "S3", "m4", "m5", "m9", "m12")]
        if T == 84:
            req = Fraction(259)
        else:
            req = Fraction(876) * (n * n - 1) + 7
        tags.append(TagResult("S4", req, e_P0, e_P0 - req, e_P0 >= req,
                              note="psi-free replacement cutoff P0 >> M^"
                                   + str(req)))
    else:
        pole = "14/(14-6 delta) is undefined at delta = 7/3"
        if delta is not None and 6 * delta == 14:
            tags.append(TagResult("S1", None, 1 + 3 * psi, None, False,
                                  note=pole))
        elif delta is not None:
            s1_mid = 14 / (14 - 6 * delta)
            ok = 0 < s1_mid < 1 + 3 * psi
            tags.append(TagResult("S1", s1_mid, 1 + 3 * psi,
                                  (1 + 3 * psi) - s1_mid, ok,
                                  note="also requires 14/(14-6 delta) > 0"))
        else:
            tags.append(_vacuous("S1", "delta not supplied: not evaluated"))
        tags.append(_le("S2", e_P0, 1 + 3 * psi))
        tags.append(TagResult("S3", Fraction(23), psi, psi - 23, psi >= 23,
                              note="list form psi >= 23; body form 70 <= "
                                   "1+3 psi is equivalent"))
        if delta is not None:
            if delta <= 2:
                tags.append(TagResult("S4", None, None, None, False,
                                      note="needs delta > 2"))
            elif 6 * delta == 14:
                tags.append(TagResult("S4", None, None, None, False,
                                      note=pole))
            else:
                req = (84 + 14 * delta / (14 - 6 * delta)) / (delta - 2)
                tags.append(TagResult("S4", req, e_P0, e_P0 - req,
                                      e_P0 >= req))
        else:
            tags.append(_vacuous("S4", "delta not supplied: not evaluated"))
        tags += [_le("m4", 5 * e_P, 13 * psi - 2 * T - 17),
                 _le("m5", 3 * e_P + 2 * e_Q, 14 * psi - 2 * T - 16),
                 _le("m9", e_P, (175 * psi - 91 * B - 130) / 116),
                 _le("m12", 3 * e_P - (Fraction(7, 2) * psi
                                       - (117 * B + 192) / 17), e_Q)]
    # the paper's order: M1-M3, S1-S4, I1, m1-m13
    tags.sort(key=lambda t: ("MSIm".index(t.tag[0]), int(t.tag[1:])))
    return ExponentSystem(T=T, psi=psi, delta=delta, n=n, params=p,
                          tags=tuple(tags))


def _digits(x, room: int) -> int | None:
    """The digits of the larger of x's numerator and denominator, x a
    Fraction or a numeral as _frac reads it; None past `room` digits, or
    for a numeral longer than int() reads."""
    if isinstance(x, str):
        try:
            x = _frac(x)
        except ValueError:
            if len(x) <= sys.get_int_max_str_digits():
                raise
            return None
    height = max(abs(x.numerator), x.denominator)
    return len(str(height)) if height < 10 ** room else None


def unprintable(limit: int, T, psi=None, delta=None) -> tuple | None:
    """(name, room) for the first of T, psi and delta whose numerator or
    denominator has more than `room` digits, so that some value of
    solve_parameters or psi_requirement could have more than `limit`
    digits in its numerator or denominator; None when none has.

    Every exponent is linear in T, its coefficients below 10^8, so T may
    have limit - 8 digits.  A psi tag's slack has at most 16 digits more
    than T's and psi's together, so psi may have limit - 16 - d(T), d the
    digits of the larger of a value's numerator and denominator; delta
    sits beside psi in S1 and enters S4's requirement squared beside T, so
    it may have the smaller of limit - 16 - d(psi) and
    (limit - 16 - d(T)) / 2.  Without psi no tag reads delta."""
    room = limit - 8
    d_T = _digits(T, room)
    if d_T is None:
        return "T", room
    if psi is None:
        return None
    room = max(0, limit - 16 - d_T)
    d_psi = _digits(psi, room)
    if d_psi is None:
        return "psi", room
    if delta is None:
        return None
    room = min(room // 2, max(0, limit - 16 - d_psi))
    return ("delta", room) if _digits(delta, room) is None else None


def psi_requirement(T, delta=None) -> dict:
    """Minimal admissible psi across every psi-dependent tag.

    m9 is expected to bind at the paper's exponents; the per-tag minima
    are reported alongside the binding constraint.  Each psi-dependent
    slack s of solve_parameters is affine in psi, so its root is
    -s(0) / (s(1) - s(0)).  S1 counts only for delta in (2, 7/3).
    """
    if delta is not None and not 2 < _frac(delta) < Fraction(7, 3):
        delta = None
    s0, s1 = ({t.tag: t.slack for t in solve_parameters(
        T, psi=psi, delta=delta).tags} for psi in (0, 1))
    mins = {tag: -s0[tag] / (s1[tag] - s0[tag])
            for tag in ("m9", "m4", "m5", "m12", "S2", "S3", "S1")
            if s0[tag] is not None}
    binding = max(mins, key=lambda k: mins[k])
    return {"psi_min": mins[binding], "binding": binding, "per_tag": mins}


def theorem_exponent_check(n: int) -> dict:
    """exp_P at T = 292(n^2 - 1) against the headline bound 6407 n^2."""
    T = Fraction(292) * (n * n - 1)
    e_P = paper_exponents(T)["P"]
    bound = Fraction(6407) * n * n
    return {"n": n, "exp_P": e_P, "bound": bound, "ok": e_P <= bound}
