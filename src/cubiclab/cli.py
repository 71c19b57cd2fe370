"""Command-line entry point.

Exit codes: 0 success, 2 mathematical negative result (NCC violation,
failed assumption tags, exhausted search), 1 operational error (bad input,
budget exceeded).  Output is JSON by default (--csv for tabular commands);
exact rationals are serialized as strings "p/q".

Each `cmd_*` handler takes the loaded --poly (None for exponents) and the
parsed arguments and returns (result, exit code); `main` alone loads,
serialises and prints, and the JSON it prints is strict (no NaN).
"""

import argparse
import json
import sys
from dataclasses import asdict, is_dataclass
from fractions import Fraction

from . import __version__
from .budget import BudgetExceeded
from .counting import count_solutions, smallest_solution
from .exponents import (solve_parameters, psi_requirement, present,
                        theorem_exponent_check)
from .invariants import delta, rank_census, psi_good_report
from .local import ncc_certify, local_report
from .majorarcs import singular_integral, singular_series
from .polynomials import CubicPolynomial, DimensionMismatch, homogenize
from .expsums import weyl_bound_probe


def _ser(obj):
    """JSON-friendly form; Fractions become 'p/q' strings."""
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if is_dataclass(obj) and not isinstance(obj, type):
        return _ser(asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _ser(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_ser(v) for v in obj]
    if hasattr(obj, "item") and callable(obj.item) and not isinstance(
            obj, (int, float, str, bool)):
        try:
            return obj.item()
        except Exception:
            return str(obj)
    return obj


def _manifest(args) -> dict:
    inputs = {k: v for k, v in vars(args).items()
              if k not in ("func", "csv") and v is not None}
    return {"command": args.command, "inputs": _ser(inputs),
            "seed": getattr(args, "seed", None),
            "versions": {"cubiclab": __version__}}


def _load_poly(path: str) -> CubicPolynomial:
    with open(path) as fh:
        return CubicPolynomial.from_json_dict(json.load(fh))


def _load_box(path: str | None, n: int):
    if path is None:
        return [(1.0, 3.0)] * n
    with open(path) as fh:
        d = json.load(fh)
    if "bounds" in d:
        bounds = [tuple(b) for b in d["bounds"]]
    elif "center" in d:
        w = d.get("width", 1.0)
        bounds = [(c - w, c + w) for c in d["center"]]
    else:
        raise ValueError("box JSON: need field 'bounds' or 'center'")
    if len(bounds) != n:
        raise DimensionMismatch(f"box has dim {len(bounds)}, expected {n}")
    return bounds


def _emit(result, args) -> None:
    """The rows as CSV under --csv, else the payload as strict JSON (a NaN
    or an infinity raises ValueError before anything is printed)."""
    if args.csv and "rows" in result:
        rows = result["rows"]
        if rows:
            cols = list(rows[0])
            print(",".join(cols))
            for r in rows:
                print(",".join(str(r[c]) for c in cols))
        return
    print(json.dumps({"manifest": _manifest(args), "result": result},
                     indent=2, allow_nan=False))


def cmd_analyze(phi, args) -> tuple:
    form, scale = homogenize(phi)
    dC, dphi = delta(phi.cubic_part()), delta(form)
    return {"n": phi.n, "height": phi.height, "is_form": phi.is_form,
            "delta_C": dC.value, "delta_phi": dphi.value,
            "delta_phi_factorization": dphi.prime_factorization,
            "homogenization_scale": scale}, 0


def cmd_ncc(phi, args) -> tuple:
    cert = ncc_certify(phi, args.p0, budget=args.budget)
    return cert, {"certified": 0, "violation": 2, "degenerate": 1}[cert.status]


def cmd_densities(phi, args) -> tuple:
    return local_report(phi, args.p, args.kmax, budget=args.budget), 0


def cmd_series(phi, args) -> tuple:
    return singular_series(phi, args.p0, mode=args.mode,
                           budget=args.budget), 0


def cmd_integral(phi, args) -> tuple:
    return singular_integral(phi, _load_box(args.box, phi.n), args.Z,
                             budget=args.budget, seed=args.seed), 0


def cmd_count(phi, args) -> tuple:
    box = _load_box(args.box, phi.n) if args.box else None
    return count_solutions(phi, args.P, box=box, budget=args.budget), 0


def cmd_search(phi, args) -> tuple:
    rep = smallest_solution(phi, args.max_shell, budget=args.budget)
    return rep, 0 if rep.found is not None else 2


def cmd_exponents(phi, args) -> tuple:
    if args.theorem:
        rows = [theorem_exponent_check(n) for n in
                ([args.n] if args.n else range(14, 101))]
        ok = all(r["ok"] for r in rows)
        return {"rows": rows, "all_ok": ok}, 0 if ok else 2
    psi = Fraction(str(args.psi)) if args.psi is not None else None
    dlt = Fraction(str(args.delta)) if args.delta is not None else None
    sys_ = solve_parameters(args.T, psi=psi, delta=dlt, n=args.n or 14)
    p = sys_.params
    result = {"exp_u": present(p["u"]), "exp_P0": present(p["P0"]),
              "exp_P": present(p["P"]), "exp_Q": present(p["Q"]), "exact": p,
              "ceil_exp_P": -((-p["P"].numerator) // p["P"].denominator),
              "tags": [t.as_dict() for t in sys_.tags]}
    if psi is not None:
        req = psi_requirement(args.T, delta=dlt)
        result["psi_min"] = present(req["psi_min"])
        result["psi_binding"] = req["binding"]
    return result, 0 if sys_.all_pass else 2


def cmd_census(phi, args) -> tuple:
    C = phi.cubic_part()
    if args.psi_report:
        if args.p is not None:
            raise ValueError("--p cannot be combined with --psi-report, "
                             "which reports over Q")
        rep = psi_good_report(C, args.H, budget=args.budget)
        return rep, 0 if rep["verdict"] == "consistent" else 2
    census = rank_census(C, args.H, p=args.p, budget=args.budget)
    return {"rows": [{"H": census.H, "r": r, "count": c,
                      "ratio": c / census.H ** max(r, phi.n - 14 + r)}
                     for r, c in sorted(census.counts.items())]}, 0


def cmd_probe(phi, args) -> tuple:
    out = weyl_bound_probe(phi.cubic_part(), args.q, args.a, args.theta,
                           args.P, args.psi_good, budget=args.budget)
    return {"rows": [{"P": args.P, "q": args.q, "a": args.a,
                      "theta": args.theta, "|S|": out["S_abs"],
                      "bound": out["rhs"], "ratio": out["ratio"]}]}, 0


def _with_poly(*specs) -> tuple:
    """The --poly, --budget and --csv specs, then a command's own."""
    return (("--poly", {"required": True}),
            ("--budget", {"type": int, "default": None}),
            ("--csv", {"action": "store_true"})) + specs


# command name -> (handler, (flag, add_argument keywords) in help order)
COMMANDS = {
    "analyze": (cmd_analyze, _with_poly()),
    "ncc": (cmd_ncc, _with_poly(("--p0", {"type": int, "required": True}))),
    "densities": (cmd_densities, _with_poly(
        ("--p", {"type": int, "required": True}),
        ("--kmax", {"type": int, "default": 2}))),
    "series": (cmd_series, _with_poly(
        ("--p0", {"type": int, "required": True}),
        ("--mode", {"choices": ["euler", "qsum", "both"],
                    "default": "both"}))),
    "integral": (cmd_integral, _with_poly(
        ("--Z", {"type": float, "required": True}),
        ("--box", {"default": None}),
        ("--seed", {"type": int, "default": 0}))),
    "count": (cmd_count, _with_poly(
        ("--P", {"type": int, "required": True}),
        ("--box", {"default": None}))),
    "search": (cmd_search, _with_poly(
        ("--max-shell", {"type": int, "default": 50}))),
    "exponents": (cmd_exponents, (
        ("--T", {"type": Fraction, "default": Fraction(84)}),
        ("--psi", {"default": None}),
        ("--delta", {"default": None}),
        ("--theorem", {"choices": ["h14"], "default": None}),
        ("--n", {"type": int, "default": None}),
        ("--csv", {"action": "store_true"}))),
    "census": (cmd_census, _with_poly(
        ("--H", {"type": int, "required": True}),
        ("--p", {"type": int, "default": None}),
        ("--psi-report", {"action": "store_true"}))),
    "probe": (cmd_probe, _with_poly(
        ("--q", {"type": int, "required": True}),
        ("--a", {"type": int, "required": True}),
        ("--theta", {"type": float, "default": 0.0}),
        ("--P", {"type": int, "default": 10}),
        ("--psi-good", {"type": float, "default": 1.0}))),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of the named one only."""
    ap = argparse.ArgumentParser(prog="cubiclab")
    sub = ap.add_subparsers(dest="command", required=True)
    if command is not None:  # the usage line still lists every command
        sub.metavar = "{" + ",".join(COMMANDS) + "}"
    for name, (func, specs) in COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name)
            for flag, kwargs in specs:
                p.add_argument(flag, **kwargs)
            p.set_defaults(func=func)
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a call naming a command builds only that command's parser; --help,
    # no command or an unknown one needs the full table
    ap = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    args = ap.parse_args(argv)
    try:
        phi = _load_poly(args.poly) if "poly" in args else None
        result, code = args.func(phi, args)
        _emit(_ser(result), args)
        return code
    except (ValueError, OSError, BudgetExceeded, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
