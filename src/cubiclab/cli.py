"""Command-line entry point.

Exit codes: 0 success, 2 mathematical negative result (NCC violation,
failed assumption tags, exhausted search), 1 operational error (bad input,
budget exceeded).  Output is JSON by default (--csv for tabular commands);
exact rationals are serialized as strings "p/q".
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


def _manifest(args, seed: int | None = None) -> dict:
    inputs = {k: v for k, v in vars(args).items()
              if k not in ("func", "csv") and v is not None}
    return {"command": args.command, "inputs": _ser(inputs),
            "seed": seed, "versions": {"cubiclab": __version__}}


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


def _emit(payload: dict, args) -> None:
    if getattr(args, "csv", False) and "rows" in payload.get("result", {}):
        rows = payload["result"]["rows"]
        if rows:
            cols = list(rows[0])
            print(",".join(cols))
            for r in rows:
                print(",".join(str(r[c]) for c in cols))
        return
    print(json.dumps(payload, indent=2))


def cmd_analyze(args) -> int:
    phi = _load_poly(args.poly)
    form, scale = homogenize(phi)
    dC = delta(phi.cubic_part())
    dphi = delta(form)
    result = {"n": phi.n, "height": phi.height, "is_form": phi.is_form,
              "delta_C": dC.value, "delta_phi": dphi.value,
              "delta_phi_factorization": dphi.prime_factorization,
              "homogenization_scale": scale}
    _emit({"manifest": _manifest(args), "result": _ser(result)}, args)
    return 0


def cmd_ncc(args) -> int:
    phi = _load_poly(args.poly)
    cert = ncc_certify(phi, args.p0, budget=args.budget)
    _emit({"manifest": _manifest(args), "result": _ser(cert)}, args)
    return {"certified": 0, "violation": 2, "degenerate": 1}[cert.status]


def cmd_densities(args) -> int:
    phi = _load_poly(args.poly)
    rep = local_report(phi, args.p, args.kmax, budget=args.budget)
    _emit({"manifest": _manifest(args), "result": _ser(rep)}, args)
    return 0


def cmd_series(args) -> int:
    phi = _load_poly(args.poly)
    tr = singular_series(phi, args.p0, mode=args.mode, budget=args.budget)
    _emit({"manifest": _manifest(args), "result": _ser(tr)}, args)
    return 0


def cmd_integral(args) -> int:
    phi = _load_poly(args.poly)
    bounds = _load_box(args.box, phi.n)
    out = singular_integral(phi, bounds, args.Z, budget=args.budget,
                            seed=args.seed)
    _emit({"manifest": _manifest(args, seed=args.seed),
           "result": _ser(out)}, args)
    return 0


def cmd_count(args) -> int:
    phi = _load_poly(args.poly)
    box = _load_box(args.box, phi.n) if args.box else None
    res = count_solutions(phi, args.P, box=box, budget=args.budget)
    _emit({"manifest": _manifest(args), "result": _ser(res)}, args)
    return 0


def cmd_search(args) -> int:
    phi = _load_poly(args.poly)
    rep = smallest_solution(phi, args.max_shell, budget=args.budget)
    _emit({"manifest": _manifest(args), "result": _ser(rep)}, args)
    return 0 if rep.found is not None else 2


def cmd_exponents(args) -> int:
    if args.theorem:
        rows = [theorem_exponent_check(n) for n in
                ([args.n] if args.n else range(14, 101))]
        ok = all(r["ok"] for r in rows)
        _emit({"manifest": _manifest(args),
               "result": {"rows": _ser(rows), "all_ok": ok}}, args)
        return 0 if ok else 2
    psi = Fraction(str(args.psi)) if args.psi is not None else None
    dlt = Fraction(str(args.delta)) if args.delta is not None else None
    sys_ = solve_parameters(args.T, psi=psi, delta=dlt, n=args.n or 14)
    p = sys_.params
    result = {
        "exp_u": present(p["u"]), "exp_P0": present(p["P0"]),
        "exp_P": present(p["P"]), "exp_Q": present(p["Q"]),
        "exact": {k: v for k, v in p.items()},
        "ceil_exp_P": -((-p["P"].numerator) // p["P"].denominator),
        "tags": [t.as_dict() for t in sys_.tags],
    }
    if psi is not None:
        req = psi_requirement(args.T, delta=dlt)
        result["psi_min"] = present(req["psi_min"])
        result["psi_binding"] = req["binding"]
    _emit({"manifest": _manifest(args), "result": _ser(result)}, args)
    return 0 if sys_.all_pass else 2


def cmd_census(args) -> int:
    phi = _load_poly(args.poly)
    C = phi.cubic_part()
    if args.psi_report:
        if args.p is not None:
            raise ValueError("--p cannot be combined with --psi-report, "
                             "which reports over Q")
        rep = psi_good_report(C, args.H, budget=args.budget)
        _emit({"manifest": _manifest(args), "result": _ser(rep)}, args)
        return 0 if rep["verdict"] == "consistent" else 2
    census = rank_census(C, args.H, p=args.p, budget=args.budget)
    rows = [{"H": census.H, "r": r, "count": c,
             "ratio": c / census.H ** max(r, phi.n - 14 + r)}
            for r, c in sorted(census.counts.items())]
    _emit({"manifest": _manifest(args), "result": {"rows": _ser(rows)}}, args)
    return 0


def cmd_probe(args) -> int:
    phi = _load_poly(args.poly)
    out = weyl_bound_probe(phi.cubic_part(), args.q, args.a, args.theta,
                           args.P, args.psi_good, budget=args.budget)
    row = {"P": args.P, "q": args.q, "a": args.a, "theta": args.theta,
           "|S|": out["S_abs"], "bound": out["rhs"], "ratio": out["ratio"]}
    _emit({"manifest": _manifest(args), "result": {"rows": [_ser(row)]}}, args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cubiclab")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, poly=True):
        if poly:
            p.add_argument("--poly", required=True)
        p.add_argument("--budget", type=int, default=None)
        p.add_argument("--csv", action="store_true")

    p = sub.add_parser("analyze")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("ncc")
    common(p)
    p.add_argument("--p0", type=int, required=True)
    p.set_defaults(func=cmd_ncc)

    p = sub.add_parser("densities")
    common(p)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--kmax", type=int, default=2)
    p.set_defaults(func=cmd_densities)

    p = sub.add_parser("series")
    common(p)
    p.add_argument("--p0", type=int, required=True)
    p.add_argument("--mode", choices=["euler", "qsum", "both"],
                   default="both")
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("integral")
    common(p)
    p.add_argument("--Z", type=float, required=True)
    p.add_argument("--box", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_integral)

    p = sub.add_parser("count")
    common(p)
    p.add_argument("--P", type=int, required=True)
    p.add_argument("--box", default=None)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("search")
    common(p)
    p.add_argument("--max-shell", type=int, default=50)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("exponents")
    p.add_argument("--T", type=Fraction, default=Fraction(84))
    p.add_argument("--psi", default=None)
    p.add_argument("--delta", default=None)
    p.add_argument("--theorem", choices=["h14"], default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_exponents)

    p = sub.add_parser("census")
    common(p)
    p.add_argument("--H", type=int, required=True)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--psi-report", action="store_true")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("probe")
    common(p)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--P", type=int, default=10)
    p.add_argument("--psi-good", type=float, default=1.0)
    p.set_defaults(func=cmd_probe)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, BudgetExceeded, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
