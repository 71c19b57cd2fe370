"""Command-line entry point.

Exit codes: 0 success, 2 mathematical negative result (NCC violation,
failed assumption tags, exhausted search), 1 operational error (bad input,
budget exceeded).  Output is JSON, or CSV rows under --csv (census, probe
and exponents --theorem); exact rationals are serialized as strings "p/q".

Each `cmd_*` handler takes the loaded --poly (None for exponents) and the
parsed arguments and returns (result, exit code); `main` alone parses,
loads, serialises and prints, and the JSON it prints is strict (no NaN).
The command line is `CMD --flag VALUE ...` (or `--flag=VALUE`), read by
`parse_args` against the command's specs in `COMMANDS`; a malformed one
exits 1 with one `error:` line.
"""

import gc
import json
import sys
from dataclasses import fields, is_dataclass
from fractions import Fraction
from types import SimpleNamespace

from . import __version__
from .budget import BudgetExceeded
from .counting import count_solutions, smallest_solution
from .exponents import (solve_parameters, psi_requirement, present,
                        theorem_exponent_check, unprintable)
from .invariants import (delta, rank_census, psi_good_report,
                         regularized_ratio)
from .local import ncc_certify, local_report
from .majorarcs import singular_integral, singular_series
from .nt import ceil_fraction
from .polynomials import CubicPolynomial, homogenize
from .expsums import weyl_bound_probe

# What the imports left lives as long as the process: moved out of every
# collection, it puts no op in a cold process behind a gen-1 collection
# that the imports made due.  Done once, here, not in main, so in-process
# callers keep collecting their own objects.
gc.freeze()


def _ser(obj):
    """JSON-friendly form; Fractions become 'p/q' strings."""
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _ser(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _ser(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_ser(v) for v in obj]
    return obj


def _manifest(args) -> dict:
    inputs = {k: v for k, v in vars(args).items()
              if k not in ("command", "func", "csv") and v is not None}
    return {"command": args.command, "inputs": _ser(inputs),
            "versions": {"cubiclab": __version__}}


def _load_poly(path: str) -> CubicPolynomial:
    with open(path) as fh:
        return CubicPolynomial.from_json_dict(json.load(fh))


def _load_box(path: str) -> list:
    """The (lo, hi) pairs of {"bounds": [[lo, hi], ...]}, each a JSON
    number within the finite floats (not a bool, NaN or Infinity); anything
    else is refused."""
    with open(path) as fh:
        d = json.load(fh)
    bounds = d.get("bounds") if isinstance(d, dict) else None
    if not (isinstance(bounds, list) and all(
            isinstance(b, list) and len(b) == 2 and all(
                type(v) in (int, float) and abs(v) <= sys.float_info.max
                for v in b)
            for b in bounds)):
        raise ValueError("box JSON: need field 'bounds', a list of [lo, hi] "
                         "pairs of finite numbers")
    return [tuple(b) for b in bounds]


def _emit(result, args) -> None:
    """The rows as CSV under --csv, else the payload as strict JSON (a NaN
    or an infinity raises ValueError before anything is printed)."""
    if getattr(args, "csv", False):
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
    box = _load_box(args.box) if args.box else [(1.0, 3.0)] * phi.n
    return singular_integral(phi, box, args.Z, budget=args.budget,
                             seed=args.seed), 0


def cmd_count(phi, args) -> tuple:
    box = _load_box(args.box) if args.box else None
    return count_solutions(phi, args.P, box=box, budget=args.budget), 0


def cmd_search(phi, args) -> tuple:
    rep = smallest_solution(phi, args.max_shell, budget=args.budget)
    return rep, 0 if rep.found is not None else 2


def cmd_exponents(phi, args) -> tuple:
    if args.n is not None and args.n < 1:
        raise ValueError("--n must be >= 1")
    if args.theorem:
        if args.psi is not None or args.delta is not None:
            raise ValueError("--theorem reads neither --psi nor --delta")
        rows = [theorem_exponent_check(n) for n in
                ([args.n] if args.n else range(14, 101))]
        ok = all(r["ok"] for r in rows)
        return {"rows": rows, "all_ok": ok}, 0 if ok else 2
    if args.csv:
        raise ValueError("--csv needs --theorem: only its rows are tabular")
    # every exponent and slack is printed whole: a value for which int -> str
    # could not print them is refused, naming its flag, before any is
    # computed
    limit = sys.get_int_max_str_digits()
    bad = limit and unprintable(limit, args.T, args.psi, args.delta)
    if bad:
        raise ValueError(f"--{bad[0]}: more than {bad[1]} digits in its "
                         f"numerator or denominator")
    sys_ = solve_parameters(args.T, psi=args.psi, delta=args.delta,
                            n=args.n or 14)
    p = sys_.params
    result = {"exp_u": present(p["u"]), "exp_P0": present(p["P0"]),
              "exp_P": present(p["P"]), "exp_Q": present(p["Q"]), "exact": p,
              "ceil_exp_P": ceil_fraction(p["P"]),
              "tags": [t.as_dict() for t in sys_.tags]}
    if args.psi is not None:
        req = psi_requirement(args.T, delta=args.delta)
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
                      "ratio": regularized_ratio(c, census.H, phi.n, r)}
                     for r, c in sorted(census.counts.items())]}, 0


def cmd_probe(phi, args) -> tuple:
    out = weyl_bound_probe(phi.cubic_part(), args.q, args.a, args.theta,
                           args.P, args.psi_good, budget=args.budget)
    return {"rows": [{"P": args.P, "q": args.q, "a": args.a,
                      "theta": args.theta, "|S|": out["S_abs"],
                      "bound": out["rhs"], "ratio": out["ratio"]}]}, 0


def _with_poly(*specs) -> tuple:
    """The --poly and --budget specs, then a command's own."""
    return (_POLY, ("--budget", {"type": int, "default": None})) + specs


_POLY = ("--poly", {"required": True})
_CSV = ("--csv", {"action": "store_true"})
# command name -> (handler, (flag, keywords) in help order); the keywords are
# type, choices, required, default and action="store_true" (a flag that
# takes no value), as parse_args reads them
COMMANDS = {
    "analyze": (cmd_analyze, (_POLY,)),
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
        _CSV)),
    "census": (cmd_census, _with_poly(
        _CSV,
        ("--H", {"type": int, "required": True}),
        ("--p", {"type": int, "default": None}),
        ("--psi-report", {"action": "store_true"}))),
    "probe": (cmd_probe, _with_poly(
        _CSV,
        ("--q", {"type": int, "required": True}),
        ("--a", {"type": int, "required": True}),
        ("--theta", {"type": float, "default": 0.0}),
        ("--P", {"type": int, "default": 10}),
        ("--psi-good", {"type": float, "default": 1.0}))),
}


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _metavar(flag: str, kwargs: dict) -> str:
    if "choices" in kwargs:
        return "{" + ",".join(kwargs["choices"]) + "}"
    return _dest(flag).upper()


def usage(command: str) -> str:
    """One command's usage line: its required flags, then the others, each
    in table order."""
    specs = COMMANDS[command][1]
    parts = [f"{flag} {_metavar(flag, kw)}"
             for flag, kw in specs if kw.get("required")]
    parts += [f"[{flag}]" if kw.get("action") == "store_true"
              else f"[{flag} {_metavar(flag, kw)}]"
              for flag, kw in specs if not kw.get("required")]
    return " ".join(["cubiclab", command, *parts])


def _typed(command: str, flag: str, kwargs: dict, value: str):
    if "choices" in kwargs and value not in kwargs["choices"]:
        raise ValueError(f"{command}: {flag}: invalid choice {value!r} "
                         f"(choose from {', '.join(kwargs['choices'])})")
    kind = kwargs.get("type")
    if kind is None:
        return value
    try:
        return kind(value)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{command}: {flag}: invalid {kind.__name__} "
                         f"value {value!r}") from None


def parse_args(argv: list) -> SimpleNamespace | None:
    """`CMD` then `--flag VALUE` or `--flag=VALUE` pairs (a store_true flag
    takes no value), typed and checked by the command's specs in COMMANDS.

    The namespace holds `command`, every spec's value in table order (a
    repeated flag keeps its last value) and `func`; None means --help.  A
    value is the next token unless that begins with `--`, so `--a -1` reads
    -1.  A malformed line raises ValueError."""
    command, *rest = argv
    if command not in COMMANDS:
        raise ValueError(f"unknown command {command!r} (choose from "
                         f"{', '.join(COMMANDS)})")
    func, specs = COMMANDS[command]
    table = dict(specs)
    given = {}
    tokens = iter(rest)
    for token in tokens:
        if token in ("-h", "--help"):
            return None
        flag, eq, value = token.partition("=")
        if flag not in table:
            raise ValueError(f"{command}: unrecognized argument {token!r}")
        kwargs = table[flag]
        if kwargs.get("action") == "store_true":
            if eq:
                raise ValueError(f"{command}: {flag} takes no value")
            given[flag] = True
            continue
        if not eq:
            value = next(tokens, None)
            if value is None or value.startswith("--"):
                raise ValueError(f"{command}: {flag}: expected a value")
        given[flag] = _typed(command, flag, kwargs, value)
    missing = [flag for flag, kw in specs
               if kw.get("required") and flag not in given]
    if missing:
        raise ValueError(f"{command}: required: {', '.join(missing)}")
    args = SimpleNamespace(command=command)
    for flag, kwargs in specs:
        setattr(args, _dest(flag), given.get(flag, kwargs.get(
            "default", False if kwargs.get("action") else None)))
    args.func = func
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0] in ("-h", "--help"):
        print("usage: " + "\n       ".join(map(usage, COMMANDS)))
        return 0 if argv else 1
    args = None
    try:
        args = parse_args(argv)
        if args is None:
            print("usage: " + usage(argv[0]))
            return 0
        phi = _load_poly(args.poly) if hasattr(args, "poly") else None
        result, code = args.func(phi, args)
        _emit(_ser(result), args)
        return code
    except (ValueError, OSError, BudgetExceeded, KeyError) as exc:
        # the parser's own errors name the command where there is one
        where = f"{args.command}: " if args else ""
        print(f"error: {where}{exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
