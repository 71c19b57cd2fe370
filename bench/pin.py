"""Pin bench/reference.json: run every fixed operation once, keep the exact
fields of its output, and cross-check them against the brute-force oracles.

    python3 bench/pin.py          # from the checkout root; about a minute

Each reference says where it comes from ("provenance").  Where the program
is known to be wrong, the reference is the independent truth and the wrong
answer of today is kept as "known_defect".  The script refuses to write
when a cross-check disagrees with a pinned value.
"""

import functools
import json
import os
import sys
from fractions import Fraction
from math import comb

import oracles
import run
import workloads

CC_TOL = 1e-8            # singular_integral's default stopping tolerance
SLICE_REL = 1e-9         # brentq's xtol is 2e-12 on O(1) roots
MC_REF_POINTS = 20_000_000

# Fields of each command's result that a reference pins.
EXACT_FIELDS = {
    "ncc": ("status", "P0", "primes", "violation", "delta_phi"),
    "series": ("P0", "factors", "k_used", "value", "frak_value", "partial", "tail_bound"),
    "densities": ("p", "v_delta", "ell", "k_threshold", "rho", "rho_star", "witness"),
    "exponents": ("rows", "all_ok"),
    "count": ("P", "count", "prediction", "solutions_sample"),
    "search": ("found", "shell", "exhausted_to"),
    "census": ("rows",),
}


def agree(ok: bool, what) -> None:
    if not ok:
        raise SystemExit(f"cross-check failed, nothing written: {what}")


@functools.lru_cache(maxsize=None)
def form_delta(path: str) -> int:
    """Delta of the homogenized polynomial from every minor (seconds each)."""
    return oracles.delta(oracles.homogenized(oracles.load(path)))


def cross_check(op: dict, res: dict) -> str:
    """Recompute what is feasible by brute force; returns the provenance."""
    argv = op.get("argv", [])
    pj = oracles.load(op["poly"]) if "poly" in op else None
    opt = {argv[i]: argv[i + 1] for i in range(1, len(argv) - 1)
           if argv[i].startswith("--")}
    cmd = argv[0] if argv else op["api"]
    if cmd == "ncc" and res["status"] == "certified":
        for c in res["primes"]:
            q = c["p"] ** c["k"]
            agree(oracles.first_root(pj, q) == c["witness"], c)
        agree(res["delta_phi"]["value"] == form_delta(op["poly"]), "delta")
        return ("value at the pinning commit; every witness is the "
                "lexicographically first root mod p^k by numpy brute force, "
                "and Delta equals the gcd of every minor")
    if cmd == "series":
        n = pj["n"]
        for p, k in res["k_used"].items():
            p = int(p)
            agree(Fraction(res["factors"][str(p)]) == Fraction(
                oracles.zero_count(pj, p ** k), p ** (k * (n - 1))), f"factor at {p}")
        if res["frak_value"] is not None:
            total = sum(oracles.a_of_q(pj, q) for q in range(1, int(opt["--p0"]) + 1))
            agree(Fraction(res["frak_value"]) == total, "q-sum")
        return ("value at the pinning commit; Euler factors from brute-force "
                "zero counts mod p^k, the q-sum from brute-force residue "
                "counts and Ramanujan sums")
    if cmd == "densities":
        for k, v in res["rho"].items():
            agree(oracles.zero_count(pj, 3 ** int(k)) == v, k)
        for k, v in res["rho_star"].items():
            k = int(k)
            agree(oracles.nonsingular_zero_count(pj, 3 ** k, 3 ** ((k + 1) // 2)) == v,
                  f"rho* at k = {k}")
        agree(oracles.first_root(pj, 3) == res["witness"], "witness")
        agree(res["v_delta"] == oracles.valuation(form_delta(op["poly"]), 3), "v_delta")
        return ("value at the pinning commit; rho(3^k) for k <= 3, rho*, the "
                "witness and v_3(Delta) by brute force")
    if cmd == "count":
        sols = oracles.box_solutions(pj, int(opt["--P"]))
        agree(len(sols) == res["count"], "count")
        agree([list(x) for x in sols[:100]] == res["solutions_sample"], "sample")
        return "value at the pinning commit; equal to a full box enumeration"
    if cmd == "search":
        agree(not oracles.box_solutions(pj, int(opt["--max-shell"])), "empty box")
        return ("value at the pinning commit; a full enumeration of the box "
                "finds no zero")
    if cmd == "census":
        # selmer4 is diagonal: rank M(x) = number of nonzero coordinates.
        H, n = int(opt["--H"]), pj["n"]
        want = {r: comb(n, r) * (2 * (H - 1)) ** r for r in range(n + 1)}
        agree({row["r"]: row["count"] for row in res["rows"]} == want, "rank counts")
        return ("value at the pinning commit; for a diagonal form the rank "
                "counts are C(n, r) (2H-2)^r")
    if cmd == "exponents":
        return "value at the pinning commit; exact rationals, no brute-force oracle"
    if cmd == "slice_volume":
        (ylo, yhi), (zlo, zhi) = op["box"][1], op["box"][2]
        (xlo, xhi), grid = op["box"][0], op["kwargs"]["grid"]
        y, wy = oracles.clenshaw_curtis(grid, ylo, yhi)
        z, wz = oracles.clenshaw_curtis(grid, zlo, zhi)
        x = oracles.np.cbrt(z[None, :] ** 3 - y[:, None] ** 3)
        inside = (x >= xlo) & (x <= xhi)
        total = float(((wy[:, None] * wz[None, :])[inside] / (3 * x[inside] ** 2)).sum())
        agree(abs(total - res["value"]) <= SLICE_REL * abs(total), total)
        return ("value at the pinning commit; equal to the closed-form slice "
                "root x = cbrt(z^3 - y^3) on the same Clenshaw-Curtis nodes")
    raise ValueError(cmd)


def integral_reference(op: dict, res: dict) -> dict:
    argv = op["argv"]
    pj = oracles.load(op["poly"])
    bounds = oracles.load(argv[argv.index("--box") + 1])["bounds"]
    Z = float(argv[argv.index("--Z") + 1])
    if res["method"] == "monte-carlo":
        value, se = oracles.monte_carlo(pj, bounds, Z, MC_REF_POINTS, 20231003)
        agree(abs(res["value"] - value) <= 6 * (res["error"] ** 2 + se ** 2) ** 0.5,
              (value, se, res))
        return {"rc": 0, "exact": {"method": "monte-carlo"},
                "approx": {"value": {"ref": value, "ref_se": se}},
                "provenance": f"independent Monte-Carlo estimate from "
                              f"{MC_REF_POINTS} points; the program's value "
                              f"agrees within its standard error"}
    # fermat on [1,2]^2 x [5,6] oscillates along the last axis only
    nodes = [2000, 2000] if len(bounds) == 2 else [64, 64, 4000]
    gl = oracles.gauss_legendre(pj, bounds, Z, nodes)
    agree(abs(gl - res["value"]) <= 10 * CC_TOL * max(1.0, abs(gl)), (gl, res))
    return {"rc": 0, "exact": {"method": "clenshaw-curtis"},
            "approx": {"value": {"ref": res["value"], "cc_tol": CC_TOL}},
            "provenance": f"value at the pinning commit; a {nodes} Gauss-Legendre "
                          f"rule gives {gl!r}"}


def truth_overrides(refs: dict) -> None:
    """Operations where the pinning commit is wrong: pin the truth and keep
    today's answer as the known defect."""
    diag = refs["ncc diag5m2 --p0 7"]
    diag["known_defect"] = {"rc": diag["rc"], "exact": {"status": diag["exact"]["status"]}}
    terms = oracles.monomials(oracles.load(workloads.poly("diag5m2")))
    agree(oracles.evaluate(terms, [1, 1, 0, 0, 0]) == 0, "diag5m2 zero")
    refs["ncc diag5m2 --p0 7"] = {
        "rc": 0, "exact": {"status": "certified", "P0": 7, "violation": None},
        "known_defect": diag["known_defect"],
        "provenance": "independent truth: (1,1,0,0,0) is an integer zero, so "
                      "every congruence is soluble; the program reports "
                      "'degenerate' because its sampled Delta is 0"}
    wall = refs["ncc wall14 --p0 3"]
    pj = oracles.load(workloads.poly("wall14"))
    agree(all(c % 2 == 0 for c, idx in oracles.monomials(pj) if idx)
          and pj["const"] % 2, "wall14 parity")
    refs["ncc wall14 --p0 3"] = {
        "rc": 2, "exact": {"status": "violation", "P0": 3, "violation": [2, 1]},
        "known_defect": {"rc": wall["rc"], "exact": {"status": wall["exact"]["status"]}},
        "provenance": "independent truth: every coefficient but the constant 1 "
                      "is even, so phi is odd everywhere and insoluble mod 2; "
                      "the program reports 'degenerate' because its sampled "
                      "Delta is 0"}


def main() -> int:
    refs = {}
    env = run.child_env()
    outdir = os.path.join(run.OUT, "pin")
    os.makedirs(outdir, exist_ok=True)
    for name, build in workloads.WORKLOADS.items():
        for op in build(0, outdir):
            if op["ref"] is not None:
                continue
            rec = run.spawn(run.child_spec(op), env)
            if rec.get("error"):
                print(f"{op['id']}: {rec['error']}", file=sys.stderr)
                return 1
            res = json.loads(rec["stdout"])["result"]
            cmd = op["argv"][0] if "argv" in op else op["api"]
            if cmd == "integral":
                refs[op["id"]] = integral_reference(op, res)
            elif cmd == "slice_volume":
                refs[op["id"]] = {"rc": 0, "exact": {"empty": res["empty"]},
                                  "approx": {"value": {"ref": res["value"],
                                                       "rel": SLICE_REL}},
                                  "provenance": cross_check(op, res)}
            else:
                ref = {"rc": rec["rc"],
                       "exact": {k: res[k] for k in EXACT_FIELDS[cmd]}}
                if cmd == "ncc":
                    # how Delta was computed is not part of the answer
                    ref["exact"]["delta_phi"].pop("sampled", None)
                ref["provenance"] = cross_check(op, res) if res.get("status") != \
                    "degenerate" else "replaced below"
                refs[op["id"]] = ref
            print(f"pinned {name}: {op['id']}", flush=True)
    truth_overrides(refs)
    rev = run.environment(0)["git_revision"][:12]
    for ref in refs.values():
        ref["provenance"] = ref["provenance"].replace("the pinning commit",
                                                      f"commit {rev}")
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "reference.json"), "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
