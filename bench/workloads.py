"""The three workloads: each a fixed list of operations plus one random dense
polynomial drawn from the workload seed.

Each workload leans on some layers and skips others, so a change to one
layer moves one workload and leaves the others alone:

  local       NCC certificates, singular series, densities and the exponent
              check: Delta, the mod-q residue grids (first root and full
              value distribution), A(q) and the nt helpers.  No counting,
              no quadrature.
  lattice     exact counts, the shell search and the Hessian rank census:
              per-point integer evaluation and integer roots.  No residue
              grids, no floats.
  quadrature  Clenshaw-Curtis (n <= 3) and Monte-Carlo (n >= 4) singular
              integrals and slice_volume: the float kernels of majorarcs.
              No exact arithmetic.

Paths are relative to the checkout root, where the benchmark runs.
"""

import json
import os
import random

import oracles

CORPUS = "bench/corpus"
MC_ORACLE_POINTS = 400_000


def poly(name: str) -> str:
    return f"{CORPUS}/{name}.json"


def box(name: str) -> str:
    return f"{CORPUS}/box_{name}.json"


def cli(*argv, ref=None) -> dict:
    """One CLI operation; its id names the command, polynomial and options."""
    argv = list(argv)
    op = {"argv": argv, "ref": ref}
    if "--poly" in argv:
        op["poly"] = argv[argv.index("--poly") + 1]
    shown = argv[:argv.index("--seed")] if "--seed" in argv else argv
    op["id"] = " ".join(os.path.basename(a)[:-5] if a.endswith(".json") else a
                        for a in shown if a not in ("--poly", "--box"))
    return op


def _random(workload: str, seed: int, n: int, outdir: str) -> tuple:
    pj = oracles.random_poly(random.Random(f"{workload}/{seed}"), n)
    path = os.path.join(outdir, f"rand{n}.json")
    with open(path, "w") as fh:
        fh.write(json.dumps(pj))
    return pj, path


def local(seed: int, outdir: str) -> list:
    pj, path = _random("local", seed, 4, outdir)
    form_delta = oracles.delta(oracles.homogenized(pj))
    ref = {"rc": 0, "exact": {
        "p": 3, "v_delta": oracles.valuation(form_delta, 3), "ell": None,
        "k_threshold": 4,
        "rho": {"1": oracles.zero_count(pj, 3), "2": oracles.zero_count(pj, 9)},
        "rho_star": {"1": oracles.nonsingular_zero_count(pj, 3, 3),
                     "2": oracles.nonsingular_zero_count(pj, 9, 3)},
        "witness": oracles.first_root(pj, 3)}}
    return [
        cli("ncc", "--poly", poly("watson5"), "--p0", "20"),
        cli("ncc", "--poly", poly("diag5m2"), "--p0", "7"),
        cli("ncc", "--poly", poly("wall14"), "--p0", "3"),
        cli("series", "--poly", poly("fermat"), "--p0", "60", "--mode", "qsum"),
        cli("series", "--poly", poly("watson5"), "--p0", "10", "--mode", "both"),
        cli("densities", "--poly", poly("watson5"), "--p", "3", "--kmax", "3"),
        cli("exponents", "--theorem", "h14"),
        cli("densities", "--poly", path, "--p", "3", "--kmax", "2", ref=ref),
    ]


def lattice(seed: int, outdir: str) -> list:
    pj, path = _random("lattice", seed, 3, outdir)
    sols = oracles.box_solutions(pj, 10)
    ref = {"rc": 0, "exact": {"P": 10, "count": len(sols), "prediction": None,
                              "solutions_sample": [list(x) for x in sols[:100]]}}
    return [
        cli("count", "--poly", poly("selmer4"), "--P", "12"),
        cli("count", "--poly", poly("fermat"), "--P", "60"),
        cli("count", "--poly", poly("watson5"), "--P", "8"),
        cli("count", "--poly", poly("triple_product"), "--P", "10"),
        cli("search", "--poly", poly("watson5"), "--max-shell", "6"),
        cli("census", "--poly", poly("selmer4"), "--H", "5"),
        cli("count", "--poly", path, "--P", "10", ref=ref),
    ]


def quadrature(seed: int, outdir: str) -> list:
    pj, path = _random("quadrature", seed, 4, outdir)
    unit4 = [(0.5, 1.5)] * 4
    value, se = oracles.monte_carlo(pj, unit4, 4.0, MC_ORACLE_POINTS, [seed, 1])
    ref = {"rc": 0, "exact": {"method": "monte-carlo"},
           "approx": {"value": {"ref": value, "ref_se": se}}}
    mc = ("--Z", "4", "--seed", str(seed))  # --seed last: ids stay seed-free
    return [
        *(cli("integral", "--poly", poly("x3m2y3"), "--Z", z, "--box", box("crit10"))
          for z in ("4", "8", "16", "32", "64")),
        cli("integral", "--poly", poly("fermat"), "--Z", "4",
            "--box", box("fermat_cc3"), "--budget", "20000000"),
        cli("integral", "--poly", poly("selmer4"), "--box", box("unit4"), *mc),
        cli("integral", "--poly", poly("watson5"), "--box", box("unit5"), *mc),
        {"id": "slice_volume fermat grid=64", "api": "slice_volume",
         "poly": poly("fermat"), "box": oracles.load(box("slice_fermat"))["bounds"],
         "kwargs": {"grid": 64}, "ref": None},
        cli("integral", "--poly", path, "--box", box("unit4"), *mc, ref=ref),
    ]


WORKLOADS = {"local": local, "lattice": lattice, "quadrature": quadrature}
