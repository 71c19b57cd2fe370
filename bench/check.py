"""Output checker: one operation's exit code and JSON payload against its
reference.

A reference holds
  rc         the expected exit code (2 where 2 is the mathematical answer),
  exact      result fields that must match: counts, "p/q" rationals,
             statuses, witnesses, tables.  Floats inside them are values of
             closed formulas and match to FORMULA_REL.  Records (dicts with
             named fields) may carry fields the reference does not pin,
  approx     float fields with their method's tolerance: {"ref", "cc_tol"}
             for Clenshaw-Curtis, {"ref", "ref_se"} for Monte-Carlo,
             {"ref", "rel"} otherwise,
  known_defect (optional) the wrong answer the program gives today.

Where the reference expects a "certified" NCC status, every witness is
also re-verified in integers (`ncc_witnesses`).

An operation that misses the reference but gives exactly its known defect
is a known failure: it counts against ok_frac, but it is not a regression.
"""

import json

import oracles

FORMULA_REL = 1e-12
CC_FACTOR = 10   # two converged Clenshaw-Curtis runs agree within 10 tol
MC_SIGMAS = 6    # two Monte-Carlo estimates agree within 6 joint sigma


def _diff(got, want, path, out):
    if isinstance(want, float) or isinstance(got, float):
        ok = (isinstance(got, (int, float)) and isinstance(want, (int, float))
              and abs(got - want) <= FORMULA_REL * max(abs(want), 1e-300))
        if not ok:
            out.append(f"{path}: got {got!r}, want {want!r}")
    elif isinstance(want, dict) and isinstance(got, dict):
        # A table keyed by numbers (rho by k, factors by p) must match key
        # for key; a record may gain fields the reference does not pin.
        table = all(k.isdigit() for k in list(want) + list(got))
        for key in sorted(set(want) | set(got) if table else set(want)):
            _diff(got.get(key), want.get(key), f"{path}.{key}", out)
    elif isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        for i, (g, w) in enumerate(zip(got, want)):
            _diff(g, w, f"{path}[{i}]", out)
    elif got != want:
        out.append(f"{path}: got {_short(got)}, want {_short(want)}")


def _short(v) -> str:
    s = json.dumps(v)
    return s if len(s) <= 80 else s[:77] + "..."


def _tolerance(spec: dict, result: dict) -> float:
    if "cc_tol" in spec:
        return CC_FACTOR * spec["cc_tol"] * max(1.0, abs(spec["ref"]))
    if "ref_se" in spec:
        se = result.get("error")
        se = se if isinstance(se, (int, float)) else 0.0
        return MC_SIGMAS * (se * se + spec["ref_se"] ** 2) ** 0.5
    return spec["rel"] * abs(spec["ref"])


def ncc_witnesses(result: dict, op: dict) -> list:
    """Every prime p <= P0 is listed once, and each witness w satisfies
    phi(w) = 0 mod p^k in integers."""
    terms = oracles.monomials(oracles.load(op["poly"]))
    certs = result.get("primes") or []
    out = []
    want = [p for p in range(2, result.get("P0", 0) + 1)
            if all(p % d for d in range(2, p))]
    if [c.get("p") for c in certs] != want:
        out.append(f"primes listed {[c.get('p') for c in certs]}, want {want}")
    for c in certs:
        w, q = c.get("witness"), c.get("p", 0) ** c.get("k", 0)
        if not isinstance(w, list) or q < 2 or oracles.evaluate(terms, w) % q:
            out.append(f"witness {w} is not a root mod {c.get('p')}^{c.get('k')}")
    return out


def problems(expect: dict, op: dict, rc, stdout: str, error) -> list:
    """Every way the output misses `expect`; empty when it matches."""
    if error:
        return ["raised " + error.strip().splitlines()[-1]]
    out = []
    if rc != expect["rc"]:
        out.append(f"exit code {rc}, want {expect['rc']}")
    try:
        result = json.loads(stdout)["result"]
    except (ValueError, KeyError, TypeError):
        return out + ["stdout is not a JSON payload with a result"]
    for key, want in expect.get("exact", {}).items():
        _diff(result.get(key), want, key, out)
    for key, spec in expect.get("approx", {}).items():
        got = result.get(key)
        tol = _tolerance(spec, result)
        if not isinstance(got, (int, float)) or not abs(got - spec["ref"]) <= tol:
            out.append(f"{key}: got {got!r}, want {spec['ref']!r} +- {tol:.3g}")
    if expect.get("exact", {}).get("status") == "certified":
        out += ncc_witnesses(result, op)
    return out


def outcome(ref: dict, op: dict, rc, stdout: str, error) -> tuple:
    """("pass" | "known_defect" | "fail", problems against the reference)."""
    found = problems(ref, op, rc, stdout, error)
    if not found:
        return "pass", []
    defect = ref.get("known_defect")
    if defect and not problems(defect, op, rc, stdout, error):
        return "known_defect", found
    return "fail", found
