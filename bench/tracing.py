"""Per-layer tracing of one benchmark child, from outside the package.

`Tracer.install` wraps the public functions of the ten cubiclab modules.
Every `cubiclab.*` module attribute that holds the same function object is
replaced by the wrapper, so names bound by `from .local import rho` and
local imports resolved at call time both go through it.  Each call becomes
a span (name, start, end, parent id, op id), except for the hot per-element
functions in COUNTED, which only count their calls; their time is charged
to the calling span.  Spans stay in memory and `write` stores them as JSONL
when the child exits.  `summarize` turns such a file back into self times,
call counts and the work counters of MEASURES.
"""

import functools
import inspect
import json
import sys
import time
from math import ceil, floor, prod

MODULES = ("cli", "polynomials", "invariants", "local", "expsums",
           "majorarcs", "counting", "exponents", "nt", "budget")

COUNTED = frozenset({"counting.integer_roots_cubic", "polynomials.evaluate",
                     "polynomials.gradient", "nt.divisors", "nt.mobius",
                     "nt.ramanujan_sum"})


def _grid_points(a, res):
    return {"points": a["q"] ** a["phi"].n}


def _prefixes(a, res):
    """Box prefixes (x_2..x_n) that count_solutions walks."""
    P, box = a["P"], a.get("box")
    if box is None:
        return {"prefixes": (2 * P + 1) ** (a["phi"].n - 1)}
    bounds = box.bounds if hasattr(box, "bounds") else list(box)
    return {"prefixes": prod(
        max(floor(P * hi + 1e-12) - ceil(P * lo - 1e-12) + 1, 0)
        for lo, hi in bounds[1:])}


# Work counters, summed per function: f(bound arguments, result) -> dict.
MEASURES = {
    "local.residue_values": _grid_points,
    "expsums.a_of_q_exact": _grid_points,
    "invariants.delta": lambda a, r: {"exact": int(not getattr(r, "sampled", False))},
    "invariants.rank_census": lambda a, r: {"points": (2 * a["H"] - 1) ** a["C"].n},
    "majorarcs.singular_integral": lambda a, r: {"nodes": r["nodes"]},
    "majorarcs.evaluate_array": lambda a, r: {"elements": int(getattr(r, "size", 1))},
    "counting.count_solutions": _prefixes,
    "budget.check_budget": lambda a, r: {"points": a["points"]},
}


class Tracer:
    def __init__(self, op: str):
        self.op = op
        self.spans = []      # [id, parent id, name, start, end]
        self.stack = []
        self.calls = {}      # counted name -> [calls, hits]
        self.work = {}       # name -> {counter: total}
        self.exceeded = []   # distinct BudgetExceeded objects seen
        self.measure_errors = 0

    # -- child side ---------------------------------------------------------

    def begin_root(self, t0: float) -> None:
        self.spans.append([0, None, "op", t0, None])
        self.stack.append(0)

    def end_root(self, t1: float) -> None:
        self.stack.pop()
        self.spans[0][4] = t1

    def _counted(self, name, fn):
        cell = self.calls.setdefault(name, [0, 0])
        if name == "counting.integer_roots_cubic":
            @functools.wraps(fn)
            def wrapper(*a, **k):
                res = fn(*a, **k)
                cell[0] += 1
                if res[0] == "all" or res[1]:
                    cell[1] += 1
                return res
            return wrapper

        @functools.wraps(fn)
        def wrapper(*a, **k):
            cell[0] += 1
            return fn(*a, **k)
        return wrapper

    def _spanned(self, name, fn, budget_exceeded):
        spans, stack = self.spans, self.stack
        measure = MEASURES.get(name)
        sig = inspect.signature(fn) if measure else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*a, **k):
            rec = [len(spans), stack[-1] if stack else None, name, 0.0, 0.0]
            spans.append(rec)
            stack.append(rec[0])
            rec[3] = clock()
            try:
                res = fn(*a, **k)
            except budget_exceeded as exc:
                if not any(exc is e for e in self.exceeded):
                    self.exceeded.append(exc)
                raise
            finally:
                rec[4] = clock()
                stack.pop()
            if measure:
                self._measure(name, measure, sig, a, k, res)
            return res
        return wrapper

    def _measure(self, name, measure, sig, a, k, res):
        try:
            bound = sig.bind(*a, **k).arguments
            got = measure(bound, res)
        except (TypeError, KeyError, AttributeError):
            self.measure_errors += 1  # the API moved; reported, not fatal
            return
        tot = self.work.setdefault(name, {})
        for key, v in got.items():
            tot[key] = tot.get(key, 0) + v

    def install(self) -> None:
        import cubiclab  # noqa: F401  (imports every module)
        from cubiclab.budget import BudgetExceeded
        originals = {}
        for short in MODULES:
            mod = sys.modules[f"cubiclab.{short}"]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or isinstance(obj, type)
                        or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                wrap = (self._counted(name, obj) if name in COUNTED
                        else self._spanned(name, obj, BudgetExceeded))
                originals[id(obj)] = (obj, wrap)
        for mname, mod in list(sys.modules.items()):
            if mname != "cubiclab" and not mname.startswith("cubiclab."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = originals.get(id(val))
                if hit and hit[0] is val:
                    setattr(mod, attr, hit[1])
        cls = sys.modules["cubiclab.polynomials"].CubicPolynomial
        for meth in ("evaluate", "gradient"):
            setattr(cls, meth,
                    self._counted(f"polynomials.{meth}", getattr(cls, meth)))

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"op": self.op, "id": sid, "parent": parent,
                                     "name": name, "start": t0, "end": t1}))
                fh.write("\n")
            fh.write(json.dumps({
                "op": self.op,
                "counted": {n: {"calls": c, "hits": h}
                            for n, (c, h) in self.calls.items()},
                "work": self.work, "budget_exceeded": len(self.exceeded),
                "measure_errors": self.measure_errors}))
            fh.write("\n")


# -- parent side --------------------------------------------------------------


def summarize(path: str) -> dict:
    """Self time and calls per span name, plus the counters, for one op.

    A span's self time is its duration minus the durations of its direct
    children, so the self times of all spans add up to the root span.
    """
    spans, tail = [], None
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if "id" in rec:
                spans.append(rec)
            else:
                tail = rec
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    self_s, calls, parents = {}, {}, {}
    for s in spans:
        dur = s["end"] - s["start"]
        self_s[s["name"]] = self_s.get(s["name"], 0.0) + dur - child_time[s["id"]]
        calls[s["name"]] = calls.get(s["name"], 0) + 1
        if s["parent"] is not None:
            key = (spans[s["parent"]]["name"], s["name"])
            parents[key] = parents.get(key, 0) + 1
    for name, c in tail["counted"].items():
        calls[name] = calls.get(name, 0) + c["calls"]
    return {"self_s": self_s, "calls": calls, "parents": parents,
            "hits": {n: c["hits"] for n, c in tail["counted"].items()},
            "work": tail["work"], "budget_exceeded": tail["budget_exceeded"],
            "measure_errors": tail["measure_errors"],
            "root_s": spans[0]["end"] - spans[0]["start"]}
