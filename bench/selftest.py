"""Self-test of the benchmark, not of cubiclab.

    python3 bench/selftest.py        # from the checkout root, about a minute

1. A deliberately wrong reference is reported as a failure and lowers
   ok_frac.
2. In a traced operation the span self times equal those found by sweeping
   the raw span intervals (each instant charged to the innermost open
   span), the spans nest as their parent ids say, the self times add up
   to the operation's wall time, and the wrapped functions account for
   all but ROOT_SHARE of it.
3. Quick mode runs one pass of every workload, and no operation fails
   other than as its pinned known defect.
4. In a directory holding only BENCHMARK.json and bench/, run.py exits
   non-zero without printing a result.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import time

import run
import tracing
import workloads

SELF_SUM_TOL = 1e-6   # seconds, for sums of float time stamps
ROOT_SHARE = 0.01     # time outside every wrapped function, share of wall time


def wrong_reference_fails() -> str:
    op = workloads.cli("count", "--poly", workloads.poly("triple_product"), "--P", "10")
    op["ref"] = copy.deepcopy(run.load_references()[op["id"]])
    op["ref"]["exact"]["count"] += 1
    records = run.run_pass([op], {}, run.child_env(), None,
                           time.monotonic() + run.RUN_LIMIT_S)
    ok_frac = run.end_to_end([records])["ok_frac"][0]
    if records[0]["status"] != "fail" or ok_frac != 0.0:
        return f"wrong reference not caught: {records[0]['status']}, ok_frac {ok_frac}"
    return ""


def sweep_self_times(path: str) -> tuple:
    """Self time per name from the raw span intervals alone: each instant is
    charged to the innermost span open at that instant, found by interval
    containment, not by the recorded parent ids.  Also returns the spans
    whose recorded parent is not the span that contains them, and whether
    two spans overlap without nesting."""
    with open(path) as fh:
        spans = [s for s in map(json.loads, fh) if "id" in s]
    events = sorted([(s["start"], 1, s["id"]) for s in spans]
                    + [(s["end"], 0, -s["id"]) for s in spans])
    self_s, stack, misparented, overlap, last = {}, [], [], False, None
    for t, is_start, key in events:
        if stack:
            name = spans[stack[-1]]["name"]
            self_s[name] = self_s.get(name, 0.0) + t - last
        last = t
        if is_start:
            if spans[key]["parent"] != (stack[-1] if stack else None):
                misparented.append(spans[key]["name"])
            stack.append(key)
        elif stack and stack[-1] == -key:
            stack.pop()
        else:
            overlap = True
    return self_s, misparented, overlap


def self_times_add_up(outdir: str) -> str:
    op = workloads.cli("series", "--poly", workloads.poly("watson5"),
                       "--p0", "10", "--mode", "both")
    spans = os.path.join(outdir, "selftest-spans.jsonl")
    rec = run.spawn(run.child_spec(op, spans), run.child_env())
    summary = tracing.summarize(spans)
    swept, misparented, overlap = sweep_self_times(spans)
    if overlap or misparented:
        return f"spans do not nest: overlap {overlap}, misparented {misparented[:5]}"
    off = {k: (summary["self_s"].get(k), swept.get(k))
           for k in set(summary["self_s"]) | set(swept)
           if abs(summary["self_s"].get(k, 0.0) - swept.get(k, 0.0)) > SELF_SUM_TOL}
    if off:
        return f"self times differ from the interval sweep: {off}"
    if abs(sum(swept.values()) - rec["wall_s"]) > SELF_SUM_TOL:
        return f"self times sum to {sum(swept.values())}, wall time is {rec['wall_s']}"
    if swept.get("op", 0.0) > ROOT_SHARE * rec["wall_s"] or len(swept) < 5:
        return f"wrapped functions do not account for the operation: {swept}"
    return ""


def quick_mode_passes() -> str:
    bad = []
    for name in workloads.WORKLOADS:
        result = run.measure(name, 0, 0.0, False, min_passes=1)
        if not result["correct"]:
            bad.append(name)
    return f"unexpected failures on {bad}" if bad else ""


def bare_directory_refused(outdir: str) -> str:
    bare = os.path.join(outdir, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy("BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "local",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=170)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return f"exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"
    return ""


def main() -> int:
    outdir = os.path.join(run.OUT, "selftest")
    os.makedirs(outdir, exist_ok=True)
    checks = [("wrong reference raises the fail fraction", wrong_reference_fails),
              ("span self times add up to the wall time",
               lambda: self_times_add_up(outdir)),
              ("quick mode: one pass of every workload", quick_mode_passes),
              ("refuses to run without the program",
               lambda: bare_directory_refused(outdir))]
    failed = 0
    for name, fn in checks:
        problem = fn()
        failed += bool(problem)
        print(f"{'FAIL' if problem else 'ok  '}  {name}" + (f": {problem}" if problem else ""))
    print(json.dumps({"selftest_failed": failed}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
