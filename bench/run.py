"""cubiclab benchmark: cold-process CLI workloads, checked outputs, and a
traced run for per-layer numbers.

    python3 bench/run.py --workload local --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --quick [--seed 1]      # one pass of every workload

Run from the root of a checkout.  Operations run one at a time (closed
loop, one client), each in a fresh interpreter with PYTHONPATH=src and
single-threaded BLAS (bench/child.py).  Passes over the workload repeat
while the next one is expected to end within --seconds; there are at
least two, so stdout bytes can be compared across passes.

--trace 0 reports the end-to-end metrics:
  setup_s      median over all children of spawn-to-`cubiclab.cli`-ready
  pass_s       one pass: the sum over operations of each one's median
               in-process time across passes (whole-pass quartiles reported)
  peak_rss_mb  largest peak RSS of any child
  ok_frac      operations that matched their reference / operations run
               (the complement of the fail fraction, never 0)
  repro_frac   operations whose stdout bytes were identical in every pass /
               operations (the complement of the non-reproducible share)
setup_s and pass_s are scaled to a host of reference speed: just before
spawning each child, this process times a fixed probe that runs no cubiclab
code (`probe`), and the run's times are multiplied by PROBE_REF_S / (median
probe time).  The probe runs apart from the program under test, so nothing
the program does at import time reaches the normalizer.  On a shared host
the speed drifts by tens of percent within minutes, and set-up and probe
times move together, so the scaled figures compare commits where raw ones
cannot.  The unscaled figures are printed and kept in the details.
--trace 1 runs the first pass untraced and the rest traced (bench/tracing.py)
and reports the per-layer metrics, including the tracing overhead.

Human-readable lines come first; the last stdout line is the JSON result.
Details go to bench/out/<workload>-<seed>-trace<t>.json.
"""

import argparse
import importlib.metadata
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import check
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join("bench", "out")
PROBE_REF_S = 0.045  # probe time at reference host speed (see probe)
RUN_LIMIT_S = 170   # a run reports within 180 s even if the program hangs
THREAD_CAPS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH="src")
    for var in THREAD_CAPS:
        env[var] = "1"
    env.pop("CUBIC_LAB_BUDGET", None)
    return env


def probe() -> float:
    """Time a fixed mix of interpreter and numpy work that uses no cubiclab
    code: the host's speed at this moment, for normalizing the run."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    a = np.arange(1, 20_001, dtype=np.float64)
    for _ in range(300):
        a = np.sqrt(a * 1.0001 + 1.0)
    return time.perf_counter() - t0


def spawn(spec: dict, env: dict, timeout: float = RUN_LIMIT_S) -> dict:
    """Probe the host, then run one operation in a fresh interpreter; waits
    for it to end."""
    if timeout <= 0:
        return {"error": "not started: the run's time limit was reached"}
    probe_s = probe()
    env["BENCH_SPAWN_T"] = repr(time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
            env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"killed after {timeout:.0f} s", "probe_s": probe_s}
    try:
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        rec = {"error": f"child exited {proc.returncode}: {proc.stderr[-500:]}"}
    rec["probe_s"] = probe_s
    return rec


def load_references() -> dict:
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


def child_spec(op: dict, spans: str | None = None) -> dict:
    spec = {k: op[k] for k in ("argv", "api", "poly", "box", "kwargs") if k in op}
    spec.update(op=op["id"], spans=spans)
    return spec


def run_pass(ops: list, refs: dict, env: dict, spans_dir: str | None,
             deadline: float) -> list:
    records = []
    for i, op in enumerate(ops):
        spec = child_spec(op, os.path.join(spans_dir, f"op{i}.jsonl") if spans_dir else None)
        rec = spawn(spec, env, deadline - time.monotonic())
        ref = op["ref"] or refs[op["id"]]
        status, found = check.outcome(ref, op, rec.get("rc"), rec.get("stdout", ""),
                                      rec.get("error"))
        rec.update(id=op["id"], status=status, problems=found)
        if spans_dir:
            rec["trace"] = tracing.summarize(spec["spans"]) if not rec.get("error") \
                and os.path.exists(spec["spans"]) else None
        records.append(rec)
    return records


def pass_seconds(records: list) -> float:
    return sum(r.get("wall_s", 0.0) for r in records)


def typical_pass(passes: list) -> float:
    """Sum over operations of each one's median time across the passes, so a
    single slow operation in one pass does not move the figure."""
    return sum(statistics.median(p[i].get("wall_s", 0.0) for p in passes)
               for i in range(len(passes[0])))


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


# -- end-to-end metrics ------------------------------------------------------


def nonrepro_ops(passes: list) -> int:
    """Operations whose raw stdout bytes were not the same in every pass."""
    return sum(1 for i in range(len(passes[0]))
               if len({p[i].get("stdout") for p in passes}) > 1
               or passes[0][i].get("stdout") is None)


def host_factor(flat: list) -> float:
    """PROBE_REF_S over the run's median probe time: scales this run's times
    to a host running at reference speed."""
    probes = [r["probe_s"] for r in flat if "probe_s" in r]
    return PROBE_REF_S / statistics.median(probes) if probes else 1.0


def scaled_pass(passes: list) -> float:
    return host_factor([r for p in passes for r in p]) * typical_pass(passes)


def end_to_end(passes: list) -> dict:
    flat = [r for p in passes for r in p]
    setups = [r["setup_s"] for r in flat if "setup_s" in r]
    f = host_factor(flat)
    out = {
        "setup_s": (f * statistics.median(setups) if setups else float("nan"), "s",
                    [f * s for s in setups]),
        "pass_s": (scaled_pass(passes), "s", [f * pass_seconds(p) for p in passes]),
        "peak_rss_mb": (max((r.get("peak_rss_kb", 0) for r in flat), default=0) / 1024,
                        "MB", None),
        "ok_frac": (sum(r["status"] == "pass" for r in flat) / len(flat), "fraction", None),
    }
    if len(passes) > 1:  # byte identity needs a second pass to compare with
        out["repro_frac"] = (1 - nonrepro_ops(passes) / len(passes[0]), "fraction", None)
    return out


# -- per-layer metrics --------------------------------------------------------

SPAN_METRICS = [
    "invariants.delta.calls", "invariants.delta.self_s",
    "nt.trial_factor.calls", "nt.trial_factor.self_s", "nt.mobius.calls",
    "nt.ramanujan_sum.calls",
    "local.ncc_certify.self_s", "local.rho.calls", "local.rho.self_s",
    "local.rho_star.self_s", "local.local_report.self_s",
    "local.residue_values.calls", "local.residue_values.points",
    "local.residue_values.self_s",
    "expsums.a_of_q_exact.calls", "expsums.a_of_q_exact.points",
    "expsums.a_of_q_exact.self_s",
    "majorarcs.singular_series.self_s",
    "majorarcs.singular_integral.calls", "majorarcs.singular_integral.self_s",
    "majorarcs.singular_integral.nodes", "majorarcs.evaluate_array.calls",
    "majorarcs.evaluate_array.elements", "majorarcs.slice_volume.self_s",
    "counting.count_solutions.calls", "counting.count_solutions.self_s",
    "counting.count_solutions.prefixes", "counting.integer_roots_cubic.calls",
    "counting.smallest_solution.self_s",
    "invariants.rank_census.self_s", "invariants.rank_census.points",
    "polynomials.evaluate.calls", "polynomials.gradient.calls",
    "polynomials.homogenize.self_s",
    "exponents.theorem_exponent_check.self_s",
    "budget.check_budget.calls", "budget.check_budget.points",
    "cli.main.self_s",
]


def merge(summaries: list) -> dict:
    """Sum the per-op trace summaries of one pass."""
    tot = {"self_s": {}, "calls": {}, "hits": {}, "work": {}, "parents": {},
           "budget_exceeded": 0, "root_s": 0.0}
    for s in summaries:
        for key in ("self_s", "calls", "hits", "parents"):
            for name, v in s[key].items():
                tot[key][name] = tot[key].get(name, 0) + v
        for name, counters in s["work"].items():
            slot = tot["work"].setdefault(name, {})
            for k, v in counters.items():
                slot[k] = slot.get(k, 0) + v
        for key in ("budget_exceeded", "root_s"):
            tot[key] += s[key]
    return tot


def layer_values(t: dict) -> dict:
    """Per-layer metric -> (value, unit) for one merged traced pass."""
    out = {}
    for metric in SPAN_METRICS:
        fn, what = metric.rsplit(".", 1)
        if what == "self_s":
            out[metric] = (t["self_s"].get(fn, 0.0), "s")
        elif what == "calls":
            out[metric] = (t["calls"].get(fn, 0), "count")
        else:
            out[metric] = (t["work"].get(fn, {}).get(what, 0), "count")
    calls = t["calls"]
    out["invariants.delta.exact_frac"] = (
        t["work"].get("invariants.delta", {}).get("exact", 0)
        / calls["invariants.delta"] if calls.get("invariants.delta") else 1.0, "fraction")
    roots = calls.get("counting.integer_roots_cubic", 0)
    out["counting.integer_roots_cubic.hit_frac"] = (
        t["hits"].get("counting.integer_roots_cubic", 0) / roots if roots else 0.0,
        "fraction")
    out["counting.smallest_solution.recounts"] = (
        t["parents"].get(("counting.smallest_solution", "counting.count_solutions"), 0),
        "count")
    out["nt.trial_factor.share"] = (
        t["self_s"].get("nt.trial_factor", 0.0) / t["root_s"] if t["root_s"] else 0.0,
        "fraction")
    out["budget.exceeded"] = (t["budget_exceeded"], "count")
    for mod in tracing.MODULES:
        out[f"{mod}.self_s"] = (sum(v for k, v in t["self_s"].items()
                                    if k.startswith(mod + ".")), "s")
    return out


def per_layer(untraced: list, traced: list) -> dict:
    """Medians over the traced passes, plus overhead and check outcomes."""
    merged = [merge([r["trace"] for r in p if r.get("trace")]) for p in traced]
    per_pass = [layer_values(m) for m in merged]
    out = {name: (statistics.median(v[name][0] for v in per_pass), unit, None)
           for name, (_, unit) in per_pass[0].items()}
    out["trace.overhead"] = (scaled_pass(traced) / scaled_pass([untraced]),
                             "ratio", None)
    flat = [r for p in [untraced] + traced for r in p]
    out["fail_frac"] = (sum(r["status"] != "pass" for r in flat) / len(flat),
                        "fraction", None)
    out["nonrepro_ops"] = (nonrepro_ops([untraced] + traced), "count", None)
    return out


# -- environment and report -----------------------------------------------------


def environment(seed: int) -> dict:
    rev = "unknown"  # a benchmark checkout is usually not a git repository
    if os.path.isdir(".git"):
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10).stdout.strip() or rev
        except (OSError, subprocess.TimeoutExpired):
            pass
    versions = {"python": sys.version.split()[0]}
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"versions": versions, "nproc": os.cpu_count(),
            "thread_caps": {v: "1" for v in THREAD_CAPS},
            "cubic_lab_budget": "unset", "git_revision": rev, "seed": seed}


def print_report(workload: str, passes: list, metrics: dict) -> None:
    print(f"== {workload}: {len(passes)} passes, {len(passes[0])} operations")
    for i, r in enumerate(passes[-1]):
        states = sorted({p[i]["status"] for p in passes})
        times = [p[i].get("wall_s", float("nan")) for p in passes]
        line = f"  {'/'.join(states):13s} {statistics.median(times):8.3f} s  {r['id']}"
        if r.get("trace"):  # largest self times in the last traced pass
            tr = r["trace"]
            top = sorted(tr["self_s"].items(), key=lambda kv: -kv[1])[:3]
            line += "  [" + ", ".join(f"{k} {v / tr['root_s']:.0%}" for k, v in top) + "]"
        print(line)
        if r["problems"]:
            print("      " + "; ".join(r["problems"])[:300])
    for name, (value, unit, samples) in metrics.items():
        extra = ""
        if samples and len(samples) > 1:
            q1, q2, q3 = quartiles(samples)
            extra = f"  (q1 {q1:.4g}, q3 {q3:.4g}, n {len(samples)})"
        print(f"  {name:42s} {value:12.6g} {unit}{extra}")


def measure(workload: str, seed: int, seconds: float, trace: bool,
            min_passes: int = 2) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    outdir = os.path.join(OUT, workload)
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    ops = workloads.WORKLOADS[workload](seed, outdir)
    refs = load_references()
    env = child_env()
    passes, walls = [], []
    start = time.monotonic()
    while (len(passes) < min_passes
           or time.monotonic() + statistics.median(walls) <= start + seconds):
        spans_dir = None
        if trace and passes:
            spans_dir = os.path.join(outdir, f"spans{len(passes)}")
            os.makedirs(spans_dir)
        t0 = time.monotonic()
        passes.append(run_pass(ops, refs, env, spans_dir, deadline))
        walls.append(time.monotonic() - t0)
    if trace:
        metrics = per_layer(passes[0], passes[1:])
        lost = sum(r["trace"]["measure_errors"] for p in passes[1:] for r in p
                   if r.get("trace"))
        if lost:
            print(f"  warning: {lost} work counters not taken; a traced "
                  f"function's arguments changed (see bench/tracing.py MEASURES)")
    else:
        metrics = end_to_end(passes)
    flat = [r for p in passes for r in p]
    result = {
        "correct": not any(r["status"] == "fail" for r in flat),
        "attempted": len(flat),
        "failed": sum(r["status"] == "fail" for r in flat),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    env_record = environment(seed)
    env_record["host_factor"] = host_factor(flat)
    print_report(workload, passes, metrics)
    if not trace:
        print(f"  unscaled: setup_s {statistics.median(r.get('setup_s', 0) for r in flat):.6g} s, "
              f"pass_s {typical_pass(passes):.6g} s, "
              f"host factor {env_record['host_factor']:.6g}")
    print("  environment: " + json.dumps(env_record, sort_keys=True))
    with open(os.path.join(OUT, f"{workload}-{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump({"environment": env_record, "result": result,
                   "samples": {k: s for k, (_, _, s) in metrics.items() if s},
                   "operations": [[{k: v for k, v in r.items()
                                    if k not in ("stdout", "trace")} for r in p]
                                  for p in passes]}, fh, indent=1)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="one pass of every workload, outputs checked")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "cubiclab", "cli.py")):
        print("error: run from the root of a cubiclab checkout (no src/cubiclab)",
              file=sys.stderr)
        return 2
    if args.quick:
        results = [measure(w, args.seed, 0.0, False, min_passes=1)
                   for w in workloads.WORKLOADS]
        return 0 if all(r["correct"] for r in results) else 1
    if not args.workload:
        ap.error("--workload is required")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
