"""Run one cubiclab operation in a fresh interpreter, the way a user runs it.

    python3 bench/child.py SPEC_JSON

SPEC_JSON holds "argv" (a `cubiclab` command line) or "api" (a public
function without a CLI command), plus "op" (the operation id) and "spans"
(a JSONL path, or null for an untraced run).  The parent passes its
`time.monotonic()` at spawn in BENCH_SPAWN_T, so set-up time covers the
interpreter start and every import until `cubiclab.cli` is ready.

The operation's stdout is captured; the child prints one JSON line with
setup_s, wall_s (in-process time of the call), rc, stdout, error and
peak_rss_kb.
"""

import io
import json
import os
import resource
import sys
import time
import traceback
from contextlib import redirect_stdout


def run_api(spec) -> int:
    """`slice_volume` has no CLI command; call it as a library user would."""
    import cubiclab.majorarcs
    import cubiclab.polynomials
    with open(spec["poly"]) as fh:
        phi = cubiclab.polynomials.CubicPolynomial.from_json_dict(json.load(fh))
    fn = getattr(cubiclab.majorarcs, spec["api"])
    out = fn(phi, [tuple(b) for b in spec["box"]], **spec["kwargs"])
    print(json.dumps({"result": out}, indent=2))
    return 0


def main() -> None:
    import cubiclab.cli
    setup_s = time.monotonic() - float(os.environ["BENCH_SPAWN_T"])
    spec = json.loads(sys.argv[1])
    tracer = None
    if spec.get("spans"):
        import tracing  # bench/ is sys.path[0] when run as a script
        tracer = tracing.Tracer(spec["op"])
        tracer.install()
    buf = io.StringIO()
    rc, error = None, None
    t0 = time.perf_counter()
    if tracer:
        tracer.begin_root(t0)
    try:
        with redirect_stdout(buf):
            if "api" in spec:
                rc = run_api(spec)
            else:
                rc = cubiclab.cli.main(spec["argv"])
    except Exception:  # reported as a failed operation, never hidden
        error = traceback.format_exc(limit=4)
    t1 = time.perf_counter()
    if tracer:
        tracer.end_root(t1)
        tracer.write(spec["spans"])
    print(json.dumps({
        "setup_s": setup_s, "wall_s": t1 - t0, "rc": rc,
        "stdout": buf.getvalue(), "error": error,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))


if __name__ == "__main__":
    main()
