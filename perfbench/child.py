"""One benchmark child process: time `import amenalab.cli`, then call
`amenalab.cli.main(argv)` once, and write the timings as JSON.

Usage:
    python child.py import RESULT_JSON
    python child.py verify RESULT_JSON -- ARGV...
    python child.py trace RESULT_JSON SPANS_NPZ RUN_ID -- ARGV...

`import` only sets up; `verify` runs the command untraced; `trace` runs it
with the span tracer of `tracing.py` and writes the spans to SPANS_NPZ.
Only `sys`, `time`, `gc`, `signal` and `fractions` are imported before the
set-up clock starts, so `setup_s` covers everything `import amenalab.cli`
pulls in.

A fixed calibration loop that runs no program code measures how fast the
machine is running, so that run.py can scale the child's times to a
reference speed (README.md, "Machine speed").  It runs in full first thing
(`cal_before`) and last thing (`cal_after`).  In `verify` mode a timer also
runs one twentieth of it every TICK_S seconds of `main` (`cal_ticks`, each
given as the time of the full loop); the time of these ticks is taken out of
`verify_s` and reported as `tick_s`.
"""

import gc
import signal
import sys
import time
from fractions import Fraction

TICK_PARTS = 20
TICK_S = 0.5


def calibrate(parts: int = 1) -> float:
    """Seconds for 1/parts of a fixed piece of pure-Python work: rational and
    integer arithmetic and dict updates.  The garbage collector is off
    meanwhile, so objects the program left on the heap do not slow it."""
    was_enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    acc = Fraction(0)
    table = {}
    for i in range(1, 9000 // parts):
        acc += Fraction(1, i * (i + 1))
        table[i % 97] = table.get(i % 97, 0) + i * i
        if i % 50 == 0:
            acc = acc.limit_denominator(10**12)
    total = 0
    for i in range(1_800_000 // parts):
        total += (i * i) % 7
    elapsed = time.perf_counter() - t0
    if was_enabled:
        gc.enable()
    return elapsed


class Ticks:
    """Runs calibrate(TICK_PARTS) from a SIGALRM timer every TICK_S seconds."""

    def __init__(self):
        self.cal = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.cal.append(calibrate(TICK_PARTS) * TICK_PARTS)
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def main() -> int:
    cal_before = calibrate()
    t0 = time.perf_counter()
    import amenalab.cli
    setup_s = time.perf_counter() - t0

    mode, result_path = sys.argv[1], sys.argv[2]
    result = {"setup_s": setup_s, "cal_before": cal_before, "cal_ticks": [], "tick_s": 0.0}
    if mode != "import":
        cut = sys.argv.index("--")
        argv = sys.argv[cut + 1:]
        entry = amenalab.cli.main
        tracer = None
        if mode == "trace":
            import tracing
            spans_path, run_id = sys.argv[3], sys.argv[4]
            tracer = tracing.Tracer(run_id)
            tracer.install()
            entry = tracer.wrap("cli.main", entry)
            t1 = time.perf_counter()
            entry(argv)
            result["verify_s"] = time.perf_counter() - t1
        else:
            with Ticks() as ticks:
                t1 = time.perf_counter()
                entry(argv)
                result["verify_s"] = time.perf_counter() - t1 - ticks.spent
            result["cal_ticks"], result["tick_s"] = ticks.cal, ticks.spent
        sys.stdout.flush()
        if tracer is not None:
            tracer.dump(spans_path)

    result["cal_after"] = calibrate()
    import json
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
