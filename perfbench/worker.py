"""One benchmark process: set up a workload, then measure rounds of it.

Run by ``perfbench/run.py`` in a fresh interpreter per measurement::

    python -m perfbench.worker --workload replicate --seed 1 --seconds 25 \
        --trace 0 --spawned-at <time.monotonic() before the spawn>

``--setup-only`` stops after set-up.  The process prints one JSON object on
its last stdout line.  Set-up time runs from the spawn, which the parent
stamps with the system-wide monotonic clock, to the start of the first
round: it covers interpreter start, imports and a warm-up call of every
entry point on tiny inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

from perfbench import reference
from perfbench.tracer import SELF_TIME_TOLERANCE, Tracer
from perfbench.workloads import WORKLOADS, Tally

SPANS_DIR = ".bench_out"
SETUP_REFERENCES = 3  # reference runs after set-up, to scale the set-up time
REFERENCE_SHARE = 0.1  # reference runs take this share of the measured time


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def measure(workload, seconds: float, trace: int) -> dict:
    """Run rounds, fresh inputs each, until the next would end after ``seconds``.

    With ``trace`` every round runs twice on the same inputs, once untraced
    and once traced, the order alternating from round to round; the tracing
    overhead is the median ratio of the two times.  The untraced output is
    the one checked.  Between rounds the reference task runs for about
    ``REFERENCE_SHARE`` of the measured time.
    """
    tally = Tally()
    tracer = Tracer().install() if trace else None
    plain: list[float] = []
    traced: list[float] = []
    refs: list[float] = []  # reference task times, spread between rounds
    scaled: list[float] = []  # untraced round times in reference-speed seconds
    cycles: list[float] = []  # whole rounds, checks included, to plan the stop
    start = time.monotonic()
    rnd = 0
    try:
        while True:
            now = time.monotonic()
            if cycles and now - start + statistics.median(cycles) > seconds:
                break
            inp = workload.inputs(rnd)
            passes = (False, True) if trace else (False,)
            for traced_pass in (passes[::-1] if rnd % 2 else passes):
                t0 = time.perf_counter()
                if traced_pass:
                    with tracer.root():
                        workload.run(inp)
                    traced.append(time.perf_counter() - t0)
                else:
                    out = workload.run(inp)
                    plain.append(time.perf_counter() - t0)
            try:
                workload.check(rnd, inp, out, tally)
            except Exception as exc:  # a check that cannot run is a failed check
                tally.attempted += 1
                tally.fail(f"check raised {type(exc).__name__}: {exc}", ("check", rnd))
            # Each round is scaled by the reference runs that follow it, or
            # by the last ones, so the scale tracks drift within the run.
            new = []
            while sum(refs) + sum(new) < REFERENCE_SHARE * sum(plain):
                new.append(reference.time_reference())
            if new:
                speed = reference.scale(new)
                refs += new
            scaled.append(plain[-1] * speed)
            cycles.append(time.monotonic() - now)
            rnd += 1
    finally:
        if tracer is not None:
            tracer.restore()
    notes = workload.finish(tally)
    return {"plain": plain, "traced": traced, "scaled": scaled, "refs": refs,
            "tally": tally, "notes": notes, "tracer": tracer}


def _write_spans(args, spans) -> str:
    """Write the run's spans as JSON ``[name, start, end, parent]`` rows."""
    os.makedirs(SPANS_DIR, exist_ok=True)
    path = os.path.join(SPANS_DIR, f"spans-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "columns": ["name", "start", "end", "parent"], "spans": spans}, fh)
    return path


def main(argv=None) -> int:
    args = _parse(argv)
    workload = WORKLOADS[args.workload](args.seed)
    workload.warmup()
    setup_s = time.monotonic() - args.spawned_at
    setup_refs = [reference.time_reference() for _ in range(SETUP_REFERENCES)]
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_scale": reference.scale(setup_refs)}))
        return 0

    res = measure(workload, args.seconds, args.trace)
    tally = res["tally"]
    doc = {"setup_s": setup_s, "setup_scale": reference.scale(setup_refs),
           "rounds": res["plain"], "scaled_rounds": res["scaled"],
           "refs": res["refs"], "notes": res["notes"]}
    if args.trace:
        tracer = res["tracer"]
        layers = tracer.layer_metrics()
        layers["trace.overhead_frac"] = (statistics.median(
            t / p for t, p in zip(res["traced"], res["plain"])) - 1.0, "ratio")
        # The self-time account is one more checked operation of the run.
        unattributed = layers["trace.unattributed_frac"][0]
        tally.attempted += 1
        if abs(unattributed) > SELF_TIME_TOLERANCE:
            tally.fail(f"layer self times leave {unattributed:.4f} of traced wall "
                       f"time unattributed, over {SELF_TIME_TOLERANCE}", "self-time account")
        doc["layers"] = layers
        doc["self_time_tolerance"] = SELF_TIME_TOLERANCE
        doc["spans_file"] = _write_spans(args, tracer.spans)
    doc.update(attempted=tally.attempted, failed=tally.failed, reasons=tally.reasons,
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
