"""Benchmark of lrcheck: one workload per run, end to end or traced by layer.

    python3 perfbench/run.py --workload {corpus,sweep,long,borrow} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; lrcheck is imported from `src/`.
Whole rounds over the workload's programs run, each in an order drawn from
the seed, until another round would overrun `--seconds` (at least three
rounds).  Each repetition's check and run times are first scaled to the
machine's unloaded speed by the speed reference in speed.py; a program's
times are then the fastest of its repetitions.  Set-up (a fresh
interpreter importing lrcheck, building the inputs, one warm-up operation)
runs SETUP_REPS times spread over the run, and the fastest scaled one is
reported.  README.md gives the measurements behind these choices.  With
`--trace 1`, untraced and traced rounds alternate, and the run reports the
per-layer metrics and the tracing overhead instead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The full result, with the
unscaled figures and one row per program, and the spans of a traced run
are written under `perfbench/results/`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import types
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
SETUP_REPS = 7
MIN_ROUNDS = 3  # untraced rounds; a traced run needs one untraced/traced pair
# what a fresh process pays before lrcheck can check anything
IMPORT = "import sys; sys.path.insert(0, sys.argv[1]); import lrcheck.cli"

sys.path.insert(0, HERE)
import speed  # noqa: E402
from audit import audit  # noqa: E402
from layers import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def load_lrcheck():
    """Import lrcheck from this checkout's `src/`."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "lrcheck", "__init__.py")):
        raise SystemExit(f"perfbench: no lrcheck sources under {src}")
    sys.path.insert(0, src)
    import lrcheck.cli
    import lrcheck.constraints
    import lrcheck.harness
    import lrcheck.infer
    import lrcheck.interp
    import lrcheck.oracle
    import lrcheck.parser
    import lrcheck.syntax
    import lrcheck.typeck

    if not os.path.abspath(lrcheck.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: imported lrcheck from {lrcheck.__file__}, not {src}")
    return types.SimpleNamespace(
        **{name: getattr(lrcheck, name) for name in (
            "cli", "constraints", "harness", "infer", "interp", "oracle",
            "parser", "syntax", "typeck")}
    )


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []


def run_round(lr, items, op, rng, samples, tally, ref_s):
    """One pass over the items in a seeded order.  The speed reference is
    timed after every operation; a sample is (check s, run s, index of that
    reference timing)."""
    order = list(range(len(items)))
    rng.shuffle(order)
    for i in order:
        tally.attempted += 1
        try:
            check_s, run_s = op(lr, items[i])
        except Exception as exc:  # a wrong output or a crash: a failed operation
            tally.failed += 1
            tally.errors.append(f"{items[i].name}: {type(exc).__name__}: {exc}")
            continue
        finally:
            ref_s.append(speed.time_task())
        samples[i].append((check_s, run_s, len(ref_s) - 1))


def timings(items, samples, factor):
    """Per-program times: the fastest check and the fastest run of its
    repetitions, which were spread over the run in interleaved rounds, each
    repetition first multiplied by `factor(reference index)`.  Failed
    repetitions are absent."""
    rows = []
    for item, reps in zip(items, samples):
        if not reps:
            continue
        check = 1e3 * min(c * factor(k) for c, _, k in reps)
        run = 1e3 * min(r * factor(k) for _, r, k in reps) if reps[0][1] is not None else None
        rows.append({
            "program": item.name,
            "check_ms": check,
            "run_ms": run,
            "total_ms": check + (run or 0.0),
            "reps_ms": [[1e3 * c, None if r is None else 1e3 * r, k] for c, r, k in reps],
        })
    return rows


def programs_per_s(rows):
    return 1e3 * len(rows) / sum(r["total_ms"] for r in rows)


def as_metrics(raw):
    return {name: {"value": float(value), "unit": unit} for name, (value, unit) in raw.items()}


def ratio(a, b):
    return a / b if b else 0.0


def end_to_end(rows, setup_s):
    return {
        "setup_s": (setup_s, "s"),
        "programs_per_s": (programs_per_s(rows), "1/s"),
        "check_ms.p50": (statistics.median(r["check_ms"] for r in rows), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, rounds, plain_rows, traced_rows, generate_ms, audited, scale):
    """Per-layer metrics, per pass over the workload's programs.  The rows
    are scaled already; span times are multiplied by `scale`."""
    ms = Counter({k: scale * v / rounds for k, v in tracer.self_ms().items()})
    n = Counter({k: v / rounds for k, v in tracer.counts().items()})
    runs = [r["run_ms"] for r in plain_rows if r["run_ms"] is not None]
    checks = sorted(r["check_ms"] for r in plain_rows)
    untraced, traced = programs_per_s(plain_rows), programs_per_s(traced_rows)
    models_checked, valid_checked, failures = audited
    return {
        "oracle.ms": (ms["oracle"], "ms"),
        "oracle.calls": (n["oracle.calls"], "count"),
        "oracle.goals": (n["oracle.goals"], "count"),
        "oracle.goals_per_call": (ratio(n["oracle.goals"], n["oracle.calls"]), "count"),
        "oracle.us_per_goal": (ratio(1e3 * ms["oracle"], n["oracle.goals"]), "us"),
        "oracle.valid_ratio": (ratio(n["oracle.valid"], n["oracle.goals"]), "ratio"),
        "oracle.unknowns": (n["oracle.unknowns"], "count"),
        "oracle.cache_hit_ratio": (ratio(n["oracle.cache_hits"], n["oracle.cacheable_goals"]), "ratio"),
        "oracle.models": (n["oracle.models"], "count"),
        "infer.ms": (ms["infer"], "ms"),
        "infer.instantiations": (n["infer.instantiations"], "count"),
        "infer.sweeps": (n["infer.sweeps"], "count"),
        "infer.deletions": (n["infer.deletions"], "count"),
        "infer.kept_ratio": (1.0 - ratio(n["infer.deletions"], n["infer.instantiations"])
                             if n["infer.instantiations"] else 0.0, "ratio"),
        "typeck.ms": (ms["typeck"], "ms"),
        "constraints.ms": (ms["constraints"], "ms"),
        "constraints.clauses": (n["constraints.clauses"], "count"),
        "constraints.kvars": (n["constraints.kvars"], "count"),
        "parser.ms": (ms["parser"], "ms"),
        "parser.kchars_per_s": (ratio(n["parser.chars"], ms["parser"]), "kchar/s"),
        "interp.ms": (ms["interp"], "ms"),
        "interp.steps": (n["interp.steps"], "count"),
        "interp.steps_per_ms": (ratio(n["interp.steps"], ms["interp"]), "1/ms"),
        "interp.trace_events": (n["interp.trace_events"], "count"),
        "harness.conform_ms": (ms["harness.conform"], "ms"),
        "harness.generate_ms": (scale * generate_ms, "ms"),
        "cli.self_ms": (ms["cli"], "ms"),
        "run_ms.p50": (statistics.median(runs) if runs else 0.0, "ms"),
        "check_ms.p90": (statistics.quantiles(checks, n=10)[-1] if len(checks) > 1 else checks[0], "ms"),
        "trace.untraced_programs_per_s": (untraced, "1/s"),
        "trace.traced_programs_per_s": (traced, "1/s"),
        "trace.overhead_pct": (100.0 * (untraced / traced - 1.0), "%"),
        "audit.models_checked": (models_checked, "count"),
        "audit.valid_checked": (valid_checked, "count"),
        "audit.failures": (len(failures), "count"),
    }


def setup(lr, build, op, tracer=None):
    """One set-up: a fresh interpreter imports lrcheck, then the inputs are
    built and the first one is run once.  Returns (items, seconds).  A
    warm-up failure is not counted here: the same operation runs again,
    counted, in every round."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT, os.path.join(ROOT, "src")], check=True)
    if tracer is not None:
        tracer.install()
    try:
        items = build(lr, ROOT)
        try:
            op(lr, items[0])
        except Exception:
            pass
    finally:
        if tracer is not None:
            tracer.uninstall()
    return items, time.perf_counter() - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    lr = load_lrcheck()
    build, op = WORKLOADS[args.workload]
    items, first_setup_s = setup(lr, build, op)
    setup_s = [(first_setup_s, 0)]  # (seconds, index of the next reference timing)

    generate_ms = 0.0
    tracer = None
    if args.trace:
        gen_tracer = Tracer(lr)
        setup(lr, build, op, gen_tracer)
        generate_ms = sum(s[3] - s[2] for s in gen_tracer.spans if s[0] == "harness.generate") / 1e6
        tracer = Tracer(lr)

    rng = random.Random(args.seed)
    tally = Tally()
    plain = [[] for _ in items]
    traced = [[] for _ in items]
    gc.collect()
    start = time.perf_counter()
    round_s = []
    ref_s = []
    while True:
        round_start = time.perf_counter()
        run_round(lr, items, op, rng, plain, tally, ref_s)
        if tracer is not None:
            tracer.install()
            try:
                run_round(lr, items, op, rng, traced, tally, ref_s)
            finally:
                tracer.uninstall()
        now = time.perf_counter()
        round_s.append(now - round_start)
        rounds = len(round_s)
        # set-ups are spread over the run, so that their minimum does not
        # hang on how fast the machine was in one moment
        if len(setup_s) < SETUP_REPS and now - start >= len(setup_s) * args.seconds / SETUP_REPS:
            setup_s.append((setup(lr, build, op)[1], len(ref_s)))
            now = time.perf_counter()
        enough = rounds >= (1 if tracer is not None else MIN_ROUNDS)
        if enough and (now - start) + round_s[-1] > args.seconds:
            break
    while len(setup_s) < SETUP_REPS:
        setup_s.append((setup(lr, build, op)[1], len(ref_s) - 1))
    measured_s = time.perf_counter() - start

    def factor(k):
        return speed.scale_at(ref_s, min(k, len(ref_s) - 1))

    def unscaled(k):
        return 1.0

    def report(factor):
        rows = timings(items, plain, factor)
        if not rows:
            raise SystemExit("perfbench: every operation failed")
        if tracer is None:
            return end_to_end(rows, min(s * factor(k) for s, k in setup_s)), rows
        scale = statistics.median(factor(k) for k in range(len(ref_s)))
        return per_layer(tracer, len(round_s), rows, timings(items, traced, factor),
                         generate_ms, audited, scale), rows

    if tracer is not None:
        verdicts = (pair for pairs, _, _ in tracer.oracle_verdicts() for pair in pairs)
        audited = audit(verdicts, random.Random(args.seed))
        tally.attempted += audited[0] + audited[1]
        tally.failed += len(audited[2])
        tally.errors.extend(audited[2])
    raw, plain_rows = report(factor)
    raw_unscaled, _ = report(unscaled)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": as_metrics(raw),
    }
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(dict(result, workload=args.workload, seed=args.seed,
                       unscaled=as_metrics(raw_unscaled), round_s=round_s, setup_s=setup_s,
                       ref_ms=[1e3 * t for t in ref_s], errors=tally.errors,
                       programs=plain_rows), handle, indent=1)
    if tracer is not None:
        with open(stem + ".spans.json", "w", encoding="utf-8") as handle:
            json.dump([s[:4] for s in tracer.spans], handle)

    print(f"{args.workload}: {len(items)} programs, {len(round_s)} rounds in {measured_s:.1f} s, "
          f"attempted {tally.attempted}, failed {tally.failed}; speed reference "
          f"{1e3 * min(ref_s):.3f}-{1e3 * max(ref_s):.3f} ms (unloaded {speed.REF_MS} ms)")
    for line in tally.errors[:20]:
        print(f"  FAILED {line}")
    for name, m in result["metrics"].items():
        print(f"  {name:32} {m['value']:14.4f} {m['unit']:8} unscaled {raw_unscaled[name][0]:.4f}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
