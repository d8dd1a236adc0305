"""The fieldsimp benchmark: one workload per run, closed loop, one thread.

    python3 perfbench/run.py --workload harvest --seed 0 --seconds 20 --trace 0

With --trace 0 it times every operation untraced, under speed.py's host-speed
probe, and prints the end-to-end metrics in seconds at the probe's reference
speed; with --trace 1 it runs the same operations once untraced and once
under tracer.py's spans and prints the per-layer metrics, including the
tracing overhead.  Every output is checked against its known answer outside
the timed region.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; a full record, stamped with the
Python version, nproc, the seed, a hash of each input fixture and a hash of
the program, goes to perfbench/results/.  A run with the same stamp as an
earlier one must reproduce its deterministic counts exactly.

The benchmark imports fieldsimp from the src/ directory next to it and
exits with code 2 when it is not there.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
SETUP_PROBES = 3

# Spans each workload must (present) or must never (absent) reach; a traced
# run that breaks one fails.
PRESENT_SIMPLIFY = ("cli.parse_problem_file", "simplify.simplify",
                    "oms.gb_coefficients", "oms.specialize_eoms",
                    "interp.estimate_degrees", "interp.interpolate_rational",
                    "groebner.gb_apply", "groebner.gb_learn",
                    "fields.fields_equal", "fields.polynomial_generators")
EXPECTED_SPANS = {
    "harvest": (PRESENT_SIMPLIFY, ()),
    "corpus": (PRESENT_SIMPLIFY, ()),
    "membership": (("cli.parse_problem_file", "fields.fields_equal",
                    "fields.MembershipContext", "fields.contains",
                    "groebner.groebner", "groebner.normal_form"),
                   ("groebner.gb_apply", "groebner.gb_learn",
                    "interp.estimate_degrees", "interp.interpolate_rational",
                    "oms.gb_coefficients", "simplify.simplify")),
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("harvest", "corpus", "membership"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="build the inputs and exit (times set-up)")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def import_program():
    """Import the benchmark modules against this checkout's src/."""
    sys.path.insert(0, str(SRC))
    try:
        import fieldsimp
    except ImportError as exc:
        print("perfbench: cannot import fieldsimp from %s: %s" % (SRC, exc),
              file=sys.stderr)
        sys.exit(2)
    if Path(fieldsimp.__file__).resolve().parent.parent != SRC:
        print("perfbench: fieldsimp came from %s, not %s"
              % (fieldsimp.__file__, SRC), file=sys.stderr)
        sys.exit(2)
    import workloads
    return workloads


def timed(ops):
    """Run ops one at a time; return results, errors, the (start, end) clock
    readings of each op and those of the whole loop."""
    results, errors, spans = [], [], []
    clock = time.perf_counter
    start = clock()
    for op in ops:
        t0 = clock()
        try:
            results.append(op.call())
            errors.append(None)
        except Exception as exc:        # an operation that raised has failed
            results.append(None)
            errors.append("%s: %s" % (type(exc).__name__, exc))
        spans.append((t0, clock()))
    return results, errors, spans, (start, clock())


def judge(ops, results, errors):
    """Failed ops as {label: reason} and the fingerprints of the others,
    computed outside the timed region."""
    failures, prints = {}, {}
    for op, result, error in zip(ops, results, errors):
        if error is None:
            try:
                ok = op.check(result)
                prints[op.label] = op.fingerprint(result)
            except Exception as exc:    # a check that raises is a failure
                ok, error = False, "check: %s: %s" % (type(exc).__name__, exc)
            if not ok and error is None:
                error = "wrong answer"
        if error is not None:
            failures[op.label] = error
    return failures, prints


def setup_only(args):
    """Import fieldsimp and build the inputs under the speed probe; print
    the seconds that took, raw and at the reference speed."""
    with speed.SpeedProbe() as probe:
        t0 = time.perf_counter()
        workloads = import_program()
        workloads.WORKLOADS[args.workload](args.seed, args.seconds)
        t1 = time.perf_counter()
    print(json.dumps({"elapsed_s": t1 - t0,
                      "ref_s": probe.ref_seconds(t0, t1)}))
    return 0


def setup_seconds(args):
    """Median set-up time of fresh processes that import and build the
    inputs: the interpreter's start and exit in raw seconds, the import
    and build at the reference speed."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--setup-only"]
    samples = []
    for _ in range(SETUP_PROBES):
        # no timeout: with one, the wait polls in steps of up to 50 ms
        t0 = time.perf_counter()
        child = subprocess.run(cmd, check=True, stdout=subprocess.PIPE,
                               text=True)
        wall = time.perf_counter() - t0
        inner = json.loads(child.stdout.splitlines()[-1])
        samples.append(wall - inner["elapsed_s"] + inner["ref_s"])
    return statistics.median(samples)


def p90(values):
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 \
        else values[0]


def program_hash():
    """SHA-256 over the sources of fieldsimp and of this benchmark."""
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(HERE.parent)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def stamp(args, workloads):
    names = {"harvest": ["power_sums"], "corpus": list(workloads.CORPUS),
             "membership": list(workloads.answers.FIXTURES)}[args.workload]
    files = workloads.fixture_files(names)
    return {
        "program": program_hash(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "fixtures": {name: hashlib.sha256(path.read_bytes()).hexdigest()
                     for name, path in sorted(files.items())},
    }


# traced span -> the statistics reported for it: calls, self_s (self
# seconds) or s (total seconds)
SPAN_METRICS = {
    "simplify.simplicity_key": ("s",),
    "simplify.reconstruct_candidates": ("s",),
    "oms.eval": ("calls",),
    "oms.specialize_eoms": ("calls", "self_s"),
    "oms.gb_coefficients": ("s",),
    "interp.estimate_degrees": ("calls", "self_s"),
    "interp.interpolate_rational": ("calls", "self_s"),
    "groebner.gb_apply": ("calls", "self_s"),
    "groebner.gb_learn": ("calls",),
    "groebner.groebner": ("calls", "self_s"),
    "groebner.normal_form": ("calls", "self_s"),
    "fields.MembershipContext": ("calls", "self_s"),
    "fields.contains": ("calls", "self_s"),
    "fields.fields_equal": ("calls",),
    "fields.polynomial_generators": ("s", "self_s"),
    "poly.derivative": ("calls", "s"),
    "poly.gcd_q": ("calls", "self_s"),
}


def layer_metrics(tracer, setup_parse_s, results, overhead_s):
    """The per-layer metrics of a traced pass, as {name: (value, unit)}."""
    from fieldsimp.arith import production_prime
    from fieldsimp.simplify import SimplifyConfig
    import workloads

    calls, n = tracer.calls, tracer.counts
    stat = {"calls": (calls, "count"), "self_s": (tracer.self_time, "s"),
            "s": (tracer.total, "s")}
    m = {"%s.%s" % (span, kind): (stat[kind][0][span], stat[kind][1])
         for span, kinds in SPAN_METRICS.items() for kind in kinds}

    def ratio(num, den):
        return num / den if den else 0.0

    restart_of = {production_prime(8 * r): r
                  for r in range(SimplifyConfig().max_restarts + 1)}
    runs = [r for r in results if isinstance(r, tuple)]   # simplify() ops
    m.update({
        "cli.parse_problem_file.s": (setup_parse_s, "s"),
        "simplify.self_s": (tracer.self_time["simplify.simplify"], "s"),
        "simplify.restarts":
            (sum(restart_of[rep.primes[0]] for _, rep in runs), "count"),
        "simplify.primes_used":
            (sum(len(rep.primes) for _, rep in runs), "count"),
        "simplify.rounds": (sum(len(rep.rounds) for _, rep in runs), "count"),
        "simplify.out_cost":
            (sum(workloads.out_cost(out) for out, _ in runs), "count"),
        "oms.gb_evals":
            (sum(workloads.gb_evals(rep) for _, rep in runs), "count"),
        "oms.gb_evals.last_round":
            (sum(rep.rounds[-1]["n_evals"] for _, rep in runs if rep.rounds),
             "count"),
        "oms.eval.cache_hit_ratio":
            (ratio(n["oms.eval.cache_hits"], calls["oms.eval"]), "ratio"),
        "oms.eval.fail_ratio":
            (ratio(n["oms.eval.fails"], calls["oms.eval"]), "ratio"),
        "oms.keys": (n["oms.keys"], "count"),
        "oms.keys.useful_ratio":
            (ratio(n["oms.keys.useful"], n["oms.keys"]), "ratio"),
        "interp.interpolate_rational.fail_ratio":
            (ratio(n["interp.interpolate_rational.fails"],
                   calls["interp.interpolate_rational"]), "ratio"),
        "groebner.gb_apply.us_per_call":
            (1e6 * ratio(tracer.total["groebner.gb_apply"],
                         calls["groebner.gb_apply"]), "us"),
        "groebner.gb_apply.diverged_ratio":
            (ratio(n["groebner.gb_apply.diverged"],
                   calls["groebner.gb_apply"]), "ratio"),
        "fields.unlucky": (n["fields.unlucky"], "count"),
        "trace.overhead_s": (overhead_s, "s"),
    })
    return m


def span_failures(workload, calls):
    present, absent = EXPECTED_SPANS[workload]
    out = ["span %s: expected calls, read 0" % s
           for s in present if not calls[s]]
    out += ["span %s: expected no calls, read %d" % (s, calls[s])
            for s in absent if calls[s]]
    return out


def traced_pass(args, workloads):
    """Build the inputs and run them under spans and the speed probe;
    return the tracer (its totals cover the timed loop, without the probes'
    time), the span calls of set-up and the loop together, the set-up parse
    time, the ops, their outcomes and the loop's time at the reference
    speed."""
    import tracer as tracing
    with speed.SpeedProbe() as probe:
        tracer = tracing.Tracer(clock=probe.clock)
        undo = tracing.install(tracer, list(tracing.SPANS),
                               callers=[workloads])
        try:
            ops = workloads.WORKLOADS[args.workload](args.seed, args.seconds)
            setup_parse_s = tracer.total["cli.parse_problem_file"]
            calls = tracer.calls.copy()
            tracer.reset()
            results, errors, _spans, loop = timed(ops)
        finally:
            tracing.uninstall(undo)
    for name in tracer.missing:
        print("perfbench: span %s has no function to wrap" % name,
              file=sys.stderr)
    return (tracer, calls + tracer.calls, setup_parse_s, ops, results,
            errors, probe.ref_seconds(*loop))


def repeat_failures(record_path, record):
    """Fingerprints that differ from an earlier run of the same program,
    inputs and seed."""
    try:
        earlier = json.loads(record_path.read_text())
    except (OSError, ValueError):
        return []
    if earlier.get("stamp") != record["stamp"]:
        return []
    old = earlier.get("fingerprints", {})
    return ["%s: fingerprint %s, earlier run %s" % (label, fp, old[label])
            for label, fp in record["fingerprints"].items()
            if label in old and old[label] != fp]


def main(argv=None):
    args = parse_args(argv)
    if args.setup_only:
        return setup_only(args)
    workloads = import_program()

    ops = workloads.WORKLOADS[args.workload](args.seed, args.seconds)
    with speed.SpeedProbe() as probe:
        results, errors, spans, loop = timed(ops)
    wall_ref = probe.ref_seconds(*loop)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    op_failures, prints = judge(ops, results, errors)
    failures = []       # failures of the run as a whole
    record = {"stamp": stamp(args, workloads), "fingerprints": prints}

    if args.trace:
        (tracer, span_calls, setup_parse_s, t_ops, t_results, t_errors,
         t_wall_ref) = traced_pass(args, workloads)
        t_failures, t_prints = judge(t_ops, t_results, t_errors)
        for label, reason in t_failures.items():
            op_failures.setdefault(label, "traced: " + reason)
        failures += ["%s: traced fingerprint %s, untraced %s"
                     % (label, fp, prints.get(label))
                     for label, fp in t_prints.items()
                     if label in prints and prints[label] != fp]
        failures += span_failures(args.workload, span_calls)
        metrics = layer_metrics(tracer, setup_parse_s, t_results,
                                t_wall_ref - wall_ref)
        record["untraced_wall_ref_s"] = wall_ref
        record["traced_wall_ref_s"] = t_wall_ref
    else:
        ref = [probe.ref_seconds(*span) for span in spans]
        raw = [probe.seconds(*span) for span in spans]
        metrics = {
            "setup_s": (setup_seconds(args), "s"),
            "wall_ref_s": (wall_ref, "s"),
            "op_p50_ref_s": (statistics.median(ref), "s"),
            "op_p90_ref_s": (p90(ref), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        record["op_samples"] = len(spans)
        record["raw"] = {"wall_s": probe.seconds(*loop),
                         "op_p50_s": statistics.median(raw),
                         "op_p90_s": p90(raw), **probe.summary()}

    RESULTS.mkdir(exist_ok=True)
    record_path = RESULTS / ("%s-seed%d.json" % (args.workload, args.seed))
    failures += repeat_failures(record_path, record)
    failures += ["%s: %s" % item for item in sorted(op_failures.items())]
    for line in failures[:20]:
        print("perfbench: FAILED " + line, file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(op_failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record.update(result, failures=failures, trace=args.trace)
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
