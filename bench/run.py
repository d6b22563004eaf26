"""Benchmark of the delcodes library, run from the root of a checkout.

    python3 bench/run.py --workload mc_desk --seed 1 --seconds 10 --trace 0

Workloads (BENCHMARK.json says why each was chosen):

* ``mc_desk``      -- ``verify.simulate`` on far(60,6) under pFar(18);
* ``decode_paper`` -- ``far.far_decode`` on far(3024,14) under pFar(42), t <= 3;
* ``verify_vt``    -- exhaustive ``verify_roundtrip`` and
  ``verify_combinatorial`` on VT_0(16) under at most one error.

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` it reports the per-layer metrics of a traced round of
the workload.  The line before it records the environment, the
parameters and a digest of the reports, which is the same for both modes
of a seed.  Timings are in reference time (see measure.RefClock).  The
exit code is 1 when an output check fails and 2 when the library cannot
be imported from ``src``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import measure
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

MIN_ROUNDS = 3           # every unit and decode is timed at least this often
ROUND_S = 4.0            # run length per round: a run does seconds / ROUND_S rounds
SETUP_MIN_SAMPLES = 3    # setup_s is the median of at least this many cold setups
SETUP_MAX_SAMPLES = 9
SETUP_PROBE_BUDGET_S = 1.0  # cheap setups are sampled until this is spent


def setup_probe(name: str) -> float:
    """Reference seconds of a cold import and setup in a child process."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--setup-probe"], cwd=ROOT, capture_output=True, text=True,
        timeout=170, check=True)
    return float(out.stdout.split()[-1])


def timed_rounds(workload, state, inputs, tally, rounds: int, decode: bool = True):
    """Run every unit, then every timed decode, `rounds` times.

    Returns the cases of one round of units and each unit's times.  Rounds
    alternate the two kinds of work so that both spread over the whole run.
    """
    times = [[] for _ in range(workload.units(inputs))]
    cases = 0
    for r in range(rounds):
        tally.decode_ms.append(array("d"))
        for k, unit_times in enumerate(times):
            count, seconds = workload.unit(state, inputs, k, tally, r == 0)
            unit_times.append(seconds)
            cases += count if r == 0 else 0
        if decode:
            workload.decode_round(state, inputs, tally, r == 0)
    return cases, times


def end_to_end(workload, state, seed: int, seconds: float, tally, first_setup_s):
    setups = [first_setup_s]
    probe_start = time.perf_counter()
    while len(setups) < SETUP_MAX_SAMPLES and (
            len(setups) < SETUP_MIN_SAMPLES
            or time.perf_counter() - probe_start < SETUP_PROBE_BUDGET_S):
        setups.append(setup_probe(workload.name))
    inputs = workload.prepare(state, seed)
    rounds = max(MIN_ROUNDS, round(seconds / ROUND_S))
    cases, times = timed_rounds(workload, state, inputs, tally, rounds)
    unit_s = [measure.second_fastest(t) for t in times]
    workload.finish(state, inputs, tally)
    decode_ms = [measure.second_fastest(word) for word in zip(*tally.decode_ms)]
    values = {
        "setup_s": statistics.median(setups),
        "cases_per_s": cases / sum(unit_s),
        "decode_ms_p50": measure.percentile(decode_ms, 50),
        "decode_ms_p99": measure.percentile(decode_ms, 99),
        "fail_frac": tally.failures / tally.decodes,
        "peak_rss_mb": measure.peak_rss_mb(),
    }
    samples = {"setup_s": setups, "rounds": rounds, "units": len(unit_s),
               "cases_per_round": cases, "decoded_words": len(decode_ms),
               "fail_frac_decodes": tally.decodes}
    return values, samples


def per_layer(workloads, workload, seed: int, tally):
    """A traced setup and round; an untraced round gives the overhead."""
    layers = [m["name"][:-len(".calls")] for m in SPEC["per_layer"]
              if m["name"].endswith(".calls")]
    tracer = tracing.Tracer(tally.clock)
    with tracing.installed(tracer, layers, workloads.OBSERVERS):
        state = workload.setup()
    inputs = workload.prepare(state, seed)
    untraced = workloads.Tally(clock=tally.clock)
    base_s = sum(t for t, in timed_rounds(workload, state, inputs, untraced, 1, False)[1])
    with tracing.installed(tracer, layers, workloads.OBSERVERS):
        traced_s = sum(t for t, in timed_rounds(workload, state, inputs, tally, 1, False)[1])
        # The benchmark calls decoders itself next, so a layer the library
        # stopped calling must show here, before those calls.
        for layer in sorted(workload.expected_layers):
            tally.check(tracer.calls[layer] > 0,
                        f"layer {layer} was never called by set-up or the units")
        workload.decode_round(state, inputs, tally, True)
    workload.finish(state, inputs, tally)
    tally.check(untraced.digest.hexdigest() == tally.digest.hexdigest(),
                "traced and untraced runs of the seed produced different reports")

    values = {"trace.overhead_frac": traced_s / base_s - 1}
    for layer in layers:
        values[f"{layer}.calls"] = tracer.calls[layer]
        values[f"{layer}.busy_s"] = tracer.busy[layer]
        values[f"{layer}.self_s"] = tracer.self_time[layer]
    c, calls = tracer.counters, tracer.calls["far.far_decode"]
    for key in ("iterations", "ambiguous_flips"):
        values[f"far.far_decode.{key}"] = c[f"far.far_decode.{key}"]
    values["far.far_decode.ok_ratio"] = c["far.far_decode.ok"] / calls if calls else 0.0
    symbols = c["far.far_decode.symbols"]
    values["far.far_decode.ns_per_symbol"] = (
        tracer.busy["far.far_decode"] * 1e9 / symbols if symbols else 0.0)
    for outcome in ("decode_failure", "flagged", "unflagged"):
        values[f"fail.{outcome}"] = tally.outcomes[outcome]
    return values, {"untraced_round_s": base_s, "traced_round_s": traced_s}


def main(argv=None) -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    clock = measure.RefClock()
    try:
        return run(args, clock)
    finally:
        clock.close()


def run(args, clock: measure.RefClock) -> int:
    # setup_s counts the library import too, so that work moved to import
    # time still shows; every sample is the first setup of its process.
    t0 = clock.now()
    sys.path.insert(0, str(SRC))
    try:
        workloads = importlib.import_module("workloads")
    except ImportError as exc:
        print(f"cannot import delcodes from {SRC}: {exc}", file=sys.stderr)
        return 2
    library = Path(sys.modules["delcodes"].__file__).resolve()
    if SRC.resolve() not in library.parents:
        print(f"delcodes was imported from {library}, not {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    tally = workloads.Tally(clock=clock.now)
    if args.trace:
        values, samples = per_layer(workloads, workload, args.seed, tally)
        spec = SPEC["per_layer"]
    else:
        state = workload.setup()
        setup_s = clock.now() - t0
        if args.setup_probe:
            print(repr(setup_s))
            return 0
        values, samples = end_to_end(workload, state, args.seed, args.seconds,
                                     tally, setup_s)
        spec = SPEC["end_to_end"]

    why = {w["name"]: w["why"] for w in SPEC["workloads"]}
    kernel_ms = [k * 1e3 for k in clock.kernel_s]
    record = {
        **measure.environment(),
        "commit": measure.git_commit(ROOT),
        "source_sha256": measure.source_digest(SRC),
        "workload": workload.name, "why": why[workload.name],
        "params": workload.params, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "samples": samples,
        "calibration_ms": {"count": len(kernel_ms), "min": min(kernel_ms),
                           "median": statistics.median(kernel_ms),
                           "max": max(kernel_ms)},
        "report_digest": tally.digest.hexdigest(),
        "check_failures": tally.problems, "check_messages": tally.messages,
    }
    print(json.dumps({"run": record}, sort_keys=True))
    print(json.dumps({
        "correct": tally.problems == 0,
        "attempted": tally.cases,
        "failed": tally.problems,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in spec},
    }))
    return 0 if tally.problems == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
