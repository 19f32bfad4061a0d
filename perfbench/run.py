"""Verified-query benchmark over a real prover service.

Usage (from the repository root)::

    python3 perfbench/run.py --workload interactive-u16 --seed 1 \\
        --seconds 10 --trace 0

Starts ``python -m repro.service`` as a subprocess and drives it from
this process: one thread, one ``ServiceClient`` connection, closed
loop.  Every answer is checked against a reference computed from the
seeded input.  ``--trace 0`` prints the end-to-end metrics; ``--trace
1`` runs an untraced pass and a traced pass and prints the per-layer
metrics, the tracing overhead and the telemetry cross-check.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is non-zero when any query
or update failed, or when the benchmark could not run.  See README.md
in this directory for every metric.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

#: Passes (set-ups on fresh nodes) per untraced run; ``setup_s`` and
#: the preload rate are their medians.  A set-up without a preload
#: costs well under a second, so the ingest workload repeats it more.
SETUPS = 3
BARE_SETUPS = 9

#: End-to-end metrics: (name, unit).  ``failed_frac`` is printed too
#: but carried in the result line by ``attempted`` and ``failed``.
END_TO_END = [
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_tail_ms", "ms"),
    ("queries_per_s", "1/s"),
    ("updates_per_s", "1/s"),
    ("query_bytes", "B"),
    ("query_round_trips", "count"),
    ("update_bytes", "B"),
    ("server_rss_mb", "MB"),
]

KINDS = ("f2", "range-sum", "inner-product", "heavy-hitters", "point-lookup",
         "range-scan", "predecessor", "successor", "k-largest", "batch")
INGEST_FAMILIES = ("f2", "range-sum", "tree", "heavy-hitters", "two-vector")
PROVER_FAMILIES = ("f2", "range-sum", "inner-product", "heavy-hitters",
                   "tree", "batch", "f2-pool")

PER_LAYER = (
    [("wire.round_trips", "count"), ("wire.call_ms", "ms"),
     ("wire.transit_ms", "ms"), ("protocol.encode_ms", "ms"),
     ("protocol.decode_ms", "ms"), ("protocol.encode_us_per_update", "us"),
     ("protocol.decode_us_per_update", "us"),
     ("client.query_self_ms", "ms"), ("core.verify_ms", "ms")]
    + [("client.kind.%s.ms" % k, "ms") for k in KINDS]
    + [("lde.ingest_us_per_update.%s" % f, "us") for f in INGEST_FAMILIES]
    + [("client.update_wait_us_per_update", "us"),
       ("registry.apply_us_per_update", "us"),
       ("registry.open_query_ms", "ms")]
    + [m for f in PROVER_FAMILIES
       for m in (("prover.%s.ms" % f, "ms"), ("prover.%s.calls" % f,
                                                "count"))]
    + [("field.backend_ms", "ms"),
       ("trace.overhead.query_p50_pct", "%"),
       ("trace.overhead.updates_per_s_pct", "%")]
)


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("interactive-u16", "batch-u20",
                                 "ingest-u20"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_environment() -> None:
    """Clear every ``REPRO_*`` knob before the program is imported."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, os.path.join(ROOT, "src"))


def cpu_ticks():
    """``(steal, total)`` jiffies of all CPUs, from ``/proc/stat``."""
    with open("/proc/stat") as fh:
        fields = [int(x) for x in fh.readline().split()[1:]]
    return fields[7], sum(fields)


def stamp(args, repeats, ticks0) -> dict:
    import numpy

    from repro.field.modular import DEFAULT_FIELD
    from repro.field.vectorized import get_backend

    try:
        from repro.service.pool import resolve_pool_mode
        pool_mode = resolve_pool_mode()
    except ImportError:  # a program without the pool-mode knob
        pool_mode = None

    steal, total = cpu_ticks()
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "commit": commit, "src_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": type(get_backend(DEFAULT_FIELD)).__name__,
        "pool_mode": pool_mode, "repeats": repeats,
        # Share of CPU time the hypervisor gave to other guests during
        # the run: context for a run that reads slow.
        "steal_pct": round(100.0 * (steal - ticks0[0])
                           / max(1, total - ticks0[1]), 2),
    }


# -- end-to-end ----------------------------------------------------------------


def end_to_end(workload, results) -> dict:
    """The end-to-end metrics of one run's passes."""
    from harness import median, tail

    latencies = [x for r in results for x in r.latencies]
    frames = [x for r in results for x in r.query_frames]
    sizes = [x for r in results for x in r.query_bytes]
    streamed = [r for r in results if r.updates]
    # The tail is taken per pass and the median pass reported: a burst
    # of stalls on the box then moves one pass's tail, not the run's.
    tails = sorted(tail(r.latencies) for r in results if r.latencies)
    tail_s, tail_pct, _n = tails[(len(tails) - 1) // 2] if tails \
        else (0.0, 0.0, 0)
    return {
        "setup_s": median([r.setup_s for r in results]),
        "query_p50_ms": median(latencies) * 1e3,
        "query_tail_ms": tail_s * 1e3,
        "queries_per_s": sum(r.queries for r in results)
        / sum(r.loop_s for r in results),
        "updates_per_s": median([r.updates / r.update_s for r in streamed]),
        "query_bytes": _mean(sizes),
        "query_round_trips": _mean(frames) / 2.0,
        "update_bytes": sum(r.update_bytes for r in streamed)
        / sum(r.updates for r in streamed),
        "server_rss_mb": max(r.server_rss_mb for r in results),
        "_tail_percentile": tail_pct,
        "_samples": [len(r.latencies) for r in results if r.latencies],
    }


def _mean(values) -> float:
    """Mean, or 0 when every sample failed (the run is then incorrect)."""
    return sum(values) / len(values) if values else 0.0


def run_passes(workload, reference, args, passes, spans_out=None):
    """``passes`` set-ups, each on a fresh node.

    The timed query loop is split into one window per pass (the loop's
    samples then span the whole run instead of one stretch of it); the
    last pass also streams the ingest volume and runs the check calls.
    """
    from harness import Pass

    share = -(-len(workload.loop) // passes)
    window = args.seconds / passes
    results = []
    for index in range(passes):
        last = index == passes - 1
        p = Pass(workload, reference, args.seed, ROOT,
                 loop=workload.loop[index * share:(index + 1) * share],
                 stream=last and workload.stream is not None, check=last,
                 spans_out=spans_out)
        try:
            p.setup()
            p.timed_phase(window)
            p.check_phase()
        except BaseException:
            p.abort()
            raise
        results.append(p.finish(scrape_stats=spans_out is not None))
    return results


# -- per-layer -----------------------------------------------------------------


class SpanIndex:
    """Spans bucketed by (name, phase), a span's phase being the client
    phase ``(name, start, end)`` its midpoint falls in."""

    def __init__(self, spans, phases):
        self.buckets = {}
        for span in spans:
            mid = (span[1] + span[2]) / 2.0
            phase = next((name for name, t0, t1 in phases
                          if t0 <= mid <= t1), "")
            self.buckets.setdefault((span[0], phase), []).append(span)

    def total(self, name, phase, **attrs) -> float:
        """Seconds spent in spans ``name`` of ``phase`` with ``attrs``."""
        return sum(s[2] - s[1] for s in self.buckets.get((name, phase), ())
                   if all(s[5].get(k) == v for k, v in attrs.items()))


def layer_metrics(workload, traced, untraced_e2e, traced_e2e,
                  client_spans, server_spans) -> dict:
    from harness import median

    client = SpanIndex(client_spans, traced.phases)
    server = SpanIndex(server_spans, traced.phases)
    query_phase = "loop" if workload.loop else "check"
    update_phase = "preload" if workload.preload else "stream"
    q = float(traced.queries)
    n = float(traced.updates)

    def both(name, phase):
        return client.total(name, phase) + server.total(name, phase)

    call = client.total("wire.call", query_phase)
    router = client.total("router.run", query_phase)
    out = {
        "wire.round_trips": _mean(traced.query_frames) / 2.0,
        "wire.call_ms": call / q * 1e3,
        "wire.transit_ms":
            (call - server.total("prover", query_phase)) / q * 1e3,
        "protocol.encode_ms": both("protocol.encode", query_phase) / q * 1e3,
        "protocol.decode_ms": both("protocol.decode", query_phase) / q * 1e3,
        "protocol.encode_us_per_update":
            both("protocol.encode", update_phase) / n * 1e6,
        "protocol.decode_us_per_update":
            both("protocol.decode", update_phase) / n * 1e6,
        "client.query_self_ms": (
            client.total("client.query", query_phase) - router
            - client.total("client.exchange", query_phase)) / q * 1e3,
        "core.verify_ms": (router - call) / q * 1e3,
    }
    for kind in KINDS:
        out["client.kind.%s.ms" % kind] = \
            median(traced.kind_latencies.get(kind, [])) * 1e3
    feed = 0.0
    for family in INGEST_FAMILIES:
        spent = client.total("lde.ingest", update_phase, family=family)
        feed += spent
        out["lde.ingest_us_per_update.%s" % family] = spent / n * 1e6
    out["client.update_wait_us_per_update"] = (
        client.total("client.send_updates", update_phase) - feed
        - client.total("protocol.encode", update_phase)) / n * 1e6
    out["registry.apply_us_per_update"] = \
        server.total("registry.apply", update_phase) / n * 1e6
    out["registry.open_query_ms"] = \
        server.total("registry.open_query", query_phase) / q * 1e3
    for family in PROVER_FAMILIES:
        units = sum(1 for s in server_spans if s[0] == "registry.open_query"
                    and s[5].get("family") == family)
        calls = [s for s in server_spans
                 if s[0] == "prover" and s[5].get("family") == family]
        busy = sum(s[2] - s[1] for s in calls)
        out["prover.%s.ms" % family] = busy / units * 1e3 if units else 0.0
        out["prover.%s.calls" % family] = len(calls) / units if units else 0.0
    out["field.backend_ms"] = \
        server.total("field.backend", query_phase) / q * 1e3
    out["trace.overhead.query_p50_pct"] = (
        traced_e2e["query_p50_ms"] / untraced_e2e["query_p50_ms"] - 1) * 100
    out["trace.overhead.updates_per_s_pct"] = (
        untraced_e2e["updates_per_s"] / traced_e2e["updates_per_s"] - 1) * 100
    return out


def telemetry_failures(traced) -> list:
    """The H_STATS cross-check: the service's own counters must equal
    the benchmark's tallies, and the client's words histogram must sum
    to the words the queries reported."""
    from repro import obs

    problems = []
    registry = traced.stats["registry"]
    if registry["queries_served"] != traced.units:
        problems.append("queries_served %d != %d plan units opened"
                        % (registry["queries_served"], traced.units))
    if registry["updates"] != traced.updates:
        problems.append("server updates %d != %d streamed"
                        % (registry["updates"], traced.updates))
    histograms = obs.get_registry().snapshot()["histograms"]
    words = sum(h["sum"] for key, h in histograms.items()
                if key.startswith("repro_client_query_words{"))
    if words != traced.transcript_words:
        problems.append("repro_client_query_words sum %s != %d"
                        % (words, traced.transcript_words))
    return problems


# -- main ----------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "service",
                                       "__main__.py")):
        print("perfbench: no program to measure under %s"
              % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    pin_environment()
    import spans
    from repro import obs
    from workloads import Reference, make_workload

    ticks0 = cpu_ticks()
    workload = make_workload(args.workload, args.seed, args.seconds, SETUPS)
    reference = Reference(workload.freq_a, workload.freq_b)
    # The inputs are millions of small objects that live for the whole
    # run; keep them out of the collector's scans so they do not slow
    # the client library's own garbage collection.
    gc.collect()
    gc.freeze()
    if args.trace == 0:
        passes = SETUPS if workload.preload else BARE_SETUPS
        results = run_passes(workload, reference, args, passes)
        e2e = end_to_end(workload, results)
        metrics = {name: e2e[name] for name, _unit in END_TO_END}
        units = dict(END_TO_END)
        extra = {"query_tail_percentile": e2e["_tail_percentile"],
                 "query_samples_per_pass": e2e["_samples"]}
    else:
        # The traced node writes its spans here when it stops.
        work = tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT)
        try:
            untraced = run_passes(workload, reference, args, 1)
            obs.set_registry(obs.MetricsRegistry())
            recorder = spans.SpanRecorder()
            spans.install_client_wrappers(recorder)
            spans_out = os.path.join(work, "server-spans.json")
            traced = run_passes(workload, reference, args, 1,
                                spans_out=spans_out)
            with open(spans_out, encoding="utf-8") as fh:
                server_spans = json.load(fh)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        metrics = layer_metrics(
            workload, traced[-1], end_to_end(workload, untraced),
            end_to_end(workload, traced), recorder.spans, server_spans)
        metrics = {name: metrics[name] for name, _unit in PER_LAYER}
        units = dict(PER_LAYER)
        problems = telemetry_failures(traced[-1])
        traced[-1].attempted += 1
        if problems:
            traced[-1].failed += 1
            traced[-1].failures.extend(problems)
        results = untraced + traced
        extra = {"telemetry_check": "ok" if not problems else problems}

    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    print("stamp " + json.dumps(stamp(args, {
        "setups": len(results),
        "queries": sum(r.queries for r in results),
        "updates": sum(r.updates for r in results)}, ticks0),
        sort_keys=True))
    for note in (f for r in results for f in r.failures):
        print("failure: " + note)
    print("%-36s %14s  %s" % ("failed_frac", "%.6f" % (failed / attempted),
                              "ratio"))
    for name, value in metrics.items():
        print("%-36s %14.6g  %s" % (name, value, units[name]))
    for name, value in extra.items():
        print("%-36s %s" % (name, value))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
