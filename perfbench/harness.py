"""One pass of a workload against a real ``python -m repro.service`` node.

A pass is: set-up (spawn the node, open a session, provision the
verifier pools, stream the preload and get it acknowledged), its share
of the timed phase (a closed query loop, or the ingest stream), and on
a run's last pass the untimed check phase.  One thread, one
:class:`ServiceClient` connection; every answer is compared with the
workload's reference.
"""

from __future__ import annotations

import os
import random
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field as dataclass_field
from typing import Dict, List, Optional

from repro.field.modular import DEFAULT_FIELD
from repro.service import NO_RETRY, QueryRouter, ServiceClient

from workloads import Reference, Workload

#: Updates per ``send_updates`` call (the client frames them in
#: ``DEFAULT_BLOCK``-sized UPDATES frames).
SEND_CHUNK = 1 << 16

#: A timed loop taking this many times its nominal window is cut off.
CUTOFF_FACTOR = 6.0

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


class BenchError(RuntimeError):
    """The benchmark could not run (not a failed query)."""


def clean_env(root: str) -> Dict[str, str]:
    """The environment both processes run under: no ``REPRO_*`` knob."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


class ServerProcess:
    """A prover node in its own process, announced on stdout."""

    def __init__(self, root: str, spans_out: Optional[str] = None,
                 boot_timeout: float = 60.0):
        if spans_out is None:
            cmd = [sys.executable, "-m", "repro.service", "--port", "0"]
        else:
            cmd = [sys.executable, os.path.join(BENCH_DIR, "traced_server.py"),
                   "--spans-out", spans_out, "--", "--port", "0"]
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=clean_env(root), stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL)
        deadline = time.monotonic() + boot_timeout
        line = b""
        while not line.startswith(b"REPRO-SERVICE LISTENING"):
            left = deadline - time.monotonic()
            if left <= 0 or self.proc.poll() is not None:
                self.stop()
                raise BenchError("prover node did not announce its address")
            ready, _, _ = select.select([self.proc.stdout], [], [], left)
            if ready:
                line = self.proc.stdout.readline()
        _tag, _listening, host, port = line.decode().split()
        self.host, self.port = host, int(port)

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the node: its peak resident set, in MB."""
        with open("/proc/%d/status" % self.proc.pid) as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the prover node")

    def stop(self, timeout: float = 30.0) -> None:
        """SIGINT (the node's clean shutdown), then wait; kill if stuck."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


@dataclass
class PassResult:
    """Everything one pass measured."""

    setup_s: float = 0.0
    update_s: float = 0.0
    updates: int = 0
    update_bytes: int = 0
    #: Latency (s) of each timed query call; for the ingest workload,
    #: of each check call (it has no timed query loop).
    latencies: List[float] = dataclass_field(default_factory=list)
    query_bytes: List[int] = dataclass_field(default_factory=list)
    query_frames: List[int] = dataclass_field(default_factory=list)
    loop_s: float = 0.0
    queries: int = 0
    #: Single-kind latency samples (s) over every query call, by kind
    #: name; multi-descriptor calls are filed under ``batch``.
    kind_latencies: Dict[str, List[float]] = dataclass_field(
        default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = dataclass_field(default_factory=list)
    server_rss_mb: float = 0.0
    #: ``(phase, start, end)`` on the shared monotonic clock.
    phases: List[tuple] = dataclass_field(default_factory=list)
    #: Plan units opened and transcript words summed, for the
    #: telemetry cross-check.
    units: int = 0
    transcript_words: int = 0
    stats: Optional[dict] = None


class Pass:
    """Runs one workload pass; ``spans_out`` selects the traced node."""

    def __init__(self, workload: Workload, reference: Reference, seed: int,
                 root: str, loop=(), stream: bool = False, check: bool = False,
                 spans_out: Optional[str] = None):
        self.w = workload
        self.ref = reference
        self.seed = seed
        self.root = root
        #: This pass's share of the timed query loop, whether it streams
        #: the timed ingest volume, and whether it runs the check calls.
        self.loop = list(loop)
        self.stream = stream
        self.check = check
        self.spans_out = spans_out
        self.result = PassResult()
        self.server: Optional[ServerProcess] = None
        self.client: Optional[ServiceClient] = None

    # -- set-up --------------------------------------------------------------

    def setup(self) -> None:
        res = self.result
        t0 = time.perf_counter()
        self.server = ServerProcess(self.root, self.spans_out)
        self.client = ServiceClient(
            self.server.host, self.server.port, DEFAULT_FIELD, self.w.u,
            rng=random.Random(self.seed), retry=NO_RETRY, op_timeout=120.0)
        # Every set-up provisions the check phase's pools too, whether
        # or not this pass runs it, so that all set-ups do the same work.
        calls = self.loop + self.w.check
        for key, copies in sorted(self.w.pool_copies(calls).items()):
            self.client.provision(key, copies)
        if self.w.preload:
            self._stream("preload", [(v, pairs, len(pairs))
                                     for v, pairs in self.w.preload])
        res.setup_s = time.perf_counter() - t0

    def _stream(self, phase: str, parts) -> None:
        """Stream ``(vector, base updates, count)`` parts, timed; a part
        longer than its base cycles through it."""
        res = self.result
        client = self.client
        wire0 = client.bytes_sent + client.bytes_received
        t0 = time.perf_counter()
        for vector, base, count in parts:
            sent = 0
            while sent < count:
                start = sent % len(base)
                chunk = base[start : start + min(SEND_CHUNK, count - sent)]
                res.attempted += 1
                try:
                    client.send_updates(chunk, vector=vector)
                except Exception as exc:  # noqa: BLE001 - counted, reported
                    res.failed += 1
                    res.failures.append("%s block: %r" % (phase, exc))
                sent += len(chunk)
            res.updates += count
        t1 = time.perf_counter()
        res.update_s += t1 - t0
        res.update_bytes += client.bytes_sent + client.bytes_received - wire0
        res.phases.append((phase, t0, t1))

    # -- queries -------------------------------------------------------------

    def _query(self, call, record: bool) -> bool:
        """One query call, checked; False if it failed."""
        res = self.result
        client = self.client
        bytes0 = client.bytes_sent + client.bytes_received
        frames0 = client.frames_sent + client.frames_received
        res.attempted += 1
        res.units += len(QueryRouter.plan(list(call)))
        t0 = time.perf_counter()
        try:
            outcomes = client.query(*call)
        except Exception as exc:  # noqa: BLE001 - counted, reported
            res.failed += 1
            res.failures.append("%s: %r" % ([q.name for q in call], exc))
            return False
        elapsed = time.perf_counter() - t0
        wrong = [o.descriptor.name for o in outcomes
                 if not o.result.accepted
                 or not self.ref.check(o.descriptor, o.result.value)]
        res.transcript_words += sum(o.cost.transcript_words
                                    for o in outcomes)
        if wrong:
            res.failed += 1
            res.failures.append("rejected or wrong: %s" % wrong)
            return False
        kind = call[0].name if len(call) == 1 else "batch"
        res.kind_latencies.setdefault(kind, []).append(elapsed)
        if record:
            res.latencies.append(elapsed)
            res.query_bytes.append(
                client.bytes_sent + client.bytes_received - bytes0)
            res.query_frames.append(
                client.frames_sent + client.frames_received - frames0)
        return True

    def timed_phase(self, seconds: float) -> None:
        res = self.result
        if self.stream:
            base, total = self.w.stream
            self._stream("stream", [(0, base, total)])
            return
        if not self.loop:
            return
        t0 = time.perf_counter()
        # The loop is fixed work, so the exact counts repeat for a seed;
        # the cutoff only keeps a pathologically slow program inside the
        # run's time limit.
        deadline = t0 + CUTOFF_FACTOR * seconds
        for call in self.loop:
            if time.perf_counter() >= deadline:
                break
            res.queries += self._query(call, record=True)
        t1 = time.perf_counter()
        res.loop_s = t1 - t0
        res.phases.append(("loop", t0, t1))

    def check_phase(self) -> None:
        if not self.check:
            return
        t0 = time.perf_counter()
        verified = 0
        for call in self.w.check:
            # Ingest has no query loop: its check calls are its queries.
            verified += self._query(call, record=self.stream)
        self.result.phases.append(("check", t0, time.perf_counter()))
        if self.stream:
            self.result.queries = verified
            self.result.loop_s = self.result.phases[-1][2] - t0

    def finish(self, scrape_stats: bool = False) -> PassResult:
        res = self.result
        try:
            if self.client is not None:
                if scrape_stats:
                    res.stats = self.client.stats_json()
                self.client.close()
            if self.server is not None:
                res.server_rss_mb = self.server.peak_rss_mb()
        finally:
            if self.server is not None:
                self.server.stop()
        return res

    def abort(self) -> None:
        """Tear down after an error, without measuring."""
        try:
            if self.client is not None:
                self.client.close()
        finally:
            if self.server is not None:
                self.server.stop()


def median(values):
    return statistics.median(values) if values else 0.0


def tail(samples):
    """The highest nearest-rank percentile with >= 10 samples beyond it.

    That is the sample at rank ``n - 10``, the ``100 (n - 10) / n``-th
    percentile.  With ten or fewer samples no percentile qualifies and
    the maximum (percentile 100) is reported.  Returns
    ``(value, percentile, n)``.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n
