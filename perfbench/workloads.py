"""Seeded inputs, query sequences and reference answers per workload.

Everything a run sends to the service is made here from ``--seed``; the
service receives only the generated updates and query descriptors.  The
reference answers are computed independently of the library, from the
frequency vectors with NumPy, so every verified answer can be checked.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field as dataclass_field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.service import router as r
from repro.streams.generators import uniform_frequency_stream, zipf_stream

#: The Mersenne prime every answer is reduced modulo (the service field).
P = (1 << 61) - 1

#: Nominal rates of the parent commit on a 2-core box.  They size the
#: timed phase's fixed work (the query loop, whose verifier pools hold
#: one independent copy per query, and the ingest volume) so that it
#: takes about ``--seconds`` there; a faster program finishes sooner.
INTERACTIVE_CYCLES_PER_S = 8.0
BATCH_QUERIES_PER_S = 0.55
INGEST_UPDATES_PER_S = 210_000

#: Zipf base sequence, cycled to the ingest volume (``zipf_stream``
#: spends ~10 us per update in pure Python, too slow for millions).
ZIPF_BASE_UPDATES = 1 << 17

QueryCall = Tuple[r.QueryDescriptor, ...]


@dataclass
class Workload:
    """One run's inputs: the stream, the query calls, the pool copies."""

    u: int
    #: ``[(vector, updates)]`` streamed during set-up (the preload).
    preload: List[Tuple[int, List[Tuple[int, int]]]]
    #: The timed phase's stream: ``(base updates, total count)`` cycled
    #: through the base sequence; ``None`` when the timed phase queries.
    stream: Optional[Tuple[List[Tuple[int, int]], int]]
    #: The timed phase's closed-loop query calls, in order (may be
    #: empty); the loop stops at ``--seconds`` or when they run out.
    loop: List[QueryCall]
    #: Untimed query calls after the timed phase: one of every kind,
    #: so every answer path and every layer is checked on every
    #: workload.
    check: List[QueryCall]
    freq_a: np.ndarray = dataclass_field(default=None)
    freq_b: np.ndarray = dataclass_field(default=None)

    @staticmethod
    def pool_copies(calls: Sequence[QueryCall]) -> Dict[Tuple, int]:
        """One verifier copy per plan unit of every query call."""
        copies: Dict[Tuple, int] = {}
        for call in calls:
            for unit in r.QueryRouter.plan(list(call)):
                copies[unit.pool_key] = copies.get(unit.pool_key, 0) + 1
        return copies


def _split(nominal: float, passes: int) -> int:
    """``nominal`` rounded up to a positive multiple of ``passes``."""
    return passes * max(1, math.ceil(nominal / passes))


def _section5_stream(u: int, rng: random.Random) -> List[Tuple[int, int]]:
    """The paper's Section 5 data: u = n, counts uniform in [0, 1000]."""
    return list(uniform_frequency_stream(u, rng=rng))


def _dense(u: int, pairs: Sequence[Tuple[int, int]]) -> np.ndarray:
    freq = np.zeros(u, dtype=np.int64)
    if pairs:
        keys, deltas = zip(*pairs)
        np.add.at(freq, np.asarray(keys, dtype=np.int64),
                  np.asarray(deltas, dtype=np.int64))
    return freq


def _range(rng: random.Random, u: int) -> Tuple[int, int]:
    lo = rng.randrange(u)
    return lo, rng.randrange(lo, u)


def single_shot_cycle(rng: random.Random, u: int) -> List[QueryCall]:
    """One of each single-shot query kind, with seeded parameters."""
    lo, hi = _range(rng, u)
    scan = rng.randrange(u - 64)
    return [
        (r.f2(),),
        (r.range_sum(lo, hi),),
        (r.inner_product(),),
        (r.heavy_hitters(1, 100),),
        (r.point_lookup(rng.randrange(u)),),
        (r.range_scan(scan, scan + 63),),
        (r.predecessor(rng.randrange(u)),),
        (r.successor(rng.randrange(u)),),
        (r.k_largest(3),),
    ]


def mixed_batch(rng: random.Random, u: int) -> QueryCall:
    """An 8-member sum-check batch plus one worker-pool F2."""
    ranges = [r.range_sum(*_range(rng, u)) for _ in range(5)]
    return tuple(ranges) + (r.fk(3), r.f2(), r.inner_product(),
                            r.f2(workers=2))


def make_workload(name: str, seed: int, seconds: float,
                  passes: int) -> Workload:
    """The seeded inputs; the query loop splits evenly into ``passes``."""
    rng = random.Random(seed)
    if name == "interactive-u16":
        u = 1 << 16
        a = _section5_stream(u, random.Random(rng.getrandbits(64)))
        b = _section5_stream(u, random.Random(rng.getrandbits(64)))
        cycles = _split(seconds * INTERACTIVE_CYCLES_PER_S, passes)
        queries = random.Random(rng.getrandbits(64))
        loop = [call for _ in range(cycles)
                for call in single_shot_cycle(queries, u)]
        check = single_shot_cycle(queries, u) + [mixed_batch(queries, u)]
        w = Workload(u, [(0, a), (1, b)], None, loop, check)
        w.freq_a, w.freq_b = _dense(u, a), _dense(u, b)
        return w
    if name == "batch-u20":
        u = 1 << 20
        a = _section5_stream(u, random.Random(rng.getrandbits(64)))
        b = _section5_stream(u, random.Random(rng.getrandbits(64)))
        count = _split(seconds * BATCH_QUERIES_PER_S, passes)
        queries = random.Random(rng.getrandbits(64))
        loop = [mixed_batch(queries, u) for _ in range(count)]
        check = single_shot_cycle(queries, u) + [mixed_batch(queries, u)]
        w = Workload(u, [(0, a), (1, b)], None, loop, check)
        w.freq_a, w.freq_b = _dense(u, a), _dense(u, b)
        return w
    if name == "ingest-u20":
        u = 1 << 20
        base = list(zipf_stream(u, ZIPF_BASE_UPDATES, skew=1.1,
                                rng=random.Random(rng.getrandbits(64))))
        total = max(len(base), int(seconds * INGEST_UPDATES_PER_S))
        queries = random.Random(rng.getrandbits(64))
        check = single_shot_cycle(queries, u) + [mixed_batch(queries, u)]
        w = Workload(u, [], (base, total), [], check)
        reps, rest = divmod(total, len(base))
        w.freq_a = _dense(u, base) * reps + _dense(u, base[:rest])
        w.freq_b = np.zeros(u, dtype=np.int64)
        return w
    raise ValueError("unknown workload %r" % name)


# -- reference answers ---------------------------------------------------------


class Reference:
    """Answers computed from the frequency vectors, not by the library."""

    def __init__(self, freq_a: np.ndarray, freq_b: np.ndarray):
        self.a = freq_a
        self.b = freq_b
        self.present = np.flatnonzero(freq_a)
        self.prefix = np.concatenate(([0], np.cumsum(freq_a)))
        self._moments: Dict[int, int] = {}

    def moment(self, k: int) -> int:
        if k not in self._moments:
            values = self.a[self.present].tolist()
            self._moments[k] = sum(v ** k for v in values) % P
        return self._moments[k]

    def answer(self, q: r.QueryDescriptor):
        kind, params = q.kind, q.params
        if kind == r.KIND_F2:
            return self.moment(2)
        if kind == r.KIND_FK:
            return self.moment(params[0])
        if kind == r.KIND_INNER_PRODUCT:
            return int(np.dot(self.a, self.b)) % P
        if kind == r.KIND_RANGE_SUM:
            lo, hi = params
            return int(self.prefix[hi + 1] - self.prefix[lo]) % P
        if kind == r.KIND_POINT_LOOKUP:
            return int(self.a[params[0]])
        if kind == r.KIND_RANGE_SCAN:
            lo, hi = params
            keys = self.present[(self.present >= lo) & (self.present <= hi)]
            return tuple((int(k), int(self.a[k])) for k in keys)
        if kind == r.KIND_PREDECESSOR:
            at = int(np.searchsorted(self.present, params[0], "right")) - 1
            return int(self.present[at]) if at >= 0 else None
        if kind == r.KIND_SUCCESSOR:
            at = int(np.searchsorted(self.present, params[0], "left"))
            return int(self.present[at]) if at < len(self.present) else None
        if kind == r.KIND_K_LARGEST:
            k = params[0]
            return int(self.present[-k]) if len(self.present) >= k else None
        if kind == r.KIND_HEAVY_HITTERS:
            num, den = params
            n = int(self.a.sum())
            tau = max(1, math.ceil((num / den) * n))
            keys = np.flatnonzero(self.a >= tau)
            return {int(k): int(self.a[k]) for k in keys}
        raise ValueError("no reference for kind %r" % kind)

    def check(self, q: r.QueryDescriptor, value) -> bool:
        """Does a verified answer equal the reference answer?"""
        expected = self.answer(q)
        if q.kind in (r.KIND_F2, r.KIND_FK, r.KIND_INNER_PRODUCT,
                      r.KIND_RANGE_SUM):
            return isinstance(value, int) and value % P == expected
        if q.kind == r.KIND_RANGE_SCAN:
            return tuple(value.entries) == expected
        return value == expected
