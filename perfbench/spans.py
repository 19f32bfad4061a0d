"""In-memory span recording around the public calls of each layer.

A span is ``(name, start, end, parent, thread, attrs)``: ``start`` and
``end`` come from ``time.perf_counter`` (CLOCK_MONOTONIC on Linux, so
spans of the client and the server process share one clock), ``parent``
is the index of the enclosing span on the same thread (or -1) and
``attrs`` a small dict (query ``ref``, prover family, update count).
Spans stay in a list until the run ends; the server launcher dumps its
list to a JSON file at exit.

Nothing here touches ``src/``: :func:`wrap_method` and
:func:`wrap_function` replace an attribute on a class or module with a
timing shim that calls the original.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import threading
import time


class SpanRecorder:
    """Collects spans from every thread of one process."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name, attrs=None):
        stack = self._stack()
        parent = stack[-1] if stack else -1
        record = [name, time.perf_counter(), 0.0, parent,
                  threading.get_ident(), attrs or {}]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        return index

    def end(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def inside(self, name) -> bool:
        """Is a span called ``name`` open on this thread?"""
        return any(self.spans[i][0] == name for i in self._stack())

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def _shim(recorder, name, fn, attrs_fn, outermost):
    @functools.wraps(fn)
    def timed(*args, **kwargs):
        if outermost and recorder.inside(name):
            return fn(*args, **kwargs)
        attrs = attrs_fn(args, kwargs) if attrs_fn else None
        index = recorder.begin(name, attrs)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.end(index)

    return timed


def wrap_method(recorder, cls, attr, name, attrs_fn=None, outermost=False):
    """Time every call of ``cls.attr`` (defined on ``cls`` itself).

    ``attrs_fn(args, kwargs)`` returns the span's attributes; ``args[0]``
    is the instance.  With ``outermost`` a call made while a span of the
    same name is open (a subclass calling ``super()``, a backend method
    calling another) is not recorded again.
    """
    fn = cls.__dict__[attr]
    if isinstance(fn, staticmethod):
        setattr(cls, attr, staticmethod(
            _shim(recorder, name, fn.__func__, attrs_fn, outermost)))
        return
    setattr(cls, attr, _shim(recorder, name, fn, attrs_fn, outermost))


def wrap_function(recorder, module, attr, name, attrs_fn=None,
                  outermost=False):
    """Time every call of the module-level function ``module.attr``."""
    fn = getattr(module, attr)
    setattr(module, attr, _shim(recorder, name, fn, attrs_fn, outermost))


def public_methods(cls):
    """Names of the public plain methods defined on ``cls`` itself."""
    return sorted(
        name for name, value in vars(cls).items()
        if not name.startswith("_") and callable(value)
        and not isinstance(value, (staticmethod, classmethod, type))
    )


# -- query-side prover families ------------------------------------------------

PROVER_METHODS = (
    "begin_proof", "round_message", "round_messages", "receive_challenge",
    "receive_query", "receive_queries", "receive_batch", "answer_entries",
    "level0_siblings", "claim_predecessor", "claim_successor",
    "claim_kth_largest", "receive_randomness",
)

#: ``(module, class, family)`` in most-derived-first order, so the first
#: ``isinstance`` match names an instance's family.
PROVER_CLASSES = (
    ("repro.distributed.sharded", "DistributedF2Prover", "f2-pool"),
    ("repro.core.multiquery", "BatchedSumcheckEngine", "batch"),
    ("repro.core.subvector", "SubVectorProver", "tree"),
    ("repro.core.heavy_hitters", "HeavyHittersProver", "heavy-hitters"),
    ("repro.core.range_sum", "RangeSumProver", "range-sum"),
    ("repro.core.inner_product", "InnerProductProver", "inner-product"),
    ("repro.core.f2", "F2Prover", "f2"),
)

#: Modules whose prover subclasses must be loaded before wrapping.
PROVER_MODULES = ("repro.core.k_largest", "repro.core.reporting",
                  "repro.service.pool")


def _import(module):
    """The module, or None when this program does not have it (the
    benchmark also measures later commits, which may retire one)."""
    try:
        return importlib.import_module(module)
    except ImportError:
        return None


def prover_classes():
    """``(class, family)`` for the prover classes this program has."""
    found = []
    for module, name, family in PROVER_CLASSES:
        cls = getattr(_import(module), name, None)
        if cls is not None:
            found.append((cls, family))
    return found


def prover_family(prover, classes) -> str:
    for cls, family in classes:
        if isinstance(prover, cls):
            return family
    return type(prover).__name__


def _prover_hierarchy(classes):
    """Every ``repro`` class a prover method can be defined on: the
    family classes, their bases and all their subclasses (the pooled
    F2 planes, the reporting and k-largest tree provers, ...)."""
    for module in PROVER_MODULES:
        _import(module)  # defines its subclasses
    seen = []
    todo = [cls for cls, _family in classes]
    while todo:
        cls = todo.pop()
        if cls in seen or not cls.__module__.startswith("repro."):
            continue
        seen.append(cls)
        todo.extend(inspect.getmro(cls)[1:])
        todo.extend(cls.__subclasses__())
    return seen


def install_server_wrappers(recorder) -> None:
    """Wrap the server-side layers: registry, protocol, prover, backend."""
    from repro.field import vectorized
    from repro.service import protocol, registry

    refs = {}  # id(prover) -> query ref, filled at open_query
    classes = prover_classes()

    open_query = registry.SessionRegistry.open_query

    def traced_open_query(self, *args, **kwargs):
        index = recorder.begin("registry.open_query")
        try:
            active = open_query(self, *args, **kwargs)
        finally:
            recorder.end(index)
        refs[id(active.prover)] = active.ref
        recorder.spans[index][5].update(
            ref=active.ref, family=prover_family(active.prover, classes))
        return active

    registry.SessionRegistry.open_query = traced_open_query
    wrap_method(recorder, registry.Dataset, "apply", "registry.apply",
                attrs_fn=lambda a, k: {"n": len(a[2])})
    _wrap_protocol(recorder, protocol)

    for cls_ in _prover_hierarchy(classes):
        for method in PROVER_METHODS:
            if method not in vars(cls_):
                continue
            wrap_method(
                recorder, cls_, method, "prover",
                attrs_fn=lambda a, k, m=method: {
                    "ref": refs.get(id(a[0]), 0),
                    "family": prover_family(a[0], classes),
                    "method": m,
                },
                outermost=True,
            )
    backends = [vectorized.ScalarBackend]
    if getattr(vectorized, "HAVE_NUMPY", False):
        backends.append(vectorized.VectorizedField)
    for cls in backends:
        for method in public_methods(cls):
            wrap_method(recorder, cls, method, "field.backend",
                        outermost=True)


def _wrap_protocol(recorder, protocol) -> None:
    for attr in ("pack_frame", "words_payload", "updates_payload"):
        wrap_function(recorder, protocol, attr, "protocol.encode",
                      outermost=True)
    for attr in ("parse_words", "parse_updates"):
        wrap_function(recorder, protocol, attr, "protocol.decode",
                      outermost=True)


def install_client_wrappers(recorder) -> None:
    """Wrap the client-side layers: query, protocol run, proxies, ingest."""
    from repro.core import heavy_hitters, multiquery, subvector
    from repro.service import client, protocol, router
    from repro.service import protocol as sp

    wrap_method(recorder, client.ServiceClient, "query", "client.query",
                attrs_fn=lambda a, k: {"kinds": [q.name for q in a[1:]]})
    wrap_method(recorder, client.ServiceClient, "send_updates",
                "client.send_updates",
                attrs_fn=lambda a, k: {"n": len(a[1])})
    wrap_method(recorder, router.QueryRouter, "run", "router.run")

    # The query open/close exchanges have no public function of their
    # own: time the frame round trip for those two frame types only.
    request = client.ServiceClient._request
    exchange_types = (sp.T_QUERY_OPEN, sp.T_QUERY_CLOSE)

    def traced_request(self, frame_type, *args, **kwargs):
        if frame_type not in exchange_types:
            return request(self, frame_type, *args, **kwargs)
        index = recorder.begin("client.exchange")
        try:
            return request(self, frame_type, *args, **kwargs)
        finally:
            recorder.end(index)

    client.ServiceClient._request = traced_request

    for name in dir(client):
        cls = getattr(client, name)
        if (name.startswith("Remote") and isinstance(cls, type)
                and cls.__module__ == client.__name__):
            for method in public_methods(cls):
                wrap_method(recorder, cls, method, "wire.call",
                            attrs_fn=lambda a, k: {"ref": a[0]._ref})

    # Verifier ingest, attributed to the pool family that owns the LDEs.
    families = {}  # id(lde) -> pool family

    make_verifier = router.QueryRouter.make_verifier

    def tracking_make_verifier(pool_key, *args, **kwargs):
        verifier = make_verifier(pool_key, *args, **kwargs)
        if pool_key[0] in ("inner-product", "batch"):
            families[id(verifier.lde_a)] = "two-vector"
            families[id(verifier.lde_b)] = "two-vector"
        elif hasattr(verifier, "lde"):
            families[id(verifier.lde)] = pool_key[0]
        return verifier

    router.QueryRouter.make_verifier = staticmethod(tracking_make_verifier)

    def lde_family(args, kwargs):
        ldes = args[0]
        return {"family": families.get(id(ldes[0]), "other") if ldes
                else "other", "n": len(args[1])}

    for module in (client, multiquery):
        if hasattr(module, "apply_stream_batched"):
            wrap_function(recorder, module, "apply_stream_batched",
                          "lde.ingest", attrs_fn=lde_family, outermost=True)
    for cls, family in ((subvector.TreeHashVerifier, "tree"),
                        (heavy_hitters.HeavyHittersVerifier,
                         "heavy-hitters")):
        if "process_stream_batched" in vars(cls):
            wrap_method(recorder, cls, "process_stream_batched",
                        "lde.ingest", outermost=True,
                        attrs_fn=lambda a, k, f=family: {"family": f,
                                                         "n": len(a[1])})
    _wrap_protocol(recorder, protocol)
