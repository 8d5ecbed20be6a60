"""Layer spans and call counts, recorded from outside the program.

:class:`Tracer` replaces the public entry points of each ``repro``
module with wrappers that record one span per call: layer, op, host
time, simulated start and end, parent span and request id.  A generator
entry point (every time-advancing call) is timed per resumption and the
host times are summed, because other ranks run between its resumptions.
A span's host *self* time is its host time minus the host time of the
spans that ran inside it.  Spans live in typed arrays and are written
once, by :meth:`Tracer.save`, after the run.

:func:`count_calls` is the separate counted run: ``cProfile`` call
counts of the run, summed by ``repro`` package.  Counts are exact.
"""

from __future__ import annotations

import contextlib
import cProfile
import inspect
import time
from array import array
from pathlib import Path

import numpy as np

from repro.serve.slo import exact_percentiles

LAYERS = ("sim", "machine", "dmapp", "xpmem", "mem", "rma", "runtime",
          "mpi1", "apps", "serve", "scale")

#: Window calls whose simulated duration is synchronization wait.
SYNC_OPS = frozenset(f"Window.{n}" for n in (
    "fence", "post", "start", "complete", "wait", "lock", "unlock",
    "lock_all", "unlock_all", "flush", "flush_local", "sync"))

#: DMAPP calls that return a handle with a remote-completion time.
DMAPP_ISSUE_OPS = frozenset(f"DmappEndpoint.{n}" for n in (
    "put_nbi", "get_nbi", "amo_nbi", "amo_custom_nbi", "amo_stream_nbi"))


@contextlib.contextmanager
def patched(owner, name: str, value):
    """Temporarily set ``owner.name`` (a module or class attribute)."""
    old = vars(owner)[name]
    setattr(owner, name, value)
    try:
        yield
    finally:
        setattr(owner, name, old)


def percentile(samples, q: float):
    """Nearest-rank ``q``-th percentile, or None unless at least ten
    samples lie beyond it."""
    n = len(samples)
    if n == 0 or n * (1.0 - q / 100.0) < 10:
        return None
    return exact_percentiles(samples, (("q", q),))["q"]


def _nbytes(obj) -> int:
    return np.asarray(obj).nbytes


def _targets():
    """(layer, owner, attribute, request-root, bytes-of-args) per entry
    point.  ``request-root`` spans start a new request id; the others
    inherit their parent's."""
    from repro.apps.hashtable import rma_ht
    from repro.apps.kvstore.rma_kv import KvStore
    from repro.apps.milc import driver as milc_driver
    from repro.apps.milc.comm import RmaHalo
    from repro.apps.milc.su3 import StencilOperator
    from repro.dmapp.api import DmappEndpoint
    from repro.machine.network import Network
    from repro.mem.address_space import Segment
    from repro.mem.atomic import AtomicArray, SegmentCells
    from repro.mpi1.pt2pt import Mpi1Endpoint, Request, wire_size
    from repro.rma.mcs import McsLock
    from repro.rma.window import Window
    from repro.runtime.collectives import Collectives
    from repro.scale import hybrid, protocols
    from repro.scale.soa import AggregateSoA, ScaleCounters
    from repro.serve import driver as serve_driver
    from repro.sim.kernel import Environment
    from repro.xpmem.api import XpmemEndpoint

    def isend_bytes(a, k):
        n = a[5] if len(a) > 5 else k.get("nbytes")
        return wire_size(a[2] if len(a) > 2 else k["payload"]) \
            if n is None else int(n)

    out = [("sim", Environment, "run", False, None),
           ("machine", Network, "packet", False,
            lambda a, k: a[3] if len(a) > 3 else k["nbytes"])]
    for name in ("put_nbi", "get_nbi", "amo_nbi", "amo_custom_nbi",
                 "amo_stream_nbi", "wait", "gsync"):
        out.append(("dmapp", DmappEndpoint, name, False, None))
    out += [("xpmem", XpmemEndpoint, "store", False,
             lambda a, k: _nbytes(a[3])),
            ("xpmem", XpmemEndpoint, "load", False, lambda a, k: a[3])]
    for name in ("amo", "amo_custom", "amo_stream"):
        out.append(("xpmem", XpmemEndpoint, name, False, None))
    out += [("mem", Segment, "write", False, lambda a, k: _nbytes(a[2])),
            ("mem", Segment, "read", False, lambda a, k: a[2]),
            ("mem", Segment, "read_into", False, lambda a, k: len(a[2])),
            ("mem", Segment, "read_bytes", False, lambda a, k: a[2])]
    for cls in (AtomicArray, SegmentCells):
        for name in ("cas", "apply"):
            out.append(("mem", cls, name, False, None))
    for name in ("put", "get", "accumulate", "get_accumulate",
                 "fetch_and_op", "compare_and_swap", "fence", "post",
                 "start", "complete", "wait", "lock", "unlock", "lock_all",
                 "unlock_all", "flush", "flush_local", "sync"):
        out.append(("rma", Window, name, False, None))
    out += [("rma", McsLock, "acquire", False, None),
            ("rma", McsLock, "release", False, None)]
    for name in ("barrier", "bcast", "allreduce", "allgather",
                 "reduce_scatter_block", "alltoall"):
        out.append(("runtime", Collectives, name, False, None))
    out += [("mpi1", Mpi1Endpoint, "isend", False, isend_bytes),
            ("mpi1", Mpi1Endpoint, "irecv", False, None),
            ("mpi1", Request, "wait", False, None),
            ("apps", rma_ht, "rma_insert_program", False, None),
            ("apps", rma_ht, "rma_insert", True, None),
            ("apps", milc_driver, "milc_program", False, None),
            ("apps", RmaHalo, "exchange", True, None),
            ("apps", StencilOperator, "apply", False, None)]
    for name in ("get", "put", "update"):
        out.append(("apps", KvStore, name, True, None))
    out += [("serve", serve_driver, "kv_serve_program", False, None),
            ("serve", serve_driver, "client_schedule", False, None),
            ("scale", hybrid, "sample_ranks", False, None),
            ("scale", hybrid, "_check_tier_parity", False, None),
            ("scale", AggregateSoA, "__init__", False, None),
            ("scale", ScaleCounters, "__init__", False, None),
            ("scale", ScaleCounters, "snapshot", False, None)]
    for name in ("model_counts", "preapply_aggregates", "release_aggregates",
                 "check_invariants", "olog_violations", "olog_bounds",
                 "sampled_program"):
        out.append(("scale", protocols, name, False, None))
    return out


class Tracer:
    """In-memory span recorder; use as a context manager around a run."""

    def __init__(self) -> None:
        self.op_names: list[str] = []
        self.op_layer: list[int] = []
        self.layer = array("b")
        self.op = array("i")
        self.host = array("d")
        self.child = array("d")
        self.t0 = array("q")
        self.t1 = array("q")
        self.parent = array("i")
        self.req = array("i")
        self.nbytes = array("q")
        self.stack: list[int] = []
        self.env = None
        self.next_req = 0
        self.dmapp_sim_ns = array("q")   # issue -> remote completion
        self.cas_tries = 0
        self.cas_hits = 0
        self._patches = contextlib.ExitStack()

    # -- recording -------------------------------------------------------
    def _now(self) -> int:
        return self.env.now if self.env is not None else 0

    def _open(self, oid: int, request: bool, nbytes: int) -> int:
        sid = len(self.host)
        parent = self.stack[-1] if self.stack else -1
        if request:
            req = self.next_req
            self.next_req += 1
        else:
            req = self.req[parent] if parent >= 0 else -1
        self.layer.append(self.op_layer[oid])
        self.op.append(oid)
        self.host.append(0.0)
        self.child.append(0.0)
        now = self._now()
        self.t0.append(now)
        self.t1.append(now)
        self.parent.append(parent)
        self.req.append(req)
        self.nbytes.append(int(nbytes))
        return sid

    def _pause(self, sid: int, started: float) -> None:
        dt = time.perf_counter() - started
        self.stack.pop()
        self.host[sid] += dt
        if self.stack:
            self.child[self.stack[-1]] += dt
        self.t1[sid] = self._now()

    def _observe(self, name: str, sid: int, args, result) -> None:
        if name in DMAPP_ISSUE_OPS:
            self.dmapp_sim_ns.append(result.remote_complete - self.t0[sid])
        elif name == "Window.compare_and_swap":
            self.cas_tries += 1
            self.cas_hits += int(result) == int(args[1])

    def _wrap(self, fn, oid: int, request: bool, nbytes_of):
        name = self.op_names[oid]
        observe = name in DMAPP_ISSUE_OPS or name == "Window.compare_and_swap"
        stack, perf = self.stack, time.perf_counter

        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                sid = self._open(oid, request,
                                 nbytes_of(args, kwargs) if nbytes_of else 0)
                send, exc = None, None
                while True:
                    stack.append(sid)
                    started = perf()
                    try:
                        out = gen.send(send) if exc is None else gen.throw(exc)
                    except StopIteration as stop:
                        self._pause(sid, started)
                        if observe:
                            self._observe(name, sid, args, stop.value)
                        return stop.value
                    except BaseException:
                        self._pause(sid, started)
                        raise
                    self._pause(sid, started)
                    try:
                        send, exc = (yield out), None
                    except GeneratorExit:
                        gen.close()
                        raise
                    except BaseException as err:  # delivered into gen
                        send, exc = None, err
            return gen_wrapper

        def fn_wrapper(*args, **kwargs):
            if name == "Environment.run":
                self.env = args[0]
            sid = self._open(oid, request,
                             nbytes_of(args, kwargs) if nbytes_of else 0)
            stack.append(sid)
            started = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                self._pause(sid, started)
        return fn_wrapper

    def __enter__(self) -> "Tracer":
        for layer, owner, attr, request, nbytes_of in _targets():
            oid = len(self.op_names)
            qual = owner.__name__.rsplit(".", 1)[-1]
            self.op_names.append(f"{qual}.{attr}")
            self.op_layer.append(LAYERS.index(layer))
            self._patches.enter_context(patched(
                owner, attr,
                self._wrap(vars(owner)[attr], oid, request, nbytes_of)))
        return self

    def __exit__(self, *exc) -> None:
        self._patches.close()
        self.env = None

    # -- results ---------------------------------------------------------
    def columns(self) -> dict[str, np.ndarray]:
        return {
            "layer": np.frombuffer(self.layer, dtype=np.int8),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "host_s": np.frombuffer(self.host, dtype=np.float64),
            "child_s": np.frombuffer(self.child, dtype=np.float64),
            "sim_start_ns": np.frombuffer(self.t0, dtype=np.int64),
            "sim_end_ns": np.frombuffer(self.t1, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "request": np.frombuffer(self.req, dtype=np.int32),
            "nbytes": np.frombuffer(self.nbytes, dtype=np.int64),
        }

    def unattributed(self, total_s: float) -> float:
        """Share of ``total_s`` host seconds outside every root span."""
        c = self.columns()
        covered = float(c["host_s"][c["parent"] < 0].sum())
        return 1.0 - covered / total_s

    def save(self, path: Path) -> None:
        """Write every span (one row each) as a compressed ``.npz``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, layers=np.array(LAYERS),
                            op_names=np.array(self.op_names),
                            **self.columns())


def count_calls(run, src_root: Path):
    """Run ``run()`` under cProfile; returns (result, calls by layer).

    Only functions defined under ``src_root/repro/<layer>/`` count;
    generator resumptions count as calls, as cProfile reports them."""
    prof = cProfile.Profile()
    prof.enable()
    try:
        result = run()
    finally:
        prof.disable()
    prefix = str(src_root / "repro") + "/"
    calls = dict.fromkeys(LAYERS, 0)
    for entry in prof.getstats():
        path = getattr(entry.code, "co_filename", "")
        if path.startswith(prefix):
            layer = path[len(prefix):].split("/", 1)[0]
            if layer in calls:
                calls[layer] += entry.callcount
    return result, calls


def _pct_us(samples, q: float) -> float:
    value = percentile(samples, q)
    return 0.0 if value is None else float(value) / 1e3


#: dmapp kinds reported one by one (``OpCounters.by_kind`` names).
DMAPP_KINDS = ("put", "get", "amo:cas", "amo:add", "amo:replace")


def layer_metrics(tracer: Tracer, out, calls: dict, ops: int) -> dict:
    """Per-layer metrics of one traced run (``out`` is the untraced
    run's :class:`~workloads.Outcome`, ``calls`` the counted run's
    Python calls by layer)."""
    c = tracer.columns()
    op, layer, parent = c["op"], c["layer"], c["parent"]
    ids = {name: i for i, name in enumerate(tracer.op_names)}
    self_s = np.bincount(layer, weights=c["host_s"] - c["child_s"],
                         minlength=len(LAYERS))
    sim_ns = c["sim_end_ns"] - c["sim_start_ns"]
    parent_op = np.where(parent >= 0, op[np.maximum(parent, 0)], -1)

    def mask(names) -> np.ndarray:
        return np.isin(op, [ids[n] for n in names])

    def top(names) -> np.ndarray:
        """Spans of ``names`` not nested in another one of them."""
        sel = [ids[n] for n in names]
        return np.isin(op, sel) & ~np.isin(parent_op, sel)

    def named(prefix: str) -> list[str]:
        return [n for n in tracer.op_names if n.startswith(prefix)]

    by_kind = out.stats.get("by_kind", {})

    def kinds(pred) -> int:
        return sum(n for k, n in by_kind.items() if pred(k))

    packets = mask(["Network.packet"])
    sends = mask(["Mpi1Endpoint.isend"])
    xpmem_io = mask(["XpmemEndpoint.store", "XpmemEndpoint.load"])
    mem_io = mask(["Segment.write", "Segment.read", "Segment.read_into",
                   "Segment.read_bytes"])
    acquires = mask(["McsLock.acquire"])
    sync = top(sorted(SYNC_OPS))
    coll = top(named("Collectives."))
    dmapp_kind = (lambda k: k in ("put", "get") or k.startswith("amo"))
    m = {f"{name}.host_self_s": float(self_s[i])
         for i, name in enumerate(LAYERS)}
    m.update({f"{name}.py_calls_per_op": calls[name] / ops
              for name in LAYERS})
    m.update({
        "sim.events_per_op": out.sim["events"] / ops,
        "machine.packets_per_op": int(packets.sum()) / ops,
        "machine.bytes_per_op": int(c["nbytes"][packets].sum()) / ops,
        "dmapp.ops_per_op": kinds(dmapp_kind) / ops,
        "dmapp.op_sim_us_p50": _pct_us(tracer.dmapp_sim_ns, 50),
        "rma.api_calls_per_op": int(mask(named("Window.")).sum()) / ops,
        "rma.sync_wait_us": int(sim_ns[sync].sum()) / ops / 1e3,
        "rma.mcs_acquires_per_op": int(acquires.sum()) / ops,
        "rma.mcs_wait_us_p50": _pct_us(sim_ns[acquires], 50),
        "rma.mcs_wait_us_p99": _pct_us(sim_ns[acquires], 99),
        "rma.cas_success_ratio": (tracer.cas_hits / tracer.cas_tries
                                  if tracer.cas_tries else 0.0),
        "xpmem.ops_per_op": kinds(lambda k: k.startswith(
            ("xpmem-", "cpu-amo"))) / ops,
        "xpmem.bytes_per_op": int(c["nbytes"][xpmem_io].sum()) / ops,
        "mem.bytes_copied_per_op": int(c["nbytes"][mem_io].sum()) / ops,
        "runtime.coll_per_op": int(coll.sum()) / ops,
        "runtime.coll_wait_us": int(sim_ns[coll].sum()) / ops / 1e3,
        "mpi1.messages_per_op": kinds(
            lambda k: k.startswith("mpi1-")) / ops,
        "mpi1.bytes_per_op": int(c["nbytes"][sends].sum()) / ops,
        "apps.overflow_ratio": out.layer.get("overflow_ratio", 0.0),
        "serve.queue_us_p50": out.layer.get("queue_us_p50", 0.0),
        "serve.queue_us_p99": out.layer.get("queue_us_p99", 0.0),
        "serve.service_us_p99": out.layer.get("service_us_p99", 0.0),
        "scale.soa_mb": out.layer.get("soa_mb", 0.0),
        "scale.sampled_ranks": out.layer.get("sampled_ranks", 0),
        "scale.messages": out.layer.get("messages", 0),
    })
    for kind in DMAPP_KINDS:
        m[f"dmapp.ops_per_op.{kind.replace(':', '_')}"] = \
            by_kind.get(kind, 0) / ops
    return m
