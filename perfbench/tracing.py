"""Outside-in per-layer tracing: timing wrappers on each layer's entry points.

The simulator is not modified.  :class:`Tracer` replaces the public entry
points listed in :data:`PROBES` with wrappers that record spans (name,
start, end, parent, op id) and restores the originals on
:meth:`Tracer.uninstall`.  Self time is a span's duration minus its child
spans' durations; a layer's self time is the sum over its entry points.

Capture rules the simulator imposes:

* ``DirectEngine`` and ``ReplayFrontend`` bind ``Clock.charge``,
  ``Cpu.access_run`` and ``Mmu.probe_run`` when they are constructed, so
  the tracer must be installed before any system boots.
* ``repro.modelcheck.explorer`` captures its domain functions at import
  time; the explore workload routes them through a ``domain_for`` shim
  that resolves the module attributes at call time, so wrappers on
  ``model.successor`` and friends take effect whenever they are
  installed.
"""

from __future__ import annotations

import importlib
import pstats
import time
from collections import defaultdict

LAYERS = ("apps", "core", "sgx", "host", "runtime", "recovery", "service",
          "modelcheck")

#: ``(module, attribute path, layer, mode)``; mode is ``span``, ``root``
#: (a span that starts a new op id unless another root span is open) or
#: ``count`` (call count only, no timing).
PROBES = (
    ("repro.apps.memcached", "Memcached.serve", "apps", "span"),
    ("repro.apps.memcached", "Memcached.get", "apps", "root"),
    ("repro.apps.memcached", "Memcached.set", "apps", "root"),
    ("repro.core.system", "DirectEngine.replay", "core", "span"),
    ("repro.core.system", "DirectEngine.data_access", "core", "span"),
    ("repro.core.system", "DirectEngine.data_access_run", "core", "span"),
    ("repro.core.system", "DirectEngine.progress", "core", "span"),
    ("repro.core.system", "DirectEngine.compute", "core", "span"),
    ("repro.sgx.columnar", "ReplayFrontend.replay", "sgx", "span"),
    ("repro.sgx.columnar", "ColumnarEngine.execute", "sgx", "span"),
    ("repro.sgx.columnar", "PageRun.__init__", "sgx", "count"),
    ("repro.sgx.cpu", "Cpu.access", "sgx", "span"),
    ("repro.sgx.cpu", "Cpu.access_run", "sgx", "span"),
    ("repro.sgx.cpu", "Cpu.deliver_fault", "sgx", "span"),
    ("repro.sgx.mmu", "Mmu.probe_run", "sgx", "span"),
    ("repro.sgx.mmu", "Mmu.translate_nofault", "sgx", "span"),
    ("repro.sgx.cpu", "Cpu.eenter", "sgx", "span"),
    ("repro.sgx.cpu", "Cpu.eresume", "sgx", "span"),
    ("repro.sgx.cpu", "Cpu.interrupt", "sgx", "span"),
    ("repro.sgx.cpu", "Cpu.resume_from_interrupt", "sgx", "span"),
    ("repro.sgx.instructions", "SgxInstructions.ewb", "sgx", "span"),
    ("repro.sgx.instructions", "SgxInstructions.eldu", "sgx", "span"),
    ("repro.sgx.instructions", "SgxInstructions.ecreate", "sgx", "span"),
    ("repro.sgx.instructions", "SgxInstructions.eadd", "sgx", "span"),
    ("repro.sgx.instructions", "SgxInstructions.einit", "sgx", "span"),
    ("repro.sgx.instructions", "SgxInstructions.eblock", "sgx", "span"),
    ("repro.sgx.instructions", "SgxInstructions.eaug", "sgx", "span"),
    ("repro.sgx.instructions", "SgxInstructions.eaccept", "sgx", "span"),
    ("repro.sgx.instructions", "SgxInstructions.emodpr", "sgx", "span"),
    ("repro.sgx.instructions", "SgxInstructions.eremove", "sgx", "span"),
    ("repro.sgx.pagetable", "PageTable.map", "sgx", "span"),
    ("repro.sgx.pagetable", "PageTable.unmap", "sgx", "span"),
    ("repro.sgx.pagetable", "PageTable.drop", "sgx", "span"),
    ("repro.sgx.epc", "EpcAllocator.alloc", "sgx", "span"),
    ("repro.sgx.epc", "EpcAllocator.free", "sgx", "span"),
    ("repro.sgx.crypto", "PagingCrypto.seal", "sgx", "span"),
    ("repro.sgx.crypto", "PagingCrypto.unseal", "sgx", "span"),
    ("repro.host.kernel", "HostKernel.syscall", "host", "span"),
    ("repro.host.kernel", "HostKernel.on_enclave_fault", "host", "span"),
    ("repro.host.driver", "SgxDriver.ay_fetch_pages", "host", "span"),
    ("repro.host.driver", "SgxDriver.ay_evict_pages", "host", "span"),
    ("repro.host.driver", "SgxDriver.os_resolve", "host", "span"),
    ("repro.host.driver", "SgxDriver.suspend_enclave", "host", "span"),
    ("repro.host.driver", "SgxDriver.resume_enclave", "host", "span"),
    ("repro.runtime.libos", "GrapheneRuntime.handle_fault", "runtime", "span"),
    ("repro.runtime.libos", "GrapheneRuntime.progress", "runtime", "span"),
    ("repro.runtime.self_paging", "SelfPager.fetch_unit", "runtime", "span"),
    ("repro.runtime.self_paging", "SelfPager.make_room", "runtime", "span"),
    ("repro.runtime.exitless", "HostCallChannel.call", "runtime", "span"),
    ("repro.runtime.paging_ops", "Sgx1PagingOps.fetch_batch", "runtime", "span"),
    ("repro.runtime.paging_ops", "Sgx1PagingOps.evict_batch", "runtime", "span"),
    ("repro.runtime.paging_ops", "Sgx2PagingOps.fetch_batch", "runtime", "span"),
    ("repro.runtime.paging_ops", "Sgx2PagingOps.evict_batch", "runtime", "span"),
    ("repro.recovery.supervisor", "RecoverySupervisor.launch", "recovery", "span"),
    ("repro.recovery.supervisor", "RecoverySupervisor.recover", "recovery", "span"),
    ("repro.recovery.journal", "Journal.append", "recovery", "span"),
    ("repro.service.router", "EnclaveService.run", "service", "root"),
    ("repro.service.router", "EnclaveService.boot", "service", "span"),
    ("repro.service.pool", "TenantPool.elect_primary", "service", "span"),
    ("repro.modelcheck.model", "replay", "modelcheck", "root"),
    ("repro.modelcheck.model", "successor", "modelcheck", "span"),
    ("repro.modelcheck.model", "World.state_key", "modelcheck", "span"),
    ("repro.modelcheck.invariants", "check_world", "modelcheck", "span"),
    ("repro.modelcheck.poolworld", "replay", "modelcheck", "root"),
    ("repro.modelcheck.poolworld", "successor", "modelcheck", "span"),
    ("repro.modelcheck.poolworld", "PoolWorld.state_key", "modelcheck", "span"),
    ("repro.modelcheck.poolworld", "check_world", "modelcheck", "span"),
    ("repro.clock", "Clock.charge", "clock", "count"),
)


def _key(module, path):
    return f"{module.rsplit('.', 1)[-1]}.{path}"


def _owner(module, path):
    """``(object holding the attribute, attribute name)``."""
    owner = importlib.import_module(module)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


# -- per-probe hooks: extra counts read at the layer boundary ---------------

def _replay_pre(tracer, args):
    return (tracer.stats["columnar.ColumnarEngine.execute"][0]
            + tracer.stats["cpu.Cpu.access_run"][0])


def _replay_post(tracer, args, result, before):
    if before == _replay_pre(tracer, args):
        tracer.counters["replay_stamp_hits"] += 1


def _probe_post(tracer, args, result, before):
    if result is not None:
        tracer.counters["probe_run_hits"] += 1


def _batch_pre(name, index):
    def pre(tracer, args):
        tracer.counters[name] += len(args[index])
    return pre


def _fetch_unit_pre(tracer, args):
    return args[0].degradations


def _fetch_unit_post(tracer, args, result, before):
    tracer.counters["fetched_pages"] += len(result)
    tracer.counters["degradations"] += args[0].degradations - before


def _paging_pre(counter):
    def pre(tracer, args):
        if counter:
            tracer.counters[counter] += len(args[1])
        return args[0].retried_calls
    return pre


def _paging_post(tracer, args, result, before):
    tracer.counters["retries"] += args[0].retried_calls - before


HOOKS = {
    "columnar.ReplayFrontend.replay": (_replay_pre, _replay_post),
    "mmu.Mmu.probe_run": (None, _probe_post),
    "driver.SgxDriver.ay_fetch_pages": (_batch_pre("fetch_batch_pages", 2),
                                        None),
    "driver.SgxDriver.ay_evict_pages": (_batch_pre("evict_batch_pages", 2),
                                        None),
    "self_paging.SelfPager.fetch_unit": (_fetch_unit_pre, _fetch_unit_post),
    "paging_ops.Sgx1PagingOps.fetch_batch": (_paging_pre(None),
                                             _paging_post),
    "paging_ops.Sgx2PagingOps.fetch_batch": (_paging_pre(None),
                                             _paging_post),
    "paging_ops.Sgx1PagingOps.evict_batch": (_paging_pre("evicted_pages"),
                                             _paging_post),
    "paging_ops.Sgx2PagingOps.evict_batch": (_paging_pre("evicted_pages"),
                                             _paging_post),
}


#: Spans kept whole per run; later calls are only aggregated, so the
#: trace of a ten-million-request run still fits in memory.
MAX_SPANS = 20_000


class Tracer:
    """Installs the probes, records spans while ``enabled``.

    Every call is aggregated as ``[calls, total_s, self_s]`` per probe;
    the first :data:`MAX_SPANS` spans are also kept whole."""

    def __init__(self, probes=PROBES):
        self.probes = probes
        self.layer_of = {_key(m, p): layer for m, p, layer, _ in probes}
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters = defaultdict(int)
        self.spans = []
        self.op_id = 0
        self.enabled = False
        self._stack = []
        self._roots_open = 0
        self._originals = []

    # -- installation ----------------------------------------------------

    def install(self):
        for module, path, _layer, mode in self.probes:
            owner, name = _owner(module, path)
            original = owner.__dict__[name]
            key = _key(module, path)
            if mode == "count":
                wrapper = self._count_wrapper(key, original)
            else:
                pre, post = HOOKS.get(key, (None, None))
                wrapper = self._span_wrapper(key, original, mode == "root",
                                             pre, post)
            wrapper.perfbench_probe = key
            setattr(owner, name, wrapper)
            self._originals.append((owner, name, original))
        return self

    def uninstall(self):
        for owner, name, original in reversed(self._originals):
            setattr(owner, name, original)
        self._originals = []
        self.enabled = False

    def leftover(self):
        """Probes whose attribute is still a wrapper."""
        left = []
        for module, path, _layer, _mode in self.probes:
            owner, name = _owner(module, path)
            if hasattr(owner.__dict__.get(name), "perfbench_probe"):
                left.append(_key(module, path))
        return left

    def _count_wrapper(self, key, original):
        tracer = self
        counters = self.counters

        def wrapper(*args, **kwargs):
            if tracer.enabled:
                counters[key] += 1
            return original(*args, **kwargs)
        return wrapper

    def _span_wrapper(self, key, original, root, pre, post):
        tracer = self
        stack = self._stack
        spans = self.spans
        agg = self.stats[key]
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            if root:
                if not tracer._roots_open:
                    tracer.op_id += 1
                tracer._roots_open += 1
            before = pre(tracer, args) if pre is not None else None
            index = -1
            if len(spans) < MAX_SPANS:
                parent = stack[-1][1] if stack else -1
                index = len(spans)
                spans.append([tracer.op_id, key, 0.0, 0.0, parent])
            frame = [0.0, index]
            stack.append(frame)
            start = perf()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                if root:
                    tracer._roots_open -= 1
                duration = end - start
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if index >= 0:
                    spans[index][2] = start
                    spans[index][3] = end
            if post is not None:
                post(tracer, args, result, before)
            return result
        return wrapper

    # -- results ---------------------------------------------------------

    def calls(self, key):
        return self.stats[key][0] if key in self.stats else 0

    def total_s(self, key):
        return self.stats[key][1] if key in self.stats else 0.0

    def layer_self_s(self):
        out = {layer: 0.0 for layer in LAYERS}
        for key, (_calls, _total, self_s) in self.stats.items():
            layer = self.layer_of[key]
            if layer in out:
                out[layer] += self_s
        return out

    def layer_calls(self):
        out = {layer: 0 for layer in LAYERS}
        for key, (calls, _total, _self) in self.stats.items():
            layer = self.layer_of[key]
            if layer in out:
                out[layer] += calls
        return out

    def export(self):
        """JSON-safe dump: aggregates plus the kept spans."""
        return {
            "aggregates": {
                key: {"layer": self.layer_of[key], "calls": c,
                      "total_s": t, "self_s": s}
                for key, (c, t, s) in sorted(self.stats.items())
            },
            "counters": dict(sorted(self.counters.items())),
            "span_fields": ["op", "name", "start", "end", "parent", "self"],
            "spans": [row + [own] for row, own
                      in zip(self.spans, self_times(self.spans))],
        }


def self_times(spans):
    """Self time per span of a span list (``[op, name, start, end,
    parent]`` rows, parents before children): duration minus the
    durations of its direct children."""
    child = [0.0] * len(spans)
    for _op, _name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i]
            for i, (_op, _name, start, end, _parent) in enumerate(spans)]


# -- the cProfile cross-check -----------------------------------------------

def package_layer(filename):
    """Layer of a source file, or ``None`` for code outside the layers
    (stdlib, builtins, ``repro.clock`` and the other repro packages)."""
    path = filename.replace("\\", "/")
    marker = "/repro/"
    at = path.rfind(marker)
    if at < 0:
        return None
    rest = path[at + len(marker):].split("/")
    if rest == ["sgx", "params.py"]:
        # Address arithmetic (vpn_of, page_base) every layer calls; like
        # the clock, it belongs to the caller.
        return None
    if len(rest) > 1 and rest[0] in LAYERS:
        return rest[0]
    return None


def profile_layer_shares(profile):
    """cProfile ``tottime`` bucketed by layer package, as shares.

    Time in code outside the layers (copy.deepcopy, hashlib, the clock,
    builtins) moves to the callers that entered it, along call edges
    that were not recursive, weighted by their cumulative time, until it
    reaches a layer.  That matches span self time, which charges such
    code to the wrapped entry point that called it.  Whatever reaches no
    layer is ``other``."""
    stats = pstats.Stats(profile).stats
    buckets = defaultdict(float)
    pending = defaultdict(float)
    for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
        layer = package_layer(func[0])
        if layer is not None:
            buckets[layer] += tt
        else:
            pending[func] += tt
    for _ in range(100):
        if not pending:
            break
        moved = defaultdict(float)
        for func, amount in pending.items():
            callers = stats[func][4] if func in stats else {}
            weights = {c: v[3] for c, v in callers.items() if v[0] > 0}
            if not weights or sum(weights.values()) <= 0:
                weights = {c: v[1] for c, v in callers.items()}
            total = sum(weights.values())
            if total <= 0:
                buckets["other"] += amount
                continue
            for caller, weight in weights.items():
                share = amount * weight / total
                layer = package_layer(caller[0])
                if layer is not None:
                    buckets[layer] += share
                else:
                    moved[caller] += share
        pending = moved
    buckets["other"] += sum(pending.values())
    grand = sum(buckets.values()) or 1.0
    return {layer: buckets.get(layer, 0.0) / grand
            for layer in LAYERS + ("other",)}


def span_layer_shares(tracer, measured_s):
    """Span-derived self-time shares of the traced phase; the time no
    probe covered (the benchmark's own loop) is ``other``."""
    selfs = tracer.layer_self_s()
    covered = sum(selfs.values())
    total = max(measured_s, covered) or 1.0
    shares = {layer: selfs[layer] / total for layer in LAYERS}
    shares["other"] = max(0.0, total - covered) / total
    return shares


def cross_check(span_shares, profile_shares, threshold=0.10):
    """Rows ``(layer, span share, cProfile share, flagged)``; a layer is
    flagged when the two differ by more than ``threshold``, which points
    at a missing wrapper."""
    return [
        (layer, span_shares[layer], profile_shares[layer],
         abs(span_shares[layer] - profile_shares[layer]) > threshold)
        for layer in LAYERS + ("other",)
    ]
