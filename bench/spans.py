"""Per-layer spans and memory samples, recorded from outside the simulator.

`Tracer` replaces the listed functions and methods of the `fbsecsim`
modules with timing wrappers for the duration of a `with` block and puts
the originals back afterwards; no file of the simulator changes.  Each
wrapped call is a span with an id, a parent span, the run it belongs to and
its start and end in `perf_counter_ns`.  Spans are kept in memory in flat
integer columns and written out by `write`.

A span's self time is its duration minus the durations of the spans nested
directly inside it.  Work between wrapped calls (argument passing, the
wrappers' own bookkeeping) lands in the self time of the enclosing span.

`MemorySampler` runs tracemalloc and samples, when `Scheduler.run_until`
starts and when it returns, the memory held by allocations made in chosen
module files.
"""

from __future__ import annotations

import functools
import gzip
import time
import tracemalloc
from array import array

from fbsecsim import attacks, config, csifb, fbnet, idps, metrics, plant, scenario, transport

# Span name -> (owner, attribute) of the call it wraps.  Module functions are
# patched where their caller looks them up (scenario.build_report,
# csifb.decode); the benchmark itself calls scenario.run_scenario and
# config.parse_scenario_file through their modules.
SPANS = {
    "config.parse": (config, "parse_scenario_file"),
    "scenario.run": (scenario, "run_scenario"),
    "fbnet.loop": (fbnet.Scheduler, "run_until"),
    "fbnet.schedule": (fbnet.Scheduler, "at"),
    "fbnet.dispatch": (fbnet.FBNetwork, "dispatch"),
    "attacks.pump": (attacks._FloodPump, "_pump"),
    "transport.deliver": (transport.Transport, "deliver"),
    "transport.ingest": (transport.DeviceModel, "ingest"),
    "transport.send": (transport.Transport, "send"),
    "transport.syn": (transport.HalfOpenTable, "syn"),
    "idps.inspect": (idps.IdpsEngine, "inspect"),
    "metrics.observe": (metrics.TruthOracle, "observe"),
    "metrics.build_report": (scenario, "build_report"),
    "wire.decode": (csifb, "decode"),
    "plant.step": (plant.Plant, "step"),
}
# The subscriber's socket handler is a closure; it is wrapped when it is
# handed to Transport.bind.
RCV_SPAN = "csifb.rcv"


class Patches:
    """setattr with undo, so every replaced attribute is restored."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


class Tracer:
    def __init__(self):
        self.names: list[str] = list(SPANS) + [RCV_SPAN]
        self.stats = {name: [0, 0] for name in self.names}   # calls, self ns
        self.run_id = 0
        self.pending_peak = 0
        # one row per finished span
        self.span_id = array("q")
        self.parent_id = array("q")
        self.run = array("q")
        self.name_id = array("q")
        self.start_ns = array("q")
        self.end_ns = array("q")
        self._next_id = 0
        self._stack: list[list[int]] = []   # [span id, child ns] per open span
        self._patches = Patches()

    def wrap(self, name: str, fn):
        name_id = self.names.index(name)
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter_ns
        span_col, parent_col, run_col = self.span_id, self.parent_id, self.run
        name_col, start_col, end_col = self.name_id, self.start_ns, self.end_ns
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stat[0] += 1
                stat[1] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                span_col.append(span_id)
                parent_col.append(parent[0] if parent is not None else -1)
                run_col.append(tracer.run_id)
                name_col.append(name_id)
                start_col.append(start)
                end_col.append(end)

        return span

    def __enter__(self) -> "Tracer":
        for name, (owner, attr) in SPANS.items():
            self._patches.set(owner, attr, self.wrap(name, getattr(owner, attr)))
        schedule = fbnet.Scheduler.at
        tracer = self

        def at(sched, *args, **kwargs):
            schedule(sched, *args, **kwargs)
            depth = sched.pending()
            if depth > tracer.pending_peak:
                tracer.pending_peak = depth

        self._patches.set(fbnet.Scheduler, "at", at)
        bind = transport.Transport.bind

        def traced_bind(t, device_id, port, handler):
            if handler.__qualname__.startswith("make_subscriber."):
                handler = tracer.wrap(RCV_SPAN, handler)
            return bind(t, device_id, port, handler)

        self._patches.set(transport.Transport, "bind", traced_bind)
        return self

    def __exit__(self, *exc) -> None:
        self._patches.restore()

    def write(self, path: str) -> None:
        """All spans as gzipped CSV, one row per span in end order."""
        with gzip.open(path, "wt", compresslevel=1, newline="") as f:
            f.write("span_id,parent_id,run,name,start_ns,end_ns\n")
            names = self.names
            for row in zip(self.span_id, self.parent_id, self.run, self.name_id,
                           self.start_ns, self.end_ns):
                f.write(f"{row[0]},{row[1]},{row[2]},{names[row[3]]},{row[4]},{row[5]}\n")


class MemorySampler:
    """tracemalloc bytes held per module file, sampled around run_until."""

    def __init__(self, modules: dict[str, object]):
        self.files = {name: mod.__file__ for name, mod in modules.items()}
        self.peak_bytes = {name: 0 for name in modules}
        self._patches = Patches()

    def _sample(self) -> None:
        stats = tracemalloc.take_snapshot().statistics("filename")
        held = {s.traceback[0].filename: s.size for s in stats}
        for name, path in self.files.items():
            self.peak_bytes[name] = max(self.peak_bytes[name], held.get(path, 0))

    def __enter__(self) -> "MemorySampler":
        run_until = fbnet.Scheduler.run_until
        sampler = self

        def sampled_run_until(sched, until):
            sampler._sample()
            try:
                return run_until(sched, until)
            finally:
                sampler._sample()

        self._patches.set(fbnet.Scheduler, "run_until", sampled_run_until)
        tracemalloc.start()
        return self

    def __exit__(self, *exc) -> None:
        tracemalloc.stop()
        self._patches.restore()
