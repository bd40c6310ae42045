"""Outside-in layer trace: spans recorded around the public callables of
each layer on the live objects, from the benchmark's own code.

Every span has a name (its layer), start, end and parent; all spans of one
data packet share the packet's index as their id.  Spans stay in memory
and are written out when the run ends.  A layer's self time is its spans'
duration minus the time their child spans cover.
"""

from __future__ import annotations

import time
from collections import defaultdict

class Recorder:
    """Collects spans and per-layer self time and counts."""

    def __init__(self) -> None:
        self.spans: list = []
        self.self_s: dict = defaultdict(float)
        self.counts: dict = defaultdict(int)
        self.packet = -1
        self._stack: list = []
        self._next_id = 0
        self._restore: list = []

    def span(self, name: str, call, *args, **kwargs):
        """Run ``call(*args, **kwargs)`` inside a span named *name*."""
        self._next_id += 1
        span_id = self._next_id
        stack = self._stack
        parent = stack[-1][0] if stack else 0
        frame = [span_id, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return call(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            self.self_s[name] += duration - frame[1]
            if stack:
                stack[-1][1] += duration
            self.spans.append((self.packet, span_id, parent, name, start, end))

    def wrap(self, owner, attribute: str, name: str, count=None) -> None:
        """Replace ``owner.attribute`` with a traced version; *count* is
        called as ``count(result, *args, **kwargs)`` to tally work."""
        original = getattr(owner, attribute)
        span = self.span

        def traced(*args, **kwargs):
            result = span(name, original, *args, **kwargs)
            if count is not None:
                count(result, *args, **kwargs)
            return result

        self._install(owner, attribute, traced)

    def _install(self, owner, attribute: str, value) -> None:
        had = attribute in vars(owner)
        self._restore.append((owner, attribute, vars(owner).get(attribute), had))
        setattr(owner, attribute, value)

    def unwrap(self) -> None:
        """Put every wrapped attribute back as it was."""
        for owner, attribute, value, had in reversed(self._restore):
            if had:
                setattr(owner, attribute, value)
            else:
                delattr(owner, attribute)
        self._restore.clear()

    def instrument(self, service, path) -> None:
        """Wrap every layer boundary of *service* (see the layer table in
        README.md)."""
        import repro.core.instance as instance_module
        from repro.core.reports import MatchReport

        counts = self.counts
        instance = service.instance
        root = instance.automaton.root

        def kernel(result, data, active_bitmap=None, state=None, limit=None):
            counts["kernel.scans"] += 1
            counts["kernel.bytes"] += result.bytes_scanned
            counts["kernel.raw_hits"] += len(result.raw_matches)
            counts["kernel.nonroot"] += state is not None and state != root
            counts["kernel.bounded"] += limit is not None and limit < len(data)

        def scanner(result, *args, **kwargs):
            counts["scanner.matches"] += sum(map(len, result.matches.values()))

        def regex(result, *args, **kwargs):
            counts["regex.calls"] += 1

        def result_packet(result, *args, **kwargs):
            counts["net.result_packets"] += 1

        self.wrap(service.dpi, "process", "net")
        self.wrap(instance_module, "build_result_packet", "net", result_packet)
        self.wrap(instance, "inspect", "instance")
        self.wrap(instance.scanner, "scan_packet", "scanner", scanner)
        self.wrap(instance.automaton, "scan", "kernel", kernel)
        self.wrap(instance.prefilter, "confirm", "regex", regex)
        self.wrap(instance.prefilter, "scan_fallback", "regex", regex)
        for function in service.consumers:
            layer = ("anomaly" if function.middlebox is service.anomaly
                     else "middleboxes")
            self.wrap(function, "process", layer)
        if service.anomaly is not None:
            self.wrap(service.anomaly, "verdicts", "anomaly")
        # MatchReport is wrapped on the class, where the instance and the
        # chain functions look it up; unwrap() restores the descriptors.
        span = self.span
        for attribute in ("from_matches", "decode"):
            function = vars(MatchReport)[attribute].__func__
            self._install(MatchReport, attribute, classmethod(
                lambda cls, *a, _f=function: span("reports", _f, cls, *a)))
        encode = vars(MatchReport)["encode"]
        self._install(MatchReport, "encode", lambda report: _count_bytes(
            counts, span("reports", encode, report)))
        serve = path.serve

        def traced_serve(packet):
            self.packet = path.served
            return span("bench", serve, packet)

        self._install(path, "serve", traced_serve)

    def write(self, target) -> None:
        """Write every span as one CSV line."""
        with open(target, "w", encoding="ascii") as out:
            out.write("packet,span,parent,name,start_s,end_s\n")
            for packet, span_id, parent, name, start, end in self.spans:
                out.write(f"{packet},{span_id},{parent},{name},{start!r},{end!r}\n")


def _count_bytes(counts, encoded: bytes) -> bytes:
    counts["reports.bytes"] += len(encoded)
    return encoded
