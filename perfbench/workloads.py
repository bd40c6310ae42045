"""Seeded inputs for the service benchmark: pattern sets, flows, packets,
planted signatures and the open-loop arrival schedule.

Pattern sets come from :mod:`repro.workloads` with fixed generator seeds,
so every run scans against the same rule base; the ``--seed`` argument
drives only the traffic (which flows, which payloads, where signatures
are planted, when packets arrive).  :func:`fingerprint` hashes all of it,
so a change to ``repro.workloads`` or to this file shows up as a
different fingerprint instead of as a silently different benchmark.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass, field

#: Generator seeds of the two rule bases (fixed; not the traffic seed).
SNORT_SEED = 1
CLAMAV_SEED = 2

IDS_ID, AV_ID, ANOMALY_ID = 1, 2, 3
WEB_CHAIN, FLOOD_CHAIN = 10, 20
#: Share of IDS plants that are regex instances (where the shape has any).
REGEX_PLANT_SHARE = 0.3

#: Lowercase words for HTTP-like bodies.  Built from a fixed seed so the
#: background text is the same for every traffic seed.
_WORD_RNG = random.Random("perfbench-words")
_WORDS = [
    bytes(_WORD_RNG.choice(b"bcdfghjklmnpqrstvwxz") if i % 2 == 0 else
          _WORD_RNG.choice(b"aeiouy") for i in range(_WORD_RNG.randint(3, 9)))
    for _ in range(600)
]
_PUNCT = (b" ", b" ", b" ", b" ", b", ", b". ", b"\n", b"=", b"&", b"<p>", b"</p>")
#: 1 MiB of that text; HTTP-like packets are slices of it at seeded offsets.
_TEXT = b"".join(
    _WORD_RNG.choice(_WORDS) + _WORD_RNG.choice(_PUNCT) for _ in range(160_000)
)[: 1 << 20]


@dataclass(frozen=True)
class Shape:
    """What one workload's traffic looks like."""

    chain: tuple          # middlebox types after the DPI service, in order
    ids_count: int
    av_count: int
    concurrent_flows: int
    flow_packets: tuple   # (min, max) data packets per flow
    payload_bytes: tuple  # (min, max) payload size; MTU-sized when equal
    plant_rate: float     # share of packets that carry a planted signature
    av_share: float       # share of plants that are AV signatures
    regex_share: float    # share of IDS rules that are anchored regexes
    straddle_share: float  # share of literal plants split across two packets
    folds: bool           # anomaly verdicts() at epoch boundaries
    http: bool            # HTTP-like text payloads (else binary flood)


SHAPES = {
    "web-stateful": Shape(
        chain=("ids", "av"), ids_count=4356, av_count=4356,
        concurrent_flows=300, flow_packets=(100, 500),
        payload_bytes=(1460, 1460), plant_rate=0.04, av_share=0.03,
        regex_share=0.02, straddle_share=0.3, folds=False, http=True,
    ),
    "flood-churn": Shape(
        chain=("ids", "av", "anomaly"), ids_count=4356, av_count=4356,
        concurrent_flows=256, flow_packets=(2, 8),
        payload_bytes=(60, 220), plant_rate=0.5, av_share=0.05,
        regex_share=0.0, straddle_share=0.0, folds=True, http=False,
    ),
}


@dataclass(frozen=True)
class Rules:
    """The rule bases the middleboxes register: ``(rule id, bytes)``."""

    ids_literals: tuple
    ids_regexes: tuple    # (rule id, regex source, planted instance)
    av_signatures: tuple


@dataclass
class Plant:
    """A signature placed in the traffic, and where it must be reported."""

    packet: int           # index of the data packet it ends in
    middlebox: int
    rule: int
    position: int         # end: flow offset (literals), packet offset (regexes)


@dataclass
class Workload:
    """Everything one run feeds the service.

    The packets are a warm-up prefix, then ``rounds`` rounds of a closed
    block (sent back to back) followed by an open window (sent on the
    Poisson schedule).
    """

    name: str
    shape: Shape
    rules: Rules
    warmup: int
    rounds: int
    block: int
    window: int
    #: per data packet, its payload as a recipe rather than as bytes, so
    #: the inputs do not weigh on ``peak_rss_mb``: (flow index, head
    #: bytes, start of the text that follows it or -1, size, signature
    #: bytes written over it as ``(position, bytes)``)
    packets: list = field(default_factory=list)
    plants: list = field(default_factory=list)
    #: per open window: due times in seconds from the window's start
    schedules: list = field(default_factory=list)
    #: indices of the packets after which the anomaly verdicts are folded
    folds: list = field(default_factory=list)

    def payloads(self, start: int = 0, stop: "int | None" = None):
        """``(flow index, payload)`` of data packets ``start:stop``."""
        for flow, head, text_at, size, overlays in self.packets[start:stop]:
            body = bytearray(head)
            if text_at >= 0:
                body += _TEXT[text_at:text_at + max(0, size - len(head))]
            del body[size:]
            for position, data in overlays:
                body[position:position + len(data)] = data
            yield flow, bytes(body)

    def payload_bytes(self) -> int:
        return sum(size for _, _, _, size, _ in self.packets)

    def blocks(self):
        """``(closed start, open start, open end)`` packet indices per round."""
        start = self.warmup
        for _ in range(self.rounds):
            yield start, start + self.block, start + self.block + self.window
            start += self.block + self.window


def build_rules(shape: Shape) -> Rules:
    """The IDS and AV rule bases at the shape's sizes (seed-independent)."""
    from repro.workloads import generate_clamav_like, generate_snort_like

    snort = generate_snort_like(shape.ids_count, seed=SNORT_SEED)
    clamav = generate_clamav_like(shape.av_count, seed=CLAMAV_SEED)
    regex_every = round(1 / shape.regex_share) if shape.regex_share else 0
    literals, regexes = [], []
    for rule, data in enumerate(snort):
        if regex_every and rule % regex_every == regex_every // 2:
            half = len(data) // 2
            head, tail = data[:half], data[half:]
            source = re.escape(head) + rb"[0-9]{1,3}" + re.escape(tail)
            instance = head + b"%d" % (rule % 1000) + tail
            regexes.append((rule, source, instance))
        else:
            literals.append((rule, data))
    return Rules(
        ids_literals=tuple(literals),
        ids_regexes=tuple(regexes),
        av_signatures=tuple(enumerate(clamav)),
    )


def _background(rng: random.Random, size: int, head: bytes,
                http: bool) -> tuple:
    """``(head, text start)`` of a payload of *size* bytes: *head*, then
    text from the start; binary payloads are all head."""
    if not http:
        return rng.randbytes(size), -1
    return head, rng.randrange(len(_TEXT) - max(0, size - len(head)))


def _request_head(rng: random.Random, flow: int) -> bytes:
    path = b"/".join(rng.choice(_WORDS) for _ in range(3))
    return (
        b"GET /" + path + b".html HTTP/1.1\r\nHost: www." + rng.choice(_WORDS)
        + b".example\r\nAccept: text/html\r\nCookie: id=%d\r\n\r\n" % flow
    )


def generate(name: str, seed: int, warmup: int, rounds: int, block: int,
             window: int, offered_mbps: float, shape: "Shape | None" = None,
             rules: "Rules | None" = None) -> Workload:
    """Generate the packets of workload *name* (see :class:`Workload`),
    with open windows offered at *offered_mbps*.  ``shape`` and ``rules``
    override the defaults (the benchmark's own tests shrink the rule
    bases)."""
    shape = shape or SHAPES[name]
    rules = rules or build_rules(shape)
    rng = random.Random(f"perfbench:{name}:{seed}")
    workload = Workload(name=name, shape=shape, rules=rules, warmup=warmup,
                        rounds=rounds, block=block, window=window)
    packet_count = warmup + rounds * (block + window)
    literal_plants = [(IDS_ID, rule, data) for rule, data in rules.ids_literals]
    av_plants = [(AV_ID, rule, data) for rule, data in rules.av_signatures]
    regex_plants = list(rules.ids_regexes)

    # Active flows: [flow id, packets left, flow offset, bytes carried over
    # from a straddled plant, that plant (middlebox, rule, end) or None].
    next_flow = 0
    active: list = []

    def new_flow() -> list:
        nonlocal next_flow
        next_flow += 1
        return [next_flow - 1, rng.randint(*shape.flow_packets), 0, b"", None]

    for _ in range(shape.concurrent_flows):
        active.append(new_flow())

    low, high = shape.payload_bytes
    for index in range(packet_count):
        slot = rng.randrange(len(active))
        flow = active[slot]
        flow_id, left, offset, carry, pending = flow
        size = low if low == high else rng.randint(low, high)
        if left == 1 and low == high:
            size = rng.randint(200, high)
        request = _request_head(rng, flow_id) if shape.http and offset == 0 \
            else b""
        background = _background(rng, size, request, shape.http)
        # Finish a signature the previous packet of this flow started.
        overlays = [(0, carry)] if carry else []
        head = len(carry)
        if pending is not None:
            middlebox, rule, end = pending
            workload.plants.append(Plant(index, middlebox, rule, offset + end))
        carry, pending = b"", None
        if rng.random() < shape.plant_rate:
            kind, regex = rng.random(), False
            if kind < shape.av_share:
                middlebox, rule, data = rng.choice(av_plants)
            elif regex_plants and kind < shape.av_share + REGEX_PLANT_SHARE:
                rule, _source, data = rng.choice(regex_plants)
                middlebox, regex = IDS_ID, True
            else:
                middlebox, rule, data = rng.choice(literal_plants)
            straddle = (
                not regex and left > 1 and len(data) > 1
                and rng.random() < shape.straddle_share
            )
            if straddle:
                cut = rng.randint(1, len(data) - 1)
                overlays.append((size - cut, data[:cut]))
                carry = data[cut:]
                pending = (middlebox, rule, len(carry))
            elif size - len(data) >= head:
                start = rng.randint(head, size - len(data))
                overlays.append((start, data))
                # The instance confirms a regex on one payload, so it
                # reports the match at its packet offset, not the flow's.
                base = 0 if regex else offset
                workload.plants.append(
                    Plant(index, middlebox, rule, base + start + len(data)))
        workload.packets.append((flow_id, *background, size, tuple(overlays)))
        left -= 1
        if left == 0 and pending is None:
            active[slot] = new_flow()
        else:
            flow[1:] = [max(left, 1), offset + size, carry, pending]

    mean_bits = 8 * workload.payload_bytes() / max(1, packet_count)
    rate = offered_mbps * 1e6 / mean_bits
    for _ in range(rounds):
        due, schedule = 0.0, []
        for _ in range(window):
            due += rng.expovariate(rate)
            schedule.append(due)
        workload.schedules.append(schedule)
    if shape.folds:
        # Epochs end after the warm-up and in the middle of each open
        # window: every window carries one fold that stalls the packets
        # queued behind it, while closed blocks time the packet path.
        workload.folds.append(warmup - 1)
        for _, opened, _ in workload.blocks():
            workload.folds.append(opened + window // 2 - 1)
    return workload


def fingerprint(workload: Workload) -> str:
    """SHA-256 over the rule bases, packets, plants and schedule."""
    digest = hashlib.sha256()
    rules = workload.rules
    for rule, data in rules.ids_literals + rules.av_signatures:
        digest.update(b"%d:%s;" % (rule, data))
    for rule, source, instance in rules.ids_regexes:
        digest.update(b"%d:%s:%s;" % (rule, source, instance))
    for flow, payload in workload.payloads():
        digest.update(b"%d:%d:" % (flow, len(payload)))
        digest.update(payload)
    for plant in workload.plants:
        digest.update(b"%d:%d:%d:%d;" % (
            plant.packet, plant.middlebox, plant.rule, plant.position))
    digest.update(repr((workload.warmup, workload.rounds, workload.block,
                        workload.window, workload.folds)).encode())
    digest.update(repr(workload.schedules).encode())
    return digest.hexdigest()
