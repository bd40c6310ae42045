"""Selectable scan kernels for the combined automaton (the hot path).

The combined automaton's per-byte loop is where the whole service spends its
time, so it is isolated here behind one small contract: a kernel is built
from a :class:`~repro.core.combined.CombinedAutomaton` and exposes
``scan(data, active_bitmap, state, limit) -> CombinedScanResult``.  Every
kernel must produce *byte-identical* results — same raw ``(accepting state,
cnt)`` pairs, same end state, same byte count — which the differential
property test (``tests/test_kernels_properties.py``) enforces.

Three kernels are provided:

* ``"reference"`` — the original per-byte Python loops over either layout
  (sparse goto/fail walking or per-state 256-entry rows).  Kept as the
  executable specification the others are checked against.
* ``"flat"`` — the full-table rows fused into one contiguous list of
  ``num_states * 256`` pre-shifted entries (``next_state << 8``), so a DFA
  step is a single ``delta[state + byte]`` lookup (list subscripts and
  integer ``+`` are specialized by CPython 3.11's adaptive interpreter).
  The loop is unrolled eight-ways over strided slices, with every loop
  variable bound to a local.  Works for both layouts (the sparse goto/fail
  tables are materialized once, straight into the list, at kernel
  construction).
* ``"regex"`` — the instance default (:data:`DEFAULT_KERNEL`): a prefilter
  in C and numpy picks candidate positions, and the flat DFA replays only
  short windows around them, where the suffix-closed match tables built in
  ``CombinedAutomaton._build_renumbered`` recover every overlapping/suffix
  match exactly.  Candidates come from a rare-byte ``re`` anchor class
  where anchors are sparse (high-entropy ClamAV-like signatures: whole
  payloads dismissed at C speed) and from a hashed numpy table of each
  pattern's rarest q-gram where they are dense (text rule bases).  Scans
  resumed from carried flow state run the DFA from that state over the
  first ``W - 1`` bytes only (``W`` = longest pattern); the state no longer
  depends on the carried one after that.  Gram-dense payloads,
  ``limit``-bounded scans and payloads under a length gate run the flat
  kernel, so the worst case degrades to flat-kernel speed.  Each scan's
  path is counted in ``path_counts``.

An optional :class:`ScanCache` (LRU over ``(payload, active_bitmap,
start_state, limit)``) lets repeated payloads — Alexa-style trace workloads
replay the same popular pages — skip the automaton entirely.
"""

from __future__ import annotations

import re
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

#: Kernel names accepted by ``CombinedAutomaton`` / ``InstanceConfig``.
KERNEL_NAMES = ("reference", "flat", "regex")

#: The kernel instances, scenarios and CLI commands use unless told
#: otherwise (``CombinedAutomaton`` itself defaults to ``"reference"``).
DEFAULT_KERNEL = "regex"

#: One raw match: ``(accepting state, bytes consumed when it was reached)``.
RawMatch = tuple[int, int]

#: Payload types a kernel accepts (the combined automaton may hand over
#: slices of reassembled TCP streams as memoryviews).
ScanData = "bytes | bytearray | memoryview"

#: Cache key of one scan: ``(payload, active_bitmap, start_state, limit)``.
ScanCacheKey = tuple[bytes, int, int, "int | None"]


@dataclass
class CombinedScanResult:
    """Raw output of one combined-DFA scan.

    ``raw_matches`` holds ``(accepting state, cnt)`` pairs, where ``cnt`` is
    the number of bytes consumed when the accepting state was reached.  The
    scanner layer (:mod:`repro.core.scanner`) resolves these to per-middlebox
    match lists, applying stopping conditions and stateless pruning.
    """

    raw_matches: list[RawMatch]
    end_state: int
    bytes_scanned: int


@runtime_checkable
class ScanKernel(Protocol):
    """The kernel contract (KER001 keeps implementations on it).

    A kernel is constructed from a combined automaton and exposes exactly
    this surface; every implementation must produce byte-identical results
    (same raw matches, end state and byte count) for the same inputs.
    """

    name: str

    def scan(
        self,
        data: "bytes | bytearray | memoryview",
        active_bitmap: int,
        state: int,
        limit: "int | None",
    ) -> CombinedScanResult:
        """Scan *data* (up to *limit* bytes) from *state*."""
        ...


class ReferenceKernel:
    """The original per-byte Python loops — the executable specification."""

    name = "reference"

    def __init__(self, automaton) -> None:
        self._automaton = automaton

    def scan(self, data, active_bitmap: int, state: int, limit) -> CombinedScanResult:
        """Scan *data* (up to *limit* bytes) from *state*."""
        automaton = self._automaton
        view = data if limit is None or limit >= len(data) else data[:limit]
        raw_matches: list[RawMatch] = []
        append = raw_matches.append
        f = automaton.num_accepting
        bitmaps = automaton._bitmaps
        cnt = 0
        if automaton._layout_is_full:
            delta = automaton._delta
            for byte in view:
                state = delta[state][byte]
                cnt += 1
                if state < f and bitmaps[state] & active_bitmap:
                    append((state, cnt))
        else:
            goto = automaton._goto
            fail = automaton._fail
            root = automaton.root
            for byte in view:
                while byte not in goto[state] and state != root:
                    state = fail[state]
                state = goto[state].get(byte, root)
                cnt += 1
                if state < f and bitmaps[state] & active_bitmap:
                    append((state, cnt))
        return CombinedScanResult(
            raw_matches=raw_matches, end_state=state, bytes_scanned=cnt
        )


def _fuse_shifted_table(automaton) -> list:
    """One contiguous pre-shifted next-state list: entry
    ``(state << 8) + byte`` holds ``next_state << 8``.

    For the ``full`` layout the per-state rows are fused as-is; for the
    ``sparse`` layout the dense rows are materialized breadth-first from the
    goto/fail tables straight into the list (a state's failure state is
    always shallower, so its row is complete before the state is visited).
    The entries come from one canon list, so the ~256 rows referencing a
    state share one int object.
    """
    num_states = automaton.num_states
    canon = [state << 8 for state in range(num_states)]
    if automaton._layout_is_full:
        lookup = canon.__getitem__
        delta: list = []
        for row in automaton._delta:
            delta.extend(map(lookup, row))
        return delta
    goto = automaton._goto
    fail = automaton._fail
    root = automaton.root
    delta = [canon[root]] * (num_states << 8)
    base = root << 8
    for byte, child in goto[root].items():
        delta[base + byte] = canon[child]
    queue = deque(goto[root].values())
    while queue:
        state = queue.popleft()
        base = state << 8
        fallback = fail[state] << 8
        delta[base : base + 256] = delta[fallback : fallback + 256]
        for byte, child in goto[state].items():
            delta[base + byte] = canon[child]
        queue.extend(goto[state].values())
    return delta


class FlatTableKernel:
    """Contiguous-table DFA steps, specialization-friendly and unrolled.

    The one table is a list whose entries are pre-shifted
    (``next_state << 8``) so one step is ``state = delta[state + byte]``
    with no per-byte shift, and the accept test is a single compare
    against ``num_accepting << 8``.
    """

    name = "flat"

    def __init__(self, automaton) -> None:
        self._bitmaps = automaton._bitmaps
        self._delta = _fuse_shifted_table(automaton)
        self._f8 = automaton.num_accepting << 8

    def scan(self, data, active_bitmap: int, state: int, limit) -> CombinedScanResult:
        """Scan *data* (up to *limit* bytes) from *state*."""
        view = data if limit is None or limit >= len(data) else data[:limit]
        raw_matches: list[RawMatch] = []
        append = raw_matches.append
        delta = self._delta
        f8 = self._f8
        bitmaps = self._bitmaps
        state <<= 8
        n = len(view)
        end = (n >> 3) << 3
        cnt = 0
        for b0, b1, b2, b3, b4, b5, b6, b7 in zip(
            view[0:end:8],
            view[1:end:8],
            view[2:end:8],
            view[3:end:8],
            view[4:end:8],
            view[5:end:8],
            view[6:end:8],
            view[7:end:8],
        ):
            state = delta[state + b0]
            if state < f8 and bitmaps[state >> 8] & active_bitmap:
                append((state >> 8, cnt + 1))
            state = delta[state + b1]
            if state < f8 and bitmaps[state >> 8] & active_bitmap:
                append((state >> 8, cnt + 2))
            state = delta[state + b2]
            if state < f8 and bitmaps[state >> 8] & active_bitmap:
                append((state >> 8, cnt + 3))
            state = delta[state + b3]
            if state < f8 and bitmaps[state >> 8] & active_bitmap:
                append((state >> 8, cnt + 4))
            state = delta[state + b4]
            if state < f8 and bitmaps[state >> 8] & active_bitmap:
                append((state >> 8, cnt + 5))
            state = delta[state + b5]
            if state < f8 and bitmaps[state >> 8] & active_bitmap:
                append((state >> 8, cnt + 6))
            state = delta[state + b6]
            if state < f8 and bitmaps[state >> 8] & active_bitmap:
                append((state >> 8, cnt + 7))
            state = delta[state + b7]
            if state < f8 and bitmaps[state >> 8] & active_bitmap:
                append((state >> 8, cnt + 8))
            cnt += 8
        for cnt, byte in enumerate(view[end:], end + 1):
            state = delta[state + byte]
            if state < f8 and bitmaps[state >> 8] & active_bitmap:
                append((state >> 8, cnt))
        return CombinedScanResult(
            raw_matches=raw_matches, end_state=state >> 8, bytes_scanned=n
        )


def _byte_rarity() -> list:
    """Static per-byte frequency prior for web-ish network traffic.

    Lower score = rarer.  Used to pick each pattern's anchor byte; only the
    relative order matters, and a mediocre choice costs throughput, never
    correctness (the differential tests cover arbitrary pattern bytes).
    """
    score = [8] * 256
    for byte in range(0x80, 0x100):
        score[byte] = 5
    score[0x00] = 20
    score[0x7F] = 8
    for byte in b"\t\n\r":
        score[byte] = 80
    score[0x20] = 95
    for byte in range(ord("a"), ord("z") + 1):
        score[byte] = 90
    for byte in range(ord("A"), ord("Z") + 1):
        score[byte] = 55
    for byte in range(ord("0"), ord("9") + 1):
        score[byte] = 45
    for byte in b"<>/\"'=.:,;-_()&?%+*#@[]{}|^~$!\\`":
        score[byte] = 35
    return score


_BYTE_RARITY = _byte_rarity()


#: Paths a :class:`RegexPrefilterKernel` scan can take (its
#: ``path_counts`` keys).  ``carried_head`` counts the scans among
#: ``anchor``/``qgram`` that started from carried flow state; the
#: ``*_dfa`` paths ran the whole payload through the flat DFA.
PREFILTER_PATHS = (
    "anchor", "qgram", "carried_head", "dense_dfa", "short_dfa", "bounded_dfa",
)

#: Longest q-gram the q-gram stage uses (4 bytes view as one ``uint32``).
_MAX_Q = 4
#: log2 of the q-gram stage's hashed membership table (1 MiB of bools).
_GRAM_HASH_BITS = 20
_GRAM_HASH_MULT = np.uint32(0x9E3779B1)
_GRAM_HASH_SHIFT = np.uint32(32 - _GRAM_HASH_BITS)


def _rarest_grams(patterns: list, q: int) -> "frozenset[bytes]":
    """Each pattern's rarest *q*-gram: lowest summed :data:`_BYTE_RARITY`,
    earliest on ties.

    One vectorised pass over all patterns joined end to end: a running sum
    of byte scores gives every q-gram's score, grams that would cross into
    the next pattern are masked off, and ``minimum.reduceat`` over the
    pattern starts picks each pattern's best ``(score, position)`` key.
    """
    joined = b"".join(patterns)
    lengths = np.fromiter(map(len, patterns), dtype=np.int64, count=len(patterns))
    ends = np.cumsum(lengths)
    rarity = np.asarray(_BYTE_RARITY, dtype=np.int64)
    scores = np.concatenate(
        ([0], np.cumsum(rarity[np.frombuffer(joined, dtype=np.uint8)]))
    )
    count = len(joined) - q + 1
    positions = np.arange(count, dtype=np.int64)
    keys = ((scores[q:] - scores[:count]) << 32) | positions
    keys[positions + q > np.repeat(ends, lengths)[:count]] = np.iinfo(np.int64).max
    best = np.minimum.reduceat(keys, ends - lengths) & 0xFFFFFFFF
    return frozenset(joined[start : start + q] for start in best.tolist())


class RegexPrefilterKernel:
    """A prefilter in C and numpy; the DFA replays only candidate windows.

    Every match of a pattern of length at most ``W`` (the longest pattern)
    ends within ``W`` bytes after a byte the pattern is known to contain,
    and the DFA state at any position depends only on the ``W`` bytes
    before it.  So once candidate positions are known, each merged
    candidate region is replayed through the flat table from the root with
    a ``W - 1`` byte lead-in, which reproduces exactly the flat kernel's
    matches — including overlapping and suffix matches, courtesy of the
    suffix-closed match tables — and the end state is a root replay of the
    final ``W`` bytes.  Candidates come from two stages:

    1. **anchor** — every distinct literal contributes its rarest byte (by
       the static :data:`_BYTE_RARITY` prior) to one character class,
       compiled once into a ``[anchors]+`` ``re`` scanner.  On high-entropy
       signature corpora (ClamAV-like) these are bytes web traffic almost
       never carries, and whole payloads are dismissed at C speed.
    2. **qgram** — when anchors are dense (text-like rule bases anchor on
       common letters), every distinct literal's rarest ``q``-gram
       (``q = min(4, shortest pattern)``) goes into one hashed numpy
       membership table, checked exactly against the gram set; one
       vectorised lookup over the payload gives the candidate positions.
       The anchor stage stays first: where anchors are sparse, most
       payloads hold none and two ``translate`` calls dismiss them, far
       cheaper than the q-gram lookup.

    A scan resumed from carried flow state runs the flat DFA from that
    state over the first ``W - 1`` bytes only (**carried_head**): those
    bytes hold every match that straddles the packet boundary, and after
    them the state no longer depends on the carried one, so the root
    window replays cover the rest.

    Three cases run the whole payload through the flat kernel instead:
    payloads whose q-gram candidates would cover most of the payload
    (**dense_dfa**, bounding e.g. a gram-flood attack at flat-kernel
    speed), payloads shorter than :attr:`_LENGTH_GATE` windows that would
    need the carried head or the q-gram stage (**short_dfa**: their fixed
    cost, about ``2 W`` replayed bytes and a dozen numpy calls, exceeds
    the DFA walk they save; a root-start anchor scan has no such cost and
    runs at any length) and ``limit``-bounded scans (**bounded_dfa**).
    ``path_counts`` counts each scan's path (see :data:`PREFILTER_PATHS`).
    """

    name = "regex"

    #: Candidates are dense when count * window exceeds this multiple of
    #: the payload length (their regions would cover most of it).
    _DENSITY_BAIL = 2
    #: Bytes of the payload's head whose anchor density is checked before
    #: anchors are counted over the whole payload.
    _ANCHOR_SAMPLE = 256
    #: Payloads shorter than this many windows (``W`` bytes) that need the
    #: carried head or the q-gram stage go straight to the DFA.  Set at the
    #: measured crossover with the flat kernel (DESIGN.md §7).
    _LENGTH_GATE = 8

    def __init__(self, automaton) -> None:
        self._root = automaton.root
        self._bitmaps = automaton._bitmaps
        self._fallback = FlatTableKernel(automaton)
        self._delta = self._fallback._delta
        self._f8 = self._fallback._f8
        self.path_counts = dict.fromkeys(PREFILTER_PATHS, 0)
        patterns = automaton._distinct_patterns
        self._window = max(map(len, patterns), default=0)
        self._gate = self._LENGTH_GATE * self._window
        if patterns:
            rarity = _BYTE_RARITY
            anchors = sorted(
                {min(pattern, key=rarity.__getitem__) for pattern in patterns}
            )
            self.anchor_bytes = bytes(anchors)
            self._scanner = re.compile(
                b"[" + b"".join(re.escape(bytes([b])) for b in anchors) + b"]+"
            )
            anchor_set = set(anchors)
            self._non_anchors = bytes(b for b in range(256) if b not in anchor_set)
            self.q = q = min(_MAX_Q, min(map(len, patterns)))
            self.grams = _rarest_grams(patterns, q)
            self._gram_mask = np.uint32((1 << (8 * q)) - 1)
            self._gram_pad = bytes(_MAX_Q - q)
            # Zero padding makes each gram's uint32 equal a payload gram
            # under the mask.
            values = np.frombuffer(
                b"".join(gram + self._gram_pad for gram in sorted(self.grams)),
                dtype="<u4",
            )
            self._gram_table = np.zeros(1 << _GRAM_HASH_BITS, dtype=bool)
            self._gram_table[self._gram_hash(values)] = True
        else:
            self.anchor_bytes = b""
            self._scanner = None
            self._non_anchors = bytes(range(256))
            self.q = 0
            self.grams = frozenset()

    @staticmethod
    def _gram_hash(values: np.ndarray) -> np.ndarray:
        return (values * _GRAM_HASH_MULT) >> _GRAM_HASH_SHIFT

    def _gram_candidates(self, data: bytes) -> list:
        """Positions whose q-gram is some pattern's rarest q-gram: a hashed
        table lookup over every position, then an exact set check of the
        few hits."""
        q = self.q
        if q < _MAX_Q:
            values = np.ndarray(
                (len(data) - q + 1,),
                dtype="<u4",
                buffer=data + self._gram_pad,
                strides=(1,),
            ) & self._gram_mask
        else:
            values = np.ndarray(
                (len(data) - 3,), dtype="<u4", buffer=data, strides=(1,)
            )
        hits = self._gram_table.take(self._gram_hash(values)).nonzero()[0]
        grams = self.grams
        return [i for i in hits.tolist() if data[i : i + q] in grams]

    @staticmethod
    def _merged(spans) -> "list[list[int]]":
        """Merge ascending ``(lo, hi)`` spans into disjoint ``[lo, hi]``
        regions: match ends ``lo < cnt <= hi`` that need replaying."""
        regions: list[list[int]] = []
        last: "list[int] | None" = None
        for lo, hi in spans:
            if last is not None and lo <= last[1]:
                if hi > last[1]:
                    last[1] = hi
            else:
                last = [lo, hi]
                regions.append(last)
        return regions

    def _end_state8(self, data) -> int:
        """The (pre-shifted) state of a root-start scan over all of *data*."""
        start = len(data) - self._window
        if start < 0:
            start = 0
        state = self._root << 8
        delta = self._delta
        for byte in data[start:]:
            state = delta[state + byte]
        return state

    def scan(self, data, active_bitmap: int, state: int, limit) -> CombinedScanResult:
        """Scan *data*: prefilter, then replay candidate windows."""
        n = len(data)
        counts = self.path_counts
        if limit is not None and limit < n:
            counts["bounded_dfa"] += 1
            return self._fallback.scan(data, active_bitmap, state, limit)
        short = n < self._gate
        if short and state != self._root:
            counts["short_dfa"] += 1
            return self._fallback.scan(data, active_bitmap, state, limit)
        if self._scanner is None:
            counts["anchor"] += 1
            return CombinedScanResult(
                raw_matches=[], end_state=state, bytes_scanned=n
            )
        if data.__class__ is not bytes:
            data = bytes(data)
        window = self._window
        dense = self._DENSITY_BAIL * window
        # A short sample first: counting anchors in anchor-dense text costs
        # more than the q-gram stage saves, so dense heads skip the count.
        non_anchors = self._non_anchors
        head = data[: self._ANCHOR_SAMPLE]
        sparse = len(head.translate(None, non_anchors)) * dense < len(head)
        if sparse:
            anchors = len(data.translate(None, non_anchors))
            sparse = anchors * dense < n
        if sparse:
            counts["anchor"] += 1
            # Most anchor-sparse payloads hold no anchor at all; the ``re``
            # scan is skipped for them.
            regions = self._merged(
                (found.start(), found.end() - 1 + window)
                for found in self._scanner.finditer(data)
            ) if anchors else []
        elif short:
            counts["short_dfa"] += 1
            return self._fallback.scan(data, active_bitmap, state, limit)
        else:
            positions = self._gram_candidates(data)
            if len(positions) * dense >= n:
                counts["dense_dfa"] += 1
                return self._fallback.scan(data, active_bitmap, state, limit)
            counts["qgram"] += 1
            regions = self._merged((lo, lo + window) for lo in positions)
        lead = window - 1
        floor = 0
        raw_matches: list[RawMatch] = []
        if state != self._root:
            # Matches ending in the first W - 1 bytes may have begun in an
            # earlier packet: only the carried state finds them.
            counts["carried_head"] += 1
            floor = lead
        append = raw_matches.append
        delta = self._delta
        f8 = self._f8
        bitmaps = self._bitmaps
        if floor:
            current = state << 8
            for cnt, byte in enumerate(data[:lead], 1):
                current = delta[current + byte]
                if current < f8 and bitmaps[current >> 8] & active_bitmap:
                    append((current >> 8, cnt))
        root8 = self._root << 8
        for lo, hi in regions:
            if lo < floor:
                if hi <= floor:
                    continue
                lo = floor
            start = lo - lead
            if start < 0:
                start = 0
            stop = hi if hi < n else n
            current = root8
            for cnt, byte in enumerate(data[start:stop], start + 1):
                current = delta[current + byte]
                if cnt > lo and current < f8 and bitmaps[current >> 8] & active_bitmap:
                    append((current >> 8, cnt))
        return CombinedScanResult(
            raw_matches=raw_matches,
            end_state=self._end_state8(data) >> 8,
            bytes_scanned=n,
        )


_KERNELS: dict[str, type] = {
    ReferenceKernel.name: ReferenceKernel,
    FlatTableKernel.name: FlatTableKernel,
    RegexPrefilterKernel.name: RegexPrefilterKernel,
}


def make_kernel(automaton, name: str) -> ScanKernel:
    """Build the named kernel over *automaton*."""
    try:
        kernel_class = _KERNELS[name]
    except KeyError:
        raise ValueError(
            f"unknown kernel {name!r}; expected one of {KERNEL_NAMES}"
        ) from None
    return kernel_class(automaton)


class ScanCache:
    """A small LRU cache of scan results.

    Keyed by ``(payload, active_bitmap, start_state, limit)`` — everything
    a scan's output depends on — so repeated payloads (replayed popular
    pages in trace workloads) skip the automaton entirely.  Cached results
    are shared; callers must treat them as immutable.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"cache capacity must be positive: {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[ScanCacheKey, CombinedScanResult]" = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: ScanCacheKey) -> "CombinedScanResult | None":
        """The cached result for *key*, or None (counts hits/misses)."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: ScanCacheKey, value: CombinedScanResult) -> None:
        """Insert *value*, evicting the least recently used entry if full."""
        entries = self._entries
        entries[key] = value
        entries.move_to_end(key)
        if len(entries) > self.capacity:
            entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        self._entries.clear()

    def stats(self) -> dict[str, int]:
        """Hit/miss counters and current size."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(self._entries),
            "capacity": self.capacity,
        }
