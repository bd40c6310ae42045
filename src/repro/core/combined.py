"""The virtual-DPI combined automaton (paper Section 5.1).

Construction follows the paper's two steps:

1. Build a single Aho-Corasick automaton as if the pattern set were the
   union of every middlebox's set.  Patterns registered by several
   middleboxes appear once.
2. Renumber states so that the accepting states occupy ``{0, ..., f-1}``
   (the paper's trick: the accept test becomes ``state < f``), and build the
   direct-access ``match`` array whose *j*-th entry lists the
   ``(middlebox id, pattern id)`` pairs of every pattern ending at accepting
   state *j* — including patterns that are proper suffixes of the state's
   label.  Each accepting state also carries a bitmap of the middlebox ids
   in its entry so a single AND against the packet's active-middlebox bitmap
   decides whether the match table must be consulted at all.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Mapping

from repro.core.aho_corasick import AhoCorasick, AutomatonStats
from repro.core.kernels import (
    KERNEL_NAMES,
    CombinedScanResult,
    ScanCache,
    make_kernel,
)
from repro.core.patterns import Pattern, PatternKind

__all__ = ["CombinedAutomaton", "CombinedScanResult"]


class CombinedAutomaton:
    """One DFA serving the merged pattern sets of many middleboxes.

    ``kernel`` selects the scan loop (see :mod:`repro.core.kernels`);
    every kernel produces identical results, so the choice is purely a
    speed/memory trade.  ``scan_cache_size`` > 0 enables an LRU cache of
    whole scan results keyed by payload and scan parameters.
    """

    def __init__(
        self,
        pattern_sets: Mapping[int, Iterable[Pattern]],
        layout: str = "sparse",
        kernel: str = "reference",
        scan_cache_size: int = 0,
    ) -> None:
        self.layout = layout
        self.middlebox_ids = sorted(pattern_sets)
        for middlebox_id in self.middlebox_ids:
            if middlebox_id < 0:
                raise ValueError(f"negative middlebox id: {middlebox_id}")
        # Deduplicate pattern content across middleboxes.
        distinct: dict[bytes, list[tuple[int, int]]] = {}
        for middlebox_id in self.middlebox_ids:
            for pattern in pattern_sets[middlebox_id]:
                if pattern.kind is not PatternKind.LITERAL:
                    raise ValueError(
                        "CombinedAutomaton accepts literal patterns only; "
                        "extract regex anchors first (see repro.core.regex)"
                    )
                distinct.setdefault(pattern.data, []).append(
                    (middlebox_id, pattern.pattern_id)
                )
        self._distinct_patterns = sorted(distinct)
        self._referrers = [distinct[data] for data in self._distinct_patterns]
        self.num_distinct_patterns = len(self._distinct_patterns)

        base = AhoCorasick(self._distinct_patterns, layout=layout)
        self._pattern_lengths = [len(p) for p in self._distinct_patterns]
        self._build_renumbered(base)

        self._middlebox_set = frozenset(self.middlebox_ids)
        bitmap = 0
        for middlebox_id in self.middlebox_ids:
            bitmap |= 1 << middlebox_id
        #: Bitmap with every registered middlebox's bit set (precomputed).
        self.all_middleboxes_bitmap = bitmap

        if scan_cache_size < 0:
            raise ValueError(f"negative scan cache size: {scan_cache_size}")
        self.scan_cache = ScanCache(scan_cache_size) if scan_cache_size else None
        self.select_kernel(kernel)

    # --- construction -------------------------------------------------------

    def _build_renumbered(self, base: AhoCorasick) -> None:
        """Apply the accepting-states-first renumbering and build the match
        table and bitmaps."""
        num_states = base.num_states
        accepting = base.accepting_states
        self.num_accepting = len(accepting)
        permutation = array("l", [0] * num_states)
        next_accepting = 0
        next_other = self.num_accepting
        for old_state in range(num_states):
            if base.is_accepting(old_state):
                permutation[old_state] = next_accepting
                next_accepting += 1
            else:
                permutation[old_state] = next_other
                next_other += 1
        self.root = permutation[0]
        self.num_states = num_states

        # match table and bitmaps, indexed by the NEW accepting-state id.
        self._match: list[tuple] = [()] * self.num_accepting
        self._bitmaps = [0] * self.num_accepting
        self._accept_lengths: list[tuple] = [()] * self.num_accepting
        for old_state in accepting:
            new_state = permutation[old_state]
            pairs = []
            lengths = []
            for pattern_index in base.output_of(old_state):
                length = self._pattern_lengths[pattern_index]
                for referrer in self._referrers[pattern_index]:
                    pairs.append((referrer, length))
            pairs.sort()
            self._match[new_state] = tuple(pair for pair, _ in pairs)
            self._accept_lengths[new_state] = tuple(length for _, length in pairs)
            bitmap = 0
            for (middlebox_id, _), _ in pairs:
                bitmap |= 1 << middlebox_id
            self._bitmaps[new_state] = bitmap

        # Transitions in the new numbering.
        if layout_is_full := (base.layout == "full"):
            old_delta = base._delta
            self._delta = [None] * num_states
            for old_state in range(num_states):
                row = old_delta[old_state]
                self._delta[permutation[old_state]] = array(
                    "l", [permutation[row[byte]] for byte in range(256)]
                )
            self._goto = None
            self._fail = None
        else:
            self._delta = None
            self._goto: list[dict[int, int] | None] = [None] * num_states
            self._fail = array("l", [0] * num_states)
            for old_state in range(num_states):
                new_state = permutation[old_state]
                self._goto[new_state] = {
                    byte: permutation[child]
                    for byte, child in base._goto[old_state].items()
                }
                self._fail[new_state] = permutation[base._fail[old_state]]
        self._layout_is_full = layout_is_full
        self._num_trie_edges = base.num_trie_edges

    # --- bitmaps and match resolution ------------------------------------------

    def bitmask_of(self, middlebox_ids: Iterable[int]) -> int:
        """The active-middlebox bitmap for a set of middlebox ids."""
        known = self._middlebox_set
        bitmap = 0
        for middlebox_id in middlebox_ids:
            if middlebox_id not in known:
                raise KeyError(f"unknown middlebox id: {middlebox_id}")
            bitmap |= 1 << middlebox_id
        return bitmap

    def is_accepting(self, state: int) -> bool:
        """The paper's constant-compare accept test."""
        return state < self.num_accepting

    def match_entry(self, accept_state: int) -> tuple:
        """``(middlebox id, pattern id)`` pairs for an accepting state."""
        return self._match[accept_state]

    def match_entry_with_lengths(self, accept_state: int) -> tuple:
        """Pairs zipped with their pattern lengths (for stateless pruning)."""
        return tuple(
            zip(self._match[accept_state], self._accept_lengths[accept_state])
        )

    def bitmap_of_state(self, accept_state: int) -> int:
        """The middlebox bitmap stored at an accepting state."""
        return self._bitmaps[accept_state]

    def resolve(self, accept_state: int, active_bitmap: int) -> list:
        """Filter a state's match entry down to the active middleboxes."""
        return [
            (pair, length)
            for pair, length in zip(
                self._match[accept_state], self._accept_lengths[accept_state]
            )
            if active_bitmap & (1 << pair[0])
        ]

    # --- scanning ------------------------------------------------------------

    def select_kernel(self, kernel: str) -> None:
        """Install the named scan kernel (see :data:`KERNEL_NAMES`)."""
        if kernel not in KERNEL_NAMES:
            raise ValueError(
                f"unknown kernel {kernel!r}; expected one of {KERNEL_NAMES}"
            )
        self.kernel_name = kernel
        self._kernel = make_kernel(self, kernel)
        if self.scan_cache is not None:
            self.scan_cache.clear()

    @property
    def kernel_path_counts(self) -> "dict[str, int] | None":
        """Scans per path of the installed kernel, when it keeps counts
        (see :data:`~repro.core.kernels.PREFILTER_PATHS`)."""
        return getattr(self._kernel, "path_counts", None)

    def next_state(self, state: int, byte: int) -> int:
        """Single DFA step (scan loops inline this for speed)."""
        if self._layout_is_full:
            return self._delta[state][byte]
        goto = self._goto
        fail = self._fail
        root = self.root
        while byte not in goto[state] and state != root:
            state = fail[state]
        return goto[state].get(byte, root)

    def scan(
        self,
        data: bytes,
        active_bitmap: int | None = None,
        state: int | None = None,
        limit: int | None = None,
    ) -> CombinedScanResult:
        """Scan *data* (up to *limit* bytes) against the combined DFA.

        ``active_bitmap`` restricts reported matches to the middleboxes whose
        bits are set (``None`` means all).  ``state`` resumes a stateful scan.
        The work happens in the selected kernel; results are independent of
        the kernel choice.
        """
        if state is None:
            state = self.root
        if active_bitmap is None:
            active_bitmap = self.all_middleboxes_bitmap
        cache = self.scan_cache
        if cache is None:
            return self._kernel.scan(data, active_bitmap, state, limit)
        payload = data if data.__class__ is bytes else bytes(data)
        key = (payload, active_bitmap, state, limit)
        cached = cache.get(key)
        if cached is not None:
            return CombinedScanResult(
                raw_matches=cached.raw_matches,
                end_state=cached.end_state,
                bytes_scanned=cached.bytes_scanned,
            )
        result = self._kernel.scan(data, active_bitmap, state, limit)
        cache.put(key, result)
        return result

    # --- stats -------------------------------------------------------------------

    @property
    def stats(self) -> AutomatonStats:
        """Size statistics (states, edges, memory)."""
        if self._layout_is_full:
            memory = self.num_states * 256 * AhoCorasick._FULL_ENTRY_BYTES
        else:
            memory = self._num_trie_edges * AhoCorasick._SPARSE_EDGE_BYTES
        memory += self.num_states * AhoCorasick._STATE_OVERHEAD_BYTES
        return AutomatonStats(
            num_patterns=self.num_distinct_patterns,
            num_states=self.num_states,
            num_accepting_states=self.num_accepting,
            num_trie_edges=self._num_trie_edges,
            layout=self.layout,
            memory_bytes=memory,
        )
