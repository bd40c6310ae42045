"""Property-based differential test: all kernels are byte-identical.

Random pattern sets over a small alphabet (to force overlaps, shared
prefixes, and suffix matches) are scanned over random payloads — from the
root, resumed mid-flow, and under byte limits — and every kernel must
produce exactly the reference kernel's raw matches, end state, and byte
count.  A second property checks the same at the instance level, where raw
matches become middlebox reports.  A third drives the regex kernel's
prefilter paths with payloads longer than its length gate, carried-state
starts and q-grams shorter than four bytes, and checks that every path
was reached.
"""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from repro.core.combined import CombinedAutomaton
from repro.core.instance import DPIServiceInstance, InstanceConfig
from repro.core.kernels import KERNEL_NAMES, PREFILTER_PATHS, make_kernel
from repro.core.patterns import Pattern
from repro.core.scanner import MiddleboxProfile
from repro.net.reassembly import OVERLAP_POLICIES, StreamReassembler

# A tiny alphabet plus one binary byte: overlap-heavy, and exercises the
# regex kernel's anchor classes on both printable and non-printable bytes.
ALPHABET = list(b"ab\x00c")

pattern_bytes = st.builds(
    bytes, st.lists(st.sampled_from(ALPHABET), min_size=1, max_size=6)
)
pattern_lists = st.lists(pattern_bytes, min_size=1, max_size=8)
payloads = st.builds(
    bytes, st.lists(st.sampled_from(ALPHABET), min_size=0, max_size=96)
)


def build_automaton(patterns, second_set, layout):
    sets = {1: [Pattern(i, p) for i, p in enumerate(patterns)]}
    if second_set:
        sets[2] = [Pattern(i, p) for i, p in enumerate(second_set)]
    return CombinedAutomaton(sets, layout=layout)


@settings(max_examples=120, deadline=None)
@given(
    patterns=pattern_lists,
    second_set=st.one_of(st.just([]), pattern_lists),
    payload=payloads,
    layout=st.sampled_from(("sparse", "full")),
    bitmap_choice=st.sampled_from(("all", "none", "first", "zero")),
    limit=st.one_of(st.none(), st.integers(min_value=0, max_value=100)),
    cut_fraction=st.floats(min_value=0.0, max_value=1.0),
)
def test_kernels_scan_identically(
    patterns, second_set, payload, layout, bitmap_choice, limit, cut_fraction
):
    automaton = build_automaton(patterns, second_set, layout)
    bitmap = {
        "all": None,
        "none": automaton.all_middleboxes_bitmap,
        "first": automaton.bitmask_of([1]),
        "zero": 0,
    }[bitmap_choice]

    # A mid-flow resume state, derived with the reference kernel.
    cut = int(len(payload) * cut_fraction)
    automaton.select_kernel("reference")
    resume_state = automaton.scan(payload[:cut]).end_state

    expected_root = None
    expected_resumed = None
    for name in KERNEL_NAMES:
        automaton.select_kernel(name)
        root_scan = automaton.scan(payload, bitmap, None, limit)
        resumed_scan = automaton.scan(payload[cut:], bitmap, resume_state, limit)
        root = (root_scan.raw_matches, root_scan.end_state, root_scan.bytes_scanned)
        resumed = (
            resumed_scan.raw_matches,
            resumed_scan.end_state,
            resumed_scan.bytes_scanned,
        )
        if name == "reference":
            expected_root, expected_resumed = root, resumed
        else:
            assert root == expected_root, name
            assert resumed == expected_resumed, name


@settings(max_examples=40, deadline=None)
@given(
    patterns=pattern_lists,
    chunks=st.lists(payloads, min_size=1, max_size=4),
    layout=st.sampled_from(("sparse", "full")),
    stateful=st.booleans(),
)
def test_instances_report_identically(patterns, chunks, layout, stateful):
    instances = {}
    for name in KERNEL_NAMES:
        config = InstanceConfig(
            pattern_sets={1: [Pattern(i, p) for i, p in enumerate(patterns)]},
            profiles={1: MiddleboxProfile(1, name="ids", stateful=stateful)},
            chain_map={100: (1,)},
            layout=layout,
            kernel=name,
        )
        instances[name] = DPIServiceInstance(config)
    for chunk in chunks:
        outputs = {
            name: instance.inspect(chunk, chain_id=100, flow_key="flow")
            for name, instance in instances.items()
        }
        reference = outputs["reference"]
        for name in ("flat", "regex"):
            assert outputs[name].matches == reference.matches, name
            assert outputs[name].report.encode() == reference.report.encode()
            assert outputs[name].bytes_scanned == reference.bytes_scanned


@settings(max_examples=40, deadline=None)
@given(
    patterns=pattern_lists,
    stream=st.builds(
        bytes, st.lists(st.sampled_from(ALPHABET), min_size=1, max_size=80)
    ),
    cut_points=st.lists(
        st.integers(min_value=1, max_value=79), max_size=5
    ),
    order_seed=st.integers(min_value=0, max_value=2**16),
    policy=st.sampled_from(OVERLAP_POLICIES),
    duplicate=st.booleans(),
    conflict=st.booleans(),
)
def test_reassembled_ambiguous_streams_scan_identically(
    patterns, stream, cut_points, order_seed, policy, duplicate, conflict
):
    """Reassembly-aware equivalence: segment a stream adversarially
    (reordered, duplicated, conflictingly-overlapped), reassemble under a
    policy, and every kernel must agree on every released chunk — with
    per-flow DFA state carried across chunk boundaries."""
    cuts = sorted({cut for cut in cut_points if cut < len(stream)})
    bounds = [0, *cuts, len(stream)]
    segments = [
        (bounds[i], stream[bounds[i] : bounds[i + 1]])
        for i in range(len(bounds) - 1)
    ]
    rng = random.Random(order_seed)
    if duplicate:
        segments.append(rng.choice(segments))
    if conflict:
        seq, data = rng.choice(segments)
        segments.append((seq, bytes(byte ^ 0x01 for byte in data)))
    rng.shuffle(segments)

    instances = {}
    for name in KERNEL_NAMES:
        config = InstanceConfig(
            pattern_sets={1: [Pattern(i, p) for i, p in enumerate(patterns)]},
            profiles={1: MiddleboxProfile(1, name="ids", stateful=True)},
            chain_map={100: (1,)},
            kernel=name,
        )
        instances[name] = DPIServiceInstance(config)

    reassembler = StreamReassembler(policy=policy)
    released_total = 0
    for seq, data in segments:
        released = reassembler.add_segment(seq, data)
        released_total += len(released)
        if not released:
            continue
        outputs = {
            name: instance.inspect(released, chain_id=100, flow_key="flow")
            for name, instance in instances.items()
        }
        reference = outputs["reference"]
        for name in ("flat", "regex"):
            assert outputs[name].matches == reference.matches, name
            assert outputs[name].bytes_scanned == reference.bytes_scanned

    # Policy choice resolves WHICH bytes win an ambiguous overlap, never
    # HOW MANY bytes the stream covers: the other policy must release
    # exactly the same amount from the same segment plan.
    other = StreamReassembler(
        policy="last" if policy == "first" else "first"
    )
    other_total = sum(
        len(other.add_segment(seq, data)) for seq, data in segments
    )
    assert other_total == released_total


# --- the regex kernel's prefilter paths ------------------------------------
#
# The cases above are at most 96 bytes, mostly under the regex kernel's
# length gate (_LENGTH_GATE windows of the longest pattern), so they run
# its DFA fallback.  These cases are built to reach every path instead:
# long payloads mixing anchor-free filler, anchor-dense but gram-free
# filler, planted patterns and gram-dense runs; carried-state starts whose
# prefix leaves a pattern half matched; and pattern sets whose shortest
# pattern is under four bytes, so the q-gram length shrinks.


def prefilter_case(rng):
    """``(patterns, carried prefix, payload, limit)`` from *rng*."""
    shortest = rng.choice((1, 2, 3, 4))
    patterns = [
        bytes(rng.choice(ALPHABET) for _ in range(rng.randint(shortest, 6)))
        for _ in range(rng.randint(1, 6))
    ]
    # A prefix that ends inside a pattern, so the payload's first bytes
    # complete a match straddling the carried state.
    straddled = rng.choice(patterns)
    prefix = bytes(rng.choice(ALPHABET) for _ in range(rng.randint(0, 6)))
    prefix += straddled[: rng.randint(0, len(straddled))]
    parts = [straddled[len(prefix) % len(straddled) :]] if rng.random() < 0.5 else []
    for _ in range(rng.randint(1, 14)):
        kind = rng.random()
        if kind < 0.35:
            parts.append(b"z" * rng.randint(0, 120))
        elif kind < 0.55:
            # Alphabet bytes split by 'z': anchors, but few patterns' grams.
            parts.append(b"z".join(rng.choice(ALPHABET).to_bytes(1, "big")
                                   for _ in range(rng.randint(1, 60))))
        elif kind < 0.85:
            parts.append(rng.choice(patterns))
        else:
            parts.append(bytes(rng.choice(ALPHABET) for _ in range(rng.randint(0, 80))))
    payload = b"".join(parts)
    limit = rng.randint(0, len(payload)) if rng.random() < 0.1 else None
    return patterns, prefix, payload, limit


def check_prefilter_case(rng, layout):
    """Scan one case from the root and from carried state with every
    kernel; returns the regex kernel (for its path counts)."""
    patterns, prefix, payload, limit = prefilter_case(rng)
    automaton = CombinedAutomaton(
        {1: [Pattern(i, p) for i, p in enumerate(patterns)]}, layout=layout
    )
    kernels = {name: make_kernel(automaton, name) for name in KERNEL_NAMES}
    reference = kernels["reference"]
    carried = reference.scan(prefix, 1 << 1, automaton.root, None).end_state
    for state in (automaton.root, carried):
        expected = reference.scan(payload, 1 << 1, state, limit)
        for name in ("flat", "regex"):
            got = kernels[name].scan(payload, 1 << 1, state, limit)
            assert got.raw_matches == expected.raw_matches, (name, state)
            assert got.end_state == expected.end_state, (name, state)
            assert got.bytes_scanned == expected.bytes_scanned, (name, state)
    return kernels["regex"]


@settings(max_examples=80, deadline=None)
@given(rng=st.randoms(use_true_random=False), layout=st.sampled_from(("sparse", "full")))
def test_prefilter_paths_scan_identically(rng, layout):
    check_prefilter_case(rng, layout)


def test_prefilter_cases_reach_every_path():
    rng = random.Random(20140)
    totals = dict.fromkeys(PREFILTER_PATHS, 0)
    q_lengths = set()
    for index in range(150):
        kernel = check_prefilter_case(rng, ("sparse", "full")[index % 2])
        q_lengths.add(kernel.q)
        for path, count in kernel.path_counts.items():
            totals[path] += count
    assert all(totals.values()), totals
    assert q_lengths >= {1, 2, 3, 4}
