"""Unit tests for the scan-kernel layer (:mod:`repro.core.kernels`)."""

import pytest

from repro.core.combined import CombinedAutomaton
from repro.core.instance import DPIServiceInstance, InstanceConfig
from repro.core.kernels import (
    DEFAULT_KERNEL,
    KERNEL_NAMES,
    PREFILTER_PATHS,
    FlatTableKernel,
    RegexPrefilterKernel,
    ScanCache,
    make_kernel,
)
from repro.core.patterns import Pattern
from repro.core.scanner import MiddleboxProfile

LAYOUTS = ("sparse", "full")


def build(pattern_sets, layout="sparse", **kwargs):
    return CombinedAutomaton(
        {
            middlebox_id: [Pattern(i, data) for i, data in enumerate(patterns)]
            for middlebox_id, patterns in pattern_sets.items()
        },
        layout=layout,
        **kwargs,
    )


def results_of(automaton, payload, bitmap=None, state=None, limit=None):
    out = {}
    for name in KERNEL_NAMES:
        automaton.select_kernel(name)
        scan = automaton.scan(payload, bitmap, state, limit)
        out[name] = (scan.raw_matches, scan.end_state, scan.bytes_scanned)
    return out


def assert_identical(automaton, payload, bitmap=None, state=None, limit=None):
    out = results_of(automaton, payload, bitmap, state, limit)
    assert out["flat"] == out["reference"]
    assert out["regex"] == out["reference"]
    return out["reference"]


class TestKernelEquivalence:
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_suffix_match_inside_longer_pattern(self, layout):
        automaton = build({1: [b"b", b"abc"]}, layout=layout)
        raw, _, _ = assert_identical(automaton, b"xabcx")
        positions = sorted(cnt for _, cnt in raw)
        assert positions == [3, 4]  # "b" ends at 3, "abc" at 4

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_prefix_and_full_pattern(self, layout):
        automaton = build({1: [b"ab", b"abc"]}, layout=layout)
        raw, _, _ = assert_identical(automaton, b"abc")
        assert sorted(cnt for _, cnt in raw) == [2, 3]

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_overlapping_occurrences(self, layout):
        automaton = build({1: [b"aa"]}, layout=layout)
        raw, _, _ = assert_identical(automaton, b"aaaa")
        assert sorted(cnt for _, cnt in raw) == [2, 3, 4]

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_limit_bounded_scan(self, layout):
        automaton = build({1: [b"attack"]}, layout=layout)
        for limit in (0, 3, 6, 9, 100):
            raw, _, scanned = assert_identical(
                automaton, b"an attack here", limit=limit
            )
            assert scanned == min(limit, 14)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_mid_flow_resume(self, layout):
        automaton = build({1: [b"attack"]}, layout=layout)
        payload = b"half an att" + b"ack continues"
        for cut in range(len(payload)):
            automaton.select_kernel("reference")
            mid = automaton.scan(payload[:cut]).end_state
            assert_identical(automaton, payload[cut:], state=mid)

    def test_active_bitmap_filters_identically(self):
        automaton = build({1: [b"shared", b"one"], 2: [b"shared", b"two"]})
        payload = b"one shared two"
        for bitmap in (None, 0, 1 << 1, 1 << 2, (1 << 1) | (1 << 2)):
            assert_identical(automaton, payload, bitmap=bitmap)

    def test_empty_pattern_set(self):
        automaton = build({1: []})
        raw, end, scanned = assert_identical(automaton, b"anything at all")
        assert raw == []
        assert end == automaton.root
        assert scanned == 15

    def test_empty_payload(self):
        automaton = build({1: [b"abc"]})
        raw, end, scanned = assert_identical(automaton, b"")
        assert raw == [] and scanned == 0

    def test_long_payload_exercises_unrolled_and_tail_loops(self):
        automaton = build({1: [b"needle"]})
        for tail in range(9):  # payload lengths across the 8-byte unroll
            payload = (b"x" * 64) + b"needle" + (b"y" * tail)
            raw, _, _ = assert_identical(automaton, payload)
            assert any(cnt == 70 for _, cnt in raw)  # the needle's end

    def test_regex_kernel_dense_anchor_payload_bails_correctly(self):
        # Every payload byte is an anchor byte: the prefilter must bail to
        # the flat path and still agree with the reference.
        automaton = build({1: [b"\xff\xfe", b"\xfe\xff"]})
        payload = b"\xff\xfe\xff\xfe\xff"
        assert_identical(automaton, payload)

    def test_regex_kernel_sparse_anchor_payload(self):
        automaton = build({1: [b"rare\x00sig"]})
        payload = b"printable filler " * 20 + b"rare\x00sig" + b" more filler"
        raw, _, _ = assert_identical(automaton, payload)
        assert len(raw) == 1

    def test_match_straddling_region_boundaries(self):
        # Anchor (\x00) sits mid-pattern; occurrences near payload edges.
        automaton = build({1: [b"ab\x00cd"]})
        for payload in (
            b"ab\x00cd",
            b"ab\x00cdab\x00cd",
            b"xxxxab\x00cd",
            b"ab\x00cdyyyy",
            b"\x00ab\x00cd\x00",
        ):
            assert_identical(automaton, payload)


class TestPrefilterPaths:
    """The regex kernel's paths on payloads past its length gate."""

    PATTERNS = [b"ABCDEFGH", b"FGH", b"q\x00rs"]  # longest W = 8

    def kernels(self, layout="sparse"):
        automaton = build({1: self.PATTERNS}, layout=layout)
        return automaton, FlatTableKernel(automaton), RegexPrefilterKernel(automaton)

    def scan_both(self, payload, prefix=b"", limit=None, layout="sparse"):
        """Scan *payload* with both kernels, carrying the state *prefix*
        leaves; returns the regex result and its path counts."""
        automaton, flat, regex = self.kernels(layout)
        state = flat.scan(prefix, 1 << 1, automaton.root, None).end_state
        expected = flat.scan(payload, 1 << 1, state, limit)
        got = regex.scan(payload, 1 << 1, state, limit)
        assert (got.raw_matches, got.end_state, got.bytes_scanned) == (
            expected.raw_matches,
            expected.end_state,
            expected.bytes_scanned,
        )
        return got, regex.path_counts

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_carried_matches_at_head_boundary(self, layout):
        # From carried state "A", the payload completes "ABCDEFGH" at
        # cnt = W - 1 (the head's last byte); a second occurrence fully
        # inside the payload ends at cnt = W + 7.  From carried state
        # "ABCDEFG" an "H" ends it at cnt = 1, and an occurrence starting
        # at byte 0 ends at cnt = W, the first byte past the head.
        filler = b"z" * 200
        got, counts = self.scan_both(b"BCDEFGHABCDEFGH" + filler, b"xA", layout=layout)
        positions = [cnt for _, cnt in got.raw_matches]
        assert positions == [7, 15]  # one accepting state: ABCDEFGH + FGH
        assert counts["carried_head"] == 1
        got, _ = self.scan_both(b"ABCDEFGH" + filler, b"ABCDEFG", layout=layout)
        assert [cnt for _, cnt in got.raw_matches] == [8]
        got, _ = self.scan_both(b"H" + filler, b"ABCDEFG", layout=layout)
        assert [cnt for _, cnt in got.raw_matches] == [1]

    def test_each_path_is_counted(self):
        long_filler = b"z" * 300
        _, counts = self.scan_both(long_filler + b"q\x00rs")
        assert counts["anchor"] == 1
        # Upper-case and \x00 anchors everywhere, but no pattern's gram.
        _, counts = self.scan_both(b"AzBz\x00z" * 60)
        assert counts["qgram"] == 1
        _, counts = self.scan_both(b"ABCDEFGH" * 40)
        assert counts["dense_dfa"] == 1
        _, counts = self.scan_both(b"zzABCDEFGH")
        assert counts["short_dfa"] == 1
        _, counts = self.scan_both(long_filler, limit=10)
        assert counts["bounded_dfa"] == 1
        _, counts = self.scan_both(long_filler, b"AB")
        assert counts["carried_head"] == 1 and counts["anchor"] == 1

    def test_short_patterns_shrink_the_gram(self):
        automaton = build({1: [b"ab", b"abcdef"]})
        assert RegexPrefilterKernel(automaton).q == 2
        automaton = build({1: [b"abcdefg"]})
        assert RegexPrefilterKernel(automaton).q == 4

    def test_instance_exports_path_counts(self):
        from repro.telemetry import TelemetryHub
        from repro.telemetry.digest import digest_material

        hub = TelemetryHub()
        instance = DPIServiceInstance(make_instance_config("regex"), telemetry=hub)
        instance.inspect(b"an attack", chain_id=100)
        samples = {
            metric.labels["path"]: metric.value
            for metric in hub.registry.collect()
            if metric.name == "dpi_kernel_path_total"
        }
        assert set(samples) == set(PREFILTER_PATHS)
        assert samples["short_dfa"] == 1
        names = {m["name"] for m in digest_material(hub)["metrics"]}
        assert "dpi_kernel_path_total" not in names


class TestKernelSelection:
    def test_unknown_kernel_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            build({1: [b"abc"]}, kernel="turbo")

    def test_unknown_kernel_rejected_at_select(self):
        automaton = build({1: [b"abc"]})
        with pytest.raises(ValueError, match="unknown kernel"):
            automaton.select_kernel("turbo")

    def test_make_kernel_unknown_name(self):
        automaton = build({1: [b"abc"]})
        with pytest.raises(ValueError, match="unknown kernel"):
            make_kernel(automaton, "turbo")

    def test_default_kernel_is_reference(self):
        assert build({1: [b"abc"]}).kernel_name == "reference"

    def test_instances_default_to_the_prefilter_kernel(self):
        config = make_instance_config(DEFAULT_KERNEL)
        assert DEFAULT_KERNEL == "regex"
        assert InstanceConfig(
            pattern_sets=config.pattern_sets,
            profiles=config.profiles,
            chain_map=config.chain_map,
        ).kernel == DEFAULT_KERNEL

    def test_kernel_name_tracks_selection(self):
        automaton = build({1: [b"abc"]})
        automaton.select_kernel("flat")
        assert automaton.kernel_name == "flat"

    def test_flat_table_shape(self):
        for layout in LAYOUTS:
            automaton = build({1: [b"ab", b"ba"]}, layout=layout)
            table = FlatTableKernel(automaton)._delta
            assert len(table) == automaton.num_states * 256
            # Entries are pre-shifted next states matching the automaton.
            for state in range(automaton.num_states):
                for byte in (0, ord("a"), ord("b"), 255):
                    expected = automaton.next_state(state, byte) << 8
                    assert table[(state << 8) + byte] == expected

    def test_regex_kernel_anchor_bytes_cover_patterns(self):
        automaton = build({1: [b"abc\xffx", b"plain"]})
        kernel = RegexPrefilterKernel(automaton)
        assert any(bytes([b]) in b"abc\xffx" for b in kernel.anchor_bytes)

    def test_instance_config_validates_kernel(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            InstanceConfig(
                pattern_sets={1: []},
                profiles={1: MiddleboxProfile(1)},
                chain_map={},
                kernel="turbo",
            )

    def test_instance_config_validates_cache_size(self):
        with pytest.raises(ValueError, match="negative scan cache size"):
            InstanceConfig(
                pattern_sets={1: []},
                profiles={1: MiddleboxProfile(1)},
                chain_map={},
                scan_cache_size=-1,
            )


class TestScanCache:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ScanCache(0)
        with pytest.raises(ValueError):
            ScanCache(-3)

    def test_hit_and_miss_counters(self):
        cache = ScanCache(4)
        assert cache.get("k") is None
        cache.put("k", "v")
        assert cache.get("k") == "v"
        assert cache.stats() == {
            "hits": 1,
            "misses": 1,
            "evictions": 0,
            "entries": 1,
            "capacity": 4,
        }

    def test_lru_eviction_order(self):
        cache = ScanCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"; "b" becomes LRU
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.evictions == 1

    def test_clear_keeps_counters(self):
        cache = ScanCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["hits"] == 1

    def test_automaton_cache_round_trip(self):
        automaton = build({1: [b"attack"]}, kernel="flat", scan_cache_size=8)
        payload = b"an attack comes"
        first = automaton.scan(payload)
        second = automaton.scan(payload)
        assert first.raw_matches == second.raw_matches
        assert first.end_state == second.end_state
        assert automaton.scan_cache.stats()["hits"] == 1

    def test_cache_key_includes_scan_parameters(self):
        automaton = build(
            {1: [b"attack"], 2: [b"attack"]}, kernel="flat", scan_cache_size=8
        )
        payload = b"an attack comes"
        automaton.scan(payload, automaton.bitmask_of([1]))
        automaton.scan(payload, automaton.bitmask_of([2]))
        automaton.scan(payload, limit=4)
        assert automaton.scan_cache.stats()["hits"] == 0

    def test_cached_result_matches_uncached(self):
        cached = build({1: [b"aa"]}, kernel="flat", scan_cache_size=4)
        plain = build({1: [b"aa"]}, kernel="flat")
        payload = b"aaaa"
        cached.scan(payload)
        hit = cached.scan(payload)
        direct = plain.scan(payload)
        assert hit.raw_matches == direct.raw_matches
        assert hit.end_state == direct.end_state
        assert hit.bytes_scanned == direct.bytes_scanned

    def test_select_kernel_clears_cache(self):
        automaton = build({1: [b"aa"]}, kernel="flat", scan_cache_size=4)
        automaton.scan(b"aaaa")
        automaton.select_kernel("reference")
        assert len(automaton.scan_cache) == 0

    def test_negative_cache_size_rejected(self):
        with pytest.raises(ValueError):
            build({1: [b"aa"]}, scan_cache_size=-1)


def make_instance_config(kernel, scan_cache_size=0, stateful=False):
    from repro.core.patterns import PatternKind

    return InstanceConfig(
        pattern_sets={
            1: [
                Pattern(0, b"attack"),
                Pattern(1, rb"regular\s*expression", kind=PatternKind.REGEX),
            ],
            2: [Pattern(0, b"virus123")],
        },
        profiles={
            1: MiddleboxProfile(1, name="ids", stateful=stateful),
            2: MiddleboxProfile(2, name="av", stateful=stateful),
        },
        chain_map={100: (1, 2)},
        kernel=kernel,
        scan_cache_size=scan_cache_size,
    )


class TestInstanceKernels:
    PAYLOADS = [
        b"an attack with a regular expression and virus123",
        b"clean traffic",
        b"virus123 virus123",
        b"",
    ]

    def test_instance_output_identical_across_kernels(self):
        instances = {
            name: DPIServiceInstance(make_instance_config(name))
            for name in KERNEL_NAMES
        }
        for payload in self.PAYLOADS:
            outputs = {
                name: instance.inspect(payload, chain_id=100)
                for name, instance in instances.items()
            }
            reference = outputs["reference"]
            for name in ("flat", "regex"):
                assert outputs[name].matches == reference.matches
                assert (
                    outputs[name].report.encode() == reference.report.encode()
                )

    def test_stateful_flow_identical_across_kernels(self):
        instances = {
            name: DPIServiceInstance(make_instance_config(name, stateful=True))
            for name in KERNEL_NAMES
        }
        chunks = [b"a split att", b"ack arrives", b" with virus", b"123 too"]
        for index, chunk in enumerate(chunks):
            outputs = {
                name: instance.inspect(chunk, chain_id=100, flow_key="flow-1")
                for name, instance in instances.items()
            }
            reference = outputs["reference"]
            for name in ("flat", "regex"):
                assert outputs[name].matches == reference.matches, (index, name)

    def test_instance_kernel_knob_reaches_automaton(self):
        instance = DPIServiceInstance(make_instance_config("regex"))
        assert instance.automaton.kernel_name == "regex"
        assert instance.config.kernel == "regex"

    def test_inspect_batch_matches_sequential_inspect(self):
        batch_instance = DPIServiceInstance(make_instance_config("flat"))
        loop_instance = DPIServiceInstance(make_instance_config("flat"))
        batched = batch_instance.inspect_batch(self.PAYLOADS, chain_id=100)
        looped = [loop_instance.inspect(p, chain_id=100) for p in self.PAYLOADS]
        assert [b.matches for b in batched] == [s.matches for s in looped]
        assert batch_instance.telemetry.packets_scanned == len(self.PAYLOADS)

    def test_inspect_batch_with_flow_keys(self):
        instance = DPIServiceInstance(make_instance_config("flat", stateful=True))
        chunks = [b"a split att", b"ack arrives"]
        outputs = instance.inspect_batch(chunks, chain_id=100, flow_keys=["f", "f"])
        assert outputs[1].matches[1] == [(0, 14)]  # cross-packet match

    def test_inspect_batch_flow_key_length_mismatch(self):
        instance = DPIServiceInstance(make_instance_config("flat"))
        with pytest.raises(ValueError, match="flow_keys length"):
            instance.inspect_batch([b"a", b"b"], chain_id=100, flow_keys=["only-one"])

    def test_scan_cache_stats_exposed(self):
        instance = DPIServiceInstance(make_instance_config("flat"))
        assert instance.scan_cache_stats() is None
        cached = DPIServiceInstance(
            make_instance_config("flat", scan_cache_size=16)
        )
        cached.inspect(b"an attack", chain_id=100)
        cached.inspect(b"an attack", chain_id=100)
        stats = cached.scan_cache_stats()
        assert stats["hits"] >= 1
