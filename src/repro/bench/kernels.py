"""Scan-kernel ablation: flat-table and regex-prefilter vs reference.

Builds Snort-scale workloads — the same pattern-count regime as the paper's
Snort corpus — from both synthetic corpora (token-flavored ``snort-like``
and high-entropy ``clamav-like``) over an HTTP-style trace, then measures
each kernel's throughput on the *same* automaton.  Kernels are timed in
interleaved rounds (kernel A, B, C, then A, B, C again ...) keeping the
best round per kernel, which cancels scheduler noise and frequency drift
that would bias a one-kernel-at-a-time comparison.

Each corpus is timed twice: ``kernels`` rows scan every payload from the
root, and ``stateful`` rows resume each payload from the end state of the
previous payload in its flow (payload *i* belongs to flow
``i % STATEFUL_FLOWS``), as a stateful middlebox's flows do.

The two corpora deliberately bracket the regex kernel's operating range:
snort-like content strings share bytes with benign web traffic, so the
rare-byte anchors are dense and the kernel's q-gram stage finds the
candidates; clamav-like signatures anchor on bytes web traffic almost
never carries, so whole payloads are dismissed at C scan speed.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

from repro.bench.harness import host_block
from repro.core.combined import CombinedAutomaton
from repro.core.kernels import KERNEL_NAMES, ScanCache
from repro.core.patterns import Pattern
from repro.workloads.patterns import generate_clamav_like, generate_snort_like
from repro.workloads.traffic import TrafficGenerator

#: Flows the stateful rows spread a trace over.
STATEFUL_FLOWS = 8

#: Corpus name -> generator, in the order benchmarks report them.
CORPORA = {
    "snort-like": generate_snort_like,
    "clamav-like": generate_clamav_like,
}


@dataclass(frozen=True)
class KernelWorkload:
    """One corpus + trace pairing with its combined automaton."""

    corpus: str
    automaton: CombinedAutomaton
    payloads: list
    total_bytes: int


def build_workload(
    corpus: str,
    pattern_count: int = 2000,
    packets: int = 60,
    pattern_seed: int = 1,
    trace_seed: int = 7,
    match_rate: float = 0.08,
    layout: str = "sparse",
) -> KernelWorkload:
    """A seeded corpus + HTTP trace + automaton for kernel ablations."""
    try:
        generator = CORPORA[corpus]
    except KeyError:
        raise ValueError(
            f"unknown corpus {corpus!r}; expected one of {tuple(CORPORA)}"
        ) from None
    patterns = generator(count=pattern_count, seed=pattern_seed)
    trace = TrafficGenerator(seed=trace_seed, style="http").trace(
        packets, patterns=patterns, match_rate=match_rate
    )
    automaton = CombinedAutomaton(
        {0: [Pattern(i, data) for i, data in enumerate(patterns)]},
        layout=layout,
    )
    return KernelWorkload(
        corpus=corpus,
        automaton=automaton,
        payloads=list(trace.payloads),
        total_bytes=trace.total_bytes,
    )


def carried_states(automaton, payloads, flows: int = STATEFUL_FLOWS) -> list:
    """The start state of each payload when payload *i* continues flow
    ``i % flows`` from the end state of that flow's previous payload."""
    ends = [automaton.root] * flows
    starts = []
    for index, payload in enumerate(payloads):
        flow = index % flows
        starts.append(ends[flow])
        ends[flow] = automaton.scan(payload, state=ends[flow]).end_state
    return starts


def _best_of_interleaved(
    automaton, payloads, total_bytes, kernels, rounds, states=None
):
    """Best Mbps per kernel over interleaved timed rounds; *states* gives
    each payload's start state (None: every scan starts at the root)."""
    scans = list(zip(payloads, states or [None] * len(payloads)))
    best = {name: 0.0 for name in kernels}
    for name in kernels:  # build every kernel once before timing
        automaton.select_kernel(name)
        for payload, state in scans[:8]:
            automaton.scan(payload, state=state)
    for _ in range(rounds):
        for name in kernels:
            automaton.select_kernel(name)
            started = time.perf_counter()
            for payload, state in scans:
                automaton.scan(payload, state=state)
            elapsed = time.perf_counter() - started
            mbps = total_bytes * 8 / elapsed / 1e6 if elapsed > 0 else float("inf")
            if mbps > best[name]:
                best[name] = mbps
    return best


def _rows(best: dict) -> dict:
    reference = best.get("reference", 0.0)
    return {
        name: {
            "mbps": round(mbps, 2),
            "speedup_vs_reference": (
                round(mbps / reference, 2) if reference else None
            ),
        }
        for name, mbps in best.items()
    }


def _cached_pass(automaton, payloads, total_bytes, cache_size, rounds):
    """Throughput of an all-hits pass with the LRU scan cache enabled."""
    automaton.scan_cache = ScanCache(cache_size)
    try:
        for payload in payloads:  # populate
            automaton.scan(payload)
        best = 0.0
        for _ in range(rounds):
            started = time.perf_counter()
            for payload in payloads:
                automaton.scan(payload)
            elapsed = time.perf_counter() - started
            mbps = total_bytes * 8 / elapsed / 1e6 if elapsed > 0 else float("inf")
            best = max(best, mbps)
        stats = automaton.scan_cache.stats()
    finally:
        automaton.scan_cache = None
    return best, stats


def run_kernel_benchmark(
    pattern_count: int = 2000,
    packets: int = 60,
    rounds: int = 5,
    kernels=KERNEL_NAMES,
    corpora=tuple(CORPORA),
    cache_size: int = 256,
) -> dict:
    """The full kernel ablation; returns the BENCH_kernels.json payload."""
    results: dict = {
        "benchmark": "scan-kernels",
        "config": {
            "pattern_count": pattern_count,
            "packets": packets,
            "rounds": rounds,
            "trace_style": "http",
            "match_rate": 0.08,
            "cache_size": cache_size,
            "stateful_flows": STATEFUL_FLOWS,
        },
        "host": host_block(),
        "corpora": {},
    }
    for corpus in corpora:
        workload = build_workload(
            corpus, pattern_count=pattern_count, packets=packets
        )
        automaton = workload.automaton
        best = _best_of_interleaved(
            automaton, workload.payloads, workload.total_bytes, kernels, rounds
        )
        reference = best.get("reference", 0.0)
        stateful = _best_of_interleaved(
            automaton,
            workload.payloads,
            workload.total_bytes,
            kernels,
            rounds,
            states=carried_states(automaton, workload.payloads),
        )
        entry: dict = {
            "total_bytes": workload.total_bytes,
            "num_states": automaton.num_states,
            "kernels": _rows(best),
            "stateful": _rows(stateful),
        }
        if cache_size:
            automaton.select_kernel("flat")
            cached_mbps, stats = _cached_pass(
                automaton, workload.payloads, workload.total_bytes,
                cache_size, rounds,
            )
            entry["cache"] = {
                "kernel": "flat",
                "hit_pass_mbps": round(cached_mbps, 2),
                "speedup_vs_reference": (
                    round(cached_mbps / reference, 2) if reference else None
                ),
                "stats": stats,
            }
        results["corpora"][corpus] = entry
    return results


def format_results(results: dict) -> str:
    """Aligned text table of one :func:`run_kernel_benchmark` output."""
    lines = []
    config = results["config"]
    lines.append(
        f"scan kernels — {config['pattern_count']} patterns, "
        f"{config['packets']} packets ({config['trace_style']}), "
        f"best of {config['rounds']} interleaved rounds"
    )
    for corpus, entry in results["corpora"].items():
        lines.append(f"  {corpus} ({entry['num_states']} states):")
        for start in ("kernels", "stateful"):
            for name, numbers in entry[start].items():
                speedup = numbers["speedup_vs_reference"]
                speedup_text = (
                    f"{speedup:6.2f}x" if speedup is not None else "   n/a"
                )
                label = name if start == "kernels" else f"{name}/carried"
                lines.append(
                    f"    {label:16} {numbers['mbps']:10.2f} Mbps  {speedup_text}"
                )
        cache = entry.get("cache")
        if cache is not None:
            speedup = cache["speedup_vs_reference"]
            speedup_text = f"{speedup:6.2f}x" if speedup is not None else "   n/a"
            lines.append(
                f"    {'cache-hit':10} {cache['hit_pass_mbps']:10.2f} Mbps  "
                f"{speedup_text} (hits {cache['stats']['hits']})"
            )
    return "\n".join(lines)


def write_results(results: dict, path) -> None:
    """Write a benchmark result dict as pretty-printed JSON."""
    with open(path, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
