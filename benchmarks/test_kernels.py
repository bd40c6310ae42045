"""Ablation — scan kernels (flat-table, regex-prefilter, reference).

Runs :func:`repro.bench.kernels.run_kernel_benchmark` on both synthetic
corpora, writes ``BENCH_kernels.json`` at the repo root, and asserts the
speedup floors the kernels were built to clear:

* flat-table >= 2x reference on the token-dense snort-like corpus, where
  every kernel has to walk the DFA byte by byte;
* regex-prefilter >= 10x reference on the high-entropy clamav-like corpus,
  where signature anchor bytes are rare in web traffic and whole payloads
  are dismissed inside the C regex engine.

The two corpora deliberately bracket the regex kernel's operating range —
on snort-like content its byte anchors are dense and its q-gram stage
finds the candidates, so it is asserted only to stay at least at the
reference's speed there.
"""

from __future__ import annotations

from pathlib import Path

from repro.bench.kernels import (
    build_workload,
    format_results,
    run_kernel_benchmark,
    write_results,
)

from benchmarks.conftest import run_once

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_kernels.json"


def test_kernel_ablation(benchmark):
    def experiment():
        results = run_kernel_benchmark(
            pattern_count=2000, packets=60, rounds=3
        )
        print()
        print(format_results(results))
        write_results(results, RESULTS_PATH)
        return results

    results = run_once(benchmark, experiment)
    snort = results["corpora"]["snort-like"]["kernels"]
    clamav = results["corpora"]["clamav-like"]["kernels"]
    # The acceptance floors (see DESIGN.md, "Scan kernels").
    assert snort["flat"]["speedup_vs_reference"] >= 2.0
    assert clamav["regex"]["speedup_vs_reference"] >= 10.0
    # On token-dense content the regex kernel's q-gram stage (or, for
    # gram-dense payloads, its flat fallback) keeps it from collapsing
    # below the reference.
    assert snort["regex"]["mbps"] >= snort["reference"]["mbps"]
    # The cache-hit pass short-circuits the scan entirely.
    cache = results["corpora"]["snort-like"]["cache"]
    assert cache["hit_pass_mbps"] > snort["flat"]["mbps"]


def test_kernels_agree_on_benchmark_workload(benchmark):
    """Differential sample at benchmark scale: all kernels, same matches."""

    def experiment():
        workload = build_workload("snort-like", pattern_count=400, packets=20)
        automaton = workload.automaton
        outputs = {}
        for name in ("reference", "flat", "regex"):
            automaton.select_kernel(name)
            outputs[name] = [
                (scan.raw_matches, scan.end_state)
                for scan in map(automaton.scan, workload.payloads)
            ]
        return outputs

    outputs = run_once(benchmark, experiment)
    assert outputs["flat"] == outputs["reference"]
    assert outputs["regex"] == outputs["reference"]
