"""Service benchmark: wall-clock throughput, open-loop latency, set-up,
scale-out and memory of the DPI service path, plus a traced run that
splits the time by layer.

    python3 perfbench/run.py --workload web-stateful --seed 1 --seconds 10 --trace 0

Run it from the repository root.  It prints one line per metric, a JSON
record with the host block, fingerprint and digest, and, last, the result
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.  Timed
metrics are reported at reference speed (see ``REFERENCE_SLICE_MS``).  The
exit status is 1 when the correctness gate fails and 2 when the service
sources are missing.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path as FilePath

HERE = FilePath(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = json.loads((HERE / "expected.json").read_text())

#: Set-ups and scale-outs per run; each is reported as the median.  The
#: rounds of (closed block, open window) per workload are in expected.json.
SETUPS = 3
SCALEOUTS = 5
#: Packets per chunk: throughput and p50 are medians over chunks of the
#: closed blocks and of the open windows, spread over the whole run.
CHUNK = 500
#: Packets between calibration slices; CHUNK is a multiple of it.
SLICE_EVERY = 100
#: Shares of ``--seconds`` spent sending back to back and on the schedule,
#: and the warm-up prefix (as seconds at the nominal closed-loop rate).
CLOSED_SHARE, OPEN_SHARE, WARMUP_SECONDS = 0.4, 0.6, 0.5
#: Iterations of the calibration slice, a fixed CPU loop timed between
#: runs of packets, and the slice's time on the reference host (a 2-vCPU x86-64
#: Xeon VM with CPython 3.11).  Timed metrics are reported at reference
#: speed: a time is scaled by REFERENCE_SLICE_MS over the slice time
#: measured next to it, so a host that runs everything 20% slower for a
#: while reads the same.  The raw times are kept in the run record.
SLICE_LOOP = 40_000
REFERENCE_SLICE_MS = 3.0
#: Seconds between the probe's slices during set-up and scale-out, and
#: the iterations each of them runs.
PROBE_INTERVAL, PROBE_LOOP = 0.05, SLICE_LOOP // 10


def load_service_sources() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    source = ROOT / "src"
    sys.path.insert(0, str(source))
    try:
        import repro
    except ImportError:
        print(f"perfbench: cannot import repro from {source}", file=sys.stderr)
        raise SystemExit(2) from None
    if not FilePath(repro.__file__).resolve().is_relative_to(source):
        print(f"perfbench: repro resolved outside {source}", file=sys.stderr)
        raise SystemExit(2)


# --- host -------------------------------------------------------------------


def slice_ms(loop: int = SLICE_LOOP) -> float:
    """Milliseconds one calibration slice takes now, scaled to a full
    slice when *loop* is shorter."""
    started = time.perf_counter()
    total = 0
    for value in range(loop):
        total += value * value & 7
    return (time.perf_counter() - started) * 1e3 * SLICE_LOOP / loop


class SpeedProbe:
    """Short calibration slices, taken from a timer signal every
    PROBE_INTERVAL seconds while one long call runs on this thread, so
    the call's time can be scaled by the host's speed during it rather
    than by a sample taken before or after.  ``spent_s`` is the time the
    probe itself took, to be taken off the call's time."""

    def __init__(self) -> None:
        self.slices: list = []
        self.spent_s = 0.0

    def __enter__(self) -> "SpeedProbe":
        self._handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL, PROBE_INTERVAL)
        return self

    def _tick(self, signum, frame) -> None:
        started = time.perf_counter()
        self.slices.append(slice_ms(PROBE_LOOP))
        self.spent_s += time.perf_counter() - started

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)

    def at_reference(self, seconds: float) -> float:
        """*seconds*, measured around the probe, without the probe's own
        time and at reference speed."""
        if not self.slices:
            self.slices.append(slice_ms())
        return at_reference(seconds - self.spent_s,
                            statistics.median(self.slices))


def calibrate_ms(slices: int = 5) -> float:
    """Median slice time; a throttled or contended host reads higher."""
    return statistics.median(slice_ms() for _ in range(slices))


def at_reference(seconds: float, calibration_ms: float) -> float:
    """*seconds* measured while a slice took *calibration_ms*, as they
    would read on the reference host."""
    return seconds * REFERENCE_SLICE_MS / calibration_ms


def revision() -> "str | None":
    """The checkout's git commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest() -> str:
    """SHA-256 over the service sources, identifying the code measured."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def host_block() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "git_revision": revision(),
        "source_sha256": source_digest(),
    }


def settle() -> None:
    """A full collection before a timed phase, hidden from any GCWatch."""
    callbacks = gc.callbacks[:]
    gc.callbacks.clear()
    try:
        gc.collect()
    finally:
        gc.callbacks.extend(callbacks)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class GCWatch:
    """Collector pauses seen through ``gc.callbacks``, from outside."""

    def __init__(self) -> None:
        self.pauses: list = []
        self.gen2 = 0
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
            return
        self.pauses.append(time.perf_counter() - self._started)
        self.gen2 += info["generation"] == 2

    def __enter__(self) -> "GCWatch":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)


# --- traffic ----------------------------------------------------------------


def percentile(ordered: list, share: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(0, min(len(ordered) - 1, int(len(ordered) * share + 0.5) - 1))
    return ordered[rank]


def send_closed(path, packets: list, first: int, folds: set) -> list:
    """Send *packets* back to back; returns per run of CHUNK packets its
    seconds as measured and at reference speed.  A calibration slice is
    timed before and after every SLICE_EVERY packets, whose time is
    scaled by the mean of the two."""
    serve, fold = path.serve, path.fold
    clock = time.perf_counter
    chunks, seconds, scaled = [], 0.0, 0.0
    before = slice_ms()
    started = clock()
    for sent, packet in enumerate(packets, 1):
        serve(packet)
        if first + sent - 1 in folds:
            fold()
        last = sent == len(packets)
        if sent % SLICE_EVERY == 0 or last:
            elapsed = clock() - started
            after = slice_ms()
            seconds += elapsed
            scaled += at_reference(elapsed, (before + after) / 2)
            before = after
            if sent % CHUNK == 0 or last:
                chunks.append((seconds, scaled))
                seconds = scaled = 0.0
            started = clock()
    return chunks


def send_open(path, packets: list, first: int, schedule: list,
              folds: set) -> dict:
    """Send *packets* at their due times; each one's latency runs from its
    due time until the last consumer returns, so a stall is charged to
    every packet queued behind it.

    The schedule runs at reference speed: after every SLICE_EVERY packets
    it pauses for a calibration slice, and until the next pause its seconds
    are stretched by that slice's time over REFERENCE_SLICE_MS, so the
    offered load, as a share of what the host can serve just then, does
    not move with the host's speed.  Latencies are returned in reference
    seconds."""
    serve, fold = path.serve, path.fold
    clock = time.perf_counter
    latencies, late, busy, backlog = [], [], 0.0, 0
    # Real seconds per reference second, and the real time of the
    # schedule's time *at*.
    stretch = slice_ms() / REFERENCE_SLICE_MS
    anchor, at = clock() + 0.001, 0.0
    for offset, packet in enumerate(packets):
        due = anchor + (schedule[offset] - at) * stretch
        now = clock()
        if now < due:
            if due - now > 0.002:
                time.sleep(due - now - 0.001)
            while clock() < due:
                pass
            start = clock()
            late.append((start - due) / stretch)
        else:
            start = now
            waiting = bisect.bisect_right(
                schedule, at + (now - anchor) / stretch) - offset
            backlog = max(backlog, waiting)
        serve(packet)
        end = clock()
        latencies.append((end - due) / stretch)
        if first + offset in folds:
            fold()
            end = clock()
        busy += end - start
        if (offset + 1) % SLICE_EVERY == 0:
            paused = clock()
            stretch = slice_ms() / REFERENCE_SLICE_MS
            anchor, at = due + clock() - paused, schedule[offset]
    return {"latencies": latencies, "late": late, "busy_s": busy,
            "max_backlog": backlog}


def drive(path, service, workload, scale: bool) -> dict:
    """Warm-up, then per round a closed block and an open window, and with
    *scale* SCALEOUTS scale-outs at the end; untraced."""
    from service import make_packets, scale_out

    folds = set(workload.folds)
    chain = service.chain_id
    warm = make_packets(workload, chain, 0, workload.warmup)
    busy = sum(seconds for seconds, _ in send_closed(path, warm, 0, folds))
    del warm
    rates, p50, p99, late, scaleouts = [], [], [], [], []
    raw_rates, raw_scaleouts = [], []
    backlog = samples = 0
    for index, (closed, opened, end) in enumerate(workload.blocks()):
        # Every phase starts from a settled collector, so a collection
        # carried over from the previous phase cannot land in it.
        packets = make_packets(workload, chain, closed, opened)
        settle()
        times = send_closed(path, packets, closed, folds)
        for chunk, (seconds, scaled) in enumerate(times):
            busy += seconds
            bits = 8 * sum(len(p.payload) for p in
                           packets[chunk * CHUNK:(chunk + 1) * CHUNK])
            raw_rates.append(bits / seconds / 1e6)
            rates.append(bits / scaled / 1e6)
        packets = make_packets(workload, chain, opened, end)
        settle()
        window = send_open(path, packets, opened, workload.schedules[index],
                           folds)
        del packets
        busy += window["busy_s"]
        latencies = window["latencies"]
        p50 += [statistics.median(latencies[at:at + CHUNK]) * 1e6
                for at in range(0, len(latencies), CHUNK)]
        p99.append(percentile(sorted(latencies), 0.99) * 1e6)
        samples += len(latencies)
        late += window["late"]
        backlog = max(backlog, window["max_backlog"])
    # The scale-outs come after the traffic, with its flow state still
    # live, so their memory churn does not land in a timed phase.
    for index in range(SCALEOUTS if scale else 0):
        settle()
        probe = SpeedProbe()
        seconds = scale_out(service, f"dpi-scale-{index + 1}", probe)
        raw_scaleouts.append(seconds - probe.spent_s)
        scaleouts.append(probe.at_reference(seconds))
    late.sort()
    return {
        "busy_s": busy,
        "chunk_mbps": rates,
        "chunk_p50_us": p50,
        "raw_chunk_mbps": raw_rates,
        "raw_scaleout_s": raw_scaleouts,
        "window_p99_us": p99,
        "latency_samples": samples,
        "scaleout_s": scaleouts,
        "late_p99_us": percentile(late, 0.99) * 1e6 if late else 0.0,
        "max_backlog": backlog,
    }


# --- the run ----------------------------------------------------------------


def plan(name: str, seconds: float, settings: dict) -> dict:
    """Packet counts of a run of *seconds*: the warm-up, and per round
    the closed block and the open window."""
    from workloads import SHAPES

    low, high = SHAPES[name].payload_bytes
    open_pps = settings["offered_mbps"] * 1e6 / (8 * (low + high) / 2)
    rounds = settings["rounds"]
    return {
        "warmup": round(WARMUP_SECONDS * settings["closed_pps"]),
        "rounds": rounds,
        "block": round(CLOSED_SHARE * seconds * settings["closed_pps"] / rounds),
        "window": round(OPEN_SHARE * seconds * open_pps / rounds),
    }


def run(name: str, seed: int, seconds: float, trace: bool, *,
        shape=None, rules=None, out_dir: "FilePath | None" = None) -> dict:
    """One benchmark run; returns the record (see :func:`main`)."""
    from service import Path, digest_and_check, set_up
    from workloads import fingerprint, generate

    settings = EXPECTED["workloads"][name]
    calibration_before = calibrate_ms(25)
    workload = generate(name, seed, **plan(name, seconds, settings),
                        offered_mbps=settings["offered_mbps"],
                        shape=shape, rules=rules)
    total = len(workload.packets)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "host": host_block(), "fingerprint": fingerprint(workload),
        "attempted": total,
    }
    rss_before = peak_rss_mb()
    setups, raw_setups = [], []
    for index in range(1 if trace else SETUPS):
        if index:
            del service
            settle()
        probe = None if trace else SpeedProbe()
        service = set_up(workload, probe)
        if probe is not None:
            raw_setups.append(service.setup_s - probe.spent_s)
            setups.append(probe.at_reference(service.setup_s))
    setup_rss = peak_rss_mb() - rss_before
    path = Path(service)
    settle()
    with GCWatch() as watch:
        timing = drive(path, service, workload, scale=not trace)
    check = digest_and_check(workload, service, path.log)
    record["digest"] = check["digest"]
    problems = [f"planted signature not reported: {plant}"
                for plant in check["missing_plants"][:5]]
    failed = check["failed"]

    if trace:
        untraced = {
            "setup.register_s": (service.register_s, "s"),
            "setup.provision_s": (service.provision_s, "s"),
            "setup.automaton_states": (service.instance.automaton.num_states,
                                       "count"),
            "setup.instance_rss_mb": (setup_rss, "MB"),
            "telemetry.series": (
                len(service.controller.telemetry.registry.collect()), "count"),
            "anomaly.fold_ms": (statistics.median(path.log.folds_s) * 1e3
                                if path.log.folds_s else 0.0, "ms"),
            "gc.pause_ms": (sum(watch.pauses) * 1e3, "ms"),
            "gc.max_pause_ms": (max(watch.pauses, default=0.0) * 1e3, "ms"),
            "gc.gen2_collections": (watch.gen2, "count"),
            "openloop.late_p99_us": (timing["late_p99_us"], "us"),
            "openloop.max_backlog": (timing["max_backlog"], "count"),
        }
        del service, path
        settle()
        layer_metrics, traced_digest = traced_run(workload, timing["busy_s"],
                                                  out_dir)
        layer_metrics.update(untraced)
        if traced_digest != check["digest"]:
            problems.append("traced run digest differs from the untraced run")
        metrics = layer_metrics
    else:
        metrics = {
            "throughput_mbps": (statistics.median(timing["chunk_mbps"]), "Mbps"),
            "latency_p50_us": (statistics.median(timing["chunk_p50_us"]), "us"),
            "setup_s": (statistics.median(setups), "s"),
            "scaleout_s": (statistics.median(timing["scaleout_s"]), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "result_overhead_pct": (check["result_overhead_pct"], "%"),
        }
    # The p99 is reported but not bounded: on a shared host it follows
    # the host's stalls more than the code (see README.md).
    record["latency_p99_us"] = statistics.median(timing["window_p99_us"])
    record["samples"] = {
        "throughput_mbps": workload.rounds * workload.block,
        "latency_p50_us": timing["latency_samples"],
        "latency_p99_us": timing["latency_samples"],
        "setup_s": len(setups),
        "scaleout_s": len(timing["scaleout_s"]),
    }
    # Every value the medians were taken over, at reference speed and as
    # measured, for a closer look.
    record["raw"] = {key: timing[key] for key in (
        "chunk_mbps", "chunk_p50_us", "window_p99_us", "scaleout_s",
        "raw_chunk_mbps", "raw_scaleout_s")}
    record["raw"]["setup_s"] = setups
    record["raw"]["raw_setup_s"] = raw_setups
    record["as_measured"] = {
        key: statistics.median(values) if values else 0.0
        for key, values in (
            ("throughput_mbps", timing["raw_chunk_mbps"]),
            ("setup_s", raw_setups),
            ("scaleout_s", timing["raw_scaleout_s"]))}
    record["failed_pct"] = 100.0 * failed / total
    record["matched_share"] = check["matched_share"]

    if seed == EXPECTED["default_seed"] and seconds == EXPECTED["default_seconds"] \
            and shape is None:
        expected = settings.get("default")
        if expected and expected != {"fingerprint": record["fingerprint"],
                                     "digest": record["digest"]}:
            problems.append(f"default-seed fingerprint/digest differ from "
                            f"expected.json: {expected}")
    record["problems"] = problems
    record["calibration_ms"] = {"before": calibration_before,
                                "after": calibrate_ms(25),
                                "reference": REFERENCE_SLICE_MS}
    record["correct"] = not problems
    record["failed"] = failed
    record["metrics"] = {key: {"value": value, "unit": unit}
                         for key, (value, unit) in metrics.items()}
    return record


def traced_run(workload, untraced_busy_s: float, out_dir) -> tuple:
    """A fresh service with every layer wrapped, fed the same packets back
    to back; returns the per-layer metrics it measures and its digest."""
    from layers import Recorder
    from service import Path, digest_and_check, make_packets, set_up

    service = set_up(workload)
    path = Path(service)
    recorder = Recorder()
    recorder.instrument(service, path)
    folds = set(workload.folds)
    settle()
    traced_s = 0.0
    for start in range(0, len(workload.packets), 4096):
        packets = make_packets(workload, service.chain_id, start, start + 4096)
        traced_s += sum(seconds for seconds, _ in
                        send_closed(path, packets, start, folds))
    recorder.unwrap()
    check = digest_and_check(workload, service, path.log)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        recorder.write(out_dir / f"spans-{workload.name}.csv")

    self_s, counts = recorder.self_s, recorder.counts
    accounted = sum(self_s.values())
    print(f"trace: layers + bench own time = {accounted:.3f} s of "
          f"{traced_s:.3f} s traced ({100 * accounted / traced_s:.1f}%)")
    for layer in sorted(self_s, key=self_s.get, reverse=True):
        print(f"trace:   {layer:<12} {100 * self_s[layer] / traced_s:5.1f}%")
    per_packet = {layer: self_s.get(layer, 0.0) / len(workload.packets) * 1e6
                  for layer in ("kernel", "scanner", "regex", "reports",
                                "instance", "net", "middleboxes", "anomaly")}
    scans = max(1, counts["kernel.scans"])
    stats = service.instance.prefilter.stats
    anomaly = service.anomaly
    metrics = {
        "kernel.self_us": (per_packet["kernel"], "us"),
        "kernel.ns_per_byte": (
            self_s["kernel"] * 1e9 / max(1, counts["kernel.bytes"]), "ns/B"),
        "kernel.raw_hits": (counts["kernel.raw_hits"], "count"),
        "kernel.nonroot_share": (100.0 * counts["kernel.nonroot"] / scans, "%"),
        "kernel.bounded_share": (100.0 * counts["kernel.bounded"] / scans, "%"),
        "scanner.self_us": (per_packet["scanner"], "us"),
        "scanner.matches_per_hit": (
            counts["scanner.matches"] / max(1, counts["kernel.raw_hits"]),
            "ratio"),
        "flow_table.entries": (len(service.instance.scanner.flow_table), "count"),
        "regex.self_us": (per_packet["regex"], "us"),
        "regex.calls": (counts["regex.calls"], "count"),
        "regex.confirm_ratio": (
            stats.confirmations_matched / max(1, stats.confirmations_invoked),
            "ratio"),
        "reports.self_us": (per_packet["reports"], "us"),
        "reports.bytes": (counts["reports.bytes"], "B"),
        "instance.self_us": (per_packet["instance"], "us"),
        "instance.flow_work_entries": (
            len(service.instance.telemetry.flow_work), "count"),
        "net.self_us": (per_packet["net"], "us"),
        "net.result_packets": (counts["net.result_packets"], "count"),
        "middleboxes.self_us": (per_packet["middleboxes"], "us"),
        "middleboxes.alerts": (
            sum(m.stats.alerts for m in service.middleboxes), "count"),
        "middleboxes.drops": (
            sum(m.stats.packets_dropped for m in service.middleboxes), "count"),
        "middleboxes.max_buffered": (
            max(f.max_buffered for f in service.consumers), "count"),
        "anomaly.self_us": (per_packet["anomaly"], "us"),
        "anomaly.tracked_flows": (
            len(anomaly.extractor) if anomaly is not None else 0, "count"),
        "trace.overhead_pct": (
            100.0 * (traced_s / untraced_busy_s - 1.0), "%"),
    }
    return metrics, check["digest"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(EXPECTED["workloads"]))
    parser.add_argument("--seed", type=int, default=EXPECTED["default_seed"])
    parser.add_argument("--seconds", type=float,
                        default=EXPECTED["default_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_service_sources()
    sys.path.insert(0, str(HERE))
    out_dir = HERE / "out"
    record = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 out_dir=out_dir if args.trace else None)
    samples = record["samples"]
    for key, metric in record["metrics"].items():
        count = f"  (n={samples[key]})" if key in samples else ""
        print(f"{key:<28} {metric['value']:>14.4f} {metric['unit']}{count}")
    print(f"{'latency_p99_us (unbounded)':<28} "
          f"{record['latency_p99_us']:>14.4f} us  "
          f"(n={samples['latency_p99_us']})")
    print(f"{'failed_pct':<28} {record['failed_pct']:>14.4f} %  "
          f"(n={record['attempted']})")
    for problem in record["problems"]:
        print(f"INCORRECT: {problem}")
    out_dir.mkdir(exist_ok=True)
    target = out_dir / (f"{args.workload}-seed{args.seed}-"
                        f"trace{args.trace}.json")
    target.write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({key: record[key] for key in (
        "host", "fingerprint", "digest", "samples", "calibration_ms",
        "as_measured")}))
    print(json.dumps({key: record[key] for key in (
        "correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
