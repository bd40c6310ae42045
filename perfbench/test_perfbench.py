"""The benchmark's own tests, on shrunken rule bases and short runs.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.load_service_sources()

import compare  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SECONDS = 0.2


def small(name: str):
    shape = dataclasses.replace(
        workloads.SHAPES[name], ids_count=300, av_count=300)
    return shape, workloads.build_rules(shape)


def small_run(name: str, trace: bool, seed: int = 5) -> dict:
    shape, rules = small(name)
    return run.run(name, seed, SECONDS, trace, shape=shape, rules=rules)


@pytest.fixture(scope="module")
def records():
    return {
        (name, trace): small_run(name, trace)
        for name in run.EXPECTED["workloads"] for trace in (False, True)
    }


def test_workloads_match_benchmark_json():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert sorted(names) == sorted(run.EXPECTED["workloads"])


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(run.EXPECTED["workloads"]))
def test_every_metric_present_with_its_unit(records, name, trace):
    record = records[(name, trace)]
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        key: metric["unit"] for key, metric in record["metrics"].items()}
    assert record["correct"], record["problems"]
    assert record["failed"] == 0
    assert all(isinstance(m["value"], (int, float))
               for m in record["metrics"].values())


@pytest.mark.parametrize("name", sorted(run.EXPECTED["workloads"]))
def test_two_runs_give_the_same_digest(records, name):
    again = small_run(name, False)
    first = records[(name, False)]
    assert again["fingerprint"] == first["fingerprint"]
    assert again["digest"] == first["digest"]


@pytest.mark.parametrize("name", sorted(run.EXPECTED["workloads"]))
def test_trace_wrappers_change_no_output(records, name):
    # The traced run compares its digest with the untraced pass of the
    # same process; a mismatch would be listed as a problem.
    traced = records[(name, True)]
    assert traced["correct"], traced["problems"]
    assert traced["digest"] == records[(name, False)]["digest"]
    from repro.core import instance
    from repro.core.reports import MatchReport
    from repro.net import nsh

    assert instance.build_result_packet is nsh.build_result_packet
    assert "encode" in vars(MatchReport)
    assert MatchReport.encode.__qualname__ == "MatchReport.encode"


def test_other_seed_other_inputs():
    shape, rules = small("flood-churn")
    layout = dict(warmup=50, rounds=2, block=60, window=60, offered_mbps=2.0,
                  shape=shape, rules=rules)
    one = workloads.generate("flood-churn", 1, **layout)
    two = workloads.generate("flood-churn", 2, **layout)
    same = workloads.generate("flood-churn", 1, **layout)
    assert workloads.fingerprint(one) == workloads.fingerprint(same)
    assert workloads.fingerprint(one) != workloads.fingerprint(two)


def test_missing_plant_fails_the_gate():
    shape, rules = small("web-stateful")
    workload = workloads.generate("web-stateful", 3, warmup=50, rounds=1,
                                  block=150, window=200, offered_mbps=20.0,
                                  shape=shape, rules=rules)
    from service import Path as ServicePath
    from service import digest_and_check, make_packets, set_up

    service = set_up(workload)
    packets = make_packets(workload, service.chain_id)
    path = ServicePath(service)
    for packet in packets:
        path.serve(packet)
    assert workload.plants
    assert not digest_and_check(workload, service, path.log)["missing_plants"]
    plant = workload.plants[0]
    workload.plants.append(dataclasses.replace(plant, position=plant.position + 1))
    missing = digest_and_check(workload, service, path.log)
    assert missing["missing_plants"] == [workload.plants[-1]]


def test_payloads_have_their_recorded_sizes():
    shape, rules = small("web-stateful")
    workload = workloads.generate("web-stateful", 4, warmup=50, rounds=1,
                                  block=100, window=100, offered_mbps=20.0,
                                  shape=shape, rules=rules)
    sizes = [len(payload) for _, payload in workload.payloads()]
    assert sizes == [entry[3] for entry in workload.packets]
    assert sum(sizes) == workload.payload_bytes()


def test_speed_probe_takes_its_own_time_off():
    with run.SpeedProbe() as probe:
        started = run.time.perf_counter()
        while run.time.perf_counter() - started < 0.3:
            pass
        elapsed = run.time.perf_counter() - started
    assert len(probe.slices) >= 3
    assert 0 < probe.spent_s < elapsed
    assert probe.at_reference(elapsed) > 0


SPECS = {
    "throughput_mbps": {"name": "throughput_mbps", "unit": "Mbps",
                        "better": "higher", "bound": 0.25},
    "kernel.self_us": {"name": "kernel.self_us", "unit": "us",
                       "better": "lower"},
}


def fake(value: float, **changes) -> dict:
    record = {"workload": "flood-churn", "seed": 1, "seconds": 20.0,
              "trace": False, "fingerprint": "f", "correct": True,
              "problems": [],
              "metrics": {"throughput_mbps": {"value": value, "unit": "Mbps"}}}
    record.update(changes)
    return record


def test_compare_judges_medians_within_the_bound():
    before = [fake(10.0), fake(10.2), fake(9.9)]
    assert compare.compare(before, [fake(9.0), fake(9.1), fake(8.9)],
                           SPECS) == 0
    assert compare.compare(before, [fake(7.0), fake(7.1), fake(6.9)],
                           SPECS) == 1


def test_compare_leaves_noisy_or_single_sides_unresolved(capsys):
    before = [fake(10.0), fake(10.2), fake(9.9)]
    assert compare.compare(before, [fake(5.0)], SPECS) == 0
    assert compare.compare(before, [fake(5.0), fake(9.0), fake(3.0),
                                    fake(8.0)], SPECS) == 0
    assert capsys.readouterr().out.count("unresolved") == 2


@pytest.mark.parametrize("changes", [
    {"fingerprint": "g"}, {"seed": 2}, {"seconds": 10.0},
    {"workload": "web-stateful"}, {"metrics": {}},
])
def test_compare_refuses_other_inputs(changes):
    with pytest.raises(compare.Refused):
        compare.compare([fake(10.0)], [fake(10.0, **changes)], SPECS)


def test_compare_refuses_an_incorrect_run(tmp_path):
    target = tmp_path / "bad.json"
    target.write_text(json.dumps(fake(10.0, correct=False)))
    with pytest.raises(compare.Refused):
        compare.load([str(target)])
