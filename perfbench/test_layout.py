"""BENCHMARK.json names exactly the workloads and metrics that run.py prints."""
import importlib.util
import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


class _EmptyTracer:
    counts = {}

    def self_times(self, phase):
        return {}

    def durations(self, phase):
        return {}


def test_metric_names_and_units_match():
    run = _load_run()
    printed = {name: unit for name, (_, unit) in run.per_layer_metrics(_EmptyTracer(), 1).items()}
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == printed
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS


def test_workload_names_match():
    run = _load_run()
    run.import_package()
    from workloads import WORKLOADS

    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)

