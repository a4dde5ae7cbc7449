"""The perf-regression gate keys benchmarks independently of checkout path."""

import importlib.util
import json
import pathlib

import pytest

_SCRIPT = pathlib.Path(__file__).parents[1] / "benchmarks" / "compare_to_baseline.py"
_BASELINE = _SCRIPT.parent / "baseline" / "serving_benchmarks.json"


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("compare_to_baseline", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _rebased(prefix: str, tmp_path: pathlib.Path) -> pathlib.Path:
    """The committed baseline as if recorded in a checkout at ``prefix``."""
    payload = json.loads(_BASELINE.read_text())
    for bench in payload["benchmarks"]:
        fullname = bench["fullname"]
        bench["fullname"] = prefix + fullname[fullname.index("benchmarks/"):]
    path = tmp_path / f"{len(list(tmp_path.iterdir()))}.json"
    path.write_text(json.dumps(payload))
    return path


def test_checkout_prefix_does_not_change_keys(gate, tmp_path):
    here = gate.load_times(_rebased("root/repo/", tmp_path))
    ci = gate.load_times(_rebased("home/runner/work/repo/repo/", tmp_path))
    relative = gate.load_times(_rebased("", tmp_path))
    assert list(here) == list(ci) == list(relative)
    assert all(key.startswith("benchmarks/") for key in here)
    assert here == ci == relative


def test_last_benchmarks_component_wins(gate):
    assert (
        gate.benchmark_key("srv/benchmarks/repo/benchmarks/test_a.py::test_b[1]")
        == "benchmarks/test_a.py::test_b[1]"
    )
    assert gate.benchmark_key("test_a.py::test_b") == "test_a.py::test_b"


def test_gate_finds_every_baseline_benchmark_from_another_checkout(
    gate, tmp_path, capsys
):
    current = _rebased("home/runner/work/repo/repo/", tmp_path)
    assert gate.main([str(current), str(_BASELINE), "--normalize"]) == 0
    out = capsys.readouterr().out
    assert "MISSING" not in out
    assert "REGRESSION" not in out
