"""The perf-regression gate keys benchmarks independently of checkout path,
and reads its committed ``{benchmark_key: min_seconds}`` baseline exactly
as it reads the full pytest-benchmark dump the map was written from."""

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


def _dump(prefix: str, tmp_path: pathlib.Path, scale=lambda index: 1.0) -> pathlib.Path:
    """The committed baseline as a pytest-benchmark dump recorded in a
    checkout at ``prefix``, each min time multiplied by ``scale(index)``."""
    times = json.loads(_BASELINE.read_text())
    payload = {
        "machine_info": {"node": "recorder", "cpu": {"count": 2}},
        "benchmarks": [
            {
                "fullname": prefix + key,
                "name": key.partition("::")[2],
                "stats": {"min": value * scale(index), "mean": 2.0 * value},
            }
            for index, (key, value) in enumerate(times.items())
        ],
    }
    path = tmp_path / f"{len(list(tmp_path.iterdir()))}.json"
    path.write_text(json.dumps(payload))
    return path


def test_checkout_prefix_does_not_change_keys(gate, tmp_path):
    here = gate.load_times(_dump("root/repo/", tmp_path))
    ci = gate.load_times(_dump("home/runner/work/repo/repo/", tmp_path))
    relative = gate.load_times(_dump("", tmp_path))
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
    current = _dump("home/runner/work/repo/repo/", tmp_path)
    assert gate.main([str(current), str(_BASELINE), "--normalize"]) == 0
    out = capsys.readouterr().out
    assert "MISSING" not in out
    assert "REGRESSION" not in out


def test_committed_map_is_what_the_writer_makes_of_the_dump(gate, tmp_path):
    dump = _dump("root/repo/", tmp_path)
    written = tmp_path / "written.json"
    assert gate.main([str(dump), str(written), "--write-baseline"]) == 0
    assert written.read_text() == _BASELINE.read_text()
    assert gate.load_times(written) == gate.load_times(dump)


@pytest.mark.parametrize("normalize", [False, True])
def test_map_and_dump_baselines_give_the_same_gate(gate, tmp_path, capsys, normalize):
    # A run with a regressed, an improved and many steady benchmarks.
    run = _dump(
        "home/runner/work/repo/repo/",
        tmp_path,
        scale=lambda index: {0: 1.6, 1: 0.5}.get(index, 1.05),
    )
    dump = _dump("root/repo/", tmp_path)
    current = gate.load_times(run)
    by_dump = gate.compare(current, gate.load_times(dump), 0.25, normalize)
    by_map = gate.compare(current, gate.load_times(_BASELINE), 0.25, normalize)
    assert by_dump == by_map
    verdicts = {verdict for _, _, verdict in by_map[1]}
    assert "REGRESSION" in verdicts and "ok" in verdicts

    flags = ["--normalize"] if normalize else []
    assert gate.main([str(run), str(dump), *flags]) == 1
    dump_out = capsys.readouterr().out
    assert gate.main([str(run), str(_BASELINE), *flags]) == 1
    assert capsys.readouterr().out == dump_out
