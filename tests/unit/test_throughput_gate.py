"""The ``BENCH_*.json`` regression gate fails closed.

The baseline's ``"gate"`` block declares what is gated; a current artifact
that drops a gated mode, per-N key or ratio must fail the gate rather than
pass it by omission, and a baseline without a gate block is an error.
"""

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


def _load_gate():
    path = REPO_ROOT / "benchmarks" / "check_throughput_regression.py"
    spec = importlib.util.spec_from_file_location("check_throughput_regression", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gate = _load_gate()


def _artifact() -> dict:
    return {
        "artifact": "BENCH_example",
        "gate": {
            "deterministic_modes": ["det"],
            "wall_clock_modes": ["wall"],
            "ratio_metrics": [["speedup", "min"], ["tail", "max"]],
        },
        "modes": {"det": {"8": 1.0, "12": 2.0}, "wall": {"8": 100.0}},
        "speedup": 2.0,
        "tail": 4.0,
    }


class TestGateFailsClosed:
    def test_identical_artifact_passes(self):
        assert gate.compare(_artifact(), _artifact(), 0.15, raw=True) == []

    def test_missing_gated_key_fails(self):
        current = _artifact()
        del current["modes"]["det"]["12"]
        failures = gate.compare(_artifact(), current, 0.15, raw=False)
        assert any("modes[det][12]" in failure for failure in failures)

    def test_missing_gated_mode_fails(self):
        current = _artifact()
        del current["modes"]["det"]
        failures = gate.compare(_artifact(), current, 0.15, raw=False)
        assert any("modes[det]" in failure for failure in failures)

    def test_missing_wall_clock_mode_fails_only_under_raw(self):
        current = _artifact()
        del current["modes"]["wall"]
        assert gate.compare(_artifact(), current, 0.15, raw=False) == []
        failures = gate.compare(_artifact(), current, 0.15, raw=True)
        assert any("modes[wall]" in failure for failure in failures)

    def test_missing_ratio_fails(self):
        current = _artifact()
        del current["tail"]
        failures = gate.compare(_artifact(), current, 0.15, raw=False)
        assert any(failure.startswith("tail") for failure in failures)

    def test_regressions_beyond_tolerance_fail(self):
        current = _artifact()
        current["modes"]["det"]["8"] = 0.8
        current["speedup"] = 1.6
        current["tail"] = 5.0
        failures = gate.compare(_artifact(), current, 0.15, raw=False)
        assert len(failures) == 3

    def test_baseline_without_gate_block_is_an_error(self):
        baseline = _artifact()
        del baseline["gate"]
        with pytest.raises(ValueError, match="gate"):
            gate.compare(baseline, _artifact(), 0.15, raw=False)

    def test_main_fails_on_missing_metric(self, tmp_path, capsys):
        baseline_path = tmp_path / "baseline.json"
        current_path = tmp_path / "current.json"
        current = _artifact()
        del current["speedup"]
        baseline_path.write_text(json.dumps(_artifact()))
        current_path.write_text(json.dumps(current))
        assert gate.main([str(current_path), "--baseline", str(baseline_path)]) == 1
        assert "speedup" in capsys.readouterr().out


@pytest.mark.parametrize("path", sorted(REPO_ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_committed_baselines_declare_a_gate_and_pass_against_themselves(path):
    artifact = json.loads(path.read_text())
    deterministic, _, _ = gate.gate_config(artifact)
    assert deterministic
    assert gate.compare(artifact, artifact, 0.0, raw=True) == []
