"""Smoke test of the benchmark on tiny fixtures; asserts no timing.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run.import_texelkit()

from workloads import WORKLOADS, check, write_fixture  # noqa: E402

# same commands and texels as the real workloads, on a few blocks
TINY = {
    "detect-dense": dict(reps=(8, 8), defects=((3, 5),)),
    "analyze-periodic": dict(reps=(16, 16), defects=((9, 7),)),
    "synth-p2": dict(reps=(4, 4), out_size=(100, 90)),
}


def spec():
    return json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_harness():
    s = spec()
    assert [w["name"] for w in s["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in s["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in s["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run(name, trace, tmp_path):
    w = dataclasses.replace(WORKLOADS[name], **TINY[name])
    record, _ = run.run_workload(w, seed=3, seconds=0.05, trace=trace,
                                 import_s=0.0, workdir=tmp_path)
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: m["unit"] for k, m in record["metrics"].items()} == expected
    assert record["problems"] == []
    assert record["failed"] == 0 and record["failed_frac"] == 0
    assert record["attempted"] >= 2
    assert record["output_sha256"]
    if trace:
        m = {k: v["value"] for k, v in record["metrics"].items()}
        dmf_calls = 0 if name == "detect-dense" else 2
        assert m["periodicity.row_dmf.calls"] == dmf_calls
        assert m["periodicity.column_dmf.calls"] == dmf_calls
        n_blocks = w.reps[0] * w.reps[1]
        assert m["stats.features_of_region.calls"] == n_blocks + 1


def test_checks_reject_wrong_outputs(tmp_path):
    import texelkit.cli as cli

    w = dataclasses.replace(WORKLOADS["synth-p2"], **TINY["synth-p2"])
    fx = write_fixture(w, 3, tmp_path)
    assert cli.main(fx.argv()) == 0
    assert check(fx, 0)[0] == []
    data = bytearray(fx.output_path.read_bytes())
    data[-1] ^= 1
    fx.output_path.write_bytes(bytes(data))
    assert check(fx, 0)[0]

    w = dataclasses.replace(WORKLOADS["detect-dense"], **TINY["detect-dense"])
    fx = write_fixture(w, 3, tmp_path)
    assert cli.main(fx.argv()) == 1
    assert check(fx, 1)[0] == []
    data = bytearray(fx.output_path.read_bytes())
    data[-196] ^= 1  # pixel (60, 60) of 64x64: inside a block, off every outline
    fx.output_path.write_bytes(bytes(data))
    assert check(fx, 1)[0]
    fx.report_path.write_text("{}")
    assert any("unexpected shape" in p for p in check(fx, 1)[0])

    w = dataclasses.replace(WORKLOADS["analyze-periodic"], **TINY["analyze-periodic"])
    fx = write_fixture(w, 3, tmp_path)
    assert cli.main(fx.argv()) == 0
    assert check(fx, 0)[0] == []
    fx.report_path.write_text(fx.report_path.read_text().replace("0.0", "NaN", 1))
    assert any("strict JSON" in p for p in check(fx, 0)[0])
