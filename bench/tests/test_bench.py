"""Tests of the benchmark itself: metric emission and the correctness gate.

    python3 -m pytest bench/tests -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import env  # noqa: E402
import gate  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402

mw = env.import_matwaring()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tiny_run(workload, trace):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric(workload, trace):
    report, result = _tiny_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    wanted = {m["name"]: m["unit"]
              for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == wanted
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if trace:
        # per window, span self times plus `other` add up to the window time
        for root in ("cert", "verify"):
            total = sum(row["self_s_per_target"] for row in report["ranking"][root])
            mean = result["metrics"][f"trace.{root}_s_mean"]["value"]
            assert total == pytest.approx(mean, rel=1e-9, abs=1e-12)
        assert report["absent"] == []
        assert result["metrics"]["linalg.certify_similarity.calls"]["value"] > 0
    else:
        assert report["env"]["threads"]["OPENBLAS_NUM_THREADS"] == str(
            report["blas_threads"])
        # the time metrics are window means over the reference kernel's mean
        seconds = report["seconds"]
        assert seconds["ref_samples"] >= 1
        assert result["metrics"]["cert_ref_mean"]["value"] == pytest.approx(
            seconds["cert_s_mean"] / seconds["ref_s_mean"])


def _tamper(monkeypatch, raise_bound):
    """Make certificate_to_json perturb one tuple entry of its output; with
    raise_bound the stored residual_bound is also raised so far that the
    library's verifier no longer objects."""
    original = mw.serialize.certificate_to_json

    def tampered(*args, **kwargs):
        doc = original(*args, **kwargs)
        doc["tuples"][0][0]["entries"][0][0] += 1e-3
        if raise_bound:
            doc["residual_bound"] = 1e6
        return doc

    monkeypatch.setattr(mw.serialize, "certificate_to_json", tampered)


@pytest.mark.parametrize("raise_bound", [False, True])
def test_perturbed_tuple_is_counted_as_failure(monkeypatch, raise_bound):
    w = workloads.lookup("four_term_n32_33", tiny=True)
    runner = harness.Runner(mw, w)
    targets = workloads.targets(w, 5)
    clean = runner.first_pass(targets)
    assert all(o.ok for o in clean)

    _tamper(monkeypatch, raise_bound)
    outcomes = runner.first_pass(targets)
    assert [o.ok for o in outcomes] == [False] * len(targets)
    assert all(o.wrong and o.cause == "GateError" for o in outcomes)
    assert all(not o.cert_s for o in outcomes)   # kept out of the timings


def test_gate_does_not_trust_the_verifier_or_stored_bound():
    w = workloads.lookup("two_term_n64", tiny=True)
    A = workloads.targets(w, 5)[0]
    f = mw.freealg.parse(w.poly)
    cert = mw.waring.two_term_decompose(f, A, seed=workloads.LIBRARY_SEED)
    doc = json.loads(mw.serialize.dumps_canonical(
        mw.serialize.certificate_to_json(cert, mw.config.DEFAULT_TOLS)))
    assert gate.check(w, A, doc, []) <= gate.GATE_END_TOL

    doc["tuples"][1][1]["entries"][3][1] -= 1e-4
    doc["residual_bound"] = 1e6
    with pytest.raises(gate.GateError, match="recomputed residual"):
        gate.check(w, A, doc, [])


def test_gate_rejects_wrong_signs_and_wrong_target():
    w = workloads.lookup("four_term_n32_33", tiny=True)
    A = workloads.targets(w, 6)[0]
    f = mw.freealg.parse(w.poly)
    cert = mw.waring.waring_express(f, A, seed=workloads.LIBRARY_SEED)
    doc = json.loads(mw.serialize.dumps_canonical(
        mw.serialize.certificate_to_json(cert, mw.config.DEFAULT_TOLS)))
    with pytest.raises(gate.GateError, match="recomputed residual"):
        gate.check(w, 2 * A, doc, [])
    doc["coefficients"][1] = [1.0, 0.0]
    with pytest.raises(gate.GateError, match="coefficients"):
        gate.check(w, A, doc, [])
    with pytest.raises(gate.GateError, match="verifier"):
        gate.check(w, A, doc, ["some failure"])
