import dataclasses
import json
import time
from pathlib import Path

import pytest

import run
import tracing
import workloads
from workloads import WORKLOADS, StageRun, digest_mismatches, tree_digest

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def _run(label, stdout="", code=0, digest=""):
    stage = next(s for w in WORKLOADS.values() for s in w.stages if s.label == label)
    return StageRun(stage, code, stdout, 1.0, digest=digest)


# --- metric names -----------------------------------------------------------


@pytest.mark.parametrize("name", ["total_s", "corpus.read_pgm.calls", "a-b.c_d", "9x", "x" * 64])
def test_metric_name_accepts_letters_digits_underscore_dot_dash(name):
    assert run.METRIC_NAME.match(name)


@pytest.mark.parametrize("name", ["", "_x", ".x", "has space", "ms/call", "x" * 65, "a:b"])
def test_metric_name_rejects_other_characters(name):
    assert not run.METRIC_NAME.match(name)


def test_benchmark_json_names_are_valid_and_match_the_code():
    e2e = [m["name"] for m in BENCHMARK["end_to_end"]]
    layer = [m["name"] for m in BENCHMARK["per_layer"]]
    names = e2e + layer + [w["name"] for w in BENCHMARK["workloads"]]
    assert all(run.METRIC_NAME.match(n) for n in names)
    assert len(set(names)) == len(names)
    assert e2e == list(run.END_TO_END)
    assert layer == list(tracing.LAYER_METRICS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]} == tracing.LAYER_METRICS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in BENCHMARK["workloads"]] == [w.why for w in WORKLOADS.values()]


# --- output checks ----------------------------------------------------------


def test_tampered_artifact_changes_digest_and_fails_the_repetition(tmp_path):
    out = tmp_path / "filtered" / "seq0000" / "masks_pred"
    out.mkdir(parents=True)
    (out / "00001.pgm").write_bytes(b"P5\n2 1\n255\n\x00\x01")
    first = tree_digest(str(tmp_path), ["filtered"], "stdout")
    assert tree_digest(str(tmp_path), ["filtered"], "stdout") == first
    (out / "00001.pgm").write_bytes(b"P5\n2 1\n255\n\x00\x02")
    tampered = tree_digest(str(tmp_path), ["filtered"], "stdout")
    assert tampered != first
    assert tree_digest(str(tmp_path), ["filtered"], "other stdout") != first

    reps = [{"filter": _run("filter", digest=first)}, {"filter": _run("filter", digest=tampered)}]
    assert digest_mismatches(reps) == {1: ["filter"]}
    exit_only = dataclasses.replace(WORKLOADS["pipeline-480p"], check=workloads._exit_checks)
    verdicts, attempted, failed = run.judge(exit_only, reps)
    assert (attempted, failed) == (2, 1)
    assert verdicts[1]["filter"] == ["artifact digest differs from repetition 0"]


def test_judge_fails_a_run_with_fewer_than_min_reps():
    exit_only = dataclasses.replace(WORKLOADS["pipeline-480p"], check=workloads._exit_checks)
    _, attempted, failed = run.judge(exit_only, [{"filter": _run("filter")}])
    assert (attempted, failed) == (2, 1)
    _, attempted, failed = run.judge(exit_only, [{"filter": _run("filter")}] * run.MIN_REPS)
    assert (attempted, failed) == (run.MIN_REPS, 0)


def test_host_speed_samples_at_entry_and_stops_with_the_block():
    with run.host_speed() as samples:
        time.sleep(run.SAMPLE_EVERY_S * 1.5)
    taken = len(samples)
    assert taken >= 1
    assert all(t > 0 for t in samples)
    time.sleep(run.SAMPLE_EVERY_S * 1.5)
    assert len(samples) == taken


class _Clock:
    """Stands in for the time module in run: each repetition takes ``step``."""

    def __init__(self, step):
        self.now, self.step = 0.0, step

    def perf_counter(self):
        return self.now

    def rep(self, k):
        self.now += self.step
        return {}


def test_repeat_makes_min_reps_even_when_one_fills_the_seconds(monkeypatch):
    clock = _Clock(step=50.0)
    monkeypatch.setattr(run, "time", clock)
    assert len(run.repeat(2, 10.0, 0.0, clock.rep)) == 2


def test_repeat_stops_at_the_deadline_below_min_reps(monkeypatch):
    clock = _Clock(step=run.DEADLINE_S * 0.6)
    monkeypatch.setattr(run, "time", clock)
    assert len(run.repeat(3, 10.0, 0.0, clock.rep)) == 1


def test_repeat_fills_the_seconds_after_min_reps(monkeypatch):
    clock = _Clock(step=4.0)
    monkeypatch.setattr(run, "time", clock)
    assert len(run.repeat(2, 30.0, 0.0, clock.rep)) == 7


N_EXAMPLES = workloads.MOTION_SEQUENCES * workloads.MOTION_OBJECTS * (workloads.MOTION_FRAMES - 2)


def _pipeline_runs(corrupted=0.6, filtered=0.99):
    return {
        "synth": _run("synth"),
        "filter": _run("filter"),
        "eval_corrupted": _run("eval_corrupted", f"corpus mean J&F: {corrupted}\n"),
        "eval_filtered": _run("eval_filtered", f"corpus mean J&F: {filtered}\n"),
    }


def _motion_runs(loss="0.03", examples=N_EXAMPLES):
    return {
        "train": _run("train", f"examples: {examples}\nfinal train loss: {loss}\n"),
        "filter_pt": _run("filter_pt"),
    }


def test_pipeline_check_requires_filtering_lift():
    check = WORKLOADS["pipeline-480p"].check
    assert not any(check(_pipeline_runs()).values())
    assert check(_pipeline_runs(0.6, 0.6))["eval_filtered"]
    assert check(_pipeline_runs(0.6, "nan"))["eval_filtered"]
    runs = _pipeline_runs()
    runs["filter"].returncode = 2
    assert check(runs)["filter"] == ["exit code 2"]


def test_motion_check_requires_finite_loss_and_all_examples():
    check = WORKLOADS["motion-pt"].check
    assert check(_motion_runs(loss="nan"))["train"]
    assert check(_motion_runs(examples=N_EXAMPLES - 1))["train"]
    assert not any(check(_motion_runs()).values())


def test_gradient_check_requires_every_check_to_pass():
    check = WORKLOADS["gradient-audit"].check
    lines = [f"{n:14s} max err 1.000e-08  tol 1e-04  PASS" for n in workloads.GRADCHECK_NAMES]
    assert not any(check({"gradcheck": _run("gradcheck", "\n".join(lines))}).values())
    lines[2] = lines[2].replace("PASS", "FAIL")
    assert check({"gradcheck": _run("gradcheck", "\n".join(lines))})["gradcheck"]
    assert check({"gradcheck": _run("gradcheck", "\n".join(lines[:3]))})["gradcheck"]


# --- inputs -----------------------------------------------------------------


@pytest.mark.parametrize("make", [workloads.pipeline_scene, workloads.motion_scene])
def test_scenes_are_deterministic_and_keep_objects_inside(make):
    for seed in range(50):
        scene = make(seed)
        assert scene == make(seed)
        for obj in scene["objects"]:
            assert workloads._stays_inside(
                obj["box"], obj["motion"], scene["frames"], scene["height"], scene["width"], 1
            )
    assert make(1) != make(2)
