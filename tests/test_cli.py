import ast
import filecmp
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import voskit
from voskit import checkpoint, corpus, synth
from voskit.cli import EXIT_INPUT, EXIT_INTERNAL, EXIT_MISSING, EXIT_OK, MAX_GRADCHECK_SIZE, main
from voskit.motion_mlp import MotionPredictor

SCENE = {
    "height": 60,
    "width": 90,
    "frames": 8,
    "seed": 5,
    "objects": [
        {"id": 1, "box": [5, 10, 12, 8], "motion": {"kind": "linear", "v": [3, 1]}},
        {"id": 2, "box": [60, 36, 10, 8], "shape": "ellipse", "motion": {"kind": "linear", "v": [-2, 0]}},
    ],
    "corruption": {"blobs": 1, "blob_size": [8, 10], "min_distance": 20.0, "flip_prob": 0.02},
}


def write_scene(tmp_path, scene=None):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene or SCENE))
    return path


def tree_bytes(root):
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = path.read_bytes()
    return out


def run(argv):
    return main([str(a) for a in argv])


def corpus_mean_j(out):
    """The mean J of each `eval` summary in ``out``, in order."""
    return [
        float(line.rsplit(" ", 1)[1])
        for line in out.splitlines()
        if line.startswith("corpus mean J:")
    ]


# --- synth ---


def test_synth_writes_complete_corpus(tmp_path, capsys):
    scene = write_scene(tmp_path)
    out = tmp_path / "corpus"
    assert run(["synth", scene, out, "--sequences", "2"]) == EXIT_OK
    names = corpus.list_sequences(out)
    assert len(names) == 2
    for seq in names:
        d = out / seq
        assert (d / "masks_gt" / "00001.pgm").is_file()
        assert (d / "masks_pred" / "00008.pgm").is_file()
        assert (d / "tracks.csv").read_text().splitlines()[0] == (
            "frame,object_id,x,y,w,h,source"
        )
        echo = json.loads((d / "scene.json").read_text())
        assert echo["height"] == 60
        assert "clipped" in echo


def test_synth_rerun_is_byte_identical(tmp_path):
    scene = write_scene(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["synth", scene, a]) == EXIT_OK
    assert run(["synth", scene, b]) == EXIT_OK
    assert tree_bytes(a) == tree_bytes(b)


def test_synth_sequences_differ_from_each_other(tmp_path):
    scene = write_scene(tmp_path)
    out = tmp_path / "c"
    assert run(["synth", scene, out, "--sequences", "2"]) == EXIT_OK
    seqs = corpus.list_sequences(out)
    a = list(corpus.iter_mask_dir(out / seqs[0] / "masks_pred"))
    b = list(corpus.iter_mask_dir(out / seqs[1] / "masks_pred"))
    assert any(not np.array_equal(x, y) for x, y in zip(a, b))


def test_synth_bad_json_exits_2(tmp_path, capsys):
    # An empty file is what `voskit synth /dev/null out` reads; the last is
    # not UTF-8.
    bad = tmp_path / "scene.json"
    for blob in (b"{not json", b"", b'{"seed": "\xd0\x00"}'):
        bad.write_bytes(blob)
        assert run(["synth", bad, tmp_path / "out"]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")


def test_synth_unknown_scene_key_exits_2(tmp_path, capsys):
    scene = dict(SCENE)
    scene["wibble"] = 3
    assert run(["synth", write_scene(tmp_path, scene), tmp_path / "out"]) == EXIT_INPUT
    # A section that is not a JSON object, a height JSON reads as inf, a
    # motion JSON reads as inf or that names a NaN, a float key given a
    # NaN, a boolean or a string, and a box covering the frame at
    # x = -1e308 whose x overflows to -inf at frame 2, and a height with more
    # digits than int() converts.
    linear = dict(SCENE["objects"][0], motion="linear")
    wide = {"id": 1, "box": [-1e308, 20, 1.5e308, 6], "motion": {"v": [-1e308, 0]}}
    for text in (
        json.dumps(dict(SCENE, objects=[linear])),
        json.dumps(dict(SCENE, corruption=[])),
        json.dumps(SCENE).replace('"height": 60', '"height": 1e400'),
        json.dumps(SCENE).replace('"v": [3, 1]', '"v": [1e400, 1]'),
        json.dumps(SCENE).replace('"v": [3, 1]', '"v": ["nan", 1]'),
        json.dumps(SCENE).replace('"min_distance": 20.0', '"min_distance": NaN'),
        json.dumps(SCENE).replace('"flip_prob": 0.02', '"flip_prob": true'),
        json.dumps(SCENE).replace('"v": [3, 1]', '"v": ["3", 1]'),
        json.dumps(dict(SCENE, objects=[wide])),
        json.dumps(SCENE).replace('"height": 60', '"height": ' + "1" * 5000),
    ):
        (tmp_path / "scene.json").write_text(text)
        capsys.readouterr()
        assert run(["synth", tmp_path / "scene.json", tmp_path / "out"]) == EXIT_INPUT
        assert "internal" not in capsys.readouterr().err


def test_synth_number_past_the_int_digit_limit_exits_2_naming_its_length(tmp_path, capsys):
    # The error names the number's length, not the interpreter setting that
    # would lift the limit.
    scene = tmp_path / "scene.json"
    for sign in ("", "-"):
        height = f'"height": {sign}' + "1" * 5000
        scene.write_text(json.dumps(SCENE).replace('"height": 60', height))
        assert run(["synth", scene, tmp_path / "out"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err == f"error: {scene}: 5000-digit number has too many digits\n"
    assert not (tmp_path / "out").exists()


def test_synth_oversized_frame_exits_2_before_rendering(tmp_path, capsys, monkeypatch):
    def render(cfg):
        raise AssertionError(f"rendered a {cfg.height}x{cfg.width} scene")

    # no frame is allocated: the scene is rejected before anything is rendered
    monkeypatch.setattr(synth, "generate", render)
    for height, width in ((60000, 90000), (synth.MAX_FRAME_SIDE + 1, 90)):
        scene = write_scene(tmp_path, dict(SCENE, height=height, width=width))
        assert run(["synth", scene, tmp_path / "out"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "frame sides" in err and "internal" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    ("scene", "message", "parsed"),
    [
        # found while frame 1 is rendered
        (
            dict(SCENE, width=1, corruption={}, objects=[{"box": [20, 5, 4, 4]}]),
            "object 1 is fully outside the 60x1 frame",
            True,
        ),
        # found while the scene is parsed, before any output is made
        (
            dict(SCENE, corruption=dict(SCENE["corruption"], blob_size=[8, 600])),
            "blob size 600 exceeds frame 60x90",
            False,
        ),
        (
            dict(SCENE, corruption=dict(SCENE["corruption"], min_distance=float("nan"))),
            "corruption: min_distance: must be finite, got nan",
            False,
        ),
        # a period so small that the phase of frame 2 overflows
        (
            dict(SCENE, objects=[{"box": [5, 10, 12, 8], "motion": {"kind": "sinusoidal", "period": 1e-320}}]),
            "object 1 moves to non-finite (nan, nan) at frame 2",
            True,
        ),
    ],
)
def test_synth_scene_error_names_the_scene_file(tmp_path, capsys, scene, message, parsed):
    path = write_scene(tmp_path, scene)
    assert run(["synth", path, tmp_path / "out"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and message in err, err
    assert (tmp_path / "out").exists() == parsed


@pytest.mark.parametrize(
    ("scene", "message"),
    [
        (
            dict(SCENE, corruption=dict(SCENE["corruption"], min_distance=-1)),
            "min_distance must be >= 0, got -1.0",
        ),
        (dict(SCENE, objects=[{"id": 1, "box": [2, 2, 0.5, 6]}]), "object box must be at least 1x1"),
    ],
)
def test_synth_scene_out_of_range_exits_2_before_any_output(tmp_path, capsys, scene, message):
    path = write_scene(tmp_path, scene)
    assert run(["synth", path, tmp_path / "out"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: {message}"), err
    assert not (tmp_path / "out").exists()


def test_synth_missing_scene_file_exits_2(tmp_path):
    assert run(["synth", tmp_path / "nope.json", tmp_path / "out"]) == EXIT_INPUT


def test_synth_object_leaving_mid_sequence_exits_2_after_earlier_frames(tmp_path, capsys):
    # x runs 70, 82, 94: the object is gone from the 90-wide frame at frame 3
    leaving = {"id": 1, "box": [70, 20, 6, 6], "motion": {"kind": "linear", "v": [12, 0]}}
    scene = dict(SCENE, objects=[leaving])
    out = tmp_path / "out"
    path = write_scene(tmp_path, scene)
    assert run(["synth", path, out]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "fully outside" in err
    seq = out / "seq0000"
    # frames are written as they are made, so the two before the error stay
    assert sorted(os.listdir(seq / "masks_gt")) == ["00001.pgm", "00002.pgm"]
    assert sorted(os.listdir(seq / "masks_pred")) == ["00001.pgm", "00002.pgm"]
    assert len((seq / "tracks.csv").read_text().splitlines()) == 3
    assert not (seq / "scene.json").exists()


def tree_digest(root):
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            h.update(path.relative_to(root).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


# sha256 of every relative path and file of `synth --sequences 2` plus the cv
# `filter` of it, on SCENE, as written before synth streamed frame by frame
SYNTH_FILTER_DIGEST = "b4b818ccf3d9bfea46d6f8f98f3875ce2d2e9eb5a03fd90e4ce5ac14466c790c"


def test_synth_and_filter_tree_matches_golden_digest(tmp_path):
    scene = write_scene(tmp_path)
    out = tmp_path / "out"
    assert run(["synth", scene, out / "src", "--sequences", "2"]) == EXIT_OK
    assert run(["filter", out / "src", out / "filtered"]) == EXIT_OK
    assert tree_digest(out) == SYNTH_FILTER_DIGEST


# --- filter ---


@pytest.fixture()
def built_corpus(tmp_path):
    scene = write_scene(tmp_path)
    src = tmp_path / "src"
    assert run(["synth", scene, src]) == EXIT_OK
    return src


def test_filter_cv_improves_j(built_corpus, tmp_path, capsys):
    filtered = tmp_path / "filtered"
    assert run(["filter", built_corpus, filtered]) == EXIT_OK
    for args in (
        ["eval", built_corpus, built_corpus],
        ["eval", filtered, built_corpus],
    ):
        assert run(args) == EXIT_OK
    corrupted_j, filtered_j = corpus_mean_j(capsys.readouterr().out)
    assert filtered_j > corrupted_j


def test_readme_pipeline_lifts_mean_j(tmp_path, capsys):
    # The scene and commands of README's "CLI pipeline" section: filtering
    # must lift mean J, as the README says.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    scene = readme.split("cat > scene.json <<'EOF'\n", 1)[1].split("\nEOF\n", 1)[0]
    (tmp_path / "scene.json").write_text(scene)
    corpus_dir, filtered = tmp_path / "corpus", tmp_path / "filtered"
    assert run(["synth", tmp_path / "scene.json", corpus_dir, "--sequences", "3"]) == EXIT_OK
    assert run(["filter", corpus_dir, filtered]) == EXIT_OK
    assert run(["eval", corpus_dir, corpus_dir]) == EXIT_OK
    assert run(["eval", filtered, corpus_dir, "--report", tmp_path / "report.csv"]) == EXIT_OK
    corrupted_j, filtered_j = corpus_mean_j(capsys.readouterr().out)
    assert filtered_j > corrupted_j


def test_filter_rerun_is_byte_identical(built_corpus, tmp_path):
    a, b = tmp_path / "fa", tmp_path / "fb"
    assert run(["filter", built_corpus, a]) == EXIT_OK
    assert run(["filter", built_corpus, b]) == EXIT_OK
    assert tree_bytes(a) == tree_bytes(b)


def test_filter_on_clean_linear_corpus_is_idempotent(built_corpus, tmp_path):
    once = tmp_path / "once"
    twice = tmp_path / "twice"
    assert run(["filter", built_corpus, once]) == EXIT_OK
    assert run(["filter", once, twice]) == EXIT_OK
    for seq in corpus.list_sequences(once):
        a = list(corpus.iter_mask_dir(once / seq / "masks_pred"))
        b = list(corpus.iter_mask_dir(twice / seq / "masks_pred"))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


def test_filter_margin_wider_than_the_frame_gates_nothing_out(built_corpus, tmp_path):
    # At 1e308 the gate's edges overflow to +-inf; the gate still clips to
    # the whole frame, as it does at 1e300.
    trees = []
    for margin in ("1e300", "1e308"):
        out = tmp_path / margin
        assert run(["filter", built_corpus, out, "--margin", margin, "--dump-overlay"]) == EXIT_OK
        trees.append(tree_bytes(out))
    assert trees[0] == trees[1]
    overlays = [name for name in trees[1] if name.startswith(os.path.join("seq0000", "overlays"))]
    assert overlays
    for name in overlays:
        assert (corpus.read_pgm(tmp_path / "1e308" / name) == 255).all()


def test_filter_writes_tracks_per_sequence(built_corpus, tmp_path):
    filtered = tmp_path / "f"
    assert run(["filter", built_corpus, filtered]) == EXIT_OK
    for seq in corpus.list_sequences(filtered):
        rows = (filtered / seq / "tracks.csv").read_text().splitlines()
        assert rows[0] == "frame,object_id,x,y,w,h,source"
        sources = {line.rsplit(",", 1)[1] for line in rows[1:]}
        assert "warmup" in sources and "cv" in sources
        n_frames = len(corpus.list_frame_files(filtered / seq / "masks_pred"))
        assert len(rows) - 1 == 2 * n_frames  # one row per frame per object


def test_filter_of_all_background_copies_frames_and_logs_nothing(built_corpus, tmp_path, capsys):
    # No id to track: frames pass through unchanged, the track log is only
    # its header, and there is no gate to dump.
    seq = corpus.list_sequences(built_corpus)[0]
    pred = built_corpus / seq / "masks_pred"
    corpus.write_mask_dir(pred, [np.zeros((60, 90), dtype=np.uint8)] * len(os.listdir(pred)))
    filtered = tmp_path / "f"
    assert run(["filter", built_corpus, filtered, "--dump-overlay"]) == EXIT_OK
    assert capsys.readouterr().out == f"filtered 1 sequence(s) to {filtered}\n"
    assert tree_bytes(filtered / seq / "masks_pred") == tree_bytes(pred)
    assert (filtered / seq / "tracks.csv").read_text() == "frame,object_id,x,y,w,h,source\n"
    assert sorted(os.listdir(filtered / seq)) == ["masks_pred", "tracks.csv"]


def test_filter_overlay_dump(built_corpus, tmp_path):
    filtered = tmp_path / "f"
    assert run(["filter", built_corpus, filtered, "--dump-overlay"]) == EXIT_OK
    seq = corpus.list_sequences(filtered)[0]
    overlay = filtered / seq / "overlays" / "001" / "00003.pgm"
    assert overlay.is_file()
    gate = corpus.read_pgm(overlay)
    assert set(np.unique(gate)) <= {0, 255}


def test_filter_overlay_dump_renders_no_gate_of_its_own(built_corpus, tmp_path, monkeypatch):
    # The overlays come from each row's gate box, so the filter renders
    # every gate once with or without them.
    import voskit.boxes
    import voskit.tracker

    attention_map = voskit.boxes.attention_map
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return attention_map(*args, **kwargs)

    monkeypatch.setattr(voskit.boxes, "attention_map", counted)
    monkeypatch.setattr(voskit.tracker, "attention_map", counted)
    counts = []
    for flags in ([], ["--dump-overlay"]):
        calls.clear()
        assert run(["filter", built_corpus, tmp_path / str(len(counts)), *flags]) == EXIT_OK
        counts.append(len(calls))
    assert counts[0] > 0
    assert counts[1] == counts[0]


# sha256 tree digests of `filter src cv --dump-overlay` and `filter src pt
# --variant pt --weights w.tvck --dump-overlay --margin 0.3` on `synth
# --sequences 2` of SCENE, with w.tvck from `train-pt src --out w.tvck
# --epochs 4 --seed 3`, taken while the tracker kept a gate map per object
# for the overlays.
FILTER_OVERLAY_DIGESTS = (
    "e665bc4c57e939f40016de6ed6571b40133bd4d8485fe8993dc8d98707d97bcc",
    "e1a79251453a53dd8e1769cdc9e981022ed5a6b4d5be7c6165599b07f71a9336",
)


def test_filter_overlay_dumps_match_golden_digests(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(["synth", write_scene(tmp_path), "src", "--sequences", "2"]) == EXIT_OK
    assert run(["train-pt", "src", "--out", "w.tvck", "--epochs", "4", "--seed", "3"]) == EXIT_OK
    assert run(["filter", "src", "cv", "--dump-overlay"]) == EXIT_OK
    pt_argv = ["--variant", "pt", "--weights", "w.tvck", "--dump-overlay", "--margin", "0.3"]
    assert run(["filter", "src", "pt", *pt_argv]) == EXIT_OK
    assert (tree_digest(tmp_path / "cv"), tree_digest(tmp_path / "pt")) == FILTER_OVERLAY_DIGESTS


def test_filter_pt_without_weights_exits_3(built_corpus, tmp_path, capsys):
    code = run(["filter", built_corpus, tmp_path / "f", "--variant", "pt"])
    assert code == EXIT_MISSING
    assert "weights" in capsys.readouterr().err


def test_filter_pt_with_missing_weights_file_exits_3(built_corpus, tmp_path):
    code = run(
        ["filter", built_corpus, tmp_path / "f", "--variant", "pt", "--weights", tmp_path / "w.tvck"]
    )
    assert code == EXIT_MISSING


def test_filter_pt_with_garbage_weights_exits_2(built_corpus, tmp_path):
    weights = tmp_path / "w.tvck"
    weights.write_bytes(b"JUNKJUNKJUNK")
    code = run(
        ["filter", built_corpus, tmp_path / "f", "--variant", "pt", "--weights", weights]
    )
    assert code == EXIT_INPUT


def test_filter_pt_with_non_finite_weights_exits_2(built_corpus, tmp_path, capsys):
    predictor = MotionPredictor.for_frame(60, 90, seed=1)
    predictor.params[1]["bias"][0] = np.nan
    weights = tmp_path / "w.tvck"
    checkpoint.save(checkpoint.ParamStore.from_items(predictor.param_items()), weights)
    code = run(
        ["filter", built_corpus, tmp_path / "f", "--variant", "pt", "--weights", weights]
    )
    assert code == EXIT_INPUT
    assert "non-finite" in capsys.readouterr().err


def test_filter_pt_with_a_scale_entry_not_of_one_value_exits_2(built_corpus, tmp_path, capsys):
    items = dict(MotionPredictor.for_frame(60, 90, seed=1).param_items())
    weights = tmp_path / "w.tvck"
    for scale in (np.zeros(0), np.array([5.0, 7.0])):
        items["pt.norm.scale"] = scale
        checkpoint.save(checkpoint.ParamStore.from_items(items.items()), weights)
        code = run(
            ["filter", built_corpus, tmp_path / "f", "--variant", "pt", "--weights", weights]
        )
        assert code == EXIT_INPUT
        assert capsys.readouterr().err.startswith(f"error: {weights}: pt.norm.scale must hold one value")


def test_filter_pt_with_a_margin_wider_than_the_frame_warns_nothing(built_corpus, tmp_path, capsys):
    # The learned motions are Python floats, so the gate's edges overflow to
    # +-inf without a numpy overflow warning, as in the cv variant.
    weights = tmp_path / "w.tvck"
    checkpoint.save(
        checkpoint.ParamStore.from_items(MotionPredictor.for_frame(60, 90, seed=1).param_items()),
        weights,
    )
    argv = ["filter", built_corpus, tmp_path / "f", "--variant", "pt", "--weights", weights]
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([*argv, "--margin", "1e308"]) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_filter_pt_with_weights_at_the_float32_limit_warns_nothing(built_corpus, tmp_path, capsys):
    # 3e38 is a finite float32, so the loader takes these weights. The cube
    # in gelu_tanh overflows where tanh is exactly +-1, which is no error.
    items = dict(MotionPredictor.for_frame(60, 90, seed=1).param_items())
    for name, value in items.items():
        if name != "pt.norm.scale":
            items[name] = np.full_like(value, 3e38)
    weights = tmp_path / "w.tvck"
    checkpoint.save(checkpoint.ParamStore.from_items(items.items()), weights)
    argv = ["filter", built_corpus, tmp_path / "f", "--variant", "pt", "--weights", weights]
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_filter_nonexistent_corpus_exits_2(tmp_path):
    assert run(["filter", tmp_path / "ghost", tmp_path / "f"]) == EXIT_INPUT


# --- eval ---


def test_eval_self_scores_one(built_corpus, tmp_path, capsys):
    gt_only = tmp_path / "gt_only"
    for seq in corpus.list_sequences(built_corpus):
        frames = list(corpus.iter_mask_dir(built_corpus / seq / "masks_gt"))
        corpus.write_mask_dir(gt_only / seq / "masks_gt", frames)
    assert run(["eval", gt_only, built_corpus]) == EXIT_OK
    out = capsys.readouterr().out
    assert "corpus mean J&F: 1.0000" in out


def test_eval_report_csv(built_corpus, tmp_path):
    report = tmp_path / "report.csv"
    assert run(["eval", built_corpus, built_corpus, "--report", report]) == EXIT_OK
    lines = report.read_text().splitlines()
    assert lines[0] == "sequence,object,frame,J,F"
    assert len(lines) > 1


def test_eval_frame_count_mismatch_exits_2(built_corpus, tmp_path, capsys):
    clipped = tmp_path / "clipped"
    for seq in corpus.list_sequences(built_corpus):
        frames = list(corpus.iter_mask_dir(built_corpus / seq / "masks_gt"))
        corpus.write_mask_dir(clipped / seq / "masks_pred", frames[:-1])
        corpus.write_mask_dir(clipped / seq / "masks_gt", frames[:-1])
    assert run(["eval", clipped, built_corpus]) == EXIT_INPUT


def test_eval_mismatch_in_a_later_sequence_exits_2_without_report(tmp_path, capsys):
    src = tmp_path / "src"
    assert run(["synth", write_scene(tmp_path), src, "--sequences", "3"]) == EXIT_OK
    last = corpus.list_sequences(src)[-1]
    pred_dir = src / last / "masks_pred"
    os.remove(pred_dir / corpus.frame_name(len(os.listdir(pred_dir))))
    report = tmp_path / "report.csv"
    capsys.readouterr()
    assert run(["eval", src, src, "--report", report]) == EXIT_INPUT
    assert not report.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert last in captured.err


@pytest.mark.parametrize("command", ["eval", "filter"])
def test_frame_dims_drifting_within_a_sequence_exit_2(command, built_corpus, tmp_path, capsys):
    seq = corpus.list_sequences(built_corpus)[0]
    third = built_corpus / seq / "masks_pred" / corpus.frame_name(3)
    corpus.write_pgm(third, np.zeros((61, 90), dtype=np.uint8))
    second = built_corpus if command == "eval" else tmp_path / "out"
    capsys.readouterr()
    assert run([command, built_corpus, second]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "00003.pgm" in err and "internal" not in err


@pytest.mark.parametrize("command", ["eval", "filter"])
def test_pixel_above_pgm_maxval_exits_2(command, built_corpus, tmp_path, capsys):
    seq = corpus.list_sequences(built_corpus)[0]
    second = built_corpus / seq / "masks_pred" / corpus.frame_name(2)
    second.write_bytes(b"P5\n90 60\n1\n" + bytes([7]) * (60 * 90))
    out = built_corpus if command == "eval" else tmp_path / "out"
    capsys.readouterr()
    assert run([command, built_corpus, out]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "00002.pgm: pixel value 7 exceeds maxval 1" in err and "internal" not in err


def test_eval_prediction_dims_differing_from_ground_truth_exit_2(tmp_path, capsys):
    root = tmp_path / "c"
    corpus.write_mask_dir(root / "s1" / "masks_gt", [np.zeros((10, 13), dtype=np.uint8)] * 3)
    corpus.write_mask_dir(root / "s1" / "masks_pred", [np.zeros((10, 12), dtype=np.uint8)] * 3)
    capsys.readouterr()
    assert run(["eval", root, root]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "s1: " in captured.err and "(10, 12) vs (10, 13)" in captured.err
    assert "internal" not in captured.err


def test_eval_pgm_header_with_unterminated_comment_exits_2(built_corpus, tmp_path, capsys):
    seq = corpus.list_sequences(built_corpus)[0]
    second = built_corpus / seq / "masks_gt" / corpus.frame_name(2)
    second.write_bytes(b"P5\n# no newline")
    capsys.readouterr()
    assert run(["eval", built_corpus, built_corpus]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {seq}: {second}: unterminated comment in header\n"


def test_eval_missing_gt_exits_2(built_corpus, tmp_path):
    assert run(["eval", built_corpus, tmp_path / "ghost"]) == EXIT_INPUT


def stdout_and_file_digest(argv, path, capsys):
    capsys.readouterr()
    assert run(argv) == EXIT_OK
    h = hashlib.sha256(capsys.readouterr().out.encode())
    h.update(path.read_bytes())
    return h.hexdigest()


def late_and_vanishing_ids_corpus(root):
    """Two 20x30 gt sequences of moving boxes: in "a" (8 frames) id 1 is
    gone on frame 5 and id 2 first appears on frame 3; "b" (6 frames) holds
    id 3 only, from frame 2 on."""
    for seq, n, present in (
        ("a", 8, {1: lambda t: t != 5, 2: lambda t: t >= 3}),
        ("b", 6, {3: lambda t: t >= 2}),
    ):
        frames = []
        for t in range(1, n + 1):
            m = np.zeros((20, 30), dtype=np.uint8)
            for oid, here in present.items():
                if here(t):
                    m[2 + oid * 4 : 5 + oid * 4, t + oid : t + oid + 4 + t % 3] = oid
            frames.append(m)
        corpus.write_mask_dir(root / seq / "masks_gt", frames)


# sha256 tree digest of `filter late <margin> --dump-overlay` at the default
# margin, `--margin 0`, `--margin 0.3` and `--margin 2`, each into its own
# directory, on late_and_vanishing_ids_corpus with masks_gt copied to
# masks_pred, taken before the gate became boolean. The trees hold warm-up
# rows and all-255 overlays before an id appears, a vanished id's fallback
# row, and (at margin 2) gates clipped at the edges of the 20x30 frame.
FILTER_LATE_IDS_DIGEST = "4088c5bf5424097a5bd32baa2e746b72f7025de4b3428ff77a35ee2dd5945a12"


def test_filter_on_late_and_vanishing_ids_matches_golden_digest(tmp_path):
    late = tmp_path / "late"
    late_and_vanishing_ids_corpus(late)
    for seq in corpus.list_sequences(late):
        frames = corpus.iter_mask_dir(late / seq / "masks_gt")
        corpus.write_mask_dir(late / seq / "masks_pred", frames)
    out = tmp_path / "out"
    for name, margin in (
        ("default", []),
        ("m0", ["--margin", "0"]),
        ("m03", ["--margin", "0.3"]),
        ("m2", ["--margin", "2"]),
    ):
        assert run(["filter", late, out / name, "--dump-overlay", *margin]) == EXIT_OK
    assert tree_digest(out) == FILTER_LATE_IDS_DIGEST


# sha256 of stdout followed by the written file, taken before eval and
# train-pt streamed frames: `eval src src --report report.csv` and
# `train-pt src --out w.tvck --epochs 4 --seed 3` on `synth --sequences 2` of
# SCENE, and `train-pt late --out w2.tvck --epochs 6 --seed 1` on
# late_and_vanishing_ids_corpus.
EVAL_REPORT_DIGEST = "1f29a3fbefad92bad7a2402e4e6b76e0d66bc594762d7d4fd068bda70fdafbee"
TRAIN_PT_DIGEST = "92d22a4c6e1b36ae6f35251408c4e92f18973dd3fd0f7d2e61ed5b664888d97a"
TRAIN_PT_LATE_IDS_DIGEST = "443283d9cf1f97fb059a6bed674ffba60ae8a3e376a248f87ce64fad0adbb423"


def test_eval_and_train_pt_match_golden_digests(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(["synth", write_scene(tmp_path), "src", "--sequences", "2"]) == EXIT_OK
    late_and_vanishing_ids_corpus(tmp_path / "late")
    digests = (
        stdout_and_file_digest(
            ["eval", "src", "src", "--report", "report.csv"], tmp_path / "report.csv", capsys
        ),
        stdout_and_file_digest(
            ["train-pt", "src", "--out", "w.tvck", "--epochs", "4", "--seed", "3"],
            tmp_path / "w.tvck",
            capsys,
        ),
        stdout_and_file_digest(
            ["train-pt", "late", "--out", "w2.tvck", "--epochs", "6", "--seed", "1"],
            tmp_path / "w2.tvck",
            capsys,
        ),
    )
    assert digests == (EVAL_REPORT_DIGEST, TRAIN_PT_DIGEST, TRAIN_PT_LATE_IDS_DIGEST)


# --- memory per frame ---

# Two objects and four distractor blobs on three 480x854 frames, the DAVIS
# frame size; `filter` gates frame 3 with the cv tracker.
SCENE_480P = {
    "height": 480,
    "width": 854,
    "frames": 3,
    "seed": 4,
    "objects": [
        {"id": 1, "box": [120, 100, 60, 40], "motion": {"kind": "linear", "v": [4, 2]}},
        {"id": 2, "box": [500, 260, 70, 50], "shape": "ellipse",
         "motion": {"kind": "accelerating", "v": [-3, 1], "a": [1, 0]}},
    ],
    "corruption": {"blobs": 2, "blob_size": [30, 50], "min_distance": 60.0, "flip_prob": 0.02},
}


@pytest.fixture(scope="module")
def corpus_480p(tmp_path_factory):
    root = tmp_path_factory.mktemp("480p")
    assert run(["synth", write_scene(root, SCENE_480P), root / "src"]) == EXIT_OK
    return root / "src"


def traced_peak(argv):
    """tracemalloc peak of ``main(argv)`` in bytes. The command runs once
    untraced first, so that loading its modules is not counted."""
    assert run(argv) == EXIT_OK
    tracemalloc.start()
    try:
        assert run(argv) == EXIT_OK
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cv_filter_of_480p_frames_with_2_ids_allocates_under_8_bytes_per_pixel(
    corpus_480p, tmp_path, capsys
):
    # The peak is that of the one cv-gated frame: its read, one boolean
    # channel per id, the gated channels and the composed label.
    # 3,071,588 B (7.49 per pixel) on numpy 2.4; holding the label of the
    # frame before while it is read and gated took 3,470,239 B (8.47), and
    # a float64 channel would add 8 bytes per pixel per id.
    out = tmp_path / "filtered"
    peak = traced_peak(["filter", corpus_480p, out])
    tracks = (out / "seq0000" / corpus.TRACKS_NAME).read_text().splitlines()
    assert [row.rsplit(",", 1)[1] for row in tracks[-2:]] == ["cv", "cv"]
    assert peak < 8 * 480 * 854, f"peak {peak:,} B"


def test_corrupted_eval_of_480p_frame_pairs_allocates_under_9_bytes_per_pixel(corpus_480p, capsys):
    # One prediction/ground-truth frame pair at a time: both reads and the
    # per-object crops. 3,337,270 B (8.14 per pixel) on numpy 2.4.
    peak = traced_peak(["eval", corpus_480p, corpus_480p])
    assert peak < 9 * 480 * 854, f"peak {peak:,} B"


# --- train-pt ---


def test_train_pt_writes_deterministic_weights(built_corpus, tmp_path, capsys):
    w1, w2 = tmp_path / "w1.tvck", tmp_path / "w2.tvck"
    args = ["train-pt", built_corpus, "--epochs", "4", "--seed", "3"]
    assert run(args + ["--out", w1]) == EXIT_OK
    assert run(args + ["--out", w2]) == EXIT_OK
    assert w1.read_bytes() == w2.read_bytes()
    out = capsys.readouterr().out
    assert "examples:" in out and "final train loss:" in out


def test_train_pt_epochs_zero_equals_initialization(built_corpus, tmp_path):
    w = tmp_path / "w.tvck"
    assert run(["train-pt", built_corpus, "--out", w, "--epochs", "0", "--seed", "7"]) == EXIT_OK
    predictor = MotionPredictor.for_frame(60, 90, seed=7)
    expected = tmp_path / "expected.tvck"
    checkpoint.save(checkpoint.ParamStore.from_items(predictor.param_items()), expected)
    assert w.read_bytes() == expected.read_bytes()


def test_train_pt_weights_load_into_filter(built_corpus, tmp_path):
    w = tmp_path / "w.tvck"
    assert run(["train-pt", built_corpus, "--out", w, "--epochs", "8"]) == EXIT_OK
    filtered = tmp_path / "f"
    assert run(["filter", built_corpus, filtered, "--variant", "pt", "--weights", w]) == EXIT_OK
    seq = corpus.list_sequences(filtered)[0]
    sources = {
        line.rsplit(",", 1)[1]
        for line in (filtered / seq / "tracks.csv").read_text().splitlines()[1:]
    }
    assert "pt" in sources


@pytest.mark.parametrize("option", [["--lr", "1e300"], ["--weight-decay", "1e308"]])
def test_train_pt_that_diverges_exits_2_and_writes_nothing(built_corpus, tmp_path, capsys, option):
    # --lr 1e300 trains weights that are finite in float64 but overflow the
    # float32 checkpoint; --weight-decay 1e308 makes the predictions overflow.
    w = tmp_path / "w.tvck"
    assert run(["train-pt", built_corpus, "--out", w, "--epochs", "2"] + option) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "error: training diverged" in err and "--lr or --weight-decay" in err
    assert not w.exists()


@pytest.mark.parametrize("option", [["--lr", "1e300"], ["--weight-decay", "1e308"]])
def test_train_pt_that_diverges_prints_one_error_line(built_corpus, tmp_path, option):
    # In a fresh interpreter, where numpy's overflow warnings would reach
    # stderr: the error line is all that is printed.
    w = tmp_path / "w.tvck"
    proc, _ = fresh_main(["train-pt", built_corpus, "--out", w, "--epochs", "2", *option])
    assert proc.returncode == EXIT_INPUT
    [line] = proc.stderr.splitlines()
    assert line.startswith("error: training diverged"), proc.stderr


def test_train_pt_empty_corpus_exits_2(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run(["train-pt", empty, "--out", tmp_path / "w.tvck"]) == EXIT_INPUT


def test_train_pt_without_three_boxes_in_a_row_exits_2(tmp_path, capsys):
    # The object is present on every other frame only, so no track has the
    # three consecutive boxes a training example needs.
    frames = [np.zeros((10, 12), dtype=np.uint8) for _ in range(6)]
    for t in (0, 2, 4):
        frames[t][2:5, t : t + 3] = 1
    corpus.write_mask_dir(tmp_path / "c" / "s1" / "masks_gt", frames)
    weights = tmp_path / "w.tvck"
    assert run(["train-pt", tmp_path / "c", "--out", weights]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no training examples (need runs of 3 boxes)\n"
    assert not weights.exists()


def test_train_pt_mixed_dims_exits_2(built_corpus, tmp_path):
    other = tmp_path / "other"
    scene = dict(SCENE)
    scene["height"] = 50
    scene_path = tmp_path / "scene50.json"
    scene_path.write_text(json.dumps(scene))
    assert run(["synth", scene_path, other]) == EXIT_OK
    code = run(["train-pt", built_corpus, other, "--out", tmp_path / "w.tvck"])
    assert code == EXIT_INPUT


# --- gradcheck ---


def test_gradcheck_cli_passes(capsys):
    assert run(["gradcheck", "--seeds", "1", "--size", "12"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("PASS") >= 6
    assert "FAIL" not in out


# The stdout of `gradcheck --seeds 2 --size 16`. The loss and gelu lines are
# those of the per-component finite-difference driver; batching the
# perturbations, or computing a loss's gradient only when it is read, must
# not move a digit. The mlp_backward line also holds the hidden weight
# matrices' directional errors, so it depends on the direction stream.
GRADCHECK_GOLDEN = (
    "ce_loss        max err 1.231e-08  tol 1e-04  PASS\n"
    "iou_loss       max err 3.659e-09  tol 1e-04  PASS\n"
    "ssim_loss      max err 1.606e-09  tol 1e-03  PASS\n"
    "total_loss     max err 1.098e-08  tol 1e-03  PASS\n"
    "gelu           max err 3.426e-09  tol 1e-04  PASS\n"
    "mlp_backward   max err 6.154e-07  tol 1e-04  PASS\n"
)


# The stdout of `gradcheck --seed 1 --seeds 5 --size 16`, the benchmark's
# gradient-audit stage.
GRADCHECK_AUDIT_GOLDEN = (
    "ce_loss        max err 1.324e-08  tol 1e-04  PASS\n"
    "iou_loss       max err 3.930e-09  tol 1e-04  PASS\n"
    "ssim_loss      max err 1.856e-09  tol 1e-03  PASS\n"
    "total_loss     max err 1.098e-08  tol 1e-03  PASS\n"
    "gelu           max err 6.770e-09  tol 1e-04  PASS\n"
    "mlp_backward   max err 9.187e-07  tol 1e-04  PASS\n"
)


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["gradcheck", "--seeds", "2", "--size", "16"], GRADCHECK_GOLDEN),
        (["gradcheck", "--seed", "1", "--seeds", "5", "--size", "16"], GRADCHECK_AUDIT_GOLDEN),
    ],
    ids=["seeds2", "gradient-audit"],
)
def test_gradcheck_stdout_matches_golden(argv, golden, capsys):
    assert run(argv) == EXIT_OK
    assert capsys.readouterr().out == golden


# The stdout of `gradcheck --seeds 10`, the full audit the README documents.
GRADCHECK_FULL_GOLDEN = (
    "ce_loss        max err 1.324e-08  tol 1e-04  PASS\n"
    "iou_loss       max err 3.930e-09  tol 1e-04  PASS\n"
    "ssim_loss      max err 5.230e-09  tol 1e-03  PASS\n"
    "total_loss     max err 1.110e-08  tol 1e-03  PASS\n"
    "gelu           max err 6.770e-09  tol 1e-04  PASS\n"
    "mlp_backward   max err 1.775e-05  tol 1e-04  PASS\n"
)


def test_gradcheck_full_audit_stdout_matches_golden(capsys):
    assert run(["gradcheck", "--seeds", "10"]) == EXIT_OK
    assert capsys.readouterr().out == GRADCHECK_FULL_GOLDEN


@pytest.mark.parametrize(
    "argv",
    [
        ["gradcheck", "--seeds", "0"],
        ["gradcheck", "--seeds", "-1"],
        ["gradcheck", "--size", "0"],
        ["gradcheck", "--size", "-2"],
        ["train-pt", "corpus", "--out", "w.tvck", "--batch", "0"],
        ["train-pt", "corpus", "--out", "w.tvck", "--epochs", "-1"],
        ["train-pt", "corpus", "--out", "w.tvck", "--lambda-small", "0.5"],
        ["train-pt", "corpus", "--out", "w.tvck", "--lr", "nan"],
        ["train-pt", "corpus", "--out", "w.tvck", "--weight-decay", "-0.1"],
        ["filter", "in", "out", "--margin", "-1"],
        ["filter", "in", "out", "--margin", "nan"],
        ["synth", "scene.json", "out", "--sequences", "0"],
        ["filter", "in", "out", "--margin", "inf"],
        ["filter", "in", "out", "--margin", "wide"],
        ["synth", "scene.json", "out", "--sequences", "1.5"],
        ["train-pt", "corpus", "--out", "w.tvck", "--lr", "inf"],
        ["gradcheck", "--size", str(MAX_GRADCHECK_SIZE + 1)],
        ["gradcheck", "--size", "1" + "0" * 400],
        ["gradcheck", "--seeds", "1" + "0" * 400],
        ["train-pt", "corpus", "--out", "w.tvck", "--epochs", "1" + "0" * 400],
        ["train-pt", "corpus", "--out", "w.tvck", "--batch", "1" + "0" * 400],
        ["synth", "scene.json", "out", "--sequences", "1" + "0" * 400],
    ],
)
def test_malformed_numeric_option_exits_2_at_parse_time(argv, tmp_path, monkeypatch, capsys):
    # Run where nothing exists: the parser must reject the option before any
    # file is opened.
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == EXIT_INPUT
    assert f"argument {argv[-2]}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_filter_has_no_threshold_option(tmp_path, monkeypatch, capsys):
    # Masks are binarized at boxes.MASK_THRESHOLD; there is no knob for it.
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run(["filter", "in", "out", "--threshold", "0.5"])
    assert exc.value.code == EXIT_INPUT
    assert "unrecognized arguments: --threshold 0.5" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["synth", "adir", "out"],
        ["synth", "scene.json", "afile"],
        ["eval", "src", "src", "--report", "adir"],
        ["train-pt", "src", "--out", "adir", "--epochs", "0"],
        ["transplant", "--target", "adir", "--source", "w.tvck", "--prefix", "pt.", "--out", "o.tvck"],
        ["eval", "src", "src", "--report", "nodir/report.csv"],
        ["train-pt", "src", "--out", "nodir/w.tvck", "--epochs", "0"],
        ["synth", "scene.json", "a" * 300],
        ["synth", "scene.json", "loop/x"],
        ["transplant", "--target", "loop", "--source", "w.tvck", "--prefix", "pt.", "--out", "o.tvck"],
    ],
)
def test_path_of_the_wrong_kind_exits_2(argv, built_corpus, tmp_path, monkeypatch, capsys):
    # A directory where a file is read or written, a file where the output
    # directory goes, a missing parent directory, a name too long for the
    # file system or a symlink loop is malformed input, not an internal
    # error. An output path is checked before any corpus is read, so a
    # corpus scan that would fail must not be reached.
    monkeypatch.chdir(tmp_path)

    def no_corpus_scan(root):
        raise RuntimeError("the corpus was read before the output path was checked")

    monkeypatch.setattr(corpus, "list_sequences", no_corpus_scan)
    (tmp_path / "adir").mkdir()
    (tmp_path / "afile").write_text("not a directory\n")
    (tmp_path / "loop").symlink_to("loop")
    checkpoint.save(
        checkpoint.ParamStore.from_items(MotionPredictor.for_frame(60, 90, seed=1).param_items()),
        tmp_path / "w.tvck",
    )
    capsys.readouterr()
    assert run(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "internal" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["filter", "src", "a" * 300 + "/out"],
        ["filter", "src", "loop/out"],
        ["filter", "src", ""],
        ["train-pt", "src", "--out", "a" * 300, "--epochs", "0"],
        pytest.param(
            ["eval", "src", "src", "--report", "/dev/full"],
            marks=pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full"),
        ),
    ],
)
def test_output_path_the_system_refuses_exits_2(argv, built_corpus, tmp_path, monkeypatch, capsys):
    # `filter` lists its input before it makes its output directories,
    # `train-pt` trains before it opens its output, and `eval` meets a full
    # device only when it writes the report: each OSError on the way is
    # still malformed input. An empty output path names no directory, not
    # the current one.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "loop").symlink_to("loop")
    capsys.readouterr()
    assert run(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "internal" not in err
    assert not (tmp_path / "seq0000").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "src", "src", "--report", ""],
        ["train-pt", "src", "--out", ""],
        ["transplant", "--target", "w.tvck", "--source", "w.tvck", "--prefix", "pt.", "--out", ""],
    ],
)
def test_empty_output_path_exits_2_before_any_input_is_read(
    argv, built_corpus, tmp_path, monkeypatch, capsys
):
    # "" names no file, so neither a report nor weights can be written:
    # the command says so before it reads a corpus or a checkpoint.
    monkeypatch.chdir(tmp_path)

    def no_input(path):
        raise RuntimeError("an input was read before the output path was checked")

    monkeypatch.setattr(corpus, "list_sequences", no_input)
    monkeypatch.setattr(checkpoint, "load", no_input)
    capsys.readouterr()
    assert run(argv) == EXIT_INPUT
    assert capsys.readouterr().err == "error: [Errno 2] No such file or directory: ''\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize(
    "argv, target",
    [
        (["eval", "src", "src", "--report", "/dev/full"], None),
        (["train-pt", "src", "--out", "/dev/full", "--epochs", "0"], None),
        (["transplant", "--target", "w.tvck", "--source", "w.tvck", "--prefix", "pt.",
          "--out", "/dev/full"], None),
        (["synth", "scene.json", "out"], "out/seq0000/masks_gt/00001.pgm"),
        (["synth", "scene.json", "out"], "out/seq0000/tracks.csv"),
        (["synth", "scene.json", "out"], "out/seq0000/scene.json"),
        (["filter", "src", "out"], "out/seq0000/masks_pred/00002.pgm"),
        (["filter", "src", "out"], "out/seq0000/tracks.csv"),
    ],
)
def test_a_write_to_a_full_device_names_its_file(
    argv, target, built_corpus, tmp_path, monkeypatch, capsys
):
    # The device refuses the bytes only when they are flushed, and the
    # OSError it raises then carries no file name of its own. An output
    # that a command names inside its output directory is made a symlink
    # to the full device.
    monkeypatch.chdir(tmp_path)
    checkpoint.save(
        checkpoint.ParamStore.from_items(MotionPredictor.for_frame(60, 90, seed=1).param_items()),
        tmp_path / "w.tvck",
    )
    if target is not None:
        (tmp_path / target).parent.mkdir(parents=True)
        (tmp_path / target).symlink_to("/dev/full")
    capsys.readouterr()
    assert run(argv) == EXIT_INPUT
    name = target or "/dev/full"
    assert capsys.readouterr().err == f"error: [Errno 28] No space left on device: '{name}'\n"


# --- transplant ---


# sha256 of the store `transplant` writes in test_transplant_cli_round_trip:
# layer 0 of the seed-1 predictor for a 60x90 frame in the seed-2 one.
TRANSPLANT_MERGED_SHA256 = "3629f1e057ae0947c763ce01d482c8413537cb022b2384554cf9ef71da5504af"


def test_transplant_cli_round_trip(built_corpus, tmp_path, capsys):
    donor_path = tmp_path / "donor.tvck"
    target_path = tmp_path / "target.tvck"
    donor = MotionPredictor.for_frame(60, 90, seed=1)
    target = MotionPredictor.for_frame(60, 90, seed=2)
    checkpoint.save(checkpoint.ParamStore.from_items(donor.param_items()), donor_path)
    checkpoint.save(checkpoint.ParamStore.from_items(target.param_items()), target_path)

    merged = tmp_path / "merged.tvck"
    code = run(
        ["transplant", "--target", target_path, "--source", donor_path,
         "--prefix", "pt.layer0.", "--out", merged]
    )
    assert code == EXIT_OK
    assert capsys.readouterr().out == (
        "transplanted: 2\n"
        "skipped (missing in source): 0\n"
        "skipped (shape mismatch): 0\n"
        "  + pt.layer0.weight\n"
        "  + pt.layer0.bias\n"
    )
    assert hashlib.sha256(merged.read_bytes()).hexdigest() == TRANSPLANT_MERGED_SHA256

    store = checkpoint.load(merged)
    donor_store = checkpoint.load(donor_path)
    target_store = checkpoint.load(target_path)
    np.testing.assert_array_equal(store.get("pt.layer0.weight"), donor_store.get("pt.layer0.weight"))
    np.testing.assert_array_equal(store.get("pt.layer1.weight"), target_store.get("pt.layer1.weight"))


def test_transplant_bad_magic_exits_2(tmp_path):
    bad = tmp_path / "bad.tvck"
    bad.write_bytes(b"????" + b"\x00" * 8)
    good = tmp_path / "good.tvck"
    checkpoint.save(
        checkpoint.ParamStore.from_items(MotionPredictor.for_frame(60, 90, seed=1).param_items()),
        good,
    )
    code = run(["transplant", "--target", good, "--source", bad, "--prefix", "pt.", "--out", tmp_path / "o.tvck"])
    assert code == EXIT_INPUT


# --- parser plumbing ---


# Fresh interpreters: this one has already imported whatever the other tests
# pulled in, so only a new process shows what a command loads by itself.


SRC = os.path.dirname(os.path.dirname(voskit.__file__))


def fresh_interpreter(code, *args, **options):
    """Run ``code`` with voskit's sources first on sys.path; ``args`` land in
    sys.argv[1:]. ``options`` go to subprocess.run, which captures stdout
    and stderr as text unless they say otherwise."""
    code = f"import sys; sys.path.insert(0, {SRC!r})\n{code}"
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", code, *map(str, args)],
        **{"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, "text": True, **options},
    )


LOADED_VOSKIT = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'voskit'))"


def fresh_main(argv, setup=""):
    """main(argv) in a fresh interpreter after the statements ``setup``.
    Returns the process and the voskit modules loaded once main returned."""
    proc = fresh_interpreter(
        f"{setup}\nfrom voskit.cli import main\ncode = main(sys.argv[1:])\n"
        f"{LOADED_VOSKIT}\nsys.exit(code)",
        *argv,
    )
    return proc, set(ast.literal_eval(proc.stdout.splitlines()[-1]))


def test_cli_import_skips_scipy_signal():
    # voskit runs on numpy alone, so no scipy module loads.
    proc = fresh_interpreter(
        "import voskit.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert proc.stdout.strip() == "[]", proc.stderr


def test_package_root_imports_no_submodule():
    # The root holds only __version__: importing it must not load a voskit
    # module or numpy.
    proc = fresh_interpreter(
        "import voskit; print(voskit.__version__, sorted(m for m in sys.modules "
        "if m.startswith('voskit.') or m.split('.')[0] == 'numpy'))"
    )
    assert proc.stdout.strip() == f"{voskit.__version__} []", proc.stderr


def test_only_synth_loads_json(built_corpus, tmp_path):
    # json serves synth's scene files alone: importing the CLI and running
    # any other stage leaves it unloaded.
    report = "print('json' in sys.modules)"
    proc = fresh_interpreter(f"import voskit.cli\n{report}")
    assert proc.stdout == "False\n", proc.stderr
    run_main = f"from voskit.cli import main\ncode = main(sys.argv[1:])\n{report}\nsys.exit(code)"
    for argv, loads_json in (
        (["gradcheck", "--seeds", "1", "--size", "4"], False),
        (["eval", built_corpus, built_corpus], False),
        (["filter", built_corpus, tmp_path / "filtered"], False),
        (["synth", write_scene(tmp_path), tmp_path / "corpus"], True),
    ):
        proc = fresh_interpreter(run_main, *argv)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout.splitlines()[-1] == str(loads_json), argv


def test_synth_leaves_metrics_unloaded(tmp_path):
    # synth erodes masks through boxes.erode, so neither importing it nor
    # running the stage compiles the scoring code.
    proc = fresh_interpreter(f"import voskit.synth\n{LOADED_VOSKIT}")
    loaded = set(ast.literal_eval(proc.stdout))
    assert "voskit.synth" in loaded and "voskit.metrics" not in loaded, proc.stderr

    proc, loaded = fresh_main(["synth", write_scene(tmp_path), tmp_path / "corpus"])
    assert proc.returncode == EXIT_OK, proc.stderr
    assert loaded == CLI_IMPORT_MODULES | {"voskit.synth", "voskit.boxes", "voskit.rng", "voskit.tracker"}


CLI_IMPORT_MODULES = {"voskit", "voskit.cli", "voskit.corpus"}


def test_each_subcommand_loads_only_the_modules_it_runs(built_corpus, tmp_path):
    proc = fresh_interpreter(f"import voskit.cli\n{LOADED_VOSKIT}")
    assert set(ast.literal_eval(proc.stdout)) == CLI_IMPORT_MODULES, proc.stderr

    proc, loaded = fresh_main(["eval", built_corpus, built_corpus])
    assert proc.returncode == EXIT_OK, proc.stderr
    for name in ("synth", "gradcheck", "losses", "grid", "motion_mlp", "checkpoint"):
        assert f"voskit.{name}" not in loaded
    assert loaded == CLI_IMPORT_MODULES | {"voskit.metrics", "voskit.boxes"}, loaded

    proc, loaded = fresh_main(["gradcheck", "--seeds", "1", "--size", "8"])
    assert proc.returncode == EXIT_OK, proc.stderr
    for name in ("synth", "metrics", "checkpoint", "tracker"):
        assert f"voskit.{name}" not in loaded

    proc, loaded = fresh_main(["filter", built_corpus, tmp_path / "filtered"])
    assert proc.returncode == EXIT_OK, proc.stderr
    assert loaded == CLI_IMPORT_MODULES | {"voskit.tracker", "voskit.boxes"}


def test_exit_codes_in_a_fresh_interpreter(built_corpus, tmp_path):
    # Each subcommand loads its own modules, and main maps their exit-2
    # errors through one base class, corpus.InputError, without loading
    # them; only a fresh process shows that mapping, because earlier tests
    # have loaded every module.
    bad_scene = write_scene(tmp_path, dict(SCENE, wibble=3))
    not_json = tmp_path / "empty.json"
    not_json.write_text("")
    junk = tmp_path / "junk.tvck"
    junk.write_bytes(b"JUNKJUNKJUNK")
    good = tmp_path / "good.tvck"
    checkpoint.save(
        checkpoint.ParamStore.from_items(MotionPredictor.for_frame(60, 90, seed=1).param_items()),
        good,
    )
    weights = ["--variant", "pt", "--weights", junk]
    boom = "import voskit.corpus\ndef boom(root): raise ValueError('boom')\n"
    for argv, setup, code, err in (
        (["synth", bad_scene, tmp_path / "o1"], "", EXIT_INPUT, f"error: {bad_scene}: "),
        (["synth", not_json, tmp_path / "o2"], "", EXIT_INPUT, f"error: {not_json}: "),
        (["filter", built_corpus, tmp_path / "o3", *weights], "", EXIT_INPUT, f"error: {junk}: bad magic"),
        (
            ["transplant", "--target", good, "--source", junk, "--prefix", "pt.", "--out", tmp_path / "o4"],
            "",
            EXIT_INPUT,
            f"error: {junk}: bad magic",
        ),
        (
            ["eval", built_corpus, built_corpus],
            boom + "voskit.corpus.list_sequences = boom",
            EXIT_INTERNAL,
            "error: internal: ValueError: boom",
        ),
    ):
        proc, _ = fresh_main(argv, setup)
        assert proc.returncode == code, proc.stderr
        assert proc.stderr.startswith(err), proc.stderr


def test_failing_eval_exits_2_without_loading_other_error_modules(tmp_path):
    # main maps malformed input to exit 2 by the base class corpus.InputError,
    # so classifying the error loads neither synth nor checkpoint.
    missing = tmp_path / "missing"
    proc, loaded = fresh_main(["eval", missing, missing])
    assert proc.returncode == EXIT_INPUT, proc.stderr
    assert proc.stderr == f"error: {missing}: not a directory\n"
    assert not loaded & {"voskit.synth", "voskit.checkpoint"}, loaded


def test_oversized_gradcheck_grid_exits_2_before_any_check():
    # argparse rejects the size, so no check runs and nothing is allocated:
    # the gradient modules never load.
    proc = fresh_interpreter(
        "from voskit.cli import main\n"
        "try:\n"
        "    main(sys.argv[1:])\n"
        "except SystemExit as exc:\n"
        f"    {LOADED_VOSKIT}\n"
        "    sys.exit(exc.code)",
        "gradcheck", "--seeds", "1", "--size", "100000",
    )
    assert proc.returncode == EXIT_INPUT, proc.stderr
    assert f"argument --size: must be at most {MAX_GRADCHECK_SIZE}, got 100000" in proc.stderr
    loaded = set(ast.literal_eval(proc.stdout))
    assert not loaded & {"voskit.gradcheck", "voskit.losses", "voskit.motion_mlp"}, loaded


def test_every_malformed_input_error_is_an_input_error():
    assert issubclass(corpus.InputError, ValueError)
    for err in (
        corpus.CorpusError,
        synth.SceneError,
        checkpoint.CheckpointError,
        checkpoint.BadMagicError,
        checkpoint.UnsupportedVersionError,
        checkpoint.TruncatedFileError,
        checkpoint.EntryShapeError,
    ):
        assert issubclass(err, corpus.InputError), err


def test_eval_runs_with_scipy_blocked(built_corpus, tmp_path, capsys):
    # A fresh interpreter where sys.modules["scipy"] = None makes every scipy
    # import fail; scoring must give the in-process stdout and report.
    blocked = tmp_path / "blocked.csv"
    proc = fresh_interpreter(
        "sys.modules['scipy'] = None\nfrom voskit.cli import main\nsys.exit(main(sys.argv[1:]))",
        "eval", built_corpus, built_corpus, "--report", blocked,
    )
    assert proc.returncode == EXIT_OK, proc.stderr

    capsys.readouterr()
    in_process = tmp_path / "in_process.csv"
    assert run(["eval", built_corpus, built_corpus, "--report", in_process]) == EXIT_OK
    assert proc.stdout == capsys.readouterr().out
    assert blocked.read_bytes() == in_process.read_bytes()


# --- the command-line entry: run() ---


def cli_process(argv, cwd):
    """``python -m voskit.cli argv`` in cwd, which ends through run()."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "voskit.cli", *map(str, argv)],
        cwd=cwd, env=env, capture_output=True, text=True,
    )


def main_in_process(argv, capsys):
    """(exit code, stdout, stderr) of main(argv) in this process, with
    argparse's own exits caught."""
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


def test_cli_process_writes_what_main_writes_in_process(tmp_path, monkeypatch, capsys):
    # run() skips interpreter teardown, so every byte a stage writes must be
    # out before it exits: the files, and stdout through a pipe, which is
    # block-buffered. The same relative argv runs in two directories.
    spawned, in_process = tmp_path / "spawned", tmp_path / "in_process"
    for root in (spawned, in_process):
        root.mkdir()
        write_scene(root)
    monkeypatch.chdir(in_process)
    for argv in (
        ["synth", "scene.json", "corpus", "--sequences", "2"],
        ["filter", "corpus", "filtered", "--dump-overlay"],
        ["eval", "filtered", "corpus", "--report", "report.csv"],
    ):
        proc = cli_process(argv, spawned)
        result = main_in_process(argv, capsys)
        assert (proc.returncode, proc.stdout, proc.stderr) == result
        assert result[0] == EXIT_OK and result[1] and not result[2]
    assert tree_bytes(spawned) == tree_bytes(in_process)
    assert (spawned / "filtered" / "seq0001" / "overlays").is_dir()


def test_cli_process_exits_with_the_code_main_gives(built_corpus, tmp_path, capsys):
    missing = tmp_path / "missing"
    for argv, code in (
        (["eval", missing, missing], EXIT_INPUT),
        (["filter", built_corpus, tmp_path / "f", "--variant", "pt"], EXIT_MISSING),
        # argparse exits from inside main(), through SystemExit
        (["gradcheck", "--seeds", "0"], EXIT_INPUT),
    ):
        proc = cli_process(argv, tmp_path)
        assert (proc.returncode, proc.stdout, proc.stderr) == main_in_process(argv, capsys)
        assert proc.returncode == code, proc.stderr


# A module-level object whose finalizer reports on stdout, and an atexit
# handler that does, registered before run().
WITNESSES = (
    "import atexit, os\n"
    "atexit.register(print, 'atexit handler ran')\n"
    "class Witness:\n"
    "    def __del__(self, write=os.write):\n"
    "        write(1, b'finalized\\n')\n"
    "witness = Witness()\n"
)


@pytest.mark.parametrize(
    "watcher", ["", "sys.setprofile(lambda *event: None)", "sys.settrace(lambda *event: None)"]
)
def test_run_skips_teardown_unless_a_profiler_or_tracer_watches(watcher, tmp_path):
    # Either way the atexit handlers run once. Unwatched, run() ends in
    # os._exit, so nothing is finalized; under a profiler or tracer (as
    # with cProfile or coverage) it exits normally, and teardown finalizes
    # the witness.
    missing = tmp_path / "missing"
    proc = fresh_interpreter(
        f"{WITNESSES}{watcher}\nfrom voskit.cli import run\nrun()", "eval", missing, missing
    )
    assert proc.returncode == EXIT_INPUT
    assert proc.stderr == f"error: {missing}: not a directory\n"
    assert proc.stdout == "atexit handler ran\n" + ("finalized\n" if watcher else "")


@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        (["--version"], EXIT_OK, f"voskit {voskit.__version__}\n", ""),
        (["gradcheck", "--bogus"], EXIT_INPUT, "", "voskit: error: unrecognized arguments: --bogus\n"),
    ],
)
def test_run_ends_an_argparse_exit_without_teardown(argv, code, out, err):
    # argparse leaves main() through SystemExit. run() takes its code and
    # ends as after a return: the same output and exit status as the
    # interpreter's own exit, the atexit handlers once and no teardown.
    ran, exited = (
        fresh_interpreter(f"{WITNESSES}from voskit.cli import main, run\n{entry}", *argv)
        for entry in ("run()", "sys.exit(main())")
    )
    assert ran.returncode == exited.returncode == code
    assert ran.stderr == exited.stderr and ran.stderr.endswith(err), ran.stderr
    assert ran.stdout == out + "atexit handler ran\n"
    assert exited.stdout == out + "atexit handler ran\nfinalized\n"


@pytest.mark.parametrize(
    "exit_code, status, finalized", [("None", EXIT_OK, False), ("3", 3, False), ("'bye'", 1, True)]
)
def test_run_passes_a_system_exit_that_is_not_an_int_on_to_sys_exit(exit_code, status, finalized):
    # An int or None code ends like a returned one; any other code (here a
    # message) exits through the interpreter, which prints it.
    proc = fresh_interpreter(
        f"{WITNESSES}import voskit.cli\n"
        f"def main(): raise SystemExit({exit_code})\n"
        "voskit.cli.main = main\nvoskit.cli.run()"
    )
    assert proc.returncode == status
    assert proc.stderr == ("bye\n" if exit_code == "'bye'" else "")
    assert proc.stdout == "atexit handler ran\n" + ("finalized\n" if finalized else "")


def test_run_under_python_i_leaves_the_process_to_the_prompt(tmp_path):
    # PYTHONINSPECT=1 is `python -i`: after the command the interpreter
    # starts its prompt (here on an empty stdin), then tears down.
    missing = tmp_path / "missing"
    proc = fresh_interpreter(
        f"{WITNESSES}from voskit.cli import run\nrun()", "eval", missing, missing,
        env=dict(os.environ, PYTHONINSPECT="1"), stdin=subprocess.DEVNULL,
    )
    assert proc.stdout == "atexit handler ran\nfinalized\n", proc.stderr


@pytest.mark.parametrize("stdout", ["reader gone", "descriptor closed"])
def test_run_with_stdout_closed_exits_as_sys_exit_of_main_does(stdout, built_corpus):
    # With the pipe's reader gone, the flush fails: run() falls back to
    # sys.exit, and the interpreter reports the broken pipe as always (exit
    # 120). With descriptor 1 closed at start-up, sys.stdout is None.
    # PYTHONUNBUFFERED would make print fail inside main() instead.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    results = []
    options = {} if stdout == "reader gone" else {"preexec_fn": lambda: os.close(1)}
    for entry in ("run()", "sys.exit(main())"):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = fresh_interpreter(
                "import atexit\natexit.register(print, 'atexit handler ran', file=sys.stderr)\n"
                f"from voskit.cli import main, run\n{entry}",
                "eval", built_corpus, built_corpus,
                stdout=write_end, env=env, **options,
            )
        finally:
            os.close(write_end)
        results.append((proc.returncode, proc.stderr))
    assert results[0] == results[1]
    code, err = results[0]
    if stdout == "reader gone":
        assert code == 120 and "BrokenPipeError" in err, err
    else:
        assert (code, err) == (EXIT_OK, "atexit handler ran\n")


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0


def test_unknown_subcommand_errors():
    with pytest.raises(SystemExit):
        run(["frobnicate"])
