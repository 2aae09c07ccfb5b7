"""End-to-end acceptance suite.

One test per shipping criterion; each prints a single PASS/FAIL line (visible
with -s or on failure) before asserting, so a transcript of this file is the
release checklist:

  1. analytic gradients match finite differences across seeds inside budget
  2. closed-form loss identities hold at tight tolerances
  3. constant-velocity tracking exactly recovers linear motion and filtering
     removes all far-field distractors, lifting corpus mean J
  4. the learned motion model matches CV on CV data and beats it under
     acceleration
  5. evaluation matches an independent per-pixel recount; contour scores hit
     their closed-form cases; both metrics are symmetric
  6. checkpoint round trips are byte-exact; transplant is surgical and
     idempotent; corrupted files fail loudly
  7. every CLI command is byte-deterministic under rerun
  8. filtering runs at budget speed and constant memory
  9. the combined loss gradient drives the toy segmenter 10x down
"""

import json
import time
import tracemalloc

import numpy as np
import pytest

from voskit import checkpoint, corpus
from voskit.boxes import BBox, Motion, apply_motion, box_delta
from voskit.cli import main
from voskit.gradcheck import TOLERANCES, run_all
from voskit.losses import (
    LossWeights,
    ce_loss,
    fit_toy_segmenter,
    iou_loss,
    ssim_loss,
    total_loss,
)
from voskit.metrics import contour_f, evaluate_corpus, jaccard
from voskit.motion_mlp import (
    MotionPredictor,
    dataset_loss,
    extract_triples,
    train_pt,
)
from voskit.rng import Rng
from voskit.synth import (
    AcceleratingMotion,
    CorruptionSpec,
    LinearMotion,
    ObjectSpec,
    SceneConfig,
    corrupt,
    generate,
)
from voskit.tracker import compose_label, filter_stream, run_filter


def report(criterion: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[criterion {criterion}] {label}: {status}{suffix}")
    assert ok, f"criterion {criterion} ({label}) failed: {detail}"


# 1 ---------------------------------------------------------------------


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    results = run_all(base_seed=0, n_seeds=10, size=16)
    elapsed = time.perf_counter() - t0
    worst = {r.name: r.max_err for r in results}
    ok = all(r.ok for r in results) and elapsed < 30.0
    detail = f"{elapsed:.1f}s; " + ", ".join(
        f"{name}={err:.2e}" for name, err in worst.items()
    )
    report(1, "analytic gradients vs finite differences, 10 seeds", ok, detail)
    assert set(worst) >= {
        "ce_loss",
        "iou_loss",
        "ssim_loss",
        "total_loss",
        "gelu",
        "mlp_backward",
    }
    for r in results:
        assert r.max_err <= TOLERANCES[r.name]


# 2 ---------------------------------------------------------------------


def test_criterion_2_loss_identities():
    rng = Rng(42)
    mask = (rng.uniform(24 * 24) > 0.5).astype(np.float64).reshape(24, 24)

    ssim_self = ssim_loss(mask, mask).value

    a = np.zeros((16, 16))
    b = np.zeros((16, 16))
    a[2:8, 2:8] = 1.0
    b[10:15, 10:15] = 1.0
    iou_disjoint = iou_loss(a, b).value

    ce_uniform = ce_loss(np.full((16, 16), 0.5), mask[:16, :16]).value

    half = np.zeros((16, 16))
    half[:, :8] = 1.0
    iou_half = iou_loss(np.full((16, 16), 0.5), half).value

    pred = np.clip(rng.uniform(18 * 18).reshape(18, 18), 0.05, 0.95)
    target = (rng.uniform(18 * 18) > 0.5).astype(np.float64).reshape(18, 18)
    total = total_loss(pred, target, weights=LossWeights(1.0, 1.0, 1.0)).value
    expected = (
        ce_loss(pred, target).value
        + ssim_loss(pred, target).value
        + iou_loss(pred, target).value
    )

    checks = [
        ("ssim self", abs(ssim_self), 1e-6),
        ("iou disjoint - 1", abs(iou_disjoint - 1.0), 1e-6),
        ("ce uniform - ln2", abs(ce_uniform - np.log(2.0)), 1e-9),
        ("half-overlap iou - 2/3", abs(iou_half - 2.0 / 3.0), 1e-9),
        ("total - weighted sum", abs(total - expected), 1e-12),
    ]
    ok = all(err <= tol for _, err, tol in checks)
    detail = "; ".join(f"{name} {err:.2e}<={tol:.0e}" for name, err, tol in checks)
    report(2, "closed-form loss identities", ok, detail)


# 3 ---------------------------------------------------------------------


def cv_oracle_scene(seed: int) -> SceneConfig:
    rng = Rng(seed)
    vx = rng.integer1(2, 5) * (1 if seed % 2 else -1)
    vy = rng.integer1(1, 3)
    x0 = 380 if vx < 0 else 60
    return SceneConfig(
        height=480,
        width=854,
        frames=30,
        seed=seed,
        objects=(ObjectSpec(1, BBox(x0, 70, 60, 40), motion=LinearMotion(vx, vy)),),
        corruption=CorruptionSpec(
            blobs=2, blob_size=(30, 50), min_distance=60.0, flip_prob=0.02
        ),
    )


def test_criterion_3_cv_oracle_and_filter_lift():
    n_sequences = 20
    cv_exact = True
    blobs_total = 0
    blobs_removed = 0
    j_unfiltered = []
    j_filtered = []

    for k in range(n_sequences):
        cfg = cv_oracle_scene(1000 + k)
        labels, boxes, clips, frames, blob_events = [], [], [], [], []
        for t, (label, frame_boxes, clipped_ids) in enumerate(generate(cfg), start=1):
            corruption = corrupt(label, t, cfg)
            labels.append(label)
            boxes.append(frame_boxes[1])
            clips.extend(clipped_ids)
            frames.append(corruption.channels())
            blob_events.extend(corruption.blobs)
        assert not clips, "oracle scenes must stay fully inside the frame"

        for t in range(2, len(boxes)):
            prev, prev2 = boxes[t - 1], boxes[t - 2]
            predicted = apply_motion(prev, box_delta(prev, prev2))
            if predicted.as_tuple() != boxes[t].as_tuple():
                cv_exact = False

        outs, _ = run_filter(iter(frames))

        blobs_total += len(blob_events)
        for ev in blob_events:
            label = outs[ev.frame - 1].label
            x0, y0 = int(ev.box.x), int(ev.box.y)
            patch = label[y0 : y0 + int(ev.box.h), x0 : x0 + int(ev.box.w)]
            if (patch == 0).all():
                blobs_removed += 1

        for gt, channels, out in zip(labels, frames, outs):
            raw = compose_label(channels, gt.shape)
            j_unfiltered.append(jaccard(raw == 1, gt == 1))
            j_filtered.append(jaccard(out.label == 1, gt == 1))

    mean_u = float(np.mean(j_unfiltered))
    mean_f = float(np.mean(j_filtered))
    ok = (
        cv_exact
        and blobs_removed == blobs_total
        and mean_u < 0.9
        and mean_f > mean_u + 0.03
    )
    detail = (
        f"{n_sequences} seqs; cv exact={cv_exact}; blobs {blobs_removed}/{blobs_total};"
        f" J unfiltered {mean_u:.3f} -> filtered {mean_f:.3f}"
    )
    report(3, "CV tracking oracle and filtering lift", ok, detail)


# 4 ---------------------------------------------------------------------


def linear_boxes(x0, y0, vx, vy, n=10, w=60, h=40):
    return [BBox(x0 + vx * t, y0 + vy * t, w, h) for t in range(n)]


def accel_boxes(x0, y0, vx, vy, ax, ay, n=12, w=60, h=40):
    obj = ObjectSpec(1, BBox(x0, y0, w, h), motion=AcceleratingMotion(vx, vy, ax, ay))
    from voskit.synth import analytic_box

    return [analytic_box(obj, t) for t in range(1, n + 1)]


def test_criterion_4_pt_matches_cv_and_beats_it_under_acceleration():
    # constant-velocity training set spanning a velocity grid
    tracks = {}
    oid = 1
    for vx in (-6, -4, -2, 0, 2, 4, 6):
        for vy in (-6, -3, 0, 3, 6):
            tracks[oid] = linear_boxes(300, 200, vx, vy)
            oid += 1
    train_triples = extract_triples(tracks)

    predictor = MotionPredictor.for_frame(480, 854, seed=0)
    train_pt(predictor, train_triples, seed=0)

    held = {}
    oid = 1
    for vx, vy in [(3, -5), (-5, 1), (5, 5), (1, -1), (-3, 2)]:
        held[oid] = linear_boxes(320, 180, vx, vy)
        oid += 1
    errors = []
    for t_in, t_out, prev in extract_triples(held):
        predicted = apply_motion(BBox(*prev), predictor.predict_motion(Motion(*t_in)))
        truth = apply_motion(BBox(*prev), Motion(*t_out))
        errors.append(
            np.abs(np.array(predicted.as_tuple()) - np.array(truth.as_tuple()))
        )
    mae = np.mean(errors, axis=0)

    # accelerating corpus: same acceleration, varied launch velocities
    accel_train = {}
    oid = 1
    for vx in (-4, -2, 0, 2, 4):
        for vy in (-3, 0, 3):
            accel_train[oid] = accel_boxes(250, 200, vx, vy, 1, 0)
            oid += 1
    accel_predictor = MotionPredictor.for_frame(480, 854, seed=0)
    train_pt(accel_predictor, extract_triples(accel_train), seed=0)

    accel_held = {}
    oid = 1
    for vx, vy in [(3, -2), (-3, 1), (1, 2)]:
        accel_held[oid] = accel_boxes(280, 220, vx, vy, 1, 0)
        oid += 1
    held_triples = extract_triples(accel_held)
    pt_held = dataset_loss(accel_predictor, held_triples)
    cv_held = dataset_loss(None, held_triples)

    ok = bool(mae.max() < 1.0 and pt_held < cv_held)
    detail = (
        f"held-out MAE per component {np.array2string(mae, precision=4)} px;"
        f" accel pt_loss PT {pt_held:.4f} < CV {cv_held:.4f}"
    )
    report(4, "learned motion model vs constant velocity", ok, detail)


# 5 ---------------------------------------------------------------------


def test_criterion_5_metrics_match_brute_force_recount():
    # 5 sequences of drifting multi-object masks
    pairs = {}
    for s in range(5):
        rng = Rng(900 + s)
        gt_seq, pred_seq = [], []
        for t in range(6):
            gt = np.zeros((40, 60), dtype=np.uint8)
            pred = np.zeros((40, 60), dtype=np.uint8)
            for oid in (1, 2):
                x = 4 + 3 * t + 20 * (oid - 1)
                y = 6 + 10 * (oid - 1)
                gt[y : y + 8, x : x + 9] = oid
                jx = rng.integer1(0, 2)
                pred[y : y + 8, x + jx : x + 9 + jx] = oid
            gt_seq.append(gt)
            pred_seq.append(pred)
        pairs[f"seq{s}"] = (pred_seq, gt_seq)

    rep = evaluate_corpus(pairs.items())

    # independent recount: raw per-pixel loops, no shared helpers
    seq_means = []
    for name, (pred_seq, gt_seq) in sorted(pairs.items()):
        object_means = []
        for oid in (1, 2):
            js = []
            for pred, gt in zip(pred_seq, gt_seq):
                inter = union = 0
                for r in range(gt.shape[0]):
                    for c in range(gt.shape[1]):
                        p = pred[r, c] == oid
                        g = gt[r, c] == oid
                        inter += p and g
                        union += p or g
                if union:
                    js.append(inter / union)
            object_means.append(sum(js) / len(js))
        seq_means.append(sum(object_means) / len(object_means))
    brute_j = sum(seq_means) / len(seq_means)

    recount_err = abs(rep.mean_j - brute_j)

    square = np.zeros((100, 100), dtype=np.uint8)
    square[40:50, 40:50] = 1
    shifted = np.roll(square, 1, axis=1)
    far = np.roll(square, 30, axis=1)

    sym_ok = jaccard(square, shifted) == jaccard(shifted, square) and contour_f(
        square, shifted
    ) == contour_f(shifted, square)

    ok = (
        recount_err < 1e-12
        and contour_f(square, square) == 1.0
        and contour_f(square, shifted) == 1.0
        and contour_f(square, far) == 0.0
        and sym_ok
    )
    detail = (
        f"recount |dJ|={recount_err:.1e}; identical F=1, 1px-shift F=1,"
        f" 30px-shift F=0, symmetric={sym_ok}"
    )
    report(5, "evaluation vs independent per-pixel recount", ok, detail)


# 6 ---------------------------------------------------------------------


def test_criterion_6_checkpoint_round_trip_and_transplant(tmp_path):
    rng = Rng(7)
    store = checkpoint.ParamStore()
    store.add("decoder.weight", rng.uniform(12).reshape(3, 4))
    store.add("decoder.bias", rng.uniform(4))
    store.add("encoder.weight", rng.uniform(6).reshape(2, 3))

    p1, p2 = tmp_path / "a.tvck", tmp_path / "b.tvck"
    checkpoint.save(store, p1)
    checkpoint.save(checkpoint.load(p1), p2)
    round_trip_exact = p1.read_bytes() == p2.read_bytes()

    donor = checkpoint.ParamStore()
    donor.add("decoder.weight", np.full((3, 4), 5.0))
    donor.add("decoder.bias", np.full(9, 5.0))  # shape mismatch: skipped
    donor.add("encoder.weight", np.full((2, 3), 5.0))  # not prefixed: ignored

    once, rep1 = checkpoint.transplant(store, donor, "decoder.")
    twice, _ = checkpoint.transplant(once, donor, "decoder.")

    surgical = (
        rep1.transplanted == ["decoder.weight"]
        and rep1.skipped_shape == ["decoder.bias"]
        and np.array_equal(once.get("decoder.weight"), np.full((3, 4), 5.0, np.float32))
        and np.array_equal(once.get("decoder.bias"), store.get("decoder.bias"))
        and np.array_equal(once.get("encoder.weight"), store.get("encoder.weight"))
    )
    idempotent = once == twice

    bad = tmp_path / "bad.tvck"
    bad.write_bytes(b"XXXX" + p1.read_bytes()[4:])
    try:
        checkpoint.load(bad)
        magic_ok = False
    except checkpoint.BadMagicError:
        magic_ok = True

    ok = round_trip_exact and surgical and idempotent and magic_ok
    detail = (
        f"round trip exact={round_trip_exact}, surgical={surgical},"
        f" idempotent={idempotent}, bad magic raises={magic_ok}"
    )
    report(6, "checkpoint format and transplant semantics", ok, detail)


# 7 ---------------------------------------------------------------------


def tree_bytes(root):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_criterion_7_cli_rerun_determinism(tmp_path, capsys):
    scene = {
        "height": 60,
        "width": 90,
        "frames": 8,
        "seed": 5,
        "objects": [
            {"id": 1, "box": [5, 10, 12, 8], "motion": {"kind": "linear", "v": [3, 1]}},
        ],
        "corruption": {"blobs": 1, "blob_size": [8, 10], "min_distance": 20.0, "flip_prob": 0.02},
    }
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(json.dumps(scene))

    matched = []
    corpora = []
    for run in ("r1", "r2"):
        base = tmp_path / run
        src = base / "src"
        assert main(["synth", str(scene_path), str(src)]) == 0
        filtered = base / "filtered"
        assert main(["filter", str(src), str(filtered)]) == 0
        weights = base / "w.tvck"
        assert main(["train-pt", str(src), "--out", str(weights), "--epochs", "3"]) == 0
        rep = base / "report.csv"
        assert main(["eval", str(filtered), str(src), "--report", str(rep)]) == 0
        merged = base / "m.tvck"
        assert (
            main(
                [
                    "transplant",
                    "--target",
                    str(weights),
                    "--source",
                    str(weights),
                    "--prefix",
                    "pt.layer0.",
                    "--out",
                    str(merged),
                ]
            )
            == 0
        )
        corpora.append(tree_bytes(base))
    capsys.readouterr()

    identical = corpora[0] == corpora[1]
    n_files = len(corpora[0])
    same_names = set(corpora[0]) == set(corpora[1])
    report(
        7,
        "CLI rerun byte determinism",
        identical and same_names and n_files > 0,
        f"{n_files} artifacts identical across synth/filter/train-pt/eval/transplant",
    )


# 8 ---------------------------------------------------------------------


def moving_channel_frames(n, h, w):
    # wraps every 100 frames; stays inside even the 240x427 memory-test frame
    for t in range(n):
        m = np.zeros((h, w), dtype=np.float64)
        x = 10 + 3 * (t % 100)
        m[40:90, x : x + 70] = 1.0
        yield {1: m}


def test_criterion_8_filter_speed_and_constant_memory():
    frames = list(moving_channel_frames(100, 480, 854))
    t0 = time.perf_counter()
    outs, rows = run_filter(iter(frames))
    elapsed = time.perf_counter() - t0
    assert len(outs) == 100 and len(rows) == 100

    def streamed_peak(n):
        tracemalloc.start()
        consumed = 0
        for out in filter_stream(moving_channel_frames(n, 240, 427)):
            consumed += int(out.label.any())
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert consumed == n
        return peak

    peak_small = streamed_peak(100)
    peak_large = streamed_peak(1000)
    ratio = peak_large / peak_small

    ok = elapsed < 1.0 and ratio < 1.5
    detail = (
        f"100 frames 480x854 in {elapsed:.3f}s;"
        f" peak memory 100 frames {peak_small / 1e6:.1f}MB vs"
        f" 1000 frames {peak_large / 1e6:.1f}MB (ratio {ratio:.2f})"
    )
    report(8, "filter throughput and O(1) streaming memory", ok, detail)


# 9 ---------------------------------------------------------------------


def test_criterion_9_toy_segmenter_10x_loss_reduction():
    # separable instance: left half background, right half object, one
    # unit-step feature plus a constant bias feature
    size = 24
    cols = np.arange(size, dtype=np.float64)
    f1 = np.tile(np.where(cols >= size // 2, 1.0, -1.0), (size, 1))
    features = np.stack([f1, np.ones((size, size))], axis=-1)
    target = (f1 > 0.0).astype(np.float64)

    params, history = fit_toy_segmenter(features, target, steps=500)
    reduction = history[0] / min(history)
    ok = len(history) == 501 and reduction >= 10.0
    report(
        9,
        "combined loss drives toy segmenter",
        ok,
        f"L_total {history[0]:.4f} -> {min(history):.6f} ({reduction:.0f}x in 500 steps)",
    )
