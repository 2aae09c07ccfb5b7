"""Learned motion prediction vs the constant-velocity baseline.

Constant velocity is exact on linear tracks, so a learned model can at best
match it there. Under acceleration the CV assumption lags by one velocity
step per frame; the small MLP learns the correction from box triples alone.
This script trains on accelerating tracks and compares held-out losses.

Run: python3 demos/motion_model_training.py
"""

import numpy as np

from voskit.boxes import BBox, Motion, apply_motion
from voskit.motion_mlp import (
    MotionPredictor,
    dataset_loss,
    extract_triples,
    train_pt,
)
from voskit.synth import AcceleratingMotion, ObjectSpec, analytic_box


def accelerating_track(x0, y0, vx, vy, ax, ay, n=12):
    obj = ObjectSpec(1, BBox(x0, y0, 60, 40), motion=AcceleratingMotion(vx, vy, ax, ay))
    return [analytic_box(obj, t) for t in range(1, n + 1)]


def main() -> None:
    # training corpus: one fixed acceleration, a fan of launch velocities
    tracks = {}
    oid = 1
    for vx in (-4, -2, 0, 2, 4):
        for vy in (-3, 0, 3):
            tracks[oid] = accelerating_track(250, 200, vx, vy, 1, 0)
            oid += 1
    triples = extract_triples(tracks)
    print(f"training triples: {len(triples)} (motion in, motion out, previous box)")

    predictor = MotionPredictor.for_frame(480, 854, seed=0)
    history = train_pt(predictor, triples, seed=0)
    for i in (0, 4, 24, len(history) - 1):
        print(f"  epoch {i + 1:2d}  mean pt_loss {history[i]:.6f}")

    held = {}
    oid = 1
    for vx, vy in ((3, -2), (-3, 1), (1, 2)):
        held[oid] = accelerating_track(280, 220, vx, vy, 1, 0)
        oid += 1
    held_triples = extract_triples(held)

    pt = dataset_loss(predictor, held_triples)
    cv = dataset_loss(None, held_triples)
    print()
    print(f"held-out pt_loss  learned model {pt:.6f}  vs  constant velocity {cv:.6f}")

    print()
    print("sample held-out predictions (x component of the next box):")
    print("  prev dx   learned next dx   true next dx   cv next dx")
    for t_in, t_out, prev in held_triples[:6]:
        predicted = predictor.predict_motion(Motion(*t_in))
        print(
            f"  {t_in[0]:7.1f}   {predicted.dx:15.3f}   {t_out[0]:12.1f}   {t_in[0]:10.1f}"
        )
    t_in, _, prev = held_triples[0]
    nxt = apply_motion(BBox(*prev), predictor.predict_motion(Motion(*t_in)))
    print(
        "\napplying the predicted motion to the previous box gives "
        f"x={nxt.x:.2f} y={nxt.y:.2f} w={nxt.w:.0f} h={nxt.h:.0f}"
    )


if __name__ == "__main__":
    main()
