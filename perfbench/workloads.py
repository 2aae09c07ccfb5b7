"""The benchmark's workloads: inputs generated from the seed, the voskit CLI
stages each workload runs, and the checks every stage's output must pass.

A workload writes its inputs into an ``inputs`` directory during set-up and
runs its stages in a fresh repetition directory, so every stage argument is a
path relative to that directory (inputs are under ``../inputs``).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import re
from dataclasses import dataclass
from typing import Callable

INPUTS = "inputs"
# Half the ten seeds of acceptance criterion 1, so that two repetitions fit
# in one run of the time budget; every check still runs on every seed.
GRADCHECK_SEEDS = 5
GRADCHECK_NAMES = ("ce_loss", "iou_loss", "ssim_loss", "total_loss", "gelu", "mlp_backward")


@dataclass(frozen=True)
class Stage:
    """One CLI invocation. ``kind`` is the subcommand family the stage is
    reported under; ``label`` is unique within the workload. ``artifacts``
    are the paths the stage writes, digested together with its stdout."""

    label: str
    kind: str
    argv: tuple[str, ...]
    artifacts: tuple[str, ...] = ()


@dataclass
class StageRun:
    """What one execution of a stage produced."""

    stage: Stage
    returncode: int
    stdout: str
    wall_s: float
    rss_mb: float = 0.0
    cpu_s: float = 0.0
    digest: str = ""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    stages: tuple[Stage, ...]
    # Writes the inputs for a seed into a directory; returns the voskit CLI
    # argument lists set-up must run there (e.g. synthesizing a corpus).
    prepare: Callable[[str, int], list[list[str]]]
    # Maps a repetition's stage label -> StageRun to label -> failure messages.
    check: Callable[[dict[str, StageRun]], dict[str, list[str]]]


# --- input generation -------------------------------------------------------


def program_seed(seed: int) -> int:
    """The workload seed as a seed voskit accepts."""
    return seed % 2**31


def _write_json(path: str, data: dict) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _offsets(motion: dict, frames: int) -> list[tuple[float, float]]:
    """Per-frame (dx, dy) of a scene motion, as voskit's synth defines it."""
    vx, vy = motion["v"]
    ax, ay = motion.get("a", (0.0, 0.0))
    out = []
    for t in range(1, frames + 1):
        n = t - 1
        half = n * (n - 1) / 2.0
        out.append((vx * n + ax * half, vy * n + ay * half))
    return out


def _stays_inside(box, motion: dict, frames: int, height: int, width: int, margin: int) -> bool:
    x, y, w, h = box
    for dx, dy in _offsets(motion, frames):
        x0, y0 = x + round(dx), y + round(dy)
        if x0 < margin or y0 < margin or x0 + w > width - margin or y0 + h > height - margin:
            return False
    return True


def _place(rng: random.Random, size, motion_of, frames, height, width, x_range, y_range, margin):
    """Draw a start box and motion until the object stays inside the frame."""
    w, h = size
    for _ in range(1000):
        motion = motion_of(rng)
        box = [rng.randint(*x_range), rng.randint(*y_range), w, h]
        if _stays_inside(box, motion, frames, height, width, margin):
            return box, motion
    raise RuntimeError("could not place an object inside the frame")


def _nonzero(rng: random.Random, lo: int, hi: int) -> int:
    return rng.choice([v for v in range(lo, hi + 1) if v != 0])


PIPELINE_FRAMES = 6


def pipeline_scene(seed: int) -> dict:
    """480x854 scene: a linear rectangle on the left, an accelerating ellipse
    on the right, two distractor blobs per object per frame and boundary
    flips. Objects never leave the frame, so every frame scores both."""
    rng = random.Random(seed)
    height, width, frames = 480, 854, PIPELINE_FRAMES
    rect_box, rect_motion = _place(
        rng, (60, 40),
        lambda r: {"kind": "linear", "v": [_nonzero(r, -5, 5), _nonzero(r, -3, 3)]},
        frames, height, width, (120, 300), (100, 200), 10,
    )
    ell_box, ell_motion = _place(
        rng, (70, 50),
        lambda r: {
            "kind": "accelerating",
            "v": [_nonzero(r, -3, 3), _nonzero(r, -2, 2)],
            "a": [r.choice([-1, 1]), r.choice([-1, 0, 1])],
        },
        frames, height, width, (500, 650), (260, 340), 10,
    )
    return {
        "height": height,
        "width": width,
        "frames": frames,
        "seed": program_seed(seed),
        "objects": [
            {"id": 1, "shape": "rectangle", "box": rect_box, "motion": rect_motion},
            {"id": 2, "shape": "ellipse", "box": ell_box, "motion": ell_motion},
        ],
        "corruption": {"blobs": 2, "blob_size": [30, 50], "min_distance": 60.0, "flip_prob": 0.02},
    }


MOTION_FRAMES = 30
MOTION_SEQUENCES = 4
MOTION_OBJECTS = 2
MOTION_EPOCHS = 100


def motion_scene(seed: int) -> dict:
    """240x427 scene of 30 frames: a linear rectangle and an accelerating
    ellipse, both inside the frame on every frame, so each object of each
    sequence gives frames - 2 training triples. Small frames keep mask reading
    a minor part of ``train-pt`` next to training."""
    rng = random.Random(seed)
    height, width, frames = 240, 427, MOTION_FRAMES
    rect_box, rect_motion = _place(
        rng, (30, 20),
        lambda r: {"kind": "linear", "v": [_nonzero(r, -3, 3), _nonzero(r, -2, 2)]},
        frames, height, width, (10, 380), (10, 210), 2,
    )
    ell_box, ell_motion = _place(
        rng, (36, 26),
        lambda r: {
            "kind": "accelerating",
            "v": [_nonzero(r, -4, 4), _nonzero(r, -2, 2)],
            "a": [r.choice([-0.2, 0.2]), r.choice([-0.1, 0.0, 0.1])],
        },
        frames, height, width, (10, 380), (10, 210), 2,
    )
    return {
        "height": height,
        "width": width,
        "frames": frames,
        "seed": program_seed(seed),
        "objects": [
            {"id": 1, "shape": "rectangle", "box": rect_box, "motion": rect_motion},
            {"id": 2, "shape": "ellipse", "box": ell_box, "motion": ell_motion},
        ],
        "corruption": {"blobs": 2, "blob_size": [15, 25], "min_distance": 30.0, "flip_prob": 0.02},
    }


def _prepare_pipeline(directory: str, seed: int) -> list[list[str]]:
    _write_json(os.path.join(directory, "scene.json"), pipeline_scene(seed))
    return []


def _prepare_motion(directory: str, seed: int) -> list[list[str]]:
    _write_json(os.path.join(directory, "motion_scene.json"), motion_scene(seed))
    return [["synth", "motion_scene.json", "motion_corpus", "--sequences", str(MOTION_SEQUENCES)]]


def _prepare_gradient(directory: str, seed: int) -> list[list[str]]:
    return []


# --- output checks ----------------------------------------------------------

_JF = re.compile(r"^corpus mean J&F:\s*(\S+)\s*$", re.M)
_LOSS = re.compile(r"^final train loss:\s*(\S+)\s*$", re.M)
_EXAMPLES = re.compile(r"^examples:\s*(\d+)\s*$", re.M)
_GRADCHECK = re.compile(r"^(\S+)\s+max err\s+(\S+)\s+tol\s+(\S+)\s+(PASS|FAIL)\s*$", re.M)


def parse_float(pattern: re.Pattern, text: str) -> float | None:
    m = pattern.search(text)
    if m is None:
        return None
    try:
        return float(m.group(1))
    except ValueError:
        return None


def parse_jf(stdout: str) -> float | None:
    return parse_float(_JF, stdout)


def parse_train_loss(stdout: str) -> float | None:
    return parse_float(_LOSS, stdout)


def parse_gradcheck(stdout: str) -> dict[str, tuple[float, float, bool]]:
    """Check name -> (max err, tolerance, passed) from ``gradcheck`` output;
    lines whose numbers do not parse are left out."""
    out = {}
    for m in _GRADCHECK.finditer(stdout):
        try:
            out[m.group(1)] = (float(m.group(2)), float(m.group(3)), m.group(4) == "PASS")
        except ValueError:
            continue
    return out


def _exit_checks(runs: dict[str, StageRun]) -> dict[str, list[str]]:
    return {
        label: [] if run.returncode == 0 else [f"exit code {run.returncode}"]
        for label, run in runs.items()
    }


def _check_pipeline(runs: dict[str, StageRun]) -> dict[str, list[str]]:
    failures = _exit_checks(runs)
    corrupted = parse_jf(runs["eval_corrupted"].stdout)
    filtered = parse_jf(runs["eval_filtered"].stdout)
    if corrupted is None:
        failures["eval_corrupted"].append("no corpus mean J&F in output")
    if filtered is None:
        failures["eval_filtered"].append("no corpus mean J&F in output")
    elif corrupted is not None and not filtered > corrupted:
        failures["eval_filtered"].append(
            f"filtered J&F {filtered} does not exceed corrupted J&F {corrupted}"
        )
    return failures


def _check_motion(runs: dict[str, StageRun]) -> dict[str, list[str]]:
    failures = _exit_checks(runs)
    out = runs["train"].stdout
    loss = parse_train_loss(out)
    if loss is None or not math.isfinite(loss):
        failures["train"].append(f"final train loss is not a finite number: {loss}")
    m = _EXAMPLES.search(out)
    expected = MOTION_SEQUENCES * MOTION_OBJECTS * (MOTION_FRAMES - 2)
    if m is None or int(m.group(1)) != expected:
        failures["train"].append(
            f"expected {expected} training examples, output says {m and m.group(1)}"
        )
    return failures


def _check_gradient(runs: dict[str, StageRun]) -> dict[str, list[str]]:
    failures = _exit_checks(runs)
    results = parse_gradcheck(runs["gradcheck"].stdout)
    missing = [name for name in GRADCHECK_NAMES if name not in results]
    if missing:
        failures["gradcheck"].append(f"checks missing from output: {missing}")
    failed = [name for name, (_, _, ok) in results.items() if not ok]
    if failed:
        failures["gradcheck"].append(f"checks not PASS: {failed}")
    return failures


# --- artifact digests -------------------------------------------------------


def tree_digest(root: str, paths, stdout: str) -> str:
    """sha256 over the stage's stdout and every file under ``paths``
    (relative names and contents, in sorted order)."""
    h = hashlib.sha256()
    h.update(stdout.encode())
    files = []
    for p in paths:
        full = os.path.join(root, p)
        if os.path.isdir(full):
            for dirpath, dirs, names in os.walk(full):
                dirs[:] = [d for d in dirs if d != "__pycache__"]
                files.extend(os.path.join(dirpath, n) for n in names)
        else:
            files.append(full)
    for path in sorted(files):
        h.update(b"\0" + os.path.relpath(path, root).encode() + b"\0")
        try:
            with open(path, "rb") as fh:
                h.update(fh.read())
        except FileNotFoundError:
            h.update(b"<missing>")
    return h.hexdigest()


def digest_mismatches(reps: list[dict[str, StageRun]]) -> dict[int, list[str]]:
    """Stage labels whose artifact digest differs from the first repetition's,
    keyed by repetition index."""
    out: dict[int, list[str]] = {}
    if not reps:
        return out
    first = reps[0]
    for k, rep in enumerate(reps[1:], start=1):
        bad = [label for label, run in rep.items() if run.digest != first[label].digest]
        if bad:
            out[k] = bad
    return out


# --- the workloads ----------------------------------------------------------

_IN = os.path.join("..", INPUTS)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="pipeline-480p",
            why="synth, cv filter and eval at DAVIS 480p: metrics (contour_f), corpus I/O, "
            "tracker, boxes and synth; no grid, losses or motion_mlp",
            stages=(
                Stage("synth", "synth", ("synth", f"{_IN}/scene.json", "corpus"), ("corpus",)),
                Stage("filter", "filter", ("filter", "corpus", "filtered"), ("filtered",)),
                Stage("eval_corrupted", "eval", ("eval", "corpus", "corpus")),
                Stage(
                    "eval_filtered", "eval",
                    ("eval", "filtered", "corpus", "--report", "report.csv"), ("report.csv",),
                ),
            ),
            prepare=_prepare_pipeline,
            check=_check_pipeline,
        ),
        Workload(
            name="motion-pt",
            why="train-pt on a generated corpus, then the pt filter with the trained weights: "
            "motion_mlp training, rng, checkpoint, tracker; no metrics, grid or losses",
            stages=(
                Stage(
                    "train", "train",
                    ("train-pt", f"{_IN}/motion_corpus", "--out", "weights.tvck",
                     "--epochs", str(MOTION_EPOCHS), "--seed", "{seed}"),
                    ("weights.tvck",),
                ),
                Stage(
                    "filter_pt", "filter",
                    ("filter", f"{_IN}/motion_corpus", "filtered_pt", "--variant", "pt",
                     "--weights", "weights.tvck"),
                    ("filtered_pt",),
                ),
            ),
            prepare=_prepare_motion,
            check=_check_motion,
        ),
        Workload(
            name="gradient-audit",
            why=f"gradcheck over {GRADCHECK_SEEDS} seeds at 16x16; per-call overhead in "
            "gradcheck, losses, grid and motion_mlp; no corpus I/O",
            stages=(
                Stage(
                    "gradcheck", "gradcheck",
                    ("gradcheck", "--seed", "{seed}", "--seeds", str(GRADCHECK_SEEDS), "--size", "16"),
                ),
            ),
            prepare=_prepare_gradient,
            check=_check_gradient,
        ),
    )
}

STAGE_KINDS = ("synth", "filter", "eval", "train", "gradcheck")


def stage_argv(stage: Stage, seed: int) -> list[str]:
    """The stage's CLI arguments with the workload seed filled in."""
    return [a.replace("{seed}", str(seed)) for a in stage.argv]
