"""Command-line pipeline driver.

Subcommands:
  synth       render a synthetic corpus (ground truth + corrupted masks)
  filter      gate predicted masks with box-motion attention maps
  eval        score predictions against ground truth (J, F, J&F)
  train-pt    fit the learned motion model on ground-truth box tracks
  gradcheck   finite-difference audit of all analytic gradients
  transplant  copy prefixed weights from one checkpoint into another

Exit codes: 0 success, 1 internal error (or failed gradcheck), 2 malformed
input, or an input or output path the operating system refuses (any
``OSError``), 3 missing dependency input (e.g. the pt variant without
weights).
Every command is deterministic given its flags: rerunning writes the same
bytes.

The ``voskit`` command and ``python -m voskit.cli`` enter through
:func:`run`, which ends the process without interpreter teardown once the
atexit handlers have run and stdout and stderr are flushed; a profiler or
coverage tracer still sees a normal exit. :func:`main` is the in-process
API: it returns the exit code.
"""

from __future__ import annotations

import argparse
import atexit
import dataclasses
import errno
import math
import os
import sys
from typing import NoReturn

import numpy as np

# Only what every subcommand shares loads here; each cmd_* imports the
# modules that it runs when it starts, so a stage compiles nothing else.
from . import __version__, corpus


def __getattr__(name: str):
    # Only perfbench/tests/test_tracing.py reads `voskit.cli.filter_stream`;
    # no code here does, since cmd_filter imports the tracker's own name.
    # Reading it loads the tracker, and assigning it changes nothing that
    # `filter` runs. It goes once that test checks a name the CLI imports.
    if name == "filter_stream":
        from .tracker import filter_stream

        return filter_stream
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2
EXIT_MISSING = 3

# Largest `gradcheck --size`. The loss checks cost O(size^4) per seed: one
# seed at size 64 takes about 5 s and peaks at 50 MB RSS on a 2-vCPU Xeon,
# against 0.3 s and 34 MB at the default 16.
MAX_GRADCHECK_SIZE = 64


class MissingInputError(Exception):
    """A required companion input (weights file, mask dir) is absent."""


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _check_output_file(path) -> None:
    """Raise now the error that opening ``path`` for writing would raise
    after all the work: it is empty, its parent directory is one that the
    operating system refuses to open, or it is a directory itself."""
    if not path:
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    os.scandir(os.path.dirname(path) or os.curdir).close()
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))


def _dump_json(data: dict, path) -> None:
    import json

    with corpus.open_output(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _scene_int(text: str) -> int:
    """``parse_int`` for scene JSON: an integer with more digits than int()
    converts is reported by its length, as the PGM reader does, not with
    the interpreter setting that lifts the limit."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{len(text.lstrip('-'))}-digit number has too many digits") from None


def cmd_synth(args) -> int:
    import json

    from . import synth

    # A scene error names the scene file, whether parsing or rendering meets it.
    try:
        with open(args.scene) as fh:
            try:
                scene = json.load(fh, parse_int=_scene_int)
            except ValueError as exc:  # not UTF-8 or JSON, or an integer past int's digit limit
                raise synth.SceneError(str(exc)) from exc
        _write_synth_corpus(synth.scene_from_json(scene), args)
    except synth.SceneError as exc:
        raise synth.SceneError(f"{args.scene}: {exc}") from exc
    print(f"wrote {args.sequences} sequence(s) to {args.out}")
    return EXIT_OK


def _write_synth_corpus(base, args) -> None:
    import csv

    from . import synth
    from .tracker import TRACK_CSV_HEADER, TrackRow, track_csv_row

    os.makedirs(args.out, exist_ok=True)
    for k in range(args.sequences):
        cfg = dataclasses.replace(base, seed=base.seed + k)
        seq_dir = os.path.join(args.out, f"seq{k:04d}")
        gt_dir = os.path.join(seq_dir, corpus.GT_DIR)
        pred_dir = os.path.join(seq_dir, corpus.PRED_DIR)
        os.makedirs(gt_dir, exist_ok=True)
        os.makedirs(pred_dir, exist_ok=True)
        clipped = []
        with corpus.open_output(os.path.join(seq_dir, corpus.TRACKS_NAME), "w", newline="") as fh:
            track_log = csv.writer(fh)
            track_log.writerow(TRACK_CSV_HEADER)
            for t, (label, boxes, clipped_ids) in enumerate(synth.generate(cfg), start=1):
                name = corpus.frame_name(t)
                corpus.write_pgm(os.path.join(gt_dir, name), label)
                corpus.write_pgm(os.path.join(pred_dir, name), synth.corrupt(label, t, cfg).label())
                track_log.writerows(
                    track_csv_row(TrackRow(frame=t, object_id=oid, box=boxes[oid], source="gt"))
                    for oid in sorted(boxes)
                )
                clipped.extend([t, oid] for oid in clipped_ids)
        echo = synth.scene_to_json(cfg)
        echo["clipped"] = clipped
        _dump_json(echo, os.path.join(seq_dir, corpus.SCENE_NAME))


def _load_predictor(path):
    from . import checkpoint
    from .motion_mlp import MotionPredictor

    if not path:
        raise MissingInputError("variant 'pt' requires --weights")
    if not os.path.isfile(path):
        raise MissingInputError(f"weights file not found: {path}")
    store = checkpoint.load(path)
    try:
        return MotionPredictor.from_param_items(dict(store.items()))
    except ValueError as exc:
        raise checkpoint.CheckpointError(f"{path}: {exc}") from exc


def cmd_filter(args) -> int:
    import csv

    from .boxes import pixel_window
    from .tracker import TRACK_CSV_HEADER, filter_stream, track_csv_row

    model = _load_predictor(args.weights) if args.variant == "pt" else None
    sequences = corpus.list_sequences(args.in_corpus)
    # Joined with a sequence name, "" would put the output in the current directory.
    os.makedirs(args.out_corpus, exist_ok=True)
    for seq in sequences:
        mask_dir = corpus.sequence_mask_dir(args.in_corpus, seq, "pred")
        id_list = corpus.label_ids(corpus.iter_mask_dir(mask_dir))
        seq_out = os.path.join(args.out_corpus, seq)
        pred_out = os.path.join(seq_out, corpus.PRED_DIR)
        os.makedirs(pred_out, exist_ok=True)

        with corpus.open_output(os.path.join(seq_out, corpus.TRACKS_NAME), "w", newline="") as fh:
            track_log = csv.writer(fh)
            track_log.writerow(TRACK_CSV_HEADER)
            if not id_list:
                # Nothing to track; copy frames through and leave an empty log.
                corpus.write_mask_dir(pred_out, corpus.iter_mask_dir(mask_dir))
                continue
            frames = ({i: frame == i for i in id_list} for frame in corpus.iter_mask_dir(mask_dir))
            for out in filter_stream(frames, model, args.margin):
                corpus.write_pgm(
                    os.path.join(pred_out, corpus.frame_name(out.frame)), out.label
                )
                track_log.writerows(track_csv_row(row) for row in out.rows)
                if args.dump_overlay:
                    for row in out.rows:
                        gate_dir = os.path.join(seq_out, "overlays", f"{row.object_id:03d}")
                        os.makedirs(gate_dir, exist_ok=True)
                        overlay = np.full(out.label.shape, 255 if row.gate is None else 0, np.uint8)
                        if row.gate is not None:
                            overlay[pixel_window(row.gate, *out.label.shape, args.margin)] = 255
                        corpus.write_pgm(
                            os.path.join(gate_dir, corpus.frame_name(out.frame)), overlay
                        )
                del out  # the label is not held while the next frame is read and gated
    print(f"filtered {len(sequences)} sequence(s) to {args.out_corpus}")
    return EXIT_OK


def _eval_pairs(pred_root, gt_root):
    """(name, (pred frames, gt frames)) per sequence in sorted name order;
    both sides are frame generators, so nothing is read until scored."""
    for seq in corpus.list_sequences(gt_root):
        gt_dir = corpus.sequence_mask_dir(gt_root, seq, "gt")
        pred_dir = corpus.sequence_mask_dir(pred_root, seq, "pred", required=False)
        if pred_dir is None:
            pred_dir = corpus.sequence_mask_dir(pred_root, seq, "gt")
        yield seq, (corpus.iter_mask_dir(pred_dir), corpus.iter_mask_dir(gt_dir))


def cmd_eval(args) -> int:
    from . import metrics

    if args.report is not None:
        _check_output_file(args.report)
    report = metrics.evaluate_corpus(_eval_pairs(args.pred_corpus, args.gt_corpus))
    if args.report is not None:
        metrics.write_report_csv(report, args.report)
    for line in metrics.summary_lines(report):
        print(line)
    return EXIT_OK


def cmd_train_pt(args) -> int:
    from . import checkpoint
    from .boxes import bbox_from_mask
    from .motion_mlp import MotionPredictor, dataset_loss, extract_triples, train_pt

    _check_output_file(args.out)
    parts = []
    dims: tuple[int, int] | None = None
    for root in args.corpus:
        for seq in corpus.list_sequences(root):
            gt_dir = corpus.sequence_mask_dir(root, seq, "gt")
            # Box track per id from its first frame on; None where it is absent.
            tracks: dict[int, list] = {}
            for frame in corpus.iter_mask_dir(gt_dir):
                if dims is None:
                    dims = frame.shape
                elif frame.shape != dims:
                    raise corpus.CorpusError(
                        f"{seq}: frame dims {frame.shape} differ from {dims}; "
                        "motion normalization needs one frame size per run"
                    )
                for oid in corpus.label_ids((frame,)):
                    tracks.setdefault(oid, [])
                for oid, track in tracks.items():
                    track.append(bbox_from_mask(frame == oid))
            parts.append(extract_triples(tracks))
    if not any(map(len, parts)):
        raise corpus.CorpusError("no training examples (need runs of 3 boxes)")
    triples = np.concatenate(parts)
    predictor = MotionPredictor.for_frame(dims[0], dims[1], seed=args.seed)
    # The corpus and every option are valid by now, so a ValueError means the
    # model left the finite range: pt_loss met a non-finite prediction, or
    # the float32 store fails the check that `filter --variant pt` loads with.
    # That error is the report; numpy's overflow warnings on the way add none.
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            history = train_pt(
                predictor,
                triples,
                epochs=args.epochs,
                batch=args.batch,
                lr=args.lr,
                lambda_small=args.lambda_small,
                weight_decay=args.weight_decay,
                seed=args.seed,
            )
            store = checkpoint.ParamStore.from_items(predictor.param_items())
            MotionPredictor.from_param_items(dict(store.items()))
    except ValueError as exc:
        raise corpus.InputError(f"training diverged ({exc}); lower --lr or --weight-decay") from exc
    final = history[-1] if history else dataset_loss(predictor, triples, args.lambda_small)
    checkpoint.save(store, args.out)
    print(f"examples: {len(triples)}")
    print(f"final train loss: {final:.6f}")
    print(f"wrote weights to {args.out}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    from .gradcheck import run_all

    results = run_all(base_seed=args.seed, n_seeds=args.seeds, size=args.size)
    failed = False
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        print(f"{r.name:14s} max err {r.max_err:.3e}  tol {r.tol:.0e}  {status}")
        failed = failed or not r.ok
    return EXIT_INTERNAL if failed else EXIT_OK


def cmd_transplant(args) -> int:
    from . import checkpoint

    _check_output_file(args.out)
    target = checkpoint.load(args.target)
    source = checkpoint.load(args.source)
    merged, report = checkpoint.transplant(
        target, source, prefix=args.prefix, strict=args.strict
    )
    checkpoint.save(merged, args.out)
    for line in report.lines():
        print(line)
    return EXIT_OK


def _at_least(kind, low, at_most=math.inf):
    """argparse type for a ``kind`` number >= low and <= at_most, within
    the finite float range; argparse rejects anything else with exit code 2."""

    def parse(text: str):
        value = kind(text)
        if value > at_most:
            raise argparse.ArgumentTypeError(f"must be at most {at_most}, got {text}")
        # Exact for an int of any size, where math.isfinite overflows; NaN fails.
        if not low <= value <= sys.float_info.max:
            raise argparse.ArgumentTypeError(f"must be a finite number >= {low}, got {text}")
        return value

    # argparse names the type in its "invalid int value" message.
    parse.__name__ = kind.__name__
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voskit",
        description="Mask-sequence filtering, scoring, and motion-model tools.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="render a synthetic corpus from a scene config")
    p.add_argument("scene", help="scene config JSON")
    p.add_argument("out", help="output corpus directory")
    p.add_argument(
        "--sequences", type=_at_least(int, 1), default=1, help="sequence count (seeds step by 1)"
    )
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("filter", help="gate predicted masks with tracked boxes")
    p.add_argument("in_corpus", help="corpus with masks_pred to filter")
    p.add_argument("out_corpus", help="output corpus directory")
    p.add_argument("--variant", choices=["cv", "pt"], default="cv")
    p.add_argument("--weights", help="TVCK weights for the pt variant")
    p.add_argument(
        "--margin", type=_at_least(float, 0.0), default=0.1, help="box expansion fraction"
    )
    p.add_argument("--dump-overlay", action="store_true", help="write attention-map PGMs")
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("eval", help="score predictions against ground truth")
    p.add_argument("pred_corpus", help="corpus with masks_pred (falls back to masks_gt)")
    p.add_argument("gt_corpus", help="corpus with masks_gt")
    p.add_argument("--report", help="write per-frame scores CSV here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("train-pt", help="train the motion model on ground-truth tracks")
    p.add_argument("corpus", nargs="+", help="corpora with masks_gt")
    p.add_argument("--out", required=True, help="output TVCK weights path")
    p.add_argument("--epochs", type=_at_least(int, 0), default=50)
    p.add_argument("--batch", type=_at_least(int, 1), default=16)
    p.add_argument("--lr", type=_at_least(float, 0.0), default=1e-3)
    p.add_argument("--lambda-small", type=_at_least(float, 1.0), default=2.0, dest="lambda_small")
    p.add_argument("--weight-decay", type=_at_least(float, 0.0), default=0.0, dest="weight_decay")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_train_pt)

    p = sub.add_parser("gradcheck", help="audit analytic gradients against finite differences")
    p.add_argument("--seed", type=int, default=0, help="first seed")
    p.add_argument("--seeds", type=_at_least(int, 1), default=10, help="number of seeds per check")
    p.add_argument(
        "--size",
        type=_at_least(int, 1, at_most=MAX_GRADCHECK_SIZE),
        default=16,
        help=f"grid side length for loss checks (at most {MAX_GRADCHECK_SIZE})",
    )
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("transplant", help="copy prefixed weights between checkpoints")
    p.add_argument("--target", required=True, help="checkpoint receiving values")
    p.add_argument("--source", required=True, help="checkpoint providing values")
    p.add_argument("--prefix", required=True, help="name prefix to transplant")
    p.add_argument("--out", required=True, help="output checkpoint path")
    p.add_argument("--strict", action="store_true", help="fail on shape mismatch")
    p.set_defaults(func=cmd_transplant)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MissingInputError as exc:
        _fail(str(exc))
        return EXIT_MISSING
    except (corpus.InputError, OSError) as exc:
        _fail(str(exc))
        return EXIT_INPUT
    except Exception as exc:  # pragma: no cover - defensive
        _fail(f"internal: {type(exc).__name__}: {exc}")
        return EXIT_INTERNAL


def _observed() -> bool:
    """Whether something watches this process to its end: a tracer or
    profiler, through sys.settrace or sys.setprofile or as a sys.monitoring
    tool (as cProfile is from Python 3.12 on), or ``python -i``."""
    if sys.gettrace() is not None or sys.getprofile() is not None or sys.flags.inspect:
        return True
    monitoring = getattr(sys, "monitoring", None)
    return monitoring is not None and any(monitoring.get_tool(i) for i in range(6))


def run() -> NoReturn:
    """Command-line entry: exit with the code of ``main()`` on sys.argv.

    Every file a command writes is closed before ``main()`` returns, so once
    the atexit handlers have run and stdout and stderr are flushed, tearing
    the interpreter down would only free, one by one, objects that the
    operating system reclaims at once; ``os._exit`` skips that. A watched
    process, or one whose flush fails, exits through ``sys.exit`` instead,
    so profilers and coverage write their results, ``python -i`` reaches its
    prompt and a broken pipe is reported as usual. An argparse exit inside
    ``main()`` (``--version``, ``--help``, a rejected argument) ends the
    same way as a return of its code; a ``SystemExit`` whose code is
    neither an int nor None goes on through ``sys.exit``.
    """
    try:
        code = main()
    except SystemExit as exc:
        if exc.code is not None and not isinstance(exc.code, int):
            raise
        code = exc.code or 0
    if not _observed():
        atexit._run_exitfuncs()
        try:
            for stream in (sys.stdout, sys.stderr):
                if stream is not None:  # None when its descriptor was closed at start-up
                    stream.flush()
        except OSError:  # a pipe whose reader has gone: teardown reports it
            pass
        else:
            os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    run()
