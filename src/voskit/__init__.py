"""Toolkit for mask-sequence post-processing at desk scale: differentiable
segmentation losses with analytic gradients, box-motion prediction filtering
(constant-velocity or learned), DAVIS-style J/F scoring, selective weight
transplant between checkpoints, and a deterministic synthetic-scene oracle
to measure all of it against."""

__version__ = "0.1.0"

from .boxes import (
    BBox,
    Motion,
    apply_motion,
    attention_map,
    bbox_from_mask,
    box_delta,
    filter_mask,
)
from .checkpoint import (
    BadMagicError,
    CheckpointError,
    EntryShapeError,
    ParamStore,
    TransplantReport,
    TruncatedFileError,
    UnsupportedVersionError,
    load,
    save,
    transplant,
)
from .corpus import CorpusError, read_pgm, write_pgm
from .grid import windowed_mean, windowed_statistics
from .losses import (
    LossOut,
    LossWeights,
    ce_loss,
    fit_toy_segmenter,
    iou_loss,
    ssim_loss,
    total_loss,
)
from .metrics import (
    EvalReport,
    SequenceEval,
    contour_f,
    evaluate_corpus,
    evaluate_sequence,
    jaccard,
)
from .motion_mlp import (
    Adam,
    MotionPredictor,
    extract_triples,
    gelu,
    init_params,
    mlp_backward,
    mlp_forward,
    pt_loss,
    train_pt,
)
from .rng import Rng
from .synth import (
    AcceleratingMotion,
    CorruptionSpec,
    LinearMotion,
    ObjectSpec,
    SceneConfig,
    SceneError,
    SinusoidalMotion,
    analytic_box,
    corrupt,
    generate,
    scene_from_json,
    scene_to_json,
)
from .tracker import (
    FilteredFrame,
    TrackRow,
    compose_label,
    filter_stream,
    run_filter,
)
