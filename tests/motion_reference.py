"""Earlier forms of ``voskit.motion_mlp`` that the current code must equal
bit for bit.

The training-example path it ran before its examples became one (n, 3, 4)
array: ``extract_triples`` built each example as an ``(array, array,
BBox)`` tuple, and ``_stack_triples`` re-packed a list of them, row by row,
into input motions, target motions and previous boxes.

GeLU, its derivative and the flat Adam step as they were before they
computed in place, one fresh array per operation."""

import math
from dataclasses import dataclass, field

import numpy as np

from voskit.boxes import BBox, box_delta
from voskit.motion_mlp import ADAM_BETA1, ADAM_BETA2, ADAM_EPS


def extract_triples(tracks: dict[int, list[BBox | None]]) -> list[tuple[np.ndarray, np.ndarray, BBox]]:
    triples = []
    for object_id in sorted(tracks):
        boxes = tracks[object_id]
        for i in range(len(boxes) - 2):
            a, b, c = boxes[i], boxes[i + 1], boxes[i + 2]
            if a is None or b is None or c is None:
                continue
            t_in = np.array(box_delta(b, a).as_tuple(), dtype=np.float64)
            t_out = np.array(box_delta(c, b).as_tuple(), dtype=np.float64)
            triples.append((t_in, t_out, b))
    return triples


def stack_triples(triples) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Input motions, target motions and previous boxes as (n, 4) arrays."""
    rows = [(*t_in, *t_out, *prev.as_tuple()) for t_in, t_out, prev in triples]
    stacked = np.array(rows, dtype=np.float64).reshape(len(rows), 12)
    return stacked[:, :4], stacked[:, 4:8], stacked[:, 8:]


# GeLU and Adam as written before they computed in place: every operation
# makes a fresh array, in the textbook order. The in-place forms must equal
# them bit for bit.
GELU_COEFF = math.sqrt(2.0 / math.pi)


def gelu_tanh(x):
    x = np.asarray(x, dtype=np.float64)
    return np.tanh(GELU_COEFF * (x + 0.044715 * (x * x * x)))


def gelu(x, t=None):
    x = np.asarray(x, dtype=np.float64)
    t = gelu_tanh(x) if t is None else t
    return 0.5 * x * (1.0 + t)


def gelu_grad(x, t=None):
    x = np.asarray(x, dtype=np.float64)
    t = gelu_tanh(x) if t is None else t
    dinner = GELU_COEFF * (1.0 + 3.0 * 0.044715 * x**2)
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * dinner


@dataclass
class Adam:
    """The flat-vector Adam whose moments were new arrays at every step."""

    lr: float = 1e-3
    weight_decay: float = 0.0
    step_count: int = field(default=0, init=False)
    m: np.ndarray | None = field(default=None, init=False)
    v: np.ndarray | None = field(default=None, init=False)

    def step(self, flat: np.ndarray, grad: np.ndarray) -> None:
        if self.m is None:
            self.m = np.zeros_like(flat)
            self.v = np.zeros_like(flat)
        self.step_count += 1
        t = self.step_count
        self.m = ADAM_BETA1 * self.m + (1.0 - ADAM_BETA1) * grad
        self.v = ADAM_BETA2 * self.v + (1.0 - ADAM_BETA2) * grad**2
        m_hat = self.m / (1.0 - ADAM_BETA1**t)
        v_hat = self.v / (1.0 - ADAM_BETA2**t)
        update = m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        if self.weight_decay:
            update = update + self.weight_decay * flat
        flat -= self.lr * update
