"""The training-example path that ``voskit.motion_mlp`` ran before its
examples became one (n, 3, 4) array: ``extract_triples`` built each example
as an ``(array, array, BBox)`` tuple, and ``_stack_triples`` re-packed a
list of them, row by row, into input motions, target motions and previous
boxes. The reference the array form must equal bit for bit."""

import numpy as np

from voskit.boxes import BBox, box_delta


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
