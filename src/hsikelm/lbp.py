"""Per-pixel local binary pattern codes over each band of an (H, W, B) array.

Each pixel is compared with its 3x3 ring; neighbor p contributes 2^p when
its value is >= the center. Bit order is clockwise from the top-left
neighbor: TL, T, TR, R, BR, B, BL, L. Borders replicate the edge pixel so
every pixel gets a code.
"""

from __future__ import annotations

import numpy as np

# (row, col) offsets in bit order TL, T, TR, R, BR, B, BL, L
NEIGHBOR_OFFSETS = ((-1, -1), (-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1))
# the largest code, 2^8 - 1, scales codes to [0, 1]
MAX_CODE = 255


def lbp_features(cube: np.ndarray) -> np.ndarray:
    """Pixels-by-bands float64 matrix of codes scaled to [0, 1] by MAX_CODE."""
    h, w, b = cube.shape
    padded = np.pad(cube, ((1, 1), (1, 1), (0, 0)), mode="edge")
    codes = np.zeros((h, w, b), dtype=np.uint8)
    for bit, (dr, dc) in enumerate(NEIGHBOR_OFFSETS):
        neighbor = padded[1 + dr : 1 + dr + h, 1 + dc : 1 + dc + w]
        codes |= (neighbor >= cube).astype(np.uint8) << bit
    return codes.reshape(h * w, b) / MAX_CODE
