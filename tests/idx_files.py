"""IDX test fixtures: uint8 images written as an IDX image file."""

import struct

import numpy as np


def write_idx(path, images):
    """Write a uint8 (n, h, w) or (n, h, w, c) array as IDX ubyte images,
    with the array's own number of dimensions."""
    images = np.asarray(images)
    assert images.dtype == np.uint8 and images.ndim in (3, 4), (images.dtype, images.shape)
    with open(path, "wb") as fh:
        fh.write(bytes([0, 0, 0x08, images.ndim]))
        fh.write(struct.pack(f">{images.ndim}I", *images.shape))
        fh.write(images.tobytes())
