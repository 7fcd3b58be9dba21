"""IDX test fixtures: a Dataset written back as an IDX image file."""

import struct

import numpy as np


def write_idx(ds, path):
    """Write a Dataset as IDX ubyte images (8-bit quantization): (n, h, w) for
    one channel, (n, h, w, c) otherwise."""
    pixels = np.round(ds.samples * 255.0).astype(np.uint8)
    dims = (ds.n, ds.height, ds.width) + ((ds.channels,) if ds.channels != 1 else ())
    with open(path, "wb") as fh:
        fh.write(bytes([0, 0, 0x08, len(dims)]))
        fh.write(struct.pack(f">{len(dims)}I", *dims))
        fh.write(pixels.tobytes())
