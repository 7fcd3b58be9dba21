"""Dataset ingestion and synthesis.

IDX image loading (the MNIST-family binary format), uniform Noise and
Constant synthetic sets, and soft-disc blob datasets for desk-scale
experiments. Every dataset holds pixel values in [0, 1].
"""

import math
import struct
from dataclasses import dataclass

import numpy as np

from ._fields import Field, check_count, choice, count, non_negative, parse_fields
from .errors import DomainError


class IdxFormatError(ValueError):
    """Malformed IDX container; message carries the failing byte offsets."""


@dataclass
class Dataset:
    """N samples as the rows of an (N, d_x) matrix of pixels in [0, 1], and a tag."""

    samples: np.ndarray
    tag: str

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 2:
            raise DomainError(f"samples must be 2-D, got shape {self.samples.shape}")
        if self.samples.size and not (self.samples.min() >= 0.0 and self.samples.max() <= 1.0):
            raise DomainError("pixel values must lie in [0, 1]")

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    @property
    def d_x(self) -> int:
        return self.samples.shape[1]


def load_idx(path) -> np.ndarray:
    """Read an IDX image file of (n, h, w) or (n, h, w, c) ubytes as an
    (n, h, w, c) uint8 array (c = 1 for 3 dimensions), rows as stored. A
    malformed file or a dimension of 0 is an IdxFormatError naming the file
    and the failing byte offset."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 4:
        raise IdxFormatError(f"{path}: truncated magic, need 4 bytes, got {len(raw)}")
    if raw[:3] != b"\x00\x00\x08":  # two zero bytes, then the ubyte type code
        magic = struct.unpack(">I", raw[:4])[0]
        raise IdxFormatError(f"{path}: bad magic 0x{magic:08x} at offset 0 (expected ubyte IDX)")
    ndim = raw[3]
    if ndim not in (3, 4):
        raise IdxFormatError(f"{path}: image files need 3 or 4 dimensions, got {ndim} at offset 3")
    header_len = 4 + 4 * ndim
    if len(raw) < header_len:
        raise IdxFormatError(
            f"{path}: truncated header, need {header_len} bytes, got {len(raw)}"
        )
    dims = struct.unpack(f">{ndim}I", raw[4:header_len])
    if 0 in dims:
        # An empty file trains an encoder of 0 inputs or scores nothing.
        axis = dims.index(0)
        raise IdxFormatError(f"{path}: dimension {axis} of {dims} is 0 at offset {4 + 4 * axis}")
    count = math.prod(dims)
    if count > 2**40:
        raise IdxFormatError(f"{path}: dimension overflow, {dims} implies {count} bytes")
    avail = len(raw) - header_len
    if avail < count:
        raise IdxFormatError(
            f"{path}: truncated payload at offset {header_len}, "
            f"expected {count} bytes, got {avail}"
        )
    if avail > count:
        raise IdxFormatError(
            f"{path}: {avail - count} trailing bytes after the payload at offset "
            f"{header_len + count}"
        )
    pixels = np.frombuffer(raw, dtype=np.uint8, count=count, offset=header_len)
    return pixels.reshape(dims if ndim == 4 else dims + (1,))


def gen_noise(rng: "np.random.Generator", n: int, h: int, w: int, c: int = 1) -> Dataset:
    """Every pixel an independent uniform draw over the 256 8-bit levels."""
    n, h, w, c = map(check_count, (n, h, w, c), "nhwc")
    levels = rng.integers(0, 256, size=(n, h * w * c))
    return Dataset(levels / 255.0, tag="noise")


def gen_constant(rng: "np.random.Generator", n: int, h: int, w: int, c: int = 1) -> Dataset:
    """Each image is one uniform 8-bit level repeated over all pixels."""
    n, h, w, c = map(check_count, (n, h, w, c), "nhwc")
    levels = rng.integers(0, 256, size=(n, 1))
    samples = np.repeat(levels / 255.0, h * w * c, axis=1)
    return Dataset(samples, tag="constant")


def gen_blobs(rng: "np.random.Generator", n: int, h: int, w: int, modes,
              noise: float = 0.02) -> Dataset:
    """Soft-disc images: each sample renders one randomly chosen mode.

    ``modes`` is a list of ((cy, cx), radius, intensity); the disc has a
    Gaussian falloff of the given radius (a single-pixel bump when the radius
    is zero), plus i.i.d. pixel noise, clamped to [0, 1].
    """
    n, h, w = map(check_count, (n, h, w), "nhw")
    if not modes:
        raise DomainError("modes must be non-empty")
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    renders = []
    for (cy, cx), radius, intensity in modes:
        d2 = (yy - cy) ** 2 + (xx - cx) ** 2
        if radius > 0:
            img = intensity * np.exp(-d2 / (2.0 * radius * radius))
        else:
            img = intensity * (d2 == 0.0)
        renders.append(img.ravel())
    renders = np.array(renders)
    which = rng.integers(0, len(modes), size=n)
    samples = renders[which]
    if noise > 0:
        samples = samples + noise * rng.standard_normal(samples.shape)
    samples = np.clip(samples, 0.0, 1.0)
    recipe = ";".join(
        f"({cy},{cx},r={radius},i={intensity})" for (cy, cx), radius, intensity in modes
    )
    return Dataset(samples, tag=f"blobs[{recipe}],noise={noise}")


def blob_preset(name: str, h: int, w: int):
    """Named two-mode blob recipes, scaled to the image size."""
    r = 0.125 * min(h, w)
    a, b = 0.3, 0.7
    if name == "two":
        return [((a * h, a * w), r, 1.0), ((b * h, b * w), r, 1.0)]
    if name == "two_shifted":
        return [((a * h, b * w), r, 1.0), ((b * h, a * w), r, 1.0)]
    raise DomainError(f"unknown blob preset {name!r}")


def _parse_modes(text):
    """Blob modes cy x cx x radius x intensity, joined by '+'."""
    modes = []
    for part in text.split("+"):
        cy, cx, radius, intensity = values = [float(v) for v in part.split("x")]
        if not np.isfinite(values).all():
            raise ValueError(f"mode {part!r} is not finite")
        modes.append(((cy, cx), radius, intensity))
    return modes


_SIZE = (Field("n", count), Field("h", count), Field("w", count))
_SPEC_FIELDS = {
    "noise": _SIZE + (Field("c", count, 1),),
    "constant": _SIZE + (Field("c", count, 1),),
    "blobs": _SIZE + (Field("noise", non_negative, 0.02),
                      Field("preset", choice("two", "two_shifted"), None),
                      Field("modes", _parse_modes, None)),
    "idx": (Field("path"), Field("resize", count, None),
            Field("gray", choice("0", "1"), "0"), Field("rgb", choice("0", "1"), "0"),
            Field("max", count, None)),
}


def _spec_options(spec):
    """(kind, options, where) of a spec string, where names it in errors."""
    where = f"data spec {spec!r}"
    kind, _, rest = spec.partition(":")
    if kind not in _SPEC_FIELDS:
        raise DomainError(f"{where}: unknown kind {kind!r}")
    strings = {}
    for item in rest.split(",") if rest else ():
        key, sep, val = (t.strip() for t in item.partition("="))
        if not sep or not key:
            raise DomainError(f"{where}: malformed item {item!r}")
        if key in strings:
            raise DomainError(f"{where}: repeated key {key!r}")
        strings[key] = val
    return kind, parse_fields(_SPEC_FIELDS[kind], strings, lambda key: where), where


def spec_input(spec: str):
    """The file a data spec reads (an idx: spec's path=), or None for a
    generated dataset; a spec parse_spec refuses is refused the same way."""
    kind, opts, _ = _spec_options(spec)
    return opts["path"] if kind == "idx" else None


def place_spec_input(spec: str, place):
    """The spec with the file it reads (an idx: spec's path=) replaced by
    place(path), its other items as given. A generated dataset's spec, one
    that spec_input refuses (refused, as typed, where it is read), or one
    whose placed path holds a comma, which no spec can hold, is returned as
    given."""
    try:
        path = spec_input(spec)
    except DomainError:
        path = None
    placed = path and place(path)
    if not placed or "," in placed:
        return spec
    kind, _, rest = spec.partition(":")
    items = [f"path={placed}" if item.partition("=")[0].strip() == "path" else item
             for item in rest.split(",")]
    return f"{kind}:{','.join(items)}"


def parse_spec(spec: str, rng: "np.random.Generator") -> Dataset:
    """Build a dataset from a compact spec string.

    Forms:
      noise:n=1000,h=16,w=16,c=1
      constant:n=1000,h=16,w=16,c=1
      blobs:n=2000,h=16,w=16,preset=two[,noise=0.02]
      blobs:n=2000,h=16,w=16,modes=4.5x4.5x2x1+11x11x2x1[,noise=0.02]
      idx:path=images.idx[,resize=32][,gray=1][,rgb=1][,max=50000]

    idx: applies resize=, gray=1, rgb=1, then max= (a subsample drawn from rng,
    in stored order), tagged idx:PATH|RxR|gray|rgb|subN. Counts must be >= 1, blob noise
    finite and >= 0. An unknown kind, a repeated key, or a channel conversion
    the file does not allow is refused naming the spec.
    """
    kind, opts, where = _spec_options(spec)
    if kind in ("noise", "constant"):
        gen = gen_noise if kind == "noise" else gen_constant
        return gen(rng, opts["n"], opts["h"], opts["w"], opts["c"])
    if kind == "blobs":
        if (opts["preset"] is None) == (opts["modes"] is None):
            raise DomainError(f"{where}: needs one of preset= or modes=")
        modes = opts["modes"] or blob_preset(opts["preset"], opts["h"], opts["w"])
        return gen_blobs(rng, opts["n"], opts["h"], opts["w"], modes, noise=opts["noise"])
    # The options select pixels of the file's uint8 images; only the result
    # is scaled to [0, 1], which takes the same values as scaling first.
    images = load_idx(opts["path"])
    tag = f"idx:{opts['path']}"
    if opts["resize"] is not None:
        size = opts["resize"]
        rows = np.arange(size) * images.shape[1] // size
        cols = np.arange(size) * images.shape[2] // size
        images = images[:, rows][:, :, cols]
        tag += f"|{size}x{size}"
    if opts["gray"] == "1":
        if images.shape[3] != 3:
            raise DomainError(f"{where}: gray=1 needs 3 channels, got {images.shape[3]}")
        images = images[..., :1]
        tag += "|gray"
    if opts["rgb"] == "1":
        if images.shape[3] != 1:
            raise DomainError(f"{where}: rgb=1 needs 1 channel, got {images.shape[3]}")
        images = np.repeat(images, 3, axis=3)
        tag += "|rgb"
    if opts["max"] is not None and len(images) > opts["max"]:
        keep = np.sort(rng.permutation(len(images))[:opts["max"]])
        images = images[keep]
        tag += f"|sub{opts['max']}"
    return Dataset(images.reshape(len(images), -1) / 255.0, tag)
