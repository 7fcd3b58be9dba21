"""Dataset ingestion and synthesis.

IDX image loading (the MNIST-family binary format), uniform Noise and
Constant synthetic sets, soft-disc blob datasets for desk-scale experiments,
and the channel conversions used to move between grayscale and RGB. Every
loader and generator emits pixel values in [0, 1].
"""

import math
import struct
from dataclasses import dataclass

import numpy as np

from ._fields import Field, choice, count, non_negative, parse_fields
from .errors import DomainError
from .sampler import RngStream

_IDX_UBYTE = 0x08


class IdxFormatError(ValueError):
    """Malformed IDX container; message carries the failing byte offsets."""


@dataclass
class Dataset:
    """N samples as rows of an (N, d_x) matrix with pixel-shape metadata."""

    samples: np.ndarray
    height: int
    width: int
    channels: int
    tag: str

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 2:
            raise DomainError(f"samples must be 2-D, got shape {self.samples.shape}")
        if self.height * self.width * self.channels != self.samples.shape[1]:
            raise DomainError(
                f"shape metadata {self.height}x{self.width}x{self.channels} "
                f"inconsistent with d_x={self.samples.shape[1]}"
            )
        if self.samples.size and not (self.samples.min() >= 0.0 and self.samples.max() <= 1.0):
            raise DomainError("pixel values must lie in [0, 1]")

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    @property
    def d_x(self) -> int:
        return self.samples.shape[1]


def load_idx(path) -> Dataset:
    """Load an IDX image file, (n, h, w) or (n, h, w, c) ubytes, as a Dataset.

    Pixels are scaled by 1/255 into [0, 1]; row order is preserved as stored.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 4:
        raise IdxFormatError(f"{path}: truncated magic, need 4 bytes, got {len(raw)}")
    if raw[:3] != bytes([0, 0, _IDX_UBYTE]):
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
    n, h, w, c = dims if ndim == 4 else dims + (1,)
    pixels = np.frombuffer(raw, dtype=np.uint8, count=count, offset=header_len)
    samples = pixels.reshape(n, h * w * c).astype(np.float64) / 255.0
    return Dataset(samples, h, w, c, tag=f"idx:{path}")


def gen_noise(rng: RngStream, n: int, h: int, w: int, c: int = 1) -> Dataset:
    """Every pixel an independent uniform draw over the 256 8-bit levels."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    levels = rng.generator.integers(0, 256, size=(n, h * w * c))
    return Dataset(levels / 255.0, h, w, c, tag="noise")


def gen_constant(rng: RngStream, n: int, h: int, w: int, c: int = 1) -> Dataset:
    """Each image is one uniform 8-bit level repeated over all pixels."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    levels = rng.generator.integers(0, 256, size=(n, 1))
    samples = np.repeat(levels / 255.0, h * w * c, axis=1)
    return Dataset(samples, h, w, c, tag="constant")


def gen_blobs(rng: RngStream, n: int, h: int, w: int, modes, noise: float = 0.02) -> Dataset:
    """Soft-disc images: each sample renders one randomly chosen mode.

    ``modes`` is a list of ((cy, cx), radius, intensity); the disc has a
    Gaussian falloff of the given radius (a single-pixel bump when the radius
    is zero), plus i.i.d. pixel noise, clamped to [0, 1].
    """
    if not modes:
        raise DomainError("modes must be non-empty")
    gen = rng.generator
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
    which = gen.integers(0, len(modes), size=n)
    samples = renders[which]
    if noise > 0:
        samples = samples + noise * gen.standard_normal(samples.shape)
    samples = np.clip(samples, 0.0, 1.0)
    recipe = ";".join(
        f"({cy},{cx},r={radius},i={intensity})" for (cy, cx), radius, intensity in modes
    )
    return Dataset(samples, h, w, 1, tag=f"blobs[{recipe}],noise={noise}")


def blob_preset(name: str, h: int, w: int):
    """Named two-mode blob recipes, scaled to the image size."""
    r = 0.125 * min(h, w)
    a, b = 0.3, 0.7
    if name == "two":
        return [((a * h, a * w), r, 1.0), ((b * h, b * w), r, 1.0)]
    if name == "two_shifted":
        return [((a * h, b * w), r, 1.0), ((b * h, a * w), r, 1.0)]
    raise DomainError(f"unknown blob preset {name!r}")


def to_grayscale(ds: Dataset) -> Dataset:
    """Keep the first channel, discard the rest."""
    if ds.channels != 3:
        raise DomainError(f"to_grayscale needs 3 channels, got {ds.channels}")
    imgs = ds.samples.reshape(ds.n, ds.height, ds.width, 3)
    gray = imgs[:, :, :, 0].reshape(ds.n, ds.height * ds.width)
    return Dataset(gray, ds.height, ds.width, 1, tag=f"{ds.tag}|gray")


def to_rgb(ds: Dataset) -> Dataset:
    """Three copies of the single channel."""
    if ds.channels != 1:
        raise DomainError(f"to_rgb needs 1 channel, got {ds.channels}")
    imgs = ds.samples.reshape(ds.n, ds.height, ds.width, 1)
    rgb = np.repeat(imgs, 3, axis=3).reshape(ds.n, ds.height * ds.width * 3)
    return Dataset(rgb, ds.height, ds.width, 3, tag=f"{ds.tag}|rgb")


def resize_nearest(ds: Dataset, h: int, w: int) -> Dataset:
    """Nearest-neighbor resampling (bit-exact reproducible)."""
    rows = (np.arange(h) * ds.height // h).astype(np.intp)
    cols = (np.arange(w) * ds.width // w).astype(np.intp)
    imgs = ds.samples.reshape(ds.n, ds.height, ds.width, ds.channels)
    out = imgs[:, rows][:, :, cols].reshape(ds.n, h * w * ds.channels)
    return Dataset(out, h, w, ds.channels, tag=f"{ds.tag}|{h}x{w}")


def subsample(ds: Dataset, rng: RngStream, max_samples: int) -> Dataset:
    """Seeded uniform subsample, original row order preserved."""
    if ds.n <= max_samples:
        return ds
    keep = np.sort(rng.generator.permutation(ds.n)[:max_samples])
    return Dataset(ds.samples[keep], ds.height, ds.width, ds.channels,
                   tag=f"{ds.tag}|sub{max_samples}")


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


def parse_spec(spec: str, seed: int) -> Dataset:
    """Build a dataset from a compact spec string.

    Forms:
      noise:n=1000,h=16,w=16,c=1
      constant:n=1000,h=16,w=16,c=1
      blobs:n=2000,h=16,w=16,preset=two[,noise=0.02]
      blobs:n=2000,h=16,w=16,modes=4.5x4.5x2x1+11x11x2x1[,noise=0.02]
      idx:path=images.idx[,resize=32][,gray=1][,rgb=1][,max=50000]

    Counts must be >= 1, blob noise finite and >= 0; a repeated key is refused.
    """
    kind, _, rest = spec.partition(":")
    if kind not in _SPEC_FIELDS:
        raise DomainError(f"unknown data spec kind {kind!r}")
    where = f"data spec {spec!r}"
    strings = {}
    for item in rest.split(",") if rest else ():
        key, sep, val = (t.strip() for t in item.partition("="))
        if not sep or not key:
            raise DomainError(f"{where}: malformed item {item!r}")
        if key in strings:
            raise DomainError(f"{where}: repeated key {key!r}")
        strings[key] = val
    opts = parse_fields(_SPEC_FIELDS[kind], strings, lambda key: where)
    rng = RngStream(seed, stream=101)

    if kind in ("noise", "constant"):
        gen = gen_noise if kind == "noise" else gen_constant
        return gen(rng, opts["n"], opts["h"], opts["w"], opts["c"])
    if kind == "blobs":
        if (opts["preset"] is None) == (opts["modes"] is None):
            raise DomainError(f"{where}: needs one of preset= or modes=")
        modes = opts["modes"] or blob_preset(opts["preset"], opts["h"], opts["w"])
        return gen_blobs(rng, opts["n"], opts["h"], opts["w"], modes, noise=opts["noise"])
    ds = load_idx(opts["path"])
    if opts["resize"] is not None:
        ds = resize_nearest(ds, opts["resize"], opts["resize"])
    try:
        if opts["gray"] == "1":
            ds = to_grayscale(ds)
        if opts["rgb"] == "1":
            ds = to_rgb(ds)
    except DomainError as exc:
        raise DomainError(f"{where}: {exc}") from None
    if opts["max"] is not None:
        ds = subsample(ds, rng, opts["max"])
    return ds
