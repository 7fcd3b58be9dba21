"""Dataset ingestion and synthesis.

IDX-container loading (the MNIST-family binary format), uniform Noise and
Constant synthetic sets, soft-disc blob datasets for desk-scale experiments,
and the channel conversions used to move between grayscale and RGB. Every
loader and generator emits pixel values in [0, 1].
"""

import struct
from dataclasses import dataclass

import numpy as np

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
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 2:
            raise DomainError(f"samples must be 2-D, got shape {self.samples.shape}")
        if self.height * self.width * self.channels != self.samples.shape[1]:
            raise DomainError(
                f"shape metadata {self.height}x{self.width}x{self.channels} "
                f"inconsistent with d_x={self.samples.shape[1]}"
            )
        if self.samples.size and (self.samples.min() < 0.0 or self.samples.max() > 1.0):
            raise DomainError("pixel values must lie in [0, 1]")

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    @property
    def d_x(self) -> int:
        return self.samples.shape[1]


def _read_idx_header(raw: bytes, path):
    if len(raw) < 4:
        raise IdxFormatError(f"{path}: truncated magic, need 4 bytes, got {len(raw)}")
    zero0, zero1, dtype, ndim = raw[0], raw[1], raw[2], raw[3]
    if zero0 != 0 or zero1 != 0 or dtype != _IDX_UBYTE:
        magic = struct.unpack(">I", raw[:4])[0]
        raise IdxFormatError(f"{path}: bad magic 0x{magic:08x} at offset 0 (expected ubyte IDX)")
    if not 1 <= ndim <= 4:
        raise IdxFormatError(f"{path}: unsupported dimension count {ndim} at offset 3")
    header_len = 4 + 4 * ndim
    if len(raw) < header_len:
        raise IdxFormatError(
            f"{path}: truncated header, need {header_len} bytes, got {len(raw)}"
        )
    dims = struct.unpack(f">{ndim}I", raw[4:header_len])
    count = 1
    for d in dims:
        count *= d
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
    return dims, header_len, count


def load_idx(images_path, labels_path=None) -> Dataset:
    """Load an IDX image file (and optional IDX label file) as a Dataset.

    Pixels are scaled by 1/255 into [0, 1]; row order is preserved as stored.
    """
    with open(images_path, "rb") as fh:
        raw = fh.read()
    dims, off, count = _read_idx_header(raw, images_path)
    if len(dims) < 3:
        raise IdxFormatError(
            f"{images_path}: image files need 3 or 4 dimensions, got {len(dims)}"
        )
    n, h, w = dims[0], dims[1], dims[2]
    c = dims[3] if len(dims) == 4 else 1
    pixels = np.frombuffer(raw, dtype=np.uint8, count=count, offset=off)
    samples = pixels.reshape(n, h * w * c).astype(np.float64) / 255.0

    labels = None
    if labels_path is not None:
        with open(labels_path, "rb") as fh:
            lraw = fh.read()
        ldims, loff, lcount = _read_idx_header(lraw, labels_path)
        if len(ldims) != 1:
            raise IdxFormatError(f"{labels_path}: label files need 1 dimension, got {len(ldims)}")
        if ldims[0] != n:
            raise IdxFormatError(
                f"{labels_path}: {ldims[0]} labels for {n} images"
            )
        labels = np.frombuffer(lraw, dtype=np.uint8, count=lcount, offset=loff).copy()

    return Dataset(samples, h, w, c, tag=f"idx:{images_path}", labels=labels)


def write_idx(ds: Dataset, images_path, labels_path=None) -> None:
    """Write a Dataset back to IDX bytes (8-bit quantization)."""
    pixels = np.round(ds.samples * 255.0).astype(np.uint8)
    if ds.channels == 1:
        dims = (ds.n, ds.height, ds.width)
    else:
        dims = (ds.n, ds.height, ds.width, ds.channels)
    with open(images_path, "wb") as fh:
        fh.write(bytes([0, 0, _IDX_UBYTE, len(dims)]))
        fh.write(struct.pack(f">{len(dims)}I", *dims))
        fh.write(pixels.tobytes())
    if labels_path is not None and ds.labels is not None:
        with open(labels_path, "wb") as fh:
            fh.write(bytes([0, 0, _IDX_UBYTE, 1]))
            fh.write(struct.pack(">I", len(ds.labels)))
            fh.write(np.asarray(ds.labels, dtype=np.uint8).tobytes())


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
    return Dataset(gray, ds.height, ds.width, 1, tag=f"{ds.tag}|gray", labels=ds.labels)


def to_rgb(ds: Dataset) -> Dataset:
    """Three copies of the single channel."""
    if ds.channels != 1:
        raise DomainError(f"to_rgb needs 1 channel, got {ds.channels}")
    imgs = ds.samples.reshape(ds.n, ds.height, ds.width, 1)
    rgb = np.repeat(imgs, 3, axis=3).reshape(ds.n, ds.height * ds.width * 3)
    return Dataset(rgb, ds.height, ds.width, 3, tag=f"{ds.tag}|rgb", labels=ds.labels)


def resize_nearest(ds: Dataset, h: int, w: int) -> Dataset:
    """Nearest-neighbor resampling (bit-exact reproducible)."""
    rows = (np.arange(h) * ds.height // h).astype(np.intp)
    cols = (np.arange(w) * ds.width // w).astype(np.intp)
    imgs = ds.samples.reshape(ds.n, ds.height, ds.width, ds.channels)
    out = imgs[:, rows][:, :, cols].reshape(ds.n, h * w * ds.channels)
    return Dataset(out, h, w, ds.channels, tag=f"{ds.tag}|{h}x{w}", labels=ds.labels)


def subsample(ds: Dataset, rng: RngStream, max_samples: int) -> Dataset:
    """Seeded uniform subsample, original row order preserved."""
    if ds.n <= max_samples:
        return ds
    keep = np.sort(rng.generator.permutation(ds.n)[:max_samples])
    labels = ds.labels[keep] if ds.labels is not None else None
    return Dataset(
        ds.samples[keep], ds.height, ds.width, ds.channels,
        tag=f"{ds.tag}|sub{max_samples}", labels=labels,
    )


def parse_spec(spec: str, seed: int) -> Dataset:
    """Build a dataset from a compact spec string.

    Forms:
      noise:n=1000,h=16,w=16,c=1
      constant:n=1000,h=16,w=16,c=1
      blobs:n=2000,h=16,w=16,preset=two[,noise=0.02]
      blobs:n=2000,h=16,w=16,modes=4.5x4.5x2x1+11x11x2x1[,noise=0.02]
      idx:path=images.idx[,labels=labels.idx][,resize=32][,gray=1][,rgb=1][,max=50000]
    """
    kind, _, rest = spec.partition(":")
    opts = {}
    if rest:
        for item in rest.split(","):
            key, _, val = item.partition("=")
            if not _ or not key:
                raise DomainError(f"malformed data spec item {item!r} in {spec!r}")
            opts[key.strip()] = val.strip()
    rng = RngStream(seed, stream=101)

    if kind in ("noise", "constant", "blobs"):
        try:
            n = int(opts.pop("n"))
            h = int(opts.pop("h"))
            w = int(opts.pop("w"))
        except KeyError as exc:
            raise DomainError(f"data spec {spec!r} missing key {exc.args[0]!r}") from None
        if kind == "noise":
            c = int(opts.pop("c", 1))
            _reject_extra(spec, opts)
            return gen_noise(rng, n, h, w, c)
        if kind == "constant":
            c = int(opts.pop("c", 1))
            _reject_extra(spec, opts)
            return gen_constant(rng, n, h, w, c)
        noise = float(opts.pop("noise", 0.02))
        if "preset" in opts:
            modes = blob_preset(opts.pop("preset"), h, w)
        elif "modes" in opts:
            modes = []
            for part in opts.pop("modes").split("+"):
                cy, cx, radius, intensity = (float(v) for v in part.split("x"))
                modes.append(((cy, cx), radius, intensity))
        else:
            raise DomainError(f"blobs spec {spec!r} needs preset= or modes=")
        _reject_extra(spec, opts)
        return gen_blobs(rng, n, h, w, modes, noise=noise)

    if kind == "idx":
        if "path" not in opts:
            raise DomainError(f"idx spec {spec!r} missing key 'path'")
        ds = load_idx(opts.pop("path"), opts.pop("labels", None))
        if "resize" in opts:
            side = int(opts.pop("resize"))
            ds = resize_nearest(ds, side, side)
        if opts.pop("gray", None):
            ds = to_grayscale(ds)
        if opts.pop("rgb", None):
            ds = to_rgb(ds)
        if "max" in opts:
            ds = subsample(ds, rng, int(opts.pop("max")))
        _reject_extra(spec, opts)
        return ds

    raise DomainError(f"unknown data spec kind {kind!r}")


def _reject_extra(spec, opts):
    if opts:
        raise DomainError(f"unrecognized keys {sorted(opts)} in data spec {spec!r}")
