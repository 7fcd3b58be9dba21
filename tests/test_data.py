"""Dataset tests: hand-built IDX fixtures, generator statistics, the idx:
spec's options against numpy indexing of the file's images, and spec-string
parsing."""

import struct
import tracemalloc

import numpy as np
import pytest
from scipy.cluster.vq import kmeans2
from scipy.stats import chisquare

from tiltvae.data import (
    Dataset,
    IdxFormatError,
    blob_preset,
    gen_blobs,
    gen_constant,
    gen_noise,
    load_idx,
    parse_spec,
)
from tiltvae.errors import DomainError
from tiltvae.sampler import rng_stream

from idx_files import write_idx


def _idx_image_bytes(n, h, w, pixels):
    return bytes([0, 0, 8, 3]) + struct.pack(">3I", n, h, w) + bytes(pixels)


def _images(seed, *shape):
    return np.random.default_rng(seed).integers(0, 256, size=shape, dtype=np.uint8)


def _idx_spec(tmp_path, images, options=""):
    """An idx: spec for images written to a fresh file under tmp_path."""
    path = tmp_path / f"images{len(list(tmp_path.iterdir()))}.idx"
    write_idx(path, images)
    return path, f"idx:path={path}{options}"


def _scaled(images):
    """What an idx: spec makes of selected images: rows of pixels in [0, 1]."""
    return images.reshape(len(images), -1) / 255.0


class TestIdx:
    def test_load_two_28x28_images(self, tmp_path):
        pixels = [(i * 7) % 256 for i in range(2 * 28 * 28)]
        path = tmp_path / "imgs.idx"
        path.write_bytes(_idx_image_bytes(2, 28, 28, pixels))
        images = load_idx(path)
        assert (images.dtype, images.shape) == (np.uint8, (2, 28, 28, 1))
        assert images.tobytes() == bytes(pixels)
        ds = parse_spec(f"idx:path={path}", rng_stream(1, 101))
        assert (ds.n, ds.d_x, ds.tag) == (2, 784, f"idx:{path}")
        assert ds.samples[0, 1] == 7 / 255
        assert ds.samples.min() >= 0.0 and ds.samples.max() <= 1.0

    def test_truncated_payload_names_byte_counts(self, tmp_path):
        raw = _idx_image_bytes(2, 28, 28, [0] * 100)
        path = tmp_path / "trunc.idx"
        path.write_bytes(raw)
        with pytest.raises(IdxFormatError, match="expected 1568 bytes, got 100"):
            load_idx(path)

    def test_trailing_bytes_are_refused(self, tmp_path):
        imgs = tmp_path / "imgs.idx"
        imgs.write_bytes(_idx_image_bytes(2, 2, 2, [0] * 8) + b"\x00" * 3)
        with pytest.raises(IdxFormatError, match=f"{imgs}: 3 trailing bytes .* offset 24"):
            load_idx(imgs)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(b"\x00\x00\x09\x03" + b"\x00" * 12)
        with pytest.raises(IdxFormatError, match="bad magic"):
            load_idx(path)

    @pytest.mark.parametrize("raw,message", [
        (b"\x00\x00\x08\x02" + struct.pack(">2I", 1, 4) + bytes(4),
         "image files need 3 or 4 dimensions, got 2 at offset 3"),
        (b"\x00\x00\x08\x05" + struct.pack(">5I", 1, 1, 1, 1, 1) + bytes(1),
         "image files need 3 or 4 dimensions, got 5 at offset 3"),
        (b"\x00\x00\x08\x03" + struct.pack(">2I", 1, 2),
         "truncated header, need 16 bytes, got 12"),
        (b"\x00\x00\x08\x03" + struct.pack(">3I", 2**16, 2**16, 2**16),
         "dimension overflow, (65536, 65536, 65536) implies 281474976710656 bytes"),
        # A file of no images, or of images with no pixels, is refused.
        (b"\x00\x00\x08\x03" + struct.pack(">3I", 0, 4, 4),
         "dimension 0 of (0, 4, 4) is 0 at offset 4"),
        (b"\x00\x00\x08\x03" + struct.pack(">3I", 5, 0, 4),
         "dimension 1 of (5, 0, 4) is 0 at offset 8"),
        (b"\x00\x00\x08\x04" + struct.pack(">4I", 5, 2, 2, 0),
         "dimension 3 of (5, 2, 2, 0) is 0 at offset 16"),
    ])
    def test_header_refusal_names_the_file(self, tmp_path, raw, message):
        path = tmp_path / "bad.idx"
        path.write_bytes(raw)
        with pytest.raises(IdxFormatError) as err:
            load_idx(path)
        assert str(err.value) == f"{path}: {message}"

    def test_roundtrip_exact_at_8_bit(self, tmp_path):
        # Noise pixels are 8-bit levels, so an IDX file holds them exactly.
        ds = gen_noise(rng_stream(3), 5, 4, 6)
        images = np.round(ds.samples * 255.0).astype(np.uint8).reshape(5, 4, 6)
        path, spec = _idx_spec(tmp_path, images)
        assert np.array_equal(load_idx(path), images[..., None])
        assert np.array_equal(parse_spec(spec, rng_stream(1, 101)).samples, ds.samples)

    def test_roundtrip_rgb(self, tmp_path):
        ds = gen_noise(rng_stream(4), 3, 4, 4, c=3)
        images = np.round(ds.samples * 255.0).astype(np.uint8).reshape(3, 4, 4, 3)
        path, spec = _idx_spec(tmp_path, images)
        back = load_idx(path)
        assert (back.dtype, back.shape) == (np.uint8, (3, 4, 4, 3))
        assert np.array_equal(back, images)
        assert np.array_equal(parse_spec(spec, rng_stream(1, 101)).samples, ds.samples)

    def test_max_reads_no_float_copy_of_the_file(self, tmp_path):
        # max= picks rows of the uint8 images; only those become float64.
        images = _images(5, 4000, 16, 16)
        _, spec = _idx_spec(tmp_path, images, ",max=10")
        tracemalloc.start()
        try:
            ds = parse_spec(spec, rng_stream(1, 101))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.n == 10
        assert peak < images.size * 8 / 4, peak


class TestGenerators:
    def test_noise_levels_and_mean(self):
        ds = gen_noise(rng_stream(5), 10**4, 8, 8)
        assert ds.tag == "noise"
        assert ds.samples.mean() == pytest.approx(0.5, abs=0.01)
        scaled = ds.samples * 255.0
        assert np.allclose(scaled, np.round(scaled))

    def test_noise_single_row_range(self):
        ds = gen_noise(rng_stream(6), 1, 8, 8)
        assert ds.n == 1
        assert ds.samples.min() >= 0.0 and ds.samples.max() <= 1.0

    def test_noise_deterministic(self):
        a = gen_noise(rng_stream(7), 10, 4, 4)
        b = gen_noise(rng_stream(7), 10, 4, 4)
        assert np.array_equal(a.samples, b.samples)

    def test_constant_images_are_flat(self):
        ds = gen_constant(rng_stream(8), 100, 6, 6)
        assert ds.tag == "constant"
        spread = ds.samples.max(axis=1) - ds.samples.min(axis=1)
        assert np.all(spread == 0.0)

    def test_constant_level_uniformity(self):
        ds = gen_constant(rng_stream(9), 10**4, 2, 2)
        levels = np.round(ds.samples[:, 0] * 255.0).astype(int)
        counts = np.bincount(levels, minlength=256)
        assert chisquare(counts).pvalue > 0.001

    def test_blobs_zero_radius_single_pixel(self):
        ds = gen_blobs(rng_stream(10), 4, 5, 5, [((2.0, 3.0), 0.0, 1.0)], noise=0.0)
        img = ds.samples[0].reshape(5, 5)
        assert img[2, 3] == 1.0
        assert img.sum() == 1.0

    def test_blobs_bimodal_kmeans_stability(self):
        ds = gen_blobs(rng_stream(11), 1000, 16, 16, blob_preset("two", 16, 16))
        assigns = []
        for seed in (0, 1, 2):
            _, labels = kmeans2(ds.samples, 2, minit="++", seed=seed)
            assigns.append(labels)
        for other in assigns[1:]:
            agree = np.mean(assigns[0] == other)
            churn = min(agree, 1.0 - agree)
            assert churn < 0.01

    def test_blobs_deterministic_and_tagged(self):
        modes = [((4.0, 4.0), 2.0, 1.0)]
        a = gen_blobs(rng_stream(12), 10, 8, 8, modes)
        b = gen_blobs(rng_stream(12), 10, 8, 8, modes)
        assert np.array_equal(a.samples, b.samples)
        assert a.tag.startswith("blobs[(4.0,4.0,r=2.0,i=1.0)]")

    def test_blobs_need_modes(self):
        with pytest.raises(DomainError):
            gen_blobs(rng_stream(13), 10, 8, 8, [])


class TestChannels:
    def test_grayscale_takes_first_channel(self, tmp_path):
        images = _images(14, 3, 4, 5, 3)
        path, spec = _idx_spec(tmp_path, images, ",gray=1")
        ds = parse_spec(spec, rng_stream(1, 101))
        assert np.array_equal(ds.samples, _scaled(images[..., 0]))
        assert ds.tag == f"idx:{path}|gray"

    def test_rgb_copies_first_channel(self, tmp_path):
        images = _images(15, 3, 4, 5)
        path, spec = _idx_spec(tmp_path, images, ",rgb=1")
        ds = parse_spec(spec, rng_stream(1, 101))
        assert np.array_equal(ds.samples, _scaled(np.stack([images] * 3, axis=-1)))
        assert ds.tag == f"idx:{path}|rgb"

    def test_roundtrip_identity(self, tmp_path):
        # The gray of an RGB copy of a grayscale file is that file.
        images = _images(16, 3, 4, 4)
        _, gray = _idx_spec(tmp_path, images)
        _, rgb = _idx_spec(tmp_path, np.stack([images] * 3, axis=-1), ",gray=1")
        assert np.array_equal(parse_spec(rgb, rng_stream(1, 101)).samples, parse_spec(gray, rng_stream(1, 101)).samples)

    def test_channel_count_validation(self, tmp_path):
        for shape, options, message in [
            ((2, 4, 4), ",gray=1", "gray=1 needs 3 channels, got 1"),
            ((2, 4, 4, 4), ",gray=1", "gray=1 needs 3 channels, got 4"),
            ((2, 4, 4, 3), ",rgb=1", "rgb=1 needs 1 channel, got 3"),
            ((2, 4, 4, 2), ",resize=2,rgb=1", "rgb=1 needs 1 channel, got 2"),
        ]:
            _, spec = _idx_spec(tmp_path, _images(17, *shape), options)
            with pytest.raises(DomainError) as err:
                parse_spec(spec, rng_stream(1, 101))
            assert str(err.value) == f"data spec {spec!r}: {message}"


class TestTransforms:
    def test_resize_nearest_exact_mapping(self, tmp_path):
        images = np.arange(2 * 4 * 4, dtype=np.uint8).reshape(2, 4, 4)
        path, down = _idx_spec(tmp_path, images, ",resize=2")
        ds = parse_spec(down, rng_stream(1, 101))
        assert np.array_equal(ds.samples, _scaled(images[:, ::2, ::2]))
        assert ds.tag == f"idx:{path}|2x2"
        # Upsampling repeats the nearest source row and column at or above.
        near = [0, 0, 1, 2, 2, 3]
        up = parse_spec(f"idx:path={path},resize=6", rng_stream(1, 101))
        assert np.array_equal(up.samples, _scaled(images[:, near][:, :, near]))

    def test_subsample_deterministic_ordered(self, tmp_path):
        # Image i opens with pixel value i, so each row names its image.
        images = _images(19, 50, 2, 2)
        images[:, 0, 0] = np.arange(50)
        path, spec = _idx_spec(tmp_path, images, ",max=10")
        a, b = parse_spec(spec, rng_stream(18, 101)), parse_spec(spec, rng_stream(18, 101))
        assert np.array_equal(a.samples, b.samples)
        assert a.n == 10 and a.tag == f"idx:{path}|sub10"
        keep = np.round(a.samples[:, 0] * 255.0).astype(int)
        assert np.all(np.diff(keep) > 0)  # original relative order preserved
        assert np.array_equal(a.samples, _scaled(images[keep]))
        assert not np.array_equal(parse_spec(spec, rng_stream(19, 101)).samples, a.samples)
        for max_ in (50, 60):
            whole = parse_spec(f"idx:path={path},max={max_}", rng_stream(18, 101))
            assert whole.tag == f"idx:{path}" and np.array_equal(whole.samples, _scaled(images))

    def test_all_options_together(self, tmp_path):
        images = _images(20, 30, 7, 5, 3)
        images[:, 0, 0, 0] = np.arange(30)
        path, spec = _idx_spec(tmp_path, images, ",resize=3,gray=1,rgb=1,max=4")
        ds = parse_spec(spec, rng_stream(2, 101))
        assert ds.tag == f"idx:{path}|3x3|gray|rgb|sub4"
        keep = np.round(ds.samples[:, 0] * 255.0).astype(int)
        assert len(keep) == 4 and np.all(np.diff(keep) > 0)
        rows, cols = [0, 2, 4], [0, 1, 3]
        picked = images[keep][:, rows][:, :, cols][..., [0, 0, 0]]
        assert np.array_equal(ds.samples, _scaled(picked))


class TestParseSpec:
    def test_noise_spec(self):
        ds = parse_spec("noise:n=5,h=4,w=4,c=1", rng_stream(1, 101))
        assert (ds.n, ds.d_x) == (5, 16)

    def test_blobs_preset_and_explicit_modes(self):
        a = parse_spec("blobs:n=5,h=16,w=16,preset=two", rng_stream(1, 101))
        b = parse_spec("blobs:n=5,h=16,w=16,modes=4.8x4.8x2x1+11.2x11.2x2x1", rng_stream(1, 101))
        assert a.n == b.n == 5

    def test_seed_determinism(self):
        a = parse_spec("noise:n=5,h=4,w=4", rng_stream(9, 101))
        b = parse_spec("noise:n=5,h=4,w=4", rng_stream(9, 101))
        c = parse_spec("noise:n=5,h=4,w=4", rng_stream(10, 101))
        assert np.array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    def test_idx_spec_with_transforms(self, tmp_path):
        path, spec = _idx_spec(tmp_path, _images(20, 4, 8, 8), ",resize=4,rgb=1,max=2")
        out = parse_spec(spec, rng_stream(1, 101))
        assert (out.n, out.d_x, out.tag) == (2, 4 * 4 * 3, f"idx:{path}|4x4|rgb|sub2")

    def test_errors(self):
        with pytest.raises(DomainError, match="missing key 'n'"):
            parse_spec("noise:h=4,w=4", rng_stream(1, 101))
        with pytest.raises(DomainError, match="unknown kind 'mnist'"):
            parse_spec("mnist:n=1", rng_stream(1, 101))
        with pytest.raises(DomainError, match="unrecognized keys"):
            parse_spec("noise:n=1,h=4,w=4,zoom=2", rng_stream(1, 101))
        with pytest.raises(DomainError, match="preset= or modes="):
            parse_spec("blobs:n=1,h=4,w=4", rng_stream(1, 101))


class TestDatasetValidation:
    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            Dataset(np.array([[1.5]]), tag="t")


class TestSpecRefusals:
    @pytest.mark.parametrize("spec,message", [
        ("noise:n=3,h=0,w=4", "h = '0': must be >= 1"),
        ("constant:n=3,h=2,w=2,c=0", "c = '0': must be >= 1"),
        ("blobs:n=3,h=4,w=4,preset=two,noise=nan", "noise = 'nan': must be finite and >= 0"),
        ("blobs:n=3,h=4,w=4,modes=2x2x1x1+1x1x1xnan",
         "modes = '2x2x1x1+1x1x1xnan': mode '1x1x1xnan' is not finite"),
        ("blobs:n=3,h=4,w=4,preset=two,modes=1x1x1x1", "needs one of preset= or modes="),
        ("noise:n=3,h=2,w=2,h=3", "repeated key 'h'"),
        ("idx:path=a.idx,gray=yes", "gray = 'yes': must be one of 0, 1"),
        ("idx:path=a.idx,labels=l.idx", "unrecognized keys ['labels']"),
        ("blobs:n=3,h=4,w=4,preset=three", "preset = 'three': must be one of two, two_shifted"),
        ("mnist:n=1", "unknown kind 'mnist'"),
    ])
    def test_refused_naming_the_spec(self, spec, message):
        with pytest.raises(DomainError) as err:
            parse_spec(spec, rng_stream(1, 101))
        assert str(err.value) == f"data spec {spec!r}: {message}"

    def test_gray_0_keeps_the_channels(self, tmp_path):
        images = _images(21, 2, 2, 2, 3)
        path, _ = _idx_spec(tmp_path, images)
        assert np.array_equal(parse_spec(f"idx:path={path},gray=0", rng_stream(1, 101)).samples,
                              _scaled(images))
        assert np.array_equal(parse_spec(f"idx:path={path},gray=1", rng_stream(1, 101)).samples,
                              _scaled(images[..., 0]))


def test_nan_pixels_are_refused():
    with pytest.raises(DomainError, match=r"\[0, 1\]"):
        Dataset(np.array([[0.5, np.nan]]), tag="t")
