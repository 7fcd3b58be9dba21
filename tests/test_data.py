"""Dataset tests: hand-built IDX fixtures, generator statistics, channel
conversions, and spec-string parsing."""

import struct

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
    resize_nearest,
    subsample,
    to_grayscale,
    to_rgb,
)
from tiltvae.errors import DomainError
from tiltvae.sampler import RngStream

from idx_files import write_idx


def _idx_image_bytes(n, h, w, pixels):
    return bytes([0, 0, 8, 3]) + struct.pack(">3I", n, h, w) + bytes(pixels)


class TestIdx:
    def test_load_two_28x28_images(self, tmp_path):
        pixels = [(i * 7) % 256 for i in range(2 * 28 * 28)]
        path = tmp_path / "imgs.idx"
        path.write_bytes(_idx_image_bytes(2, 28, 28, pixels))
        ds = load_idx(path)
        assert (ds.n, ds.d_x, ds.height, ds.width, ds.channels) == (2, 784, 28, 28, 1)
        assert ds.samples[0, 1] == pytest.approx(7 / 255)
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
    ])
    def test_header_refusal_names_the_file(self, tmp_path, raw, message):
        path = tmp_path / "bad.idx"
        path.write_bytes(raw)
        with pytest.raises(IdxFormatError) as err:
            load_idx(path)
        assert str(err.value) == f"{path}: {message}"

    def test_roundtrip_exact_at_8_bit(self, tmp_path):
        ds = gen_noise(RngStream(3), 5, 4, 6)
        imgs = tmp_path / "rt.idx"
        write_idx(ds, imgs)
        back = load_idx(imgs)
        assert np.array_equal(back.samples, ds.samples)
        assert (back.height, back.width, back.channels) == (4, 6, 1)

    def test_roundtrip_rgb(self, tmp_path):
        ds = gen_noise(RngStream(4), 3, 4, 4, c=3)
        imgs = tmp_path / "rgb.idx"
        write_idx(ds, imgs)
        back = load_idx(imgs)
        assert back.channels == 3
        assert np.array_equal(back.samples, ds.samples)


class TestGenerators:
    def test_noise_levels_and_mean(self):
        ds = gen_noise(RngStream(5), 10**4, 8, 8)
        assert ds.tag == "noise"
        assert ds.samples.mean() == pytest.approx(0.5, abs=0.01)
        scaled = ds.samples * 255.0
        assert np.allclose(scaled, np.round(scaled))

    def test_noise_single_row_range(self):
        ds = gen_noise(RngStream(6), 1, 8, 8)
        assert ds.n == 1
        assert ds.samples.min() >= 0.0 and ds.samples.max() <= 1.0

    def test_noise_deterministic(self):
        a = gen_noise(RngStream(7), 10, 4, 4)
        b = gen_noise(RngStream(7), 10, 4, 4)
        assert np.array_equal(a.samples, b.samples)

    def test_constant_images_are_flat(self):
        ds = gen_constant(RngStream(8), 100, 6, 6)
        assert ds.tag == "constant"
        spread = ds.samples.max(axis=1) - ds.samples.min(axis=1)
        assert np.all(spread == 0.0)

    def test_constant_level_uniformity(self):
        ds = gen_constant(RngStream(9), 10**4, 2, 2)
        levels = np.round(ds.samples[:, 0] * 255.0).astype(int)
        counts = np.bincount(levels, minlength=256)
        assert chisquare(counts).pvalue > 0.001

    def test_blobs_zero_radius_single_pixel(self):
        ds = gen_blobs(RngStream(10), 4, 5, 5, [((2.0, 3.0), 0.0, 1.0)], noise=0.0)
        img = ds.samples[0].reshape(5, 5)
        assert img[2, 3] == 1.0
        assert img.sum() == 1.0

    def test_blobs_bimodal_kmeans_stability(self):
        ds = gen_blobs(RngStream(11), 1000, 16, 16, blob_preset("two", 16, 16))
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
        a = gen_blobs(RngStream(12), 10, 8, 8, modes)
        b = gen_blobs(RngStream(12), 10, 8, 8, modes)
        assert np.array_equal(a.samples, b.samples)
        assert a.tag.startswith("blobs[(4.0,4.0,r=2.0,i=1.0)]")

    def test_blobs_need_modes(self):
        with pytest.raises(DomainError):
            gen_blobs(RngStream(13), 10, 8, 8, [])


class TestChannels:
    def test_grayscale_takes_first_channel(self):
        samples = np.zeros((1, 2 * 2 * 3))
        img = samples.reshape(1, 2, 2, 3)
        img[0, :, :, 0] = 0.25
        img[0, :, :, 1] = 0.5
        img[0, :, :, 2] = 0.75
        ds = Dataset(samples, 2, 2, 3, tag="t")
        gray = to_grayscale(ds)
        assert gray.channels == 1
        assert np.all(gray.samples == 0.25)

    def test_rgb_copies_first_channel(self):
        ds = gen_noise(RngStream(14), 3, 4, 4)
        rgb = to_rgb(ds)
        img = rgb.samples.reshape(3, 4, 4, 3)
        assert np.array_equal(img[..., 0], img[..., 1])
        assert np.array_equal(img[..., 0], img[..., 2])

    def test_roundtrip_identity(self):
        ds = gen_noise(RngStream(15), 3, 4, 4)
        back = to_grayscale(to_rgb(ds))
        assert np.array_equal(back.samples, ds.samples)

    def test_channel_count_validation(self):
        ds = gen_noise(RngStream(16), 2, 4, 4)
        with pytest.raises(DomainError):
            to_grayscale(ds)
        with pytest.raises(DomainError):
            to_rgb(to_rgb(ds))


class TestTransforms:
    def test_resize_nearest_exact_mapping(self):
        samples = np.arange(16, dtype=np.float64)[None, :] / 16.0
        ds = Dataset(samples, 4, 4, 1, tag="t")
        up = resize_nearest(ds, 2, 2)
        img = up.samples.reshape(2, 2)
        orig = samples.reshape(4, 4)
        assert np.array_equal(img, orig[::2, ::2])

    def test_subsample_deterministic_ordered(self):
        ds = gen_noise(RngStream(17), 50, 2, 2)
        a = subsample(ds, RngStream(18), 10)
        b = subsample(ds, RngStream(18), 10)
        assert np.array_equal(a.samples, b.samples)
        assert a.n == 10
        # original relative order preserved
        idx = [int(np.where((ds.samples == row).all(axis=1))[0][0]) for row in a.samples]
        assert idx == sorted(idx)


class TestParseSpec:
    def test_noise_spec(self):
        ds = parse_spec("noise:n=5,h=4,w=4,c=1", seed=1)
        assert (ds.n, ds.d_x) == (5, 16)

    def test_blobs_preset_and_explicit_modes(self):
        a = parse_spec("blobs:n=5,h=16,w=16,preset=two", seed=1)
        b = parse_spec("blobs:n=5,h=16,w=16,modes=4.8x4.8x2x1+11.2x11.2x2x1", seed=1)
        assert a.n == b.n == 5

    def test_seed_determinism(self):
        a = parse_spec("noise:n=5,h=4,w=4", seed=9)
        b = parse_spec("noise:n=5,h=4,w=4", seed=9)
        c = parse_spec("noise:n=5,h=4,w=4", seed=10)
        assert np.array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    def test_idx_spec_with_transforms(self, tmp_path):
        ds = gen_noise(RngStream(20), 4, 8, 8)
        path = tmp_path / "x.idx"
        write_idx(ds, path)
        out = parse_spec(f"idx:path={path},resize=4,rgb=1,max=2", seed=1)
        assert (out.n, out.height, out.width, out.channels) == (2, 4, 4, 3)

    def test_errors(self):
        with pytest.raises(DomainError, match="missing key 'n'"):
            parse_spec("noise:h=4,w=4", seed=1)
        with pytest.raises(DomainError, match="unknown data spec kind"):
            parse_spec("mnist:n=1", seed=1)
        with pytest.raises(DomainError, match="unrecognized keys"):
            parse_spec("noise:n=1,h=4,w=4,zoom=2", seed=1)
        with pytest.raises(DomainError, match="preset= or modes="):
            parse_spec("blobs:n=1,h=4,w=4", seed=1)


class TestDatasetValidation:
    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            Dataset(np.array([[1.5]]), 1, 1, 1, tag="t")

    def test_rejects_inconsistent_shape(self):
        with pytest.raises(DomainError):
            Dataset(np.zeros((2, 5)), 2, 2, 1, tag="t")


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
    ])
    def test_refused_naming_the_spec(self, spec, message):
        with pytest.raises(DomainError) as err:
            parse_spec(spec, seed=1)
        assert str(err.value) == f"data spec {spec!r}: {message}"

    def test_gray_0_keeps_the_channels(self, tmp_path):
        path, gray = tmp_path / "rgb.idx", tmp_path / "gray.idx"
        write_idx(gen_noise(RngStream(21), 2, 2, 2, c=3), path)
        write_idx(gen_noise(RngStream(22), 2, 2, 2), gray)
        assert parse_spec(f"idx:path={path},gray=0", seed=1).channels == 3
        assert parse_spec(f"idx:path={path},gray=1", seed=1).channels == 1
        # A conversion the file's channel count does not allow names the spec.
        for spec, message in [(f"idx:path={gray},gray=1", "to_grayscale needs 3 channels, got 1"),
                              (f"idx:path={path},rgb=1", "to_rgb needs 1 channel, got 3")]:
            with pytest.raises(DomainError) as err:
                parse_spec(spec, seed=1)
            assert str(err.value) == f"data spec {spec!r}: {message}"


def test_nan_pixels_are_refused():
    with pytest.raises(DomainError, match=r"\[0, 1\]"):
        Dataset(np.array([[0.5, np.nan]]), 1, 2, 1, tag="t")
