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
    write_idx,
)
from tiltvae.errors import DomainError
from tiltvae.sampler import RngStream


def _idx_image_bytes(n, h, w, pixels):
    return bytes([0, 0, 8, 3]) + struct.pack(">3I", n, h, w) + bytes(pixels)


def _idx_label_bytes(labels):
    return bytes([0, 0, 8, 1]) + struct.pack(">I", len(labels)) + bytes(labels)


class TestIdx:
    def test_load_two_28x28_images(self, tmp_path):
        pixels = [(i * 7) % 256 for i in range(2 * 28 * 28)]
        path = tmp_path / "imgs.idx"
        path.write_bytes(_idx_image_bytes(2, 28, 28, pixels))
        ds = load_idx(path)
        assert (ds.n, ds.d_x, ds.height, ds.width, ds.channels) == (2, 784, 28, 28, 1)
        assert ds.samples[0, 1] == pytest.approx(7 / 255)
        assert ds.samples.min() >= 0.0 and ds.samples.max() <= 1.0

    def test_load_labels(self, tmp_path):
        imgs = tmp_path / "imgs.idx"
        labels = tmp_path / "labels.idx"
        imgs.write_bytes(_idx_image_bytes(2, 2, 2, [0, 64, 128, 255] * 2))
        labels.write_bytes(_idx_label_bytes([3, 9]))
        ds = load_idx(imgs, labels)
        assert list(ds.labels) == [3, 9]

    def test_truncated_payload_names_byte_counts(self, tmp_path):
        raw = _idx_image_bytes(2, 28, 28, [0] * 100)
        path = tmp_path / "trunc.idx"
        path.write_bytes(raw)
        with pytest.raises(IdxFormatError, match="expected 1568 bytes, got 100"):
            load_idx(path)

    def test_trailing_bytes_are_refused_in_image_and_label_files(self, tmp_path):
        imgs, labels = tmp_path / "imgs.idx", tmp_path / "labels.idx"
        imgs.write_bytes(_idx_image_bytes(2, 2, 2, [0] * 8) + b"\x00" * 3)
        labels.write_bytes(_idx_label_bytes([1, 2]))
        with pytest.raises(IdxFormatError, match=f"{imgs}: 3 trailing bytes .* offset 24"):
            load_idx(imgs, labels)
        imgs.write_bytes(_idx_image_bytes(2, 2, 2, [0] * 8))
        labels.write_bytes(_idx_label_bytes([1, 2]) + b"\x07")
        with pytest.raises(IdxFormatError, match=f"{labels}: 1 trailing bytes"):
            load_idx(imgs, labels)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(b"\x00\x00\x09\x03" + b"\x00" * 12)
        with pytest.raises(IdxFormatError, match="bad magic"):
            load_idx(path)

    def test_label_count_mismatch(self, tmp_path):
        imgs = tmp_path / "imgs.idx"
        labels = tmp_path / "labels.idx"
        imgs.write_bytes(_idx_image_bytes(2, 2, 2, [0] * 8))
        labels.write_bytes(_idx_label_bytes([1, 2, 3]))
        with pytest.raises(IdxFormatError, match="3 labels for 2 images"):
            load_idx(imgs, labels)

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
