"""The array float writer against Python's own repr, value by value."""

import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltvae._csvfloat import write_rows
from tiltvae.ood import RocCurve, ScoredSample, write_scores_csv


def _written(values):
    fh = io.BytesIO()
    write_rows(fh, values)
    return fh.getvalue()


def _assert_repr_rows(values):
    """write_rows gives ",".join(map(repr, row)) + "\\n" for every row; on a
    mismatch, name the first value that differs."""
    values = np.asarray(values, dtype=np.float64)
    got = _written(values).decode("ascii").split("\n")
    assert len(got) == values.shape[0] + 1 and got[-1] == ""
    for line, row in zip(got, values.tolist()):
        expected = ",".join(map(repr, row))
        if line != expected:
            for field, x in zip(line.split(","), row):
                assert field == repr(x), f"{x.hex()}: wrote {field!r}, repr is {repr(x)!r}"
            assert line == expected


def _neighbours(x):
    x = np.asarray(x, dtype=np.float64)
    return np.concatenate([x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf)])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                         min_size=3, max_size=3), min_size=1, max_size=20))
def test_hypothesis_floats(rows):
    _assert_repr_rows(rows)


def test_specials_and_zeros():
    _assert_repr_rows([[0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                        2.2250738585072014e-308, 1.7976931348623157e308, -1.0, 0.5]])


def test_random_bit_patterns():
    bits = np.random.default_rng(20240).integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max,
                                                 size=10**6, dtype=np.int64, endpoint=True)
    _assert_repr_rows(bits.view(np.float64).reshape(-1, 250))


def test_random_bit_patterns_in_the_array_range():
    # Exponents of 1e-4 up to 2^52, where every value is formatted by the arrays.
    gen = np.random.default_rng(20241)
    exponent = gen.integers(1009, 1076, size=2 * 10**5, dtype=np.int64)
    mantissa = gen.integers(0, 2**52, size=exponent.size, dtype=np.int64)
    _assert_repr_rows(((exponent << 52) | mantissa).view(np.float64).reshape(-1, 100))


def test_powers_of_two_and_their_neighbours():
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    both = np.concatenate([powers, -powers])
    _assert_repr_rows(_neighbours(both).reshape(-1, 4))


def test_integral_values_from_2_pow_53_to_1e16():
    gen = np.random.default_rng(20242)
    ints = gen.integers(2**53, 10**16, size=10**5).astype(np.float64)
    edges = [2.0**53, 2.0**53 + 2, 1e16 - 2, 4503599627370495.5, 4503599627370496.0]
    _assert_repr_rows(np.concatenate([ints, edges, -ints[:100]]).reshape(-1, 5))


def test_either_side_of_the_array_range():
    edges = _neighbours([1e-4, 1e16, 1e-3, 0.1, 1.0, 1e15])
    twice = _neighbours(edges)
    _assert_repr_rows(np.concatenate([twice, -twice]).reshape(-1, 6))


def test_powers_of_ten_and_their_neighbours():
    tens = np.array([float(f"1e{j}") for j in range(-6, 18)])
    _assert_repr_rows(_neighbours(_neighbours(tens)).reshape(-1, 8))


def test_short_decimals():
    gen = np.random.default_rng(20243)
    u = gen.random(10**5) * 10.0 ** gen.integers(-5, 17, size=10**5)
    places = gen.integers(0, 18, size=u.size)
    rounded = [round(x, int(d)) for x, d in zip(u.tolist(), places)]
    _assert_repr_rows(np.array(rounded).reshape(-1, 10))


def test_dyadic_rationals():
    gen = np.random.default_rng(20244)
    x = gen.integers(1, 2**20, size=10**5) / 2.0 ** gen.integers(1, 45, size=10**5)
    _assert_repr_rows(x.reshape(-1, 10))


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (1, 1), (20000, 3), (2, 40000)])
def test_shapes_and_block_boundaries(shape):
    values = np.random.default_rng(20245).standard_normal(shape) * 1e3
    expected = "".join(",".join(map(repr, row)) + "\n" for row in values.tolist())
    assert _written(values) == expected.encode()


def test_roc_csv_bytes(tmp_path):
    thresholds = np.array([np.inf, 3.25, 1 / 3, 1e-7, -np.inf])
    points = np.array([[0.0, 0.0], [0.125, 0.5], [1 / 7, 2 / 3], [6.25e-05, 1.0], [1.0, 1.0]])
    path = tmp_path / "roc.csv"
    RocCurve(thresholds=thresholds, points=points, auroc=0.5).to_csv(path)
    expected = "threshold,fpr,tpr\n" + "".join(
        f"{t!r},{f!r},{p!r}\n" for t, (f, p) in zip(thresholds.tolist(), points.tolist()))
    assert path.read_bytes() == expected.encode()


@pytest.mark.parametrize("tag", ["noise", "blobs[(4.8,4.8,r=2.0,i=1.0)],noise=0.02", 'a"b', ""])
def test_scores_csv_bytes_match_csv_writer(tmp_path, tag):
    gen = np.random.default_rng(20246)
    terms = [(float(a), float(b)) for a, b in gen.random((7000, 2)) * 10.0]
    terms += [(np.inf, 1.0), (1e-300, 2e20), (0.0, -0.0)]
    scored = [ScoredSample(a, b, a + b) for a, b in terms]
    path = tmp_path / "s.csv"
    write_scores_csv(path, scored, tag)
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["sample_index", "recon_term", "kld_term", "score", "dataset_tag"])
    for i, s in enumerate(scored):
        writer.writerow([i, repr(s.recon_term), repr(s.kld_term), repr(s.score), tag])
    assert path.read_bytes() == expected.getvalue().encode()
