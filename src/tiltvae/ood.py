"""Out-of-distribution scoring and ROC/AUROC evaluation.

The score of a sample is its plain l2 reconstruction error plus the quadratic
divergence term (||z|| - gamma)^2 / 2 evaluated at the deterministic encoder
mean; higher scores mean more out-of-distribution. Gaussian-prior baselines
use their closed-form divergence as the second term instead. Classification
is a one-sided threshold: scores at or below the threshold are in.
"""

import csv
import io
import json
from dataclasses import dataclass

import numpy as np

from ._csvfloat import format_blocks, write_rows
from .data import Dataset
from .errors import DomainError
from .sampler import RngStream
from .vae import VaeModel, decode, encode

IN_DISTRIBUTION = "in_distribution"
OUT_OF_DISTRIBUTION = "out_of_distribution"


@dataclass(frozen=True)
class ScoredSample:
    recon_term: float
    kld_term: float
    score: float
    label: str | None = None

    def __post_init__(self):
        if self.score != self.recon_term + self.kld_term:
            raise DomainError("score must equal recon_term + kld_term exactly")


def _scored(recon, kld, label=None):
    return ScoredSample(float(recon), float(kld), float(recon) + float(kld), label)


@np.errstate(over="ignore")
def _kld_terms_for_scores(model, mu, log_sigma):
    """Per-sample divergence terms; a term too large for a double is inf,
    without a warning, and the caller decides what a non-finite score means."""
    if model.is_tilted:
        norms = np.linalg.norm(mu, axis=1)
        return 0.5 * (norms - model.prior.gamma) ** 2
    sigma2 = np.exp(2.0 * log_sigma)
    return 0.5 * np.sum(sigma2 + mu * mu - 1.0 - 2.0 * log_sigma, axis=1)


def score_arrays(model: VaeModel, x):
    """(recon, kld) vectors for a (n, d_x) batch; deterministic, no sampling.

    The decoder output is clamped to [0, 1] at scoring time only.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != model.d_x:
        raise DomainError(f"input has {x.shape[1]} features, model expects {model.d_x}")
    mu, log_sigma = encode(model, x)
    xhat = np.clip(decode(model, mu), 0.0, 1.0)
    recon = np.linalg.norm(xhat - x, axis=1)
    return recon, _kld_terms_for_scores(model, mu, log_sigma)


def score(model: VaeModel, x) -> ScoredSample:
    """Score one sample from the deterministic encoder mean."""
    recon, kld = score_arrays(model, np.asarray(x)[None, :])
    return _scored(recon[0], kld[0])


def score_arrays_averaged(model: VaeModel, rng: RngStream, x, draws: int):
    """(recon, kld) vectors with the reconstruction term averaged over
    ``draws`` reparameterized latents; the kld term still uses the mean."""
    if draws < 1:
        raise DomainError(f"draws must be >= 1, got {draws}")
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    mu, log_sigma = encode(model, x)
    sigma = 1.0 if log_sigma is None else np.exp(log_sigma)
    recon = np.zeros(x.shape[0])
    for _ in range(draws):
        z = mu + rng.generator.standard_normal(mu.shape) * sigma
        xhat = np.clip(decode(model, z), 0.0, 1.0)
        recon += np.linalg.norm(xhat - x, axis=1)
    return recon / draws, _kld_terms_for_scores(model, mu, log_sigma)


def score_batch_averaged(model: VaeModel, rng: RngStream, x, draws: int) -> ScoredSample:
    recon, kld = score_arrays_averaged(model, rng, np.asarray(x)[None, :], draws)
    return _scored(recon[0], kld[0])


def score_dataset(model: VaeModel, dataset: Dataset, label=None, chunk: int = 1024):
    """ScoredSample list over a dataset, in row order."""
    out = []
    for i in range(0, dataset.n, chunk):
        recon, kld = score_arrays(model, dataset.samples[i:i + chunk])
        out.extend(_scored(r, k, label) for r, k in zip(recon, kld))
    return out


def score_dataset_averaged(model: VaeModel, rng: RngStream, dataset: Dataset,
                           draws: int, label=None, chunk: int = 1024):
    """score_dataset with the draw-averaged reconstruction term."""
    out = []
    for i in range(0, dataset.n, chunk):
        recon, kld = score_arrays_averaged(model, rng, dataset.samples[i:i + chunk], draws)
        out.extend(_scored(r, k, label) for r, k in zip(recon, kld))
    return out


@dataclass(frozen=True)
class RocCurve:
    """Threshold sweep over all distinct scores plus the two trivial ends."""

    thresholds: np.ndarray  # descending, +inf first, -inf last
    points: np.ndarray      # (len(thresholds), 2) of (fpr, tpr)
    auroc: float

    def to_csv(self, path):
        with open(path, "wb") as fh:
            fh.write(b"threshold,fpr,tpr\n")
            write_rows(fh, np.column_stack([self.thresholds, self.points]))

    def summary_json(self, n_in: int, n_out: int) -> str:
        return json.dumps({"auroc": self.auroc, "n_in": n_in, "n_out": n_out})


def roc(in_scores, out_scores) -> RocCurve:
    """ROC over the one-sided rule "flag when score > threshold".

    The AUROC is the Mann-Whitney statistic P(out > in) + P(out = in)/2,
    which equals the trapezoidal area under the emitted curve. It comes from
    the sorted in-scores the curve already needs: for each out-score, the
    count of in-scores strictly below it plus the count at or below it is
    twice its U contribution, an exact integer, so the AUROC is that sum over
    2 n_in n_out, rounded once.
    """
    in_s = np.asarray(in_scores, dtype=np.float64)
    out_s = np.asarray(out_scores, dtype=np.float64)
    if in_s.size == 0 or out_s.size == 0:
        raise DomainError("both score lists must be non-empty")
    if np.isnan(in_s).any() or np.isnan(out_s).any():
        raise DomainError("scores must not be NaN")
    in_s, out_s = np.sort(in_s), np.sort(out_s)
    thr = np.unique(np.concatenate([in_s, out_s]))[::-1]
    thresholds = np.concatenate([[np.inf], thr, [-np.inf]])
    points = np.column_stack([_frac_above(in_s, thresholds), _frac_above(out_s, thresholds)])
    u2 = int(np.searchsorted(in_s, out_s, side="left").sum()
             + np.searchsorted(in_s, out_s, side="right").sum())
    auroc = u2 / (2 * in_s.size * out_s.size)
    return RocCurve(thresholds=thresholds, points=points, auroc=auroc)


def _frac_above(ordered, thresholds):
    """(scores > t).mean() for every threshold t, from the sorted scores: the
    count above t is n minus the number of them at or below it."""
    return (ordered.size - np.searchsorted(ordered, thresholds, side="right")) / ordered.size


def threshold_classify(scores, threshold: float):
    """Scores at or below the threshold are in-distribution."""
    return [
        IN_DISTRIBUTION if s <= threshold else OUT_OF_DISTRIBUTION
        for s in np.asarray(scores, dtype=np.float64)
    ]


def write_scores_csv(path, scored, tag: str) -> None:
    """The CSV that csv.writer gives for rows (index, repr of each term, tag)."""
    terms = np.column_stack([[s.recon_term for s in scored], [s.kld_term for s in scored],
                             [s.score for s in scored]])
    cell = io.StringIO()
    csv.writer(cell).writerow(["", tag])
    tail = cell.getvalue()  # "," + the tag, quoted as csv.writer quotes it, + "\r\n"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(["sample_index", "recon_term", "kld_term", "score", "dataset_tag"])
        for start, text in format_blocks(terms):
            lines = text.decode("ascii").split("\n")[:-1]
            fh.writelines(f"{i},{line}{tail}" for i, line in enumerate(lines, start))


def read_scores_csv(path) -> np.ndarray:
    """Score column of a CSV written by write_scores_csv. A row too short for
    that column, or a score that is not a finite number, is a DomainError
    naming the file and the line or data row."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or "score" not in header:
            raise DomainError(f"{path}: no 'score' column")
        col = header.index("score")
        try:
            scores = np.array([float(row[col]) for row in reader if row])
        except (IndexError, ValueError):
            raise DomainError(f"{path}:{reader.line_num}: no number in column {col + 1}") from None
    if not scores.size:
        raise DomainError(f"{path}: no score rows")
    if not np.isfinite(scores).all():
        raise DomainError(f"{path}: data row {np.argmin(np.isfinite(scores)) + 1} "
                          "has a score that is not finite")
    return scores
