"""ROC/AUROC evaluation of out-of-distribution scores, and score-CSV I/O.

A sample's score comes from ``vae.score_arrays``; higher scores mean more
out-of-distribution. The ROC sweeps the one-sided rule "flag when score >
threshold". A score CSV holds each row's two terms and their sum.
"""

import csv
import io
import json
from dataclasses import dataclass

import numpy as np

from ._csvfloat import format_blocks, write_rows
from .errors import DomainError


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


def write_scores_csv(path, recon, kld, tag: str) -> None:
    """The CSV that csv.writer gives for rows (index, recon, kld, recon + kld,
    tag), each float as its repr."""
    recon, kld = np.asarray(recon, dtype=np.float64), np.asarray(kld, dtype=np.float64)
    cell = io.StringIO()
    csv.writer(cell).writerow(["", tag])
    tail = cell.getvalue()  # "," + the tag, quoted as csv.writer quotes it, + "\r\n"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(["sample_index", "recon_term", "kld_term", "score", "dataset_tag"])
        for start, text in format_blocks(np.column_stack([recon, kld, recon + kld])):
            lines = text.decode("ascii").split("\n")[:-1]
            fh.writelines(f"{i},{line}{tail}" for i, line in enumerate(lines, start))


def read_scores_csv(path) -> np.ndarray:
    """Score column of a CSV written by write_scores_csv. A row too short for
    that column, or a score that is not a finite number, is a DomainError
    naming the file and the line or data row, as is a file that does not decode."""
    try:
        with open(path, newline="") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: {exc}") from None
    reader = csv.reader(io.StringIO(text, newline=""))
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
