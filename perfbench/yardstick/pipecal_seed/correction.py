"""Reduced correction regressors and the additive digital post-correction.

For the first q quantizing stages, each conversion is summarized by a sparse
regressor h: per stage one gain-weighted cumulative code sum (replacing the
indicator of the first code) plus at most one 0/1 indicator for the selected
code. To make the stacked regressor matrix full rank, the last code's
indicator of every stage except stage q is dropped, leaving

    D = sum(p_i, i=1..q) - (q - 1)

entries. The correction itself is y_corrected = y + h . theta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adc import AdcInstance, ConversionBatch, ConversionRecord

__all__ = [
    "CorrectionLayout",
    "SelectionVector",
    "SelectionBatch",
    "model_dimension",
    "selection_vector",
    "selection_vectors",
    "apply_correction",
    "apply_correction_batch",
]


class LayoutError(ValueError):
    """Record and layout disagree about the calibrated stages."""


def model_dimension(sizes) -> int:
    """Number of correction parameters for stage sizes p_1..p_q."""
    sizes = list(sizes)
    if len(sizes) < 1:
        raise LayoutError("need at least one calibrated stage")
    return int(sum(sizes) - (len(sizes) - 1))


@dataclass(frozen=True)
class CorrectionLayout:
    """Index map of the reduced regressor for q calibrated stages.

    sizes -- levels p_i of the calibrated stages
    gains -- ideal gains G_i of those stages (the code-weighting sums use the
             ideal gains; the true gains are unknown to the calibrator)
    """

    sizes: tuple[int, ...]
    gains: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.sizes) != len(self.gains):
            raise LayoutError("need one gain per calibrated stage")
        if len(self.sizes) < 1:
            raise LayoutError("need at least one calibrated stage")

    @classmethod
    def from_adc(cls, adc: AdcInstance, q: int) -> "CorrectionLayout":
        if not 1 <= q <= adc.n_stages:
            raise LayoutError(f"q={q} outside 1..{adc.n_stages} quantizing stages")
        stages = adc.stages[:q]
        return cls(sizes=tuple(s.levels for s in stages), gains=tuple(s.gain for s in stages))

    @property
    def q(self) -> int:
        return len(self.sizes)

    @property
    def dim(self) -> int:
        return model_dimension(self.sizes)

    @property
    def block_starts(self) -> tuple[int, ...]:
        starts = []
        pos = 0
        for i, p in enumerate(self.sizes):
            starts.append(pos)
            pos += (p - 1) if i < self.q - 1 else p
        return tuple(starts)

    def weighted_position(self, stage: int) -> int:
        """Slot of the gain-weighted code sum of stage i (0-based stage)."""
        return self.block_starts[stage]

    def indicator_position(self, stage: int, code_index: int) -> int:
        """Slot of code j's indicator (1-based j), -1 if that code has none.

        Code 1 is absorbed by the weighted entry; the last code of every
        stage but the final calibrated one is the eliminated entry.
        """
        p = self.sizes[stage]
        if not 1 <= code_index <= p:
            raise LayoutError(f"code index {code_index} outside 1..{p}")
        if code_index == 1:
            return -1
        if stage < self.q - 1 and code_index == p:
            return -1
        return self.block_starts[stage] + code_index - 1

    def gain_prefix_products(self) -> np.ndarray:
        """P[t] = G_1 * ... * G_t (P[0] = 1), used by the code-weighting sums."""
        out = np.ones(self.q)
        for t in range(1, self.q):
            out[t] = out[t - 1] * self.gains[t - 1]
        return out


@dataclass(frozen=True)
class SelectionVector:
    """Sparse correction regressor: slot positions plus their values."""

    dim: int
    positions: tuple[int, ...]
    values: tuple[float, ...]

    def dense(self) -> np.ndarray:
        h = np.zeros(self.dim)
        for pos, val in zip(self.positions, self.values):
            h[pos] += val
        return h

    def dot(self, theta: np.ndarray) -> float:
        theta = np.asarray(theta)
        if theta.shape != (self.dim,):
            raise ValueError(f"parameter vector must have length {self.dim}")
        return float(sum(v * theta[p] for p, v in zip(self.positions, self.values)))


class SelectionBatch:
    """Selection vectors for a whole conversion batch, kept sparse.

    weighted[k, i]      -- value of stage i's code-weighting sum for sample k
    indicator_pos[k, i] -- parameter slot of stage i's indicator, -1 if none
    """

    def __init__(self, layout: CorrectionLayout, weighted: np.ndarray, indicator_pos: np.ndarray):
        self.layout = layout
        self.weighted = weighted
        self.indicator_pos = indicator_pos

    def __len__(self) -> int:
        return self.weighted.shape[0]

    def dense(self) -> np.ndarray:
        n, layout = len(self), self.layout
        h = np.zeros((n, layout.dim))
        for i in range(layout.q):
            h[:, layout.weighted_position(i)] = self.weighted[:, i]
        rows = np.arange(n)
        for i in range(layout.q):
            pos = self.indicator_pos[:, i]
            mask = pos >= 0
            h[rows[mask], pos[mask]] = 1.0
        return h

    def dot(self, theta: np.ndarray) -> np.ndarray:
        """h_k . theta for every sample, without densifying."""
        theta = np.asarray(theta)
        if theta.shape != (self.layout.dim,):
            raise ValueError(f"parameter vector must have length {self.layout.dim}")
        out = np.zeros(len(self))
        padded = np.concatenate([theta, [0.0]])   # slot -1 reads as 0
        for i in range(self.layout.q):
            out += self.weighted[:, i] * theta[self.layout.weighted_position(i)]
            out += padded[self.indicator_pos[:, i]]
        return out

    def vector(self, k: int) -> SelectionVector:
        positions, values = [], []
        for i in range(self.layout.q):
            positions.append(self.layout.weighted_position(i))
            values.append(float(self.weighted[k, i]))
            pos = int(self.indicator_pos[k, i])
            if pos >= 0:
                positions.append(pos)
                values.append(1.0)
        return SelectionVector(dim=self.layout.dim, positions=tuple(positions), values=tuple(values))


def selection_vectors(batch: ConversionBatch, layout: CorrectionLayout) -> SelectionBatch:
    """Build the sparse regressors for every conversion in a batch."""
    q = layout.q
    if batch.index.shape[1] - 1 < q:
        raise LayoutError("record lacks stage codes for the calibrated stages")
    prefix = layout.gain_prefix_products()
    n = len(batch)

    weighted = np.zeros((n, q))
    for i in range(q):
        # sum_{l=1..i} x_s,l * P[i-l]
        for l in range(i + 1):
            weighted[:, i] += batch.value[:, l] * prefix[i - l]

    indicator_pos = np.full((n, q), -1, dtype=np.int64)
    for i in range(q):
        j = batch.index[:, i]
        p = layout.sizes[i]
        pos = layout.block_starts[i] + j - 1
        none = (j == 1) | ((j == p) & (i < q - 1))
        indicator_pos[:, i] = np.where(none, -1, pos)

    return SelectionBatch(layout=layout, weighted=weighted, indicator_pos=indicator_pos)


def selection_vector(record: ConversionRecord, layout: CorrectionLayout) -> SelectionVector:
    """Sparse regressor for a single conversion record."""
    q = layout.q
    if len(record.stage_index) - 1 < q:
        raise LayoutError("record lacks stage codes for the calibrated stages")
    prefix = layout.gain_prefix_products()

    positions, values = [], []
    for i in range(q):
        w = sum(record.stage_value[l] * prefix[i - l] for l in range(i + 1))
        positions.append(layout.weighted_position(i))
        values.append(float(w))
        pos = layout.indicator_position(i, record.stage_index[i])
        if pos >= 0:
            positions.append(pos)
            values.append(1.0)
    return SelectionVector(dim=layout.dim, positions=tuple(positions), values=tuple(values))


def apply_correction(y: float, h: SelectionVector, theta: np.ndarray) -> float:
    """Post-corrected output y + h . theta."""
    return float(y) + h.dot(theta)


def apply_correction_batch(y: np.ndarray, sel: SelectionBatch, theta: np.ndarray) -> np.ndarray:
    """Vectorized post-correction for a conversion batch."""
    return np.asarray(y) + sel.dot(theta)
