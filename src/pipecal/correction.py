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
from functools import cached_property

import numpy as np

from .adc import AdcInstance, ConversionBatch, StageSpec

__all__ = [
    "CorrectionLayout",
    "SelectionBatch",
    "model_dimension",
    "selection_vectors",
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

    stages -- specs of the calibrated stages; their code tables and ideal
              gains G_i weight the code sums (the true gains are unknown to
              the calibrator)
    """

    stages: tuple[StageSpec, ...]

    def __post_init__(self) -> None:
        if len(self.stages) < 1:
            raise LayoutError("need at least one calibrated stage")

    @classmethod
    def from_adc(cls, adc: AdcInstance, q: int) -> "CorrectionLayout":
        if not 1 <= q <= adc.n_stages:
            raise LayoutError(f"q={q} outside 1..{adc.n_stages} quantizing stages")
        return cls(stages=adc.stages[:q])

    @property
    def sizes(self) -> tuple[int, ...]:
        """Levels p_i of the calibrated stages."""
        return tuple(s.levels for s in self.stages)

    @property
    def gains(self) -> tuple[float, ...]:
        """Ideal gains G_i of the calibrated stages."""
        return tuple(s.gain for s in self.stages)

    @property
    def q(self) -> int:
        return len(self.stages)

    @property
    def dim(self) -> int:
        return model_dimension(self.sizes)

    @cached_property
    def prefix(self) -> np.ndarray:
        """(q,) gain prefix products P[t] = G_1 * ... * G_t (P[0] = 1), the
        weights of the code-weighting sums."""
        table = np.ones(self.q)
        for t in range(1, self.q):
            table[t] = table[t - 1] * self.gains[t - 1]
        table.setflags(write=False)
        return table

    @cached_property
    def weighted_slots(self) -> np.ndarray:
        """(q,) int64: the parameter slot of each stage's gain-weighted code
        sum, the first of its block; a block holds p_i - 1 slots, p_q for
        the last calibrated stage."""
        table = np.zeros(self.q, dtype=np.int64)
        table[1:] = np.cumsum(np.subtract(self.sizes[:-1], 1))
        table.setflags(write=False)
        return table

    @cached_property
    def code_values(self) -> np.ndarray:
        """(q, max(p_i) + 1) table: row i holds stage i's code values by
        1-based code index, zero-padded on both sides (`StageSpec.code_table`)."""
        table = np.zeros((self.q, max(self.sizes) + 1))
        for i, stage in enumerate(self.stages):
            table[i, :stage.levels + 1] = stage.code_table
        table.setflags(write=False)
        return table

    @cached_property
    def code_slots(self) -> np.ndarray:
        """(q, max(p_i) + 1) table: row i holds the parameter slot of each of
        stage i's code indicators by 1-based code index, -1 for none.

        Code 1 is absorbed by the weighted entry; the last code of every
        stage but the final calibrated one is the eliminated entry. Entry 0
        and the entries past p_i are unused and hold -1.
        """
        table = np.full((self.q, max(self.sizes) + 1), -1, dtype=np.int64)
        for i, (start, p) in enumerate(zip(self.weighted_slots, self.sizes)):
            last = p if i == self.q - 1 else p - 1
            table[i, 2:last + 1] = np.arange(start + 1, start + last)   # code j at start + j - 1
        table.setflags(write=False)
        return table

    def check_codes(self, batch: ConversionBatch, base: int = 0) -> None:
        """Raise LayoutError unless `batch.index` has a row for each of its
        outputs and every calibrated stage i's code index lies in 1..p_i.
        The message numbers the batch's rows from `base`."""
        index = batch.index
        if index.ndim != 2 or index.shape[0] != len(batch) or index.shape[1] - 1 < self.q:
            raise LayoutError(f"batch lacks stage codes for the {self.q} calibrated stages: code "
                              f"indices of shape {index.shape} for {len(batch)} outputs")
        if not np.issubdtype(index.dtype, np.integer):
            raise LayoutError(f"code indices must be integers, not {index.dtype}")
        codes = index[:, :self.q]
        if len(batch) and ((codes.min(axis=0) < 1) | (codes.max(axis=0) > self.sizes)).any():
            k, i = np.argwhere((codes < 1) | (codes > self.sizes))[0]
            raise LayoutError(f"stage {i + 1} code index {codes[k, i]} at row {base + k} "
                              f"outside 1..{self.sizes[i]}")

    def weighted_entries(self, codes: np.ndarray) -> np.ndarray:
        """The q gain-weighted code sums of conversions given by their code indices.

        `codes` holds 1-based code indices with the q calibrated stages on its
        last axis, after any leading shape; so does the result. Entry i is
        0 + v_0 P[i] + v_1 P[i-1] + ... + v_i P[0], summed in that order, with
        v_l stage l's code value from `code_values`.
        """
        values = [self.code_values[l].take(codes[..., l]) for l in range(self.q)]
        out = np.zeros(codes.shape)
        for i in range(self.q):
            for l in range(i + 1):
                out[..., i] += values[l] * self.prefix[i - l]
        return out


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
        h[:, layout.weighted_slots] = self.weighted
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
        for i, slot in enumerate(self.layout.weighted_slots):
            out += self.weighted[:, i] * theta[slot]
            out += padded[self.indicator_pos[:, i]]
        return out


def selection_vectors(batch: ConversionBatch, layout: CorrectionLayout) -> SelectionBatch:
    """Build the sparse regressors for every conversion in a batch."""
    q = layout.q
    layout.check_codes(batch)
    weighted = layout.weighted_entries(batch.index[:, :q])

    indicator_pos = np.empty((len(batch), q), dtype=np.int64)
    for i, slots in enumerate(layout.code_slots):
        indicator_pos[:, i] = slots[batch.index[:, i]]

    return SelectionBatch(layout=layout, weighted=weighted, indicator_pos=indicator_pos)


def apply_correction_batch(y: np.ndarray, sel: SelectionBatch, theta: np.ndarray) -> np.ndarray:
    """Vectorized post-correction for a conversion batch."""
    return np.asarray(y) + sel.dot(theta)
