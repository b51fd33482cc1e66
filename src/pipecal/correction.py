"""Reduced correction regressors and the additive digital post-correction.

For the first q quantizing stages, each conversion is summarized by a sparse
regressor h: per stage one gain-weighted cumulative code sum (replacing the
indicator of the first code) plus at most one 0/1 indicator for the selected
code. To make the stacked regressor matrix full rank, the last code's
indicator of every stage except stage q is dropped, leaving

    D = sum(p_i, i=1..q) - (q - 1)

entries. The correction itself is y_corrected = y + h . theta.

h depends only on the q calibrated code indices, so each conversion reads h
from a table by a key over them: every code combination, built once per layout,
or the batch's own rows where those are fewer. The SGD loop reads the same.
"""

from __future__ import annotations

import functools
import math
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

    def table_rows(self, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The regressor rows of conversions given by their (K, q) code indices,
        as two (K, q) arrays: the gain-weighted code sums (`weighted_entries`)
        and the indicator slots (`code_slots`, -1 for none)."""
        slots = np.empty(codes.shape, dtype=np.int64)
        for i, stage_slots in enumerate(self.code_slots):
            slots[:, i] = stage_slots[codes[:, i]]
        return self.weighted_entries(codes), slots

    def weighted_entries(self, codes: np.ndarray) -> np.ndarray:
        """The q gain-weighted code sums of conversions given by their code indices.

        `codes` holds 1-based code indices with the q calibrated stages on its
        last axis, after any leading shape; so does the result. Entry i is
        0 + v_0 P[i] + v_1 P[i-1] + ... + v_i P[0], summed in that order, with
        v_l stage l's code value from its `StageSpec.code_table`.
        """
        values = [stage.code_table.take(codes[..., l]) for l, stage in enumerate(self.stages)]
        out = np.zeros(codes.shape)
        for i in range(self.q):
            for l in range(i + 1):
                out[..., i] += values[l] * self.prefix[i - l]
        return out


class SelectionBatch:
    """Selection vectors for a whole conversion batch, kept sparse: sample k's
    regressor is row keys[k] of a table (`selection_vectors` says which rows).

    table_weighted[r, i] -- value of stage i's code-weighting sum in table row r
    table_slots[r, i]    -- parameter slot of stage i's indicator in row r, -1 if none
    table_codes[r, i]    -- stage i's 1-based code index in row r
    keys[k]              -- sample k's table row
    """

    def __init__(self, layout: CorrectionLayout, table_weighted: np.ndarray,
                 table_slots: np.ndarray, table_codes: np.ndarray, keys: np.ndarray):
        self.layout = layout
        self.table_weighted = table_weighted
        self.table_slots = table_slots
        self.table_codes = table_codes
        self.keys = keys

    def __len__(self) -> int:
        return self.keys.shape[0]

    def dense(self) -> np.ndarray:
        """The (N, D) dense regressors, gathered by key from the table's rows made dense."""
        layout = self.layout
        h = np.zeros((len(self.table_weighted), layout.dim))
        h[:, layout.weighted_slots] = self.table_weighted
        rows, stages = np.nonzero(self.table_slots >= 0)
        h[rows, self.table_slots[rows, stages]] = 1.0
        return h[self.keys]

    def dot(self, theta: np.ndarray) -> np.ndarray:
        """h_k . theta for every sample, without densifying: once per table row."""
        theta = np.asarray(theta)
        if theta.shape != (self.layout.dim,):
            raise ValueError(f"parameter vector must have length {self.layout.dim}")
        out = np.zeros(len(self.table_weighted))
        padded = np.concatenate([theta, [0.0]])   # slot -1 reads as 0
        for i, slot in enumerate(self.layout.weighted_slots):
            out += self.table_weighted[:, i] * theta[slot]
            out += padded[self.table_slots[:, i]]
        return out[self.keys]


@functools.lru_cache(maxsize=16)
def _combination_table(layout: CorrectionLayout) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`CorrectionLayout.table_rows` of every code combination, in key order,
    and the combinations' code indices, read-only; built on first use, once
    per distinct layout."""
    codes = np.indices(layout.sizes).reshape(layout.q, -1).T + 1
    rows = (*layout.table_rows(codes), codes)
    for table in rows:
        table.setflags(write=False)
    return rows


def _select(batch: ConversionBatch, layout: CorrectionLayout) -> SelectionBatch:
    """`selection_vectors` of a batch whose codes were checked."""
    codes, sizes = batch.index[:, :layout.q], layout.sizes
    if math.prod(sizes) > len(batch):
        return SelectionBatch(layout, *layout.table_rows(codes), codes, np.arange(len(batch)))
    keys = codes[:, 0].astype(np.int64)
    for p, column in zip(sizes[1:], codes.T[1:]):
        keys *= p
        keys += column
    keys -= functools.reduce(lambda offset, p: offset * p + 1, sizes[1:], 1)     # codes from 1
    return SelectionBatch(layout, *_combination_table(layout), keys)


def selection_vectors(batch: ConversionBatch, layout: CorrectionLayout) -> SelectionBatch:
    """Build the sparse regressors for every conversion in a batch: its mixed-radix
    key over its q code indices, stage 1 most significant, into the table of every
    code combination while Π p_i <= N, else the batch's own rows with keys 0..N-1."""
    layout.check_codes(batch)
    return _select(batch, layout)


def apply_correction_batch(y: np.ndarray, sel: SelectionBatch, theta: np.ndarray) -> np.ndarray:
    """Vectorized post-correction for a conversion batch."""
    return np.asarray(y) + sel.dot(theta)
