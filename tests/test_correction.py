import numpy as np
import pytest

from helpers import (
    RowSelection,
    dense_ramp,
    fold_eliminated_entries,
    ls_fit,
    naive_selection_dense,
    toy_adc,
    toy_stage,
    unreduced_transformed_matrix,
)

from pipecal.adc import ConversionBatch, convert_many
from pipecal.correction import (
    CorrectionLayout,
    LayoutError,
    apply_correction_batch,
    model_dimension,
    selection_vectors,
)


@pytest.mark.parametrize("sizes,expected", [((7,), 7), ((7, 7, 7), 19), ((7, 7), 13), ((3, 3), 5)])
def test_model_dimension(sizes, expected):
    assert model_dimension(sizes) == expected


class TestSelectionVector:
    def test_single_stage_middle_code(self):
        adc = toy_adc(zetas=(0.0,), dac_errors=((0.0, 0.0, 0.0),), flash_bits=None)
        layout = CorrectionLayout.from_adc(adc, 1)
        batch = convert_many(adc, [0.0])     # code 2, value 0
        h = selection_vectors(batch, layout)
        assert np.array_equal(h.dense()[0], [0.0, 1.0, 0.0])

    def test_weighted_entries_are_gain_weighted_code_sums(self, mismatched_adc):
        layout = CorrectionLayout.from_adc(mismatched_adc, 3)
        batch = convert_many(mismatched_adc, [0.37])
        h = selection_vectors(batch, layout).dense()[0]
        v = [s.codes[j - 1] for s, j in zip(layout.stages, batch.index[0])]
        assert h[layout.weighted_slots[0]] == pytest.approx(v[0])
        assert h[layout.weighted_slots[1]] == pytest.approx(4.0 * v[0] + v[1])
        assert h[layout.weighted_slots[2]] == pytest.approx(16.0 * v[0] + 4.0 * v[1] + v[2])

    def test_weighted_entries_sum_stages_in_order(self):
        # at gain 3 the products round, so only 0 + v_0 P[i] + ... + v_i P[0],
        # summed in that order as the naive loop does, matches bit for bit
        from pipecal.harness import _build_member, default_config

        adc = _build_member(default_config(11, stage_gain=3.0, stage_levels=5), 0)[0]
        layout = CorrectionLayout.from_adc(adc, 3)
        batch = convert_many(adc, dense_ramp(301))
        sel = selection_vectors(batch, layout)
        weighted = sel.table_weighted[sel.keys]
        for k in range(len(batch)):
            h = naive_selection_dense(batch[k:k + 1], layout)
            assert weighted[k].tolist() == [h[layout.weighted_slots[i]] for i in range(3)]

    def test_eliminated_top_code_has_no_indicator(self):
        adc = toy_adc(zetas=(0.0, 0.0), flash_bits=None)
        layout = CorrectionLayout.from_adc(adc, 2)
        batch = convert_many(adc, [0.9])     # stage 1 selects its top code (eliminated)
        assert batch.index[0, 0] == 3
        h = selection_vectors(batch, layout)
        dense = h.dense()[0]
        positions = layout.q + np.count_nonzero(h.table_slots[h.keys[0]] >= 0)
        # only weighted-code entries may be nonzero in the stage-1 block
        assert dense[1] == 0.0
        assert positions == 2 + 2 or dense[layout.weighted_slots[1]] != 0.0

    def test_first_code_absorbed_by_weighted_entry(self):
        adc = toy_adc(zetas=(0.0, 0.0), flash_bits=None)
        layout = CorrectionLayout.from_adc(adc, 2)
        batch = convert_many(adc, [-0.9])
        assert batch.index[0, 0] == 1
        dense = selection_vectors(batch, layout).dense()[0]
        block = dense[:layout.weighted_slots[1]]
        assert np.count_nonzero(block[1:]) == 0

    def test_sparsity_at_most_two_per_stage(self, mismatched_adc):
        layout = CorrectionLayout.from_adc(mismatched_adc, 3)
        batch = convert_many(mismatched_adc, dense_ramp(501))[::13]
        h = selection_vectors(batch, layout)
        positions = layout.q + np.count_nonzero(h.table_slots[h.keys] >= 0, axis=1)
        assert np.all(positions <= 2 * layout.q)

    def test_batch_matches_single_and_naive(self, mismatched_adc):
        layout = CorrectionLayout.from_adc(mismatched_adc, 3)
        batch = convert_many(mismatched_adc, dense_ramp(301))
        dense = selection_vectors(batch, layout).dense()
        theta = np.random.default_rng(5).normal(size=layout.dim)
        for k in range(0, 301, 7):
            row = batch[k:k + 1]
            expected = naive_selection_dense(row, layout)
            single = selection_vectors(row, layout)
            assert np.allclose(dense[k], expected, atol=1e-12)
            assert np.allclose(single.dense()[0], expected, atol=1e-12)
            assert np.allclose(single.dot(theta)[0], expected @ theta, atol=1e-12)

    def test_batch_dot_matches_dense_product(self, mismatched_adc):
        layout = CorrectionLayout.from_adc(mismatched_adc, 3)
        batch = convert_many(mismatched_adc, dense_ramp(301))
        sel = selection_vectors(batch, layout)
        rng = np.random.default_rng(3)
        theta = rng.normal(size=layout.dim)
        assert np.allclose(sel.dot(theta), sel.dense() @ theta, atol=1e-12)

    def test_requires_enough_stage_codes(self):
        adc = toy_adc(zetas=(0.0, 0.0), flash_bits=None)
        batch = convert_many(adc, [0.1])
        layout = CorrectionLayout(stages=(toy_stage(),) * 3)
        with pytest.raises(LayoutError):
            selection_vectors(batch, layout)

    @pytest.mark.parametrize("malformed, match", [
        (lambda index: index[:2], "shape"),                  # fewer rows than outputs
        (lambda index: index.astype(float), "integers"),
    ])
    def test_rejects_malformed_code_indices(self, malformed, match):
        adc = toy_adc(zetas=(0.0, 0.0), flash_bits=None)
        batch = convert_many(adc, [0.1, 0.2, 0.3])
        forged = ConversionBatch(batch.y, malformed(batch.index))
        with pytest.raises(LayoutError, match=match):
            selection_vectors(forged, CorrectionLayout.from_adc(adc, 2))

    def test_layout_q_bounds(self, mismatched_adc):
        with pytest.raises(LayoutError):
            CorrectionLayout.from_adc(mismatched_adc, 6)
        with pytest.raises(LayoutError):
            CorrectionLayout.from_adc(mismatched_adc, 0)


def bits(values):
    """A float array's bit patterns, so that -0.0 and 0.0 differ."""
    return np.ascontiguousarray(values).view(np.uint64)


class TestCombinationTable:
    """`selection_vectors` reads each conversion's row from a table: of every
    code combination while they are no more than the batch's conversions,
    else of the batch's own rows. Both sides against the per-row oracle, bit
    for bit."""

    @staticmethod
    def assert_matches_oracle(batch, layout, table_rows):
        sel, want = selection_vectors(batch, layout), RowSelection(batch, layout)
        assert sel.table_weighted.shape == sel.table_slots.shape == (table_rows, layout.q)
        assert np.array_equal(bits(sel.table_weighted[sel.keys]), bits(want.weighted))
        assert np.array_equal(sel.table_slots[sel.keys], want.indicator_pos)
        assert np.array_equal(bits(sel.dense()), bits(want.dense()))
        transposed = np.empty((layout.dim, len(batch)))     # accumulate_statistics' gather
        sel.dense(out=transposed)
        assert np.array_equal(bits(transposed.T), bits(want.dense()))
        theta = np.random.default_rng(5).normal(scale=1e-3, size=layout.dim)
        assert np.array_equal(bits(sel.dot(theta)), bits(want.dot(theta)))
        assert np.array_equal(bits(apply_correction_batch(batch.y, sel, theta)),
                              bits(batch.y + want.dot(theta)))

    @staticmethod
    def member(idx, **overrides):
        from pipecal.harness import _build_member, default_config, evaluation_batch

        cfg = default_config(11, **overrides)
        adc, _, layout = _build_member(cfg, idx)
        return evaluation_batch(cfg, idx, adc), layout

    @pytest.mark.parametrize("n", [343, 2000, 16384])
    def test_default_layout_reads_every_combination(self, n):
        # 7^3 = 343 code combinations, at 343 conversions and more
        for idx in range(3):
            batch, layout = self.member(idx)
            self.assert_matches_oracle(batch[:n], layout, 343)

    @pytest.mark.parametrize("n", [1, 342])
    def test_default_layout_below_343_conversions_reads_their_rows(self, n):
        batch, layout = self.member(0)
        self.assert_matches_oracle(batch[:n], layout, n)

    def test_more_combinations_than_any_batch_reads_its_rows(self):
        # the property test's largest layout: 9 levels at q = 6, 531 441 combinations
        batch, layout = self.member(0, stage_levels=9, pipeline_stages=6, q=6)
        self.assert_matches_oracle(batch, layout, len(batch))
        self.assert_matches_oracle(batch[5:6], layout, 1)

    def test_equal_layouts_share_one_read_only_table(self):
        (batch, layout), (_, other) = self.member(0), self.member(1)
        assert other == layout and other is not layout
        first, second = selection_vectors(batch, layout), selection_vectors(batch[:400], other)
        assert second.table_weighted is first.table_weighted
        assert not first.table_weighted.flags.writeable and not first.table_slots.flags.writeable


class TestApplyCorrection:
    def test_zero_parameters_identity(self):
        adc = toy_adc(zetas=(0.0, 0.0), flash_bits=None)
        layout = CorrectionLayout.from_adc(adc, 2)
        batch = convert_many(adc, [0.3])
        h = selection_vectors(batch, layout)
        assert apply_correction_batch(batch.y, h, np.zeros(layout.dim))[0] == batch.y[0]

    def test_single_indicator_adds_its_parameter(self):
        adc = toy_adc(zetas=(0.0,), flash_bits=None)
        layout = CorrectionLayout.from_adc(adc, 1)
        batch = convert_many(adc, [0.0])    # h == [0, 1, 0]
        theta = np.array([0.7, -0.3, 0.9])
        assert apply_correction_batch(batch.y, selection_vectors(batch, layout), theta)[0] == \
            pytest.approx(batch.y[0] - 0.3, abs=1e-15)

    def test_additive_in_parameters(self, mismatched_adc):
        layout = CorrectionLayout.from_adc(mismatched_adc, 3)
        batch = convert_many(mismatched_adc, [0.52])
        h = selection_vectors(batch, layout)
        rng = np.random.default_rng(0)
        t1, t2 = rng.normal(size=(2, layout.dim))
        lhs = apply_correction_batch(batch.y, h, t1 + t2)[0]
        rhs = apply_correction_batch(batch.y, h, t1)[0] + apply_correction_batch([0.0], h, t2)[0]
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_dimension_mismatch(self, mismatched_adc):
        layout = CorrectionLayout.from_adc(mismatched_adc, 3)
        batch = convert_many(mismatched_adc, [0.1])
        with pytest.raises(ValueError):
            apply_correction_batch(batch.y, selection_vectors(batch, layout), np.zeros(5))

    def test_oracle_reduced_parameters_cancel_nonlinearity(self):
        # real-flash toy: the LS-fit parameters must bring the residual down
        # to the back-end quantization bound
        adc = toy_adc(zetas=(0.03, -0.02),
                      dac_errors=((0.003, -0.002, 0.001), (-0.001, 0.002, -0.003)),
                      flash_bits=3)
        layout = CorrectionLayout.from_adc(adc, 2)
        x = dense_ramp(4001)
        beta, theta = ls_fit(adc, layout, x)
        batch = convert_many(adc, x)
        sel = selection_vectors(batch, layout)
        resid = apply_correction_batch(batch.y, sel, theta) - beta * x
        bound = (0.125 / 4.0) * 1.5   # flash half-step over the stage gains, with margin
        assert np.max(np.abs(resid)) <= bound


class TestRankProperties:
    def test_reduced_full_rank_and_unreduced_deficiency_toy(self):
        adc = toy_adc(zetas=(0.01, -0.02),
                      dac_errors=((0.002, -0.001, 0.003), (-0.002, 0.001, 0.002)),
                      flash_bits=None)
        layout = CorrectionLayout.from_adc(adc, 2)
        x = dense_ramp(2001)
        batch, ht = unreduced_transformed_matrix(adc, layout, x)
        assert np.linalg.matrix_rank(ht) == sum(layout.sizes) - (layout.q - 1)
        reduced = selection_vectors(batch, layout).dense()
        assert np.linalg.matrix_rank(reduced) == layout.dim

    def test_reduced_full_rank_and_unreduced_deficiency_default(self, mismatched_adc):
        layout = CorrectionLayout.from_adc(mismatched_adc, 3)
        x = 0.995 * np.sin(0.677 * np.arange(4000))
        batch, ht = unreduced_transformed_matrix(mismatched_adc, layout, x)
        assert np.linalg.matrix_rank(ht) == sum(layout.sizes) - (layout.q - 1)
        reduced = selection_vectors(batch, layout).dense()
        assert np.linalg.matrix_rank(reduced) == layout.dim


def test_offset_folding_reduction_preserves_predictions_up_to_constant():
    # the test-only reduction: predictions of the folded vector may differ from
    # the unreduced ones only by a constant, on samples where no stage selected
    # its eliminated code
    adc = toy_adc(zetas=(0.01, -0.02),
                  dac_errors=((0.002, -0.001, 0.003), (-0.002, 0.001, 0.002)),
                  flash_bits=None)
    layout = CorrectionLayout.from_adc(adc, 2)
    x = dense_ramp(2001)
    batch, ht = unreduced_transformed_matrix(adc, layout, x)
    rng = np.random.default_rng(11)
    theta_tilde = rng.normal(scale=0.01, size=sum(layout.sizes))
    theta = fold_eliminated_entries(theta_tilde, layout.sizes)

    reduced = selection_vectors(batch, layout).dense()
    diff = ht @ theta_tilde - reduced @ theta
    # exclude stage-1 eliminated-code and stage-2 absorbed-code samples
    clean = (batch.index[:, 0] != layout.sizes[0]) & (batch.index[:, 1] != 1)
    assert clean.sum() > 100
    assert np.ptp(diff[clean]) < 1e-12
