/* BL-HEC SGD over samples k0..k1-1 of one converter's stream of `total` pairs
 * at fixed step sizes: tests/helpers.py::sgd_loop's operations in its order,
 * so bit-identical to it when built with -ffp-contract=off (a fused
 * multiply-add rounds once where the loop rounds twice). The arrays hold the
 * `rows` samples of the stream from `base` on, so sample k sits at row
 * k - base; k0, k1, `total`, the guard cadence and the returned sample count
 * are global. `codes_x`/`codes_ax` are the pair batches' calibrated int64
 * code-index columns, column-major: sample k's stage-i code is
 * codes[i * rows + (k - base)]. `values`/`slots` give each stage's code value
 * and indicator slot (-1: none) by code index, `width` entries per stage.
 * Returns 0, or the sample count at which a guard check found
 * ||theta||_inf > guard or theta_alpha not finite.
 */
#include <math.h>
#include <stdint.h>

int64_t pipecal_sgd(int64_t k0, int64_t k1, int64_t total, int64_t base, int64_t rows,
                    int64_t guard_every, const double *y_x, const double *y_ax,
                    const int64_t *codes_x, const int64_t *codes_ax, int64_t q, int64_t width,
                    const double *values, const int64_t *slots, const double *prefix,
                    const int64_t *weighted, double *theta, int64_t dim,
                    double *theta_alpha, double alpha_d, double mu_nl, double mu_alpha, double guard)
{
    const double *outputs[2] = {y_x, y_ax};
    const int64_t *codes[2] = {codes_x, codes_ax};
    double w[2][q], v[q], y[2], ta = *theta_alpha;
    int64_t ind[2][q], status = 0;

    for (int64_t k = k0; k < k1 && !status; k++) {
        /* y + h . theta of the unscaled (p = 0) and the scaled (p = 1) conversion */
        for (int p = 0; p < 2; p++) {
            y[p] = outputs[p][k - base];
            for (int64_t i = 0; i < q; i++) {
                int64_t code = codes[p][i * rows + (k - base)];
                v[i] = values[i * width + code];
                ind[p][i] = slots[i * width + code];
                w[p][i] = 0.0;
                for (int64_t l = 0; l <= i; l++)
                    w[p][i] += v[l] * prefix[i - l];
                y[p] += w[p][i] * theta[weighted[i]];
                if (ind[p][i] >= 0)
                    y[p] += theta[ind[p][i]];
            }
        }
        double e_alpha = y[1] - (alpha_d + ta) * y[0];
        ta += mu_alpha * y[0] * e_alpha;

        double c = alpha_d + ta;
        double g = mu_nl * (y[1] - c * y[0]);
        double gc = g * c;
        for (int64_t i = 0; i < q; i++) {
            theta[weighted[i]] -= g * w[1][i] - gc * w[0][i];
            if (ind[1][i] >= 0)
                theta[ind[1][i]] -= g;
            if (ind[0][i] >= 0)
                theta[ind[0][i]] += gc;
        }

        int64_t kk = k + 1;
        if (kk % guard_every == 0 || kk == total) {
            /* negated comparisons so that NaN fails the check too */
            status = isfinite(ta) ? 0 : kk;
            for (int64_t s = 0; s < dim; s++)
                if (!(fabs(theta[s]) <= guard))
                    status = kk;
        }
    }
    *theta_alpha = ta;
    return status;
}
