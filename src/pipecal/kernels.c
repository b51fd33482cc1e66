/* The package's compiled kernels, built on first use by pipecal/kernels.py with
 * -ffp-contract=off: a fused multiply-add rounds once where the numpy oracles
 * round twice, so contraction would break bit-identity with them. Neither
 * kernel reassociates a sum, so each result is the oracle's at any vector width.
 */
#include <math.h>
#include <stdint.h>

/* target_clones compiles pipecal_convert once per ISA and picks a clone at
 * load time through an ifunc, which needs GNU C on x86-64 with glibc.
 * Elsewhere, or built with -DPIPECAL_PLAIN, it is one plain function. */
#if defined(__x86_64__) && defined(__GLIBC__) && defined(__has_attribute) && !defined(PIPECAL_PLAIN)
#if __has_attribute(target_clones)
#define PIPECAL_CLONES __attribute__((target_clones("avx512f", "avx2", "default")))
#endif
#endif
#ifndef PIPECAL_CLONES
#define PIPECAL_CLONES
#endif

/* samples converted together, stage by stage: their residues stay in L1 */
#define CONVERT_BLOCK 512

/* The pipeline recursion of tests/helpers.py::searchsorted_convert for the n
 * inputs x, stage-major over blocks of samples. Stage i (0..stages, the last
 * the back end) has levels[i] codes; levels[stages] = 0 is the exact back
 * end, which passes the residue on unquantized with code index 0. The stage
 * tables follow each other in one array each: levels[i] - 1 thresholds,
 * levels[i] + 1 code values and (quantizing stages only) DAC errors by
 * 1-based code index, entry 0 unused. A stage's code index is 1 plus the
 * number of thresholds below the residue; its next residue is
 * gains[i] * ((residue - code) - dac), with the true gain. y is summed as the
 * stages quantize, weights[0] * code first and the back end last, from 0.0.
 * index is the (n, stages + 1) column-major int64 code-index array.
 */
PIPECAL_CLONES
void pipecal_convert(int64_t n, const double *restrict x, int64_t stages,
                     const int64_t *restrict levels, const double *restrict thresholds,
                     const double *restrict values, const double *restrict dac,
                     const double *restrict gains, const double *restrict weights,
                     double *restrict y, int64_t *restrict index)
{
    double r[CONVERT_BLOCK];

    for (int64_t s0 = 0; s0 < n; s0 += CONVERT_BLOCK) {
        int64_t m = n - s0 < CONVERT_BLOCK ? n - s0 : CONVERT_BLOCK;
        double *restrict yb = y + s0;
        const double *t = thresholds, *v = values, *e = dac;
        for (int64_t s = 0; s < m; s++) {
            r[s] = x[s0 + s];
            yb[s] = 0.0;
        }
        for (int64_t i = 0; i <= stages; i++) {
            int64_t *restrict j = index + i * n + s0;
            double w = weights[i];
            if (levels[i] == 0) {       /* the exact back end */
                for (int64_t s = 0; s < m; s++) {
                    j[s] = 0;
                    yb[s] += w * r[s];
                }
                break;
            }
            for (int64_t s = 0; s < m; s++)
                j[s] = 1;
            for (int64_t k = 0; k < levels[i] - 1; k++)
                for (int64_t s = 0; s < m; s++)
                    j[s] += r[s] > t[k];
            if (i == stages) {          /* the flash back end */
                for (int64_t s = 0; s < m; s++)
                    yb[s] += w * v[j[s]];
                break;
            }
            double g = gains[i];
            for (int64_t s = 0; s < m; s++) {
                double code = v[j[s]];
                yb[s] += w * code;
                r[s] = g * (r[s] - code - e[j[s]]);
            }
            t += levels[i] - 1;
            v += levels[i] + 1;
            e += levels[i] + 1;
        }
    }
}

/* BL-HEC SGD over samples k0..k1-1 of one converter's stream of `total` pairs
 * at fixed step sizes: tests/helpers.py::sgd_loop's operations in its order,
 * so bit-identical to it. The arrays hold the `rows` samples of the stream
 * from `base` on, so sample k sits at row k - base; k0, k1, `total`, the
 * guard cadence and the returned sample count are global. `codes_x`/`codes_ax`
 * are the pair batches' calibrated int64 code-index columns, column-major:
 * sample k's stage-i code is codes[i * rows + (k - base)]. `values`/`slots`
 * give each stage's code value and indicator slot (-1: none) by code index,
 * `width` entries per stage. Returns 0, or the sample count at which a guard
 * check found ||theta||_inf > guard or theta_alpha not finite.
 */
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
