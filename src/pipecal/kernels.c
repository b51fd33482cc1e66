/* The package's compiled kernels, built on first use by pipecal/kernels.py with
 * -ffp-contract=off: a fused multiply-add rounds once where the test oracles
 * round twice, so contraction would break bit-identity with them. No kernel
 * reassociates a sum, so each result is the oracle's at any vector width.
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
/* a stage with more thresholds than this counts them by bisection, not one pass each.
 * Measured on a 2-vCPU Xeon, 16 384 samples: at 63 flash thresholds the passes were
 * faster, at 127 the two about tied, and from 255 on bisection won, by 10x at 4095 */
#define BISECT_ABOVE 100

/* The pipeline recursion of tests/helpers.py::searchsorted_convert for the n
 * inputs x, stage-major over blocks of samples. Stage i (0..stages, the last
 * the back end) has levels[i] codes; levels[stages] = 0 is the exact back
 * end, which passes the residue on unquantized with code index 0. The stage
 * tables follow each other in one array each: levels[i] - 1 thresholds,
 * levels[i] + 1 code values and (quantizing stages only) DAC errors by
 * 1-based code index, entry 0 unused. A stage's code index is 1 plus the
 * number of thresholds below the residue, counted in one pass per threshold
 * or, above BISECT_ABOVE, by bisection of the increasing thresholds (a NaN
 * residue is below none either way); its next residue is
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
            if (levels[i] - 1 > BISECT_ABOVE) {
                for (int64_t s = 0; s < m; s++) {
                    /* the thresholds below r[s] are those below b, and maybe b[0] */
                    const double *b = t;
                    for (int64_t len = levels[i] - 1; len > 1; len -= len / 2)
                        b = r[s] > b[len / 2] ? b + len / 2 : b;
                    j[s] = 1 + (b - t) + (r[s] > b[0]);
                }
            } else {
                for (int64_t s = 0; s < m; s++)
                    j[s] = 1;
                for (int64_t k = 0; k < levels[i] - 1; k++)
                    for (int64_t s = 0; s < m; s++)
                        j[s] += r[s] > t[k];
            }
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

/* The pairs of one converter, the one form in which pairs reach the kernels,
 * built by calibration._pairs. Side 0 is the scaled conversion (ax), side 1 the
 * unscaled one (x). Pair k's side-p regressor is row keys[p][k] of that side's
 * row-major (rows[p], q) tables: table_weighted (gain-weighted code sums, at
 * parameter slots weighted[0..q-1]) and table_slots (indicator slots, -1: none).
 * The Wiener kernels' buffers, row-major (NULL where only pipecal_sgd reads):
 * g (2 dim + 2)^2, r dim^2 + dim, l dim^2 + dim, p rows[0] + rows[1].
 */
struct pipecal_pairs {
    int64_t n, dim, q;
    const int64_t *weighted;
    const double *y[2];
    const int64_t *keys[2];
    int64_t rows[2];
    const double *table_weighted[2];
    const int64_t *table_slots[2];
    double *g, *r, *l, *p;
};

/* t + T theta of row `row` of a side's table, summed like SelectionBatch.dot:
 * stage by stage the weighted entry, then the indicator if any */
static inline double row_dot(const struct pipecal_pairs *s, int side, int64_t row,
                             const double *theta, double t)
{
    const double *w = s->table_weighted[side] + row * s->q;
    const int64_t *ind = s->table_slots[side] + row * s->q;
    for (int64_t i = 0; i < s->q; i++) {
        t += w[i] * theta[s->weighted[i]];
        if (ind[i] >= 0)
            t += theta[ind[i]];
    }
    return t;
}

/* BL-HEC SGD over samples k0..k1-1 of one converter's stream of `total` pairs
 * at fixed step sizes: tests/helpers.py::sgd_loop's operations in its order,
 * so bit-identical to it. s holds the pairs of the stream from `base` on, so
 * sample k is its pair k - base; k0, k1, `total`, the guard cadence and the
 * returned sample count are global. Returns 0, or the sample count at which a
 * guard check found ||theta||_inf > guard or theta_alpha not finite.
 */
int64_t pipecal_sgd(const struct pipecal_pairs *s, int64_t k0, int64_t k1, int64_t total,
                    int64_t base, int64_t guard_every, double *restrict theta,
                    double *theta_alpha, double alpha_d, double mu_nl, double mu_alpha,
                    double guard)
{
    const int64_t q = s->q, *weighted = s->weighted;
    const double *w[2];
    const int64_t *ind[2];
    double y[2], ta = *theta_alpha;
    int64_t status = 0;

    for (int64_t k = k0; k < k1 && !status; k++) {
        /* y + h . theta of the unscaled (p = 0, side 1) and the scaled (p = 1) conversion */
        for (int p = 0; p < 2; p++) {
            int64_t key = s->keys[1 - p][k - base];
            w[p] = s->table_weighted[1 - p] + key * q;
            ind[p] = s->table_slots[1 - p] + key * q;
            y[p] = row_dot(s, 1 - p, key, theta, s->y[1 - p][k - base]);
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
            for (int64_t i = 0; i < s->dim; i++)
                if (!(fabs(theta[i]) <= guard))
                    status = kk;
        }
    }
    *theta_alpha = ta;
    return status;
}

/* Row `row` of a side's table as its nonzero entries, stage by stage the
 * weighted entry and then the indicator if any: their parameter slots and
 * values. Returns their count, at most 2q. */
static int64_t row_entries(const struct pipecal_pairs *s, int side, int64_t row,
                           int64_t *slot, double *value)
{
    const double *w = s->table_weighted[side] + row * s->q;
    const int64_t *ind = s->table_slots[side] + row * s->q;
    int64_t count = 0;
    for (int64_t i = 0; i < s->q; i++) {
        slot[count] = s->weighted[i];
        value[count++] = w[i];
        if (ind[i] >= 0) {
            slot[count] = ind[i];
            value[count++] = 1.0;
        }
    }
    return count;
}

/* g = C^T C / n for C = [y_ax, h_ax, y_x, h_x], without forming C. A table row's entries sit at
 * distinct slots, so each sum below takes one term per pair, key or key pair. Each
 * entry on or above the diagonal is summed from 0.0 in a fixed order, which
 * tests/helpers.py::gram_oracle repeats bit for bit:
 * - y.y entries pair by pair;
 * - a same-side entry h_s h_t key by key, (T[r,s] * T[r,t]) * count[r];
 * - an entry y h_s key by key of h's side, ysum[r] * T[r,s], with ysum[r] the
 *   sum of y over the pairs of key r, pair by pair;
 * - a cross entry h_ax,s h_x,t by distinct key pairs (a, x): a ascending, then
 *   x in the order the pairs of key a first show it, (T_ax[a,s] * T_x[x,t])
 *   * count[a, x].
 * Then the lower triangle copies the upper one and every entry is divided by n.
 * hist holds 3 (rows[0] + rows[1]) + rows[1] zeros on entry: per key of each
 * side the count and the sums of y_ax and y_x, then a tally per unscaled key;
 * work holds rows[0] + n + rows[1] int64 of scratch.
 */
void pipecal_gram(const struct pipecal_pairs *s, double *hist, int64_t *work)
{
    const int64_t n = s->n, m = 2 * s->dim + 2, b = s->dim + 1;
    double *g = s->g, value[2][2 * s->q];
    int64_t slot[2][2 * s->q], count[2];

    for (int64_t i = 0; i < m * m; i++)
        g[i] = 0.0;
    for (int64_t k = 0; k < n; k++) {
        double ya = s->y[0][k], yx = s->y[1][k];
        g[0] += ya * ya;
        g[b] += ya * yx;
        g[b * m + b] += yx * yx;
    }

    for (int side = 0; side < 2; side++) {
        double *h = hist + (side ? 3 * s->rows[0] : 0);
        int64_t off = side ? b + 1 : 1;
        for (int64_t k = 0; k < n; k++) {
            double *e = h + 3 * s->keys[side][k];
            e[0] += 1.0;
            e[1] += s->y[0][k];
            e[2] += s->y[1][k];
        }
        for (int64_t r = 0; r < s->rows[side]; r++) {
            const double *e = h + 3 * r;
            if (e[0] == 0.0)
                continue;
            count[0] = row_entries(s, side, r, slot[0], value[0]);
            for (int64_t a = 0; a < count[0]; a++) {
                int64_t u = off + slot[0][a];
                g[u] += e[1] * value[0][a];
                g[side ? b * m + u : u * m + b] += e[2] * value[0][a];
                for (int64_t c = 0; c < count[0]; c++)
                    if (slot[0][a] <= slot[0][c])
                        g[u * m + off + slot[0][c]] += (value[0][a] * value[0][c]) * e[0];
            }
        }
    }

    /* the cross block by distinct key pairs: the pairs bucketed by their scaled
     * key, and each bucket's unscaled keys tallied in order of first appearance */
    int64_t *end = work, *order = work + s->rows[0], *seen = order + n;
    double *tally = hist + 3 * (s->rows[0] + s->rows[1]);
    for (int64_t r = 0, at = 0; r < s->rows[0]; r++) {
        end[r] = at;
        at += (int64_t)hist[3 * r];
    }
    for (int64_t k = 0; k < n; k++)
        order[end[s->keys[0][k]]++] = s->keys[1][k];
    for (int64_t r = 0; r < s->rows[0]; r++) {
        int64_t distinct = 0;
        for (int64_t i = r ? end[r - 1] : 0; i < end[r]; i++) {
            if (tally[order[i]] == 0.0)
                seen[distinct++] = order[i];
            tally[order[i]] += 1.0;
        }
        if (distinct == 0)
            continue;
        count[0] = row_entries(s, 0, r, slot[0], value[0]);
        for (int64_t i = 0; i < distinct; i++) {
            double times = tally[seen[i]];
            count[1] = row_entries(s, 1, seen[i], slot[1], value[1]);
            for (int64_t a = 0; a < count[0]; a++) {
                double *row = g + (1 + slot[0][a]) * m + b + 1;
                for (int64_t c = 0; c < count[1]; c++)
                    row[slot[1][c]] += (value[0][a] * value[1][c]) * times;
            }
            tally[seen[i]] = 0.0;
        }
    }

    for (int64_t i = 0; i < m; i++)
        for (int64_t j = i; j < m; j++)
            g[j * m + i] = g[i * m + j] /= (double)n;
}

/* Cholesky solve of r x = rhs for the d x d row-major symmetric r, reading its
 * lower triangle, in a fixed order: L row by row with each sum from r's entry
 * down over k ascending, then L v = rhs and L^T x = v, each sum over k
 * ascending. l holds d^2 + d doubles (L, then v). Returns 0 when the bound
 * ||r||_inf ||L^-1||_F^2, which is at least cond_2(r), is at most `limit`; 2
 * when it is not (x is still written); 1 when a pivot is not positive (or NaN):
 * r is not numerically positive definite and x is not written.
 */
static int64_t cholesky_solve(int64_t d, const double *r, const double *rhs, double *l,
                              double *x, double limit)
{
    double *v = l + d * d;

    for (int64_t i = 0; i < d; i++)
        for (int64_t j = 0; j <= i; j++) {
            double t = r[i * d + j];
            for (int64_t k = 0; k < j; k++)
                t -= l[i * d + k] * l[j * d + k];
            if (i > j)
                l[i * d + j] = t / l[j * d + j];
            else if (t > 0.0)
                l[i * d + i] = sqrt(t);
            else
                return 1;
        }
    for (int64_t i = 0; i < d; i++) {
        double t = rhs[i];
        for (int64_t k = 0; k < i; k++)
            t -= l[i * d + k] * v[k];
        v[i] = t / l[i * d + i];
    }
    for (int64_t i = d - 1; i >= 0; i--) {
        double t = v[i];
        for (int64_t k = i + 1; k < d; k++)
            t -= l[k * d + i] * x[k];
        x[i] = t / l[i * d + i];
    }

    /* pass or fail only: column j of L^-1 by forward substitution into v */
    double norm = 0.0, frobenius = 0.0;
    for (int64_t i = 0; i < d; i++) {
        double t = 0.0;
        for (int64_t j = 0; j < d; j++)
            t += fabs(j <= i ? r[i * d + j] : r[j * d + i]);
        norm = t > norm ? t : norm;
    }
    for (int64_t j = 0; j < d; j++) {
        v[j] = 1.0 / l[j * d + j];
        frobenius += v[j] * v[j];
        for (int64_t i = j + 1; i < d; i++) {
            double t = 0.0;
            for (int64_t k = j; k < i; k++)
                t -= l[i * d + k] * v[k];
            v[i] = t / l[i * d + i];
            frobenius += v[i] * v[i];
        }
        if (!(norm * frobenius <= limit))
            return 2;
    }
    return 0;
}

/* Pair k's homogeneity error, read through p (T theta of each side's table rows) */
static double homogeneity_error(const struct pipecal_pairs *s, double *const p[2], double c,
                                int64_t k)
{
    return (s->y[0][k] + p[0][s->keys[0][k]]) - c * (s->y[1][k] + p[1][s->keys[1][k]]);
}

/* One Wiener solve at scaling factor c. Forms M(c) = (S_AA - c (S_AB + S_AB^T))
 * + (c c) S_BB entry by entry, the cross term summed in place, and takes R_hh(c)
 * (its lower right dim x dim block) into r and r_hy(c) (its first column below
 * the corner) after it; solves R_hh(c) x = r_hy(c) by cholesky_solve and
 * writes theta = -x. Returns cholesky_solve's status. Unless that is 1 it
 * writes four moments at theta: the homogeneity MSE and its standard error,
 * from T theta once per table row of each side into p (row_dot), then per pair
 * e = (y_ax + p_ax[key]) - c (y_x + p_x[key]), mse = (sum of e^2) / n and
 * stderr = sqrt(sum of (e^2 - mse)^2) / n, both sums from 0.0 pair by pair;
 * then the output powers at u = [1, theta], r_yy = u^T S_BB u and
 * r_yya = u^T S_AB u, each sum_i u_i (sum_j S[i, j] u_j) with both sums from
 * 0.0 over ascending indices.
 */
int64_t pipecal_wiener_solve(const struct pipecal_pairs *s, double c, double limit,
                             double *theta, double *moments)
{
    const int64_t d = s->dim, m = 2 * d + 2, b = d + 1;
    double *r = s->r, *rhs = s->r + d * d;

    for (int64_t i = 1; i <= d; i++)
        for (int64_t j = 0; j <= d; j++) {
            double v = (s->g[i * m + j] - c * (s->g[i * m + b + j] + s->g[j * m + b + i]))
                       + (c * c) * s->g[(b + i) * m + b + j];
            if (j == 0)
                rhs[i - 1] = v;
            else
                r[(i - 1) * d + j - 1] = v;
        }
    int64_t status = cholesky_solve(d, r, rhs, s->l, theta, limit);
    if (status == 1)
        return status;
    for (int64_t i = 0; i < d; i++)
        theta[i] = -theta[i];

    double *p[2] = {s->p, s->p + s->rows[0]};
    for (int side = 0; side < 2; side++)
        for (int64_t row = 0; row < s->rows[side]; row++)
            p[side][row] = row_dot(s, side, row, theta, 0.0);
    double sum = 0.0, dev = 0.0;
    for (int64_t k = 0; k < s->n; k++) {
        double e = homogeneity_error(s, p, c, k);
        sum += e * e;
    }
    moments[0] = sum / (double)s->n;
    for (int64_t k = 0; k < s->n; k++) {
        double e = homogeneity_error(s, p, c, k), t = e * e - moments[0];
        dev += t * t;
    }
    moments[1] = sqrt(dev) / (double)s->n;

    const double *blocks[2] = {s->g + b * m + b, s->g + b};     /* S_BB, S_AB */
    for (int block = 0; block < 2; block++) {
        double outer = 0.0;
        for (int64_t i = 0; i < b; i++) {
            double inner = 0.0;
            for (int64_t j = 0; j < b; j++)
                inner += blocks[block][i * m + j] * (j ? theta[j - 1] : 1.0);
            outer += (i ? theta[i - 1] : 1.0) * inner;
        }
        moments[2 + block] = outer;
    }
    return status;
}
