/*
 * C twins of balancenet._kernels.fp_chunk and of
 * balancenet._kernels.snapshot_certificates, built on first use by
 * balancenet._clib (cc -O3 -march=native -ffp-contract=off -shared -fPIC)
 * and called through ctypes.
 *
 * Every floating-point operation follows the numpy kernel in the same
 * order, so both give identical bits:
 *  - the interaction I = sum(beta_w * mu) copies numpy's pairwise
 *    summation of a contiguous float64 array (pairwise_dot below);
 *  - -ffp-contract=off keeps a * b + c from being fused into one rounding,
 *    and without -ffast-math the vectorizer reorders no sum, however wide
 *    the host's vectors (-march=native);
 *  - the flux of every face is computed from the start-of-step density
 *    before any cell is updated.
 */

#include <float.h>
#include <math.h>

/* the same floor as _kernels.NEGATIVITY_FLOOR */
#define NEGATIVITY_FLOOR (-1e-12)
#define PW_BLOCKSIZE 128

/*
 * numpy's pairwise_sum over the products a[i] * b[i]: a plain sum below
 * 8 terms, 8 accumulators up to PW_BLOCKSIZE terms, otherwise split at
 * n / 2 rounded down to a multiple of 8.
 */
static double pairwise_dot(const double *a, const double *b, long n)
{
    if (n < 8) {
        double res = 0.0;
        for (long i = 0; i < n; i++) {
            res += a[i] * b[i];
        }
        return res;
    }
    if (n <= PW_BLOCKSIZE) {
        double r[8];
        long i;
        for (int k = 0; k < 8; k++) {
            r[k] = a[k] * b[k];
        }
        for (i = 8; i < n - (n % 8); i += 8) {
            for (int k = 0; k < 8; k++) {
                r[k] += a[i + k] * b[i + k];
            }
        }
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++) {
            res += a[i] * b[i];
        }
        return res;
    }
    long n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_dot(a, b, n2) + pairwise_dot(a + n2, b + n2, n - n2);
}

/*
 * Advance the density mu (m cells; flux, f_face and alpha_face have m + 1
 * entries) up to nsteps explicit steps in place, writing each step's
 * start-of-step interaction to i_out. Stops at the first step that leaves
 * a value below NEGATIVITY_FLOOR or a non-finite value; returns the number
 * of steps before it, or nsteps.
 */
long fp_chunk(double *mu, double *flux, const double *f_face, const double *alpha_face,
              const double *beta_w, long m, double inv_eps, double half_sig2,
              double dx, double dt, long nsteps, double *i_out)
{
    double inv_dx = 1.0 / dx;
    for (long s = 0; s < nsteps; s++) {
        /* numpy's add.reduce starts from the identity 0.0 */
        double big_i = 0.0 + pairwise_dot(beta_w, mu, m);
        i_out[s] = big_i;
        double ie = inv_eps * big_i;
        for (long f = 1; f < m; f++) {
            double v = f_face[f] - ie * alpha_face[f];
            double up = v > 0.0 ? mu[f - 1] : mu[f];
            flux[f] = v * up - half_sig2 * (mu[f] - mu[f - 1]) * inv_dx;
        }
        flux[0] = 0.0;
        flux[m] = 0.0;
        double c = dt * inv_dx;
        int ok = 1;
        for (long j = 0; j < m; j++) {
            mu[j] += c * (flux[j] - flux[j + 1]);
            ok &= (mu[j] >= NEGATIVITY_FLOOR) & (mu[j] <= DBL_MAX);
        }
        if (!ok) {
            return s;
        }
    }
    return nsteps;
}

/*
 * numpy's maximum: the running value m unless v is larger, and NaN once
 * either is NaN. Only its order among equal values (0.0 and -0.0) could
 * depend on the order of a reduction.
 */
static inline double max_nan(double m, double v)
{
    return (m >= v || m != m) ? m : v;
}

/*
 * Eight doubles, one vector register with AVX-512 (split into narrower
 * ones elsewhere). A comparison of two vectors gives each lane all ones or
 * all zeros. No function takes or returns one, as the ABI for that
 * depends on the instruction set.
 */
typedef double f64x8 __attribute__((vector_size(64)));
typedef long long i64x8 __attribute__((vector_size(64)));

/* the envelope slopes one pass over a row keeps in registers, two vectors */
#define SLOPE_GROUP 16

/*
 * The sup-norms that certify S snapshots of a transform phi (S x M, row
 * major) on its mask (S x M bytes, 0 or 1), snapshot s at I = big_i[s]
 * (see _kernels.snapshot_certificates for each):
 *  - excess (K x S): per slope, the max over the mask of
 *    phi + (slope I) lam;
 *  - residual_sup (S): the max over the core (interior cells with
 *    phi >= floor_[s]) of |((-alpha) I) g - (g g) half_sig2|;
 *  - w_grad_sup (S): from row later on, the max over the interior of
 *    |centered difference of sqrt(f2 - phi)|, each w taken once per mask
 *    cell.
 * A cell is interior when it and both neighbours lie in the mask; a
 * centered difference is over 2 dx. A max over no cell is -inf, and so are
 * the rows of w_grad_sup before later.
 */
void snapshot_certificates(const double *phi, const unsigned char *mask, long S, long M,
                           const double *lam, const double *neg_alpha, const double *big_i,
                           const double *slopes, long K, const double *floor_,
                           double half_sig2, double dx, double f2, long later,
                           double *excess, double *residual_sup, double *w_grad_sup)
{
    double h = 2 * dx;
    for (long s = 0; s < S; s++) {
        const double *p = phi + s * M;
        const unsigned char *in = mask + s * M;
        double ii = big_i[s];
        for (long k0 = 0; k0 < K; k0 += SLOPE_GROUP) {
            /* lane l of vector g is slope k0 + 8 g + l; a slope past K is 0 */
            f64x8 ai[2] = {{0.0}, {0.0}};
            f64x8 m[2];
            m[0] = m[1] = ai[0] - INFINITY;
            for (int k = 0; k < SLOPE_GROUP && k0 + k < K; k++) {
                ai[k / 8][k % 8] = slopes[k0 + k] * ii;
            }
            for (long j = 0; j < M; j++) {
                if (in[j]) {
                    for (int g = 0; g < 2; g++) {
                        /* max_nan lane by lane */
                        f64x8 v = p[j] + ai[g] * lam[j];
                        i64x8 keep = (m[g] >= v) | (m[g] != m[g]);
                        m[g] = (f64x8)(((i64x8)m[g] & keep) | ((i64x8)v & ~keep));
                    }
                }
            }
            for (int k = 0; k < SLOPE_GROUP && k0 + k < K; k++) {
                excess[(k0 + k) * S + s] = m[k / 8][k % 8];
            }
        }
        double res_sup = -INFINITY;
        for (long j = 1; j < M - 1; j++) {
            if ((in[j - 1] & in[j] & in[j + 1]) && p[j] >= floor_[s]) {
                double g = (p[j + 1] - p[j - 1]) / h;
                res_sup = max_nan(res_sup, fabs((neg_alpha[j] * ii) * g - (g * g) * half_sig2));
            }
        }
        residual_sup[s] = res_sup;
        double w_sup = -INFINITY;
        if (s >= later && M >= 3) {
            /* w at cells j - 1, j and j + 1 */
            double w0 = in[0] ? sqrt(f2 - p[0]) : NAN;
            double w1 = in[1] ? sqrt(f2 - p[1]) : NAN;
            for (long j = 1; j < M - 1; j++) {
                double w2 = in[j + 1] ? sqrt(f2 - p[j + 1]) : NAN;
                if (in[j - 1] & in[j] & in[j + 1]) {
                    w_sup = max_nan(w_sup, fabs((w2 - w0) / h));
                }
                w0 = w1;
                w1 = w2;
            }
        }
        w_grad_sup[s] = w_sup;
    }
}
