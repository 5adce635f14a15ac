/*
 * C twin of balancenet._kernels.fp_chunk, built on first use by
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
 * start-of-step interaction to i_out. Stops after the first step that
 * leaves a value below NEGATIVITY_FLOOR or a non-finite value; returns the
 * number of steps done.
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
            return s + 1;
        }
    }
    return nsteps;
}
