/*
 * C twin of balancenet._kernels.network_chunk, built on first use by
 * balancenet._clib (cc -O3 -march=native -ffp-contract=off -shared -fPIC)
 * and called through ctypes.
 *
 * Every floating-point operation follows the numpy kernel in the same
 * order, so both give identical bits:
 *  - every sum over the agents is numpy's 1-D pairwise summation
 *    (pairwise_sum below): the population means the source maps read, and
 *    the recorded means and stds, which are each column's col.mean() and
 *    col.std();
 *  - the cubic is evaluated as ((x f3 + f2) x + (f1 + A)) x + (f0 + B),
 *    the order of the numpy kernel's in-place updates;
 *  - -ffp-contract=off keeps a * b + c from being fused into one rounding,
 *    and without -ffast-math the vectorizer reorders no sum, however wide
 *    the host's vectors (-march=native).
 * The synaptic gate's exp is not libm's, which differs from numpy's in the
 * last bit on some CPUs: the caller passes the float64 inner loop of
 * numpy's exp ufunc, the one numpy's dispatcher chose for this CPU, and it
 * runs on the gate buffer exactly as np.exp(gate, out=gate) runs it.
 */

#include <float.h>
#include <math.h>
#include <stdint.h>

#define PW_BLOCKSIZE 128

/*
 * numpy's pairwise_sum over n doubles spaced stride apart: a plain sum
 * below 8 terms, 8 accumulators up to PW_BLOCKSIZE terms, otherwise split
 * at n / 2 rounded down to a multiple of 8.
 */
static double pairwise_sum(const double *a, long n, long stride)
{
    if (n < 8) {
        double res = 0.0;
        for (long i = 0; i < n; i++) {
            res += a[i * stride];
        }
        return res;
    }
    if (n <= PW_BLOCKSIZE) {
        double r[8];
        long i;
        for (int k = 0; k < 8; k++) {
            r[k] = a[k * stride];
        }
        for (i = 8; i < n - (n % 8); i += 8) {
            for (int k = 0; k < 8; k++) {
                r[k] += a[(i + k) * stride];
            }
        }
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++) {
            res += a[i * stride];
        }
        return res;
    }
    long n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2, stride) + pairwise_sum(a + n2 * stride, n - n2, stride);
}

/*
 * numpy's mean of the n values spaced stride apart: their pairwise sum,
 * started from +0.0 as ndarray.sum is (which turns a -0.0 sum into +0.0),
 * over n.
 */
static double column_mean(const double *a, long n, long stride)
{
    return (0.0 + pairwise_sum(a, n, stride)) / (double)n;
}

/*
 * numpy's std (divisor n) of the n values spaced stride apart, whose mean
 * is m: the squared deviations are formed in scratch, n doubles, and
 * summed pairwise as a contiguous row, as np.std forms and sums them.
 */
static double column_std(const double *a, long n, long stride, double m,
                         double *restrict scratch)
{
    for (long i = 0; i < n; i++) {
        double e = a[i * stride] - m;
        scratch[i] = e * e;
    }
    return sqrt(pairwise_sum(scratch, n, 1) / (double)n);
}

/* the constants of a step, formed as the numpy kernel forms them */
struct step_constants {
    double f3, f2, f1, f0, a, b, c, inv_tau, gain, theta, inv_slope, dt, sq, ady;
};

/*
 * The voltage increment (f(x) - y + A x + B) dt + sq xi of an agent at
 * (x, y), with f1a = f1 + A and f0b = f0 + B, in the numpy kernel's order.
 */
static inline double voltage_increment(double x, double y, double xi, double f3, double f2,
                                       double f1a, double f0b, double dt, double sq)
{
    double v = x * f3;
    v += f2;
    v *= x;
    v += f1a;
    v *= x;
    v += f0b;
    v -= y;
    v *= dt;
    v += sq * xi;
    return v;
}

/*
 * One step of the n agents whose (x, y) rows start at st, under the
 * network input A x + B; returns whether every new entry is finite.
 */
static int step_xy(double *restrict st, long n, const double *restrict xi,
                   const struct step_constants *k, double A, double B)
{
    const double f3 = k->f3, f2 = k->f2, f1a = k->f1 + A, f0b = k->f0 + B;
    const double b = k->b, c = k->c, dt = k->dt, sq = k->sq, ady = k->ady;
    int ok = 1;
    for (long i = 0; i < n; i++) {
        double x = st[2 * i], y = st[2 * i + 1];
        double nx = x + voltage_increment(x, y, xi[i], f3, f2, f1a, f0b, dt, sq);
        double ny = y + ady * (b * x - y + c);
        st[2 * i] = nx;
        st[2 * i + 1] = ny;
        ok &= (fabs(nx) <= DBL_MAX) & (fabs(ny) <= DBL_MAX);
    }
    return ok;
}

/*
 * numpy's inner-loop signature (PyUFuncGenericFunction), npy_intp being
 * intptr_t: args[0] is the input, args[1] the output.
 */
typedef void (*ufunc_loop)(char **args, const intptr_t *dimensions, const intptr_t *steps,
                           void *data);

/*
 * step_xy for (x, y, s) rows with the synaptic gate: gate[i] holds the
 * exp of agent i's gate argument on entry and its next argument on return.
 */
static int step_xys(double *restrict st, long n, const double *restrict xi,
                    double *restrict gate, const struct step_constants *k, double A, double B)
{
    const double f3 = k->f3, f2 = k->f2, f1a = k->f1 + A, f0b = k->f0 + B;
    const double b = k->b, c = k->c, dt = k->dt, sq = k->sq, ady = k->ady;
    const double inv_tau = k->inv_tau, gain = k->gain, theta = k->theta;
    const double inv_slope = k->inv_slope;
    int ok = 1;
    for (long i = 0; i < n; i++) {
        double x = st[3 * i], y = st[3 * i + 1], s = st[3 * i + 2];
        double nx = x + voltage_increment(x, y, xi[i], f3, f2, f1a, f0b, dt, sq);
        double ny = y + ady * (b * x - y + c);
        double g = gain / (1.0 + gate[i]);
        double ns = s + (g * (1.0 - s) - s * inv_tau) * dt;
        st[3 * i] = nx;
        st[3 * i + 1] = ny;
        st[3 * i + 2] = ns;
        gate[i] = (theta - nx) * inv_slope;
        ok &= (fabs(nx) <= DBL_MAX) & (fabs(ny) <= DBL_MAX) & (fabs(ns) <= DBL_MAX);
    }
    return ok;
}

/*
 * Advance up to `steps` Euler-Maruyama steps of the n_agents x d states
 * (d = 2: voltage x, recovery y; d = 3: and the synaptic gate s) in place,
 * P = npop equal blocks of n = n_agents / P agents, population p in rows
 * p n to (p + 1) n - 1. noise holds steps rows of n_agents standard
 * normals. coef is P x P, alpha1 and beta1 are P x d, fhn holds (f3, f2,
 * f1, f0, a, b, c, inv_tau, gain, theta, inv_slope) as in the numpy kernel.
 *
 * With d = 3, gate is scratch space for n_agents doubles, and exp_loop
 * with exp_data is numpy's float64 exp inner loop and its data pointer:
 * before each step gate holds each agent's argument (theta - x_i)
 * inv_slope, and exp_loop exponentiates it in place, called with the
 * arguments np.exp(gate, out=gate) gives it (one run of n_agents doubles,
 * 8-byte steps).
 *
 * With stride > 0, after each step whose absolute number step0 + j + 1 is
 * a multiple of stride, slot (step0 + j + 1) / stride of means and stds
 * (P x n_slots x d) receives each population's column means and stds, and
 * the same slot of traces (P x n_slots x n_traces) its first n_traces
 * voltages (fewer when the population is smaller); scratch then holds
 * n_agents doubles for the squared deviations of a column.
 *
 * Stops at the first step that leaves a non-finite entry, with the states
 * of that step; returns the number of steps before it (steps when all
 * stayed finite).
 */
long network_chunk(double *states, long n_agents, long d, const double *noise, long steps,
                   double dt, long npop, const double *coef, const double *alpha0,
                   const double *alpha1, const double *beta0, const double *beta1,
                   const double *fhn, double sig, double *gate, ufunc_loop exp_loop,
                   void *exp_data, long step0, long stride, long n_slots, long n_traces,
                   double *means, double *stds, double *traces, double *scratch)
{
    struct step_constants k = {
        fhn[0], fhn[1], fhn[2], fhn[3], fhn[4], fhn[5], fhn[6], fhn[7], fhn[8], fhn[9],
        fhn[10], dt, sig * sqrt(dt), fhn[4] * dt};
    const long n = n_agents / npop;
    double al[npop], be[npop];
    char *exp_args[2] = {(char *)gate, (char *)gate};
    const intptr_t exp_len[1] = {n_agents}, exp_steps[2] = {sizeof(double), sizeof(double)};
    if (d > 2) {
        for (long i = 0; i < n_agents; i++) {
            gate[i] = (k.theta - states[3 * i]) * k.inv_slope;
        }
    }
    for (long j = 0; j < steps; j++) {
        const double *xi = noise + j * n_agents;
        if (d > 2) {
            exp_loop(exp_args, exp_len, exp_steps, exp_data);
        }
        for (long q = 0; q < npop; q++) {
            long lo = q * n;
            al[q] = alpha0[q];
            be[q] = beta0[q];
            for (long c = 0; c < d; c++) {
                double wa = alpha1[q * d + c], wb = beta1[q * d + c];
                /* the numpy kernel reads only the means that carry a weight */
                if (wa != 0.0 || wb != 0.0) {
                    double m = column_mean(states + lo * d + c, n, d);
                    al[q] += wa * m;
                    be[q] += wb * m;
                }
            }
        }
        int ok = 1;
        for (long p = 0; p < npop; p++) {
            double A = 0.0, B = 0.0;
            for (long q = 0; q < npop; q++) {
                A += coef[p * npop + q] * al[q];
                B += coef[p * npop + q] * be[q];
            }
            long lo = p * n;
            ok &= d > 2 ? step_xys(states + lo * 3, n, xi + lo, gate + lo, &k, A, B)
                        : step_xy(states + lo * 2, n, xi + lo, &k, A, B);
        }
        if (!ok) {
            return j;
        }
        long done = step0 + j + 1;
        if (stride > 0 && done % stride == 0) {
            long slot = done / stride;
            for (long p = 0; p < npop; p++) {
                long lo = p * n;
                for (long c = 0; c < d; c++) {
                    const double *col = states + lo * d + c;
                    long at = (p * n_slots + slot) * d + c;
                    means[at] = column_mean(col, n, d);
                    stds[at] = column_std(col, n, d, means[at], scratch);
                }
                double *tr = traces + (p * n_slots + slot) * n_traces;
                for (long i = 0; i < n_traces && i < n; i++) {
                    tr[i] = states[(lo + i) * d];
                }
            }
        }
    }
    return steps;
}
