/*
 * C twin of balancenet._kernels.rk4_affine, built on first use by
 * balancenet._clib (cc -O3 -march=native -ffp-contract=off -shared -fPIC)
 * and called through ctypes.
 *
 * Classical RK4 for the scalar ODE x' = a x + b, with the Python loop's
 * operations in the same order, so both give identical bits:
 *  - half = 0.5 dt and sixth = dt / 6 are rounded once, before the loop;
 *  - the sum k1 + 2 k2 + 2 k3 + k4 is taken left to right, and 2 k2 and
 *    2 k3 are exact;
 *  - -ffp-contract=off keeps a * x + b from being fused into one rounding.
 */

#include <math.h>

/*
 * Step from x, the value at step 0 (col[0] is left as it is), and write
 * step s to col[s * stride] for s = 1 .. last, stride counted in elements.
 * Stops at the first step whose value is not finite and returns it, else
 * last.
 */
long rk4_affine(double a, double b, double x, double dt, double *col, long stride, long last)
{
    double half = 0.5 * dt;
    double sixth = dt / 6.0;
    for (long s = 1; s <= last; s++) {
        double k1 = a * x + b;
        double k2 = a * (x + half * k1) + b;
        double k3 = a * (x + half * k2) + b;
        double k4 = a * (x + dt * k3) + b;
        x = x + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4);
        col[s * stride] = x;
        if (!isfinite(x)) {
            return s;
        }
    }
    return last;
}
