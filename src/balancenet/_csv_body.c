/*
 * C twin of balancenet._kernels.csv_body, built on first use by
 * balancenet._clib (cc -O3 -march=native -ffp-contract=off -shared -fPIC)
 * and called through ctypes.
 *
 * csv_body writes the rows of a CSV of float64 and int64 columns with the
 * text Python gives: repr(float) for a float, str(int) for an integer, a
 * comma between values and LF after each row.
 *
 * A float's digits are Ryu's (U. Adams, "Ryu: fast float-to-string
 * conversion", PLDI 2018; d2d below follows its reference d2s.c): the
 * shortest decimal that reads back as the same double and, of those, the
 * nearest to it, ties to even. That is what repr asks of CPython's dtoa
 * (mode 0). They are laid out as CPython's float_repr does:
 *  - positional when 1e-4 <= |x| < 1e16, that is when the decimal point
 *    sits between 3 places before the first digit and 16 places after
 *    it, with ".0" added to a whole number ("0.0001", "100.0");
 *  - otherwise one digit, the rest after a point, and an exponent with a
 *    sign and at least two digits ("1e-05", "1.5e+16", "5e-324");
 *  - "-0.0", "inf", "-inf", and "nan" for every NaN, whatever its sign.
 * balancenet._kernels compares this formatter with repr on its first
 * request and keeps Python's path on any difference. The 64 x 128-bit
 * products take unsigned __int128, which gcc and clang have on 64-bit
 * targets.
 */

#include <stdint.h>
#include <string.h>

typedef __uint128_t uint128_t;

#define MANTISSA_BITS 52
#define EXPONENT_BIAS 1023
#define POW5_BITCOUNT 125
#define POW5_INV_BITCOUNT 125

/* 00 01 ... 99: two decimal digits at a time */
static const char digit_pairs[200] =
    "00010203040506070809101112131415161718192021222324252627282930313233343536373839"
    "40414243444546474849505152535455565758596061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* ceil(log2(5^e)) for 0 < e <= 3528, and 1 for e = 0 */
static inline int32_t pow5bits(int32_t e)
{
    return (int32_t)(((uint32_t)e * 1217359) >> 19) + 1;
}

/* floor(log10(2^e)) for 0 <= e <= 1650 */
static inline uint32_t log10_pow2(int32_t e)
{
    return ((uint32_t)e * 78913) >> 18;
}

/* floor(log10(5^e)) for 0 <= e <= 2620 */
static inline uint32_t log10_pow5(int32_t e)
{
    return ((uint32_t)e * 732923) >> 20;
}

/*
 * Ryu's tables, for the bit length b = pow5bits(i) of 5^i: pow5_split[i] is
 * 5^i scaled to 125 bits, floor(5^i * 2^(125 - b)), and pow5_inv_split[i]
 * is floor(2^(b - 1 + 125) / 5^i) + 1, each as {low 64 bits, high 64
 * bits}. fill_pow5_tables computes them when the library is loaded;
 * tests/test_kernels.py reads them from the library and compares them with
 * Python's integers.
 */
uint64_t pow5_split[326][2];
uint64_t pow5_inv_split[292][2];

/* 14 words hold 5^325 * 2^128 < 2^883 and 2^832 */
#define WIDE_WORDS 14

/* the 128 bits of the little-endian integer x from bit s on, s < 768 */
static void take_128(uint64_t *out, const uint64_t *x, int32_t s)
{
    for (int k = 0; k < 2; k++) {
        uint128_t pair = (uint128_t)x[s / 64 + k + 1] << 64 | x[s / 64 + k];
        out[k] = (uint64_t)(pair >> (s % 64));
    }
}

/*
 * p = 5^i * 2^128 and q = floor(2^832 / 5^i), one factor of 5 more each
 * step; q stays exact, as floor(floor(x / a) / b) = floor(x / (ab)). Entry
 * i is p / 2^(b + 3) and q / 2^(708 - b), floored, which are the values
 * above before the inverse's + 1.
 */
__attribute__((constructor)) static void fill_pow5_tables(void)
{
    uint64_t p[WIDE_WORDS] = {0}, q[WIDE_WORDS] = {0};
    p[2] = 1;
    q[13] = 1;
    for (int32_t i = 0; i < 326; i++) {
        int32_t b = pow5bits(i);
        take_128(pow5_split[i], p, b + 3);
        if (i < 292) {
            take_128(pow5_inv_split[i], q, 708 - b);
            pow5_inv_split[i][1] += ++pow5_inv_split[i][0] == 0;
        }
        uint128_t carry = 0, rem = 0;
        for (int k = 0; k < WIDE_WORDS; k++) {
            carry += (uint128_t)p[k] * 5;
            p[k] = (uint64_t)carry;
            carry >>= 64;
        }
        for (int k = WIDE_WORDS - 1; k >= 0; k--) {
            rem = rem << 64 | q[k];
            q[k] = (uint64_t)(rem / 5);
            rem %= 5;
        }
    }
}

static inline uint32_t pow5_factor(uint64_t value)
{
    uint32_t count = 0;
    while (value % 5 == 0) {
        value /= 5;
        count++;
    }
    return count;
}

static inline int multiple_of_pow5(uint64_t value, uint32_t p)
{
    return pow5_factor(value) >= p;
}

static inline int multiple_of_pow2(uint64_t value, uint32_t p)
{
    return (value & ((1ULL << p) - 1)) == 0;
}

/* floor(m * mul / 2^j) for a 128-bit mul and 64 < j < 128 */
static inline uint64_t mul_shift(uint64_t m, const uint64_t *mul, int32_t j)
{
    uint128_t b0 = (uint128_t)m * mul[0];
    uint128_t b2 = (uint128_t)m * mul[1];
    return (uint64_t)(((b0 >> 64) + b2) >> (j - 64));
}

static const uint64_t pow10[20] = {
    1ULL, 10ULL, 100ULL, 1000ULL, 10000ULL, 100000ULL, 1000000ULL, 10000000ULL,
    100000000ULL, 1000000000ULL, 10000000000ULL, 100000000000ULL, 1000000000000ULL,
    10000000000000ULL, 100000000000000ULL, 1000000000000000ULL, 10000000000000000ULL,
    100000000000000000ULL, 1000000000000000000ULL, 10000000000000000000ULL};

/* the number of decimal digits of v: log10 of its bit length's power of
 * two (1233 / 4096 is just over log10(2)), one less below that power of
 * ten */
static inline uint32_t decimal_length(uint64_t v)
{
    if (v == 0) {
        return 1;
    }
    uint32_t t = ((uint32_t)(64 - __builtin_clzll(v)) * 1233) >> 12;
    return t + 1 - (v < pow10[t]);
}

/*
 * The shortest decimal digits (as an integer, *digits) and the power of
 * ten (returned) of the finite, nonzero double with the given biased
 * exponent and mantissa bits: Ryu's d2d.
 */
static int32_t shortest(uint64_t ieee_mantissa, uint32_t ieee_exponent, uint64_t *digits)
{
    int32_t e2;
    uint64_t m2;
    if (ieee_exponent == 0) {
        /* 2 more bits, so that the bounds below are whole numbers */
        e2 = 1 - EXPONENT_BIAS - MANTISSA_BITS - 2;
        m2 = ieee_mantissa;
    } else {
        e2 = (int32_t)ieee_exponent - EXPONENT_BIAS - MANTISSA_BITS - 2;
        m2 = (1ULL << MANTISSA_BITS) | ieee_mantissa;
    }
    /* round-half-even: the bounds of an even mantissa read back to it */
    int accept_bounds = (m2 & 1) == 0;

    /* the value and the halfway points to its neighbours, times 4: mv,
     * mv + 2 and mv - 1 - mm_shift; the lower gap is half as wide above a
     * power of two */
    uint64_t mv = 4 * m2;
    uint32_t mm_shift = ieee_mantissa != 0 || ieee_exponent <= 1;

    uint64_t vr, vp, vm;
    int32_t e10;
    int vm_trailing_zeros = 0, vr_trailing_zeros = 0;
    if (e2 >= 0) {
        uint32_t q = log10_pow2(e2) - (e2 > 3);
        e10 = (int32_t)q;
        int32_t k = POW5_INV_BITCOUNT + pow5bits((int32_t)q) - 1;
        int32_t i = -e2 + (int32_t)q + k;
        vr = mul_shift(mv, pow5_inv_split[q], i);
        vp = mul_shift(mv + 2, pow5_inv_split[q], i);
        vm = mul_shift(mv - 1 - mm_shift, pow5_inv_split[q], i);
        /* mv + 2 < 2^55 < 5^24: none of the three is a multiple of 5^q for
         * a larger q; at most one of them is a multiple of 5 */
        if (q <= 21) {
            if (mv % 5 == 0) {
                vr_trailing_zeros = multiple_of_pow5(mv, q);
            } else if (accept_bounds) {
                vm_trailing_zeros = multiple_of_pow5(mv - 1 - mm_shift, q);
            } else {
                vp -= multiple_of_pow5(mv + 2, q);
            }
        }
    } else {
        uint32_t q = log10_pow5(-e2) - (-e2 > 1);
        e10 = (int32_t)q + e2;
        int32_t i = -e2 - (int32_t)q;
        int32_t k = pow5bits(i) - POW5_BITCOUNT;
        int32_t j = (int32_t)q - k;
        vr = mul_shift(mv, pow5_split[i], j);
        vp = mul_shift(mv + 2, pow5_split[i], j);
        vm = mul_shift(mv - 1 - mm_shift, pow5_split[i], j);
        if (q <= 1) {
            /* mv has at least two trailing zero bits, mv - 2 one */
            vr_trailing_zeros = 1;
            if (accept_bounds) {
                vm_trailing_zeros = mm_shift == 1;
            } else {
                --vp;
            }
        } else if (q < 63) {
            /* exact when 2^q divides mv, as -e2 >= q */
            vr_trailing_zeros = multiple_of_pow2(mv, q);
        }
    }

    /* drop digits while the interval still holds a shorter number */
    int32_t removed = 0;
    uint32_t last_removed = 0;
    uint64_t output;
    if (vm_trailing_zeros || vr_trailing_zeros) {
        /* the rare general case: a bound or the value is exact */
        for (;;) {
            uint64_t vp10 = vp / 10, vm10 = vm / 10;
            if (vp10 <= vm10) {
                break;
            }
            vm_trailing_zeros &= vm % 10 == 0;
            vr_trailing_zeros &= last_removed == 0;
            last_removed = (uint32_t)(vr % 10);
            vr /= 10;
            vp = vp10;
            vm = vm10;
            removed++;
        }
        if (vm_trailing_zeros) {
            while (vm % 10 == 0) {
                vr_trailing_zeros &= last_removed == 0;
                last_removed = (uint32_t)(vr % 10);
                vr /= 10;
                vp /= 10;
                vm /= 10;
                removed++;
            }
        }
        if (vr_trailing_zeros && last_removed == 5 && vr % 2 == 0) {
            last_removed = 4;  /* an exact tie: round to even */
        }
        output = vr + ((vr == vm && (!accept_bounds || !vm_trailing_zeros))
                       || last_removed >= 5);
    } else {
        int round_up = 0;
        if (vp / 100 > vm / 100) {  /* two digits at a time first */
            round_up = vr % 100 >= 50;
            vr /= 100;
            vp /= 100;
            vm /= 100;
            removed += 2;
        }
        for (;;) {
            uint64_t vp10 = vp / 10, vm10 = vm / 10;
            if (vp10 <= vm10) {
                break;
            }
            round_up = vr % 10 >= 5;
            vr /= 10;
            vp = vp10;
            vm = vm10;
            removed++;
        }
        output = vr + (vr == vm || round_up);
    }
    *digits = output;
    return e10 + removed;
}

/* four digits of w < 10^4, leading zeros kept, to end[-4] .. end[-1] */
static inline void write_4(char *end, uint32_t w)
{
    memcpy(end - 2, digit_pairs + 2 * (w % 100), 2);
    memcpy(end - 4, digit_pairs + 2 * (w / 100), 2);
}

/* The decimal digits of v, written to end[-n] .. end[-1] for its n
 * digits: eight at a time on 32-bit words, each split into two halves of
 * four, so that the divisions of a word do not wait on one another. */
static inline void write_digits(char *end, uint64_t v)
{
    while (v >= 100000000) {
        uint64_t q = v / 100000000;
        uint32_t low = (uint32_t)(v - q * 100000000);
        write_4(end, low % 10000);
        write_4(end - 4, low / 10000);
        end -= 8;
        v = q;
    }
    uint32_t w = (uint32_t)v;
    if (w >= 10000) {
        write_4(end, w % 10000);
        end -= 4;
        w /= 10000;
    }
    if (w >= 100) {
        memcpy(end -= 2, digit_pairs + 2 * (w % 100), 2);
        w /= 100;
    }
    if (w >= 10) {
        memcpy(end - 2, digit_pairs + 2 * w, 2);
    } else {
        end[-1] = (char)('0' + w);
    }
}

/* repr(x) at p; returns the end of it (at most 24 bytes) */
static char *format_double(char *p, double x)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    uint64_t mantissa = bits & ((1ULL << MANTISSA_BITS) - 1);
    uint32_t exponent = (uint32_t)(bits >> MANTISSA_BITS) & 0x7FF;
    if (exponent == 0x7FF && mantissa != 0) {
        memcpy(p, "nan", 3);
        return p + 3;
    }
    if (bits >> 63) {
        *p++ = '-';
    }
    if (exponent == 0x7FF) {
        memcpy(p, "inf", 3);
        return p + 3;
    }
    if (exponent == 0 && mantissa == 0) {
        memcpy(p, "0.0", 3);
        return p + 3;
    }
    uint64_t v;
    int32_t e10 = shortest(mantissa, exponent, &v);
    int32_t n = (int32_t)decimal_length(v);
    char digits[17];
    write_digits(digits + n, v);
    /* the value is 0.d1d2...dn * 10^point */
    int32_t point = n + e10;
    if (point > -4 && point <= 16) {
        if (point <= 0) {
            memcpy(p, "0.", 2);
            memset(p + 2, '0', (size_t)-point);
            p += 2 - point;
            memcpy(p, digits, (size_t)n);
            return p + n;
        }
        if (point < n) {
            memcpy(p, digits, (size_t)point);
            p[point] = '.';
            memcpy(p + point + 1, digits + point, (size_t)(n - point));
            return p + n + 1;
        }
        memcpy(p, digits, (size_t)n);
        memset(p + n, '0', (size_t)(point - n));
        p += point;
        memcpy(p, ".0", 2);
        return p + 2;
    }
    *p++ = digits[0];
    if (n > 1) {
        *p++ = '.';
        memcpy(p, digits + 1, (size_t)(n - 1));
        p += n - 1;
    }
    int32_t e = point - 1;
    *p++ = 'e';
    *p++ = e < 0 ? '-' : '+';
    if (e < 0) {
        e = -e;
    }
    if (e >= 100) {
        *p++ = (char)('0' + e / 100);
        e %= 100;
    }
    memcpy(p, digit_pairs + 2 * e, 2);
    return p + 2;
}

/* str(x) at p; returns the end of it (at most 20 bytes) */
static char *format_int64(char *p, int64_t x)
{
    uint64_t v = (uint64_t)x;
    if (x < 0) {
        *p++ = '-';
        v = 0 - v;
    }
    char digits[20];
    uint32_t n = decimal_length(v);
    write_digits(digits + n, v);
    memcpy(p, digits, n);
    return p + n;
}

#define FLOAT64 0
#define INT64 1
#define FLOAT64_WIDTH 24
#define INT64_WIDTH 20

/*
 * Write `rows` rows of the `ncols` columns of block to out: block holds the
 * rows one after another, each as ncols 64-bit words, and column c is of
 * kind kinds[c] (FLOAT64 or INT64). Returns the number of bytes written, or
 * -1 when the worst case, 24 bytes a float, 20 an integer and a separator
 * after each, does not fit in cap bytes or a kind is unknown.
 */
long csv_body(long rows, long ncols, const int64_t *kinds, const void *block, char *out,
              long cap)
{
    long row_width = 0;
    for (long c = 0; c < ncols; c++) {
        if (kinds[c] != FLOAT64 && kinds[c] != INT64) {
            return -1;
        }
        row_width += (kinds[c] == FLOAT64 ? FLOAT64_WIDTH : INT64_WIDTH) + 1;
    }
    if (rows < 0 || ncols < 0 || cap < 0 || (row_width > 0 && rows > cap / row_width)) {
        return -1;
    }
    char *p = out;
    for (long r = 0; r < rows; r++) {
        for (long c = 0; c < ncols; c++) {
            if (kinds[c] == FLOAT64) {
                p = format_double(p, ((const double *)block)[r * ncols + c]);
            } else {
                p = format_int64(p, ((const int64_t *)block)[r * ncols + c]);
            }
            *p++ = c + 1 < ncols ? ',' : '\n';
        }
    }
    return (long)(p - out);
}
