/* The body of a matrix CSV, formatted for enkpf.experiment.write_matrix_csv.
 *
 * csv_format writes the C-contiguous (q, n) float64 matrix x as q lines of
 * n comma-separated values into out, and returns the number of bytes
 * written. The caller owns out, which holds csv_field_max * q * n bytes.
 *
 * Each value is written exactly as Python's '%.17g' % v: the exact binary
 * value rounded half to even to 17 significant digits, in fixed notation
 * for decimal exponents -4 to 16 and in exponent notation otherwise,
 * trailing zeros stripped, the exponent signed and at least two digits.
 * With v = m 2^e, the digits are v 10^s = m 5^s 2^(e+s) for the scale s
 * that gives 17 digits, formed and rounded exactly in 128-bit integers.
 * That covers every normal double from about 1e-16 to 1e47 in magnitude;
 * the others go to snprintf, which glibc rounds the same way. A NaN is
 * written "nan" whatever its sign bit, as Python does; glibc would write
 * "-nan".
 */

#include <stdint.h>
#include <stdio.h>
#include <string.h>

typedef unsigned __int128 u128;

/* "-1.2345678901234567e-308" and its delimiter */
#define CSV_FIELD_MAX 25

const long csv_field_max = CSV_FIELD_MAX;

#define TEN16 10000000000000000ULL
#define TEN17 100000000000000000ULL
#define POW5_MAX 55 /* 5^55 < 2^128 */

/* floor(m 2^e 10^s) into *d and the sign of (discarded fraction - 1/2)
 * into *half; 0 where the exact value does not fit 128 bits. Needs
 * m < 2^53 and m 2^e 10^s < 10^18. */
static int scale(uint64_t m, int e, int s, const u128 *pow5, uint64_t *d, int *half)
{
    int t = e + s;
    if (s >= 0) {
        if (s > 32) /* m 5^s needs more than 128 bits */
            return 0;
        u128 num = m * pow5[s];
        if (t >= 0) {
            *d = (uint64_t)(num << t);
            *half = -1;
            return 1;
        }
        if (t < -127)
            return 0;
        u128 rem = num & (((u128)1 << -t) - 1), mid = (u128)1 << (-t - 1);
        *d = (uint64_t)(num >> -t);
        *half = rem < mid ? -1 : rem > mid;
        return 1;
    }
    if (-s > POW5_MAX || t < 0 || t > 74) /* m 2^t needs more than 128 bits */
        return 0;
    u128 num = (u128)m << t, den = pow5[-s];
    u128 rem = num % den;
    *d = (uint64_t)(num / den);
    *half = rem < den - rem ? -1 : rem > den - rem;
    return 1;
}

static char *put_fallback(char *p, double v)
{
    char tmp[32];
    int len = snprintf(tmp, sizeof tmp, "%.17g", v);
    memcpy(p, tmp, len);
    return p + len;
}

static char *put_value(char *p, double v, const u128 *pow5)
{
    uint64_t bits;
    memcpy(&bits, &v, sizeof bits);
    int biased = (int)(bits >> 52 & 0x7ff);
    uint64_t frac = bits & ((1ULL << 52) - 1);
    if (biased == 0x7ff && frac) {
        memcpy(p, "nan", 3);
        return p + 3;
    }
    if (bits >> 63) {
        *p++ = '-';
        v = -v;
    }
    if (biased == 0x7ff) {
        memcpy(p, "inf", 3);
        return p + 3;
    }
    if (biased == 0 && frac == 0) {
        *p++ = '0';
        return p;
    }
    if (biased == 0) /* subnormal */
        return put_fallback(p, v);

    uint64_t m = frac | 1ULL << 52, d;
    int e = biased - 1075, half;
    /* x estimates floor(log10 v) from floor(log2 v); the truncated digits
     * settle it */
    int x = (biased - 1023) * 78913 >> 18;
    for (;;) {
        if (!scale(m, e, 16 - x, pow5, &d, &half))
            return put_fallback(p, v);
        if (d >= TEN17)
            x++;
        else if (d < TEN16)
            x--;
        else
            break;
    }
    if (half > 0 || (half == 0 && (d & 1)))
        d++;
    if (d == TEN17) {
        d = TEN16;
        x++;
    }

    char digit[17];
    for (int i = 16; i >= 0; i--) {
        digit[i] = (char)('0' + d % 10);
        d /= 10;
    }
    int nd = 17; /* digits left once trailing zeros are stripped */
    while (digit[nd - 1] == '0')
        nd--;

    if (x >= 0 && x < 17) {
        memcpy(p, digit, x + 1);
        p += x + 1;
        if (nd > x + 1) {
            *p++ = '.';
            memcpy(p, digit + x + 1, nd - x - 1);
            p += nd - x - 1;
        }
        return p;
    }
    if (x < 0 && x >= -4) {
        *p++ = '0';
        *p++ = '.';
        for (int i = -1; i > x; i--)
            *p++ = '0';
        memcpy(p, digit, nd);
        return p + nd;
    }
    *p++ = digit[0];
    if (nd > 1) {
        *p++ = '.';
        memcpy(p, digit + 1, nd - 1);
        p += nd - 1;
    }
    *p++ = 'e';
    *p++ = x < 0 ? '-' : '+';
    int ax = x < 0 ? -x : x;
    if (ax >= 100)
        *p++ = (char)('0' + ax / 100);
    *p++ = (char)('0' + ax / 10 % 10);
    *p++ = (char)('0' + ax % 10);
    return p;
}

long csv_format(const double *x, long q, long n, char *out)
{
    u128 pow5[POW5_MAX + 1];
    pow5[0] = 1;
    for (int i = 1; i <= POW5_MAX; i++)
        pow5[i] = pow5[i - 1] * 5;
    char *p = out;
    for (long i = 0; i < q; i++)
        for (long j = 0; j < n; j++) {
            p = put_value(p, x[i * n + j], pow5);
            *p++ = j + 1 < n ? ',' : '\n';
        }
    return p - out;
}
