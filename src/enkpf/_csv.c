/* The body of a matrix CSV, formatted for enkpf.experiment.write_matrix_csv
 * and parsed for enkpf.experiment.read_matrix_csv.
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

/* csv_parse reads the body of a matrix CSV for
 * enkpf.experiment.read_matrix_csv: size bytes at body, which must be
 * exactly q lines of n values, each value followed by ',' and each line
 * ended by '\n'. A value is [-+]?(d+(.d*)?|.d+)([eE][-+]?d+)? with ASCII
 * digits and nothing else: no space, no "inf" or "nan". It writes the
 * C-contiguous (q, n) matrix to out and returns the number of slow values
 * (below), or -1 where the body does not have that form.
 *
 * Each value is the double nearest to the decimal, ties to even, as
 * Python's float() gives it. With the value m 10^e10 and the up to 19
 * significant digits in m:
 *  - m < 2^53 and |e10| <= 22: one IEEE product or quotient of two exact
 *    doubles, which rounds once (Clinger's fast path);
 *  - e10 >= 0 and the bit lengths of m and 5^e10 add to at most 128: the
 *    exact integer m 5^e10, rounded to 53 bits and scaled by 2^e10;
 *  - e10 < 0 and 5^-e10 < 2^72: the 128-bit quotient of m 2^s by 5^-e10,
 *    with m 2^s >= 2^126, so it has at least 55 bits; its remainder is the
 *    sticky bit of the rounding.
 * Every other value (a nonzero digit after the 19th significant one, or
 * an exponent outside these ranges) is slow: out holds a quiet NaN whose
 * payload is the offset of its first byte in body, and the caller parses
 * it. No value is read with strtod, whose decimal point follows
 * LC_NUMERIC.
 */

#define SIG_MAX 19
#define SLOW_NAN 0x7ff8000000000000ULL
#define SLOW_OFFSET_MAX (1LL << 51)
#define POW5_DIV_MAX 31 /* 5^31 < 2^72 */

static const double pow10_exact[23] = {
    1e0,  1e1,  1e2,  1e3,  1e4,  1e5,  1e6,  1e7,  1e8,  1e9,  1e10, 1e11,
    1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
};

static int bit_length(u128 x)
{
    uint64_t hi = (uint64_t)(x >> 64), lo = (uint64_t)x;
    return hi ? 128 - __builtin_clzll(hi) : lo ? 64 - __builtin_clzll(lo) : 0;
}

/* (x + f) 2^e2 for some 0 <= f < 1 (f > 0 where sticky), rounded to the
 * nearest double, ties to even; x >= 2^53 and the result is normal */
static double round_scaled(u128 x, int e2, int sticky)
{
    int shift = bit_length(x) - 53;
    uint64_t mant = (uint64_t)(x >> shift);
    u128 rest = x & (((u128)1 << shift) - 1), half = (u128)1 << (shift - 1);
    if (rest > half || (rest == half && (sticky || (mant & 1))))
        mant++;
    if (mant >> 53) { /* rounded up to 2^53 */
        mant >>= 1;
        shift++;
    }
    uint64_t bits = (uint64_t)(e2 + shift + 1075) << 52 | (mant & ((1ULL << 52) - 1));
    double v;
    memcpy(&v, &bits, sizeof v);
    return v;
}

/* the double nearest m 10^e10, or 0 where none of the exact tiers applies */
static int decimal_to_double(uint64_t m, long e10, const u128 *pow5, double *v)
{
    if (m < (1ULL << 53) && e10 >= -22 && e10 <= 22) {
        *v = e10 < 0 ? (double)m / pow10_exact[-e10] : (double)m * pow10_exact[e10];
        return 1;
    }
    if (e10 >= 0) {
        if (e10 > POW5_MAX || bit_length(m) + bit_length(pow5[e10]) > 128)
            return 0;
        *v = round_scaled(m * pow5[e10], (int)e10, 0);
        return 1;
    }
    if (-e10 > POW5_DIV_MAX)
        return 0;
    int s = 127 - bit_length(m);
    u128 num = (u128)m << s, den = pow5[-e10], quot = num / den;
    *v = round_scaled(quot, (int)e10 - s, quot * den != num);
    return 1;
}

/* Reads the value at *pp into *v and moves *pp past it; returns 1, 0 for a
 * slow value, or -1 where the text is not a value. The body ends in '\n',
 * which stops every loop here, so no read goes past it. */
static int parse_value(const char **pp, const u128 *pow5, double *v)
{
    const char *p = *pp;
    int negative = *p == '-';
    if (*p == '-' || *p == '+')
        p++;
    uint64_t m = 0;
    int digits = 0, exact = 1;
    long e10 = 0; /* a token may have more digits than an int counts */
    const char *first = p;
    for (; *p >= '0' && *p <= '9'; p++) {
        if (digits < SIG_MAX) {
            m = m * 10 + (uint64_t)(*p - '0');
            digits += m != 0;
        } else {
            e10++;
            exact &= *p == '0';
        }
    }
    int any = p != first;
    if (*p == '.') {
        first = ++p;
        for (; *p >= '0' && *p <= '9'; p++) {
            if (digits < SIG_MAX) {
                m = m * 10 + (uint64_t)(*p - '0');
                digits += m != 0;
                e10--;
            } else {
                exact &= *p == '0';
            }
        }
        any |= p != first;
    }
    if (!any)
        return -1;
    if (*p == 'e' || *p == 'E') {
        p++;
        int exp_negative = *p == '-';
        if (*p == '-' || *p == '+')
            p++;
        if (*p < '0' || *p > '9')
            return -1;
        long x = 0;
        for (; *p >= '0' && *p <= '9'; p++)
            if (x < 100000)
                x = x * 10 + (*p - '0');
        e10 += exp_negative ? -x : x;
    }
    *pp = p;
    if (m == 0) {
        *v = negative ? -0.0 : 0.0;
        return 1;
    }
    if (!exact || !decimal_to_double(m, e10, pow5, v))
        return 0;
    if (negative)
        *v = -*v;
    return 1;
}

long csv_parse(const char *body, long size, long q, long n, double *out)
{
    if (size <= 0 || body[size - 1] != '\n' || size >= SLOW_OFFSET_MAX)
        return -1;
    u128 pow5[POW5_MAX + 1];
    pow5[0] = 1;
    for (int i = 1; i <= POW5_MAX; i++)
        pow5[i] = pow5[i - 1] * 5;
    const char *p = body, *end = body + size;
    long slow = 0;
    for (long i = 0; i < q; i++)
        for (long j = 0; j < n; j++) {
            if (p == end)
                return -1;
            const char *start = p;
            double *v = out + i * n + j;
            int status = parse_value(&p, pow5, v);
            if (status < 0 || *p != (j + 1 < n ? ',' : '\n'))
                return -1;
            if (status == 0) {
                uint64_t bits = SLOW_NAN | (uint64_t)(start - body);
                memcpy(v, &bits, sizeof bits);
                slow++;
            }
            p++;
        }
    return p == end ? slow : -1;
}
