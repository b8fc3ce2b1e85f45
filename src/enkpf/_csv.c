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
 * "-nan". The digits are written two at a time from a table, and each
 * layout with stores of fixed width.
 */

#include <stdint.h>
#include <stdio.h>
#include <string.h>

typedef unsigned __int128 u128;

/* "-1.2345678901234567e-308" and its delimiter take 25 bytes; the 16-byte
 * move that places a decimal point reaches 34 bytes past a value's start,
 * so the caller reserves that much per value */
#define CSV_FIELD_MAX 34

const long csv_field_max = CSV_FIELD_MAX;

#define TEN8 100000000U
#define TEN16 10000000000000000ULL
#define TEN17 100000000000000000ULL
#define POW5_MAX 55 /* 5^55 < 2^128 */
#define POW5_DIV_MAX 31 /* 5^31 < 2^72 */

/* pow5[k] = 5^k; for 1 <= k <= POW5_DIV_MAX, pow5_inverse[k] holds the 128
 * leading bits of 5^-k: floor(2^(127 + b) / 5^k), where 5^k has b bits */
static u128 pow5[POW5_MAX + 1], pow5_inverse[POW5_DIV_MAX + 1];

static int bit_length(u128 x)
{
    uint64_t hi = (uint64_t)(x >> 64), lo = (uint64_t)x;
    return hi ? 128 - __builtin_clzll(hi) : lo ? 64 - __builtin_clzll(lo) : 0;
}

/* runs when the library is loaded, before any call */
__attribute__((constructor)) static void fill_tables(void)
{
    pow5[0] = 1;
    for (int k = 1; k <= POW5_MAX; k++)
        pow5[k] = pow5[k - 1] * 5;
    for (int k = 1; k <= POW5_DIV_MAX; k++) {
        /* long division of 2^(127 + b) by 5^k, one bit at a time */
        u128 quot = 0, rem = 1;
        for (int i = 127 + bit_length(pow5[k]); i > 0; i--) {
            rem <<= 1;
            quot <<= 1;
            if (rem >= pow5[k]) {
                rem -= pow5[k];
                quot |= 1;
            }
        }
        pow5_inverse[k] = quot;
    }
}

/* floor(m 2^e 10^s) into *d and the sign of (discarded fraction - 1/2)
 * into *half; 0 where the exact value does not fit 128 bits. Needs
 * m < 2^53 and m 2^e 10^s < 10^18. */
static int scale(uint64_t m, int e, int s, uint64_t *d, int *half)
{
    int t = e + s;
    if (s >= 0 && s <= 27 && t < 0 && t > -64) {
        /* the common case, in 64-bit words: 5^s < 2^64, and the discarded
         * bits are the low -t of the low word */
        u128 num = (u128)m * (uint64_t)pow5[s];
        uint64_t lo = (uint64_t)num, hi = (uint64_t)(num >> 64);
        uint64_t rem = lo << (64 + t), mid = 1ULL << 63;
        *d = hi << (64 + t) | lo >> -t;
        *half = (rem > mid) - (rem < mid);
        return 1;
    }
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
        *half = (rem > mid) - (rem < mid);
        return 1;
    }
    if (-s > POW5_MAX || t < 0 || t > 74) /* m 2^t needs more than 128 bits */
        return 0;
    u128 num = (u128)m << t, den = pow5[-s];
    u128 rem = num % den;
    *d = (uint64_t)(num / den);
    *half = (rem > den - rem) - (rem < den - rem);
    return 1;
}

/* For the double v >= 0 whose bits these are, its 17 significant digits
 * rounded half to even, 10^16 <= *digits < 10^17, and its decimal exponent
 * x, so that v rounds to digits 10^(x - 16); 0 where v is 0, subnormal,
 * not finite or outside the range scale() takes. */
static int decimal17(uint64_t bits, uint64_t *digits, int *exponent)
{
    int biased = (int)(bits >> 52 & 0x7ff);
    if (biased == 0 || biased == 0x7ff)
        return 0;
    uint64_t m = (bits & ((1ULL << 52) - 1)) | 1ULL << 52, d;
    int e = biased - 1075, half;
    /* x estimates floor(log10 v) from floor(log2 v); the truncated digits
     * settle it */
    int x = (biased - 1023) * 78913 >> 18;
    for (;;) {
        if (!scale(m, e, 16 - x, &d, &half))
            return 0;
        if (d >= TEN17)
            x++;
        else if (d < TEN16)
            x--;
        else
            break;
    }
    /* without a branch: half is as likely above 0 as below */
    d += (half > 0) | ((half == 0) & (int)(d & 1));
    if (d == TEN17) {
        d = TEN16;
        x++;
    }
    *digits = d;
    *exponent = x;
    return 1;
}

static const char two_digits[201] = /* "00" to "99" */
    "0001020304050607080910111213141516171819"
    "2021222324252627282930313233343536373839"
    "4041424344454647484950515253545556575859"
    "6061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* the 8 digits of v < 10^8 at p */
static inline void put8(char *p, uint32_t v)
{
    uint32_t high = v / 10000, low = v % 10000;
    memcpy(p, two_digits + 2 * (high / 100), 2);
    memcpy(p + 2, two_digits + 2 * (high % 100), 2);
    memcpy(p + 4, two_digits + 2 * (low / 100), 2);
    memcpy(p + 6, two_digits + 2 * (low % 100), 2);
}

/* The 17 digits of 10^16 <= d < 10^17 at p, with a point after the first
 * where point is 1; returns the number of digits left once trailing zeros
 * are stripped */
static inline int put_digits(char *p, uint64_t d, int point)
{
    uint64_t head = d / TEN8; /* the first 9 digits */
    uint32_t first = (uint32_t)head / TEN8;
    p[0] = (char)('0' + first);
    p[1] = '.'; /* a digit overwrites it where point is 0 */
    p += point;
    put8(p + 1, (uint32_t)head - first * TEN8);
    put8(p + 9, (uint32_t)(d - head * TEN8));
    int nd = 17;
    while (p[nd - 1] == '0') /* stops at the first digit, which is not 0 */
        nd--;
    return nd;
}

/* '%.17g' of the value with these digits and exponent (see decimal17) */
static char *put_decimal(char *p, uint64_t d, int x)
{
    if (x > 0 && x < 17) {
        int nd = put_digits(p, d, 0);
        if (nd <= x + 1)
            return p + x + 1;
        memmove(p + x + 2, p + x + 1, 16); /* the fraction, and bytes past it */
        p[x + 1] = '.';
        return p + nd + 1;
    }
    if (x < 0 && x >= -4) {
        memcpy(p, "0.0000", 6);
        p += 1 - x;
        return p + put_digits(p, d, 0);
    }
    /* d.ddd, alone for x = 0 and followed by the exponent otherwise */
    int nd = put_digits(p, d, 1);
    p += nd > 1 ? nd + 1 : 1;
    if (x == 0)
        return p;
    memcpy(p, x < 0 ? "e-" : "e+", 2);
    int ax = x < 0 ? -x : x;
    if (ax >= 100) {
        p[2] = (char)('0' + ax / 100);
        p++;
    }
    memcpy(p + 2, two_digits + 2 * (ax % 100), 2);
    return p + 4;
}

/* '%.17g' of a value decimal17 does not take */
static char *put_other(char *p, uint64_t bits)
{
    uint64_t magnitude = bits & ~(1ULL << 63), inf = 0x7ffULL << 52;
    if (magnitude > inf) {
        memcpy(p, "nan", 3);
        return p + 3;
    }
    if (bits >> 63)
        *p++ = '-';
    if (magnitude == inf) {
        memcpy(p, "inf", 3);
        return p + 3;
    }
    if (magnitude == 0) {
        *p = '0';
        return p + 1;
    }
    double v;
    memcpy(&v, &magnitude, sizeof v);
    char tmp[32];
    int len = snprintf(tmp, sizeof tmp, "%.17g", v);
    memcpy(p, tmp, len);
    return p + len;
}

/* A row is formatted BATCH values at a time: first the digits of each,
 * which do not depend on one another, then the text, whose place depends
 * on the length of the text before it. */
#define BATCH 16

long csv_format(const double *x, long q, long n, char *out)
{
    char *p = out;
    for (long i = 0; i < q; i++)
        for (long j = 0; j < n; j += BATCH) {
            int count = n - j < BATCH ? (int)(n - j) : BATCH, exponent[BATCH], exact[BATCH];
            uint64_t bits[BATCH], digits[BATCH];
            memcpy(bits, x + i * n + j, count * sizeof *bits);
            for (int k = 0; k < count; k++)
                exact[k] = decimal17(bits[k] & ~(1ULL << 63), digits + k, exponent + k);
            for (int k = 0; k < count; k++) {
                if (exact[k]) {
                    *p = '-';
                    p = put_decimal(p + (bits[k] >> 63), digits[k], exponent[k]);
                } else {
                    p = put_other(p, bits[k]);
                }
                *p++ = j + k + 1 < n ? ',' : '\n';
            }
        }
    return p - out;
}

/* csv_parse reads the body of a matrix CSV for
 * enkpf.experiment.read_matrix_csv: size bytes at body, which must be
 * exactly q lines of n values, each value followed by ',' and each line
 * ended by '\n'. A value is [-+]?(d+(.d*)?|.d+)([eE][-+]?d+)? with ASCII
 * digits and nothing else: no space, no "inf" or "nan". It writes the
 * C-contiguous (q, n) matrix to out and returns the number of slow values
 * (below), or -1 where the body does not have that form. No read goes
 * past body + size.
 *
 * Digits are scanned eight at a time where eight bytes remain (Lemire's
 * SWAR test and conversion, Lemire 2021, Softw. Pract. Exp. 51), one at a
 * time otherwise. Each value is the double nearest to the decimal, ties
 * to even, as Python's float() gives it. With the value m 10^e10 and the
 * up to 19 significant digits in m:
 *  - m < 2^53 and |e10| <= 22: one IEEE product or quotient of two exact
 *    doubles, which rounds once (Clinger's fast path);
 *  - e10 >= 0 and the bit lengths of m and 5^e10 add to at most 128: the
 *    exact integer m 5^e10, rounded to 53 bits and scaled by 2^e10;
 *  - e10 < 0 and 5^-e10 < 2^72: first the Eisel-Lemire step, the 128
 *    leading bits of m times the 128 leading bits of 5^e10, which decides
 *    the rounding unless its remainder lies within 2 below one half; then
 *    the 128-bit quotient of m 2^s by 5^-e10, with m 2^s >= 2^126, so it
 *    has at least 55 bits; its remainder is the sticky bit of the rounding.
 * Every other value (a nonzero digit after the 19th significant one, or
 * an exponent outside these ranges) is slow: out holds a quiet NaN whose
 * payload is the offset of its first byte in body, and the caller parses
 * it. No value is read with strtod, whose decimal point follows
 * LC_NUMERIC.
 */

#define SIG_MAX 19
#define SLOW_NAN 0x7ff8000000000000ULL
#define SLOW_OFFSET_MAX (1LL << 51)
#define ASCII_ZEROS 0x3030303030303030ULL

static const double pow10_exact[23] = {
    1e0,  1e1,  1e2,  1e3,  1e4,  1e5,  1e6,  1e7,  1e8,  1e9,  1e10, 1e11,
    1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
};

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
static int decimal_to_double(uint64_t m, long e10, double *v)
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
    /* With w = m 2^lz in [2^63, 2^64), m 10^e10 = w 2^(127 + b) / 5^k
     * 2^(e10 - lz - 127 - b) for k = -e10. pow5_inverse[k] is below
     * 2^(127 + b) / 5^k by less than 1, so the product lies in
     * (top, top + 2) 2^64. Where that interval holds no rounding boundary,
     * top rounds as the product does; an exact tie is never decided here. */
    int k = (int)-e10, lz = __builtin_clzll(m);
    uint64_t w = m << lz;
    u128 low = (u128)w * (uint64_t)pow5_inverse[k];
    u128 top = (u128)w * (uint64_t)(pow5_inverse[k] >> 64) + (low >> 64);
    uint64_t hi = (uint64_t)(top >> 64), lo = (uint64_t)top;
    int shift = 10 + (int)(hi >> 63);
    uint64_t rest = hi & ((1ULL << shift) - 1), half = 1ULL << (shift - 1);
    if (!(rest == half && lo == 0) && !(rest == half - 1 && lo >= -2ULL)) {
        /* top = mant 2^(64 + shift), rounded as the remainder says */
        uint64_t mant = (hi >> shift) + (rest >= half);
        int e2 = shift + 1 + (int)e10 - lz - bit_length(pow5[k]);
        if (mant >> 53) {
            mant >>= 1;
            e2++;
        }
        uint64_t bits = (uint64_t)(e2 + 1075) << 52 | (mant & ((1ULL << 52) - 1));
        memcpy(v, &bits, sizeof bits);
        return 1;
    }
    int s = 127 - bit_length(m);
    u128 num = (u128)m << s, den = pow5[k], quot = num / den;
    *v = round_scaled(quot, (int)e10 - s, quot * den != num);
    return 1;
}

/* the 8 bytes at p as a word whose low byte is p[0] */
static uint64_t load8(const char *p)
{
    uint64_t w;
    memcpy(&w, p, sizeof w);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    w = __builtin_bswap64(w);
#endif
    return w;
}

/* whether the 8 bytes of w are all ASCII digits */
static int eight_digits(uint64_t w)
{
    return !(((w + 0x4646464646464646ULL) | (w - ASCII_ZEROS)) & 0x8080808080808080ULL);
}

/* the value of the 8 ASCII digits in w, the first in its low byte */
static uint32_t eight_digit_value(uint64_t w)
{
    w -= ASCII_ZEROS;
    w = w * 10 + (w >> 8); /* two-digit values in bytes 0, 2, 4 and 6 */
    w = ((w & 0x000000FF000000FFULL) * (100 + (1000000ULL << 32)) +
         ((w >> 16 & 0x000000FF000000FFULL) * (1 + (10000ULL << 32)))) >> 32;
    return (uint32_t)w;
}

struct decimal {
    uint64_t m; /* the first SIG_MAX significant digits */
    int digits; /* how many m holds */
    int exact;  /* whether every digit after those is 0 */
    long e10;   /* a token may have more digits than an int counts */
};

/* Reads the digits from p into d and returns their end. A digit after
 * the first SIG_MAX significant ones moves e10 up by one in the integer
 * part; one of those in the fraction moves it down by one. The body ends
 * in '\n', which stops the digit-by-digit loop, and eight bytes are read
 * at once only where eight remain before end. */
static inline const char *scan_digits(const char *p, const char *end, int fraction, struct decimal *d)
{
    while (d->digits <= SIG_MAX - 8 && end - p >= 8) {
        uint64_t w = load8(p);
        if (!eight_digits(w))
            break;
        if (d->m)
            d->digits += 8;
        else if (w != ASCII_ZEROS) /* its leading zeros are not significant */
            d->digits = 8 - __builtin_ctzll(w - ASCII_ZEROS) / 8;
        d->m = d->m * TEN8 + eight_digit_value(w);
        d->e10 -= 8 * fraction;
        p += 8;
    }
    for (; *p >= '0' && *p <= '9'; p++) {
        if (d->digits < SIG_MAX) {
            d->m = d->m * 10 + (uint64_t)(*p - '0');
            d->digits += d->m != 0;
            d->e10 -= fraction;
        } else {
            d->e10 += !fraction;
            d->exact &= *p == '0';
        }
    }
    return p;
}

/* Reads the value at *pp into *v and moves *pp past it; returns 1, 0 for a
 * slow value, or -1 where the text is not a value. */
static int parse_value(const char **pp, const char *end, double *v)
{
    const char *p = *pp;
    int negative = *p == '-';
    if (*p == '-' || *p == '+')
        p++;
    struct decimal d = {0, 0, 1, 0};
    const char *first = p;
    p = scan_digits(p, end, 0, &d);
    int any = p != first;
    if (*p == '.') {
        first = ++p;
        p = scan_digits(p, end, 1, &d);
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
        d.e10 += exp_negative ? -x : x;
    }
    *pp = p;
    if (d.m == 0) {
        *v = negative ? -0.0 : 0.0;
        return 1;
    }
    if (!d.exact || !decimal_to_double(d.m, d.e10, v))
        return 0;
    if (negative)
        *v = -*v;
    return 1;
}

long csv_parse(const char *body, long size, long q, long n, double *out)
{
    if (size <= 0 || body[size - 1] != '\n' || size >= SLOW_OFFSET_MAX)
        return -1;
    const char *p = body, *end = body + size;
    long slow = 0;
    for (long i = 0; i < q; i++)
        for (long j = 0; j < n; j++) {
            if (p == end)
                return -1;
            const char *start = p;
            double *v = out + i * n + j;
            int status = parse_value(&p, end, v);
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
