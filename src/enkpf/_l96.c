/* Forward Euler steps of the Lorenz-96 model, compiled by enkpf.models.
 *
 * l96_euler advances the C-contiguous (q, m) float64 matrix x in place by
 * `steps` steps of x = x + dt * ((x[k+1] - x[k-2]) x[k-1] - x[k] + forcing),
 * indices cyclic along axis 0. It works on L96_BLOCK columns at a time: a
 * block is copied into one (q, L96_BLOCK) slab, stepped by ping-ponging
 * between that slab and a second one, and copied back. The caller owns
 * `work`, which holds 2 * q * l96_block + 8 doubles; the slabs start at the
 * first 64-byte boundary in it, so no row of a slab straddles a cache line.
 *
 * Each element takes the six IEEE operations of lorenz96_drift followed by
 * the Euler update, in the same order as the numpy loop, so the result is
 * bitwise equal to it as long as the compiler neither contracts a multiply
 * and an add into an FMA nor reassociates: build with -ffp-contract=off and
 * without -ffast-math. Wider vectors change neither: each lane does the
 * same scalar operations.
 */

#include <stdint.h>
#include <string.h>

/* a compile-time width lets the compiler unroll the row loop; two
 * (40, 32) slabs fit in L1 */
#define L96_BLOCK 32

/* On x86-64 ELF with glibc, step is compiled once per target below and an
 * ifunc resolver picks one by CPUID when the library loads, so the library
 * runs on any x86-64 CPU and uses AVX2 or AVX-512 where it finds them.
 * Elsewhere (musl resolves no ifuncs) step is built once, for the baseline
 * target. */
#if defined(__x86_64__) && defined(__ELF__) && defined(__GLIBC__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define L96_CLONES __attribute__((target_clones("avx512f", "avx2", "default")))
#endif
#endif
#ifndef L96_CLONES
#define L96_CLONES
#endif

const long l96_block = L96_BLOCK;

L96_CLONES
static void step(const double *restrict cur, double *restrict next, long q, double dt,
                 double forcing)
{
    for (long k = 0; k < q; k++) {
        const double *ahead = cur + (k + 1 < q ? k + 1 : 0) * L96_BLOCK;
        const double *back2 = cur + (k >= 2 ? k - 2 : k + q - 2) * L96_BLOCK;
        const double *back1 = cur + (k >= 1 ? k - 1 : q - 1) * L96_BLOCK;
        const double *here = cur + k * L96_BLOCK;
        double *out = next + k * L96_BLOCK;
        for (long j = 0; j < L96_BLOCK; j++) {
            double t = ahead[j] - back2[j];
            t *= back1[j];
            t -= here[j];
            t += forcing;
            t = dt * t;
            out[j] = here[j] + t;
        }
    }
}

void l96_euler(double *x, long q, long m, long steps, double dt, double forcing, double *work)
{
    double *slabs = (double *)(((uintptr_t)work + 63) & ~(uintptr_t)63);
    for (long j0 = 0; j0 < m; j0 += L96_BLOCK) {
        long w = m - j0 < L96_BLOCK ? m - j0 : L96_BLOCK;
        double *cur = slabs, *next = slabs + q * L96_BLOCK;
        /* columns past m in the last block start at 0 and stay finite */
        memset(cur, 0, q * L96_BLOCK * sizeof(double));
        for (long k = 0; k < q; k++)
            memcpy(cur + k * L96_BLOCK, x + k * m + j0, w * sizeof(double));
        for (long s = 0; s < steps; s++) {
            double *done = next;
            step(cur, done, q, dt, forcing);
            next = cur;
            cur = done;
        }
        for (long k = 0; k < q; k++)
            memcpy(x + k * m + j0, cur + k * L96_BLOCK, w * sizeof(double));
    }
}
