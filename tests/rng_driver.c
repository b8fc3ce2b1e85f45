/* Runs philox_key and rng_standard_normal of src/enkpf/_rng.c on the
 * words of a manifest, each input and output in a heap block of exactly
 * its size, so that a build with -fsanitize=address reports a read or
 * write even one element past it.
 *
 *   rng_driver <manifest> <out file>
 *
 * Each line of the manifest is `<n> <k> <word 1> ... <word k>`: k uint32
 * words as enkpf.rng.RngNode assembles them and a number n of draws. For
 * each line the out file gets the two uint64 words of the key, then the n
 * doubles. tests/test_rng.py builds it with the sanitizers and compares
 * its output with numpy's.
 */

#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>

void philox_key(const uint32_t *words, long n_words, uint64_t *key);
void rng_standard_normal(const uint32_t *words, long n_words, double *out, long n);

int main(int argc, char **argv)
{
    FILE *manifest = argc == 3 ? fopen(argv[1], "r") : NULL;
    FILE *out = manifest ? fopen(argv[2], "wb") : NULL;
    if (!out) {
        fprintf(stderr, "usage: rng_driver <manifest> <out file>\n");
        return 2;
    }
    long n, k;
    while (fscanf(manifest, "%ld %ld", &n, &k) == 2) {
        /* malloc(0) may return NULL, which the kernel must not touch */
        uint32_t *words = malloc(k * sizeof *words);
        uint64_t *key = malloc(2 * sizeof *key);
        double *normals = malloc(n * sizeof *normals);
        for (long i = 0; i < k; i++) {
            unsigned long word;
            if (fscanf(manifest, "%lu", &word) != 1) {
                fprintf(stderr, "bad manifest line\n");
                return 2;
            }
            words[i] = (uint32_t)word;
        }
        philox_key(words, k, key);
        rng_standard_normal(words, k, normals, n);
        if (fwrite(key, sizeof *key, 2, out) != 2
            || fwrite(normals, sizeof *normals, n, out) != (size_t)n) {
            fprintf(stderr, "cannot write %s\n", argv[2]);
            return 2;
        }
        free(words);
        free(key);
        free(normals);
    }
    fclose(manifest);
    return fclose(out) ? 2 : 0;
}
