/* Runs csv_parse and csv_format of src/enkpf/_csv.c on files, each input
 * and output in a heap block of exactly its size, so that a build with
 * -fsanitize=address reports a read or write even one byte past it.
 *
 *   csv_driver <manifest>
 *
 * Each line of the manifest is one command:
 *   parse <q> <n> <body file> <out file>
 *       writes csv_parse's return value (a long), then the q n doubles
 *   format <q> <n> <doubles file> <out file>
 *       writes the bytes csv_format gives the q n doubles
 * tests/test_csv.py builds it with the sanitizers and compares its output
 * with the library's.
 */

#include <stdio.h>
#include <stdlib.h>
#include <string.h>

long csv_parse(const char *body, long size, long q, long n, double *out);
long csv_format(const double *x, long q, long n, char *out);
extern const long csv_field_max;

/* the bytes of the file at path in a block of exactly their size */
static char *slurp(const char *path, long *size)
{
    FILE *f = fopen(path, "rb");
    if (!f || fseek(f, 0, SEEK_END) || (*size = ftell(f)) < 0 || fseek(f, 0, SEEK_SET))
        return NULL;
    char *data = malloc(*size ? *size : 1);
    if (*size && fread(data, 1, *size, f) != (size_t)*size)
        data = NULL;
    fclose(f);
    return data;
}

static int spill(const char *path, const void *a, size_t a_size, const void *b, size_t b_size)
{
    FILE *f = fopen(path, "wb");
    int ok = f && fwrite(a, 1, a_size, f) == a_size && fwrite(b, 1, b_size, f) == b_size;
    return (f && fclose(f) == 0 && ok) ? 0 : -1;
}

int main(int argc, char **argv)
{
    FILE *manifest = argc == 2 ? fopen(argv[1], "r") : NULL;
    if (!manifest) {
        fprintf(stderr, "usage: csv_driver <manifest>\n");
        return 2;
    }
    char command[16], in[4096], out[4096];
    long q, n, size;
    while (fscanf(manifest, "%15s %ld %ld %4095s %4095s", command, &q, &n, in, out) == 5) {
        char *data = slurp(in, &size);
        if (!data) {
            fprintf(stderr, "cannot read %s\n", in);
            return 2;
        }
        int failed;
        if (strcmp(command, "parse") == 0) {
            double *values = malloc(q * n * sizeof *values);
            long status = csv_parse(data, size, q, n, values);
            failed = spill(out, &status, sizeof status, values, status < 0 ? 0 : q * n * sizeof *values);
            free(values);
        } else {
            /* the doubles in a block of their own size, as the file holds them */
            char *text = malloc(csv_field_max * q * n);
            long length = csv_format((const double *)data, q, n, text);
            failed = spill(out, text, length, "", 0);
            free(text);
        }
        free(data);
        if (failed) {
            fprintf(stderr, "cannot write %s\n", out);
            return 2;
        }
    }
    fclose(manifest);
    return 0;
}
