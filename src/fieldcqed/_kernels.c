/* The compiled kernels of fieldcqed, each repeating one loop of the package
 * operation for operation, so that its results are bit for bit those of
 * the Python or NumPy code it stands for:
 *
 *   fieldcqed_leapfrog      dynamics._leapfrog, the classical step loop;
 *   fieldcqed_phases        qops._phases, exp(-i E t) of Spectrum.propagate;
 *   fieldcqed_denominators  qops._denominators, the secular-function
 *                           reciprocals 1 / ((q_j - q_origin) - eta);
 *   fieldcqed_tridiagonal   qops._tridiagonal_reference, LAPACK stevd over
 *                           a stack of tridiagonal matrices with the
 *                           eigenpair residual gate.
 *
 * Compile with -ffp-contract=off, so that no product and sum fuse into one
 * rounding, and never with -ffast-math, which would reassociate sums and
 * swap sincos for a vector variant. */
#define _GNU_SOURCE
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* NumPy and OpenBLAS run AVX-512 code just before these kernels; SSE code
 * that follows it without a vzeroupper runs several times slower on some
 * x86-64 processors.  The library itself is built for any x86-64. */
static void clear_upper_state(void)
{
#if defined(__x86_64__) && defined(__GNUC__)
    if (__builtin_cpu_supports("avx"))
        __asm__ volatile("vzeroupper");
#endif
}

/* Advance state = {f, v} by count steps of dt, storing each step's phase and
 * charge in phi_out and n_out, and write the final (f, v) back to state.
 * Returns -1, or the index of the step whose phase left (-1e150, 1e150);
 * the steps before it are stored, and state is left as it was. */
long fieldcqed_leapfrog(double ec, double ej, double ng, double dt, double *state,
                        double *phi_out, double *n_out, long count)
{
    clear_upper_state();
    const double ec8 = 8.0 * ec;
    const double half = 0.5 * dt;
    double f = state[0], v = state[1];
    /* the closing half-kick of one step is the opening half-kick of the next */
    double kick = ej * sin(f) * half;
    for (long j = 0; j < count; j++) {
        v -= kick;
        f += ec8 * (v - ng) * dt;
        /* checked before sin(f), as the Python loop checks it; NaN fails too */
        if (!(-1e150 < f && f < 1e150))
            return j;
        kick = ej * sin(f) * half;
        v -= kick;
        phi_out[j] = f;
        n_out[j] = v;
    }
    state[0] = f;
    state[1] = v;
    return -1;
}

/* out[r, k] = exp(-i e[r] t[k]) as interleaved (cos y, sin y), row-major
 * over n_e x n_t.  NumPy forms the phase as the complex product of
 * (+0 - i e) with (t + 0i), whose imaginary part is 0*0 + (-e)*t, and takes
 * libm's cexp; with a zero real part glibc's cexp is sincos of that
 * imaginary part, and the 0*0 term gives +0, not -0, at t = 0. */
void fieldcqed_phases(const double *e, long n_e, const double *t, long n_t, double *out)
{
    clear_upper_state();
    for (long r = 0; r < n_e; r++) {
        const double minus_e = -e[r];
        double *row = out + 2 * r * n_t;
        for (long k = 0; k < n_t; k++) {
            const double y = 0.0 * 0.0 + minus_e * t[k];
            double s, c;
#ifdef __GLIBC__
            sincos(y, &s, &c);
#else
            s = sin(y);
            c = cos(y);
#endif
            row[2 * k] = c;
            row[2 * k + 1] = s;
        }
    }
}

/* out[r, j] = 1 / ((q[j] - qo[r]) - eta[r]) over n_rows x m, row-major:
 * NumPy's subtract, subtract and reciprocal, each one correctly rounded
 * operation, in one pass. */
void fieldcqed_denominators(const double *q, long m, const double *qo, const double *eta,
                            long n_rows, double *out)
{
    clear_upper_state();
    for (long r = 0; r < n_rows; r++) {
        const double o = qo[r], e = eta[r];
        double *row = out + r * m;
        for (long j = 0; j < m; j++)
            row[j] = 1.0 / ((q[j] - o) - e);
    }
}

/* LAPACK dstevd with 64-bit integers, as NumPy's bundled OpenBLAS exports
 * it; the last argument is the hidden length of the character jobz, which
 * a routine built without it ignores. */
typedef void (*stevd_fn)(const char *jobz, const int64_t *n, double *d, double *e, double *z,
                         const int64_t *ldz, double *work, const int64_t *lwork,
                         int64_t *iwork, const int64_t *liwork, int64_t *info, size_t jobz_len);

/* The largest ||H v - w v|| over the eigenpairs (w[j], column j of the
 * column-major z) of the tridiagonal H = (diag, off), each residual formed
 * in the order of the NumPy reference: diag * v, plus the upper band, plus
 * the lower band, minus v * w.  NaN once any residual is NaN. */
static double worst_residual(const double *diag, const double *off, const double *w,
                             const double *z, long n)
{
    double worst = 0.0;
    for (long j = 0; j < n; j++) {
        const double *v = z + j * n;
        double sum = 0.0;
        for (long i = 0; i < n; i++) {
            double r = diag[i] * v[i];
            if (i + 1 < n)
                r += off[i] * v[i + 1];
            if (i > 0)
                r += off[i - 1] * v[i - 1];
            r -= v[i] * w[j];
            sum += r * r;
        }
        const double resid = sqrt(sum);
        if (!isnan(worst) && !(resid <= worst))
            worst = resid;
    }
    return worst;
}

/* Eigenpairs of count symmetric tridiagonal matrices of order n >= 1 that
 * share the off-diagonal off (n - 1 entries), each one stevd call.  Row k
 * of d (count x n) holds the main diagonal of matrix k on entry and its
 * ascending eigenvalues on return; its eigenvectors go to
 * vecs + k * vecs_step as the columns of a column-major n x n block, so a
 * vecs_step of 0 reuses one block.  Every eigenpair (w, v) must satisfy
 * ||H v - w v|| <= 1e-10 max(max |w|, 1), and NaN fails.  Returns -1, or
 * the index of the first matrix that failed, whose later rows are left as
 * they were: report[0] is then stevd's info, or 0 when the matrix's worst
 * residual, report[1], broke the bound.  Returns -2 when the workspace
 * cannot be allocated. */
long fieldcqed_tridiagonal(stevd_fn stevd, double *d, const double *off, long n, long count,
                           double *vecs, long vecs_step, double *report)
{
    const int64_t order = n, lwork = 1 + 4 * (int64_t)n + (int64_t)n * n;
    const int64_t liwork = 3 + 5 * (int64_t)n;
    /* the diagonal that stevd overwrites, the off-diagonal it destroys, and
     * its workspace */
    double *diag = malloc(sizeof(double) * (size_t)(2 * n + lwork));
    int64_t *iwork = malloc(sizeof(int64_t) * (size_t)liwork);
    long failed = -1;
    if (diag == NULL || iwork == NULL)
        failed = -2;
    for (long k = 0; k < count && failed == -1; k++) {
        double *w = d + k * n, *e = diag + n, *z = vecs + k * vecs_step;
        int64_t info = 0;
        memcpy(diag, w, sizeof(double) * (size_t)n);
        memcpy(e, off, sizeof(double) * (size_t)(n - 1));
        stevd("V", &order, w, e, z, &order, e + n, &lwork, iwork, &liwork, &info, 1);
        clear_upper_state();
        if (info != 0) {
            report[0] = (double)info;
            failed = k;
            continue;
        }
        double scale = 1.0;
        for (long j = 0; j < n; j++)
            scale = fabs(w[j]) > scale ? fabs(w[j]) : scale;
        const double worst = worst_residual(diag, off, w, z, n);
        if (!(worst <= 1e-10 * scale)) {
            report[0] = 0.0;
            report[1] = worst;
            failed = k;
        }
    }
    free(diag);
    free(iwork);
    return failed;
}
