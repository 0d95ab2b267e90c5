/* The compiled kernels of fieldcqed, each repeating one loop of the package
 * operation for operation, so that its results are bit for bit those of
 * the Python or NumPy code it stands for:
 *
 *   fieldcqed_leapfrog      dynamics._leapfrog, the classical step loop;
 *   fieldcqed_phases        qops._phases, exp(-i E t) of Spectrum.propagate;
 *   fieldcqed_denominators  qops._denominators, the secular-function
 *                           reciprocals 1 / ((q_j - q_origin) - eta).
 *
 * Compile with -ffp-contract=off, so that no product and sum fuse into one
 * rounding, and never with -ffast-math, which would reassociate sums and
 * swap sincos for a vector variant. */
#define _GNU_SOURCE
#include <math.h>

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
