/* The kick-drift-kick loop of fieldcqed.dynamics._leapfrog, statement for
 * statement: the same float operations in the same order, the same
 * divergence guard and the same libm sin, so phi and n come out bit for bit
 * as the Python loop writes them.  Compile with -ffp-contract=off, so that no
 * product and sum fuse into one rounding. */
#include <math.h>

/* Advance state = {f, v} by count steps of dt, storing each step's phase and
 * charge in phi_out and n_out, and write the final (f, v) back to state.
 * Returns -1, or the index of the step whose phase left (-1e150, 1e150);
 * the steps before it are stored, and state is left as it was. */
long fieldcqed_leapfrog(double ec, double ej, double ng, double dt, double *state,
                        double *phi_out, double *n_out, long count)
{
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
