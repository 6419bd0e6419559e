/* The epochs of the dual coordinate descent of sentagree.classify.train_binary.

   cd_solve runs every epoch of one plane in one call; each epoch's body is the
   Python loop of classify._python_epoch, operation for operation and in the
   same order, on IEEE doubles.  It must be compiled without contraction
   (-ffp-contract=off) and without any flag that lets the compiler reassociate
   floating-point arithmetic, so that every plane keeps the Python loop's bits;
   classify runs a self-check before it uses the library.

   Rows are in CSR layout: row i holds indices[p], values[p] for p in
   indptr[i]..indptr[i + 1].  Each epoch visits the rows in the order that
   numpy's Generator.permutation(n) would draw next, shuffled into order (n
   entries) from the plane's generator: bit_generator.ctypes's state,
   next_uint32 and next_uint64.  w, alphas and state = {bias, dual objective,
   the last epoch's largest projected-gradient magnitude} are updated in
   place, and objectives[e] receives the dual objective after epoch e.  The
   plane stops after the first epoch whose magnitude is below tol, or after
   max_epochs; the return value is the number of epochs run. */

#include <stdint.h>

static double cd_epoch(int64_t n, const int64_t *order, const int64_t *indptr, const int64_t *indices,
                       const double *values, const double *ys, const double *q_diag, double bound,
                       double *w, double *alphas, double *state)
{
    double b = state[0], gained = state[1], worst = 0.0;
    for (int64_t k = 0; k < n; k++) {
        int64_t i = order[k], start = indptr[i], end = indptr[i + 1];
        double yi = ys[i], wx = 0.0;
        for (int64_t p = start; p < end; p++)
            wx += values[p] * w[indices[p]];
        double grad = yi * (wx + b) - 1.0;
        double ai = alphas[i];
        /* projected gradient 0: a bounded coordinate pushed out of its box */
        if (ai <= 0.0) {
            if (grad >= 0.0)
                continue;
        } else if (ai >= bound) {
            if (grad <= 0.0)
                continue;
        } else if (grad == 0.0) {
            continue;
        }
        double magnitude = grad < 0.0 ? -grad : grad;
        if (magnitude > worst)
            worst = magnitude;
        double qi = q_diag[i];
        double new_ai = ai - grad / qi;
        if (new_ai < 0.0)
            new_ai = 0.0;
        if (new_ai > bound)
            new_ai = bound;
        double d = new_ai - ai;
        if (d != 0.0) {
            gained += d * (-grad - 0.5 * qi * d);
            double step = d * yi;
            for (int64_t p = start; p < end; p++)
                w[indices[p]] += step * values[p];
            b += step;
            alphas[i] = new_ai;
        }
    }
    state[0] = b;
    state[1] = gained;
    return worst;
}

/* numpy's random_interval(max): a draw from 0..max by masked rejection */
static uint64_t interval(void *bits, uint32_t (*next_uint32)(void *), uint64_t (*next_uint64)(void *), uint64_t max)
{
    uint64_t mask = max, value;
    for (int shift = 1; shift < 64; shift *= 2) /* the smallest mask of ones that covers max */
        mask |= mask >> shift;
    do
        value = (max <= 0xffffffffULL ? next_uint32(bits) : next_uint64(bits)) & mask;
    while (value > max);
    return value;
}

int64_t cd_solve(int64_t n, int64_t max_epochs, void *bits, uint32_t (*next_uint32)(void *),
                 uint64_t (*next_uint64)(void *), int64_t *order, const int64_t *indptr, const int64_t *indices,
                 const double *values, const double *ys, const double *q_diag, double bound, double tol,
                 double *w, double *alphas, double *state, double *objectives)
{
    for (int64_t e = 0; e < max_epochs; e++) {
        /* Generator.permutation(n): Fisher-Yates over 0..n-1 from the last place down */
        for (int64_t k = 0; k < n; k++)
            order[k] = k;
        for (int64_t i = n - 1; i > 0; i--) {
            int64_t j = (int64_t)interval(bits, next_uint32, next_uint64, (uint64_t)i), kept = order[j];
            order[j] = order[i];
            order[i] = kept;
        }
        state[2] = cd_epoch(n, order, indptr, indices, values, ys, q_diag, bound, w, alphas, state);
        objectives[e] = state[1];
        if (state[2] < tol)
            return e + 1;
    }
    return max_epochs;
}
