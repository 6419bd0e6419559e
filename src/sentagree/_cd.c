/* The epochs of the dual coordinate descent of sentagree.classify.train_binary.

   cd_solve runs a block of epochs in one call; each epoch's body is the Python
   loop of classify._python_epoch, operation for operation and in the same
   order, on IEEE doubles.  It must be compiled without contraction
   (-ffp-contract=off) and without any flag that lets the compiler reassociate
   floating-point arithmetic, so that every plane keeps the Python loop's bits;
   classify runs a self-check before it uses the library.

   Rows are in CSR layout: row i holds indices[p], values[p] for p in
   indptr[i]..indptr[i + 1].  Epoch e visits the rows in orders[e * n ..
   e * n + n - 1].  w, alphas and state = {bias, dual objective, the last
   epoch's largest projected-gradient magnitude} are updated in place, and
   objectives[e] receives the dual objective after epoch e.  The block stops
   after the first epoch whose magnitude is below tol; the return value is
   the number of epochs run. */

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

int64_t cd_solve(int64_t n, int64_t epochs, const int64_t *orders, const int64_t *indptr, const int64_t *indices,
                 const double *values, const double *ys, const double *q_diag, double bound, double tol,
                 double *w, double *alphas, double *state, double *objectives)
{
    for (int64_t e = 0; e < epochs; e++) {
        state[2] = cd_epoch(n, orders + e * n, indptr, indices, values, ys, q_diag, bound, w, alphas, state);
        objectives[e] = state[1];
        if (state[2] < tol)
            return e + 1;
    }
    return epochs;
}
