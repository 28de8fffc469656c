/*
 * Compiled greedy Landau-Vishkin x-drop extension over a batch of problems.
 *
 * The C twin of repro.align.batch.xdrop_extend_batch: the same
 * structure-of-arrays batch (one shared 2-bit code buffer addressed through
 * per-problem base/step/length views, with an XOR mask on t), the same
 * recurrence, bounds, snake slide, scoring, tie-break and x-drop prune, so
 * every (best, ext_s, ext_t) triple is identical to the numpy engine's.
 * Problems run one after another; each keeps its own diagonal window.
 *
 * Built on first use by repro.align.native and loaded through ctypes, which
 * releases the GIL for the duration of the call.
 */

#include <stdint.h>
#include <stdlib.h>

/* Dead-cell sentinel, equal to repro.align.xdrop.LV_NEG. */
#define LV_NEG (-(INT64_C(1) << 50))

/* Length of the exact-match run from (i, j); one character at a time gives
 * the run the numpy engine assembles from SNAKE_CHUNK-character gulps. */
static int64_t slide(const uint8_t *codes, int64_t sb, int64_t ss, int64_t m,
                     int64_t tb, int64_t ts, int64_t n, uint8_t tx,
                     int64_t i, int64_t j)
{
    int64_t r = 0, room = m - i < n - j ? m - i : n - j;
    const uint8_t *sp, *tp;
    if (room <= 0)
        return 0;
    sp = codes + sb + i * ss;
    tp = codes + tb + j * ts;
    while (r < room && *sp == (uint8_t)(*tp ^ tx)) {
        sp += ss;
        tp += ts;
        r++;
    }
    return r;
}

/* One problem.  buf holds five arrays of cap cells each (two F/M window
 * pairs, swapped every round, and the round's scores); cap >= m + n + 3
 * bounds the window, since live diagonals d = i - j lie in [-n, m]. */
static void extend_one(const uint8_t *codes, int64_t sb, int64_t ss,
                       int64_t m, int64_t tb, int64_t ts, int64_t n,
                       uint8_t tx, int64_t match, int64_t penalty,
                       int64_t xdrop, int64_t *buf, int64_t cap,
                       int64_t *out_best, int64_t *out_i, int64_t *out_j)
{
    int64_t *F = buf, *M = buf + cap, *Fn = buf + 2 * cap,
            *Mn = buf + 3 * cap, *S = buf + 4 * cap;
    int64_t *Fbase = F, *Mbase = M;
    int64_t f0, best, best_i, best_j, w, dlo, e;

    if (m <= 0 || n <= 0) {
        *out_best = 0;
        *out_i = 0;
        *out_j = 0;
        return;
    }
    /* Round 0: the seed diagonal's snake. */
    f0 = slide(codes, sb, ss, m, tb, ts, n, tx, 0, 0);
    best = f0 * match;
    best_i = f0;
    best_j = f0;
    if (f0 < m && f0 < n) {
        F[0] = f0;
        M[0] = f0;
        w = 1;
        dlo = 0;
        for (e = 1; e <= m + n; e++) {
            /* Grow the window by one diagonal on each side: new cell k is
             * diagonal ndlo + k; Fp/Mp(k) are the previous round's values
             * on that diagonal (dead outside the old window). */
            int64_t nw = w + 2, ndlo = dlo - 1;
            int64_t sbest = LV_NEG, thresh, lo = -1, hi = -1, k;
            for (k = 0; k < nw; k++) {
                int64_t d = ndlo + k, f, mm, jv;
                int64_t fp = (k >= 1 && k <= w) ? F[k - 1] : LV_NEG;
                int64_t mp = (k >= 1 && k <= w) ? M[k - 1] : LV_NEG;
                /* Substitution, insertion (from d - 1, i + 1), deletion
                 * (from d + 1, i unchanged): strict '>' keeps M paired
                 * with the first F winner in that order.  The window's
                 * edge cells have no insertion / deletion source. */
                f = fp + 1;
                mm = mp;
                if (k >= 2 && k - 1 <= w && F[k - 2] + 1 > f) {
                    f = F[k - 2] + 1;
                    mm = M[k - 2];
                }
                if (k + 1 <= w && F[k] > f) {
                    f = F[k];
                    mm = M[k];
                }
                /* Bounds: 0 <= i <= m and 0 <= j = i - d <= n. */
                jv = f - d;
                if (f >= 0 && f <= m && jv >= 0 && jv <= n &&
                    mm > LV_NEG / 2) {
                    int64_t r = slide(codes, sb, ss, m, tb, ts, n, tx, f, jv);
                    f += r;
                    mm += r;
                    S[k] = mm * match + e * penalty;
                    if (S[k] > sbest)
                        sbest = S[k];
                } else {
                    f = LV_NEG;
                    S[k] = LV_NEG;
                }
                Fn[k] = f;
                Mn[k] = mm;
            }
            if (sbest > best) {
                /* Tie-break equal scores toward the farthest-reaching cell
                 * (largest i + j), first in diagonal order. */
                int64_t reach = 0, kb = -1;
                for (k = 0; k < nw; k++) {
                    if (S[k] == sbest) {
                        int64_t rr = 2 * Fn[k] - (ndlo + k);
                        if (kb < 0 || rr > reach) {
                            reach = rr;
                            kb = k;
                        }
                    }
                }
                best = sbest;
                best_i = Fn[kb];
                best_j = Fn[kb] - (ndlo + kb);
            }
            /* X-drop prune, then trim the window to the live span. */
            thresh = best - xdrop;
            for (k = 0; k < nw; k++) {
                if (Fn[k] >= 0 && S[k] >= thresh) {
                    if (lo < 0)
                        lo = k;
                    hi = k;
                } else {
                    Fn[k] = LV_NEG;
                    Mn[k] = LV_NEG;
                }
            }
            if (lo < 0)
                break;
            {
                /* The trimmed new window lives in the Fn/Mn buffers; the
                 * next round writes into the ones just read from. */
                int64_t *fb = Fn, *mb = Mn;
                Fn = Fbase;
                Mn = Mbase;
                Fbase = fb;
                Mbase = mb;
                F = fb + lo;
                M = mb + lo;
            }
            w = hi - lo + 1;
            dlo = ndlo + lo;
        }
    }
    *out_best = best;
    *out_i = best_i;
    *out_j = best_j;
}

/* Returns 0 on success, -1 if the scratch window could not be allocated. */
int repro_xdrop_extend_batch(const uint8_t *codes, int64_t n_prob,
                             const int64_t *s_base, const int64_t *s_step,
                             const int64_t *s_len, const int64_t *t_base,
                             const int64_t *t_step, const int64_t *t_len,
                             const int64_t *t_xor, int64_t match,
                             int64_t mismatch, int64_t gap, int64_t xdrop,
                             int64_t *out_best, int64_t *out_i,
                             int64_t *out_j)
{
    int64_t p, cap = 0;
    int64_t penalty = mismatch < gap ? mismatch : gap;
    int64_t *buf;

    for (p = 0; p < n_prob; p++)
        if (s_len[p] > 0 && t_len[p] > 0 && s_len[p] + t_len[p] + 3 > cap)
            cap = s_len[p] + t_len[p] + 3;
    buf = (int64_t *)malloc((size_t)(5 * (cap > 0 ? cap : 1)) *
                            sizeof(int64_t));
    if (buf == NULL)
        return -1;
    for (p = 0; p < n_prob; p++)
        extend_one(codes, s_base[p], s_step[p], s_len[p], t_base[p],
                   t_step[p], t_len[p], (uint8_t)t_xor[p], match, penalty,
                   xdrop, buf, cap, out_best + p, out_i + p, out_j + p);
    free(buf);
    return 0;
}
