/* Maximum delta-temporal cliques on uint64_t word bitsets: the exact
 * anchored-window sweep with its branch and bound, and the heuristic's
 * randomized greedy and local search.
 *
 * tempclique.solver builds this file with one `gcc -O2 -shared -fPIC` call
 * on first use and calls it through ctypes.  It must not be built with
 * -ffast-math: the window test `x - t <= delta` has to round exactly as the
 * same test in `delta_clique_check` does.
 *
 * Vertices are 0..n-1; a bitset has W = ceil(n / 64) words and adj holds n
 * of them, one per bit position.  Every function that allocates returns -1
 * when memory runs out.
 */
/* clock_gettime and CLOCK_MONOTONIC, also under -std=c11 */
#define _POSIX_C_SOURCE 199309L
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

/* Indices into the int64 counter array the caller passes. */
enum {
    ST_ANCHORS,         /* anchors scanned */
    ST_SKIP_EDGES,      /* anchors skipped: too few window edges for a larger clique */
    ST_SKIP_CANDIDATES, /* anchors skipped: too few common neighbours */
    ST_NODES,           /* branch-and-bound nodes */
    ST_COLORINGS,       /* greedy colorings */
    ST_RELABELS,        /* renumberings by descending window degree */
    ST_BUDGET_HIT,      /* 1 when the sweep stopped at the deadline */
    ST_COUNT
};

typedef struct {
    int64_t W;
    uint64_t *adj;
    int64_t best;      /* incumbent size */
    int64_t *best_set; /* its bit positions, when this search found it */
    int64_t *rstack;   /* bit positions of the clique being extended */
    uint64_t *pool;    /* bitsets: depth d uses words [d W, (d + 1) W) */
    size_t pool_words;
    int32_t *order;    /* (vertex, color) pairs of the colorings, stacked by depth */
    size_t order_len;
    int has_deadline;  /* 0 for the unbudgeted deadline +inf: the clock is never read */
    double deadline;
    int timed_out;
    int64_t *stats;
} Search;

static double now(void) {
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

static int64_t popcount(const uint64_t *x, int64_t W) {
    int64_t c = 0;
    for (int64_t j = 0; j < W; j++) c += __builtin_popcountll(x[j]);
    return c;
}

static int reserve(void **buf, size_t *cap, size_t need, size_t item) {
    if (need <= *cap) return 0;
    size_t cap2 = *cap ? *cap : 64;
    while (cap2 < need) cap2 *= 2;
    void *p = realloc(*buf, cap2 * item);
    if (!p) return -1;
    *buf = p;
    *cap = cap2;
    return 0;
}

/* Tomita-style branch and bound over the candidates at depth d of the pool,
 * extending the rsize vertices on rstack.  The candidates lie in words
 * lo..hi-1 and number at most maxk.  Greedy coloring takes color classes in
 * ascending bit order; pair i of `order` is the i-th colored vertex and its
 * color, an upper bound on a clique among the first i + 1.  Vertices are
 * tried from the last colored one down. */
static int expand(Search *S, int64_t d, size_t off, int64_t rsize, int64_t lo, int64_t hi, int64_t maxk) {
    const int64_t W = S->W;
    const uint64_t *const adj = S->adj;
    int64_t *stats = S->stats;
    stats[ST_NODES]++;
    if (S->has_deadline) {
        if (!(stats[ST_NODES] & 1023) && now() > S->deadline) S->timed_out = 1;
        if (S->timed_out) return 0;
    }
    stats[ST_COLORINGS]++;
    /* depths d + 1 and d + 2 hold the coloring's scratch sets until the
     * children reuse d + 1 */
    if (reserve((void **)&S->pool, &S->pool_words, (size_t)(d + 3) * W, sizeof(uint64_t)) ||
        reserve((void **)&S->order, &S->order_len, off + 2 * (size_t)maxk, sizeof(int32_t)))
        return -1;
    uint64_t *P = S->pool + d * W, *rest = P + W, *Q = P + 2 * W;
    int32_t *order = S->order + off;
    for (int64_t x = lo; x < hi; x++) rest[x] = P[x];
    int64_t k = 0, first = lo;
    int32_t color = 0;
    for (;;) {
        while (first < hi && !rest[first]) first++;
        if (first == hi) break;
        color++;
        for (int64_t x = first; x < hi; x++) Q[x] = rest[x];
        for (int64_t j = first;;) {
            uint64_t qj = 0;
            while (j < hi && !(qj = Q[j])) j++;
            if (j == hi) break;
            const int64_t w = j * 64 + __builtin_ctzll(qj);
            const uint64_t *aw = adj + w * W;
            rest[j] &= ~(qj & -qj);
            Q[j] = qj & (qj - 1) & ~aw[j];
            for (int64_t x = j + 1; x < hi; x++) Q[x] &= ~aw[x];
            order[2 * k] = (int32_t)w;
            order[2 * k + 1] = color;
            k++;
        }
    }
    for (int64_t i = k - 1; i >= 0; i--) {
        /* a child may have moved the pools */
        order = S->order + off;
        if (rsize + order[2 * i + 1] <= S->best) return 0;
        const int64_t w = order[2 * i];
        const uint64_t *aw = adj + w * W;
        P = S->pool + d * W;
        uint64_t *child = P + W;
        int64_t clo = hi, chi = lo;
        for (int64_t x = lo; x < hi; x++) {
            if ((child[x] = P[x] & aw[x])) {
                if (clo == hi) clo = x;
                chi = x + 1;
            }
        }
        S->rstack[rsize] = w;
        if (chi > clo) {
            if (expand(S, d + 1, off + 2 * (size_t)k, rsize + 1, clo, chi, i)) return -1;
            P = S->pool + d * W;
        } else if (rsize + 1 > S->best) {
            S->best = rsize + 1;
            memcpy(S->best_set, S->rstack, (rsize + 1) * sizeof(int64_t));
        }
        P[w >> 6] &= ~(1ULL << (w & 63));
        if (S->timed_out) return 0;
    }
    return 0;
}

/* Search the cliques through the edge (p, q) that beat the incumbent (of
 * size >= 2), among the common neighbours of p and q; with too few of them
 * for a larger clique, count the anchor as skipped and return. */
static int search_anchor(Search *S, int64_t p, int64_t q) {
    if (reserve((void **)&S->pool, &S->pool_words, 3 * (size_t)S->W, sizeof(uint64_t))) return -1;
    const uint64_t *ap = S->adj + p * S->W, *aq = S->adj + q * S->W;
    int64_t lo = S->W, hi = 0, k = 0;
    for (int64_t x = 0; x < S->W; x++) {
        if ((S->pool[x] = ap[x] & aq[x])) {
            if (lo == S->W) lo = x;
            hi = x + 1;
            k += __builtin_popcountll(S->pool[x]);
        }
    }
    if (k + 2 <= S->best) {
        S->stats[ST_SKIP_CANDIDATES]++;
        return 0;
    }
    S->rstack[0] = p;
    S->rstack[1] = q;
    return expand(S, 0, 0, 2, lo, hi, k);
}

static void set_edge(Search *S, int64_t p, int64_t q) {
    S->adj[p * S->W + (q >> 6)] |= 1ULL << (q & 63);
    S->adj[q * S->W + (p >> 6)] |= 1ULL << (p & 63);
}

static void clear_edge(Search *S, int64_t p, int64_t q) {
    S->adj[p * S->W + (q >> 6)] &= ~(1ULL << (q & 63));
    S->adj[q * S->W + (p >> 6)] &= ~(1ULL << (p & 63));
}

/* Rebuild adj from the window's edges lo..hi-1, with vertex v at bit pos[v]. */
static void build_window(Search *S, int64_t n, const int64_t *su, const int64_t *sv,
                         int64_t lo, int64_t hi, const int64_t *pos) {
    memset(S->adj, 0, (size_t)n * S->W * sizeof(uint64_t));
    for (int64_t e = lo; e < hi; e++) set_edge(S, pos[su[e]], pos[sv[e]]);
}

/* Renumber bit positions by descending window degree, ties by vertex id.
 * deg and start are scratch of n entries each. */
static void relabel(Search *S, int64_t n, int64_t *pos, int64_t *inv, int64_t *deg, int64_t *start) {
    memset(start, 0, (size_t)n * sizeof(int64_t));
    for (int64_t v = 0; v < n; v++) {
        deg[v] = popcount(S->adj + pos[v] * S->W, S->W);
        start[n - 1 - deg[v]]++; /* degrees lie in 0..n-1; bucket 0 is the densest */
    }
    for (int64_t b = 0, at = 0; b <= n - 1; b++) {
        int64_t c = start[b];
        start[b] = at;
        at += c;
    }
    for (int64_t v = 0; v < n; v++) inv[start[n - 1 - deg[v]]++] = v;
    for (int64_t p = 0; p < n; p++) pos[inv[p]] = p;
}

static int search_init(Search *S, int64_t n, double deadline, int64_t *stats) {
    memset(S, 0, sizeof *S);
    S->W = (n + 63) / 64;
    S->has_deadline = deadline < INFINITY;
    S->deadline = deadline;
    S->stats = stats;
    S->adj = calloc((size_t)n * S->W + 1, sizeof(uint64_t));
    S->best_set = malloc(((size_t)n + 2) * sizeof(int64_t));
    S->rstack = malloc(((size_t)n + 2) * sizeof(int64_t));
    return S->adj && S->best_set && S->rstack ? 0 : -1;
}

static void search_free(Search *S) {
    free(S->adj);
    free(S->best_set);
    free(S->rstack);
    free(S->pool);
    free(S->order);
}

/* The end of the window anchored at label t: the first index at or past hi
 * of the sorted labels slab[0..m) whose label x fails x - t <= delta. */
static int64_t window_end(const double *slab, int64_t m, int64_t hi, double t, double delta) {
    while (hi < m && slab[hi] - t <= delta) hi++;
    return hi;
}

/* The anchored-window sweep over edges sorted by label (su, sv, slab).
 *
 * The window anchored at edge a holds the edges e >= a with
 * slab[e] - slab[a] <= delta; when it holds enough edges for a larger
 * clique, search_anchor searches the cliques through edge a there, on bit
 * positions renumbered by descending window degree whenever the nodes since
 * the last renumbering reach the window's edge count.  After a full sweep,
 * the anchor where the incumbent last grew is searched again with bit
 * positions equal to vertex ids, from the size the incumbent had before it,
 * so the witness is that of an id-order sweep.
 *
 * The incumbent starts as the first edge, so a deadline that passes before
 * the first anchor still leaves a 2-clique; m must be positive.
 *
 * Writes the witness (vertex numbers) to `witness`, which holds n entries,
 * and returns its size.  stats receives ST_COUNT counters.  Returns -1 when
 * memory runs out. */
int64_t tc_sweep(int64_t n, int64_t m, const int64_t *su, const int64_t *sv, const double *slab,
                 double delta, double deadline, int64_t *witness, int64_t *stats) {
    Search S;
    int64_t *pos = malloc((size_t)n * sizeof(int64_t));
    int64_t *inv = malloc((size_t)n * sizeof(int64_t));
    int64_t *deg = malloc((size_t)n * sizeof(int64_t));
    int64_t *start = malloc((size_t)n * sizeof(int64_t));
    int64_t size = -1;
    memset(stats, 0, ST_COUNT * sizeof(int64_t));
    if (search_init(&S, n, deadline, stats) || !pos || !inv || !deg || !start) goto done;
    for (int64_t v = 0; v < n; v++) pos[v] = inv[v] = v;
    S.best = size = 2;
    witness[0] = su[0];
    witness[1] = sv[0];
    int64_t hi = 0, relabeled_at = 0, grown = -1, grown_before = 0;
    for (int64_t a = 0; a < m; a++) {
        for (const int64_t end = window_end(slab, m, hi, slab[a], delta); hi < end; hi++)
            set_edge(&S, pos[su[hi]], pos[sv[hi]]);
        if (a > 0) clear_edge(&S, pos[su[a - 1]], pos[sv[a - 1]]);
        if (S.has_deadline && now() > deadline) {
            stats[ST_BUDGET_HIT] = 1;
            break;
        }
        stats[ST_ANCHORS]++;
        /* a clique of size best + 1 needs C(best + 1, 2) window edges */
        if (hi - a < (S.best + 1) * S.best / 2) {
            stats[ST_SKIP_EDGES]++;
            continue;
        }
        if (stats[ST_NODES] - relabeled_at >= hi - a) {
            relabel(&S, n, pos, inv, deg, start);
            build_window(&S, n, su, sv, a, hi, pos);
            relabeled_at = stats[ST_NODES];
            stats[ST_RELABELS]++;
        }
        const int64_t before = S.best;
        if (search_anchor(&S, pos[su[a]], pos[sv[a]])) goto fail;
        if (S.best > before) {
            for (int64_t i = 0; i < S.best; i++) witness[i] = inv[S.best_set[i]];
            size = S.best;
            grown = a;
            grown_before = before;
        }
        if (S.timed_out) {
            stats[ST_BUDGET_HIT] = 1;
            break;
        }
    }
    if (grown >= 0 && !stats[ST_BUDGET_HIT]) {
        for (int64_t v = 0; v < n; v++) pos[v] = v;
        build_window(&S, n, su, sv, grown, window_end(slab, m, grown, slab[grown], delta), pos);
        S.best = grown_before;
        if (search_anchor(&S, su[grown], sv[grown])) goto fail;
        if (!S.timed_out) {
            memcpy(witness, S.best_set, S.best * sizeof(int64_t));
            size = S.best;
        }
    }
    goto done;
fail:
    size = -1;
done:
    search_free(&S);
    free(pos);
    free(inv);
    free(deg);
    free(start);
    return size;
}

/* numpy's bitgen_t (numpy/random/bitgen.h).  The heuristic's caller passes
 * the address of each restart's PCG64 bit generator, so every draw advances
 * numpy's own state, 32-bit buffering included. */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

/* Generator.integers(k) for 1 <= k < 2^32: numpy's bounded 32-bit Lemire
 * draw, which takes nothing from the stream when k == 1. */
static int64_t draw(bitgen_t *g, int64_t k) {
    if (k == 1) return 0;
    const uint32_t bound = (uint32_t)k;
    uint64_t x = (uint64_t)g->next_uint32(g->state) * bound;
    if ((uint32_t)x < bound) {
        const uint32_t threshold = (UINT32_MAX - (bound - 1)) % bound;
        while ((uint32_t)x < threshold) x = (uint64_t)g->next_uint32(g->state) * bound;
    }
    return (int64_t)(x >> 32);
}

/* The heuristic's state in the current window.  The clique is kept as a
 * list in the order the numpy version's Python list had: removals shift,
 * additions append. */
typedef struct {
    Search S;           /* adj, W; best_set and best hold the incumbent */
    int64_t n;
    int64_t *deg;       /* window degrees */
    int64_t *clique, k; /* the clique being built (S.rstack) and its size */
    int64_t *cnt;       /* cnt[x]: clique members adjacent to x */
    uint8_t *in_c;
    uint64_t *cand;     /* W words */
    uint64_t *mask;     /* W words, all zero between uses */
    int64_t *buf[4];    /* n + 1 entries each */
} Heur;

static void add_row(Heur *H, int64_t v, int64_t d) {
    const uint64_t *av = H->S.adj + v * H->S.W;
    for (int64_t j = 0; j < H->S.W; j++)
        for (uint64_t b = av[j]; b; b &= b - 1) H->cnt[j * 64 + __builtin_ctzll(b)] += d;
}

static void put(Heur *H, int64_t v) {
    H->clique[H->k++] = v;
    H->in_c[v] = 1;
    add_row(H, v, 1);
}

static void remove_at(Heur *H, int64_t p) {
    const int64_t v = H->clique[p];
    memmove(H->clique + p, H->clique + p + 1, (size_t)(H->k - p - 1) * sizeof(int64_t));
    H->k--;
    H->in_c[v] = 0;
    add_row(H, v, -1);
}

/* Randomized greedy: a random start vertex, then while candidates remain,
 * a random one of those whose score reaches the pool-th largest score (with
 * ties, in vertex order).  A candidate's score is its number of neighbours
 * among the candidates while they number at most 96, else its window
 * degree. */
static void greedy(Heur *H, bitgen_t *g, int64_t pool) {
    const int64_t W = H->S.W;
    const uint64_t *adj = H->S.adj;
    int64_t *idx = H->buf[0], *score = H->buf[1], *top = H->buf[2];
    int64_t v = draw(g, H->n);
    H->k = 0;
    memcpy(H->cand, adj + v * W, (size_t)W * sizeof(uint64_t));
    for (;;) {
        H->clique[H->k++] = v;
        int64_t c = 0;
        for (int64_t j = 0; j < W; j++)
            for (uint64_t b = H->cand[j]; b; b &= b - 1) idx[c++] = j * 64 + __builtin_ctzll(b);
        if (!c) return;
        /* top[0..p) holds the p largest scores so far, descending */
        const int64_t p = c < pool ? c : pool;
        for (int64_t i = 0; i < p; i++) top[i] = -1;
        for (int64_t i = 0; i < c; i++) {
            int64_t s = H->deg[idx[i]];
            if (c <= 96) {
                const uint64_t *ax = adj + idx[i] * W;
                s = 0;
                for (int64_t j = 0; j < W; j++) s += __builtin_popcountll(ax[j] & H->cand[j]);
            }
            score[i] = s;
            int64_t at = p - 1;
            if (s <= top[at]) continue;
            for (; at > 0 && top[at - 1] < s; at--) top[at] = top[at - 1];
            top[at] = s;
        }
        int64_t size = 0;
        for (int64_t i = 0; i < c; i++)
            if (score[i] >= top[p - 1]) idx[size++] = idx[i];
        v = idx[draw(g, size)];
        for (int64_t j = 0; j < W; j++) H->cand[j] &= adj[v * W + j];
    }
}

/* Local search on the greedy clique, for at most `rounds` moves: add the
 * addable vertex of largest window degree (the first on ties); else the
 * first (1,2)-swap; else, `plateau` times per restart, a random (1,1)-swap.
 * A near vertex is adjacent to all members but one; near vertices are
 * grouped by the position of the member they miss, in position order, and
 * a swap takes the row-major first edge inside the first group that has
 * one, in place of that member. */
static void improve(Heur *H, bitgen_t *g, int64_t rounds, int64_t plateau) {
    const int64_t n = H->n, W = H->S.W;
    const uint64_t *adj = H->S.adj;
    int64_t *near = H->buf[0], *miss = H->buf[1], *grp = H->buf[2], *end = H->buf[3];
    memset(H->in_c, 0, (size_t)n);
    memset(H->cnt, 0, (size_t)n * sizeof(int64_t));
    /* re-add the greedy clique in place, in order, to fill cnt and in_c */
    const int64_t k0 = H->k;
    H->k = 0;
    for (int64_t i = 0; i < k0; i++) put(H, H->clique[i]);
    for (int64_t r = 0; r < rounds; r++) {
        const int64_t k = H->k;
        int64_t add = -1, nn = 0;
        for (int64_t x = 0; x < n; x++) {
            if (H->in_c[x]) continue;
            if (H->cnt[x] == k) {
                if (add < 0 || H->deg[x] > H->deg[add]) add = x;
            } else if (H->cnt[x] == k - 1) {
                near[nn++] = x;
            }
        }
        if (add >= 0) {
            put(H, add);
            continue;
        }
        if (!nn) break;
        for (int64_t i = 0; i < nn; i++) {
            const uint64_t *ax = adj + near[i] * W;
            int64_t p = 0;
            while (ax[H->clique[p] >> 6] >> (H->clique[p] & 63) & 1) p++;
            miss[i] = p;
        }
        /* counting sort by missed position; group p is grp[end[p - 1]..end[p]) */
        memset(end, 0, (size_t)k * sizeof(int64_t));
        for (int64_t i = 0; i < nn; i++) end[miss[i]]++;
        for (int64_t p = 0, at = 0; p < k; p++) {
            at += end[p];
            end[p] = at - end[p];
        }
        for (int64_t i = 0; i < nn; i++) grp[end[miss[i]]++] = near[i];
        int64_t x = -1, y = -1, p = 0;
        for (int64_t lo = 0; p < k; lo = end[p++]) {
            if (end[p] - lo < 2) continue;
            for (int64_t i = lo; i < end[p]; i++) H->mask[grp[i] >> 6] |= 1ULL << (grp[i] & 63);
            for (int64_t i = lo; i < end[p] && y < 0; i++) {
                const uint64_t *ax = adj + grp[i] * W;
                for (int64_t j = 0; j < W; j++) {
                    const uint64_t hit = ax[j] & H->mask[j];
                    if (hit) {
                        x = grp[i];
                        y = j * 64 + __builtin_ctzll(hit);
                        break;
                    }
                }
            }
            for (int64_t i = lo; i < end[p]; i++) H->mask[grp[i] >> 6] = 0;
            if (y >= 0) break;
        }
        if (y >= 0) {
            remove_at(H, p);
            put(H, x);
            put(H, y);
            continue;
        }
        if (plateau > 0) {
            plateau--;
            const int64_t i = draw(g, nn);
            remove_at(H, miss[i]);
            put(H, near[i]);
            continue;
        }
        break;
    }
}

/* The heuristic over `windows` windows, one per slice of the sorted labels
 * slab[0..m): slice j holds the anchors bounds[j]..bounds[j+1]-1, which are
 * nonempty and ascending.  The window anchored at a holds the labels
 * x >= slab[a] with x - slab[a] <= delta; slice j's window is the first of
 * its anchors' windows with the most labels.  So window j holds the edges
 * whose label x has lo[j] <= x <= hi[j], and lo and hi are nondecreasing.
 * In each, `restarts` runs of greedy plus local search, run r drawing from
 * the bit generator at address gens[j * restarts + r].  The incumbent is
 * replaced only by a strictly larger clique.  After each run the deadline,
 * if any, is checked.
 *
 * An edge, of label lab[e], lies in windows enter..leave-1, where enter
 * counts the windows that end below its label and leave those that start at
 * or below it.  Both grow with the label, so the segment enter + leave names
 * one (enter, leave) pair; the edges are bucketed by segment once, and each
 * window is the previous one plus and minus whole segments.  The two counts
 * come from a table over the CELLS cells of [0, 1]: a label x lies in cell
 * k = (int64_t)(x * CELLS), and entry k holds both counts for the label
 * (k - 1) / CELLS, which no label in cell k is below.  From there the exact
 * tests step past the window bounds in between, so placing an edge takes
 * O(1) steps, not a binary search, unless many bounds crowd two cells.
 *
 * Writes the incumbent in list order to `witness` (n entries) and returns
 * its size; stats receives ST_BUDGET_HIT. */
enum { CELLS = 4096 };

int64_t tc_heuristic(int64_t n, int64_t m, const int64_t *u, const int64_t *v, const double *lab,
                     const double *slab, double delta, int64_t windows, const int64_t *bounds,
                     int64_t restarts, const uint64_t *gens, int64_t pool, int64_t rounds,
                     int64_t plateau, double deadline, int64_t *witness, int64_t *stats) {
    Heur H;
    int64_t size = -1;
    const int64_t nseg = 2 * windows + 1;
    memset(&H, 0, sizeof H);
    memset(stats, 0, ST_COUNT * sizeof(int64_t));
    H.n = n;
    int ok = !search_init(&H.S, n, deadline, stats);
    const int64_t W = H.S.W;
    H.clique = H.S.rstack;
    H.deg = malloc((size_t)n * sizeof(int64_t));
    H.cnt = malloc((size_t)n * sizeof(int64_t));
    H.in_c = malloc((size_t)n);
    H.cand = malloc((size_t)W * sizeof(uint64_t));
    H.mask = calloc((size_t)W, sizeof(uint64_t));
    int32_t *seg = malloc((size_t)m * sizeof(int32_t));
    int64_t *first = calloc((size_t)nseg + 1, sizeof(int64_t));
    int64_t *enter = calloc((size_t)nseg, sizeof(int64_t));
    int64_t *leave = calloc((size_t)nseg, sizeof(int64_t));
    /* vertex numbers fit 32 bits: the caller caps the n x W-word adjacency */
    uint32_t *pairs = malloc(2 * (size_t)m * sizeof(uint32_t));
    double *lo = malloc((size_t)windows * sizeof(double));
    double *hi = malloc((size_t)windows * sizeof(double));
    /* (enter, leave) pairs, one per cell and one for the label 1 */
    int64_t *cell = malloc(2 * ((size_t)CELLS + 1) * sizeof(int64_t));
    ok = ok && H.deg && H.cnt && H.in_c && H.cand && H.mask && seg && first && enter && leave;
    ok = ok && pairs && lo && hi && cell;
    for (int i = 0; i < 4; i++) ok = ok && (H.buf[i] = malloc(((size_t)n + 1) * sizeof(int64_t)));
    if (!ok) goto done;
    for (int64_t j = 0, end = 0; j < windows; j++) {
        int64_t most = 0;
        for (int64_t a = bounds[j]; a < bounds[j + 1]; a++) {
            end = window_end(slab, m, end, slab[a], delta);
            if (end - a > most) {
                most = end - a;
                lo[j] = slab[a];
                hi[j] = slab[end - 1];
            }
        }
    }
    for (int64_t k = 0, a = 0, b = 0; k <= CELLS; k++) {
        const double t = (double)(k - 1) / CELLS;
        while (a < windows && hi[a] < t) a++;
        while (b < windows && lo[b] <= t) b++;
        cell[2 * k] = a;
        cell[2 * k + 1] = b;
    }
    for (int64_t e = 0; e < m; e++) {
        /* labels are finite and in [0, 1], so 0 <= k <= CELLS */
        const double x = lab[e];
        const int64_t k = (int64_t)(x * CELLS);
        int64_t a = cell[2 * k], b = cell[2 * k + 1];
        while (a < windows && hi[a] < x) a++;
        while (b < windows && lo[b] <= x) b++;
        seg[e] = (int32_t)(a + b);
        enter[a + b] = a;
        leave[a + b] = b;
        first[a + b + 1]++;
    }
    for (int64_t s = 0; s < nseg; s++) first[s + 1] += first[s];
    for (int64_t e = 0; e < m; e++) {
        const int64_t at = first[seg[e]]++;
        pairs[2 * at] = (uint32_t)u[e];
        pairs[2 * at + 1] = (uint32_t)v[e];
    }
    /* the fill advanced first[s] to the start of segment s + 1 */
    for (int64_t s = nseg; s > 0; s--) first[s] = first[s - 1];
    first[0] = 0;
    H.S.best = 0;
    for (int64_t j = 0; j < windows && !stats[ST_BUDGET_HIT]; j++) {
        for (int64_t s = 0; s < nseg; s++) {
            if (enter[s] == j && leave[s] > j)
                for (int64_t e = first[s]; e < first[s + 1]; e++) set_edge(&H.S, pairs[2 * e], pairs[2 * e + 1]);
            if (leave[s] == j && enter[s] < j)
                for (int64_t e = first[s]; e < first[s + 1]; e++) clear_edge(&H.S, pairs[2 * e], pairs[2 * e + 1]);
        }
        for (int64_t x = 0; x < n; x++) H.deg[x] = popcount(H.S.adj + x * W, W);
        for (int64_t r = 0; r < restarts; r++) {
            bitgen_t *g = (bitgen_t *)(uintptr_t)gens[j * restarts + r];
            greedy(&H, g, pool);
            improve(&H, g, rounds, plateau);
            if (H.k > H.S.best) {
                H.S.best = H.k;
                memcpy(H.S.best_set, H.clique, (size_t)H.k * sizeof(int64_t));
            }
            if (H.S.has_deadline && now() > deadline) {
                stats[ST_BUDGET_HIT] = 1;
                break;
            }
        }
    }
    memcpy(witness, H.S.best_set, (size_t)H.S.best * sizeof(int64_t));
    size = H.S.best;
done:
    search_free(&H.S);
    free(H.deg);
    free(H.cnt);
    free(H.in_c);
    free(H.cand);
    free(H.mask);
    for (int i = 0; i < 4; i++) free(H.buf[i]);
    free(seg);
    free(first);
    free(enter);
    free(leave);
    free(pairs);
    free(lo);
    free(hi);
    free(cell);
    return size;
}
