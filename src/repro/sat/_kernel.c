/* Native CDCL search kernel for repro.sat.
 *
 * A line-for-line port of the pure-Python kernel in repro/sat/pykernel.py:
 * two-literal watching, first-UIP analysis with cheap minimisation, VSIDS
 * over a lazy heap, LBD-ranked learned-clause reduction and Luby restarts.
 * Every choice the Python kernel makes -- literal order inside a clause,
 * watch-list order, bump order, heap tie-breaks, the stable sort of the
 * reduction -- is reproduced, so both kernels walk the same search tree
 * and report the same counters, models and cores.
 *
 * Built at first use by repro.sat.native with the system compiler
 * (-O2 -shared -fPIC -ffp-contract=off) and loaded through ctypes.
 *
 * Literal codes: variable v maps to 2v (positive) and 2v+1 (negative);
 * code ^ 1 negates.  The public entry points take DIMACS literals.
 */
#define _POSIX_C_SOURCE 199309L

#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

enum { ST_UNSAT = 0, ST_SAT = 1, ST_UNKNOWN = 2, ST_PAUSED = 3, ST_BAD_LITERAL = -1 };

enum { DECISIONS, PROPAGATIONS, CONFLICTS, RESTARTS, LEARNED, DELETED, N_COUNTERS };

/* Clause header in the arena: size, flags, lbd; the literals follow. */
enum { C_SIZE = 0, C_FLAGS = 1, C_LBD = 2, C_HDR = 3 };
enum { F_LEARNT = 1, F_DELETED = 2, F_LOCKED = 4 };

typedef struct {
    int32_t *d;
    int64_t n, cap;
} vec;

typedef struct {
    double act;
    int32_t var;
} hent;

typedef struct {
    int32_t n_vars, cap_vars;
    int8_t *assign; /* -1 unassigned, else 0/1 */
    int32_t *level;
    int32_t *reason; /* clause ref, -1 for none */
    int8_t *phase;
    double *activity;
    int8_t *in_heap;
    int8_t *seen;     /* per variable; all zero between calls */
    int8_t *cmark;    /* per literal code; all zero between calls */
    int32_t *lvlmark; /* per level stamp for LBD */
    int32_t lvlstamp;
    vec *watches; /* indexed by literal code */

    vec arena;   /* clause store, refs are offsets */
    vec learnts; /* live learned clause refs, in learning order */
    vec orig;    /* every added clause as given, 0-terminated, for model checks */

    int32_t *trail;
    int32_t trail_n, qhead;
    vec trail_lim;

    hent *heap;
    int64_t heap_n, heap_cap;

    double var_inc, var_decay;
    int64_t restart_base, reduce_base;
    int ok;
    int64_t stats[N_COUNTERS];

    /* the solve call in progress */
    vec assumps;
    int has_max, has_timeout;
    int64_t max_conflicts;
    double timeout_s, started;
    int64_t conflicts_here, luby_index, restart_budget, since_restart, reduce_budget;

    vec learnt, minimised, codes, core;
    uint8_t *model;
} Solver;

/* ------------------------------------------------------------------ */
/* small helpers                                                       */
/* ------------------------------------------------------------------ */
static void *xrealloc(void *p, size_t size) {
    void *q = realloc(p, size ? size : 1);
    if (!q) abort();
    return q;
}

static inline void vpush(vec *v, int32_t x) {
    if (v->n == v->cap) {
        v->cap = v->cap ? 2 * v->cap : 4;
        v->d = xrealloc(v->d, (size_t)v->cap * sizeof(int32_t));
    }
    v->d[v->n++] = x;
}

static double now_s(void) {
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + 1e-9 * (double)ts.tv_nsec;
}

static int64_t luby(int64_t i) {
    int64_t k = 1;
    while (((int64_t)1 << (k + 1)) - 1 <= i) k++;
    while (i > ((int64_t)1 << k) - 1) {
        i -= ((int64_t)1 << k) - 1;
        k = 1;
        while (((int64_t)1 << (k + 1)) - 1 <= i) k++;
    }
    return k > 0 ? (int64_t)1 << (k - 1) : 1;
}

static inline int32_t *clause_at(Solver *s, int32_t cref) { return s->arena.d + cref; }

static inline int value(const Solver *s, int32_t code) {
    int a = s->assign[code >> 1];
    return a < 0 ? -1 : a ^ (code & 1);
}

/* ------------------------------------------------------------------ */
/* VSIDS heap: max activity first, then smallest variable              */
/* ------------------------------------------------------------------ */
static inline int hless(hent a, hent b) {
    return a.act > b.act || (a.act == b.act && a.var < b.var);
}

static void heap_push(Solver *s, int32_t var) {
    if (s->heap_n == s->heap_cap) {
        s->heap_cap = s->heap_cap ? 2 * s->heap_cap : 64;
        s->heap = xrealloc(s->heap, (size_t)s->heap_cap * sizeof(hent));
    }
    hent e = {s->activity[var], var};
    int64_t i = s->heap_n++;
    while (i > 0) {
        int64_t parent = (i - 1) >> 1;
        if (!hless(e, s->heap[parent])) break;
        s->heap[i] = s->heap[parent];
        i = parent;
    }
    s->heap[i] = e;
    s->in_heap[var] = 1;
}

static hent heap_pop(Solver *s) {
    hent top = s->heap[0];
    hent last = s->heap[--s->heap_n];
    int64_t n = s->heap_n, i = 0;
    if (n > 0) {
        for (;;) {
            int64_t child = 2 * i + 1;
            if (child >= n) break;
            if (child + 1 < n && hless(s->heap[child + 1], s->heap[child])) child++;
            if (!hless(s->heap[child], last)) break;
            s->heap[i] = s->heap[child];
            i = child;
        }
        s->heap[i] = last;
    }
    return top;
}

/* ------------------------------------------------------------------ */
/* construction                                                        */
/* ------------------------------------------------------------------ */
static void grow_vars(Solver *s, int32_t need) {
    int32_t cap = s->cap_vars ? s->cap_vars : 16;
    while (cap <= need) cap *= 2;
    size_t n = (size_t)cap;
    s->assign = xrealloc(s->assign, n);
    s->level = xrealloc(s->level, n * sizeof(int32_t));
    s->reason = xrealloc(s->reason, n * sizeof(int32_t));
    s->phase = xrealloc(s->phase, n);
    s->activity = xrealloc(s->activity, n * sizeof(double));
    s->in_heap = xrealloc(s->in_heap, n);
    s->seen = xrealloc(s->seen, n);
    s->lvlmark = xrealloc(s->lvlmark, n * sizeof(int32_t));
    s->model = xrealloc(s->model, n);
    s->trail = xrealloc(s->trail, n * sizeof(int32_t));
    s->cmark = xrealloc(s->cmark, 2 * n);
    s->watches = xrealloc(s->watches, 2 * n * sizeof(vec));
    size_t old = (size_t)s->cap_vars;
    memset(s->lvlmark + old, 0, (n - old) * sizeof(int32_t));
    memset(s->cmark + 2 * old, 0, 2 * (n - old));
    memset(s->watches + 2 * old, 0, 2 * (n - old) * sizeof(vec));
    s->cap_vars = cap;
}

static int32_t new_var(Solver *s) {
    if (s->n_vars + 1 >= s->cap_vars) grow_vars(s, s->n_vars + 1);
    int32_t v = ++s->n_vars;
    s->assign[v] = -1;
    s->level[v] = 0;
    s->reason[v] = -1;
    s->phase[v] = 0;
    s->activity[v] = 0.0;
    s->seen[v] = 0;
    heap_push(s, v);
    return v;
}

static void ensure_vars(Solver *s, int32_t max_var) {
    while (s->n_vars < max_var) new_var(s);
}

static int32_t alloc_clause(Solver *s, const int32_t *lits, int64_t n, int flags, int lbd) {
    int32_t cref = (int32_t)s->arena.n;
    vpush(&s->arena, (int32_t)n);
    vpush(&s->arena, flags);
    vpush(&s->arena, lbd);
    for (int64_t i = 0; i < n; i++) vpush(&s->arena, lits[i]);
    return cref;
}

/* ------------------------------------------------------------------ */
/* trail                                                               */
/* ------------------------------------------------------------------ */
static int enqueue(Solver *s, int32_t code, int32_t reason) {
    int v = value(s, code);
    if (v != -1) return v == 1;
    int32_t var = code >> 1;
    s->assign[var] = (int8_t)(1 - (code & 1));
    s->level[var] = (int32_t)s->trail_lim.n;
    s->reason[var] = reason;
    s->phase[var] = s->assign[var];
    s->trail[s->trail_n++] = code;
    return 1;
}

static void backtrack(Solver *s, int64_t target) {
    if (s->trail_lim.n <= target) return;
    int32_t boundary = s->trail_lim.d[target];
    for (int32_t i = s->trail_n - 1; i >= boundary; i--) {
        int32_t var = s->trail[i] >> 1;
        s->assign[var] = -1;
        s->reason[var] = -1;
        if (!s->in_heap[var]) heap_push(s, var);
    }
    s->trail_n = boundary;
    s->trail_lim.n = target;
    s->qhead = s->trail_n;
}

/* ------------------------------------------------------------------ */
/* propagation                                                         */
/* ------------------------------------------------------------------ */
static int32_t propagate(Solver *s) {
    int8_t *assign = s->assign;
    int32_t current_level = (int32_t)s->trail_lim.n;
    int64_t props = 0;
    int32_t conflict = -1;
    while (s->qhead < s->trail_n) {
        int32_t p_true = s->trail[s->qhead++];
        props++;
        int32_t falsified = p_true ^ 1;
        vec *ws = &s->watches[falsified];
        int32_t *w = ws->d;
        int64_t n = ws->n, i = 0, j = 0;
        while (i < n) {
            int32_t cref = w[i++];
            int32_t *c = s->arena.d + cref;
            if (c[C_FLAGS] & F_DELETED) continue;
            int32_t *lits = c + C_HDR;
            if (lits[0] == falsified) {
                lits[0] = lits[1];
                lits[1] = falsified;
            }
            int32_t other = lits[0];
            int a = assign[other >> 1];
            if (a >= 0 && (a ^ (other & 1)) == 1) {
                w[j++] = cref;
                continue;
            }
            int32_t size = c[C_SIZE];
            int replaced = 0;
            for (int32_t k = 2; k < size; k++) {
                int32_t lk = lits[k];
                int ak = assign[lk >> 1];
                if (ak < 0 || (ak ^ (lk & 1)) == 1) {
                    lits[k] = lits[1];
                    lits[1] = lk;
                    vpush(&s->watches[lk], cref);
                    replaced = 1;
                    break;
                }
            }
            if (replaced) continue;
            w[j++] = cref;
            if (a < 0) {
                int32_t var = other >> 1;
                int8_t bit = (int8_t)(1 - (other & 1));
                assign[var] = bit;
                s->level[var] = current_level;
                s->reason[var] = cref;
                s->phase[var] = bit;
                s->trail[s->trail_n++] = other;
            } else {
                conflict = cref;
                while (i < n) {
                    int32_t rest = w[i++];
                    if (!(s->arena.d[rest + C_FLAGS] & F_DELETED)) w[j++] = rest;
                }
            }
        }
        ws->n = j;
        if (conflict >= 0) {
            s->qhead = s->trail_n;
            break;
        }
    }
    s->stats[PROPAGATIONS] += props;
    return conflict;
}

/* ------------------------------------------------------------------ */
/* conflict analysis                                                   */
/* ------------------------------------------------------------------ */
static void bump_var(Solver *s, int32_t var) {
    s->activity[var] += s->var_inc;
    if (s->activity[var] > 1e100) {
        for (int32_t v = 1; v <= s->n_vars; v++) s->activity[v] *= 1e-100;
        s->var_inc *= 1e-100;
    }
    heap_push(s, var);
}

static int redundant(Solver *s, int32_t code) {
    int32_t r = s->reason[code >> 1];
    if (r < 0) return 0;
    int32_t *c = clause_at(s, r);
    for (int32_t k = 0; k < c[C_SIZE]; k++) {
        int32_t var = c[C_HDR + k] >> 1;
        if (var == code >> 1) continue;
        if (!s->seen[var] && s->level[var] > 0) return 0;
    }
    return 1;
}

/* First-UIP analysis into s->learnt (asserting literal first); returns the
 * backjump level. */
static int32_t analyze(Solver *s, int32_t conflict) {
    int32_t current_level = (int32_t)s->trail_lim.n;
    vec *learnt = &s->learnt;
    learnt->n = 0;
    vpush(learnt, 0);
    int32_t counter = 0, p = -1;
    int32_t index = s->trail_n - 1;
    int32_t cref = conflict;
    for (;;) {
        int32_t *c = clause_at(s, cref);
        int32_t size = c[C_SIZE];
        for (int32_t k = 0; k < size; k++) {
            int32_t q = c[C_HDR + k];
            if (q == p) continue;
            int32_t var = q >> 1;
            if (!s->seen[var] && s->level[var] > 0) {
                s->seen[var] = 1;
                bump_var(s, var);
                if (s->level[var] >= current_level) counter++;
                else vpush(learnt, q);
            }
        }
        while (!s->seen[s->trail[index] >> 1]) index--;
        p = s->trail[index];
        index--;
        int32_t var = p >> 1;
        s->seen[var] = 0;
        counter--;
        if (counter == 0) {
            learnt->d[0] = p ^ 1;
            break;
        }
        cref = s->reason[var];
    }

    vec *kept = &s->minimised;
    kept->n = 0;
    vpush(kept, learnt->d[0]);
    for (int64_t k = 1; k < learnt->n; k++)
        if (!redundant(s, learnt->d[k])) vpush(kept, learnt->d[k]);
    for (int64_t k = 1; k < learnt->n; k++) s->seen[learnt->d[k] >> 1] = 0;

    int32_t back_level = 0;
    if (kept->n > 1) {
        int64_t max_idx = 1;
        for (int64_t k = 1; k < kept->n; k++)
            if (s->level[kept->d[k] >> 1] > s->level[kept->d[max_idx] >> 1]) max_idx = k;
        int32_t tmp = kept->d[1];
        kept->d[1] = kept->d[max_idx];
        kept->d[max_idx] = tmp;
        back_level = s->level[kept->d[1] >> 1];
    }
    return back_level;
}

/* The failed-assumption core of `failed` (MiniSat's analyzeFinal), as
 * DIMACS literals in s->core. */
static void analyze_final(Solver *s, int32_t failed) {
    vec *core = &s->core;
    core->n = 0;
    vpush(core, failed);
    if (s->trail_lim.n) {
        int32_t start = s->trail_lim.d[0];
        s->seen[failed >> 1] = 1;
        for (int32_t idx = s->trail_n - 1; idx >= start; idx--) {
            int32_t p = s->trail[idx];
            int32_t var = p >> 1;
            if (!s->seen[var]) continue;
            s->seen[var] = 0;
            int32_t r = s->reason[var];
            if (r < 0) {
                vpush(core, p);
            } else {
                int32_t *c = clause_at(s, r);
                for (int32_t k = 0; k < c[C_SIZE]; k++) {
                    int32_t q = c[C_HDR + k];
                    if (s->level[q >> 1] > 0) s->seen[q >> 1] = 1;
                }
            }
        }
        for (int32_t idx = start; idx < s->trail_n; idx++) s->seen[s->trail[idx] >> 1] = 0;
        s->seen[failed >> 1] = 0;
    }
    for (int64_t k = 0; k < core->n; k++) {
        int32_t code = core->d[k];
        core->d[k] = (code & 1) ? -(code >> 1) : (code >> 1);
    }
}

static void record_learnt(Solver *s) {
    vec *learnt = &s->minimised;
    if (learnt->n == 1) {
        enqueue(s, learnt->d[0], -1);
        return;
    }
    int32_t stamp = ++s->lvlstamp;
    int lbd = 0;
    for (int64_t k = 0; k < learnt->n; k++) {
        int32_t lv = s->level[learnt->d[k] >> 1];
        if (s->lvlmark[lv] != stamp) {
            s->lvlmark[lv] = stamp;
            lbd++;
        }
    }
    int32_t cref = alloc_clause(s, learnt->d, learnt->n, F_LEARNT, lbd);
    vpush(&s->learnts, cref);
    s->stats[LEARNED]++;
    vpush(&s->watches[learnt->d[0]], cref);
    vpush(&s->watches[learnt->d[1]], cref);
    enqueue(s, learnt->d[0], cref);
}

/* ------------------------------------------------------------------ */
/* decisions and learned-clause reduction                              */
/* ------------------------------------------------------------------ */
static int32_t pick_branch_var(Solver *s) {
    while (s->heap_n) {
        hent e = heap_pop(s);
        int32_t var = e.var;
        if (s->assign[var] < 0) {
            if (e.act == s->activity[var]) {
                s->in_heap[var] = 0;
                return var;
            }
            continue; /* stale entry; a fresher one exists */
        }
        s->in_heap[var] = 0;
    }
    for (int32_t var = 1; var <= s->n_vars; var++)
        if (s->assign[var] < 0) return var;
    return 0;
}

typedef struct {
    int32_t lbd, len, idx, cref;
} rank_t;

static int rank_cmp(const void *pa, const void *pb) {
    const rank_t *a = pa, *b = pb;
    if (a->lbd != b->lbd) return a->lbd < b->lbd ? -1 : 1;
    if (a->len != b->len) return a->len < b->len ? -1 : 1;
    return a->idx < b->idx ? -1 : (a->idx > b->idx);
}

/* Drop the worst half of the learned clauses, ranked by (lbd, size);
 * glue (lbd <= 2), binary and reason-locked clauses stay. */
static void reduce_db(Solver *s) {
    for (int32_t var = 1; var <= s->n_vars; var++) {
        int32_t r = s->reason[var];
        if (r >= 0 && (s->arena.d[r + C_FLAGS] & F_LEARNT)) s->arena.d[r + C_FLAGS] |= F_LOCKED;
    }
    int64_t n = s->learnts.n;
    rank_t *ranked = xrealloc(NULL, (size_t)n * sizeof(rank_t));
    for (int64_t k = 0; k < n; k++) {
        int32_t cref = s->learnts.d[k];
        int32_t *c = clause_at(s, cref);
        ranked[k] = (rank_t){c[C_LBD], c[C_SIZE], (int32_t)k, cref};
    }
    qsort(ranked, (size_t)n, sizeof(rank_t), rank_cmp);
    int64_t removed = 0;
    for (int64_t k = n / 2; k < n; k++) {
        int32_t *c = clause_at(s, ranked[k].cref);
        if (c[C_LBD] <= 2 || c[C_SIZE] <= 2 || (c[C_FLAGS] & F_LOCKED)) continue;
        c[C_FLAGS] |= F_DELETED;
        removed++;
    }
    free(ranked);
    int64_t j = 0;
    for (int64_t k = 0; k < n; k++) {
        int32_t cref = s->learnts.d[k];
        int32_t *c = clause_at(s, cref);
        c[C_FLAGS] &= ~F_LOCKED;
        if (!(c[C_FLAGS] & F_DELETED)) s->learnts.d[j++] = cref;
    }
    s->learnts.n = j;
    s->stats[DELETED] += removed;
}

/* ------------------------------------------------------------------ */
/* exported API                                                        */
/* ------------------------------------------------------------------ */
Solver *k_new(double var_decay, int64_t restart_base, int64_t reduce_base) {
    Solver *s = xrealloc(NULL, sizeof(Solver));
    memset(s, 0, sizeof(Solver));
    s->var_inc = 1.0;
    s->var_decay = var_decay;
    s->restart_base = restart_base;
    s->reduce_base = reduce_base;
    s->ok = 1;
    grow_vars(s, 1);
    s->assign[0] = -1;
    s->level[0] = 0;
    s->reason[0] = -1;
    s->seen[0] = 0;
    return s;
}

void k_free(Solver *s) {
    if (!s) return;
    for (int64_t i = 0; i < 2 * (int64_t)s->cap_vars; i++) free(s->watches[i].d);
    void *blocks[] = {s->assign, s->level, s->reason, s->phase, s->activity, s->in_heap,
                      s->seen, s->cmark, s->lvlmark, s->watches, s->arena.d, s->learnts.d,
                      s->orig.d, s->trail, s->trail_lim.d, s->heap, s->assumps.d,
                      s->learnt.d, s->minimised.d, s->codes.d, s->core.d, s->model};
    for (size_t i = 0; i < sizeof(blocks) / sizeof(blocks[0]); i++) free(blocks[i]);
    free(s);
}

int64_t *k_counters(Solver *s) { return s->stats; }

int32_t k_n_vars(Solver *s) { return s->n_vars; }

int32_t k_new_var(Solver *s) { return new_var(s); }

/* Add one clause of DIMACS literals at decision level 0: 1 when the
 * formula may still be satisfiable, 0 once it is trivially UNSAT,
 * ST_BAD_LITERAL for a literal 0. */
int k_add_clause(Solver *s, const int32_t *lits, int64_t n) {
    if (!s->ok) return 0;
    for (int64_t i = 0; i < n; i++)
        if (lits[i] == 0) return ST_BAD_LITERAL;
    if (s->trail_lim.n) backtrack(s, 0);
    for (int64_t i = 0; i < n; i++) vpush(&s->orig, lits[i]);
    vpush(&s->orig, 0);
    vec *codes = &s->codes;
    codes->n = 0;
    int result = -2;
    for (int64_t i = 0; i < n; i++) {
        int32_t lit = lits[i];
        int32_t var = lit < 0 ? -lit : lit;
        ensure_vars(s, var);
        int32_t code = (var << 1) | (lit < 0);
        if (s->cmark[code ^ 1]) {
            result = 1; /* tautology */
            break;
        }
        if (s->cmark[code]) continue;
        int v = value(s, code);
        if (v == 1 && s->level[var] == 0) {
            result = 1; /* already satisfied at top level */
            break;
        }
        if (v == 0 && s->level[var] == 0) continue; /* falsified: drop it */
        s->cmark[code] = 1;
        vpush(codes, code);
    }
    for (int64_t k = 0; k < codes->n; k++) s->cmark[codes->d[k]] = 0;
    if (result == 1) return 1;

    if (codes->n == 0) {
        s->ok = 0;
        return 0;
    }
    if (codes->n == 1) {
        if (!enqueue(s, codes->d[0], -1)) {
            s->ok = 0;
            return 0;
        }
        s->ok = propagate(s) < 0;
        return s->ok;
    }
    int32_t cref = alloc_clause(s, codes->d, codes->n, 0, 0);
    vpush(&s->watches[codes->d[0]], cref);
    vpush(&s->watches[codes->d[1]], cref);
    return 1;
}

/* Add a batch: `flat` holds clauses of DIMACS literals, each ended by 0;
 * the caller guarantees flat[n - 1] == 0.  Variables up to `max_var` are
 * created first.  Returns the ok flag. */
int k_add_clauses(Solver *s, int32_t max_var, const int32_t *flat, int64_t n) {
    ensure_vars(s, max_var);
    int64_t i = 0;
    while (i < n) {
        int64_t j = i;
        while (flat[j] != 0) j++;
        k_add_clause(s, flat + i, j - i);
        i = j + 1;
    }
    return s->ok;
}

/* Index of the first added clause `model` falsifies, or -1 when it
 * satisfies them all.  model[v] is 0/1 for v < n_model. */
int64_t k_check_model(Solver *s, const uint8_t *model, int64_t n_model) {
    const int32_t *o = s->orig.d;
    int64_t n = s->orig.n, clause = 0, i = 0;
    while (i < n) {
        int sat = 0;
        for (; o[i] != 0; i++) {
            int32_t lit = o[i];
            int32_t var = lit < 0 ? -lit : lit;
            if (!sat && var < n_model && model[var] == (lit > 0)) sat = 1;
        }
        if (!sat) return clause;
        i++;
        clause++;
    }
    return -1;
}

/* Start a solve call.  ST_PAUSED means "call k_solve_run"; ST_UNSAT is a
 * final answer with an empty core. */
int k_solve_begin(Solver *s, const int32_t *lits, int64_t n, int has_max,
                  int64_t max_conflicts, int has_timeout, double timeout_s) {
    s->core.n = 0;
    if (!s->ok) return ST_UNSAT;
    s->assumps.n = 0;
    for (int64_t i = 0; i < n; i++) {
        int32_t lit = lits[i];
        if (lit == 0) return ST_BAD_LITERAL;
        int32_t var = lit < 0 ? -lit : lit;
        ensure_vars(s, var);
        vpush(&s->assumps, (var << 1) | (lit < 0));
    }
    backtrack(s, 0);
    if (propagate(s) >= 0) {
        s->ok = 0;
        return ST_UNSAT;
    }
    s->has_max = has_max;
    s->max_conflicts = max_conflicts;
    s->has_timeout = has_timeout;
    s->timeout_s = timeout_s;
    s->started = now_s();
    s->conflicts_here = 0;
    s->luby_index = 1;
    s->restart_budget = s->restart_base * luby(s->luby_index);
    s->since_restart = 0;
    s->reduce_budget = s->reduce_base;
    return ST_PAUSED;
}

/* Run the search until an answer or, when `chunk` > 0, for `chunk`
 * conflicts; ST_PAUSED resumes exactly where it stopped. */
int k_solve_run(Solver *s, int64_t chunk) {
    int64_t pause_at = s->conflicts_here + chunk;
    for (;;) {
        int32_t conflict = propagate(s);
        if (conflict >= 0) {
            s->stats[CONFLICTS]++;
            s->conflicts_here++;
            s->since_restart++;
            if (s->trail_lim.n == 0) {
                s->ok = 0;
                return ST_UNSAT;
            }
            int32_t back_level = analyze(s, conflict);
            backtrack(s, back_level);
            record_learnt(s);
            s->var_inc *= s->var_decay;
            if (s->has_max && s->conflicts_here >= s->max_conflicts) {
                backtrack(s, 0);
                return ST_UNKNOWN;
            }
            if (s->has_timeout && s->conflicts_here % 64 == 0 &&
                now_s() - s->started > s->timeout_s) {
                backtrack(s, 0);
                return ST_UNKNOWN;
            }
            if (s->learnts.n > s->reduce_budget) {
                reduce_db(s);
                s->reduce_budget += 1000;
            }
            if (s->since_restart >= s->restart_budget) {
                s->stats[RESTARTS]++;
                s->luby_index++;
                s->restart_budget = s->restart_base * luby(s->luby_index);
                s->since_restart = 0;
                backtrack(s, 0);
            }
            if (chunk > 0 && s->conflicts_here >= pause_at) return ST_PAUSED;
            continue;
        }

        /* Decide the first unassigned assumption. */
        int decided = 0;
        for (int64_t k = 0; k < s->assumps.n; k++) {
            int32_t code = s->assumps.d[k];
            int v = value(s, code);
            if (v == 0) {
                analyze_final(s, code);
                backtrack(s, 0);
                return ST_UNSAT;
            }
            if (v == -1) {
                vpush(&s->trail_lim, s->trail_n);
                enqueue(s, code, -1);
                decided = 1;
                break;
            }
        }
        if (decided) continue;

        int32_t var = pick_branch_var(s);
        if (var == 0) {
            s->model[0] = 0;
            for (int32_t v = 1; v <= s->n_vars; v++)
                s->model[v] = (uint8_t)(s->assign[v] < 0 ? 0 : s->assign[v]);
            backtrack(s, 0);
            return ST_SAT;
        }
        s->stats[DECISIONS]++;
        vpush(&s->trail_lim, s->trail_n);
        enqueue(s, (var << 1) | (1 - s->phase[var]), -1);
    }
}

uint8_t *k_model(Solver *s) { return s->model; }

int32_t *k_core(Solver *s, int64_t *n) {
    *n = s->core.n;
    return s->core.d;
}
