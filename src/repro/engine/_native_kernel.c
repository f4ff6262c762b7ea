/* Native backend for repro.engine.batch, repro.bdd.builder and
 * repro.mdd.from_bdd.
 *
 * Compiled on demand by repro/engine/native.py with the system C compiler
 * and loaded via ctypes.  Three independent parts share the library: the
 * fused probability kernel below, the coded-ROBDD builder after it, and the
 * ROMDD conversion and linearization at the end of the file.  The kernel
 * functions walk the *same* FusedSchedule
 * arrays the numpy fused kernel walks (concatenated child-position-major
 * `kids` array plus the (level, s0, s1, e0, e1, card) layer bounds table)
 * and perform the *same* IEEE-754 operations in the *same* order, so the
 * results are bit-for-bit identical to the fused kernel:
 *
 *  - per-node child-ordered accumulation:  out = c0*v0; out += c1*v1; ...
 *  - model-uniform level collapse: a layer whose probability columns are
 *    bitwise identical across all K models and whose children all carry
 *    model-uniform values is evaluated once at width 1 and broadcast;
 *  - reverse sweep: gather the layer adjoint, scatter to children in node
 *    order (numpy's unbuffered np.add.at), then reduce the gradient rows
 *    with numpy's accumulation order — a plain first-element-initialised
 *    row sum for K >= 2, and numpy's pairwise summation (blocksize 128,
 *    8-way unrolled) for K == 1, where the (n, 1) product matrix is
 *    contiguous along the reduced axis and numpy switches algorithms.
 *
 * Must be compiled with -ffp-contract=off (no FMA contraction) and without
 * -ffast-math: both would change rounding and break the bit-for-bit pin
 * that tests/property/test_fused_equivalence.py enforces.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define REPRO_NATIVE_ABI 3

/* numpy-compatible pairwise summation over a contiguous double vector.
 * Mirrors numpy's pairwise_sum (numpy/_core/src/umath/loops.c.src):
 * sequential below 8 elements, 8 accumulators up to the 128-element block
 * size, and an 8-aligned recursive halving above it. */
static double
pairwise_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (int64_t i = 0; i < n; i++) {
            res += a[i];
        }
        return res;
    }
    if (n <= 128) {
        double r0 = a[0], r1 = a[1], r2 = a[2], r3 = a[3];
        double r4 = a[4], r5 = a[5], r6 = a[6], r7 = a[7];
        int64_t i = 8;
        for (; i < n - (n % 8); i += 8) {
            r0 += a[i + 0];
            r1 += a[i + 1];
            r2 += a[i + 2];
            r3 += a[i + 3];
            r4 += a[i + 4];
            r5 += a[i + 5];
            r6 += a[i + 6];
            r7 += a[i + 7];
        }
        double res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7));
        for (; i < n; i++) {
            res += a[i];
        }
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

int
repro_native_abi(void)
{
    return REPRO_NATIVE_ABI;
}

/* Bottom-up value pass over the fused schedule.
 *
 * kids          edge array, child-position major per layer
 * bounds        nlayers x 6 rows of (level, s0, s1, e0, e1, card)
 * cols          per-layer pointer to its contiguous (card x K) column matrix
 * values        (num_slots x K) value table; only wide layers and the root
 *               row are materialized (see below)
 * narrow_values (num_slots) width-1 companion table for the collapse
 * narrow        (num_slots) per-slot model-uniformity flags
 * collapsed_out number of layers evaluated through the collapse path
 *
 * The fused numpy kernel broadcasts every collapsed layer's width-1 row
 * into the wide value table.  Here the broadcast is *lazy*: a collapsed
 * slot keeps only its scalar in narrow_values, and wide layers (and the
 * gradient reductions) read that scalar directly wherever the fused
 * kernel would have read K bitwise-identical copies of it.  The floats
 * consumed are exactly the floats the broadcast would have produced, so
 * results stay bit-for-bit identical — but a mostly-collapsed diagram
 * (every density sweep) skips the dominant num_slots x K memory traffic.
 * Rows of `values` whose narrow flag is set are therefore *garbage* and
 * must never be read; the root row is materialized before returning.
 */
int
repro_native_forward(
    const int64_t *kids,
    const int64_t *bounds,
    int64_t nlayers,
    const double *const *cols,
    int64_t num_models,
    int64_t root_slot,
    double *values,
    double *narrow_values,
    uint8_t *narrow,
    int64_t *collapsed_out)
{
    const int64_t K = num_models;
    int64_t collapsed = 0;

    for (int64_t k = 0; k < K; k++) {
        values[k] = 0.0;
        values[K + k] = 1.0;
    }
    narrow_values[0] = 0.0;
    narrow_values[1] = 1.0;
    narrow[0] = 1;
    narrow[1] = 1;

    for (int64_t l = 0; l < nlayers; l++) {
        const int64_t *b = bounds + 6 * l;
        const int64_t s0 = b[1], s1 = b[2], e0 = b[3], card = b[5];
        const int64_t n = s1 - s0;
        const double *col = cols[l];

        /* model-uniform columns: every entry equals its row's first entry */
        int uniform = 1;
        if (K > 1) {
            for (int64_t j = 0; j < card && uniform; j++) {
                const double first = col[j * K];
                for (int64_t k = 1; k < K; k++) {
                    if (col[j * K + k] != first) {
                        uniform = 0;
                        break;
                    }
                }
            }
        }
        int collapse = uniform;
        if (collapse) {
            const int64_t *edges = kids + e0;
            const int64_t total = n * card;
            for (int64_t t = 0; t < total; t++) {
                if (!narrow[edges[t]]) {
                    collapse = 0;
                    break;
                }
            }
        }

        if (collapse) {
            /* width-1 evaluation; the wide broadcast is deferred */
            const int64_t *k0 = kids + e0;
            for (int64_t i = 0; i < n; i++) {
                double acc = narrow_values[k0[i]] * col[0];
                for (int64_t j = 1; j < card; j++) {
                    acc += narrow_values[kids[e0 + j * n + i]] * col[j * K];
                }
                narrow_values[s0 + i] = acc;
                narrow[s0 + i] = 1;
            }
            collapsed++;
            continue;
        }

        /* wide evaluation: child-ordered accumulation per node; children
         * sit strictly deeper than the layer, so reading child rows while
         * writing the layer's rows never aliases.  Narrow children read
         * their scalar instead of a broadcast row — same floats. */
        for (int64_t i = 0; i < n; i++) {
            double *out = values + (s0 + i) * K;
            const int64_t kid0 = kids[e0 + i];
            if (narrow[kid0]) {
                const double v = narrow_values[kid0];
                for (int64_t k = 0; k < K; k++) {
                    out[k] = v * col[k];
                }
            } else {
                const double *v0 = values + kid0 * K;
                for (int64_t k = 0; k < K; k++) {
                    out[k] = v0[k] * col[k];
                }
            }
            for (int64_t j = 1; j < card; j++) {
                const int64_t kid = kids[e0 + j * n + i];
                const double *cj = col + j * K;
                if (narrow[kid]) {
                    const double v = narrow_values[kid];
                    for (int64_t k = 0; k < K; k++) {
                        out[k] += v * cj[k];
                    }
                } else {
                    const double *vj = values + kid * K;
                    for (int64_t k = 0; k < K; k++) {
                        out[k] += vj[k] * cj[k];
                    }
                }
            }
            narrow[s0 + i] = 0;
        }
    }

    /* the caller reads the root row from the wide table */
    if (narrow[root_slot]) {
        const double v = narrow_values[root_slot];
        double *out = values + root_slot * K;
        for (int64_t k = 0; k < K; k++) {
            out[k] = v;
        }
    }

    *collapsed_out = collapsed;
    return 0;
}

/* Forward pass plus the reverse adjoint sweep.
 *
 * adjoint  (num_slots x K) workspace, zeroed and seeded here
 * grads    flat output: for each layer in bounds order, card x K gradient
 *          rows (layer offsets are the running card*K prefix sums)
 * scratch  (max layer width) workspace for the K == 1 pairwise reduction
 */
int
repro_native_backward(
    const int64_t *kids,
    const int64_t *bounds,
    int64_t nlayers,
    const double *const *cols,
    int64_t num_models,
    int64_t num_slots,
    int64_t root_slot,
    double *values,
    double *narrow_values,
    uint8_t *narrow,
    double *adjoint,
    double *grads,
    double *scratch,
    int64_t *collapsed_out)
{
    const int64_t K = num_models;
    int rc = repro_native_forward(
        kids, bounds, nlayers, cols, K, root_slot, values, narrow_values,
        narrow, collapsed_out);
    if (rc != 0) {
        return rc;
    }

    memset(adjoint, 0, (size_t)num_slots * (size_t)K * sizeof(double));
    double *root_row = adjoint + root_slot * K;
    for (int64_t k = 0; k < K; k++) {
        root_row[k] = 1.0;
    }

    int64_t off = 0;
    for (int64_t l = 0; l < nlayers; l++) {
        off += bounds[6 * l + 5] * K;
    }

    /* reverse topological schedule: shallowest layer first */
    for (int64_t l = nlayers - 1; l >= 0; l--) {
        const int64_t *b = bounds + 6 * l;
        const int64_t s0 = b[1], s1 = b[2], e0 = b[3], card = b[5];
        const int64_t n = s1 - s0;
        const double *cl = cols[l];
        off -= card * K;

        for (int64_t j = 0; j < card; j++) {
            const int64_t *kj = kids + e0 + j * n;
            const double *cj = cl + j * K;

            /* adjoint scatter in node order (np.add.at); children sit
             * strictly deeper, so the layer's own adjoint rows are never
             * touched by the scatter */
            for (int64_t i = 0; i < n; i++) {
                const double *ai = adjoint + (s0 + i) * K;
                double *ak = adjoint + kj[i] * K;
                for (int64_t k = 0; k < K; k++) {
                    ak[k] += cj[k] * ai[k];
                }
            }

            /* gradient row: sum over the layer's nodes of value * adjoint;
             * narrow children read their width-1 scalar (bitwise equal to
             * the broadcast row the fused kernel reads) */
            double *gj = grads + off + j * K;
            if (K == 1) {
                for (int64_t i = 0; i < n; i++) {
                    const int64_t kid = kj[i];
                    const double v =
                        narrow[kid] ? narrow_values[kid] : values[kid];
                    scratch[i] = v * adjoint[s0 + i];
                }
                gj[0] = pairwise_sum(scratch, n);
            } else {
                const int64_t kid0 = kj[0];
                const double *a0 = adjoint + s0 * K;
                if (narrow[kid0]) {
                    const double v = narrow_values[kid0];
                    for (int64_t k = 0; k < K; k++) {
                        gj[k] = v * a0[k];
                    }
                } else {
                    const double *v0 = values + kid0 * K;
                    for (int64_t k = 0; k < K; k++) {
                        gj[k] = v0[k] * a0[k];
                    }
                }
                for (int64_t i = 1; i < n; i++) {
                    const int64_t kid = kj[i];
                    const double *ai = adjoint + (s0 + i) * K;
                    if (narrow[kid]) {
                        const double v = narrow_values[kid];
                        for (int64_t k = 0; k < K; k++) {
                            gj[k] += v * ai[k];
                        }
                    } else {
                        const double *vi = values + kid * K;
                        for (int64_t k = 0; k < K; k++) {
                            gj[k] += vi[k] * ai[k];
                        }
                    }
                }
            }
        }
    }
    return 0;
}

/* ------------------------------------------------------------------------
 * Coded-ROBDD builder (repro.bdd.builder, native route).
 *
 * Builds the ROBDD of a gate-level circuit with the operations the gate
 * loop of builder.py performs, minus its garbage collection: nodes are
 * visited in index order; an input makes its variable node; every gate
 * value is a node with a polarity bit (see apply_gate), so NOT and BUF
 * apply nothing and only a complemented output is complemented at the
 * end; an n-ary gate folds left over its fanins (AND and OR stop at their
 * absorbing constant); and every XOR step first complements its right
 * operand, because the gate loop's  ite(f, NOT g, g)  creates those
 * nodes.  Reduced, hash-consed nodes are never freed here, so the set of
 * nodes created depends only on that operation sequence and the created
 * count equals the gate loop's with collect_garbage=False.
 *
 * Nodes are dense uint32 ids in creation order: 0/1 are the FALSE/TRUE
 * terminals and children always have smaller ids than their parents.  The
 * unique table is open addressing with linear probing; each operation has
 * its own lossy direct-mapped computed table keyed on its (normalized,
 * for the commutative AND/OR/XOR) operand pair.  Apply runs on an explicit
 * stack whose depth is bounded by the number of variables.
 *
 * Everything lives in one bdd_t that the call allocates and frees, so
 * concurrent builds on different threads share no memory.  Failures come
 * back as status codes; a failed build returns no diagram at all.
 * ---------------------------------------------------------------------- */

/* node kinds of the encoded circuit (mirrored in native.py) */
enum {
    NODE_INPUT = 0, NODE_CONST0 = 1, NODE_CONST1 = 2,
    NODE_AND = 3, NODE_OR = 4, NODE_NOT = 5, NODE_BUF = 6,
    NODE_XOR = 7, NODE_XNOR = 8, NODE_NAND = 9, NODE_NOR = 10
};

/* status codes (mirrored in native.py) */
enum { BUILD_OK = 0, BUILD_NODE_LIMIT = 1, BUILD_NO_MEMORY = 2, BUILD_INVALID = 3 };

/* info[] slots written by repro_bdd_build */
enum {
    INFO_NODES = 0, INFO_ROOT, INFO_CREATED, INFO_GATES,
    INFO_HITS, INFO_MISSES, INFO_INSERTIONS, INFO_EVICTIONS, INFO_SIZE
};

enum { OP_AND = 0, OP_OR = 1, OP_XOR = 2, OP_NOT = 3, NUM_OPS = 4 };

#define NIL UINT32_MAX
#define MAX_NODES ((int64_t)UINT32_MAX - 1)
#define CACHE_MIN_BITS 12
#define CACHE_MAX_BITS 20

typedef struct {
    uint32_t f, g, r;
} centry_t;

typedef struct {
    uint32_t f, g, hi;
    int32_t level, op, state;
} frame_t;

typedef struct {
    int32_t level;
    uint32_t low, high;
} node_t;

/* unique-table slot: node id (0 = empty) and the top 32 bits of the
 * node's hash, which also give the slot's home index */
typedef struct {
    uint32_t id, tag;
} uslot_t;

typedef struct {
    node_t *nodes;
    int64_t n, cap;
    uslot_t *utab;
    int ubits;
    centry_t *cache[NUM_OPS];
    int cache_bits;
    frame_t *stack;
    int64_t limit;
    int in_gate;
    int status;
    int64_t hits, misses, insertions, evictions;
} bdd_t;

/* The arrays a call hands back: up to RESULT_ARRAYS int64 arrays, copied
 * out with repro_result_export and released with repro_result_free. */
enum { RESULT_ARRAYS = 4 };

typedef struct {
    int64_t len[RESULT_ARRAYS];
    int64_t *data[RESULT_ARRAYS];
} result_t;

static inline uint64_t
mix64(uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return x;
}

static inline uint64_t
hash_node(int32_t level, uint32_t lo, uint32_t hi)
{
    return mix64((((uint64_t)lo << 32) | hi)
                 ^ ((uint64_t)(uint32_t)level * 0x9e3779b97f4a7c15ULL));
}

static inline uint64_t
hash_pair(uint32_t f, uint32_t g)
{
    return mix64(((uint64_t)f << 32) | g);
}

static void
bdd_release(bdd_t *b)
{
    free(b->nodes);
    free(b->utab);
    for (int op = 0; op < NUM_OPS; op++) {
        free(b->cache[op]);
    }
    free(b->stack);
}

static int
nodes_grow(bdd_t *b)
{
    int64_t cap = b->cap * 2;
    if (cap > MAX_NODES) {
        cap = MAX_NODES;
    }
    if (cap <= b->cap) {
        return 0;
    }
    node_t *nodes = realloc(b->nodes, (size_t)cap * sizeof *nodes);
    if (!nodes) {
        return 0;
    }
    b->nodes = nodes;
    b->cap = cap;
    return 1;
}

static int
utab_grow(bdd_t *b)
{
    int bits = b->ubits + 1;
    uint64_t size = (uint64_t)1 << b->ubits;
    uint64_t mask = ((uint64_t)1 << bits) - 1;
    uslot_t *tab = calloc((size_t)mask + 1, sizeof *tab);
    if (!tab) {
        return 0;
    }
    for (uint64_t i = 0; i < size; i++) {
        uslot_t slot = b->utab[i];
        if (slot.id) {
            uint64_t h = slot.tag >> (32 - bits);
            while (tab[h].id) {
                h = (h + 1) & mask;
            }
            tab[h] = slot;
        }
    }
    free(b->utab);
    b->utab = tab;
    b->ubits = bits;
    return 1;
}

/* the reduced, hash-consed node (level, lo, hi); NIL on failure */
static uint32_t
mk(bdd_t *b, int32_t level, uint32_t lo, uint32_t hi)
{
    if (lo == hi) {
        return lo;
    }
    uint32_t tag = (uint32_t)(hash_node(level, lo, hi) >> 32);
    uint64_t mask = ((uint64_t)1 << b->ubits) - 1;
    uint64_t h = tag >> (32 - b->ubits);
    for (;;) {
        uslot_t slot = b->utab[h];
        if (slot.id == 0) {
            break;
        }
        if (slot.tag == tag) {
            const node_t *nd = &b->nodes[slot.id];
            if (nd->low == lo && nd->high == hi && nd->level == level) {
                return slot.id;
            }
        }
        h = (h + 1) & mask;
    }
    /* the count only grows, so a gate that passes the limit mid-way
     * fails the after-gate check too: stop it now */
    if (b->in_gate && b->limit >= 0 && b->n + 1 > b->limit) {
        b->status = BUILD_NODE_LIMIT;
        return NIL;
    }
    if (b->n == b->cap && !nodes_grow(b)) {
        b->status = BUILD_NO_MEMORY;
        return NIL;
    }
    uint32_t id = (uint32_t)b->n++;
    b->nodes[id].level = level;
    b->nodes[id].low = lo;
    b->nodes[id].high = hi;
    b->utab[h].id = id;
    b->utab[h].tag = tag;
    if ((uint64_t)b->n * 2 > mask + 1 && (b->ubits == 32 || !utab_grow(b))) {
        b->status = BUILD_NO_MEMORY;
        return NIL;
    }
    return id;
}

/* computed tables grow to about half an entry per node, up to
 * 2^CACHE_MAX_BITS entries: their hit rate hardly depends on the size,
 * their memory traffic does */
static int
cache_fit(bdd_t *b)
{
    int bits = b->cache_bits;
    while (bits < CACHE_MAX_BITS && ((int64_t)2 << bits) < b->n) {
        bits++;
    }
    if (bits == b->cache_bits) {
        return 1;
    }
    uint64_t mask = ((uint64_t)1 << bits) - 1;
    for (int op = 0; op < NUM_OPS; op++) {
        centry_t *old = b->cache[op];
        if (!old) {
            continue;
        }
        centry_t *tab = calloc((size_t)mask + 1, sizeof *tab);
        if (!tab) {
            return 0;
        }
        uint64_t old_size = (uint64_t)1 << b->cache_bits;
        for (uint64_t i = 0; i < old_size; i++) {
            if (old[i].f) {
                tab[hash_pair(old[i].f, old[i].g) & mask] = old[i];
            }
        }
        free(old);
        b->cache[op] = tab;
    }
    b->cache_bits = bits;
    return 1;
}

static int
cache_put(bdd_t *b, int32_t op, uint32_t f, uint32_t g, uint32_t r)
{
    uint64_t mask = ((uint64_t)1 << b->cache_bits) - 1;
    if (!b->cache[op]) {
        b->cache[op] = calloc((size_t)mask + 1, sizeof(centry_t));
        if (!b->cache[op]) {
            b->status = BUILD_NO_MEMORY;
            return 0;
        }
    }
    centry_t *e = &b->cache[op][hash_pair(f, g) & mask];
    if (e->f) {
        b->evictions++;
    }
    e->f = f;
    e->g = g;
    e->r = r;
    b->insertions++;
    return 1;
}

/* Terminal cases, then the computed table: the result, or NIL when the
 * call must recurse.  XOR with a TRUE operand becomes NOT of the other
 * one; commutative operands are put in ascending order.  Cached operands
 * are never terminals, so f == 0 marks an empty table entry. */
static uint32_t
lookup(bdd_t *b, int32_t *op, uint32_t *pf, uint32_t *pg)
{
    uint32_t f = *pf, g = *pg;
    switch (*op) {
    case OP_AND:
        if (f == 0 || g == 0) {
            return 0;
        }
        if (f == 1 || f == g) {
            return g;
        }
        if (g == 1) {
            return f;
        }
        break;
    case OP_OR:
        if (f == 1 || g == 1) {
            return 1;
        }
        if (f == 0 || f == g) {
            return g;
        }
        if (g == 0) {
            return f;
        }
        break;
    case OP_XOR:
        if (f == g) {
            return 0;
        }
        if (f == 0) {
            return g;
        }
        if (g == 0) {
            return f;
        }
        if (f == 1 || g == 1) {
            f = (f == 1) ? g : f;
            g = 0;
            *op = OP_NOT;
        }
        break;
    default:
        break;
    }
    if (*op == OP_NOT) {
        if (f <= 1) {
            return f ^ 1u;
        }
        g = 0;
    } else if (f > g) {
        uint32_t t = f;
        f = g;
        g = t;
    }
    *pf = f;
    *pg = g;
    const centry_t *tab = b->cache[*op];
    if (tab) {
        const centry_t *e =
            &tab[hash_pair(f, g) & (((uint64_t)1 << b->cache_bits) - 1)];
        if (e->f == f && e->g == g) {
            b->hits++;
            return e->r;
        }
    }
    b->misses++;
    return NIL;
}

/* op(f, g) (g ignored for NOT); NIL on failure, with b->status set */
static uint32_t
apply(bdd_t *b, int32_t op, uint32_t f, uint32_t g)
{
    frame_t *stack = b->stack;
    int64_t sp = 0;
    uint32_t r;
descend:
    r = lookup(b, &op, &f, &g);
    if (r == NIL) {
        const node_t *nf = &b->nodes[f], *ng = &b->nodes[g];
        frame_t *fr = &stack[sp++];
        int32_t lv = nf->level;
        if (op != OP_NOT && ng->level < lv) {
            lv = ng->level;
        }
        fr->op = op;
        fr->f = f;
        fr->g = g;
        fr->level = lv;
        fr->state = 0;
        /* the high branch first, as the gate loop's ITE does */
        f = nf->level == lv ? nf->high : f;
        if (op != OP_NOT && ng->level == lv) {
            g = ng->high;
        }
        goto descend;
    }
    while (sp > 0) {
        frame_t *fr = &stack[sp - 1];
        if (fr->state == 0) {
            fr->hi = r;
            fr->state = 1;
            const node_t *nf = &b->nodes[fr->f], *ng = &b->nodes[fr->g];
            op = fr->op;
            f = nf->level == fr->level ? nf->low : fr->f;
            g = fr->g;
            if (op != OP_NOT && ng->level == fr->level) {
                g = ng->low;
            }
            goto descend;
        }
        r = mk(b, fr->level, r, fr->hi);
        if (r == NIL || !cache_put(b, fr->op, fr->f, fr->g, r)) {
            return NIL;
        }
        sp--;
    }
    return r;
}

/* One gate of the circuit, exactly as builder.py's _apply_gate orders it.
 * Node j's value is vals[j], complemented when neg[j] is set; the gate's
 * polarity goes to *neg_out.  NOT flips the bit and BUF copies it.  AND,
 * OR, NAND and NOR fold the dual operator (De Morgan) when no operand is
 * a plain non-terminal node, and their own operator otherwise; an operand
 * of the other polarity is complemented just before its fold step (the
 * complement of a terminal is the other terminal, which costs nothing).
 * XOR and XNOR fold the nodes and keep the parity of the complemented
 * operands. */
static uint32_t
apply_gate(bdd_t *b, int64_t kind, const uint32_t *vals, const uint8_t *neg,
           const int64_t *fan, int64_t count, uint8_t *neg_out)
{
    uint32_t r, x;
    switch (kind) {
    case NODE_BUF:
    case NODE_NOT:
        *neg_out = neg[fan[0]] ^ (kind == NODE_NOT);
        return vals[fan[0]];
    case NODE_XOR:
    case NODE_XNOR:
        *neg_out = (kind == NODE_XNOR) ^ neg[fan[0]];
        r = vals[fan[0]];
        for (int64_t i = 1; i < count; i++) {
            *neg_out ^= neg[fan[i]];
            if (apply(b, OP_NOT, vals[fan[i]], 0) == NIL) {
                return NIL;
            }
            r = apply(b, OP_XOR, r, vals[fan[i]]);
            if (r == NIL) {
                return NIL;
            }
        }
        return r;
    default: { /* NODE_AND, NODE_OR, NODE_NAND, NODE_NOR */
        uint8_t dual = 1;
        for (int64_t i = 0; i < count && dual; i++) {
            dual = neg[fan[i]] || vals[fan[i]] <= 1;
        }
        int conjunctive = (kind == NODE_AND || kind == NODE_NAND) ^ dual;
        int32_t op = conjunctive ? OP_AND : OP_OR;
        uint32_t absorbing = conjunctive ? 0 : 1;
        *neg_out = dual ^ (kind == NODE_NAND || kind == NODE_NOR);
        r = absorbing ^ 1u;
        for (int64_t i = 0; i < count && r != absorbing; i++) {
            x = vals[fan[i]];
            if (neg[fan[i]] != dual && (x = apply(b, OP_NOT, x, 0)) == NIL) {
                return NIL;
            }
            r = apply(b, op, r, x);
            if (r == NIL) {
                return NIL;
            }
        }
        return r;
    }
    }
}

static int
validate_circuit(const int64_t *kinds, const int64_t *args,
                 const int64_t *starts, const int64_t *fanins,
                 int64_t num_nodes, int64_t output, int64_t num_vars)
{
    if (num_nodes < 1 || output < 0 || output >= num_nodes || num_vars < 1
        || num_vars >= INT32_MAX || starts[0] != 0) {
        return 0;
    }
    for (int64_t i = 0; i < num_nodes; i++) {
        int64_t kind = kinds[i], count = starts[i + 1] - starts[i];
        if (kind < NODE_INPUT || kind > NODE_NOR) {
            return 0;
        }
        if (kind <= NODE_CONST1) {
            if (count != 0 || (kind == NODE_INPUT
                               && (args[i] < 0 || args[i] >= num_vars))) {
                return 0;
            }
            continue;
        }
        if (count < 1 || ((kind == NODE_NOT || kind == NODE_BUF) && count != 1)) {
            return 0;
        }
        for (int64_t j = starts[i]; j < starts[i + 1]; j++) {
            if (fanins[j] < 0 || fanins[j] >= i) {
                return 0;
            }
        }
    }
    return 1;
}

static void
result_free(result_t *res)
{
    if (res) {
        for (int i = 0; i < RESULT_ARRAYS; i++) {
            free(res->data[i]);
        }
        free(res);
    }
}

/* a result of `count` arrays with room for caps[i] entries each; the
 * lengths start at the capacities */
static result_t *
result_new(int count, const int64_t *caps)
{
    result_t *res = calloc(1, sizeof *res);
    for (int i = 0; res && i < count; i++) {
        res->len[i] = caps[i];
        res->data[i] = malloc((size_t)(caps[i] ? caps[i] : 1) * sizeof(int64_t));
        if (!res->data[i]) {
            result_free(res);
            res = NULL;
        }
    }
    return res;
}

/* Compact the nodes reachable from root into (level, low, high) arrays,
 * renumbered 2.. in creation order (children keep smaller ids than
 * parents). */
static result_t *
export_reachable(const bdd_t *b, uint32_t root, int64_t *count_out,
                 int64_t *root_out)
{
    result_t *res = NULL;
    uint8_t *mark = calloc((size_t)b->n, 1);
    uint32_t *renum = malloc((size_t)b->n * sizeof *renum);
    if (mark && renum) {
        int64_t count = 0;
        mark[root] = 1;
        for (int64_t id = root; id >= 2; id--) {
            if (mark[id]) {
                mark[b->nodes[id].low] = 1;
                mark[b->nodes[id].high] = 1;
                count++;
            }
        }
        const int64_t caps[3] = {count, count, count};
        res = result_new(3, caps);
        *count_out = count;
    }
    if (res) {
        int64_t *level = res->data[0], *low = res->data[1], *high = res->data[2];
        renum[0] = 0;
        renum[1] = 1;
        int64_t next = 0;
        for (int64_t id = 2; id <= (int64_t)root; id++) {
            if (!mark[id]) {
                continue;
            }
            const node_t *nd = &b->nodes[id];
            renum[id] = (uint32_t)(next + 2);
            level[next] = nd->level;
            low[next] = renum[nd->low];
            high[next] = renum[nd->high];
            next++;
        }
        *root_out = renum[root];
    }
    free(mark);
    free(renum);
    return res;
}

/* Build the ROBDD of an encoded circuit.
 *
 * kinds, args   per node: NODE_* kind; the variable level of an input
 * starts        num_nodes + 1 CSR offsets into fanins
 * fanins        fanin node positions, each smaller than the reader's
 * output        position of the output node
 * num_vars      number of variable levels
 * node_limit    fail once more than this many nodes (terminals included)
 *               were created, checked as the gate loop does; < 0: none
 * info          INFO_SIZE counters, written on every return
 * result_out    on BUILD_OK, the reachable diagram as (level, low, high)
 *               arrays of INFO_NODES entries each, for repro_result_export;
 *               release it with repro_result_free.  NULL on every failure.
 */
int
repro_bdd_build(
    const int64_t *kinds,
    const int64_t *args,
    const int64_t *starts,
    const int64_t *fanins,
    int64_t num_nodes,
    int64_t output,
    int64_t num_vars,
    int64_t node_limit,
    int64_t *info,
    void **result_out)
{
    memset(info, 0, INFO_SIZE * sizeof *info);
    *result_out = NULL;
    if (!validate_circuit(kinds, args, starts, fanins, num_nodes, output,
                          num_vars)) {
        return BUILD_INVALID;
    }

    bdd_t b;
    memset(&b, 0, sizeof b);
    b.cap = 1024;
    b.ubits = 11;
    b.cache_bits = CACHE_MIN_BITS;
    b.limit = node_limit;
    b.nodes = malloc((size_t)b.cap * sizeof *b.nodes);
    b.utab = calloc((size_t)1 << b.ubits, sizeof *b.utab);
    b.stack = malloc((size_t)(num_vars + 1) * sizeof *b.stack);
    uint32_t *vals = malloc((size_t)num_nodes * sizeof *vals);
    uint8_t *neg = calloc((size_t)num_nodes, 1);
    if (!b.nodes || !b.utab || !b.stack || !vals || !neg) {
        b.status = BUILD_NO_MEMORY;
    } else {
        /* terminals sit below every variable level */
        for (int t = 0; t < 2; t++) {
            b.nodes[t].level = (int32_t)num_vars;
            b.nodes[t].low = b.nodes[t].high = (uint32_t)t;
        }
        b.n = 2;
    }

    int64_t gates = 0;
    for (int64_t i = 0; i < num_nodes && b.status == BUILD_OK; i++) {
        int64_t kind = kinds[i];
        if (kind == NODE_INPUT) {
            vals[i] = mk(&b, (int32_t)args[i], 0, 1);
            continue;
        }
        if (kind == NODE_CONST0 || kind == NODE_CONST1) {
            vals[i] = (uint32_t)(kind == NODE_CONST1);
            continue;
        }
        gates++;
        b.in_gate = 1;
        vals[i] = apply_gate(&b, kind, vals, neg, fanins + starts[i],
                             starts[i + 1] - starts[i], &neg[i]);
        /* a complemented output costs one NOT, inside its gate */
        if (i == output && neg[i] && b.status == BUILD_OK) {
            vals[i] = apply(&b, OP_NOT, vals[i], 0);
            neg[i] = 0;
        }
        b.in_gate = 0;
        if (b.status == BUILD_OK && b.limit >= 0 && b.n > b.limit) {
            b.status = BUILD_NODE_LIMIT;
        }
        if (b.status == BUILD_OK && !cache_fit(&b)) {
            b.status = BUILD_NO_MEMORY;
        }
    }

    info[INFO_CREATED] = b.n;
    info[INFO_GATES] = gates;
    info[INFO_HITS] = b.hits;
    info[INFO_MISSES] = b.misses;
    info[INFO_INSERTIONS] = b.insertions;
    info[INFO_EVICTIONS] = b.evictions;
    if (b.status == BUILD_OK) {
        *result_out = export_reachable(&b, vals[output], &info[INFO_NODES],
                                       &info[INFO_ROOT]);
        if (!*result_out) {
            b.status = BUILD_NO_MEMORY;
        }
    }
    free(vals);
    free(neg);
    bdd_release(&b);
    return b.status;
}


/* Copy a result's arrays into caller arrays of at least len[i] entries. */
void
repro_result_export(const void *result, int64_t *const *out)
{
    const result_t *res = result;
    for (int i = 0; i < RESULT_ARRAYS; i++) {
        if (res->data[i] && res->len[i]) {
            memcpy(out[i], res->data[i], (size_t)res->len[i] * sizeof(int64_t));
        }
    }
}

void
repro_result_free(void *result)
{
    result_free(result);
}

/* ------------------------------------------------------------------------
 * ROMDD conversion and linearization (repro.mdd.from_bdd and
 * repro.engine.batch, native route).
 *
 * Both calls are array-in, array-out and number their output exactly as
 * the numpy routes do, so store digests and the gradient summation order
 * never depend on the route:
 *
 *  - repro_mdd_convert turns a coded ROBDD into ROMDD layers.  Layers run
 *    deepest first and a layer's entry nodes in ascending handle order;
 *    each (entry, codeword) pair walks the layer one ROBDD level at a time,
 *    stepping to a child only at a node that tests that level (terminals
 *    and free slots sit in a pseudo-level below every layer); a row whose
 *    children are all equal collapses to that child, and distinct rows are
 *    numbered from 2 in order of first occurrence.  The codewords are
 *    walked in sorted order, so each shared codeword prefix is walked once
 *    per entry.
 *  - repro_mdd_linearize flattens an ROMDD into the FusedSchedule arrays:
 *    a stack walk from the root (pop the last node pushed, push its
 *    unseen non-terminal children left to right), then a stable sort of
 *    the walked nodes deepest level first, whose positions are the slots.
 *    The node arrays bound every output, so the caller allocates them.
 *
 * Everything a call allocates is freed before it returns, except the
 * result a conversion hands back; failures come back as BUILD_* status
 * codes.
 * ---------------------------------------------------------------------- */

/* entries of one layer walked together by repro_mdd_convert */
#define WALK_BLOCK 32

/* info[] slots written by repro_mdd_convert */
enum { CONVERT_LAYERS = 0, CONVERT_CHILDREN, CONVERT_ROOT, CONVERT_INFO_SIZE };

/* info[] slots written by repro_mdd_linearize */
enum {
    LINEAR_ROOT_SLOT = 0, LINEAR_SLOTS, LINEAR_LAYERS, LINEAR_EDGES,
    LINEAR_INFO_SIZE
};

/* The codewords of one layer in ROBDD level order, sorted, with the
 * length of the prefix each shares with the one before it. */
typedef struct {
    int64_t steps, top;
    uint8_t *bits;  /* card x steps, row i = the i-th sorted codeword */
    int64_t *value; /* value index of the i-th sorted codeword */
    int64_t *lcp;   /* shared prefix length with codeword i - 1 (0 for i = 0) */
} codes_t;

static int
codes_init(codes_t *c, const int64_t *table, int64_t card, int64_t width,
           const int64_t *level_bit, int64_t top, int64_t steps)
{
    c->steps = steps;
    c->top = top;
    c->bits = malloc((size_t)(card * steps > 0 ? card * steps : 1));
    c->value = malloc((size_t)card * sizeof *c->value);
    c->lcp = malloc((size_t)card * sizeof *c->lcp);
    if (!c->bits || !c->value || !c->lcp) {
        return 0;
    }
    uint8_t *row = malloc((size_t)(steps ? steps : 1));
    if (!row) {
        return 0;
    }
    /* insertion sort of the level-ordered codewords (cardinalities are
     * small, and this runs once per layer, not per entry) */
    for (int64_t v = 0; v < card; v++) {
        for (int64_t k = 0; k < steps; k++) {
            row[k] = (uint8_t)table[v * width + level_bit[top + k]];
        }
        int64_t i = v;
        while (i > 0 && memcmp(c->bits + (i - 1) * steps, row, (size_t)steps) > 0) {
            memcpy(c->bits + i * steps, c->bits + (i - 1) * steps, (size_t)steps);
            c->value[i] = c->value[i - 1];
            i--;
        }
        memcpy(c->bits + i * steps, row, (size_t)steps);
        c->value[i] = v;
    }
    free(row);
    for (int64_t i = 0; i < card; i++) {
        int64_t k = 0;
        if (i > 0) {
            const uint8_t *a = c->bits + (i - 1) * steps, *b = c->bits + i * steps;
            while (k < steps && a[k] == b[k]) {
                k++;
            }
        }
        c->lcp[i] = k;
    }
    return 1;
}

static void
codes_release(codes_t *c)
{
    free(c->bits);
    free(c->value);
    free(c->lcp);
}

/* Convert the coded ROBDD rooted at `root` into ROMDD layers.
 *
 * level, low, high  n ROBDD node arrays indexed by handle (0/1 terminals)
 * root              the root handle, 2 <= root < n
 * level_layer       per ROBDD level: its layer, nondecreasing
 * level_bit         per ROBDD level: its bit position in the layer's code
 * cards, widths     per layer: cardinality and code width
 * codes             per layer, concatenated: the cards x widths 0/1
 *                   codeword bit table, most significant bit first
 * info              CONVERT_INFO_SIZE entries: output layers, children and
 *                   the root's image, written on BUILD_OK
 * result_out        on BUILD_OK: the layer of each output layer, its row
 *                   count, and every row's children concatenated (row
 *                   major, deepest layer first) for repro_result_export
 */
int
repro_mdd_convert(
    const int64_t *level,
    const int64_t *low,
    const int64_t *high,
    int64_t n,
    int64_t root,
    const int64_t *level_layer,
    const int64_t *level_bit,
    int64_t num_levels,
    const int64_t *cards,
    const int64_t *widths,
    const int64_t *codes,
    int64_t num_layers,
    int64_t *info,
    void **result_out)
{
    memset(info, 0, CONVERT_INFO_SIZE * sizeof *info);
    *result_out = NULL;
    if (n < 3 || root < 2 || root >= n || n > INT32_MAX || num_levels < 1
        || num_layers < 1 || num_levels >= INT32_MAX) {
        return BUILD_INVALID;
    }

    int status = BUILD_OK;
    /* layer of each level (a level outside the table is a terminal's or
     * a free slot's); where each layer's run of levels starts, its length,
     * and where its codeword table starts */
    int64_t *layer_at = malloc((size_t)num_levels * sizeof *layer_at);
    int64_t *top = malloc((size_t)num_layers * sizeof *top);
    int64_t *steps = calloc((size_t)num_layers, sizeof *steps);
    int64_t *code_off = malloc((size_t)num_layers * sizeof *code_off);
    /* per layer: entry count, then the start of its bucket in `entries` */
    int64_t *bucket = calloc((size_t)num_layers + 1, sizeof *bucket);
    int64_t *fill = malloc((size_t)num_layers * sizeof *fill);
    uint8_t *mark = calloc((size_t)n, 1);
    /* the walk's stack, then the entries bucketed by layer */
    uint32_t *entries = malloc((size_t)n * sizeof *entries);
    int64_t *image = malloc((size_t)n * sizeof *image);
    int64_t *block_rows = NULL, *table = NULL;
    uint32_t *path = NULL;
    /* each row's hash: one multiply per child, in walk order, mixed once */
    uint64_t hashes[WALK_BLOCK];
    result_t *res = NULL;
    codes_t code;
    memset(&code, 0, sizeof code);
    if (!layer_at || !top || !steps || !code_off || !bucket || !fill || !mark
        || !entries || !image) {
        status = BUILD_NO_MEMORY;
        goto done;
    }

    int64_t offset = 0;
    for (int64_t l = 0; l < num_layers; l++) {
        top[l] = -1;
        code_off[l] = offset;
        offset += cards[l] * widths[l];
    }
    for (int64_t v = 0; v < num_levels; v++) {
        int64_t l = level_layer[v];
        if (l < 0 || l >= num_layers || (v > 0 && l < level_layer[v - 1])
            || level_bit[v] < 0 || level_bit[v] >= widths[l]) {
            status = BUILD_INVALID;
            goto done;
        }
        if (top[l] < 0) {
            top[l] = v;
        }
        steps[l]++;
        layer_at[v] = l;
    }

    /* reachable nodes from the root; entry nodes are the root plus every
     * child across a layer boundary.  Every reached node is popped, and a
     * popped node must test a level of the table above its children's. */
    enum { REACHED = 1, ENTRY = 2 };
    int64_t sp = 0;
    mark[root] = REACHED | ENTRY;
    entries[sp++] = (uint32_t)root;
    while (sp > 0) {
        const uint32_t p = entries[--sp];
        const int64_t lp = level[p];
        if (lp < 0 || lp >= num_levels) {
            status = BUILD_INVALID;
            goto done;
        }
        const int64_t kids[2] = {low[p], high[p]};
        for (int j = 0; j < 2; j++) {
            const int64_t c = kids[j];
            if (c <= 1) {
                continue;
            }
            const int64_t lc = level[c];
            if (lc <= lp) {
                status = BUILD_INVALID;
                goto done;
            }
            if (lc >= num_levels || layer_at[lc] != layer_at[lp]) {
                mark[c] |= ENTRY;
            }
            if (!(mark[c] & REACHED)) {
                mark[c] |= REACHED;
                entries[sp++] = (uint32_t)c;
            }
        }
    }

    /* entries bucketed by layer, ascending handles within a bucket */
    int64_t capacity = 0, widest = 0, max_steps = 0, max_card = 0;
    for (int64_t h = 2; h < n; h++) {
        if (mark[h] & ENTRY) {
            bucket[layer_at[level[h]]]++;
        }
    }
    for (int64_t l = 0; l < num_layers; l++) {
        capacity += bucket[l] * cards[l];
        widest = bucket[l] > widest ? bucket[l] : widest;
        max_steps = steps[l] > max_steps ? steps[l] : max_steps;
        max_card = cards[l] > max_card ? cards[l] : max_card;
    }
    for (int64_t l = 0, start = 0; l <= num_layers; l++) {
        int64_t count = bucket[l];
        bucket[l] = start;
        start += count;
    }
    memcpy(fill, bucket, (size_t)num_layers * sizeof *fill);
    for (int64_t h = 2; h < n; h++) {
        image[h] = -1;
        if (mark[h] & ENTRY) {
            entries[fill[layer_at[level[h]]]++] = (uint32_t)h;
        }
    }
    image[0] = 0;
    image[1] = 1;

    int64_t table_size = 1;
    while (table_size < 2 * widest) {
        table_size *= 2;
    }
    table = malloc((size_t)table_size * sizeof *table);
    /* per walk step, the node each entry of a block is at; then the
     * block's rows */
    path = malloc((size_t)(max_steps + 1) * WALK_BLOCK * sizeof *path);
    block_rows = malloc((size_t)max_card * WALK_BLOCK * sizeof *block_rows);
    const int64_t caps[3] = {num_layers, num_layers, capacity};
    res = result_new(3, caps);
    if (!table || !path || !block_rows || !res) {
        status = BUILD_NO_MEMORY;
        goto done;
    }

    int64_t *out_layer = res->data[0], *out_count = res->data[1];
    int64_t *children = res->data[2];
    int64_t layers_out = 0, filled = 0, created = 2;
    for (int64_t l = num_layers - 1; l >= 0; l--) {
        const uint32_t *nodes_l = entries + bucket[l];
        const int64_t count = bucket[l + 1] - bucket[l];
        if (count == 0) {
            continue;
        }
        const int64_t card = cards[l];
        if (!codes_init(&code, codes + code_off[l], card, widths[l], level_bit,
                        top[l], steps[l])) {
            status = BUILD_NO_MEMORY;
            goto done;
        }
        int64_t mask = 1;
        while (mask < 2 * count) {
            mask *= 2;
        }
        mask -= 1;
        for (int64_t t = 0; t <= mask; t++) {
            table[t] = -1;
        }
        int64_t *layer_rows = children + filled;
        int64_t rows = 0;
        for (int64_t e0 = 0; e0 < count; e0 += WALK_BLOCK) {
            const int64_t nb = count - e0 < WALK_BLOCK ? count - e0 : WALK_BLOCK;
            for (int64_t b = 0; b < nb; b++) {
                path[b] = nodes_l[e0 + b];
                hashes[b] = 0xcbf29ce484222325ULL;
            }
            /* the block's entries walk in lockstep, so the node loads of
             * different entries overlap instead of forming one chain */
            for (int64_t i = 0; i < card; i++) {
                const uint8_t *bits = code.bits + i * code.steps;
                for (int64_t k = code.lcp[i]; k < code.steps; k++) {
                    const uint32_t *from = path + k * WALK_BLOCK;
                    uint32_t *to = path + (k + 1) * WALK_BLOCK;
                    const int64_t at_level = code.top + k;
                    const int64_t *next = bits[k] ? high : low;
                    for (int64_t b = 0; b < nb; b++) {
                        const uint32_t at = from[b];
                        /* branch-free: whether a node moves is data */
                        const uint32_t stay = -(uint32_t)(level[at] != at_level);
                        to[b] = (at & stay) | ((uint32_t)next[at] & ~stay);
                    }
                }
                const uint32_t *ends = path + code.steps * WALK_BLOCK;
                for (int64_t b = 0; b < nb; b++) {
                    const int64_t child = image[ends[b]];
                    block_rows[b * card + code.value[i]] = child;
                    hashes[b] = (hashes[b] ^ (uint64_t)child) * 0x100000001b3ULL;
                }
            }
            for (int64_t b = 0; b < nb; b++) {
                const int64_t entry = nodes_l[e0 + b];
                const int64_t *row = block_rows + b * card;
                int64_t j = 1;
                while (j < card && row[j] == row[0]) {
                    j++;
                }
                if (row[0] < 0) {
                    status = BUILD_INVALID;
                    goto done;
                }
                if (j == card) {
                    image[entry] = row[0];
                    continue;
                }
                uint64_t h = mix64(hashes[b]) & (uint64_t)mask;
                for (;;) {
                    int64_t r = table[h];
                    if (r < 0) {
                        for (j = 0; j < card; j++) {
                            if (row[j] < 0) {
                                status = BUILD_INVALID;
                                goto done;
                            }
                        }
                        memcpy(layer_rows + rows * card, row, (size_t)card * sizeof *row);
                        table[h] = rows;
                        image[entry] = created + rows;
                        rows++;
                        break;
                    }
                    if (!memcmp(layer_rows + r * card, row, (size_t)card * sizeof *row)) {
                        image[entry] = created + r;
                        break;
                    }
                    h = (h + 1) & (uint64_t)mask;
                }
            }
        }
        codes_release(&code);
        memset(&code, 0, sizeof code);
        if (rows) {
            out_layer[layers_out] = l;
            out_count[layers_out] = rows;
            layers_out++;
            filled += rows * card;
            created += rows;
        }
    }
    res->len[0] = res->len[1] = layers_out;
    res->len[2] = filled;
    info[CONVERT_LAYERS] = layers_out;
    info[CONVERT_CHILDREN] = filled;
    info[CONVERT_ROOT] = image[root];

done:
    codes_release(&code);
    free(layer_at);
    free(top);
    free(steps);
    free(code_off);
    free(bucket);
    free(fill);
    free(mark);
    free(entries);
    free(image);
    free(path);
    free(block_rows);
    free(table);
    if (status == BUILD_OK) {
        *result_out = res;
    } else {
        result_free(res);
    }
    return status;
}

/* Linearize the ROMDD rooted at `root` into the FusedSchedule arrays.
 *
 * level, offsets, children  the CSR node arrays of n handles: the children
 *                           of h are children[offsets[h] .. offsets[h+1]]
 * root                      the root handle, 2 <= root < n
 * num_levels                the variable count; every walked node's level
 *                           lies in [0, num_levels)
 * kids, seg, slot_levels,   caller arrays of at least offsets[n], n - 1,
 * bounds                    n - 2 and 6 * num_levels entries: the fused
 *                           edge array, CSR offsets, per-slot levels and
 *                           the (level, s0, s1, e0, e1, card) layer rows
 * info                      LINEAR_INFO_SIZE entries: root slot, slot
 *                           count, layers and edges, written on BUILD_OK
 */
int
repro_mdd_linearize(
    const int64_t *level,
    const int64_t *offsets,
    const int64_t *children,
    int64_t n,
    int64_t root,
    int64_t num_levels,
    int64_t *kids,
    int64_t *seg,
    int64_t *slot_levels,
    int64_t *bounds,
    int64_t *info)
{
    memset(info, 0, LINEAR_INFO_SIZE * sizeof *info);
    if (n < 3 || root < 2 || root >= n || num_levels < 1
        || num_levels >= INT32_MAX) {
        return BUILD_INVALID;
    }

    int status = BUILD_OK;
    uint8_t *seen = calloc((size_t)n, 1);
    int64_t *walked = malloc((size_t)n * sizeof *walked);
    int64_t *stack = malloc((size_t)n * sizeof *stack);
    int64_t *slot_of = malloc((size_t)n * sizeof *slot_of);
    /* per level: node count, then the first position of its run */
    int64_t *start = calloc((size_t)num_levels + 1, sizeof *start);
    int64_t *card = malloc((size_t)num_levels * sizeof *card);
    if (!seen || !walked || !stack || !slot_of || !start || !card) {
        status = BUILD_NO_MEMORY;
        goto done;
    }

    /* the stack walk, counting nodes and edges per level */
    int64_t sp = 0, nw = 0, edges = 0;
    seen[root] = 1;
    stack[sp++] = root;
    while (sp > 0) {
        const int64_t node = stack[--sp];
        const int64_t lv = level[node];
        const int64_t k0 = offsets[node], k1 = offsets[node + 1];
        if (lv < 0 || lv >= num_levels || k1 <= k0
            || (start[lv] ? card[lv] != k1 - k0 : 0)) {
            status = BUILD_INVALID;
            goto done;
        }
        card[lv] = k1 - k0;
        start[lv]++;
        walked[nw++] = node;
        edges += k1 - k0;
        for (int64_t k = k0; k < k1; k++) {
            const int64_t c = children[k];
            if (c <= 1 || seen[c]) {
                continue;
            }
            if (level[c] <= lv) {
                status = BUILD_INVALID;
                goto done;
            }
            seen[c] = 1;
            stack[sp++] = c;
        }
    }

    /* stable counting sort, deepest level first: runs start where the
     * deeper levels' counts end */
    int64_t nlayers = 0;
    for (int64_t lv = num_levels - 1, pos = 0; lv >= 0; lv--) {
        int64_t count = start[lv];
        start[lv] = pos;
        pos += count;
        nlayers += count > 0;
    }
    int64_t *order = stack; /* the walk is over: reuse its stack */
    for (int64_t i = 0; i < nw; i++) {
        const int64_t node = walked[i];
        const int64_t pos = start[level[node]]++;
        order[pos] = node;
        slot_of[node] = pos + 2;
    }
    slot_of[0] = 0;
    slot_of[1] = 1;

    int64_t s0 = 0, e0 = 0, layer = 0;
    seg[0] = 0;
    while (s0 < nw) {
        const int64_t lv = level[order[s0]];
        const int64_t width = card[lv];
        int64_t s1 = s0;
        while (s1 < nw && level[order[s1]] == lv) {
            s1++;
        }
        const int64_t count = s1 - s0;
        for (int64_t i = 0; i < count; i++) {
            const int64_t *row = children + offsets[order[s0 + i]];
            for (int64_t j = 0; j < width; j++) {
                kids[e0 + j * count + i] = slot_of[row[j]];
            }
            slot_levels[s0 + i] = lv;
            seg[s0 + i + 1] = seg[s0 + i] + width;
        }
        int64_t *b = bounds + 6 * layer++;
        b[0] = lv;
        b[1] = s0 + 2;
        b[2] = s1 + 2;
        b[3] = e0;
        b[4] = e0 + count * width;
        b[5] = width;
        e0 += count * width;
        s0 = s1;
    }
    info[LINEAR_ROOT_SLOT] = slot_of[root];
    info[LINEAR_SLOTS] = nw + 2;
    info[LINEAR_LAYERS] = nlayers;
    info[LINEAR_EDGES] = edges;

done:
    free(seen);
    free(walked);
    free(stack);
    free(slot_of);
    free(start);
    free(card);
    return status;
}
