/* Native backend for repro.engine.batch and repro.bdd.builder.
 *
 * Compiled on demand by repro/engine/native.py with the system C compiler
 * and loaded via ctypes.  Two independent parts share the library: the
 * fused probability kernel below, and the coded-ROBDD builder at the end of
 * the file.  The kernel functions walk the *same* FusedSchedule
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

#define REPRO_NATIVE_ABI 2

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
 * visited in index order; an input makes its variable node; an n-ary gate
 * folds left over its fanins (AND and OR stop at their absorbing constant);
 * NAND, NOR and XNOR complement their fold; and every XOR step first
 * complements its right operand, because the gate loop's  ite(f, NOT g, g)
 * creates those nodes.  Reduced, hash-consed nodes are never freed here,
 * so the set of nodes created depends only on that operation sequence and
 * the created count equals the gate loop's with collect_garbage=False.
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

typedef struct {
    int64_t count;
    int64_t *level, *low, *high;
} bdd_result_t;

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

/* one gate of the circuit, exactly as builder.py's _apply_gate orders it */
static uint32_t
apply_gate(bdd_t *b, int64_t kind, const uint32_t *vals, const int64_t *fan,
           int64_t count)
{
    uint32_t r;
    switch (kind) {
    case NODE_BUF:
        return vals[fan[0]];
    case NODE_NOT:
        return apply(b, OP_NOT, vals[fan[0]], 0);
    case NODE_AND:
    case NODE_NAND:
        r = 1;
        for (int64_t i = 0; i < count && r != 0; i++) {
            r = apply(b, OP_AND, r, vals[fan[i]]);
            if (r == NIL) {
                return NIL;
            }
        }
        return kind == NODE_AND ? r : apply(b, OP_NOT, r, 0);
    case NODE_OR:
    case NODE_NOR:
        r = 0;
        for (int64_t i = 0; i < count && r != 1; i++) {
            r = apply(b, OP_OR, r, vals[fan[i]]);
            if (r == NIL) {
                return NIL;
            }
        }
        return kind == NODE_OR ? r : apply(b, OP_NOT, r, 0);
    default: /* NODE_XOR, NODE_XNOR */
        r = vals[fan[0]];
        for (int64_t i = 1; i < count; i++) {
            if (apply(b, OP_NOT, vals[fan[i]], 0) == NIL) {
                return NIL;
            }
            r = apply(b, OP_XOR, r, vals[fan[i]]);
            if (r == NIL) {
                return NIL;
            }
        }
        return kind == NODE_XOR ? r : apply(b, OP_NOT, r, 0);
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

/* Compact the nodes reachable from root into a result, renumbered
 * 2.. in creation order (children keep smaller ids than parents). */
static bdd_result_t *
export_reachable(const bdd_t *b, uint32_t root, int64_t *root_out)
{
    bdd_result_t *res = calloc(1, sizeof *res);
    uint8_t *mark = calloc((size_t)b->n, 1);
    uint32_t *renum = malloc((size_t)b->n * sizeof *renum);
    int ok = res && mark && renum;
    if (ok) {
        mark[root] = 1;
        for (int64_t id = root; id >= 2; id--) {
            if (mark[id]) {
                mark[b->nodes[id].low] = 1;
                mark[b->nodes[id].high] = 1;
                res->count++;
            }
        }
        size_t m = (size_t)res->count;
        res->level = malloc((m ? m : 1) * sizeof(int64_t));
        res->low = malloc((m ? m : 1) * sizeof(int64_t));
        res->high = malloc((m ? m : 1) * sizeof(int64_t));
        ok = res->level && res->low && res->high;
    }
    if (ok) {
        renum[0] = 0;
        renum[1] = 1;
        int64_t next = 0;
        for (int64_t id = 2; id <= (int64_t)root; id++) {
            if (!mark[id]) {
                continue;
            }
            const node_t *nd = &b->nodes[id];
            renum[id] = (uint32_t)(next + 2);
            res->level[next] = nd->level;
            res->low[next] = renum[nd->low];
            res->high[next] = renum[nd->high];
            next++;
        }
        *root_out = renum[root];
    }
    free(mark);
    free(renum);
    if (!ok && res) {
        free(res->level);
        free(res->low);
        free(res->high);
        free(res);
        res = NULL;
    }
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
 * result_out    on BUILD_OK, the reachable diagram for
 *               repro_bdd_result_export; release it with
 *               repro_bdd_result_free.  NULL on every failure.
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
    if (!b.nodes || !b.utab || !b.stack || !vals) {
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
        vals[i] = apply_gate(&b, kind, vals, fanins + starts[i],
                             starts[i + 1] - starts[i]);
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
        bdd_result_t *res = export_reachable(&b, vals[output], &info[INFO_ROOT]);
        if (res) {
            info[INFO_NODES] = res->count;
            *result_out = res;
        } else {
            b.status = BUILD_NO_MEMORY;
        }
    }
    free(vals);
    bdd_release(&b);
    return b.status;
}

/* Copy a build result into caller arrays of at least INFO_NODES entries. */
void
repro_bdd_result_export(const void *result, int64_t *level, int64_t *low,
                        int64_t *high)
{
    const bdd_result_t *res = result;
    size_t bytes = (size_t)res->count * sizeof(int64_t);
    memcpy(level, res->level, bytes);
    memcpy(low, res->low, bytes);
    memcpy(high, res->high, bytes);
}

void
repro_bdd_result_free(void *result)
{
    bdd_result_t *res = result;
    if (res) {
        free(res->level);
        free(res->low);
        free(res->high);
        free(res);
    }
}
