/* bncheck's compiled kernel, loaded through ctypes by _kernel.py: the G(n,p)
 * draw, the CSR matvec of the Lanczos route, the smallest-last vertex order
 * and the exact maximum clique search. None of the four keeps state between
 * calls.
 *
 * The clique search is San Segundo et al.'s BBMC (Computers & OR 38, 2011):
 * vertices are relabelled in the order the caller gives, candidate sets are
 * bitsets, and each search node partitions its candidates into color classes
 * by repeatedly taking the lowest remaining vertex not adjacent to the class.
 * A clique takes at most one vertex per class, so size + color bounds every
 * branch. The search starts from the largest of 8 greedy cliques and, when a
 * time budget stops it, grows its best clique to a maximal one. The deadline
 * is read at every greedy step and every search node, and only when a budget
 * is given.
 */
#define _POSIX_C_SOURCE 199309L

#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

typedef uint64_t word;

#define GREEDY_STARTS 8
#define BIT(v) ((word)1 << ((v) & 63))

/* splitmix64 (Steele/Lea constants), the stream of graph.py's randomness contract */
#define GAMMA 0x9E3779B97F4A7C15u
#define MIX1 0xBF58476D1CE4E5B9u
#define MIX2 0x94D049BB133111EBu

/* The strict upper triangle of the n x n 0/1 matrix `a` (C order, one byte
 * per entry) from the splitmix64 stream seeded with `seed`: output t, which
 * is mix(seed + (t + 1) * GAMMA), decides the t-th pair in row-major order,
 * and the pair is an edge iff the output is below `threshold`. Entries on and
 * below the diagonal are left as they are. */
void bn_draw_gnp(uint8_t *a, int64_t n, uint64_t seed, uint64_t threshold)
{
    uint64_t state = seed;
    for (int64_t i = 0; i < n; i++) {
        uint8_t *row = a + i * n;
        for (int64_t j = i + 1; j < n; j++) {
            uint64_t x = state += GAMMA;
            x = (x ^ (x >> 30)) * MIX1;
            x = (x ^ (x >> 27)) * MIX2;
            row[j] = (x ^ (x >> 31)) < threshold;
        }
    }
}

/* y = A x for the n x n 0/1 matrix A stored as CSR with no data array: the
 * ones of row i sit in columns indices[indptr[i]] .. indices[indptr[i + 1] - 1].
 * Each row sums its entries of x in index order from 0.0, which is scipy's
 * csr_matvec order with data 1.0, so y has the same bits. */
void bn_csr_matvec(const int32_t *indptr, const int32_t *indices, int64_t n, const double *x,
                   double *y)
{
    for (int64_t i = 0; i < n; i++) {
        double sum = 0.0;
        for (int32_t k = indptr[i]; k < indptr[i + 1]; k++)
            sum += x[indices[k]];
        y[i] = sum;
    }
}

/* Smallest-last order of the n x n 0/1 `matrix`: repeatedly remove a vertex
 * of least degree among those left, the lowest label on ties, and write the
 * k-th removed to order[k]. Returns 0, or -1 when memory ran out.
 *
 * Degrees sit in blocks of 64 vertices, each with its minimum in low[], so a
 * step reads the n / 64 minima and one block rather than all n degrees. A
 * removal lowers its neighbours' degrees, which can only lower their blocks'
 * minima, and raises its own to REMOVED, so only its own block is rescanned.
 * Removed vertices are lowered too; they stay far above every live degree.
 * The row is read 8 bytes at a time, skipping all-zero ones; the others are
 * subtracted as two 4-lane vectors, folded into one vector minimum per block
 * (GCC and Clang vector extensions: GCC's -O2 leaves the scalar loop
 * unvectorized, and at G(4096, 1/2) it takes SIMD to beat numpy's
 * argmin-and-subtract loop). */
#define REMOVED INT32_MAX

typedef int32_t lanes __attribute__((vector_size(16)));
typedef uint8_t lane_bytes __attribute__((vector_size(4)));

static int32_t min32(int32_t a, int32_t b)
{
    return a < b ? a : b;
}

static lanes min_lanes(lanes a, lanes b)
{
    lanes less = a < b;
    return (a & less) | (b & ~less);
}

int64_t bn_degeneracy_order(const uint8_t *matrix, int64_t n, int64_t *order)
{
    const int64_t blocks = (n + 63) / 64;
    int32_t *degree = malloc((size_t)(blocks * 64) * sizeof *degree);
    int32_t *low = malloc((size_t)blocks * sizeof *low);
    if (degree == NULL || low == NULL) {
        free(degree);
        free(low);
        return -1;
    }
    for (int64_t v = 0; v < blocks * 64; v++) {
        int32_t d = REMOVED; /* the padding past n is never picked */
        if (v < n) {
            const uint8_t *row = matrix + v * n;
            int64_t c = 0;
            for (d = 0; c + 8 <= n; c += 8) {
                uint64_t bytes;
                memcpy(&bytes, row + c, sizeof bytes);
                d += (int32_t)((bytes * 0x0101010101010101u) >> 56); /* sum of 8 0/1 bytes */
            }
            for (; c < n; c++)
                d += row[c];
        }
        degree[v] = d;
        low[v / 64] = v % 64 == 0 ? d : min32(low[v / 64], d);
    }

    for (int64_t k = 0; k < n; k++) {
        int64_t b = 0;
        for (int64_t x = 1; x < blocks; x++)
            if (low[x] < low[b])
                b = x;
        int64_t v = b * 64;
        while (degree[v] != low[b])
            v++;
        order[k] = v;

        const uint8_t *row = matrix + v * n;
        for (int64_t c0 = 0; c0 < n; c0 += 64) {
            const int64_t end = c0 + 64 < n ? c0 + 64 : n;
            lanes m = {REMOVED, REMOVED, REMOVED, REMOVED};
            int64_t c = c0;
            for (; c + 8 <= end; c += 8) {
                uint64_t bytes;
                memcpy(&bytes, row + c, sizeof bytes);
                if (bytes == 0)
                    continue;
                lane_bytes first, second;
                lanes d0, d1;
                memcpy(&first, row + c, sizeof first);
                memcpy(&second, row + c + 4, sizeof second);
                memcpy(&d0, degree + c, sizeof d0);
                memcpy(&d1, degree + c + 4, sizeof d1);
                d0 -= __builtin_convertvector(first, lanes);
                d1 -= __builtin_convertvector(second, lanes);
                memcpy(degree + c, &d0, sizeof d0);
                memcpy(degree + c + 4, &d1, sizeof d1);
                m = min_lanes(m, min_lanes(d0, d1));
            }
            for (; c < end; c++) {
                degree[c] -= row[c];
                m[0] = min32(m[0], degree[c]);
            }
            low[c0 / 64] = min32(low[c0 / 64], min32(min32(m[0], m[1]), min32(m[2], m[3])));
        }
        degree[v] = REMOVED;
        low[b] = REMOVED;
        for (int64_t u = b * 64; u < b * 64 + 64; u++)
            low[b] = min32(low[b], degree[u]);
    }
    free(degree);
    free(low);
    return 0;
}

struct search {
    int64_t n, words;
    const word *adj;     /* n rows of `words` words: bit j of row i set iff {i, j} is an edge */
    word *cand;          /* one candidate bitset per depth, n + 1 of them */
    word *rest, *avail;  /* scratch bitsets for the coloring, the greedy seed and the extension */
    int32_t *colors;     /* stack of (vertex, color) pairs, one run per open search node */
    size_t colors_top, colors_cap;
    int64_t *path;       /* the clique of the current search node */
    int64_t *best;       /* the largest clique found */
    int64_t best_size;
    int64_t nodes;
    int has_deadline, timed_out, out_of_memory;
    double deadline;
};

static double now(void)
{
    struct timespec t;
    clock_gettime(CLOCK_MONOTONIC, &t);
    return (double)t.tv_sec + 1e-9 * (double)t.tv_nsec;
}

static int past_deadline(struct search *s)
{
    if (s->has_deadline && now() > s->deadline)
        s->timed_out = 1;
    return s->timed_out;
}

static int64_t count_bits(const word *set, int64_t words)
{
    int64_t count = 0;
    for (int64_t w = 0; w < words; w++)
        count += __builtin_popcountll(set[w]);
    return count;
}

/* Bit rows of the graph relabelled by `order` (new vertex i is old vertex
 * order[i]), read from the n x n 0/1 matrix a row at a time; all-zero 8-byte
 * blocks are skipped, so a sparse matrix costs about one read per block. */
static word *relabelled_rows(const uint8_t *matrix, int64_t n, const int64_t *order, int64_t words)
{
    word *adj = calloc((size_t)(n * words), sizeof *adj);
    int64_t *label = malloc((size_t)n * sizeof *label);
    if (adj == NULL || label == NULL) {
        free(adj);
        free(label);
        return NULL;
    }
    for (int64_t i = 0; i < n; i++)
        label[order[i]] = i;
    for (int64_t i = 0; i < n; i++) {
        const uint8_t *row = matrix + order[i] * n;
        word *out = adj + i * words;
        for (int64_t c = 0; c < n; c += 8) {
            int64_t end = c + 8 < n ? c + 8 : n;
            if (end - c == 8) {
                uint64_t block;
                memcpy(&block, row + c, sizeof block);
                if (block == 0)
                    continue;
            }
            for (int64_t j = c; j < end; j++)
                if (row[j])
                    out[label[j] >> 6] |= BIT(label[j]);
        }
    }
    free(label);
    return adj;
}

/* Greedy seed: from each of the GREEDY_STARTS highest-degree vertices (lowest
 * label on ties), add the candidate with the most neighbours among the
 * candidates (lowest label on ties) until none is left. Keeps the largest
 * clique in s->best, the first one found on ties. */
static void greedy_clique(struct search *s)
{
    const int64_t n = s->n, words = s->words;
    int64_t starts[GREEDY_STARTS], nstarts = 0;
    word *cand = s->rest;
    int64_t *clique = s->path, *degree = s->best; /* s->best is unused until a clique is kept */

    for (int64_t v = 0; v < n; v++)
        degree[v] = count_bits(s->adj + v * words, words);
    for (; nstarts < GREEDY_STARTS && nstarts < n; nstarts++) {
        int64_t pick = -1;
        for (int64_t v = 0; v < n; v++)
            if (degree[v] >= 0 && (pick < 0 || degree[v] > degree[pick]))
                pick = v;
        starts[nstarts] = pick;
        degree[pick] = -1;
    }

    for (int64_t k = 0; k < nstarts; k++) {
        int64_t size = 1;
        clique[0] = starts[k];
        memcpy(cand, s->adj + starts[k] * words, (size_t)words * sizeof *cand);
        while (count_bits(cand, words) > 0) {
            if (past_deadline(s))
                break;
            int64_t pick = -1, score = -1;
            for (int64_t w = 0; w < words; w++) {
                for (word bits = cand[w]; bits; bits &= bits - 1) {
                    int64_t v = w * 64 + __builtin_ctzll(bits);
                    const word *row = s->adj + v * words;
                    int64_t sc = 0;
                    for (int64_t x = 0; x < words; x++)
                        sc += __builtin_popcountll(row[x] & cand[x]);
                    if (sc > score)
                        score = sc, pick = v;
                }
            }
            clique[size++] = pick;
            const word *row = s->adj + pick * words;
            for (int64_t x = 0; x < words; x++)
                cand[x] &= row[x];
        }
        if (size > s->best_size) {
            s->best_size = size;
            memcpy(s->best, clique, (size_t)size * sizeof *clique);
        }
        if (s->timed_out)
            return;
    }
}

/* Color classes of `cand`, appended to s->colors as (vertex, color) pairs in
 * the order they are made; colors ascend along the run. */
static void color_classes(struct search *s, const word *cand, int32_t *out)
{
    const int64_t words = s->words;
    word *rest = s->rest, *avail = s->avail;
    int64_t first = 0;
    int32_t color = 0;

    memcpy(rest, cand, (size_t)words * sizeof *rest);
    for (;;) {
        while (first < words && rest[first] == 0)
            first++;
        if (first == words)
            return;
        color++;
        memcpy(avail + first, rest + first, (size_t)(words - first) * sizeof *avail);
        for (int64_t w = first;;) {
            while (w < words && avail[w] == 0)
                w++;
            if (w == words)
                break;
            int64_t v = w * 64 + __builtin_ctzll(avail[w]);
            *out++ = (int32_t)v;
            *out++ = color;
            rest[w] ^= BIT(v);
            avail[w] ^= BIT(v);
            const word *row = s->adj + v * s->words;
            for (int64_t x = w; x < words; x++)
                avail[x] &= ~row[x];
        }
    }
}

/* One search node: `size` vertices in s->path, candidates in s->cand at depth
 * `size`. Branches on the candidates from the highest color down and stops
 * once size + color cannot beat the best clique. */
static void expand(struct search *s, int64_t size)
{
    const int64_t words = s->words;
    word *cand = s->cand + size * words, *sub = cand + words;

    s->nodes++;
    if (past_deadline(s))
        return;
    size_t base = s->colors_top, need = 2 * (size_t)count_bits(cand, words);
    if (base + need > s->colors_cap) {
        size_t cap = 2 * (base + need);
        int32_t *grown = realloc(s->colors, cap * sizeof *grown);
        if (grown == NULL) {
            s->out_of_memory = 1;
            return;
        }
        s->colors = grown;
        s->colors_cap = cap;
    }
    s->colors_top = base + need;
    color_classes(s, cand, s->colors + base);

    for (size_t i = need; i > 0; i -= 2) {
        /* re-read through s->colors: a deeper node may have moved it */
        const int32_t *entry = s->colors + base + i - 2;
        int64_t v = entry[0];
        if (size + entry[1] <= s->best_size)
            break;
        const word *row = s->adj + v * words;
        word any = 0;
        for (int64_t x = 0; x < words; x++)
            any |= sub[x] = cand[x] & row[x];
        s->path[size] = v;
        if (any) {
            expand(s, size + 1);
            if (s->timed_out || s->out_of_memory)
                break;
        } else if (size + 1 > s->best_size) {
            s->best_size = size + 1;
            memcpy(s->best, s->path, (size_t)(size + 1) * sizeof *s->path);
        }
        cand[v >> 6] ^= BIT(v);
    }
    s->colors_top = base;
}

/* omega of the n x n 0/1 `matrix` (C order, one byte per entry) searched in
 * the vertex order `order`, with at most `budget` seconds of search when
 * budget > 0. Writes the witness's original labels to `witness` (room for n)
 * in relabelled order, the node count to *nodes and whether the budget ran
 * out to *timed_out. Returns the witness size, or -1 when memory ran out. */
int64_t bn_max_clique(const uint8_t *matrix, int64_t n, const int64_t *order, double budget,
                      int64_t *witness, int64_t *nodes, int32_t *timed_out)
{
    struct search s = {0};
    int64_t size = -1;

    s.n = n;
    s.words = (n + 63) / 64;
    s.adj = relabelled_rows(matrix, n, order, s.words);
    s.cand = malloc((size_t)((n + 1) * s.words) * sizeof *s.cand);
    s.rest = malloc((size_t)s.words * sizeof *s.rest);
    s.avail = malloc((size_t)s.words * sizeof *s.avail);
    s.path = malloc((size_t)n * sizeof *s.path);
    s.best = malloc((size_t)n * sizeof *s.best);
    s.colors_cap = 2 * (size_t)n;
    s.colors = malloc(s.colors_cap * sizeof *s.colors);
    if (!s.adj || !s.cand || !s.rest || !s.avail || !s.path || !s.best || !s.colors)
        goto done;

    if (budget > 0) {
        s.has_deadline = 1;
        s.deadline = now() + budget;
    }
    greedy_clique(&s);
    memset(s.cand, 0, (size_t)s.words * sizeof *s.cand);
    for (int64_t v = 0; v < n; v++)
        s.cand[v >> 6] |= BIT(v);
    expand(&s, 0);
    if (s.out_of_memory)
        goto done;

    /* An interrupted search can leave an extendable clique (tried vertices
     * leave the candidate sets); grow it to maximal so even a lower-bound
     * witness is never trivially improvable. Certified maxima never extend. */
    word *mask = s.rest;
    memset(mask, 0, (size_t)s.words * sizeof *mask);
    for (int64_t k = 0; k < s.best_size; k++)
        mask[s.best[k] >> 6] |= BIT(s.best[k]);
    size = 0;
    for (int64_t v = 0; v < n; v++) {
        const word *row = s.adj + v * s.words;
        int adjacent_to_all = !(mask[v >> 6] & BIT(v));
        for (int64_t x = 0; x < s.words && adjacent_to_all; x++)
            adjacent_to_all = (row[x] & mask[x]) == mask[x];
        if (adjacent_to_all)
            mask[v >> 6] |= BIT(v);
        if (mask[v >> 6] & BIT(v))
            witness[size++] = order[v];
    }
    *nodes = s.nodes;
    *timed_out = s.timed_out;

done:
    free((void *)s.adj);
    free(s.cand);
    free(s.rest);
    free(s.avail);
    free(s.path);
    free(s.best);
    free(s.colors);
    return size;
}
