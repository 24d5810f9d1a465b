/* Native inner loop of the batch trace engine.
 *
 * Operates directly on the struct-of-arrays state owned by the Python
 * side (repro/cache/soa.py): every pointer below aliases a preallocated
 * numpy array, so Python introspection (occupancy, fuzz comparisons,
 * metrics collectors) always sees the live state without marshalling.
 *
 * Semantics are an exact port of repro/cache/set_assoc.py and
 * repro/cache/hierarchy.py, including:
 *   - dict-order LRU reproduced as per-slot monotonically increasing
 *     recency stamps (tick++ per touch; the dict's oldest entry is the
 *     minimum-stamp valid slot; invalid slots are claimed first in
 *     way/mask order);
 *   - the 32-bit LCG for random replacement, stepped only when a draw
 *     actually happens, in the same order as the object engine;
 *   - traffic category arithmetic: EVICT_CATEGORY[kind] == kind + 5,
 *     CPU_READ_CATEGORY[kind] == kind + 2 (RegionKind RX=0, TX=1,
 *     APP=2; MemCategory CPU_RX_RD=2..CPU_OTHER_RD=4, RX_EVCT=5..
 *     OTHER_EVCT=7), asserted against the enums by the equivalence
 *     suite.
 *
 * The equivalence suite (tests/test_batch_equivalence.py) holds this
 * file to bit-identical TraceResult output against the object engine.
 */

#include <stddef.h>
#include <stdint.h>

#define LEVEL_L1 1
#define LEVEL_L2 2
#define LEVEL_LLC 3
#define LEVEL_MEM 4

#define CAT_NIC_RX_WR 0
#define CAT_NIC_TX_RD 1

#define STAT_HITS 0
#define STAT_MISSES 1
#define STAT_INSERTIONS 2
#define STAT_EV_CLEAN 3
#define STAT_EV_DIRTY 4
#define STAT_INVALIDATIONS 5
#define STAT_SWEEPS 6

#define KIND_APP 2

typedef struct {
    int64_t num_sets;
    int64_t ways;
    int64_t is_lru;
    int64_t *tags;
    uint8_t *dirty;
    uint8_t *kind;
    int64_t *stamp;
    int64_t *tick;
    int64_t *lcg;
    int64_t *stats;
} BCache;

typedef struct {
    int64_t num_cores;
    int64_t victim_fill_clean;
    BCache *l1;         /* num_cores entries */
    BCache *l2;         /* num_cores entries */
    BCache *llc;        /* one entry */
    int64_t *traffic;   /* 8 MemCategory cells */
    int64_t *ddio_mask;     /* llc->ways capacity */
    int64_t *ddio_mask_len; /* 1 cell */
    int64_t *core_masks;    /* num_cores * llc->ways */
    int64_t *core_mask_len; /* num_cores cells; -1 means no mask */
} BHier;

/* ------------------------------------------------------------------ */
/* single-cache primitives                                             */
/* ------------------------------------------------------------------ */

static int64_t slot_of(const BCache *c, int64_t block)
{
    int64_t base = (block % c->num_sets) * c->ways;
    int64_t end = base + c->ways;
    for (int64_t s = base; s < end; s++) {
        if (c->tags[s] == block)
            return s;
    }
    return -1;
}

/* Probe; returns 1 on hit. Mirrors _access_lru/_access_random. */
static int cache_access(BCache *c, int64_t block, int write)
{
    int64_t slot = slot_of(c, block);
    if (slot < 0) {
        c->stats[STAT_MISSES]++;
        return 0;
    }
    if (c->is_lru)
        c->stamp[slot] = c->tick[0]++;
    c->stats[STAT_HITS]++;
    if (write)
        c->dirty[slot] = 1;
    return 1;
}

/* Probe returning the resident kind, or -1 on miss (access_kind). */
static int64_t cache_access_kind(BCache *c, int64_t block, int write)
{
    int64_t slot = slot_of(c, block);
    if (slot < 0) {
        c->stats[STAT_MISSES]++;
        return -1;
    }
    if (c->is_lru)
        c->stamp[slot] = c->tick[0]++;
    c->stats[STAT_HITS]++;
    if (write)
        c->dirty[slot] = 1;
    return (int64_t)c->kind[slot];
}

/* Insert; evicted line is returned through out_{block,dirty,kind}.
 * Returns 1 if a line was evicted, 0 otherwise.
 * mask == NULL means no way restriction. Mirrors _insert_lru /
 * _insert_random including prefer_invalid and the LCG draw order. */
static int cache_insert(BCache *c, int64_t block, int dirty, int64_t kind,
                        const int64_t *mask, int64_t mask_len,
                        int prefer_invalid, int64_t *out_block,
                        int *out_dirty, int64_t *out_kind)
{
    int64_t slot = slot_of(c, block);
    if (slot >= 0) {
        /* Present: refresh in place (recency for LRU only). */
        if (c->is_lru)
            c->stamp[slot] = c->tick[0]++;
        if (dirty)
            c->dirty[slot] = 1;
        c->kind[slot] = (uint8_t)kind;
        return 0;
    }

    int64_t base = (block % c->num_sets) * c->ways;
    int64_t victim = -1;
    if (c->is_lru) {
        /* First invalid way in way/mask order, else oldest stamp. */
        int64_t best = -1, best_stamp = 0;
        if (mask == NULL) {
            for (int64_t s = base; s < base + c->ways; s++) {
                if (c->tags[s] == -1) { victim = s; break; }
                if (best < 0 || c->stamp[s] < best_stamp) {
                    best = s;
                    best_stamp = c->stamp[s];
                }
            }
        } else {
            for (int64_t i = 0; i < mask_len; i++) {
                int64_t s = base + mask[i];
                if (c->tags[s] == -1) { victim = s; break; }
                if (best < 0 || c->stamp[s] < best_stamp) {
                    best = s;
                    best_stamp = c->stamp[s];
                }
            }
        }
        if (victim < 0)
            victim = best;
    } else {
        if (prefer_invalid) {
            if (mask == NULL) {
                for (int64_t s = base; s < base + c->ways; s++) {
                    if (c->tags[s] == -1) { victim = s; break; }
                }
            } else {
                for (int64_t i = 0; i < mask_len; i++) {
                    if (c->tags[base + mask[i]] == -1) {
                        victim = base + mask[i];
                        break;
                    }
                }
            }
        }
        if (victim < 0) {
            int64_t lcg =
                (c->lcg[0] * 1103515245 + 12345) & 0xFFFFFFFFLL;
            c->lcg[0] = lcg;
            if (mask == NULL)
                victim = base + (lcg >> 16) % c->ways;
            else if (mask_len > 0)
                victim = base + mask[(lcg >> 16) % mask_len];
        }
    }
    if (victim < 0)
        return -1; /* empty way mask; Python raises ConfigError */

    int evicted = 0;
    int64_t old_tag = c->tags[victim];
    if (old_tag != -1) {
        int old_dirty = c->dirty[victim];
        *out_block = old_tag;
        *out_dirty = old_dirty;
        *out_kind = (int64_t)c->kind[victim];
        evicted = 1;
        if (old_dirty)
            c->stats[STAT_EV_DIRTY]++;
        else
            c->stats[STAT_EV_CLEAN]++;
    }
    c->tags[victim] = block;
    c->dirty[victim] = dirty ? 1 : 0;
    c->kind[victim] = (uint8_t)kind;
    if (c->is_lru)
        c->stamp[victim] = c->tick[0]++;
    c->stats[STAT_INSERTIONS]++;
    return evicted;
}

/* Remove; returns 1 and fills out_{dirty,kind} if the block was there. */
static int cache_remove(BCache *c, int64_t block, int *out_dirty,
                        int64_t *out_kind)
{
    int64_t slot = slot_of(c, block);
    if (slot < 0)
        return 0;
    *out_dirty = c->dirty[slot];
    *out_kind = (int64_t)c->kind[slot];
    c->tags[slot] = -1;
    c->dirty[slot] = 0;
    c->stamp[slot] = -1;
    c->stats[STAT_INVALIDATIONS]++;
    return 1;
}

/* Sweep (invalidate without writeback); returns 1 if a line dropped. */
static int cache_sweep(BCache *c, int64_t block)
{
    int64_t slot = slot_of(c, block);
    if (slot < 0)
        return 0;
    c->tags[slot] = -1;
    c->dirty[slot] = 0;
    c->stamp[slot] = -1;
    c->stats[STAT_INVALIDATIONS]++;
    c->stats[STAT_SWEEPS]++;
    return 1;
}

/* ------------------------------------------------------------------ */
/* hierarchy cascade (port of CacheHierarchy)                          */
/* ------------------------------------------------------------------ */

static void writeback(BHier *h, int64_t kind)
{
    h->traffic[kind + 5] += 1; /* EVICT_CATEGORY[kind] */
}

static void victim_fill_llc(BHier *h, int64_t core, int64_t block,
                            int dirty, int64_t kind)
{
    if (!dirty && !h->victim_fill_clean)
        return;
    const int64_t *mask = NULL;
    int64_t mask_len = 0;
    if (h->core_mask_len[core] >= 0) {
        mask = h->core_masks + core * h->llc->ways;
        mask_len = h->core_mask_len[core];
    }
    int64_t ev_block, ev_kind;
    int ev_dirty;
    int r = cache_insert(h->llc, block, dirty, kind, mask, mask_len,
                         /*prefer_invalid=*/0, &ev_block, &ev_dirty,
                         &ev_kind);
    if (r == 1 && ev_dirty)
        writeback(h, ev_kind);
}

static void fill_l2(BHier *h, int64_t core, int64_t block, int dirty,
                    int64_t kind)
{
    int64_t ev_block, ev_kind;
    int ev_dirty;
    int r = cache_insert(&h->l2[core], block, dirty, kind, NULL, 0, 1,
                         &ev_block, &ev_dirty, &ev_kind);
    if (r == 1)
        victim_fill_llc(h, core, ev_block, ev_dirty, ev_kind);
}

static void fill_l1(BHier *h, int64_t core, int64_t block, int dirty,
                    int64_t kind)
{
    int64_t ev_block, ev_kind;
    int ev_dirty;
    int r = cache_insert(&h->l1[core], block, dirty, kind, NULL, 0, 1,
                         &ev_block, &ev_dirty, &ev_kind);
    if (r != 1)
        return;
    if (!ev_dirty)
        return;
    /* Dirty L1 victim merges into the L2 if present, else allocates. */
    if (cache_access(&h->l2[core], ev_block, /*write=*/1))
        return;
    fill_l2(h, core, ev_block, 1, ev_kind);
}

static int64_t cpu_access_l1_missed(BHier *h, int64_t core, int64_t block,
                                    int64_t kind, int write)
{
    if (cache_access(&h->l2[core], block, 0)) {
        fill_l1(h, core, block, write, kind);
        return LEVEL_L2;
    }
    int64_t llc_kind = cache_access_kind(h->llc, block, 0);
    if (llc_kind >= 0) {
        if (write) {
            int d;
            int64_t k;
            cache_remove(h->llc, block, &d, &k);
        }
        fill_l2(h, core, block, 0, llc_kind);
        fill_l1(h, core, block, write, llc_kind);
        return LEVEL_LLC;
    }
    h->traffic[kind + 2] += 1; /* CPU_READ_CATEGORY[kind] */
    fill_l2(h, core, block, 0, kind);
    fill_l1(h, core, block, write, kind);
    return LEVEL_MEM;
}

/* ------------------------------------------------------------------ */
/* exported entry points                                               */
/* ------------------------------------------------------------------ */

int64_t bc_cpu_access(BHier *h, int64_t core, int64_t block, int64_t kind,
                      int64_t write)
{
    if (cache_access(&h->l1[core], block, (int)write))
        return LEVEL_L1;
    return cpu_access_l1_missed(h, core, block, kind, (int)write);
}

/* counts: int64[5] scratch indexed by AccessLevel (0 unused). */
void bc_cpu_access_run(BHier *h, int64_t core, int64_t start, int64_t n,
                       int64_t kind, int64_t write, int64_t *counts)
{
    for (int64_t block = start; block < start + n; block++) {
        if (cache_access(&h->l1[core], block, (int)write))
            counts[LEVEL_L1] += 1;
        else
            counts[cpu_access_l1_missed(h, core, block, kind,
                                        (int)write)] += 1;
    }
}

void bc_cpu_access_batch(BHier *h, int64_t core, const int64_t *blocks,
                         const uint8_t *writes, int64_t n, int64_t kind,
                         int64_t *counts)
{
    for (int64_t i = 0; i < n; i++) {
        int64_t block = blocks[i];
        int write = writes[i] != 0;
        if (cache_access(&h->l1[core], block, write))
            counts[LEVEL_L1] += 1;
        else
            counts[cpu_access_l1_missed(h, core, block, kind, write)] += 1;
    }
}

void bc_nic_llc_write_run(BHier *h, int64_t core, int64_t start, int64_t n,
                          int64_t kind)
{
    const int64_t *mask = h->ddio_mask;
    int64_t mask_len = h->ddio_mask_len[0];
    for (int64_t block = start; block < start + n; block++) {
        int d;
        int64_t k;
        cache_remove(&h->l1[core], block, &d, &k);
        cache_remove(&h->l2[core], block, &d, &k);
        int64_t ev_block, ev_kind;
        int ev_dirty;
        int r = cache_insert(h->llc, block, 1, kind, mask, mask_len, 1,
                             &ev_block, &ev_dirty, &ev_kind);
        if (r == 1 && ev_dirty)
            writeback(h, ev_kind);
    }
}

void bc_nic_probe_read_run(BHier *h, int64_t core, int64_t start, int64_t n)
{
    for (int64_t block = start; block < start + n; block++) {
        if (slot_of(&h->l1[core], block) >= 0)
            continue;
        if (slot_of(&h->l2[core], block) >= 0)
            continue;
        if (cache_access(h->llc, block, 0))
            continue;
        h->traffic[CAT_NIC_TX_RD] += 1;
    }
}

int64_t bc_sweep_run(BHier *h, int64_t core, int64_t start, int64_t n)
{
    int64_t dropped = 0;
    BCache *l1 = &h->l1[core];
    BCache *l2 = &h->l2[core];
    /* Matches hierarchy.sweep_run: whole run per cache, cache by cache
     * (sweeps are independent per cache and per block, so the order is
     * unobservable, but keep it anyway). */
    for (int64_t block = start; block < start + n; block++)
        dropped += cache_sweep(l1, block);
    for (int64_t block = start; block < start + n; block++)
        dropped += cache_sweep(l2, block);
    for (int64_t block = start; block < start + n; block++)
        dropped += cache_sweep(h->llc, block);
    return dropped;
}

/* Port of CacheHierarchy.invalidate_block; returns dirty_seen. */
int64_t bc_invalidate_block(BHier *h, int64_t core, int64_t block,
                            int64_t discard_dirty)
{
    int dirty_seen = 0;
    int64_t kind_seen = KIND_APP;
    int d;
    int64_t k;
    if (cache_remove(&h->l1[core], block, &d, &k) && d) {
        dirty_seen = 1;
        kind_seen = k;
    }
    if (cache_remove(&h->l2[core], block, &d, &k) && d) {
        dirty_seen = 1;
        kind_seen = k;
    }
    if (cache_remove(h->llc, block, &d, &k) && d) {
        dirty_seen = 1;
        kind_seen = k;
    }
    if (dirty_seen && !discard_dirty)
        writeback(h, kind_seen);
    return dirty_seen;
}

/* Prime+probe sweep (port of CacheHierarchy.llc_probe): probe every
 * block in the LLC, then re-prime the missed ones clean, in order,
 * inside the way mask. A line a re-prime evicts is discarded: no
 * writeback, no private-cache back-invalidation. Missed blocks are
 * written to out_missed in probe order; returns their count, or -1 on
 * an empty way mask (Python raises ConfigError). */
int64_t bc_llc_probe(BHier *h, const int64_t *blocks, int64_t n,
                     const int64_t *ways, int64_t ways_len,
                     int64_t *out_missed)
{
    int64_t missed = 0;
    for (int64_t i = 0; i < n; i++) {
        if (!cache_access(h->llc, blocks[i], 0))
            out_missed[missed++] = blocks[i];
    }
    for (int64_t i = 0; i < missed; i++) {
        int64_t ev_block, ev_kind;
        int ev_dirty;
        if (cache_insert(h->llc, out_missed[i], 0, KIND_APP, ways, ways_len,
                         1, &ev_block, &ev_dirty, &ev_kind) < 0)
            return -1;
    }
    return missed;
}

void bc_dma_rx_write_run(BHier *h, int64_t core, int64_t start, int64_t n)
{
    for (int64_t block = start; block < start + n; block++)
        bc_invalidate_block(h, core, block, /*discard_dirty=*/1);
    h->traffic[CAT_NIC_RX_WR] += n;
}

void bc_dma_tx_read_run(BHier *h, int64_t core, int64_t start, int64_t n)
{
    for (int64_t block = start; block < start + n; block++)
        bc_invalidate_block(h, core, block, /*discard_dirty=*/0);
    h->traffic[CAT_NIC_TX_RD] += n;
}
