/* Native inner loop of the batch trace engine.
 *
 * Operates directly on the struct-of-arrays state owned by the Python
 * side (repro/cache/soa.py): every pointer below aliases a preallocated
 * numpy array, so Python introspection (occupancy, fuzz comparisons,
 * metrics collectors) always sees the live state without marshalling.
 * This kernel is the only code that mutates that state.
 *
 * Semantics are an exact port of repro/cache/set_assoc.py and
 * repro/cache/hierarchy.py (and, in the fused request loop, of
 * repro/engine/tracer.py and repro/nic/zoo.py), including:
 *   - dict-order LRU reproduced as per-slot monotonically increasing
 *     recency stamps (tick++ per touch; the dict's oldest entry is the
 *     minimum-stamp valid slot; invalid slots are claimed first in
 *     way/mask order);
 *   - the stamp invariant the LRU victim pick rests on: in an LRU
 *     cache a slot is invalid iff its stamp is -1. Stamps start at -1
 *     (SoaCache), cache_remove and cache_sweep write -1 with the tag,
 *     and tick starts at 0, so valid stamps are unique and >= 0. One
 *     argmin over the stamps with a strict < (ties to the first way in
 *     way/mask order) therefore picks the first invalid way, else the
 *     oldest line. The equivalence fuzz checks the invariant after
 *     every step;
 *   - the 32-bit LCG for random replacement, stepped only when a draw
 *     actually happens, in the same order as the object engine;
 *   - traffic category arithmetic: EVICT_CATEGORY[kind] == kind + 5,
 *     CPU_READ_CATEGORY[kind] == kind + 2 (RegionKind RX=0, TX=1,
 *     APP=2; MemCategory CPU_RX_RD=2..CPU_OTHER_RD=4, RX_EVCT=5..
 *     OTHER_EVCT=7), asserted against the enums by the equivalence
 *     suite.
 *
 * The set scans (presence, first invalid way, LRU victim) compare every
 * way with no early exit and select with conditional moves, not
 * data-dependent branches, which mispredict on nearly every scan; the
 * scan order makes the first match in way/mask order win, so no scan
 * relies on tags being unique within a set.
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

/* First slot of the block's set. Most geometries have a power-of-two
 * set count, which a mask indexes; the rest (the full-scale LLC's
 * 49,152 sets) take the modulo. */
static inline int64_t set_base(const BCache *c, int64_t block)
{
    int64_t n = c->num_sets;
    int64_t set = (n & (n - 1)) == 0 ? block & (n - 1) : block % n;
    return set * c->ways;
}

/* Lowest way of the set starting at ``base`` whose tag is ``tag``, as a
 * slot, or -1. Every way is compared, with no early exit: the scan runs
 * from the last way down and each match overwrites the answer, so the
 * first match in way order wins without a data-dependent branch. */
static inline int64_t first_tag(const BCache *c, int64_t base, int64_t tag)
{
    const int64_t *tags = c->tags + base;
    int64_t slot = -1;
    for (int64_t w = c->ways - 1; w >= 0; w--)
        slot = tags[w] == tag ? base + w : slot;
    return slot;
}

/* The same over the ways ``mask[0..mask_len)``: first match in mask
 * order. */
static inline int64_t first_tag_masked(const BCache *c, int64_t base,
                                       int64_t tag, const int64_t *mask,
                                       int64_t mask_len)
{
    int64_t slot = -1;
    for (int64_t i = mask_len - 1; i >= 0; i--) {
        int64_t s = base + mask[i];
        slot = c->tags[s] == tag ? s : slot;
    }
    return slot;
}

/* LRU victim of the set starting at ``base``: the slot with the
 * smallest stamp, the first in way order on a tie. Because an invalid
 * slot's stamp is -1 and valid stamps are unique and >= 0 (see the
 * header), that is the first invalid way, else the least recently used
 * line. */
static inline int64_t oldest_way(const BCache *c, int64_t base)
{
    const int64_t *stamp = c->stamp;
    int64_t victim = base, oldest = stamp[base];
    for (int64_t s = base + 1; s < base + c->ways; s++) {
        int older = stamp[s] < oldest;
        victim = older ? s : victim;
        oldest = older ? stamp[s] : oldest;
    }
    return victim;
}

/* The same over the ways ``mask[0..mask_len)``, ties going to the first
 * in mask order; -1 on an empty mask. */
static inline int64_t oldest_way_masked(const BCache *c, int64_t base,
                                        const int64_t *mask, int64_t mask_len)
{
    if (mask_len <= 0)
        return -1;
    const int64_t *stamp = c->stamp;
    int64_t victim = base + mask[0], oldest = stamp[victim];
    for (int64_t i = 1; i < mask_len; i++) {
        int64_t s = base + mask[i];
        int older = stamp[s] < oldest;
        victim = older ? s : victim;
        oldest = older ? stamp[s] : oldest;
    }
    return victim;
}

static int64_t slot_of(const BCache *c, int64_t block)
{
    return first_tag(c, set_base(c, block), block);
}

/* Probe; returns 1 on hit. Mirrors SetAssociativeCache.access. */
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

/* Insert a block the cache does not hold; the evicted line is
 * returned through out_{block,dirty,kind}. Returns 1 if a line was
 * evicted, 0 otherwise, -1 on an empty way mask. mask == NULL means no
 * way restriction. Mirrors the absent branch of
 * SetAssociativeCache.insert including prefer_invalid and the LCG draw
 * order. */
static int insert_absent(BCache *c, int64_t block, int dirty, int64_t kind,
                         const int64_t *mask, int64_t mask_len,
                         int prefer_invalid, int64_t *out_block,
                         int *out_dirty, int64_t *out_kind)
{
    int64_t base = set_base(c, block);
    int64_t victim = -1;
    if (c->is_lru) {
        victim = mask == NULL ? oldest_way(c, base)
                              : oldest_way_masked(c, base, mask, mask_len);
    } else {
        if (prefer_invalid)
            victim = mask == NULL
                         ? first_tag(c, base, -1)
                         : first_tag_masked(c, base, -1, mask, mask_len);
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

/* Insert (SetAssociativeCache.insert): a present block is refreshed in
 * place (recency for LRU only), an absent one goes to insert_absent. */
static int cache_insert(BCache *c, int64_t block, int dirty, int64_t kind,
                        const int64_t *mask, int64_t mask_len,
                        int prefer_invalid, int64_t *out_block,
                        int *out_dirty, int64_t *out_kind)
{
    int64_t slot = slot_of(c, block);
    if (slot < 0)
        return insert_absent(c, block, dirty, kind, mask, mask_len,
                             prefer_invalid, out_block, out_dirty, out_kind);
    if (c->is_lru)
        c->stamp[slot] = c->tick[0]++;
    if (dirty)
        c->dirty[slot] = 1;
    c->kind[slot] = (uint8_t)kind;
    return 0;
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

/* The fills below always follow a probe of the same block in the same
 * cache that missed, with nothing in between that could bring the
 * block in, so they skip the presence scan. */
static void fill_l2(BHier *h, int64_t core, int64_t block, int dirty,
                    int64_t kind)
{
    int64_t ev_block, ev_kind;
    int ev_dirty;
    int r = insert_absent(&h->l2[core], block, dirty, kind, NULL, 0, 1,
                          &ev_block, &ev_dirty, &ev_kind);
    if (r == 1)
        victim_fill_llc(h, core, ev_block, ev_dirty, ev_kind);
}

static void fill_l1(BHier *h, int64_t core, int64_t block, int dirty,
                    int64_t kind)
{
    int64_t ev_block, ev_kind;
    int ev_dirty;
    int r = insert_absent(&h->l1[core], block, dirty, kind, NULL, 0, 1,
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

/* Returns the number of blocks no cache held (the DRAM reads). */
int64_t bc_nic_probe_read_run(BHier *h, int64_t core, int64_t start,
                              int64_t n)
{
    int64_t missed = 0;
    for (int64_t block = start; block < start + n; block++) {
        if (slot_of(&h->l1[core], block) >= 0)
            continue;
        if (slot_of(&h->l2[core], block) >= 0)
            continue;
        if (cache_access(h->llc, block, 0))
            continue;
        missed++;
    }
    h->traffic[CAT_NIC_TX_RD] += missed;
    return missed;
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

/* Prime (port of CacheHierarchy.llc_prime): insert every block clean,
 * in order, inside the way mask. A line a prime evicts is discarded:
 * no writeback, no private-cache back-invalidation. Returns 0, or -1 on
 * an empty way mask (Python raises ConfigError). */
int64_t bc_llc_prime(BHier *h, const int64_t *blocks, int64_t n,
                     const int64_t *ways, int64_t ways_len)
{
    for (int64_t i = 0; i < n; i++) {
        int64_t ev_block, ev_kind;
        int ev_dirty;
        if (cache_insert(h->llc, blocks[i], 0, KIND_APP, ways, ways_len, 1,
                         &ev_block, &ev_dirty, &ev_kind) < 0)
            return -1;
    }
    return 0;
}

/* Prime+probe sweep (port of CacheHierarchy.llc_probe): probe every
 * block in the LLC, then re-prime the missed ones. Missed blocks are
 * written to out_missed in probe order; returns their count, or -1 on
 * an empty way mask. */
int64_t bc_llc_probe(BHier *h, const int64_t *blocks, int64_t n,
                     const int64_t *ways, int64_t ways_len,
                     int64_t *out_missed)
{
    int64_t missed = 0;
    for (int64_t i = 0; i < n; i++) {
        if (!cache_access(h->llc, blocks[i], 0))
            out_missed[missed++] = blocks[i];
    }
    if (bc_llc_prime(h, out_missed, missed, ways, ways_len) < 0)
        return -1;
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

/* ------------------------------------------------------------------ */
/* fused request loop (port of TraceSimulator.service_one)             */
/* ------------------------------------------------------------------ */

#define POLICY_DDIO 0
#define POLICY_DMA 1
#define POLICY_IDEAL 2

/* Zoo buffer managers on top of POLICY_DDIO (repro/nic/zoo.py). */
#define ZOO_NONE 0
#define ZOO_OCCAMY 1
#define ZOO_RDCA 2

#define KIND_RX 0
#define KIND_TX 1

/* BLoop.counts cells; LOOP_LEVELS..+4 are indexed by AccessLevel. */
#define LOOP_TRANSMISSIONS 0
#define LOOP_NIC_SWEEPS 1
#define LOOP_RELINQUISH_CALLS 2
#define LOOP_CLSWEEPS 3
#define LOOP_LINES_DROPPED 4
#define LOOP_ZOO_EVICTIONS 5
#define LOOP_LEVELS 6

/* Ring geometry, per-core cursors and the switches service_one reads.
 * The cursors and zoo windows are copies of the Python ring fields and
 * the zoo policy's buffer dicts, synced around each call by the caller. */
typedef struct {
    int64_t num_cores;
    int64_t policy;        /* POLICY_* */
    int64_t relinquish;    /* CPU relinquish after a copied response */
    int64_t zc_sweep;      /* NIC sweeps a zero-copy RX buffer */
    int64_t tx_sweep;      /* NIC sweeps a copied TX buffer */
    int64_t zoo;           /* ZOO_* */
    int64_t zoo_limit;     /* Occamy: protect_buffers; RDCA: pool_buffers */
    double zoo_threshold;  /* Occamy: resident blocks that start preemption */
    int64_t packet_blocks;
    int64_t rx_entries;
    int64_t tx_entries;
    int64_t *rx_base;      /* per core: first block of the RX ring */
    int64_t *tx_base;      /* per core: first block of the TX ring */
    int64_t *rx_head;
    int64_t *rx_tail;
    int64_t *rx_drops;
    int64_t *rx_posted;
    int64_t *tx_next;
    int64_t *window;       /* per core: buffers the zoo policy tracks */
    int64_t *counts;       /* LOOP_* cells, accumulated */
} BLoop;

/* CPU access to a network buffer: ideal DDIO serves it at LLC level
 * from its side cache without touching the hierarchy. */
static void buffer_access_run(BHier *h, const BLoop *q, int64_t core,
                              int64_t start, int64_t n, int64_t kind,
                              int64_t write)
{
    if (q->policy == POLICY_IDEAL)
        q->counts[LOOP_LEVELS + LEVEL_LLC] += n;
    else
        bc_cpu_access_run(h, core, start, n, kind, write,
                          q->counts + LOOP_LEVELS);
}

static void nic_transmit(BHier *h, BLoop *q, int64_t core, int64_t start,
                         int64_t n, int64_t sweep)
{
    if (q->policy == POLICY_DDIO)
        bc_nic_probe_read_run(h, core, start, n);
    else if (q->policy == POLICY_DMA)
        bc_dma_tx_read_run(h, core, start, n);
    if (sweep)
        q->counts[LOOP_NIC_SWEEPS] += bc_sweep_run(h, core, start, n);
    q->counts[LOOP_TRANSMISSIONS] += 1;
}

/* First block of absolute RX slot ``slot`` of ``core`` (RxRing.slot_blocks). */
static inline int64_t rx_block(const BLoop *q, int64_t core, int64_t slot)
{
    return q->rx_base[core] + (slot % q->rx_entries) * q->packet_blocks;
}

/* Write back and drop every block of RX slot ``slot`` (a zoo eviction). */
static void zoo_evict(BHier *h, BLoop *q, int64_t core, int64_t slot)
{
    int64_t blk = rx_block(q, core, slot);
    for (int64_t b = blk; b < blk + q->packet_blocks; b++)
        bc_invalidate_block(h, core, b, /*discard_dirty=*/0);
    q->counts[LOOP_ZOO_EVICTIONS] += 1;
}

/* The zoo policy's bookkeeping for posting absolute RX slot ``slot``,
 * before its write: a port of OccamyPolicy/RdcaPolicy.rx_write_run.
 * Each keeps a per-core, insertion-ordered dict of posted buffers, and
 * rings post slots in cyclic order, so the dict always holds exactly
 * the core's last W posted slots in post order (the caller checks it).
 * W therefore stands for the whole dict: the slot being posted is
 * already tracked iff W == rx_entries (it is then the oldest entry),
 * and the oldest entry is the slot W posts back. ``resident`` is
 * Occamy's tracked block count over all cores, packet_blocks * sum(W). */
static void zoo_post(BHier *h, BLoop *q, int64_t core, int64_t slot,
                     int64_t *resident)
{
    int64_t *w = q->window + core;
    if (q->zoo == ZOO_OCCAMY) {
        /* A tracked slot moves to the newest end; a new one is added. */
        if (*w < q->rx_entries) {
            *w += 1;
            *resident += q->packet_blocks;
        }
        /* The window is now slots slot-W+1 .. slot. */
        while ((double)*resident > q->zoo_threshold && *w > q->zoo_limit) {
            if (*w == 1)
                break; /* the oldest is the new buffer */
            zoo_evict(h, q, core, slot - *w + 1);
            *w -= 1;
            *resident -= q->packet_blocks;
        }
    } else {
        /* A tracked slot is popped; the window is then slots
         * slot-W .. slot-1. */
        if (*w == q->rx_entries)
            *w -= 1;
        while (*w >= q->zoo_limit) {
            zoo_evict(h, q, core, slot - *w);
            *w -= 1;
        }
        *w += 1;
    }
}

/* bc_run_requests' return when ``ops`` is not exactly ``count``
 * well-formed requests. */
#define RUN_BAD_OPS (-1)

/* Whether the ``n_ops`` ints at ``ops`` decode to exactly ``count``
 * requests: every header fits, no count is negative, and no request's
 * ops run past the buffer. Reads nothing outside the buffer. */
static int ops_well_formed(const int64_t *ops, int64_t n_ops, int64_t count)
{
    /* ints per read, read run, write and write run */
    static const int64_t width[4] = {1, 2, 1, 2};
    int64_t at = 0;
    for (int64_t k = 0; k < count; k++) {
        if (n_ops - at < 5)
            return 0;
        const int64_t *hdr = ops + at;
        at += 5;
        for (int i = 0; i < 4; i++) {
            if (hdr[i] < 0 || hdr[i] > (n_ops - at) / width[i])
                return 0;
            at += hdr[i] * width[i];
        }
    }
    return at == n_ops;
}

/* Service requests start..start+count-1 (core = index % num_cores).
 * ``ops`` holds ``n_ops`` ints, each request's application ops in
 * order: the header (n_reads, n_read_runs, n_writes, n_write_runs,
 * response_blocks), then the read blocks, the (start, n) read runs, the
 * write blocks and the (start, n) write runs. ``depths`` is the
 * per-request backlog target, or NULL for the constant ``depth``.
 * Returns RUN_BAD_OPS, having changed nothing, when ``ops`` does not
 * decode to exactly ``count`` requests. Otherwise returns the number of
 * requests serviced; fewer than ``count`` means the next one found its
 * RX ring empty. Python raises ProtocolError for both. */
int64_t bc_run_requests(BHier *h, BLoop *q, int64_t start, int64_t count,
                        const int64_t *depths, int64_t depth,
                        const int64_t *ops, int64_t n_ops)
{
    if (!ops_well_formed(ops, n_ops, count))
        return RUN_BAD_OPS;
    const int64_t pb = q->packet_blocks;
    int64_t *levels = q->counts + LOOP_LEVELS;
    int64_t resident = 0;
    if (q->zoo != ZOO_NONE)
        for (int64_t c = 0; c < q->num_cores; c++)
            resident += q->window[c] * pb;
    for (int64_t k = 0; k < count; k++) {
        int64_t core = (start + k) % q->num_cores;

        /* RX refill up to the backlog target; the first drop ends it. */
        int64_t target = depths != NULL ? depths[k] : depth;
        int64_t need = (target > 1 ? target : 1)
                       - (q->rx_head[core] - q->rx_tail[core]);
        for (; need > 0; need--) {
            if (q->rx_head[core] - q->rx_tail[core] >= q->rx_entries) {
                q->rx_drops[core] += 1;
                break;
            }
            int64_t slot = q->rx_head[core]++;
            q->rx_posted[core] += 1;
            if (q->zoo != ZOO_NONE)
                zoo_post(h, q, core, slot, &resident);
            int64_t blk = rx_block(q, core, slot);
            if (q->policy == POLICY_DDIO)
                bc_nic_llc_write_run(h, core, blk, pb, KIND_RX);
            else if (q->policy == POLICY_DMA)
                bc_dma_rx_write_run(h, core, blk, pb);
        }

        /* Consume and read the packet. */
        if (q->rx_head[core] - q->rx_tail[core] <= 0)
            return k;
        int64_t slot = q->rx_tail[core]++;
        int64_t rx = rx_block(q, core, slot);
        buffer_access_run(h, q, core, rx, pb, KIND_RX, 0);

        /* Application work. */
        int64_t n_reads = ops[0], n_read_runs = ops[1];
        int64_t n_writes = ops[2], n_write_runs = ops[3];
        int64_t response = ops[4];
        ops += 5;
        for (int64_t i = 0; i < n_reads; i++)
            levels[bc_cpu_access(h, core, *ops++, KIND_APP, 0)] += 1;
        for (int64_t i = 0; i < n_read_runs; i++, ops += 2)
            bc_cpu_access_run(h, core, ops[0], ops[1], KIND_APP, 0, levels);
        for (int64_t i = 0; i < n_writes; i++)
            levels[bc_cpu_access(h, core, *ops++, KIND_APP, 1)] += 1;
        for (int64_t i = 0; i < n_write_runs; i++, ops += 2)
            bc_cpu_access_run(h, core, ops[0], ops[1], KIND_APP, 1, levels);

        if (response > 0) {
            /* Copy the response into the next TX buffer and send it. */
            int64_t tx_slot = q->tx_next[core]++;
            int64_t tx = q->tx_base[core] + (tx_slot % q->tx_entries) * pb;
            buffer_access_run(h, q, core, tx, response, KIND_TX, 1);
            nic_transmit(h, q, core, tx, response, q->tx_sweep);
            if (q->relinquish) {
                q->counts[LOOP_RELINQUISH_CALLS] += 1;
                q->counts[LOOP_CLSWEEPS] += pb;
                q->counts[LOOP_LINES_DROPPED] += bc_sweep_run(h, core, rx, pb);
            }
        } else {
            /* Zero-copy: the RX buffer itself goes to the NIC. */
            nic_transmit(h, q, core, rx, pb, q->zc_sweep);
        }
    }
    return count;
}
