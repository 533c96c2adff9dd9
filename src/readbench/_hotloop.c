/* The compiled loops of readbench, built and loaded by readbench.hotloop:
 * rb_async_loop for every engine on a real file, over a kernel queue (aio,
 * uring) or a depth-1 sync queue (sync, polled, pool), and rb_sim_loop for
 * every engine on a simulated device.  rb_async_loop times a read from the
 * top of the pass that submits it to the reap that takes it, on
 * CLOCK_MONOTONIC, the clock of Python's perf_counter_ns, logs a duration
 * in us rounded to the nearest (halves up), and checks a verified read
 * against the fill pattern, hashing each page from the fill seed.  The
 * simulated loop replays readbench.engines._simulate and the scheduler of
 * readbench.devicesim in virtual time, bit for bit, on the device draws,
 * splitmix64, that it computes itself, its heavy-tail jitter u^9 in x87
 * extended precision, with pow only where that cannot be sure of pow's
 * bits (heavy_tail).  Both draw their offsets with next_offset.
 */
#define _GNU_SOURCE
#include <errno.h>
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <sys/syscall.h>
#include <sys/types.h>
#include <sys/uio.h>
#include <time.h>
#include <unistd.h>

#ifndef SYS_io_uring_enter
#define SYS_io_uring_enter 426
#endif

#define NS 1000000000
#define ENTER_GETEVENTS 1u
#define ENTER_SQ_WAKEUP 2u
#define ENTER_EXT_ARG 8u
#define SQ_NEED_WAKEUP 1u

static int64_t now_ns(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (int64_t)ts.tv_sec * NS + ts.tv_nsec;
}

/* readbench.rng.mix64, the splitmix64 finalizer */
static uint64_t mix64(uint64_t x)
{
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9u;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBu;
    return x ^ (x >> 31);
}

/* The first of the pages of the block read at off whose words, less ramp,
 * are not all that page's hash, mix64(seed ^ (off + 4096 * p)) for page p
 * (readbench.fill.page_hashes), page_words words a page: its index, or -1.
 * Not inlined, and aligned to a cache line, so that where its page loop
 * falls depends on it alone: inlined into rb_async_loop, that loop crossed
 * a 32-byte boundary, and verified reads were ~4% slower (2-core x86-64).
 */
__attribute__((noinline, aligned(64)))
static long bad_page(const uint64_t *words, uint64_t seed, int64_t off,
                     long pages, long page_words, const uint64_t *ramp)
{
    long p, j;

    for (p = 0; p < pages; p++, words += page_words) {
        uint64_t h = mix64(seed ^ (uint64_t)(off + 4096 * p)), diff = 0;

        for (j = 0; j < page_words; j++)
            diff |= (words[j] - ramp[j]) ^ h;
        if (diff)
            return p;
    }
    return -1;
}

#define GOLDEN 0x9E3779B97F4A7C15u

/* A run's offset streams: the nlist offsets at list, if any, else the
 * nblocks blocks of block bytes of the target, at random or in sequence. */
struct rb_streams {
    const int64_t *list;
    int64_t nlist, nblocks, random, block;
};

/* The next offset of a stream whose state is *state, as
 * engines._offset_chunks draws it: the next of the list, cycled; else the
 * block of the next splitmix64 word of its seed, mix64(seed + k * GOLDEN)
 * for the k-th from 1, modulo nblocks; else the next block from its share
 * of the target, wrapping at its end. */
static int64_t next_offset(const struct rb_streams *d, uint64_t *state)
{
    uint64_t k = *state;

    if (d->nlist) {
        *state = k + 1 == (uint64_t)d->nlist ? 0 : k + 1;
        return d->list[k];
    }
    if (d->random) {
        *state = k += GOLDEN;
        return (int64_t)(mix64(k) % (uint64_t)d->nblocks) * d->block;
    }
    *state = k + 1 == (uint64_t)d->nblocks ? 0 : k + 1;
    return (int64_t)k * d->block;
}

/* What ended a call of rb_async_loop; and the fault that failed it, with
 * the numbers of readbench.hotloop and readbench.errors.async_error. */
enum { RB_DONE, RB_MORE, RB_STOPPED, RB_FAILED };
enum { RB_UNKNOWN_SLOT = 1, RB_BAD_RESULT, RB_RING_OVERFLOW, RB_STALLED,
       RB_SHORT_SUBMIT, RB_CALL_FAILED, RB_BAD_DATA };

struct cqe {
    uint64_t user_data;
    int32_t res;
    uint32_t flags;
};

enum { RB_AIO, RB_URING, RB_SYNC }; /* a queue's kind */

/* A kernel AIO context or an io_uring, with one request block per slot,
 * written once by readbench.aio_native or readbench.uring_native but for
 * its offset, which lies at off + slot * stride; or a sync queue, whose
 * submit reads each slot there and then with preadv2(flags), and whose off
 * is a word that the offsets written go to. */
struct rb_queue {
    int64_t kind, handle; /* handle: the AIO context, the ring's or file's fd */
    int64_t depth, block, kernel_poll, flags;
    char *off;
    int64_t stride;
    uint64_t *iocbs, *ptrs; /* AIO: iocb addresses, io_submit's array */
    int64_t *events; /* AIO, sync: the completions, (slot, -, res, -) each */
    uint32_t *sq_tail, *sq_flags, *sq_array;
    uint32_t *cq_head, *cq_tail, *cq_overflow;
    struct cqe *cqes;
    int64_t sq_mask, cq_mask;
};

/* One worker's loop, kept by Python across calls. */
struct rb_async {
    int64_t *slot_ns, *slot_off, *busy; /* per slot: submit, offset, busy */
    int64_t *refill;    /* the slots to submit next, nrefill of them */
    int64_t nrefill;
    int64_t left;       /* reads the budget still allows */
    int64_t batch, inflight, max_inflight;
    int64_t last_done;  /* the reap stamp of the last read logged */
    int64_t stalled;    /* a wait ran out its timeout */
    int64_t fault, fault_a, fault_b;
    /* slot i's block at rows + i * block, where a sync queue reads it;
     * with pages, its pages are checked against the fill of seed */
    uint64_t *rows;
    uint64_t seed;
    int64_t pages;
    /* room for nlog durations, then for nlog offsets: the logged durations
     * of this call, then the offsets of the checked reads it checked */
    int64_t *log;
    int64_t nlog, logged, checked;
    struct rb_streams streams;
    uint64_t stream;    /* the worker's stream state (next_offset) */
};

static int fail(struct rb_async *s, int64_t fault, int64_t a, int64_t b)
{
    s->fault = fault;
    s->fault_a = a;
    s->fault_b = b;
    return RB_FAILED;
}

/* io_uring_enter, retried on EINTR, with a timeout if timeout_ns >= 0;
 * returns its result, or -errno. */
static long ring_enter(const struct rb_queue *q, long submit, long min_nr,
                       unsigned flags, int64_t timeout_ns)
{
    struct { int64_t sec, nsec; } ts = {timeout_ns / NS, timeout_ns % NS};
    struct {
        uint64_t sigmask;
        uint32_t sigmask_sz, pad;
        uint64_t ts;
    } arg = {0, 0, 0, (uintptr_t)&ts};
    int timed = timeout_ns >= 0;
    long r;

    do
        r = syscall(SYS_io_uring_enter, (int)q->handle, (unsigned)submit,
                    (unsigned)min_nr, flags | (timed ? ENTER_EXT_ARG : 0),
                    timed ? &arg : NULL, timed ? sizeof arg : 0);
    while (r < 0 && errno == EINTR);
    return r < 0 ? -errno : r;
}

/* Submit the reads of s->refill[0..k), their offsets written; returns how
 * many the kernel took, or -errno.  A sync queue reads each into its row of
 * s->rows, retried on EINTR, and keeps its result in events for reap. */
static long submit(const struct rb_queue *q, const struct rb_async *s,
                   long k)
{
    const int64_t *slots = s->refill;
    uint32_t tail;
    long i, r;

    if (q->kind == RB_SYNC) {
        for (i = 0; i < k; i++) {
            struct iovec iov = {(char *)s->rows + slots[i] * q->block,
                                (size_t)q->block};

            do
                r = preadv2((int)q->handle, &iov, 1, s->slot_off[slots[i]],
                            (int)q->flags);
            while (r < 0 && errno == EINTR);
            q->events[4 * i] = slots[i];
            q->events[4 * i + 2] = r < 0 ? -errno : r;
        }
        return k;
    }
    if (q->kind == RB_AIO) {
        for (i = 0; i < k; i++)
            q->ptrs[i] = q->iocbs[slots[i]];
        r = syscall(SYS_io_submit, (unsigned long)q->handle, k, q->ptrs);
        return r < 0 ? -errno : r;
    }
    tail = *q->sq_tail; /* only this thread writes it */
    for (i = 0; i < k; i++)
        q->sq_array[(tail + i) & q->sq_mask] = (uint32_t)slots[i];
    __atomic_store_n(q->sq_tail, tail + (uint32_t)k, __ATOMIC_RELEASE);
    if (!q->kernel_poll)
        return ring_enter(q, k, 0, 0, -1);
    /* the tail before the flags, as liburing orders them */
    __atomic_thread_fence(__ATOMIC_SEQ_CST);
    if (__atomic_load_n(q->sq_flags, __ATOMIC_RELAXED) & SQ_NEED_WAKEUP) {
        r = ring_enter(q, 0, 0, ENTER_SQ_WAKEUP, -1);
        if (r < 0)
            return r;
    }
    return k;
}

/* Take a completion: its slot must be in range and in flight, else it
 * fails.  The first result that is not a whole block is kept in *bad and
 * *bad_res. */
static int take(const struct rb_queue *q, struct rb_async *s, int64_t slot,
                int64_t res, int64_t *bad, int64_t *bad_res)
{
    if (slot < 0 || slot >= q->depth || !s->busy[slot])
        return fail(s, RB_UNKNOWN_SLOT, slot, q->depth);
    s->busy[slot] = 0;
    s->inflight--;
    s->refill[s->nrefill++] = slot;
    if (res != q->block && *bad < 0) {
        *bad = slot;
        *bad_res = res;
    }
    return 0;
}

/* Wait up to timeout_ns for min_nr completions, then take every one
 * posted; returns how many, or -1 with the fault recorded.  Every read a
 * sync queue has in flight is done. */
static long reap(const struct rb_queue *q, struct rb_async *s, long min_nr,
                 int64_t timeout_ns, int64_t *bad, int64_t *bad_res)
{
    uint32_t head, tail;
    long i, r;

    if (q->kind != RB_URING) {
        struct timespec ts = {timeout_ns / NS, timeout_ns % NS};

        if (q->kind == RB_SYNC)
            r = s->inflight;
        else
            do
                r = syscall(SYS_io_getevents, (unsigned long)q->handle,
                            min_nr, (long)q->depth, q->events, &ts);
            while (r < 0 && errno == EINTR);
        if (r < 0) {
            fail(s, RB_CALL_FAILED, errno, 0);
            return -1;
        }
        for (i = 0; i < r; i++)
            if (take(q, s, q->events[4 * i], q->events[4 * i + 2], bad,
                     bad_res))
                return -1;
        return r;
    }
    head = *q->cq_head; /* only this thread writes it */
    tail = __atomic_load_n(q->cq_tail, __ATOMIC_ACQUIRE);
    if (tail - head < (uint32_t)min_nr) {
        /* min_nr counts every completion not yet taken, these included */
        r = ring_enter(q, 0, min_nr, ENTER_GETEVENTS, timeout_ns);
        if (r < 0 && r != -ETIME) {
            fail(s, RB_CALL_FAILED, -r, 0);
            return -1;
        }
        tail = __atomic_load_n(q->cq_tail, __ATOMIC_ACQUIRE);
    }
    r = __atomic_load_n(q->cq_overflow, __ATOMIC_RELAXED);
    if (r) { /* those reads would never be reaped */
        fail(s, RB_RING_OVERFLOW, r, 0);
        return -1;
    }
    for (r = 0; head != tail; head++, r++) {
        const struct cqe *c = &q->cqes[head & q->cq_mask];

        if (take(q, s, (int32_t)c->user_data, c->res, bad, bad_res))
            return -1;
    }
    __atomic_store_n(q->cq_head, head, __ATOMIC_RELEASE);
    return r;
}

/* Keep the queue's slots reading the worker's stream: refill the slots
 * harvested, at most s->left more, none once deadline has passed or *stop
 * is nonzero; wait for min(batch, in flight) completions, each wait ending
 * after timeout_ns, and the run after stall_ns without one; check every
 * completion; log the duration of each read submitted at or after
 * warm_end, from its submit stamp to the stamp after its harvest.  With
 * s->pages, each slot of a harvest is checked (bad_page) before it is
 * refilled, its offset then kept after the durations.
 *
 * Returns RB_MORE at the top of the loop while the log has less room than
 * depth durations or depth offsets (Python passes them on and calls again),
 * RB_DONE once nothing is in flight, RB_STOPPED when a wait came back
 * empty with *stop set, or RB_FAILED with the fault in s.  This call
 * logged s->logged durations and kept s->checked offsets.  A slot reaped
 * in a harvest that failed is not in flight.
 *
 * Aligned to a cache line, as bad_page is, so that where its loops fall
 * does not move with the code the compiler places before it.
 */
__attribute__((aligned(64)))
int rb_async_loop(const struct rb_queue *q, struct rb_async *s,
                  int64_t warm_end, int64_t deadline, const int *stop,
                  int64_t timeout_ns, int64_t stall_ns, const uint64_t *ramp)
{
    const long words = q->block / 8;

    s->logged = s->checked = 0;
    for (;;) {
        int64_t now = now_ns(), since, bad = -1, bad_res = 0, want, got;
        long i, k = s->nrefill < s->left ? s->nrefill : s->left, r;

        if (s->nlog - s->logged < q->depth || s->nlog - s->checked < q->depth)
            return RB_MORE;
        if (k && (now >= deadline || __atomic_load_n(stop, __ATOMIC_RELAXED)))
            k = 0;
        for (i = 0; i < k; i++) {
            int64_t slot = s->refill[i];
            int64_t o = next_offset(&s->streams, &s->stream);

            *(int64_t *)(q->off + slot * q->stride) = o;
            s->slot_off[slot] = o;
            s->slot_ns[slot] = now;
            s->busy[slot] = 1;
        }
        if (k) {
            r = submit(q, s, k);
            if (r > 0)
                s->inflight += r;
            if (r != k)
                return q->kind == RB_URING && r < 0
                       ? fail(s, RB_CALL_FAILED, -r, 0)
                       : fail(s, RB_SHORT_SUBMIT, r, k);
            s->left -= k;
            if (s->inflight > s->max_inflight)
                s->max_inflight = s->inflight;
        }
        s->nrefill = 0; /* slots not refilled now never will be */
        if (!s->inflight)
            return RB_DONE;

        want = s->inflight < s->batch ? s->inflight : s->batch;
        since = now;
        for (got = 0; got < want;) {
            r = reap(q, s, want - got, timeout_ns, &bad, &bad_res);
            if (r < 0)
                return RB_FAILED;
            now = now_ns();
            if (r) {
                got += r;
                since = now;
                continue;
            }
            if (__atomic_load_n(stop, __ATOMIC_RELAXED))
                return RB_STOPPED;
            s->stalled = 1;
            if (now - since >= stall_ns)
                return fail(s, RB_STALLED, now - since, 0);
        }
        if (bad >= 0)
            return fail(s, RB_BAD_RESULT, s->slot_off[bad], bad_res);
        k = s->logged;
        for (i = 0; i < s->nrefill; i++) {
            int64_t start = s->slot_ns[s->refill[i]];

            if (start >= warm_end)
                s->log[s->logged++] = (now - start + 500) / 1000;
        }
        if (s->logged > k)
            s->last_done = now;
        for (i = 0; s->pages && i < s->nrefill; i++) {
            int64_t slot = s->refill[i];

            if (bad_page(s->rows + slot * words, s->seed, s->slot_off[slot],
                         s->pages, words / s->pages, ramp) >= 0)
                return fail(s, RB_BAD_DATA, slot, 0);
            s->log[s->nlog + s->checked++] = s->slot_off[slot];
        }
    }
}

/* The fault of a refused simulated submit: devicesim.submit's ValueError
 * for a request outside the device, or its Backpressure. */
enum { RB_OUTSIDE = 8, RB_BACKPRESSURE };

/* The simulator's code goes to a section of its own, which the linker puts
 * after the rest, so that rb_async_loop does not move when that code grows
 * or shrinks: when the simulator's FIFO ring moved it by 0x500 bytes,
 * verified file reads were ~2% slower (2-core x86-64). */
#define SIM_TEXT __attribute__((section(".text.sim")))

struct rb_req { /* a queued request */
    int64_t off, tag;
    double submitted;
};

struct rb_event { /* a request in service, in (completion, seq) order */
    double completion;
    int64_t seq, tag;
    double submitted;
};

/* One run of readbench.engines._simulate, kept by Python across calls: the
 * model's terms as devicesim._fill_slots derives them, the state of a
 * devicesim.SimState, and the workers' state. */
struct rb_sim {
    double base, per_byte, two_scale, cap, power, spike_p, spike_us;
    double seek_min, seek_span, rotation, outer, rate_span;
    double bandwidth, degraded_until, degraded_factor;
    double warmup, window_end; /* logged iff warmup <= submit < window_end */
    double clock, channel_free, last_completion;
    int64_t hdd, jitter, uniform, parallelism, capacity;
    int64_t threads, depth, batch, budget, pending_bound;
    int64_t head, last_end, active, seq, outstanding;
    struct rb_req *pending; /* queued: (first + i) & mask, i < npending */
    int64_t mask, first, npending;
    /* the active requests in service, the first to complete at
     * events[served & mask]: under a bandwidth limit a ring, (served + i) &
     * mask, i < active, served counting those that left it; else a binary
     * heap, served 0 */
    struct rb_event *events;
    int64_t served;
    /* per worker: reads its budget allows, in flight, most in flight, ready
     * to harvest, and to refill at the top of the loop */
    int64_t *left, *out, *most, *ready, *owed;
    struct rb_streams streams;
    uint64_t *stream;       /* per worker, its stream's state (next_offset) */
    uint64_t draw;          /* the draw stream's state (next_draw) */
    int64_t *log;           /* room for nlog durations, then, if verified,
                             * for nlog offsets, kept in submit order */
    int64_t nlog, logged, verified, kept;
    int64_t fault;
};

/* The device's next draw, rng.uniform_floats(rng_seed): the k-th, from 1,
 * is mix64(rng_seed + k * GOLDEN) / 2^64.  The word is rounded to a double
 * once, to nearest, as numpy converts it: its halves convert exactly, and
 * their sum rounds once, where a plain cast branches on the top bit.  The
 * division is exact. */
SIM_TEXT static double next_draw(struct rb_sim *s)
{
    uint64_t x = mix64(s->draw += GOLDEN);

    return ((double)(x >> 32) * 4294967296.0 + (double)(uint32_t)x)
           / 18446744073709551616.0;
}

/* Python's u ** power, as devicesim's heavy-tail jitter takes it, bit for
 * bit, in about half the time of pow: with x87's 64-bit long double, at the
 * power 9 of every preset, y = ((u^2)^2)^2 * u is rounded once to r, which
 * is returned where r's significand is not all zero and |y - r| <= 0.45 of
 * the gap d from r to the next double up; everywhere else (~10% of draws,
 * u <= 0, r a power of two, y near a midpoint, another power or machine)
 * pow is called.  Why r is then what pow returns:
 *  - u > 0 is a draw, k / 2^64, so u >= 2^-64 and u^9 >= 2^-576 is a normal
 *    double; no long double product under- or overflows;
 *  - each of the four products rounds to 64 bits, so y is u^9 within a
 *    relative 8 * 2^-64 = 2^-61, and d > 2^-53 * u^9 (u^9, as y, lies in
 *    r's binade, r being no power of two), so y is u^9 within 2^-8 d;
 *  - y - r is exact in long double (y and r lie within a factor of 2);
 *  - so u^9 lies within 0.45 d + 2^-8 d < 0.454 d of r, d is the gap on
 *    either side of r, and every other double is over 0.546 d from u^9;
 *  - the pow of glibc (since 2.28) and of musl, the same code, errs by at
 *    most 0.511 ULP (its exp) + |9 log u| * 1.5 * 2^-68 * 2^53 (its log),
 *    by its source's own bound: under 0.53 ULP, as |9 log u| <= 400 here
 *    (0.54 at its largest argument), so it must return r.
 * Only on Linux, whose pow that is, and whose x87 rounds to 64 bits.  The
 * loop calls it directly; rb_heavy_tail exports it for tests. */
SIM_TEXT static double heavy_tail(double u, double power)
{
#if LDBL_MANT_DIG == 64 && defined(__linux__)
    if (power == 9.0 && u > 0) {
        long double u2 = (long double)u * u, u4 = u2 * u2, y = u4 * u4 * u;
        union { double d; uint64_t bits; } r = {(double)y}, up;

        up.bits = r.bits + 1;
        if (r.bits << 12 && fabsl(y - r.d) <= 0.45L * (up.d - r.d))
            return r.d;
    }
#endif
    return pow(u, power);
}

/* heavy_tail(u[i], power) into out[i], i < n */
SIM_TEXT void rb_heavy_tail(const double *u, double *out, int64_t n,
                            double power)
{
    int64_t i;

    for (i = 0; i < n; i++)
        out[i] = heavy_tail(u[i], power);
}

#define PENDING(s, i) ((s)->pending[((s)->first + (i)) & (s)->mask])

#define NEXT(s) ((s)->events[(s)->served & (s)->mask])

/* fill_with and advance_with, push and pop within them, are each inlined
 * twice, ring set and not; fill and advance run one as the model has a
 * bandwidth limit or not, a choice made once a call, not once an event. */
#define TWICE __attribute__((always_inline)) inline

SIM_TEXT static int before(const struct rb_event *a, const struct rb_event *b)
{
    return a->completion < b->completion
           || (a->completion == b->completion && a->seq < b->seq);
}

/* Put e in service.  With ring, e goes last, since it sorts after every
 * request in service: fill makes its completion no earlier than
 * channel_free, the latest of theirs (rounding is monotone), and its seq
 * the largest.  Else it goes into the heap, as heapq.heappush puts it. */
static TWICE void push(struct rb_sim *s, struct rb_event e, int ring)
{
    int64_t i = s->active++;

    if (ring) {
        s->events[(s->served + i) & s->mask] = e;
        return;
    }
    for (; i && before(&e, &s->events[(i - 1) / 2]); i = (i - 1) / 2)
        s->events[i] = s->events[(i - 1) / 2];
    s->events[i] = e;
}

/* Take the first request in service to complete, NEXT(s), out of it. */
static TWICE struct rb_event pop(struct rb_sim *s, int ring)
{
    struct rb_event top, last;
    int64_t i = 0, c;

    if (ring) {
        s->active--;
        return s->events[s->served++ & s->mask];
    }
    top = s->events[0];
    last = s->events[--s->active];
    for (; (c = 2 * i + 1) < s->active; i = c) {
        if (c + 1 < s->active && before(&s->events[c + 1], &s->events[c]))
            c++;
        if (!before(&s->events[c], &last))
            break;
        s->events[i] = s->events[c];
    }
    s->events[i] = last;
    return top;
}

/* devicesim._fill_slots: start pending requests while slots are free, each
 * operation in the order Python makes it. */
static TWICE void fill_with(struct rb_sim *s, int ring)
{
    const double length = (double)s->streams.block;

    while (s->active < s->parallelism && s->npending) {
        struct rb_req r;
        struct rb_event e;
        double total, start;
        int64_t i, best = 0;

        if (s->hdd) { /* shortest seek first, the first of equal seeks */
            for (i = 1; i < s->npending; i++)
                if (llabs(PENDING(s, i).off - s->head)
                    < llabs(PENDING(s, best).off - s->head))
                    best = i;
            r = PENDING(s, best);
            for (i = best; i > 0; i--)
                PENDING(s, i) = PENDING(s, i - 1);
            if (r.off == s->last_end) {
                total = 0.0;
            } else {
                total = s->seek_min + s->seek_span
                        * ((double)llabs(r.off - s->head) / (double)s->capacity);
                total += s->rotation * next_draw(s);
            }
            total += length / (s->outer + s->rate_span
                               * ((double)r.off / (double)s->capacity)) * 1e6;
            s->head = s->last_end = r.off + s->streams.block;
        } else {
            r = PENDING(s, 0);
            total = s->base + length * s->per_byte;
            if (s->jitter) {
                /* heavy_tail, not pow for every draw: pow is about half
                 * the time of a request under a bandwidth limit (~20 of
                 * ~39 ns, nvme-ssd, uring q64 b8, 2-core x86-64) */
                double u = next_draw(s);

                total += s->uniform ? s->two_scale * u
                                    : s->cap * heavy_tail(u, s->power);
            }
            if (s->spike_p > 0 && next_draw(s) < s->spike_p)
                total += s->spike_us;
        }
        s->first++;
        s->npending--;
        start = s->clock > r.submitted ? s->clock : r.submitted;
        if (start < s->degraded_until)
            total *= s->degraded_factor;
        e.completion = start + total;
        if (s->bandwidth > 0) { /* the transfer serializes on the channel */
            double tb = length / s->bandwidth * 1e6;
            double from = e.completion - tb;

            if (s->channel_free > from)
                from = s->channel_free;
            e.completion = s->channel_free = from + tb;
        }
        e.seq = ++s->seq;
        e.tag = r.tag;
        e.submitted = r.submitted;
        push(s, e, ring);
    }
}

SIM_TEXT static void fill(struct rb_sim *s)
{
    if (s->bandwidth > 0)
        fill_with(s, 1);
    else
        fill_with(s, 0);
}

/* devicesim.submit, at the clock; nonzero, with the fault in s, where it
 * raises. */
SIM_TEXT static int sim_submit(struct rb_sim *s, int64_t off, int64_t tag)
{
    int64_t free = s->parallelism - s->active;

    if (off < 0 || off > s->capacity - s->streams.block) {
        s->fault = RB_OUTSIDE;
        return 1;
    }
    if (s->npending - free >= s->pending_bound) {
        s->fault = RB_BACKPRESSURE;
        return 1;
    }
    PENDING(s, s->npending++) = (struct rb_req){off, tag, s->clock};
    if (free > 0 && s->hdd)
        fill(s);
    return 0;
}

/* devicesim.advance with a ready count per worker: fill, then pop every
 * completion of the next event time, logging those submitted in the
 * window, until a worker has batch ready or nothing is in flight. */
static TWICE void advance_with(struct rb_sim *s, int ring)
{
    int full = 0;

    while (!full) {
        double t;

        if (s->npending && s->active < s->parallelism)
            fill(s);
        if (!s->active)
            break;
        t = NEXT(s).completion;
        while (s->active && NEXT(s).completion == t) {
            struct rb_event e = pop(s, ring);

            if (++s->ready[e.tag] >= s->batch)
                full = 1;
            if (s->warmup <= e.submitted && e.submitted < s->window_end) {
                /* Python's round: halves to even, as nearbyint rounds */
                s->log[s->logged++] = (int64_t)nearbyint(t - e.submitted);
                s->last_completion = t;
            }
        }
        if (t > s->clock)
            s->clock = t;
        if (s->npending && s->hdd)
            fill(s);
    }
}

SIM_TEXT static void advance(struct rb_sim *s)
{
    if (s->bandwidth > 0)
        advance_with(s, 1);
    else
        advance_with(s, 0);
}

/* engines._simulate's loop, from its top: refill what each worker owes (at
 * the start, depth) from its offset stream, from its budget and only
 * before window_end; advance; then harvest each worker with batch ready,
 * or with any ready once it will submit no more.  Returns RB_DONE once
 * nothing is in flight; RB_MORE at the top of the loop while the log has
 * less room than threads * depth durations or, verified, offsets (Python
 * passes them on and calls again); RB_FAILED, the fault in s, where
 * devicesim.submit raises. */
SIM_TEXT int rb_sim_loop(struct rb_sim *s)
{
    const int64_t most = s->threads * s->depth;
    int64_t w, i, n;

    s->logged = s->kept = 0;
    for (;;) {
        if (s->nlog - s->logged < most
            || (s->verified && s->nlog - s->kept < most))
            return RB_MORE;
        for (w = 0; w < s->threads; w++) {
            n = s->owed[w];
            s->owed[w] = 0;
            if (s->budget) {
                n = n < s->left[w] ? n : s->left[w];
                s->left[w] -= n;
            } else if (s->clock >= s->window_end) {
                n = 0;
            }
            for (i = 0; i < n; i++) {
                int64_t off = next_offset(&s->streams, &s->stream[w]);

                if (sim_submit(s, off, w))
                    return RB_FAILED;
                if (s->verified)
                    s->log[s->nlog + s->kept++] = off;
            }
            s->out[w] += n;
            s->outstanding += n;
            if (s->out[w] > s->most[w])
                s->most[w] = s->out[w];
        }
        if (!s->outstanding)
            return RB_DONE;
        advance(s);
        for (w = 0; w < s->threads; w++) {
            n = s->ready[w];
            if (n && (n >= s->batch || (s->budget ? !s->left[w]
                                        : s->clock >= s->window_end))) {
                s->ready[w] = 0;
                s->out[w] -= n;
                s->outstanding -= n;
                s->owed[w] = n;
            }
        }
    }
}
