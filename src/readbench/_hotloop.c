/* The sync-family read loop (sync, polled, pool) over one worker's offsets,
 * built and loaded by readbench.hotloop.  It times each read around the
 * syscall alone, on CLOCK_MONOTONIC, the clock of Python's perf_counter_ns.
 */
#define _GNU_SOURCE
#include <errno.h>
#include <stdint.h>
#include <sys/types.h>
#include <sys/uio.h>
#include <time.h>

static int64_t now_ns(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (int64_t)ts.tv_sec * 1000000000 + ts.tv_nsec;
}

/* Read off[0..n), block bytes each, read i into buf + i * stride, with one
 * preadv2(flags) at a time, retried on EINTR.  Before each read, stop at
 * deadline or once *stop is nonzero.  Each read submitted at or after
 * warm_end logs its duration in us, rounded to the nearest (halves up), to
 * durations.
 *
 * Returns the reads done.  out[0] gets the number logged; out[1] the end
 * stamp of the last one logged, left as it was if none; out[2] block, or the
 * result of the short or failed read that ended the loop: the bytes it read,
 * or -errno.
 */
long rb_read_loop(int fd, char *buf, long stride, long block,
                  const int64_t *off, long n, int flags, int64_t warm_end,
                  int64_t deadline, const int *stop, int64_t *durations,
                  int64_t *out)
{
    long i, logged = 0;

    out[2] = block;
    for (i = 0; i < n; i++) {
        struct iovec iov = {buf + i * stride, (size_t)block};
        int64_t start = now_ns(), end;
        ssize_t got;

        if (start >= deadline || __atomic_load_n(stop, __ATOMIC_RELAXED))
            break;
        do
            got = preadv2(fd, &iov, 1, off[i], flags);
        while (got < 0 && errno == EINTR);
        if (got < 0)
            got = -errno;
        end = now_ns();
        if (got != block) {
            out[2] = got;
            break;
        }
        if (start >= warm_end) {
            durations[logged++] = (end - start + 500) / 1000;
            out[1] = end;
        }
    }
    out[0] = logged;
    return i;
}
