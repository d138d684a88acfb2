/*
 * A SIGPROF sampling profiler, loaded into a process with LD_PRELOAD.
 *
 * At load it arms ITIMER_PROF on its own process: every 1/SAMPLE_HZ s
 * of CPU time the process burns (any thread), the kernel sends SIGPROF
 * to the thread that is running. The handler records that thread's id,
 * the interrupted PC and the return addresses on its frame-pointer
 * chain into a buffer mapped at load. At exit it stops the timer and
 * writes, to SAMPLER_OUT.<pid>:
 *
 *   T <tid> <thread name>          once per thread that was sampled
 *   L <start> <end> <bias> <path>  one per loaded executable segment
 *   S <tid> <pc> <ret> <ret> ...   one per sample, innermost first
 *
 * Addresses are hex; <bias> is what the object was loaded at, so
 * `pc - bias` is the address `addr2line -e <path>` takes. The chain is
 * only as good as the frame pointers: build with
 * `-Cforce-frame-pointers=yes`. A frame pointer is followed only upward
 * from the stack pointer, less than 8 MiB above it, 16-byte aligned, and
 * into a page known to be readable (the stack pointer's page, or one a
 * `process_vm_readv` probe has just read), so a stray one ends the chain
 * instead of faulting.
 *
 * x86-64 Linux only. Build: cc -O2 -shared -fPIC -o sampler.so sampler.c
 */
#define _GNU_SOURCE
#include <errno.h>
#include <fcntl.h>
#include <link.h>
#include <signal.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/syscall.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_DEPTH 96
#define SAMPLE_HZ 997 /* prime, so it does not beat with a periodic timer */
#define MAX_THREADS 1024
#define BUF_WORDS (16u << 20) /* 128 MiB of address space, touched as used */

static uint64_t *buf;
static atomic_size_t used;
static atomic_ulong dropped;
static struct {
    atomic_int tid;
    char name[16];
} threads[MAX_THREADS];

static int readable(uintptr_t page) {
    char byte;
    struct iovec local = {&byte, 1}, remote = {(void *)page, 1};
    return syscall(SYS_process_vm_readv, getpid(), &local, 1, &remote, 1, 0) == 1;
}

static void note_thread(int tid) {
    for (unsigned i = 0, h = (unsigned)tid % MAX_THREADS; i < MAX_THREADS; i++) {
        unsigned slot = (h + i) % MAX_THREADS;
        int seen = atomic_load(&threads[slot].tid);
        if (seen == tid) return;
        if (seen == 0) {
            int expected = 0;
            if (atomic_compare_exchange_strong(&threads[slot].tid, &expected, tid)) {
                prctl(PR_GET_NAME, threads[slot].name);
                return;
            }
            if (expected == tid) return;
        }
    }
}

static void on_prof(int sig, siginfo_t *info, void *uctx) {
    (void)sig;
    (void)info;
    int saved = errno;
    const mcontext_t *mc = &((ucontext_t *)uctx)->uc_mcontext;
    uint64_t frame[2 + MAX_DEPTH];
    size_t n = 0;
    int tid = (int)syscall(SYS_gettid);
    frame[n++] = (uint64_t)tid;
    frame[n++] = (uint64_t)mc->gregs[REG_RIP];
    uintptr_t sp = (uintptr_t)mc->gregs[REG_RSP];
    uintptr_t fp = (uintptr_t)mc->gregs[REG_RBP];
    uintptr_t sp_page = sp & ~(uintptr_t)4095, ok_page = sp_page;
    while (n < 2 + MAX_DEPTH && fp > sp && fp - sp < (8u << 20) && fp % 16 == 0) {
        uintptr_t page = fp & ~(uintptr_t)4095;
        if (page != sp_page && page != ok_page) {
            if (!readable(page)) break;
            ok_page = page;
        }
        uintptr_t next = ((uintptr_t *)fp)[0], ret = ((uintptr_t *)fp)[1];
        if (ret == 0) break;
        frame[n++] = ret;
        if (next <= fp) break;
        fp = next;
    }
    note_thread(tid);
    size_t at = atomic_fetch_add(&used, n + 1);
    if (at + n + 1 <= BUF_WORDS) {
        buf[at] = n;
        memcpy(&buf[at + 1], frame, n * sizeof(uint64_t));
    } else {
        atomic_fetch_add(&dropped, 1);
    }
    errno = saved;
}

static FILE *out;

static int write_segments(struct dl_phdr_info *info, size_t size, void *data) {
    (void)size;
    (void)data;
    const char *path = info->dlpi_name;
    char exe[4096];
    if (path == NULL || path[0] == '\0') {
        ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
        if (len <= 0) return 0;
        exe[len] = '\0';
        path = exe;
    }
    for (int i = 0; i < info->dlpi_phnum; i++) {
        const ElfW(Phdr) *ph = &info->dlpi_phdr[i];
        if (ph->p_type == PT_LOAD && (ph->p_flags & PF_X)) {
            uintptr_t start = info->dlpi_addr + ph->p_vaddr;
            fprintf(out, "L %lx %lx %lx %s\n", (unsigned long)start,
                    (unsigned long)(start + ph->p_memsz), (unsigned long)info->dlpi_addr, path);
        }
    }
    return 0;
}

__attribute__((constructor)) static void sampler_start(void) {
    const char *prefix = getenv("SAMPLER_OUT");
    if (prefix == NULL) return;
    buf = mmap(NULL, BUF_WORDS * sizeof(uint64_t), PROT_READ | PROT_WRITE,
               MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (buf == MAP_FAILED) {
        buf = NULL;
        return;
    }
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{0, 1000000 / SAMPLE_HZ}, {0, 1000000 / SAMPLE_HZ}};
    setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((destructor)) static void sampler_stop(void) {
    if (buf == NULL) return;
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    signal(SIGPROF, SIG_IGN);
    char path[4096];
    snprintf(path, sizeof path, "%s.%d", getenv("SAMPLER_OUT"), (int)getpid());
    out = fopen(path, "w");
    if (out == NULL) return;
    for (unsigned i = 0; i < MAX_THREADS; i++) {
        int tid = atomic_load(&threads[i].tid);
        if (tid != 0) fprintf(out, "T %d %s\n", tid, threads[i].name);
    }
    dl_iterate_phdr(write_segments, NULL);
    size_t end = atomic_load(&used);
    if (end > BUF_WORDS) end = BUF_WORDS;
    for (size_t at = 0; at < end;) {
        size_t n = buf[at];
        if (n < 2 || at + 1 + n > end) break;
        fprintf(out, "S %lu", (unsigned long)buf[at + 1]);
        for (size_t k = 2; k <= n; k++) fprintf(out, " %lx", (unsigned long)buf[at + k]);
        fputc('\n', out);
        at += n + 1;
    }
    if (atomic_load(&dropped) != 0) fprintf(out, "D %lu\n", atomic_load(&dropped));
    fclose(out);
}
