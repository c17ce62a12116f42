// CPU sampler: an LD_PRELOAD shim that samples the program counter of its
// own process on SIGPROF (setitimer ITIMER_PROF, so only CPU time this
// process spends counts, in user and kernel mode, across its threads) and
// writes one line per sampled address when the process exits.
//
// Every sample lands somewhere, libc and the allocator included, which is
// what gprof's flat profile misses: it sees only code built with -pg.
// Addresses are written as (object file, offset) so cpu_sampler.py can
// name them from the object's symbols.
//
// The timer asks for one sample every SAMPLE_INTERVAL_US of CPU time; the
// kernel delivers it on its scheduler tick, so the rate is at most CONFIG_HZ.
// Environment: CPU_SAMPLER_OUT names the output file (default
// cpu_sampler.<pid>.tsv).
// Output lines: samples  object  offset
// plus, for libc entry points that have no symbol of their own once the
// dynamic linker picks an implementation (memcpy and friends):
//   #entry  name  object  offset
//
// Build: gcc -O2 -shared -fPIC -o libcpu_sampler.so sampler.c -ldl
#define _GNU_SOURCE
#include <dlfcn.h>
#include <signal.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1u << 20)   // later samples are counted as lost
#define SAMPLE_INTERVAL_US 1000L  // one sample per millisecond of CPU time

static uintptr_t samples[MAX_SAMPLES];
static atomic_uint taken;
static atomic_ulong lost;

static uintptr_t pc_of(void* uctx) {
  const ucontext_t* uc = (const ucontext_t*)uctx;
#if defined(__x86_64__)
  return (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
  return (uintptr_t)uc->uc_mcontext.pc;
#else
#error "cpu_sampler: unsupported architecture"
#endif
}

static void on_prof(int sig, siginfo_t* info, void* uctx) {
  (void)sig;
  (void)info;
  const unsigned at = atomic_fetch_add_explicit(&taken, 1, memory_order_relaxed);
  if (at < MAX_SAMPLES) {
    samples[at] = pc_of(uctx);
  } else {
    atomic_fetch_add_explicit(&lost, 1, memory_order_relaxed);
  }
}

static void set_timer(long usec) {
  struct itimerval it;
  memset(&it, 0, sizeof it);
  it.it_interval.tv_usec = usec;
  it.it_value.tv_usec = usec;
  (void)setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((constructor)) static void sampler_start(void) {
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, NULL) != 0) return;
  set_timer(SAMPLE_INTERVAL_US);
}

static int by_address(const void* a, const void* b) {
  const uintptr_t x = *(const uintptr_t*)a, y = *(const uintptr_t*)b;
  return (x > y) - (x < y);
}

static void write_where(FILE* out, uintptr_t pc) {
  Dl_info info;
  if (dladdr((void*)pc, &info) && info.dli_fname && info.dli_fname[0]) {
    fprintf(out, "\t%s\t0x%lx\n", info.dli_fname,
            (unsigned long)(pc - (uintptr_t)info.dli_fbase));
  } else {
    fprintf(out, "\t?\t0x%lx\n", (unsigned long)pc);
  }
}

// Where the dynamic linker resolved each of these names (IFUNC variants
// such as __memmove_avx_unaligned_erms are local symbols in a stripped libc).
static const char* const kEntries[] = {"memcpy", "memmove", "memset", "memcmp",
                                       "strlen", "malloc",  "free",   "calloc",
                                       "realloc"};

__attribute__((destructor)) static void sampler_dump(void) {
  set_timer(0);
  signal(SIGPROF, SIG_IGN);
  unsigned n = atomic_load(&taken);
  if (n > MAX_SAMPLES) n = MAX_SAMPLES;
  qsort(samples, n, sizeof samples[0], by_address);
  const char* path = getenv("CPU_SAMPLER_OUT");
  char fallback[64];
  if (!path) {
    snprintf(fallback, sizeof fallback, "cpu_sampler.%d.tsv", (int)getpid());
    path = fallback;
  }
  FILE* out = fopen(path, "w");
  if (!out) return;
  for (unsigned i = 0; i < n;) {
    unsigned j = i;
    while (j < n && samples[j] == samples[i]) ++j;
    fprintf(out, "%u", j - i);
    write_where(out, samples[i]);
    i = j;
  }
  if (atomic_load(&lost) > 0) fprintf(out, "%lu\t?\t0x0\n", atomic_load(&lost));
  for (size_t i = 0; i < sizeof kEntries / sizeof kEntries[0]; ++i) {
    void* at = dlsym(RTLD_DEFAULT, kEntries[i]);
    if (!at) continue;
    fprintf(out, "#entry\t%s", kEntries[i]);
    write_where(out, (uintptr_t)at);
  }
  fclose(out);
}
