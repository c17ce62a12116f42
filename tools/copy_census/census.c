// Copy census: an LD_PRELOAD shim that tallies the bytes and calls of every
// memcpy / memmove / memset the program makes through the dynamic linker,
// per call site, and writes the table when the process exits.
//
// A call site is the chain of the kFrames return addresses above the shim, so
// a copy made inside a libstdc++ helper can still be charged to the program
// line that asked for it. Addresses are written as (object file, offset) so
// copy_census.py can resolve them with addr2line.
// Copies the compiler inlines (small fixed sizes) never reach the shim.
//
// Output: the file named by $COPY_CENSUS_OUT (default copy_census.<pid>.tsv),
// one line per site and kind:
//   kind  calls  bytes  object1  offset1  ...  objectN  offsetN
//
// Build: gcc -O2 -shared -fPIC -fno-builtin -fno-tree-loop-distribute-patterns
//            -o libcopy_census.so census.c -ldl
#define _GNU_SOURCE
#include <dlfcn.h>
#include <execinfo.h>
#include <stdatomic.h>
#include <stddef.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <unistd.h>

enum { kMemcpy, kMemmove, kMemset, kKinds };
static const char* const kKindName[kKinds] = {"memcpy", "memmove", "memset"};

#define TABLE_SLOTS 65536u  // power of two; sites beyond it are counted as lost
enum { kFrames = 4 };

struct Site {
  void* callers[kFrames];
  int kind;
  uint64_t calls;
  uint64_t bytes;
};

static struct Site table[TABLE_SLOTS];
static uint64_t lost_calls, lost_bytes;
static atomic_flag table_lock = ATOMIC_FLAG_INIT;
static __thread int in_shim;  // set while the shim itself runs (no recursion)

typedef void* (*copy_fn)(void*, const void*, size_t);
typedef void* (*set_fn)(void*, int, size_t);
static copy_fn real_memcpy, real_memmove;
static set_fn real_memset;

// Fallbacks used only while dlsym is still resolving the real functions.
static void* slow_move(void* dst, const void* src, size_t n) {
  unsigned char* d = dst;
  const unsigned char* s = src;
  if (d < s) {
    for (size_t i = 0; i < n; ++i) d[i] = s[i];
  } else {
    for (size_t i = n; i > 0; --i) d[i - 1] = s[i - 1];
  }
  return dst;
}

static void* slow_set(void* dst, int c, size_t n) {
  unsigned char* d = dst;
  for (size_t i = 0; i < n; ++i) d[i] = (unsigned char)c;
  return dst;
}

static int same_callers(void* const* a, void* const* b) {
  for (int i = 0; i < kFrames; ++i) {
    if (a[i] != b[i]) return 0;
  }
  return 1;
}

__attribute__((noinline)) static void tally(int kind, size_t n) {
  if (in_shim) return;
  in_shim = 1;
  // frames[0] is in tally, frames[1] in the shim entry, then the callers.
  void* frames[kFrames + 2] = {0};
  (void)backtrace(frames, kFrames + 2);
  void* const* callers = frames + 2;
  uint64_t h = (uint64_t)kind;
  for (int i = 0; i < kFrames; ++i) {
    h = (h ^ (uint64_t)(uintptr_t)callers[i]) * 0x9e3779b97f4a7c15ull;
  }
  h ^= h >> 29;
  while (atomic_flag_test_and_set_explicit(&table_lock, memory_order_acquire)) {
  }
  int placed = 0;
  for (unsigned probe = 0; probe < 64; ++probe) {
    struct Site* s = &table[(h + probe) & (TABLE_SLOTS - 1)];
    if (s->calls == 0) {
      for (int i = 0; i < kFrames; ++i) s->callers[i] = callers[i];
      s->kind = kind;
    } else if (s->kind != kind || !same_callers(s->callers, callers)) {
      continue;
    }
    ++s->calls;
    s->bytes += n;
    placed = 1;
    break;
  }
  if (!placed) {
    ++lost_calls;
    lost_bytes += n;
  }
  atomic_flag_clear_explicit(&table_lock, memory_order_release);
  in_shim = 0;
}

void* memcpy(void* dst, const void* src, size_t n) {
  tally(kMemcpy, n);
  return real_memcpy ? real_memcpy(dst, src, n) : slow_move(dst, src, n);
}

void* memmove(void* dst, const void* src, size_t n) {
  tally(kMemmove, n);
  return real_memmove ? real_memmove(dst, src, n) : slow_move(dst, src, n);
}

void* memset(void* dst, int c, size_t n) {
  tally(kMemset, n);
  return real_memset ? real_memset(dst, c, n) : slow_set(dst, c, n);
}

static void write_where(FILE* out, void* addr) {
  Dl_info info;
  if (addr && dladdr(addr, &info) && info.dli_fname && info.dli_fname[0]) {
    // Return addresses point after the call; step back into it.
    fprintf(out, "\t%s\t0x%lx", info.dli_fname,
            (unsigned long)((uintptr_t)addr - (uintptr_t)info.dli_fbase - 1));
  } else {
    fprintf(out, "\t?\t0x0");
  }
}

__attribute__((constructor)) static void census_init(void) {
  in_shim = 1;
  real_memcpy = (copy_fn)dlsym(RTLD_NEXT, "memcpy");
  real_memmove = (copy_fn)dlsym(RTLD_NEXT, "memmove");
  real_memset = (set_fn)dlsym(RTLD_NEXT, "memset");
  void* warm[2];
  (void)backtrace(warm, 2);  // loads the unwinder now, not inside a copy
  in_shim = 0;
}

__attribute__((destructor)) static void census_dump(void) {
  in_shim = 1;
  const char* path = getenv("COPY_CENSUS_OUT");
  char fallback[64];
  if (!path || !path[0]) {
    snprintf(fallback, sizeof fallback, "copy_census.%d.tsv", (int)getpid());
    path = fallback;
  }
  FILE* out = fopen(path, "w");
  if (!out) return;
  for (unsigned i = 0; i < TABLE_SLOTS; ++i) {
    const struct Site* s = &table[i];
    if (s->calls == 0) continue;
    fprintf(out, "%s\t%llu\t%llu", kKindName[s->kind], (unsigned long long)s->calls,
            (unsigned long long)s->bytes);
    for (int f = 0; f < kFrames; ++f) write_where(out, s->callers[f]);
    fputc('\n', out);
  }
  if (lost_calls) {
    fprintf(out, "lost\t%llu\t%llu", (unsigned long long)lost_calls,
            (unsigned long long)lost_bytes);
    for (int f = 0; f < kFrames; ++f) write_where(out, 0);
    fputc('\n', out);
  }
  fclose(out);
}
