// A SIGPROF sampler to LD_PRELOAD into a program: 250 samples a second of
// the process's CPU time, each the interrupted thread's call stack. At
// exit it writes one line per sample to profile.stacks in the working
// directory: the frames, innermost first, as addresses relative to
// the executable's load base, ready for `addr2line -e <executable>`;
// a frame outside the executable reads "-". scripts/profile.sh builds,
// runs and resolves it.
//
//   gcc -O2 -shared -fPIC -o shim.so shim.c
#define _GNU_SOURCE
#include <execinfo.h>
#include <link.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>

#define MAX_SAMPLES 200000
#define MAX_DEPTH 48
#define MAX_SEGMENTS 16

static void *stacks[MAX_SAMPLES][MAX_DEPTH];
static int depth[MAX_SAMPLES];
static volatile int taken;

static void on_prof(int sig) {
  (void)sig;
  int i = __sync_fetch_and_add(&taken, 1);
  if (i < MAX_SAMPLES) depth[i] = backtrace(stacks[i], MAX_DEPTH);
}

__attribute__((constructor)) static void start(void) {
  void *warm[4];
  backtrace(warm, 4);  // load the unwinder outside the handler
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_handler = on_prof;
  sa.sa_flags = SA_RESTART;
  sigaction(SIGPROF, &sa, NULL);
  struct itimerval it = {{0, 4000}, {0, 4000}};  // 250 Hz of CPU time
  setitimer(ITIMER_PROF, &it, NULL);
}

// The executable's load bias and the address ranges of its loaded
// segments: the first object `dl_iterate_phdr` reports.
static uintptr_t bias;
static uintptr_t seg_lo[MAX_SEGMENTS], seg_hi[MAX_SEGMENTS];
static int segments;

static int find_executable(struct dl_phdr_info *info, size_t size, void *data) {
  (void)size;
  (void)data;
  bias = info->dlpi_addr;
  for (int i = 0; i < info->dlpi_phnum && segments < MAX_SEGMENTS; i++) {
    const ElfW(Phdr) *ph = &info->dlpi_phdr[i];
    if (ph->p_type != PT_LOAD) continue;
    seg_lo[segments] = bias + ph->p_vaddr;
    seg_hi[segments] = bias + ph->p_vaddr + ph->p_memsz;
    segments++;
  }
  return 1;  // the first object is the executable: stop
}

static int in_executable(uintptr_t pc) {
  for (int i = 0; i < segments; i++)
    if (pc >= seg_lo[i] && pc < seg_hi[i]) return 1;
  return 0;
}

__attribute__((destructor)) static void stop(void) {
  struct itimerval off;
  memset(&off, 0, sizeof off);
  setitimer(ITIMER_PROF, &off, NULL);
  signal(SIGPROF, SIG_IGN);
  dl_iterate_phdr(find_executable, NULL);
  FILE *out = fopen("profile.stacks", "w");
  if (!out) return;
  int n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
  if (taken > n) fprintf(stderr, "shim: kept the first %d of %d samples\n", n, taken);
  for (int i = 0; i < n; i++) {
    // Frames 0 and 1 are this handler and the signal trampoline; frame 2
    // is the interrupted pc. Every later frame is a return address,
    // which points after its call: step back into the call.
    for (int f = 2; f < depth[i]; f++) {
      uintptr_t pc = (uintptr_t)stacks[i][f] - (f > 2);
      if (in_executable(pc))
        fprintf(out, f > 2 ? " 0x%lx" : "0x%lx", (unsigned long)(pc - bias));
      else
        fputs(f > 2 ? " -" : "-", out);
    }
    fputc('\n', out);
  }
  fclose(out);
}
