/* What the benchmark needs from the OS beyond the Unix library: the
   calling thread's CPU affinity (the benchmark pins itself, and the
   server it spawns, to one core) and its CPU clock. */

#define _GNU_SOURCE
#include <sched.h>
#include <stdint.h>
#include <time.h>

#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>

value perfbench_current_cpu(value unit)
{
  (void)unit;
  return Val_int(sched_getcpu());
}

/* The CPUs the calling thread may run on, in decreasing order. */
value perfbench_get_affinity(value unit)
{
  CAMLparam1(unit);
  CAMLlocal2(list, cell);
  cpu_set_t set;
  list = Val_emptylist;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; cpu++) {
      if (CPU_ISSET(cpu, &set)) {
        cell = caml_alloc_small(2, Tag_cons);
        Field(cell, 0) = Val_int(cpu);
        Field(cell, 1) = list;
        list = cell;
      }
    }
  }
  CAMLreturn(list);
}

/* Restrict the calling thread, and every thread or process it creates
   from now on, to [cpus]; false when the kernel refuses. */
value perfbench_set_affinity(value cpus)
{
  cpu_set_t set;
  CPU_ZERO(&set);
  for (value l = cpus; l != Val_emptylist; l = Field(l, 1)) {
    int cpu = Int_val(Field(l, 0));
    if (cpu >= 0 && cpu < CPU_SETSIZE) CPU_SET(cpu, &set);
  }
  return Val_bool(sched_setaffinity(0, sizeof set, &set) == 0);
}

/* Nanoseconds of CPU time the calling thread has used. */
value perfbench_thread_cpu_ns(value unit)
{
  (void)unit;
  struct timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return caml_copy_int64(0);
  return caml_copy_int64((int64_t)ts.tv_sec * 1000000000LL + ts.tv_nsec);
}
