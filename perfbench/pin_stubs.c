/* CPU pinning for the eco-serve workload: the daemon and the process
   that times the reference kernel must run on the same CPU, because a
   shared host slows each CPU on its own. */

#define _GNU_SOURCE
#include <sched.h>
#include <caml/mlvalues.h>

/* Pins the calling thread to the highest-numbered CPU it may run on and
   returns that CPU, or -1 when the affinity calls fail. Threads it
   starts afterwards inherit the pin. */
value perfbench_pin_last_cpu(value unit)
{
  (void)unit;
  cpu_set_t set;
  int cpu = -1;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int i = CPU_SETSIZE - 1; i >= 0; i--)
      if (CPU_ISSET(i, &set)) {
        cpu = i;
        break;
      }
    if (cpu >= 0) {
      CPU_ZERO(&set);
      CPU_SET(cpu, &set);
      if (sched_setaffinity(0, sizeof set, &set) != 0) cpu = -1;
    }
  }
  return Val_int(cpu);
}
