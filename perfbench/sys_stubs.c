/* System calls the benchmark needs and OCaml's Unix library lacks:
   wait4(2), because Unix.waitpid drops the child's resource usage and the
   peak RSS of a dvrun child is only available from the kernel at reap
   time; and a monotonic clock with nanosecond resolution, because
   gettimeofday's microseconds cannot time a warm VM reset. */

#include <errno.h>
#include <time.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>
#include <caml/unixsupport.h>

/* perfbench_wait4 : int -> int * int
   Blocks until [pid] exits; returns (exit code, or 128 + signal number;
   peak resident set size in KiB). */
CAMLprim value perfbench_wait4(value v_pid)
{
  CAMLparam1(v_pid);
  CAMLlocal1(res);
  int status = 0;
  struct rusage ru;
  pid_t r;
  caml_enter_blocking_section();
  do {
    r = wait4(Int_val(v_pid), &status, 0, &ru);
  } while (r < 0 && errno == EINTR);
  caml_leave_blocking_section();
  if (r < 0) uerror("wait4", Nothing);
  res = caml_alloc_tuple(2);
  Store_field(res, 0,
              Val_int(WIFEXITED(status) ? WEXITSTATUS(status)
                                        : 128 + WTERMSIG(status)));
  Store_field(res, 1, Val_long(ru.ru_maxrss));
  CAMLreturn(res);
}

/* perfbench_now : unit -> float, seconds on CLOCK_MONOTONIC. */
double perfbench_now_unboxed(value unit)
{
  (void)unit;
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

CAMLprim value perfbench_now(value unit)
{
  return caml_copy_double(perfbench_now_unboxed(unit));
}
