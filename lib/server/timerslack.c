/* Set the calling thread's timer slack (Linux prctl).  An open-paced
   Loadgen domain sleeps in select() until its next arrival is due; with
   the default 50 us slack each wakeup runs that much late, and the
   lateness shows in every request's latency. */

#include <caml/mlvalues.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

value server_set_timerslack(value ns)
{
#ifdef __linux__
  prctl(PR_SET_TIMERSLACK, (unsigned long)Long_val(ns), 0, 0, 0);
#else
  (void)ns;
#endif
  return Val_unit;
}
