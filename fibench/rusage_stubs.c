/* getrusage(RUSAGE_CHILDREN).ru_maxrss, which OCaml's Unix does not
   expose: the peak resident set of the largest reaped child, where a
   child's figure already covers the children it reaped in turn. */

#include <sys/resource.h>
#include <caml/mlvalues.h>

value fibench_children_maxrss_kb(value unit)
{
  struct rusage ru;
  (void)unit;
  if (getrusage(RUSAGE_CHILDREN, &ru) != 0)
    return Val_long(0);
  return Val_long(ru.ru_maxrss);
}
