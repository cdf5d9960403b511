/* The child CAS of a trie's internal node (trie_body.ml, [cas_child]):
   field [i] of [obj] from [oldv] to [newv], by physical equality, with
   the write barrier.  [caml_atomic_cas_field] is what the runtime's own
   [caml_atomic_cas] (Atomic.compare_and_set) calls on field 0; like it,
   this allocates nothing, so the external is [@@noalloc]. */

#include <caml/mlvalues.h>
#include <caml/memory.h>

value core_cas_field(value obj, value i, value oldv, value newv)
{
  return Val_bool(caml_atomic_cas_field(obj, Long_val(i), oldv, newv));
}
