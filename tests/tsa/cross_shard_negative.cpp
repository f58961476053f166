// Thread-safety-analysis gate fixture: MUST NOT COMPILE under
// `-Wthread-safety -Werror=thread-safety` (clang). It calls into the
// per-shard hot plane without holding the shard capability, which is
// exactly the cross-shard access the annotation layer exists to reject.
// CMake registers this as a WILL_FAIL compile test on the clang CI jobs;
// if it ever compiles cleanly, the gate has stopped biting.
#include "net/flat_table.hpp"
#include "net/packet_pool.hpp"

int main() {
  qoesim::net::InFlightRing ring;
  // error: calling stage() requires holding '::qoesim::shard_plane'
  ring.stage() = qoesim::net::InFlight{};
  ring.commit();
  ring.pop();

  qoesim::net::FlatTable<int> table;
  table.reserve(16);  // error: requires '::qoesim::shard_plane' as well
  return 0;
}
