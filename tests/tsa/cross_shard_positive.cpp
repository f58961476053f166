// Thread-safety-analysis gate fixture: the positive control for
// cross_shard_negative.cpp. Identical calls into the per-shard hot
// plane, but made while holding the shard capability through ShardGuard
// -- this MUST compile cleanly under `-Wthread-safety
// -Werror=thread-safety`, proving the gate rejects the negative fixture
// because of the missing capability and not for an unrelated reason.
#include "core/annotations.hpp"
#include "net/flat_table.hpp"
#include "net/packet_pool.hpp"

int main() {
  const qoesim::ShardGuard guard;  // statically acquires ::qoesim::shard_plane

  qoesim::net::InFlightRing ring;
  ring.stage() = qoesim::net::InFlight{};
  ring.commit();
  ring.pop();

  qoesim::net::FlatTable<int> table;
  table.reserve(16);
  return 0;
}
