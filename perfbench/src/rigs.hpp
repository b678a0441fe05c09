#pragma once
// The benchmark's workloads. Each factory builds the workload's state from
// the seed and returns once it is ready to serve; that is what setup_s times.

#include <cstdint>
#include <memory>

#include "harness.hpp"

namespace perfbench {

/// 2 drivers at t=2, c=1, each on its own partition of 1,024 boxes; half
/// read-only transactions of 16 reads, half updates of 8 reads plus 2
/// read-modify-writes. No logical conflicts, no nesting, no wire.
[[nodiscard]] std::unique_ptr<Rig> make_short_disjoint(std::uint64_t seed);

/// The paper's Array workload at 0.01% updates: 1 driver at t=1, c=4; each
/// transaction scans 16,384 boxes in 4 child transactions.
[[nodiscard]] std::unique_ptr<Rig> make_array_nested(std::uint64_t seed);

/// TPC-C over the wire: 2 client connections -> in-process Router -> one
/// shard NetServer -> ServeEngine (2 workers) -> TPC-C handler.
[[nodiscard]] std::unique_ptr<Rig> make_tpcc_routed(std::uint64_t seed);

}  // namespace perfbench
