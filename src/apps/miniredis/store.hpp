// miniredis: a single-threaded in-memory KV store standing in for Redis
// v2.0.2 (see DESIGN.md "Substitutions").
//
// The evaluation behaviors the paper measures on Redis -- checkpoint dips,
// shard routing ratios, cache-hit gains, GET/SET latency distributions --
// depend only on a single-threaded server with GET/SET/DEL over an in-memory
// table and serializable state, which this provides. A configurable per-op
// cost models Redis's command processing so that architectural overheads
// (routing hops, serialization) are measured against a realistic baseline
// rather than a free no-op.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>

#include "apps/miniredis/command.hpp"
#include "serdes/archive.hpp"
#include "support/result.hpp"

namespace csaw::miniredis {

struct StoreStats {
  std::uint64_t gets = 0;
  std::uint64_t sets = 0;
  std::uint64_t dels = 0;
  std::uint64_t hits = 0;    // GET found
  std::uint64_t misses = 0;  // GET not found
};

class Store {
 public:
  // `op_cost_ns`: busy-work per command modeling Redis's parse+dispatch.
  explicit Store(std::uint64_t op_cost_ns = 900);

  std::optional<std::string> get(const std::string& key);
  void set(const std::string& key, std::string value);
  bool del(const std::string& key);

  [[nodiscard]] std::size_t size() const { return map_.size(); }
  [[nodiscard]] const StoreStats& stats() const { return stats_; }
  void clear();

  // Object size in bytes for size-aware sharding (0 if absent).
  [[nodiscard]] std::size_t object_size(const std::string& key) const;

  // --- checkpointing ------------------------------------------------------
  // Serializes the entire keyspace (the paper's on-demand Redis
  // checkpoint). Cost scales with contents, which is what produces the
  // throughput dips of Fig 23a.
  [[nodiscard]] Bytes snapshot() const;
  Status restore(const Bytes& snapshot);

 private:
  void burn();

  std::unordered_map<std::string, std::string> map_;
  StoreStats stats_;
  std::uint64_t op_cost_ns_;
};

// Executes one command against the store (GET/SET/DEL).
Response apply(Store& store, const Command& command);

}  // namespace csaw::miniredis
