#include "apps/miniredis/store.hpp"

#include <chrono>

namespace csaw::miniredis {
namespace {

struct StoreImage {
  std::unordered_map<std::string, std::string> map;
};

template <typename Ar>
void serdes_fields(Ar& ar, StoreImage& img) {
  ar.field(img.map);
}

}  // namespace

Store::Store(std::uint64_t op_cost_ns) : op_cost_ns_(op_cost_ns) {}

void Store::burn() {
  if (op_cost_ns_ == 0) return;
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::nanoseconds(op_cost_ns_);
  // Busy-wait: Redis's command processing is CPU work, not sleep.
  while (std::chrono::steady_clock::now() < until) {
  }
}

std::optional<std::string> Store::get(const std::string& key) {
  burn();
  ++stats_.gets;
  auto it = map_.find(key);
  if (it == map_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  return it->second;
}

void Store::set(const std::string& key, std::string value) {
  burn();
  ++stats_.sets;
  map_[key] = std::move(value);
}

bool Store::del(const std::string& key) {
  burn();
  ++stats_.dels;
  return map_.erase(key) > 0;
}

void Store::clear() { map_.clear(); }

std::size_t Store::object_size(const std::string& key) const {
  auto it = map_.find(key);
  return it == map_.end() ? 0 : it->second.size();
}

Bytes Store::snapshot() const {
  StoreImage img{map_};
  return encode(std::move(img));
}

Status Store::restore(const Bytes& snapshot) {
  auto img = decode<StoreImage>(snapshot);
  if (!img) return img.error();
  map_ = std::move(img->map);
  return Status::ok_status();
}

Response apply(Store& store, const Command& command) {
  switch (command.op) {
    case Command::Op::kGet: {
      auto v = store.get(command.key);
      return Response{v.has_value(), v.value_or("")};
    }
    case Command::Op::kSet:
      store.set(command.key, command.value);
      return Response{true, ""};
    case Command::Op::kDel:
      return Response{store.del(command.key), ""};
  }
  return Response{};
}

}  // namespace csaw::miniredis
