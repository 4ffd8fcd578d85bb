// Recycles the nodes of a std::unordered_map whose keys come and go (lock
// table entries, write-back cache extents). Erase() parks the erased
// entry's node, up to a cap, and the next TryEmplace() of a new key reuses
// it instead of allocating. The mapped value keeps its own storage (a
// queue's capacity); `reset` clears its state for the new key. Parked nodes
// hold no state, so a copy of a pool starts empty.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace rlsim {

template <typename Map>
class NodePool {
 public:
  explicit NodePool(size_t cap) : cap_(cap) {}
  NodePool(const NodePool& other) : cap_(other.cap_) {}
  NodePool& operator=(const NodePool&) { return *this; }
  NodePool(NodePool&&) = default;
  NodePool& operator=(NodePool&&) = default;

  // The entry for `key`, and whether it is new. A new entry comes from a
  // parked node passed through `reset`, or is value-initialised if none is
  // parked.
  template <typename Reset>
  std::pair<typename Map::iterator, bool> TryEmplace(
      Map& map, const typename Map::key_type& key, Reset&& reset) {
    if (const auto it = map.find(key); it != map.end()) {
      return {it, false};
    }
    if (parked_.empty()) {
      return map.try_emplace(key);
    }
    typename Map::node_type node = std::move(parked_.back());
    parked_.pop_back();
    node.key() = key;
    reset(node.mapped());
    return {map.insert(std::move(node)).position, true};
  }

  void Erase(Map& map, typename Map::iterator it) {
    if (parked_.size() < cap_) {
      parked_.push_back(map.extract(it));
    } else {
      map.erase(it);
    }
  }

 private:
  size_t cap_;
  std::vector<typename Map::node_type> parked_;
};

}  // namespace rlsim
