#include "src/faults/durability_checker.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <map>
#include <span>
#include <utility>

#include "src/sim/check.h"
#include "src/sim/crc32.h"
#include "src/sim/ordered.h"
#include "src/storage/disk_image.h"

namespace rlfault {

using rlsim::Task;

std::string VerifyResult::Summary() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "checked=%llu lost=%llu atomicity_violations=%llu "
                "promoted_inflight=%llu -> %s",
                static_cast<unsigned long long>(keys_checked),
                static_cast<unsigned long long>(lost_writes),
                static_cast<unsigned long long>(atomicity_violations),
                static_cast<unsigned long long>(promoted_pending),
                ok() ? "OK" : "DURABILITY VIOLATED");
  return buf;
}

void DurabilityChecker::OnCommitAttempt(uint64_t token,
                                        std::vector<TrackedWrite> writes) {
  RL_CHECK(!pending_.contains(token));
  // Keep the last write per key, in the order of those last writes: an
  // earlier write to a key the transaction rewrote never reaches the store
  // as a committed value, so judged against the store it would read as a
  // lost or partial commit. Write lists are short; the scan allocates
  // nothing.
  size_t kept = 0;
  for (size_t i = 0; i < writes.size(); ++i) {
    bool rewritten = false;
    for (size_t j = i + 1; j < writes.size() && !rewritten; ++j) {
      rewritten = writes[j].key == writes[i].key;
    }
    if (!rewritten) {
      if (kept != i) {
        writes[kept] = std::move(writes[i]);
      }
      ++kept;
    }
  }
  writes.resize(kept);
  pending_.emplace(token, Pending{++clock_, std::move(writes)});
}

namespace {

constexpr size_t kValueChunkBytes = size_t{64} << 10;

size_t SlotOf(uint64_t key, size_t mask) {
  uint64_t x = key + 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return static_cast<size_t>(x ^ (x >> 31)) & mask;
}

}  // namespace

const DurabilityChecker::Committed* DurabilityChecker::Find(
    uint64_t key) const {
  if (slots_.empty()) {
    return nullptr;
  }
  const size_t mask = slots_.size() - 1;
  for (size_t i = SlotOf(key, mask); slots_[i] != 0; i = (i + 1) & mask) {
    const Committed& c = committed_[slots_[i] - 1];
    if (c.key == key) {
      return &c;
    }
  }
  return nullptr;
}

DurabilityChecker::Committed& DurabilityChecker::FindOrInsert(uint64_t key) {
  if (2 * (committed_.size() + 1) > slots_.size()) {
    // Grow to twice the size and re-seat every key.
    slots_.assign(std::max<size_t>(64, 2 * slots_.size()), 0);
    const size_t mask = slots_.size() - 1;
    for (size_t n = 0; n < committed_.size(); ++n) {
      size_t i = SlotOf(committed_[n].key, mask);
      while (slots_[i] != 0) {
        i = (i + 1) & mask;
      }
      slots_[i] = static_cast<uint32_t>(n + 1);
    }
  }
  const size_t mask = slots_.size() - 1;
  size_t i = SlotOf(key, mask);
  for (; slots_[i] != 0; i = (i + 1) & mask) {
    Committed& c = committed_[slots_[i] - 1];
    if (c.key == key) {
      return c;
    }
  }
  committed_.push_back(Committed{.key = key});
  slots_[i] = static_cast<uint32_t>(committed_.size());
  return committed_.back();
}

std::span<const uint8_t> DurabilityChecker::ValueOf(
    const Committed& c) const {
  return std::span<const uint8_t>(chunks_[c.at / kValueChunkBytes])
      .subspan(c.at % kValueChunkBytes, c.size);
}

bool DurabilityChecker::Matches(const Committed& c, bool found,
                                const std::vector<uint8_t>& got) const {
  if (!c.has_value) {
    return !found;
  }
  const std::span<const uint8_t> want = ValueOf(c);
  return found && std::equal(got.begin(), got.end(), want.begin(), want.end());
}

void DurabilityChecker::Apply(const TrackedWrite& w, uint64_t at) {
  Committed& c = FindOrInsert(w.key);
  if (at > c.acked_at) {
    c.acked_at = at;
  }
  c.has_value = !w.is_delete;
  if (w.is_delete) {
    return;
  }
  const size_t size = w.value.size();
  RL_CHECK_MSG(size < kValueChunkBytes,
               "tracked value of " << size << " bytes is 64 KiB or more");
  if (c.room == 0 || size > c.room) {
    if (chunks_.empty() || chunk_used_ + size > kValueChunkBytes) {
      RL_CHECK(chunks_.size() < (uint64_t{1} << 32) / kValueChunkBytes);
      chunks_.emplace_back(kValueChunkBytes);
      chunk_used_ = 0;
    }
    c.at = static_cast<uint32_t>((chunks_.size() - 1) * kValueChunkBytes +
                                 chunk_used_);
    c.room = static_cast<uint16_t>(size);
    chunk_used_ += size;
  }
  c.size = static_cast<uint16_t>(size);
  std::copy(w.value.begin(), w.value.end(),
            chunks_[c.at / kValueChunkBytes].begin() +
                static_cast<ptrdiff_t>(c.at % kValueChunkBytes));
}

void DurabilityChecker::OnCommitAcked(uint64_t token) {
  const auto it = pending_.find(token);
  RL_CHECK_MSG(it != pending_.end(), "ack for unknown commit token");
  const uint64_t at = ++clock_;
  for (const TrackedWrite& w : it->second.writes) {
    Apply(w, at);
  }
  pending_.erase(it);
}

void DurabilityChecker::OnAborted(uint64_t token) { pending_.erase(token); }

Task<VerifyResult> DurabilityChecker::VerifyAfterRecovery(
    rldb::Database& db) {
  co_return co_await Verify(
      [&db](uint64_t key, std::vector<uint8_t>* out) {
        return db.ReadCommitted(key, out);
      });
}

Task<VerifyResult> DurabilityChecker::Verify(KeyReader read) {
  VerifyResult result;

  // Resolve in-flight commits first: each one either fully landed (its
  // commit record was durable even though the ack never reached the client)
  // or must be entirely absent. Resolve in ascending token order: the hash
  // map's iteration order must not decide which promoted commit wins a key
  // both touched, nor the order of the verification reads below.
  for (const uint64_t token : rlsim::SortedKeys(pending_)) {
    Pending& p = pending_.at(token);
    // Each key is judged by what the store holds. Its own value is evidence
    // that the commit landed. A key an acknowledged commit rewrote after
    // this attempt proves nothing otherwise: the two may have written it in
    // either order. Anything else on a key is evidence it did not land.
    std::vector<const TrackedWrite*> landed;
    size_t judged = 0;
    bool definite = false;
    for (TrackedWrite& w : p.writes) {
      std::vector<uint8_t> got;
      const bool found = co_await read(w.key, &got);
      const bool matches_new =
          w.is_delete ? !found : (found && got == w.value);
      const Committed* c = Find(w.key);
      if (!matches_new && c != nullptr && c->acked_at > p.attempted_at) {
        continue;
      }
      ++judged;
      if (!matches_new) {
        continue;
      }
      landed.push_back(&w);
      // Partial application is an atomicity violation only where a landed
      // write is told apart from the key's prior committed value.
      const bool matches_prior =
          c == nullptr ? !found : Matches(*c, found, got);
      definite = definite || !matches_prior;
    }
    if (landed.empty()) {
      continue;
    }
    if (landed.size() == judged) {
      ++result.promoted_pending;
      for (const TrackedWrite* w : landed) {
        Apply(*w, p.attempted_at);
      }
    } else if (definite) {
      ++result.atomicity_violations;
      result.violating_tokens.push_back(token);
    }
  }
  pending_.clear();

  // Every acknowledged write must be present. Ascending key order keeps the
  // read sequence, and with it every downstream hash, independent of the
  // hash map's layout.
  std::vector<uint32_t> order(committed_.size());
  for (uint32_t n = 0; n < order.size(); ++n) {
    order[n] = n;
  }
  std::sort(order.begin(), order.end(), [this](uint32_t a, uint32_t b) {
    return committed_[a].key < committed_[b].key;
  });
  for (const uint32_t n : order) {
    ++result.keys_checked;
    std::vector<uint8_t> got;
    const bool found = co_await read(committed_[n].key, &got);
    if (!Matches(committed_[n], found, got)) {
      ++result.lost_writes;
    }
  }
  co_return result;
}

namespace {

// True if `seq` fell in a RESET gap: shipped, later crossed by the quorum
// cursor via an epoch fast-forward, but never genuinely quorum-acked.
bool InResetGap(const std::vector<std::pair<uint64_t, uint64_t>>& gaps,
                uint64_t seq) {
  for (const auto& [lo, hi] : gaps) {
    if (seq >= lo && seq < hi) {
      return true;
    }
  }
  return false;
}

// (seq, CRC-32C) of one shipped version of a sector.
using SectorVersion = std::pair<uint64_t, uint32_t>;

// Whether `image` durably holds one of the `acceptable` versions of `sector`.
bool HoldsVersion(const rlstor::DiskImage& image, uint64_t sector,
                  std::span<const SectorVersion> acceptable) {
  if (image.state(sector) != rlstor::SectorState::kDurable) {
    return false;
  }
  std::array<uint8_t, rlstor::kSectorSize> buf;
  image.ReadDurable(sector, buf);
  const uint32_t got = rlsim::Crc32c(buf);
  return std::ranges::any_of(
      acceptable, [got](const SectorVersion& v) { return v.second == got; });
}

}  // namespace

std::string QuorumAudit::Summary() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "sectors expected=%llu ok=%llu underreplicated=%llu -> %s",
                static_cast<unsigned long long>(sectors_expected),
                static_cast<unsigned long long>(sectors_ok),
                static_cast<unsigned long long>(sectors_underreplicated),
                ok() ? "OK" : "QUORUM DURABILITY VIOLATED");
  return buf;
}

QuorumAudit AuditQuorumDurability(
    const rlrep::LogShipper& shipper,
    const std::vector<const rlrep::ReplicaNode*>& replicas) {
  QuorumAudit audit;
  const uint64_t cursor = shipper.audit_quorum_cursor();
  // Replay the shipped history in sequence order to build each sector's
  // version list (WAL tail rewrites ship the same LBA at several sequence
  // numbers).
  std::map<uint64_t, std::vector<SectorVersion>> versions;
  for (const rlrep::ShippedBlockMeta& block : shipper.shipped_blocks()) {
    for (size_t i = 0; i < block.sector_crcs.size(); ++i) {
      versions[block.lba + i].emplace_back(block.seq, block.sector_crcs[i]);
    }
  }
  std::vector<bool> complete(replicas.size(), true);
  for (const auto& [sector, history] : versions) {
    // Acceptable versions run from the newest genuinely acked one (versions
    // in a RESET gap are below the cursor without having been acked) to the
    // newest shipped one: frames in flight at a power cut may land
    // afterwards, and a later version of a WAL block only appends records to
    // it, so it still contains everything that was acked.
    size_t acked = history.size();
    for (size_t i = 0; i < history.size(); ++i) {
      if (history[i].first < cursor &&
          !InResetGap(shipper.reset_gaps(), history[i].first)) {
        acked = i;
      }
    }
    if (acked == history.size()) {
      continue;  // never quorum-acked
    }
    const auto acceptable =
        std::span<const SectorVersion>(history).subspan(acked);
    ++audit.sectors_expected;
    size_t holders = 0;
    for (size_t r = 0; r < replicas.size(); ++r) {
      if (HoldsVersion(replicas[r]->disk().image(), sector, acceptable)) {
        ++holders;
      } else {
        complete[r] = false;
      }
    }
    if (holders >= shipper.quorum_size()) {
      ++audit.sectors_ok;
    } else {
      ++audit.sectors_underreplicated;
    }
  }
  audit.complete_replicas = static_cast<size_t>(
      std::count(complete.begin(), complete.end(), true));
  return audit;
}

}  // namespace rlfault
