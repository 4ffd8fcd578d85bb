#include "src/faults/durability_checker.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <map>
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
  pending_.emplace(token, Pending{++clock_, std::move(writes)});
}

void DurabilityChecker::Apply(TrackedWrite&& w, uint64_t at) {
  Committed& c = committed_[w.key];
  if (w.is_delete) {
    c.value.reset();
  } else {
    c.value = std::move(w.value);
  }
  c.acked_at = std::max(c.acked_at, at);
}

void DurabilityChecker::OnCommitAcked(uint64_t token) {
  const auto it = pending_.find(token);
  RL_CHECK_MSG(it != pending_.end(), "ack for unknown commit token");
  const uint64_t at = ++clock_;
  for (TrackedWrite& w : it->second.writes) {
    Apply(std::move(w), at);
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
    std::vector<TrackedWrite*> landed;
    size_t judged = 0;
    bool definite = false;
    for (TrackedWrite& w : p.writes) {
      std::vector<uint8_t> got;
      const bool found = co_await read(w.key, &got);
      const bool matches_new =
          w.is_delete ? !found : (found && got == w.value);
      const auto c = committed_.find(w.key);
      if (!matches_new && c != committed_.end() &&
          c->second.acked_at > p.attempted_at) {
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
          c == committed_.end()
              ? !found
              : (c->second.value.has_value()
                     ? (found && got == *c->second.value)
                     : !found);
      definite = definite || !matches_prior;
    }
    if (landed.empty()) {
      continue;
    }
    if (landed.size() == judged) {
      ++result.promoted_pending;
      // pending_ is cleared below, so the promoted values move.
      for (TrackedWrite* w : landed) {
        Apply(std::move(*w), p.attempted_at);
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
  for (const uint64_t key : rlsim::SortedKeys(committed_)) {
    const Committed& c = committed_.at(key);
    ++result.keys_checked;
    std::vector<uint8_t> got;
    const bool found = co_await read(key, &got);
    const bool matches =
        c.value.has_value() ? (found && got == *c.value) : !found;
    if (!matches) {
      ++result.lost_writes;
    }
  }
  co_return result;
}

std::string ReplicaAudit::Summary() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "sectors expected=%llu ok=%llu missing=%llu mismatched=%llu "
                "-> %s",
                static_cast<unsigned long long>(sectors_expected),
                static_cast<unsigned long long>(sectors_ok),
                static_cast<unsigned long long>(sectors_missing),
                static_cast<unsigned long long>(sectors_mismatched),
                ok() ? "OK" : "REPLICA DURABILITY VIOLATED");
  return buf;
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

}  // namespace

ReplicaAudit AuditReplicaDurability(const rlrep::LogShipper& shipper,
                                    const rlrep::ReplicaNode& replica) {
  // Replay the shipped history in sequence order to build each sector's
  // version list (WAL tail rewrites ship the same LBA at several sequence
  // numbers). A sector is audited if any version of it was quorum-acked.
  const uint64_t cursor = shipper.audit_quorum_cursor();
  // sector -> (seq, CRC-32C) in ascending seq order.
  std::map<uint64_t, std::vector<std::pair<uint64_t, uint32_t>>> versions;
  for (const rlrep::ShippedBlockMeta& block : shipper.shipped_blocks()) {
    for (size_t i = 0; i < block.sector_crcs.size(); ++i) {
      versions[block.lba + i].emplace_back(block.seq, block.sector_crcs[i]);
    }
  }

  ReplicaAudit audit;
  const rlstor::DiskImage& image = replica.disk().image();
  std::array<uint8_t, rlstor::kSectorSize> buf;
  for (const auto& [sector, history] : versions) {
    // Newest genuinely quorum-acked version of this sector, if any (versions
    // in a RESET gap are below the cursor without having been acked).
    size_t acked = history.size();
    for (size_t i = 0; i < history.size(); ++i) {
      if (history[i].first < cursor &&
          !InResetGap(shipper.reset_gaps(), history[i].first)) {
        acked = i;
      }
    }
    if (acked == history.size()) {
      continue;  // nothing acked for this sector; nothing is owed
    }
    ++audit.sectors_expected;
    if (image.state(sector) != rlstor::SectorState::kDurable) {
      ++audit.sectors_missing;
      continue;
    }
    // The replica must hold the newest acked version — or a NEWER shipped
    // one: frames in flight at the power cut may land afterwards, and a
    // later version of a WAL block only appends records to it, so it still
    // contains everything that was acked.
    image.ReadDurable(sector, buf);
    const uint32_t got = rlsim::Crc32c(buf);
    bool matched = false;
    for (size_t i = acked; i < history.size(); ++i) {
      if (history[i].second == got) {
        matched = true;
        break;
      }
    }
    if (matched) {
      ++audit.sectors_ok;
    } else {
      ++audit.sectors_mismatched;
    }
  }
  return audit;
}

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
  const uint64_t cursor = shipper.audit_quorum_cursor();
  std::map<uint64_t, std::vector<std::pair<uint64_t, uint32_t>>> versions;
  for (const rlrep::ShippedBlockMeta& block : shipper.shipped_blocks()) {
    for (size_t i = 0; i < block.sector_crcs.size(); ++i) {
      versions[block.lba + i].emplace_back(block.seq, block.sector_crcs[i]);
    }
  }

  QuorumAudit audit;
  const size_t quorum = shipper.quorum_size();
  std::array<uint8_t, rlstor::kSectorSize> buf;
  for (const auto& [sector, history] : versions) {
    size_t acked = history.size();
    for (size_t i = 0; i < history.size(); ++i) {
      if (history[i].first < cursor &&
          !InResetGap(shipper.reset_gaps(), history[i].first)) {
        acked = i;
      }
    }
    if (acked == history.size()) {
      continue;
    }
    ++audit.sectors_expected;
    size_t holders = 0;
    for (const rlrep::ReplicaNode* replica : replicas) {
      const rlstor::DiskImage& image = replica->disk().image();
      if (image.state(sector) != rlstor::SectorState::kDurable) {
        continue;
      }
      image.ReadDurable(sector, buf);
      const uint32_t got = rlsim::Crc32c(buf);
      for (size_t i = acked; i < history.size(); ++i) {
        if (history[i].second == got) {
          ++holders;
          break;
        }
      }
    }
    if (holders >= quorum) {
      ++audit.sectors_ok;
    } else {
      ++audit.sectors_underreplicated;
    }
  }
  return audit;
}

}  // namespace rlfault
