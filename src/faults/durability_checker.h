// Tracks what the database promised (acknowledged commits) and verifies the
// promise after a crash: every acknowledged write is present after recovery
// (unless overwritten by a later acknowledged commit), commits in flight at
// the crash are all-or-nothing, and nothing uncommitted appears.
//
// This is the paper's plug-pull experiment turned into a machine-checkable
// oracle that can run hundreds of randomised trials. The same model backs
// the sharded fleet's atomicity oracle (fleet_checker.h): only the key
// reader differs — one engine here, the key's owning shard there.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/db/database.h"
#include "src/replica/log_shipper.h"
#include "src/replica/replica_node.h"
#include "src/sim/task.h"

namespace rlfault {

struct TrackedWrite {
  uint64_t key = 0;
  bool is_delete = false;
  std::vector<uint8_t> value;
};

struct VerifyResult {
  uint64_t keys_checked = 0;
  uint64_t lost_writes = 0;        // acked write missing or wrong after crash
  uint64_t atomicity_violations = 0;  // in-flight commit applied partially
  uint64_t promoted_pending = 0;   // in-flight commits that did land
  // Transaction tokens (workload global ids) behind the atomicity
  // violations, in ascending order — the hook the chaos post-mortem
  // uses to dump each failing transaction's causal span chain.
  std::vector<uint64_t> violating_tokens;

  bool ok() const { return lost_writes == 0 && atomicity_violations == 0; }
  std::string Summary() const;
};

class DurabilityChecker {
 public:
  // Call immediately before Database::Commit with the transaction's writes,
  // in the order it made them. A key written twice counts by its last write.
  void OnCommitAttempt(uint64_t token, std::vector<TrackedWrite> writes);

  // Call when Commit returned kOk: the writes are now promised durable.
  void OnCommitAcked(uint64_t token);

  // Call when the transaction aborted (or its machine died before Commit
  // was even attempted is equivalent to never calling OnCommitAttempt).
  void OnAborted(uint64_t token);

  // After recovery: verifies the model against the database, resolves the
  // in-flight set (promoting commits that made it to disk), and leaves the
  // model consistent with the recovered state for the next campaign round.
  rlsim::Task<VerifyResult> VerifyAfterRecovery(rldb::Database& db);

  size_t pending_count() const { return pending_.size(); }
  size_t model_size() const { return committed_.size(); }

 protected:
  // Committed-state read of one key from the recovered store: true and the
  // value in *out if present.
  using KeyReader = std::function<rlsim::Task<bool>(
      uint64_t key, std::vector<uint8_t>* out)>;

  // VerifyAfterRecovery over any store. In-flight commits are resolved in
  // ascending token order — fully applied ones are promoted into the model,
  // a definite partial application counts as an atomicity violation — and
  // then every acknowledged write is read back.
  rlsim::Task<VerifyResult> Verify(KeyReader read);

 private:
  // Latest acknowledged state of a key: its value (held in the value arena;
  // no value = acknowledged delete) and when it was acknowledged, on the
  // checker's event clock.
  struct Committed {
    uint64_t key = 0;
    uint64_t acked_at : 63 = 0;
    uint64_t has_value : 1 = 0;
    // Value bytes: [at, at + size) of the arena, whose chunks are laid end
    // to end; `room` bytes are reserved there.
    uint32_t at = 0;
    uint16_t size = 0;
    uint16_t room = 0;
  };
  static_assert(sizeof(Committed) == 24);
  struct Pending {
    uint64_t attempted_at = 0;
    std::vector<TrackedWrite> writes;
  };

  // Sets the key's model value; acked_at never moves back.
  void Apply(const TrackedWrite& w, uint64_t at);

  // The key's model entry, or nullptr if no commit touching it was acked.
  const Committed* Find(uint64_t key) const;
  Committed& FindOrInsert(uint64_t key);
  std::span<const uint8_t> ValueOf(const Committed& c) const;
  // Whether the store's answer for a key (found, got) is the model's `c`.
  bool Matches(const Committed& c, bool found,
               const std::vector<uint8_t>& got) const;

  // Ticks once per attempt and per ack. Only the order matters: a key whose
  // acked_at is later than a pending commit's attempted_at may have been
  // written by the two in either order, so its acked value there is no
  // evidence about that commit, while an older acked value is evidence it
  // did not land.
  uint64_t clock_ = 0;
  // The model, one entry per key, in first-ack order. Verify reads it back
  // in ascending key order.
  std::vector<Committed> committed_;
  // Key -> committed_ index + 1 (0 = empty slot): open addressing with
  // linear probing, at most half full. Keys are never removed.
  std::vector<uint32_t> slots_;
  // Value arena: 64 KiB chunks, appended to and never moved, so a key's
  // value costs no heap block of its own. A rewrite reuses the key's room
  // when the new value fits (values are row slots of one fixed size). A
  // value must be smaller than a chunk.
  std::vector<std::vector<uint8_t>> chunks_;
  size_t chunk_used_ = 0;  // bytes taken in chunks_.back()
  std::unordered_map<uint64_t, Pending> pending_;
};

// --- Replicated-durability oracle (src/replica) ------------------------------

// Per-sector quorum verdict across the whole replica set: every sector the
// primary quorum-acknowledged before it died must be durably held by at
// least `shipper.quorum_size()` replicas. The shipper's append-only audit
// log supplies per-sector CRCs of everything shipped; the quorum cursor is
// frozen at the instant of the primary's power loss. No single replica need
// hold everything — under fault schedules that kill or partition individual
// replicas, different sectors may be covered by different replica subsets —
// but each sector's quorum must survive.
//
// Newest-version semantics: when the same sector was shipped more than once
// (WAL tail rewrites), a replica must hold the newest quorum-acked version —
// or a newer shipped one, since frames in flight at the cut may still land
// and a later version of a WAL block only appends to the acked records.
struct QuorumAudit {
  uint64_t sectors_expected = 0;
  uint64_t sectors_ok = 0;
  uint64_t sectors_underreplicated = 0;  // held by fewer than quorum replicas
  // Replicas that hold every acked sector: any one of them alone restores
  // the acked log.
  size_t complete_replicas = 0;

  bool ok() const { return sectors_underreplicated == 0; }
  std::string Summary() const;
};

QuorumAudit AuditQuorumDurability(
    const rlrep::LogShipper& shipper,
    const std::vector<const rlrep::ReplicaNode*>& replicas);

}  // namespace rlfault
