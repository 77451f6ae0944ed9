// Per-junction distributed KV table (paper S6 "Distributed Key-Value table"
// and S8 "Local priority" rule).
//
// Concurrency model, as specified by the paper:
//   * Each junction owns one table holding its declared propositions and
//     named data. Data starts `undef`; writing or restoring undef is an
//     error.
//   * Other junctions *push* updates; they can never read this table.
//   * Updates that arrive while the junction is not running are queued and
//     applied in arrival order right before the junction is next scheduled
//     (`apply_pending`).
//   * Updates that arrive while the junction IS running are queued too,
//     EXCEPT while the junction blocks in `wait [n] F`: updates to F's
//     propositions and to the listed data keys are admitted immediately.
//   * Local-priority: if the junction locally wrote a key during its run,
//     queued remote updates to that key from that run are discarded at
//     `end_run` ("local updates have priority").
//   * `keep` discards queued updates for given keys without applying them.
//   * Transaction blocks snapshot/restore the table contents for rollback.
//
// Thread-safety: the owning junction thread calls the local-side methods;
// channel deliveries call `enqueue` from whichever thread delivers (a
// sender's, the router's or the transport's). All state is guarded by one
// mutex; `wait` blocks on a condition variable that `enqueue` signals.
#pragma once

#include <condition_variable>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "kv/update.hpp"
#include "kv/wal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/clock.hpp"
#include "support/result.hpp"

namespace csaw {

// Unlocked read access handed to predicates evaluated inside `wait` (the
// lock is already held) and to host blocks run by the interpreter.
class TableView {
 public:
  [[nodiscard]] bool prop(Symbol name) const;
  [[nodiscard]] bool has_prop(Symbol name) const;
  [[nodiscard]] bool data_defined(Symbol name) const;
  // kUndefinedName / kUndefData on failure.
  Result<SerializedValue> data(Symbol name) const;

 private:
  friend class KvTable;
  explicit TableView(const class KvTable* table) : table_(table) {}
  const class KvTable* table_;
};

class KvTable {
 public:
  struct Spec {
    // Declared propositions with initial values ("init prop [not] P").
    std::vector<std::pair<Symbol, bool>> props;
    // Declared data names ("init data n"); all start undef.
    std::vector<Symbol> data;
    // Ablation knob (DESIGN.md design choice 1): disable the S8 local-
    // priority rule -- queued remote updates then always apply, even when a
    // later local write overwrote them.
    bool local_priority = true;
  };

  explicit KvTable(Spec spec, std::string owner = {});

  KvTable(const KvTable&) = delete;
  KvTable& operator=(const KvTable&) = delete;

  // --- lifecycle around one scheduling of the junction -----------------
  // Applies queued updates (arrival order). Call right before running.
  void apply_pending();
  void begin_run();
  void end_run();  // enforces local-priority discard

  // --- local side (owning junction thread) -----------------------------
  Result<bool> prop(Symbol name) const;
  Status set_prop_local(Symbol name, bool value);
  [[nodiscard]] bool data_defined(Symbol name) const;
  Result<SerializedValue> data(Symbol name) const;
  Status save_local(Symbol name, SerializedValue value);
  // Discard queued updates for the given keys (idempotent; paper's `keep`).
  void keep(std::span<const Symbol> keys);

  // Runs `fn` with consistent unlocked read access under the table lock.
  template <typename Fn>
  auto with_view(Fn&& fn) const {
    std::scoped_lock lock(mu_);
    return fn(TableView(this));
  }

  // --- transactions (paper's <|E|> blocks) ------------------------------
  struct Snapshot {
    std::unordered_map<Symbol, bool> props;
    std::unordered_map<Symbol, SerializedValue> data;
    std::unordered_set<Symbol> defined;
  };
  [[nodiscard]] Snapshot snapshot() const;
  void restore_snapshot(const Snapshot& snap);

  // --- blocking wait -----------------------------------------------------
  // Blocks until `pred` holds, admitting remote updates to `admit` keys
  // while blocked (queued updates to admitted keys are flushed on entry,
  // local-priority permitting). Returns kTimeout if the deadline expires.
  Status wait(const std::function<bool(const TableView&)>& pred,
              std::span<const Symbol> admit, Deadline deadline);

  // Interrupts a blocked `wait` (used on crash/stop); wait returns
  // kUnreachable.
  void interrupt();

  // --- remote side (any delivering thread) -----------------------------
  // Queues (or admits, when waiting) one pushed update. kUndefinedName if
  // the key was never declared here.
  Status enqueue(const Update& update);

  // --- durability ----------------------------------------------------------
  // Everything recovery or compaction needs, captured consistently.
  struct DurableState {
    TableImage image;
    std::vector<PendingUpdate> pending;
    std::uint64_t max_stamp = 0;
  };

  // Installs recovered state before the junction first runs: declared keys
  // take their recovered values (including pending, acked-but-unapplied
  // updates); recovered keys the current program no longer declares are
  // dropped. The stamp counter resumes past `max_stamp` so recovered
  // pending entries keep their ordering relative to new arrivals.
  void adopt_recovered(const RecoveredState& recovered);

  // Attaches the write-ahead log. From here on every state transition is
  // appended (and synced) under the table mutex before the mutating call
  // returns -- which is what makes an ack imply durability. The Wal is
  // borrowed and must outlive the table (or be detached with nullptr).
  // WAL I/O failure is fail-stop: a table that cannot persist a transition
  // aborts rather than acknowledge writes it may lose.
  void set_durability(Wal* wal);

  [[nodiscard]] DurableState durable_state() const;

  // --- observability -------------------------------------------------------
  // Taps every applied *remote* update: one kv_applied trace event naming
  // the key, plus a counter increment. Set by the runtime between
  // construction and the first junction run; both pointers are borrowed,
  // may be null, and must outlive the table.
  void set_observer(obs::TraceSink* trace, obs::Counter* applied,
                    Symbol instance, Symbol junction);

  // --- change notification (event-driven scheduler) ------------------------
  // kEnqueued: an update was queued (pending, not yet visible to reads).
  // kApplied: a key's visible value changed (remote apply, in-wait admit,
  // or local write). An invalid key () means "potentially every key"
  // (snapshot restore).
  enum class Change { kEnqueued, kApplied };
  using ChangeListener = std::function<void(Symbol key, Change change)>;
  // The listener is invoked with the table mutex held: implementations must
  // not call back into this table and must only do cheap wakeup work
  // (the scheduler's wake path). Set by the runtime before the junction
  // first runs; replace with nullptr to detach.
  void set_change_listener(ChangeListener listener);

  // --- introspection ------------------------------------------------------
  [[nodiscard]] const std::string& owner() const { return owner_; }
  struct Counters {
    std::uint64_t applied = 0;          // updates applied to the table
    std::uint64_t admitted_in_wait = 0; // applied while blocked in wait
    std::uint64_t dropped_local_priority = 0;
    std::uint64_t dropped_keep = 0;
  };
  [[nodiscard]] Counters counters() const;

  // Live key count (declared props + defined data) for the cost profile's
  // per-table rows.
  [[nodiscard]] std::size_t key_count() const;

  // Full-content dump for tests and checkpoint inspection.
  [[nodiscard]] std::string debug_string() const;

 private:
  friend class TableView;

  bool prop_unlocked(Symbol name) const;
  bool has_prop_unlocked(Symbol name) const;
  Status apply_unlocked(const Update& update, bool in_wait);
  void observe_applied(Symbol key);
  void notify_change(Symbol key, Change change);

  // WAL plumbing (all called with mu_ held). wal_append buffers a record;
  // wal_commit syncs buffered records and compacts when the log is due.
  void wal_append(WalRecord rec);
  void wal_commit();
  [[nodiscard]] DurableState durable_state_unlocked() const;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::string owner_;

  std::unordered_map<Symbol, bool> props_;
  // data_ holds the payload; defined_ tracks which names are non-undef.
  std::unordered_map<Symbol, SerializedValue> data_;
  std::unordered_set<Symbol> defined_;

  // Pending updates carry an arrival stamp; local writes stamp the same
  // counter so end_run can drop exactly those pending updates that the
  // local write overwrote (arrived before it), not later ones.
  struct Pending {
    Update update;
    std::uint64_t stamp;
  };
  bool local_priority_ = true;
  std::vector<Pending> pending_;
  std::uint64_t epoch_ = 0;
  std::unordered_map<Symbol, std::uint64_t> locally_written_;
  bool running_ = false;
  // Concurrent waits happen when parallel composition fans out inside one
  // junction body (Fig 13's per-back-end waits); each waiter registers its
  // admit set. interrupt() is sticky until the next begin_run.
  std::vector<const std::unordered_set<Symbol>*> admits_;
  bool interrupted_ = false;
  Counters counters_;

  Wal* wal_ = nullptr;

  obs::TraceSink* trace_ = nullptr;
  obs::Counter* applied_metric_ = nullptr;
  Symbol obs_instance_;
  Symbol obs_junction_;
  ChangeListener change_listener_;
};

}  // namespace csaw
