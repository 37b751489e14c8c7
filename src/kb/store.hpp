// MVCC key-value store — the applied state machine behind the MYRTUS
// Knowledge Base. Mirrors etcd's data model (the technology the paper
// considers, §III fn.3): monotonically increasing store revision, per-key
// create/mod revisions, prefix range reads, and prefix watches.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "util/json.hpp"
#include "util/status.hpp"

namespace myrtus::kb {

/// A stored value with its MVCC metadata.
struct KeyValue {
  std::string key;
  util::Json value;
  std::int64_t create_revision = 0;
  std::int64_t mod_revision = 0;
  std::int64_t version = 0;  // per-key update counter
};

/// A watch event.
struct WatchEvent {
  enum class Type { kPut, kDelete };
  Type type;
  KeyValue kv;  // for kDelete, `value` is the last value before deletion
};

/// In-memory MVCC store. Single-writer (the Raft apply loop), many readers.
class Store {
 public:
  /// Puts a value; returns the new store revision.
  std::int64_t Put(const std::string& key, util::Json value);
  /// Deletes a key; returns the new revision, or nullopt if absent.
  std::optional<std::int64_t> Delete(const std::string& key);
  /// Point read.
  [[nodiscard]] util::StatusOr<KeyValue> Get(const std::string& key) const;
  /// All keys with the given prefix, in key order.
  [[nodiscard]] std::vector<KeyValue> Range(const std::string& prefix) const;
  /// Number of live keys.
  [[nodiscard]] std::size_t size() const { return data_.size(); }
  /// Current store revision (increments on every mutation).
  [[nodiscard]] std::int64_t revision() const { return revision_; }

  /// --- Watches ---------------------------------------------------------
  using WatchCallback = std::function<void(const WatchEvent&)>;
  /// Registers a prefix watch; returns a watch id for cancellation.
  std::int64_t Watch(const std::string& prefix, WatchCallback cb);
  void CancelWatch(std::int64_t watch_id);

 private:
  void Notify(const WatchEvent& event);

  std::map<std::string, KeyValue> data_;
  std::int64_t revision_ = 0;

  struct Watcher {
    std::int64_t id;
    std::string prefix;
    WatchCallback cb;
  };
  std::vector<Watcher> watchers_;
  std::int64_t next_watch_id_ = 1;
};

}  // namespace myrtus::kb
