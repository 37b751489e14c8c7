#include "kb/store.hpp"

#include <algorithm>

namespace myrtus::kb {

std::int64_t Store::Put(const std::string& key, util::Json value) {
  ++revision_;
  KeyValue& kv = data_[key];
  if (kv.create_revision == 0) {
    kv.key = key;
    kv.create_revision = revision_;
  }
  kv.value = std::move(value);
  kv.mod_revision = revision_;
  kv.version += 1;
  Notify(WatchEvent{WatchEvent::Type::kPut, kv});
  return revision_;
}

std::optional<std::int64_t> Store::Delete(const std::string& key) {
  const auto it = data_.find(key);
  if (it == data_.end()) return std::nullopt;
  ++revision_;
  KeyValue last = it->second;
  last.mod_revision = revision_;
  data_.erase(it);
  Notify(WatchEvent{WatchEvent::Type::kDelete, std::move(last)});
  return revision_;
}

util::StatusOr<KeyValue> Store::Get(const std::string& key) const {
  const auto it = data_.find(key);
  if (it == data_.end()) return util::Status::NotFound("key: " + key);
  return it->second;
}

std::vector<KeyValue> Store::Range(const std::string& prefix) const {
  std::vector<KeyValue> out;
  for (auto it = data_.lower_bound(prefix);
       it != data_.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    out.push_back(it->second);
  }
  return out;
}

std::int64_t Store::Watch(const std::string& prefix, WatchCallback cb) {
  const std::int64_t id = next_watch_id_++;
  watchers_.push_back(Watcher{id, prefix, std::move(cb)});
  return id;
}

void Store::CancelWatch(std::int64_t watch_id) {
  std::erase_if(watchers_, [&](const Watcher& w) { return w.id == watch_id; });
}

void Store::Notify(const WatchEvent& event) {
  // Copy the watcher list: a callback may add/cancel watches re-entrantly.
  const std::vector<Watcher> snapshot = watchers_;
  for (const Watcher& w : snapshot) {
    if (event.kv.key.compare(0, w.prefix.size(), w.prefix) == 0) {
      w.cb(event);
    }
  }
}

}  // namespace myrtus::kb
