#include "probe.h"

#include <chrono>  // lint-ok: wall-clock
#include <functional>
#include <map>
#include <queue>
#include <unordered_set>
#include <vector>

namespace eant::perfbench {
namespace {

constexpr int kEvents = 120000;
constexpr std::size_t kQueueDepth = 2048;

/// xorshift64: a fixed sequence independent of the library's Rng.
std::uint64_t next(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

std::uint64_t kernel() {
  struct Entry {
    double time;
    std::uint64_t id;
    std::function<void()> fn;
    bool operator>(const Entry& o) const {
      return time != o.time ? time > o.time : id > o.id;
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue;
  std::unordered_set<std::uint64_t> live;
  std::map<std::uint64_t, double> table;
  std::uint64_t s = 0x9e3779b97f4a7c15ULL;
  std::uint64_t next_id = 1;
  std::uint64_t sum = 0;
  double now = 0.0;

  const auto schedule = [&](double delay) {
    const std::uint64_t id = next_id++;
    const std::uint64_t key = next(s) % 65536;
    const std::uint64_t salt = next(s);
    live.insert(id);
    // Four captured words: too large for std::function's small buffer, so
    // each event allocates, as the simulator's callbacks do.
    queue.push({now + delay, id, [&table, &sum, key, salt] {
                  if (auto it = table.find(key); it != table.end()) {
                    sum += static_cast<std::uint64_t>(it->second) ^ salt;
                    table.erase(it);
                  } else {
                    table.emplace(key, static_cast<double>(salt % 4096));
                  }
                }});
  };
  for (std::size_t i = 0; i < kQueueDepth; ++i) {
    schedule(static_cast<double>(next(s) % 1000) / 7.0);
  }
  for (int i = 0; i < kEvents; ++i) {
    Entry entry = queue.top();
    queue.pop();
    live.erase(entry.id);
    now = entry.time;
    entry.fn();
    schedule(static_cast<double>(next(s) % 1000) / 7.0);
  }
  return sum ^ table.size() ^ live.size();
}

}  // namespace

ProbeResult run_probe() {
  const auto t0 = std::chrono::steady_clock::now();  // lint-ok: wall-clock
  const std::uint64_t checksum = kernel();
  const auto t1 = std::chrono::steady_clock::now();  // lint-ok: wall-clock
  return {std::chrono::duration<double>(t1 - t0).count(), checksum};
}

}  // namespace eant::perfbench
