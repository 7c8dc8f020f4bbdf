// Counter-and-reason ledgers (DESIGN.md §13). A ledger type T derives from
// Ledger<T> and lists its std::uint64_t counters once, as {name, &T::field}
// rows in `static constexpr Counter<T> kCounters[]`, plus kReasons (its
// ReasonCounts member) and kReasonLabel if it records reasons. merge,
// for_each and serialize walk that table. The canonical byte form is
// `name=value\n` per counter, then `<label>[<reason>]=<n>\n` in reason order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>
#include <string>
#include <string_view>

namespace origin::util {

// Tallies keyed by a verbatim reason, iterated sorted by reason.
class ReasonCounts {
 public:
  void record(std::string_view reason, std::uint64_t n = 1) {
    auto it = counts_.find(reason);
    // analyze:allow(hot-transitive): first sight of a reason only; a close
    // is off the steady-state path and repeats reuse the node.
    if (it == counts_.end()) it = counts_.emplace(std::string(reason), 0).first;
    it->second += n;
  }
  // The tally for `reason`, 0 when it was never recorded.
  std::uint64_t count(std::string_view reason) const {
    const auto it = counts_.find(reason);
    return it == counts_.end() ? 0 : it->second;
  }
  void merge(const ReasonCounts& other) {
    for (const auto& [reason, n] : other.counts_) record(reason, n);
  }
  bool empty() const { return counts_.empty(); }
  std::size_t size() const { return counts_.size(); }
  auto begin() const { return counts_.begin(); }
  auto end() const { return counts_.end(); }

 private:
  std::map<std::string, std::uint64_t, std::less<>> counts_;
};

template <typename T>
struct Counter {
  std::string_view name;
  std::uint64_t T::*member;
};

template <typename T>
class Ledger {
 public:
  void merge(const T& other) {
    T& self = static_cast<T&>(*this);
    for (const auto& c : T::kCounters) self.*c.member += other.*c.member;
    if constexpr (requires { T::kReasons; }) {
      (self.*T::kReasons).merge(other.*T::kReasons);
    }
  }

  std::string serialize() const {
    std::string out;
    auto line = [&out](std::string_view key, std::uint64_t n) {
      out.append(key).append("=").append(std::to_string(n)).append("\n");
    };
    for_each(line);
    if constexpr (requires { T::kReasons; }) {
      const auto& reasons = static_cast<const T&>(*this).*T::kReasons;
      for (const auto& [reason, n] : reasons) {
        line(std::string(T::kReasonLabel) + '[' + reason + ']', n);
      }
    }
    return out;
  }

  // Calls fn(name, value) for every counter, in table order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    const T& self = static_cast<const T&>(*this);
    for (const auto& c : T::kCounters) fn(c.name, self.*c.member);
  }
};

// True when T::kCounters names every field of T once: distinct rows, and T
// holds nothing but them and its ReasonCounts. Each ledger type
// static_asserts it, so a new counter cannot miss merge or serialize.
template <typename T>
constexpr bool covers() {
  constexpr std::size_t n = std::size(T::kCounters);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (T::kCounters[i].member == T::kCounters[j].member) return false;
    }
  }
  std::size_t reasons = 0;
  if constexpr (requires { T::kReasons; }) reasons = sizeof(ReasonCounts);
  return sizeof(T) == n * sizeof(std::uint64_t) + reasons;
}

}  // namespace origin::util
