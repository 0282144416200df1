#include "cache/absint.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>

namespace catsched::cache {

namespace {

/// Strict (set, line) order of the entry array.
constexpr bool entry_less(const LineAge& a, const LineAge& b) noexcept {
  return a.set < b.set || (a.set == b.set && a.line < b.line);
}

void insert_at(std::vector<LineAge>& entries, std::size_t at, LineAge e) {
  entries.insert(entries.begin() + static_cast<std::ptrdiff_t>(at), e);
}

void erase_range(std::vector<LineAge>& entries, std::size_t first,
                 std::size_t last) {
  entries.erase(entries.begin() + static_cast<std::ptrdiff_t>(first),
                entries.begin() + static_cast<std::ptrdiff_t>(last));
}

}  // namespace

AbstractCacheState::AbstractCacheState(const CacheConfig& config, Kind kind)
    : config_(config), kind_(kind) {
  ways_ = config.ways();
  if (config.num_lines == 0 || ways_ == 0 ||
      config.num_lines % ways_ != 0) {
    throw std::invalid_argument(
        "AbstractCacheState: lines must be a positive multiple of ways");
  }
  sets_ = config.num_sets();
  if ((sets_ & (sets_ - 1)) == 0) set_mask_ = sets_ - 1;
}

// ------------------------------------------------------------- lookup

inline std::size_t AbstractCacheState::set_first(
    std::uint32_t set) const noexcept {
  // Instruction fetches walk consecutive lines, hence consecutive sets:
  // the set is usually the remembered one or the one right after it.
  if (set == hint_.set) return hint_.first;
  const std::size_t n = entries_.size();
  if (hint_.set < set && (hint_.last == n || set <= entries_[hint_.last].set)) {
    return hint_.last;
  }
  return seek_set(set);
}

std::size_t AbstractCacheState::seek_set(std::uint32_t set) const noexcept {
  // Bisect the side of the remembered set the wanted one lies on.
  const LineAge* d = entries_.data();
  const auto before = [](const LineAge& e, std::uint32_t s) {
    return e.set < s;
  };
  const LineAge* found =
      set < hint_.set
          ? std::lower_bound(d, d + hint_.first, set, before)
          : std::lower_bound(d + hint_.last, d + entries_.size(), set, before);
  return static_cast<std::size_t>(found - d);
}

std::size_t AbstractCacheState::set_end(std::uint32_t set,
                                        std::size_t from) const noexcept {
  // Sets are short (a must set never exceeds the associativity): scan.
  while (from < entries_.size() && entries_[from].set == set) ++from;
  return from;
}

inline AbstractCacheState::Slot AbstractCacheState::locate(
    std::uint64_t line) const noexcept {
  Slot slot;
  slot.set = set_of(line);
  slot.first = set_first(slot.set);
  const bool known_end = slot.set == hint_.set;
  const std::size_t end = known_end ? hint_.last : entries_.size();
  // One pass to the line's position, then on to the set's end.
  const LineAge* d = entries_.data();
  std::size_t i = slot.first;
  while (i < end && d[i].set == slot.set && d[i].line < line) ++i;
  slot.pos = i;
  slot.tracked = i < end && d[i].line == line;
  slot.last = known_end ? end : set_end(slot.set, i);
  return slot;
}

bool AbstractCacheState::contains(std::uint64_t line) const noexcept {
  return locate(line).tracked;
}

std::size_t AbstractCacheState::age(std::uint64_t line) const noexcept {
  const Slot slot = locate(line);
  return slot.tracked ? entries_[slot.pos].age : ways_;
}

inline bool AbstractCacheState::claims(const Slot& slot) const noexcept {
  // Must and may drop a line once its bound reaches the associativity, so
  // only a persistence state can track a line its test rejects.
  return slot.tracked &&
         (kind_ != Kind::persistence || entries_[slot.pos].age < ways_);
}

bool AbstractCacheState::persistent(std::uint64_t line) const noexcept {
  return kind_ == Kind::persistence && claims(locate(line));
}

// ------------------------------------------------------------- access

inline void AbstractCacheState::access_at(std::uint64_t line,
                                          const Slot& slot) {
  hint_ = SetRange(slot.set, slot.first, slot.last);
  // Two updates skip update_set(). A hit on a line already at age 0
  // changes nothing: no must bound is younger than 0, persistence skips its
  // sweep (see update_set), and a may line alone in its set has nothing to
  // age. A direct-mapped must/may miss on a one-entry set replaces that
  // entry. They are 24% of the state updates in perfbench's
  // gen_wcet_tables (set-associative, age-0 hits only) and 54% in
  // gen_search (direct-mapped).
  LineAge* d = entries_.data();
  const std::size_t size = slot.last - slot.first;
  if (slot.tracked) {
    if (d[slot.pos].age == 0 && (kind_ != Kind::may || size == 1)) return;
  } else if (ways_ == 1 && kind_ != Kind::persistence && size == 1) {
    d[slot.first] = LineAge{line, 0, slot.set};
    return;
  }
  hint_.last = update_set(line, slot);
}

void AbstractCacheState::access(std::uint64_t line) {
  access_at(line, locate(line));
}

inline bool AbstractCacheState::claims_then_access(std::uint64_t line) {
  const Slot slot = locate(line);
  const bool claimed = claims(slot);
  access_at(line, slot);
  return claimed;
}

std::size_t AbstractCacheState::update_set(std::uint64_t line,
                                           const Slot& slot) {
  const std::uint32_t set = slot.set;
  const std::size_t first = slot.first;
  const std::size_t last = slot.last;
  const std::size_t pos = slot.pos;
  const bool tracked = slot.tracked;
  const LineAge mru{line, 0, set};
  LineAge* d = entries_.data();
  if (kind_ == Kind::persistence) {
    // Conflict-counter update: every OTHER tracked line of the set took one
    // more conflicting access, saturating at the top (= ways). The sweep is
    // unconditional (see the header for why the must-style conditional
    // variant is unsound) with one certified exception: if the accessed
    // line is tracked at age 0, the set's most recent access was this very
    // line on every covered path, so it is already counted in every other
    // line's bound and re-counting it would only lose precision (this is
    // what keeps refetch bursts like a,a,b,b from saturating the set).
    const std::uint32_t top = static_cast<std::uint32_t>(ways_);
    if (!tracked || d[pos].age != 0) {
      for (std::size_t i = first; i < last; ++i) {
        if (d[i].line != line && d[i].age < top) ++d[i].age;
      }
    }
    if (tracked) {
      d[pos].age = 0;
      return last;
    }
    insert_at(entries_, pos, mru);
    return last + 1;
  }
  if (ways_ == 1) {
    // Direct-mapped: whatever the prior contents, the accessed line evicts
    // every other tracked line (must holds at most one entry; in a may set
    // every other entry has lower bound 0 <= lb(line), so all age out) and
    // the set collapses to {line, age 0} for both kinds.
    if (first == last) {
      insert_at(entries_, first, mru);
    } else {
      d[first] = mru;
      erase_range(entries_, first + 1, last);
    }
    return first + 1;
  }
  const std::uint32_t ways = static_cast<std::uint32_t>(ways_);
  const std::uint32_t accessed_age = tracked ? d[pos].age : ways;
  const bool is_must = kind_ == Kind::must;

  // One in-place compaction pass over the set: age the affected lines,
  // drop evictions, and put the accessed line at age 0 in its sorted slot.
  // Must: lines strictly younger than the accessed line's upper bound age
  // by one (if the accessed line is untracked, everything ages).
  // May: lower bounds advance only when ageing is certain, i.e.
  // lb(m) <= lb(accessed) (see Ferdinand's update; an untracked accessed
  // line is a definite miss, which ages every line).
  std::size_t out = first;
  std::size_t at = first;  // output index of the accessed line
  for (std::size_t i = first; i < last; ++i) {
    LineAge e = d[i];
    if (e.line == line) {
      e.age = 0;
    } else {
      const bool ages = is_must ? e.age < accessed_age
                                : (!tracked || e.age <= accessed_age);
      if (ages && ++e.age >= ways) continue;  // bound hit associativity
    }
    if (e.line < line) at = out + 1;
    d[out++] = e;
  }
  if (!tracked) {
    if (out == last) {
      // Nothing was evicted: the set grows by one.
      insert_at(entries_, at, mru);
      return last + 1;
    }
    // An eviction freed a slot: shift the set's higher lines up by one and
    // write the line in place (a full set stays full).
    std::copy_backward(d + at, d + out, d + out + 1);
    d[at] = mru;
    ++out;
  }
  erase_range(entries_, out, last);
  return out;
}

// ------------------------------------------------------ join and age_set

void AbstractCacheState::join(const AbstractCacheState& other) {
  if (kind_ != other.kind_ || sets_ != other.sets_ || ways_ != other.ways_) {
    throw std::invalid_argument("AbstractCacheState::join: mismatched states");
  }
  const LineAge* b = other.entries_.data();
  const std::size_t nb = other.entries_.size();
  if (kind_ == Kind::must) {
    // Intersection with maximal (most pessimistic) age: one sorted merge
    // written back in place (the result is a subset of this state).
    LineAge* a = entries_.data();
    const std::size_t na = entries_.size();
    std::size_t out = 0;
    for (std::size_t i = 0, j = 0; i < na && j < nb;) {
      if (entry_less(a[i], b[j])) {
        ++i;
      } else if (entry_less(b[j], a[i])) {
        ++j;
      } else {
        LineAge e = a[i++];
        e.age = std::max(e.age, b[j++].age);
        a[out++] = e;
      }
    }
    entries_.resize(out);
  } else {
    union_with(b, nb);
  }
  // The merge moved set boundaries: restart lookups at the first set.
  const std::uint32_t front = entries_.empty() ? 0 : entries_.front().set;
  hint_ = SetRange(front, 0, set_end(front, 0));
}

void AbstractCacheState::union_with(const LineAge* b, std::size_t nb) {
  // May: union with minimal (most optimistic) age. Persistence: union with
  // MAXIMAL age (both are upper bounds on the conflict count); one-sided
  // entries survive — on the path that never accessed the line the
  // first-miss claim is vacuous — but their age is bumped to at least 1:
  // age 0 must keep certifying "most recent access of this set on EVERY
  // joined path" (access() skips its aging sweep on that certificate), and
  // the untracked side cannot vouch.
  const bool persistence = kind_ == Kind::persistence;
  const auto one_sided = [persistence](LineAge e) {
    if (persistence) e.age = std::max(e.age, 1u);
    return e;
  };
  // One merge pass into a fresh array: the union can outgrow this state.
  const LineAge* a = entries_.data();
  const std::size_t na = entries_.size();
  std::vector<LineAge> merged;
  merged.reserve(na + nb);
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < na && j < nb) {
    if (entry_less(a[i], b[j])) {
      merged.push_back(one_sided(a[i++]));
    } else if (entry_less(b[j], a[i])) {
      merged.push_back(one_sided(b[j++]));
    } else {
      LineAge e = a[i++];
      const std::uint32_t theirs = b[j++].age;
      e.age = persistence ? std::max(e.age, theirs) : std::min(e.age, theirs);
      merged.push_back(e);
    }
  }
  for (; i < na; ++i) merged.push_back(one_sided(a[i]));
  for (; j < nb; ++j) merged.push_back(one_sided(b[j]));
  entries_ = std::move(merged);
}

void AbstractCacheState::age_set(std::size_t set_index, std::uint32_t amount) {
  if (set_index >= sets_) {
    throw std::out_of_range("AbstractCacheState::age_set: set out of range");
  }
  if (amount == 0) return;
  const std::uint32_t set = static_cast<std::uint32_t>(set_index);
  const std::size_t first = set_first(set);
  const std::size_t last = set_end(set, first);
  hint_ = SetRange(set, first, last);
  LineAge* d = entries_.data();
  const std::uint32_t ways = static_cast<std::uint32_t>(ways_);
  if (kind_ == Kind::persistence) {
    // Saturating advance: conflict counters cap at the top (= ways) and
    // entries are never dropped (a saturated line is simply no longer
    // persistent; "tracked" must keep meaning "accessed at some point").
    for (std::size_t i = first; i < last; ++i) {
      d[i].age = (amount >= ways || d[i].age >= ways - amount)
                     ? ways
                     : d[i].age + amount;
    }
    return;
  }
  // One compaction pass (same shape as access()): advance every bound,
  // drop entries that reach the associativity. Entries stay sorted by line
  // (ages change uniformly), so no re-sort is needed.
  std::size_t out = first;
  for (std::size_t i = first; i < last; ++i) {
    LineAge e = d[i];
    if (amount >= ways || e.age + amount >= ways) continue;  // evicted
    e.age += amount;
    d[out++] = e;
  }
  erase_range(entries_, out, last);
  hint_.last = out;
}

namespace {

/// splitmix64 finalizer (same avalanche stage core/parallel.hpp uses;
/// replicated locally so the cache layer stays free of core dependencies).
constexpr std::uint64_t hash_mix(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

std::size_t AbstractCacheState::hash() const noexcept {
  // Entries are kept sorted by (set, line), so iterating them yields a
  // canonical sequence: equal states (operator==) produce identical
  // streams.
  const std::uint64_t kind_tag = kind_ == Kind::must  ? 1u
                                 : kind_ == Kind::may ? 2u
                                                      : 3u;
  std::uint64_t h = 0x8f1bbcdcbfa53e0bull ^ kind_tag;
  h = hash_mix(h ^ sets_);
  for (const LineAge& e : entries_) {
    h = hash_mix(h ^ (static_cast<std::uint64_t>(e.set) << 32 ^ e.age));
    h = hash_mix(h ^ e.line);
  }
  return static_cast<std::size_t>(h);
}

const char* to_string(Classification c) noexcept {
  switch (c) {
    case Classification::always_hit:
      return "AH";
    case Classification::always_miss:
      return "AM";
    case Classification::first_miss:
      return "FM";
    case Classification::not_classified:
      return "NC";
  }
  return "?";
}

namespace {

/// AH/AM/FM/NC from the three states' tests on one line: in must, in may,
/// persistent.
constexpr Classification classify_tests(bool in_must, bool in_may,
                                        bool persistent) noexcept {
  if (in_must) return Classification::always_hit;
  if (!in_may) return Classification::always_miss;
  if (persistent) return Classification::first_miss;
  return Classification::not_classified;
}

}  // namespace

CachePair::CachePair(const CacheConfig& config)
    : must_(config, AbstractCacheState::Kind::must),
      may_(config, AbstractCacheState::Kind::may),
      persistence_(config, AbstractCacheState::Kind::persistence) {}

Classification CachePair::classify(std::uint64_t line) const noexcept {
  return classify_tests(must_.contains(line), may_.contains(line),
                        persistence_.persistent(line));
}

void CachePair::access(std::uint64_t line) {
  must_.access(line);
  may_.access(line);
  persistence_.access(line);
}

Classification CachePair::classify_and_access(std::uint64_t line) {
  // classify() then access(), locating the line once per state.
  const bool in_must = must_.claims_then_access(line);
  const bool in_may = may_.claims_then_access(line);
  const bool persistent = persistence_.claims_then_access(line);
  return classify_tests(in_must, in_may, persistent);
}

void CachePair::reset_persistence() {
  persistence_ =
      AbstractCacheState(must_.config(), AbstractCacheState::Kind::persistence);
}

void CachePair::join(const CachePair& other) {
  must_.join(other.must_);
  may_.join(other.may_);
  persistence_.join(other.persistence_);
}

std::size_t CachePair::hash() const noexcept {
  const std::uint64_t phi = 0x9e3779b97f4a7c15ull;
  std::uint64_t h = must_.hash() * phi ^ may_.hash();
  return static_cast<std::size_t>(h * phi ^ persistence_.hash());
}

}  // namespace catsched::cache
