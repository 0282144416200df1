#pragma once
/// \file absint.hpp
/// \brief Abstract-interpretation cache domains for set-associative LRU
///        caches: the classic must/may age analyses of Ferdinand & Wilhelm
///        (the technique behind the static WCET tools the paper cites as
///        [12]/[13]) plus a persistence ("first-miss") domain. A must state
///        underapproximates cache contents (line present => guaranteed
///        hit); a may state overapproximates them (line absent =>
///        guaranteed miss); a persistence state bounds, per tracked line,
///        how many conflicting accesses hit its set since the line's last
///        access — if that bound stays below the associativity the line can
///        never have been evicted after a load, so every access point to it
///        misses at most ONCE over the analyzed execution (the FM
///        classification cache/static_wcet charges as one miss plus hits).
///        The persistence state is RUN-LOCAL: every analysis starts it
///        empty (cache/static_wcet resets it at entry), because "not
///        accessed yet in this run" is true at the start of every run
///        whatever the concrete entry cache holds — see the Kind doc below
///        for why carrying it across runs would also break monotonicity.

#include <cstdint>
#include <vector>

#include "cache/cache_model.hpp"

namespace catsched::cache {

/// One tracked cache line with its age bound. `set` is the line's cache
/// set, stored in what would otherwise be padding: it is the major key of
/// AbstractCacheState's (set, line) entry order, so lookups and merges
/// compare it directly instead of re-deriving it from the line.
struct LineAge {
  std::uint64_t line = 0;
  std::uint32_t age = 0;
  std::uint32_t set = 0;
  bool operator==(const LineAge&) const = default;
};

/// One abstract cache state: per set, an age bound for every tracked line.
/// Kind::must        -> ages are upper bounds, join = intersection, max age.
/// Kind::may         -> ages are lower bounds, join = union, min age.
/// Kind::persistence -> ages are upper bounds on the number of OTHER-line
///                      accesses that hit the line's set since the line's
///                      last access, saturated at the associativity (the
///                      domain top; values therefore span associativity+1
///                      ages, 0..ways). Entries are never dropped — an
///                      untracked line means "not yet accessed on any
///                      covered path of THIS run", which is what makes the
///                      first-miss claim per-execution rather than
///                      per-scope, and why the state must start empty each
///                      run: untracked is not the domain top (at joins a
///                      one-sided entry keeps a small bump while a
///                      tracked-at-top entry forces max = top), so an
///                      entry state carried in from a previous run could
///                      analyze LOOSER than the cold state and break the
///                      warm <= context <= cold ordering. Join = union
///                      with max age; a line tracked on only one side keeps
///                      its age bumped to at least 1 (the untracked path
///                      never accessed it, so the claim is vacuous there,
///                      but the bump is load-bearing: access() skips its
///                      aging sweep only for an age-0 line, which is sound
///                      only if age 0 certifies "most recently accessed in
///                      this set on EVERY path", see access()).
///
/// A line is *persistent* while its persistence age stays strictly below
/// the associativity: fewer than `ways` distinct conflicting lines touched
/// its set since its last access, so under LRU it cannot have been evicted
/// since it was last loaded. Note the deliberately unconditional aging
/// sweep: the classic must-style refinement (age only lines younger than
/// the accessed line) is UNSOUND for persistence — with 2 ways and
/// same-set lines x,y,z the trace z,x,y,z,x really misses twice on x, yet
/// conditional aging would keep age(x) < 2 and wrongly certify it.
///
/// Storage is sparse: one array of LineAge entries sorted by (set, line),
/// holding only the tracked lines, so an empty set costs nothing and a
/// state over a few dozen lines is a few dozen entries whatever the set
/// count. Copy, join (one merge pass over both arrays), == and hash() are
/// linear in the tracked lines — the WCET fixpoint copies, joins and
/// memo-compares states far more often than it touches any one set — and
/// a cold or freshly reset state allocates nothing. Set lookup starts from
/// the set the last update touched: instruction fetches walk consecutive
/// lines, hence consecutive sets, so access() and the classification
/// before it find their set in one or two comparisons (other sets are a
/// bisection). An update that keeps its set's size — a hit at age 0, a
/// direct-mapped miss, a full set that evicts one line to load one —
/// rewrites entries in place.
class AbstractCacheState {
public:
  enum class Kind { must, may, persistence };

  /// Cold must-state over the default CacheConfig (for default-constructed
  /// result aggregates; real analyses always pass an explicit config).
  AbstractCacheState() : AbstractCacheState(CacheConfig{}, Kind::must) {}

  /// Empty (cold) abstract cache.
  /// \throws std::invalid_argument on inconsistent configuration.
  AbstractCacheState(const CacheConfig& config, Kind kind);

  Kind kind() const noexcept { return kind_; }
  const CacheConfig& config() const noexcept { return config_; }

  /// Abstract LRU update for an access to \p line (Ferdinand's transfer
  /// functions: must ages lines strictly younger than the accessed line,
  /// may ages lines at least as young; persistence ages every other
  /// tracked line of the set saturating at `ways` — unconditionally,
  /// except that an access to a line already at age 0 ages nothing, since
  /// age 0 proves the set's most recent access was this very line on every
  /// covered path, so it is already counted in every other line's bound).
  void access(std::uint64_t line);

  /// Must: line is definitely cached. May: line is possibly cached.
  /// Persistence: line was accessed on at least one covered path.
  bool contains(std::uint64_t line) const noexcept;

  /// Age bound of a line, or `ways` if not tracked.
  std::size_t age(std::uint64_t line) const noexcept;

  /// Persistence only: the line was provably never evicted since it was
  /// last loaded (its conflict bound never reached the associativity), so
  /// any access point to it misses at most once over the analyzed run.
  bool persistent(std::uint64_t line) const noexcept;

  /// Join with another state of the same kind and configuration.
  /// \throws std::invalid_argument on kind/config mismatch.
  void join(const AbstractCacheState& other);

  /// Age every tracked line of one set by \p amount: must drops lines
  /// whose bound reaches the associativity; persistence saturates them at
  /// the top instead (entries are never dropped — a saturated line simply
  /// stops being persistent). This is the interference transfer function
  /// of the schedule-dependent WCET derivation (cache/schedule_wcet):
  /// under LRU, `d` distinct conflicting lines inserted by other programs
  /// age a surviving line by at most `d`, so aging a MUST state by an
  /// upper bound on the interfering distinct-line count per set keeps it a
  /// sound under-approximation, and the same count bounds the growth of a
  /// persistence conflict counter. For a MAY state the caller must instead
  /// guarantee \p amount is a lower bound on the interference (aging a may
  /// line discards "possibly cached" facts).
  /// \throws std::out_of_range if set_index is not a valid set.
  void age_set(std::size_t set_index, std::uint32_t amount);

  /// Number of tracked lines over all sets.
  std::size_t tracked_lines() const noexcept { return entries_.size(); }

  /// Strong hash over the exact abstract contents (kind plus every
  /// (set, line, age) entry): equal states hash equal, so states can key
  /// hash maps — the static-WCET subtree memo keys on them.
  std::size_t hash() const noexcept;

  /// Same kind, configuration and tracked entries (the lookup hint is
  /// not part of the abstract value).
  bool operator==(const AbstractCacheState& other) const noexcept {
    return kind_ == other.kind_ && entries_ == other.entries_ &&
           config_ == other.config_;
  }

private:
  // CachePair::classify_and_access tests and updates each state with one
  // lookup (claims_then_access).
  friend class CachePair;

  /// One set and the index range [first, last) of its entries (where it
  /// would be inserted, if empty). Moving a state empties its entries, so
  /// a move clears the source's range with them.
  struct SetRange {
    std::uint32_t set = 0;
    std::size_t first = 0;
    std::size_t last = 0;

    SetRange() = default;
    SetRange(std::uint32_t s, std::size_t f, std::size_t l) noexcept
        : set(s), first(f), last(l) {}
    SetRange(const SetRange&) = default;
    SetRange& operator=(const SetRange&) = default;
    SetRange(SetRange&& other) noexcept : SetRange(other) { other.clear(); }
    SetRange& operator=(SetRange&& other) noexcept {
      *this = other;
      other.clear();
      return *this;
    }
    void clear() noexcept {
      set = 0;
      first = 0;
      last = 0;
    }
  };

  /// Where a line sits: its set's entries [first, last), and the index of
  /// the line's own entry (tracked) or of where it would be inserted.
  struct Slot {
    std::size_t first = 0;
    std::size_t last = 0;
    std::size_t pos = 0;
    std::uint32_t set = 0;
    bool tracked = false;
  };

  std::uint32_t set_of(std::uint64_t line) const noexcept {
    // Caches almost always have a power-of-two set count; the masked path
    // avoids a hardware divide in the innermost fixpoint loop.
    return static_cast<std::uint32_t>(set_mask_ != 0 ? (line & set_mask_)
                                                     : line % sets_);
  }

  /// Index of the set's first entry (where it would go, if empty).
  std::size_t set_first(std::uint32_t set) const noexcept;
  std::size_t seek_set(std::uint32_t set) const noexcept;
  /// End of the set's entries, scanning on from one of them (or its end).
  std::size_t set_end(std::uint32_t set, std::size_t from) const noexcept;
  Slot locate(std::uint64_t line) const noexcept;

  /// This kind's classification test on a located line: contains() for
  /// must and may, persistent() for persistence.
  bool claims(const Slot& slot) const noexcept;
  /// claims() of the line, then access(line), with one lookup.
  bool claims_then_access(std::uint64_t line);
  /// access() of an already located line.
  void access_at(std::uint64_t line, const Slot& slot);
  /// The set update access_at() does not do in place; returns the set's
  /// new end index.
  std::size_t update_set(std::uint64_t line, const Slot& slot);
  /// The may/persistence join over \p other's sorted entries.
  void union_with(const LineAge* other, std::size_t count);

  CacheConfig config_;
  Kind kind_ = Kind::must;
  std::size_t sets_ = 0;
  std::size_t ways_ = 0;
  std::uint64_t set_mask_ = 0;  ///< sets_ - 1 when sets_ is a power of two
  /// Tracked lines sorted by (set, line): the canonical order == and
  /// hash() rely on.
  std::vector<LineAge> entries_;
  /// The set the last access or age_set touched (the first set after a
  /// join): where the next lookup starts. Not part of the abstract value.
  SetRange hint_;
};

/// Static classification of one instruction-fetch access point.
enum class Classification {
  always_hit,      ///< in the must cache: guaranteed hit
  always_miss,     ///< not in the may cache: guaranteed miss
  /// Persistent but not guaranteed cached: the access point misses at most
  /// once over the analyzed run (first-miss). The timing schema charges
  /// it as a hit plus a one-time miss-minus-hit penalty — see
  /// cache/static_wcet.
  first_miss,
  not_classified   ///< none of the above: treated as a miss in WCET bounds
};

const char* to_string(Classification c) noexcept;

/// The must+may+persistence triple every analysis carries around (the
/// static-WCET memo key — see StaticAnalysisMemo — so equality and hash
/// cover all three components).
class CachePair {
public:
  /// Cold pair over the default CacheConfig (see AbstractCacheState()).
  CachePair() : CachePair(CacheConfig{}) {}

  /// Cold triple (all states empty: nothing guaranteed, nothing possible,
  /// nothing ever accessed). "Cold" here means *no line of this program*
  /// can be cached -- the right entry assumption both for a truly empty
  /// cache and for a cache filled by other applications (the paper assumes
  /// no inter-application sharing).
  explicit CachePair(const CacheConfig& config);

  /// Classify an access *before* performing it: AH (must), else AM (not in
  /// may), else FM (persistent: not guaranteed cached now, but provably
  /// never evicted since its last load, so it misses at most once over the
  /// analyzed run), else NC.
  Classification classify(std::uint64_t line) const noexcept;

  /// Perform the access on all three states.
  void access(std::uint64_t line);

  /// Classify, update, and return the classification in one step.
  Classification classify_and_access(std::uint64_t line);

  void join(const CachePair& other);

  /// Interference transfer for the schedule-dependent entry derivation:
  /// age one set of the MUST state (dropping evicted lines); see
  /// AbstractCacheState::age_set. The may state is deliberately untouched
  /// — interference never inserts this program's lines, so the "possibly
  /// cached" superset stays sound, and may only affects AM/NC reporting,
  /// never the cycle bound. The persistence state is untouched as well:
  /// it is run-local (reset at every analysis entry, see
  /// cache/static_wcet), so there is nothing interference could void.
  void age_interference_set(std::size_t set_index, std::uint32_t amount) {
    must_.age_set(set_index, amount);
  }

  /// Drop the whole persistence state back to "nothing accessed yet":
  /// analyze_static_wcet calls this on its entry state so first-miss
  /// guarantees are established per run — true for any concrete entry
  /// cache — instead of being carried (and distorted, see the
  /// AbstractCacheState kind doc) across runs.
  void reset_persistence();

  const AbstractCacheState& must() const noexcept { return must_; }
  const AbstractCacheState& may() const noexcept { return may_; }
  const AbstractCacheState& persistence() const noexcept {
    return persistence_;
  }
  const CacheConfig& config() const noexcept { return must_.config(); }

  /// Combined hash of the three abstract states (AbstractCacheState::hash).
  std::size_t hash() const noexcept;

  bool operator==(const CachePair& other) const = default;

private:
  AbstractCacheState must_;
  AbstractCacheState may_;
  AbstractCacheState persistence_;
};

/// Hash functor so CachePair can key std::unordered_map (the per-(app,
/// entry-state) subtree memo in cache/static_wcet).
struct CachePairHash {
  std::size_t operator()(const CachePair& p) const noexcept {
    return p.hash();
  }
};

}  // namespace catsched::cache
