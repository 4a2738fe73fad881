// Deterministic, seeded crash injection for crash-fault-tolerance testing.
// Durability-critical code paths declare named kill sites (`CrashPoints::Hit`);
// a test arms ONE site with a hit countdown, runs the system, and the armed
// site tears the operation down in-process by throwing CrashInjected when its
// countdown reaches zero — the moral equivalent of SIGKILL at that exact
// instruction, except the test harness survives to reopen the stores and
// drive recovery. Sites that need to leave a *partially written* artifact
// behind (a torn log record) use the two-step FireNow()/Throw() form so they
// can do their partial damage before unwinding.
//
// Disarmed, every site is a mutex-free early return on one relaxed atomic, so
// shipping the sites in production code costs nothing measurable.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace dcert::common {

/// Thrown by an armed crash site. Catching this anywhere below the test
/// harness and continuing would defeat the simulation, so nothing in the
/// library catches it specifically (generic catch(...) blocks that re-throw
/// after cleanup are fine).
struct CrashInjected : std::runtime_error {
  explicit CrashInjected(std::string site_name)
      : std::runtime_error("crash injected at " + site_name),
        site(std::move(site_name)) {}
  std::string site;
};

/// Process-wide registry of armed crash sites. One site may be armed at a
/// time (a real crash happens once); arming replaces the previous site.
class CrashPoints {
 public:
  static CrashPoints& Global();

  /// Arms `site` to fire on its `countdown`-th hit from now (countdown >= 1;
  /// 1 means the very next hit). Resets hit counters.
  void Arm(const std::string& site, std::uint64_t countdown);

  /// Disarms everything and clears fired/hit state (recovery runs disarmed
  /// unless a test re-arms).
  void Disarm();

  bool Armed() const { return armed_.load(std::memory_order_acquire); }

  /// True when the armed site has fired since the last Arm().
  bool Fired() const;

  /// Plain kill site: throws CrashInjected when this hit fires.
  void Hit(const char* site) {
    if (FireNow(site)) Throw(site);
  }

  /// Two-step kill site for torn-artifact crashes: returns true when this
  /// hit fires; the caller then performs its partial write and calls Throw().
  bool FireNow(const char* site);

  [[noreturn]] static void Throw(const char* site);

  /// Total hits observed for `site` since the last Arm() (coverage checks).
  std::uint64_t HitCount(const std::string& site) const;

 private:
  std::atomic<bool> armed_{false};
  mutable std::mutex mu_;
  std::string site_;
  std::uint64_t countdown_ = 0;  // hits remaining before firing
  bool fired_ = false;
  std::vector<std::pair<std::string, std::uint64_t>> hits_;
};

}  // namespace dcert::common
