// Deterministic fault injection for the pipeline (DESIGN.md §5e).
//
// Two halves:
//
//  1. In-library fault points. Library code marks the places where a
//     deployment fails (a worker stalling mid-item, the session sink
//     throwing) with VPSCOPE_FAULTPOINT(point). In normal builds the macro
//     compiles to nothing — zero code, zero branches. The `faults` test
//     lane links `vpscope_pipeline_faults`, the same sources compiled with
//     -DVPSCOPE_FAULT_INJECTION=1, where the macro consults the process-wide
//     Registry: tests arm a Point with a Plan (fire at hit `start`, then
//     every `period`-th hit, at most `limit` times) and the point throws
//     InjectedFault or stalls for a fixed duration at exactly those hits.
//     Hit counting is per-point and atomic, so a schedule is deterministic
//     whenever the hits of that point are ordered (each point below is only
//     reached from a single thread per pipeline object).
//
//     The same build carries one observation tap: VPSCOPE_DATAGRAM_TAP
//     hands each datagram a sharded worker is about to decode to a
//     test-installed function, so a test can check the bytes that crossed
//     the shard arena.
//
//  2. Harness-side stream mangling. PacketMangler rewrites a packet vector
//     the way a hostile capture feed would — duplicates, drops, bounded
//     reorders, and backwards timestamp warps — from a seeded schedule, so
//     a test can feed the same mangled stream to the single-threaded
//     reference and the sharded pipeline and compare outputs exactly.
//     It needs no build flag; it never touches library internals.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "net/packet.hpp"

namespace vpscope::pipeline::fault {

/// Places in the library where a fault can be injected.
enum class Point : int {
  WorkerItem,  // sharded worker, before processing each dequeued item
  SinkEmit,    // VideoFlowPipeline::finalize, before invoking the sink
  // ---- model lifecycle (DESIGN.md §5j) ----
  LifecycleLoad,      // ModelLifecycle::offer_file, each bundle read attempt
  LifecycleValidate,  // ModelLifecycle admission, before parse/validation
  LifecycleSwap,      // ModelLifecycle::publish, before the generation store
  LifecycleRetire,    // ModelLifecycle::collect, before freeing a generation
  LifecyclePublish,   // pipeline::save_bank, between tmp write and rename
  kCount,
};

/// The exception every throwing fault point raises; tests catch (and the
/// worker's containment path counts) exactly this type.
struct InjectedFault : std::runtime_error {
  InjectedFault() : std::runtime_error("vpscope injected fault") {}
};

/// What a fault point does when its schedule fires.
struct Plan {
  enum class Action : std::uint8_t {
    None,   // disarmed
    Throw,  // throw InjectedFault
    Stall,  // sleep for stall_ms (a stuck worker / slow sink)
  };
  Action action = Action::None;
  std::uint64_t start = 0;   // 0-based hit index of the first firing
  std::uint64_t period = 0;  // 0: fire once; else every period-th hit after
  std::uint64_t limit = 1;   // maximum number of firings
  std::uint64_t stall_ms = 0;
};

/// Process-wide fault registry. Tests arm/disarm; instrumented library code
/// calls act() through the VPSCOPE_FAULTPOINT macro. All methods are
/// thread-safe; counters are monotonically increasing atomics.
class Registry {
 public:
  static Registry& instance() {
    static Registry registry;
    return registry;
  }

  void arm(Point point, Plan plan) {
    State& s = state(point);
    s.hits.store(0, std::memory_order_relaxed);
    s.fires.store(0, std::memory_order_relaxed);
    s.action.store(static_cast<int>(plan.action), std::memory_order_relaxed);
    s.start = plan.start;
    s.period = plan.period;
    s.limit = plan.limit;
    s.stall_ms = plan.stall_ms;
  }

  void disarm_all() {
    for (auto& s : states_)
      s.action.store(static_cast<int>(Plan::Action::None),
                     std::memory_order_relaxed);
  }

  /// Number of times the point was reached / actually fired.
  std::uint64_t hits(Point point) const {
    return state(point).hits.load(std::memory_order_relaxed);
  }
  std::uint64_t fires(Point point) const {
    return state(point).fires.load(std::memory_order_relaxed);
  }

  /// Observation tap (see the header comment); nullptr uninstalls. The
  /// function runs on worker threads and must be thread-safe.
  using DatagramTap = void (*)(int shard, ByteView datagram);
  void set_datagram_tap(DatagramTap tap) {
    datagram_tap_.store(tap, std::memory_order_release);
  }
  void tap_datagram(int shard, ByteView datagram) const {
    if (const DatagramTap tap = datagram_tap_.load(std::memory_order_acquire))
      tap(shard, datagram);
  }

  /// Called by instrumented code at every pass through the point.
  void act(Point point) {
    State& s = state(point);
    const auto action =
        static_cast<Plan::Action>(s.action.load(std::memory_order_relaxed));
    const std::uint64_t hit = s.hits.fetch_add(1, std::memory_order_relaxed);
    if (action == Plan::Action::None) return;
    if (hit < s.start) return;
    const std::uint64_t since = hit - s.start;
    if (s.period == 0 ? since != 0 : since % s.period != 0) return;
    if (s.fires.fetch_add(1, std::memory_order_relaxed) >= s.limit) {
      s.fires.fetch_sub(1, std::memory_order_relaxed);  // limit reached
      return;
    }
    switch (action) {
      case Plan::Action::Throw:
        throw InjectedFault{};
      case Plan::Action::Stall:
        std::this_thread::sleep_for(std::chrono::milliseconds(s.stall_ms));
        break;
      case Plan::Action::None:
        break;
    }
  }

 private:
  struct State {
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> fires{0};
    std::atomic<int> action{static_cast<int>(Plan::Action::None)};
    std::uint64_t start = 0;
    std::uint64_t period = 0;
    std::uint64_t limit = 0;
    std::uint64_t stall_ms = 0;
  };

  State& state(Point point) {
    return states_[static_cast<std::size_t>(point)];
  }
  const State& state(Point point) const {
    return states_[static_cast<std::size_t>(point)];
  }

  std::array<State, static_cast<std::size_t>(Point::kCount)> states_;
  std::atomic<DatagramTap> datagram_tap_{nullptr};
};

/// RAII arm/disarm for one test scope.
class Scoped {
 public:
  Scoped(Point point, Plan plan) { Registry::instance().arm(point, plan); }
  ~Scoped() { Registry::instance().disarm_all(); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
};

/// Seeded dispatch-time stream mangler. Every transform is driven by a
/// deterministic per-index schedule, so two runs over the same input are
/// bit-identical — the property the differential fault tests rely on.
class PacketMangler {
 public:
  struct Config {
    /// Duplicate every `dup_period`-th packet (0 = never). The duplicate is
    /// inserted immediately after the original.
    std::uint64_t dup_period = 0;
    /// Drop every `drop_period`-th packet (0 = never).
    std::uint64_t drop_period = 0;
    /// Swap every `reorder_period`-th packet with its successor (0 = never)
    /// — a bounded window-1 reorder, what a multi-queue NIC produces.
    std::uint64_t reorder_period = 0;
    /// Pull every `timewarp_period`-th packet's timestamp backwards by
    /// `timewarp_us` (0 = never) — a non-monotonic capture clock.
    std::uint64_t timewarp_period = 0;
    std::uint64_t timewarp_us = 1'000'000;
    /// Offsets the schedules so different seeds hit different packets.
    std::uint64_t seed = 1;
  };

  explicit PacketMangler(Config config) : config_(config) {}

  std::vector<net::Packet> mangle(const std::vector<net::Packet>& in) const {
    std::vector<net::Packet> out;
    out.reserve(in.size() + (config_.dup_period
                                 ? in.size() / config_.dup_period + 1
                                 : 0));
    for (std::size_t i = 0; i < in.size(); ++i) {
      if (scheduled(config_.drop_period, i)) continue;
      net::Packet p = in[i];
      if (scheduled(config_.timewarp_period, i)) {
        p.timestamp_us =
            p.timestamp_us > config_.timewarp_us
                ? p.timestamp_us - config_.timewarp_us
                : 0;
      }
      out.push_back(p);
      if (scheduled(config_.dup_period, i)) out.push_back(std::move(p));
    }
    if (config_.reorder_period) {
      for (std::size_t i = 0; i + 1 < out.size(); ++i)
        if (scheduled(config_.reorder_period, i)) {
          std::swap(out[i], out[i + 1]);
          ++i;  // don't re-swap the packet we just moved forward
        }
    }
    return out;
  }

 private:
  bool scheduled(std::uint64_t period, std::uint64_t index) const {
    return period != 0 && (index + config_.seed) % period == 0;
  }

  Config config_;
};

}  // namespace vpscope::pipeline::fault

#if defined(VPSCOPE_FAULT_INJECTION) && VPSCOPE_FAULT_INJECTION
#define VPSCOPE_FAULTPOINT(point) \
  ::vpscope::pipeline::fault::Registry::instance().act(point)
#define VPSCOPE_DATAGRAM_TAP(shard, datagram) \
  ::vpscope::pipeline::fault::Registry::instance().tap_datagram(shard, datagram)
#else
#define VPSCOPE_FAULTPOINT(point) ((void)0)
#define VPSCOPE_DATAGRAM_TAP(shard, datagram) ((void)0)
#endif
