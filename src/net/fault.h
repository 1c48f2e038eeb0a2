// Copyright (c) 2026 The siri Authors. MIT license.
//
// Deterministic fault injection for the socket RPC path. A FaultInjector
// decides, per *wire attempt* (every frame exchange SocketTransport makes,
// including handshakes and retries, consumes one index), whether that
// attempt is sabotaged and how. Two modes, freely mixed:
//
//   - scripted: ScriptAt(index, action) pins an exact fault at an exact
//     attempt index — the chaos tests sweep "fault kind X at every RPC
//     index" this way, so every failure site is hit deterministically;
//   - random: a seeded xoshiro draw per attempt injects faults at a fixed
//     rate — ChaosThreadedTest and the forked chaos stress
//     (chaos_forked_stress) use this, reproducible from the seed.
//
// The injector is a *client-side* saboteur: it garbles, tears, delays, or
// resets the transport's own traffic, which exercises every server
// hardening path (digest-mismatch rejects, torn-frame connection drops)
// and every client resilience path (reconnect, retry, publish replay)
// without any cooperation from the server. Thread-safe: one
// injector may serve a transport shared by many threads.

#ifndef SIRI_NET_FAULT_H_
#define SIRI_NET_FAULT_H_

#include <cstdint>
#include <map>
#include <memory>

#include "common/mutex.h"
#include "common/random.h"

namespace siri {
namespace net {

enum class FaultKind : uint8_t {
  kNone = 0,
  /// Close the connection before any byte of the request is sent. The
  /// request is definitely not executed; the next attempt reconnects.
  kResetBeforeSend,
  /// Send only half the request frame, then close. The server can never
  /// decode a torn frame (the length prefix says more bytes follow), so
  /// the request is definitely not executed.
  kShortWrite,
  /// Flip one payload byte of the request frame. The server's digest
  /// check rejects the frame ("bad frame: ..." + connection drop) without
  /// executing it.
  kCorruptFrame,
  /// Send the full request, then close before reading the response: the
  /// classic lost-ack. The request may or may not have executed; the
  /// replay is safe either way — a Publish whose original landed is
  /// deduplicated by the server (PublishBatch, version/occ.h).
  kResetAfterSend,
  /// Sleep before sending (a slow client / congested path).
  kDelaySend,
  /// Sleep after sending, before reading (a delayed response delivery).
  kDelayRecv,
};

const char* FaultKindName(FaultKind k);

struct FaultAction {
  FaultKind kind = FaultKind::kNone;
  uint64_t delay_micros = 0;  ///< kDelaySend / kDelayRecv only
  /// kShortWrite only: how many bytes of the request frame to send before
  /// closing. UINT64_MAX (default) keeps the legacy behavior — half the
  /// frame; a scripted value pins the tear at an exact offset boundary
  /// (0 = nothing sent, clamped to the frame size). The regression tests
  /// sweep this across the varint/digest/payload boundaries.
  uint64_t short_write_offset = UINT64_MAX;
};

/// Random-mode configuration: each non-scripted attempt draws one fault
/// with probability `fault_rate`, choosing uniformly among the enabled
/// kinds. Scripted entries always win over the draw at their index.
/// (Namespace-scoped so it is complete where FaultInjector's constructor
/// defaults it — GCC rejects defaulting a nested struct with NSDMIs.)
struct FaultRandomConfig {
  double fault_rate = 0.0;
  uint64_t delay_micros = 2000;  ///< used when a delay kind is drawn
  bool reset_before_send = true;
  bool short_write = true;
  bool corrupt_frame = true;
  bool reset_after_send = true;
  bool delays = true;
};

class FaultInjector {
 public:
  using RandomConfig = FaultRandomConfig;

  explicit FaultInjector(uint64_t seed = 1,
                         RandomConfig config = RandomConfig());

  /// Pins \p action at wire-attempt \p index (0-based, counted across the
  /// injector's lifetime). Replaces any earlier script at that index.
  void ScriptAt(uint64_t index, FaultAction action);

  /// Pins \p action at the next attempt index not yet consumed — the
  /// "fault the very next RPC" convenience the unit tests lean on.
  void ScriptNext(FaultAction action);

  /// The action for the current attempt; consumes one index. Called by
  /// SocketTransport once per wire attempt.
  FaultAction Next();

  struct Stats {
    uint64_t attempts = 0;  ///< wire attempts observed
    uint64_t injected = 0;  ///< attempts sabotaged (any kind)
    uint64_t resets_before_send = 0;
    uint64_t short_writes = 0;
    uint64_t corrupt_frames = 0;
    uint64_t resets_after_send = 0;
    uint64_t delays = 0;
  };
  Stats stats() const EXCLUDES(mu_);

 private:
  FaultAction DrawRandomLocked() REQUIRES(mu_);

  mutable Mutex mu_;
  RandomConfig config_;
  Rng rng_ GUARDED_BY(mu_);
  uint64_t next_index_ GUARDED_BY(mu_) = 0;
  std::map<uint64_t, FaultAction> script_ GUARDED_BY(mu_);
  Stats stats_ GUARDED_BY(mu_);
};

}  // namespace net
}  // namespace siri

#endif  // SIRI_NET_FAULT_H_
