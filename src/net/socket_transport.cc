// Copyright (c) 2026 The siri Authors. MIT license.

#include "net/socket_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/varint.h"
#include "crypto/sha256.h"

namespace siri {
namespace net {

namespace {

Status Errno(const char* what) {
  return Status::IOError(std::string(what) + ": " + std::strerror(errno));
}

Status DeadlineError(int timeout_ms) {
  return Status::IOError("rpc deadline exceeded (" +
                         std::to_string(timeout_ms) + "ms)");
}

bool IsDeadlineError(const Status& s) {
  return s.code() == Status::Code::kIOError &&
         s.message().compare(0, 21, "rpc deadline exceeded") == 0;
}

Result<int> DialOnce(const std::string& host, int port) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Errno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    return Status::InvalidArgument("not an IPv4 address: " + host);
  }
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status s = Errno("connect");
    close(fd);
    return s;
  }
  const int one = 1;
  (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // Non-blocking from here on: every send/recv is paired with a poll that
  // honors the per-attempt deadline instead of blocking indefinitely.
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    const Status s = Errno("fcntl(O_NONBLOCK)");
    close(fd);
    return s;
  }
  return fd;
}

/// Handshake failures worth re-dialing for: the wire broke (IO) or the
/// server is shedding load (ResourceExhausted). Typed application rejects
/// — a version mismatch above all — are deterministic and fail fast.
bool RetriableHandshake(const Status& s) {
  return s.code() == Status::Code::kIOError || s.IsResourceExhausted();
}

}  // namespace

SocketTransport::SocketTransport(std::string host, int port, int fd,
                                 Options opts)
    : opts_(std::move(opts)),
      host_(std::move(host)),
      port_(port),
      fd_(fd),
      decoder_(opts_.max_frame_bytes),
      jitter_rng_(opts_.retry.jitter_seed) {}

Status SocketTransport::Connect(const std::string& host, int port,
                                std::shared_ptr<SocketTransport>* out,
                                Options opts) {
  auto fd = DialOnce(host, port);
  for (int waited_ms = 0; !fd.ok() && waited_ms < opts.connect_retry_ms;
       waited_ms += 50) {
    // A forked client can outrun the server's bind; retry briefly.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    fd = DialOnce(host, port);
  }
  if (!fd.ok()) return fd.status();
  std::shared_ptr<SocketTransport> t(
      new SocketTransport(host, port, *fd, opts));
  // Version handshake up front: a non-siri peer or unservable version
  // skew turns into a typed error here instead of a hung or garbled
  // first RPC.
  Status hs;
  {
    MutexLock lock(t->mu_);
    t->connecting_ = true;
    hs = t->HandshakeLocked(lock);
    t->connecting_ = false;
  }
  const int max_attempts = std::max(1, opts.retry.max_attempts);
  for (int attempt = 1; !hs.ok() && opts.auto_reconnect &&
                        attempt < max_attempts && RetriableHandshake(hs);
       ++attempt) {
    t->retries_.fetch_add(1, std::memory_order_relaxed);
    t->BackoffSleep(attempt);
    MutexLock lock(t->mu_);
    t->connecting_ = true;
    hs = t->ReconnectLocked(lock);
    t->connecting_ = false;
  }
  if (!hs.ok()) return hs;
  *out = std::move(t);
  return Status::OK();
}

SocketTransport::~SocketTransport() { Close(); }

void SocketTransport::Close() {
  MutexLock lock(mu_);
  closed_ = true;
  CloseAndFailAllLocked(Status::IOError("transport closed"));
}

void SocketTransport::SetPushSink(PushSink sink) {
  MutexLock lock(sink_mu_);
  push_sink_ = std::move(sink);
}

void SocketTransport::CloseLocked() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
  ++conn_epoch_;
  decoder_ = FrameDecoder(opts_.max_frame_bytes);
}

void SocketTransport::CloseAndFailAllLocked(const Status& error) {
  CloseLocked();
  for (auto& [corr, rpc] : pending_) {
    if (!rpc->done && !rpc->failed) {
      rpc->failed = true;
      rpc->error = error;
    }
  }
  cv_.notify_all();
}

SocketTransport::TimePoint SocketTransport::DeadlineFromNow() const {
  if (opts_.rpc_timeout_ms <= 0) return TimePoint::max();
  return std::chrono::steady_clock::now() +
         std::chrono::milliseconds(opts_.rpc_timeout_ms);
}

Status SocketTransport::PollUnlocked(MutexLock& lock, int fd, short events,
                                     TimePoint deadline) {
  int timeout_ms = -1;
  if (deadline != TimePoint::max()) {
    const auto remain = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - std::chrono::steady_clock::now())
                            .count();
    if (remain <= 0) return DeadlineError(opts_.rpc_timeout_ms);
    timeout_ms = static_cast<int>(std::min<int64_t>(remain, INT32_MAX));
  }
  pollfd p{};
  p.fd = fd;
  p.events = events;
  lock.Unlock();
  const int r = poll(&p, 1, timeout_ms);
  const int saved_errno = errno;
  lock.Lock();
  syscalls_.fetch_add(1, std::memory_order_relaxed);
  // Readiness includes error/hangup revents: return OK and let the next
  // send/recv surface the precise errno.
  if (r > 0) return Status::OK();
  if (r == 0) return DeadlineError(opts_.rpc_timeout_ms);
  if (saved_errno == EINTR) return Status::OK();  // re-check, maybe re-poll
  errno = saved_errno;
  return Errno("poll");
}

void SocketTransport::SleepUnlocked(MutexLock& lock, uint64_t micros) {
  if (micros == 0) return;
  lock.Unlock();
  std::this_thread::sleep_for(std::chrono::microseconds(micros));
  lock.Lock();
}

Status SocketTransport::SendFrameLocked(MutexLock& lock,
                                        const std::string& frame, size_t limit,
                                        TimePoint deadline) {
  const uint64_t epoch = conn_epoch_;
  size_t off = 0;
  while (off < limit) {
    // Whole-attempt deadline, re-checked every iteration: a peer that
    // accepts one byte per call (no EAGAIN ever) must still time out.
    if (deadline != TimePoint::max() &&
        std::chrono::steady_clock::now() >= deadline) {
      return DeadlineError(opts_.rpc_timeout_ms);
    }
    const ssize_t n = send(fd_, frame.data() + off, limit - off, MSG_NOSIGNAL);
    syscalls_.fetch_add(1, std::memory_order_relaxed);
    if (n > 0) {
      off += static_cast<size_t>(n);
      bytes_sent_.fetch_add(static_cast<uint64_t>(n),
                            std::memory_order_relaxed);
      continue;
    }
    if (n == 0) {
      // send() returning 0 on a stream socket is not progress and not
      // EAGAIN; errno is stale here. Treating it as retriable would spin
      // forever — classify as a wire failure (the caller tears down, and
      // the torn/sent boundary decides executed-ness).
      return Status::IOError("send returned 0 (connection unusable)");
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      Status ready = PollUnlocked(lock, fd_, POLLOUT, deadline);
      // The connection may have been torn down by another thread (a
      // fault on its RPC, an explicit Close) while we polled unlocked.
      if (conn_epoch_ != epoch) {
        return Status::IOError("connection reset during send");
      }
      if (!ready.ok()) return ready;
      continue;
    }
    if (errno == EINTR) continue;
    return Errno("send");
  }
  return Status::OK();
}

void SocketTransport::HandleDeadlineMissLocked(PendingRpc* self) {
  deadline_misses_.fetch_add(1, std::memory_order_relaxed);
  const Status miss = DeadlineError(opts_.rpc_timeout_ms);
  if (self->sent_fully && fd_ >= 0) {
    // The request is whole on the wire and the response stream is framed
    // per correlation id — abandon just this id. The owner deregisters it
    // on exit, so the late response is discarded on arrival; every other
    // in-flight RPC keeps its healthy connection.
    self->failed = true;
    self->error = miss;
    return;
  }
  // A mid-send miss (torn frame): the stream cannot be resynced.
  CloseAndFailAllLocked(miss);
}

void SocketTransport::ReadLoopLocked(MutexLock& lock, PendingRpc* self,
                                     TimePoint deadline) {
  const uint64_t epoch = conn_epoch_;
  std::string payload;
  for (;;) {
    if (self->done || self->failed) return;
    if (conn_epoch_ != epoch) return;  // torn down while we polled
    // Dispatch every complete frame already buffered.
    for (;;) {
      auto next = decoder_.Next(&payload);
      if (!next.ok()) {
        CloseAndFailAllLocked(next.status());
        return;
      }
      if (!*next) break;
      Status app;
      std::string body;
      uint64_t corr = 0;
      Status dec = DecodeResponse(payload, &app, &body, &corr);
      if (!dec.ok()) {
        // The response itself is garbage: the stream cannot be trusted.
        CloseAndFailAllLocked(dec);
        return;
      }
      if (corr == 0 && IsBadFrameReject(app)) {
        // The server's connection-wide frame reject (net/wire.h): it
        // executes frames in order, stopped at the bad one, and flushed
        // every earlier response first, so nothing still pending ran;
        // each pending RPC fails with the reject and is replayed.
        CloseAndFailAllLocked(app);
        return;
      }
      auto it = pending_.find(corr);
      if (it != pending_.end() && !it->second->done && !it->second->failed) {
        it->second->app = std::move(app);
        it->second->body = std::move(body);
        it->second->done = true;
      }
      // else: a late response for an abandoned (deadline-missed)
      // correlation id — discard; the stream stays in sync.
      cv_.notify_all();
      if (self->done || self->failed) return;
    }
    char buf[64 * 1024];
    const ssize_t n = recv(fd_, buf, sizeof(buf), 0);
    syscalls_.fetch_add(1, std::memory_order_relaxed);
    if (n > 0) {
      decoder_.Append(buf, static_cast<size_t>(n));
      bytes_received_.fetch_add(static_cast<uint64_t>(n),
                                std::memory_order_relaxed);
      continue;
    }
    if (n == 0) {
      CloseAndFailAllLocked(
          Status::IOError("server closed the connection mid-response"));
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      Status ready = PollUnlocked(lock, fd_, POLLIN, deadline);
      if (conn_epoch_ != epoch) return;
      if (!ready.ok()) {
        if (IsDeadlineError(ready)) {
          HandleDeadlineMissLocked(self);
        } else {
          CloseAndFailAllLocked(ready);
        }
        return;
      }
      continue;
    }
    if (errno == EINTR) continue;
    CloseAndFailAllLocked(Errno("recv"));
    return;
  }
}

Status SocketTransport::ReadHandshakeResponseLocked(MutexLock& lock,
                                                    std::string* payload,
                                                    TimePoint deadline) {
  const uint64_t epoch = conn_epoch_;
  for (;;) {
    auto next = decoder_.Next(payload);
    if (!next.ok()) return next.status();
    if (*next) return Status::OK();
    char buf[64 * 1024];
    const ssize_t n = recv(fd_, buf, sizeof(buf), 0);
    syscalls_.fetch_add(1, std::memory_order_relaxed);
    if (n > 0) {
      decoder_.Append(buf, static_cast<size_t>(n));
      bytes_received_.fetch_add(static_cast<uint64_t>(n),
                                std::memory_order_relaxed);
      continue;
    }
    if (n == 0) {
      return Status::IOError("server closed the connection mid-response");
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      Status ready = PollUnlocked(lock, fd_, POLLIN, deadline);
      if (conn_epoch_ != epoch) {
        return Status::IOError("connection reset during handshake");
      }
      if (!ready.ok()) return ready;
      continue;
    }
    if (errno == EINTR) continue;
    return Errno("recv");
  }
}

Status SocketTransport::HandshakeLocked(MutexLock& lock) {
  // Exclusive access to the connection is guaranteed by connecting_, so
  // no pending/corr machinery is involved.
  rpcs_.fetch_add(1, std::memory_order_relaxed);
  FaultAction fault;
  if (opts_.fault) fault = opts_.fault->Next();
  const TimePoint deadline = DeadlineFromNow();

  if (fault.kind == FaultKind::kResetBeforeSend) {
    CloseLocked();
    return Status::IOError("injected fault: connection reset before send");
  }
  if (fault.kind == FaultKind::kDelaySend) {
    SleepUnlocked(lock, fault.delay_micros);
    if (fd_ < 0) return Status::IOError("connection reset during handshake");
  }

  Request hello;
  hello.type = MsgType::kHello;
  hello.version = kWireVersion;
  std::string frame = EncodeFrame(EncodeRequest(hello));
  if (fault.kind == FaultKind::kCorruptFrame) {
    frame.back() = static_cast<char>(frame.back() ^ 0x01);
  }
  if (fault.kind == FaultKind::kShortWrite) {
    const size_t limit =
        fault.short_write_offset == UINT64_MAX
            ? frame.size() / 2
            : std::min<size_t>(fault.short_write_offset, frame.size());
    (void)SendFrameLocked(lock, frame, limit, deadline);
    CloseLocked();
    return Status::IOError("injected fault: short write");
  }

  Status sent = SendFrameLocked(lock, frame, frame.size(), deadline);
  if (!sent.ok()) {
    if (IsDeadlineError(sent)) {
      deadline_misses_.fetch_add(1, std::memory_order_relaxed);
    }
    CloseLocked();
    return sent;
  }
  if (fault.kind == FaultKind::kResetAfterSend) {
    CloseLocked();
    return Status::IOError("injected fault: connection reset after send");
  }
  if (fault.kind == FaultKind::kDelayRecv) {
    SleepUnlocked(lock, fault.delay_micros);
    if (fd_ < 0) return Status::IOError("connection reset during handshake");
  }

  std::string payload;
  Status read = ReadHandshakeResponseLocked(lock, &payload, deadline);
  if (!read.ok()) {
    if (IsDeadlineError(read)) {
      deadline_misses_.fetch_add(1, std::memory_order_relaxed);
    }
    CloseLocked();
    return read;
  }
  Status app;
  uint32_t server_version = 0;
  Status decoded = DecodeHelloResponse(payload, &app, &server_version);
  if (!decoded.ok() || !app.ok()) {
    CloseLocked();
    return decoded.ok() ? app : decoded;
  }
  if (server_version != kWireVersion) {
    CloseLocked();
    return Status::InvalidArgument(
        "wire version mismatch: server speaks v" +
        std::to_string(server_version) + ", client speaks v" +
        std::to_string(kWireVersion));
  }
  return Status::OK();
}

Status SocketTransport::ReconnectLocked(MutexLock& lock) {
  CloseLocked();
  lock.Unlock();
  auto fd = DialOnce(host_, port_);
  lock.Lock();
  if (!fd.ok()) return fd.status();
  if (closed_) {  // raced an explicit Close while dialing unlocked
    close(*fd);
    return Status::IOError("transport closed");
  }
  fd_ = *fd;
  // A fresh connection starts a fresh stream: stale half-frames from the
  // old one must never prefix the new one's responses.
  decoder_ = FrameDecoder(opts_.max_frame_bytes);
  Status hs = HandshakeLocked(lock);
  if (!hs.ok()) {
    CloseLocked();
    return hs;
  }
  reconnects_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

SocketTransport::AttemptResult SocketTransport::CallOnce(Request* req) {
  // One monotonic budget for the whole attempt: admission + reconnect +
  // send + receive. Dribbling progress never resets it.
  const TimePoint deadline = DeadlineFromNow();
  MutexLock lock(mu_);
  AttemptResult out;

  // --- admission: a live connection, a free slot, the sender token ----
  for (;;) {
    if (closed_) {
      out.permanent = true;
      out.error = Status::IOError("transport closed");
      return out;
    }
    if (fd_ < 0) {
      if (!opts_.auto_reconnect) {
        out.permanent = true;
        out.error = Status::IOError("transport closed");
        return out;
      }
      // Reconnect only once the dead connection's RPCs have drained —
      // their owners wake immediately (CloseAndFailAll marked them) and
      // deregister, so this is a brief window, not a stall.
      if (!connecting_ && !sender_active_ && !reader_active_ &&
          pending_.empty()) {
        connecting_ = true;
        Status rc = ReconnectLocked(lock);
        connecting_ = false;
        cv_.notify_all();
        if (!rc.ok()) {
          out.error = std::move(rc);  // nothing to send on: retry
          return out;
        }
        continue;  // re-evaluate admission on the fresh connection
      }
    } else if (!connecting_ && !sender_active_ &&
               inflight_ < std::max(1, opts_.max_inflight)) {
      break;  // admitted
    }
    if (deadline == TimePoint::max()) {
      cv_.wait(lock.native());
    } else if (cv_.wait_until(lock.native(), deadline) ==
               std::cv_status::timeout) {
      // Timed out before sending a byte: a deadline miss, and the
      // cheapest kind to retry.
      deadline_misses_.fetch_add(1, std::memory_order_relaxed);
      out.error = DeadlineError(opts_.rpc_timeout_ms);
      return out;
    }
  }

  // --- claim the slot, register the correlation id, send -------------
  sender_active_ = true;
  ++inflight_;
  PendingRpc rpc;
  rpc.corr = next_corr_++;
  req->corr_id = rpc.corr;
  pending_[rpc.corr] = &rpc;
  rpcs_.fetch_add(1, std::memory_order_relaxed);

  FaultAction fault;
  if (opts_.fault) fault = opts_.fault->Next();

  if (fault.kind == FaultKind::kResetBeforeSend) {
    CloseAndFailAllLocked(
        Status::IOError("injected fault: connection reset before send"));
  } else {
    if (fault.kind == FaultKind::kDelaySend) {
      SleepUnlocked(lock, fault.delay_micros);
    }
    if (!rpc.failed && fd_ >= 0) {
      std::string frame = EncodeFrame(EncodeRequest(*req));
      if (fault.kind == FaultKind::kCorruptFrame) {
        // Flip a payload byte (never the length varint, which could
        // leave the server waiting forever): the digest check rejects
        // deterministically.
        frame.back() = static_cast<char>(frame.back() ^ 0x01);
      }
      if (fault.kind == FaultKind::kShortWrite) {
        // A torn frame can never execute — the length prefix promises
        // bytes that will not come. The scripted offset pins the tear
        // exactly; an offset at (or clamped to) the full frame size
        // delivered everything, so the server executes it and only the
        // ack is lost. Either way the attempt fails and is replayed.
        const size_t limit =
            fault.short_write_offset == UINT64_MAX
                ? frame.size() / 2
                : std::min<size_t>(fault.short_write_offset, frame.size());
        (void)SendFrameLocked(lock, frame, limit, deadline);
        CloseAndFailAllLocked(Status::IOError("injected fault: short write"));
      } else {
        Status sent = SendFrameLocked(lock, frame, frame.size(), deadline);
        if (sent.ok()) {
          rpc.sent_fully = true;
          if (fault.kind == FaultKind::kResetAfterSend) {
            CloseAndFailAllLocked(Status::IOError(
                "injected fault: connection reset after send"));
          }
        } else if (!rpc.failed) {
          // Nothing or a torn prefix left the socket: the torn stream
          // position is unrecoverable for everyone.
          if (IsDeadlineError(sent)) {
            deadline_misses_.fetch_add(1, std::memory_order_relaxed);
          }
          CloseAndFailAllLocked(sent);
        }
      }
    } else if (!rpc.failed) {
      rpc.failed = true;
      rpc.error = Status::IOError("connection reset during send");
    }
  }
  sender_active_ = false;
  cv_.notify_all();

  if (rpc.sent_fully && fault.kind == FaultKind::kDelayRecv) {
    SleepUnlocked(lock, fault.delay_micros);
  }

  // --- await the matching response -----------------------------------
  while (!rpc.done && !rpc.failed) {
    if (!reader_active_) {
      reader_active_ = true;
      ReadLoopLocked(lock, &rpc, deadline);
      reader_active_ = false;
      cv_.notify_all();
      continue;
    }
    if (deadline == TimePoint::max()) {
      cv_.wait(lock.native());
    } else if (cv_.wait_until(lock.native(), deadline) ==
               std::cv_status::timeout) {
      HandleDeadlineMissLocked(&rpc);
      break;
    }
  }

  // --- deregister ----------------------------------------------------
  pending_.erase(rpc.corr);
  --inflight_;
  cv_.notify_all();

  if (rpc.failed) {
    out.error = std::move(rpc.error);
    return out;
  }
  if (rpc.app.IsResourceExhausted() && !IsDegradedReject(rpc.app)) {
    // Overload shed: the server refused before executing and closes the
    // connection after the reject. Back off and re-dial. A degraded-store
    // reject (kDegradedPrefix) is NOT this case: the server's disk fault
    // is sticky, so the typed error goes straight to the caller below —
    // retrying against a read-only server is a hang with extra steps.
    CloseAndFailAllLocked(
        Status::IOError("connection dropped after overload reject"));
    out.error = std::move(rpc.app);
    return out;
  }
  out.responded = true;
  out.app = std::move(rpc.app);
  out.body = std::move(rpc.body);
  return out;
}

void SocketTransport::BackoffSleep(int attempt) {
  int64_t delay_ms = std::max(1, opts_.retry.backoff_init_ms);
  const int64_t cap = std::max<int64_t>(delay_ms, opts_.retry.backoff_max_ms);
  for (int i = 1; i < attempt && delay_ms < cap; ++i) delay_ms *= 2;
  delay_ms = std::min(delay_ms, cap);
  uint64_t draw;
  {
    MutexLock lock(mu_);
    draw = jitter_rng_.Next();
  }
  // Jitter into [delay/2, delay] so a fleet of clients spreads its retries.
  const int64_t low = delay_ms / 2;
  const int64_t sleep_ms =
      low + static_cast<int64_t>(draw % static_cast<uint64_t>(delay_ms - low + 1));
  std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
}

Result<std::string> SocketTransport::Call(Request* req) {
  const int max_attempts = std::max(1, opts_.retry.max_attempts);
  Status last = Status::IOError("no wire attempt made");
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (attempt > 0) {
      retries_.fetch_add(1, std::memory_order_relaxed);
      BackoffSleep(attempt);
    }
    AttemptResult r = CallOnce(req);
    if (r.responded) {
      if (!r.app.ok()) return r.app;
      return std::move(r.body);
    }
    last = std::move(r.error);
    // Every failed attempt is safe to replay, whether or not the server
    // ran it: reads and content-addressed writes re-store identical bytes,
    // and a Publish whose original landed is deduplicated server-side
    // (PublishBatch, version/occ.h).
    if (r.permanent || !opts_.auto_reconnect) return last;
  }
  return Status::Unavailable("retry policy exhausted after " +
                             std::to_string(max_attempts) +
                             " attempts; last: " + last.ToString());
}

Result<std::shared_ptr<const std::string>> SocketTransport::Get(
    const Hash& h) {
  Request req;
  req.type = MsgType::kGet;
  req.hash = h;
  auto body = Call(&req);
  if (!body.ok()) return body.status();
  return std::make_shared<const std::string>(std::move(*body));
}

Result<bool> SocketTransport::Contains(const Hash& h) {
  Request req;
  req.type = MsgType::kContains;
  req.hash = h;
  auto body = Call(&req);
  if (!body.ok()) return body.status();
  if (body->size() != 1) return Status::Corruption("contains body");
  return (*body)[0] != 0;
}

Result<uint64_t> SocketTransport::SizeOf(const Hash& h) {
  Request req;
  req.type = MsgType::kSizeOf;
  req.hash = h;
  auto body = Call(&req);
  if (!body.ok()) return body.status();
  Slice in(*body);
  uint64_t size = 0;
  if (!GetVarint64(&in, &size) || !in.empty()) {
    return Status::Corruption("sizeof body");
  }
  return size;
}

Result<Hash> SocketTransport::Put(Slice bytes) {
  Request req;
  req.type = MsgType::kPut;
  req.bytes.assign(bytes.data(), bytes.size());
  auto body = Call(&req);
  if (!body.ok()) return body.status();
  Slice in(*body);
  Hash h;
  if (!GetHash(&in, &h) || !in.empty()) return Status::Corruption("put body");
  return h;
}

Status SocketTransport::PutMany(const NodeBatch& batch) {
  if (batch.empty()) return Status::OK();
  Request req;
  req.type = MsgType::kPutMany;
  req.batch = batch;  // shares the node byte buffers, no copy
  return Call(&req).status();
}

Status SocketTransport::Flush() {
  Request req;
  req.type = MsgType::kFlush;
  return Call(&req).status();
}

Result<NodeStore::Stats> SocketTransport::StoreStats() {
  Request req;
  req.type = MsgType::kStoreStats;
  auto body = Call(&req);
  if (!body.ok()) return body.status();
  NodeStore::Stats s;
  Status decoded = DecodeStoreStatsBody(*body, &s);
  if (!decoded.ok()) return decoded;
  return s;
}

Status SocketTransport::ResetServerOpCounters() {
  Request req;
  req.type = MsgType::kResetCounters;
  return Call(&req).status();
}

Result<Hash> SocketTransport::Head(const std::string& branch) {
  Request req;
  req.type = MsgType::kHead;
  req.branch = branch;
  auto body = Call(&req);
  if (!body.ok()) return body.status();
  Slice in(*body);
  Hash h;
  if (!GetHash(&in, &h) || !in.empty()) {
    return Status::Corruption("head body");
  }
  return h;
}

void SocketTransport::DeliverPush(const NodeBatch& pushed) {
  if (pushed.empty()) return;
  // The socket is a trust boundary: re-digest every pushed record and
  // drop mismatches — a corrupt (or malicious) server must not be able
  // to poison the client's content-addressed cache.
  NodeBatch verified;
  verified.reserve(pushed.size());
  uint64_t bytes = 0;
  for (const NodeRecord& rec : pushed) {
    if (rec.bytes == nullptr) continue;
    if (Sha256::Digest(*rec.bytes) != rec.hash) continue;
    bytes += rec.bytes->size();
    verified.push_back(rec);
  }
  if (verified.empty()) return;
  PushSink sink;
  {
    MutexLock lock(sink_mu_);
    sink = push_sink_;
  }
  if (!sink) return;
  sink(verified);
  pushed_nodes_.fetch_add(verified.size(), std::memory_order_relaxed);
  pushed_bytes_.fetch_add(bytes, std::memory_order_relaxed);
}

Result<PublishResult> SocketTransport::Publish(const PublishRequest& pub) {
  Request req;
  req.type = MsgType::kPublish;
  req.structure = pub.structure;
  req.branch = pub.branch;
  req.new_root = pub.new_root;
  req.author = pub.author;
  req.message = pub.message;
  req.expected_head = pub.expected_head;
  req.want_push = opts_.cache_push;
  auto body = Call(&req);
  if (!body.ok()) return body.status();
  WirePublishResult wire;
  Status decoded = DecodePublishResultBody(*body, &wire);
  if (!decoded.ok()) return decoded;
  DeliverPush(wire.pushed);
  PublishResult out;
  out.head = wire.head;
  out.commit = wire.commit;
  out.cas_failures = wire.cas_failures;
  out.merge_commits = wire.merge_commits;
  return out;
}

Result<BranchStats> SocketTransport::GetBranchStats(const std::string& branch) {
  Request req;
  req.type = MsgType::kBranchStats;
  req.branch = branch;
  auto body = Call(&req);
  if (!body.ok()) return body.status();
  BranchStats s;
  Status decoded = DecodeBranchStatsBody(*body, &s);
  if (!decoded.ok()) return decoded;
  return s;
}

Result<std::vector<std::string>> SocketTransport::ListBranches() {
  Request req;
  req.type = MsgType::kListBranches;
  auto body = Call(&req);
  if (!body.ok()) return body.status();
  std::vector<std::string> branches;
  Status decoded = DecodeStringListBody(*body, &branches);
  if (!decoded.ok()) return decoded;
  return branches;
}

Transport::Stats SocketTransport::stats() const {
  Stats out;
  out.rpcs = rpcs_.load(std::memory_order_relaxed);
  out.bytes_sent = bytes_sent_.load(std::memory_order_relaxed);
  out.bytes_received = bytes_received_.load(std::memory_order_relaxed);
  out.syscalls = syscalls_.load(std::memory_order_relaxed);
  out.retries = retries_.load(std::memory_order_relaxed);
  out.reconnects = reconnects_.load(std::memory_order_relaxed);
  out.deadline_misses = deadline_misses_.load(std::memory_order_relaxed);
  out.pushed_nodes = pushed_nodes_.load(std::memory_order_relaxed);
  out.pushed_bytes = pushed_bytes_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace net
}  // namespace siri
