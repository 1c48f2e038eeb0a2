// Copyright (c) 2026 The siri Authors. MIT license.

#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <vector>

#include "common/varint.h"
#include "crypto/hash_pool.h"
#include "store/file_store.h"
#include "system/forkbase.h"
#include "version/group_commit.h"

namespace siri {
namespace net {

namespace {

Status Errno(const char* what) {
  return Status::IOError(std::string(what) + ": " + std::strerror(errno));
}

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// A frame-layer reject: the request inside was never executed, and the
// kBadFramePrefix tells the client's retry layer exactly that (replay is
// safe, even for a Publish).
Status BadFrame(const Status& s) {
  return Status::Corruption(std::string(kBadFramePrefix) + s.message());
}

// writev gather width per call. IOV_MAX is at least 1024 everywhere we
// run, but a modest cap keeps the stack iovec array small; the flush
// loop simply issues another writev for the remainder.
constexpr int kMaxIov = 64;

}  // namespace

SiriServer::SiriServer(ForkbaseServlet* servlet, ServerOptions opts)
    : servlet_(servlet), opts_(opts) {}

SiriServer::~SiriServer() { Stop(); }

Status SiriServer::Listen(int port) {
  if (listen_fd_ >= 0) return Status::InvalidArgument("already listening");
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Errno("socket");
  const int one = 1;
  (void)setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status s = Errno("bind");
    close(fd);
    return s;
  }
  // Backlog: connections queued before accept. Forked client processes
  // may all connect before the server thread first runs.
  if (listen(fd, 64) != 0) {
    const Status s = Errno("listen");
    close(fd);
    return s;
  }
  return AdoptListener(fd);
}

Status SiriServer::AdoptListener(int listen_fd) {
  if (listen_fd_ >= 0) return Status::InvalidArgument("already listening");
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return Errno("getsockname");
  }
  // The accept loop drains the backlog until EAGAIN; a blocking listen
  // socket (which an adopted pre-bound fd usually is) would wedge the
  // event loop on the accept after the last queued connection.
  const int fl = fcntl(listen_fd, F_GETFL, 0);
  if (fl < 0 || fcntl(listen_fd, F_SETFL, fl | O_NONBLOCK) != 0) {
    return Errno("fcntl(O_NONBLOCK)");
  }
  listen_fd_ = listen_fd;
  port_ = ntohs(addr.sin_port);
  return Status::OK();
}

Status SiriServer::Start() {
  if (listen_fd_ < 0) return Status::InvalidArgument("Listen first");
  if (started_) return Status::InvalidArgument("already started");

  // The server-mode half of the group-fsync policy split (ServerOptions):
  // a file-backed store gets the wait-a-little window turned on here, so
  // commits from independent client processes share fsyncs. Embedded
  // users never reach this line and keep the window-off default.
  if (auto* fs = dynamic_cast<FileNodeStore*>(servlet_->store())) {
    fs->set_group_flush_window_micros(opts_.group_flush_window_micros);
  }

  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return Errno("epoll_create1");
  wake_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) return Errno("eventfd");

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) != 0) {
    return Errno("epoll_ctl(listen)");
  }
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    return Errno("epoll_ctl(wake)");
  }

  started_ = true;
  running_.store(true, std::memory_order_release);
  loop_thread_ = std::thread([this] { EventLoop(); });
  const int workers = opts_.worker_threads < 1 ? 1 : opts_.worker_threads;
  workers_.reserve(workers);
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::OK();
}

void SiriServer::Stop() {
  if (!started_) return;
  if (running_.exchange(false, std::memory_order_acq_rel)) {
    const uint64_t one = 1;
    // Best-effort: the loop also wakes on its 500ms epoll timeout.
    (void)!write(wake_fd_, &one, sizeof(one));
  }
  if (loop_thread_.joinable()) loop_thread_.join();
  {
    MutexLock lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  {
    MutexLock lock(mu_);
    for (auto& [fd, conn] : conns_) close(fd);
    conns_.clear();
    ready_.clear();
  }
  if (epoll_fd_ >= 0) close(epoll_fd_);
  if (wake_fd_ >= 0) close(wake_fd_);
  if (listen_fd_ >= 0) close(listen_fd_);
  epoll_fd_ = wake_fd_ = listen_fd_ = -1;
  started_ = false;
}

SiriServer::DrainSummary SiriServer::Drain() {
  DrainSummary out;
  if (!started_) return out;
  const uint64_t requests_before = requests_.load(std::memory_order_relaxed);
  {
    MutexLock lock(mu_);
    out.connections_closed = conns_.size();
  }
  draining_.store(true, std::memory_order_release);
  const uint64_t one = 1;
  (void)!write(wake_fd_, &one, sizeof(one));
  {
    // The event loop sweeps idle connections each tick; workers close
    // their in-flight ones after the response flushes. Both paths signal
    // drain_cv_ when the table empties.
    MutexLock lock(mu_);
    while (!conns_.empty()) drain_cv_.wait(lock.native());
  }
  // Quiesced. Push everything acked to its durability point before the
  // process exits: acked-implies-durable must survive a graceful SIGTERM.
  // Best-effort by design — there is no one left to report a late IO
  // error to, and the store's own fsync discipline already covered every
  // publish ack.
  (void)servlet_->store()->Flush();
  (void)servlet_->branches()->SyncRefs();
  out.inflight_completed =
      requests_.load(std::memory_order_relaxed) - requests_before;
  Stop();
  return out;
}

SiriServer::Stats SiriServer::stats() const {
  Stats out;
  out.connections = connections_.load(std::memory_order_relaxed);
  out.requests = requests_.load(std::memory_order_relaxed);
  out.frame_errors = frame_errors_.load(std::memory_order_relaxed);
  out.bytes_in = bytes_in_.load(std::memory_order_relaxed);
  out.bytes_out = bytes_out_.load(std::memory_order_relaxed);
  out.overload_rejects = overload_rejects_.load(std::memory_order_relaxed);
  out.idle_reaped = idle_reaped_.load(std::memory_order_relaxed);
  out.pushed_nodes = pushed_nodes_.load(std::memory_order_relaxed);
  out.degraded_rejects = degraded_rejects_.load(std::memory_order_relaxed);
  const Status disk = DiskHealth();
  out.degraded = !disk.ok();
  if (!disk.ok()) out.degraded_cause = disk.ToString();
  return out;
}

size_t SiriServer::ActiveConnections() const {
  MutexLock lock(mu_);
  return conns_.size();
}

void SiriServer::SweepConnections(bool idle_only) {
  // Runs only on the event-loop thread: it is the sole setter of `busy`,
  // so a connection observed un-busy here cannot become busy while we
  // hold mu_ and close it.
  const int64_t now = NowMs();
  MutexLock lock(mu_);
  std::vector<int> doomed;
  for (auto& [fd, conn] : conns_) {
    if (conn->busy.load(std::memory_order_acquire)) continue;
    if (idle_only) {
      const int64_t idle =
          now - conn->last_activity_ms.load(std::memory_order_relaxed);
      if (idle < opts_.idle_timeout_ms) continue;
      idle_reaped_.fetch_add(1, std::memory_order_relaxed);
    }
    doomed.push_back(fd);
  }
  for (int fd : doomed) {
    close(fd);  // also removes the fd from the epoll set
    conns_.erase(fd);
  }
  if (conns_.empty()) drain_cv_.notify_all();
}

void SiriServer::EventLoop() {
  epoll_event events[64];
  bool accepting = true;
  while (running_.load(std::memory_order_acquire)) {
    const int n = epoll_wait(epoll_fd_, events, 64, /*timeout_ms=*/500);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll fd gone: shutting down
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        uint64_t drain = 0;
        (void)!read(wake_fd_, &drain, sizeof(drain));
        continue;
      }
      if (fd == listen_fd_) {
        if (!accepting) continue;
        for (;;) {
          const int conn_fd = accept4(listen_fd_, nullptr, nullptr,
                                      SOCK_NONBLOCK | SOCK_CLOEXEC);
          if (conn_fd < 0) break;  // EAGAIN: drained the backlog
          const int one = 1;
          (void)setsockopt(conn_fd, IPPROTO_TCP, TCP_NODELAY, &one,
                           sizeof(one));
          epoll_event cev{};
          // One-shot: the fd stays silent while a worker owns it; the
          // worker re-arms after processing.
          cev.events = EPOLLIN | EPOLLRDHUP | EPOLLONESHOT;
          cev.data.fd = conn_fd;
          {
            MutexLock lock(mu_);
            conns_[conn_fd] = std::make_unique<Connection>(
                conn_fd, opts_.max_frame_bytes, NowMs());
          }
          if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn_fd, &cev) != 0) {
            CloseConnection(conn_fd);
            continue;
          }
          connections_.fetch_add(1, std::memory_order_relaxed);
        }
        continue;
      }
      // A connection is ready: hand it to a worker. It is busy from this
      // moment until that worker re-arms it.
      {
        MutexLock lock(mu_);
        auto it = conns_.find(fd);
        if (it == conns_.end()) continue;  // reaped while queued in epoll
        it->second->busy.store(true, std::memory_order_release);
        ready_.push_back(fd);
      }
      work_cv_.notify_one();
    }
    // Periodic tick work, piggybacked on the 500ms epoll timeout (or any
    // event): reap idle connections, and during a drain stop accepting
    // and close everything no worker owns.
    if (draining_.load(std::memory_order_acquire)) {
      if (accepting) {
        (void)epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
        accepting = false;
      }
      SweepConnections(/*idle_only=*/false);
    } else if (opts_.idle_timeout_ms > 0) {
      SweepConnections(/*idle_only=*/true);
    }
  }
}

void SiriServer::WorkerLoop() {
  for (;;) {
    Connection* conn = nullptr;
    {
      MutexLock lock(mu_);
      while (ready_.empty() && !stopping_) work_cv_.wait(lock.native());
      if (ready_.empty()) return;  // stopping, queue drained
      const int fd = ready_.front();
      ready_.pop_front();
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;  // closed while queued
      conn = it->second.get();
    }
    // The connection is exclusively this worker's until it is re-armed or
    // closed (EPOLLONESHOT keeps the event loop from re-queuing it, and
    // busy keeps the sweeps away).
    bool keep = ProcessConnection(conn);
    // A drain closes the connection once its in-flight work is answered.
    if (keep && draining_.load(std::memory_order_acquire)) keep = false;
    if (keep) {
      conn->last_activity_ms.store(NowMs(), std::memory_order_relaxed);
      // Clear busy and re-arm under the lock: the sweep must never see an
      // un-busy connection in the gap before the fd is back in epoll.
      MutexLock lock(mu_);
      epoll_event ev{};
      ev.events = EPOLLIN | EPOLLRDHUP | EPOLLONESHOT;
      ev.data.fd = conn->fd;
      if (epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev) != 0) {
        const int fd = conn->fd;
        close(fd);
        conns_.erase(fd);
        if (conns_.empty()) drain_cv_.notify_all();
      } else {
        conn->busy.store(false, std::memory_order_release);
      }
    } else {
      CloseConnection(conn->fd);
    }
  }
}

bool SiriServer::ProcessConnection(Connection* conn) {
  // Per-connection in-flight memory bound: the connection's buffer never
  // grows past one maximum frame (plus header room) before the frames in
  // it are executed and their memory reclaimed. A client that streams
  // requests faster than the worker drains them is paused here instead
  // of growing the buffer without limit.
  const uint64_t buffer_cap = opts_.max_frame_bytes + 1024;
  bool peer_closed = false;
  bool would_block = false;
  std::string payload;
  std::vector<std::string> outbox;
  while (!peer_closed && !would_block) {
    // Fill until the socket runs dry, the peer hangs up, or the buffer
    // bound is reached (then: execute first, read more after). Vectored:
    // a pipelining client lands many adjacent frames per wakeup, so give
    // the kernel two pages of gather space per syscall.
    while (conn->decoder.buffered() < buffer_cap) {
      char buf0[64 * 1024];
      char buf1[64 * 1024];
      iovec iov[2];
      iov[0].iov_base = buf0;
      iov[0].iov_len = sizeof(buf0);
      iov[1].iov_base = buf1;
      iov[1].iov_len = sizeof(buf1);
      const ssize_t n = readv(conn->fd, iov, 2);
      if (n > 0) {
        const size_t got = static_cast<size_t>(n);
        conn->decoder.Append(buf0, std::min(got, sizeof(buf0)));
        if (got > sizeof(buf0)) {
          conn->decoder.Append(buf1, got - sizeof(buf0));
        }
        bytes_in_.fetch_add(got, std::memory_order_relaxed);
        continue;
      }
      if (n == 0) {
        // A client that half-closed after sending still gets its final
        // responses: fall through and drain what arrived.
        peer_closed = true;
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        would_block = true;
        break;
      }
      if (errno == EINTR) continue;
      return false;  // connection error
    }

    // Execute every complete frame buffered so far. Responses queue in
    // the outbox and flush coalesced after the batch — one writev burst
    // per round instead of one send per request.
    for (;;) {
      auto next = conn->decoder.Next(&payload);
      if (next.ok() && !*next) break;
      Request req;
      const Status bad =
          next.ok() ? DecodeRequest(payload, &req) : next.status();
      if (!bad.ok()) {
        // Undecodable frame: say why with the bad-frame marker (the
        // request was never executed — the client may safely replay),
        // then hang up. Best-effort — the peer that garbled its stream
        // may not be reading. Earlier queued responses flush first: they
        // answer requests that DID execute. The reject carries id 0 (the
        // request's id is unreadable) and so covers the whole connection.
        frame_errors_.fetch_add(1, std::memory_order_relaxed);
        outbox.push_back(EncodeFrame(
            conn->hello_done ? EncodeResponse(BadFrame(bad), Slice())
                             : EncodeHelloResponse(BadFrame(bad))));
        (void)FlushOutbox(conn, &outbox);
        return false;
      }
      if (req.type == MsgType::kHello) {
        if (opts_.max_connections > 0 &&
            ActiveConnections() > static_cast<size_t>(opts_.max_connections)) {
          // Over capacity: shed this connection with a typed reject the
          // client's retry layer understands (back off, re-dial),
          // delivered as a clean response + FIN rather than an
          // accept-time RST that could discard the explanation.
          overload_rejects_.fetch_add(1, std::memory_order_relaxed);
          outbox.push_back(EncodeFrame(EncodeHelloResponse(
              Status::ResourceExhausted(
                  "server at connection capacity (max " +
                  std::to_string(opts_.max_connections) + ")"))));
          (void)FlushOutbox(conn, &outbox);
          return false;
        }
        // The handshake, handled inline because it writes per-connection
        // state, in the frozen Hello shape (net/wire.h). Exactly one
        // version is spoken; any other gets the typed reject and the
        // connection closes, as the overload reject does.
        requests_.fetch_add(1, std::memory_order_relaxed);
        if (req.version != kWireVersion) {
          outbox.push_back(EncodeFrame(EncodeHelloResponse(
              Status::InvalidArgument(
                  "wire version mismatch: client speaks v" +
                  std::to_string(req.version) + ", server speaks v" +
                  std::to_string(kWireVersion)))));
          (void)FlushOutbox(conn, &outbox);
          return false;
        }
        conn->hello_done = true;
        outbox.push_back(EncodeFrame(EncodeHelloResponse(Status::OK())));
        continue;
      }
      requests_.fetch_add(1, std::memory_order_relaxed);
      Status app;
      std::string body;
      Execute(req, &app, &body);
      outbox.push_back(EncodeFrame(EncodeResponse(app, body, req.corr_id)));
    }
    if (!outbox.empty() && !FlushOutbox(conn, &outbox)) return false;
  }
  return !peer_closed;
}

namespace {

bool IsWriteRequest(MsgType type) {
  return type == MsgType::kPut || type == MsgType::kPutMany ||
         type == MsgType::kFlush || type == MsgType::kPublish;
}

/// The typed reject a degraded server answers writes with: the sticky
/// cause keeps its ResourceExhausted identity (out of space), everything
/// else maps to Unavailable. The kDegradedPrefix is what lets the client
/// fail fast instead of treating the reject as a transient overload.
Status DegradedReject(const Status& cause) {
  const std::string msg = std::string(kDegradedPrefix) + cause.ToString();
  if (cause.IsResourceExhausted()) return Status::ResourceExhausted(msg);
  return Status::Unavailable(msg);
}

}  // namespace

Status SiriServer::DiskHealth() const {
  Status s = servlet_->store()->DiskStatus();
  if (!s.ok()) return s;
  if (RefLog* refs = servlet_->branches()->ref_log()) return refs->DiskStatus();
  return Status::OK();
}

void SiriServer::Execute(const Request& req, Status* app, std::string* body) {
  const bool is_write = IsWriteRequest(req.type);
  if (is_write) {
    // Read-only degraded mode: once the store (or ref log) latched a
    // sticky disk error, no write can be made durable — answer with the
    // typed reject instead of letting the request fail deep in the
    // store. Reads keep serving resident state below.
    Status disk = DiskHealth();
    if (!disk.ok()) {
      degraded_rejects_.fetch_add(1, std::memory_order_relaxed);
      *app = DegradedReject(disk);
      body->clear();
      return;
    }
  }
  ExecuteOp(req, app, body);
  if (is_write && !app->ok()) {
    // This request may be the one that tripped the disk fault: its error
    // surfaced raw from the store (e.g. IOError("fsync ...")). Remap it
    // to the same typed shape every later write will get, so clients see
    // one degraded-mode error, not two.
    Status disk = DiskHealth();
    if (!disk.ok()) *app = DegradedReject(disk);
  }
}

void SiriServer::ExecuteOp(const Request& req, Status* app,
                           std::string* body) {
  *app = Status::OK();
  body->clear();
  switch (req.type) {
    case MsgType::kGet: {
      auto bytes = servlet_->store()->Get(req.hash);
      if (!bytes.ok()) {
        *app = bytes.status();
        return;
      }
      body->assign(**bytes);
      return;
    }
    case MsgType::kContains:
      body->push_back(servlet_->store()->Contains(req.hash) ? 1 : 0);
      return;
    case MsgType::kSizeOf: {
      auto size = servlet_->store()->SizeOf(req.hash);
      if (!size.ok()) {
        *app = size.status();
        return;
      }
      PutVarint64(body, *size);
      return;
    }
    case MsgType::kPut:
      PutHash(body, servlet_->store()->Put(req.bytes));
      return;
    case MsgType::kPutMany: {
      // The socket is a trust boundary: re-digest every uploaded node
      // (in parallel — batches are exactly Sha256Pool's regime) and
      // reject the whole batch on any mismatch, before the store sees
      // it. A corrupted upload must not land in the content-addressed
      // store under a digest it does not hash to.
      std::vector<std::shared_ptr<const std::string>> pages;
      pages.reserve(req.batch.size());
      for (const NodeRecord& rec : req.batch) pages.push_back(rec.bytes);
      const std::vector<Hash> digests = Sha256Pool::Shared().DigestAll(pages);
      for (size_t i = 0; i < req.batch.size(); ++i) {
        if (digests[i] != req.batch[i].hash) {
          *app = Status::InvalidArgument(
              "uploaded node digest mismatch at batch index " +
              std::to_string(i));
          return;
        }
      }
      servlet_->store()->PutMany(req.batch);
      return;
    }
    case MsgType::kFlush:
      *app = servlet_->store()->Flush();
      return;
    case MsgType::kHead: {
      auto head = servlet_->branches()->Head(req.branch);
      if (!head.ok()) {
        *app = head.status();
        return;
      }
      PutHash(body, *head);
      return;
    }
    case MsgType::kPublish: {
      ImmutableIndex* index = servlet_->IndexFor(req.structure);
      if (index == nullptr) {
        *app = Status::NotFound(
            "no server-side index registered for structure '" +
            req.structure + "'");
        return;
      }
      PublishSpec spec;
      spec.index = index;
      spec.branch = req.branch;
      spec.new_root = req.new_root;
      spec.author = req.author;
      spec.message = req.message;
      spec.expected_head = req.expected_head;
      auto landed = servlet_->combiner()->Publish(spec);
      if (!landed.ok()) {
        *app = landed.status();
        return;
      }
      WirePublishResult out;
      out.head = landed->head;
      out.commit = landed->commit;
      out.cas_failures = static_cast<uint64_t>(landed->cas_failures);
      out.merge_commits = static_cast<uint64_t>(landed->merge_commits);
      if (req.want_push && opts_.cache_push_max_bytes > 0 &&
          landed->staged != nullptr) {
        // Combiner-aware cache push: attach the staged batch this publish
        // landed with — merged index pages and commit objects, exactly
        // the nodes a losing committer would Get back one round trip at a
        // time — to the ack, up to the byte budget. Over-budget records
        // are simply not pushed (the client fetches them the old way);
        // the publish itself is unaffected.
        uint64_t budget = opts_.cache_push_max_bytes;
        for (const NodeRecord& rec : *landed->staged) {
          if (rec.bytes == nullptr || rec.bytes->size() > budget) continue;
          budget -= rec.bytes->size();
          out.pushed.push_back(rec);
        }
        pushed_nodes_.fetch_add(out.pushed.size(), std::memory_order_relaxed);
      }
      *body = EncodePublishResultBody(out);
      return;
    }
    case MsgType::kBranchStats:
      *body =
          EncodeBranchStatsBody(servlet_->branches()->branch_stats(req.branch));
      return;
    case MsgType::kStoreStats:
      *body = EncodeStoreStatsBody(servlet_->store()->stats());
      return;
    case MsgType::kResetCounters:
      servlet_->store()->ResetOpCounters();
      return;
    case MsgType::kListBranches:
      *body = EncodeStringListBody(servlet_->branches()->ListBranches());
      return;
    case MsgType::kHello:  // handled inline in ProcessConnection
    case MsgType::kResponse:
      break;
  }
  *app = Status::InvalidArgument("request type not servable");
}

bool SiriServer::FlushOutbox(Connection* conn,
                             std::vector<std::string>* outbox) {
  // One gathered write for the whole round's responses: adjacent frames
  // share syscalls on the way out exactly as readv shares them on the
  // way in. `idx`/`off` mark the first unwritten byte across the frame
  // list; each writev call gathers from there, chunked at kMaxIov.
  size_t idx = 0;
  size_t off = 0;
  int stalls = 0;
  while (idx < outbox->size()) {
    iovec iov[kMaxIov];
    int cnt = 0;
    size_t skip = off;
    for (size_t i = idx; i < outbox->size() && cnt < kMaxIov; ++i) {
      const std::string& f = (*outbox)[i];
      iov[cnt].iov_base = const_cast<char*>(f.data() + skip);
      iov[cnt].iov_len = f.size() - skip;
      ++cnt;
      skip = 0;
    }
    const ssize_t n = writev(conn->fd, iov, cnt);
    if (n > 0) {
      bytes_out_.fetch_add(static_cast<uint64_t>(n),
                           std::memory_order_relaxed);
      size_t advanced = static_cast<size_t>(n);
      while (advanced > 0) {
        const size_t left = (*outbox)[idx].size() - off;
        if (advanced >= left) {
          advanced -= left;
          ++idx;
          off = 0;
        } else {
          off += advanced;
          advanced = 0;
        }
      }
      continue;
    }
    if (n == 0) {
      // writev(2) never reports 0 for a nonzero byte count on a healthy
      // stream socket; treating it as retriable would spin. Unwritable.
      return false;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      // The peer's receive window is full. Wait for writability, bounded:
      // a client that stopped reading must not wedge a worker forever.
      if (++stalls > 300) return false;  // ~30s of 100ms waits
      pollfd pfd{conn->fd, POLLOUT, 0};
      (void)poll(&pfd, 1, 100);
      continue;
    }
    return false;
  }
  outbox->clear();
  return true;
}

void SiriServer::CloseConnection(int fd) {
  MutexLock lock(mu_);
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  close(fd);
  conns_.erase(it);
  if (conns_.empty()) drain_cv_.notify_all();
}

}  // namespace net
}  // namespace siri
