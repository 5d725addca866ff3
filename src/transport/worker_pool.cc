#include "transport/worker_pool.h"

#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <utility>

#include "common/logging.h"
#include "common/vec_deque.h"
#include "telemetry/metrics.h"

namespace redy::transport {

namespace {

void SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  REDY_CHECK(flags >= 0);
  REDY_CHECK(fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0);
}

}  // namespace

struct WorkerPool::Conn {
  Conn(int fd_in, uint64_t id_in, int worker_in, uint64_t token)
      : id(id_in), worker(worker_in), bound_token(token), fd(fd_in) {}

  const uint64_t id;  // epoll tag and key of the owning worker's map
  const int worker;
  // Owning worker only.
  uint64_t bound_token;
  std::vector<uint8_t> inbuf;
  // Guarded by send_mu, which is held across a whole frame. `closing`
  // is written only by the owning worker (under the lock).
  std::mutex send_mu;
  int fd;
  /// Outbound frames awaiting the socket; front may be part-sent.
  common::VecDeque<std::vector<uint8_t>> outq;
  size_t out_off = 0;  // sent bytes of outq.front()
  /// Epoll interest registered for fd; 0 until the owner adds it.
  uint32_t events = 0;
  bool closing = false;
};

WorkerPool::WorkerPool(int workers, uint64_t max_frame_payload)
    : max_frame_payload_(max_frame_payload) {
  REDY_CHECK(workers >= 1 && workers <= 255);
  for (int i = 0; i < workers; i++) {
    auto w = std::make_unique<Worker>();
    w->epfd = epoll_create1(EPOLL_CLOEXEC);
    REDY_CHECK(w->epfd >= 0);
    w->evfd = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    REDY_CHECK(w->evfd >= 0);
    struct epoll_event ev = {};
    ev.events = EPOLLIN;
    ev.data.u64 = kEventfdTag;
    REDY_CHECK(epoll_ctl(w->epfd, EPOLL_CTL_ADD, w->evfd, &ev) == 0);
    workers_.push_back(std::move(w));
  }
}

WorkerPool::~WorkerPool() {
  Stop();
  for (auto& w : workers_) {
    for (auto& [id, c] : w->conns) {
      // Handles may outlive the pool; mark the stream closed so a late
      // Send never touches the released fd.
      std::lock_guard<std::mutex> lk(c->send_mu);
      c->closing = true;
      close(c->fd);
      c->fd = -1;
    }
    for (auto& [fd, cb] : w->listeners) close(fd);
    close(w->evfd);
    close(w->epfd);
  }
}

void WorkerPool::Start(Handlers handlers) {
  REDY_CHECK(threads_.empty());
  handlers_ = std::move(handlers);
  stop_.store(false, std::memory_order_relaxed);
  for (size_t i = 0; i < workers_.size(); i++) {
    threads_.emplace_back([this, i] { Run(static_cast<int>(i)); });
    workers_[i]->thread_id = threads_.back().get_id();
  }
}

void WorkerPool::Stop() {
  if (threads_.empty()) return;
  stop_.store(true, std::memory_order_release);
  for (auto& w : workers_) {
    uint64_t one = 1;
    [[maybe_unused]] ssize_t n = write(w->evfd, &one, sizeof(one));
  }
  for (auto& t : threads_) t.join();
  threads_.clear();
}

bool WorkerPool::OnWorker(int worker) const {
  return std::this_thread::get_id() == workers_[worker]->thread_id;
}

void WorkerPool::Enqueue(int worker, std::function<void()> cmd) {
  if (telemetry::Counter* c =
          command_counter_.load(std::memory_order_acquire)) {
    c->Inc();
  }
  Worker& w = *workers_[worker];
  {
    std::lock_guard<std::mutex> lk(w.mu);
    w.commands.push_back(std::move(cmd));
  }
  uint64_t one = 1;
  [[maybe_unused]] ssize_t n = write(w.evfd, &one, sizeof(one));
}

WorkerPool::ConnRef WorkerPool::AddConnection(int fd, uint64_t bound_token) {
  SetNonBlocking(fd);
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const int worker =
      rr_.fetch_add(1, std::memory_order_relaxed) % workers_.size();
  auto conn = std::make_shared<Conn>(
      fd, next_conn_.fetch_add(1, std::memory_order_relaxed), worker,
      bound_token);
  auto install = [this, conn] {
    Worker& w = *workers_[conn->worker];
    bool added = false;
    {
      // Sends may already have queued a remainder: register EPOLLOUT
      // with the fd if so.
      std::lock_guard<std::mutex> lk(conn->send_mu);
      struct epoll_event ev = {};
      ev.events = EPOLLIN | EPOLLRDHUP | (conn->outq.empty() ? 0u : EPOLLOUT);
      ev.data.u64 = conn->id;
      added = epoll_ctl(w.epfd, EPOLL_CTL_ADD, conn->fd, &ev) == 0;
      if (added) conn->events = ev.events;
    }
    w.conns.emplace(conn->id, conn);
    if (!added) CloseConn(w, *conn);
  };
  if (OnWorker(worker)) {
    install();
  } else {
    Enqueue(worker, std::move(install));
  }
  return conn;
}

void WorkerPool::AddListener(int listen_fd, std::function<void(int)> on_accept) {
  SetNonBlocking(listen_fd);
  Enqueue(0, [this, listen_fd, cb = std::move(on_accept)]() mutable {
    Worker& w = *workers_[0];
    struct epoll_event ev = {};
    ev.events = EPOLLIN;
    ev.data.u64 = kListenerBit | static_cast<uint64_t>(listen_fd);
    REDY_CHECK(epoll_ctl(w.epfd, EPOLL_CTL_ADD, listen_fd, &ev) == 0);
    w.listeners.emplace(listen_fd, std::move(cb));
  });
}

void WorkerPool::Send(const ConnRef& conn, std::vector<uint8_t> buf) {
  Conn& c = *conn;
  bool ok = true;
  {
    std::lock_guard<std::mutex> lk(c.send_mu);
    if (c.closing) return;
    c.outq.push_back(std::move(buf));
    // Frames already queued mean EPOLLOUT is armed (or about to be, by
    // the owner's install): this one goes out behind them, in order.
    if (c.outq.size() == 1) ok = FlushLocked(c);
  }
  if (!ok) Close(conn);
}

void WorkerPool::Flush(const ConnRef& conn) {
  Conn& c = *conn;
  bool ok = true;
  {
    std::lock_guard<std::mutex> lk(c.send_mu);
    if (!c.closing) ok = FlushLocked(c);
  }
  if (!ok) Close(conn);
}

bool WorkerPool::FlushLocked(Conn& c) {
  while (!c.outq.empty()) {
    const std::vector<uint8_t>& front = c.outq.front();
    // MSG_NOSIGNAL: a half-closed peer means EPIPE -> close, not a
    // process-wide SIGPIPE.
    const ssize_t n = ::send(c.fd, front.data() + c.out_off,
                             front.size() - c.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      c.out_off += static_cast<size_t>(n);
      if (c.out_off == front.size()) {
        c.outq.pop_front();
        c.out_off = 0;
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  // Hand a remainder to the owning worker (EPOLLOUT), or stop watching
  // for writability once drained. Before the owner registered the fd
  // (events == 0) its install picks the interest up instead.
  const uint32_t want =
      EPOLLIN | EPOLLRDHUP | (c.outq.empty() ? 0u : EPOLLOUT);
  if (c.events != 0 && want != c.events) {
    c.events = want;
    struct epoll_event ev = {};
    ev.events = want;
    ev.data.u64 = c.id;
    epoll_ctl(workers_[c.worker]->epfd, EPOLL_CTL_MOD, c.fd, &ev);
  }
  return true;
}

void WorkerPool::Close(const ConnRef& conn) {
  auto doit = [this, conn] { CloseConn(*workers_[conn->worker], *conn); };
  if (OnWorker(conn->worker)) {
    doit();
  } else {
    Enqueue(conn->worker, std::move(doit));
  }
}

void WorkerPool::CloseConn(Worker& w, Conn& c) {
  if (c.closing) return;
  {
    std::lock_guard<std::mutex> lk(c.send_mu);
    c.closing = true;
    if (c.events != 0) epoll_ctl(w.epfd, EPOLL_CTL_DEL, c.fd, nullptr);
    close(c.fd);
    c.fd = -1;
    c.outq.clear();
  }
  const uint64_t token = c.bound_token;
  w.conns.erase(c.id);  // may release c
  if (handlers_.on_close) handlers_.on_close(token);
}

void WorkerPool::HandleReadable(Worker& w, const ConnRef& conn) {
  Conn& c = *conn;
  uint8_t chunk[64 * 1024];
  while (true) {
    const ssize_t n = ::read(c.fd, chunk, sizeof(chunk));
    if (n > 0) {
      c.inbuf.insert(c.inbuf.end(), chunk, chunk + n);
      if (static_cast<ssize_t>(sizeof(chunk)) == n) continue;
      break;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    CloseConn(w, c);  // EOF or hard error
    return;
  }
  // Parse complete frames. A handler may close the stream mid-loop
  // (protocol violation, or a QP breaking under it).
  while (!c.closing && c.inbuf.size() >= sizeof(FrameHeader)) {
    FrameHeader hdr;
    std::memcpy(&hdr, c.inbuf.data(), sizeof(hdr));
    if (hdr.magic != FrameHeader::kMagic ||
        hdr.payload_len > max_frame_payload_) {
      CloseConn(w, c);
      return;
    }
    const size_t total = sizeof(FrameHeader) + hdr.payload_len;
    if (c.inbuf.size() < total) break;
    std::vector<uint8_t> payload(c.inbuf.begin() + sizeof(FrameHeader),
                                 c.inbuf.begin() + total);
    c.inbuf.erase(c.inbuf.begin(), c.inbuf.begin() + total);
    if (hdr.type == static_cast<uint8_t>(FrameType::kConnect)) {
      c.bound_token = hdr.aux;
    }
    if (handlers_.on_frame) {
      handlers_.on_frame(conn, c.bound_token, hdr, std::move(payload));
    }
  }
}

void WorkerPool::Run(int index) {
  Worker& w = *workers_[index];
  std::vector<std::function<void()>> cmds;
  struct epoll_event evs[64];
  while (!stop_.load(std::memory_order_acquire)) {
    const int n = epoll_wait(w.epfd, evs, 64, 100);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; i++) {
      const uint64_t tag = evs[i].data.u64;
      if (tag == kEventfdTag) {
        uint64_t drained;
        while (read(w.evfd, &drained, sizeof(drained)) > 0) {
        }
        {
          std::lock_guard<std::mutex> lk(w.mu);
          cmds.swap(w.commands);
        }
        for (auto& cmd : cmds) cmd();
        cmds.clear();
        continue;
      }
      if (tag & kListenerBit) {
        const int lfd = static_cast<int>(tag & ~kListenerBit);
        auto lit = w.listeners.find(lfd);
        if (lit == w.listeners.end()) continue;
        while (true) {
          const int fd = accept4(lfd, nullptr, nullptr, SOCK_CLOEXEC);
          if (fd < 0) break;
          lit->second(fd);
        }
        continue;
      }
      auto it = w.conns.find(tag);
      if (it == w.conns.end()) continue;
      // Held across the handlers: closing erases the map's reference.
      const ConnRef conn = it->second;
      if (evs[i].events & (EPOLLHUP | EPOLLERR)) {
        CloseConn(w, *conn);
        continue;
      }
      if (evs[i].events & EPOLLOUT) {
        Flush(conn);
        if (conn->closing) continue;
      }
      if (evs[i].events & (EPOLLIN | EPOLLRDHUP)) HandleReadable(w, conn);
    }
  }
  // Drain any last commands so no cross-thread caller is left holding a
  // promise that will never resolve.
  {
    std::lock_guard<std::mutex> lk(w.mu);
    cmds.swap(w.commands);
  }
  for (auto& cmd : cmds) cmd();
}

}  // namespace redy::transport
