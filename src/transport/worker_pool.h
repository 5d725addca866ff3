#ifndef REDY_TRANSPORT_WORKER_POOL_H_
#define REDY_TRANSPORT_WORKER_POOL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "transport/frame.h"

namespace redy::telemetry {
class Counter;
}  // namespace redy::telemetry

namespace redy::transport {

/// Epoll worker pool of the socket backend (DESIGN.md §13; shape after
/// the classic one-epoll-instance-per-worker server idiom). Each worker
/// thread owns an epoll instance, an eventfd doorbell, and every
/// connection assigned to it: all reads, frame parsing, and —
/// crucially — the one-sided responder work for frames arriving on its
/// connections happen on that thread, never on the application loop.
/// Connections are assigned round-robin at add time and never migrate,
/// so TCP's FIFO delivery survives as the QP's in-order guarantee.
///
/// Writes are not owned by the worker. Send() writes the frame to the
/// nonblocking socket on the calling thread — the application loop's
/// posts ring the "doorbell" themselves, as a verbs post does, with no
/// thread hop. Each connection has one send lock, held across a whole
/// frame, guarding the fd, the outbound queue and the closing flag, so
/// frames from the loop's posts and the worker's inline acks never
/// interleave on the stream and nobody writes to a closed or reused fd.
/// A send that hits EAGAIN (or goes out partially) queues the remainder
/// and arms EPOLLOUT on the owning worker, which finishes it.
///
/// The remaining cross-thread entry points (AddConnection / Close /
/// AddListener) hand the owning worker a command through a
/// mutex-guarded queue plus eventfd kick; called on the owning worker
/// itself they run inline. None of them is on the per-op path; the
/// command counter (set_command_counter) holds that line.
class WorkerPool {
 public:
  /// One stream (defined in worker_pool.cc).
  struct Conn;
  /// Connection handle. Holders may Send/Close on it from any thread;
  /// it stays valid (sends become no-ops) after the stream closes.
  using ConnRef = std::shared_ptr<Conn>;

  struct Handlers {
    /// A complete, validated frame arrived on `conn`. Runs on the
    /// owning worker thread. `bound_token` is the QP token the stream
    /// was bound to (0 until a kConnect is seen or AddConnection bound
    /// one).
    std::function<void(const ConnRef& conn, uint64_t bound_token,
                       const FrameHeader& hdr, std::vector<uint8_t> payload)>
        on_frame;
    /// The connection died (EOF, error, oversized/corrupt frame, or an
    /// explicit Close). Runs on the owning worker thread, exactly once.
    std::function<void(uint64_t bound_token)> on_close;
  };

  explicit WorkerPool(int workers, uint64_t max_frame_payload = kDefaultMaxPayload);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  void Start(Handlers handlers);
  void Stop();
  bool running() const { return !threads_.empty(); }
  int workers() const { return static_cast<int>(workers_.size()); }

  /// Adopts an established stream socket (takes ownership of `fd`, sets
  /// it nonblocking). `bound_token` pre-binds the stream to a QP token
  /// (dialer side); pass 0 for accepted streams that will bind on their
  /// first kConnect frame. Thread-safe; the handle is usable for Send
  /// immediately.
  ConnRef AddConnection(int fd, uint64_t bound_token);

  /// Writes `buf` (an encoded frame) to the connection's stream, on the
  /// calling thread. Thread-safe; a no-op once the connection closed.
  void Send(const ConnRef& conn, std::vector<uint8_t> buf);

  /// Asynchronously closes the connection (on_close fires on the owning
  /// worker). Thread-safe, idempotent.
  void Close(const ConnRef& conn);

  /// Registers a listening socket on worker 0; `on_accept` runs on
  /// worker 0 for every accepted fd (typically forwarding to
  /// AddConnection). Call before or after Start. Takes ownership.
  void AddListener(int listen_fd, std::function<void(int fd)> on_accept);

  /// Counts every command handed to a worker from another thread
  /// (connection set-up, closes, listeners; never posts or acks) into
  /// `counter`, a metrics-registry counter. nullptr detaches. Not owned.
  void set_command_counter(telemetry::Counter* counter) {
    command_counter_.store(counter, std::memory_order_release);
  }

  static constexpr uint64_t kDefaultMaxPayload = 64ull * 1024 * 1024;

 private:
  struct Worker {
    int epfd = -1;
    int evfd = -1;
    std::mutex mu;
    std::vector<std::function<void()>> commands;
    std::unordered_map<uint64_t, ConnRef> conns;
    std::unordered_map<int, std::function<void(int)>> listeners;
    std::thread::id thread_id;
  };

  static constexpr uint64_t kEventfdTag = ~0ull;
  static constexpr uint64_t kListenerBit = 1ull << 63;

  void Run(int index);
  void Enqueue(int worker, std::function<void()> cmd);
  bool OnWorker(int worker) const;
  void HandleReadable(Worker& w, const ConnRef& conn);
  /// Sends queued frames until the queue drains or the socket would
  /// block, then matches the EPOLLOUT interest to what is left. Caller
  /// holds c.send_mu. Returns false on a hard socket error.
  bool FlushLocked(Conn& c);
  /// Sends whatever is queued; closes the stream on a hard error.
  void Flush(const ConnRef& conn);
  void CloseConn(Worker& w, Conn& c);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;
  Handlers handlers_;
  uint64_t max_frame_payload_;
  std::atomic<uint64_t> next_conn_{1};
  std::atomic<int> rr_{0};
  std::atomic<bool> stop_{false};
  std::atomic<telemetry::Counter*> command_counter_{nullptr};
};

}  // namespace redy::transport

#endif  // REDY_TRANSPORT_WORKER_POOL_H_
