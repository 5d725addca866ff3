#ifndef REDY_TRANSPORT_FRAME_H_
#define REDY_TRANSPORT_FRAME_H_

#include <cstdint>
#include <cstring>
#include <vector>

namespace redy::transport {

/// Wire format of the socket backend (DESIGN.md §13). One TCP stream
/// carries one queue pair; every verb becomes a length-prefixed frame,
/// and TCP's FIFO delivery stands in for the reliable-connected QP's
/// in-order guarantee. Verbs semantics ride in the header: the rkey +
/// access epoch of one-sided ops (so the responder can enforce the
/// fence exactly like the simulated NIC), and an initiator-chosen op
/// token echoed in acks so completions rejoin their posts.
///
/// Framing is deliberately naive — host byte order over loopback, a
/// fixed header, no coalescing. The point of this backend is to run the
/// identical Redy stack on real threads and sockets, not to compete
/// with libibverbs.

enum class FrameType : uint8_t {
  /// First frame on a freshly dialed stream. `aux` = the listener-side
  /// QP token this stream should bind to; `token` = the dialer's token.
  kConnect = 1,
  /// One-sided WRITE: deposit payload at (rkey@epoch, offset).
  kWrite = 2,
  /// Responder's status for a kWrite, token echoed.
  kWriteAck = 3,
  /// One-sided READ: fetch `aux` bytes from (rkey, offset).
  kRead = 4,
  /// Responder's answer to kRead: payload on success, empty on error.
  kReadResp = 5,
  /// Two-sided send: payload delivered into the peer's posted receive.
  kSend = 6,
  /// Receiver's status for a kSend, token echoed.
  kSendAck = 7,
  /// NIC-offloaded dependent op chain: `aux` = hop count; payload =
  /// aux × ChainHopWire followed by the write hops' payloads in hop
  /// order. The responder worker executes every hop server-side, so
  /// the wire sees ONE request and ONE response per chain.
  kChain = 8,
  /// Responder's answer to kChain: concatenated read-hop payloads on
  /// success, empty on abort; `aux` = hops actually executed.
  kChainResp = 9,
};

struct FrameHeader {
  uint32_t magic = kMagic;
  uint8_t type = 0;
  /// StatusCode numeric value on ack/response frames; 0 elsewhere.
  uint8_t status = 0;
  uint16_t pad = 0;
  /// Bytes that follow this header on the stream.
  uint32_t payload_len = 0;
  uint32_t rkey = 0;
  /// Access epoch the op was issued under (kWrite fencing).
  uint32_t epoch = 0;
  uint32_t pad2 = 0;
  /// Initiator-side op token, echoed verbatim in acks/responses.
  uint64_t token = 0;
  /// Remote offset for one-sided ops.
  uint64_t offset = 0;
  /// Type-dependent: requested length (kRead), target QP token
  /// (kConnect), granted length (kReadResp).
  uint64_t aux = 0;

  static constexpr uint32_t kMagic = 0x52647954u;  // "RdyT"
};
static_assert(sizeof(FrameHeader) == 48, "wire header layout");

/// One hop descriptor of a kChain frame (fixed size, host byte order
/// like the rest of the framing). Field-for-field mirror of
/// rdma::ChainHop with the RemoteKey flattened.
struct ChainHopWire {
  uint32_t rkey = 0;
  uint32_t epoch = 0;
  uint64_t remote_offset = 0;
  uint64_t local_offset = 0;
  uint64_t len = 0;
  uint64_t addr_mask = 0;
  uint8_t addr_shift = 0;
  uint8_t flags = 0;
  uint8_t pad[6] = {};

  static constexpr uint8_t kAddrFromPrev = 1;
  static constexpr uint8_t kIsWrite = 2;
};
static_assert(sizeof(ChainHopWire) == 48, "chain hop wire layout");

/// One contiguous send buffer holding the header and room for
/// `payload_len` payload bytes after it, for callers that assemble the
/// payload in place.
inline std::vector<uint8_t> NewFrame(const FrameHeader& h,
                                     uint64_t payload_len) {
  FrameHeader hdr = h;
  hdr.payload_len = static_cast<uint32_t>(payload_len);
  std::vector<uint8_t> buf(sizeof(FrameHeader) + payload_len);
  std::memcpy(buf.data(), &hdr, sizeof(hdr));
  return buf;
}

/// Serializes header + payload into one contiguous send buffer.
inline std::vector<uint8_t> EncodeFrame(const FrameHeader& h,
                                        const uint8_t* payload,
                                        uint64_t payload_len) {
  std::vector<uint8_t> buf = NewFrame(h, payload_len);
  if (payload_len != 0) {
    std::memcpy(buf.data() + sizeof(FrameHeader), payload, payload_len);
  }
  return buf;
}

}  // namespace redy::transport

#endif  // REDY_TRANSPORT_FRAME_H_
