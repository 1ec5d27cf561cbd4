#include "net/udp_runtime.h"

#include <algorithm>
#include <cassert>

#include "common/hashing.h"
#include "net/datagram.h"
#include "net/process.h"
#include "runtime/wire.h"

namespace ares::net {

namespace {
// Datagrams pulled per udp_recv_batch() call while draining the socket.
constexpr std::size_t kRxBatch = 16;
}  // namespace

UdpRuntime::UdpRuntime(int socket_fd, AddressBook book, Config cfg)
    : fd_(socket_fd),
      book_(std::move(book)),
      cfg_(cfg),
      t0_(monotonic_micros()),
      rng_(cfg.seed),
      fault_rng_(hash_mix(cfg.seed, 0x4641554CULL /* "FAUL" */)),
      m_wire_decode_fail_(metrics().counter("wire.decode_fail")),
      m_wire_encode_fail_(metrics().counter("wire.encode_fail")),
      m_wire_bytes_saved_(metrics().counter("wire.bytes_delta_saved")),
      waiter_(socket_fd) {
  assert(fd_ >= 0);
  alive_probe_ = [this](NodeId id) { return alive(id); };
  rx_bufs_.resize(kRxBatch);
  for (auto& b : rx_bufs_) b.resize(kMaxDatagram);
}

UdpRuntime::~UdpRuntime() { close_fd(fd_); }

SimTime UdpRuntime::now() const { return monotonic_micros() - t0_; }

void UdpRuntime::add_node(NodeId id, std::unique_ptr<Node> node) {
  assert(node != nullptr && !node->attached());
  assert(!nodes_.contains(id) && "NodeIds are never reused");
  metrics().reserve_nodes(static_cast<std::size_t>(id) + 1);
  bind(*node, *this, id);
  Node* raw = node.get();
  nodes_.emplace(id, std::move(node));
  raw->start();
}

void UdpRuntime::remove_node(NodeId id, bool graceful) {
  auto it = nodes_.find(id);
  if (it == nodes_.end()) return;
  if (graceful) it->second->stop();
  unbind(*it->second);
  nodes_.erase(it);
}

Node* UdpRuntime::find(NodeId id) {
  auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : it->second.get();
}

void UdpRuntime::send(NodeId from, NodeId to, MessagePtr m) {
  assert(m != nullptr);
  // Paper-layout reconciliation, metered at the send boundary like the
  // other backends: what the paper's descriptor-list layout would have
  // added to this frame.
  if (std::size_t saved = wire::paper_layout_savings(*m); saved > 0)
    metrics().inc(from, m_wire_bytes_saved_, saved);
  // Frame-byte accounting first, mirroring the simulator: on_send() counts
  // wire_size() whether or not the datagram survives the trip.
  std::vector<std::uint8_t> frame = wire::encode(*m);
  if (frame.empty()) {
    metrics().inc(from, m_wire_encode_fail_);
    return;
  }
  stats_.on_send(from, *m);
  if (frame.size() + kHeaderSize > kMaxDatagram) {
    // A frame too large for one datagram is a protocol-configuration error
    // (view/branching caps bound every in-tree message far below this);
    // drop it like the network would.
    stats_.on_drop(*m);
    return;
  }
  const PeerAddress* addr = book_.find(to);
  if (addr == nullptr) {
    // No address for `to`: same as the simulator sending to a departed
    // node — a metered drop, not an error.
    stats_.on_drop(*m);
    return;
  }
  if (cfg_.faults.loss > 0.0 && fault_rng_.chance(cfg_.faults.loss)) {
    ++injected_drops_;
    stats_.on_drop(*m);
    return;
  }
  ++tx_frames_;
  if (cfg_.faults.delay_max > 0) {
    // Held until its release time, then queued like any other frame.
    const SimTime extra = static_cast<SimTime>(fault_rng_.range(
        static_cast<std::uint64_t>(std::max<SimTime>(cfg_.faults.delay_min, 0)),
        static_cast<std::uint64_t>(cfg_.faults.delay_max)));
    delayed_.push(Delayed{now() + extra, delayed_seq_++, from, to, std::move(frame)});
    return;
  }
  // Sub-frames carry (from, to) themselves, so frames for distinct node
  // pairs share a datagram as long as they land on the same process.
  enqueue_frame(from, to, *addr, frame);
}

void UdpRuntime::enqueue_frame(NodeId from, NodeId to, PeerAddress addr,
                               const std::vector<std::uint8_t>& frame) {
  const std::uint64_t key = (std::uint64_t{addr.ip} << 16) | addr.port;
  Pending& p = pending_[key];
  if (p.frames == 0) {
    p.addr = addr;
    pending_order_.push_back(key);
  } else if (kHeaderSize + p.payload.size() + kSubHeaderSize + frame.size() >
             kMaxDatagram) {
    // This frame would overflow the datagram: flush what accumulated for
    // this destination and start a fresh one. flush_pending() clears the
    // map, so `p` is dead past this point.
    flush_pending();
    Pending& fresh = pending_[key];
    fresh.addr = addr;
    pending_order_.push_back(key);
    append_subframe(fresh.payload, from, to, frame.data(), frame.size());
    ++fresh.frames;
    return;
  }
  append_subframe(p.payload, from, to, frame.data(), frame.size());
  ++p.frames;
}

void UdpRuntime::flush_pending() {
  if (pending_order_.empty()) return;
  tx_scratch_.clear();
  tx_bufs_.clear();
  tx_overheads_.clear();
  for (std::uint64_t key : pending_order_) {
    auto it = pending_.find(key);
    if (it == pending_.end() || it->second.frames == 0) continue;
    Pending& p = it->second;
    std::vector<std::uint8_t> bytes;
    std::size_t overhead = 0;
    if (p.frames == 1) {
      // One frame: strip the sub-header and emit a plain datagram — the only
      // place one is built, so a one-message flush carries no sub-header.
      SubframeParser parser(p.payload.data(), p.payload.size());
      SubFrame sf;
      parser.next(sf);
      bytes.resize(kHeaderSize + sf.frame_len);
      DatagramHeader h;
      h.src = sf.src;
      h.dst = sf.dst;
      h.payload_len = sf.frame_len;
      encode_header(h, bytes.data());
      std::copy(sf.frame, sf.frame + sf.frame_len, bytes.begin() + kHeaderSize);
      overhead = kHeaderSize;
    } else {
      SubframeParser parser(p.payload.data(), p.payload.size());
      SubFrame first;
      parser.next(first);
      bytes.resize(kHeaderSize + p.payload.size());
      DatagramHeader h;
      h.src = first.src;  // outer ids mirror the first sub-frame
      h.dst = first.dst;
      h.flags = kFlagCoalesced;
      h.payload_len = static_cast<std::uint16_t>(p.payload.size());
      encode_header(h, bytes.data());
      std::copy(p.payload.begin(), p.payload.end(), bytes.begin() + kHeaderSize);
      overhead = kHeaderSize + kSubHeaderSize * p.frames;
    }
    DatagramBuf buf;
    buf.ip = p.addr.ip;
    buf.port = p.addr.port;
    buf.len = bytes.size();
    tx_scratch_.push_back(std::move(bytes));
    tx_bufs_.push_back(buf);
    tx_overheads_.push_back(overhead);
  }
  pending_.clear();
  pending_order_.clear();
  for (std::size_t i = 0; i < tx_bufs_.size(); ++i)
    tx_bufs_[i].data = tx_scratch_[i].data();
  const std::size_t accepted =
      udp_send_batch(fd_, tx_bufs_.data(), tx_bufs_.size(), &tx_syscalls_);
  // sendmmsg accepts a prefix; the single-send fallback may skip inside it,
  // but a full socket buffer almost always fails the tail uniformly, so the
  // prefix attribution below is exact in practice.
  tx_datagrams_ += accepted;
  for (std::size_t i = 0; i < accepted && i < tx_overheads_.size(); ++i)
    header_bytes_ += tx_overheads_[i];
}

void UdpRuntime::node_timer(NodeId id, SimTime delay, UniqueAction fn) {
  wheel_.add(now() + std::max<SimTime>(delay, 0), id, std::move(fn));
}

bool UdpRuntime::handle_datagram(const std::uint8_t* data, std::size_t len) {
  DatagramHeader h;
  if (!decode_header(data, len, h)) {
    ++rx_rejected_;
    return false;
  }
  if ((h.flags & ~kFlagCoalesced) != 0) {
    // Reserved flag bits: foreign or future traffic, rejected whole.
    ++rx_rejected_;
    return false;
  }
  if ((h.flags & kFlagCoalesced) != 0) {
    SubframeParser parser(data + kHeaderSize, h.payload_len);
    SubFrame sf;
    bool delivered = false;
    while (parser.next(sf))
      delivered = deliver_frame(sf.src, sf.dst, sf.frame, sf.frame_len) || delivered;
    if (!parser.ok()) ++rx_rejected_;  // bad tiling: the remainder drops
    return delivered;
  }
  return deliver_frame(h.src, h.dst, data + kHeaderSize, h.payload_len);
}

bool UdpRuntime::deliver_frame(NodeId src, NodeId dst, const std::uint8_t* frame,
                               std::size_t len) {
  Node* node = find(dst);
  if (node == nullptr) {
    // Misrouted or addressed to a node that already left this process.
    ++rx_rejected_;
    return false;
  }
  MessagePtr m = wire::decode(frame, len);
  if (m == nullptr) {
    metrics().inc(dst, m_wire_decode_fail_);
    return false;
  }
  stats_.on_deliver(dst, *m);
  node->on_message(src, *m);
  return true;
}

bool UdpRuntime::inject_datagram(const std::uint8_t* data, std::size_t len) {
  ++rx_datagrams_;
  return handle_datagram(data, len);
}

void UdpRuntime::drain_socket() {
  for (;;) {
    DatagramBuf bufs[kRxBatch];
    for (std::size_t i = 0; i < kRxBatch; ++i) {
      bufs[i].data = rx_bufs_[i].data();
      bufs[i].len = rx_bufs_[i].size();
    }
    const std::size_t n = udp_recv_batch(fd_, bufs, kRxBatch, &rx_syscalls_);
    for (std::size_t i = 0; i < n; ++i) {
      ++rx_datagrams_;
      handle_datagram(bufs[i].data, bufs[i].len);
    }
    if (n < kRxBatch) return;  // short batch: drained
  }
}

void UdpRuntime::flush_delayed() {
  const SimTime t = now();
  while (!delayed_.empty() && delayed_.top().due <= t) {
    // top() is const; the buffer must be moved out before pop (the element
    // is removed immediately after).
    Delayed d = std::move(const_cast<Delayed&>(delayed_.top()));
    delayed_.pop();
    // send() resolved the address, and the book never changes.
    enqueue_frame(d.from, d.to, *book_.find(d.to), d.frame);
  }
}

std::size_t UdpRuntime::poll_once(SimTime max_wait) {
  // Frames queued by sends outside the loop (or left by a reentrant send
  // during the previous drain) go out before we sleep.
  flush_pending();
  const SimTime t = now();
  SimTime wake = t + std::max<SimTime>(max_wait, 0);
  wake = std::min(wake, wheel_.next_deadline());
  if (!delayed_.empty()) wake = std::min(wake, delayed_.top().due);
  const SimTime wait = std::max<SimTime>(wake - t, 0);
  // Round the wait timeout up so a 1 us residue doesn't busy-spin.
  const int timeout_ms = static_cast<int>(std::min<SimTime>((wait + 999) / 1000, 1000));
  const std::uint64_t delivered_before = stats_.delivered();
  if (waiter_.wait(timeout_ms)) drain_socket();
  wheel_.fire_due(now(), alive_probe_);
  flush_delayed();
  // Replies and timer-driven sends from this iteration leave now — before
  // a lock-step peer (alternating poll_once() calls in tests) next polls.
  flush_pending();
  return static_cast<std::size_t>(stats_.delivered() - delivered_before);
}

void UdpRuntime::run_for(SimTime dt) {
  const SimTime end = now() + dt;
  while (now() < end) poll_once(end - now());
}

}  // namespace ares::net
