#pragma once

/// \file udp_runtime.h
/// UdpRuntime: the socket-backed Runtime — the protocol as a real process.
/// One instance per OS process hosts any number of SelectionNodes (global
/// NodeIds are assigned by the deployment driver, see exp/deploy.h) behind
/// a single non-blocking UDP socket. Messages cross process boundaries as
/// datagrams: a 14-byte routing header (net/datagram.h) followed by the
/// exact codec frame LoopbackRuntime moves — the registry in runtime/wire.h
/// is the only serialization path, so the payload bytes are identical across
/// backends and so is NetworkStats accounting (frame bytes only; the header
/// overhead is metered separately).
///
/// Event loop: poll_once() flushes coalesced sends, waits on the socket
/// (epoll when the platform has it, poll otherwise) with a timeout sized to
/// the earliest pending timer or delayed transmission, drains every
/// received datagram in recvmmsg batches, fires due timers through a
/// TimerWheel (owner-guarded, same incarnation-safety as the simulator's
/// node_timer), queues released fault-delayed frames, and flushes the
/// frames those steps produced. There is no background thread — the
/// hosting process drives the loop, and a test can interleave two runtimes
/// deterministically by alternating their poll_once() calls.
///
/// Payload coalescing: frames sent between loop iterations accumulate per
/// destination process and leave as one datagram per destination at the
/// next flush — multiple sub-frames under one routing header
/// (net/datagram.h), handed to the kernel with one sendmmsg where
/// available. A destination holding a single frame is flushed as a plain
/// datagram (no sub-header). A fault-delayed frame joins the queue when it
/// is released.
///
/// Delivery guarantees (DESIGN.md §10): none beyond UDP's. Datagrams may
/// be lost (full socket buffers), duplicated, or reordered; the receive
/// path validates the header, drops foreign or misrouted datagrams, and
/// routes undecodable payloads to the per-node "wire.decode_fail" metric —
/// exactly what LoopbackRuntime does to a corrupt frame, never a crash.
/// FaultInjection adds seeded, deterministic loss and extra latency at the
/// send side on top of whatever the real network does.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "net/process.h"
#include "net/timer_wheel.h"
#include "runtime/runtime.h"
#include "runtime/traffic.h"

namespace ares::net {

/// Where a node's hosting process listens. ip is host byte order;
/// 0x7F000001 is 127.0.0.1.
struct PeerAddress {
  std::uint32_t ip = 0x7F000001;
  std::uint16_t port = 0;
};

/// Dense NodeId -> PeerAddress map, shared by every node the deployment
/// spawns (the driver builds it before forking, so no discovery protocol).
class AddressBook {
 public:
  void set(NodeId id, PeerAddress a) {
    if (id >= peers_.size()) peers_.resize(id + 1);
    peers_[id] = a;
  }
  /// nullptr when `id` was never registered (port 0 = unknown).
  const PeerAddress* find(NodeId id) const {
    return id < peers_.size() && peers_[id].port != 0 ? &peers_[id] : nullptr;
  }
  std::size_t size() const { return peers_.size(); }

 private:
  std::vector<PeerAddress> peers_;
};

/// Sender-side fault injection, seeded and deterministic per process.
struct FaultInjection {
  double loss = 0.0;      // per-datagram drop probability
  SimTime delay_min = 0;  // extra latency drawn uniformly from
  SimTime delay_max = 0;  // [delay_min, delay_max] microseconds
};

class UdpRuntime final : public Runtime {
 public:
  struct Config {
    std::uint64_t seed = 1;
    FaultInjection faults;
  };

  /// Takes ownership of `socket_fd` (closed in the destructor). The socket
  /// must be bound and non-blocking (net/process.h udp_bind_loopback()).
  UdpRuntime(int socket_fd, AddressBook book, Config cfg);
  ~UdpRuntime() override;

  UdpRuntime(const UdpRuntime&) = delete;
  UdpRuntime& operator=(const UdpRuntime&) = delete;

  // -- Runtime contract ----------------------------------------------------
  /// Wall-clock microseconds since construction (CLOCK_MONOTONIC).
  SimTime now() const override;
  Rng& rng() override { return rng_; }
  void send(NodeId from, NodeId to, MessagePtr m) override;
  void node_timer(NodeId id, SimTime delay, UniqueAction fn) override;

  // -- membership ----------------------------------------------------------
  /// Attaches a node under its deployment-wide id (ids are global across
  /// processes, so they are explicit here, unlike the sequential backends).
  void add_node(NodeId id, std::unique_ptr<Node> node);

  /// Removes a node. `graceful` invokes stop() first. Pending timers for it
  /// lapse (owner-guarded); later datagrams to it are dropped.
  void remove_node(NodeId id, bool graceful);

  bool alive(NodeId id) const { return nodes_.contains(id); }
  std::size_t population() const { return nodes_.size(); }
  Node* find(NodeId id);
  template <typename T>
  T* find_as(NodeId id) {
    return dynamic_cast<T*>(find(id));
  }

  // -- event loop ----------------------------------------------------------
  /// One loop iteration: wait up to `max_wait` microseconds for the socket
  /// (less when a timer or delayed send is due sooner), drain received
  /// datagrams, fire due timers, queue due delayed frames, flush. Returns
  /// the number of datagrams delivered to local nodes.
  std::size_t poll_once(SimTime max_wait);

  /// Drives poll_once() until `dt` microseconds of wall time have passed.
  void run_for(SimTime dt);

  // -- introspection -------------------------------------------------------
  /// Frame-byte traffic accounting, same counters as the simulator.
  NetworkStats& stats() { return stats_; }

  /// Feeds raw bytes through the receive path as if the socket delivered
  /// them — the test seam for truncated/corrupt/duplicated datagrams.
  /// Returns true when a message was delivered to a local node.
  bool inject_datagram(const std::uint8_t* data, std::size_t len);

  std::uint64_t tx_datagrams() const { return tx_datagrams_; }
  std::uint64_t rx_datagrams() const { return rx_datagrams_; }
  /// Protocol frames handed to the socket (>= tx_datagrams when frames
  /// coalesce; frames_per_datagram = tx_frames / tx_datagrams).
  std::uint64_t tx_frames() const { return tx_frames_; }
  /// Send/receive syscalls issued on the data socket (sendmmsg counts 1 per
  /// kernel entry, not per datagram).
  std::uint64_t tx_syscalls() const { return tx_syscalls_; }
  std::uint64_t rx_syscalls() const { return rx_syscalls_; }
  /// Datagrams (or coalesced sub-frames) rejected before decode:
  /// short/foreign/misrouted headers, reserved flag bits, bad tiling.
  std::uint64_t rx_rejected() const { return rx_rejected_; }
  /// Datagrams dropped by fault injection at the send side.
  std::uint64_t injected_drops() const { return injected_drops_; }
  /// Routing overhead: kHeaderSize per transmitted datagram plus
  /// kSubHeaderSize per coalesced sub-frame — kept out of NetworkStats so
  /// frame accounting matches the simulator.
  std::uint64_t header_bytes() const { return header_bytes_; }
  /// True when the readiness loop runs on epoll (fallback is poll()).
  bool using_epoll() const { return waiter_.using_epoll(); }

 private:
  struct Delayed {
    SimTime due;
    std::uint64_t seq;
    NodeId from;
    NodeId to;
    std::vector<std::uint8_t> frame;
    bool operator>(const Delayed& o) const {
      return due != o.due ? due > o.due : seq > o.seq;
    }
  };

  /// One destination process's datagram under construction: sub-frames
  /// accumulated since the last flush.
  struct Pending {
    PeerAddress addr;
    std::vector<std::uint8_t> payload;  // sub-header + frame, repeated
    std::size_t frames = 0;
  };

  bool handle_datagram(const std::uint8_t* data, std::size_t len);
  bool deliver_frame(NodeId src, NodeId dst, const std::uint8_t* frame,
                     std::size_t len);
  void enqueue_frame(NodeId from, NodeId to, PeerAddress addr,
                     const std::vector<std::uint8_t>& frame);
  void flush_pending();
  void drain_socket();
  void flush_delayed();

  int fd_;
  AddressBook book_;
  Config cfg_;
  SimTime t0_;
  Rng rng_;        // protocol-visible stream (Runtime::rng())
  Rng fault_rng_;  // loss/delay draws, independent of the protocol stream
  NetworkStats stats_;
  TimerWheel wheel_;
  std::function<bool(NodeId)> alive_probe_;
  Metrics::Counter m_wire_decode_fail_;
  Metrics::Counter m_wire_encode_fail_;
  Metrics::Counter m_wire_bytes_saved_;
  std::unordered_map<NodeId, std::unique_ptr<Node>> nodes_;
  std::priority_queue<Delayed, std::vector<Delayed>, std::greater<>> delayed_;
  std::uint64_t delayed_seq_ = 0;
  ReadinessWaiter waiter_;
  // Coalescing state: per-destination pending datagrams, flushed in the
  // order destinations first appeared (keyed (ip << 16) | port).
  std::unordered_map<std::uint64_t, Pending> pending_;
  std::vector<std::uint64_t> pending_order_;
  // Flush scratch, reused across flushes to keep the hot path allocation-
  // free once warm.
  std::vector<std::vector<std::uint8_t>> tx_scratch_;
  std::vector<DatagramBuf> tx_bufs_;
  std::vector<std::size_t> tx_overheads_;
  // Receive batch buffers (kRxBatch datagrams per udp_recv_batch call).
  std::vector<std::vector<std::uint8_t>> rx_bufs_;
  std::uint64_t tx_datagrams_ = 0;
  std::uint64_t rx_datagrams_ = 0;
  std::uint64_t tx_frames_ = 0;
  std::uint64_t tx_syscalls_ = 0;
  std::uint64_t rx_syscalls_ = 0;
  std::uint64_t rx_rejected_ = 0;
  std::uint64_t injected_drops_ = 0;
  std::uint64_t header_bytes_ = 0;
};

}  // namespace ares::net
