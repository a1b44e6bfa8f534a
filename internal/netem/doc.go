// Package netem is the cyber-side network emulator of the cyber range.
//
// The paper uses Mininet to emulate each substation LAN: nodes with IP and
// MAC addresses from the SCD file, connected through switches, with the
// inter-substation WAN abstracted as a single switch (§III-B). This package
// provides the equivalent substrate in-process: Ethernet frames, learning
// switches, links with impairment knobs (up/down, seeded per-frame loss,
// propagation latency, byte-level tamper hooks), hosts with an ARP + IPv4 +
// UDP stack and a reliable TCP-like stream transport, promiscuous capture,
// and raw frame injection. ARP is a real protocol here — the MITM case study
// (§IV-B, Fig 6) works by actual cache poisoning, exactly as on the Mininet
// range. Host.ServeTCP is the one accept loop the protocol servers (MMS,
// Modbus) share: it runs a handler per connection and its Close tears down
// the listener and every live connection, then waits for the handlers.
// FrameReader is their one reader of length-prefixed frames, server and
// client side: a protocol gives a header length and a size function (TPKT,
// MBAP), and a frame cut short by a read deadline stays buffered.
//
// Delivery is asynchronous: every device runs a worker goroutine draining a
// FIFO queue that grows on demand up to a fixed bound, so the fabric exhibits
// real concurrency effects (reordering across links, drops on full queues)
// while the loss generator stays seeded and replayable (Network.SeedRand).
// Building a fabric allocates no queue memory up front: a device's queue
// grows only to its peak backlog.
//
// # Frame pooling (the zero-allocation data plane)
//
// Frame payloads are recycled through a per-network sync.Pool and the warm
// publish→switch→deliver path allocates nothing. Network.SetFramePooling(false)
// selects the legacy copy-per-publish path instead; it is the reference the
// data-plane differential tests compare against, not a user setting. That makes buffer ownership part of the API contract — the full
// rules live on PayloadBuf, in short:
//
//   - senders marshal into Host.AllocPayload buffers and transfer ownership
//     with Host.SendPooled, never touching the buffer afterwards;
//   - the fabric borrows per hop: switches forward unicast frames without
//     copying and clone once per extra egress port when flooding; the
//     terminal deliverer (consuming host or drop point) releases the buffer;
//   - observers — taps (TapFunc), the promiscuous sniffer, EtherType hooks —
//     borrow a frame only for the duration of the call and must Clone (or
//     copy out) anything they retain; tamper hooks always receive a
//     detached Clone.
//
// DataPlaneStats (Network.Stats) counts frames transmitted/dropped per hop
// and the payload pool's hit rate.
package netem
