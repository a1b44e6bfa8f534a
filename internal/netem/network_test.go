package netem

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// recorder is a Device that logs the sequence number carried in each frame's
// payload and signals once it has seen want frames.
type recorder struct {
	name string
	want int
	done chan struct{}

	mu  sync.Mutex
	got []int
}

func newRecorder(name string, want int) *recorder {
	return &recorder{name: name, want: want, done: make(chan struct{})}
}

func (r *recorder) Name() string { return r.name }

func (r *recorder) HandleFrame(_ int, f Frame) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.got = append(r.got, int(f.Payload[0])<<8|int(f.Payload[1]))
	if len(r.got) == r.want {
		close(r.done)
	}
}

func seqFrame(i int) Frame { return Frame{Payload: []byte{byte(i >> 8), byte(i)}} }

// cabledPair returns a network with device "src" cabled to a recorder "dst"
// that expects want frames; the network is not started.
func cabledPair(t *testing.T, want int) (*Network, *recorder) {
	t.Helper()
	n := NewNetwork()
	dst := newRecorder("dst", want)
	for _, d := range []Device{newRecorder("src", 0), dst} {
		if err := n.AddDevice(d); err != nil {
			t.Fatal(err)
		}
	}
	mustConnect(t, n, "src", 0, "dst", 0)
	return n, dst
}

// Device inboxes are allocated on demand, so building a fabric costs only
// its devices and links — not a preallocated queue per device.
func TestNetworkBuildAllocatesLittle(t *testing.T) {
	const hosts = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n := NewNetwork()
	if _, err := NewSwitch(n, "sw", hosts); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < hosts; i++ {
		name := fmt.Sprintf("h%d", i)
		if _, err := NewHost(n, name, MAC{2, 0, 0, 0, 0, byte(i)}, IPv4{10, 0, 0, byte(i)}); err != nil {
			t.Fatal(err)
		}
		mustConnect(t, n, name, 0, "sw", i)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("building %d hosts allocated %d KB, want < 1024 KB", hosts, got>>10)
	}
}

// A device's queue holds inboxDepth frames; the next one is a congestion
// drop. Frames queued before Start are delivered after it, in FIFO order,
// although the queue grew several times while they arrived.
func TestInboxBoundAndFIFO(t *testing.T) {
	n, dst := cabledPair(t, inboxDepth)
	for i := 0; i < inboxDepth; i++ {
		n.Transmit("src", 0, seqFrame(i))
	}
	if got := n.Dropped(); got != 0 {
		t.Fatalf("dropped %d frames below the bound", got)
	}
	n.Transmit("src", 0, seqFrame(inboxDepth))
	if got := n.Dropped(); got != 1 {
		t.Fatalf("dropped %d frames at the bound, want 1", got)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	select {
	case <-dst.done:
	case <-time.After(10 * time.Second):
		t.Fatal("queued frames not delivered after Start")
	}
	dst.mu.Lock()
	defer dst.mu.Unlock()
	for i, seq := range dst.got {
		if seq != i {
			t.Fatalf("frame %d carries seq %d: delivery is not FIFO", i, seq)
		}
	}
}

// Senders on several goroutines share one destination queue while its
// worker drains it: every frame arrives, each sender's in its own order.
func TestConcurrentDeliveryKeepsPerSenderOrder(t *testing.T) {
	const senders, perSender = 4, 500
	n, dst := cabledPair(t, senders*perSender)
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for k := 0; k < perSender; k++ {
				n.Transmit("src", 0, seqFrame(s*perSender+k))
			}
		}(s)
	}
	wg.Wait()
	select {
	case <-dst.done:
	case <-time.After(10 * time.Second):
		t.Fatalf("not every frame delivered (dropped %d)", n.Dropped())
	}
	dst.mu.Lock()
	defer dst.mu.Unlock()
	last := make([]int, senders)
	for i := range last {
		last[i] = -1
	}
	for _, seq := range dst.got {
		s, k := seq/perSender, seq%perSender
		if k <= last[s] {
			t.Fatalf("sender %d: frame %d after frame %d", s, k, last[s])
		}
		last[s] = k
	}
}

// The queue slides its backlog to the front instead of growing when the
// backing array is full but its head has advanced.
func TestDevEntryReusesBackingArray(t *testing.T) {
	e := newDevEntry(nil)
	next, want := 0, 0
	push := func(k int) {
		for ; k > 0; k-- {
			if !e.push(inbound{port: next}) {
				t.Fatalf("push %d refused", next)
			}
			next++
		}
	}
	pop := func(k int) {
		for ; k > 0; k-- {
			m, ok := e.pop()
			if !ok || m.port != want {
				t.Fatalf("pop = %d, %v; want %d", m.port, ok, want)
			}
			want++
		}
	}
	push(8)
	capacity := cap(e.q)
	pop(5)
	push(capacity - 3) // fills the array only if the backlog slid forward
	if cap(e.q) != capacity {
		t.Fatalf("backing array grew from %d to %d with a backlog of %d", capacity, cap(e.q), len(e.q)-e.head)
	}
	pop(next - want)
	if _, ok := e.pop(); ok {
		t.Fatal("pop on an empty queue succeeded")
	}
	if len(e.q) != 0 || e.head != 0 {
		t.Fatalf("drained queue not reset: len %d, head %d", len(e.q), e.head)
	}
}

// A stopped network keeps its device registry.
func TestDeviceAndTopologyAfterStop(t *testing.T) {
	n, _, _ := lan(t)
	n.Stop()
	if n.Device("h1") == nil {
		t.Error("Device(h1) = nil after Stop")
	}
	if top := n.Topology(); !strings.Contains(top, "devices: 3") || !strings.Contains(top, "host   h1") {
		t.Errorf("topology after Stop:\n%s", top)
	}
}
