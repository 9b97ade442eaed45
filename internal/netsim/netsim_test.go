package netsim

import (
	"math"
	"net"
	"testing"
	"time"
)

func TestTransferTimeAnalytic(t *testing.T) {
	l := Link{Latency: 10 * time.Millisecond, Mbps: 8} // 1 MB/s
	// 1000 bytes at 1 MB/s = 1 ms, plus 10 ms latency.
	got := l.TransferTime(1000)
	want := 11 * time.Millisecond
	if got < want-time.Millisecond || got > want+time.Millisecond {
		t.Fatalf("TransferTime = %v, want ≈%v", got, want)
	}
}

func TestTransferTimeZeroBandwidthIsLatencyOnly(t *testing.T) {
	l := Link{Latency: 5 * time.Millisecond}
	if got := l.TransferTime(1 << 20); got != 5*time.Millisecond {
		t.Fatalf("TransferTime = %v, want latency only", got)
	}
}

func TestLinkValidate(t *testing.T) {
	if err := (Link{Latency: -time.Second}).Validate(); err == nil {
		t.Fatal("negative latency accepted")
	}
	for _, mbps := range []float64{-1, math.NaN(), math.Inf(1)} {
		if err := (Link{Mbps: mbps}).Validate(); err == nil {
			t.Fatalf("bandwidth %v accepted", mbps)
		}
	}
	if err := (Link{Latency: time.Millisecond, Mbps: 10}).Validate(); err != nil {
		t.Fatal(err)
	}
}

func pipePair(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() {
		a.Close()
		b.Close()
	})
	return a, b
}

func TestShapeDelaysWrites(t *testing.T) {
	a, b := pipePair(t)
	shaped := Shape(a, Link{Latency: 30 * time.Millisecond})
	done := make(chan struct{})
	go func() {
		buf := make([]byte, 4)
		_, _ = b.Read(buf)
		close(done)
	}()
	start := time.Now()
	if _, err := shaped.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	<-done
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Fatalf("shaped write completed in %v, want ≥ 30ms", elapsed)
	}
}

func TestShapeZeroLinkPassesThrough(t *testing.T) {
	a, _ := pipePair(t)
	if Shape(a, Link{}) != a {
		t.Fatal("zero link should not wrap the connection")
	}
}

func TestInjectFaultFailWrites(t *testing.T) {
	a, b := pipePair(t)
	go func() {
		buf := make([]byte, 64)
		for {
			if _, err := b.Read(buf); err != nil {
				return
			}
		}
	}()
	faulty := InjectFault(a, FailWrites, 10)
	if _, err := faulty.Write(make([]byte, 8)); err != nil {
		t.Fatalf("write within budget failed: %v", err)
	}
	if _, err := faulty.Write(make([]byte, 8)); err == nil {
		t.Fatal("write beyond budget succeeded")
	}
	// Subsequent writes keep failing.
	if _, err := faulty.Write([]byte("x")); err == nil {
		t.Fatal("tripped connection recovered unexpectedly")
	}
}

func TestInjectFaultCloseAbruptly(t *testing.T) {
	a, b := pipePair(t)
	go func() {
		buf := make([]byte, 64)
		for {
			if _, err := b.Read(buf); err != nil {
				return
			}
		}
	}()
	faulty := InjectFault(a, CloseAbruptly, 4)
	if _, err := faulty.Write([]byte("ok")); err != nil {
		t.Fatalf("write within budget failed: %v", err)
	}
	if _, err := faulty.Write(make([]byte, 16)); err == nil {
		t.Fatal("write beyond budget succeeded")
	}
	// The underlying conn is closed: raw writes fail too.
	if _, err := a.Write([]byte("y")); err == nil {
		t.Fatal("underlying conn still open after abrupt close")
	}
}

// countConn counts writes through to a sink — used to pin the
// one-latency-charge-per-frame contract.
type countConn struct {
	net.Conn
	writes int
	bytes  int
}

func (c *countConn) Write(p []byte) (int, error) {
	c.writes++
	c.bytes += len(p)
	return len(p), nil
}

// TestShapedConnChargesLatencyOncePerFrame is the regression test for the
// shaped-link double-charge: a protocol frame must reach the shaped
// connection as ONE write (header and payload together), so the one-way link
// latency is paid exactly once per frame. Before the fix, WriteFrame issued
// two writes and every frame on a shaped link paid 2× latency.
func TestShapedConnChargesLatencyOncePerFrame(t *testing.T) {
	sink := &countConn{}
	const latency = 20 * time.Millisecond
	shaped := Shape(sink, Link{Latency: latency})

	// One frame: 17-byte header + 1000-byte payload, written the way the
	// protocol layer writes it (a single buffer).
	frame := make([]byte, 17+1000)
	start := time.Now()
	if _, err := shaped.Write(frame); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if sink.writes != 1 || sink.bytes != len(frame) {
		t.Fatalf("frame forwarded as %d writes / %d bytes, want 1 / %d", sink.writes, sink.bytes, len(frame))
	}
	if elapsed < latency {
		t.Fatalf("latency not charged: %v < %v", elapsed, latency)
	}
	if elapsed >= 2*latency {
		t.Fatalf("latency double-charged: one frame took %v on a %v link", elapsed, latency)
	}
}
