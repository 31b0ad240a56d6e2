package interconnect

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"hetmp/internal/machine"
)

func TestSpecsValid(t *testing.T) {
	for _, s := range []Spec{RDMA56(), TCPIP()} {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

// TestCalibratedFaultCosts pins the model to the paper's measured fault
// latencies (Section 3.2): ~30 µs for RDMA, ~90 µs for TCP/IP faults
// issued from the Xeon and ~120 µs from the ThunderX.
func TestCalibratedFaultCosts(t *testing.T) {
	xeon, tx := machine.XeonE5_2620v4(), machine.ThunderX()
	const page = 4096
	within := func(got, want, tol time.Duration) bool {
		d := got - want
		if d < 0 {
			d = -d
		}
		return d <= tol
	}

	rdma := RDMA56()
	fromXeon := rdma.PageFault(xeon, tx, page, nil).Total()
	fromTX := rdma.PageFault(tx, xeon, page, nil).Total()
	if !within(fromXeon, 30*time.Microsecond, 8*time.Microsecond) {
		t.Errorf("RDMA fault from Xeon = %v, want ≈30µs", fromXeon)
	}
	if !within(fromTX, 30*time.Microsecond, 8*time.Microsecond) {
		t.Errorf("RDMA fault from ThunderX = %v, want ≈30µs", fromTX)
	}

	tcp := TCPIP()
	tcpFromXeon := tcp.PageFault(xeon, tx, page, nil).Total()
	tcpFromTX := tcp.PageFault(tx, xeon, page, nil).Total()
	if !within(tcpFromXeon, 90*time.Microsecond, 20*time.Microsecond) {
		t.Errorf("TCP/IP fault from Xeon = %v, want ≈90µs", tcpFromXeon)
	}
	if !within(tcpFromTX, 120*time.Microsecond, 25*time.Microsecond) {
		t.Errorf("TCP/IP fault from ThunderX = %v, want ≈120µs", tcpFromTX)
	}
	if tcpFromXeon >= tcpFromTX {
		t.Error("TCP/IP faults must cost more from the ThunderX than from the Xeon")
	}
}

func TestRDMAFasterThanTCP(t *testing.T) {
	xeon, tx := machine.XeonE5_2620v4(), machine.ThunderX()
	r := RDMA56().PageFault(xeon, tx, 4096, nil).Total()
	c := TCPIP().PageFault(xeon, tx, 4096, nil).Total()
	if c < 2*r {
		t.Errorf("TCP/IP fault (%v) should be at least 2× RDMA (%v)", c, r)
	}
}

func TestTransferTime(t *testing.T) {
	s := RDMA56()
	got := s.TransferTime(4096)
	bw := 56e9 / 8
	want := time.Duration(float64(4096) / bw * 1e9) // ≈585ns
	diff := got - want
	if diff < 0 {
		diff = -diff
	}
	if diff > 10*time.Nanosecond {
		t.Errorf("4KB transfer = %v, want ≈%v", got, want)
	}
	if s.TransferTime(0) != 0 {
		t.Error("zero bytes must transfer in zero time")
	}
	if s.TransferTime(8192) <= s.TransferTime(4096) {
		t.Error("transfer time must grow with payload")
	}
}

func TestJitterBoundedAndSeeded(t *testing.T) {
	xeon, tx := machine.XeonE5_2620v4(), machine.ThunderX()
	tcp := TCPIP()
	base := tcp.PageFault(xeon, tx, 4096, nil).Total()
	rng := rand.New(rand.NewSource(7))
	lo := time.Duration(float64(base) * (1 - tcp.JitterFrac - 0.01))
	hi := time.Duration(float64(base) * (1 + tcp.JitterFrac + 0.01))
	for i := 0; i < 200; i++ {
		got := tcp.PageFault(xeon, tx, 4096, rng).Total()
		if got < lo || got > hi {
			t.Fatalf("jittered fault %v outside [%v, %v]", got, lo, hi)
		}
	}
	// Seeded determinism.
	a := tcp.PageFault(xeon, tx, 4096, rand.New(rand.NewSource(3))).Total()
	b := tcp.PageFault(xeon, tx, 4096, rand.New(rand.NewSource(3))).Total()
	if a != b {
		t.Error("same seed must produce the same jittered cost")
	}
}

func TestControlMessageCheaperThanFault(t *testing.T) {
	xeon, tx := machine.XeonE5_2620v4(), machine.ThunderX()
	for _, s := range []Spec{RDMA56(), TCPIP()} {
		ctrl := s.ControlMessage(xeon, tx).Total()
		fault := s.PageFault(xeon, tx, 4096, nil).Total()
		if ctrl >= fault {
			t.Errorf("%s: control message (%v) must be cheaper than a page fault (%v)", s.Name, ctrl, fault)
		}
	}
}

func TestEffectiveOwnerService(t *testing.T) {
	s := RDMA56()
	if got := s.EffectiveOwnerService(10 * time.Microsecond); got != 5*time.Microsecond {
		t.Errorf("2 workers must halve service: got %v", got)
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	s := RDMA56()
	s.BandwidthBytesPerSec = 0
	if err := s.Validate(); err == nil {
		t.Error("accepted zero bandwidth")
	}
	s = TCPIP()
	s.DSMWorkers = 0
	if err := s.Validate(); err == nil {
		t.Error("accepted zero DSM workers")
	}
}

func TestByName(t *testing.T) {
	for _, want := range []Spec{RDMA56(), TCPIP()} {
		got, err := ByName(want.Name)
		if err != nil || got != want {
			t.Errorf("ByName(%q) = %+v, %v; want the calibrated %s spec", want.Name, got, err, want.Name)
		}
	}
	_, err := ByName("tcp")
	if err == nil {
		t.Fatal("ByName accepted unknown protocol \"tcp\"")
	}
	for _, name := range []string{"tcp", "rdma", "tcpip"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not mention %q", err, name)
		}
	}
}
