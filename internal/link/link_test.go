package link

import (
	"bytes"
	"testing"
)

func frames(n, size int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		f := make([]byte, size)
		for j := range f {
			f[j] = byte(i + j)
		}
		out[i] = f
	}
	return out
}

// drain pushes n frames and collects everything delivered within a
// generous horizon.
func drain(c *Channel, fs [][]byte) [][]byte {
	for r, f := range fs {
		if err := c.Send(r, f); err != nil {
			panic(err)
		}
	}
	var got [][]byte
	got = append(got, c.Receive(len(fs)+64)...)
	return got
}

func TestPerfectChannelDeliversInOrder(t *testing.T) {
	c := New(Params{Seed: 1}, 0)
	fs := frames(50, 100)
	got := drain(c, fs)
	if len(got) != len(fs) {
		t.Fatalf("perfect channel delivered %d/%d", len(got), len(fs))
	}
	for i := range fs {
		if !bytes.Equal(got[i], fs[i]) {
			t.Fatalf("frame %d reordered or mutated on a perfect channel", i)
		}
	}
	if c.Pending() != 0 {
		t.Fatalf("%d frames stuck in flight", c.Pending())
	}
}

func TestDeliveryRespectsDelay(t *testing.T) {
	c := New(Params{Seed: 2}, 0)
	if err := c.Send(10, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if got := c.Receive(10); got != nil {
		t.Fatal("frame receivable in its send round despite Delay=1")
	}
	if got := c.Receive(11); len(got) != 1 {
		t.Fatalf("frame not receivable after the base delay: %d", len(got))
	}
}

func TestMTUEnforced(t *testing.T) {
	c := New(Params{Seed: 3}, 0)
	if err := c.Send(0, make([]byte, DefaultMTU)); err != nil {
		t.Fatalf("MTU-sized frame rejected: %v", err)
	}
	if err := c.Send(0, make([]byte, DefaultMTU+1)); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestIIDLossRate(t *testing.T) {
	c := New(Params{Seed: 4, Loss: 0.3}, 0)
	const n = 4000
	got := drain(c, frames(n, 20))
	rate := 1 - float64(len(got))/n
	if rate < 0.25 || rate > 0.35 {
		t.Fatalf("observed loss %.3f, configured 0.30", rate)
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	p := Params{Seed: 5, Loss: 0.2, Reorder: 0.1, Duplicate: 0.05, Corrupt: 0.05, Jitter: 3}
	a := drain(New(p, 7), frames(500, 40))
	b := drain(New(p, 7), frames(500, 40))
	if len(a) != len(b) {
		t.Fatalf("same seed delivered %d vs %d frames", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("same seed diverged at delivery %d", i)
		}
	}
	c := drain(New(Params{Seed: 6, Loss: 0.2, Reorder: 0.1, Duplicate: 0.05, Corrupt: 0.05, Jitter: 3}, 7),
		frames(500, 40))
	if len(c) == len(a) {
		same := true
		for i := range a {
			if !bytes.Equal(a[i], c[i]) {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical fault patterns")
		}
	}
}

func TestGilbertElliottBursts(t *testing.T) {
	// Long-ish bursts: expect runs of consecutive losses far beyond what
	// i.i.d. loss at the same average rate would produce.
	c := New(Params{Seed: 7, BurstEnter: 0.02, BurstExit: 0.2}, 0)
	const n = 3000
	longest, cur := 0, 0
	for r := 0; r < n; r++ {
		if err := c.Send(r, []byte{byte(r)}); err != nil {
			t.Fatal(err)
		}
		if got := c.Receive(r + 1); len(got) == 0 {
			cur++
			if cur > longest {
				longest = cur
			}
		} else {
			cur = 0
		}
	}
	if longest < 4 {
		t.Fatalf("longest loss burst %d — Gilbert–Elliott state not bursting", longest)
	}
}

func TestReorderActuallyReorders(t *testing.T) {
	c := New(Params{Seed: 8, Reorder: 0.3}, 0)
	const n = 400
	for r := 0; r < n; r++ {
		if err := c.Send(r, []byte{byte(r), byte(r >> 8)}); err != nil {
			t.Fatal(err)
		}
	}
	var order []int
	for r := 0; r <= n+16; r++ {
		for _, f := range c.Receive(r) {
			order = append(order, int(f[0])|int(f[1])<<8)
		}
	}
	if len(order) != n {
		t.Fatalf("lossless reordering channel delivered %d/%d", len(order), n)
	}
	inversions := 0
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			inversions++
		}
	}
	if inversions == 0 {
		t.Fatal("no inversions at 30% reorder probability")
	}
}

func TestDuplicateDelivers(t *testing.T) {
	c := New(Params{Seed: 9, Duplicate: 0.5}, 0)
	got := drain(c, frames(200, 10))
	if len(got) <= 200 {
		t.Fatalf("delivered %d frames at 50%% duplication, want > 200", len(got))
	}
}

func TestCorruptionMutatesExactlyOneBit(t *testing.T) {
	c := New(Params{Seed: 10, Corrupt: 1}, 0)
	orig := frames(50, 64)
	got := drain(c, orig)
	if len(got) != len(orig) {
		t.Fatalf("corruption dropped frames: %d/%d", len(got), len(orig))
	}
	for i := range got {
		diff := 0
		for j := range got[i] {
			b := got[i][j] ^ orig[i][j]
			for ; b != 0; b &= b - 1 {
				diff++
			}
		}
		if diff != 1 {
			t.Fatalf("frame %d: %d bits flipped, want exactly 1", i, diff)
		}
	}
	// The sender's buffer must be untouched: corruption happens to the
	// channel's copy.
	if orig[0][0] != 0 {
		t.Fatal("corruption reached back into the sender's buffer")
	}
}

func TestSetParamsHeals(t *testing.T) {
	c := New(Params{Seed: 11, Loss: 1}, 0)
	for r := 0; r < 20; r++ {
		if err := c.Send(r, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Receive(40); len(got) != 0 {
		t.Fatalf("total-loss channel delivered %d frames", len(got))
	}
	c.SetParams(Params{Seed: 11})
	for r := 40; r < 60; r++ {
		if err := c.Send(r, []byte{2}); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Receive(80); len(got) != 20 {
		t.Fatalf("healed channel delivered %d/20", len(got))
	}
}

// TestAirtimeAccounting: a channel bills every frame offered within the
// MTU — dropped ones too — at bytes / 600 kB/s plus 0.8 ms, so serial
// frames sum and each carries the fixed per-frame overhead once.
func TestAirtimeAccounting(t *testing.T) {
	if got := Airtime(60000); got < 0.1008-1e-12 || got > 0.1008+1e-12 {
		t.Fatalf("60 kB frame airtime %v, want 0.1008 s", got)
	}
	if got := Airtime(0); got != FrameOverheadSec {
		t.Fatalf("empty frame airtime %v, want the %v s overhead", got, FrameOverheadSec)
	}
	c := New(Params{Seed: 5, Loss: 0.5}, 0)
	var want float64
	for i, size := range []int{1400, 1, 700, 1400, 0, 333} {
		if err := c.Send(i, make([]byte, size)); err != nil {
			t.Fatal(err)
		}
		want += Airtime(size)
	}
	if err := c.Send(9, make([]byte, DefaultMTU+1)); err == nil {
		t.Fatal("oversized frame accepted")
	}
	u := c.Usage()
	if u.Frames != 6 || u.Bytes != 1400+1+700+1400+333 {
		t.Fatalf("usage %+v, want 6 frames of 3834 bytes (the oversized send is not billed)", u)
	}
	if d := u.Airtime() - want; d < -1e-12 || d > 1e-12 {
		t.Fatalf("airtime %v, want the serial sum %v", u.Airtime(), want)
	}
	// Six frames pay the fixed overhead six times.
	if d := u.Airtime() - float64(u.Bytes)/RateBytesPerSec - 6*FrameOverheadSec; d < -1e-12 || d > 1e-12 {
		t.Fatalf("airtime %v does not carry one overhead per frame", u.Airtime())
	}
	if got := u.Plus(u); got != (Usage{Frames: 12, Bytes: 2 * u.Bytes}) {
		t.Fatalf("Plus gave %+v", got)
	}
}
