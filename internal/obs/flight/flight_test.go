package flight

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestNilRingNoops(t *testing.T) {
	var r *Ring
	r.Emit(Event{Kind: KindRefused})
	if got := r.Snapshot(); got != nil {
		t.Fatalf("nil ring snapshot = %v, want nil", got)
	}
	if r.Total() != 0 || r.Dumps() != 0 {
		t.Fatalf("nil ring has totals")
	}
	if path, err := r.Anomaly("x", Event{}); path != "" || err != nil {
		t.Fatalf("nil ring anomaly = %q, %v", path, err)
	}
}

func TestEmitSnapshotOrder(t *testing.T) {
	r := NewRing(8, Config{})
	for i := 0; i < 20; i++ {
		r.Emit(Event{T: float64(i), Kind: KindRetransmit, A: int32(i), B: -1})
	}
	evs := r.Snapshot()
	if len(evs) != 8 {
		t.Fatalf("snapshot kept %d events, want ring size 8", len(evs))
	}
	for i, ev := range evs {
		wantSeq := uint64(12 + i)
		if ev.Seq != wantSeq || ev.A != int32(wantSeq) {
			t.Fatalf("event %d = seq %d a %d, want seq %d", i, ev.Seq, ev.A, wantSeq)
		}
	}
	if r.Total() != 20 {
		t.Fatalf("Total = %d, want 20", r.Total())
	}
}

// TestConcurrentEmit hammers the ring from many goroutines while a reader
// snapshots; under -race this exercises the seqlock. Snapshots must never
// contain a torn event (Seq inconsistent with its slot position).
func TestConcurrentEmit(t *testing.T) {
	r := NewRing(64, Config{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				r.Emit(Event{T: float64(i), Kind: Kind(g + 1), A: int32(g), B: int32(i)})
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			for _, ev := range r.Snapshot() {
				if ev.Kind < 1 || ev.Kind > 4 {
					t.Errorf("torn event: kind %d", ev.Kind)
					return
				}
			}
		}
	}()
	wg.Wait()
	<-done
	if r.Total() != 8000 {
		t.Fatalf("Total = %d, want 8000", r.Total())
	}
	// Quiesced ring: snapshot must be complete and strictly ordered.
	evs := r.Snapshot()
	if len(evs) != 64 {
		t.Fatalf("quiesced snapshot has %d events, want 64", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("snapshot not contiguous at %d: %d then %d", i, evs[i-1].Seq, evs[i].Seq)
		}
	}
}

func TestCapsuleRoundTrip(t *testing.T) {
	events := []Event{
		{Seq: 40, T: 1.5, Kind: KindStaleness, A: 2, B: 5, V1: 1, V2: 0},
		{Seq: 41, T: 2.25, Kind: KindRetransmit, A: 0, B: 1, V1: 96, V2: 3},
		{Seq: 42, T: 3.5, Kind: Kind(999), A: -1, B: -1, V1: -7}, // unknown kind survives
	}
	meta := Meta{Reason: "test", TriggerSeq: 42, TriggerT: 3.5, WindowSec: 30}
	blob, err := EncodeCapsule(meta, events)
	if err != nil {
		t.Fatal(err)
	}
	gotMeta, gotEvents, err := DecodeCapsule(blob)
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta.Reason != "test" || gotMeta.Version != CapsuleVersion || gotMeta.Count != 3 {
		t.Fatalf("meta round trip: %+v", gotMeta)
	}
	if len(gotEvents) != len(events) {
		t.Fatalf("got %d events, want %d", len(gotEvents), len(events))
	}
	for i := range events {
		if gotEvents[i] != events[i] {
			t.Fatalf("event %d round trip: got %+v want %+v", i, gotEvents[i], events[i])
		}
	}
	if gotEvents[2].Kind.String() != "kind_999" {
		t.Fatalf("unknown kind renders %q", gotEvents[2].Kind.String())
	}
}

func TestCapsuleRejectsCorruption(t *testing.T) {
	blob, err := EncodeCapsule(Meta{Reason: "x"}, []Event{{Seq: 1, Kind: KindRefused}})
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), blob...)
	bad[len(bad)-6] ^= 0xFF // flip a record byte: CRC must catch it
	if _, _, err := DecodeCapsule(bad); err == nil {
		t.Fatal("corrupted capsule decoded")
	}
	if _, _, err := DecodeCapsule(blob[:10]); err == nil {
		t.Fatal("truncated capsule decoded")
	}
	future := append([]byte(nil), blob...)
	future[4] = 99 // version 99 > CapsuleVersion
	if _, _, err := DecodeCapsule(future); err == nil {
		t.Fatal("future-version capsule decoded")
	}
}

func TestAnomalyDumpAndCooldown(t *testing.T) {
	dir := t.TempDir()
	r := NewRing(128, Config{Dir: dir, WindowSec: 10, CooldownEvents: 50})
	for i := 0; i < 30; i++ {
		// Events at t=0..29s; the 10s window around the trigger at t=29
		// keeps only t >= 19.
		r.Emit(Event{T: float64(i), Kind: KindStaleness, A: 1, B: 2, V1: int64(i)})
	}
	path, err := r.Anomaly("refused_pair", Event{T: 29, Kind: KindRefused, A: 1, B: 2})
	if err != nil {
		t.Fatal(err)
	}
	if path == "" {
		t.Fatal("no capsule written")
	}
	meta, evs, err := ReadCapsule(path)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Reason != "refused_pair" {
		t.Fatalf("reason %q", meta.Reason)
	}
	for _, ev := range evs {
		if ev.T < 19 {
			t.Fatalf("event at t=%v leaked past the %vs window", ev.T, meta.WindowSec)
		}
	}
	// 11 staleness events (t=19..29) + the trigger itself.
	if len(evs) != 12 {
		t.Fatalf("capsule holds %d events, want 12", len(evs))
	}
	if r.Dumps() != 1 {
		t.Fatalf("Dumps = %d", r.Dumps())
	}

	// A second anomaly inside the cooldown is swallowed.
	if p2, err := r.Anomaly("refused_pair", Event{T: 29.5, Kind: KindRefused}); err != nil || p2 != "" {
		t.Fatalf("cooldown violated: %q, %v", p2, err)
	}
	// After CooldownEvents more emissions it dumps again.
	for i := 0; i < 60; i++ {
		r.Emit(Event{T: 30, Kind: KindRetransmit})
	}
	p3, err := r.Anomaly("retransmit_burst", Event{T: 31, Kind: KindRTOBackoff})
	if err != nil {
		t.Fatal(err)
	}
	if p3 == "" || p3 == path {
		t.Fatalf("second dump path %q", p3)
	}
	files, err := filepath.Glob(filepath.Join(dir, "capsule-*.flight"))
	if err != nil || len(files) != 2 {
		t.Fatalf("capsule files %v, %v", files, err)
	}
}

// TestCapsuleWriteFailureDisablesDumping pins the unwritable-directory
// contract: the first failed capsule write surfaces its error (and logs
// once), and every later anomaly degrades to counting-only — no repeated
// errors, no further disk attempts — while the ring keeps recording. The
// "directory" is a regular file, which fails MkdirAll even when the test
// runs with enough privilege to ignore permission bits.
func TestCapsuleWriteFailureDisablesDumping(t *testing.T) {
	notADir := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(notADir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	r := NewRing(64, Config{Dir: notADir, CooldownEvents: 1})
	for i := 0; i < 5; i++ {
		r.Emit(Event{T: float64(i), Kind: KindStaleness})
	}
	path, err := r.Anomaly("refused_pair", Event{T: 5, Kind: KindRefused})
	if err == nil || path != "" {
		t.Fatalf("first anomaly against a file-as-dir: path %q, err %v; want an error", path, err)
	}
	// Every subsequent anomaly and explicit dump is silently disabled.
	if p2, err2 := r.Anomaly("refused_pair", Event{T: 6, Kind: KindRefused}); err2 != nil || p2 != "" {
		t.Fatalf("second anomaly after disable: path %q, err %v; want silent no-op", p2, err2)
	}
	if p3, err3 := r.Dump("exit", 7); err3 != nil || p3 != "" {
		t.Fatalf("Dump after disable: path %q, err %v; want silent no-op", p3, err3)
	}
	if r.Dumps() != 0 {
		t.Fatalf("Dumps = %d after only failed writes, want 0", r.Dumps())
	}
	// The ring itself kept recording: both triggers and the plain events.
	evs := r.Snapshot()
	if len(evs) != 7 {
		t.Fatalf("ring holds %d events, want 7", len(evs))
	}
}

func TestAnomalyWithoutDirStillCounts(t *testing.T) {
	r := NewRing(16, Config{})
	path, err := r.Anomaly("refused_pair", Event{T: 1, Kind: KindRefused, A: 3, B: 4})
	if err != nil || path != "" {
		t.Fatalf("dirless anomaly = %q, %v", path, err)
	}
	evs := r.Snapshot()
	if len(evs) != 1 || evs[0].Kind != KindRefused {
		t.Fatalf("trigger not recorded: %v", evs)
	}
}

func TestEnableActive(t *testing.T) {
	if Active() != nil {
		t.Fatal("flight active before Enable")
	}
	r := NewRing(16, Config{})
	Enable(r)
	defer Disable()
	if Active() != r {
		t.Fatal("Active did not return the enabled ring")
	}
	Disable()
	if Active() != nil {
		t.Fatal("Disable left a ring active")
	}
}

func TestMain(m *testing.M) {
	os.Exit(m.Run())
}

// TestEmitZeroAlloc pins the ring's hot-path contract: emitting costs no
// allocations whether the recorder is live, and the disabled (nil) path —
// an Active() miss plus a no-op Emit — is equally free.
func TestEmitZeroAlloc(t *testing.T) {
	r := NewRing(64, Config{})
	ev := Event{T: 1.5, Kind: KindStaleness, A: 1, B: 2, V1: 3, V2: 4}
	if n := testing.AllocsPerRun(200, func() { r.Emit(ev) }); n != 0 {
		t.Errorf("enabled Emit: %v allocs/op, want 0", n)
	}
	var nr *Ring
	if n := testing.AllocsPerRun(200, func() {
		nr.Emit(ev)
		if Active() != nil {
			t.Fatal("ring unexpectedly enabled")
		}
	}); n != 0 {
		t.Errorf("disabled Emit: %v allocs/op, want 0", n)
	}
}
