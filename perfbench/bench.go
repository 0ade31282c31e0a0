package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rups/internal/obs"
	"rups/internal/stats"
)

// Operation outcomes. Every operation a workload attempts lands in exactly
// one; the failed ones are the error_rate numerator.
const (
	outOK         = "ok"
	outUnresolved = "unresolved"
	outStale      = "stale" // answered, flagged stale by the server
	outShed       = "shed"
	outUnknown    = "unknown_vehicle"
	outRefusedQ   = "refused_queue_full"
	outRefusedR   = "refused_rate"
	outRefusedD   = "refused_draining"
	outRefusedC   = "refused_conn_limit"
	outDisconnect = "disconnect"
	outTransport  = "transport_error"
	outEngine     = "engine_error"
)

// failedOutcome reports whether an outcome counts as a failed operation.
func failedOutcome(o string) bool {
	switch o {
	case outOK, outUnresolved, outStale:
		return false
	}
	return true
}

// bench is one run's shared state: options, outcome counts, metrics, the
// heap sampler and (in a traced run) the telemetry registry and span
// recorder.
type bench struct {
	o     options
	nproc int
	// blockSec is the length of one tracing block: a traced run alternates
	// untraced and traced blocks over its timed region, so the tracing
	// overhead is measured on interleaved, like-for-like work.
	blockSec float64

	mu       sync.Mutex
	outcomes map[string]int

	e2e    map[string]float64
	layer  map[string]float64
	report []string
	// setupCPU and setupWall are the process CPU and wall seconds of each
	// repeated set-up unit; setup_s is the median CPU figure.
	setupCPU, setupWall []float64

	// heapPeak is the run's peak live heap; timedPeak the peak from the
	// start of the timed region (after a collection that closes set-up).
	heapPeak  atomic.Uint64
	timedPeak atomic.Uint64
	timing    atomic.Bool
	heapStop  chan struct{}
	heapDone  chan struct{}
	// cpuAt is /proc/stat's (steal, total) jiffies at the start of the
	// timed region; stealFrac the share of CPU time the hypervisor stole
	// during it.
	cpuAt     [2]uint64
	stealFrac float64
	// cpuMode accumulates the process CPU seconds of the timed region by
	// tracing mode (index 0 untraced, 1 traced); cpuMark is the reading at
	// the last mode switch and mode the current mode.
	modeMu  sync.Mutex
	cpuMode [2]float64
	cpuMark float64
	mode    int

	// Traced runs only.
	reg     *obs.Registry
	rec     *obs.Recorder
	traceID obs.TraceID
	traced  atomic.Bool // current block is traced
}

func newBench(o options, nproc int) *bench {
	b := &bench{
		o: o, nproc: nproc, blockSec: 1,
		outcomes: make(map[string]int),
		e2e:      make(map[string]float64),
		layer:    make(map[string]float64),
		heapStop: make(chan struct{}),
		heapDone: make(chan struct{}),
	}
	if o.smoke {
		b.blockSec = 0.15
	}
	if o.trace {
		b.reg = obs.NewRegistry()
		// Large enough to keep every span of a full run, the benchmark's
		// own and those the program records while the recorder is on.
		b.rec = obs.NewRecorder(1 << 18)
		b.traceID = b.rec.NewTrace()
	}
	go b.sampleHeap()
	return b
}

// logf writes a progress line to standard error.
func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "[%s] "+format+"\n", append([]any{b.o.workload}, args...)...)
}

// reportf adds one human-readable report line.
func (b *bench) reportf(format string, args ...any) {
	b.report = append(b.report, fmt.Sprintf(format, args...))
}

// count records n operations with the given outcome.
func (b *bench) count(outcome string, n int) {
	b.mu.Lock()
	b.outcomes[outcome] += n
	b.mu.Unlock()
}

func (b *bench) attempted() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, c := range b.outcomes {
		n += c
	}
	return n
}

func (b *bench) failed() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for o, c := range b.outcomes {
		if failedOutcome(o) {
			n += c
		}
	}
	return n
}

// setupUnit times one repeated set-up unit.
func (b *bench) setupUnit(fn func() error) error {
	start, cpu := time.Now(), processCPU()
	err := fn()
	b.setupCPU = append(b.setupCPU, processCPU()-cpu)
	b.setupWall = append(b.setupWall, time.Since(start).Seconds())
	return err
}

// sampleHeap tracks the peak of the runtime's live-heap metric until
// close.
func (b *bench) sampleHeap() {
	defer close(b.heapDone)
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		metrics.Read(s)
		if s[0].Value.Kind() == metrics.KindUint64 {
			v := s[0].Value.Uint64()
			if v > b.heapPeak.Load() {
				b.heapPeak.Store(v)
			}
			if b.timing.Load() && v > b.timedPeak.Load() {
				b.timedPeak.Store(v)
			}
		}
		select {
		case <-tick.C:
		case <-b.heapStop:
			return
		}
	}
}

// startTimed closes set-up: a collection drops set-up garbage from the
// live heap, and the timed region's heap peak starts from what the run
// retains.
func (b *bench) startTimed() {
	runtime.GC()
	b.cpuAt = cpuJiffies()
	b.cpuMark = processCPU()
	b.timing.Store(true)
}

// processCPU returns the process's user+system CPU seconds so far.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// cpuJiffies returns the machine's (steal, total) CPU jiffies from
// /proc/stat, zero where unavailable.
func cpuJiffies() [2]uint64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return [2]uint64{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	var out [2]uint64
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return [2]uint64{}
		}
		if i == 7 {
			out[0] = n
		}
		if i < 8 { // user … steal; guest time is already inside user
			out[1] += n
		}
	}
	return out
}

// endTimed closes the timed region: it stops the heap sampler and records
// the region's CPU time and steal (idempotent).
func (b *bench) endTimed() {
	select {
	case <-b.heapStop:
		return
	default:
		close(b.heapStop)
	}
	<-b.heapDone
	if !b.timing.Load() {
		return // set-up failed before timing began
	}
	b.modeMu.Lock()
	b.cpuMode[b.mode] += processCPU() - b.cpuMark
	b.timing.Store(false)
	b.modeMu.Unlock()
	if now := cpuJiffies(); now[1] > b.cpuAt[1] {
		b.stealFrac = float64(now[0]-b.cpuAt[0]) / float64(now[1]-b.cpuAt[1])
	}
}

// close releases what the run still holds; safe after finish.
func (b *bench) close() {
	b.endTimed()
	obs.Disable()
	obs.SetRecorder(nil)
}

// setTraced switches program telemetry and span recording on or off for
// the next block of work. No-op in an untraced run.
func (b *bench) setTraced(on bool) {
	if b.reg == nil {
		return
	}
	b.modeMu.Lock()
	if m := modeIdx(on); b.timing.Load() && m != b.mode {
		now := processCPU()
		b.cpuMode[b.mode] += now - b.cpuMark
		b.cpuMark, b.mode = now, m
	}
	b.modeMu.Unlock()
	b.traced.Store(on)
	if on {
		obs.Enable(b.reg)
		obs.SetRecorder(b.rec)
	} else {
		obs.Disable()
		obs.SetRecorder(nil)
	}
}

// blockTraced reports whether the timed region's block containing
// elapsed seconds is a traced one: a traced run alternates untraced and
// traced blocks; an untraced run never traces.
func (b *bench) blockTraced(elapsed float64) bool {
	return b.reg != nil && int(elapsed/b.blockSec)%2 == 1
}

// span opens a benchmark-side span around one call into a layer. Inert
// unless the current block is traced.
func (b *bench) span(name string, parent obs.SpanID) obs.Span {
	if !b.traced.Load() {
		return obs.Span{}
	}
	return b.rec.StartChild(b.traceID, parent, name)
}

// finish derives the shared metrics and, in a traced run, writes the span
// file and the per-layer self-time table.
func (b *bench) finish() error {
	b.e2e["setup_s"] = stats.Median(b.setupCPU)
	b.endTimed()
	b.e2e["peak_heap_mb"] = float64(b.timedPeak.Load()) / 1e6
	att, fail := b.attempted(), b.failed()
	if att == 0 {
		return fmt.Errorf("workload %s attempted no operation", b.o.workload)
	}
	b.e2e["served_frac"] = 1 - float64(fail)/float64(att)
	b.reportf("setup_s %.4f s (median CPU seconds of %d set-up units; wall median %.4f s, wall total %.3f s)",
		b.e2e["setup_s"], len(b.setupCPU), stats.Median(b.setupWall), sum(b.setupWall))
	b.reportf("error_rate %.6f frac (%d failed / %d attempted)", float64(fail)/float64(att), fail, att)
	for _, o := range sortedKeys(b.outcomes) {
		b.reportf("outcome %-20s %d", o, b.outcomes[o])
	}
	b.reportf("peak_heap_mb %.3f MB in the timed region (%.3f MB over the whole run, set-up included)",
		b.e2e["peak_heap_mb"], float64(b.heapPeak.Load())/1e6)
	if b.rec != nil {
		b.setTraced(false)
		b.reportSelfTimes()
		if err := b.writeSpans(); err != nil {
			return err
		}
	}
	return nil
}

// reportSelfTimes prints, per span name, the median self time: the span's
// duration minus the part its child spans cover.
func (b *bench) reportSelfTimes() {
	evs := b.rec.Events()
	child := make(map[obs.SpanID]time.Duration)
	for _, ev := range evs {
		if ev.Parent != 0 {
			child[ev.Parent] += ev.Dur
		}
	}
	self := make(map[string][]float64)
	for _, ev := range evs {
		d := ev.Dur - child[ev.ID]
		if d < 0 {
			d = 0
		}
		self[ev.Name] = append(self[ev.Name], float64(d)/1e6)
	}
	for _, n := range sortedKeys(self) {
		b.reportf("span %-28s self_ms_p50 %.4f  (n=%d)", n, stats.Median(self[n]), len(self[n]))
	}
}

// writeSpans writes every recorded span as JSON at the end of the run.
func (b *bench) writeSpans() error {
	if err := os.MkdirAll(b.o.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(b.o.outDir, fmt.Sprintf("spans-%s-seed%d.json", b.o.workload, b.o.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	werr := json.NewEncoder(w).Encode(struct {
		Total  uint64          `json:"total"`
		Events []obs.SpanEvent `json:"events"`
	}{b.rec.Total(), b.rec.Events()})
	if werr == nil {
		werr = w.Flush()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("write spans: %w", werr)
	}
	b.reportf("spans written to %s", path)
	return nil
}

// envRecord is the reproducibility record printed with every result.
type envRecord struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Workers    int     `json:"engine_workers"`
	NProc      int     `json:"nproc"`
	CPU        string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	// StealFrac is the share of the machine's CPU time the hypervisor
	// stole during the timed region: a noisy neighbour shows here.
	StealFrac float64 `json:"cpu_steal_frac"`
}

func (b *bench) env() envRecord {
	return envRecord{
		Workload: b.o.workload, Seed: b.o.seed, Seconds: b.o.seconds, Trace: b.o.trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: b.nproc, NProc: b.nproc,
		CPU: cpuModel(), GoVersion: runtime.Version(), Commit: commitID(),
		StealFrac: b.stealFrac,
	}
}

// cpuModel reads the CPU model name from /proc/cpuinfo ("unknown" when
// unavailable).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commitID identifies the code under test: the git HEAD when the checkout
// is a repository, otherwise a SHA-256 over the module's Go sources and
// go.mod files (the benchmark runs from plain exported trees too).
func commitID() string {
	if head, err := os.ReadFile(".git/HEAD"); err == nil {
		ref := strings.TrimSpace(string(head))
		if r, ok := strings.CutPrefix(ref, "ref: "); ok {
			if id, err := os.ReadFile(filepath.Join(".git", r)); err == nil {
				return "git:" + strings.TrimSpace(string(id))
			}
		} else {
			return "git:" + ref
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(src))
		h.Write(src)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// quantile is stats.Quantile that tolerates an empty sample (NaN).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return stats.Quantile(xs, q)
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// ratio returns num/den, or 0 when den is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
