package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"rups/internal/core"
	"rups/internal/engine"
	"rups/internal/obs"
	"rups/internal/trajectory"
	"rups/internal/v2v"
)

// timed collects a workload's timed operations, split by the tracing mode
// of the block each one started in (index 0 untraced, 1 traced).
type timed struct {
	latMS   [2][]float64
	atS     [2][]float64 // when each sample was due, seconds into the region
	answers [2]int
	wallS   [2]float64
}

// add records one latency sample due at seconds into the timed region.
func (t *timed) add(traced bool, at, ms float64) {
	m := modeIdx(traced)
	t.latMS[m] = append(t.latMS[m], ms)
	t.atS[m] = append(t.atS[m], at)
}

// blockMedians returns the untraced latency median of each successive
// span of the timed region: a run-internal view of machine noise.
func (t *timed) blockMedians(span float64) []float64 {
	var blocks [][]float64
	for i, at := range t.atS[0] {
		k := int(at / span)
		for len(blocks) <= k {
			blocks = append(blocks, nil)
		}
		blocks[k] = append(blocks[k], t.latMS[0][i])
	}
	var out []float64
	for _, bl := range blocks {
		if len(bl) > 0 {
			out = append(out, quantile(bl, 0.5))
		}
	}
	return out
}

func modeIdx(traced bool) int {
	if traced {
		return 1
	}
	return 0
}

// apply reports the timed samples. The wall-clock figures (latency
// percentiles, answers per second) are printed with their sample counts;
// the gated end-to-end timing is the CPU cost of an answer, which time the
// hypervisor steals does not inflate. In a traced run every timing's
// tracing overhead becomes a per-layer metric. what names the latency
// sample in the report.
func (b *bench) apply(t *timed, what string) {
	type fig struct{ p50, p90, perSec, cpuMS float64 }
	var figs [2]fig
	for m, name := range []string{"untraced", "traced"} {
		n := len(t.latMS[m])
		if n == 0 {
			continue
		}
		f := fig{quantile(t.latMS[m], 0.5), quantile(t.latMS[m], 0.9),
			ratio(float64(t.answers[m]), t.wallS[m]), 1e3 * ratio(b.cpuMode[m], float64(t.answers[m]))}
		figs[m] = f
		b.reportf("%s %s: latency_p50_ms %.4f, latency_p90_ms %.4f (%d beyond), latency_p99_ms %.4f (%d beyond), n=%d; answers_per_s %.3f (%d in %.3f s); cpu_ms_per_answer %.4f",
			name, what, f.p50, f.p90, n/10, quantile(t.latMS[m], 0.99), n/100, n,
			f.perSec, t.answers[m], t.wallS[m], f.cpuMS)
		if n < 100 && !b.o.smoke {
			b.reportf("warning: %s has fewer than 10 samples beyond p90", name)
		}
	}
	if bm := t.blockMedians(2); len(bm) > 1 {
		parts := make([]string, len(bm))
		for i, v := range bm {
			parts[i] = strconv.FormatFloat(v, 'f', 2, 64)
		}
		b.reportf("untraced latency p50 per 2 s of the timed region (ms): %s", strings.Join(parts, " "))
	}
	b.e2e["cpu_ms_per_answer"] = figs[0].cpuMS
	if b.reg == nil {
		return
	}
	over := func(traced, untraced float64) float64 { return ratio(traced, untraced) - 1 }
	u, tr := figs[0], figs[1]
	b.layer["obs.trace_overhead_frac.cpu_ms_per_answer"] = over(tr.cpuMS, u.cpuMS)
	b.layer["obs.trace_overhead_frac.latency_p50_ms"] = over(tr.p50, u.p50)
	b.layer["obs.trace_overhead_frac.latency_p90_ms"] = over(tr.p90, u.p90)
	// Throughput: a slower traced block delivers fewer answers per second.
	b.layer["obs.trace_overhead_frac.answers_per_s"] = over(u.perSec, tr.perSec)
}

// prom is a parsed Prometheus text exposition of the run's registry.
type prom struct {
	val     map[string]float64
	buckets map[string][][2]float64 // histogram name → (le, cumulative count)
}

// scrape parses reg's exposition (nil registry → empty).
func scrape(reg *obs.Registry) (prom, error) {
	p := prom{val: make(map[string]float64), buckets: make(map[string][][2]float64)}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return p, err
	}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		key, vs, ok := strings.Cut(line, " ")
		if !ok {
			return p, fmt.Errorf("exposition line %q", line)
		}
		v, err := strconv.ParseFloat(vs, 64)
		if err != nil {
			return p, fmt.Errorf("exposition line %q: %w", line, err)
		}
		if name, le, ok := strings.Cut(key, "_bucket{le=\""); ok {
			bound := math.Inf(1)
			if s := strings.TrimSuffix(le, "\"}"); s != "+Inf" {
				if bound, err = strconv.ParseFloat(s, 64); err != nil {
					return p, fmt.Errorf("exposition line %q: %w", line, err)
				}
			}
			p.buckets[name] = append(p.buckets[name], [2]float64{bound, v})
			continue
		}
		p.val[key] = v
	}
	return p, sc.Err()
}

// quantile estimates the q-quantile of a histogram by linear
// interpolation inside the bucket holding it (0 when empty).
func (p prom) quantile(name string, q float64) float64 {
	bs := p.buckets[name]
	if len(bs) == 0 || bs[len(bs)-1][1] == 0 {
		return 0
	}
	rank := q * bs[len(bs)-1][1]
	lo, prev := 0.0, 0.0
	for _, b := range bs {
		if b[1] >= rank {
			if math.IsInf(b[0], 1) {
				return lo
			}
			if b[1] == prev {
				return b[0]
			}
			return lo + (b[0]-lo)*(rank-prev)/(b[1]-prev)
		}
		lo, prev = b[0], b[1]
	}
	return lo
}

// registryLayers reads the program's own rups_* counters and histograms,
// accumulated over the traced blocks, into per-layer metrics.
func (b *bench) registryLayers() error {
	p, err := scrape(b.reg)
	if err != nil {
		return err
	}
	v := p.val
	b.layer["core.prune_frac"] = ratio(v["rups_searcher_windows_pruned_total"],
		v["rups_searcher_windows_pruned_total"]+v["rups_searcher_windows_scanned_total"])
	hits, falls := v["rups_core_warmstart_hits_total"], v["rups_core_warmstart_fallbacks_total"]
	b.layer["core.warm_hit_frac"] = ratio(hits, hits+falls)
	b.layer["core.warm_attempts"] = hits + falls
	b.layer["core.syn_accept_frac"] = ratio(v["rups_searcher_syn_accepted_total"],
		v["rups_searcher_syn_accepted_total"]+v["rups_searcher_syn_rejected_total"])
	b.layer["engine.pair_ms_p50"] = 1e3 * p.quantile("rups_engine_pair_seconds", 0.5)
	b.layer["engine.pair_ms_p99"] = 1e3 * p.quantile("rups_engine_pair_seconds", 0.99)
	b.layer["engine.batch_size_mean"] = ratio(v["rups_engine_pair_seconds_count"], v["rups_engine_batches_total"])
	b.layer["engine.tasks_inline_frac"] = ratio(v["rups_engine_tasks_inline_total"], v["rups_engine_tasks_total"])
	b.layer["engine.queue_depth_peak"] = v["rups_engine_queue_depth_peak"]
	// Link and sync counters; convoy-dsrc replaces them with a full
	// drive's count, the service workloads have no link (0).
	b.layer["link.bytes_sent"] = v["rups_link_bytes_sent_total"]
	b.layer["link.frames_sent"] = v["rups_link_frames_sent_total"]
	b.layer["v2v.retransmits"] = v["rups_v2v_chunks_retransmitted_total"]
	b.layer["trajectory.snapshot_bytes_copied"] = ratio(v["rups_trajectory_snapshot_bytes_copied_total"], v["rups_trajectory_snapshots_total"])
	b.layer["serve.refused"] = v["rups_serve_refused_total"]
	b.layer["serve.shed"] = v["rups_serve_queries_shed_total"]
	b.layer["serve.evictions"] = v["rups_serve_evictions_total"]
	b.layer["serve.slow_disconnects"] = v["rups_serve_slow_disconnects_total"]
	b.layer["serve.malformed"] = v["rups_serve_malformed_total"]
	b.reportf("core warm-start: %.0f hits / %.0f attempts (core.warm_hit_frac %.4f)", hits, hits+falls, b.layer["core.warm_hit_frac"])
	if b.o.workload != "convoy-dsrc" {
		b.layer["serve.resolve_ms_p50"] = 1e3 * p.quantile("rups_serve_resolve_seconds", 0.5)
		b.layer["serve.resolve_ms_p99"] = 1e3 * p.quantile("rups_serve_resolve_seconds", 0.99)
		b.reportf("serve.resolve_ms_p50 %.4f ms, serve.resolve_ms_p99 %.4f ms (server admission→answer, n=%.0f)",
			b.layer["serve.resolve_ms_p50"], b.layer["serve.resolve_ms_p99"], v["rups_serve_resolve_seconds_count"])
	}
	if n := v["rups_engine_batch_seconds_count"]; n > 0 {
		b.reportf("engine batch (ResolvePairs* call) p50 %.4f ms, n=%.0f",
			1e3*p.quantile("rups_engine_batch_seconds", 0.5), n)
	}
	return nil
}

// replayInput is what a traced run replays through the server-internal
// stages TCP (or ResolveAllAt) hides: the run's own streams, contexts and
// pairs.
type replayInput struct {
	// streams are trajectories encoded and offered in deltas of
	// deltaMarks marks, chunked like v2v.Session (ChunkMarks per chunk).
	streams    []*trajectory.Aware
	deltaMarks int
	// contexts are the resolver-side contexts of one admission and pairs
	// the pairs it resolves (indexes into contexts).
	contexts []*trajectory.Aware
	pairs    [][2]int
	now      float64
	pol      core.Staleness
}

// chunkFrames encodes the marks [from, to) of a as v2v DATA frames the way
// the sync protocol does: ChunkMarks-mark deltas (v2v.Session's chunking),
// each fragmented by DataFrames.
func chunkFrames(a *trajectory.Aware, from, to int, epoch uint32) [][]byte {
	per := v2v.DefaultSyncConfig().ChunkMarks
	var out [][]byte
	for at := from; at < to; at += per {
		end := min(at+per, to)
		d := v2v.Delta{FromMark: at, Marks: a.Geo.Marks[at:end], Power: make([][]float64, a.Width())}
		for ch := range d.Power {
			d.Power[ch] = a.RowCopy(ch, at, end)
		}
		out = append(out, v2v.DataFrames(d, obs.TraceRef{}, epoch)...)
	}
	return out
}

// prefixN returns an owned copy of a's first n marks.
func prefixN(a *trajectory.Aware, n int) *trajectory.Aware {
	rows := make([][]float64, a.Width())
	for ch := range rows {
		rows[ch] = a.RowCopy(ch, 0, n)
	}
	p := trajectory.NewAwareWidth(trajectory.Geo{}, a.Width())
	p.AppendColumns(a.Geo.Marks[:n], rows)
	return p
}

// replay times the program's stages on in, with program telemetry off,
// and records the per-layer replay metrics.
func (b *bench) replay(in replayInput, p core.Params) error {
	b.setTraced(false)
	const maxStreams = 4
	var encSec, offerSec float64
	var marks, frames, frameBytes int
	for si, a := range in.streams {
		if si == maxStreams {
			break
		}
		rx := v2v.NewReceiver(a.Width())
		for from := 0; from < a.Len(); from += in.deltaMarks {
			to := min(from+in.deltaMarks, a.Len())
			t0 := time.Now()
			frs := chunkFrames(a, from, to, 1)
			encSec += time.Since(t0).Seconds()
			marks += to - from
			t0 = time.Now()
			for _, fr := range frs {
				if !rx.Offer(fr) {
					return fmt.Errorf("replay: receiver rejected a frame")
				}
				frameBytes += len(fr)
			}
			offerSec += time.Since(t0).Seconds()
			frames += len(frs)
		}
		if rx.Copy().Len() != a.Len() {
			return fmt.Errorf("replay: receiver holds %d of %d marks", rx.Copy().Len(), a.Len())
		}
	}
	b.layer["v2v.encode_us_per_mark"] = 1e6 * ratio(encSec, float64(marks))
	b.layer["v2v.offer_us_per_frame"] = 1e6 * ratio(offerSec, float64(frames))
	b.layer["v2v.frame_bytes_per_mark"] = ratio(float64(frameBytes), float64(marks))

	var snapUS []float64
	for rep := 0; rep < 5; rep++ {
		for _, c := range in.contexts {
			t0 := time.Now()
			_ = c.Snapshot()
			snapUS = append(snapUS, 1e6*time.Since(t0).Seconds())
		}
	}
	b.layer["trajectory.snapshot_us_p50"] = quantile(snapUS, 0.5)

	e := engine.New(b.nproc)
	defer e.Close()
	batch := in.contexts
	var admitUS, rpMS []float64
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		bt, err := e.Admit(batch...)
		admitUS = append(admitUS, 1e6*time.Since(t0).Seconds())
		if err != nil {
			return err
		}
		if rep < 3 {
			t0 = time.Now()
			bt.ResolvePairsAt(in.pairs, p, in.now, in.pol)
			rpMS = append(rpMS, 1e3*time.Since(t0).Seconds())
		}
	}
	b.layer["engine.admit_us_p50"] = quantile(admitUS, 0.5)
	b.layer["engine.resolve_pairs_ms_p50"] = quantile(rpMS, 0.5)

	const maxPairs = 24
	var coldMS []float64
	for i, pr := range in.pairs {
		if i == maxPairs {
			break
		}
		a, c := batch[pr[0]], batch[pr[1]]
		t0 := time.Now()
		core.Resolve(a, c, p)
		coldMS = append(coldMS, 1e3*time.Since(t0).Seconds())
	}
	b.layer["core.resolve_cold_ms_p50"] = quantile(coldMS, 0.5)
	b.reportf("replay: %d marks in %d frames (%.1f B/mark); snapshot p50 %.2f us; Admit(%d) p50 %.2f us; ResolvePairsAt(%d pairs) p50 %.3f ms; core.Resolve p50 %.3f ms over %d pairs",
		marks, frames, b.layer["v2v.frame_bytes_per_mark"], b.layer["trajectory.snapshot_us_p50"],
		len(batch), b.layer["engine.admit_us_p50"], len(in.pairs), b.layer["engine.resolve_pairs_ms_p50"],
		b.layer["core.resolve_cold_ms_p50"], len(coldMS))
	return nil
}
