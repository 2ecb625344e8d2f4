package main

import (
	"fmt"
	"runtime"
	"time"

	"hideseek/internal/emulation"
	"hideseek/internal/stream"
)

// Replay sizes: enough work for steady per-call medians, small next to a
// run.
const (
	zbReplayBlocks = 4
	loraReplayReps = 2
)

// overhead accumulates traced against untraced replay time.
type overhead struct{ traced, untraced time.Duration }

func (o *overhead) add(traced, untraced time.Duration) {
	o.traced += traced
	o.untraced += untraced
}

func (o overhead) pct() float64 {
	return 100 * (o.traced.Seconds() - o.untraced.Seconds()) / o.untraced.Seconds()
}

// stageSumMS is a verdict's ScanNS+QueueNS+DecodeNS+DetectNS in ms.
func stageSumMS(v stream.Verdict) float64 {
	return float64(v.ScanNS+v.QueueNS+v.DecodeNS+v.DetectNS) / 1e6
}

// unattributed prints the reconciliation of a daemon workload's median
// latency against the stage times its own verdicts report.
func unattributed(rep *report, name, workload string, latencyMS []float64, verdicts []stream.Verdict) {
	var sums []float64
	for _, v := range verdicts {
		sums = append(sums, stageSumMS(v))
	}
	p50, stages := median(latencyMS), median(sums)
	rep.set(name, p50-stages, "ms", "")
	rep.note("reconcile %s: latency_p50 %.4f ms - median(scan+queue+decode+detect) %.4f ms = %.4f ms unattributed",
		workload, p50, stages, p50-stages)
}

// compareSessions fails every replay verdict that differs from what the
// daemon returned for the same session.
func compareSessions(t *tally, replay [][]stream.Verdict, daemon func(session int) []stream.Verdict) {
	for s, got := range replay {
		want := daemon(s)
		t.compare(got, len(want), func(i int) (stream.Verdict, frameLabel) { return want[i], frameLabel{Emulated: want[i].Attack} })
	}
}

// selfTime prints the stream layer's self time: Engine.Process CPU time
// minus the calls it made into the other layers.
func selfTime(rep *report, proto string, p pass, rec *recorder, children []string) {
	var childUS float64
	detail := ""
	for _, c := range children {
		us := sum(rec.durations(c))
		childUS += us
		detail += fmt.Sprintf(" %s %.2f ms;", c, us/1e3)
	}
	cpuMS := float64(p.cpu.Microseconds()) / 1e3
	selfMS := cpuMS - childUS/1e3
	msamples := float64(p.samples) / 1e6
	rep.set("stream.self_ms_per_msample_"+proto, selfMS/msamples, "ms/Msample", "")
	rep.note("reconcile %s: Engine.Process CPU %.2f ms - child calls %.2f ms (%s ) = stream self %.2f ms over %.3f Msample",
		proto, cpuMS, childUS/1e3, detail, selfMS, msamples)
}

// receiverLayers prints one victim's receiver and detector calls.
func receiverLayers(rep *report, proto string, rec *recorder, frames int64) {
	n := spansOf(proto)
	sync := rec.durations(n.sync)
	rep.set(proto+".sync_calls_per_frame", float64(len(sync))/float64(frames), "count", "")
	rep.set(proto+".sync_us_per_call", mean(sync), "us", "")
	rep.set(proto+".framespan_us", mean(rec.durations(n.frameSpan)), "us", "")
	rep.set(proto+".decode_us_p50", median(rec.durations(n.decode)), "us", "")
	detect := "lora.detect_us_p50"
	if proto == "zigbee" {
		detect = "emulation.detect_us_p50"
	}
	rep.set(detect, median(rec.durations(n.detect)), "us", "")
}

// zigbeeLayers replays the zigbee-stream block in-process (engine alone,
// daemon path untraced, daemon path traced) and prints its layers.
func zigbeeLayers(rep *report, w *zigbeeWorkload, run *zigbeeRun, oh *overhead, recs map[string]*recorder) error {
	p, err := daemonPipeline("zigbee")
	if err != nil {
		return err
	}
	sessions := []capture{repeatCapture(w.block, zbReplayBlocks)}
	if _, err := replay(p, sessions, fullPath, nil); err != nil { // warm-up
		return err
	}
	eng, err := replay(p, sessions, engineOnly, nil)
	if err != nil {
		return err
	}
	plain, err := replay(p, sessions, fullPath, nil)
	if err != nil {
		return err
	}
	t := &tracer{rec: newRecorder()}
	traced, err := replay(p, sessions, fullPathTraced, t)
	if err != nil {
		return err
	}
	recs["zigbee-stream"] = t.rec
	oh.add(traced.wall, plain.wall)

	var check tally
	for _, ps := range []pass{eng, plain, traced} {
		compareSessions(&check, ps.verdicts, func(int) []stream.Verdict {
			// The daemon's paced session saw the same blocks from the
			// start; past its end, the reference it was checked against.
			want := make([]stream.Verdict, zbReplayBlocks*len(w.ref.verdicts))
			for i := range want {
				if i < len(run.pacedVerdict) {
					want[i] = run.pacedVerdict[i]
				} else {
					want[i], _ = w.ref.expect(i)
				}
			}
			return want
		})
	}
	rep.tally.add(check)

	frames := traced.stats.Frames
	msamples := float64(traced.samples) / 1e6
	rep.set("iq.parse_ns_per_sample", sum(t.rec.durations(spanReadBlock))*1e3/float64(traced.samples), "ns", "")
	rep.set("hideseekd.encode_us_per_verdict", mean(t.rec.durations(spanEncode)), "us", "")
	unattributed(rep, "hideseekd.unattributed_ms_zigbee", "zigbee-stream", run.latencyMS, run.pacedVerdict)
	rep.set("stream.cpu_ms_per_msample_zigbee", float64(eng.cpu.Microseconds())/1e3/(float64(eng.samples)/1e6), "ms/Msample", "engine alone, 1 worker")
	n := spansOf("zigbee")
	selfTime(rep, "zigbee", traced, t.rec, []string{spanReadBlock, n.sync, n.frameSpan, n.decode, n.detect, spanEncode})
	rep.set("stream.allocs_per_frame", float64(eng.mallocs)/float64(eng.stats.Frames), "count", "zigbee, engine alone")
	rep.set("stream.bytes_per_frame", float64(eng.bytes)/float64(eng.stats.Frames), "B", "zigbee, engine alone")
	var queue []float64
	for _, v := range run.pacedVerdict {
		queue = append(queue, float64(v.QueueNS)/1e3)
	}
	rep.set("stream.queue_wait_p99_us", quantile(queue, 0.99), "us", "daemon, paced phase")
	rep.set("stream.sync_useful_ratio_zigbee", float64(frames)/float64(frames+traced.stats.SyncRejects), "ratio", "")
	receiverLayers(rep, "zigbee", t.rec, frames)
	rep.set("emulation.detect_error_rate", run.tally.detectErrorRate(), "ratio", "daemon, all phases")
	rep.set("loadgen.late_p99_ms", checkLoadgen(rep, run.lateMS), "ms", fmt.Sprintf("paced sender, bound %g ms", loadgenLateBoundMS))
	rep.note("zigbee replay: %.3f Msample, %d frames; traced %.1f ms, untraced %.1f ms", msamples, frames,
		float64(traced.wall.Microseconds())/1e3, float64(plain.wall.Microseconds())/1e3)
	return nil
}

// loraLayers replays every lora-classify capture, one session each, and
// prints its layers.
func loraLayers(rep *report, w *loraWorkload, run *loraRun, oh *overhead, recs map[string]*recorder) error {
	p, err := daemonPipeline("lora")
	if err != nil {
		return err
	}
	var sessions []capture
	for range loraReplayReps {
		sessions = append(sessions, w.caps...)
	}
	if _, err := replay(p, w.caps, fullPath, nil); err != nil { // warm-up
		return err
	}
	eng, err := replay(p, sessions, engineOnly, nil)
	if err != nil {
		return err
	}
	plain, err := replay(p, sessions, fullPath, nil)
	if err != nil {
		return err
	}
	t := &tracer{rec: newRecorder()}
	traced, err := replay(p, sessions, fullPathTraced, t)
	if err != nil {
		return err
	}
	recs["lora-classify"] = t.rec
	oh.add(traced.wall, plain.wall)

	var check tally
	for _, ps := range []pass{eng, plain, traced} {
		compareSessions(&check, ps.verdicts, func(s int) []stream.Verdict { return run.first[s%len(w.caps)] })
	}
	rep.tally.add(check)

	frames := traced.stats.Frames
	unattributed(rep, "hideseekd.unattributed_ms_lora", "lora-classify", run.latencyMS, run.verdicts)
	rep.set("stream.cpu_ms_per_msample_lora", float64(eng.cpu.Microseconds())/1e3/(float64(eng.samples)/1e6), "ms/Msample", "engine alone, 1 worker")
	n := spansOf("lora")
	selfTime(rep, "lora", traced, t.rec, []string{spanReadBlock, n.sync, n.frameSpan, n.decode, n.detect, spanEncode})
	rep.set("stream.sync_useful_ratio_lora", float64(frames)/float64(frames+traced.stats.SyncRejects), "ratio", "")
	receiverLayers(rep, "lora", t.rec, frames)
	rep.set("lora.detect_error_rate", run.tally.detectErrorRate(), "ratio", "daemon")
	return nil
}

// attackLayers forges the attack-forge set once through Emulate and once
// through the traced replica, and prints the attack layers.
func attackLayers(rep *report, w *attackWorkload, oh *overhead, recs map[string]*recorder) error {
	emulateMS := map[string][]float64{}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	results := make([]*emulation.Result, len(w.inputs))
	start := time.Now()
	for i, in := range w.inputs {
		wave, err := victimTx(in)
		if err != nil {
			return err
		}
		s := time.Now()
		if results[i], err = w.em.Emulate(wave); err != nil {
			return err
		}
		emulateMS[in.Proto] = append(emulateMS[in.Proto], float64(time.Since(s).Microseconds())/1e3)
		rep.tally.attempted++
		if !sameSamples(results[i].Emulated4M, w.golden[i]) {
			rep.tally.fail("emulate-nondeterministic")
		}
	}
	untraced := time.Since(start)
	runtime.ReadMemStats(&m1)

	rec := newRecorder()
	recs["attack-forge"] = rec
	rp, err := newReplica()
	if err != nil {
		return err
	}
	var samples20M, samples4M, segments int
	start = time.Now()
	for i, in := range w.inputs {
		root := rec.open(spanForge, -1, i)
		s := time.Now()
		wave, err := victimTx(in)
		if err != nil {
			return err
		}
		rec.add(spansOf(in.Proto).tx, root, i, s)
		em := rec.open(spanEmulate, root, i)
		res, err := rp.emulate(rec, em, i, wave)
		if err != nil {
			return err
		}
		rec.close(em)
		rec.close(root)
		rep.tally.attempted++
		if err := sameResult(res, results[i]); err != nil {
			rep.tally.fail("replica-mismatch")
			rep.note("replica differs from Emulate on input %d: %v", i, err)
		}
		samples4M += len(wave)
		samples20M += len(res.Emulated20M)
		segments += res.NumSegments
	}
	oh.add(time.Since(start), untraced)

	forges := float64(len(w.inputs))
	rep.set("zigbee.tx_us", mean(rec.durations(spansOf("zigbee").tx)), "us", "")
	rep.set("lora.tx_us", mean(rec.durations(spansOf("lora").tx)), "us", "")
	rep.set("emulation.emulate_ms_zigbee", mean(emulateMS["zigbee"]), "ms", "Emulate, mean over the set")
	rep.set("emulation.emulate_ms_lora", mean(emulateMS["lora"]), "ms", "Emulate, mean over the set")
	rep.set("dsp.interpolate_us_per_ksample", sum(rec.durations(spanInterpolate))/(float64(samples4M)/1e3), "us", "per 1000 input samples")
	rep.set("wifi.analyze_us_per_symbol", sum(rec.durations(spanAnalyze))/float64(segments), "us", "")
	rep.set("emulation.select_bins_us", sum(rec.durations(spanSelectBins))/forges, "us", "")
	rep.set("emulation.optimize_alpha_ms", sum(rec.durations(spanOptimizeAlpha))/1e3/forges, "ms", "")
	rep.set("wifi.quantize_synthesize_us_per_symbol", sum(rec.durations(spanQuantizeSynth))/float64(segments), "us", "")
	rep.set("dsp.decimate_us_per_ksample", sum(rec.durations(spanDecimate))/(float64(samples20M)/1e3), "us", "per 1000 samples at 20 MS/s")
	rep.set("emulation.allocs_per_forge", float64(m1.Mallocs-m0.Mallocs)/forges, "count", "transmit + Emulate")
	rep.set("emulation.bytes_per_forge", float64(m1.TotalAlloc-m0.TotalAlloc)/forges, "B", "transmit + Emulate")
	emulated := sum(rec.durations(spanEmulate))
	var steps float64
	for _, n := range []string{spanInterpolate, spanAnalyze, spanSelectBins, spanOptimizeAlpha, spanQuantizeSynth, spanDecimate} {
		steps += sum(rec.durations(n))
	}
	rep.note("reconcile attack: replica Emulate %.2f ms - steps %.2f ms = %.2f ms unattributed; replica equals Emulate bit for bit on %d of %d inputs",
		emulated/1e3, steps/1e3, (emulated-steps)/1e3, len(w.inputs)-rep.tally.reasons["replica-mismatch"], len(w.inputs))
	return nil
}
