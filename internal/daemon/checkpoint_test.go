package daemon

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dspp/internal/core"
	"dspp/internal/telemetry"
)

// runCheckpointed runs a fresh or resumed daemon over observations
// [from, to) with checkpoints at ckpt and returns its reports.
func runCheckpointed(t testing.TB, inst *core.Instance, ckpt string, hub *telemetry.Hub, from, to int) []Report {
	t.Helper()
	var out bytes.Buffer
	d, err := New(Config{
		Instance: inst, Horizon: 4,
		Budget:         200 * time.Millisecond,
		CheckpointPath: ckpt,
		Telemetry:      hub,
		Out:            &out,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.Period() != from {
		t.Fatalf("daemon starts at period %d, want %d", d.Period(), from)
	}
	if err := d.Run(context.Background(), strings.NewReader(feedLines(t, from, to, true))); err != nil {
		t.Fatalf("run [%d,%d): %v", from, to, err)
	}
	return decodeReports(t, &out)
}

// readSlot decodes one checkpoint slot file.
func readSlot(t *testing.T, path string) *checkpoint {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := decodeCheckpoint(data)
	if err != nil {
		t.Fatalf("slot %s: %v", path, err)
	}
	return ck
}

// TestDaemonTornSlotResume is the kill -9 case: a crash mid-write leaves
// the slot being written torn — a flipped byte or a short file — and the
// restart must resume from the other slot, one period back, with every
// later report bit-identical to an uninterrupted run.
func TestDaemonTornSlotResume(t *testing.T) {
	inst := testInstance(t)
	const total, cut = 12, 5
	full := runCheckpointed(t, inst, filepath.Join(t.TempDir(), "full.ckpt"), nil, 0, total)
	for _, tc := range []struct {
		name string
		tear func([]byte) []byte
	}{
		{"flipped byte", func(b []byte) []byte { b[len(b)/2] ^= 0x10; return b }},
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ckpt := filepath.Join(t.TempDir(), "dsppd.ckpt")
			runCheckpointed(t, inst, ckpt, nil, 0, cut)
			// Five saves from a fresh start alternate <path>, .1, <path>,
			// .1, <path>.
			if p0, p1 := readSlot(t, ckpt).Period, readSlot(t, ckpt+".1").Period; p0 != cut || p1 != cut-1 {
				t.Fatalf("slot periods %d and %d, want %d and %d", p0, p1, cut, cut-1)
			}
			data, err := os.ReadFile(ckpt)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(ckpt, tc.tear(data), 0o644); err != nil {
				t.Fatal(err)
			}
			resumed := runCheckpointed(t, inst, ckpt, nil, cut-1, total)
			if len(resumed) != total-cut+1 {
				t.Fatalf("%d resumed reports, want %d", len(resumed), total-cut+1)
			}
			for i, r := range resumed {
				want := full[cut-1+i]
				if r.Period != want.Period || r.Mode != want.Mode || r.Cost != want.Cost ||
					r.Servers != want.Servers || r.DemandCorr != want.DemandCorr || r.DelayCorr != want.DelayCorr {
					t.Errorf("period %d: %+v, uninterrupted run %+v", r.Period, r, want)
				}
			}
		})
	}
}

// TestDaemonFreshStartRemovesStaleSlot: deleting <path> resets the
// daemon, and the first save of the fresh run removes the old run's
// <path>.1, so its higher period can never win a later restore. The
// save also feeds the checkpoint metrics.
func TestDaemonFreshStartRemovesStaleSlot(t *testing.T) {
	inst := testInstance(t)
	ckpt := filepath.Join(t.TempDir(), "dsppd.ckpt")
	runCheckpointed(t, inst, ckpt, nil, 0, 5)
	if err := os.Remove(ckpt); err != nil {
		t.Fatal(err)
	}
	hub := telemetry.New()
	runCheckpointed(t, inst, ckpt, hub, 0, 1)
	if _, err := os.Stat(ckpt + ".1"); !os.IsNotExist(err) {
		t.Fatalf("stale slot survived the fresh start: %v", err)
	}
	fi, err := os.Stat(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	snap := hub.Registry().Snapshot()
	if got := snap[telemetry.MetricDaemonCheckpointSeconds+"_count"]; got != 1 {
		t.Errorf("checkpoint histogram count %g, want 1", got)
	}
	if got := snap[telemetry.MetricDaemonCheckpointBytes]; got != float64(fi.Size()) {
		t.Errorf("checkpoint bytes gauge %g, file has %d", got, fi.Size())
	}
	runCheckpointed(t, inst, ckpt, nil, 1, 2)
}

// TestDaemonRefusesInconsistentCheckpoint: a well-formed checkpoint
// whose contents do not fit the instance is refused by New in either
// format, and the consistent ones restore. The short-history and
// long-forecast cases used to restore and then panic the first period
// with an index out of range (in forecastDemand and updateCorrections).
func TestDaemonRefusesInconsistentCheckpoint(t *testing.T) {
	inst := testInstance(t)
	base, err := os.ReadFile(filepath.Join("testdata", "checkpoint_v1_time_major.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(ck *checkpoint)
	}{
		{"consistent", func(*checkpoint) {}},
		{"consistent at capacity", func(ck *checkpoint) { ck.State = [][]float64{{100, 0, 100}, {10, 0, 490.05}} }},
		{"short demand history row", func(ck *checkpoint) { ck.DemandHist[2] = ck.DemandHist[2][:2] }},
		{"long last forecast", func(ck *checkpoint) { ck.LastForecast = append(ck.LastForecast, 7) }},
		{"wide price history row", func(ck *checkpoint) { ck.PriceHist[1] = append(ck.PriceHist[1], 0.1) }},
		{"history lengths differ", func(ck *checkpoint) { ck.PriceHist = ck.PriceHist[1:] }},
		{"state shape", func(ck *checkpoint) { ck.State = ck.State[:1] }},
		{"negative period", func(ck *checkpoint) { ck.Period = -1 }},
		{"negative correction count", func(ck *checkpoint) { ck.DelayCorr.N = -4 }},
		{"negative miss streak", func(ck *checkpoint) { ck.MissStreak = -1 }},
		// DC 1 holds 500 servers: its total may reach 500 + 1e-4·501. The
		// first state used to serve a clean plan with 526.6 servers there.
		{"state far above capacity", func(ck *checkpoint) { ck.State = [][]float64{{100, 0, 100}, {10, 0, 1e10}} }},
		{"state above capacity", func(ck *checkpoint) { ck.State = [][]float64{{100, 0, 100}, {10, 0, 490.06}} }},
	} {
		var ck checkpoint
		if err := json.Unmarshal(base, &ck); err != nil {
			t.Fatal(err)
		}
		tc.mutate(&ck)
		v1, err := json.Marshal(&ck)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range []struct {
			format string
			data   []byte
		}{{"v1", v1}, {"v2", appendCheckpoint(nil, &ck)}} {
			ckpt := filepath.Join(t.TempDir(), "dsppd.ckpt")
			if err := os.WriteFile(ckpt, f.data, 0o644); err != nil {
				t.Fatal(err)
			}
			d, err := New(Config{Instance: inst, Horizon: 4, CheckpointPath: ckpt})
			if strings.HasPrefix(tc.name, "consistent") {
				if err != nil || !d.Restored() || d.Period() != 5 {
					t.Errorf("%s %s: err %v", tc.name, f.format, err)
				}
				continue
			}
			if err == nil {
				t.Errorf("%s %s: restored, want refusal", tc.name, f.format)
			}
		}
	}
}

// reseal recomputes a v2 record's CRC trailer in place, so a fuzzed
// record reaches the field decoder and the validator instead of failing
// the checksum.
func reseal(data []byte) {
	if len(data) < ckptHeaderLen+ckptTrailerLen || !bytes.HasPrefix(data, []byte(checkpointMagic)) {
		return
	}
	n := int(binary.LittleEndian.Uint32(data[len(checkpointMagic)+4:]))
	if n < ckptHeaderLen+ckptTrailerLen || n > len(data) {
		return
	}
	binary.LittleEndian.PutUint32(data[n-ckptTrailerLen:], crc32.Checksum(data[:n-ckptTrailerLen], castagnoli))
}

// FuzzLoadCheckpoint feeds arbitrary bytes to New as the checkpoint file.
// New must never panic: it refuses the file or restores a state that
// passes the validator, and a period then runs on it without panicking.
// A period that serves a plan must leave a finite, nonnegative allocation
// within the instance's capacities, whatever warm capsule the file held:
// the seeds include resealed records whose capsule is NaN, ±Inf or 1e300.
// "Within" is to the solver's loosened acceptance, Tolerance·1e4 relative
// to the capacity, since the validator refuses a restored DC total above
// it.
func FuzzLoadCheckpoint(f *testing.F) {
	inst := testInstance(f)
	v1, err := os.ReadFile(filepath.Join("testdata", "checkpoint_v1_time_major.json"))
	if err != nil {
		f.Fatal(err)
	}
	ckpt := filepath.Join(f.TempDir(), "dsppd.ckpt")
	runCheckpointed(f, inst, ckpt, nil, 0, 3)
	v2, err := os.ReadFile(ckpt)
	if err != nil {
		f.Fatal(err)
	}
	flip := func(b []byte, i int) []byte {
		b = append([]byte(nil), b...)
		b[i] ^= 0x01
		return b
	}
	f.Add(v1, false)
	f.Add(v1[:len(v1)/2], false)
	f.Add(flip(v1, 40), false)
	f.Add(v2, false)
	f.Add(v2[:len(v2)-1], false)
	f.Add(v2[:ckptHeaderLen], false)
	f.Add(flip(v2, len(v2)/2), false)
	f.Add(flip(v2, len(v2)/2), true)
	f.Add(flip(v2, ckptHeaderLen+2), true) // period
	f.Add(flip(v2, ckptHeaderLen+9), true) // state row count
	f.Add(append(append([]byte(nil), v2...), "left over from a longer record"...), false)
	f.Add([]byte(`{"version":1,"state":[[100,0,100],[10,0,1e10]]}`), false)
	base, err := decodeCheckpoint(v2)
	if err != nil || base.Warm == nil {
		f.Fatalf("checkpoint without a warm capsule (err %v)", err)
	}
	for _, poison := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300} {
		for _, inY := range []bool{true, false} {
			ck, w := *base, *base.Warm
			w.Y, w.Z = append([]float64(nil), w.Y...), append([]float64(nil), w.Z...)
			dst := w.Z
			if inY {
				dst = w.Y
			}
			for i := range dst {
				dst[i] = poison
			}
			ck.Warm = &w
			f.Add(appendCheckpoint(nil, &ck), true)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, resealed bool) {
		data = append([]byte(nil), data...)
		if resealed {
			reseal(data)
		}
		path := filepath.Join(t.TempDir(), "dsppd.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		d, err := New(Config{Instance: inst, Horizon: 4, CheckpointPath: path, Out: &out})
		if err != nil {
			return
		}
		ck := d.checkpoint()
		if err := d.validate(&ck); err != nil {
			t.Fatalf("restored state fails validation: %v", err)
		}
		if d.Run(context.Background(), strings.NewReader(feedLines(t, 0, 1, true))) != nil {
			return
		}
		if reps := decodeReports(t, &out); len(reps) != 1 || reps[0].Err != "" {
			return
		}
		state := d.ctrl.State()
		if err := inst.CheckState(state); err != nil {
			t.Fatalf("served allocation: %v", err)
		}
		for l, total := range state.TotalByDC() {
			if c := inst.Capacities()[l]; total > c+1e-4*(1+c) {
				t.Fatalf("served allocation puts %v servers in DC %d, capacity %v", total, l, c)
			}
		}
	})
}

// FuzzObservationLine runs arbitrary input through the JSONL decoder and
// the observation check: neither may panic, and an accepted observation
// has the instance's dimensions and finite, non-negative values.
func FuzzObservationLine(f *testing.F) {
	d, err := New(Config{Instance: testInstance(f), Horizon: 2})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(feedLines(f, 0, 2, true))
	f.Add(feedLines(f, 0, 1, false) + "\n\n{not json}\n")
	f.Add(`{"demand":[1,2],"prices":[0.1,0.1]}`)
	f.Add(`{"demand":[1,2,-3],"prices":[0.1,0.1]}`)
	f.Add(`{"demand":[1,2,3],"prices":[0.1,0.1],"delay":[0.1]}`)
	f.Add(`{"demand":[1e999,2,3],"prices":[0.1,0.1]}`)
	f.Add(`{"demand":null,"prices":{}}`)
	f.Fuzz(func(t *testing.T, data string) {
		dec := newLineDecoder(strings.NewReader(data))
		for {
			obs, err := dec.next()
			if err == io.EOF {
				return
			}
			if err != nil {
				continue
			}
			if d.checkObservation(obs) != nil {
				continue
			}
			if len(obs.Demand) != 3 || len(obs.Prices) != 2 || (obs.Delay != nil && len(obs.Delay) != 3) {
				t.Fatalf("accepted observation with wrong dimensions: %+v", obs)
			}
			for _, xs := range [][]float64{obs.Demand, obs.Prices, obs.Delay} {
				for _, x := range xs {
					if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
						t.Fatalf("accepted observation with value %g: %+v", x, obs)
					}
				}
			}
		}
	})
}

// BenchmarkSaveCheckpoint times one checkpoint save of a daemon with a
// full 96-period history: encode into the reused buffer and write the
// record in place into its slot.
func BenchmarkSaveCheckpoint(b *testing.B) {
	inst := testInstance(b)
	ckpt := filepath.Join(b.TempDir(), "dsppd.ckpt")
	d, err := New(Config{Instance: inst, Horizon: 4, CheckpointPath: ckpt})
	if err != nil {
		b.Fatal(err)
	}
	if err := d.Run(context.Background(), strings.NewReader(feedLines(b, 0, 96, true))); err != nil {
		b.Fatal(err)
	}
	d.mu.Lock()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.saveCheckpoint(ckpt); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(d.ckptBuf)), "B/record")
	d.mu.Unlock()
	if err := d.closeCheckpoint(); err != nil {
		b.Fatal(err)
	}
}
