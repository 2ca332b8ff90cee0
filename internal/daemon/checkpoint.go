package daemon

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"time"

	"dspp/internal/core"
	"dspp/internal/monitor"
)

// Checkpoint format versions. Version 2 is the binary record every save
// writes; version 1 (one JSON object) is still read, so a checkpoint
// written before the binary format resumes, and the next save upgrades
// it.
const (
	checkpointV1 = 1
	checkpointV2 = 2
)

// checkpointMagic opens every v2 record. Its first byte is not '{', which
// is how a reader tells a v2 record from a v1 JSON file.
const checkpointMagic = "DSPPCKPT"

// v2 record layout: magic, u32 version, u32 record length (trailer
// included), the fields, u32 CRC-32C of everything before it.
const (
	ckptHeaderLen  = len(checkpointMagic) + 8
	ckptTrailerLen = 4
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checkpoint is the daemon's persisted state: everything a restart needs
// to continue the control loop exactly where it stopped. The warm capsule
// and the Welford snapshots make the resumed run's plans bit-identical to
// an uninterrupted one. The JSON tags are the v1 layout, which is only
// read.
type checkpoint struct {
	Version      int                  `json:"version"`
	Period       int                  `json:"period"`
	State        [][]float64          `json:"state"`
	DemandHist   [][]float64          `json:"demand_hist"`
	PriceHist    [][]float64          `json:"price_hist"`
	DemandCorr   monitor.WelfordState `json:"demand_corr"`
	DelayCorr    monitor.WelfordState `json:"delay_corr"`
	LastForecast []float64            `json:"last_forecast,omitempty"`
	MissStreak   int                  `json:"miss_streak"`
	Warm         *core.WarmState      `json:"warm,omitempty"`
}

// appendCheckpoint appends ck's v2 record to buf. Every float64 is
// written as its little-endian bit pattern, so restore is exact, and
// every slice carries its length.
func appendCheckpoint(buf []byte, ck *checkpoint) []byte {
	start := len(buf)
	buf = append(buf, checkpointMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, checkpointV2)
	buf = binary.LittleEndian.AppendUint32(buf, 0) // record length, patched below
	buf = appendInt(buf, ck.Period)
	buf = appendMatrix(buf, ck.State)
	buf = appendMatrix(buf, ck.DemandHist)
	buf = appendMatrix(buf, ck.PriceHist)
	buf = appendWelford(buf, ck.DemandCorr)
	buf = appendWelford(buf, ck.DelayCorr)
	buf = appendFloats(buf, ck.LastForecast)
	buf = appendInt(buf, ck.MissStreak)
	if w := ck.Warm; w == nil {
		buf = append(buf, 0)
	} else {
		buf = append(buf, 1)
		buf = appendFloats(buf, w.Y)
		buf = appendFloats(buf, w.Z)
		buf = appendInt(buf, w.Pairs)
		buf = appendInt(buf, w.Horizon)
		buf = appendInt(buf, w.RowsPer)
	}
	n := len(buf) - start + ckptTrailerLen
	binary.LittleEndian.PutUint32(buf[start+len(checkpointMagic)+4:], uint32(n))
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[start:], castagnoli))
}

func appendInt(buf []byte, v int) []byte {
	return binary.LittleEndian.AppendUint64(buf, uint64(int64(v)))
}

func appendFloats(buf []byte, xs []float64) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(xs)))
	for _, x := range xs {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
	}
	return buf
}

func appendMatrix(buf []byte, rows [][]float64) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rows)))
	for _, row := range rows {
		buf = appendFloats(buf, row)
	}
	return buf
}

func appendWelford(buf []byte, w monitor.WelfordState) []byte {
	buf = appendInt(buf, w.N)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(w.Mean))
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(w.M2))
}

// errShortRecord reports a v2 record whose fields run past its end.
var errShortRecord = errors.New("record truncated")

// recordReader decodes a v2 record's fields in order; the first failure
// sticks, so a caller checks err once at the end.
type recordReader struct {
	b   []byte
	err error
}

func (r *recordReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > len(r.b) {
		r.err = errShortRecord
		return nil
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p
}

func (r *recordReader) int() int {
	p := r.take(8)
	if p == nil {
		return 0
	}
	return int(int64(binary.LittleEndian.Uint64(p)))
}

func (r *recordReader) float() float64 {
	p := r.take(8)
	if p == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(p))
}

// count reads a length prefix and checks that n elements of at least
// size bytes each fit in the rest of the record, so a corrupt length can
// never drive a huge allocation.
func (r *recordReader) count(size int) int {
	p := r.take(4)
	if p == nil {
		return 0
	}
	n := int(binary.LittleEndian.Uint32(p))
	if n > len(r.b)/size {
		r.err = errShortRecord
		return 0
	}
	return n
}

// floats reads a length-prefixed slice; an empty one decodes as nil.
func (r *recordReader) floats() []float64 {
	n := r.count(8)
	if n == 0 {
		return nil
	}
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.float()
	}
	return xs
}

func (r *recordReader) matrix() [][]float64 {
	n := r.count(4)
	if n == 0 {
		return nil
	}
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = r.floats()
	}
	return rows
}

func (r *recordReader) welford() monitor.WelfordState {
	return monitor.WelfordState{N: r.int(), Mean: r.float(), M2: r.float()}
}

// decodeCheckpoint parses one slot's bytes: a v1 JSON object when the
// first byte is '{', otherwise a v2 record, whose own length says where
// it ends (bytes after it are left over from a longer earlier record)
// and whose CRC-32C trailer must match.
func decodeCheckpoint(data []byte) (*checkpoint, error) {
	if len(data) > 0 && data[0] == '{' {
		var ck checkpoint
		if err := json.Unmarshal(data, &ck); err != nil {
			return nil, err
		}
		if ck.Version != checkpointV1 {
			return nil, fmt.Errorf("JSON checkpoint has version %d, want %d: %w", ck.Version, checkpointV1, ErrBadConfig)
		}
		return &ck, nil
	}
	if len(data) < ckptHeaderLen+ckptTrailerLen || !bytes.HasPrefix(data, []byte(checkpointMagic)) {
		return nil, errors.New("not a checkpoint record")
	}
	if v := binary.LittleEndian.Uint32(data[len(checkpointMagic):]); v != checkpointV2 {
		return nil, fmt.Errorf("checkpoint has version %d, want %d: %w", v, checkpointV2, ErrBadConfig)
	}
	n := int64(binary.LittleEndian.Uint32(data[len(checkpointMagic)+4:]))
	if n < int64(ckptHeaderLen+ckptTrailerLen) || n > int64(len(data)) {
		return nil, fmt.Errorf("record length %d, have %d bytes: %w", n, len(data), errShortRecord)
	}
	body, sum := data[:n-ckptTrailerLen], binary.LittleEndian.Uint32(data[n-ckptTrailerLen:n])
	if got := crc32.Checksum(body, castagnoli); got != sum {
		return nil, fmt.Errorf("checksum %08x, record says %08x", got, sum)
	}
	r := recordReader{b: body[ckptHeaderLen:]}
	ck := &checkpoint{Version: checkpointV2}
	ck.Period = r.int()
	ck.State = r.matrix()
	ck.DemandHist = r.matrix()
	ck.PriceHist = r.matrix()
	ck.DemandCorr = r.welford()
	ck.DelayCorr = r.welford()
	ck.LastForecast = r.floats()
	ck.MissStreak = r.int()
	switch flag := r.take(1); {
	case flag == nil:
	case flag[0] == 1:
		ck.Warm = &core.WarmState{Y: r.floats(), Z: r.floats(), Pairs: r.int(), Horizon: r.int(), RowsPer: r.int()}
	case flag[0] != 0:
		return nil, fmt.Errorf("warm flag %d", flag[0])
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("%d unread bytes before the checksum", len(r.b))
	}
	return ck, nil
}

// validate checks a decoded checkpoint against the daemon's instance, so
// a restored state can never index out of range in the next period:
// allocation shape and values, DC totals within capacity, history row
// widths and lengths, the last forecast's width, and the non-negative
// counters. A served plan never exceeds capacity (an anytime plan is
// projected onto it), so a total above c + 1e-4·(1+c) is refused: the
// capacity row's right-hand side is c − Σx0, and from a state far above c
// the solver's relative tolerance becomes an absolute overrun.
func (d *Daemon) validate(ck *checkpoint) error {
	state := core.State(ck.State)
	if err := d.inst.CheckState(state); err != nil {
		return fmt.Errorf("state: %w", err)
	}
	caps := d.inst.Capacities()
	for l, total := range state.TotalByDC() {
		if c := caps[l]; total > c+1e-4*(1+c) {
			return fmt.Errorf("state puts %g servers in DC %d, capacity %g: %w", total, l, c, ErrBadConfig)
		}
	}
	v, l := d.inst.NumLocations(), d.inst.NumDataCenters()
	if len(ck.DemandHist) != len(ck.PriceHist) {
		return fmt.Errorf("demand history has %d rows, price history %d: %w",
			len(ck.DemandHist), len(ck.PriceHist), ErrBadConfig)
	}
	for i, row := range ck.DemandHist {
		if len(row) != v {
			return fmt.Errorf("demand history row %d has %d entries, want %d: %w", i, len(row), v, ErrBadConfig)
		}
	}
	for i, row := range ck.PriceHist {
		if len(row) != l {
			return fmt.Errorf("price history row %d has %d entries, want %d: %w", i, len(row), l, ErrBadConfig)
		}
	}
	if ck.LastForecast != nil && len(ck.LastForecast) != v {
		return fmt.Errorf("last forecast has %d entries, want %d: %w", len(ck.LastForecast), v, ErrBadConfig)
	}
	if ck.Period < 0 || ck.DemandCorr.N < 0 || ck.DelayCorr.N < 0 || ck.MissStreak < 0 {
		return fmt.Errorf("negative counter (period %d, correction samples %d/%d, miss streak %d): %w",
			ck.Period, ck.DemandCorr.N, ck.DelayCorr.N, ck.MissStreak, ErrBadConfig)
	}
	return nil
}

// checkpoint captures the daemon's current state. Caller holds d.mu.
func (d *Daemon) checkpoint() checkpoint {
	return checkpoint{
		Period:       d.period,
		State:        d.ctrl.State(),
		DemandHist:   d.demandHist,
		PriceHist:    d.priceHist,
		DemandCorr:   d.demandCorr.Snapshot(),
		DelayCorr:    d.delayCorr.Snapshot(),
		LastForecast: d.lastForecast,
		MissStreak:   d.ctrl.MissStreak(),
		Warm:         d.ctrl.WarmCapsule().Export(),
	}
}

// slotPath names checkpoint slot i: <path> and <path>.1.
func slotPath(path string, i int) string {
	if i == 0 {
		return path
	}
	return path + ".1"
}

// saveCheckpoint persists the current state into the slot that does not
// hold the newest record, with one positioned write at offset 0 into a
// file kept open across periods: no temp file, no rename. A crash
// mid-write tears only that slot; the other still holds the previous
// period. The first save of a fresh start is the exception: it removes a
// stale <path>.1 left by an earlier run and creates <path> by temp file
// and rename, since until <path> exists there is no older record to fall
// back on. Caller holds d.mu.
func (d *Daemon) saveCheckpoint(path string) error {
	var start time.Time
	if d.mCkpt != nil {
		start = time.Now()
	}
	ck := d.checkpoint()
	d.ckptBuf = appendCheckpoint(d.ckptBuf[:0], &ck)
	if d.ckptNewest < 0 {
		if err := d.createCheckpoint(path); err != nil {
			return err
		}
	} else {
		slot := 1 - d.ckptNewest
		f := d.ckptFiles[slot]
		if f == nil {
			var err error
			if f, err = os.OpenFile(slotPath(path, slot), os.O_RDWR|os.O_CREATE, 0o644); err != nil {
				return fmt.Errorf("daemon: open checkpoint slot: %w", err)
			}
			d.ckptFiles[slot] = f
		}
		if _, err := f.WriteAt(d.ckptBuf, 0); err != nil {
			return fmt.Errorf("daemon: write checkpoint: %w", err)
		}
		d.ckptNewest = slot
	}
	if d.mCkpt != nil {
		d.mCkpt.Inc()
		d.gCkptBytes.Set(float64(len(d.ckptBuf)))
		d.hCkptSeconds.Observe(time.Since(start).Seconds())
	}
	return nil
}

// createCheckpoint installs the first record of a fresh start as <path>
// and keeps the file open as slot 0.
func (d *Daemon) createCheckpoint(path string) error {
	if err := os.Remove(slotPath(path, 1)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("daemon: remove stale checkpoint slot: %w", err)
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("daemon: create checkpoint: %w", err)
	}
	if _, err := f.Write(d.ckptBuf); err != nil {
		f.Close()
		return fmt.Errorf("daemon: write checkpoint: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		f.Close()
		return fmt.Errorf("daemon: install checkpoint: %w", err)
	}
	d.ckptFiles[0] = f
	d.ckptNewest = 0
	return nil
}

// closeCheckpoint closes the open slot files; Run calls it on return.
// The next save reopens them.
func (d *Daemon) closeCheckpoint() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	var first error
	for i, f := range d.ckptFiles {
		if f == nil {
			continue
		}
		if err := f.Close(); err != nil && first == nil {
			first = fmt.Errorf("daemon: close checkpoint: %w", err)
		}
		d.ckptFiles[i] = nil
	}
	return first
}

// loadCheckpoint restores state from the checkpoint slots, reporting
// whether one was restored. A missing <path> is a fresh start (<path>.1
// is not consulted). Otherwise both slots are decoded and the valid one
// with the higher period wins; when neither is valid the error names
// both — silently discarding state a deployment relies on would be worse
// than failing loudly.
func (d *Daemon) loadCheckpoint(path string) (bool, error) {
	data0, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("daemon: read checkpoint: %w", err)
	}
	var (
		best *checkpoint
		errs [2]error
	)
	for slot := 0; slot < 2; slot++ {
		data := data0
		if slot == 1 {
			if data, err = os.ReadFile(slotPath(path, 1)); err != nil {
				errs[1] = err
				continue
			}
		}
		ck, err := decodeCheckpoint(data)
		if err == nil {
			err = d.validate(ck)
		}
		if err != nil {
			errs[slot] = err
			continue
		}
		if best == nil || ck.Period > best.Period {
			best, d.ckptNewest = ck, slot
		}
	}
	if best == nil {
		return false, fmt.Errorf("daemon: checkpoint %s: %w; %s: %w",
			path, errs[0], slotPath(path, 1), errs[1])
	}
	if err := d.ctrl.SetState(core.State(best.State)); err != nil {
		return false, err
	}
	d.ctrl.RestoreWarm(core.ImportWarm(best.Warm))
	d.ctrl.RestoreMissStreak(best.MissStreak)
	d.period = best.Period
	d.demandHist = best.DemandHist
	d.priceHist = best.PriceHist
	d.demandCorr.Restore(best.DemandCorr)
	d.delayCorr.Restore(best.DelayCorr)
	d.lastForecast = best.LastForecast
	return true, nil
}
