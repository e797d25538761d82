// Durable checkpoint/resume for the collection pipeline. The paper's
// sensor ran for 385 days; a purely in-memory Dataset discards the whole
// run on any crash. A checkpoint serializes the full dataset state —
// users, counters, the bounded geocode memo, the collection window and
// the analytics state — so a restarted collector resumes with
// statistics bit-identical to an uninterrupted run.
//
// On-disk format (all integers little-endian):
//
//	magic   [8]byte  "DSCKPT\x00" + version byte (5)
//	length  uint64   payload byte count
//	crc32   uint32   IEEE CRC of the payload
//	payload []byte   gob-encoded checkpointState
//
// The v5 payload holds the user store as flat columns, the dataset
// counters, the report engine's opaque analytics blob and the
// top-mentioner ranking (TopRanking). The three int64 columns are raw
// little-endian bytes: gob's per-integer encoding made them most of the
// decode. A v4 payload — the int64 columns gob-encoded, no ranking —
// still loads, through checkpointStateV4, and is re-saved as v5. The
// analytics blob of a v4 file seeds only the clustering, so its first
// refresh is a cold build (report.Engine.RestoreWarm). Nothing older
// loads.
//
// Saves are atomic: the snapshot is written to a temporary file in the
// target directory, synced, and renamed over the destination, so a crash
// mid-save leaves either the old snapshot or the new one — never a torn
// file. Loads verify magic, version, length, and checksum before
// decoding, so a torn or corrupted file fails loudly instead of silently
// skewing statistics.
package pipeline

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"time"

	"donorsense/internal/geo"
	"donorsense/internal/obs/trace"
	"donorsense/internal/organ"
	"donorsense/internal/userstore"
)

// checkpointMagic identifies a donorsense checkpoint; the trailing byte
// is the format version.
var checkpointMagic = [8]byte{'D', 'S', 'C', 'K', 'P', 'T', 0, checkpointVersion}

// checkpointVersion is the format WriteCheckpoint writes;
// checkpointVersionV4 is the one older format still read.
const (
	checkpointVersion   = 5
	checkpointVersionV4 = 4
)

// ErrCheckpointCorrupt reports a snapshot that failed validation (bad
// magic, truncation, or checksum mismatch).
var ErrCheckpointCorrupt = errors.New("pipeline: checkpoint corrupt")

// checkpointState is the gob payload: the user store as flat columns
// (one slice per field, row-major mention matrix, append-ordered state
// intern table) plus the dataset counters, the analytics blob and the
// top-mentioner ranking. Encoding the columns directly — no per-user
// structs — keeps the snapshot one contiguous write per column and lets
// the loader adopt the decoded slices without copying. A v4 payload
// decodes into the same struct: gob matches fields by name, so its
// int64 columns and blob fill the legacy fields, its ranking stays nil,
// and its stream cursor, which nothing reads, is skipped.
type checkpointState struct {
	// The v5 int64 columns and analytics blob, which decode without
	// gob's per-element work (rawInt64s, rawBytes).
	RawUserIDs      rawInt64s
	RawFirstSeen    rawInt64s
	RawFirstTweetID rawInt64s
	RawAnalytics    rawBytes
	// The same as v4 wrote them, read from v4 files only.
	UserIDs      []int64
	FirstSeen    []int64
	FirstTweetID []int64
	Analytics    []byte

	Tweets         []int32
	Clinical       []int32
	Hashtags       []int32
	StateIdx       []uint8
	UserFlags      []uint8
	Mentions       []int32
	StateCodes     []string
	TotalCollected int
	USTweets       int
	GeoTagged      int
	MentionSum     int
	FirstTweet     time.Time
	LastTweet      time.Time
	OrgansPerTweet map[int]int
	LocCache       map[string]geo.Location
	// Top is the top-mentioner ranking, its candidates including the
	// rows changed since the last drain; nil when none is kept.
	Top *TopRanking
}

// snapshot captures the dataset into its serializable form. The column
// slices are borrowed views into the store; the snapshot must be
// encoded before the dataset is mutated again.
func (d *Dataset) snapshot() checkpointState {
	cols := d.store.Columns()
	st := checkpointState{
		RawUserIDs:      cols.IDs,
		RawFirstSeen:    cols.FirstSeen,
		RawFirstTweetID: cols.FirstTweetID,
		RawAnalytics:    d.analytics,
		Tweets:          cols.Tweets,
		Clinical:        cols.Clinical,
		Hashtags:        cols.Hashtags,
		StateIdx:        cols.StateIdx,
		UserFlags:       cols.Flags,
		Mentions:        cols.Mentions,
		StateCodes:      cols.StateCodes,
		TotalCollected:  d.totalCollected,
		USTweets:        d.usTweets,
		GeoTagged:       d.geoTagged,
		MentionSum:      d.mentionSum,
		FirstTweet:      d.firstTweet,
		LastTweet:       d.lastTweet,
		OrgansPerTweet:  make(map[int]int, len(d.organsPerTweet)),
		LocCache:        make(map[string]geo.Location, d.locCache.len()),
	}
	for k, n := range d.organsPerTweet {
		st.OrgansPerTweet[k] = n
	}
	d.locCache.each(func(k string, v geo.Location) { st.LocCache[k] = v })
	if r := d.top; r.K > 0 {
		// A loaded store has no delta, so the rows changed since the last
		// drain travel as candidates, as DrainDelta would have set them
		// aside.
		r.Cands = append([]uint32(nil), r.Cands...)
		d.store.EachDirty(func(row uint32) {
			if t := d.mentionTotal(row); t > 0 && t >= r.Kth {
				r.Cands = append(r.Cands, row)
			}
		})
		st.Top = &r
	}
	return st
}

// restore rebuilds a fresh dataset from a decoded snapshot, adopting the
// decoded column slices directly into the store.
func restore(st checkpointState) (*Dataset, error) {
	store, err := userstore.FromColumns(organ.Count, userstore.Columns{
		IDs:          st.RawUserIDs,
		FirstSeen:    st.RawFirstSeen,
		FirstTweetID: st.RawFirstTweetID,
		Tweets:       st.Tweets,
		Clinical:     st.Clinical,
		Hashtags:     st.Hashtags,
		StateIdx:     st.StateIdx,
		Flags:        st.UserFlags,
		Mentions:     st.Mentions,
		StateCodes:   st.StateCodes,
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCheckpointCorrupt, err)
	}
	d := NewDataset()
	d.store = store
	d.analytics = st.RawAnalytics
	d.totalCollected = st.TotalCollected
	d.usTweets = st.USTweets
	d.geoTagged = st.GeoTagged
	d.mentionSum = st.MentionSum
	d.firstTweet = st.FirstTweet
	d.lastTweet = st.LastTweet
	for k, n := range st.OrgansPerTweet {
		d.organsPerTweet[k] = n
	}
	for k, v := range st.LocCache {
		d.locCache.put(k, v)
	}
	d.adoptRanking(st.Top)
	return d, nil
}

// adoptRanking keeps a checkpointed top-mentioner ranking when its rows
// are in range and distinct, K ≥ len(Rows), its candidates are in range,
// and Kth is 0 while it holds fewer than K rows and otherwise at most
// every kept row's total (totals only grow after a ranking). Any other
// ranking is dropped, and TopMentioners rebuilds one. A kept ranking
// stays exact only while every change to a row is seen, so the store
// tracks its changes from here on, as the saving one did.
func (d *Dataset) adoptRanking(r *TopRanking) {
	if r == nil || r.K <= 0 || len(r.Rows) > r.K || (len(r.Rows) < r.K && r.Kth != 0) {
		return
	}
	n := uint32(d.store.Len())
	seen := make(map[uint32]bool, len(r.Rows))
	for _, row := range r.Rows {
		if row >= n || seen[row] || d.mentionTotal(row) < r.Kth {
			return
		}
		seen[row] = true
	}
	for _, row := range r.Cands {
		if row >= n {
			return
		}
	}
	d.top = *r
	d.store.EnableDeltaTracking()
}

// rawInt64s is an int64 column that gob carries as raw little-endian
// bytes. gob hands UnmarshalBinary a view of its own buffer, so the
// column decodes in one pass, with no per-integer varint and no copy.
type rawInt64s []int64

// MarshalBinary encodes the column as raw little-endian bytes.
func (c rawInt64s) MarshalBinary() ([]byte, error) {
	b := make([]byte, 8*len(c))
	for i, v := range c {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(v))
	}
	return b, nil
}

// UnmarshalBinary decodes MarshalBinary's form.
func (c *rawInt64s) UnmarshalBinary(b []byte) error {
	if len(b)%8 != 0 {
		return fmt.Errorf("int64 column of %d bytes", len(b))
	}
	v := make([]int64, len(b)/8)
	for i := range v {
		v[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	*c = v
	return nil
}

// rawBytes is a byte string that gob decodes with one copy of exactly
// its size: a plain []byte field grows in 10 MiB steps, copying itself
// at each.
type rawBytes []byte

// MarshalBinary returns the bytes.
func (b rawBytes) MarshalBinary() ([]byte, error) { return b, nil }

// UnmarshalBinary keeps a copy of data.
func (b *rawBytes) UnmarshalBinary(data []byte) error {
	*b = bytes.Clone(data)
	return nil
}

// WriteCheckpoint serializes the dataset to w in the checkpoint format.
func (d *Dataset) WriteCheckpoint(w io.Writer) error {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(d.snapshot()); err != nil {
		return fmt.Errorf("pipeline: encode checkpoint: %w", err)
	}
	if _, err := w.Write(checkpointMagic[:]); err != nil {
		return fmt.Errorf("pipeline: write checkpoint: %w", err)
	}
	var hdr [12]byte
	binary.LittleEndian.PutUint64(hdr[0:8], uint64(payload.Len()))
	binary.LittleEndian.PutUint32(hdr[8:12], crc32.ChecksumIEEE(payload.Bytes()))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("pipeline: write checkpoint: %w", err)
	}
	if _, err := w.Write(payload.Bytes()); err != nil {
		return fmt.Errorf("pipeline: write checkpoint: %w", err)
	}
	return nil
}

// ReadCheckpoint deserializes a dataset from r, verifying the header and
// checksum. It returns ErrCheckpointCorrupt (wrapped) for torn or
// tampered snapshots. Memory is bounded by the bytes r actually holds,
// whatever payload length the header claims.
func ReadCheckpoint(r io.Reader) (*Dataset, error) { return readCheckpoint(r, -1) }

// readCheckpoint is ReadCheckpoint with a hint of how many payload bytes
// r holds (negative when unknown), used to size the payload buffer.
func readCheckpoint(r io.Reader, sizeHint int64) (*Dataset, error) {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrCheckpointCorrupt, err)
	}
	if [7]byte(magic[:7]) != [7]byte(checkpointMagic[:7]) {
		return nil, fmt.Errorf("%w: bad magic", ErrCheckpointCorrupt)
	}
	version := magic[7]
	if version != checkpointVersion && version != checkpointVersionV4 {
		return nil, fmt.Errorf("pipeline: checkpoint version %d not supported (want %d or %d)",
			version, checkpointVersionV4, checkpointVersion)
	}
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrCheckpointCorrupt, err)
	}
	length := binary.LittleEndian.Uint64(hdr[0:8])
	sum := binary.LittleEndian.Uint32(hdr[8:12])
	const maxCheckpoint = 1 << 32 // sanity bound against a corrupted length
	if length > maxCheckpoint {
		return nil, fmt.Errorf("%w: implausible payload length %d", ErrCheckpointCorrupt, length)
	}
	payload, err := readPayload(r, int64(length), sizeHint)
	if err != nil {
		return nil, fmt.Errorf("%w: truncated payload: %v", ErrCheckpointCorrupt, err)
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCheckpointCorrupt)
	}
	var st checkpointState
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&st); err != nil {
		return nil, fmt.Errorf("%w: decode: %v", ErrCheckpointCorrupt, err)
	}
	if version == checkpointVersionV4 {
		st.RawUserIDs, st.RawFirstSeen, st.RawFirstTweetID = st.UserIDs, st.FirstSeen, st.FirstTweetID
		st.RawAnalytics = st.Analytics
	}
	return restore(st)
}

// readPayload reads exactly length payload bytes. The buffer starts at
// the caller's count of bytes present (sizeHint; negative when unknown,
// then bytes.Buffer's own growth applies) and grows only as data arrives,
// so a torn header claiming gigabytes costs what the input holds, not
// what it claims.
func readPayload(r io.Reader, length, sizeHint int64) ([]byte, error) {
	var buf bytes.Buffer
	// MinRead spare room lets ReadFrom see EOF without regrowing a buffer
	// the payload filled exactly.
	buf.Grow(int(min(length, max(sizeHint, 0))) + bytes.MinRead)
	if _, err := buf.ReadFrom(io.LimitReader(r, length)); err != nil {
		return nil, err
	}
	if int64(buf.Len()) < length {
		return nil, io.ErrUnexpectedEOF
	}
	return buf.Bytes(), nil
}

// CheckpointBackupPath returns the path of the last-good backup snapshot
// SaveCheckpoint keeps beside path.
func CheckpointBackupPath(path string) string { return path + ".bak" }

// SaveCheckpoint atomically writes the dataset snapshot to path: the
// bytes land in a temporary file in the same directory, are synced to
// stable storage, and are renamed over path in one step; the parent
// directory is then fsynced so a power loss cannot lose the rename. The
// previous snapshot, when one exists, is kept as path.bak — the
// last-good fallback LoadCheckpoint uses when the primary fails its
// checksum. When metrics are attached the save duration, snapshot size,
// and success/failure are recorded.
func (d *Dataset) SaveCheckpoint(path string) (err error) {
	var start time.Time
	var written countingWriter
	// The save span parents onto the last sampled tweet folded since the
	// previous save, completing that tweet's waterfall through to
	// durability. The pending context is consumed either way so the next
	// save doesn't re-parent onto an already-covered trace.
	if sp := d.tracer.StartChild("checkpoint.save", d.pendingTrace); sp != nil {
		defer func() {
			sp.SetInt("bytes", written.n)
			if err != nil {
				sp.SetAttr("error", err.Error())
			}
			sp.End()
		}()
	}
	d.pendingTrace = trace.SpanContext{}
	if m := d.metrics; m != nil {
		start = time.Now()
		defer func() {
			if err != nil {
				m.ckptErrors.Inc()
				return
			}
			m.ckptSaves.Inc()
			m.ckptSeconds.Since(start)
			m.ckptBytes.Set(float64(written.n))
			m.ckptLast.Set(float64(time.Now().Unix()))
		}()
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("pipeline: checkpoint temp file: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	written.w = tmp
	if err := d.WriteCheckpoint(&written); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("pipeline: sync checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("pipeline: close checkpoint: %w", err)
	}
	// Demote the current snapshot to the last-good backup before
	// publishing the new one. A crash between the two renames leaves only
	// the backup; LoadCheckpoint falls back to it.
	if _, err := os.Stat(path); err == nil {
		if err := os.Rename(path, CheckpointBackupPath(path)); err != nil {
			return fmt.Errorf("pipeline: rotate checkpoint backup: %w", err)
		}
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("pipeline: publish checkpoint: %w", err)
	}
	// Sync the directory so the renames themselves are durable: without
	// it a power loss can forget the publish even though the data blocks
	// were fsynced.
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("pipeline: sync checkpoint dir: %w", err)
	}
	return nil
}

// syncDir fsyncs a directory, making its entry operations (renames,
// creates) durable.
func syncDir(dir string) error {
	df, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer df.Close()
	return df.Sync()
}

// countingWriter counts the bytes that pass through to w — the
// checkpoint-size gauge's source.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// LoadCheckpoint reads a dataset snapshot from path, falling back to the
// last-good backup when the primary is corrupt. A missing file (with no
// backup) is reported with os.ErrNotExist (start fresh); an unreadable
// pair with ErrCheckpointCorrupt.
func LoadCheckpoint(path string) (*Dataset, error) {
	d, _, err := LoadCheckpointFallback(path)
	return d, err
}

// LoadCheckpointFallback is LoadCheckpoint with the fallback made
// visible: usedBackup reports that the primary snapshot was corrupt (or
// missing after a crash between the backup rotation and the publish
// rename) and the dataset was restored from path.bak instead. Callers
// should log it loudly and count it — a fallback trades the tail of the
// collection (everything after the previous save) for liveness.
func LoadCheckpointFallback(path string) (d *Dataset, usedBackup bool, err error) {
	d, primaryErr := loadCheckpointFile(path)
	if primaryErr == nil {
		return d, false, nil
	}
	// Fall back only for failure modes a crash can produce: a torn or
	// corrupted primary, or a primary missing while a backup survives. A
	// version mismatch is a config problem and surfaces as-is.
	if !errors.Is(primaryErr, ErrCheckpointCorrupt) && !os.IsNotExist(primaryErr) {
		return nil, false, primaryErr
	}
	b, backupErr := loadCheckpointFile(CheckpointBackupPath(path))
	if backupErr != nil {
		return nil, false, primaryErr
	}
	return b, true, nil
}

// loadCheckpointFile reads and validates one snapshot file.
func loadCheckpointFile(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sizeHint := int64(-1)
	if fi, err := f.Stat(); err == nil {
		sizeHint = fi.Size() - int64(len(checkpointMagic)) - 12
	}
	d, err := readCheckpoint(f, sizeHint)
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", path, err)
	}
	return d, nil
}
