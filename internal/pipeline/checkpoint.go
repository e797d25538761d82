// Durable checkpoint/resume for the collection pipeline. The paper's
// sensor ran for 385 days; a purely in-memory Dataset discards the whole
// run on any crash. A checkpoint serializes the full dataset state —
// users, counters, contribution records, the bounded geocode memo, and
// the collection window — so a restarted collector resumes with
// statistics bit-identical to an uninterrupted run.
//
// On-disk format (all integers little-endian):
//
//	magic   [8]byte  "DSCKPT\x00" + version byte
//	length  uint64   payload byte count
//	crc32   uint32   IEEE CRC of the payload
//	payload []byte   gob-encoded checkpointStateV4
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

// checkpointVersion is the format written by WriteCheckpoint. Version 4
// is version 3 (the user store as flat columns) plus the report engine's
// opaque analytics warm-start blob. Version 3 is still readable, so
// older snapshots migrate on load; nothing older is.
const (
	checkpointVersion   = 4
	checkpointVersionV3 = 3
)

// ErrCheckpointCorrupt reports a snapshot that failed validation (bad
// magic, truncation, or checksum mismatch).
var ErrCheckpointCorrupt = errors.New("pipeline: checkpoint corrupt")

// checkpointContribution mirrors tweetContribution.
type checkpointContribution struct {
	UserID    int64
	Mentions  [organ.Count]int8
	Clinical  int8
	Hashtags  int8
	Distinct  int8
	GeoTagged bool
}

// checkpointStateV4 is the v4 gob payload: the user store as flat
// columns (one slice per field, row-major mention matrix, append-ordered
// state intern table) plus the dataset counters and the analytics
// warm-start blob. Encoding the columns directly — no per-user structs —
// keeps the snapshot one contiguous write per column and lets the loader
// adopt the decoded slices without copying. The same struct decodes v3
// payloads: gob matches fields by name and leaves the absent Analytics
// field nil.
type checkpointStateV4 struct {
	UserIDs        []int64
	FirstSeen      []int64
	FirstTweetID   []int64
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
	TrackDeletions bool
	Contributions  map[int64]checkpointContribution
	LocCache       map[string]geo.Location
	// Cursor is the feeding layer's stream position at snapshot time (see
	// Dataset.SetCursor); the shard supervisor's replay skip depends on
	// it surviving the round-trip.
	Cursor uint64
	// Analytics is the report engine's opaque clustering warm-start blob
	// (Dataset.SetAnalyticsState) — new in v4; nil when no engine has run
	// or in snapshots loaded from v3 files.
	Analytics []byte
}

// snapshot captures the dataset into its serializable (v4) form. The
// column slices are borrowed views into the store; the snapshot must be
// encoded before the dataset is mutated again.
func (d *Dataset) snapshot() checkpointStateV4 {
	cols := d.store.Columns()
	st := checkpointStateV4{
		UserIDs:        cols.IDs,
		FirstSeen:      cols.FirstSeen,
		FirstTweetID:   cols.FirstTweetID,
		Tweets:         cols.Tweets,
		Clinical:       cols.Clinical,
		Hashtags:       cols.Hashtags,
		StateIdx:       cols.StateIdx,
		UserFlags:      cols.Flags,
		Mentions:       cols.Mentions,
		StateCodes:     cols.StateCodes,
		TotalCollected: d.totalCollected,
		USTweets:       d.usTweets,
		GeoTagged:      d.geoTagged,
		MentionSum:     d.mentionSum,
		FirstTweet:     d.firstTweet,
		LastTweet:      d.lastTweet,
		OrgansPerTweet: make(map[int]int, len(d.organsPerTweet)),
		TrackDeletions: d.contributions != nil,
		LocCache:       make(map[string]geo.Location, d.locCache.len()),
		Cursor:         d.cursor,
		Analytics:      d.analytics,
	}
	for k, n := range d.organsPerTweet {
		st.OrgansPerTweet[k] = n
	}
	st.Contributions = snapshotContributions(d.contributions)
	d.locCache.each(func(k string, v geo.Location) { st.LocCache[k] = v })
	return st
}

// snapshotContributions converts the delete-tracking records (nil stays
// nil: tracking disabled).
func snapshotContributions(contribs map[int64]tweetContribution) map[int64]checkpointContribution {
	if contribs == nil {
		return nil
	}
	out := make(map[int64]checkpointContribution, len(contribs))
	for id, c := range contribs {
		out[id] = checkpointContribution{
			UserID:    c.userID,
			Mentions:  c.mentions,
			Clinical:  c.clinical,
			Hashtags:  c.hashtags,
			Distinct:  c.distinct,
			GeoTagged: c.geoTagged,
		}
	}
	return out
}

// restore rebuilds a fresh dataset from a decoded v3/v4 snapshot,
// adopting the decoded column slices directly into the store.
func restore(st checkpointStateV4) (*Dataset, error) {
	store, err := userstore.FromColumns(organ.Count, userstore.Columns{
		IDs:          st.UserIDs,
		FirstSeen:    st.FirstSeen,
		FirstTweetID: st.FirstTweetID,
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
	d.analytics = st.Analytics
	d.totalCollected = st.TotalCollected
	d.usTweets = st.USTweets
	d.geoTagged = st.GeoTagged
	d.mentionSum = st.MentionSum
	d.firstTweet = st.FirstTweet
	d.lastTweet = st.LastTweet
	d.cursor = st.Cursor
	for k, n := range st.OrgansPerTweet {
		d.organsPerTweet[k] = n
	}
	if st.TrackDeletions {
		d.TrackDeletions()
		for id, c := range st.Contributions {
			d.contributions[id] = tweetContribution{
				userID:    c.UserID,
				mentions:  c.Mentions,
				clinical:  c.Clinical,
				hashtags:  c.Hashtags,
				distinct:  c.Distinct,
				geoTagged: c.GeoTagged,
			}
		}
	}
	for k, v := range st.LocCache {
		d.locCache.put(k, v)
	}
	return d, nil
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
	if version != checkpointVersion && version != checkpointVersionV3 {
		return nil, fmt.Errorf("pipeline: checkpoint version %d not supported (want %d or %d)",
			version, checkpointVersionV3, checkpointVersion)
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
	// v3 and v4 share the decode path: a v3 payload simply lacks the
	// Analytics field, which gob leaves nil.
	var st checkpointStateV4
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&st); err != nil {
		return nil, fmt.Errorf("%w: decode: %v", ErrCheckpointCorrupt, err)
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

// ShardCheckpointPath returns the checkpoint path of one collection
// shard: "<base>-shard-<i>". Every shard owns its file; nothing is
// shared between shards.
func ShardCheckpointPath(base string, shard int) string {
	return fmt.Sprintf("%s-shard-%d", base, shard)
}

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
	if sp := d.startSpan("checkpoint.save", d.pendingTrace); sp != nil {
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
