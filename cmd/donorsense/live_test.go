package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"donorsense/internal/pipeline"
	"donorsense/internal/twitter"
)

// apiStats is the part of an /api/stats body the live tests read.
type apiStats struct {
	Seq   uint64 `json:"seq"`
	Table struct {
		TweetsUS int `json:"tweets_us"`
		Users    int `json:"users"`
	} `json:"table"`
}

// getStats fetches /api/stats; ok is false unless it answered 200.
func getStats(t *testing.T, base string) (st apiStats, ok bool) {
	code, _, body := apiGet(t, base, "/api/stats", "")
	if code != http.StatusOK {
		return st, false
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Errorf("/api/stats body: %v", err)
		return st, false
	}
	return st, true
}

// TestCollectServePublishesRestoredCheckpoint restarts collect -serve
// from a checkpoint over a stream that stays silent. The restored
// dataset must be served at once, and, with nothing folded since, not
// republished: the ETag holds across many cadences.
func TestCollectServePublishesRestoredCheckpoint(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "idle.ckpt")
	if err := pipeline.SynthDataset(2000, 5).SaveCheckpoint(ckpt); err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	_, stream := replayThenHold(nil, twitter.ReplayConfig{}, release)
	hs := httptest.NewServer(stream)
	defer hs.Close()
	addr := freeAddr(t)
	base := "http://" + addr

	go func() {
		defer close(release)
		var code int
		var etag string
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
			if code, etag, _ = apiGet(t, base, "/api/epoch", ""); code == http.StatusOK {
				break
			}
		}
		if code != http.StatusOK {
			t.Errorf("/api/epoch answered %d 5s after a restart over a silent stream, want 200", code)
			return
		}
		time.Sleep(1 * time.Second) // ten cadences
		if _, again, _ := apiGet(t, base, "/api/epoch", ""); again != etag {
			t.Errorf("idle collector republished: ETag %s became %s", etag, again)
		}
	}()
	captureStdout(t, func() error {
		return cmdCollect(collectArgs(hs.URL, "-checkpoint", ckpt, "-report-every", "100ms",
			"-serve", "-telemetry-addr", addr, "-silhouette-sample", "0", "-progress-every", "0"))
	})
}

// TestCollectServePublishesTailAfterStreamGoesIdle replays a corpus at a
// steady rate, then holds the stream silent. Within ten cadences of the
// silence, /api/stats must count every folded US tweet: the last folds
// come too soon after a step to trigger one, so only the idle tick can
// publish them.
func TestCollectServePublishesTailAfterStreamGoesIdle(t *testing.T) {
	corpus := durableCorpus()
	ref := pipeline.NewDataset()
	ref.ProcessAll(corpus, 1)
	want := ref.USTweets()

	release := make(chan struct{})
	rs, stream := replayThenHold(corpus, twitter.ReplayConfig{Rate: 4000}, release)
	hs := httptest.NewServer(stream)
	defer hs.Close()
	addr := freeAddr(t)
	base := "http://" + addr

	go func() {
		defer close(release)
		for deadline := time.Now().Add(60 * time.Second); rs.Remaining() > 0; time.Sleep(10 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Errorf("replay still has %d tweets to deliver", rs.Remaining())
				return
			}
		}
		var got int
		for deadline := time.Now().Add(3 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
			if st, ok := getStats(t, base); ok {
				if got = st.Table.TweetsUS; got == want {
					return
				}
			}
		}
		t.Errorf("/api/stats served %d of %d US tweets 3s after the stream went silent", got, want)
	}()
	captureStdout(t, func() error {
		return cmdCollect(collectArgs(hs.URL, "-report-every", "300ms", "-serve",
			"-telemetry-addr", addr, "-silhouette-sample", "0", "-progress-every", "0",
			"-stall-timeout", "30s"))
	})
}

// lockedBuffer is an io.Writer safe for a logger and a reader at once.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestServeReloadEvery runs donorsense serve -reload-every over a
// checkpoint that a collector rewrites. A rewrite with more users is
// republished; a truncated file is refused with a warning, and the
// snapshot before it keeps answering.
func TestServeReloadEvery(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "reload.ckpt")
	if err := pipeline.SynthDataset(1000, 1).SaveCheckpoint(ckpt); err != nil {
		t.Fatal(err)
	}
	// bump gives a rewrite a later mtime than the load before it, however
	// coarse the file system's clock.
	bump := func() {
		later := time.Now().Add(2 * time.Second)
		if err := os.Chtimes(ckpt, later, later); err != nil {
			t.Fatal(err)
		}
	}
	addr := freeAddr(t)
	base := "http://" + addr

	// The serve logger writes to os.Stderr as it is when cmdServe starts.
	logs := &lockedBuffer{}
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = w
	copied := make(chan struct{})
	go func() {
		defer close(copied)
		_, _ = io.Copy(logs, r)
	}()
	done := make(chan error, 1)
	go func() {
		done <- cmdServe([]string{
			"-checkpoint", ckpt, "-addr", addr, "-reload-every", "50ms",
			"-k", "6", "-silhouette-sample", "0",
		})
	}()
	defer func() {
		os.Stderr = stderr
		w.Close()
		<-copied
	}()

	// waitStats polls /api/stats until cond holds.
	waitStats := func(what string, cond func(apiStats) bool) apiStats {
		t.Helper()
		var st apiStats
		for deadline := time.Now().Add(20 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
			var ok bool
			if st, ok = getStats(t, base); ok && cond(st) {
				return st
			}
		}
		t.Fatalf("serve never %s (last /api/stats %+v)\nlogs:\n%s", what, st, logs.String())
		return st
	}
	first := waitStats("answered", func(apiStats) bool { return true })

	if err := pipeline.SynthDataset(3000, 2).SaveCheckpoint(ckpt); err != nil {
		t.Fatal(err)
	}
	bump()
	grown := waitStats("republished the grown checkpoint", func(st apiStats) bool {
		return st.Seq > first.Seq && st.Table.Users > first.Table.Users
	})

	raw, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckpt, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	bump()
	for deadline := time.Now().Add(20 * time.Second); !strings.Contains(logs.String(), "checkpoint reload failed"); time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("no reload warning for a truncated checkpoint\nlogs:\n%s", logs.String())
		}
	}
	if st, ok := getStats(t, base); !ok || st.Seq != grown.Seq || st.Table.Users != grown.Table.Users {
		t.Errorf("after a truncated checkpoint /api/stats = %+v (ok %v), want the snapshot before it %+v", st, ok, grown)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve exited with error: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("serve did not exit after SIGTERM")
	}
}
