package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	"donorsense/internal/pipeline"
	"donorsense/internal/serve"
)

// apiServer serves serve.Handler over loopback.
type apiServer struct {
	srv  *http.Server
	url  string
	addr string
}

func startAPI(pub *serve.Publisher) (*apiServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("api listen: %w", err)
	}
	mux := http.NewServeMux()
	mux.Handle("/api/", serve.NewHandler(pub))
	addr := ln.Addr().String()
	s := &apiServer{srv: &http.Server{Handler: mux}, url: "http://" + addr, addr: addr}
	go s.srv.Serve(ln)
	return s, nil
}

func (s *apiServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		s.srv.Close()
	}
}

// queryLoad is the outcome of one closed-loop query client.
type queryLoad struct {
	sent     int64
	answered int64     // 200 or 304 with a self-consistent envelope
	latUS    []float64 // per answered request, in answer order
	elapsed  time.Duration
	firstErr string
}

func (q *queryLoad) failed() int64 { return q.sent - q.answered }

func (q *queryLoad) fail(format string, args ...any) {
	if q.firstErr == "" {
		q.firstErr = fmt.Sprintf(format, args...)
	}
}

// runQueries is one closed-loop client on one keep-alive connection: it
// rotates through serve.DefaultPaths, sending the next request as soon as
// the previous answer was read, until stop closes. Each request is timed
// from the write of the request to the last body byte.
func runQueries(addr string, stop <-chan struct{}) *queryLoad {
	q := &queryLoad{}
	var c *conn
	defer func() {
		if c != nil {
			c.close()
		}
	}()
	var env []byte
	var lastSeq uint64
	begin := time.Now()
	for i := 0; ; i++ {
		select {
		case <-stop:
			q.elapsed = time.Since(begin)
			return q
		default:
		}
		path := serve.DefaultPaths[i%len(serve.DefaultPaths)]
		q.sent++
		if c == nil {
			var err error
			if c, err = dial(addr); err != nil {
				q.fail("dial: %v", err)
				continue
			}
		}
		t0 := time.Now()
		status, err := c.get(path)
		lat := time.Since(t0)
		if err != nil {
			q.fail("GET %s: %v", path, err)
			c.close()
			c = nil
			continue
		}
		var seq uint64
		seq, env, err = checkEnvelope(status, c.etag, c.body, env)
		switch {
		case err != nil:
			q.fail("GET %s: %v", path, err)
		case seq < lastSeq:
			q.fail("GET %s: seq went back from %d to %d", path, lastSeq, seq)
		default:
			lastSeq = seq
			q.answered++
			q.latUS = append(q.latUS, float64(lat)/float64(time.Microsecond))
		}
	}
}

// conn is a minimal HTTP/1.1 keep-alive client. net/http's client
// allocates a few kilobytes per request; in a process whose own heap is
// small that garbage, not the server, would set the pace of garbage
// collection and so the latency tail. conn reuses its buffers.
type conn struct {
	c    net.Conn
	br   *bufio.Reader
	req  []byte
	etag []byte
	body []byte
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (c *conn) close() { c.c.Close() }

// get sends one GET and reads the whole answer, leaving its ETag header
// and body in c.etag and c.body. It returns the status code.
func (c *conn) get(path string) (int, error) {
	c.req = append(append(append(c.req[:0], "GET "...), path...), " HTTP/1.1\r\nHost: e2ebench\r\n\r\n"...)
	if _, err := c.c.Write(c.req); err != nil {
		return 0, err
	}
	line, err := c.line()
	if err != nil {
		return 0, err
	}
	status, ok := parseUint(bytes.TrimPrefix(line, []byte("HTTP/1.1 ")), 3)
	if !ok {
		return 0, fmt.Errorf("status line %q", line)
	}
	length, chunked := -1, false
	c.etag, c.body = c.etag[:0], c.body[:0]
	for {
		if line, err = c.line(); err != nil {
			return 0, err
		}
		if len(line) == 0 {
			break
		}
		k, v, _ := bytes.Cut(line, []byte(":"))
		v = bytes.TrimSpace(v)
		switch {
		case bytes.EqualFold(k, []byte("Content-Length")):
			n, ok := parseUint(v, len(v))
			if !ok {
				return 0, fmt.Errorf("Content-Length %q", v)
			}
			length = int(n)
		case bytes.EqualFold(k, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(v, []byte("chunked"))
		case bytes.EqualFold(k, []byte("Etag")):
			c.etag = append(c.etag, v...)
		}
	}
	switch {
	case status == http.StatusNotModified:
		return int(status), nil
	case chunked:
		for {
			line, err := c.line()
			if err != nil {
				return 0, err
			}
			size, err := strconv.ParseUint(string(bytes.TrimSpace(line)), 16, 32)
			if err != nil {
				return 0, fmt.Errorf("chunk size %q", line)
			}
			if size == 0 {
				if _, err := c.line(); err != nil { // the empty trailer
					return 0, err
				}
				return int(status), nil
			}
			if err := c.readN(int(size)); err != nil {
				return 0, err
			}
			if line, err = c.line(); err != nil || len(line) != 0 {
				return 0, fmt.Errorf("chunk end %q: %v", line, err)
			}
		}
	case length >= 0:
		return int(status), c.readN(length)
	}
	return 0, fmt.Errorf("status %d answer has no length", status)
}

// line reads one header line without its CRLF. It is valid until the next
// read.
func (c *conn) line() ([]byte, error) {
	b, err := c.br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	return bytes.TrimSuffix(bytes.TrimSuffix(b, []byte("\n")), []byte("\r")), nil
}

// readN appends the next n body bytes to c.body.
func (c *conn) readN(n int) error {
	off := len(c.body)
	c.body = slices.Grow(c.body, n)[:off+n]
	_, err := io.ReadFull(c.br, c.body[off:])
	return err
}

// parseUint parses exactly digits decimal digits at the start of b
// (all of b when digits is len(b)).
func parseUint(b []byte, digits int) (uint64, bool) {
	if digits == 0 || len(b) < digits {
		return 0, false
	}
	var v uint64
	for _, c := range b[:digits] {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + uint64(c-'0')
	}
	return v, true
}

// checkEnvelope verifies that a 200 body opens with the snapshot envelope
// {"seq":S,"epoch":E,"etag":"\"sS-eE\"" and that the ETag header names the
// same snapshot, so a torn response shows. A 304 carries only the
// header. It returns the snapshot's seq, and buf reused for the expected
// envelope.
func checkEnvelope(status int, etag, body, buf []byte) (uint64, []byte, error) {
	inner, ok := bytes.CutPrefix(etag, []byte(`"s`))
	inner, ok2 := bytes.CutSuffix(inner, []byte(`"`))
	a, b, ok3 := bytes.Cut(inner, []byte("-e"))
	seq, ok4 := parseUint(a, len(a))
	epoch, ok5 := parseUint(b, len(b))
	if !ok || !ok2 || !ok3 || !ok4 || !ok5 {
		return 0, buf, fmt.Errorf("status %d: bad ETag %q", status, etag)
	}
	switch status {
	case http.StatusNotModified:
		return seq, buf, nil
	case http.StatusOK:
	default:
		return 0, buf, fmt.Errorf("status %d", status)
	}
	buf = append(buf[:0], `{"seq":`...)
	buf = strconv.AppendUint(buf, seq, 10)
	buf = append(buf, `,"epoch":`...)
	buf = strconv.AppendUint(buf, epoch, 10)
	buf = append(buf, `,"etag":"\"s`...)
	buf = strconv.AppendUint(buf, seq, 10)
	buf = append(buf, `-e`...)
	buf = strconv.AppendUint(buf, epoch, 10)
	buf = append(buf, `\""`...)
	if !bytes.HasPrefix(body, buf) {
		n := min(len(body), len(buf)+16)
		return 0, buf, fmt.Errorf("envelope %q does not match ETag %s", body[:n], etag)
	}
	return seq, buf, nil
}

// checkStats fetches /api/stats and verifies that it serves Table I of
// the given dataset state and the given publish sequence number.
func checkStats(base string, want pipeline.TableI, seq uint64) error {
	resp, err := http.Get(base + "/api/stats")
	if err != nil {
		return fmt.Errorf("GET /api/stats: %w", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("GET /api/stats: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /api/stats: status %d", resp.StatusCode)
	}
	var doc struct {
		Seq   uint64 `json:"seq"`
		Table struct {
			Start            string  `json:"start"`
			End              string  `json:"end"`
			Days             int     `json:"days"`
			TweetsUS         int     `json:"tweets_us"`
			TweetsTotal      int     `json:"tweets_total"`
			Users            int     `json:"users"`
			AvgTweetsPerDay  float64 `json:"avg_tweets_per_day"`
			AvgTweetsPerUser float64 `json:"avg_tweets_per_user"`
			OrgansPerTweet   float64 `json:"organs_per_tweet"`
			OrgansPerUser    float64 `json:"organs_per_user"`
			GeoTagRate       float64 `json:"geo_tag_rate"`
		} `json:"table"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return fmt.Errorf("GET /api/stats: %w", err)
	}
	t := doc.Table
	got := pipeline.TableI{
		Days: t.Days, TweetsCollected: t.TweetsUS, TotalCollected: t.TweetsTotal, Users: t.Users,
		AvgTweetsPerDay: t.AvgTweetsPerDay, AvgTweetsPerUser: t.AvgTweetsPerUser,
		OrgansPerTweet: t.OrgansPerTweet, OrgansPerUser: t.OrgansPerUser, GeoTagRate: t.GeoTagRate,
	}
	dates := strings.Join([]string{t.Start, t.End}, " ")
	wantDates := want.Start.UTC().Format(time.RFC3339) + " " + want.End.UTC().Format(time.RFC3339)
	want.Start, want.End = time.Time{}, time.Time{}
	if doc.Seq != seq || got != want || dates != wantDates {
		return fmt.Errorf("/api/stats serves seq %d %s %+v, the last publish was seq %d %s %+v", doc.Seq, dates, got, seq, wantDates, want)
	}
	return nil
}
