package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// /statusz is the collector's one-page live status: where /metrics is a
// firehose for scrapers, /statusz is the page an operator reads to
// answer "is the run healthy right now?" in one glance — uptime, build,
// ingest progress, checkpoint freshness, and the recent-error ring. It
// renders as aligned text by default and as JSON with ?format=json.

// StatusField is one "key: value" line of a section.
type StatusField struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// StatusTable is an optional aligned table inside a section (e.g. one
// row per recent warning).
type StatusTable struct {
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

// StatusSection is one named block of the page. Sections are produced by
// the functions registered with Server.AddStatus, called at request
// time so the page is always live.
type StatusSection struct {
	Name   string        `json:"name"`
	Fields []StatusField `json:"fields,omitempty"`
	Table  *StatusTable  `json:"table,omitempty"`
}

// Field appends a "key: value" line; value is formatted with %v.
func (s *StatusSection) Field(key string, value any) {
	s.Fields = append(s.Fields, StatusField{Key: key, Value: fmt.Sprint(value)})
}

// StatusPage is the full /statusz document. Sections keep registration
// order so the page reads the same every refresh.
type StatusPage struct {
	App           string          `json:"app"`
	Build         BuildInfo       `json:"build"`
	Time          time.Time       `json:"time"`
	UptimeSeconds float64         `json:"uptime_seconds"`
	Sections      []StatusSection `json:"sections"`
}

// WriteText renders the page as the human-readable default format. The
// output is deterministic for a given page, which the golden test
// relies on.
func (p *StatusPage) WriteText(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", p.App, p.Build.String())
	fmt.Fprintf(w, "time: %s  uptime: %s\n", p.Time.UTC().Format(time.RFC3339), formatUptime(p.UptimeSeconds))
	for i := range p.Sections {
		sec := &p.Sections[i]
		fmt.Fprintf(w, "\n== %s ==\n", sec.Name)
		keyW := 0
		for _, f := range sec.Fields {
			if len(f.Key) > keyW {
				keyW = len(f.Key)
			}
		}
		for _, f := range sec.Fields {
			fmt.Fprintf(w, "%-*s  %s\n", keyW+1, f.Key+":", f.Value)
		}
		if sec.Table != nil {
			if len(sec.Fields) > 0 {
				fmt.Fprintln(w)
			}
			writeStatusTable(w, sec.Table)
		}
	}
}

// WriteJSON renders the page as indented JSON.
func (p *StatusPage) WriteJSON(w io.Writer) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(p)
}

// writeStatusTable renders an aligned column table: widths are computed
// over header and body so rows line up.
func writeStatusTable(w io.Writer, t *StatusTable) {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			if i == len(cells)-1 {
				fmt.Fprint(w, cell) // last column unpadded: no trailing spaces
			} else {
				fmt.Fprintf(w, "%-*s", widths[i], cell)
			}
		}
		fmt.Fprintln(w)
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = dashes(widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
}

func dashes(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = '-'
	}
	return string(b)
}

// formatUptime renders seconds as "3d4h", "2h13m", "5m3s", or "42s" —
// coarse on purpose; /statusz is read by humans.
func formatUptime(seconds float64) string {
	d := time.Duration(seconds * float64(time.Second))
	switch {
	case d >= 24*time.Hour:
		days := d / (24 * time.Hour)
		return fmt.Sprintf("%dd%dh", days, (d%(24*time.Hour))/time.Hour)
	case d >= time.Hour:
		return fmt.Sprintf("%dh%dm", d/time.Hour, (d%time.Hour)/time.Minute)
	case d >= time.Minute:
		return fmt.Sprintf("%dm%ds", d/time.Minute, (d%time.Minute)/time.Second)
	default:
		return fmt.Sprintf("%ds", d/time.Second)
	}
}

// statusEntry pairs a section name with its live producer.
type statusEntry struct {
	name string
	fn   func() StatusSection
}

// AddStatus registers (or replaces) a named /statusz section. Sections
// render in first-registration order; fn runs on every request and must
// be safe for concurrent use.
func (s *Server) AddStatus(name string, fn func() StatusSection) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.status {
		if s.status[i].name == name {
			s.status[i].fn = fn
			return
		}
	}
	s.status = append(s.status, statusEntry{name: name, fn: fn})
}

// statusPage assembles the live page from the registered sections.
func (s *Server) statusPage(now time.Time) *StatusPage {
	s.mu.RLock()
	entries := append([]statusEntry(nil), s.status...)
	s.mu.RUnlock()
	page := &StatusPage{
		App:           "donorsense",
		Build:         ReadBuild(),
		Time:          now,
		UptimeSeconds: now.Sub(s.start).Seconds(),
	}
	for _, e := range entries {
		sec := e.fn()
		sec.Name = e.name
		page.Sections = append(page.Sections, sec)
	}
	return page
}

// statusz serves /statusz as text (default) or JSON (?format=json).
func (s *Server) statusz(w http.ResponseWriter, r *http.Request) {
	page := s.statusPage(time.Now())
	switch r.URL.Query().Get("format") {
	case "", "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		page.WriteText(w)
	case "json":
		w.Header().Set("Content-Type", "application/json")
		page.WriteJSON(w)
	default:
		http.Error(w, "statusz: unknown format (want text or json)", http.StatusBadRequest)
	}
}
