package export

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strconv"
	"strings"
	"testing"
	"time"

	"donorsense/internal/cluster"
	"donorsense/internal/core"
	"donorsense/internal/geo"
	"donorsense/internal/mat"
	"donorsense/internal/organ"
	"donorsense/internal/pipeline"
	"donorsense/internal/temporal"
	"donorsense/internal/text"
	"donorsense/internal/twitter"
)

// buildFixture characterizes 160 single-organ users in KS, TX and CA:
// their Û rows in user order, Figure 4 and Figure 5.
func buildFixture(t *testing.T) (*mat.Matrix, *core.RegionCharacterization, *core.HighlightResult) {
	t.Helper()
	var rows [][]float64
	sums := core.NewGroupSums(len(geo.StateCodes()))
	cells := core.NewStateOrganCells()
	add := func(state string, o organ.Organ, n int) {
		for i := 0; i < n; i++ {
			row := make([]float64, organ.Count)
			row[o.Index()] = 1
			rows = append(rows, row)
			s := geo.StateIndex(state)
			if err := sums.Fold(s, row, 1); err != nil {
				t.Fatal(err)
			}
			cells.AddUser(s, 1<<o.Index(), 1)
		}
	}
	add("KS", organ.Kidney, 20)
	add("KS", organ.Heart, 5)
	add("TX", organ.Heart, 60)
	add("TX", organ.Kidney, 15)
	add("CA", organ.Liver, 30)
	add("CA", organ.Heart, 30)
	u, err := mat.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := sums.Regions()
	if err != nil {
		t.Fatal(err)
	}
	h, err := cells.Highlight()
	if err != nil {
		t.Fatal(err)
	}
	return u, rc, h
}

func parseCSV(t *testing.T, s string) [][]string {
	t.Helper()
	records, err := csv.NewReader(strings.NewReader(s)).ReadAll()
	if err != nil {
		t.Fatalf("invalid csv: %v\n%s", err, s)
	}
	return records
}

func TestStateSignaturesCSV(t *testing.T) {
	_, rc, _ := buildFixture(t)
	var buf bytes.Buffer
	if err := StateSignaturesCSV(&buf, rc); err != nil {
		t.Fatal(err)
	}
	records := parseCSV(t, buf.String())
	if len(records) != 4 { // header + KS + TX + CA
		t.Fatalf("rows = %d, want 4:\n%s", len(records), buf.String())
	}
	if records[0][0] != "state" || records[0][2] != "heart" {
		t.Errorf("header = %v", records[0])
	}
	// Every data row: users > 0 and attention sums to 1.
	for _, rec := range records[1:] {
		if rec[1] == "0" {
			t.Errorf("empty state exported: %v", rec)
		}
		sum := 0.0
		for _, cell := range rec[2:] {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				t.Fatalf("bad float %q", cell)
			}
			sum += v
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("state %s attention sums to %v", rec[0], sum)
		}
	}
}

func TestRelativeRiskCSV(t *testing.T) {
	_, _, h := buildFixture(t)
	var buf bytes.Buffer
	if err := RelativeRiskCSV(&buf, h); err != nil {
		t.Fatal(err)
	}
	records := parseCSV(t, buf.String())
	if len(records) < 2 {
		t.Fatalf("no RR rows:\n%s", buf.String())
	}
	if records[0][0] != "state" || records[0][11] != "significant" {
		t.Errorf("header = %v", records[0])
	}
	foundKS := false
	for _, rec := range records[1:] {
		if rec[0] == "KS" && rec[1] == "kidney" && rec[11] == "true" {
			foundKS = true
		}
	}
	if !foundKS {
		t.Errorf("KS kidney significance missing:\n%s", buf.String())
	}
}

func TestClustersCSV(t *testing.T) {
	u, _, _ := buildFixture(t)
	res, err := cluster.KMeans(u, cluster.KMeansConfig{K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ClustersCSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	records := parseCSV(t, buf.String())
	if len(records) != 4 {
		t.Fatalf("rows = %d, want header + 3 clusters", len(records))
	}
}

func TestSeriesCSV(t *testing.T) {
	start := time.Date(2015, 4, 22, 0, 0, 0, 0, time.UTC)
	s, err := temporal.NewSeries(start, 3)
	if err != nil {
		t.Fatal(err)
	}
	ex := text.NewExtractor()
	tw := twitter.Tweet{Text: "donate a kidney", CreatedAt: start.AddDate(0, 0, 1)}
	s.Observe(tw, ex.Extract(tw.Text))
	var buf bytes.Buffer
	if err := SeriesCSV(&buf, s); err != nil {
		t.Fatal(err)
	}
	records := parseCSV(t, buf.String())
	if len(records) != 4 { // header + 3 days
		t.Fatalf("rows = %d, want 4", len(records))
	}
	if records[1][0] != "2015-04-22" {
		t.Errorf("first date = %s", records[1][0])
	}
	// Day 1 kidney = 1, total = 1.
	if records[2][3] != "1" || records[2][8] != "1" {
		t.Errorf("day 1 row = %v", records[2])
	}
}

func TestSummaryJSONRoundTrip(t *testing.T) {
	_, _, h := buildFixture(t)
	stats := pipeline.TableI{Users: 160, TweetsCollected: 160, Days: 385}
	var pop [organ.Count]int
	pop[organ.Heart.Index()] = 95
	now := time.Date(2016, 5, 11, 0, 0, 0, 0, time.UTC)

	start := time.Date(2015, 4, 22, 0, 0, 0, 0, time.UTC)
	series, _ := temporal.NewSeries(start, 40)
	bursts := []temporal.Burst{{Organ: organ.Kidney, StartDay: 10, EndDay: 12, Peak: 50, Z: 4}}

	sum := BuildSummary(stats, pop, 0.829, 0.042, h, series, bursts, now)
	var buf bytes.Buffer
	if err := WriteSummaryJSON(&buf, sum); err != nil {
		t.Fatal(err)
	}
	var back Summary
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("invalid json: %v", err)
	}
	if back.TableI.Users != 160 || back.SpearmanR != 0.829 {
		t.Errorf("summary round trip wrong: %+v", back)
	}
	if back.UsersPerOrgan["heart"] != 95 {
		t.Errorf("popularity missing: %v", back.UsersPerOrgan)
	}
	found := false
	for _, o := range back.Highlights["KS"] {
		if o == "kidney" {
			found = true
		}
	}
	if !found {
		t.Errorf("KS highlight missing: %v", back.Highlights)
	}
	if len(back.Bursts) != 1 || back.Bursts[0].Organ != "kidney" {
		t.Errorf("bursts wrong: %+v", back.Bursts)
	}
	wantStart := start.AddDate(0, 0, 10)
	if !back.Bursts[0].Start.Equal(wantStart) {
		t.Errorf("burst start = %v, want %v", back.Bursts[0].Start, wantStart)
	}
}

func TestBuildSummaryNilOptionals(t *testing.T) {
	var pop [organ.Count]int
	sum := BuildSummary(pipeline.TableI{}, pop, 0, 1, nil, nil, nil, time.Time{})
	if len(sum.Bursts) != 0 || len(sum.Highlights) != 0 {
		t.Errorf("nil optionals produced content: %+v", sum)
	}
	var buf bytes.Buffer
	if err := WriteSummaryJSON(&buf, sum); err != nil {
		t.Fatal(err)
	}
}
