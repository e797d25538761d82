package twitter

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"donorsense/internal/organ"
)

func sampleTweet() Tweet {
	return Tweet{
		ID:        123456789,
		Text:      "Register as an organ donor — kidney transplants save lives",
		CreatedAt: time.Date(2015, 4, 22, 13, 45, 0, 0, time.UTC),
		User: User{
			ID:         42,
			ScreenName: "donor_advocate",
			Location:   "Wichita, KS",
		},
	}
}

func TestTweetJSONRoundTrip(t *testing.T) {
	in := sampleTweet()
	in.SetCoordinates(37.7, -97.3)
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Tweet
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.ID != in.ID || out.Text != in.Text || !out.CreatedAt.Equal(in.CreatedAt) {
		t.Errorf("round trip mismatch: %+v vs %+v", out, in)
	}
	if out.User != in.User {
		t.Errorf("user mismatch: %+v vs %+v", out.User, in.User)
	}
	if !out.HasCoordinates || out.Coordinates.Lat != 37.7 || out.Coordinates.Lon != -97.3 {
		t.Errorf("coordinates mismatch: %+v", out.Coordinates)
	}
}

func TestTweetJSONWireShape(t *testing.T) {
	in := sampleTweet()
	in.SetCoordinates(37.7, -97.3)
	data, _ := json.Marshal(in)
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	// v1.1 shape: created_at string, nested user, GeoJSON [lon, lat].
	if _, ok := raw["created_at"].(string); !ok {
		t.Error("created_at not a string")
	}
	u, ok := raw["user"].(map[string]any)
	if !ok || u["screen_name"] != "donor_advocate" {
		t.Errorf("user wire shape wrong: %v", raw["user"])
	}
	co, ok := raw["coordinates"].(map[string]any)
	if !ok || co["type"] != "Point" {
		t.Fatalf("coordinates wire shape wrong: %v", raw["coordinates"])
	}
	pair := co["coordinates"].([]any)
	if pair[0].(float64) != -97.3 || pair[1].(float64) != 37.7 {
		t.Errorf("GeoJSON order wrong: %v", pair)
	}
}

func TestTweetJSONOmitsNilCoordinates(t *testing.T) {
	data, _ := json.Marshal(sampleTweet())
	if strings.Contains(string(data), "coordinates") {
		t.Error("nil coordinates serialized")
	}
}

func TestTweetUnmarshalErrors(t *testing.T) {
	var tw Tweet
	if err := tw.UnmarshalJSON([]byte("{not json")); err == nil {
		t.Error("bad JSON accepted")
	}
	if err := tw.UnmarshalJSON([]byte(`{"id":1,"created_at":"yesterday"}`)); err == nil {
		t.Error("bad created_at accepted")
	}
}

func TestTrackFilterSemantics(t *testing.T) {
	f := NewTrackFilter("donor kidney,transplant heart")
	tests := []struct {
		text string
		want bool
	}{
		{"be a kidney donor today", true},       // both terms of phrase 1
		{"kidney DONOR", true},                  // case-insensitive, order-free
		{"heart transplant waiting list", true}, // phrase 2
		{"kidney beans", false},                 // only one term
		{"donor heart", false},                  // terms from different phrases
		{"donor, kidney!", true},                // punctuation-delimited
		{"", false},
	}
	for _, tt := range tests {
		if got := f.Matches(tt.text); got != tt.want {
			t.Errorf("Matches(%q) = %v, want %v", tt.text, got, tt.want)
		}
	}
}

func TestTrackFilterEmpty(t *testing.T) {
	f := NewTrackFilter("  , ,, ")
	if !f.Empty() || f.Matches("anything donor kidney") {
		t.Error("empty filter misbehaves")
	}
}

func TestPaperKeywordProductFitsTrackLimit(t *testing.T) {
	// The paper's Figure 1 product must be a valid single track parameter.
	track := organ.TrackTerms()
	if err := ValidateTrack(track); err != nil {
		t.Fatalf("paper keyword product rejected: %v", err)
	}
	f := NewTrackFilter(track)
	if f.NumPhrases() != len(organ.Keywords()) {
		t.Errorf("phrases = %d, want %d", f.NumPhrases(), len(organ.Keywords()))
	}
	if !f.Matches("please donate your kidneys") {
		t.Error("paper filter missed a donation tweet")
	}
	if f.Matches("I donated money to charity") {
		t.Error("paper filter matched a no-organ tweet")
	}
	if f.Matches("my kidney hurts") {
		t.Error("paper filter matched a no-context tweet")
	}
}

func TestValidateTrackLimit(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 401; i++ {
		sb.WriteString("word")
		sb.WriteString(",")
	}
	if err := ValidateTrack(sb.String()); err == nil {
		t.Error("401 phrases accepted")
	}
	if err := ValidateTrack(""); err == nil {
		t.Error("empty track accepted")
	}
}

func TestStreamServerEndToEnd(t *testing.T) {
	match := sampleTweet()
	noMatch := match
	noMatch.ID = 2
	noMatch.Text = "nothing relevant"
	again := match
	again.ID = 3
	srv := httptest.NewServer(NewReplayServer([]Tweet{match, noMatch, again}, ReplayConfig{}).Handler())
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	client := &StreamClient{BaseURL: srv.URL, MaxConnects: 3}
	out := make(chan Tweet, 16)
	errc := make(chan error, 1)
	go func() { errc <- client.Filter(ctx, "donor kidney", out) }()

	var ids []int64
	for tw := range out {
		ids = append(ids, tw.ID)
	}
	if len(ids) != 2 || ids[0] != match.ID || ids[1] != again.ID {
		t.Errorf("received ids %v, want [%d %d]", ids, match.ID, again.ID)
	}
	if err := <-errc; err != nil {
		t.Errorf("Filter returned %v, want nil on clean end of stream", err)
	}
}

func TestStreamServerRejectsEmptyTrack(t *testing.T) {
	srv := httptest.NewServer(NewReplayServer([]Tweet{sampleTweet()}, ReplayConfig{}).Handler())
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	client := &StreamClient{BaseURL: srv.URL, MaxConnects: 1}
	out := make(chan Tweet)
	if err := client.Filter(ctx, "", out); err == nil {
		t.Error("empty track accepted by client")
	}

	// Direct HTTP check for the 406.
	resp, err := srv.Client().Get(srv.URL + FilterPath + "?track=")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 406 {
		t.Errorf("status = %d, want 406", resp.StatusCode)
	}
}

// TestStreamClientReconnects: injected disconnects and stalls end
// connections mid-corpus; the client must reconnect once per ended
// connection and still receive every matching tweet exactly once.
func TestStreamClientReconnects(t *testing.T) {
	corpus := chaosCorpus(600)
	rs := NewReplayServer(corpus, ReplayConfig{Seed: 11, FaultRate: 0.05, StallDuration: time.Millisecond})
	srv := httptest.NewServer(rs.Handler())
	defer srv.Close()

	client := &StreamClient{
		BaseURL:        srv.URL,
		InitialBackoff: time.Millisecond,
		MaxBackoff:     5 * time.Millisecond,
	}
	ids := collectAll(t, srv.URL, client)
	if want := wantIDs(corpus); !equalIDs(ids, want) {
		t.Errorf("delivered %d tweets, want each of the %d matching ones once, in order", len(ids), len(want))
	}
	st, cs := rs.Stats(), client.Snapshot()
	if st.Disconnects == 0 || st.Stalls == 0 {
		t.Fatalf("fault schedule injected %d disconnects and %d stalls, want both", st.Disconnects, st.Stalls)
	}
	// Every streaming connection but the last ended in an injected fault.
	if cs.Connects != st.Connections || cs.Connects < st.Disconnects+st.Stalls+1 {
		t.Errorf("client connected %d times over %d accepted connections, %d injected disconnects and %d stalls",
			cs.Connects, st.Connections, st.Disconnects, st.Stalls)
	}
}

func TestTweetJSONPropertyRoundTrip(t *testing.T) {
	f := func(id int64, txt, name, loc string, hasGeo bool, lat, lon float64) bool {
		in := Tweet{
			ID:        id,
			Text:      txt,
			CreatedAt: time.Date(2015, 7, 1, 12, 0, 0, 0, time.UTC),
			User:      User{ID: id + 1, ScreenName: name, Location: loc},
		}
		if hasGeo {
			in.SetCoordinates(lat, lon)
		}
		data, err := json.Marshal(in)
		if err != nil {
			return false
		}
		var out Tweet
		if err := json.Unmarshal(data, &out); err != nil {
			return false
		}
		if out.ID != in.ID || out.Text != in.Text || out.User != in.User {
			return false
		}
		if hasGeo != out.HasCoordinates {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkTrackFilterMatch(b *testing.B) {
	f := NewTrackFilter(organ.TrackTerms())
	texts := []string{
		"Register as an organ donor — kidney transplants save lives",
		"what a game last night",
		"my cousin needs a liver transplant, please keep her in your prayers",
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Matches(texts[i%len(texts)])
	}
}

func BenchmarkTweetMarshal(b *testing.B) {
	tw := sampleTweet()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := json.Marshal(tw); err != nil {
			b.Fatal(err)
		}
	}
}

func TestStreamClientDeleteNotices(t *testing.T) {
	// A raw handler interleaving tweets, delete notices, keep-alives, and
	// garbage; the client must deliver tweets, count deletes apart from
	// malformed lines, and skip the rest.
	tw := sampleTweet()
	payload, _ := json.Marshal(tw)
	mux := http.NewServeMux()
	mux.HandleFunc(FilterPath, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(200)
		w.Write(payload)
		w.Write([]byte("\n\n")) // tweet + keep-alive
		w.Write([]byte(`{"delete":{"status":{"id":123456789,"user_id":42}}}` + "\n"))
		w.Write([]byte("{garbage\n"))
		w.Write(payload)
		w.Write([]byte("\n"))
	})
	hs := httptest.NewServer(mux)
	defer hs.Close()

	client := &StreamClient{BaseURL: hs.URL, MaxConnects: 1}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	out := make(chan Tweet, 8)
	errc := make(chan error, 1)
	go func() { errc <- client.Filter(ctx, "donor kidney", out) }()

	var tweets []Tweet
	for tw := range out {
		tweets = append(tweets, tw)
	}
	<-errc
	if len(tweets) != 2 {
		t.Errorf("delivered %d tweets, want 2", len(tweets))
	}
	if st := client.Snapshot(); st.DeleteNotices != 1 || st.MalformedLines != 1 {
		t.Errorf("DeleteNotices = %d, MalformedLines = %d; want 1 and 1", st.DeleteNotices, st.MalformedLines)
	}
}
