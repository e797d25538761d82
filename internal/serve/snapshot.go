// Package serve is the read side of the live collector: an HTTP/JSON
// query API over the incremental analysis engine's current state.
//
// The design is RCU-style snapshot publication. After every successful
// Engine.Refresh the owning goroutine builds an immutable Snapshot — a
// deep copy of the report slices plus pre-rendered JSON bodies and a
// strong ETag derived from the publish sequence and refresh epoch — and
// swaps it in through one atomic pointer. The request hot path is a
// pointer load, an ETag compare, and a cached []byte write: no locks, no
// allocations, and no interaction with the ingest fold or the next
// Refresh. Parameterized requests render once per (snapshot, query)
// through a singleflight coalescer into a bounded per-snapshot cache, so
// a stampede on a cold key costs one render. See DESIGN.md §15.
package serve

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"donorsense/internal/geo"
	"donorsense/internal/organ"
	"donorsense/internal/report"
)

// endpoint enumerates the API routes; fixed bodies and pre-resolved
// metrics are arrays indexed by it so the hot path never hashes.
type endpoint int

const (
	epIndex endpoint = iota
	epEpoch
	epStats
	epStates
	epOrgans
	epRR
	epTop
	epClusters
	numEndpoints
)

// endpointNames are the metric/status labels, index-aligned with the
// endpoint constants.
var endpointNames = [numEndpoints]string{
	"index", "epoch", "stats", "states", "organs", "rr", "top", "clusters",
}

// endpointPaths are the served routes, index-aligned.
var endpointPaths = [numEndpoints]string{
	"/api/", "/api/epoch", "/api/stats", "/api/states", "/api/organs",
	"/api/rr", "/api/top", "/api/clusters",
}

// endpointOf resolves a request path without allocating.
func endpointOf(path string) endpoint {
	switch path {
	case "/api/", "/api":
		return epIndex
	case "/api/epoch":
		return epEpoch
	case "/api/stats":
		return epStats
	case "/api/states":
		return epStates
	case "/api/organs":
		return epOrgans
	case "/api/rr":
		return epRR
	case "/api/top":
		return epTop
	case "/api/clusters":
		return epClusters
	}
	return -1
}

// fixedTopK is how many top users the unparameterized /api/top body
// carries; ?k= renders any other cut from the retained list.
const fixedTopK = 10

// Meta carries the publish-time context that is not derivable from the
// *report.Analysis itself.
type Meta struct {
	// Epoch is the engine's attention epoch for this analysis.
	Epoch uint64
	// Refreshes counts completed engine refreshes.
	Refreshes uint64
	// Built stamps the snapshot (defaults to time.Now).
	Built time.Time
	// Top is the ranked top-mentioner list (report.TopMentioners); the
	// snapshot retains it for /api/top?k= cuts.
	Top []report.TopUser
}

// Snapshot is one immutable, fully self-contained view of the analysis:
// deep copies of every served slice, pre-rendered fixed bodies, and a
// bounded render cache for parameterized requests. Nothing in it aliases
// engine- or dataset-owned memory, so readers can hold it across any
// number of concurrent Refresh/Publish cycles.
type Snapshot struct {
	Seq       uint64
	Epoch     uint64
	Built     time.Time
	Users     int
	Refreshes uint64

	etag    string
	etagHdr []string // preallocated {etag} value for direct header assignment

	fixed [numEndpoints][]byte

	states   []stateData
	stateIdx map[string]int
	organs   [organ.Count]organData
	top      []topData
	clusters *clustersData

	cache renderCache
}

// ETag returns the snapshot's strong entity tag (quoted, per RFC 9110).
func (s *Snapshot) ETag() string { return s.etag }

type rrCell struct {
	defined     bool // point estimate and CI are directly computable
	rr, lo, hi  float64
	significant bool
	continuity  bool // values are Haldane–Anscombe continuity-corrected
}

type stateData struct {
	code   string
	users  int
	sig    [organ.Count]float64
	rr     [organ.Count]rrCell
	winner int8 // arg-max organ index of the winner-takes-all baseline; -1 none
}

type organData struct {
	users     int // users mentioning the organ at all (Figure 2a)
	groupSize int // users whose primary organ it is (Figure 3)
	sig       [organ.Count]float64
}

type topData struct {
	report.TopUser
	cluster int // K-Means cluster of the user, -1 when unclustered
}

type clustersData struct {
	k         int
	inertia   float64
	sizes     []int
	centroids [][]float64
}

// BuildSnapshot deep-copies the served slices out of the analysis and
// pre-renders every fixed endpoint. It runs on the publishing goroutine
// while the dataset is quiescent (right after Engine.Refresh), which is
// the only moment reading the live Analysis is safe; everything after
// returns is immutable.
func BuildSnapshot(a *report.Analysis, meta Meta, seq uint64) (*Snapshot, error) {
	if a == nil {
		return nil, fmt.Errorf("serve: nil analysis")
	}
	built := meta.Built
	if built.IsZero() {
		built = time.Now()
	}
	s := &Snapshot{
		Seq:       seq,
		Epoch:     meta.Epoch,
		Built:     built.UTC(),
		Users:     a.Stats.Users,
		Refreshes: meta.Refreshes,
		etag:      fmt.Sprintf("%q", fmt.Sprintf("s%d-e%d", seq, meta.Epoch)),
		stateIdx:  make(map[string]int),
		cache:     newRenderCache(defaultCacheLimit),
	}
	s.etagHdr = []string{s.etag}

	s.copyStates(a)
	s.copyOrgans(a)
	s.copyClusters(a)
	s.copyTop(a, meta.Top)

	if err := s.renderFixed(a); err != nil {
		return nil, err
	}
	return s, nil
}

// copyStates captures the region characterization, RR analysis, and
// winner-takes-all baseline, keeping only states with users.
func (s *Snapshot) copyStates(a *report.Analysis) {
	if a.Regions == nil {
		return
	}
	for i, code := range a.Regions.StateCodes {
		if i >= len(a.Regions.GroupSizes) || a.Regions.GroupSizes[i] == 0 {
			continue
		}
		sd := stateData{code: code, users: a.Regions.GroupSizes[i], winner: -1}
		copy(sd.sig[:], a.Regions.K.RowView(i))
		if a.Highlight != nil && i < len(a.Highlight.Risks) {
			for j, r := range a.Highlight.Risks[i] {
				cell := &sd.rr[j]
				switch {
				case r.Defined:
					cell.defined = true
					cell.rr, cell.lo, cell.hi = r.RR.RR, r.RR.Lower, r.RR.Upper
					cell.significant = r.Highlighted()
				case r.ContinuityDefined:
					cell.defined = true
					cell.continuity = true
					cell.rr, cell.lo, cell.hi = r.Continuity.RR, r.Continuity.Lower, r.Continuity.Upper
				}
			}
		}
		if a.Baseline != nil {
			if o, ok := a.Baseline[code]; ok {
				sd.winner = int8(o.Index())
			}
		}
		s.stateIdx[code] = len(s.states)
		s.states = append(s.states, sd)
	}
}

// copyOrgans captures popularity and the organ-perspective signatures.
func (s *Snapshot) copyOrgans(a *report.Analysis) {
	for _, o := range organ.All() {
		i := o.Index()
		od := organData{users: a.Popularity[i]}
		if a.Organs != nil {
			od.groupSize = a.Organs.GroupSizes[i]
			copy(od.sig[:], a.Organs.K.RowView(i))
		}
		s.organs[i] = od
	}
}

// copyClusters captures the Figure 7 K-Means summary (centroids, sizes).
func (s *Snapshot) copyClusters(a *report.Analysis) {
	c := a.Clusters
	if c == nil {
		return
	}
	cd := &clustersData{
		k:         c.K,
		inertia:   c.Inertia,
		sizes:     append([]int(nil), c.Sizes...),
		centroids: make([][]float64, len(c.Centroids)),
	}
	for i, cent := range c.Centroids {
		cd.centroids[i] = append([]float64(nil), cent...)
	}
	s.clusters = cd
}

// copyTop joins the ranked top-mentioner list with cluster assignments.
func (s *Snapshot) copyTop(a *report.Analysis, top []report.TopUser) {
	if len(top) == 0 {
		return
	}
	s.top = make([]topData, len(top))
	for i, u := range top {
		td := topData{TopUser: u, cluster: -1}
		if a.Clusters != nil && a.Attention != nil {
			if row := a.Attention.RowOf(u.ID); row >= 0 && row < len(a.Clusters.Labels) {
				td.cluster = a.Clusters.Labels[row]
			}
		}
		s.top[i] = td
	}
}

// ---- JSON documents ----

// docMeta heads every response body so clients can correlate payloads
// with the ETag/epoch they observed.
type docMeta struct {
	Seq   uint64    `json:"seq"`
	Epoch uint64    `json:"epoch"`
	ETag  string    `json:"etag"`
	Built time.Time `json:"built"`
}

func (s *Snapshot) meta() docMeta {
	return docMeta{Seq: s.Seq, Epoch: s.Epoch, ETag: s.etag, Built: s.Built}
}

type tableJSON struct {
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
}

type rrCellJSON struct {
	State       string  `json:"state"`
	Organ       string  `json:"organ"`
	RR          float64 `json:"rr"`
	Lower       float64 `json:"lower"`
	Upper       float64 `json:"upper"`
	Significant bool    `json:"significant"`
	Continuity  bool    `json:"continuity,omitempty"`
}

type stateJSON struct {
	Code        string             `json:"code"`
	Users       int                `json:"users"`
	Signature   map[string]float64 `json:"signature"`
	Winner      string             `json:"winner,omitempty"`
	Highlighted []string           `json:"highlighted,omitempty"`
}

type stateDetailJSON struct {
	docMeta
	stateJSON
	RR []rrCellJSON `json:"rr"`
}

type organJSON struct {
	Organ     string             `json:"organ"`
	Users     int                `json:"users"`
	GroupSize int                `json:"group_size"`
	Signature map[string]float64 `json:"signature"`
}

type organDetailJSON struct {
	docMeta
	organJSON
	StatesHighlighting []string `json:"states_highlighting"`
}

type topUserJSON struct {
	ID       int64            `json:"id"`
	State    string           `json:"state,omitempty"`
	Total    int64            `json:"total"`
	Mentions map[string]int32 `json:"mentions"`
	Primary  string           `json:"primary"`
	Cluster  *int             `json:"cluster,omitempty"`
}

type topDocJSON struct {
	docMeta
	K       int           `json:"k"`
	Tracked int           `json:"tracked"`
	Users   []topUserJSON `json:"users"`
}

type clusterJSON struct {
	ID       int                `json:"id"`
	Size     int                `json:"size"`
	Share    float64            `json:"share"`
	Centroid map[string]float64 `json:"centroid"`
}

// sigMap renders a signature row as an organ-keyed map (encoding/json
// sorts the keys, so bodies are deterministic).
func sigMap(sig []float64) map[string]float64 {
	m := make(map[string]float64, len(sig))
	for i, v := range sig {
		m[organ.Organ(i).String()] = v
	}
	return m
}

func (sd *stateData) toJSON() stateJSON {
	sj := stateJSON{Code: sd.code, Users: sd.users, Signature: sigMap(sd.sig[:])}
	if sd.winner >= 0 {
		sj.Winner = organ.Organ(sd.winner).String()
	}
	for j := range sd.rr {
		if sd.rr[j].significant {
			sj.Highlighted = append(sj.Highlighted, organ.Organ(j).String())
		}
	}
	return sj
}

func (sd *stateData) rrCells(only organ.Organ, all bool) []rrCellJSON {
	var out []rrCellJSON
	for j := range sd.rr {
		c := &sd.rr[j]
		if !c.defined {
			continue
		}
		if !all && organ.Organ(j) != only {
			continue
		}
		out = append(out, rrCellJSON{
			State: sd.code, Organ: organ.Organ(j).String(),
			RR: c.rr, Lower: c.lo, Upper: c.hi,
			Significant: c.significant, Continuity: c.continuity,
		})
	}
	return out
}

// renderFixed marshals every fixed endpoint body once, at build time.
func (s *Snapshot) renderFixed(a *report.Analysis) error {
	render := func(ep endpoint, doc any) error {
		b, err := json.Marshal(doc)
		if err != nil {
			return fmt.Errorf("serve: render %s: %w", endpointNames[ep], err)
		}
		s.fixed[ep] = append(b, '\n')
		return nil
	}

	paths := make([]string, 0, numEndpoints-1)
	for ep := epEpoch; ep < numEndpoints; ep++ {
		paths = append(paths, endpointPaths[ep])
	}
	if err := render(epIndex, struct {
		docMeta
		Endpoints []string `json:"endpoints"`
	}{s.meta(), paths}); err != nil {
		return err
	}

	if err := render(epEpoch, struct {
		docMeta
		Users     int    `json:"users"`
		Refreshes uint64 `json:"refreshes"`
	}{s.meta(), s.Users, s.Refreshes}); err != nil {
		return err
	}

	popularity := make(map[string]int, organ.Count)
	for i, c := range a.Popularity {
		popularity[organ.Organ(i).String()] = c
	}
	if err := render(epStats, struct {
		docMeta
		Table      tableJSON      `json:"table"`
		Popularity map[string]int `json:"popularity"`
		Spearman   struct {
			R float64 `json:"r"`
			P float64 `json:"p"`
			N int     `json:"n"`
		} `json:"spearman"`
		MultiTweets [organ.Count]int `json:"multi_organ_tweets"`
		MultiUsers  [organ.Count]int `json:"multi_organ_users"`
	}{
		docMeta: s.meta(),
		Table: tableJSON{
			Start:            a.Stats.Start.UTC().Format(time.RFC3339),
			End:              a.Stats.End.UTC().Format(time.RFC3339),
			Days:             a.Stats.Days,
			TweetsUS:         a.Stats.TweetsCollected,
			TweetsTotal:      a.Stats.TotalCollected,
			Users:            a.Stats.Users,
			AvgTweetsPerDay:  a.Stats.AvgTweetsPerDay,
			AvgTweetsPerUser: a.Stats.AvgTweetsPerUser,
			OrgansPerTweet:   a.Stats.OrgansPerTweet,
			OrgansPerUser:    a.Stats.OrgansPerUser,
			GeoTagRate:       a.Stats.GeoTagRate,
		},
		Popularity: popularity,
		Spearman: struct {
			R float64 `json:"r"`
			P float64 `json:"p"`
			N int     `json:"n"`
		}{a.Spearman.R, a.Spearman.P, a.Spearman.N},
		MultiTweets: a.MultiTweets,
		MultiUsers:  a.MultiUsers,
	}); err != nil {
		return err
	}

	states := make([]stateJSON, len(s.states))
	for i := range s.states {
		states[i] = s.states[i].toJSON()
	}
	if err := render(epStates, struct {
		docMeta
		States []stateJSON `json:"states"`
	}{s.meta(), states}); err != nil {
		return err
	}

	organs := make([]organJSON, organ.Count)
	for _, o := range organ.All() {
		od := &s.organs[o.Index()]
		organs[o.Index()] = organJSON{
			Organ: o.String(), Users: od.users,
			GroupSize: od.groupSize, Signature: sigMap(od.sig[:]),
		}
	}
	if err := render(epOrgans, struct {
		docMeta
		Organs []organJSON `json:"organs"`
	}{s.meta(), organs}); err != nil {
		return err
	}

	if err := render(epRR, s.rrDoc(-1, "")); err != nil {
		return err
	}
	if err := render(epTop, s.topDoc(fixedTopK)); err != nil {
		return err
	}

	clusters := struct {
		docMeta
		K        int           `json:"k"`
		Inertia  float64       `json:"inertia"`
		Clusters []clusterJSON `json:"clusters"`
	}{docMeta: s.meta()}
	if c := s.clusters; c != nil {
		clusters.K, clusters.Inertia = c.k, c.inertia
		for i, size := range c.sizes {
			share := 0.0
			if s.Users > 0 {
				share = float64(size) / float64(s.Users)
			}
			clusters.Clusters = append(clusters.Clusters, clusterJSON{
				ID: i, Size: size, Share: share, Centroid: sigMap(c.centroids[i]),
			})
		}
	}
	return render(epClusters, clusters)
}

// rrDoc builds the RR cell list, optionally filtered by organ (o >= 0)
// and/or state code (non-empty, canonical upper case).
func (s *Snapshot) rrDoc(o organ.Organ, state string) any {
	var cells []rrCellJSON
	for i := range s.states {
		sd := &s.states[i]
		if state != "" && sd.code != state {
			continue
		}
		cells = append(cells, sd.rrCells(o, o < 0)...)
	}
	if cells == nil {
		cells = []rrCellJSON{}
	}
	return struct {
		docMeta
		Cells []rrCellJSON `json:"cells"`
	}{s.meta(), cells}
}

// topDoc builds the top-k document; k is clamped to the retained list.
func (s *Snapshot) topDoc(k int) topDocJSON {
	if k > len(s.top) {
		k = len(s.top)
	}
	doc := topDocJSON{docMeta: s.meta(), K: k, Tracked: len(s.top), Users: make([]topUserJSON, 0, k)}
	for i := 0; i < k; i++ {
		td := &s.top[i]
		uj := topUserJSON{
			ID: td.ID, State: td.State, Total: td.Total,
			Mentions: make(map[string]int32, organ.Count),
			Primary:  td.Primary().String(),
		}
		for j, m := range td.Mentions {
			if m > 0 {
				uj.Mentions[organ.Organ(j).String()] = m
			}
		}
		if td.cluster >= 0 {
			c := td.cluster
			uj.Cluster = &c
		}
		doc.Users = append(doc.Users, uj)
	}
	return doc
}

// normalizeState canonicalizes a ?state= value; geo codes are upper-case
// USPS abbreviations.
func normalizeState(v string) string { return strings.ToUpper(strings.TrimSpace(v)) }

// stateByCode returns the retained state row, or nil when the code has
// no users in this snapshot (or is not a state at all).
func (s *Snapshot) stateByCode(code string) *stateData {
	if geo.StateIndex(code) < 0 {
		return nil
	}
	i, ok := s.stateIdx[code]
	if !ok {
		return nil
	}
	return &s.states[i]
}
